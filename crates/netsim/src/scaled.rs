//! The serve-scale fluid simulator: calendar-queue event scheduling,
//! class-level aggregation and per-class parallel stepping.
//!
//! [`crate::FluidSim`] advances *every* group at a global tick derived
//! from the **smallest** RTT in the system — a 25× RTT spread means the
//! slowest groups are integrated 25× more often than their dynamics
//! need, and the cost per tick is O(groups). [`ScaledSim`] removes both
//! factors:
//!
//! * **RTT-clocked updates.** Each flow class updates its AIMD window
//!   every `round(RTT/min RTT)` base ticks; between updates a class
//!   costs nothing. Classes with equal periods always fall due together,
//!   so each such **cohort** shares one recurring event on a
//!   [`crate::CalendarQueue`] — scheduler traffic scales with the number
//!   of distinct periods, not with the number of classes.
//!   The bottleneck queue is integrated lazily up to each event time
//!   (arrival rates are piecewise-constant between class updates), with
//!   a cancellable **drain timer** pinning an integration point at the
//!   instant the backlog empties.
//! * **Class aggregation.** Groups with identical `(RTT, rate cap)`
//!   share one aggregate window state with an exact per-group expansion
//!   — the same one-state-per-identical-population argument
//!   [`crate::FlowState`] already makes for flows within a group.
//! * **Parallel stepping.** All classes due at one event time form a
//!   batch; large batches are mapped over the `pubopt-sched` pool. The
//!   map writes slot *i* from item *i* regardless of thread interleaving
//!   and results are committed in slot order, so traces are bit-identical
//!   across worker counts (the sweep runners' determinism discipline).
//!
//! ## Determinism contract
//!
//! Events at one time are processed as: class updates (cohorts in
//! schedule order, members in class-index order), then
//! phase/sample/drain events. Every arithmetic operation is
//! ordered by class index or schedule sequence — never by thread timing
//! — so a run is a pure function of `(groups, config, workers ≥ 1 ×
//! sample period)`, and byte-identical across `workers`.

use crate::calendar::{CalendarQueue, EventId};
use crate::flow::{FlowGroup, FlowState};
use crate::sim::{build_bottleneck, Bottleneck, GroupIndexError, SimConfig, SimReport};
use crate::trace::{Trace, TraceSample};
use std::collections::HashMap;

/// Batch size below which a parallel dispatch costs more than it saves;
/// smaller batches run inline (same arithmetic, same commit order, so
/// the choice never changes results).
const PARALLEL_THRESHOLD: usize = 48;

/// Aggregate state of one flow class: every group with the same
/// `(rtt_base, rate_cap)` pair, stepped as one representative window.
#[derive(Debug, Clone)]
struct ClassState {
    /// Base RTT shared by all member groups (seconds).
    rtt_base: f64,
    /// Application rate cap shared by all member groups.
    cap: f64,
    /// Total arrival-weight of the class: active flows across member
    /// groups, with empty groups counting one probe flow when
    /// [`SimConfig::probe_empty_groups`] is set.
    flows: f64,
    /// Representative congestion window (MSS).
    cwnd: f64,
    /// Per-flow send rate as of the last update (units/s).
    rate: f64,
    /// Time of the last update (seconds).
    last_t: f64,
    /// Value of the global loss integral at the last update.
    last_loss_int: f64,
    /// Accumulated per-flow goodput·time over the measurement window.
    goodput: f64,
}

/// Every class with one update period. Members start on the same tick
/// and advance by the same stride, so they are always due together and
/// share one recurring calendar event.
#[derive(Debug, Clone)]
struct Cohort {
    /// Update period in base ticks (`round(rtt / min_rtt)`, ≥ 1).
    period_ticks: u64,
    /// Member class indices, ascending.
    members: Vec<u32>,
    /// Next scheduled update, in base ticks.
    next_tick: u64,
}

/// Events driving the scaled simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// AIMD update of every class in one cohort (index into the cohort
    /// table).
    Cohort(u32),
    /// Measurement window opens.
    StartMeasure,
    /// Simulation ends.
    Stop,
    /// Trace sample point.
    Sample,
    /// The bottleneck backlog is predicted to hit zero: forces an
    /// integration point exactly at the kink. Cancelled and rescheduled
    /// whenever the aggregate arrival rate changes.
    Drain,
}

/// Report of a scaled run: the standard [`SimReport`] (expanded back to
/// per-group values) plus scheduler effort counters.
#[derive(Debug, Clone)]
pub struct ScaledReport {
    /// Per-group report, directly comparable with [`crate::FluidSim::run`].
    pub report: SimReport,
    /// Number of aggregated flow classes the groups collapsed into.
    pub classes: usize,
    /// Calendar events processed: one per due cohort (all classes
    /// sharing an update period) per update tick, plus phase, sample and
    /// drain events — not one per class update.
    pub events: u64,
    /// Class AIMD updates executed (the O(·) work term; the fixed-dt
    /// path's equivalent is `groups × steps`).
    pub updates: u64,
}

/// The event-driven, class-aggregated fluid simulator.
#[derive(Debug, Clone)]
pub struct ScaledSim {
    /// Flow groups under simulation (one per CP, as in [`crate::FluidSim`]).
    pub groups: Vec<FlowGroup>,
    /// Simulation parameters (MSS resolved at construction).
    pub config: SimConfig,
    /// Maximum workers for per-class parallel stepping (1 = inline).
    pub workers: usize,
    classes: Vec<ClassState>,
    cohorts: Vec<Cohort>,
    group_class: Vec<usize>,
    queue: Bottleneck,
    base_dt: f64,
}

impl ScaledSim {
    /// Build a scaled simulator over `groups`, aggregating identical
    /// `(RTT, cap)` classes, with up to `workers` threads per batch.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or the configuration is degenerate
    /// (same contract as [`crate::FluidSim::new`]).
    pub fn new(groups: Vec<FlowGroup>, mut config: SimConfig, workers: usize) -> Self {
        assert!(!groups.is_empty(), "need at least one flow group");
        assert!(config.capacity > 0.0, "capacity must be positive");
        assert!(config.mss >= 0.0, "mss must be non-negative (0 = auto)");
        assert!(config.dt_rtt_fraction > 0.0 && config.dt_rtt_fraction <= 0.5);
        let min_rtt = groups
            .iter()
            .map(|g| g.rtt_base)
            .fold(f64::INFINITY, f64::min);
        let queue = build_bottleneck(&mut config, min_rtt);
        let base_dt = config.dt_rtt_fraction * min_rtt;

        // Aggregate by exact (rtt, cap) bit pattern, and classes by
        // period into cohorts; both ordered by first occurrence so the
        // layout is independent of hash state.
        let mut index: HashMap<(u64, u64), usize> = HashMap::new();
        let mut cohort_of_period: HashMap<u64, usize> = HashMap::new();
        let mut classes: Vec<ClassState> = Vec::new();
        let mut cohorts: Vec<Cohort> = Vec::new();
        let mut group_class = Vec::with_capacity(groups.len());
        for g in &groups {
            let key = (g.rtt_base.to_bits(), g.rate_cap.to_bits());
            let c = *index.entry(key).or_insert_with(|| {
                let period_ticks = ((g.rtt_base / min_rtt).round() as u64).max(1);
                let k = *cohort_of_period.entry(period_ticks).or_insert_with(|| {
                    cohorts.push(Cohort {
                        period_ticks,
                        members: Vec::new(),
                        next_tick: 0,
                    });
                    cohorts.len() - 1
                });
                cohorts[k].members.push(classes.len() as u32);
                classes.push(ClassState {
                    rtt_base: g.rtt_base,
                    cap: g.rate_cap,
                    flows: 0.0,
                    cwnd: 1.0,
                    rate: 0.0,
                    last_t: 0.0,
                    last_loss_int: 0.0,
                    goodput: 0.0,
                });
                classes.len() - 1
            });
            group_class.push(c);
        }
        let mut sim = Self {
            groups,
            config,
            workers: workers.max(1),
            classes,
            cohorts,
            group_class,
            queue,
            base_dt,
        };
        sim.recount_flows();
        sim
    }

    /// Number of aggregated flow classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Replace the active flow count of group `g` (the churn driver's
    /// hook), updating the owning class's arrival weight.
    ///
    /// # Errors
    ///
    /// [`GroupIndexError`] when `g` is out of range; the simulator is
    /// unchanged.
    pub fn try_set_flow_count(&mut self, g: usize, flows: usize) -> Result<(), GroupIndexError> {
        match self.groups.get_mut(g) {
            Some(group) => {
                group.flows = flows;
                self.recount_flows();
                Ok(())
            }
            None => Err(GroupIndexError {
                index: g,
                groups: self.groups.len(),
            }),
        }
    }

    /// Recompute every class's arrival weight from its member groups, in
    /// group order (deterministic summation).
    fn recount_flows(&mut self) {
        for class in &mut self.classes {
            class.flows = 0.0;
        }
        let probe = self.config.probe_empty_groups;
        for (g, group) in self.groups.iter().enumerate() {
            let eff = if group.flows == 0 && probe {
                1.0
            } else {
                group.flows as f64
            };
            self.classes[self.group_class[g]].flows += eff;
        }
    }

    /// Run warm-up then measurement; the report's per-group values are
    /// the exact expansion of the class aggregates.
    ///
    /// # Panics
    ///
    /// Panics if `config.measure` is not positive.
    pub fn run(&mut self) -> ScaledReport {
        self.run_inner(None).0
    }

    /// [`ScaledSim::run`], additionally sampling a [`Trace`] every
    /// `period` seconds from the start of the measurement window. The
    /// trace is bit-identical across worker counts.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `config.measure` is not positive.
    pub fn run_traced(&mut self, period: f64) -> (ScaledReport, Trace) {
        assert!(period > 0.0, "sample period must be positive");
        let (report, trace) = self.run_inner(Some(period));
        (report, trace.expect("tracing was requested"))
    }

    /// Pure per-class update: advance the class window across
    /// `[class.last_t, t]` under the mean loss of that interval, and
    /// account the interval's goodput overlap with the measure window.
    fn update_one(
        class: &ClassState,
        t: f64,
        qdelay: f64,
        loss_int: f64,
        mss: f64,
        measure_lo: f64,
        measure_hi: f64,
    ) -> (f64, f64, f64) {
        let dt = t - class.last_t;
        let p = if dt > 0.0 {
            ((loss_int - class.last_loss_int) / dt).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rtt = class.rtt_base + qdelay;
        // Goodput of the elapsed interval at the held send rate, clipped
        // to the measurement window.
        let overlap = (t.min(measure_hi) - class.last_t.max(measure_lo)).max(0.0);
        let goodput_add = class.rate * (1.0 - p) * overlap;
        let mut state = FlowState {
            cwnd: class.cwnd,
            group: 0,
        };
        state.step(dt, rtt, p, mss, class.cap);
        let rate = state.rate(mss, rtt, class.cap);
        (state.cwnd, rate, goodput_add)
    }

    fn run_inner(&mut self, sample_period: Option<f64>) -> (ScaledReport, Option<Trace>) {
        assert!(
            self.config.measure > 0.0,
            "measure duration must be positive"
        );
        pubopt_obs::incr("netsim.scaled_runs");
        let sw = pubopt_obs::Stopwatch::start("netsim.scaled_run_ns");
        let warmup = self.config.warmup;
        let stop_t = warmup + self.config.measure;
        let measure = self.config.measure;
        let mss = self.config.mss;
        let capacity = self.config.capacity;
        let base_dt = self.base_dt;

        // Reset per-run bookkeeping; window and queue state carry across
        // runs (the churn driver's carry mode relies on that).
        let init_delay = self.queue.delay();
        let mut agg_rate = 0.0;
        for class in &mut self.classes {
            let rtt = class.rtt_base + init_delay;
            class.rate = FlowState {
                cwnd: class.cwnd,
                group: 0,
            }
            .rate(mss, rtt, class.cap);
            class.last_t = 0.0;
            class.last_loss_int = 0.0;
            class.goodput = 0.0;
            agg_rate += class.flows * class.rate;
        }

        let mut cal: CalendarQueue<Ev> = CalendarQueue::new();
        for (k, cohort) in self.cohorts.iter_mut().enumerate() {
            cohort.next_tick = cohort.period_ticks;
            let first = cohort.next_tick as f64 * base_dt;
            if first <= stop_t {
                cal.schedule(first, Ev::Cohort(k as u32));
            }
        }
        cal.schedule(warmup, Ev::StartMeasure);
        cal.schedule(stop_t, Ev::Stop);
        let mut next_sample = sample_period.map(|_| warmup);
        if sample_period.is_some() {
            cal.schedule(warmup, Ev::Sample);
        }
        let mut trace = sample_period.map(|_| Trace::default());

        let mut drain: Option<EventId> = None;
        let mut queue_t = 0.0;
        let mut loss_int = 0.0;
        let mut delay_int = 0.0;
        let mut loss_at_measure = 0.0;
        let mut delay_at_measure = 0.0;
        let mut events = 0u64;
        let mut updates = 0u64;
        // Due cohorts in pop order, and their members concatenated: the
        // batch's slot order is the commit order.
        let mut due: Vec<u32> = Vec::new();
        let mut batch: Vec<u32> = Vec::new();
        let mut results: Vec<(f64, f64, f64)> = Vec::new();

        while let Some((t, first)) = cal.pop() {
            events += 1;
            due.clear();
            batch.clear();
            let mut start_measure = false;
            let mut sample = false;
            let mut stop = false;
            let cohorts = &self.cohorts;
            let mut classify = |ev: Ev| match ev {
                Ev::Cohort(k) => {
                    due.push(k);
                    batch.extend_from_slice(&cohorts[k as usize].members);
                }
                Ev::StartMeasure => start_measure = true,
                Ev::Sample => sample = true,
                Ev::Stop => stop = true,
                Ev::Drain => {}
            };
            classify(first);
            while cal.peek_time() == Some(t) {
                let (_, ev) = cal.pop().expect("peeked event present");
                events += 1;
                classify(ev);
            }

            // Integrate the queue up to this batch under the held
            // aggregate arrival rate.
            if t > queue_t {
                let dt = t - queue_t;
                let p = self.queue.step(dt, agg_rate);
                loss_int += p * dt;
                delay_int += self.queue.delay() * dt;
                queue_t = t;
            }
            let qdelay = self.queue.delay();

            // Class updates: compute in parallel (slot i ← item i, so
            // worker count never reorders arithmetic), commit serially
            // in slot order.
            if !batch.is_empty() {
                updates += batch.len() as u64;
                let classes = &self.classes;
                let work = |&c: &u32| {
                    Self::update_one(
                        &classes[c as usize],
                        t,
                        qdelay,
                        loss_int,
                        mss,
                        warmup,
                        stop_t,
                    )
                };
                if batch.len() >= PARALLEL_THRESHOLD && self.workers > 1 {
                    results = pubopt_sched::Pool::global().map(&batch, self.workers, work);
                } else {
                    results.clear();
                    results.extend(batch.iter().map(work));
                }
                for (&c, &(cwnd, rate, goodput_add)) in batch.iter().zip(&results) {
                    let class = &mut self.classes[c as usize];
                    agg_rate += class.flows * (rate - class.rate);
                    class.cwnd = cwnd;
                    class.rate = rate;
                    class.goodput += goodput_add;
                    class.last_t = t;
                    class.last_loss_int = loss_int;
                }
                // One reschedule per cohort, in pop order. Cohorts due at
                // one tick have distinct periods, so they were last
                // scheduled at distinct ticks and the calendar's sequence
                // tie-break orders them exactly as per-class events were.
                for &k in &due {
                    let cohort = &mut self.cohorts[k as usize];
                    cohort.next_tick += cohort.period_ticks;
                    let next = cohort.next_tick as f64 * base_dt;
                    if next <= stop_t {
                        cal.schedule(next, Ev::Cohort(k));
                    }
                }
            }

            if start_measure {
                loss_at_measure = loss_int;
                delay_at_measure = delay_int;
            }
            if sample {
                if let (Some(trace), Some(period)) = (trace.as_mut(), sample_period) {
                    let rates = (0..self.groups.len())
                        .map(|g| {
                            let class = &self.classes[self.group_class[g]];
                            FlowState {
                                cwnd: class.cwnd,
                                group: 0,
                            }
                            .rate(
                                mss,
                                class.rtt_base + qdelay,
                                class.cap,
                            )
                        })
                        .collect();
                    trace.push(TraceSample {
                        time: t,
                        rates,
                        queue_delay: qdelay,
                    });
                    let at = next_sample.expect("sampling active") + period;
                    next_sample = Some(at);
                    if at <= stop_t {
                        cal.schedule(at, Ev::Sample);
                    }
                }
            }
            if stop {
                // Flush each class's final partial interval.
                for class in &mut self.classes {
                    let dt = stop_t - class.last_t;
                    if dt > 0.0 {
                        let p = ((loss_int - class.last_loss_int) / dt).clamp(0.0, 1.0);
                        let overlap = (stop_t - class.last_t.max(warmup)).max(0.0);
                        class.goodput += class.rate * (1.0 - p) * overlap;
                        class.last_t = stop_t;
                    }
                }
                break;
            }

            // Re-arm the drain timer against the new aggregate rate.
            if let Some(id) = drain.take() {
                cal.cancel(id);
            }
            let backlog = self.queue.backlog();
            if backlog > 0.0 && agg_rate < capacity {
                let t_empty = queue_t + backlog / (capacity - agg_rate);
                if t_empty < stop_t {
                    drain = Some(cal.schedule(t_empty, Ev::Drain));
                }
            }
            cal.maybe_shrink();
        }

        pubopt_obs::add("netsim.scaled_updates", updates);
        pubopt_obs::add("netsim.scaled_events", events);
        sw.stop();

        let class_rate: Vec<f64> = self.classes.iter().map(|c| c.goodput / measure).collect();
        let per_flow_rate = self
            .group_class
            .iter()
            .map(|&c| class_rate[c])
            .collect::<Vec<_>>();
        let mut aggregate = 0.0;
        for (class, rate) in self.classes.iter().zip(&class_rate) {
            aggregate += class.flows * rate;
        }
        let report = SimReport {
            per_flow_rate,
            aggregate: aggregate.min(capacity),
            mean_loss: (loss_int - loss_at_measure) / measure,
            mean_queue_delay: (delay_int - delay_at_measure) / measure,
            duration: stop_t,
        };
        (
            ScaledReport {
                report,
                classes: self.classes.len(),
                events,
                updates,
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::compare_report_to_maxmin;
    use crate::FluidSim;
    use pubopt_num::Rng;

    fn quick_config(capacity: f64) -> SimConfig {
        SimConfig {
            capacity,
            warmup: 30.0,
            measure: 30.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn matches_fixed_dt_on_homogeneous_groups() {
        let groups = vec![
            FlowGroup::new("a", 3, 1e9, 0.1),
            FlowGroup::new("b", 2, 1e9, 0.1),
        ];
        let fixed = FluidSim::new(groups.clone(), quick_config(100.0)).run();
        let scaled = ScaledSim::new(groups, quick_config(100.0), 1).run();
        for (f, s) in fixed.per_flow_rate.iter().zip(&scaled.report.per_flow_rate) {
            assert!(
                (f - s).abs() < 0.05 * (f + s).max(1.0),
                "fixed {f} vs scaled {s}"
            );
        }
        assert!((fixed.aggregate - scaled.report.aggregate).abs() < 0.05 * fixed.aggregate);
    }

    #[test]
    fn identical_groups_aggregate_into_one_class() {
        let groups: Vec<FlowGroup> = (0..32)
            .map(|i| FlowGroup::new(format!("g{i}"), 4, 1e9, 0.08))
            .collect();
        let mut sim = ScaledSim::new(groups, quick_config(100.0), 1);
        assert_eq!(sim.class_count(), 1, "32 identical groups share a class");
        let out = sim.run();
        // 128 flows over C=100: each ≈ 0.78; all groups expand identically.
        let first = out.report.per_flow_rate[0];
        assert!(out.report.per_flow_rate.iter().all(|r| *r == first));
        assert!(out.report.aggregate > 85.0, "{}", out.report.aggregate);
    }

    #[test]
    fn capped_class_sits_at_its_cap() {
        let groups = vec![
            FlowGroup::new("capped", 2, 5.0, 0.1),
            FlowGroup::new("greedy", 1, 1e9, 0.1),
        ];
        let out = ScaledSim::new(groups, quick_config(100.0), 1).run();
        assert!(
            (out.report.per_flow_rate[0] - 5.0).abs() < 0.5,
            "capped ≈ 5, got {}",
            out.report.per_flow_rate[0]
        );
        assert!(
            out.report.per_flow_rate[1] > 75.0,
            "greedy takes the rest, got {}",
            out.report.per_flow_rate[1]
        );
    }

    #[test]
    fn divergence_vs_maxmin_stays_within_validate_tolerance() {
        // A heterogeneous-cap population at matched RTTs: the scaled path
        // must reproduce the water-filling prediction as closely as the
        // fixed-dt path does (the §II-D.2 tolerance).
        let mut rng = Rng::seed_from_u64(11);
        let groups: Vec<FlowGroup> = (0..24)
            .map(|i| {
                let cap = if i % 3 == 0 {
                    rng.uniform(0.5, 2.0)
                } else {
                    1e9
                };
                FlowGroup::new(format!("g{i}"), 3, cap, 0.08)
            })
            .collect();
        let mut sim = ScaledSim::new(groups.clone(), quick_config(80.0), 1);
        let out = sim.run();
        let cmp = compare_report_to_maxmin(&out.report, &groups, 80.0);
        assert!(
            cmp.mean_rel_error < 0.10,
            "mean divergence {} too large: sim {:?} pred {:?}",
            cmp.mean_rel_error,
            cmp.simulated,
            cmp.predicted
        );
    }

    #[test]
    fn traces_are_bit_identical_across_worker_counts() {
        let pop_groups = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..96)
                .map(|i| {
                    let rtt = rng.uniform(0.02f64.ln(), 0.2f64.ln()).exp();
                    FlowGroup::new(format!("g{i}"), 2 + (i % 5), 1e9, rtt)
                })
                .collect::<Vec<_>>()
        };
        let run = |workers: usize| {
            let mut sim = ScaledSim::new(pop_groups(5), quick_config(200.0), workers);
            sim.run_traced(0.5)
        };
        let (r1, t1) = run(1);
        for workers in [2, 4, 8] {
            let (r, t) = run(workers);
            assert_eq!(t1, t, "trace diverges at {workers} workers");
            assert_eq!(
                r1.report.per_flow_rate, r.report.per_flow_rate,
                "report diverges at {workers} workers"
            );
            assert_eq!(r1.updates, r.updates);
        }
        assert!(!t1.is_empty());
    }

    /// Seeded mixed-cap, mixed-period population: `n` groups with RTTs
    /// from {0.04, 0.08, 0.1, 0.12, 0.16} s (periods 1, 2, 3, 3, 4 base
    /// ticks) and every other group capped.
    fn mixed_period_groups(seed: u64, n: usize) -> Vec<FlowGroup> {
        const RTTS: [f64; 5] = [0.04, 0.08, 0.1, 0.12, 0.16];
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cap = if i % 2 == 0 {
                    rng.uniform(0.3, 3.0)
                } else {
                    1e9
                };
                let rtt = RTTS[rng.below(RTTS.len() as u64) as usize];
                FlowGroup::new(format!("g{i}"), 2 + (i % 5), cap, rtt)
            })
            .collect()
    }

    #[test]
    fn mixed_periods_run_every_scheduled_update_in_time_order() {
        // The calendar queue asserts on every pop that time never runs
        // backwards, so these runs also pin pop order. Every class update
        // scheduled at or before `Stop` must run: the count is exactly
        // Σ_class #{k ≥ 1 : k·period·base_dt ≤ stop_t}, evaluated with
        // the scheduler's own expression.
        for seed in 0..12 {
            let mut sim = ScaledSim::new(mixed_period_groups(seed, 40), quick_config(120.0), 1);
            let out = sim.run();
            let stop_t = sim.config.warmup + sim.config.measure;
            let expected: u64 = sim
                .cohorts
                .iter()
                .map(|c| {
                    let ticks = (1..)
                        .take_while(|k| (k * c.period_ticks) as f64 * sim.base_dt <= stop_t)
                        .count();
                    (ticks * c.members.len()) as u64
                })
                .sum();
            assert_eq!(out.updates, expected, "seed {seed}: lost class updates");
        }
    }

    /// FNV-1a over the bit patterns of a run's trace and report.
    fn run_digest(report: &ScaledReport, trace: &Trace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (t, q) in trace.times().iter().zip(trace.queue_delays()) {
            eat(t.to_bits());
            eat(q.to_bits());
        }
        for g in 0..report.report.per_flow_rate.len() {
            for r in trace.rate_series(g) {
                eat(r.to_bits());
            }
        }
        for r in &report.report.per_flow_rate {
            eat(r.to_bits());
        }
        eat(report.report.aggregate.to_bits());
        eat(report.report.mean_loss.to_bits());
        eat(report.report.mean_queue_delay.to_bits());
        eat(report.updates);
        h
    }

    #[test]
    fn mixed_period_traces_match_pinned_digests() {
        // Digests of mixed-period runs recorded from the per-class
        // scheduler (one calendar event per class per update) on the
        // boundary-fixed queue. Any change to which classes update when,
        // or in which order their results commit, moves these bits. The
        // 96-group populations put every period on the lattice and reach
        // batches above PARALLEL_THRESHOLD, so 2/4/8 workers take the
        // parallel path.
        const PINNED: [u64; 4] = [
            0xb5d4_67f3_43b2_e3a1,
            0x9a5b_ba95_7698_8580,
            0x9331_3e5a_3551_20f0,
            0xbdfd_302f_3c59_0066,
        ];
        for (seed, want) in (0..).zip(PINNED) {
            for workers in [1, 2, 4, 8] {
                let config = SimConfig {
                    warmup: 4.0,
                    measure: 6.0,
                    ..quick_config(200.0)
                };
                let mut sim = ScaledSim::new(mixed_period_groups(seed, 96), config, workers);
                let (report, trace) = sim.run_traced(0.25);
                let got = run_digest(&report, &trace);
                assert_eq!(
                    got, want,
                    "seed {seed} at {workers} workers: digest {got:#018x}"
                );
            }
        }
    }

    #[test]
    fn rtt_spread_cuts_update_work() {
        // Self-clocking: a 10× RTT spread must do far fewer updates than
        // groups-times-ticks.
        let mut rng = Rng::seed_from_u64(3);
        let groups: Vec<FlowGroup> = (0..64)
            .map(|i| {
                let rtt = rng.uniform(0.05f64.ln(), 0.5f64.ln()).exp();
                FlowGroup::new(format!("g{i}"), 2, 1e9, rtt)
            })
            .collect();
        let mut sim = ScaledSim::new(groups, quick_config(200.0), 1);
        let out = sim.run();
        let min_rtt = sim
            .groups
            .iter()
            .map(|g| g.rtt_base)
            .fold(f64::INFINITY, f64::min);
        let ticks = (60.0 / (0.05 * min_rtt)) as u64;
        let fixed_dt_updates = ticks * sim.groups.len() as u64;
        assert!(
            out.updates * 2 < fixed_dt_updates,
            "event path {} vs fixed-dt equivalent {}",
            out.updates,
            fixed_dt_updates
        );
    }

    #[test]
    fn set_flow_count_updates_class_weights() {
        let groups = vec![
            FlowGroup::new("a", 2, 1e9, 0.1),
            FlowGroup::new("b", 2, 1e9, 0.1),
        ];
        let mut sim = ScaledSim::new(groups, quick_config(100.0), 1);
        assert_eq!(sim.class_count(), 1);
        sim.try_set_flow_count(0, 6).unwrap();
        assert_eq!(sim.classes[0].flows, 8.0);
        let err = sim.try_set_flow_count(9, 1).unwrap_err();
        assert_eq!(err.to_string(), "group index 9 out of range (2 groups)");
    }

    #[test]
    #[should_panic(expected = "need at least one flow group")]
    fn rejects_empty_groups() {
        ScaledSim::new(vec![], SimConfig::default(), 1);
    }
}
