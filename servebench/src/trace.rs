//! The traced in-process replay and the per-layer metrics.
//!
//! The replay runs a workload's priming queries and then the head of its
//! timed stream, in workload order, in one thread, on a fresh
//! [`ScenarioStore`] and [`WarmPool`]. Each query gets a `query` span
//! with children around `ApiRequest::parse` + `canonical_key`, the
//! [`ShardedCache`] lookup and, on a miss, `ApiRequest::handle`. Then,
//! for the same query, the replay calls the layers beneath `handle`
//! directly — population, warm entry, equilibrium solve, Λ probe, demand
//! kernel, game, capacity sizing, each netsim tier and its compare step —
//! on a second fresh store and pool, so the warm state those calls see
//! evolves exactly as `handle`'s does and every count repeats. Spans
//! stay in memory and are written out when the replay ends.

use crate::stats::{percentile_of, ratio};
use crate::workload::{Query, Stream, Workload};
use pubopt_core::{competitive_equilibrium_warm, minimum_po_capacity, GameWarmStart, IspStrategy};
use pubopt_demand::Population;
use pubopt_eq::{lambda_block_partials, try_solve_maxmin_warm};
use pubopt_netsim::{compare_report_to_maxmin, FlowGroup, ScaledSim, SimConfig};
use pubopt_num::recover::SolverPolicy;
use pubopt_num::Tolerance;
use pubopt_serve::api::{ApiRequest, CapacityParams, EqParams, StrategyParams, WhatifParams};
use pubopt_serve::{ScenarioStore, ShardedCache, WarmPool};
use pubopt_workload::ScenarioKind;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The `/v1/whatif` endpoint's fixed simulation window (seconds of
/// simulated warm-up and measurement), part of its contract.
const WHATIF_WARMUP: f64 = 30.0;
const WHATIF_MEASURE: f64 = 30.0;
/// Hit lookups replayed on hot-cache after priming.
const HOT_HITS: u64 = 5_000;
/// Block geometry of the daemon's default response cache.
const CACHE_SHARDS: usize = 8;
const CACHE_PER_SHARD: usize = 64;

/// One timed interval of the replay.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Nanoseconds since the replay started.
    pub start_ns: u64,
    /// Nanoseconds since the replay started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Replayed query the span belongs to.
    pub request: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; when off, [`Tracer::span`] only runs its body.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }
}

/// Work counts taken during the replay; they repeat exactly for a seed.
#[derive(Debug, Default, Clone)]
struct Counts {
    solves: u64,
    lambda_evals: u64,
    bisect_iters: u64,
    kernel_cps: Vec<usize>,
    games: u64,
    game_iterations: u64,
    nonconverged: u64,
    tiers: u64,
    groups: u64,
    classes: u64,
    updates: u64,
    events: u64,
}

/// Layer calls on the second store and pool.
struct Layers {
    store: ScenarioStore,
    pool: WarmPool,
    populations: HashSet<(ScenarioKind, usize)>,
    warm_entries: HashSet<(ScenarioKind, usize)>,
    terms: Vec<f64>,
    counts: Counts,
}

impl Layers {
    fn population(&mut self, t: &mut Tracer, kind: ScenarioKind, n: usize) -> Arc<Population> {
        let first = self.populations.insert((kind, n));
        let name = if first {
            "serve.state.population.build"
        } else {
            "serve.state.population"
        };
        t.span(name, |_| self.store.population(kind, n))
    }

    fn run(&mut self, t: &mut Tracer, req: &ApiRequest) {
        match req {
            ApiRequest::Equilibrium(p) => self.equilibrium(t, p),
            ApiRequest::Strategy(p) => self.strategy(t, p),
            ApiRequest::Capacity(p) => self.capacity(t, p),
            ApiRequest::Whatif(p) => self.whatif(t, p),
        }
    }

    fn equilibrium(&mut self, t: &mut Tracer, p: &EqParams) {
        let pop = self.population(t, p.scenario, p.n);
        let first = self.warm_entries.insert((p.scenario, p.n));
        let name = if first {
            "serve.state.warm_entry.build"
        } else {
            "serve.state.warm_entry"
        };
        let entry = t.span(name, |_| self.pool.eq_entry(p.scenario, p.n, &pop));
        let mut entry = entry.lock().expect("warm entry poisoned");
        let entry = &mut *entry;
        let (eq, stats) = t
            .span("eq.solve", |_| {
                try_solve_maxmin_warm(
                    &pop,
                    p.nu,
                    Tolerance::default(),
                    &SolverPolicy::default(),
                    &entry.cache,
                    &mut entry.warm,
                )
            })
            .expect("workload equilibria solve");
        let c = &mut self.counts;
        c.solves += 1;
        c.lambda_evals += stats.lambda_evals;
        c.bisect_iters += u64::from(stats.bisect_iters);
        if let Some(w) = eq.water_level.filter(|w| w.is_finite()) {
            black_box(t.span("eq.lambda_probe", |_| lambda_block_partials(&pop, w, 0..64)));
            let columnar = pop.columnar();
            let terms = &mut self.terms;
            t.span("demand.kernel", |_| {
                columnar.lambda_terms_at_water_into(black_box(w), terms)
            });
            black_box(&self.terms);
            self.counts.kernel_cps.push(pop.len());
        }
    }

    fn game(
        &mut self,
        t: &mut Tracer,
        pop: &Population,
        nu: f64,
        strategy: IspStrategy,
        warm: &mut GameWarmStart,
    ) -> pubopt_core::GameOutcome {
        let sol = t.span("core.game", |_| {
            competitive_equilibrium_warm(pop, nu, strategy, Tolerance::COARSE, warm)
        });
        self.counts.games += 1;
        self.counts.game_iterations += sol.outcome.iterations as u64;
        self.counts.nonconverged += u64::from(!sol.outcome.converged);
        sol.outcome
    }

    fn strategy(&mut self, t: &mut Tracer, p: &StrategyParams) {
        let pop = self.population(t, p.scenario, p.n);
        let entry = self.pool.game_entry(p.scenario, p.n, p.kappa);
        let mut warm = entry.lock().expect("game entry poisoned");
        for &c in &p.cs {
            black_box(self.game(t, &pop, p.nu, IspStrategy::new(p.kappa, c), &mut warm));
        }
    }

    fn capacity(&mut self, t: &mut Tracer, p: &CapacityParams) {
        let pop = self.population(t, p.scenario, p.n);
        black_box(t.span("core.capacity", |_| {
            minimum_po_capacity(
                &pop,
                p.nu,
                p.target_fraction,
                p.c_max,
                p.grid_n,
                Tolerance::COARSE,
            )
        }));
    }

    fn whatif(&mut self, t: &mut Tracer, p: &WhatifParams) {
        let pop = self.population(t, p.scenario, p.n);
        let outcome = {
            let entry = self.pool.game_entry(p.scenario, p.n, p.kappa);
            let mut warm = entry.lock().expect("game entry poisoned");
            self.game(t, &pop, p.nu, IspStrategy::new(p.kappa, p.c), &mut warm)
        };
        // The two tiers as the endpoint builds them: CP i runs
        // round(α_i · d_i · M) flows capped at θ̂_i on its tier's link.
        let m = p.flows as f64;
        let tiers = [
            (outcome.partition.premium_indices(), p.kappa * p.nu * m),
            (
                outcome.partition.ordinary_indices(),
                (1.0 - p.kappa) * p.nu * m,
            ),
        ];
        let cps = pop.cps();
        for (indices, capacity) in tiers {
            if capacity <= 0.0 {
                continue;
            }
            let groups: Vec<FlowGroup> = indices
                .iter()
                .filter_map(|&i| {
                    let flows = (cps[i].alpha * outcome.demands[i] * m).round();
                    (flows >= 1.0).then(|| {
                        FlowGroup::new(format!("cp-{i}"), flows as usize, cps[i].theta_hat, p.rtt)
                    })
                })
                .collect();
            if groups.is_empty() {
                continue;
            }
            let config = SimConfig {
                capacity,
                warmup: WHATIF_WARMUP,
                measure: WHATIF_MEASURE,
                ..SimConfig::default()
            };
            t.span("netsim.tier", |t| {
                let out = t.span("netsim.sim", |_| {
                    ScaledSim::new(groups.clone(), config, p.workers).run()
                });
                let c = &mut self.counts;
                c.tiers += 1;
                c.groups += groups.len() as u64;
                c.classes += out.classes as u64;
                c.updates += out.updates;
                c.events += out.events;
                black_box(t.span("netsim.compare", |_| {
                    compare_report_to_maxmin(&out.report, &groups, capacity)
                }));
            });
        }
    }
}

/// The queries a workload's replay runs: priming, then the stream head.
fn replay_queries(workload: Workload, stream: &Stream) -> (Vec<Query>, Vec<Query>) {
    let head = match workload {
        Workload::HotCache => HOT_HITS,
        Workload::ColdMix => 40,
        Workload::WhatifPaper => 9,
        Workload::LargeN => 40,
    };
    (
        stream.priming(),
        (0..head).map(|i| stream.query(i)).collect(),
    )
}

/// One replay pass.
struct Pass {
    tracer: Tracer,
    counts: Counts,
    seconds: f64,
    /// First request id the timing metrics and counts cover: the stream
    /// head on cold workloads; everything on hot-cache, whose solvers
    /// run only while priming.
    measured_from: u64,
    /// `(stream index, ms)` of each stream-head query's handler path:
    /// parse + lookup, plus handle on a miss.
    handler_ms: Vec<(u64, f64)>,
}

/// Replay the workload in-process; `on` records spans, `layers_too` adds the
/// direct layer calls after each miss.
fn replay(workload: Workload, stream: &Stream, on: bool, layers_too: bool) -> Pass {
    let (priming, head) = replay_queries(workload, stream);
    let (store, pool) = (ScenarioStore::default(), WarmPool::default());
    let cache = ShardedCache::new(CACHE_SHARDS, CACHE_PER_SHARD);
    let mut layers = Layers {
        store: ScenarioStore::default(),
        pool: WarmPool::default(),
        populations: HashSet::new(),
        warm_entries: HashSet::new(),
        terms: Vec::new(),
        counts: Counts::default(),
    };
    let mut tracer = Tracer::new(on);
    let mut handler_ms = Vec::with_capacity(head.len());
    let measured_from = if workload.hot() { 0 } else { priming.len() };
    let started = Instant::now();
    for (request, q) in priming.iter().chain(&head).enumerate() {
        if request == measured_from {
            layers.counts = Counts::default();
        }
        tracer.request = request as u64;
        let t0 = Instant::now();
        let req = tracer.span("query", |t| {
            let (req, key) = t.span("serve.api.parse", |_| {
                let req = ApiRequest::parse(q.endpoint.path(), &q.body)
                    .expect("generated body validates");
                let key = req.canonical_key();
                (req, key)
            });
            let hit = t.span("serve.cache.get", |_| cache.get(&key));
            if hit.is_none() {
                let body = t
                    .span("serve.api.handle", |_| req.handle(&store, &pool))
                    .expect("workload queries solve");
                cache.insert(&key, Arc::new(body));
                Some(req)
            } else {
                None
            }
        });
        let handled_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(index) = request.checked_sub(priming.len()) {
            handler_ms.push((index as u64, handled_ms));
        }
        if let Some(req) = req.filter(|_| layers_too) {
            tracer.span("query.layers", |t| layers.run(t, &req));
        }
    }
    Pass {
        tracer,
        counts: layers.counts,
        seconds: started.elapsed().as_secs_f64(),
        measured_from: measured_from as u64,
        handler_ms,
    }
}

/// Per-call time of `pubopt_num::blocked_partials` with a constant term
/// at `n` CPs, in µs: the median of seven batches.
fn lattice_us(n: usize) -> f64 {
    const CALLS: u32 = 2_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                black_box(pubopt_num::blocked_partials(black_box(n), 0..64, |_| {
                    black_box(1.0)
                }));
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
        })
        .collect();
    percentile_of(&batches, 50.0)
}

/// Result of the traced run: per-layer metrics plus the self-time table.
pub struct Traced {
    /// `(name, unit, value)` for every per-layer metric the replay owns.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// `(span name, count, self ms, share of handle)`, by name.
    pub self_times: Vec<(&'static str, usize, f64, f64)>,
    /// `(stream index, ms)` of the in-process handler path of each
    /// replayed stream-head query, untraced.
    pub handler_ms: Vec<(u64, f64)>,
    /// Spans recorded.
    pub spans: usize,
}

/// Run the handler-only, the untraced and the traced replay, write the
/// spans to `spans_path`, and derive the per-layer metrics.
pub fn run(workload: Workload, stream: &Stream, spans_path: &Path) -> Result<Traced, String> {
    // The first pass in a process pays for first-touch page faults and
    // allocator growth that the primed daemon has long paid; it only
    // warms up. The handler path alone, with no layer calls evicting its
    // working set between requests, is what the daemon runs per request.
    replay(workload, stream, false, false);
    let handler = replay(workload, stream, false, false);
    let plain = replay(workload, stream, false, true);
    let traced = replay(workload, stream, true, true);
    write_spans(&traced.tracer.spans, spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let spans = &traced.tracer.spans;
    let from = traced.measured_from;
    let ms_from = |name: &str, from: u64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.request >= from)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    };
    let ms = |name: &str| ms_from(name, from);
    let p = |xs: &[f64], q: f64| {
        if xs.is_empty() {
            0.0
        } else {
            percentile_of(xs, q)
        }
    };
    let sum = |xs: &[f64]| xs.iter().fold(0.0, |a, b| a + b);
    let c = &traced.counts;

    let handle = ms("serve.api.handle");
    let solve = ms("eq.solve");
    let game = ms("core.game");
    let sim = ms("netsim.sim");
    let kernel_ns_per_cp: Vec<f64> = ms("demand.kernel")
        .iter()
        .zip(&c.kernel_cps)
        .map(|(ms, &n)| ms * 1e6 / n as f64)
        .collect();
    // Columns the Λ kernel streams per CP, 8 bytes each: α, θ̂, two
    // family parameters, the permutation index, and the output term.
    let kernel_bytes = c
        .kernel_cps
        .iter()
        .map(|&n| 48.0 * n as f64)
        .fold(0.0, f64::max);
    let metrics = vec![
        (
            "serve.api.parse_us",
            "us",
            p(&ms("serve.api.parse"), 50.0) * 1e3,
        ),
        (
            "serve.cache.get_us",
            "us",
            p(&ms("serve.cache.get"), 50.0) * 1e3,
        ),
        ("serve.api.handle_p50_ms", "ms", p(&handle, 50.0)),
        ("serve.api.handle_p90_ms", "ms", p(&handle, 90.0)),
        (
            "serve.state.population_ms",
            "ms",
            sum(&ms_from("serve.state.population.build", 0)),
        ),
        (
            "serve.state.warm_entry_ms",
            "ms",
            sum(&ms_from("serve.state.warm_entry.build", 0)),
        ),
        ("eq.solve_p50_ms", "ms", p(&solve, 50.0)),
        ("eq.solve_p90_ms", "ms", p(&solve, 90.0)),
        ("eq.lambda_evals", "count", ratio(c.lambda_evals, c.solves)),
        ("eq.bisect_iters", "count", ratio(c.bisect_iters, c.solves)),
        ("eq.lambda_probe_ms", "ms", p(&ms("eq.lambda_probe"), 50.0)),
        ("demand.kernel_ns_per_cp", "ns", p(&kernel_ns_per_cp, 50.0)),
        ("demand.kernel_bytes", "bytes", kernel_bytes),
        ("num.lattice_us.n3", "us", lattice_us(3)),
        ("num.lattice_us.n200", "us", lattice_us(200)),
        ("core.game_p50_ms", "ms", p(&game, 50.0)),
        ("core.game_p90_ms", "ms", p(&game, 90.0)),
        (
            "core.game_iterations",
            "count",
            ratio(c.game_iterations, c.games),
        ),
        ("core.capacity_ms", "ms", p(&ms("core.capacity"), 50.0)),
        ("core.nonconverged", "count", c.nonconverged as f64),
        ("netsim.sim_ms", "ms", p(&sim, 50.0)),
        (
            "netsim.ns_per_update",
            "ns",
            if c.updates == 0 {
                0.0
            } else {
                sum(&sim) * 1e6 / c.updates as f64
            },
        ),
        ("netsim.updates", "count", ratio(c.updates, c.tiers)),
        ("netsim.events", "count", ratio(c.events, c.tiers)),
        (
            "netsim.classes_per_group",
            "ratio",
            ratio(c.classes, c.groups),
        ),
        (
            "netsim.compare_us",
            "us",
            p(&ms("netsim.compare"), 50.0) * 1e3,
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            traced.seconds / plain.seconds,
        ),
    ];
    Ok(Traced {
        metrics,
        self_times: self_times(spans),
        handler_ms: handler.handler_ms,
        spans: spans.len(),
    })
}

/// Self time (duration minus the part covered by child spans) summed by
/// span name, with its share of the total `serve.api.handle` time.
fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_ns) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns().saturating_sub(*kids);
    }
    let handle_ns = by_name.get("serve.api.handle").map_or(0, |e| e.1);
    by_name
        .into_iter()
        .map(|(name, (count, ns))| {
            let share = if handle_ns == 0 {
                0.0
            } else {
                ns as f64 / handle_ns as f64
            };
            (name, count, ns as f64 / 1e6, share)
        })
        .collect()
}

fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_shares_divide_by_handle() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = vec![
            span("query", 0, 100, None),
            span("serve.api.handle", 10, 50, Some(0)),
            span("query.layers", 50, 100, Some(0)),
            span("eq.solve", 55, 75, Some(2)),
        ];
        let table = self_times(&spans);
        let get = |n: &str| table.iter().find(|r| r.0 == n).copied().unwrap();
        assert_eq!(get("query").2, 10.0 / 1e6);
        assert_eq!(get("query.layers").2, 30.0 / 1e6);
        assert_eq!(get("eq.solve").3, 0.5);
        assert_eq!(get("serve.api.handle").3, 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(off.spans.is_empty());
        let mut on = Tracer::new(true);
        on.span("a", |t| t.span("b", |_| ()));
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(
            on.spans[0].start_ns <= on.spans[1].start_ns
                && on.spans[1].end_ns <= on.spans[0].end_ns
        );
    }
}
