//! Differential test: the event-driven [`ScaledSim`] against the
//! fixed-dt [`FluidSim`] on seeded mixed-cap populations.
//!
//! Both engines drive the same RED bottleneck toward the same AIMD fixed
//! point, so once warm-up has settled the measured per-flow rates agree
//! to rounding — at a single RTT, and with RTTs drawn from
//! {0.04, 0.08, 0.12, 0.16} s where `ScaledSim` clocks each RTT class at
//! its own period. A scheduler that drops or reorders class updates
//! (the calendar-queue bucket-boundary bug did both on mixed-RTT runs,
//! moving rates by up to 2.5e-4) shows up here as a relative gap far
//! above the 1e-9 budget.

use pubopt_netsim::{FlowGroup, FluidSim, ScaledSim, SimConfig};
use pubopt_num::Rng;

/// Largest per-group relative gap tolerated between the two engines.
const BUDGET: f64 = 1e-9;

/// 12–33 groups of `2 + (i % 5)` flows; every other group is capped at
/// U(0.3, 3); RTTs are drawn from `rtts`.
fn population(seed: u64, rtts: &[f64]) -> Vec<FlowGroup> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = 12 + rng.below(22) as usize;
    (0..n)
        .map(|i| {
            let cap = if i % 2 == 0 {
                rng.uniform(0.3, 3.0)
            } else {
                1e9
            };
            let rtt = rtts[rng.below(rtts.len() as u64) as usize];
            FlowGroup::new(format!("g{i}"), 2 + (i % 5), cap, rtt)
        })
        .collect()
}

fn config() -> SimConfig {
    SimConfig {
        capacity: 120.0,
        warmup: 30.0,
        measure: 30.0,
        ..SimConfig::default()
    }
}

/// Largest per-group relative difference of the measured per-flow rates.
fn max_rel_gap(groups: &[FlowGroup]) -> f64 {
    let fixed = FluidSim::new(groups.to_vec(), config()).run();
    let scaled = ScaledSim::new(groups.to_vec(), config(), 1).run();
    fixed
        .per_flow_rate
        .iter()
        .zip(&scaled.report.per_flow_rate)
        .map(|(f, s)| (f - s).abs() / f.abs().max(s.abs()).max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

#[test]
fn single_rtt_populations_agree_with_fixed_dt() {
    for seed in 0..8 {
        let gap = max_rel_gap(&population(seed, &[0.08]));
        assert!(gap <= BUDGET, "seed {seed}: max relative gap {gap:.3e}");
    }
}

#[test]
fn mixed_rtt_populations_agree_with_fixed_dt() {
    for seed in 0..8 {
        let gap = max_rel_gap(&population(seed, &[0.04, 0.08, 0.12, 0.16]));
        assert!(gap <= BUDGET, "seed {seed}: max relative gap {gap:.3e}");
    }
}
