//! Seeded request streams for the four workloads.
//!
//! Every body is a pure function of `(workload, seed, index)` computed
//! here, with the benchmark's own generator, so no change to the program
//! can alter what a workload sends. Cold workloads cycle through a fixed
//! grid of parameter cells in a fixed order and the seed jitters each
//! value inside its cell, so every seed sends the same sequence of cheap
//! and expensive requests and the run-to-run spread comes from the
//! system, not from the draw.

/// A benchmark workload: one traffic mix against one daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Repeated keys from a primed pool: every timed request is a cache hit.
    HotCache,
    /// Distinct equilibrium / strategy / capacity keys: every request solves.
    ColdMix,
    /// Distinct `/v1/whatif` co-simulations on the paper scenario.
    WhatifPaper,
    /// Distinct congested equilibria on a 10⁵-CP population.
    LargeN,
}

/// The query endpoints the workloads exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// `/v1/equilibrium`
    Equilibrium,
    /// `/v1/strategy`
    Strategy,
    /// `/v1/capacity`
    Capacity,
    /// `/v1/whatif`
    Whatif,
}

impl Endpoint {
    /// Request path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Equilibrium => "/v1/equilibrium",
            Endpoint::Strategy => "/v1/strategy",
            Endpoint::Capacity => "/v1/capacity",
            Endpoint::Whatif => "/v1/whatif",
        }
    }

    /// The `endpoint` field every response body carries.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Equilibrium => "equilibrium",
            Endpoint::Strategy => "strategy",
            Endpoint::Capacity => "capacity",
            Endpoint::Whatif => "whatif",
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One request: endpoint, JSON body, and what its response must report.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Endpoint the body is posted to.
    pub endpoint: Endpoint,
    /// JSON request body.
    pub body: String,
    /// CP count the response must report (`n` of the population solved).
    pub n: usize,
}

/// Charge-grid points of every `/v1/strategy` request.
pub const STRATEGY_STEPS: usize = 5;
/// Pool size of the hot-cache workload.
#[cfg(test)]
const HOT_POOL: usize = 26;
/// CP count of the large-n workload. At 10⁶ CPs a solve streams
/// ≈50 MB per Λ probe and, on a shared host, the same deterministic
/// request sequence ran 15–25% slower or faster from one minute to the
/// next; at 10⁵ (≈5 MB per probe, within the L2/L3 working set) it
/// repeats within a few percent, and the kernel, the lattice and the
/// bisection still do almost all of the work.
pub const LARGE_N: usize = 100_000;
const MIX_N: usize = 200;
const WHATIF_N: usize = 100;
/// Strategy κ values. On cold-mix each client lane owns one, so the
/// `GameWarmStart` behind each κ sees one client's requests in a fixed
/// order: with a κ shared by two clients the warm-start chain, and with
/// it each game's iteration count, depended on how the clients happened
/// to interleave, and p90 and throughput moved ±20% between runs of
/// one seed.
const STRATEGY_KAPPAS: [f64; 2] = [0.3, 0.7];
const WHATIF_KAPPAS: [f64; 3] = [0.0, 0.4, 0.6];
/// Congested ν range at n = 200 (saturation is Σαθ̂ ≈ 50).
const MIX_EQ_NU: (f64, f64) = (4.0, 45.0);
const MIX_STRATEGY_NU: (f64, f64) = (10.0, 45.0);
const TRIO_CAPACITY_NU: (f64, f64) = (0.8, 2.0);
const WHATIF_NU: (f64, f64) = (8.0, 12.0);
const WHATIF_C_MAX: f64 = 0.3;
/// Congested ν range at n = 10⁵ (saturation ≈ 2.5·10⁴).
const LARGE_NU: (f64, f64) = (2_000.0, 20_000.0);

/// Per-block class counts of the cold mix, in cost order: 40% cheap
/// equilibria, 20% trio capacity sizings, 40% five-point strategy
/// sweeps. The median rank (50%) sits mid-way through the capacity
/// block and the p90 rank mid-way through the strategy block, ten
/// points or more from either class boundary.
const COLD_MIX_BLOCK: [(Endpoint, usize); 3] = [
    (Endpoint::Equilibrium, 8),
    (Endpoint::Capacity, 4),
    (Endpoint::Strategy, 8),
];
/// One full cycle of each class's cells, so every seed's pool costs
/// about the same to prime.
const HOT_POOL_MIX: [(Endpoint, usize); 3] = [
    (Endpoint::Equilibrium, 16),
    (Endpoint::Strategy, 6),
    (Endpoint::Capacity, 4),
];

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::HotCache,
        Workload::ColdMix,
        Workload::WhatifPaper,
        Workload::LargeN,
    ];

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCache => "hot-cache",
            Workload::ColdMix => "cold-mix",
            Workload::WhatifPaper => "whatif-paper",
            Workload::LargeN => "large-n",
        }
    }

    /// Closed-loop clients, one keep-alive connection each. The
    /// single-client workloads are the ones where one request's own
    /// speed, not concurrency, should set latency.
    pub fn clients(self) -> usize {
        match self {
            Workload::HotCache | Workload::ColdMix => 2,
            Workload::WhatifPaper | Workload::LargeN => 1,
        }
    }

    /// Equal windows the timed phase is cut into. Latency and rate
    /// metrics pool the requests of the windows in which the hypervisor
    /// stole under 2% of the CPU time, or at least of the quieter half
    /// of the windows, so a few seconds of a noisy neighbour move them
    /// less. hot-cache has ≈3k requests per 0.5 s window, cold-mix ≈150
    /// and large-n ≈55 (three 16-cell cycles) per 3 s window;
    /// whatif-paper sends ≈55 requests per run and keeps one window.
    pub fn windows(self) -> usize {
        match self {
            Workload::HotCache => 30,
            Workload::ColdMix | Workload::LargeN => 5,
            Workload::WhatifPaper => 1,
        }
    }

    /// `true` when every timed request must be a cache hit, `false`
    /// when every one must miss.
    pub fn hot(self) -> bool {
        self == Workload::HotCache
    }

    fn block(self) -> &'static [(Endpoint, usize)] {
        match self {
            Workload::HotCache => &[],
            Workload::ColdMix => &COLD_MIX_BLOCK,
            Workload::WhatifPaper => &[(Endpoint::Whatif, 1)],
            Workload::LargeN => &[(Endpoint::Equilibrium, 1)],
        }
    }
}

/// SplitMix64: small, seedable, and owned by the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `parts`, folded in order.
    pub fn derive(parts: &[u64]) -> Self {
        let mut r = Rng(0x005E_ED0F_BE7C_4A11);
        for &p in parts {
            r.0 ^= p;
            r.0 = r.next_u64();
        }
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// A seeded request stream: `query(i)` is the `i`-th timed request.
#[derive(Clone, Debug)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    pool: Vec<Query>,
}

impl Stream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let pool = if workload.hot() {
            hot_pool(seed)
        } else {
            Vec::new()
        };
        Self {
            workload,
            seed,
            pool,
        }
    }

    /// The hot-cache pool (empty for cold workloads).
    #[cfg(test)]
    pub fn pool(&self) -> &[Query] {
        &self.pool
    }

    /// Untimed set-up queries: the whole pool for hot-cache; for cold
    /// workloads one query per warm-state key, with ν outside every
    /// timed range so no timed key can hit what priming cached.
    pub fn priming(&self) -> Vec<Query> {
        match self.workload {
            Workload::HotCache => self.pool.clone(),
            Workload::ColdMix => {
                let mut qs = vec![equilibrium(MIX_N, 2.0)];
                qs.extend(STRATEGY_KAPPAS.iter().map(|&k| strategy(5.0, k)));
                qs.push(capacity(0.5));
                qs
            }
            Workload::WhatifPaper => WHATIF_KAPPAS.iter().map(|&k| whatif(7.0, k, 0.1)).collect(),
            Workload::LargeN => vec![equilibrium(LARGE_N, LARGE_NU.0 / 2.0)],
        }
    }

    /// The `i`-th timed request.
    pub fn query(&self, i: u64) -> Query {
        if self.workload.hot() {
            let len = self.pool.len() as u64;
            let mut order: Vec<usize> = (0..self.pool.len()).collect();
            Rng::derive(&[self.seed, 0x407, i / len]).shuffle(&mut order);
            return self.pool[order[(i % len) as usize]].clone();
        }
        let (endpoint, j) = block_slot(self.workload.block(), self.seed, i);
        let lane = (i % self.workload.clients() as u64) as usize;
        class_query(self.workload, self.seed, endpoint, j, lane)
    }
}

/// Class and class-occurrence index of global request `i` under a block
/// schedule: each block holds the schedule's exact class counts in a
/// seeded order, so the class mix is fixed at every block boundary.
fn block_slot(block: &[(Endpoint, usize)], seed: u64, i: u64) -> (Endpoint, u64) {
    let mut slots: Vec<Endpoint> = block
        .iter()
        .flat_map(|&(e, count)| std::iter::repeat_n(e, count))
        .collect();
    let len = slots.len() as u64;
    let (b, slot) = (i / len, (i % len) as usize);
    Rng::derive(&[seed, 0xB10C, b]).shuffle(&mut slots);
    let endpoint = slots[slot];
    let rank = slots[..slot].iter().filter(|&&e| e == endpoint).count() as u64;
    let per_block = block
        .iter()
        .find(|&&(e, _)| e == endpoint)
        .map_or(1, |&(_, c)| c as u64);
    (endpoint, b * per_block + rank)
}

/// Step between consecutive cells of a class's grid.
const CELL_STRIDE: u64 = 5;

/// The `j`-th query of one endpoint class: its cell fixes the discrete
/// choice (κ) and the ν stratum; a seeded per-query draw jitters ν (and
/// c) inside the cell. `lane` is the client that sends it (request
/// index modulo the client count).
fn class_query(workload: Workload, seed: u64, endpoint: Endpoint, j: u64, lane: usize) -> Query {
    // (κ choices, ν range, ν strata, c strata) of the class's cell grid.
    let (kappas, (lo, hi), nu_strata, c_strata): (&[f64], (f64, f64), usize, usize) =
        match (workload, endpoint) {
            (Workload::LargeN, _) => (&[0.0], LARGE_NU, 16, 1),
            (_, Endpoint::Equilibrium) => (&[0.0], MIX_EQ_NU, 8, 1),
            (Workload::ColdMix, Endpoint::Strategy) => {
                (&STRATEGY_KAPPAS[lane..=lane], MIX_STRATEGY_NU, 3, 1)
            }
            (_, Endpoint::Strategy) => (&STRATEGY_KAPPAS, MIX_STRATEGY_NU, 3, 1),
            (_, Endpoint::Capacity) => (&[0.0], TRIO_CAPACITY_NU, 4, 1),
            (_, Endpoint::Whatif) => (&WHATIF_KAPPAS, WHATIF_NU, 4, 3),
        };
    let cells = (kappas.len() * nu_strata * c_strata) as u64;
    // Every cell count here is coprime with CELL_STRIDE, so each cycle of
    // `cells` queries visits every cell once, in the same scattered order
    // for every seed: the sequence of cheap and expensive solves, and the
    // distance each warm start has to cover, repeat across seeds.
    debug_assert!(!cells.is_multiple_of(CELL_STRIDE), "CELL_STRIDE is prime");
    let cell = (j * CELL_STRIDE % cells) as usize;
    let kappa = kappas[cell / (nu_strata * c_strata)];
    let (nu_cell, c_cell) = (cell / c_strata % nu_strata, cell % c_strata);
    let mut rng = Rng::derive(&[seed, endpoint.tag(), j]);
    let nu = lo + (hi - lo) * (nu_cell as f64 + rng.unit()) / nu_strata as f64;
    match (workload, endpoint) {
        (Workload::LargeN, _) => equilibrium(LARGE_N, nu),
        (_, Endpoint::Equilibrium) => equilibrium(MIX_N, nu),
        (_, Endpoint::Strategy) => strategy(nu, kappa),
        (_, Endpoint::Capacity) => capacity(nu),
        (_, Endpoint::Whatif) => {
            let c = WHATIF_C_MAX * (c_cell as f64 + rng.unit()) / c_strata as f64;
            whatif(nu, kappa, c)
        }
    }
}

fn hot_pool(seed: u64) -> Vec<Query> {
    let hot_seed = seed ^ 0x407_C0DE;
    HOT_POOL_MIX
        .iter()
        .flat_map(|&(e, count)| {
            (0..count as u64).map(move |j| class_query(Workload::HotCache, hot_seed, e, j, 0))
        })
        .collect()
}

// Floats render with `Display`, the shortest text that parses back to
// the same bits, so distinct drawn values are distinct canonical keys.
fn equilibrium(n: usize, nu: f64) -> Query {
    Query {
        endpoint: Endpoint::Equilibrium,
        body: format!("{{\"scenario\":\"paper\",\"n\":{n},\"nu\":{nu}}}"),
        n,
    }
}

fn strategy(nu: f64, kappa: f64) -> Query {
    Query {
        endpoint: Endpoint::Strategy,
        body: format!(
            "{{\"scenario\":\"paper\",\"n\":{MIX_N},\"nu\":{nu},\"kappa\":{kappa},\
             \"c_max\":1.0,\"c_steps\":{STRATEGY_STEPS}}}"
        ),
        n: MIX_N,
    }
}

fn capacity(nu: f64) -> Query {
    Query {
        endpoint: Endpoint::Capacity,
        body: format!(
            "{{\"scenario\":\"trio\",\"nu\":{nu},\"target_fraction\":0.8,\"c_max\":2.0,\"grid_n\":3}}"
        ),
        n: 3,
    }
}

fn whatif(nu: f64, kappa: f64, c: f64) -> Query {
    Query {
        endpoint: Endpoint::Whatif,
        body: format!(
            "{{\"scenario\":\"paper\",\"n\":{WHATIF_N},\"nu\":{nu},\"kappa\":{kappa},\"c\":{c}}}"
        ),
        n: WHATIF_N,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubopt_serve::ApiRequest;
    use std::collections::{BTreeMap, HashSet};

    fn key(q: &Query) -> String {
        ApiRequest::parse(q.endpoint.path(), &q.body)
            .expect("generated body validates")
            .canonical_key()
    }

    #[test]
    fn cold_workloads_generate_distinct_canonical_keys() {
        for w in [Workload::ColdMix, Workload::WhatifPaper, Workload::LargeN] {
            for seed in [1, 2, 9173] {
                let stream = Stream::new(w, seed);
                let mut keys: HashSet<String> = stream.priming().iter().map(key).collect();
                let primed = keys.len();
                assert_eq!(
                    primed,
                    stream.priming().len(),
                    "{w:?}: priming repeats a key"
                );
                for i in 0..3000 {
                    let q = stream.query(i);
                    assert!(
                        keys.insert(key(&q)),
                        "{w:?} seed {seed}: request {i} repeats a key"
                    );
                }
            }
        }
    }

    #[test]
    fn hot_cache_cycles_through_its_pool() {
        let stream = Stream::new(Workload::HotCache, 7);
        let pool_keys: HashSet<String> = stream.pool().iter().map(key).collect();
        assert_eq!(pool_keys.len(), HOT_POOL, "pool keys are distinct");
        let mut seen = HashSet::new();
        for i in 0..HOT_POOL as u64 {
            let k = key(&stream.query(i));
            assert!(pool_keys.contains(&k));
            seen.insert(k);
        }
        assert_eq!(seen.len(), HOT_POOL, "each block visits every entry once");
    }

    #[test]
    fn streams_repeat_under_a_seed_and_differ_across_seeds() {
        let a = Stream::new(Workload::ColdMix, 3);
        let b = Stream::new(Workload::ColdMix, 3);
        let c = Stream::new(Workload::ColdMix, 4);
        for i in 0..50 {
            assert_eq!(a.query(i), b.query(i));
        }
        assert!((0..50).any(|i| a.query(i) != c.query(i)));
    }

    #[test]
    fn cold_mix_holds_its_class_counts_per_block() {
        let stream = Stream::new(Workload::ColdMix, 11);
        let block: usize = COLD_MIX_BLOCK.iter().map(|&(_, c)| c).sum();
        for b in 0..5u64 {
            let mut counts = BTreeMap::new();
            for i in b * block as u64..(b + 1) * block as u64 {
                *counts.entry(stream.query(i).endpoint).or_insert(0) += 1;
            }
            for &(e, c) in &COLD_MIX_BLOCK {
                assert_eq!(counts[&e], c, "block {b}, {e:?}");
            }
        }
    }
}
