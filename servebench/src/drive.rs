//! The end-to-end run: set-up, the closed-loop timed phase, the
//! `/v1/stats` guards and the byte-identity sample.

use crate::check::{check_response, snippet};
use crate::stats::{self, Counters};
use crate::wire::{Conn, Daemon};
use crate::workload::{Query, Rng, Stream, Workload};
use pubopt_serve::{ApiRequest, ScenarioStore, WarmPool};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untimed closed-loop warm-up before the hot-cache timed phase (the
/// cold workloads need none: every request there is new work anyway).
const HOT_WARMUP: Duration = Duration::from_millis(500);
/// Cold responses with an index below this keep their body for the
/// byte-identity sample.
const KEEP_BODIES: u64 = 64;

/// A primed daemon plus what priming it cost and returned.
pub struct Setup {
    /// The daemon the timed phase runs against (the last one started).
    pub daemon: Daemon,
    /// Seconds from spawn to primed, one entry per start.
    pub seconds: Vec<f64>,
    /// Priming request body → response body, from the kept daemon.
    pub primed: HashMap<String, String>,
}

/// Start and prime the daemon [`SETUP_REPEATS`] times, keeping the last.
/// Every start must return byte-identical priming bodies.
pub fn set_up(bin: &Path, stream: &Stream) -> Result<Setup, String> {
    let priming = stream.priming();
    let mut seconds = Vec::new();
    let mut previous: Option<Vec<String>> = None;
    for start in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(bin).map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut conn = Conn::open(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        let mut bodies = Vec::with_capacity(priming.len());
        for q in &priming {
            let r = conn
                .call("POST", q.endpoint.path(), &q.body)
                .map_err(|e| format!("priming {}: {e}", q.body))?;
            check_response(q, r.status, &r.body).map_err(|e| format!("priming {}: {e}", q.body))?;
            bodies.push(r.body);
        }
        drop(conn);
        seconds.push(t0.elapsed().as_secs_f64());
        if previous.as_ref().is_some_and(|p| *p != bodies) {
            return Err("priming bodies differ between daemon starts".into());
        }
        if start + 1 < SETUP_REPEATS {
            daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            previous = Some(bodies);
        } else {
            let primed = priming.iter().map(|q| q.body.clone()).zip(bodies).collect();
            return Ok(Setup {
                daemon,
                seconds,
                primed,
            });
        }
    }
    unreachable!("SETUP_REPEATS is positive")
}

/// One request of the run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Stream index.
    pub index: u64,
    /// First byte written to last byte read.
    pub latency: Duration,
    /// Status 200 and every check passed.
    pub ok: bool,
    /// Seconds from the start of the timed phase to sending; negative
    /// during the warm-up.
    pub at: f64,
}

/// What the timed phase produced.
pub struct Driven {
    /// Every request sent, warm-up included, in no particular order.
    pub samples: Vec<Sample>,
    /// Check failures, as messages.
    pub failures: Vec<String>,
    /// Cold bodies of the first [`KEEP_BODIES`] indices, for the
    /// byte-identity sample.
    pub kept: BTreeMap<u64, String>,
    /// `/v1/stats` delta over the phase.
    pub stats: Counters,
    /// CPU time the hypervisor gave to other guests during each window
    /// of the timed phase, in clock ticks summed over CPUs (0 on bare
    /// metal or when `/proc/stat` is unreadable).
    pub window_steal: Vec<u64>,
}

/// Cumulative `steal` ticks of the aggregate `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.strip_prefix("cpu ")?
                .split_whitespace()
                .nth(7)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Drive `clients` closed-loop keep-alive clients for `seconds`.
pub fn drive(
    setup: &Setup,
    workload: Workload,
    stream: &Stream,
    seconds: f64,
) -> Result<Driven, String> {
    let addr = setup.daemon.addr;
    let io = |e: std::io::Error| format!("stats connection: {e}");
    let before = {
        let mut control = Conn::open(addr).map_err(io)?;
        let r = control.call("GET", "/v1/stats", "").map_err(io)?;
        stats::parse_counters(&r.body)?
    };
    let mut conns: Vec<Conn> = (0..workload.clients())
        .map(|_| Conn::open(addr).map_err(|e| format!("client connect: {e}")))
        .collect::<Result<_, _>>()?;
    let warmup = if workload.hot() {
        HOT_WARMUP
    } else {
        Duration::ZERO
    };
    let started = Instant::now();
    let timed_from = started + warmup;
    let deadline = timed_from + Duration::from_secs_f64(seconds);
    let mut steal = Vec::with_capacity(workload.windows() + 1);
    type ClientOut = (Vec<Sample>, Vec<String>, Vec<(u64, String)>, bool);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        // Client `lane` sends requests lane, lane + clients, …: each
        // client's sequence is fixed, whatever the interleaving.
        let clients = conns.len() as u64;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(0u64..)
            .map(|(conn, lane)| {
                let primed = &setup.primed;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut failures = Vec::new();
                    let mut kept = Vec::new();
                    let mut index = lane;
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            return (samples, failures, kept, true);
                        }
                        let q = stream.query(index);
                        let t0 = Instant::now();
                        let got = conn.call("POST", q.endpoint.path(), &q.body);
                        let latency = t0.elapsed();
                        let at = match t0.checked_duration_since(timed_from) {
                            Some(d) => d.as_secs_f64(),
                            None => -(timed_from - t0).as_secs_f64(),
                        };
                        let verdict = got.map_err(|e| format!("io: {e}")).and_then(|r| {
                            if workload.hot() {
                                expect_primed(&q, primed, r.status, &r.body)
                            } else {
                                check_response(&q, r.status, &r.body)?;
                                if index < KEEP_BODIES {
                                    kept.push((index, r.body));
                                }
                                Ok(())
                            }
                        });
                        let alive = !matches!(&verdict, Err(e) if e.starts_with("io:"));
                        let ok = verdict.is_ok();
                        if let Err(e) = verdict {
                            failures.push(format!("request {index} ({}): {e}", q.body));
                        }
                        samples.push(Sample {
                            index,
                            latency,
                            ok,
                            at,
                        });
                        if !alive {
                            return (samples, failures, kept, false);
                        }
                        index += clients;
                    }
                })
            })
            .collect();
        // Steal ticks at each window boundary, read while the clients run.
        let window = Duration::from_secs_f64(seconds / workload.windows() as f64);
        for k in 0..=workload.windows() {
            let boundary = timed_from + window * k as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            steal.push(steal_ticks());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut driven = Driven {
        window_steal: steal
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect(),
        samples: Vec::new(),
        failures: Vec::new(),
        kept: BTreeMap::new(),
        stats: Counters::new(),
    };
    let mut all_alive = true;
    for (samples, failures, kept, alive) in outs {
        driven.samples.extend(samples);
        driven.failures.extend(failures);
        driven.kept.extend(kept);
        all_alive &= alive;
    }
    if !all_alive {
        return Err(format!(
            "a client connection failed: {}",
            driven.failures.last().map_or("", String::as_str)
        ));
    }
    // The closing snapshot rides client 0's connection, so the phase
    // opens exactly `clients` connections.
    let after = conns[0].call("GET", "/v1/stats", "").map_err(io)?;
    driven.stats = stats::delta(&before, &stats::parse_counters(&after.body)?)?;
    Ok(driven)
}

fn expect_primed(
    q: &Query,
    primed: &HashMap<String, String>,
    status: u16,
    body: &str,
) -> Result<(), String> {
    let want = primed
        .get(&q.body)
        .ok_or("query is not in the primed pool")?;
    if status != 200 {
        return Err(format!("status {status}: {}", snippet(body)));
    }
    if body != want {
        return Err(format!(
            "body differs from the primed body: {}",
            snippet(body)
        ));
    }
    Ok(())
}

/// Check that the phase measured what the workload's name says, from the
/// `/v1/stats` delta. `sent` counts the requests the clients sent.
pub fn guard(workload: Workload, delta: &Counters, sent: u64) -> Result<(), String> {
    let hits = stats::get(delta, "cache_hits");
    let misses = stats::get(delta, "cache_misses");
    let mut broken = Vec::new();
    if workload.hot() {
        if misses != 0 || hits != sent {
            broken.push(format!(
                "hot-cache must hit on every request: {hits} hits, {misses} misses, {sent} sent"
            ));
        }
    } else if hits != 0 {
        broken.push(format!(
            "a cold workload must never hit the cache: {hits} hits"
        ));
    }
    let accepted = stats::get(delta, "connections_accepted");
    if accepted != workload.clients() as u64 {
        broken.push(format!(
            "{accepted} connections accepted, expected one per client ({})",
            workload.clients()
        ));
    }
    // The opening /v1/stats request is counted after its own snapshot.
    let served = stats::get(delta, "requests");
    if served != sent + 1 {
        broken.push(format!(
            "daemon served {served} requests, expected {}",
            sent + 1
        ));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("; "))
    }
}

/// Re-solve a seeded sample of the kept cold responses in-process, on a
/// fresh store and pool, and return the indices whose served bytes
/// differ (with a message each). Hot-cache responses were already
/// compared byte for byte against their primed bodies.
pub fn byte_identity(
    workload: Workload,
    stream: &Stream,
    seed: u64,
    driven: &Driven,
) -> Vec<(u64, String)> {
    let size = match workload {
        Workload::HotCache => 0,
        Workload::ColdMix => 6,
        Workload::WhatifPaper => 3,
        Workload::LargeN => 6,
    };
    let mut candidates: Vec<u64> = driven.kept.keys().copied().collect();
    Rng::derive(&[seed, 0x1D]).shuffle(&mut candidates);
    candidates.truncate(size);
    candidates.sort_unstable();
    let (store, pool) = (ScenarioStore::default(), WarmPool::default());
    let mut mismatched = Vec::new();
    for index in candidates {
        let q = stream.query(index);
        let fresh =
            ApiRequest::parse(q.endpoint.path(), &q.body).and_then(|r| r.handle(&store, &pool));
        match fresh {
            Ok(body) if body == driven.kept[&index] => {}
            Ok(body) => mismatched.push((
                index,
                format!(
                    "request {index}: served bytes differ from an in-process solve: {} vs {}",
                    snippet(&driven.kept[&index]),
                    snippet(&body)
                ),
            )),
            Err(e) => mismatched.push((
                index,
                format!("request {index}: in-process solve failed: {}", e.message),
            )),
        }
    }
    mismatched
}
