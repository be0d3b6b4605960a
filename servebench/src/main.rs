//! Serving benchmark for `pubopt-serve`: one seeded workload per run,
//! end-to-end metrics from a real daemon, per-layer metrics from a
//! traced in-process replay. See `README.md` for the workloads, the
//! metrics and how they relate.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --serve-bin PATH --out DIR [--commit SHA]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed workload
//! guard (the phase did not measure what the workload's name says) or a
//! broken connection exits non-zero without that line.

mod check;
mod drive;
mod provenance;
mod stats;
mod trace;
mod wire;
mod workload;

use pubopt_obs::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Stream, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut serve_bin, mut out, mut commit) = (None, None, "unknown".to_owned());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                        .ok_or_else(|| bad("expected seconds in (0, 120]"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        serve_bin: serve_bin.ok_or_else(|| missing("--serve-bin"))?,
        out: out.ok_or_else(|| missing("--out"))?,
        commit,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median over the replayed stream head of (end-to-end latency −
/// in-process handler-path time) for the same request: what the reactor,
/// HTTP parsing and writing, queueing and the wire add.
fn transport_p50_ms(driven: &drive::Driven, handler_ms: &[(u64, f64)]) -> f64 {
    let e2e: std::collections::HashMap<u64, f64> = driven
        .samples
        .iter()
        .map(|s| (s.index, s.latency.as_secs_f64() * 1e3))
        .collect();
    let gaps: Vec<f64> = handler_ms
        .iter()
        .filter_map(|(i, ms)| e2e.get(i).map(|e| e - ms))
        .collect();
    if gaps.is_empty() {
        0.0
    } else {
        stats::percentile_of(&gaps, 50.0)
    }
}

/// The windows a metric is taken over: those whose stolen ticks are at
/// most `allowance` (steal too small to matter) or at most the
/// ⌈W/2⌉-th smallest value, so at least the quieter half.
fn quiet_windows(steal: &[u64], allowance: u64) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let threshold = sorted[sorted.len().div_ceil(2) - 1].max(allowance);
    (0..steal.len())
        .filter(|&k| steal[k] <= threshold)
        .collect()
}

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let stream = Stream::new(w, a.seed);
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let load_before = provenance::loadavg();
    let (steal_before, run_started) = (drive::steal_ticks(), std::time::Instant::now());
    println!(
        "servebench workload={} seed={} clients={} seconds={} trace={}",
        w.name(),
        a.seed,
        w.clients(),
        a.seconds,
        u8::from(a.trace)
    );

    let setup = drive::set_up(&a.serve_bin, &stream)?;
    let driven = drive::drive(&setup, w, &stream, a.seconds)?;
    let rss_mb = setup
        .daemon
        .peak_rss_mib()
        .map_err(|e| format!("daemon peak RSS: {e}"))?;
    setup
        .daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    let sent = driven.samples.len() as u64;
    drive::guard(w, &driven.stats, sent).map_err(|e| format!("workload guard failed: {e}"))?;

    let mismatched = drive::byte_identity(w, &stream, a.seed, &driven);
    let mut failures = driven.failures.clone();
    failures.extend(mismatched.iter().map(|(_, m)| m.clone()));
    let bad: std::collections::HashSet<u64> = driven
        .samples
        .iter()
        .filter(|s| !s.ok)
        .map(|s| s.index)
        .chain(mismatched.iter().map(|&(i, _)| i))
        .collect();
    let failed = bad.len() as u64;

    let windows = w.windows();
    let mut window_ms = vec![Vec::new(); windows];
    let mut window_good = vec![0usize; windows];
    let window_s = a.seconds / windows as f64;
    // With one window (≈55 requests), the rate divides by the time until
    // the last response, so the request still running at the deadline
    // counts for the time it took rather than as a whole request in no
    // time. With many windows, each holds ≈55 or more requests and the
    // window length is the span.
    let mut window_span = vec![window_s; windows];
    for s in driven.samples.iter().filter(|s| s.at >= 0.0) {
        let k = ((s.at / window_s) as usize).min(windows - 1);
        let latency = s.latency.as_secs_f64();
        window_ms[k].push(latency * 1e3);
        window_good[k] += usize::from(s.ok && !bad.contains(&s.index));
        if windows == 1 {
            window_span[0] = window_span[0].max(s.at + latency);
        }
    }
    // A window in which no request started (a request longer than the
    // window) has no values; it takes no part in the selection.
    let filled: Vec<usize> = (0..windows).filter(|&k| !window_ms[k].is_empty()).collect();
    if filled.is_empty() {
        return Err("no request started in the timed phase".into());
    }
    let filled_steal: Vec<u64> = filled.iter().map(|&k| driven.window_steal[k]).collect();
    // Steal under 2% of a window's CPU time (ticks are 1/100 s) is noise.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let allowance = (0.02 * window_s * cpus as f64 * 100.0) as u64;
    let quiet: Vec<usize> = quiet_windows(&filled_steal, allowance)
        .into_iter()
        .map(|i| filled[i])
        .collect();
    // Percentiles and the rate pool every request of the quiet windows.
    let pooled: Vec<f64> = quiet
        .iter()
        .flat_map(|&k| window_ms[k].iter().copied())
        .collect();
    let good: usize = quiet.iter().map(|&k| window_good[k]).sum();
    let span: f64 = quiet.iter().map(|&k| window_span[k]).sum();
    let p50_ms = stats::percentile_of(&pooled, 50.0);
    let mut metrics = vec![
        metric("p50_ms", "ms", p50_ms),
        metric("p90_ms", "ms", stats::percentile_of(&pooled, 90.0)),
        metric("throughput_rps", "1/s", good as f64 / span),
        metric(
            "success_ratio",
            "ratio",
            (sent - failed) as f64 / sent as f64,
        ),
        metric("setup_s", "s", stats::percentile_of(&setup.seconds, 50.0)),
        metric("rss_mb", "MiB", rss_mb),
    ];
    println!(
        "timed phase: {} requests in {windows} window(s) of {window_s} s ({sent} sent in all); \
         set-up seconds per start {:?}",
        window_ms.iter().map(Vec::len).sum::<usize>(),
        setup.seconds
    );
    for (k, ms) in window_ms.iter().enumerate() {
        println!(
            "  window {k}: n={} p50_ms={:.4} p90_ms={:.4} steal_ticks={}{}",
            ms.len(),
            stats::percentile_of(ms, 50.0),
            stats::percentile_of(ms, 90.0),
            driven.window_steal[k],
            if quiet.contains(&k) { " (used)" } else { "" }
        );
    }

    if a.trace {
        let s = &driven.stats;
        let hits = stats::get(s, "cache_hits");
        let lookups = hits + stats::get(s, "cache_misses");
        let spans_path = a
            .out
            .join(format!("spans-{}-seed{}.jsonl", w.name(), a.seed));
        let traced = trace::run(w, &stream, &spans_path)?;
        metrics = vec![
            metric(
                "serve.transport_p50_ms",
                "ms",
                transport_p50_ms(&driven, &traced.handler_ms),
            ),
            metric(
                "serve.cache_hit_ratio",
                "ratio",
                stats::ratio(hits, lookups),
            ),
            metric(
                "serve.keepalive_reuse_ratio",
                "ratio",
                stats::ratio(stats::get(s, "keepalive_reuses"), stats::get(s, "requests")),
            ),
            metric(
                "serve.failures",
                "count",
                ["shed", "deadline_shed", "worker_respawns", "write_timeouts"]
                    .iter()
                    .map(|k| stats::get(s, k))
                    .sum::<u64>() as f64,
            ),
        ];
        metrics.extend(traced.metrics.iter().map(|&(n, u, v)| metric(n, u, v)));
        println!(
            "trace: {} spans -> {}; self time by span (share of serve.api.handle):",
            traced.spans,
            spans_path.display()
        );
        for (name, count, self_ms, share) in &traced.self_times {
            println!("  {name:<32} n={count:<6} self_ms={self_ms:>12.3} share={share:.4}");
        }
    }

    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let correct = failed == 0;
    for f in failures.iter().take(10) {
        println!("FAILED {f}");
    }
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metric_values = Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Value::Object(vec![
                        ("value".into(), Value::from(m.value)),
                        ("unit".into(), Value::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let mut provenance = provenance::machine(&a.commit, a.seed);
    provenance.push(("loadavg_before".into(), load_before));
    provenance.push(("loadavg_after".into(), provenance::loadavg()));
    provenance.push((
        "steal_share".into(),
        Value::from(provenance::steal_share(
            drive::steal_ticks().saturating_sub(steal_before),
            run_started.elapsed().as_secs_f64(),
        )),
    ));
    provenance.push((
        "window_steal_ticks".into(),
        Value::Array(
            driven
                .window_steal
                .iter()
                .map(|&t| Value::from(t))
                .collect(),
        ),
    ));
    let record = Value::Object(vec![
        ("workload".into(), Value::from(w.name())),
        ("clients".into(), Value::from(w.clients())),
        ("seconds".into(), Value::from(a.seconds)),
        ("trace".into(), Value::from(a.trace)),
        ("provenance".into(), Value::Object(provenance)),
        (
            "stats_delta".into(),
            Value::Object(
                driven
                    .stats
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::from(v)))
                    .collect(),
            ),
        ),
        (
            "failures".into(),
            Value::Array(failures.iter().map(|f| Value::from(f.as_str())).collect()),
        ),
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(sent)),
        ("failed".into(), Value::from(failed)),
        ("metrics".into(), metric_values.clone()),
    ]);
    let path = a.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("provenance and result: {}", path.display());
    let result = Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(sent)),
        ("failed".into(), Value::from(failed)),
        ("metrics".into(), metric_values),
    ]);
    println!("{result}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::quiet_windows;

    #[test]
    fn quiet_windows_keep_the_quieter_half_or_every_window_under_the_allowance() {
        assert_eq!(quiet_windows(&[0; 4], 0), vec![0, 1, 2, 3]);
        assert_eq!(quiet_windows(&[9, 0, 5, 1], 0), vec![1, 3]);
        assert_eq!(quiet_windows(&[3, 3, 8, 1, 9], 0), vec![0, 1, 3]);
        assert_eq!(quiet_windows(&[7], 0), vec![0]);
        assert_eq!(quiet_windows(&[9, 0, 5, 1], 5), vec![1, 2, 3]);
        assert_eq!(quiet_windows(&[9, 0, 5, 1], 12), vec![0, 1, 2, 3]);
    }
}
