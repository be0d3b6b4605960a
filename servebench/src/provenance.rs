//! Machine and build facts recorded with every result.

use pubopt_obs::json::Value;
use std::process::Command;

/// `(name, value)` facts about the machine and build, taken once.
pub fn machine(commit: &str, seed: u64) -> Vec<(String, Value)> {
    let nproc = Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<u64>().ok());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
    });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok();
    let text = |v: Option<String>| v.map_or(Value::Null, |s| Value::from(s.trim()));
    vec![
        ("nproc".into(), nproc.map_or(Value::Null, Value::from)),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism().map_or(Value::Null, |n| Value::from(n.get())),
        ),
        ("cpu_model".into(), text(cpu_model)),
        ("kernel".into(), text(kernel)),
        (
            "build_profile".into(),
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit".into(), Value::from(commit)),
        ("seed".into(), Value::from(seed)),
    ]
}

/// The 1-, 5- and 15-minute load averages, as `/proc/loadavg` gives them.
pub fn loadavg() -> Value {
    std::fs::read_to_string("/proc/loadavg").map_or(Value::Null, |s| {
        Value::from(s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
    })
}

/// Share of this machine's CPU time the hypervisor gave to other guests
/// over `seconds` of wall time, from a `/proc/stat` steal-tick delta
/// (ticks are 1/100 s on Linux).
pub fn steal_share(ticks: u64, seconds: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    ticks as f64 / 100.0 / (seconds * cpus as f64)
}
