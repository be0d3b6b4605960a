//! Byte-golden `/v1/whatif` bodies on the paper scenario.
//!
//! `/v1/whatif` replays the equilibrium through the event-driven AIMD
//! simulator, so its body pins the game solve *and* every scheduling
//! decision of `pubopt_netsim::ScaledSim`. Engine refactors (batching,
//! queue changes) must leave served bytes untouched: each query below is
//! answered in process on a fresh store and warm pool, at 1 and at 4
//! simulation workers, and compared byte for byte with the committed
//! fixture `tests/golden/whatif_paper.jsonl` (one body per line, in
//! query order).
//!
//! Regenerating (only when a numeric change is *intended*):
//!
//! ```text
//! cargo test --release -p pubopt-serve --test whatif_golden -- --ignored regenerate
//! ```

use pubopt_serve::api::ApiRequest;
use pubopt_serve::state::{ScenarioStore, WarmPool};
use std::path::PathBuf;

/// Paper-scenario queries spanning κ ∈ {0, 0.4, 0.6}, ν ∈ [8, 12] and
/// c ∈ [0, 0.3] — the cells the serving benchmark draws from.
const QUERIES: &[&str] = &[
    r#"{"scenario":"paper","n":100,"nu":8.0,"kappa":0.0,"c":0.0}"#,
    r#"{"scenario":"paper","n":100,"nu":11.5,"kappa":0.0,"c":0.2}"#,
    r#"{"scenario":"paper","n":100,"nu":9.0,"kappa":0.4,"c":0.1}"#,
    r#"{"scenario":"paper","n":100,"nu":12.0,"kappa":0.4,"c":0.3}"#,
    r#"{"scenario":"paper","n":100,"nu":10.0,"kappa":0.6,"c":0.05}"#,
    r#"{"scenario":"paper","n":100,"nu":8.5,"kappa":0.6,"c":0.25}"#,
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/whatif_paper.jsonl")
}

/// Answer `query` with `workers` simulation threads on a cold store.
fn body(query: &str, workers: usize) -> String {
    let q = query.trim_end_matches('}');
    let req = ApiRequest::parse("/v1/whatif", &format!(r#"{q},"workers":{workers}}}"#))
        .expect("golden query validates");
    req.handle(&ScenarioStore::default(), &WarmPool::default())
        .expect("golden query answers")
}

#[test]
fn whatif_paper_bodies_match_golden_bytes() {
    let text = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             `cargo test --release -p pubopt-serve --test whatif_golden -- --ignored regenerate`",
            fixture_path().display()
        )
    });
    let want: Vec<&str> = text.lines().collect();
    assert_eq!(want.len(), QUERIES.len(), "fixture has one body per query");
    for (query, want) in QUERIES.iter().zip(want) {
        for workers in [1, 4] {
            let got = body(query, workers);
            assert!(
                got == want,
                "{query} at {workers} workers differs from the golden body\n  \
                 golden: {want}\n  served: {got}"
            );
        }
    }
}

/// Rewrite the fixture from the current engine. Run only when a numeric
/// change is intended, and review the diff.
#[test]
#[ignore = "rewrites the whatif golden fixture; run explicitly when a numeric change is intended"]
fn regenerate() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
    let lines: Vec<String> = QUERIES.iter().map(|q| body(q, 1)).collect();
    std::fs::write(&path, lines.join("\n") + "\n").expect("write fixture");
    eprintln!("wrote {}", path.display());
}
