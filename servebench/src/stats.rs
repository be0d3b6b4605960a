//! Percentiles and `/v1/stats` counter deltas.

use pubopt_obs::json::{parse, Value};
use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in `(0, 100]`) of already sorted
/// samples: the smallest sample with at least `p`% of the samples at or
/// below it. `NaN` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `xs` and take the nearest-rank percentile.
pub fn percentile_of(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The daemon's `/v1/stats` counters: every top-level non-negative
/// integer field of the body.
pub type Counters = BTreeMap<String, u64>;

/// Parse a `/v1/stats` body into its counters.
pub fn parse_counters(body: &str) -> Result<Counters, String> {
    let v = parse(body).map_err(|e| format!("/v1/stats body is not JSON: {e}"))?;
    let fields = v.as_object().ok_or("/v1/stats body is not an object")?;
    Ok(fields
        .iter()
        .filter_map(|(k, v)| match v {
            Value::Num(_) => v.as_u64().map(|n| (k.clone(), n)),
            _ => None,
        })
        .collect())
}

/// `after − before` for every counter in `before`. A counter that went
/// backwards or disappeared means the two snapshots are not of one
/// daemon run, which is an error.
pub fn delta(before: &Counters, after: &Counters) -> Result<Counters, String> {
    before
        .iter()
        .map(|(k, &b)| {
            let a = *after
                .get(k)
                .ok_or_else(|| format!("counter {k} missing from the second snapshot"))?;
            a.checked_sub(b)
                .map(|d| (k.clone(), d))
                .ok_or_else(|| format!("counter {k} went backwards: {b} -> {a}"))
        })
        .collect()
}

/// A counter from a delta, 0 when the daemon does not report it.
pub fn get(counters: &Counters, key: &str) -> u64 {
    counters.get(key).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_of_sorts_its_input() {
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0, 9.0], 75.0), 3.0);
    }

    #[test]
    fn counters_keep_only_integer_fields() {
        let c = parse_counters(
            r#"{"schema":"pubopt-serve/v1","requests":12,"cache_hits":7,"ratio":0.5,"nested":{"x":1}}"#,
        )
        .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c["requests"], 12);
        assert_eq!(get(&c, "cache_hits"), 7);
        assert_eq!(get(&c, "absent"), 0);
        assert!(parse_counters("[1,2]").is_err());
        assert!(parse_counters("not json").is_err());
    }

    #[test]
    fn deltas_subtract_and_reject_resets() {
        let before = parse_counters(r#"{"requests":10,"cache_hits":4}"#).unwrap();
        let after = parse_counters(r#"{"requests":25,"cache_hits":4,"new":3}"#).unwrap();
        let d = delta(&before, &after).unwrap();
        assert_eq!(d["requests"], 15);
        assert_eq!(d["cache_hits"], 0);
        assert!(
            !d.contains_key("new"),
            "only counters of the first snapshot"
        );
        let reset = parse_counters(r#"{"requests":3,"cache_hits":4}"#).unwrap();
        assert!(delta(&before, &reset).unwrap_err().contains("backwards"));
        let missing = parse_counters(r#"{"requests":30}"#).unwrap();
        assert!(delta(&before, &missing).unwrap_err().contains("missing"));
    }
}
