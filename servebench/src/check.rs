//! Response checks: status plus each endpoint's schema fields.

use crate::workload::{Endpoint, Query, STRATEGY_STEPS};
use pubopt_obs::json::{parse, Value};

/// Check a response to `q`: status 200, the common envelope, and the
/// fields its endpoint promises, with the types they promise.
pub fn check_response(q: &Query, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}: {}", snippet(body)));
    }
    let v = parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    expect_str(&v, "schema", "pubopt-serve/v1")?;
    expect_str(&v, "endpoint", q.endpoint.name())?;
    let n = num(&v, "n")?;
    if n != q.n as f64 {
        return Err(format!("n is {n}, expected {}", q.n));
    }
    num(&v, "nu")?;
    match q.endpoint {
        Endpoint::Equilibrium => {
            boolean(&v, "congested")?;
            num_or_null(&v, "water_level")?;
            num(&v, "aggregate")?;
            num(&v, "phi")?;
        }
        Endpoint::Strategy => {
            num(&v, "kappa")?;
            let points = field(&v, "points")?
                .as_array()
                .ok_or("points is not an array")?;
            if points.len() != STRATEGY_STEPS {
                return Err(format!(
                    "{} points, expected {STRATEGY_STEPS}",
                    points.len()
                ));
            }
            for p in points {
                for k in ["c", "psi", "phi", "premium_count"] {
                    num(p, k)?;
                }
                boolean(p, "premium_full")?;
            }
            let best = field(&v, "best")?;
            num(best, "c")?;
            num(best, "psi")?;
        }
        Endpoint::Capacity => {
            num(&v, "target_fraction")?;
            num_or_null(&v, "gamma_min")?;
            boolean(&v, "reachable")?;
        }
        Endpoint::Whatif => {
            for k in ["kappa", "c", "flows", "rtt"] {
                num(&v, k)?;
            }
            let a = field(&v, "analytical")?;
            for k in ["psi", "phi", "premium_count"] {
                num(a, k)?;
            }
            boolean(a, "converged")?;
            for tier in ["premium", "ordinary"] {
                let t = field(&v, tier)?;
                if !matches!(t, Value::Null) {
                    for k in [
                        "capacity",
                        "flows",
                        "groups",
                        "classes",
                        "aggregate",
                        "mean_rel_error",
                        "max_rel_error",
                        "jain_uncapped",
                    ] {
                        num(t, k)?;
                    }
                }
            }
            let d = field(&v, "divergence")?;
            for k in ["compared", "mean_rel_error", "max_rel_error"] {
                num(d, k)?;
            }
        }
    }
    Ok(())
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn num_or_null(v: &Value, key: &str) -> Result<(), String> {
    match field(v, key)? {
        Value::Null | Value::Num(_) => Ok(()),
        _ => Err(format!("field {key:?} is neither a number nor null")),
    }
}

fn boolean(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a boolean"))
}

fn expect_str(v: &Value, key: &str, want: &str) -> Result<(), String> {
    match field(v, key)?.as_str() {
        Some(s) if s == want => Ok(()),
        other => Err(format!("field {key:?} is {other:?}, expected {want:?}")),
    }
}

/// The first 120 characters of a body, for error messages.
pub fn snippet(body: &str) -> &str {
    let end = body.char_indices().nth(120).map_or(body.len(), |(i, _)| i);
    &body[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Stream, Workload};
    use pubopt_serve::{ApiRequest, ScenarioStore, WarmPool};

    #[test]
    fn in_process_bodies_pass_and_damaged_ones_fail() {
        let stream = Stream::new(Workload::HotCache, 5);
        let (store, pool) = (ScenarioStore::default(), WarmPool::default());
        let q = stream
            .pool()
            .iter()
            .find(|q| q.endpoint == Endpoint::Capacity)
            .expect("the pool holds capacity queries");
        let body = ApiRequest::parse(q.endpoint.path(), &q.body)
            .unwrap()
            .handle(&store, &pool)
            .unwrap();
        check_response(q, 200, &body).unwrap();
        assert!(check_response(q, 500, &body).is_err());
        let damaged = body.replace("\"reachable\"", "\"reach\"");
        assert!(check_response(q, 200, &damaged).is_err());
        let wrong_n = Query { n: 4, ..q.clone() };
        assert!(check_response(&wrong_n, 200, &body).is_err());
    }
}
