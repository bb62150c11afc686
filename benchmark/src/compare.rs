//! The A/A (and later A/B) comparator: two result files, the bounds from
//! `BENCHMARK.json`, one verdict per workload and end-to-end metric.

use serde::Value;

use crate::harness::format_value;
use crate::stats;

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The pair cannot be judged: a side is missing, not a number, or zero.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better), for a metric where `better` is `"lower"` or `"higher"`.
pub fn worsening(a: f64, b: f64, better: &str) -> Option<f64> {
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return None;
    }
    let change = (b - a) / a.abs();
    Some(if better == "higher" { -change } else { change })
}

/// Judges the runs `b` against the runs `a` under `bound` (a share of
/// `a`'s median): medians decide, unless either side's own run-to-run
/// spread is wider than the bound — then the pair is unresolved, except
/// when every run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> (Option<f64>, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (None, Verdict::Unresolved);
    }
    let Some(worse) = worsening(stats::median(a), stats::median(b), better) else {
        return (None, Verdict::Unresolved);
    };
    let noisy = [a, b]
        .iter()
        .any(|side| stats::spread(side).is_some_and(|s| s > bound));
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| worsening(x, y, better).is_some_and(|w| w < 0.0))
    });
    let verdict = match (noisy, worse > bound) {
        (true, _) if !b_always_better => Verdict::Unresolved,
        (false, true) => Verdict::Regressed,
        _ => Verdict::Ok,
    };
    (Some(worse), verdict)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The runs a result file holds.
fn runs(results: &Value) -> &[Value] {
    match results.get("runs") {
        Some(Value::Array(runs)) => runs,
        _ => &[],
    }
}

fn metric_values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs(results)
        .iter()
        .filter_map(|run| {
            number(
                run.get("workloads")?
                    .get(workload)?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?,
            )
        })
        .collect()
}

fn any_failed(results: &Value, workload: &str) -> bool {
    runs(results).iter().any(|run| {
        run.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("failed"))
            .and_then(number)
            .is_some_and(|f| f > 0.0)
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints, per workload and end-to-end metric, both values (medians over
/// the runs each file holds), the relative difference and the bound, and marks each `ok`/`regressed`/`unresolved`.
/// Returns how many pairs regressed (a run with failed operations counts
/// as one).
///
/// # Errors
///
/// A message when a file cannot be read or parsed.
pub fn run(contract_path: &str, a_path: &str, b_path: &str) -> Result<usize, String> {
    let contract = load(contract_path)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let list = |key: &str| match contract.get(key) {
        Some(Value::Array(items)) => Ok(items.clone()),
        _ => Err(format!("{contract_path}: no `{key}` list")),
    };
    let mut regressions = 0;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in list("workloads")? {
        let Some(workload) = workload.get("name").and_then(Value::as_str) else {
            continue;
        };
        if metric_values(&a, workload, "setup_s").is_empty()
            && metric_values(&b, workload, "setup_s").is_empty()
        {
            continue; // not run on either side
        }
        for metric in list("end_to_end")? {
            let text = |k: &str| metric.get(k).and_then(Value::as_str).unwrap_or("");
            let (name, better) = (text("name"), text("better"));
            let bound = metric.get("bound").and_then(number).unwrap_or(0.0);
            let (va, vb) = (
                metric_values(&a, workload, name),
                metric_values(&b, workload, name),
            );
            let (worse, verdict) = judge(&va, &vb, better, bound);
            regressions += usize::from(verdict == Verdict::Regressed);
            let show = |v: &[f64]| match v.len() {
                0 => "-".to_string(),
                _ => format_value(stats::median(v)),
            };
            println!(
                "{workload:<18} {name:<16} {:>14} {:>14} {:>9} {:>6.1}%  {}",
                show(&va),
                show(&vb),
                worse.map_or("-".to_string(), |w| format!("{:+.2}%", w * 100.0)),
                bound * 100.0,
                verdict.label()
            );
        }
        for (side, results) in [("a", &a), ("b", &b)] {
            if any_failed(results, workload) {
                println!("{workload:<18} run {side} has failed operations  regressed");
                regressions += 1;
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
        judge(a, b, better, bound).1
    }

    #[test]
    fn bound_is_a_share_of_the_first_median_in_the_worse_direction() {
        // Lower is better: 5 % slower passes a 5 % bound, 5.1 % does not.
        assert_eq!(verdict(&[100.0], &[105.0], "lower", 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&[100.0], &[105.1], "lower", 0.05),
            Verdict::Regressed
        );
        // Getting better never regresses, however large the change.
        assert_eq!(verdict(&[100.0], &[20.0], "lower", 0.05), Verdict::Ok);
        // Higher is better: throughput dropping 6 % regresses at 5 %.
        assert_eq!(
            verdict(&[40.0], &[37.6], "higher", 0.05),
            Verdict::Regressed
        );
        assert_eq!(verdict(&[40.0], &[44.0], "higher", 0.05), Verdict::Ok);
        let (w, _) = judge(&[40.0], &[38.0], "higher", 0.05);
        assert!((w.unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn a_zero_bound_demands_equality_or_better() {
        assert_eq!(verdict(&[256.0; 5], &[256.0; 5], "lower", 0.0), Verdict::Ok);
        assert_eq!(
            verdict(&[256.0; 5], &[257.0; 5], "lower", 0.0),
            Verdict::Regressed
        );
        assert_eq!(verdict(&[256.0], &[255.0], "lower", 0.0), Verdict::Ok);
    }

    #[test]
    fn missing_zero_or_non_finite_sides_are_unresolved_not_ok() {
        assert_eq!(verdict(&[], &[1.0], "lower", 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[1.0], &[], "lower", 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[0.0], &[1.0], "lower", 0.1), Verdict::Unresolved);
        assert_eq!(
            verdict(&[1.0], &[f64::NAN], "lower", 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [90.0, 100.0, 100.0, 100.0, 120.0]; // IQR/median = 0.2
                                                        // Same medians, but the runs cannot resolve a 5 % bound.
        assert_eq!(verdict(&noisy, &noisy, "lower", 0.05), Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &[130.0; 5], "lower", 0.05),
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: resolved in b's favour.
        assert_eq!(verdict(&noisy, &[80.0; 5], "lower", 0.05), Verdict::Ok);
        // Within a wide enough bound the same runs are judged by medians.
        assert_eq!(verdict(&noisy, &noisy, "lower", 0.25), Verdict::Ok);
    }
}
