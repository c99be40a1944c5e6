//! `--compare A.json B.json`: judge result file B against baseline A by
//! the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{bound, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads here and in a harness agree.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    Some([1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Distance between the first and third quartile as a share of the median.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, q2, q3]| (q3 - q1) / q2)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = false;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    for w in WORKLOADS {
        let (wa, wb) = (a.get("workloads").get(w), b.get("workloads").get(w));
        for (name, _) in END_TO_END {
            let cell = |r: &Json| r.get("end_to_end").get(name).clone();
            let (ca, cb) = (cell(wa), cell(wb));
            let (Some(ma), Some(mb)) = (ca.get("value").as_f64(), cb.get("value").as_f64()) else {
                println!("{w:<16} {name:<12} missing from one file");
                bad = true;
                continue;
            };
            let (sa, sb) = (ca.get("samples").f64s(), cb.get("samples").f64s());
            let limit = bound(name);
            let delta = (mb - ma) / ma;
            // Lower is better for every end-to-end metric.
            let b_always_better = sb.iter().all(|x| sa.iter().all(|y| x < y));
            let verdict = if spread(&sa).max(spread(&sb)) > limit && !b_always_better {
                "unresolved (spread wider than bound)"
            } else if delta > limit {
                bad = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{w:<16} {name:<12} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>5.0}%  {verdict}",
                delta * 100.0,
                limit * 100.0
            );
        }
        let share = |r: &Json| r.get("failed_share").as_f64().unwrap_or(f64::NAN);
        let (fa, fb) = (share(wa), share(wb));
        // NaN (a workload missing from a file) must not pass as "no increase".
        if fb > fa || fa.is_nan() || fb.is_nan() {
            println!("{w:<16} failed_share rose from {fa} to {fb}");
            bad = true;
        }
        for (name, _) in PER_LAYER.iter().filter(|(_, unit)| *unit == "count") {
            let value = |r: &Json| r.get("per_layer").get(name).get("value").as_f64();
            if value(wa) != value(wb) {
                println!(
                    "{w:<16} count {name} differs: {:?} vs {:?}",
                    value(wa),
                    value(wb)
                );
            }
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Python's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
