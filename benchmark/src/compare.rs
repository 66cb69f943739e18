//! `compare a.json b.json`: two result files (JSON lines as `--out`
//! writes them), one row per workload × end-to-end metric, with both
//! medians, the ratio and its base, the metric's bound, and a verdict:
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `unresolved` — not worse, but either side's own runs spread
//!   (interquartile distance over median) wider than the bound, so
//!   "unchanged" cannot be told from "changed";
//! * `ok` — neither.
//!
//! Exits non-zero when any row is `worse`.

use std::fmt::Write as _;

use crate::json::{parse, Value};
use crate::spec::{all_workloads, END_TO_END};
use crate::stats::{median, spread};

/// Untraced runs of a file: (workload, metric name → value).
fn load(path: &str) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let traced = v.get("trace").and_then(Value::as_f64).unwrap_or(0.0) != 0.0;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{}: no `workload`", n + 1))?;
        if !traced {
            runs.push((
                workload.to_string(),
                v.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
    }
    Ok(runs)
}

fn values(runs: &[(String, Value)], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, m)| m.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Missing,
}

pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        mb < ma * (1.0 - bound)
    } else {
        mb > ma * (1.0 + bound)
    };
    if worse {
        Verdict::Worse
    } else if [a, b].iter().any(|v| spread(v).is_some_and(|s| s > bound)) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The table, and whether any row is `worse`.
pub fn render(a: &[(String, Value)], b: &[(String, Value)]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    writeln!(
        out,
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "iqr a", "iqr b", "bound"
    )
    .unwrap();
    // A workload neither file ran (the extra ones, usually) has no rows.
    let ran = |w: &str| a.iter().chain(b).any(|(name, _)| name == w);
    for w in all_workloads().filter(|w| ran(w.name)) {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            let verdict = judge(&va, &vb, m.better == "higher", m.bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            writeln!(
                out,
                "{:<13} {:<12} {:>14.3} {:>14.3} {:>8.3} {:>7} {:>7} {:>6}  {}",
                w.name,
                m.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { 0.0 },
                pct(spread(&va)),
                pct(spread(&vb)),
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "missing",
                },
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "b/a: ratio of medians, base a. iqr: interquartile distance of a side's own runs over \
         their median (needs two runs; `-` otherwise)."
    )
    .unwrap();
    (out, any_worse)
}

pub fn main(args: &[String]) -> std::process::ExitCode {
    let [a, b] = args else {
        eprintln!("usage: compare <a.json> <b.json>");
        return 2.into();
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, any_worse) = render(&a, &b);
            print!("{table}");
            (any_worse as u8).into()
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            2.into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Higher is better, bound a tenth.
        assert_eq!(
            judge(&steady, &[95.0, 96.0, 94.0, 95.0], true, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[85.0, 86.0, 84.0, 85.0], true, 0.1),
            Verdict::Worse
        );
        assert_eq!(judge(&steady, &[150.0, 151.0], true, 0.1), Verdict::Ok);
        // Lower is better: the same numbers read the other way.
        assert_eq!(judge(&steady, &[115.0, 116.0], false, 0.1), Verdict::Worse);
        assert_eq!(judge(&steady, &[85.0, 86.0], false, 0.1), Verdict::Ok);
        // A side that does not repeat within the bound decides nothing.
        let noisy = [100.0, 60.0, 140.0, 100.0];
        assert_eq!(judge(&noisy, &steady, true, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&steady, &noisy, true, 0.1), Verdict::Unresolved);
        // One run a side: no spread to speak of, medians still compare.
        assert_eq!(judge(&[100.0], &[99.0], true, 0.1), Verdict::Ok);
        assert_eq!(judge(&[], &steady, true, 0.1), Verdict::Missing);
    }

    #[test]
    fn table_has_a_row_per_workload_and_metric() {
        let run = |w: &str, v: f64| {
            let metrics = Value::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let cell = crate::json::obj(vec![("value", Value::Num(v))]);
                        (m.name.to_string(), cell)
                    })
                    .collect(),
            );
            (w.to_string(), metrics)
        };
        let a: Vec<_> = all_workloads().map(|w| run(w.name, 100.0)).collect();
        let same = render(&a, &a);
        assert!(!same.1);
        assert_eq!(
            same.0.lines().filter(|l| l.ends_with("  ok")).count(),
            all_workloads().count() * END_TO_END.len()
        );
        // Twice the value is worse wherever lower is better.
        let b: Vec<_> = all_workloads().map(|w| run(w.name, 200.0)).collect();
        let (table, any_worse) = render(&a, &b);
        assert!(any_worse);
        let lower = END_TO_END.iter().filter(|m| m.better == "lower").count();
        assert_eq!(
            table.lines().filter(|l| l.ends_with("  worse")).count(),
            all_workloads().count() * lower
        );
    }
}
