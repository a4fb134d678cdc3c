//! `--compare A.json B.json`: set two result files side by side. For every
//! end-to-end metric of every workload: both medians, how much worse B is
//! than A as a share of A, the bound, and a verdict.

use std::fmt::Write as _;

use crate::api::{parse_json, JsonValue};
use crate::report::END_TO_END;
use crate::stats::Summary;
use crate::workloads::ALL;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but either side's own spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
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

/// How much worse `b` is than `a`, as a share of `a`'s median, and what
/// that means against `bound`.
pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse_by = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    } / a.median.abs();
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn summary_of(v: &JsonValue) -> Option<Summary> {
    let f = |k: &str| v.get(k)?.as_f64();
    Some(Summary {
        n: v.get("n")?.as_u64()? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// The comparison table, and whether any row regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_json(a_text)?, parse_json(b_text)?);
    let mut table = format!(
        "{:<15} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    let mut regressed = false;
    for w in ALL {
        let side = |doc: &JsonValue| doc.get("workloads")?.get(w.name()).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            continue;
        };
        for (m, bound) in &END_TO_END {
            let stat = |side: &JsonValue| summary_of(side.get("end_to_end")?.get(m.name)?);
            let (Some(sa), Some(sb)) = (stat(&wa), stat(&wb)) else {
                continue;
            };
            let (worse_by, verdict) = judge(&sa, &sb, m.lower_is_better, *bound);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                table,
                "{:<15} {:<12} {:>12.4} {:>12.4} {:>+8.3} {:>6.2}  {}",
                w.name(),
                m.name,
                sa.median,
                sb.median,
                worse_by,
                bound,
                verdict.label()
            );
        }
        if wa.get("counts") != wb.get("counts") {
            let _ = writeln!(
                table,
                "{:<15} exact counts differ between A and B",
                w.name()
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary::of(&[median * 0.99, median, median * 1.01]).unwrap()
    }

    #[test]
    fn the_three_verdicts() {
        // 3% slower inside a 7% bound, both sides tight.
        assert_eq!(judge(&tight(1.0), &tight(1.03), true, 0.07).1, Verdict::Ok);
        // 10% slower.
        let (worse, verdict) = judge(&tight(1.0), &tight(1.10), true, 0.07);
        assert!((worse - 0.10).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        // Same medians, but one side's quartiles are 20% of its median apart.
        let loose = Summary::of(&[0.9, 1.0, 1.1]).unwrap();
        assert_eq!(
            judge(&tight(1.0), &loose, true, 0.07).1,
            Verdict::Unresolved
        );
        // A wide spread does not excuse a median beyond the bound.
        let loose_slow = Summary::of(&[1.1, 1.2, 1.3]).unwrap();
        assert_eq!(
            judge(&tight(1.0), &loose_slow, true, 0.07).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn direction_of_better() {
        // A rate that fell by 10% is worse; one that rose is not.
        assert_eq!(
            judge(&tight(100.0), &tight(90.0), false, 0.07).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(120.0), false, 0.07).1,
            Verdict::Ok
        );
        // Faster is never a regression.
        assert_eq!(judge(&tight(1.0), &tight(0.5), true, 0.07).1, Verdict::Ok);
    }

    #[test]
    fn compares_two_result_files() {
        let file = |wall: f64| {
            format!(
                r#"{{"workloads":{{"search.fullsw":{{"counts":{{"cells":7}},"end_to_end":{{
                "wall_s":{{"n":3,"min":{0},"q1":{0},"median":{0},"q3":{0},"max":{0}}}}}}}}}}}"#,
                wall
            )
        };
        let (table, regressed) = compare(&file(2.0), &file(2.1)).unwrap();
        assert!(!regressed && table.contains("ok"), "{table}");
        let (table, regressed) = compare(&file(2.0), &file(3.0)).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
        assert!(compare("{", "{}").is_err());
    }
}
