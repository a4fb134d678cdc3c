//! The timed pass, run in a process of its own: one untimed warm-up, then
//! timed reps of the workload's region with the program's telemetry off.
//! The memory pass is the same code making a single cold rep, in a process
//! whose peak resident set is then the workload's and nothing else's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::stats::Summary;
use crate::workloads::{Plan, Rep, Workload};

/// When the timed reps end.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After exactly this many reps.
    Reps(usize),
    /// Once this many seconds have been measured, and at least
    /// [`MIN_TIMED_REPS`] reps.
    Seconds(u64),
}

const MIN_TIMED_REPS: usize = 3;
/// No rep starts after this long, whatever the limit says, so that a slow
/// host still finishes inside the contract's 180 seconds.
const HARD_STOP: Duration = Duration::from_secs(100);

impl Limit {
    fn reached(self, reps: usize, elapsed: Duration) -> bool {
        elapsed >= HARD_STOP
            || match self {
                Limit::Reps(n) => reps >= n,
                Limit::Seconds(s) => reps >= MIN_TIMED_REPS && elapsed.as_secs() >= s,
            }
    }
}

/// One run of the timed region; a panic in the program is a failed rep.
pub fn attempt(plan: &Plan) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| plan.run())).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a non-string panic");
        Err(format!("panicked: {what}"))
    })
}

/// What every rep of a workload must repeat exactly.
#[derive(PartialEq)]
struct Repeatable {
    counts: Vec<(String, u64)>,
    output: Vec<u8>,
}

/// The peak resident set of this process, `VmHWM`, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn timed_pass(workload: Workload, dir: &Path, limit: Limit, warm_up: bool) -> Report {
    let plan = match workload.plan(dir) {
        Ok(plan) => plan,
        Err(e) => return Report::failure(e),
    };
    let mut report = Report::default();
    if warm_up {
        if let Err(e) = attempt(&plan) {
            report.errors.push(format!("warm-up: {e}"));
        }
    }

    let mut first: Option<Repeatable> = None;
    let mut last = None;
    let mut ops_per_rep = 1;
    let start = Instant::now();
    while !limit.reached(report.wall_s.len(), start.elapsed()) {
        let t0 = Instant::now();
        let outcome = attempt(&plan);
        report.wall_s.push(t0.elapsed().as_secs_f64());
        let rep = report.wall_s.len();
        let outcome = outcome.and_then(|r| {
            let seen = Repeatable {
                counts: r.counts(),
                output: std::fs::read(&plan.paths.out).map_err(|e| e.to_string())?,
            };
            match &first {
                Some(first) if *first != seen => {
                    return Err("counts or output bytes differ from the first rep's".to_owned());
                }
                Some(_) => {}
                None => first = Some(seen),
            }
            Ok(r)
        });
        match outcome {
            Ok(r) => {
                ops_per_rep = r.ops();
                report.attempted += ops_per_rep;
                last = Some(r);
            }
            Err(e) => {
                report.attempted += ops_per_rep;
                report.failed += ops_per_rep;
                report.errors.push(format!("rep {rep}: {e}"));
            }
        }
    }

    if let Some(rep) = &last {
        let failed_checks = workload.check(dir, rep);
        if !failed_checks.is_empty() {
            report.failed = report.attempted;
            report.errors.extend(failed_checks);
        }
        report.counts = rep.counts();
        let wall = Summary::of(&report.wall_s).map_or(f64::NAN, |s| s.median);
        report.values = vec![
            ("aligns_per_s".to_owned(), rep.aligned_pairs() as f64 / wall),
            ("cups".to_owned(), rep.cells() as f64 / wall),
        ];
        if let Rep::Serve(_) = rep {
            report
                .values
                .push(("queries_per_s".to_owned(), rep.ops() as f64 / wall));
        }
    }
    report.peak_rss_mb = peak_rss_mb();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits() {
        let s = Duration::from_secs;
        assert!(!Limit::Reps(5).reached(4, s(50)));
        assert!(Limit::Reps(5).reached(5, s(0)));
        assert!(!Limit::Seconds(10).reached(2, s(11)));
        assert!(!Limit::Seconds(10).reached(7, s(9)));
        assert!(Limit::Seconds(10).reached(3, s(10)));
        assert!(Limit::Seconds(60).reached(1, HARD_STOP));
    }
}
