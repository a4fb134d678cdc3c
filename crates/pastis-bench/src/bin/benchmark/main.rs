//! The repo benchmark: five named workloads, end-to-end metrics measured
//! with the program's telemetry off, and a traced replay that gives the
//! per-layer metrics and checks that they add up. See README.md beside
//! this file for the tables, and BENCHMARK.json at the repo root.
//!
//! ```text
//! benchmark [--workload W] [--trace 0|1] [--seed N] [--dataset-seed N]
//!           [--seconds S | --reps R] [--out DIR] [--quick]
//! benchmark --compare A.json B.json
//! ```
//!
//! The process started from the command line is the coordinator: it sets
//! each workload's inputs up (timed as `setup_s`), then starts itself
//! again with `--child` to measure, one process per workload and pass: the
//! timed pass, a single cold rep whose `VmHWM` is `peak_rss_mb`, and the
//! traced pass.

mod api;
mod compare;
mod measure;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use api::JsonWriter;
use measure::Limit;
use replay::Reference;
use report::{Report, END_TO_END, PER_LAYER};
use stats::Summary;
use trace::self_times_us;
use workloads::{Inputs, Workload, ALL};

/// Default of both seeds.
const DEFAULT_SEED: u64 = 0x5C22;
/// Timed reps when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 5;
/// Each workload's inputs are set up at least `MIN_SETUPS` times, and
/// again until `SETUP_SECONDS` have gone by or `MAX_SETUPS` are done, so
/// that a set-up of a few milliseconds gets a median over many samples.
/// `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 0.3;

struct Options {
    /// The one workload to run; `None` runs all five.
    workload: Option<Workload>,
    /// The one pass to make, `true` for the traced one; `None` makes both.
    trace: Option<bool>,
    inputs: Inputs,
    limit: Limit,
    out: PathBuf,
}

impl Options {
    fn workloads(&self) -> Vec<Workload> {
        self.workload.map_or(ALL.to_vec(), |w| vec![w])
    }
    fn timed(&self) -> bool {
        self.trace != Some(true)
    }
    fn traced(&self) -> bool {
        self.trace != Some(false)
    }
}

/// What one measuring process does.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// A warm-up, then timed reps: `wall_s`.
    Timed,
    /// One cold rep and nothing else: `peak_rss_mb`.
    Memory,
    /// A real run, then the replay: the per-layer metrics.
    Traced,
}

enum Mode {
    Run(Options),
    Child {
        workload: Workload,
        dir: PathBuf,
        pass: Pass,
        limit: Limit,
        reference: Option<Reference>,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("'{s}': {e}"))
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut it = args.iter();
    let (mut workload, mut trace, mut child, mut dir) = (None, None, None, None);
    let (mut seed, mut dataset_seed, mut quick) = (DEFAULT_SEED, DEFAULT_SEED, false);
    let (mut limit, mut out) = (None, PathBuf::from(".bench_out"));
    let (mut ref_aligned, mut ref_wall) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                return Ok(Mode::Compare(value()?.into(), value()?.into()));
            }
            "--quick" => quick = true,
            "--child" => {
                child = Some(match value()?.as_str() {
                    "timed" => Pass::Timed,
                    "memory" => Pass::Memory,
                    "traced" => Pass::Traced,
                    other => return Err(format!("no pass '{other}'")),
                });
            }
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload '{name}'"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--seed" => seed = parse_u64(value()?)?,
            "--dataset-seed" => dataset_seed = parse_u64(value()?)?,
            "--seconds" => limit = Some(Limit::Seconds(parse_u64(value()?)?)),
            "--reps" => limit = Some(Limit::Reps(parse_u64(value()?)?.max(1) as usize)),
            "--out" => out = value()?.into(),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--ref-aligned" => ref_aligned = Some(parse_u64(value()?)?),
            "--ref-wall" => {
                ref_wall = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let limit = limit.unwrap_or(Limit::Reps(if quick { 1 } else { DEFAULT_REPS }));
    if let Some(pass) = child {
        return Ok(Mode::Child {
            workload: workload.ok_or("--child needs --workload")?,
            dir: dir.ok_or("--child needs --dir")?,
            pass,
            limit,
            reference: ref_aligned
                .zip(ref_wall)
                .map(|(aligned_pairs, wall_s)| Reference {
                    aligned_pairs,
                    wall_s,
                }),
        });
    }
    Ok(Mode::Run(Options {
        workload,
        trace,
        inputs: Inputs {
            seed,
            dataset_seed,
            quick,
        },
        limit,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Mode::Compare(a, b)) => compare_files(&a, &b),
        Ok(Mode::Child {
            workload,
            dir,
            pass,
            limit,
            reference,
        }) => {
            let report = match pass {
                Pass::Timed => measure::timed_pass(workload, &dir, limit, true),
                Pass::Memory => measure::timed_pass(workload, &dir, Limit::Reps(1), false),
                Pass::Traced => replay::traced_pass(workload, &dir, reference),
            };
            println!("{}", report.to_json());
            Ok(true)
        }
        Ok(Mode::Run(options)) => run(&options),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()));
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

/// Everything measured for one workload.
struct Outcome {
    workload: Workload,
    setup_s: Vec<f64>,
    timed: Option<Report>,
    memory: Option<Report>,
    traced: Option<Report>,
}

impl Outcome {
    fn reports(&self) -> impl Iterator<Item = &Report> {
        self.timed.iter().chain(&self.memory).chain(&self.traced)
    }

    /// `(attempted, failed)` over the passes made.
    fn ops(&self) -> (u64, u64) {
        self.reports()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }

    fn correct(&self) -> bool {
        let (attempted, failed) = self.ops();
        attempted > 0 && failed == 0 && self.reports().all(|r| r.errors.is_empty())
    }

    /// The end-to-end summaries, in table order, once a timed pass ran.
    fn end_to_end(&self) -> Option<[Summary; 3]> {
        Some([
            Summary::of(&self.timed.as_ref()?.wall_s)?,
            Summary::of(&[self.memory.as_ref()?.peak_rss_mb])?,
            Summary::of(&self.setup_s)?,
        ])
    }
}

/// Set one workload up, then measure it in child processes.
fn run_workload(workload: Workload, options: &Options) -> Result<Outcome, String> {
    let dir = options.out.join(workload.name());
    let (start, mut setup_s) = (Instant::now(), Vec::new());
    loop {
        let t0 = Instant::now();
        workload.setup(&dir, options.inputs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let more = setup_s.len() < MIN_SETUPS
            || (setup_s.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS);
        if options.inputs.quick || !more {
            break;
        }
    }
    let reference = if workload.has_reference() {
        let t0 = Instant::now();
        let run = workload.make_reference(&dir)?;
        Some(Reference {
            aligned_pairs: run.counts.aligned_pairs,
            wall_s: t0.elapsed().as_secs_f64(),
        })
    } else {
        None
    };
    let measure = |pass| {
        Some(
            measure_in_child(workload, &dir, pass, options.limit, reference)
                .unwrap_or_else(Report::failure),
        )
    };
    let mut outcome = Outcome {
        workload,
        setup_s,
        timed: None,
        memory: None,
        traced: None,
    };
    if options.timed() {
        outcome.timed = measure(Pass::Timed);
        outcome.memory = measure(Pass::Memory);
    }
    if options.traced() {
        outcome.traced = measure(Pass::Traced);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}

fn measure_in_child(
    workload: Workload,
    dir: &Path,
    pass: Pass,
    limit: Limit,
    reference: Option<Reference>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    let pass_name = match pass {
        Pass::Timed => "timed",
        Pass::Memory => "memory",
        Pass::Traced => "traced",
    };
    cmd.args(["--child", pass_name, "--workload", workload.name(), "--dir"])
        .arg(dir);
    if pass == Pass::Memory {
        // glibc raises its mmap threshold as large buffers are freed, after
        // which they stay in the heap and the peak depends on the order of
        // allocation: 16% across seeds on a 20 MB workload. Pinned, freed
        // buffers go back to the system and the peak is the live peak,
        // within 1%. It costs `search.sparse` 9% of its time, which is why
        // the timed pass runs without it.
        cmd.env("MALLOC_MMAP_THRESHOLD_", "131072");
    }
    if pass == Pass::Timed {
        match limit {
            Limit::Reps(n) => cmd.args(["--reps", &n.to_string()]),
            Limit::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        };
    }
    if let Some(r) = reference {
        cmd.args(["--ref-aligned", &r.aligned_pairs.to_string()])
            .args(["--ref-wall", &r.wall_s.to_string()]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match line {
        Some(line) if output.status.success() => Report::from_json(line),
        _ => Err(format!(
            "the measuring process ended with {}",
            output.status
        )),
    }
}

fn run(options: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("creating {}: {e}", options.out.display()))?;
    let mut outcomes = Vec::new();
    for workload in options.workloads() {
        let outcome = run_workload(workload, options)?;
        print_lines(&outcome);
        outcomes.push(outcome);
    }
    print_ratios(&outcomes);
    let write = |name: &str, text: String| {
        let path = options.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("results.json", results_json(options, &outcomes))?;
    if options.traced() {
        write("trace.json", trace_json(&outcomes))?;
    }
    // One workload and one pass: the driver's result object, last.
    if let (Some(_), Some(traced)) = (options.workload, options.trace) {
        match contract_line(&outcomes[0], traced) {
            Some(line) => println!("{line}"),
            None => return Ok(false),
        }
    }
    Ok(outcomes.iter().all(Outcome::correct))
}

/// `workload metric value unit`, one line per metric measured.
fn print_lines(o: &Outcome) {
    let name = o.workload.name();
    for r in o.reports() {
        for e in &r.errors {
            eprintln!("{name} FAILED: {e}");
        }
    }
    if let Some(summaries) = o.end_to_end() {
        for ((m, _), s) in END_TO_END.iter().zip(summaries) {
            println!("{name} {} {} {}", m.name, s.median, m.unit);
        }
    }
    let (attempted, failed) = o.ops();
    println!(
        "{name} fail_ratio {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(timed) = &o.timed {
        for (k, v) in &timed.values {
            println!("{name} {k} {v} 1/s");
        }
    }
    if let Some(traced) = &o.traced {
        for m in &PER_LAYER {
            if let Some((_, v)) = traced.values.iter().find(|(k, _)| k == m.name) {
                println!("{name} {} {v} {}", m.name, m.unit);
            }
        }
    }
}

/// The two ratios that span workloads, from the timed medians.
fn print_ratios(outcomes: &[Outcome]) {
    let wall = |w: Workload| {
        let o = outcomes.iter().find(|o| o.workload == w)?;
        Some(o.end_to_end()?[0].median)
    };
    let Some(fullsw) = wall(Workload::SearchFullsw) else {
        return;
    };
    if let Some(serve) = wall(Workload::ServeSelf) {
        println!("all serve_batch_ratio {} ratio", serve / fullsw);
    }
    if let Some(blocked) = wall(Workload::SearchBlocked) {
        println!("all speedup_2t {} ratio", fullsw / blocked);
    }
}

fn results_json(options: &Options, outcomes: &[Outcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("host").begin_object();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    w.field_u64("available_parallelism", cores as u64);
    w.field_str("simd_backend", api::simd_backend().0);
    w.end_object();
    w.field_u64("seed", options.inputs.seed);
    w.field_u64("dataset_seed", options.inputs.dataset_seed);
    w.key("quick").bool(options.inputs.quick);
    match options.limit {
        Limit::Reps(n) => w.field_u64("reps", n as u64),
        Limit::Seconds(s) => w.field_u64("seconds", s),
    };
    w.key("workloads").begin_object();
    for o in outcomes {
        w.key(o.workload.name()).begin_object();
        w.field_u64("threads", o.workload.threads() as u64);
        let sequences = o.workload.dataset_size(options.inputs.quick);
        w.field_u64("sequences", sequences as u64);
        let (attempted, failed) = o.ops();
        w.field_u64("attempted", attempted);
        w.field_u64("failed", failed);
        w.key("errors").begin_array();
        for e in o.reports().flat_map(|r| &r.errors) {
            w.string(e);
        }
        w.end_array();
        if let Some(summaries) = o.end_to_end() {
            w.key("end_to_end").begin_object();
            for ((m, bound), s) in END_TO_END.iter().zip(summaries) {
                w.key(m.name).begin_object();
                w.field_str("unit", m.unit);
                w.field_f64("bound", *bound);
                w.field_u64("n", s.n as u64);
                for (k, v) in [
                    ("min", s.min),
                    ("q1", s.q1),
                    ("median", s.median),
                    ("q3", s.q3),
                    ("max", s.max),
                ] {
                    w.field_f64(k, v);
                }
                w.end_object();
            }
            w.end_object();
        }
        if let Some(r) = o.reports().next() {
            w.key("counts").begin_object();
            for (k, v) in &r.counts {
                w.field_u64(k, *v);
            }
            w.end_object();
        }
        for (key, report) in [("info", &o.timed), ("per_layer", &o.traced)] {
            if let Some(r) = report {
                w.key(key).begin_object();
                for (k, v) in &r.values {
                    w.field_f64(k, *v);
                }
                w.end_object();
            }
        }
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Every span of every traced pass, with its self time.
fn trace_json(outcomes: &[Outcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("spans").begin_array();
    for o in outcomes {
        let Some(traced) = &o.traced else { continue };
        for (s, own) in traced.spans.iter().zip(self_times_us(&traced.spans)) {
            w.begin_object();
            w.field_str("workload", o.workload.name());
            w.field_str("name", &s.name);
            w.field_u64("start_us", s.start_us);
            w.field_u64("end_us", s.end_us);
            w.field_u64("self_us", own);
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The driver's result object for one workload and one pass, or `None`
/// when the pass produced no measurement to report.
fn contract_line(o: &Outcome, traced: bool) -> Option<String> {
    let (attempted, failed) = o.ops();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(o.correct());
    w.field_u64("attempted", attempted.max(1));
    w.field_u64("failed", failed);
    w.key("metrics").begin_object();
    let mut metric = |name: &str, value: f64, unit: &str| {
        w.key(name).begin_object();
        w.field_f64("value", value);
        w.field_str("unit", unit);
        w.end_object();
    };
    if traced {
        let values = &o.traced.as_ref()?.values;
        for m in &PER_LAYER {
            let (_, v) = values.iter().find(|(k, _)| k == m.name)?;
            metric(m.name, *v, m.unit);
        }
    } else {
        for ((m, _), s) in END_TO_END.iter().zip(o.end_to_end()?) {
            metric(m.name, s.median, m.unit);
        }
    }
    w.end_object();
    w.end_object();
    Some(w.finish())
}
