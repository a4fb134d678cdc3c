//! SIMD lane-backend gate for the alignment kernels.
//!
//! Runs the same batch through the serial scalar reference and through
//! every lane backend compiled into this build (portable scalar lanes,
//! SSE2/AVX2 on x86_64, NEON on aarch64), once score-only and once with
//! traceback, prints side-by-side GCUPS tables, and **fails (exit 1) if a
//! backend's traceback results differ from `sw_align` in any field, or if
//! the backend that runtime feature detection would select is slower than
//! the serial scalar kernel** — the CI guard against re-introducing the
//! software-lockstep regression the real vector backends replaced.
//!
//! The score-only `lane speedup` line for the detected backend is the
//! measured value behind `MachineModel::commodity().simd_lane_speedup`;
//! the traceback table is ROADMAP item 3's "alignment GCUPS recorded per
//! backend".
//!
//! Usage: `kernel_simd [n_pairs] [reps]` (defaults 4000, 5).

use std::time::Instant;

use pastis_align::matrices::Blosum62;
use pastis_align::parallel::AlignPool;
use pastis_align::simd::SimdBackend;
use pastis_align::sw::{sw_align, sw_score_only, GapPenalties};
use pastis_bench::{bench_dataset, fmt_count, rule};

/// splitmix64: deterministic pair sampling without a rand dependency
/// (rand is a dev-dependency of this crate, unavailable to binaries).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seconds of the fastest of `reps` runs of `work`.
fn best_of<R>(reps: usize, mut work: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(work());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn fail(why: &str) -> ! {
    eprintln!("FAIL: {why}");
    std::process::exit(1);
}

/// Print one kernel's table: the serial reference (`labels.0`, `scalar`
/// seconds) and a `labels.1/<backend>` row per available backend, whose
/// `(seconds, promotions)` come from `measure`. Returns the detected
/// backend's speed-up over the serial reference.
fn backend_table(
    title: &str,
    labels: (&str, &str),
    cells: u64,
    scalar: f64,
    mut measure: impl FnMut(SimdBackend) -> (f64, u64),
) -> f64 {
    let detected = SimdBackend::detect();
    println!("{title}");
    rule(78);
    println!(
        "{:<18} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "backend", "lanes", "seconds", "GCUPS", "vs scalar", "promotions"
    );
    rule(78);
    println!(
        "{:<18} {:>6} {:>12.4} {:>10.3} {:>12} {:>12}",
        labels.0,
        1,
        scalar,
        cells as f64 / scalar / 1e9,
        "1.00x",
        0
    );
    let mut detected_speedup = 0.0;
    for backend in SimdBackend::available() {
        let (best, promotions) = measure(backend);
        let speedup = scalar / best;
        let mark = if backend == detected {
            detected_speedup = speedup;
            "  <- selected"
        } else {
            ""
        };
        println!(
            "{:<18} {:>6} {:>12.4} {:>10.3} {:>11.2}x {:>12}{mark}",
            format!("{}/{backend}", labels.1),
            backend.lanes(),
            best,
            cells as f64 / best / 1e9,
            speedup,
            promotions
        );
    }
    rule(78);
    detected_speedup
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_pairs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4000);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let ds = bench_dataset(1500);
    let seqs: Vec<Vec<u8>> = (0..ds.store.len())
        .map(|i| ds.store.seq(i).to_vec())
        .collect();
    let mut state = 0x5C22u64;
    let tasks: Vec<pastis_align::AlignTask> = (0..n_pairs)
        .map(|_| pastis_align::AlignTask {
            query: (splitmix64(&mut state) % seqs.len() as u64) as u32,
            reference: (splitmix64(&mut state) % seqs.len() as u64) as u32,
            seed_q: 0,
            seed_r: 0,
        })
        .collect();
    let gaps = GapPenalties::pastis_defaults();
    let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };

    let cells: u64 = tasks
        .iter()
        .map(|t| lookup(t.query).len() as u64 * lookup(t.reference).len() as u64)
        .sum();
    let shape = format!(
        "{n_pairs} pairs, {} cells, best of {reps} reps, 1 thread",
        fmt_count(cells)
    );
    let detected = SimdBackend::detect();

    // Score-only: the serial scalar i32 kernel is what the lanes must match
    // and beat.
    let score_only = |t: &pastis_align::AlignTask| {
        sw_score_only(lookup(t.query), lookup(t.reference), &Blosum62, gaps).0
    };
    let reference: Vec<i32> = tasks.iter().map(score_only).collect();
    let scalar = best_of(reps, || tasks.iter().map(score_only).collect::<Vec<_>>());
    let speedup = backend_table(
        &format!("score-only kernel backends: {shape}"),
        ("serial scalar", "lanes"),
        cells,
        scalar,
        |backend| {
            let pool = AlignPool::new(1).with_simd(backend);
            let (results, stats) = pool.run_score_only(&tasks, lookup, &Blosum62, gaps);
            let got: Vec<i32> = results.iter().map(|r| r.score).collect();
            if got != reference {
                fail(&format!("lanes/{backend} diverged from the scalar kernel"));
            }
            let best = best_of(reps, || {
                pool.run_score_only(&tasks, lookup, &Blosum62, gaps)
            });
            (best, stats.lane_promotions)
        },
    );
    println!(
        "detected backend: {detected} ({} x i16 lanes), lane speedup {speedup:.2}x over serial scalar",
        detected.lanes()
    );
    if speedup < 1.0 {
        fail(&format!(
            "runtime-selected backend {detected} is {speedup:.2}x scalar (< 1.00x)"
        ));
    }
    println!("PASS: runtime-selected backend is not slower than serial scalar");

    // Traceback (`AlignPool::run_traceback`, the default `FullSw` path):
    // same batch, `sw_align` as the serial reference, full results compared.
    let traceback = |t: &pastis_align::AlignTask| {
        sw_align(lookup(t.query), lookup(t.reference), &Blosum62, gaps)
    };
    let reference: Vec<_> = tasks.iter().map(traceback).collect();
    let scalar = best_of(reps, || tasks.iter().map(traceback).collect::<Vec<_>>());
    println!();
    let speedup = backend_table(
        &format!("traceback kernel backends: {shape}"),
        ("serial sw_align", "traceback"),
        cells,
        scalar,
        |backend| {
            let pool = AlignPool::new(1).with_simd(backend);
            let (results, stats) = pool.run_traceback(&tasks, lookup, &Blosum62, gaps);
            if results != reference {
                fail(&format!(
                    "traceback/{backend} is not bit-identical to sw_align"
                ));
            }
            let best = best_of(reps, || pool.run_traceback(&tasks, lookup, &Blosum62, gaps));
            (best, stats.lane_promotions)
        },
    );
    if speedup < 1.0 {
        fail(&format!(
            "runtime-selected traceback backend {detected} is {speedup:.2}x sw_align (< 1.00x)"
        ));
    }
    println!(
        "PASS: every backend's traceback is bit-identical to sw_align; {detected} runs {speedup:.2}x serial sw_align"
    );
}
