//! SIMD lane-backend gate for the alignment kernels.
//!
//! Score-only, on two batches — random pairs of the benchmark dataset and
//! homologous pairs (members of one planted family: what a k-mer
//! threshold lets through, and so what `search.sparse` aligns) — it runs
//! the serial scalar reference, every lane backend compiled into this
//! build (portable scalar lanes, SSE2/AVX2 on x86_64, NEON on aarch64)
//! through `AlignPool::run_score_only`, and a copy kept in this file of
//! the kernel the score tiles replaced, which filled every score vector
//! with one scalar table load per lane. Contenders take turns after a
//! warm-up run each, so a speed step of the host lands on all of them.
//! It **fails (exit 1)** if
//!
//! * a backend's scores differ from `sw_score_only` on any pair;
//! * AVX2 lanes are under 2× that gather kernel on AVX2, on either batch;
//! * the portable lanes are slower than that gather kernel on the
//!   portable lanes, on either batch;
//! * the backend that runtime feature detection would select is slower
//!   than the serial scalar kernel — the CI guard against re-introducing
//!   the software-lockstep regression the real vector backends replaced.
//!
//! Then the traceback kernels on both batches (the homolog one is the
//! repo benchmark's traffic): per backend the anti-diagonal kernel, every
//! pair alone (`traceback/*`), and `AlignPool::run_traceback`, a pair per
//! lane wherever its rule allows (`inter-pair/*`). **Fails** if a row's
//! results differ from `sw_align` in any field, if the selected backend's
//! `run_traceback` is slower than serial `sw_align`, or if on the homolog
//! batch `inter-pair/avx2` is under 1.1× `traceback/avx2`.
//!
//! Usage: `kernel_simd [n_pairs] [reps]` (defaults 4000, 5).

use std::time::Instant;

use pastis_align::matrices::{Blosum62, Scoring, AA_COUNT};
use pastis_align::parallel::AlignPool;
use pastis_align::simd::{ScalarLanes, SimdBackend, SimdVec};
use pastis_align::sw::{sw_align, sw_score_only, GapPenalties};
use pastis_align::tblanes::sw_align_antidiagonal;
use pastis_align::{AlignTask, AlignmentResult, LaneTable};
use pastis_bench::{bench_dataset, fmt_count, rule};
use pastis_seqio::SyntheticDataset;

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

fn task(query: usize, reference: usize) -> AlignTask {
    AlignTask {
        query: query as u32,
        reference: reference as u32,
        seed_q: 0,
        seed_r: 0,
    }
}

/// Up to `n_pairs` pairs of members of one planted family, family by
/// family in id order.
fn homolog_tasks(ds: &SyntheticDataset, n_pairs: usize) -> Vec<AlignTask> {
    let mut members: Vec<(u32, usize)> = ds
        .family
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f != SyntheticDataset::SINGLETON)
        .map(|(i, &f)| (f, i))
        .collect();
    members.sort_unstable();
    members
        .chunk_by(|a, b| a.0 == b.0)
        .flat_map(|family| {
            (0..family.len())
                .flat_map(move |a| (a + 1..family.len()).map(move |b| (family[a].1, family[b].1)))
        })
        .take(n_pairs)
        .map(|(i, j)| task(i, j))
        .collect()
}

// ------------------------------------------------- the replaced kernel

/// Table index and score of the residue that pads ragged lanes.
const PAD: usize = AA_COUNT;
const PAD_SCORE: i16 = -100;
const DIM: usize = AA_COUNT + 1;

/// BLOSUM62 flattened to i16 with the PAD row and column.
fn flat_table() -> [i16; DIM * DIM] {
    let mut flat = [PAD_SCORE; DIM * DIM];
    for a in 0..AA_COUNT {
        for b in 0..AA_COUNT {
            flat[a * DIM + b] = Blosum62.score(a as u8, b as u8) as i16;
        }
    }
    flat
}

/// The score-only lane kernel as it was before the score tiles, kept here
/// as the yardstick: the same recurrence, but every score vector is
/// filled with one table load and one store per lane, and the rows are
/// allocated per chunk.
#[inline(always)]
fn gather_kernel<V: SimdVec>(
    qs: &[&[u8]],
    rs: &[&[u8]],
    flat: &[i16; DIM * DIM],
    gaps: GapPenalties,
    out: &mut [i32],
) {
    let lanes = V::LANES;
    let m = qs.iter().map(|q| q.len()).max().unwrap_or(0);
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    out.fill(0);
    if m == 0 || n == 0 {
        return;
    }
    let mut rt = vec![PAD as u8; n * lanes];
    for (l, r) in rs.iter().enumerate() {
        for (j, &c) in r.iter().enumerate() {
            rt[j * lanes + l] = c;
        }
    }
    let neg = V::splat(i16::MIN);
    let zero = V::zero();
    let vfirst = V::splat((gaps.open + gaps.extend) as i16);
    let vext = V::splat(gaps.extend as i16);
    let mut h = vec![zero; n + 1];
    let mut f = vec![neg; n + 1];
    let mut best = zero;
    let mut qoff = [PAD * DIM; 16];
    let mut sbuf = [0i16; 16];
    for i in 1..=m {
        for (l, off) in qoff.iter_mut().enumerate().take(lanes) {
            let code = qs.get(l).and_then(|q| q.get(i - 1)).copied();
            *off = code.map_or(PAD, usize::from) * DIM;
        }
        let mut e = neg;
        let mut h_left = zero;
        let mut diag = zero;
        for j in 1..=n {
            let up = h[j];
            let fv = up.sub_sat(vfirst).max(f[j].sub_sat(vext));
            f[j] = fv;
            let ev = h_left.sub_sat(vfirst).max(e.sub_sat(vext));
            e = ev;
            let col = &rt[(j - 1) * lanes..j * lanes];
            for l in 0..lanes {
                sbuf[l] = flat[qoff[l] + col[l] as usize];
            }
            let hv = diag.add_sat(V::load(&sbuf)).max(ev).max(fv).max(zero);
            best = best.max(hv);
            diag = up;
            h[j] = hv;
            h_left = hv;
        }
    }
    let mut bbuf = [0i16; 16];
    best.store(&mut bbuf);
    for (o, &b) in out.iter_mut().zip(&bbuf) {
        assert!(b < i16::MAX, "the gate's batches do not saturate");
        *o = b as i32;
    }
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_chunk_avx2(
    qs: &[&[u8]],
    rs: &[&[u8]],
    flat: &[i16; DIM * DIM],
    gaps: GapPenalties,
    out: &mut [i32],
) {
    gather_kernel::<pastis_align::simd::Avx2Vec>(qs, rs, flat, gaps, out)
}

/// The replaced kernel over a whole batch, on `order` (the lane plan's:
/// longest first) in chunks of 16; scores in task order.
fn gather_batch<'a>(
    avx2: bool,
    tasks: &[AlignTask],
    order: &[usize],
    lookup: impl Fn(u32) -> &'a [u8],
    flat: &[i16; DIM * DIM],
    gaps: GapPenalties,
) -> Vec<i32> {
    let mut scores = vec![0i32; tasks.len()];
    let mut out = [0i32; 16];
    for members in order.chunks(16) {
        let qs: Vec<&[u8]> = members.iter().map(|&k| lookup(tasks[k].query)).collect();
        let rs: Vec<&[u8]> = members
            .iter()
            .map(|&k| lookup(tasks[k].reference))
            .collect();
        let out = &mut out[..members.len()];
        if avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the caller passes `avx2` only after detecting it.
            unsafe {
                gather_chunk_avx2(&qs, &rs, flat, gaps, out)
            }
        } else {
            gather_kernel::<ScalarLanes<16>>(&qs, &rs, flat, gaps, out);
        }
        for (&k, &s) in members.iter().zip(out.iter()) {
            scores[k] = s;
        }
    }
    scores
}

// ------------------------------------------------------------- tables

/// The column heads of a kernel table and its serial reference row.
fn table_head(serial: &str, cells: u64, seconds: f64) {
    rule(78);
    println!(
        "{:<18} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "kernel", "lanes", "seconds", "GCUPS", "vs scalar", "promotions"
    );
    rule(78);
    println!(
        "{serial:<18} {:>6} {seconds:>12.4} {:>10.3} {:>12} {:>12}",
        1,
        cells as f64 / seconds / 1e9,
        "1.00x",
        0
    );
}

/// One kernel's row; `serial` is the reference row's seconds, `selected`
/// marks the backend runtime detection picks.
fn table_row(
    label: &str,
    lanes: usize,
    cells: u64,
    seconds: f64,
    serial: f64,
    promotions: u64,
    selected: bool,
) {
    let mark = if selected { "  <- selected" } else { "" };
    println!(
        "{label:<18} {lanes:>6} {seconds:>12.4} {:>10.3} {:>11.2}x {promotions:>12}{mark}",
        cells as f64 / seconds / 1e9,
        serial / seconds,
    );
}

/// One timed way of running a batch.
struct Contender<'a, R> {
    label: String,
    lanes: usize,
    /// Results in task order and the promotion count.
    run: Box<dyn Fn() -> (R, u64) + 'a>,
    best: f64,
}

/// The first run of each contender is its check against the serial
/// kernel's `reference` (exit 1 on any difference) and its warm-up; then
/// `reps` rounds in which the serial kernel and every contender take
/// turns. Returns the serial kernel's best seconds and each contender's
/// promotion count; the contenders' best seconds are left in them.
fn check_and_time<R: PartialEq>(
    name: &str,
    contenders: &mut [Contender<R>],
    reference: &R,
    reps: usize,
    mut serial: impl FnMut() -> R,
) -> (f64, Vec<u64>) {
    let mut promotions = Vec::new();
    for c in contenders.iter() {
        let (results, promoted) = (c.run)();
        if results != *reference {
            fail(&format!(
                "{name}: {} is not bit-identical to the serial kernel",
                c.label
            ));
        }
        promotions.push(promoted);
    }
    let mut scalar = f64::INFINITY;
    for _ in 0..reps {
        scalar = scalar.min(best_of(1, &mut serial));
        for c in contenders.iter_mut() {
            c.best = c.best.min(best_of(1, &c.run));
        }
    }
    (scalar, promotions)
}

/// Score-only on one batch: every contender checked against the serial
/// scalar kernel, then timed in turns. Applies the score-only gates.
fn score_only_table<'a>(
    name: &str,
    tasks: &'a [AlignTask],
    lookup: impl Fn(u32) -> &'a [u8] + Copy + Sync + 'a,
    reps: usize,
) {
    let gaps = GapPenalties::pastis_defaults();
    let detected = SimdBackend::detect();
    let cells: u64 = tasks
        .iter()
        .map(|t| lookup(t.query).len() as u64 * lookup(t.reference).len() as u64)
        .sum();
    let scalar_scores = || -> Vec<i32> {
        tasks
            .iter()
            .map(|t| sw_score_only(lookup(t.query), lookup(t.reference), &Blosum62, gaps).0)
            .collect()
    };
    let reference = scalar_scores();

    // The lane plan's order, for the replaced kernel.
    let max_len = |k: usize| {
        lookup(tasks[k].query)
            .len()
            .max(lookup(tasks[k].reference).len())
    };
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_unstable_by_key(|&k| (std::cmp::Reverse(max_len(k)), std::cmp::Reverse(k)));
    let order = &order;
    let flat = flat_table();

    let mut contenders: Vec<Contender<Vec<i32>>> = Vec::new();
    let gather_backends = [SimdBackend::Scalar, SimdBackend::Avx2];
    for backend in gather_backends.into_iter().filter(|b| b.is_available()) {
        contenders.push(Contender {
            label: format!("gather/{backend}"),
            lanes: 16,
            run: Box::new(move || {
                let avx2 = backend == SimdBackend::Avx2;
                (gather_batch(avx2, tasks, order, lookup, &flat, gaps), 0)
            }),
            best: f64::INFINITY,
        });
    }
    let mut padded = 0;
    for backend in SimdBackend::available() {
        let pool = AlignPool::new(1).with_simd(backend);
        if backend == detected {
            padded = pool
                .run_score_only(tasks, lookup, &Blosum62, gaps)
                .1
                .padded_cells;
        }
        contenders.push(Contender {
            label: format!("lanes/{backend}"),
            lanes: backend.lanes(),
            run: Box::new(move || {
                let (results, stats) = pool.run_score_only(tasks, lookup, &Blosum62, gaps);
                (
                    results.iter().map(|r| r.score).collect(),
                    stats.lane_promotions,
                )
            }),
            best: f64::INFINITY,
        });
    }

    let (scalar, promotions) =
        check_and_time(name, &mut contenders, &reference, reps, scalar_scores);

    println!(
        "score-only, {name}: {} pairs, {} cells ({:.1}% of the {detected} lanes' {} padded), \
         best of {reps} rounds taken in turns, 1 thread",
        tasks.len(),
        fmt_count(cells),
        100.0 * cells as f64 / padded as f64,
        fmt_count(padded),
    );
    table_head("serial scalar", cells, scalar);
    for (c, &promoted) in contenders.iter().zip(&promotions) {
        let selected = c.label == format!("lanes/{detected}");
        table_row(&c.label, c.lanes, cells, c.best, scalar, promoted, selected);
    }
    rule(78);

    let seconds = |label: &str| contenders.iter().find(|c| c.label == label).map(|c| c.best);
    if let (Some(tile), Some(gather)) = (seconds("lanes/avx2"), seconds("gather/avx2")) {
        let ratio = gather / tile;
        if ratio < 2.0 {
            fail(&format!(
                "{name}: lanes/avx2 is {ratio:.2}x gather/avx2 (< 2.00x)"
            ));
        }
        println!("PASS: lanes/avx2 runs {ratio:.2}x the gather kernel on avx2");
    }
    let (tile, gather) = (seconds("lanes/scalar"), seconds("gather/scalar"));
    let ratio = gather.expect("always built") / tile.expect("always available");
    if ratio < 1.0 {
        fail(&format!(
            "{name}: lanes/scalar is {ratio:.2}x gather/scalar (< 1.00x)"
        ));
    }
    println!("PASS: the portable lanes run {ratio:.2}x the gather kernel on the same lanes");
    let speedup = scalar / seconds(&format!("lanes/{detected}")).expect("detected is available");
    println!(
        "detected backend: {detected} ({} x i16 lanes), lane speedup {speedup:.2}x over serial scalar",
        detected.lanes()
    );
    if speedup < 1.0 {
        fail(&format!(
            "{name}: runtime-selected backend {detected} is {speedup:.2}x scalar (< 1.00x)"
        ));
    }
    println!("PASS: every backend is bit-identical to sw_score_only\n");
}

/// The traceback kernels on one batch: the serial reference (`sw_align`),
/// per available backend a `traceback/<backend>` row (every pair alone on
/// the anti-diagonal lanes) and an `inter-pair/<backend>` row
/// (`AlignPool::run_traceback`: a pair per lane wherever its rule allows).
/// Every row is checked against `sw_align` field by field, then they are
/// timed in turns. Returns the seconds of `traceback/avx2` and
/// `inter-pair/avx2` where AVX2 is available.
fn traceback_table<'a>(
    name: &str,
    tasks: &'a [AlignTask],
    lookup: impl Fn(u32) -> &'a [u8] + Copy + Sync + 'a,
    reps: usize,
) -> Option<(f64, f64)> {
    let gaps = GapPenalties::pastis_defaults();
    let detected = SimdBackend::detect();
    let cells: u64 = tasks
        .iter()
        .map(|t| lookup(t.query).len() as u64 * lookup(t.reference).len() as u64)
        .sum();
    let serial =
        move |t: &AlignTask| sw_align(lookup(t.query), lookup(t.reference), &Blosum62, gaps);
    let reference: Vec<AlignmentResult> = tasks.iter().map(serial).collect();
    let table = LaneTable::build(&Blosum62, gaps).expect("BLOSUM62 fits the i16 lanes");
    let table = &table;

    let mut contenders: Vec<Contender<Vec<AlignmentResult>>> = Vec::new();
    let mut padded = 0;
    for backend in SimdBackend::available() {
        contenders.push(Contender {
            label: format!("traceback/{backend}"),
            lanes: backend.lanes(),
            run: Box::new(move || {
                let mut promoted = 0;
                let results = tasks
                    .iter()
                    .map(|t| {
                        let (q, r) = (lookup(t.query), lookup(t.reference));
                        sw_align_antidiagonal(backend, q, r, table).unwrap_or_else(|| {
                            promoted += 1;
                            serial(t)
                        })
                    })
                    .collect();
                (results, promoted)
            }),
            best: f64::INFINITY,
        });
        let pool = AlignPool::new(1).with_simd(backend);
        if backend == detected {
            padded = pool
                .run_traceback(tasks, lookup, &Blosum62, gaps)
                .1
                .padded_cells;
        }
        contenders.push(Contender {
            label: format!("inter-pair/{backend}"),
            lanes: backend.lanes(),
            run: Box::new(move || {
                let (results, stats) = pool.run_traceback(tasks, lookup, &Blosum62, gaps);
                (results, stats.lane_promotions)
            }),
            best: f64::INFINITY,
        });
    }

    let (scalar, promotions) = check_and_time(name, &mut contenders, &reference, reps, || {
        tasks.iter().map(serial).collect::<Vec<_>>()
    });

    println!(
        "traceback, {name}: {} pairs, {} cells ({:.1}% of the {} cells {detected}'s inter-pair run \
         weighs, chunk padding included), best of {reps} rounds taken in turns, 1 thread",
        tasks.len(),
        fmt_count(cells),
        100.0 * cells as f64 / padded as f64,
        fmt_count(padded),
    );
    table_head("serial sw_align", cells, scalar);
    for (c, &promoted) in contenders.iter().zip(&promotions) {
        let selected = c.label == format!("inter-pair/{detected}");
        table_row(&c.label, c.lanes, cells, c.best, scalar, promoted, selected);
    }
    rule(78);
    let seconds = |label: &str| contenders.iter().find(|c| c.label == label).map(|c| c.best);
    let speedup =
        scalar / seconds(&format!("inter-pair/{detected}")).expect("detected is available");
    if speedup < 1.0 {
        fail(&format!(
            "{name}: runtime-selected traceback backend {detected} is {speedup:.2}x sw_align (< 1.00x)"
        ));
    }
    println!(
        "PASS: every row's traceback is bit-identical to sw_align; inter-pair/{detected} runs \
         {speedup:.2}x serial sw_align\n"
    );
    seconds("traceback/avx2").zip(seconds("inter-pair/avx2"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_pairs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4000);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let ds = bench_dataset(1500);
    let seqs: Vec<Vec<u8>> = (0..ds.store.len())
        .map(|i| ds.store.seq(i).to_vec())
        .collect();
    let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
    let mut state = 0x5C22u64;
    let mut draw = || (splitmix64(&mut state) % seqs.len() as u64) as usize;
    let random: Vec<AlignTask> = (0..n_pairs).map(|_| task(draw(), draw())).collect();
    let homologs = homolog_tasks(&ds, n_pairs);

    score_only_table("random pairs", &random, lookup, reps);
    score_only_table("homolog pairs", &homologs, lookup, reps);
    traceback_table("random pairs", &random, lookup, reps);
    if let Some((antidiagonal, inter_pair)) =
        traceback_table("homolog pairs", &homologs, lookup, reps)
    {
        // 1.27-1.32 on the first 2000 homolog pairs (CI's size), 1.48 on
        // 4000: the share of chunks under the direction-matrix cap moves
        // with the batch's lengths. The kernel alone reads 1.8.
        let ratio = antidiagonal / inter_pair;
        if ratio < 1.1 {
            fail(&format!(
                "homolog pairs: inter-pair/avx2 is {ratio:.2}x traceback/avx2 (< 1.10x)"
            ));
        }
        println!("PASS: inter-pair/avx2 runs {ratio:.2}x the anti-diagonal kernel on avx2, homolog pairs");
    }
}
