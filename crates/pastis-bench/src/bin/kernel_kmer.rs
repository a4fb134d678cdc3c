//! k-mer operand gate: the one builder (`KmerMatrix::build`: every window
//! written down in row order, one stable radix sort by k-mer id, one walk
//! of the sorted stream) against the recipe it replaced, on the three
//! operand shapes the repo benchmark builds:
//!
//! * **1000 seqs, Full20, 1×1**: `search.fullsw`, `search.blocked` and
//!   `serve.self`'s index, through `pipeline::kmer_summa` on one rank;
//! * **4000 seqs, Murphy10, 4×4**: `search.sparse`, same route;
//! * **1750 seqs, Full20, stripes of 512 columns**: `serve.repeat`'s
//!   index, column map plus the stripes `build_index` writes.
//!
//! The reference is an in-bin copy of the parent recipe: a comparison
//! sort per sequence, `Triples`, the column ids sorted again for the map,
//! one `binary_search` per entry, `clone().transpose()`, then the sorts
//! inside `BlockedSumma::from_triples` (or `from_triples_combining`,
//! `transpose` and `extract_cols` per stripe for the index).
//!
//! Prints a table per shape and **fails (exit 1)** if any stripe or the
//! column map differs from the reference, or the builder's route is under
//! 2× the reference on any shape.
//!
//! Usage: `kernel_kmer [reps]` (default 5).

use std::time::Instant;

use pastis_bench::{bench_dataset, fmt_count, rule};
use pastis_comm::{ProcessGrid, SelfComm};
use pastis_core::kmer::KmerMatrix;
use pastis_core::pipeline::{kmer_summa, KmerSumma};
use pastis_core::SearchParams;
use pastis_seqio::{ReducedAlphabet, SeqStore};
use pastis_sparse::{BlockedSumma, CsrMatrix, Triples};

const K: usize = 5;

/// Least builder-over-reference ratio on every shape.
const LEAST_GAIN: f64 = 2.0;

/// Untimed runs of a route before each timed one.
const WARM_UPS: usize = 2;

/// The parent's triples: per sequence, every window from the rolling
/// encoder that divided by the leading place value, comparison-sorted by
/// `(id, position)` and deduplicated to the first position.
fn parent_triples(store: &SeqStore, alphabet: ReducedAlphabet) -> Triples<u32> {
    let base = alphabet.size() as u64;
    let msd = base.pow(K as u32 - 1);
    let mut t = Triples::new(store.len(), alphabet.kmer_space(K));
    for row in 0..store.len() {
        let seq = store.seq(row);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut id = 0u64;
        for (end, &c) in seq.iter().enumerate() {
            id = (id % msd) * base + alphabet.reduce(c) as u64;
            if end + 1 >= K {
                pairs.push((id as u32, (end + 1 - K) as u32));
            }
        }
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        for (id, pos) in pairs {
            t.push(row as u32, id, pos);
        }
    }
    t
}

/// The parent's column compaction: the sorted distinct ids and the triples
/// renumbered by one binary search each.
fn parent_compact(t: Triples<u32>) -> (Vec<u32>, Triples<u32>) {
    let mut col_map: Vec<u32> = t.entries.iter().map(|e| e.col).collect();
    col_map.sort_unstable();
    col_map.dedup();
    let mut compact = Triples::new(t.nrows(), col_map.len().max(1));
    for e in t.entries {
        let col = col_map.binary_search(&e.col).expect("k-mer id present") as u32;
        compact.push(e.row, col, e.val);
    }
    (col_map, compact)
}

fn keep_min(acc: &mut u32, inc: u32) {
    *acc = (*acc).min(inc);
}

/// The parent's stage 2 of `run_search_traced` on one rank.
fn parent_summa(grid: &ProcessGrid<SelfComm>, store: &SeqStore, p: &SearchParams) -> KmerSumma {
    let (_, a) = parent_compact(parent_triples(store, p.alphabet));
    let at = a.clone().transpose();
    BlockedSumma::from_triples(grid, a, at, p.block_rows, p.block_cols, keep_min, keep_min)
}

/// The column map and the stripes of `build_index`.
type IndexOperand = (Vec<u32>, Vec<CsrMatrix<u32>>);

fn parent_index(store: &SeqStore, stripe_cols: usize) -> IndexOperand {
    let (col_map, a) = parent_compact(parent_triples(store, ReducedAlphabet::Full20));
    let bt = CsrMatrix::from_triples_combining(a, keep_min).transpose();
    let n = store.len();
    let stripes = (0..n.div_ceil(stripe_cols))
        .map(|s| bt.extract_cols(s * stripe_cols, ((s + 1) * stripe_cols).min(n)))
        .collect();
    (col_map, stripes)
}

fn builder_index(store: &SeqStore, stripe_cols: usize) -> IndexOperand {
    let n = store.len();
    let KmerMatrix { ids, at } = KmerMatrix::build(store, 0..n, K, ReducedAlphabet::Full20, 0);
    let bounds: Vec<usize> = (0..=n.div_ceil(stripe_cols))
        .map(|s| (s * stripe_cols).min(n))
        .collect();
    let stripes = at.col_stripes(&bounds).collect();
    (ids, stripes)
}

fn stripes_of(bs: &KmerSumma) -> Vec<&CsrMatrix<u32>> {
    let a = (0..bs.br()).map(|r| bs.a_stripe(r).local());
    a.chain((0..bs.bc()).map(|c| bs.b_stripe(c).local()))
        .collect()
}

/// Both routes once per round after `WARM_UPS` untimed runs each, best
/// round kept (`kernel_spgemm`'s protocol: this host's speed steps for
/// seconds at a time, and a round-robin puts both routes in every phase).
fn race<T>(reps: usize, parent: impl Fn() -> T, builder: impl Fn() -> T) -> (f64, f64) {
    let time = |route: &dyn Fn() -> T| {
        for _ in 0..WARM_UPS {
            std::hint::black_box(route());
        }
        let t0 = Instant::now();
        let out = route();
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(out);
        secs
    };
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best = (best.0.min(time(&parent)), best.1.min(time(&builder)));
    }
    best
}

fn verdict(shape: &str, nnz: usize, inner: usize, (parent, builder): (f64, f64)) -> bool {
    let gain = parent / builder;
    println!(
        "{shape:<34} {:>9} {:>9} {parent:>10.4} {builder:>10.4} {gain:>7.2}x",
        fmt_count(nnz as u64),
        fmt_count(inner as u64),
    );
    if gain < LEAST_GAIN {
        eprintln!(
            "FAIL: {shape}: the builder is {gain:.2}x the parent recipe, under {LEAST_GAIN}x"
        );
    }
    gain >= LEAST_GAIN
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let grid = ProcessGrid::square(SelfComm::new());
    println!(
        "k-mer operand, k = {K}, best of {reps} rounds after {WARM_UPS} warm-ups, {} core(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    rule(84);
    println!(
        "{:<34} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "shape", "nnz", "inner", "parent s", "builder s", "gain"
    );
    rule(84);
    let mut ok = true;
    for (shape, n, alphabet, blocks) in [
        ("1000 seqs, Full20, 1x1", 1000, ReducedAlphabet::Full20, 1),
        (
            "4000 seqs, Murphy10, 4x4",
            4000,
            ReducedAlphabet::Murphy10,
            4,
        ),
    ] {
        let store = bench_dataset(n).store;
        let params = SearchParams {
            k: K,
            alphabet,
            ..SearchParams::default()
        }
        .with_blocking(blocks, blocks);
        let (reference, (built, nnz, inner)) = (
            parent_summa(&grid, &store, &params),
            kmer_summa(&grid, &store, &params),
        );
        assert_eq!(
            stripes_of(&built),
            stripes_of(&reference),
            "{shape}: a stripe differs from the parent recipe's"
        );
        let secs = race(
            reps,
            || parent_summa(&grid, &store, &params),
            || kmer_summa(&grid, &store, &params).0,
        );
        ok &= verdict(shape, nnz as usize, inner, secs);
    }
    let store = bench_dataset(1750).store;
    let built = builder_index(&store, 512);
    assert_eq!(
        built,
        parent_index(&store, 512),
        "the index operand differs from the parent recipe's"
    );
    let secs = race(
        reps,
        || parent_index(&store, 512),
        || builder_index(&store, 512),
    );
    let nnz = built.1.iter().map(CsrMatrix::nnz).sum();
    ok &= verdict(
        "1750 seqs, Full20, 512-col stripes",
        nnz,
        built.0.len(),
        secs,
    );
    rule(84);
    if !ok {
        std::process::exit(1);
    }
    println!("PASS: every stripe and column map bit-identical, builder at least {LEAST_GAIN}x on each shape");
}
