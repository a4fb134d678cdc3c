//! Intra-rank parallel SpGEMM — the sparse analog of the alignment side's
//! `AlignPool` (PR 1), bringing the local kernels up to the multithreaded
//! CombBLAS kernels the paper inherits (Nagasaka et al., ICPP'18).
//!
//! Two layers:
//!
//! * [`run_units`] — the deterministic chunk-claim primitive: `n_units`
//!   independent work units are claimed from a shared atomic counter by
//!   `t` scoped threads (the calling thread is worker 0, so a pool of `t`
//!   occupies exactly `t` OS threads — important under pre-blocking, where
//!   a concurrent sparse thread already owns the communicator), and the
//!   results are re-assembled **in unit order**. Reused by the baselines'
//!   candidate-discovery loops.
//! * [`spgemm_parallel`] — Gustavson's algorithm row-partitioned into
//!   fixed-size chunks executed through [`run_units`]. Every chunk runs
//!   the *same* row kernel as [`crate::spgemm_hash`] (literally the same
//!   function, on a scratch the claiming worker keeps for the whole
//!   multiply), and chunks are stitched back in ascending row order, so
//!   the output — values *and* combine order — is bit-identical to the
//!   serial kernel for any thread count and any semiring, including
//!   non-commutative ones.
//!
//! [`SpGemmPool`] wraps kernel selection ([`SpGemmKind`]) around them: the
//! `auto` policy picks the parallel kernel when the pool has >1 worker and
//! enough rows to amortize chunk claims, and otherwise chooses between the
//! serial hash and heap kernels by merge fan-in. The average number of
//! B-rows merged per output row is an upper bound on the compression
//! factor (each sorted B row contributes a column at most once), so a low
//! fan-in bound means a low compression factor — the regime where the
//! heap's ordered merge beats hashing + sorting (Section V-B's
//! compression-factor discussion).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pastis_pool::{Engine, WorkPool};
use pastis_trace::{names, Component, Recorder, Track};

use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use crate::spgemm::{
    spgemm_heap, spgemm_rows, AccStats, RowScratch, SpGemmKind, SpGemmStats, DENSE_ACC_LIMIT_BYTES,
};
use crate::triples::Index;

/// Rows claimed per unit of work: small enough for dynamic balance over
/// ragged row costs, large enough to amortize the atomic claim.
const ROWS_PER_CHUNK: usize = 16;

/// `auto` only picks the parallel kernel when there are at least this many
/// rows (several chunks per worker); below it, chunk-claim overhead
/// dominates and a serial kernel wins.
const PARALLEL_MIN_ROWS: usize = 4 * ROWS_PER_CHUNK;

/// `auto` picks the heap kernel when the average merge fan-in (B-rows per
/// nonempty A row) is at or below this; the fan-in bounds the compression
/// factor from above, and a short k-way merge beats hash + sort.
const HEAP_MAX_FANIN: f64 = 8.0;

/// Deterministic chunk-claim parallel map: calls `work(worker, unit)`
/// exactly once for each `unit < n_units`, from whichever of `threads`
/// scoped workers claims the unit off a shared atomic counter, and returns
/// the results **in unit order**. The calling thread doubles as worker 0;
/// with one thread (or one unit) no threads are spawned at all.
///
/// Determinism contract: `work` must depend only on its `unit` argument —
/// then the returned vector is identical for every thread count, and any
/// order-sensitive stitching the caller does over it is too.
pub fn run_units<R, F>(threads: usize, n_units: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let workers = threads.max(1).min(n_units.max(1));
    if workers <= 1 {
        return (0..n_units).map(|u| work(0, u)).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = |w: usize| {
        let mut out = Vec::new();
        loop {
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= n_units {
                break;
            }
            out.push((u, work(w, u)));
        }
        out
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let mut tagged = worker(0);
        for h in handles {
            tagged.extend(h.join().expect("spgemm worker panicked"));
        }
        tagged.sort_unstable_by_key(|&(u, _)| u);
        tagged.into_iter().map(|(_, r)| r).collect()
    })
}

/// Resolve a thread-count knob: `0` means one worker per available core.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Row-partitioned parallel SpGEMM: `C = A ⊗ B` under semiring `sr`,
/// computed by `threads` workers (`0` = one per core) claiming
/// fixed-size row chunks and stitched in ascending row order.
///
/// Bit-identical to [`crate::spgemm_hash`] — same values, same combine order —
/// for any thread count and any semiring, because each row runs the same
/// per-row kernel and the stitch preserves row order. Stats are summed
/// over chunks, matching the serial counters exactly.
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
pub fn spgemm_parallel<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    threads: usize,
) -> (CsrMatrix<S::C>, SpGemmStats)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
    S::C: Send,
{
    spgemm_parallel_traced(sr, a, b, threads, &Recorder::disabled())
}

/// [`spgemm_parallel`] with telemetry: each claimed chunk emits a
/// `spgemm.row_chunk` span on its worker's [`Track::SpGemmWorker`]
/// sub-track (kept off the main rank track so phase totals never
/// double-count pool work). Observation-only — results are unchanged.
pub fn spgemm_parallel_traced<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    threads: usize,
    rec: &Recorder,
) -> (CsrMatrix<S::C>, SpGemmStats)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
    S::C: Send,
{
    let exec = Exec::Scoped(resolve_threads(threads));
    let (c, stats, _) = spgemm_chunked(sr, a, b, exec, rec, DENSE_ACC_LIMIT_BYTES);
    (c, stats)
}

/// [`spgemm_parallel_traced`] executing on the unified [`WorkPool`] instead
/// of scoped per-call threads: chunks become pool units an idle alignment
/// worker can steal, and chunk spans land on [`Track::PoolWorker`]
/// sub-tracks. Bit-identical to every other kernel path — same chunking,
/// same per-row kernel, same row-order stitch.
pub fn spgemm_parallel_pooled<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    workers: &WorkPool,
    rec: &Recorder,
) -> (CsrMatrix<S::C>, SpGemmStats)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
    S::C: Send,
{
    let (c, stats, _) = spgemm_chunked(sr, a, b, Exec::Pool(workers), rec, DENSE_ACC_LIMIT_BYTES);
    (c, stats)
}

/// Where the row chunks of one parallel multiply execute.
#[derive(Clone, Copy)]
enum Exec<'a> {
    /// This many scoped threads through [`run_units`].
    Scoped(usize),
    /// The unified pool, as [`Engine::Sparse`] units.
    Pool(&'a WorkPool),
}

/// One chunk's output: per-row lengths plus the concatenated row data.
type Chunk<C> = (Vec<usize>, Vec<Index>, Vec<C>, SpGemmStats);

/// The row-partitioned kernel behind both parallel entry points: row
/// chunks of [`ROWS_PER_CHUNK`] run the shared row kernel on `exec`, each
/// worker keeping one [`RowScratch`] for every chunk it claims, and are
/// stitched in ascending row order.
fn spgemm_chunked<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    exec: Exec<'_>,
    rec: &Recorder,
    dense_limit: usize,
) -> (CsrMatrix<S::C>, SpGemmStats, AccStats)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
    S::C: Send,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "SpGEMM dimension mismatch: {}x{} · {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let n_units = a.nrows().div_ceil(ROWS_PER_CHUNK);
    // One scratch per worker slot, built by the first chunk the worker
    // claims. A slot belongs to one thread, so the locks never contend.
    let n_slots = match exec {
        Exec::Scoped(threads) => threads.max(1),
        Exec::Pool(wp) => wp.caller_slot(Engine::Sparse) + 1,
    };
    let scratches: Vec<Mutex<Option<RowScratch<S>>>> =
        (0..n_slots).map(|_| Mutex::new(None)).collect();
    let chunk = |u: usize, slot: usize, track: Track| -> Chunk<S::C> {
        let mut guard = scratches[slot].lock().expect("a row chunk panicked");
        let scratch = guard.get_or_insert_with(|| RowScratch::new(b.ncols(), dense_limit));
        row_chunk(sr, a, b, u, scratch, track, rec)
    };
    let chunks: Vec<Chunk<S::C>> = match exec {
        Exec::Scoped(threads) => run_units(threads, n_units, |w, u| {
            chunk(u, w, Track::SpGemmWorker(w as u32))
        }),
        Exec::Pool(wp) => wp.run(Engine::Sparse, n_units, |u, slot| {
            chunk(u, slot, Track::PoolWorker(slot as u32))
        }),
    };

    let total: usize = chunks.iter().map(|c| c.1.len()).sum();
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::with_capacity(total);
    let mut vals: Vec<S::C> = Vec::with_capacity(total);
    let mut stats = SpGemmStats::default();
    let mut end = 0usize;
    for (lens, ccols, cvals, cstats) in chunks {
        for l in lens {
            end += l;
            rowptr.push(end);
        }
        colind.extend(ccols);
        vals.extend(cvals);
        stats.merge(cstats);
    }
    let mut acc = AccStats::default();
    for scratch in scratches {
        if let Some(s) = scratch.into_inner().expect("a row chunk panicked") {
            acc.merge(s.acc);
        }
    }
    (
        CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals),
        stats,
        acc,
    )
}

/// Compute row chunk `u` with the shared row kernel on the claiming
/// worker's `scratch`, emitting its `spgemm.row_chunk` span on `track`
/// when telemetry is on. The rows depend only on `u` — the determinism
/// requirement of both execution backends.
fn row_chunk<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    u: usize,
    scratch: &mut RowScratch<S>,
    track: Track,
    rec: &Recorder,
) -> Chunk<S::C>
where
    S: Semiring,
{
    let start = u * ROWS_PER_CHUNK;
    let end = ((u + 1) * ROWS_PER_CHUNK).min(a.nrows());
    let mut span = rec.is_enabled().then(|| {
        rec.span(Component::SpGemm, names::SPAN_SPGEMM_ROW_CHUNK)
            .on_track(track)
            .arg("rows", (end - start) as u64)
    });
    let mut lens = Vec::with_capacity(end - start);
    let mut colind: Vec<Index> = Vec::new();
    let mut vals: Vec<S::C> = Vec::new();
    let mut stats = SpGemmStats::default();
    for i in start..end {
        let before = colind.len();
        scratch.row_into(sr, a, b, i, &mut colind, &mut vals, &mut stats);
        lens.push(colind.len() - before);
    }
    if let Some(sp) = span.as_mut() {
        sp.push_arg("nnz", colind.len() as u64);
        sp.push_arg("products", stats.products);
    }
    (lens, colind, vals, stats)
}

/// Kernel-selection wrapper around the local SpGEMM kernels: holds the
/// worker count, the [`SpGemmKind`] policy, and an optional telemetry
/// recorder, and dispatches each multiplication to the chosen kernel.
///
/// Every kernel choice produces bit-identical output (the equivalence
/// tests below and the proptest sweep pin values *and* combine order), so
/// the policy only ever changes wall time — the same contract as the
/// alignment side's `AlignPool`.
#[derive(Debug, Clone)]
pub struct SpGemmPool {
    threads: usize,
    kind: SpGemmKind,
    recorder: Recorder,
    workers: Option<WorkPool>,
}

impl SpGemmPool {
    /// A pool of `threads` workers (`0` = one per available core) with the
    /// `auto` selection policy and telemetry off.
    pub fn new(threads: usize) -> SpGemmPool {
        SpGemmPool {
            threads: resolve_threads(threads),
            kind: SpGemmKind::Auto,
            recorder: Recorder::disabled(),
            workers: None,
        }
    }

    /// The exact legacy configuration: one worker, always the serial hash
    /// kernel. `summa` without an explicit pool runs this.
    pub fn serial() -> SpGemmPool {
        SpGemmPool::new(1).with_kind(SpGemmKind::Hash)
    }

    /// Set the kernel-selection policy.
    pub fn with_kind(mut self, kind: SpGemmKind) -> SpGemmPool {
        self.kind = kind;
        self
    }

    /// Attach a telemetry recorder: each multiplication then bumps a
    /// `spgemm.kernel.<name>` counter for the kernel it ran, and the
    /// parallel kernel emits per-chunk `spgemm.row_chunk` spans on
    /// [`Track::SpGemmWorker`] sub-tracks. Observation-only.
    pub fn with_recorder(mut self, recorder: Recorder) -> SpGemmPool {
        self.recorder = recorder;
        self
    }

    /// Submit parallel multiplications to a shared [`WorkPool`] instead of
    /// spawning scoped threads per call: row chunks become pool units, so
    /// idle alignment workers can steal them (and vice versa). Kernel
    /// *selection* then sizes against the unified pool (`workers + the
    /// submitting caller`), and chunk spans move to
    /// [`Track::PoolWorker`] sub-tracks. Results are bit-identical to the
    /// scoped-thread path.
    pub fn with_workers(mut self, workers: WorkPool) -> SpGemmPool {
        self.workers = Some(workers);
        self
    }

    /// Resolved worker count (never 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers `select` sizes the parallel kernel against: the unified
    /// pool (its workers plus the submitting caller) when one is attached,
    /// else the pool's own thread knob.
    fn effective_threads(&self) -> usize {
        self.workers
            .as_ref()
            .map_or(self.threads, |w| w.threads() + 1)
    }

    /// The attached unified pool, if any.
    pub fn workers(&self) -> Option<&WorkPool> {
        self.workers.as_ref()
    }

    /// The attached telemetry recorder (disabled recorder when none was
    /// attached — safe to record against either way).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The configured selection policy.
    pub fn kind(&self) -> SpGemmKind {
        self.kind
    }

    /// The concrete kernel `multiply` would run for these operands —
    /// `auto` resolved against the pool's worker count and the operands'
    /// shape/fan-in; never returns [`SpGemmKind::Auto`].
    pub fn select<A, B>(&self, a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> SpGemmKind {
        match self.kind {
            SpGemmKind::Auto => {
                if self.effective_threads() > 1 && a.nrows() >= PARALLEL_MIN_ROWS {
                    return SpGemmKind::Parallel;
                }
                let rows = a.nonempty_rows();
                if rows == 0 || b.nnz() == 0 {
                    // Trivially empty output; the hash kernel's row loop
                    // is the cheapest way to produce it.
                    return SpGemmKind::Hash;
                }
                // Average B-rows merged per nonempty output row. This
                // upper-bounds the compression factor (a sorted B row
                // contributes each column at most once), so low fan-in ⇒
                // low compression ⇒ the heap's short ordered merge wins.
                let fanin = a.nnz() as f64 / rows as f64;
                if fanin <= HEAP_MAX_FANIN {
                    SpGemmKind::Heap
                } else {
                    SpGemmKind::Hash
                }
            }
            k => k,
        }
    }

    /// Multiply under the configured policy: `C = A ⊗ B`, bit-identical
    /// for every policy and worker count.
    pub fn multiply<S>(
        &self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
    ) -> (CsrMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync,
        S::C: Send,
    {
        let kind = self.select(a, b);
        self.recorder.add_counter(kind.counter_name(), 1.0);
        let limit = DENSE_ACC_LIMIT_BYTES;
        let (c, stats, acc) = match kind {
            SpGemmKind::Hash => spgemm_rows(sr, a, b, limit),
            SpGemmKind::Heap => {
                let (c, stats) = spgemm_heap(sr, a, b);
                (c, stats, AccStats::default())
            }
            SpGemmKind::Parallel => {
                let exec = match &self.workers {
                    Some(wp) => Exec::Pool(wp),
                    None => Exec::Scoped(self.threads),
                };
                spgemm_chunked(sr, a, b, exec, &self.recorder, limit)
            }
            SpGemmKind::Auto => unreachable!("select() never returns Auto"),
        };
        // Which accumulator the row kernel ran, once per multiply.
        let rows = [acc.dense_rows, acc.scan_rows, acc.table_rows];
        for (name, rows) in names::SPGEMM_ACC_COUNTERS.into_iter().zip(rows) {
            if rows > 0 {
                self.recorder.add_counter(name, rows as f64);
            }
        }
        (c, stats)
    }

    /// The serving path's transpose-product entry point: multiply one
    /// query-block matrix against `B = Aᵀ` stored as column stripes (the
    /// persisted index layout — each stripe holds a contiguous range of
    /// reference columns, rows renumbered to the stripe), and stitch the
    /// per-stripe products back into one `a.nrows() × Σ stripe widths`
    /// matrix with globally ascending column ids.
    ///
    /// Each per-stripe product goes through [`SpGemmPool::multiply`], so
    /// per-entry combine order is the serial Gustavson order for every
    /// kernel and worker count — the stitched output is bit-identical to
    /// multiplying against the unstriped `B`, per stripe decomposition
    /// (pinned by this module's tests).
    pub fn multiply_striped<'b, S>(
        &self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        stripes: impl IntoIterator<Item = &'b CsrMatrix<S::B>>,
    ) -> (CsrMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync + 'b,
        S::C: Send,
    {
        // One stripe product, its values and columns as cursors: the
        // row-major stitch consumes each in storage order.
        struct Part<V> {
            offset: Index,
            rowptr: Vec<usize>,
            cols: std::vec::IntoIter<Index>,
            vals: std::vec::IntoIter<V>,
        }
        let nrows = a.nrows();
        let mut stats = SpGemmStats::default();
        let mut parts: Vec<Part<S::C>> = Vec::new();
        let (mut total_cols, mut total_nnz) = (0usize, 0usize);
        for b in stripes {
            let (c, st) = self.multiply(sr, a, b);
            stats.merge(st);
            let (_, ncols, rowptr, colind, vals) = c.into_parts();
            total_nnz += colind.len();
            parts.push(Part {
                offset: total_cols as Index,
                rowptr,
                cols: colind.into_iter(),
                vals: vals.into_iter(),
            });
            total_cols += ncols;
        }
        // Row i of the result is the parts' rows i end to end, each shifted
        // by its stripe's global offset; stripes ascend, so the row stays
        // sorted and `rowptr` is the sum of the parts' row pointers. Every
        // value moves once, into its final place.
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colind: Vec<Index> = Vec::with_capacity(total_nnz);
        let mut vals: Vec<S::C> = Vec::with_capacity(total_nnz);
        for i in 0..nrows {
            for p in &mut parts {
                let len = p.rowptr[i + 1] - p.rowptr[i];
                colind.extend(p.cols.by_ref().take(len).map(|c| c + p.offset));
                vals.extend(p.vals.by_ref().take(len));
            }
            rowptr.push(colind.len());
        }
        (
            CsrMatrix::from_parts(nrows, total_cols, rowptr, colind, vals),
            stats,
        )
    }
}

impl Default for SpGemmPool {
    /// Equivalent to [`SpGemmPool::serial`].
    fn default() -> SpGemmPool {
        SpGemmPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use crate::spgemm::oracle::{random_matrix, spgemm_table_oracle, Concat};
    use crate::spgemm::{spgemm_dense_ref, spgemm_hash};
    use pastis_trace::TraceSession;

    #[test]
    fn run_units_preserves_unit_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = run_units(threads, 100, |_, u| u * u);
            assert_eq!(
                out,
                (0..100).map(|u| u * u).collect::<Vec<_>>(),
                "t={threads}"
            );
        }
        let empty: Vec<usize> = run_units(4, 0, |_, u| u);
        assert!(empty.is_empty());
    }

    #[test]
    fn striped_product_matches_unstriped_for_any_decomposition() {
        let a = random_matrix(40, 30, 0.2, 7);
        let b = random_matrix(30, 53, 0.15, 8);
        let sr = PlusTimes::<u32>::new();
        let pool = SpGemmPool::new(3);
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        for width in [1usize, 7, 16, 53, 60] {
            let mut stripes = Vec::new();
            let mut lo = 0;
            while lo < b.ncols() {
                let hi = (lo + width).min(b.ncols());
                stripes.push(b.extract_cols(lo, hi));
                lo = hi;
            }
            let (got, stats) = pool.multiply_striped(&sr, &a, stripes.iter());
            assert_eq!(got, want, "width {width}");
            assert_eq!(stats.merged_nnz, want_stats.merged_nnz, "width {width}");
        }
        // No stripes at all: an empty product with zero columns.
        let (empty, _) = pool.multiply_striped(&sr, &a, std::iter::empty());
        assert_eq!(empty.nrows(), a.nrows());
        assert_eq!(empty.ncols(), 0);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn parallel_matches_hash_across_thread_counts() {
        let a = random_matrix(97, 64, 0.12, 1);
        let b = random_matrix(64, 83, 0.15, 2);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        for t in [1usize, 2, 3, 8] {
            let (got, stats) = spgemm_parallel(&sr, &a, &b, t);
            assert_eq!(got, want, "t={t}");
            assert_eq!(stats, want_stats, "t={t}");
        }
    }

    #[test]
    fn parallel_handles_empty_and_tiny() {
        let sr = PlusTimes::<u32>::new();
        let a: CsrMatrix<u32> = CsrMatrix::empty(0, 5);
        let b: CsrMatrix<u32> = CsrMatrix::empty(5, 3);
        let (c, stats) = spgemm_parallel(&sr, &a, &b, 4);
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (0, 3, 0));
        assert_eq!(stats.products, 0);
        let a1 = random_matrix(1, 4, 0.9, 3);
        let b1 = random_matrix(4, 4, 0.9, 4);
        let (got, _) = spgemm_parallel(&sr, &a1, &b1, 8);
        assert_eq!(got, spgemm_hash(&sr, &a1, &b1).0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn parallel_dimension_mismatch_panics() {
        let a: CsrMatrix<u32> = CsrMatrix::empty(2, 3);
        let b: CsrMatrix<u32> = CsrMatrix::empty(2, 2);
        let _ = spgemm_parallel(&PlusTimes::new(), &a, &b, 2);
    }

    #[test]
    fn parallel_preserves_combine_order_for_noncommutative_semiring() {
        // Wide enough to span several row chunks; values and the per-entry
        // combine order must match the serial kernels exactly.
        let a = random_matrix(80, 40, 0.2, 5);
        let b = random_matrix(40, 50, 0.25, 6);
        let (want, _) = spgemm_hash(&Concat, &a, &b);
        let (heap, _) = spgemm_heap(&Concat, &a, &b);
        assert_eq!(want, heap);
        for t in [1usize, 2, 3, 8] {
            let (got, _) = spgemm_parallel(&Concat, &a, &b, t);
            assert_eq!(got, want, "t={t}");
        }
    }

    #[test]
    fn parallel_survives_forced_accumulator_growth() {
        // Dense rows force repeated HashAccumulator growth inside chunks.
        let a = random_matrix(40, 8, 0.9, 7);
        let b = random_matrix(8, 600, 0.95, 8);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        assert!(want.row(0).0.len() > 500, "growth case not dense enough");
        for t in [1usize, 3, 8] {
            let (got, stats) = spgemm_parallel(&sr, &a, &b, t);
            assert_eq!(got, want, "t={t}");
            assert_eq!(stats, want_stats, "t={t}");
        }
    }

    #[test]
    fn pool_zero_threads_means_auto() {
        assert!(SpGemmPool::new(0).threads() >= 1);
        assert_eq!(SpGemmPool::new(3).threads(), 3);
        assert_eq!(SpGemmPool::serial().threads(), 1);
        assert_eq!(SpGemmPool::serial().kind(), SpGemmKind::Hash);
        assert_eq!(SpGemmPool::default().kind(), SpGemmKind::Hash);
    }

    #[test]
    fn auto_selection_policy() {
        // Big operand + multi-worker pool → parallel.
        let big = random_matrix(200, 64, 0.2, 9);
        let b = random_matrix(64, 64, 0.2, 10);
        let pool = SpGemmPool::new(4);
        assert_eq!(pool.select(&big, &b), SpGemmKind::Parallel);
        // One worker → serial kernel chosen by fan-in: ~13 nnz/row → hash.
        let serial_auto = SpGemmPool::new(1);
        assert_eq!(serial_auto.select(&big, &b), SpGemmKind::Hash);
        // Low fan-in (≤ HEAP_MAX_FANIN B-rows per output row) → heap.
        let thin = random_matrix(200, 64, 0.05, 11);
        assert!((thin.nnz() as f64 / thin.nonempty_rows() as f64) <= HEAP_MAX_FANIN);
        assert_eq!(serial_auto.select(&thin, &b), SpGemmKind::Heap);
        // Small operands never pick parallel even with workers available.
        let tiny = random_matrix(8, 8, 0.5, 12);
        assert_ne!(pool.select(&tiny, &tiny), SpGemmKind::Parallel);
        // Forced kinds pass through untouched.
        for k in [SpGemmKind::Hash, SpGemmKind::Heap, SpGemmKind::Parallel] {
            assert_eq!(pool.clone().with_kind(k).select(&big, &b), k);
        }
    }

    #[test]
    fn pool_multiply_is_kernel_invariant() {
        let a = random_matrix(120, 48, 0.15, 13);
        let b = random_matrix(48, 70, 0.2, 14);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        for kind in [
            SpGemmKind::Auto,
            SpGemmKind::Hash,
            SpGemmKind::Heap,
            SpGemmKind::Parallel,
        ] {
            for t in [1usize, 4] {
                let pool = SpGemmPool::new(t).with_kind(kind);
                let (got, stats) = pool.multiply(&sr, &a, &b);
                assert_eq!(got, want, "kind={kind} t={t}");
                assert_eq!(stats, want_stats, "kind={kind} t={t}");
            }
        }
    }

    #[test]
    fn traced_pool_emits_chunk_spans_and_kernel_counters() {
        let a = random_matrix(100, 32, 0.2, 15);
        let b = random_matrix(32, 40, 0.2, 16);
        let sr = PlusTimes::<u32>::new();
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = SpGemmPool::new(2)
            .with_kind(SpGemmKind::Parallel)
            .with_recorder(rec.clone());
        let (got, _) = pool.multiply(&sr, &a, &b);
        assert_eq!(got, spgemm_hash(&sr, &a, &b).0);

        let spans = rec.snapshot_spans();
        // 100 rows / 16 per chunk = 7 chunk spans, all on worker tracks.
        assert_eq!(spans.len(), 7);
        let mut rows_total = 0u64;
        for s in &spans {
            assert_eq!(s.name, names::SPAN_SPGEMM_ROW_CHUNK);
            assert!(matches!(s.track, Track::SpGemmWorker(_)), "{:?}", s.track);
            rows_total += s.args.iter().find(|(n, _)| *n == "rows").unwrap().1;
        }
        assert_eq!(rows_total, 100);
        assert_eq!(rec.counters().get("spgemm.kernel.parallel"), Some(&1.0));
        // 40 columns: every row went through the dense accumulator, summed
        // over both workers' scratches.
        assert_eq!(rec.counters().get("spgemm.acc.dense_rows"), Some(&100.0));
        assert_eq!(rec.counters().get("spgemm.acc.table_rows"), None);

        // The serial kernels bump their own counters and emit no spans.
        let rec2 = session.recorder(1);
        let _ = SpGemmPool::serial()
            .with_recorder(rec2.clone())
            .multiply(&sr, &a, &b);
        let _ = SpGemmPool::new(1)
            .with_kind(SpGemmKind::Heap)
            .with_recorder(rec2.clone())
            .multiply(&sr, &a, &b);
        assert!(rec2.snapshot_spans().is_empty());
        assert_eq!(rec2.counters().get("spgemm.kernel.hash"), Some(&1.0));
        assert_eq!(rec2.counters().get("spgemm.kernel.heap"), Some(&1.0));
        // The heap kernel has no accumulator: only the hash multiply counts.
        assert_eq!(rec2.counters().get("spgemm.acc.dense_rows"), Some(&100.0));
    }

    #[test]
    fn pooled_kernel_matches_hash_and_preserves_combine_order() {
        let a = random_matrix(97, 64, 0.12, 1);
        let b = random_matrix(64, 83, 0.15, 2);
        let sr = PlusTimes::<u32>::new();
        let (want, want_stats) = spgemm_hash(&sr, &a, &b);
        let (cat_want, _) = spgemm_hash(&Concat, &a, &b);
        for workers in [0usize, 1, 3] {
            let wp = WorkPool::with_exact_workers(workers);
            let rec = Recorder::disabled();
            let (got, stats) = spgemm_parallel_pooled(&sr, &a, &b, &wp, &rec);
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(stats, want_stats, "workers={workers}");
            let (cat_got, _) = spgemm_parallel_pooled(&Concat, &a, &b, &wp, &rec);
            assert_eq!(cat_got, cat_want, "workers={workers}");
        }
    }

    #[test]
    fn pool_backed_multiply_uses_pool_worker_tracks() {
        let a = random_matrix(100, 32, 0.2, 15);
        let b = random_matrix(32, 40, 0.2, 16);
        let sr = PlusTimes::<u32>::new();
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let wp = WorkPool::with_exact_workers(1);
        let pool = SpGemmPool::new(1)
            .with_kind(SpGemmKind::Parallel)
            .with_recorder(rec.clone())
            .with_workers(wp.clone());
        assert!(pool.workers().is_some());
        let (got, _) = pool.multiply(&sr, &a, &b);
        assert_eq!(got, spgemm_hash(&sr, &a, &b).0);
        // Same chunking as the scoped path (100 rows → 7 chunks), but the
        // spans now live on unified-pool tracks.
        let spans = rec.snapshot_spans();
        assert_eq!(spans.len(), 7);
        let mut rows_total = 0u64;
        for s in &spans {
            assert_eq!(s.name, names::SPAN_SPGEMM_ROW_CHUNK);
            assert!(matches!(s.track, Track::PoolWorker(_)), "{:?}", s.track);
            rows_total += s.args.iter().find(|(n, _)| *n == "rows").unwrap().1;
        }
        assert_eq!(rows_total, 100);
    }

    #[test]
    fn attached_pool_drives_auto_selection() {
        let big = random_matrix(200, 64, 0.2, 9);
        let b = random_matrix(64, 64, 0.2, 10);
        // One own thread, but a 3-worker unified pool behind it: auto must
        // size against the pool and pick the parallel kernel.
        let pool = SpGemmPool::new(1).with_workers(WorkPool::with_exact_workers(3));
        assert_eq!(pool.select(&big, &b), SpGemmKind::Parallel);
        // A workerless pool (caller-only) leaves auto at serial choices.
        let solo = SpGemmPool::new(4).with_workers(WorkPool::with_exact_workers(0));
        assert_ne!(solo.select(&big, &b), SpGemmKind::Parallel);
    }

    #[test]
    fn kind_parse_roundtrip() {
        for (s, k) in [
            ("auto", SpGemmKind::Auto),
            ("hash", SpGemmKind::Hash),
            ("heap", SpGemmKind::Heap),
            ("parallel", SpGemmKind::Parallel),
        ] {
            assert_eq!(SpGemmKind::parse(s), Ok(k));
            assert_eq!(k.to_string(), s);
        }
        assert!(SpGemmKind::parse("gpu").is_err());
        assert_eq!(SpGemmKind::default(), SpGemmKind::Auto);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tentpole contract: every kernel agrees — values and
        /// combine order — for every thread count and on either side of
        /// the dense limit, on both a commutative and an order-revealing
        /// non-commutative semiring. The yardsticks are the kernel the row
        /// kernel replaced and the dense reference.
        #[test]
        fn kernels_agree_for_every_thread_count(
            seed in 0u64..1_000_000,
            nrows in 1usize..90,
            inner in 1usize..40,
            ncols in 1usize..60,
            density in 0.02f64..0.4,
        ) {
            let a = random_matrix(nrows, inner, density, seed);
            let b = random_matrix(inner, ncols, density, seed ^ 0x9e37_79b9);
            let sr = PlusTimes::<u32>::new();
            let (want, want_stats) = spgemm_table_oracle(&sr, &a, &b);
            prop_assert_eq!(&spgemm_dense_ref(&sr, &a, &b), &want);
            let (heap, heap_stats) = spgemm_heap(&sr, &a, &b);
            prop_assert_eq!(&heap, &want);
            prop_assert_eq!(heap_stats, want_stats);
            let (cat_want, _) = spgemm_table_oracle(&Concat, &a, &b);
            prop_assert_eq!(&spgemm_dense_ref(&Concat, &a, &b), &cat_want);
            let (cat_heap, _) = spgemm_heap(&Concat, &a, &b);
            prop_assert_eq!(&cat_heap, &cat_want);
            // Slots of `ncols − 1` columns (the table runs), of exactly
            // `ncols` (the dense array just fits) and the shipped limit.
            let slot = std::mem::size_of::<<PlusTimes<u32> as Semiring>::Slot>();
            let cat_slot = std::mem::size_of::<<Concat as Semiring>::Slot>();
            for cols in [ncols - 1, ncols, DENSE_ACC_LIMIT_BYTES] {
                let (got, stats, acc) = spgemm_rows(&sr, &a, &b, cols * slot);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(stats, want_stats);
                prop_assert_eq!(acc.dense_rows + acc.table_rows, nrows as u64);
                prop_assert_eq!(acc.table_rows > 0, cols < ncols);
                let (cat_got, _, _) = spgemm_rows(&Concat, &a, &b, cols * cat_slot);
                prop_assert_eq!(&cat_got, &cat_want);
                let rec = Recorder::disabled();
                for t in [1usize, 2, 3, 8] {
                    let (got, stats, par_acc) =
                        spgemm_chunked(&sr, &a, &b, Exec::Scoped(t), &rec, cols * slot);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(stats, want_stats);
                    prop_assert_eq!(par_acc, acc);
                    let (cat_got, _, _) =
                        spgemm_chunked(&Concat, &a, &b, Exec::Scoped(t), &rec, cols * cat_slot);
                    prop_assert_eq!(&cat_got, &cat_want);
                }
            }
            let (hash, hash_stats) = spgemm_hash(&sr, &a, &b);
            prop_assert_eq!(&hash, &want);
            prop_assert_eq!(hash_stats, want_stats);
            let (par, par_stats) = spgemm_parallel(&sr, &a, &b, 3);
            prop_assert_eq!(&par, &want);
            prop_assert_eq!(par_stats, want_stats);
        }
    }
}
