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
//! * The chunk driver behind [`SpGemmPool::visit`] — Gustavson's algorithm
//!   row-partitioned into chunks of `ROWS_PER_CHUNK` rows, run serially,
//!   through [`run_units`] or on the unified [`WorkPool`]. Every chunk runs
//!   the *same* per-row function as [`crate::spgemm_hash`] (or as
//!   [`crate::spgemm_heap`]) on a scratch the claiming worker keeps for
//!   the whole multiply, into a chunk buffer it reuses, and hands the
//!   chunk to the caller's consumer inside the same unit. The consumers'
//!   results come back in ascending row order, so a product stitched from
//!   the chunks ([`SpGemmPool::multiply`], [`spgemm_parallel`]) — values
//!   *and* combine order — is bit-identical to the serial kernel for any
//!   thread count and any semiring, including non-commutative ones, and a
//!   consumer that keeps less than the chunk never holds the product.
//!
//! [`SpGemmPool`] wraps kernel selection ([`SpGemmKind`]) around it: the
//! `auto` policy picks the parallel kernel when the pool has >1 worker and
//! enough rows to amortize chunk claims, and otherwise chooses between the
//! serial hash and heap kernels by merge fan-in. The average number of
//! B-rows merged per output row is an upper bound on the compression
//! factor (each sorted B row contributes a column at most once), so a low
//! fan-in bound means a low compression factor — the regime where the
//! heap's ordered merge beats hashing + sorting (Section V-B's
//! compression-factor discussion).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pastis_pool::{Engine, WorkPool};
use pastis_trace::{names, Component, Recorder, Track};

use crate::csr::CsrMatrix;
use crate::semiring::Semiring;
use crate::spgemm::{AccStats, RowScratch, SpGemmKind, SpGemmStats, DENSE_ACC_LIMIT_BYTES};
use crate::triples::Index;

/// Rows claimed per unit of work: small enough for dynamic balance over
/// ragged row costs and for a chunk of the product to stay in cache while
/// its consumer reads it, large enough to amortize the atomic claim.
pub(crate) const ROWS_PER_CHUNK: usize = 16;

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
    stitched(sr, a, b, Exec::Scoped(resolve_threads(threads)), rec)
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
    stitched(sr, a, b, Exec::Pool(workers), rec)
}

/// The row kernel's product on `exec`, visited and stitched.
fn stitched<S>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    exec: Exec<'_>,
    rec: &Recorder,
) -> (CsrMatrix<S::C>, SpGemmStats)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
    S::C: Send,
{
    let row = || RowScratch::new(b.ncols(), DENSE_ACC_LIMIT_BYTES);
    let stitch = Stitch::new(b.ncols());
    let consume = |first: usize, chunk: &mut CsrMatrix<S::C>| stitch.push(first, chunk);
    let (visited, _) = visit_chunks(sr, a, b, exec, &row, rec, &consume);
    (stitch.finish(), visited.stats)
}

/// What a visit of `C = A ⊗ B` leaves: the consumer's results, not `C`.
#[derive(Debug)]
pub struct Visited<R> {
    /// The consumer's result for each row chunk, in row order.
    pub results: Vec<R>,
    /// The multiply's work counters.
    pub stats: SpGemmStats,
    /// The consumer's share of the visit's wall time: its seconds summed
    /// over chunks, scaled by the wall time over the units' summed
    /// seconds, so that chunks consumed side by side count once.
    pub consume_seconds: f64,
}

/// The stitching consumer: joins the chunks of a visit into the product
/// itself, in row order whatever order the units finish in. A chunk that
/// arrives in turn is appended and leaves its buffers to its worker; one
/// that arrives before the rows above it is taken whole until its turn.
/// What a caller that wants the product passes to [`SpGemmPool::visit`],
/// [`summa`](fn@crate::summa) or [`crate::BlockedSumma::multiply_block`]:
/// `|first, chunk| stitch.push(first, chunk)`, then [`Stitch::finish`].
#[derive(Debug)]
pub struct Stitch<T> {
    parts: Mutex<Parts<T>>,
}

#[derive(Debug)]
struct Parts<T> {
    /// The rows joined so far.
    product: CsrMatrix<T>,
    /// Chunks ahead of their turn, by first row.
    early: BTreeMap<usize, CsrMatrix<T>>,
}

impl<T> Stitch<T> {
    /// A stitch for a product of `ncols` columns.
    pub fn new(ncols: usize) -> Stitch<T> {
        let parts = Parts {
            product: CsrMatrix::empty(0, ncols),
            early: BTreeMap::new(),
        };
        Stitch {
            parts: Mutex::new(parts),
        }
    }

    /// Join the chunk whose first row is `first`.
    pub fn push(&self, first: usize, chunk: &mut CsrMatrix<T>) {
        let mut parts = self.parts.lock().expect("a stitched chunk panicked");
        let Parts { product, early } = &mut *parts;
        if first != product.nrows() {
            let whole = std::mem::replace(chunk, CsrMatrix::empty(0, chunk.ncols()));
            early.insert(first, whole);
            return;
        }
        product.append_rows(chunk);
        while let Some(mut next) = early.remove(&product.nrows()) {
            product.append_rows(&mut next);
        }
    }

    /// The product: every chunk pushed, joined in row order.
    ///
    /// # Panics
    ///
    /// Panics if a chunk's rows do not follow the rows before it.
    pub fn finish(self) -> CsrMatrix<T> {
        let parts = self.parts.into_inner().expect("a stitched chunk panicked");
        assert!(
            parts.early.is_empty(),
            "a chunk was pushed past a gap in the rows"
        );
        parts.product
    }
}

/// Where the row chunks of one multiply execute.
#[derive(Clone, Copy)]
enum Exec<'a> {
    /// On the calling thread, without chunk spans: a serial kernel.
    Serial,
    /// This many scoped threads through [`run_units`].
    Scoped(usize),
    /// The unified pool, as [`Engine::Sparse`] units.
    Pool(&'a WorkPool),
}

/// One worker's state for a visit, kept for every chunk it claims: the
/// per-row function's scratch and the chunk buffer the rows go into.
struct ChunkWorker<S: Semiring> {
    rows: RowScratch<S>,
    rowptr: Vec<usize>,
    colind: Vec<Index>,
    vals: Vec<S::C>,
}

/// One unit's yield: the consumer's result, the chunk's counters, and the
/// seconds of the unit and of its consumer call.
type Unit<R> = (R, SpGemmStats, f64, f64);

/// The one chunk driver. Row chunks of [`ROWS_PER_CHUNK`] run the
/// per-row function of the scratch `new_scratch` makes, on `exec`, into
/// the claiming worker's reused chunk buffer; `consume` reads (or takes)
/// each chunk with its first row inside the same unit, so `C` never
/// exists whole unless the consumer keeps it. Results come back in row
/// order, with the counters summed over chunks and the accumulator counts
/// summed over workers.
fn visit_chunks<S, R, F>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    exec: Exec<'_>,
    new_scratch: &(dyn Fn() -> RowScratch<S> + Sync),
    rec: &Recorder,
    consume: &F,
) -> (Visited<R>, AccStats)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
    S::C: Send,
    R: Send,
    F: Fn(usize, &mut CsrMatrix<S::C>) -> R + Sync,
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
    let wall = Instant::now();
    let n_units = a.nrows().div_ceil(ROWS_PER_CHUNK);
    // One worker state per slot, built by the first chunk the slot
    // claims. A slot belongs to one thread, so the locks never contend.
    let n_slots = match exec {
        Exec::Serial => 1,
        Exec::Scoped(threads) => threads.max(1),
        Exec::Pool(wp) => wp.caller_slot(Engine::Sparse) + 1,
    };
    let workers: Vec<Mutex<Option<ChunkWorker<S>>>> =
        (0..n_slots).map(|_| Mutex::new(None)).collect();
    let unit = |u: usize, slot: usize, track: Option<Track>| -> Unit<R> {
        let mut guard = workers[slot].lock().expect("a row chunk panicked");
        let worker = guard.get_or_insert_with(|| ChunkWorker {
            rows: new_scratch(),
            rowptr: Vec::new(),
            colind: Vec::new(),
            vals: Vec::new(),
        });
        worker.chunk(
            sr,
            a,
            b,
            u,
            track.filter(|_| rec.is_enabled()),
            rec,
            consume,
        )
    };
    let units: Vec<Unit<R>> = match exec {
        Exec::Serial => (0..n_units).map(|u| unit(u, 0, None)).collect(),
        Exec::Scoped(threads) => run_units(threads, n_units, |w, u| {
            unit(u, w, Some(Track::SpGemmWorker(w as u32)))
        }),
        Exec::Pool(wp) => wp.run(Engine::Sparse, n_units, |u, slot| {
            unit(u, slot, Some(Track::PoolWorker(slot as u32)))
        }),
    };

    let mut stats = SpGemmStats::default();
    let (mut unit_seconds, mut consume_seconds) = (0.0, 0.0);
    let mut results = Vec::with_capacity(units.len());
    for (r, st, unit_s, consume_s) in units {
        results.push(r);
        stats.merge(st);
        unit_seconds += unit_s;
        consume_seconds += consume_s;
    }
    if unit_seconds > 0.0 {
        consume_seconds *= wall.elapsed().as_secs_f64() / unit_seconds;
    }
    let mut acc = AccStats::default();
    for worker in workers {
        if let Some(w) = worker.into_inner().expect("a row chunk panicked") {
            acc.merge(w.rows.acc);
        }
    }
    let visited = Visited {
        results,
        stats,
        consume_seconds,
    };
    (visited, acc)
}

impl<S: Semiring> ChunkWorker<S> {
    /// Compute row chunk `u` into the chunk buffer and hand it to
    /// `consume`, emitting the chunk's `spgemm.row_chunk` span on `track`
    /// if one is given. The rows depend only on `u` — the determinism
    /// requirement of every execution backend.
    #[allow(clippy::too_many_arguments)]
    fn chunk<R, F>(
        &mut self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
        u: usize,
        track: Option<Track>,
        rec: &Recorder,
        consume: &F,
    ) -> Unit<R>
    where
        F: Fn(usize, &mut CsrMatrix<S::C>) -> R,
    {
        let t = Instant::now();
        let start = u * ROWS_PER_CHUNK;
        let end = ((u + 1) * ROWS_PER_CHUNK).min(a.nrows());
        let mut span = track.map(|track| {
            rec.span(Component::SpGemm, names::SPAN_SPGEMM_ROW_CHUNK)
                .on_track(track)
                .arg("rows", (end - start) as u64)
        });
        let (mut rowptr, mut colind, mut vals) = (
            std::mem::take(&mut self.rowptr),
            std::mem::take(&mut self.colind),
            std::mem::take(&mut self.vals),
        );
        rowptr.clear();
        colind.clear();
        vals.clear();
        rowptr.push(0);
        let mut stats = SpGemmStats::default();
        for i in start..end {
            self.rows
                .row_into(sr, a, b, i, &mut colind, &mut vals, &mut stats);
            rowptr.push(colind.len());
        }
        if let Some(sp) = span.as_mut() {
            sp.push_arg("nnz", colind.len() as u64);
            sp.push_arg("products", stats.products);
        }
        drop(span);
        let mut chunk = CsrMatrix::from_parts(end - start, b.ncols(), rowptr, colind, vals);
        let t_consume = Instant::now();
        let result = consume(start, &mut chunk);
        let consume_seconds = t_consume.elapsed().as_secs_f64();
        // The buffers go back for the next chunk, unless the consumer took
        // them.
        (_, _, self.rowptr, self.colind, self.vals) = chunk.into_parts();
        (result, stats, t.elapsed().as_secs_f64(), consume_seconds)
    }
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

    /// Visit `C = A ⊗ B` under the configured policy, row chunk by row
    /// chunk, without ever holding `C` whole: each chunk of at most 16 rows
    /// (`ROWS_PER_CHUNK`) is formed in a buffer the worker reuses and
    /// handed to `consume` with the index of its first row, inside the
    /// unit that formed it (so a parallel kernel consumes in parallel).
    /// The consumer may read the chunk or take it; its results come back
    /// in row order. The chunks, and so the results, are the same for
    /// every policy and worker count.
    pub fn visit<S, R, F>(
        &self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
        consume: F,
    ) -> Visited<R>
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync,
        S::C: Send,
        R: Send,
        F: Fn(usize, &mut CsrMatrix<S::C>) -> R + Sync,
    {
        let kind = self.select(a, b);
        self.recorder.add_counter(kind.counter_name(), 1.0);
        let row = || RowScratch::new(b.ncols(), DENSE_ACC_LIMIT_BYTES);
        let (exec, new_scratch): (Exec, &(dyn Fn() -> RowScratch<S> + Sync)) = match kind {
            SpGemmKind::Hash => (Exec::Serial, &row),
            SpGemmKind::Heap => (Exec::Serial, &RowScratch::heap),
            SpGemmKind::Parallel => {
                let exec = self
                    .workers
                    .as_ref()
                    .map_or(Exec::Scoped(self.threads), Exec::Pool);
                (exec, &row)
            }
            SpGemmKind::Auto => unreachable!("select() never returns Auto"),
        };
        let (visited, acc) = visit_chunks(sr, a, b, exec, new_scratch, &self.recorder, &consume);
        // Which accumulator the row kernel ran, once per multiply.
        let rows = [acc.dense_rows, acc.scan_rows, acc.table_rows];
        for (name, rows) in names::SPGEMM_ACC_COUNTERS.into_iter().zip(rows) {
            if rows > 0 {
                self.recorder.add_counter(name, rows as f64);
            }
        }
        visited
    }

    /// Multiply under the configured policy: `C = A ⊗ B`, bit-identical
    /// for every policy and worker count — [`SpGemmPool::visit`] with
    /// [`Stitch`] as the consumer.
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
        let stitch = Stitch::new(b.ncols());
        let visited = self.visit(sr, a, b, |first, chunk| stitch.push(first, chunk));
        (stitch.finish(), visited.stats)
    }

    /// The serving path's transpose-product entry point: multiply one
    /// query block against `B = Aᵀ` stored as column stripes (the persisted
    /// index layout — each stripe holds a contiguous range of reference
    /// columns), one `(A_s, B_s)` pair per stripe, and stitch the products
    /// back into one `nrows × Σ stripe widths` matrix with globally
    /// ascending column ids. Each stripe keeps only its nonempty inner
    /// rows, so `A_s` is the query block with its inner columns relabelled
    /// into that stripe's rows (a monotone relabelling drops no product and
    /// keeps their order).
    ///
    /// Each per-stripe product goes through [`SpGemmPool::multiply`], so
    /// per-entry combine order is the serial Gustavson order for every
    /// kernel and worker count — the stitched output is bit-identical to
    /// multiplying against the unstriped `B`, per stripe decomposition
    /// (pinned by this module's tests).
    pub fn multiply_striped<'b, S>(
        &self,
        sr: &S,
        nrows: usize,
        stripes: impl IntoIterator<Item = (CsrMatrix<S::A>, &'b CsrMatrix<S::B>)>,
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
        let mut stats = SpGemmStats::default();
        let mut parts: Vec<Part<S::C>> = Vec::new();
        let (mut total_cols, mut total_nnz) = (0usize, 0usize);
        for (a, b) in stripes {
            assert_eq!(a.nrows(), nrows, "a stripe's operand has other rows");
            let (c, st) = self.multiply(sr, &a, b);
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
    use crate::spgemm::oracle::{random_matrix, row_kernel, spgemm_table_oracle, Concat};
    use crate::spgemm::{spgemm_dense_ref, spgemm_hash, spgemm_heap};
    use crate::triples::Triples;
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
            // Each stripe keeps its nonempty inner rows only, and `A` is
            // relabelled into them (inner columns no stripe row matches
            // are dropped), as the serving path stores and multiplies.
            let (mut a_parts, mut b_parts) = (Vec::new(), Vec::new());
            let mut lo = 0;
            while lo < b.ncols() {
                let hi = (lo + width).min(b.ncols());
                let stripe = b.extract_cols(lo, hi);
                let kept: Vec<usize> = (0..stripe.nrows())
                    .filter(|&k| stripe.row_nnz(k) > 0)
                    .collect();
                let mut b_s = Triples::new(kept.len(), hi - lo);
                let mut a_s = Triples::new(a.nrows(), kept.len());
                for (at, &k) in kept.iter().enumerate() {
                    let (cols, vals) = stripe.row(k);
                    for (&c, &v) in cols.iter().zip(vals) {
                        b_s.push(at as Index, c, v);
                    }
                }
                for (i, k, &v) in a.iter() {
                    if let Ok(at) = kept.binary_search(&(k as usize)) {
                        a_s.push(i, at as Index, v);
                    }
                }
                a_parts.push(CsrMatrix::from_triples(a_s));
                b_parts.push(CsrMatrix::from_triples(b_s));
                lo = hi;
            }
            let stripes = a_parts.into_iter().zip(&b_parts);
            let (got, stats) = pool.multiply_striped(&sr, a.nrows(), stripes);
            assert_eq!(got, want, "width {width}");
            assert_eq!(stats.merged_nnz, want_stats.merged_nnz, "width {width}");
            assert_eq!(stats.products, want_stats.products, "width {width}");
        }
        // No stripes at all: an empty product with zero columns.
        let none = std::iter::empty::<(CsrMatrix<u32>, &CsrMatrix<u32>)>();
        let (empty, _) = pool.multiply_striped(&sr, a.nrows(), none);
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

    /// The chunk driver over `exec` with the row kernel at `dense_limit`,
    /// stitched, with the accumulator counts.
    fn chunked<S>(
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
        exec: Exec<'_>,
        dense_limit: usize,
    ) -> (CsrMatrix<S::C>, SpGemmStats, AccStats)
    where
        S: Semiring + Sync,
        S::A: Sync,
        S::B: Sync,
        S::C: Send,
    {
        let row = || RowScratch::new(b.ncols(), dense_limit);
        let rec = Recorder::disabled();
        let stitch = Stitch::new(b.ncols());
        let consume = |first: usize, chunk: &mut CsrMatrix<S::C>| stitch.push(first, chunk);
        let (visited, acc) = visit_chunks(sr, a, b, exec, &row, &rec, &consume);
        (stitch.finish(), visited.stats, acc)
    }

    #[test]
    fn visited_chunks_stitch_to_the_reference_product() {
        // Concat's slots are 24 bytes: 50 000 columns pass the dense
        // limit, so that product runs the table.
        let wide = random_matrix(6, 50_000, 0.001, 46);
        let cases = [
            (
                "scan",
                random_matrix(53, 12, 0.5, 41),
                random_matrix(12, 20, 0.5, 42),
            ),
            (
                "sort",
                random_matrix(70, 30, 0.05, 43),
                random_matrix(30, 400, 0.01, 44),
            ),
            ("table", random_matrix(37, 6, 0.5, 45), wide),
            (
                "empty rows",
                random_matrix(45, 10, 0.4, 47).prune(|i, _, _| !(14..40).contains(&i)),
                random_matrix(10, 30, 0.3, 48),
            ),
            (
                "empty A",
                CsrMatrix::empty(0, 9),
                random_matrix(9, 11, 0.3, 49),
            ),
        ];
        for (what, a, b) in &cases {
            let (want, want_stats) = spgemm_heap(&Concat, a, b);
            assert_eq!(spgemm_dense_ref(&Concat, a, b), want, "{what}");
            let (_, _, acc) = chunked(&Concat, a, b, Exec::Scoped(2), DENSE_ACC_LIMIT_BYTES);
            let routed = match *what {
                "scan" => acc.scan_rows > 0,
                "table" => acc.table_rows == a.nrows() as u64,
                "sort" => acc.dense_rows == a.nrows() as u64 && acc.scan_rows == 0,
                _ => acc.dense_rows == a.nrows() as u64,
            };
            assert!(routed, "{what}: {acc:?}");
            for kind in [SpGemmKind::Hash, SpGemmKind::Heap, SpGemmKind::Parallel] {
                for t in [1usize, 2, 3] {
                    let pool = SpGemmPool::new(t).with_kind(kind);
                    let stitch = Stitch::new(b.ncols());
                    let visited = pool.visit(&Concat, a, b, |first, chunk| {
                        assert!(chunk.nrows() <= ROWS_PER_CHUNK && chunk.nrows() > 0);
                        stitch.push(first, chunk);
                        first
                    });
                    let want_firsts: Vec<usize> = (0..a.nrows()).step_by(ROWS_PER_CHUNK).collect();
                    assert_eq!(visited.results, want_firsts, "{what} {kind} t={t}");
                    assert_eq!(stitch.finish(), want, "{what} {kind} t={t}");
                    assert_eq!(visited.stats, want_stats, "{what} {kind} t={t}");
                    assert_eq!(pool.multiply(&Concat, a, b), (want.clone(), want_stats));
                }
            }
        }
    }

    #[test]
    fn stitch_joins_chunks_pushed_in_any_order() {
        let want = random_matrix(50, 30, 0.2, 53);
        let bounds = [0, 16, 32, 48, 50];
        let mut chunks = want.clone().into_row_stripes(&bounds);
        let stitch = Stitch::new(30);
        for (first, chunk) in bounds.iter().zip(&mut chunks).rev() {
            stitch.push(*first, chunk);
        }
        assert_eq!(stitch.finish(), want);
        let gap = Stitch::new(30);
        gap.push(16, &mut want.extract_rows(16, 32));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gap.finish()));
        assert!(refused.is_err(), "rows 0..16 were never pushed");
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
                let (got, stats, acc) = row_kernel(&sr, &a, &b, cols * slot);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(stats, want_stats);
                prop_assert_eq!(acc.dense_rows + acc.table_rows, nrows as u64);
                prop_assert_eq!(acc.table_rows > 0, cols < ncols);
                let (cat_got, _, _) = row_kernel(&Concat, &a, &b, cols * cat_slot);
                prop_assert_eq!(&cat_got, &cat_want);
                for t in [1usize, 2, 3, 8] {
                    let (got, stats, par_acc) = chunked(&sr, &a, &b, Exec::Scoped(t), cols * slot);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(stats, want_stats);
                    prop_assert_eq!(par_acc, acc);
                    let (cat_got, _, _) = chunked(&Concat, &a, &b, Exec::Scoped(t), cols * cat_slot);
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
