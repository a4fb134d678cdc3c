//! 2D Sparse SUMMA and the paper's Blocked 2D Sparse SUMMA.
//!
//! Plain Sparse SUMMA (Buluç & Gilbert, SISC'12 — the paper's reference
//! [22]) computes `C = A·B` on a `√p × √p` grid in `√p` stages: at stage
//! `k`, the ranks holding `A(·,k)` broadcast along their grid row, the
//! ranks holding `B(k,·)` broadcast along their grid column, and every rank
//! multiplies the received pair locally, accumulating partials.
//!
//! The paper's innovation (Section VI-A) generalizes this with arbitrary
//! row/column blocking factors `br × bc`: `A` is split into `br` row
//! stripes and `B` into `bc` column stripes, **each stripe distributed over
//! the entire grid**, and the output is produced one `C(r,c)` block at a
//! time — each block a full SUMMA over stripe `r` of `A` and stripe `c` of
//! `B`. Forming `C` incrementally bounds the peak memory of the similarity
//! search at the cost of broadcasting the inputs multiple times
//! (`2α(br·bc)√p log√p + βs(br+bc)√p log√p`).
//!
//! Both algorithms apply the semiring `combine` in ascending inner-index
//! order (stage order is ascending, and stages own contiguous ascending
//! inner ranges), so results are *identical* to a serial SpGEMM for any
//! associative semiring — the determinism property PASTIS advertises
//! against DIAMOND/MMseqs2.

use std::sync::Arc;
use std::time::Instant;

use pastis_comm::grid::{BlockDist1D, ProcessGrid};
use pastis_comm::Communicator;
use pastis_trace::{names, Component, Track};

use crate::csr::CsrMatrix;
use crate::distmat::{DistElem, DistSparseMatrix};
use crate::parallel::{SpGemmPool, Visited, ROWS_PER_CHUNK};
use crate::semiring::Semiring;
use crate::spgemm::SpGemmStats;
use crate::spops::spadd_into;
use crate::triples::Triples;

/// The pair of broadcast-received stage inputs (A's block, B's block).
type StagePair<S> = (
    Arc<CsrMatrix<<S as Semiring>::A>>,
    Arc<CsrMatrix<<S as Semiring>::B>>,
);

/// Distributed SpGEMM `C = A ⊗ B` via 2D Sparse SUMMA, visited: collective
/// over `grid`, it hands this rank's block of `C` to `consume` row chunk
/// by row chunk (see [`SpGemmPool::visit`]; the first row of a chunk is a
/// row of the local block, whose global offsets are `a.row_offset()` and
/// `b.col_offset()`), and returns the consumer's results in row order
/// with this rank's local work counters. A caller that wants the block
/// itself stitches the chunks ([`crate::Stitch`]).
///
/// On a 1 × 1 grid there is one stage and nothing to accumulate: rows go
/// from the row kernel's accumulator straight to the consumer, and the
/// block is never held whole. On a larger grid a stage's partial counts
/// must be summed with the other stages' before anything reads them, so
/// the block is accumulated first and then handed out chunk by chunk.
///
/// Each stage's block multiplication runs through `pool` (kernel selection
/// and intra-rank worker threads); the output is bit-identical for every
/// pool configuration, since the kernels share one combine-order contract.
/// The roots broadcast their resident blocks as [`Arc`] handles (no deep
/// copy of the block on the root), and stage partials are folded with a
/// move-based union merge ([`spadd_into`]), so accumulation is O(total
/// nnz) rather than rebuilding and cloning the accumulated block every
/// stage.
///
/// With `overlap` set, the broadcasts are **double-buffered**: while stage
/// `k`'s local multiply runs on a scoped compute thread, the calling
/// thread — the rank's single comm-issuing thread — posts stage `k+1`'s
/// A/B broadcasts, prefetching the received [`Arc`] slots so the
/// collectives come off the critical path. Every rank still issues exactly
/// the same collective sequence in the same order (row broadcast of stage
/// `k`, then column broadcast of stage `k`, for ascending `k` on one
/// thread), so the broadcast *count and order* are identical with overlap
/// on or off — only the wall-clock placement moves. Accumulation still
/// folds stage partials in ascending stage order on the calling thread, so
/// the result is bit-identical for any kernel, thread count, and overlap
/// setting.
///
/// With telemetry attached to `pool`, each overlapped stage emits a
/// `spgemm.stage` span (compute side) and a `summa.bcast.prefetch` span on
/// [`Track::CommPath`] (comm side) whose intervals overlap — the proof the
/// broadcast really ran concurrently with the multiply.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or the grid is not square.
pub fn summa<S, C, R, F>(
    grid: &ProcessGrid<C>,
    sr: &S,
    a: &DistSparseMatrix<S::A>,
    b: &DistSparseMatrix<S::B>,
    pool: &SpGemmPool,
    overlap: bool,
    consume: F,
) -> Visited<R>
where
    S: Semiring + Sync,
    S::A: DistElem,
    S::B: DistElem,
    S::C: DistElem,
    C: Communicator,
    R: Send,
    F: Fn(usize, &mut CsrMatrix<S::C>) -> R + Sync,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "SUMMA inner dimension mismatch: {}x{} · {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let shape = grid.shape();
    let q = shape.rows;
    assert_eq!(
        shape.rows, shape.cols,
        "SUMMA requires a square process grid, got {}x{}",
        shape.rows, shape.cols
    );

    let my_row = grid.my_row();
    let my_col = grid.my_col();
    let inner = BlockDist1D::new(a.ncols(), q);

    let mut stats = SpGemmStats::default();
    let c_rows = a.row_dist().part_len(my_row);
    let c_cols = b.col_dist().part_len(my_col);
    let mut c_local: CsrMatrix<S::C> = CsrMatrix::empty(c_rows, c_cols);

    // Stage `k`'s pair of collectives, in the fixed order every rank
    // issues: A's block along grid rows (root: grid column k), then B's
    // block along grid columns (root: grid row k). The roots send their
    // resident blocks as Arc handles — a pointer clone, not a deep copy;
    // receivers only read the block.
    let issue = |k: usize| -> StagePair<S> {
        let (a_send, a_bytes) = if my_col == k {
            (a.local_arc(), a.local().payload_bytes())
        } else {
            (Arc::new(CsrMatrix::empty(c_rows, inner.part_len(k))), 0)
        };
        let a_recv = grid.row_comm().broadcast(k, a_send, a_bytes);

        let (b_send, b_bytes) = if my_row == k {
            (b.local_arc(), b.local().payload_bytes())
        } else {
            (Arc::new(CsrMatrix::empty(inner.part_len(k), c_cols)), 0)
        };
        let b_recv = grid.col_comm().broadcast(k, b_send, b_bytes);
        (a_recv, b_recv)
    };
    if q == 1 {
        // One stage: its products are the block's final values.
        let (a_recv, b_recv) = issue(0);
        return pool.visit(sr, &a_recv, &b_recv, consume);
    }

    let recorder = pool.recorder();
    // The double buffer: stage k+1's received blocks, posted while stage k
    // computed. `None` whenever the broadcasts still have to run on the
    // critical path (always, with overlap off — that branch is exactly the
    // phased loop).
    let mut staged: Option<StagePair<S>> = None;
    for k in 0..q {
        let (a_recv, b_recv) = staged.take().unwrap_or_else(|| issue(k));
        let (partial, pstats) = if overlap && k + 1 < q {
            // Open the compute span on this thread *before* spawning, so
            // its start provably precedes the prefetch span's start — the
            // interval intersection telemetry asserts on.
            let stage_span = recorder.is_enabled().then(|| {
                recorder
                    .span(Component::SpGemm, names::SPAN_SPGEMM_STAGE)
                    .on_track(Track::SpGemmWorker(0))
                    .arg("stage", k as u64)
            });
            std::thread::scope(|scope| {
                let compute = scope.spawn(move || {
                    let _guard = stage_span;
                    pool.multiply(sr, &a_recv, &b_recv)
                });
                // Meanwhile this thread — still the only one touching the
                // communicator — posts stage k+1's broadcasts.
                let prefetch_span = recorder.is_enabled().then(|| {
                    recorder
                        .span(Component::CommWait, names::SPAN_SUMMA_BCAST_PREFETCH)
                        .on_track(Track::CommPath)
                        .arg("stage", (k + 1) as u64)
                });
                staged = Some(issue(k + 1));
                drop(prefetch_span);
                compute.join().expect("SUMMA stage compute thread panicked")
            })
        } else {
            pool.multiply(sr, &a_recv, &b_recv)
        };
        stats.merge(pstats);
        // Stage partials arrive in ascending inner-index order, so this
        // accumulation preserves the serial combine order; the move-based
        // merge never clones the accumulated values.
        c_local = spadd_into(c_local, partial, |acc, inc| sr.combine(acc, inc));
    }
    // merged_nnz counted per-stage over-counts coordinates merged across
    // stages; report the final local nnz instead.
    stats.merged_nnz = c_local.nnz() as u64;
    // The summed block, handed out in the visitor's chunks. Its storage is
    // split from the back, so it is held about once meanwhile.
    let firsts: Vec<usize> = (0..c_rows).step_by(ROWS_PER_CHUNK).collect();
    let bounds: Vec<usize> = firsts.iter().copied().chain([c_rows]).collect();
    let chunks = if firsts.is_empty() {
        Vec::new()
    } else {
        c_local.into_row_stripes(&bounds)
    };
    let mut consume_seconds = 0.0;
    let results = chunks
        .into_iter()
        .zip(firsts)
        .map(|(mut chunk, first)| {
            let t = Instant::now();
            let r = consume(first, &mut chunk);
            consume_seconds += t.elapsed().as_secs_f64();
            r
        })
        .collect();
    Visited {
        results,
        stats,
        consume_seconds,
    }
}

/// The Blocked 2D Sparse SUMMA driver: `A` held as `br` row stripes and `B`
/// as `bc` column stripes, each stripe distributed over the whole grid, so
/// output blocks `C(r,c)` can be produced (and discarded) one at a time.
pub struct BlockedSumma<A, B> {
    a_stripes: Vec<DistSparseMatrix<A>>,
    b_stripes: Vec<DistSparseMatrix<B>>,
    row_stripes: BlockDist1D,
    col_stripes: BlockDist1D,
}

impl<A: DistElem, B: DistElem> BlockedSumma<A, B> {
    /// Distribute `a` (as `br` row stripes) and `b` (as `bc` column
    /// stripes) over `grid`. Every rank may contribute an arbitrary subset
    /// of the global entries, as in
    /// [`DistSparseMatrix::from_global_triples`]; duplicates are folded
    /// with the respective combiner.
    pub fn from_triples<C: Communicator>(
        grid: &ProcessGrid<C>,
        a: Triples<A>,
        b: Triples<B>,
        br: usize,
        bc: usize,
        combine_a: impl Fn(&mut A, A),
        combine_b: impl Fn(&mut B, B),
    ) -> BlockedSumma<A, B> {
        assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
        let inner = a.ncols();
        let (row_stripes, col_stripes) = Self::stripe_dists(a.nrows(), b.ncols(), br, bc);
        // Partition the entries by stripe, reindexing to stripe-local.
        let mut a_parts: Vec<Triples<A>> = (0..br)
            .map(|r| Triples::new(row_stripes.part_len(r), inner))
            .collect();
        for e in a.entries {
            let (stripe, local_row) = row_stripes.to_local(e.row as usize);
            a_parts[stripe].push(local_row as u32, e.col, e.val);
        }
        let mut b_parts: Vec<Triples<B>> = (0..bc)
            .map(|c| Triples::new(inner, col_stripes.part_len(c)))
            .collect();
        for e in b.entries {
            let (stripe, local_col) = col_stripes.to_local(e.col as usize);
            b_parts[stripe].push(e.row, local_col as u32, e.val);
        }
        let a_stripes = a_parts
            .into_iter()
            .map(|t| DistSparseMatrix::from_global_triples(grid, t.nrows(), inner, t, &combine_a));
        let b_stripes = b_parts
            .into_iter()
            .map(|t| DistSparseMatrix::from_global_triples(grid, inner, t.ncols(), t, &combine_b));
        BlockedSumma {
            a_stripes: a_stripes.collect(),
            b_stripes: b_stripes.collect(),
            row_stripes,
            col_stripes,
        }
    }

    /// Assemble from stripes that are already where they belong:
    /// `a_blocks[r]` is this rank's block of row stripe `r` of the
    /// `nrows × inner` matrix `A`, `b_blocks[c]` its block of column stripe
    /// `c` of the `inner × ncols` matrix `B`. No communication, no sort.
    pub fn from_local_stripes<C: Communicator>(
        grid: &ProcessGrid<C>,
        (nrows, inner, ncols): (usize, usize, usize),
        a_blocks: Vec<CsrMatrix<A>>,
        b_blocks: Vec<CsrMatrix<B>>,
    ) -> BlockedSumma<A, B> {
        let (row_stripes, col_stripes) =
            Self::stripe_dists(nrows, ncols, a_blocks.len(), b_blocks.len());
        let a_stripes = a_blocks.into_iter().enumerate().map(|(r, m)| {
            DistSparseMatrix::from_local_block(grid, row_stripes.part_len(r), inner, m)
        });
        let b_stripes = b_blocks.into_iter().enumerate().map(|(c, m)| {
            DistSparseMatrix::from_local_block(grid, inner, col_stripes.part_len(c), m)
        });
        BlockedSumma {
            a_stripes: a_stripes.collect(),
            b_stripes: b_stripes.collect(),
            row_stripes,
            col_stripes,
        }
    }

    /// The stripe distributions of an `nrows × ncols` product under
    /// `br × bc` blocking.
    fn stripe_dists(
        nrows: usize,
        ncols: usize,
        br: usize,
        bc: usize,
    ) -> (BlockDist1D, BlockDist1D) {
        assert!(br >= 1 && bc >= 1, "blocking factors must be positive");
        assert!(
            br <= nrows.max(1) && bc <= ncols.max(1),
            "more blocks than rows/columns"
        );
        (BlockDist1D::new(nrows, br), BlockDist1D::new(ncols, bc))
    }

    /// Row blocking factor `br`.
    pub fn br(&self) -> usize {
        self.row_stripes.parts
    }

    /// Column blocking factor `bc`.
    pub fn bc(&self) -> usize {
        self.col_stripes.parts
    }

    /// Global row range `[start, end)` of output block row `r`.
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        let s = self.row_stripes.part_offset(r);
        (s, s + self.row_stripes.part_len(r))
    }

    /// Global column range `[start, end)` of output block column `c`.
    pub fn col_range(&self, c: usize) -> (usize, usize) {
        let s = self.col_stripes.part_offset(c);
        (s, s + self.col_stripes.part_len(c))
    }

    /// The distributed row stripe `r` of `A`.
    pub fn a_stripe(&self, r: usize) -> &DistSparseMatrix<A> {
        &self.a_stripes[r]
    }

    /// The distributed column stripe `c` of `B`.
    pub fn b_stripe(&self, c: usize) -> &DistSparseMatrix<B> {
        &self.b_stripes[c]
    }

    /// Local footprint in bytes of this rank's block of A stripe `r`.
    pub fn a_stripe_bytes(&self, r: usize) -> u64 {
        self.a_stripes[r].local_payload_bytes() as u64
    }

    /// Local footprint in bytes of this rank's block of B stripe `c`.
    pub fn b_stripe_bytes(&self, c: usize) -> u64 {
        self.b_stripes[c].local_payload_bytes() as u64
    }

    /// Evict this rank's local block of A stripe `r` (for spill-to-disk);
    /// see [`DistSparseMatrix::evict_local`]. The stripe holds nothing
    /// until [`BlockedSumma::restore_a_stripe`] puts the block back, so
    /// callers must restore before the stripe's next block.
    pub fn evict_a_stripe(&mut self, r: usize) -> CsrMatrix<A> {
        self.a_stripes[r].evict_local()
    }

    /// Drop this rank's local block of A stripe `r` without handing it
    /// out: no block still to be formed reads it, or a copy is kept
    /// elsewhere to restore it from.
    pub fn release_a_stripe(&mut self, r: usize) {
        self.a_stripes[r].release_local();
    }

    /// Drop this rank's local block of B stripe `c`; see
    /// [`BlockedSumma::release_a_stripe`].
    pub fn release_b_stripe(&mut self, c: usize) {
        self.b_stripes[c].release_local();
    }

    /// Restore an evicted A stripe block.
    pub fn restore_a_stripe(&mut self, r: usize, block: CsrMatrix<A>) {
        self.a_stripes[r].restore_local(block);
    }

    /// Evict this rank's local block of B stripe `c`.
    pub fn evict_b_stripe(&mut self, c: usize) -> CsrMatrix<B> {
        self.b_stripes[c].evict_local()
    }

    /// Restore an evicted B stripe block.
    pub fn restore_b_stripe(&mut self, c: usize, block: CsrMatrix<B>) {
        self.b_stripes[c].restore_local(block);
    }

    /// Visit output block `C(r, c) = A(r,·) ⊗ B(·,c)` with one full SUMMA
    /// (collective; see [`summa`] for `pool`, `overlap` and `consume`).
    /// The block is `stripe_r × stripe_c`, distributed over the grid; this
    /// rank's chunk rows are rows of its local piece, which starts at
    /// [`BlockedSumma::row_range`] + `a_stripe(r).row_offset()` and
    /// [`BlockedSumma::col_range`] + `b_stripe(c).col_offset()`.
    #[allow(clippy::too_many_arguments)]
    pub fn multiply_block<S, C, R, F>(
        &self,
        grid: &ProcessGrid<C>,
        sr: &S,
        r: usize,
        c: usize,
        pool: &SpGemmPool,
        overlap: bool,
        consume: F,
    ) -> Visited<R>
    where
        S: Semiring<A = A, B = B> + Sync,
        S::C: DistElem,
        C: Communicator,
        R: Send,
        F: Fn(usize, &mut CsrMatrix<S::C>) -> R + Sync,
    {
        assert!(r < self.br() && c < self.bc(), "block index out of range");
        summa(
            grid,
            sr,
            &self.a_stripes[r],
            &self.b_stripes[c],
            pool,
            overlap,
            consume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use crate::spgemm::{spgemm_hash, SpGemmKind};
    use crate::triples::Index;
    use pastis_comm::{run_threaded, SelfComm};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_triples(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Triples<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Triples::new(nrows, ncols);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < nnz {
            let r = rng.gen_range(0..nrows) as Index;
            let c = rng.gen_range(0..ncols) as Index;
            if seen.insert((r, c)) {
                t.push(r, c, rng.gen_range(-4..5) as f64);
            }
        }
        t
    }

    fn serial_product(a: &Triples<f64>, b: &Triples<f64>) -> Vec<(Index, Index, f64)> {
        let am = CsrMatrix::from_triples(a.clone());
        let bm = CsrMatrix::from_triples(b.clone());
        let (c, _) = spgemm_hash(&PlusTimes::new(), &am, &bm);
        c.to_triples().to_sorted_tuples()
    }

    /// [`summa`] with the stitching consumer: this rank's block of `C`.
    fn summa_whole<S, C>(
        grid: &ProcessGrid<C>,
        sr: &S,
        a: &DistSparseMatrix<S::A>,
        b: &DistSparseMatrix<S::B>,
        pool: &SpGemmPool,
        overlap: bool,
    ) -> (DistSparseMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: DistElem,
        S::B: DistElem,
        S::C: DistElem,
        C: Communicator,
    {
        let stitch = crate::Stitch::new(b.col_dist().part_len(grid.my_col()));
        let consume = |first: usize, chunk: &mut CsrMatrix<S::C>| stitch.push(first, chunk);
        let stats = summa(grid, sr, a, b, pool, overlap, consume).stats;
        let local = stitch.finish();
        let c = DistSparseMatrix::from_local_block(grid, a.nrows(), b.ncols(), local);
        (c, stats)
    }

    /// [`BlockedSumma::multiply_block`] with the stitching consumer.
    fn block_whole<S, C>(
        bs: &BlockedSumma<S::A, S::B>,
        grid: &ProcessGrid<C>,
        sr: &S,
        r: usize,
        c: usize,
        pool: &SpGemmPool,
        overlap: bool,
    ) -> (DistSparseMatrix<S::C>, SpGemmStats)
    where
        S: Semiring + Sync,
        S::A: DistElem,
        S::B: DistElem,
        S::C: DistElem,
        C: Communicator,
    {
        // An out-of-range block is `multiply_block`'s to refuse.
        let ncols = (c < bs.bc()).then(|| bs.b_stripe(c).col_dist().part_len(grid.my_col()));
        let stitch = crate::Stitch::new(ncols.unwrap_or(0));
        let consume = |first: usize, chunk: &mut CsrMatrix<S::C>| stitch.push(first, chunk);
        let stats = bs
            .multiply_block(grid, sr, r, c, pool, overlap, consume)
            .stats;
        let (a, b, local) = (bs.a_stripe(r), bs.b_stripe(c), stitch.finish());
        let block = DistSparseMatrix::from_local_block(grid, a.nrows(), b.ncols(), local);
        (block, stats)
    }

    #[test]
    fn summa_single_rank_matches_serial() {
        let a = random_triples(10, 8, 30, 1);
        let b = random_triples(8, 12, 25, 2);
        let want = serial_product(&a, &b);
        let grid = ProcessGrid::square(SelfComm::new());
        let da = DistSparseMatrix::from_global_triples(&grid, 10, 8, a, |_, _| {});
        let db = DistSparseMatrix::from_global_triples(&grid, 8, 12, b, |_, _| {});
        let (c, stats) = summa_whole(
            &grid,
            &PlusTimes::new(),
            &da,
            &db,
            &SpGemmPool::serial(),
            false,
        );
        assert_eq!(c.gather_global(&grid).to_sorted_tuples(), want);
        assert_eq!(stats.merged_nnz as usize, c.nnz_local());
    }

    fn summa_threaded_case(p: usize, dims: (usize, usize, usize), seed: u64) {
        let (n, m, l) = dims;
        let a = random_triples(n, m, n * 3, seed);
        let b = random_triples(m, l, m * 3, seed + 1);
        let want = serial_product(&a, &b);
        let a2 = a.clone();
        let b2 = b.clone();
        let out = run_threaded(p, move |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let (n, m, l) = dims;
            let (ta, tb) = if c.rank() == 0 {
                (a2.clone(), b2.clone())
            } else {
                (Triples::new(n, m), Triples::new(m, l))
            };
            let da = DistSparseMatrix::from_global_triples(&grid, n, m, ta, |_, _| {});
            let db = DistSparseMatrix::from_global_triples(&grid, m, l, tb, |_, _| {});
            let (cm, _) = summa_whole(
                &grid,
                &PlusTimes::new(),
                &da,
                &db,
                &SpGemmPool::serial(),
                false,
            );
            cm.gather_global(&grid).to_sorted_tuples()
        });
        for got in out {
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn summa_4_ranks_matches_serial() {
        summa_threaded_case(4, (10, 8, 12), 10);
    }

    #[test]
    fn summa_9_ranks_matches_serial() {
        summa_threaded_case(9, (13, 11, 9), 20);
    }

    #[test]
    fn summa_9_ranks_square_symmetric_product() {
        // C = A·Aᵀ as in the overlap computation.
        let n = 15;
        let a = random_triples(n, 7, 40, 33);
        let at = a.clone().transpose();
        let want = serial_product(&a, &at);
        let out = run_threaded(9, move |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let ta = if c.rank() == 0 {
                a.clone()
            } else {
                Triples::new(n, 7)
            };
            let da = DistSparseMatrix::from_global_triples(&grid, n, 7, ta, |_, _| {});
            let dat = da.transpose(&grid);
            let (cm, _) = summa_whole(
                &grid,
                &PlusTimes::new(),
                &da,
                &dat,
                &SpGemmPool::serial(),
                false,
            );
            cm.gather_global(&grid).to_sorted_tuples()
        });
        for got in out {
            assert_eq!(got, want);
        }
    }

    /// Non-commutative (order-revealing) semiring to pin down stage-order
    /// determinism of distributed accumulation.
    struct Trace;
    impl Semiring for Trace {
        type A = u32;
        type B = u32;
        type C = Vec<u32>;
        type Slot = Option<Vec<u32>>;
        fn multiply(&self, a: &u32, b: &u32) -> Vec<u32> {
            vec![a * 1000 + b]
        }
        fn combine(&self, acc: &mut Vec<u32>, mut inc: Vec<u32>) {
            acc.append(&mut inc);
        }
    }

    #[test]
    fn summa_combine_order_matches_serial_for_noncommutative_semiring() {
        // Dense-ish 6x6 inputs so many inner indices hit each output.
        let mut ta = Triples::new(6, 6);
        let mut tb = Triples::new(6, 6);
        for i in 0..6u32 {
            for j in 0..6u32 {
                if (i + j) % 2 == 0 {
                    ta.push(i, j, i * 10 + j);
                }
                if (i * j) % 3 != 1 {
                    tb.push(i, j, i * 10 + j);
                }
            }
        }
        let am = CsrMatrix::from_triples(ta.clone());
        let bm = CsrMatrix::from_triples(tb.clone());
        let (serial, _) = spgemm_hash(&Trace, &am, &bm);
        let want = serial.to_triples().to_sorted_tuples();
        for p in [1usize, 4, 9] {
            let ta = ta.clone();
            let tb = tb.clone();
            let out = run_threaded(p, move |c| {
                let world = c.split(0, c.rank());
                let grid = ProcessGrid::square(world);
                let (a, b) = if c.rank() == 0 {
                    (ta.clone(), tb.clone())
                } else {
                    (Triples::new(6, 6), Triples::new(6, 6))
                };
                let da = DistSparseMatrix::from_global_triples(&grid, 6, 6, a, |_, _| {});
                let db = DistSparseMatrix::from_global_triples(&grid, 6, 6, b, |_, _| {});
                let (cm, _) = summa_whole(&grid, &Trace, &da, &db, &SpGemmPool::serial(), false);
                cm.gather_global(&grid).to_sorted_tuples()
            });
            for got in out {
                assert_eq!(got, want, "p={p}");
            }
        }
    }

    #[test]
    fn visited_summa_stitches_the_reference_product() {
        // 45 rows: at p = 4 a rank holds 22 or 23, one full chunk and a
        // short one; rows 30..40 are empty. Trace exposes combine order,
        // across stages too.
        let (n, m, l) = (45u32, 20u32, 37u32);
        let (mut ta, mut tb) = (Triples::new(45, 20), Triples::new(20, 37));
        for i in (0..n).filter(|i| !(30..40).contains(i)) {
            for j in (0..m).filter(|j| (i * 7 + j * 3) % 5 < 2) {
                ta.push(i, j, i * 100 + j);
            }
        }
        for i in 0..m {
            for j in (0..l).filter(|j| (i + j * 11) % 4 == 0) {
                tb.push(i, j, i * 100 + j);
            }
        }
        let (am, bm) = (
            CsrMatrix::from_triples(ta.clone()),
            CsrMatrix::from_triples(tb.clone()),
        );
        let (heap, _) = crate::spgemm_heap(&Trace, &am, &bm);
        assert_eq!(crate::spgemm_dense_ref(&Trace, &am, &bm), heap);
        let want = heap.to_triples().to_sorted_tuples();
        for p in [1usize, 4] {
            for kind in [SpGemmKind::Hash, SpGemmKind::Heap, SpGemmKind::Parallel] {
                let (ta, tb) = (ta.clone(), tb.clone());
                let out = run_threaded(p, move |c| {
                    let grid = ProcessGrid::square(c.split(0, c.rank()));
                    let (a, b) = if c.rank() == 0 {
                        (ta.clone(), tb.clone())
                    } else {
                        (Triples::new(45, 20), Triples::new(20, 37))
                    };
                    let da = DistSparseMatrix::from_global_triples(&grid, 45, 20, a, |_, _| {});
                    let db = DistSparseMatrix::from_global_triples(&grid, 20, 37, b, |_, _| {});
                    let pool = SpGemmPool::new(3).with_kind(kind);
                    let firsts = summa(&grid, &Trace, &da, &db, &pool, false, |first, _| first);
                    let rows = da.row_dist().part_len(grid.my_row());
                    let want_firsts: Vec<usize> = (0..rows).step_by(ROWS_PER_CHUNK).collect();
                    assert_eq!(firsts.results, want_firsts);
                    let (cm, _) = summa_whole(&grid, &Trace, &da, &db, &pool, true);
                    cm.gather_global(&grid).to_sorted_tuples()
                });
                for got in out {
                    assert_eq!(got, want, "p={p} kind={kind}");
                }
            }
        }
    }

    #[test]
    fn blocked_summa_blocks_reassemble_full_product() {
        let (n, m, l) = (14usize, 9usize, 11usize);
        let a = random_triples(n, m, 40, 5);
        let b = random_triples(m, l, 35, 6);
        let want = serial_product(&a, &b);
        for p in [1usize, 4] {
            for (br, bc) in [(1usize, 1usize), (2, 3), (3, 2), (4, 4)] {
                let a = a.clone();
                let b = b.clone();
                let out = run_threaded(p, move |c| {
                    let world = c.split(0, c.rank());
                    let grid = ProcessGrid::square(world);
                    let (ta, tb) = if c.rank() == 0 {
                        (a.clone(), b.clone())
                    } else {
                        (Triples::new(n, m), Triples::new(m, l))
                    };
                    let bs =
                        BlockedSumma::from_triples(&grid, ta, tb, br, bc, |_, _| {}, |_, _| {});
                    let mut got: Vec<(Index, Index, f64)> = Vec::new();
                    for r in 0..bs.br() {
                        for cc in 0..bs.bc() {
                            let (cb, _) = block_whole(
                                &bs,
                                &grid,
                                &PlusTimes::new(),
                                r,
                                cc,
                                &SpGemmPool::serial(),
                                false,
                            );
                            let (ro, _) = bs.row_range(r);
                            let (co, _) = bs.col_range(cc);
                            for (i, j, v) in cb.gather_global(&grid).to_sorted_tuples() {
                                got.push((i + ro as Index, j + co as Index, v));
                            }
                        }
                    }
                    got.sort_by_key(|x| (x.0, x.1));
                    got
                });
                for got in out {
                    assert_eq!(got, want, "p={p} br={br} bc={bc}");
                }
            }
        }
    }

    #[test]
    fn blocked_summa_peak_block_nnz_below_full() {
        // The memory argument of Section VI-A: the largest single output
        // block is much smaller than the whole product.
        let n = 32;
        let a = random_triples(n, 16, 200, 9);
        let at = a.clone().transpose();
        let grid = ProcessGrid::square(SelfComm::new());
        let full = {
            let da = DistSparseMatrix::from_global_triples(&grid, n, 16, a.clone(), |_, _| {});
            let dat = da.transpose(&grid);
            let (c, _) = summa_whole(
                &grid,
                &PlusTimes::new(),
                &da,
                &dat,
                &SpGemmPool::serial(),
                false,
            );
            c.nnz_local()
        };
        let bs = BlockedSumma::from_triples(&grid, a, at, 4, 4, |_, _| {}, |_, _| {});
        let mut peak = 0usize;
        for r in 0..4 {
            for c in 0..4 {
                let (cb, _) = block_whole(
                    &bs,
                    &grid,
                    &PlusTimes::new(),
                    r,
                    c,
                    &SpGemmPool::serial(),
                    false,
                );
                peak = peak.max(cb.nnz_local());
            }
        }
        assert!(peak * 4 < full, "peak block {peak} vs full {full}");
    }

    #[test]
    #[should_panic(expected = "block index out of range")]
    fn blocked_summa_bad_block_panics() {
        let grid = ProcessGrid::square(SelfComm::new());
        let a = random_triples(8, 8, 10, 1);
        let b = random_triples(8, 8, 10, 2);
        let bs = BlockedSumma::from_triples(&grid, a, b, 2, 2, |_, _| {}, |_, _| {});
        let _ = block_whole(
            &bs,
            &grid,
            &PlusTimes::new(),
            2,
            0,
            &SpGemmPool::serial(),
            false,
        );
    }

    #[test]
    fn summa_rejects_non_square_grid_in_release_builds_too() {
        // A 1x2 grid used to slip past a debug_assert and compute garbage
        // in release builds; it must now panic unconditionally.
        let out = run_threaded(2, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::with_shape(world, 1, 2);
            let da: DistSparseMatrix<f64> =
                DistSparseMatrix::from_global_triples(&grid, 4, 4, Triples::new(4, 4), |_, _| {});
            let db = da.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                summa_whole(
                    &grid,
                    &PlusTimes::new(),
                    &da,
                    &db,
                    &SpGemmPool::serial(),
                    false,
                )
            }))
            .err()
            .and_then(|p| p.downcast_ref::<String>().cloned())
        });
        for msg in out {
            let msg = msg.expect("summa must panic on a 1x2 grid");
            assert!(
                msg.contains("square process grid") && msg.contains("1x2"),
                "unexpected panic message: {msg}"
            );
        }
    }

    /// Payload whose `Clone` bumps a global counter, so tests can prove the
    /// broadcast roots and stage accumulation never deep-copy values.
    #[derive(Debug, PartialEq)]
    struct Tick(u32);
    static TICK_CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    impl Clone for Tick {
        fn clone(&self) -> Tick {
            TICK_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Tick(self.0)
        }
    }

    struct TickRing;
    impl Semiring for TickRing {
        type A = Tick;
        type B = Tick;
        type C = Tick;
        type Slot = Option<Tick>;
        fn multiply(&self, a: &Tick, b: &Tick) -> Tick {
            Tick(a.0.wrapping_mul(b.0))
        }
        fn combine(&self, acc: &mut Tick, inc: Tick) {
            acc.0 = acc.0.wrapping_add(inc.0);
        }
    }

    #[test]
    fn summa_never_clones_local_values() {
        // Build per-rank local blocks directly (from_local_block takes the
        // CSR by value), then run a 4-rank SUMMA and count value clones:
        // the Arc broadcast and the move-based spadd_into must not copy a
        // single stored value.
        let out = run_threaded(4, |c| {
            let rank = c.rank();
            let world = c.split(0, rank);
            let grid = ProcessGrid::square(world);
            let mut t = Triples::new(4, 4);
            for i in 0..4u32 {
                for j in 0..4u32 {
                    t.push(i, j, Tick(rank as u32 * 16 + i * 4 + j + 1));
                }
            }
            let local = CsrMatrix::from_triples(t);
            let da = DistSparseMatrix::from_local_block(&grid, 8, 8, local);
            let db = {
                let mut t = Triples::new(4, 4);
                for i in 0..4u32 {
                    t.push(i, i, Tick(1));
                }
                DistSparseMatrix::from_local_block(&grid, 8, 8, CsrMatrix::from_triples(t))
            };
            grid.world().barrier();
            if rank == 0 {
                TICK_CLONES.store(0, std::sync::atomic::Ordering::SeqCst);
            }
            grid.world().barrier();
            let (cm, _) = summa_whole(&grid, &TickRing, &da, &db, &SpGemmPool::serial(), false);
            grid.world().barrier();
            let clones = TICK_CLONES.load(std::sync::atomic::Ordering::SeqCst);
            (cm.nnz_local(), clones)
        });
        for (nnz, clones) in out {
            assert_eq!(nnz, 16, "each rank's C block should be dense 4x4");
            assert_eq!(clones, 0, "SUMMA deep-copied Tick values");
        }
    }

    #[test]
    fn overlap_is_bit_identical_to_phased_and_keeps_the_collective_count() {
        // The Trace semiring exposes combine order, and the broadcast
        // counters pin the collective schedule: overlap may only move the
        // broadcasts in time, never change how many are issued.
        let mut ta = Triples::new(9, 9);
        let mut tb = Triples::new(9, 9);
        for i in 0..9u32 {
            for j in 0..9u32 {
                if (i + 2 * j) % 3 != 1 {
                    ta.push(i, j, i * 10 + j);
                }
                if (i * j + i) % 4 != 2 {
                    tb.push(i, j, i * 10 + j);
                }
            }
        }
        let am = CsrMatrix::from_triples(ta.clone());
        let bm = CsrMatrix::from_triples(tb.clone());
        let (serial, _) = spgemm_hash(&Trace, &am, &bm);
        let want = serial.to_triples().to_sorted_tuples();
        for p in [4usize, 9] {
            for threads in [1usize, 4] {
                let ta = ta.clone();
                let tb = tb.clone();
                let out = run_threaded(p, move |c| {
                    let world = c.split(0, c.rank());
                    let grid = ProcessGrid::square(world);
                    let (a, b) = if c.rank() == 0 {
                        (ta.clone(), tb.clone())
                    } else {
                        (Triples::new(9, 9), Triples::new(9, 9))
                    };
                    let da = DistSparseMatrix::from_global_triples(&grid, 9, 9, a, |_, _| {});
                    let db = DistSparseMatrix::from_global_triples(&grid, 9, 9, b, |_, _| {});
                    let pool = SpGemmPool::new(threads);
                    let bcasts =
                        || grid.row_comm().stats().broadcasts + grid.col_comm().stats().broadcasts;
                    let n0 = bcasts();
                    let (c_off, _) = summa_whole(&grid, &Trace, &da, &db, &pool, false);
                    let n1 = bcasts();
                    let (c_on, _) = summa_whole(&grid, &Trace, &da, &db, &pool, true);
                    let n2 = bcasts();
                    assert_eq!(n1 - n0, n2 - n1, "overlap changed the collective count");
                    (
                        c_off.gather_global(&grid).to_sorted_tuples(),
                        c_on.gather_global(&grid).to_sorted_tuples(),
                    )
                });
                for (off, on) in out {
                    assert_eq!(off, want, "phased p={p} threads={threads}");
                    assert_eq!(on, want, "overlapped p={p} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn overlap_on_unified_pool_matches_phased() {
        // Overlap + the cross-engine WorkPool together: the compute thread
        // submits row chunks to shared workers while the rank thread posts
        // the next stage's broadcasts. One pool serves all four ranks.
        let mut ta = Triples::new(8, 8);
        let mut tb = Triples::new(8, 8);
        for i in 0..8u32 {
            for j in 0..8u32 {
                if (i + j) % 2 == 0 {
                    ta.push(i, j, i * 10 + j);
                }
                if (i * j) % 3 != 1 {
                    tb.push(i, j, i * 10 + j);
                }
            }
        }
        let am = CsrMatrix::from_triples(ta.clone());
        let bm = CsrMatrix::from_triples(tb.clone());
        let (serial, _) = spgemm_hash(&Trace, &am, &bm);
        let want = serial.to_triples().to_sorted_tuples();
        let workers = pastis_pool::WorkPool::with_exact_workers(2);
        let out = run_threaded(4, move |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let (a, b) = if c.rank() == 0 {
                (ta.clone(), tb.clone())
            } else {
                (Triples::new(8, 8), Triples::new(8, 8))
            };
            let da = DistSparseMatrix::from_global_triples(&grid, 8, 8, a, |_, _| {});
            let db = DistSparseMatrix::from_global_triples(&grid, 8, 8, b, |_, _| {});
            let pool = SpGemmPool::new(1)
                .with_kind(SpGemmKind::Parallel)
                .with_workers(workers.clone());
            let (cm, _) = summa_whole(&grid, &Trace, &da, &db, &pool, true);
            cm.gather_global(&grid).to_sorted_tuples()
        });
        for got in out {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn overlap_never_clones_local_values() {
        // Same zero-copy contract as the phased path: prefetching the next
        // stage's blocks is an Arc handoff, not a deep copy.
        let out = run_threaded(4, |c| {
            let rank = c.rank();
            let world = c.split(0, rank);
            let grid = ProcessGrid::square(world);
            let mut t = Triples::new(4, 4);
            for i in 0..4u32 {
                for j in 0..4u32 {
                    t.push(i, j, Tick(rank as u32 * 16 + i * 4 + j + 1));
                }
            }
            let local = CsrMatrix::from_triples(t);
            let da = DistSparseMatrix::from_local_block(&grid, 8, 8, local);
            let db = {
                let mut t = Triples::new(4, 4);
                for i in 0..4u32 {
                    t.push(i, i, Tick(1));
                }
                DistSparseMatrix::from_local_block(&grid, 8, 8, CsrMatrix::from_triples(t))
            };
            grid.world().barrier();
            if rank == 0 {
                TICK_CLONES.store(0, std::sync::atomic::Ordering::SeqCst);
            }
            grid.world().barrier();
            let (cm, _) = summa_whole(&grid, &TickRing, &da, &db, &SpGemmPool::serial(), true);
            grid.world().barrier();
            let clones = TICK_CLONES.load(std::sync::atomic::Ordering::SeqCst);
            (cm.nnz_local(), clones)
        });
        for (nnz, clones) in out {
            assert_eq!(nnz, 16, "each rank's C block should be dense 4x4");
            assert_eq!(clones, 0, "overlapped SUMMA deep-copied Tick values");
        }
    }

    /// `Trace` with a deliberately slow multiply, so each SUMMA stage's
    /// compute provably outlasts the next stage's broadcast posting — the
    /// span-interval assertion below cannot race.
    struct SlowTrace;
    impl Semiring for SlowTrace {
        type A = u32;
        type B = u32;
        type C = Vec<u32>;
        type Slot = Option<Vec<u32>>;
        fn multiply(&self, a: &u32, b: &u32) -> Vec<u32> {
            std::thread::sleep(std::time::Duration::from_micros(300));
            vec![a * 1000 + b]
        }
        fn combine(&self, acc: &mut Vec<u32>, mut inc: Vec<u32>) {
            acc.append(&mut inc);
        }
    }

    #[test]
    fn overlap_emits_concurrent_prefetch_and_stage_spans() {
        use pastis_trace::TraceSession;
        let sess = std::sync::Arc::new(TraceSession::new());
        let mut ta = Triples::new(6, 6);
        let mut tb = Triples::new(6, 6);
        for i in 0..6u32 {
            for j in 0..6u32 {
                ta.push(i, j, i * 10 + j);
                tb.push(i, j, i * 10 + j);
            }
        }
        let sess2 = std::sync::Arc::clone(&sess);
        let out = run_threaded(4, move |c| {
            let rec = sess2.recorder(c.rank());
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let (a, b) = if c.rank() == 0 {
                (ta.clone(), tb.clone())
            } else {
                (Triples::new(6, 6), Triples::new(6, 6))
            };
            let da = DistSparseMatrix::from_global_triples(&grid, 6, 6, a, |_, _| {});
            let db = DistSparseMatrix::from_global_triples(&grid, 6, 6, b, |_, _| {});
            let pool = SpGemmPool::serial().with_recorder(rec);
            let (cm, _) = summa_whole(&grid, &SlowTrace, &da, &db, &pool, true);
            cm.nnz_local()
        });
        assert!(out.iter().all(|&n| n > 0));
        for rec in sess.recorders() {
            let spans = rec.snapshot_spans();
            let stages: Vec<_> = spans
                .iter()
                .filter(|s| s.name == names::SPAN_SPGEMM_STAGE)
                .collect();
            let prefetches: Vec<_> = spans
                .iter()
                .filter(|s| s.name == names::SPAN_SUMMA_BCAST_PREFETCH)
                .collect();
            // 2x2 grid → q = 2 stages, one of which is overlapped.
            assert_eq!(stages.len(), 1, "rank {}", rec.rank());
            assert_eq!(prefetches.len(), 1, "rank {}", rec.rank());
            let s = stages[0];
            let p = prefetches[0];
            assert_eq!(s.track, Track::SpGemmWorker(0));
            assert_eq!(p.track, Track::CommPath);
            // The prefetch ran strictly inside the stage's compute window:
            // true concurrency, not phased scheduling.
            assert!(
                p.start_us >= s.start_us && p.start_us < s.end_us(),
                "rank {}: prefetch [{}, {}] not inside stage [{}, {}]",
                rec.rank(),
                p.start_us,
                p.end_us(),
                s.start_us,
                s.end_us()
            );
        }
    }

    #[test]
    fn stripe_evict_restore_round_trips_bit_exactly() {
        let (n, m) = (14usize, 9usize);
        let a = random_triples(n, m, 40, 61);
        let at = a.clone().transpose();
        let grid = ProcessGrid::square(SelfComm::new());
        let mut bs =
            BlockedSumma::from_triples(&grid, a.clone(), at.clone(), 3, 2, |_, _| {}, |_, _| {});
        let reference = BlockedSumma::from_triples(&grid, a, at, 3, 2, |_, _| {}, |_, _| {});
        // Evict every stripe, then restore, then verify every block matches
        // the never-spilled driver bit-for-bit.
        let before_a: Vec<u64> = (0..3).map(|r| bs.a_stripe_bytes(r)).collect();
        let a_blocks: Vec<_> = (0..3).map(|r| bs.evict_a_stripe(r)).collect();
        let b_blocks: Vec<_> = (0..2).map(|c| bs.evict_b_stripe(c)).collect();
        for r in 0..3 {
            assert_eq!(bs.a_stripe(r).nnz_local(), 0, "evicted stripe is empty");
            // Not even a row pointer over the stripe's rows stays behind.
            assert_eq!(
                bs.a_stripe_bytes(r),
                crate::csr_payload_bytes(0, 0, 8) as u64
            );
        }
        for (r, blk) in a_blocks.into_iter().enumerate() {
            bs.restore_a_stripe(r, blk);
            assert_eq!(bs.a_stripe_bytes(r), before_a[r]);
        }
        for (c, blk) in b_blocks.into_iter().enumerate() {
            bs.restore_b_stripe(c, blk);
        }
        for r in 0..3 {
            for c in 0..2 {
                let (got, _) = block_whole(
                    &bs,
                    &grid,
                    &PlusTimes::new(),
                    r,
                    c,
                    &SpGemmPool::serial(),
                    false,
                );
                let (want, _) = block_whole(
                    &reference,
                    &grid,
                    &PlusTimes::new(),
                    r,
                    c,
                    &SpGemmPool::serial(),
                    false,
                );
                assert_eq!(
                    got.gather_global(&grid).to_sorted_tuples(),
                    want.gather_global(&grid).to_sorted_tuples(),
                    "block ({r},{c}) after spill round trip"
                );
            }
        }
    }

    #[test]
    fn summa_is_kernel_and_thread_invariant() {
        // The Trace semiring exposes combine order; every pool
        // configuration must reproduce the serial result bit-for-bit.
        let mut ta = Triples::new(9, 9);
        let mut tb = Triples::new(9, 9);
        for i in 0..9u32 {
            for j in 0..9u32 {
                if (i + 2 * j) % 3 != 1 {
                    ta.push(i, j, i * 10 + j);
                }
                if (i * j + i) % 4 != 2 {
                    tb.push(i, j, i * 10 + j);
                }
            }
        }
        let am = CsrMatrix::from_triples(ta.clone());
        let bm = CsrMatrix::from_triples(tb.clone());
        let (serial, _) = spgemm_hash(&Trace, &am, &bm);
        let want = serial.to_triples().to_sorted_tuples();
        for kind in [
            SpGemmKind::Auto,
            SpGemmKind::Hash,
            SpGemmKind::Heap,
            SpGemmKind::Parallel,
        ] {
            for threads in [1usize, 4] {
                let ta = ta.clone();
                let tb = tb.clone();
                let out = run_threaded(4, move |c| {
                    let world = c.split(0, c.rank());
                    let grid = ProcessGrid::square(world);
                    let (a, b) = if c.rank() == 0 {
                        (ta.clone(), tb.clone())
                    } else {
                        (Triples::new(9, 9), Triples::new(9, 9))
                    };
                    let da = DistSparseMatrix::from_global_triples(&grid, 9, 9, a, |_, _| {});
                    let db = DistSparseMatrix::from_global_triples(&grid, 9, 9, b, |_, _| {});
                    let pool = SpGemmPool::new(threads).with_kind(kind);
                    let (cm, _) = summa_whole(&grid, &Trace, &da, &db, &pool, false);
                    cm.gather_global(&grid).to_sorted_tuples()
                });
                for got in out {
                    assert_eq!(got, want, "kind={kind} threads={threads}");
                }
            }
        }
    }
}
