//! 2D block-distributed sparse matrices.
//!
//! A [`DistSparseMatrix`] follows the CombBLAS decomposition (Section V-A of
//! the paper): the global matrix is split into `√p × √p` rectangular blocks;
//! the rank at grid position `(r, c)` owns the intersection of row part `r`
//! and column part `c`, stored locally in CSR with local indices.
//!
//! The struct is plain data — all communication happens in methods that
//! take the [`ProcessGrid`] explicitly, so the same matrix value can move
//! between SPMD sections without lifetime entanglement.

use std::sync::Arc;

use pastis_comm::grid::{BlockDist1D, ProcessGrid};
use pastis_comm::Communicator;

use crate::csr::CsrMatrix;
use crate::triples::{Index, Triples};

/// Payload bound for distributed matrix elements (what the threaded
/// communicator can move).
pub trait DistElem: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> DistElem for T {}

/// A sparse matrix distributed over a 2D process grid.
///
/// The local block is held behind an [`Arc`] so collectives can broadcast
/// it by reference count: the SUMMA root hands out `Arc` clones instead of
/// deep-copying its resident block every stage.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSparseMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_dist: BlockDist1D,
    col_dist: BlockDist1D,
    my_row: usize,
    my_col: usize,
    local: Arc<CsrMatrix<T>>,
}

impl<T: DistElem> DistSparseMatrix<T> {
    /// Build a distributed matrix from global triples.
    ///
    /// Every rank may contribute an arbitrary subset of the global entries
    /// (the union across ranks forms the matrix); entries are routed to
    /// their owners with one all-to-allv. Duplicate coordinates — within or
    /// across ranks — are folded with `combine` in an order determined by
    /// (source rank, insertion order), so `combine` should be commutative
    /// and associative or duplicates avoided.
    ///
    /// All ranks must pass identical `nrows`/`ncols` (asserted).
    pub fn from_global_triples<C: Communicator>(
        grid: &ProcessGrid<C>,
        nrows: usize,
        ncols: usize,
        entries: Triples<T>,
        combine: impl FnMut(&mut T, T),
    ) -> DistSparseMatrix<T> {
        assert_eq!(
            (entries.nrows(), entries.ncols()),
            (nrows, ncols),
            "triples dimensions disagree with matrix dimensions"
        );
        let dims = grid.world().all_gather((nrows, ncols));
        assert!(
            dims.iter().all(|&d| d == (nrows, ncols)),
            "ranks disagree on global matrix dimensions"
        );
        let shape = grid.shape();
        let row_dist = BlockDist1D::new(nrows, shape.rows);
        let col_dist = BlockDist1D::new(ncols, shape.cols);
        let p = grid.world().size();
        if p == 1 {
            // One rank owns everything at offset (0, 0): the entries are
            // the local block as they stand, no routing copies needed.
            return DistSparseMatrix {
                nrows,
                ncols,
                row_dist,
                col_dist,
                my_row: grid.my_row(),
                my_col: grid.my_col(),
                local: Arc::new(CsrMatrix::from_triples_combining(entries, combine)),
            };
        }
        // Route each entry to its owner.
        let mut parts: Vec<Vec<(Index, Index, T)>> = (0..p).map(|_| Vec::new()).collect();
        for e in entries.entries {
            let owner_row = row_dist.owner(e.row as usize);
            let owner_col = col_dist.owner(e.col as usize);
            let owner = shape.rank_of(owner_row, owner_col);
            parts[owner].push((e.row, e.col, e.val));
        }
        let received = grid.world().all_to_allv(parts);
        // Build the local block in local indices.
        let my_row = grid.my_row();
        let my_col = grid.my_col();
        let row_off = row_dist.part_offset(my_row);
        let col_off = col_dist.part_offset(my_col);
        let mut local_triples = Triples::new(row_dist.part_len(my_row), col_dist.part_len(my_col));
        for part in received {
            for (r, c, v) in part {
                local_triples.push(r - row_off as Index, c - col_off as Index, v);
            }
        }
        let local = Arc::new(CsrMatrix::from_triples_combining(local_triples, combine));
        DistSparseMatrix {
            nrows,
            ncols,
            row_dist,
            col_dist,
            my_row,
            my_col,
            local,
        }
    }

    /// Wrap an already-distributed local block (used by SUMMA to assemble
    /// results without a shuffle). The block must have exactly the local
    /// dimensions implied by the grid position.
    pub fn from_local_block<C: Communicator>(
        grid: &ProcessGrid<C>,
        nrows: usize,
        ncols: usize,
        local: CsrMatrix<T>,
    ) -> DistSparseMatrix<T> {
        let shape = grid.shape();
        let row_dist = BlockDist1D::new(nrows, shape.rows);
        let col_dist = BlockDist1D::new(ncols, shape.cols);
        let my_row = grid.my_row();
        let my_col = grid.my_col();
        assert_eq!(
            (local.nrows(), local.ncols()),
            (row_dist.part_len(my_row), col_dist.part_len(my_col)),
            "local block dimensions disagree with the grid distribution"
        );
        DistSparseMatrix {
            nrows,
            ncols,
            row_dist,
            col_dist,
            my_row,
            my_col,
            local: Arc::new(local),
        }
    }

    /// Global row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The local CSR block (local indices).
    pub fn local(&self) -> &CsrMatrix<T> {
        &self.local
    }

    /// A shared handle to the local block — what broadcast roots send so
    /// the resident block is never deep-copied (receivers only read it).
    pub fn local_arc(&self) -> Arc<CsrMatrix<T>> {
        Arc::clone(&self.local)
    }

    /// Global row index of the local block's first row.
    pub fn row_offset(&self) -> usize {
        self.row_dist.part_offset(self.my_row)
    }

    /// Global column index of the local block's first column.
    pub fn col_offset(&self) -> usize {
        self.col_dist.part_offset(self.my_col)
    }

    /// Row distribution over grid rows.
    pub fn row_dist(&self) -> BlockDist1D {
        self.row_dist
    }

    /// Column distribution over grid columns.
    pub fn col_dist(&self) -> BlockDist1D {
        self.col_dist
    }

    /// Local nonzero count.
    pub fn nnz_local(&self) -> usize {
        self.local.nnz()
    }

    /// Global nonzero count (collective).
    pub fn nnz_global<C: Communicator>(&self, grid: &ProcessGrid<C>) -> u64 {
        grid.world()
            .all_reduce(&[self.local.nnz() as u64], pastis_comm::ReduceOp::Sum)[0]
    }

    /// Local triples in *global* coordinates.
    pub fn local_triples_global(&self) -> Vec<(Index, Index, T)> {
        let ro = self.row_offset() as Index;
        let co = self.col_offset() as Index;
        self.local
            .iter()
            .map(|(i, j, v)| (i + ro, j + co, v.clone()))
            .collect()
    }

    /// Gather the full matrix on every rank as global triples (collective;
    /// for tests and small outputs only).
    pub fn gather_global<C: Communicator>(&self, grid: &ProcessGrid<C>) -> Triples<T> {
        let all = grid.world().all_gather(self.local_triples_global());
        let mut t = Triples::new(self.nrows, self.ncols);
        for part in all {
            for (r, c, v) in part {
                t.push(r, c, v);
            }
        }
        t.sort_row_major();
        t
    }

    /// Distributed transpose (collective): entry `(i, j)` moves to `(j, i)`
    /// on the transposed owner.
    pub fn transpose<C: Communicator>(&self, grid: &ProcessGrid<C>) -> DistSparseMatrix<T> {
        let mut t = Triples::new(self.ncols, self.nrows);
        for (i, j, v) in self.local_triples_global() {
            t.push(j, i, v);
        }
        DistSparseMatrix::from_global_triples(grid, self.ncols, self.nrows, t, |_, _| {
            panic!("duplicate coordinate during transpose")
        })
    }

    /// Approximate in-memory footprint of the local block in bytes.
    pub fn local_payload_bytes(&self) -> usize {
        self.local.payload_bytes()
    }

    /// Take the local block out — the eviction half of spill-to-disk. The
    /// caller owns serializing the returned CSR;
    /// [`DistSparseMatrix::restore_local`] puts an identical block back.
    /// Purely local (no communication), so ranks may evict independently.
    pub fn evict_local(&mut self) -> CsrMatrix<T> {
        let old = self.release_local();
        // After the collectives that shared this Arc complete, this rank is
        // the only holder; a still-shared handle (mid-broadcast) falls back
        // to a copy rather than corrupting a peer's view.
        Arc::try_unwrap(old).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Drop this rank's handle on the local block (a peer still reading a
    /// broadcast of it drops the last one). What stays is a 0 × 0 block, no
    /// row pointer over the local rows, so until
    /// [`DistSparseMatrix::restore_local`] the matrix holds nothing and
    /// must not be multiplied.
    pub fn release_local(&mut self) -> Arc<CsrMatrix<T>> {
        std::mem::replace(&mut self.local, Arc::new(CsrMatrix::empty(0, 0)))
    }

    /// Put an evicted local block back. Must have the local dimensions of
    /// this rank's grid position (asserted) — the round trip through
    /// [`DistSparseMatrix::evict_local`] and a bit-exact serializer leaves
    /// the matrix indistinguishable from one that never spilled.
    pub fn restore_local(&mut self, block: CsrMatrix<T>) {
        assert_eq!(
            (block.nrows(), block.ncols()),
            (
                self.row_dist.part_len(self.my_row),
                self.col_dist.part_len(self.my_col)
            ),
            "restored block dimensions disagree with the grid distribution"
        );
        self.local = Arc::new(block);
    }

    /// Apply a pruning predicate in global coordinates, locally.
    pub fn prune_global(
        &self,
        mut keep: impl FnMut(Index, Index, &T) -> bool,
    ) -> DistSparseMatrix<T> {
        let ro = self.row_offset() as Index;
        let co = self.col_offset() as Index;
        DistSparseMatrix {
            local: Arc::new(self.local.prune(|i, j, v| keep(i + ro, j + co, v))),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_comm::{run_threaded, SelfComm};

    fn sample_entries() -> Vec<(Index, Index, u32)> {
        vec![
            (0, 0, 1),
            (0, 5, 2),
            (2, 3, 3),
            (3, 1, 4),
            (5, 5, 5),
            (4, 0, 6),
            (1, 4, 7),
        ]
    }

    #[test]
    fn single_rank_distribution_is_local() {
        let grid = ProcessGrid::square(SelfComm::new());
        let t = Triples::from_entries(6, 6, sample_entries());
        let m = DistSparseMatrix::from_global_triples(&grid, 6, 6, t.clone(), |_, _| {});
        assert_eq!(m.nnz_local(), 7);
        assert_eq!(
            m.gather_global(&grid).to_sorted_tuples(),
            t.to_sorted_tuples()
        );
    }

    #[test]
    fn four_rank_distribution_reassembles() {
        let out = run_threaded(4, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            // Rank 0 contributes everything; others contribute nothing.
            let t = if c.rank() == 0 {
                Triples::from_entries(6, 6, sample_entries())
            } else {
                Triples::new(6, 6)
            };
            let m = DistSparseMatrix::from_global_triples(&grid, 6, 6, t, |_, _| {});
            (
                m.nnz_local(),
                m.row_offset(),
                m.col_offset(),
                m.nnz_global(&grid),
                m.gather_global(&grid).to_sorted_tuples(),
            )
        });
        let reference = Triples::from_entries(6, 6, sample_entries()).to_sorted_tuples();
        let total: usize = out.iter().map(|o| o.0).sum();
        assert_eq!(total, 7);
        for (_, _, _, g, gathered) in &out {
            assert_eq!(*g, 7);
            assert_eq!(gathered, &reference);
        }
        // Offsets: 6 rows over 2 grid rows -> parts of 3.
        assert_eq!(out[0].1, 0);
        assert_eq!(out[3].1, 3);
        assert_eq!(out[3].2, 3);
    }

    #[test]
    fn contributions_split_across_ranks_merge() {
        let out = run_threaded(4, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            // Each rank contributes a disjoint slice of the entries.
            let all = sample_entries();
            let mine: Vec<_> = all
                .into_iter()
                .enumerate()
                .filter(|(idx, _)| idx % 4 == c.rank())
                .map(|(_, e)| e)
                .collect();
            let t = Triples::from_entries(6, 6, mine);
            let m = DistSparseMatrix::from_global_triples(&grid, 6, 6, t, |_, _| {});
            m.gather_global(&grid).to_sorted_tuples()
        });
        let reference = Triples::from_entries(6, 6, sample_entries()).to_sorted_tuples();
        for g in out {
            assert_eq!(g, reference);
        }
    }

    #[test]
    fn duplicates_across_ranks_are_combined() {
        let out = run_threaded(4, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            // Every rank contributes the same single entry.
            let t = Triples::from_entries(4, 4, vec![(1, 1, 10u32)]);
            let m = DistSparseMatrix::from_global_triples(&grid, 4, 4, t, |a, b| *a += b);
            m.nnz_global(&grid)
        });
        for g in out {
            assert_eq!(g, 1);
        }
    }

    #[test]
    fn transpose_distributed_matches_serial() {
        let out = run_threaded(4, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let t = if c.rank() == 0 {
                Triples::from_entries(6, 6, sample_entries())
            } else {
                Triples::new(6, 6)
            };
            let m = DistSparseMatrix::from_global_triples(&grid, 6, 6, t, |_, _| {});
            let mt = m.transpose(&grid);
            mt.gather_global(&grid).to_sorted_tuples()
        });
        let reference = Triples::from_entries(6, 6, sample_entries())
            .transpose()
            .to_sorted_tuples();
        for g in out {
            assert_eq!(g, reference);
        }
    }

    #[test]
    fn prune_global_uses_global_coordinates() {
        let out = run_threaded(4, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let t = if c.rank() == 0 {
                Triples::from_entries(6, 6, sample_entries())
            } else {
                Triples::new(6, 6)
            };
            let m = DistSparseMatrix::from_global_triples(&grid, 6, 6, t, |_, _| {});
            let upper = m.prune_global(|i, j, _| j > i);
            upper.gather_global(&grid).to_sorted_tuples()
        });
        // Strict upper of the sample: (0,5),(2,3),(1,4).
        for g in out {
            assert_eq!(g.len(), 3);
            assert!(g.iter().all(|&(i, j, _)| j > i));
        }
    }

    #[test]
    fn rectangular_matrix_distribution() {
        let out = run_threaded(4, |c| {
            let world = c.split(0, c.rank());
            let grid = ProcessGrid::square(world);
            let t = if c.rank() == 0 {
                Triples::from_entries(5, 7, vec![(4, 6, 1u8), (0, 0, 2), (2, 3, 3)])
            } else {
                Triples::new(5, 7)
            };
            let m = DistSparseMatrix::from_global_triples(&grid, 5, 7, t, |_, _| {});
            (m.local().nrows(), m.local().ncols(), m.nnz_global(&grid))
        });
        // 5 rows over 2 -> 3/2; 7 cols over 2 -> 4/3.
        assert_eq!(out[0].0, 3);
        assert_eq!(out[0].1, 4);
        assert_eq!(out[3].0, 2);
        assert_eq!(out[3].1, 3);
        for o in &out {
            assert_eq!(o.2, 3);
        }
    }

    #[test]
    #[should_panic(expected = "local block dimensions disagree")]
    fn from_local_block_checks_dims() {
        let grid = ProcessGrid::square(SelfComm::new());
        let wrong: CsrMatrix<u8> = CsrMatrix::empty(2, 2);
        let _ = DistSparseMatrix::from_local_block(&grid, 3, 3, wrong);
    }
}
