//! Symmetry-aware load balancing of the blocked overlap computation
//! (Section VI-B, Figure 6).
//!
//! The overlap matrix is symmetric: `C(i,j)` and `C(j,i)` represent the
//! same alignment. Two schemes exploit this:
//!
//! * **Triangularity-based**: only blocks intersecting the strict upper
//!   triangle are computed. Blocks are *full* (entirely above the
//!   diagonal — every element needs alignment), *partial* (straddling the
//!   diagonal — only the upper part is aligned), or *avoidable* (entirely
//!   below — neither computed nor aligned). Saves sparse computation but
//!   partial blocks cause load imbalance (a rank's share of a partial
//!   block may be mostly lower-triangular).
//! * **Index-based**: all blocks are computed, then pruned by the parity
//!   rule ([`pastis_sparse::spops::parity_keep`]), which keeps exactly one
//!   of each `(i,j)/(j,i)` pair while preserving the uniform nonzero
//!   distribution — better balance, no sparse savings.
//!
//! Both schemes align every unordered pair exactly once (property-tested
//! in `tests/determinism.rs`).

use std::cell::OnceCell;

use pastis_sparse::spops::parity_keep;
use pastis_sparse::{CsrMatrix, Index};

/// The two schemes of Section VI-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadBalance {
    /// Triangularity-based (skip avoidable blocks).
    Triangular,
    /// Index-based (parity pruning, all blocks computed).
    IndexBased,
}

impl LoadBalance {
    /// Whether the scheme aligns global element `(i, j)`: each unordered
    /// pair is kept as exactly one of `(i, j)` / `(j, i)`.
    #[inline]
    pub fn keeps(self, i: Index, j: Index) -> bool {
        match self {
            LoadBalance::Triangular => j > i,
            LoadBalance::IndexBased => parity_keep(i, j),
        }
    }
}

/// Classification of an output block against the strict upper triangle
/// (Figure 6 left: green/yellow/white).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockClass {
    /// Entirely strictly-upper: all computed elements are aligned.
    Full,
    /// Straddles the diagonal: computed, then pruned to the upper part.
    Partial,
    /// Entirely lower: neither computed nor aligned.
    Avoidable,
}

/// One schedulable output block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTask {
    /// Block row index in `0..br`.
    pub r: usize,
    /// Block column index in `0..bc`.
    pub c: usize,
    /// Triangularity class of the block.
    pub class: BlockClass,
}

/// Classify block `(r, c)` whose global element ranges are rows
/// `[r0, r1)` and columns `[c0, c1)`.
pub fn classify_block(r0: usize, r1: usize, c0: usize, c1: usize) -> BlockClass {
    debug_assert!(r0 < r1 && c0 < c1, "empty block range");
    // Strictly upper for all elements: min col > max row.
    if c0 > r1 - 1 {
        BlockClass::Full
    } else if c1 - 1 <= r0 {
        // Max col ≤ min row: no element with j > i.
        BlockClass::Avoidable
    } else {
        BlockClass::Partial
    }
}

/// The block schedule of one search: which blocks are computed, in which
/// order, and how each computed block is pruned before alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    scheme: LoadBalance,
    /// Blocks to compute, row-major.
    pub tasks: Vec<BlockTask>,
    skipped: usize,
}

impl BlockPlan {
    /// Build the schedule for an `n × n` overlap matrix blocked `br × bc`,
    /// where `row_range(r)`/`col_range(c)` give the global element ranges
    /// (as produced by [`pastis_sparse::BlockedSumma`]).
    pub fn new(
        scheme: LoadBalance,
        br: usize,
        bc: usize,
        row_range: impl Fn(usize) -> (usize, usize),
        col_range: impl Fn(usize) -> (usize, usize),
    ) -> BlockPlan {
        let mut tasks = Vec::with_capacity(br * bc);
        let mut skipped = 0;
        for r in 0..br {
            for c in 0..bc {
                let (r0, r1) = row_range(r);
                let (c0, c1) = col_range(c);
                if r0 == r1 || c0 == c1 {
                    continue; // degenerate empty stripe
                }
                let class = classify_block(r0, r1, c0, c1);
                match scheme {
                    LoadBalance::Triangular => {
                        if class == BlockClass::Avoidable {
                            skipped += 1;
                        } else {
                            tasks.push(BlockTask { r, c, class });
                        }
                    }
                    LoadBalance::IndexBased => tasks.push(BlockTask { r, c, class }),
                }
            }
        }
        BlockPlan {
            scheme,
            tasks,
            skipped,
        }
    }

    /// The scheme this plan implements.
    pub fn scheme(&self) -> LoadBalance {
        self.scheme
    }

    /// Number of blocks skipped entirely (triangularity only).
    pub fn skipped_blocks(&self) -> usize {
        self.skipped
    }

    /// Counts of (full, partial) among scheduled tasks.
    pub fn class_counts(&self) -> (usize, usize) {
        let full = self
            .tasks
            .iter()
            .filter(|t| t.class == BlockClass::Full)
            .count();
        let partial = self
            .tasks
            .iter()
            .filter(|t| t.class == BlockClass::Partial)
            .count();
        (full, partial)
    }

    /// A computed block's local piece, seen through this scheme's pruning
    /// rule: the elements it aligns, borrowed in place. `row_offset`/
    /// `col_offset` are the global coordinates of the piece's `(0, 0)`
    /// element (block offset + intra-block distribution offset).
    pub fn prune_local<'a, T>(
        &self,
        task: BlockTask,
        local: &'a CsrMatrix<T>,
        row_offset: usize,
        col_offset: usize,
    ) -> PrunedBlock<'a, T> {
        // A full block of the triangular scheme lies above the diagonal:
        // the rule would pass every element, so it is not asked.
        let rule = match (self.scheme, task.class) {
            (LoadBalance::Triangular, BlockClass::Avoidable) => {
                unreachable!("avoidable blocks are never computed")
            }
            (LoadBalance::Triangular, BlockClass::Full) => None,
            (scheme, _) => Some(scheme),
        };
        // Lossless narrowing, as for the pairs built from these entries:
        // global ids are store indices, which stop at u32::MAX.
        PrunedBlock {
            local,
            rule,
            row_offset: row_offset as Index,
            col_offset: col_offset as Index,
            nnz: OnceCell::new(),
        }
    }

    /// Whether this scheme keeps global element `(i, j)` for alignment
    /// (the pure decision function; used by the performance model, which
    /// never materializes local blocks).
    pub fn keeps(&self, i: Index, j: Index) -> bool {
        self.scheme.keeps(i, j)
    }
}

/// What [`BlockPlan::prune_local`] returns: the kept elements of a block's
/// local piece, read where they lie. Nothing is copied; a block's kept half
/// is some megabytes of which the k-mer threshold then passes a fraction
/// of a percent.
#[derive(Debug)]
pub struct PrunedBlock<'a, T> {
    local: &'a CsrMatrix<T>,
    /// The scheme whose rule picks the elements, on global indices; `None`
    /// shows the whole piece.
    rule: Option<LoadBalance>,
    row_offset: Index,
    col_offset: Index,
    nnz: OnceCell<usize>,
}

impl<'a, T> PrunedBlock<'a, T> {
    /// Number of kept elements: counted over the column indices alone on
    /// the first call, remembered for the rest.
    pub fn nnz(&self) -> usize {
        *self.nnz.get_or_init(|| {
            let Some(rule) = self.rule else {
                return self.local.nnz();
            };
            (0..self.local.nrows())
                .map(|i| {
                    let gi = i as Index + self.row_offset;
                    let cols = self.local.row(i).0;
                    // Branch-free per column, so the loop vectorizes.
                    let kept: u32 = cols
                        .iter()
                        .map(|&j| u32::from(rule.keeps(gi, j + self.col_offset)))
                        .sum();
                    kept as usize
                })
                .sum()
        })
    }

    /// The kept elements in row-major order, as `(row, column, value)` on
    /// the piece's local indices.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &'a T)> + '_ {
        let (local, rule) = (self.local, self.rule);
        let (row_offset, col_offset) = (self.row_offset, self.col_offset);
        (0..local.nrows()).flat_map(move |i| {
            let (cols, vals) = local.row(i);
            let gi = i as Index + row_offset;
            cols.iter()
                .zip(vals)
                .filter(move |(&j, _)| rule.is_none_or(|r| r.keeps(gi, j + col_offset)))
                .map(move |(&j, v)| (i as Index, j, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_comm::grid::BlockDist1D;
    use pastis_sparse::Triples;

    fn ranges(n: usize, parts: usize) -> impl Fn(usize) -> (usize, usize) {
        let d = BlockDist1D::new(n, parts);
        move |i| {
            let s = d.part_offset(i);
            (s, s + d.part_len(i))
        }
    }

    #[test]
    fn classify_against_diagonal() {
        // Block rows 0..3, cols 5..8: strictly upper.
        assert_eq!(classify_block(0, 3, 5, 8), BlockClass::Full);
        // Block rows 5..8, cols 0..3: strictly lower.
        assert_eq!(classify_block(5, 8, 0, 3), BlockClass::Avoidable);
        // Diagonal block.
        assert_eq!(classify_block(2, 5, 2, 5), BlockClass::Partial);
        // Touching: rows 0..3, cols 3..6 -> element (2,3) is upper, all
        // elements have j >= 3 > i <= 2: full.
        assert_eq!(classify_block(0, 3, 3, 6), BlockClass::Full);
        // rows 3..6, cols 0..3: max col 2 <= min row 3: avoidable.
        assert_eq!(classify_block(3, 6, 0, 3), BlockClass::Avoidable);
    }

    #[test]
    fn triangular_plan_counts() {
        // Square b×b blocking of a 12×12 matrix: b(b-1)/2 full,
        // b partial (diagonal), b(b-1)/2 avoidable.
        for b in [2usize, 3, 4, 6] {
            let plan = BlockPlan::new(LoadBalance::Triangular, b, b, ranges(12, b), ranges(12, b));
            let (full, partial) = plan.class_counts();
            assert_eq!(full, b * (b - 1) / 2, "b={b}");
            assert_eq!(partial, b, "b={b}");
            assert_eq!(plan.skipped_blocks(), b * (b - 1) / 2);
            assert_eq!(plan.tasks.len(), full + partial);
        }
    }

    #[test]
    fn full_blocks_grow_quadratically_partial_linearly() {
        // The paper's argument for why triangular imbalance fades with
        // more blocks.
        let count = |b: usize| {
            BlockPlan::new(
                LoadBalance::Triangular,
                b,
                b,
                ranges(100, b),
                ranges(100, b),
            )
            .class_counts()
        };
        let (f5, p5) = count(5);
        let (f10, p10) = count(10);
        assert_eq!(p10, 2 * p5);
        assert_eq!(f10, 45); // vs f5 = 10: superlinear
        assert!(f10 > 4 * f5 - 5);
    }

    #[test]
    fn index_plan_schedules_everything() {
        let plan = BlockPlan::new(LoadBalance::IndexBased, 3, 4, ranges(12, 3), ranges(12, 4));
        assert_eq!(plan.tasks.len(), 12);
        assert_eq!(plan.skipped_blocks(), 0);
    }

    #[test]
    fn keeps_covers_each_pair_exactly_once() {
        for scheme in [LoadBalance::Triangular, LoadBalance::IndexBased] {
            let plan = BlockPlan::new(scheme, 1, 1, ranges(9, 1), ranges(9, 1));
            for i in 0..9u32 {
                assert!(!plan.keeps(i, i), "{scheme:?} keeps diagonal ({i},{i})");
                for j in 0..9u32 {
                    if i != j {
                        assert!(
                            plan.keeps(i, j) ^ plan.keeps(j, i),
                            "{scheme:?} pair ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    /// A fully dense `n × n` piece.
    fn dense(n: usize) -> CsrMatrix<u32> {
        let mut t = Triples::new(n, n);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                t.push(i, j, i * n as u32 + j);
            }
        }
        CsrMatrix::from_triples(t)
    }

    fn task_of(plan: &BlockPlan, class: BlockClass) -> BlockTask {
        *plan.tasks.iter().find(|t| t.class == class).unwrap()
    }

    #[test]
    fn prune_local_triangular_full_block_untouched() {
        let plan = BlockPlan::new(LoadBalance::Triangular, 2, 2, ranges(8, 2), ranges(8, 2));
        let m = CsrMatrix::from_triples(Triples::from_entries(2, 2, vec![(0, 0, 1u8), (1, 1, 2)]));
        // A full block keeps everything regardless of offsets.
        let pruned = plan.prune_local(task_of(&plan, BlockClass::Full), &m, 0, 4);
        assert!(pruned.iter().eq(m.iter()));
        assert_eq!(pruned.nnz(), 2);
    }

    #[test]
    fn prune_local_partial_block_keeps_upper_only() {
        let plan = BlockPlan::new(LoadBalance::Triangular, 2, 2, ranges(8, 2), ranges(8, 2));
        let partial = task_of(&plan, BlockClass::Partial);
        // A dense 3x3 local piece at global (1,1): keep j > i.
        let m = dense(3);
        let pruned = plan.prune_local(partial, &m, 1, 1);
        assert_eq!(pruned.nnz(), 3);
        assert!(pruned.iter().all(|(i, j, _)| j > i));
        // Global rows 5..8 against columns 0..3: nothing is above the
        // diagonal; the other way round, everything is.
        assert_eq!(plan.prune_local(partial, &m, 5, 0).nnz(), 0);
        assert_eq!(plan.prune_local(partial, &m, 0, 5).nnz(), 9);
    }

    #[test]
    fn prune_local_index_based_uses_parity_on_globals() {
        let plan = BlockPlan::new(LoadBalance::IndexBased, 2, 2, ranges(8, 2), ranges(8, 2));
        let task = plan.tasks[0];
        // A dense symmetric window at the origin: exactly one per pair.
        for n in [4usize, 20] {
            assert_eq!(
                plan.prune_local(task, &dense(n), 0, 0).nnz(),
                n * (n - 1) / 2
            );
        }
        // A 2x2 window at (10, 20) is judged on its global indices.
        let m = dense(2);
        let kept: Vec<(Index, Index)> = plan
            .prune_local(task, &m, 10, 20)
            .iter()
            .map(|(i, j, _)| (i, j))
            .collect();
        let want: Vec<(Index, Index)> = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .filter(|&(i, j)| parity_keep(i + 10, j + 20))
            .collect();
        assert_eq!(kept, want);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The view against the copy it replaced: `CsrMatrix::prune` under
        /// [`BlockPlan::keeps`] on global indices, for both schemes, full
        /// and partial blocks, at offsets that put the piece below, across
        /// and above the diagonal.
        #[test]
        fn pruned_view_equals_the_pruned_copy(
            entries in proptest::collection::btree_map((0u32..12, 0u32..15), 0u32..1000, 0..120),
            row_offset in 0usize..40,
            col_offset in 0usize..40,
        ) {
            let triples = entries.iter().map(|(&(i, j), &v)| (i, j, v)).collect();
            let m = CsrMatrix::from_triples(Triples::from_entries(12, 15, triples));
            for scheme in [LoadBalance::Triangular, LoadBalance::IndexBased] {
                let plan = BlockPlan::new(scheme, 2, 2, ranges(80, 2), ranges(80, 2));
                for class in [BlockClass::Full, BlockClass::Partial] {
                    // A triangular full block lies above the diagonal by
                    // definition; anything may be handed to the others.
                    let full = (scheme, class) == (LoadBalance::Triangular, BlockClass::Full);
                    let col_offset = if full { col_offset + 52 } else { col_offset };
                    let copy = m.prune(|i, j, _| {
                        plan.keeps(i + row_offset as Index, j + col_offset as Index)
                    });
                    let view = plan.prune_local(task_of(&plan, class), &m, row_offset, col_offset);
                    prop_assert!(view.iter().eq(copy.iter()), "{:?} {:?}", scheme, class);
                    prop_assert_eq!(view.nnz(), view.iter().count());
                }
            }
        }
    }

    #[test]
    fn rectangular_blocking_is_supported() {
        // br=3, bc=4 (as in Figure 4's 3×4 example).
        let plan = BlockPlan::new(LoadBalance::Triangular, 3, 4, ranges(12, 3), ranges(12, 4));
        assert!(plan.tasks.len() < 12);
        assert!(plan.skipped_blocks() > 0);
        assert_eq!(plan.tasks.len() + plan.skipped_blocks(), 12);
    }
}
