//! The overlap semiring: candidate discovery as SpGEMM.
//!
//! Figure 2 of the paper: the candidate pair discovery is
//! `C = A ⊗ Aᵀ` where `A` is the sequences-by-k-mers matrix and the
//! "multiply-add" is overloaded — multiplying two k-mer positions yields a
//! seed, adding accumulates the shared-k-mer count and keeps the first two
//! seeds (enough to anchor a banded alignment, and what the original
//! PASTIS `CommonKmers` element stores).

//!
//! The row kernel folds products through [`OverlapCell`], the semiring's
//! accumulator slot: the same left fold as `multiply` + `combine`, written
//! without a branch on what the slot already holds.

use pastis_sparse::{AccSlot, Semiring};

/// Sentinel for an empty seed slot.
const NO_SEED: (u32, u32) = (u32::MAX, u32::MAX);

/// Value of one overlap-matrix nonzero: how many k-mers two sequences
/// share, plus up to two seed position pairs `(pos_in_row_seq,
/// pos_in_col_seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonKmers {
    /// Number of distinct shared k-mers.
    pub count: u32,
    /// Up to two seed position pairs; unused slots hold `u32::MAX`.
    pub seeds: [(u32, u32); 2],
}

impl CommonKmers {
    /// A single shared k-mer at the given positions.
    pub fn seed(qpos: u32, rpos: u32) -> CommonKmers {
        CommonKmers {
            count: 1,
            seeds: [(qpos, rpos), NO_SEED],
        }
    }

    /// Number of stored seeds (0–2).
    pub fn n_seeds(&self) -> usize {
        self.seeds.iter().filter(|&&s| s != NO_SEED).count()
    }

    /// The first seed, if any.
    pub fn first_seed(&self) -> Option<(u32, u32)> {
        (self.seeds[0] != NO_SEED).then_some(self.seeds[0])
    }
}

/// The semiring of Figure 2: `multiply(posA, posB) → seed`,
/// `combine` = count sum + seed capture.
///
/// `A`-values are k-mer positions in the row sequence, `B`-values k-mer
/// positions in the column sequence (i.e. `B = Aᵀ`). A position pair of
/// `(u32::MAX, u32::MAX)` is the empty-seed sentinel, which no sequence is
/// long enough to produce.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapSemiring;

/// The overlap semiring's slot in the row kernel's dense accumulator: the
/// count, which is also the liveness mark, and three seed pairs, the third
/// a dump slot every product past the second lands in. 32 bytes, so a
/// cell never straddles a cache line.
///
/// Seeds outlive `take`, which resets only the count: `seeds[k]` is
/// meaningful only for `k < count`, and `take` masks the rest.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
pub struct OverlapCell {
    count: u32,
    seeds: [(u32, u32); 3],
}

impl AccSlot<OverlapSemiring> for OverlapCell {
    #[inline]
    fn empty() -> Self {
        OverlapCell {
            count: 0,
            seeds: [NO_SEED; 3],
        }
    }

    #[inline]
    fn fold(&mut self, _sr: &OverlapSemiring, a: &u32, b: &u32) -> bool {
        debug_assert_ne!((*a, *b), NO_SEED, "a position pair equal to the sentinel");
        let was_empty = self.count == 0;
        self.seeds[self.count.min(2) as usize] = (*a, *b);
        self.count += 1;
        was_empty
    }

    #[inline]
    fn is_live(&self) -> bool {
        self.count != 0
    }

    #[inline]
    fn take(&mut self) -> CommonKmers {
        let count = std::mem::take(&mut self.count);
        let second = if count >= 2 { self.seeds[1] } else { NO_SEED };
        CommonKmers {
            count,
            seeds: [self.seeds[0], second],
        }
    }
}

impl Semiring for OverlapSemiring {
    type A = u32;
    type B = u32;
    type C = CommonKmers;
    type Slot = OverlapCell;

    #[inline]
    fn multiply(&self, a: &u32, b: &u32) -> CommonKmers {
        CommonKmers::seed(*a, *b)
    }

    #[inline]
    fn combine(&self, acc: &mut CommonKmers, incoming: CommonKmers) {
        // Associative: counts add; seed slots fill left to right from the
        // incoming value's seeds, preserving discovery (ascending k-mer id)
        // order.
        acc.count += incoming.count;
        for s in incoming.seeds {
            if s == NO_SEED {
                break;
            }
            if acc.seeds[0] == NO_SEED {
                acc.seeds[0] = s;
            } else if acc.seeds[1] == NO_SEED {
                acc.seeds[1] = s;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_sparse::{
        spgemm_dense_ref, spgemm_hash, spgemm_heap, spgemm_parallel, CsrMatrix, SpGemmKind,
        SpGemmPool, Triples,
    };
    use pastis_trace::{names, TraceSession};

    #[test]
    fn seed_constructor() {
        let c = CommonKmers::seed(3, 7);
        assert_eq!(c.count, 1);
        assert_eq!(c.n_seeds(), 1);
        assert_eq!(c.first_seed(), Some((3, 7)));
    }

    #[test]
    fn combine_counts_and_caps_seeds() {
        let sr = OverlapSemiring;
        let mut acc = CommonKmers::seed(1, 2);
        sr.combine(&mut acc, CommonKmers::seed(3, 4));
        sr.combine(&mut acc, CommonKmers::seed(5, 6));
        sr.combine(&mut acc, CommonKmers::seed(7, 8));
        assert_eq!(acc.count, 4);
        assert_eq!(acc.n_seeds(), 2);
        assert_eq!(acc.seeds, [(1, 2), (3, 4)]);
    }

    #[test]
    fn combine_is_associative_on_counts_and_first_seeds() {
        let sr = OverlapSemiring;
        let vals = [
            CommonKmers::seed(1, 1),
            CommonKmers::seed(2, 2),
            CommonKmers::seed(3, 3),
        ];
        // (a + b) + c
        let mut left = vals[0];
        sr.combine(&mut left, vals[1]);
        sr.combine(&mut left, vals[2]);
        // a + (b + c)
        let mut bc = vals[1];
        sr.combine(&mut bc, vals[2]);
        let mut right = vals[0];
        sr.combine(&mut right, bc);
        assert_eq!(left, right);
    }

    /// Every value shape `combine` tells apart: no seed, one, two (filled
    /// left to right), at several counts.
    fn left_filled_values() -> Vec<CommonKmers> {
        let seeds = [(1, 2), (3, 4), (5, 6)];
        let mut vals = vec![CommonKmers {
            count: 0,
            seeds: [NO_SEED; 2],
        }];
        for count in [1, 2, 7] {
            for s0 in seeds {
                vals.push(CommonKmers {
                    count,
                    seeds: [s0, NO_SEED],
                });
                for s1 in seeds {
                    vals.push(CommonKmers {
                        count,
                        seeds: [s0, s1],
                    });
                }
            }
        }
        vals
    }

    #[test]
    fn combine_is_associative_on_every_value_shape() {
        let sr = OverlapSemiring;
        let vals = left_filled_values();
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let mut left = a;
                    sr.combine(&mut left, b);
                    sr.combine(&mut left, c);
                    let mut bc = b;
                    sr.combine(&mut bc, c);
                    let mut right = a;
                    sr.combine(&mut right, bc);
                    assert_eq!(left, right, "{a:?} {b:?} {c:?}");
                }
            }
        }
    }

    /// The left fold of `multiply` + `combine` over `products`.
    fn left_fold(products: &[(u32, u32)]) -> CommonKmers {
        let sr = OverlapSemiring;
        let mut acc = sr.multiply(&products[0].0, &products[0].1);
        for (a, b) in &products[1..] {
            sr.combine(&mut acc, sr.multiply(a, b));
        }
        acc
    }

    #[test]
    fn cell_is_the_left_fold_even_on_stale_seeds() {
        let sr = OverlapSemiring;
        let products: Vec<(u32, u32)> = (0..5).map(|p| (10 + p, 20 + p)).collect();
        for n in 1..=5 {
            // A fresh cell, and one that has already served a longer row:
            // `take` resets the count alone, so its seeds are still there
            // (at n = 1 the second seed must come back empty all the same).
            let mut stale = OverlapCell::empty();
            for (a, b) in [(91, 92), (93, 94), (95, 96)] {
                stale.fold(&sr, &a, &b);
            }
            assert_eq!(stale.take().count, 3);
            for mut cell in [OverlapCell::empty(), stale] {
                assert!(!cell.is_live());
                for (p, (a, b)) in products[..n].iter().enumerate() {
                    assert_eq!(cell.fold(&sr, a, b), p == 0, "n={n} p={p}");
                    assert!(cell.is_live());
                }
                assert_eq!(cell.take(), left_fold(&products[..n]), "n={n}");
                assert!(!cell.is_live());
            }
        }
        assert_eq!(std::mem::size_of::<OverlapCell>(), 32);
    }

    /// A k-mer-like `A` (sequences × k-mers, values are positions): every
    /// sequence of `family` carries each of the family's `shared` k-mers,
    /// so a pair inside a family meets in exactly `shared` products, and
    /// `noise` k-mers of its own beside them.
    fn kmer_like(families: &[(usize, usize)], noise: usize, seed: u32) -> CsrMatrix<u32> {
        let nseqs: usize = families.iter().map(|f| f.0).sum();
        let nkmers: usize = families.iter().map(|f| f.1).sum::<usize>() + nseqs * noise;
        let mut t = Triples::new(nseqs, nkmers);
        let (mut seq, mut kmer) = (0u32, 0u32);
        let mut pos = seed;
        let mut next_pos = || {
            pos = pos.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            pos >> 8
        };
        for &(members, shared) in families {
            for m in 0..members as u32 {
                for k in 0..shared as u32 {
                    t.push(seq + m, kmer + k, next_pos());
                }
            }
            seq += members as u32;
            kmer += shared as u32;
        }
        for s in 0..nseqs as u32 {
            for _ in 0..noise {
                t.push(s, kmer, next_pos());
                kmer += 1;
            }
        }
        CsrMatrix::from_triples(t)
    }

    #[test]
    fn dense_accumulator_crossover_is_32768_columns() {
        // 1 MiB of 32-byte cells; under `Option<CommonKmers>` (24 bytes)
        // the table took over at 43 691 columns.
        let a = kmer_like(&[(2, 3)], 1, 5);
        let session = TraceSession::new();
        for (rank, (ncols, dense)) in [(32_768, true), (32_769, false)].into_iter().enumerate() {
            let mut t = Triples::new(a.ncols(), ncols);
            for k in 0..a.ncols() as u32 {
                t.push(k, (k * 4099) % ncols as u32, k);
                t.push(k, ncols as u32 - 1 - k, 100 + k);
            }
            let b = CsrMatrix::from_triples(t);
            let rec = session.recorder(rank);
            let pool = SpGemmPool::new(1)
                .with_kind(SpGemmKind::Hash)
                .with_recorder(rec.clone());
            let (c, _) = pool.multiply(&OverlapSemiring, &a, &b);
            assert_eq!(c, spgemm_heap(&OverlapSemiring, &a, &b).0, "ncols={ncols}");
            let rows = |name| rec.counters().get(name).copied().unwrap_or(0.0);
            let (want_dense, want_table) = if dense { (2.0, 0.0) } else { (0.0, 2.0) };
            assert_eq!(
                rows(names::CTR_SPGEMM_ACC_DENSE_ROWS),
                want_dense,
                "ncols={ncols}"
            );
            assert_eq!(
                rows(names::CTR_SPGEMM_ACC_TABLE_ROWS),
                want_table,
                "ncols={ncols}"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The cell against the two routes that never see it: the heap
        /// kernel (`multiply` + `combine`) and the dense reference. Output
        /// coordinates inside a family of `shared` common k-mers receive
        /// exactly `shared` products, 1 to 6 here, so the first product,
        /// the second seed and the dump slot are all exercised; the big
        /// family's rows are over a quarter full (scan drain), the rest
        /// far under (sort drain).
        #[test]
        fn row_kernel_equals_heap_and_reference_on_kmer_like_operands(
            seed in 0u32..1_000_000,
            big in 30usize..60,
            shared in proptest::collection::vec(1usize..7, 4..12),
            noise in 0usize..3,
        ) {
            let mut families = vec![(big, 1 + seed as usize % 6)];
            families.extend(shared.iter().map(|&s| (2 + s % 3, s)));
            let a = kmer_like(&families, noise, seed);
            let at = a.transpose();
            let sr = OverlapSemiring;
            let (want, want_stats) = spgemm_heap(&sr, &a, &at);
            prop_assert_eq!(&spgemm_dense_ref(&sr, &a, &at), &want);
            for s in shared.iter().chain([&families[0].1]) {
                prop_assert!(want.iter().any(|(i, j, ck)| i != j && ck.count as usize == *s));
            }
            let scanned = want.row(0).0.len();
            let sorted = want.row(a.nrows() - 1).0.len();
            prop_assert!(scanned * 4 >= at.ncols() && sorted * 4 < at.ncols());
            let (hash, hash_stats) = spgemm_hash(&sr, &a, &at);
            prop_assert_eq!(&hash, &want);
            prop_assert_eq!(hash_stats, want_stats);
            for threads in [1usize, 2, 3] {
                let (par, par_stats) = spgemm_parallel(&sr, &a, &at, threads);
                prop_assert_eq!(&par, &want);
                prop_assert_eq!(par_stats, want_stats);
            }
        }
    }

    #[test]
    fn overlap_spgemm_counts_shared_kmers() {
        // 3 sequences × 5 k-mers; values are positions.
        // seq0: kmers {0@0, 2@3, 4@9}; seq1: {2@1, 4@2}; seq2: {1@5}.
        let a = CsrMatrix::from_triples(Triples::from_entries(
            3,
            5,
            vec![
                (0, 0, 0u32),
                (0, 2, 3),
                (0, 4, 9),
                (1, 2, 1),
                (1, 4, 2),
                (2, 1, 5),
            ],
        ));
        let at = a.transpose();
        let (c, _) = spgemm_hash(&OverlapSemiring, &a, &at);
        // seq0 vs seq1 share kmers 2 and 4.
        let c01 = c.get(0, 1).unwrap();
        assert_eq!(c01.count, 2);
        assert_eq!(c01.seeds, [(3, 1), (9, 2)]);
        // Symmetric counterpart has mirrored seed positions.
        let c10 = c.get(1, 0).unwrap();
        assert_eq!(c10.count, 2);
        assert_eq!(c10.seeds, [(1, 3), (2, 9)]);
        // Diagonal: self-overlap counts own k-mers.
        assert_eq!(c.get(0, 0).unwrap().count, 3);
        // seq2 shares nothing.
        assert!(c.get(0, 2).is_none());
        assert!(c.get(2, 1).is_none());
    }

    #[test]
    fn hash_and_heap_agree_on_overlap_semiring() {
        let a = CsrMatrix::from_triples(Triples::from_entries(
            4,
            6,
            vec![
                (0, 0, 0u32),
                (0, 3, 2),
                (1, 0, 4),
                (1, 3, 5),
                (1, 5, 1),
                (2, 5, 7),
                (3, 0, 0),
                (3, 5, 3),
            ],
        ));
        let at = a.transpose();
        let (ch, _) = spgemm_hash(&OverlapSemiring, &a, &at);
        let (cp, _) = spgemm_heap(&OverlapSemiring, &a, &at);
        assert_eq!(ch, cp);
    }
}
