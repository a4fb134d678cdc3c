//! The overlap semiring: candidate discovery as SpGEMM.
//!
//! Figure 2 of the paper: the candidate pair discovery is
//! `C = A ⊗ Aᵀ` where `A` is the sequences-by-k-mers matrix and the
//! "multiply-add" is overloaded — multiplying two k-mer positions yields a
//! seed, adding accumulates the shared-k-mer count and keeps the first two
//! seeds (enough to anchor a banded alignment, and what the original
//! PASTIS `CommonKmers` element stores).

use pastis_sparse::Semiring;

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
/// positions in the column sequence (i.e. `B = Aᵀ`).
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapSemiring;

impl Semiring for OverlapSemiring {
    type A = u32;
    type B = u32;
    type C = CommonKmers;

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
    use pastis_sparse::{spgemm_hash, spgemm_heap, CsrMatrix, Triples};

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
