//! Outer-product (expand–sort–compress) SpGEMM over DCSC operands.
//!
//! CombBLAS's distributed multiply historically pairs hypersparse DCSC
//! blocks with an outer-product local kernel: for every shared inner index
//! `k`, the column `A(:,k)` and row `B(k,:)` form an outer product of
//! intermediate triples, which are then sorted and compressed with the
//! semiring's `combine` (the ESC algorithm of Buluç & Gilbert). This
//! kernel complements the row-wise hash/heap kernels of
//! [`crate::spgemm`]: it never touches empty columns, so its work is
//! `O(flops + nzc)` regardless of the (possibly enormous) logical
//! dimension — exactly the property the paper's 244-million-column k-mer
//! matrices need.
//!
//! Determinism: intermediates are sorted by `(row, col, k)` before
//! compression, so `combine` is applied in ascending-`k` order per output
//! coordinate — bit-identical to the other kernels for any semiring
//! (tested).

use crate::csr::CsrMatrix;
use crate::dcsc::DcscMatrix;
use crate::semiring::Semiring;
use crate::spgemm::SpGemmStats;
use crate::triples::{Index, Triples};

/// ESC SpGEMM: `C = Aᵀ-form ⊗ B-form` where `a_by_col` is `A` in DCSC
/// (column access) and `b_by_row` is `B` in DCSC of `Bᵀ`… to keep the API
/// symmetric we take `A` in DCSC and `B` in DCSC of its *transpose* —
/// i.e. `b_t.col(k)` yields row `k` of `B`.
///
/// Returns CSR like the other kernels.
pub fn spgemm_esc<S: Semiring>(
    sr: &S,
    a: &DcscMatrix<S::A>,
    b_t: &DcscMatrix<S::B>,
) -> (CsrMatrix<S::C>, SpGemmStats)
where
    S::A: Clone,
    S::B: Clone,
    S::C: Clone,
{
    assert_eq!(
        a.ncols(),
        b_t.ncols(),
        "ESC SpGEMM inner dimension mismatch ({} vs {})",
        a.ncols(),
        b_t.ncols()
    );
    let mut stats = SpGemmStats::default();
    // Expand: (row, col, k, value) intermediates over shared inner ids.
    let mut inter: Vec<(Index, Index, Index, S::C)> = Vec::new();
    // Walk both DCSC column lists in merge order (both ascending by id).
    let mut bi = b_t.iter_cols().peekable();
    for (k, arows, avals) in a.iter_cols() {
        // Advance B's iterator to inner id k.
        let mut hit: Option<(&[Index], &[S::B])> = None;
        while let Some(&(bk, brows, bvals)) = bi.peek() {
            if bk < k {
                bi.next();
            } else {
                if bk == k {
                    hit = Some((brows, bvals));
                }
                break;
            }
        }
        let Some((brows, bvals)) = hit else { continue };
        for (&i, av) in arows.iter().zip(avals) {
            for (&j, bv) in brows.iter().zip(bvals) {
                inter.push((i, j, k, sr.multiply(av, bv)));
                stats.products += 1;
            }
        }
    }
    // Sort: by output coordinate, then inner id (combine order contract).
    inter.sort_by_key(|x| (x.0, x.1, x.2));
    // Compress.
    let mut t = Triples::new(a.nrows(), b_t.nrows());
    for (i, j, _k, v) in inter {
        match t.entries.last_mut() {
            Some(last) if last.row == i && last.col == j => sr.combine(&mut last.val, v),
            _ => t.push(i, j, v),
        }
    }
    stats.merged_nnz = t.nnz() as u64;
    (
        CsrMatrix::from_triples_combining(t, |_, _| unreachable!("already compressed")),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use crate::spgemm::spgemm_hash;
    use proptest::prelude::*;

    fn to_dcsc(m: &CsrMatrix<f64>) -> DcscMatrix<f64> {
        DcscMatrix::from_triples(m.to_triples())
    }

    #[test]
    fn matches_hash_kernel_small() {
        let a = CsrMatrix::from_triples(Triples::from_entries(
            3,
            4,
            vec![(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0), (2, 3, -1.0)],
        ));
        let b = CsrMatrix::from_triples(Triples::from_entries(
            4,
            3,
            vec![(0, 1, 4.0), (1, 0, 1.0), (2, 1, 5.0), (3, 2, 2.0)],
        ));
        let (want, wstats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        let (got, gstats) = spgemm_esc(&PlusTimes::new(), &to_dcsc(&a), &to_dcsc(&b.transpose()));
        assert_eq!(got, want);
        assert_eq!(gstats.products, wstats.products);
        assert_eq!(gstats.merged_nnz, wstats.merged_nnz);
    }

    #[test]
    fn hypersparse_wide_inner_dimension() {
        // 3 x 100M with 3 nonzeros: ESC touches only the 3 columns.
        let dim = 100_000_000;
        let a = DcscMatrix::from_triples(Triples::from_entries(
            3,
            dim,
            vec![(0, 7, 1.0), (1, 99_999_999, 2.0), (2, 7, 3.0)],
        ));
        let bt = DcscMatrix::from_triples(Triples::from_entries(
            2,
            dim,
            vec![(0, 7, 10.0), (1, 99_999_999, 20.0)],
        ));
        let (c, stats) = spgemm_esc(&PlusTimes::new(), &a, &bt);
        assert_eq!(c.get(0, 0), Some(&10.0));
        assert_eq!(c.get(2, 0), Some(&30.0));
        assert_eq!(c.get(1, 1), Some(&40.0));
        assert_eq!(stats.products, 3);
    }

    /// Order-revealing semiring to pin down the combine-order contract.
    struct Concat;
    impl Semiring for Concat {
        type A = u32;
        type B = u32;
        type C = Vec<u32>;
        type Slot = Option<Vec<u32>>;
        fn multiply(&self, a: &u32, b: &u32) -> Vec<u32> {
            vec![a * 100 + b]
        }
        fn combine(&self, acc: &mut Vec<u32>, mut inc: Vec<u32>) {
            acc.append(&mut inc);
        }
    }

    #[test]
    fn combine_order_matches_row_kernels() {
        let a = CsrMatrix::from_triples(Triples::from_entries(
            1,
            4,
            vec![(0, 0, 1u32), (0, 1, 2), (0, 2, 3), (0, 3, 4)],
        ));
        let b = CsrMatrix::from_triples(Triples::from_entries(
            4,
            1,
            vec![(0, 0, 5u32), (1, 0, 6), (2, 0, 7), (3, 0, 8)],
        ));
        let (want, _) = spgemm_hash(&Concat, &a, &b);
        let a_d = DcscMatrix::from_triples(a.to_triples());
        let bt_d = DcscMatrix::from_triples(b.transpose().to_triples());
        let (got, _) = spgemm_esc(&Concat, &a_d, &bt_d);
        assert_eq!(got, want);
        assert_eq!(got.get(0, 0), Some(&vec![105, 206, 307, 408]));
    }

    #[test]
    fn empty_operands() {
        let a: DcscMatrix<f64> = DcscMatrix::from_triples(Triples::new(3, 5));
        let bt: DcscMatrix<f64> = DcscMatrix::from_triples(Triples::new(2, 5));
        let (c, stats) = spgemm_esc(&PlusTimes::new(), &a, &bt);
        assert_eq!((c.nrows(), c.ncols()), (3, 2));
        assert_eq!(c.nnz(), 0);
        assert_eq!(stats.products, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn esc_equals_hash_on_random_matrices(
            ae in proptest::collection::vec((0u32..8, 0u32..9, -3i32..4), 0..40),
            be in proptest::collection::vec((0u32..9, 0u32..7, -3i32..4), 0..40),
        ) {
            let dedup = |v: Vec<(u32, u32, i32)>, nr: usize, nc: usize| {
                let mut t = Triples::new(nr, nc);
                let mut seen = std::collections::HashSet::new();
                for (r, c, x) in v {
                    if seen.insert((r, c)) {
                        t.push(r, c, x as f64);
                    }
                }
                t
            };
            let a = CsrMatrix::from_triples(dedup(ae, 8, 9));
            let b = CsrMatrix::from_triples(dedup(be, 9, 7));
            let (want, _) = spgemm_hash(&PlusTimes::new(), &a, &b);
            let (got, _) = spgemm_esc(
                &PlusTimes::new(),
                &DcscMatrix::from_triples(a.to_triples()),
                &DcscMatrix::from_triples(b.transpose().to_triples()),
            );
            prop_assert_eq!(got, want);
        }
    }
}
