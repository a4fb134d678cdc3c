//! Element-wise sparse operations: SpAdd and the parity mask.
//!
//! These are the CombBLAS building blocks PASTIS needs around the SpGEMM:
//! accumulating per-stage SUMMA partials (SpAdd), and the parity mask of
//! the index-based load-balancing scheme in Section VI-B.

use crate::csr::CsrMatrix;
use crate::triples::Index;

/// Consuming union merge of two same-shaped matrices; coordinates present
/// in both are folded with `combine(acc_from_a, b_value)`. Values are
/// *moved* out of both operands (no `Clone` bound),
/// so a SUMMA stage accumulation `c = spadd_into(c, partial, …)` costs
/// O(nnz(c) + nnz(partial)) moves instead of rebuilding + cloning the full
/// accumulated block every stage.
pub fn spadd_into<T>(
    a: CsrMatrix<T>,
    b: CsrMatrix<T>,
    mut combine: impl FnMut(&mut T, T),
) -> CsrMatrix<T> {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "SpAdd shape mismatch"
    );
    // Structural no-ops move the non-empty side straight through — the
    // first SUMMA stage accumulates into an empty block for free.
    if b.nnz() == 0 {
        return a;
    }
    if a.nnz() == 0 {
        return b;
    }
    let (nrows, ncols, arp, acols, avals) = a.into_parts();
    let (_, _, brp, bcols, bvals) = b.into_parts();
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::with_capacity(acols.len() + bcols.len());
    let mut vals: Vec<T> = Vec::with_capacity(avals.len() + bvals.len());
    // The union merge consumes each operand's values in strictly increasing
    // storage order, so two monotone iterators move them without cloning.
    let mut aiter = avals.into_iter();
    let mut biter = bvals.into_iter();
    for i in 0..nrows {
        let ac = &acols[arp[i]..arp[i + 1]];
        let bc = &bcols[brp[i]..brp[i + 1]];
        let (mut x, mut y) = (0usize, 0usize);
        while x < ac.len() || y < bc.len() {
            let take_a = y >= bc.len() || (x < ac.len() && ac[x] <= bc[y]);
            let take_b = x >= ac.len() || (y < bc.len() && bc[y] <= ac[x]);
            match (take_a, take_b) {
                (true, true) => {
                    let mut v = aiter.next().expect("a-values exhausted");
                    combine(&mut v, biter.next().expect("b-values exhausted"));
                    colind.push(ac[x]);
                    vals.push(v);
                    x += 1;
                    y += 1;
                }
                (true, false) => {
                    colind.push(ac[x]);
                    vals.push(aiter.next().expect("a-values exhausted"));
                    x += 1;
                }
                (false, true) => {
                    colind.push(bc[y]);
                    vals.push(biter.next().expect("b-values exhausted"));
                    y += 1;
                }
                (false, false) => unreachable!(),
            }
        }
        rowptr.push(colind.len());
    }
    CsrMatrix::from_parts(nrows, ncols, rowptr, colind, vals)
}

/// The paper's index-based (parity) pruning rule, Figure 6 right: in the
/// lower triangle keep entries whose row and column parities agree; in the
/// upper triangle keep entries whose parities differ; drop the diagonal.
/// For a symmetric matrix this keeps exactly one of `(i,j)` / `(j,i)` per
/// off-diagonal pair while preserving the uniform nonzero distribution.
#[inline]
pub fn parity_keep(i: Index, j: Index) -> bool {
    // One expression, no branch: the pruned view of a block evaluates this
    // once per stored entry, on a coin-flip input. Lower triangle (`j < i`):
    // keep if the parities agree; upper: if they differ.
    let same_parity = (i ^ j) & 1 == 0;
    (i != j) & (same_parity == (j < i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triples::Triples;

    #[test]
    fn spadd_into_union_and_combine() {
        let a = CsrMatrix::from_triples(Triples::from_entries(
            2,
            3,
            vec![(0, 0, 1u32), (0, 2, 2), (1, 1, 3)],
        ));
        let b =
            CsrMatrix::from_triples(Triples::from_entries(2, 3, vec![(0, 2, 10u32), (1, 0, 20)]));
        let c = spadd_into(a, b, |x, y| *x += y);
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(0, 2), Some(&12));
        assert_eq!(c.get(1, 0), Some(&20));
        assert_eq!(c.get(1, 1), Some(&3));
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn spadd_into_shape_mismatch() {
        let a: CsrMatrix<u8> = CsrMatrix::empty(2, 2);
        let b: CsrMatrix<u8> = CsrMatrix::empty(2, 3);
        let _ = spadd_into(a, b, |_, _| ());
    }

    #[test]
    fn spadd_into_preserves_combine_orientation() {
        // combine(acc_from_a, b_value): order-revealing Vec payloads.
        let a = CsrMatrix::from_triples(Triples::from_entries(1, 1, vec![(0, 0, vec![1u32])]));
        let b = CsrMatrix::from_triples(Triples::from_entries(1, 1, vec![(0, 0, vec![2u32])]));
        let c = spadd_into(a, b, |x, y| x.extend(y));
        assert_eq!(c.get(0, 0), Some(&vec![1, 2]));
    }

    #[test]
    fn spadd_into_requires_no_clone() {
        // A value type with no Clone impl: proves the merge moves values.
        #[derive(Debug, PartialEq)]
        struct NoClone(u32);
        let a = CsrMatrix::from_parts(2, 2, vec![0, 1, 1], vec![0], vec![NoClone(1)]);
        let b = CsrMatrix::from_parts(
            2,
            2,
            vec![0, 1, 2],
            vec![0, 1],
            vec![NoClone(2), NoClone(3)],
        );
        let c = spadd_into(a, b, |x, y| x.0 += y.0);
        assert_eq!(c.get(0, 0), Some(&NoClone(3)));
        assert_eq!(c.get(1, 1), Some(&NoClone(3)));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn spadd_into_empty_fast_paths_move_through() {
        let a = CsrMatrix::from_triples(Triples::from_entries(2, 2, vec![(1, 1, 5u8)]));
        let e: CsrMatrix<u8> = CsrMatrix::empty(2, 2);
        assert_eq!(spadd_into(a.clone(), e.clone(), |_, _| unreachable!()), a);
        assert_eq!(spadd_into(e, a.clone(), |_, _| unreachable!()), a);
    }

    #[test]
    fn parity_keeps_each_pair_exactly_once() {
        // Figure 6 right: upper triangle on differing parities, lower on
        // agreeing ones.
        assert!(parity_keep(0, 1) && parity_keep(2, 0) && parity_keep(3, 1));
        assert!(!parity_keep(0, 2) && !parity_keep(1, 0) && !parity_keep(1, 3));
        // For every off-diagonal (i, j), exactly one of (i,j), (j,i) kept.
        for n in [2usize, 3, 8, 17] {
            for i in 0..n as Index {
                for j in 0..n as Index {
                    if i == j {
                        assert!(!parity_keep(i, j));
                    } else {
                        assert!(
                            parity_keep(i, j) ^ parity_keep(j, i),
                            "pair ({i},{j}) kept zero or two times"
                        );
                    }
                }
            }
        }
    }
}
