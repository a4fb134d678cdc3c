//! Element-wise sparse operations: SpAdd, masking, triangular extraction.
//!
//! These are the CombBLAS building blocks PASTIS needs around the SpGEMM:
//! accumulating per-stage SUMMA partials (SpAdd), and the triangular /
//! parity masks of the two load-balancing schemes in Section VI-B.

use crate::csr::CsrMatrix;
use crate::triples::Index;

/// Element-wise union merge of two same-shaped matrices; coordinates present
/// in both are folded with `combine(acc_from_a, b_value)`.
pub fn spadd<T: Clone>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    mut combine: impl FnMut(&mut T, T),
) -> CsrMatrix<T> {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "SpAdd shape mismatch"
    );
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals: Vec<T> = Vec::with_capacity(a.nnz() + b.nnz());
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut x, mut y) = (0usize, 0usize);
        while x < ac.len() || y < bc.len() {
            let take_a = y >= bc.len() || (x < ac.len() && ac[x] <= bc[y]);
            let take_b = x >= ac.len() || (y < bc.len() && bc[y] <= ac[x]);
            match (take_a, take_b) {
                (true, true) => {
                    let mut v = av[x].clone();
                    combine(&mut v, bv[y].clone());
                    colind.push(ac[x]);
                    vals.push(v);
                    x += 1;
                    y += 1;
                }
                (true, false) => {
                    colind.push(ac[x]);
                    vals.push(av[x].clone());
                    x += 1;
                }
                (false, true) => {
                    colind.push(bc[y]);
                    vals.push(bv[y].clone());
                    y += 1;
                }
                (false, false) => unreachable!(),
            }
        }
        rowptr.push(colind.len());
    }
    CsrMatrix::from_parts(a.nrows(), a.ncols(), rowptr, colind, vals)
}

/// Consuming union merge of two same-shaped matrices: the move-based
/// counterpart of [`spadd`], with the same `combine(acc_from_a, b_value)`
/// orientation. Values are *moved* out of both operands (no `Clone` bound),
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

/// Strictly upper-triangular part (`j > i`), the candidate set the
/// triangularity-based load balancer keeps (Section VI-B).
pub fn triu_strict<T: Clone>(m: &CsrMatrix<T>) -> CsrMatrix<T> {
    m.prune(|i, j, _| j > i)
}

/// Strictly lower-triangular part (`j < i`).
pub fn tril_strict<T: Clone>(m: &CsrMatrix<T>) -> CsrMatrix<T> {
    m.prune(|i, j, _| j < i)
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

    fn dense_sym(n: usize) -> CsrMatrix<u32> {
        // Fully dense symmetric matrix with value i*n+j.
        let mut t = Triples::new(n, n);
        for i in 0..n as Index {
            for j in 0..n as Index {
                t.push(i, j, 1);
            }
        }
        CsrMatrix::from_triples(t)
    }

    #[test]
    fn spadd_union_and_combine() {
        let a = CsrMatrix::from_triples(Triples::from_entries(
            2,
            3,
            vec![(0, 0, 1u32), (0, 2, 2), (1, 1, 3)],
        ));
        let b =
            CsrMatrix::from_triples(Triples::from_entries(2, 3, vec![(0, 2, 10u32), (1, 0, 20)]));
        let c = spadd(&a, &b, |x, y| *x += y);
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(0, 2), Some(&12));
        assert_eq!(c.get(1, 0), Some(&20));
        assert_eq!(c.get(1, 1), Some(&3));
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn spadd_with_empty_is_identity() {
        let a = CsrMatrix::from_triples(Triples::from_entries(2, 2, vec![(1, 1, 5u8)]));
        let e = CsrMatrix::empty(2, 2);
        assert_eq!(spadd(&a, &e, |_, _| unreachable!()), a);
        assert_eq!(spadd(&e, &a, |_, _| unreachable!()), a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn spadd_shape_mismatch() {
        let a: CsrMatrix<u8> = CsrMatrix::empty(2, 2);
        let b: CsrMatrix<u8> = CsrMatrix::empty(2, 3);
        let _ = spadd(&a, &b, |_, _| ());
    }

    #[test]
    fn spadd_into_matches_spadd() {
        let a = CsrMatrix::from_triples(Triples::from_entries(
            3,
            4,
            vec![(0, 0, 1u32), (0, 2, 2), (1, 1, 3), (2, 3, 4)],
        ));
        let b = CsrMatrix::from_triples(Triples::from_entries(
            3,
            4,
            vec![(0, 2, 10u32), (1, 0, 20), (2, 3, 30)],
        ));
        let by_ref = spadd(&a, &b, |x, y| *x += y);
        let by_move = spadd_into(a, b, |x, y| *x += y);
        assert_eq!(by_ref, by_move);
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
    fn triangular_parts_partition_offdiagonal() {
        let m = dense_sym(5);
        let up = triu_strict(&m);
        let lo = tril_strict(&m);
        assert_eq!(up.nnz(), 10);
        assert_eq!(lo.nnz(), 10);
        assert_eq!(up.nnz() + lo.nnz() + 5, m.nnz());
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

/// Extract an arbitrary submatrix `A[rows, cols]` (the CombBLAS `SpRef`):
/// row `i` of the result is `A[rows[i], ·]` restricted and renumbered to
/// `cols`. Index lists may repeat and reorder rows; `cols` must be strictly
/// ascending (the common case; general column permutation would break CSR
/// ordering invariants cheaply exploited here).
pub fn spref<T: Clone>(m: &CsrMatrix<T>, rows: &[Index], cols: &[Index]) -> CsrMatrix<T> {
    assert!(
        cols.windows(2).all(|w| w[0] < w[1]),
        "SpRef column list must be strictly ascending"
    );
    assert!(
        rows.iter().all(|&r| (r as usize) < m.nrows()),
        "SpRef row index out of range"
    );
    assert!(
        cols.iter().all(|&c| (c as usize) < m.ncols()),
        "SpRef column index out of range"
    );
    let mut rowptr = Vec::with_capacity(rows.len() + 1);
    rowptr.push(0usize);
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    for &r in rows {
        let (rc, rv) = m.row(r as usize);
        // Sorted-merge the row's columns against the requested columns.
        let (mut p, mut q) = (0usize, 0usize);
        while p < rc.len() && q < cols.len() {
            match rc[p].cmp(&cols[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    colind.push(q as Index);
                    vals.push(rv[p].clone());
                    p += 1;
                    q += 1;
                }
            }
        }
        rowptr.push(colind.len());
    }
    CsrMatrix::from_parts(rows.len(), cols.len(), rowptr, colind, vals)
}

/// Element-wise (Hadamard) product under a semiring's `multiply`: the
/// output keeps only coordinates stored in *both* operands (the CombBLAS
/// `SpEWiseMult`, used for masking one matrix by another's pattern).
pub fn spewise_mult<S: crate::semiring::Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> CsrMatrix<S::C> {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "SpEWiseMult shape mismatch"
    );
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        while p < ac.len() && q < bc.len() {
            match ac[p].cmp(&bc[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    colind.push(ac[p]);
                    vals.push(sr.multiply(&av[p], &bv[q]));
                    p += 1;
                    q += 1;
                }
            }
        }
        rowptr.push(colind.len());
    }
    CsrMatrix::from_parts(a.nrows(), a.ncols(), rowptr, colind, vals)
}

/// The stored main-diagonal entries `(i, A[i,i])`.
pub fn diagonal<T: Clone>(m: &CsrMatrix<T>) -> Vec<(Index, T)> {
    (0..m.nrows().min(m.ncols()))
        .filter_map(|i| m.get(i, i).map(|v| (i as Index, v.clone())))
        .collect()
}

#[cfg(test)]
mod spref_tests {
    use super::*;
    use crate::semiring::PlusTimes;
    use crate::triples::Triples;

    fn sample() -> CsrMatrix<f64> {
        CsrMatrix::from_triples(Triples::from_entries(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 3, 5.0),
                (3, 3, 6.0),
            ],
        ))
    }

    #[test]
    fn spref_extracts_and_renumbers() {
        let m = sample();
        let s = spref(&m, &[2, 0], &[0, 3]);
        assert_eq!((s.nrows(), s.ncols()), (2, 2));
        assert_eq!(s.get(0, 0), Some(&4.0)); // old (2,0)
        assert_eq!(s.get(0, 1), Some(&5.0)); // old (2,3)
        assert_eq!(s.get(1, 0), Some(&1.0)); // old (0,0)
        assert_eq!(s.get(1, 1), None); // old (0,3) empty
    }

    #[test]
    fn spref_repeats_rows() {
        let m = sample();
        let s = spref(&m, &[1, 1, 1], &[0, 1, 2, 3]);
        assert_eq!(s.nnz(), 3);
        for i in 0..3 {
            assert_eq!(s.get(i, 1), Some(&3.0));
        }
    }

    #[test]
    fn spref_identity_selection_is_identity() {
        let m = sample();
        let all: Vec<Index> = (0..4).collect();
        assert_eq!(spref(&m, &all, &all), m);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn spref_rejects_unsorted_columns() {
        let m = sample();
        let _ = spref(&m, &[0], &[2, 0]);
    }

    #[test]
    fn ewise_mult_intersects_patterns() {
        let a = sample();
        let mask = CsrMatrix::from_triples(Triples::from_entries(
            4,
            4,
            vec![(0, 2, 10.0), (2, 3, 10.0), (1, 0, 10.0)],
        ));
        let c = spewise_mult(&PlusTimes::<f64>::new(), &a, &mask);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 2), Some(&20.0));
        assert_eq!(c.get(2, 3), Some(&50.0));
        assert_eq!(c.get(1, 0), None); // absent in a
    }

    #[test]
    fn diagonal_extraction() {
        let m = sample();
        let d = diagonal(&m);
        assert_eq!(d, vec![(0, 1.0), (1, 3.0), (3, 6.0)]);
    }
}
