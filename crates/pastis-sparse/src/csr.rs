//! Compressed sparse row (CSR) storage — the local compute format.
//!
//! All local SpGEMM kernels and the alignment-pair extraction iterate rows,
//! so blocks live in CSR between exchanges. Column indices within each row
//! are kept sorted and unique, which makes row merges, transposes, and
//! equality checks deterministic.

use crate::triples::{Index, Triples};

/// A sparse matrix in CSR format with sorted, duplicate-free rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<Index>,
    vals: Vec<T>,
}

impl<T> CsrMatrix<T> {
    /// An empty `nrows × ncols` matrix.
    pub fn empty(nrows: usize, ncols: usize) -> CsrMatrix<T> {
        CsrMatrix {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from parts. Debug-asserts the CSR invariants (monotone row
    /// pointers, sorted unique in-bounds columns).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<Index>,
        vals: Vec<T>,
    ) -> CsrMatrix<T> {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length mismatch");
        assert_eq!(colind.len(), vals.len(), "colind/vals length mismatch");
        assert_eq!(*rowptr.last().unwrap(), colind.len(), "rowptr end mismatch");
        debug_assert!(
            rowptr.windows(2).all(|w| w[0] <= w[1]),
            "rowptr not monotone"
        );
        debug_assert!(
            (0..nrows).all(|i| {
                let r = &colind[rowptr[i]..rowptr[i + 1]];
                r.windows(2).all(|w| w[0] < w[1]) && r.iter().all(|&c| (c as usize) < ncols)
            }),
            "row columns not sorted/unique/in-bounds"
        );
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[Index], &[T]) {
        let (s, e) = (self.rowptr[i], self.rowptr[i + 1]);
        (&self.colind[s..e], &self.vals[s..e])
    }

    /// Number of nonzeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Number of rows that contain at least one nonzero (relevant for
    /// hypersparsity decisions).
    pub fn nonempty_rows(&self) -> usize {
        (0..self.nrows).filter(|&i| self.row_nnz(i) > 0).count()
    }

    /// Value at `(i, j)` if stored.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&(j as Index)).ok().map(|k| &vals[k])
    }

    /// Iterate stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, &T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, v)| (i as Index, c, v))
        })
    }

    /// The raw row pointer array.
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Decompose into `(nrows, ncols, rowptr, colind, vals)`, consuming the
    /// matrix. The move-based counterpart of [`CsrMatrix::from_parts`]; lets
    /// kernels such as [`crate::spops::spadd_into`] reuse the backing storage
    /// without cloning values.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<Index>, Vec<T>) {
        (self.nrows, self.ncols, self.rowptr, self.colind, self.vals)
    }

    /// The row stripes `[bounds[s], bounds[s + 1])`, consuming the matrix
    /// (`bounds` runs from 0 to `nrows`). The stripes are split off its
    /// storage from the last one back, and what is left is shrunk after
    /// each, so the entries are held about once, not once in the matrix
    /// and once more in its stripes; one stripe is the matrix itself.
    pub fn into_row_stripes(self, bounds: &[usize]) -> Vec<CsrMatrix<T>> {
        assert!(
            bounds.len() >= 2
                && bounds[0] == 0
                && bounds[bounds.len() - 1] == self.nrows
                && bounds.windows(2).all(|w| w[0] <= w[1]),
            "row stripes must cover the rows in order"
        );
        if bounds.len() == 2 {
            return vec![self];
        }
        let CsrMatrix {
            ncols,
            rowptr,
            mut colind,
            mut vals,
            ..
        } = self;
        let mut stripes: Vec<CsrMatrix<T>> = bounds
            .windows(2)
            .rev()
            .map(|w| {
                let (start, end) = (w[0], w[1]);
                let base = rowptr[start];
                let (cols, vs) = if base == 0 {
                    (std::mem::take(&mut colind), std::mem::take(&mut vals))
                } else {
                    let tail = (colind.split_off(base), vals.split_off(base));
                    colind.shrink_to_fit();
                    vals.shrink_to_fit();
                    tail
                };
                CsrMatrix {
                    nrows: end - start,
                    ncols,
                    rowptr: rowptr[start..=end].iter().map(|p| p - base).collect(),
                    colind: cols,
                    vals: vs,
                }
            })
            .collect();
        stripes.reverse();
        stripes
    }

    /// Move `other`'s rows onto the end of this matrix, leaving `other`
    /// with no rows but with its buffers, for reuse. Both have the same
    /// columns; each value moves once.
    pub fn append_rows(&mut self, other: &mut CsrMatrix<T>) {
        assert_eq!(self.ncols, other.ncols, "appended rows have other columns");
        let base = self.colind.len();
        self.rowptr
            .extend(other.rowptr[1..].iter().map(|p| p + base));
        self.colind.append(&mut other.colind);
        self.vals.append(&mut other.vals);
        self.nrows += other.nrows;
        other.rowptr.truncate(1);
        other.nrows = 0;
    }
}

impl<T: Clone> CsrMatrix<T> {
    /// Build from triples; duplicate coordinates are a bug in the caller
    /// and panic. Use [`CsrMatrix::from_triples_combining`] to fold them.
    pub fn from_triples(t: Triples<T>) -> CsrMatrix<T> {
        Self::from_triples_combining(t, |_, _| panic!("duplicate coordinate in from_triples"))
    }

    /// Build from triples, folding duplicates with `combine`. Triples whose
    /// rows each arrive in ascending column order (sorted by either
    /// coordinate first, or the transpose of such a stream) are bucketed
    /// by row and never sorted.
    pub fn from_triples_combining(
        mut t: Triples<T>,
        combine: impl FnMut(&mut T, T),
    ) -> CsrMatrix<T> {
        let (nrows, ncols) = (t.nrows(), t.ncols());
        let mut last_col: Vec<Option<Index>> = vec![None; nrows];
        let in_order = t.entries.iter().all(|e| {
            let seen = last_col.get_mut(e.row as usize);
            seen.is_some_and(|seen| seen.replace(e.col) < Some(e.col))
        });
        if !in_order {
            t.combine_duplicates(combine);
        }
        // Counted one slot late, as in `transpose`: `rowptr[i + 1]` is row
        // `i`'s cursor until the row is full. A stable scatter by row; the
        // identity on entries `combine_duplicates` left row-major sorted.
        let mut rowptr = vec![0usize; nrows + 2];
        for e in &t.entries {
            rowptr[e.row as usize + 2] += 1;
        }
        for i in 2..rowptr.len() {
            rowptr[i] += rowptr[i - 1];
        }
        let mut colind = vec![0 as Index; t.entries.len()];
        // Every slot is overwritten; the copies stand in for
        // uninitialised storage.
        let mut vals: Vec<T> = t.entries.iter().map(|e| e.val.clone()).collect();
        for e in t.entries {
            let slot = &mut rowptr[e.row as usize + 1];
            (colind[*slot], vals[*slot]) = (e.col, e.val);
            *slot += 1;
        }
        rowptr.pop();
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Convert back to triples.
    pub fn to_triples(&self) -> Triples<T> {
        let mut t = Triples::new(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            t.push(i, j, v.clone());
        }
        t
    }

    /// Transpose (O(nnz + dims) counting transpose; output rows sorted).
    pub fn transpose(&self) -> CsrMatrix<T> {
        // Counted one slot late, `rowptr[c + 1]` is where output row `c`
        // starts; filling the row advances it to where row `c + 1` starts,
        // which is what a row pointer holds there.
        let mut rowptr = vec![0usize; self.ncols + 2];
        for &c in &self.colind {
            rowptr[c as usize + 2] += 1;
        }
        for i in 2..rowptr.len() {
            rowptr[i] += rowptr[i - 1];
        }
        let mut colind = vec![0 as Index; self.nnz()];
        // Every slot is overwritten; the copy stands in for uninitialised
        // storage.
        let mut vals = self.vals.clone();
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            for (&c, v) in cols.iter().zip(rvals) {
                let slot = &mut rowptr[c as usize + 1];
                (colind[*slot], vals[*slot]) = (i as Index, v.clone());
                *slot += 1;
            }
        }
        rowptr.pop();
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colind,
            vals,
        }
    }

    /// Extract rows `[start, end)` as a new `(end−start) × ncols` matrix
    /// (row indices renumbered; column space unchanged).
    pub fn extract_rows(&self, start: usize, end: usize) -> CsrMatrix<T> {
        assert!(start <= end && end <= self.nrows, "row range out of bounds");
        let base = self.rowptr[start];
        let rowptr: Vec<usize> = self.rowptr[start..=end].iter().map(|p| p - base).collect();
        CsrMatrix {
            nrows: end - start,
            ncols: self.ncols,
            rowptr,
            colind: self.colind[base..self.rowptr[end]].to_vec(),
            vals: self.vals[base..self.rowptr[end]].to_vec(),
        }
    }

    /// Keep entries satisfying the predicate (the CombBLAS `Prune`).
    pub fn prune(&self, mut keep: impl FnMut(Index, Index, &T) -> bool) -> CsrMatrix<T> {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            for (&c, v) in cols.iter().zip(rvals) {
                if keep(i as Index, c, v) {
                    colind.push(c);
                    vals.push(v.clone());
                }
            }
            rowptr.push(colind.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Map values, preserving structure (the CombBLAS `Apply`).
    pub fn map<U: Clone>(&self, f: impl FnMut(&T) -> U) -> CsrMatrix<U> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colind: self.colind.clone(),
            vals: self.vals.iter().map(f).collect(),
        }
    }

    /// Approximate in-memory payload size in bytes (used for broadcast
    /// cost accounting).
    pub fn payload_bytes(&self) -> usize {
        crate::csr_payload_bytes(self.nrows, self.nnz(), std::mem::size_of::<T>())
    }
}

impl<T: Copy + Default> CsrMatrix<T> {
    /// Extract columns `[start, end)` as a new `nrows × (end−start)` matrix
    /// (column indices renumbered).
    pub fn extract_cols(&self, start: usize, end: usize) -> CsrMatrix<T> {
        let bounds = [start, end];
        let mut stripes = self.col_stripes(&bounds);
        stripes.next().expect("two bounds make one stripe")
    }

    /// The column stripes `[bounds[s], bounds[s + 1])` in order, each built
    /// when the iterator is asked for it (a caller that drops one before
    /// taking the next holds one at a time). A stripe is one flat pass over
    /// the entries, keeping those in range and counting the kept ones
    /// before each entry, then one gather of those counts at the row
    /// boundaries: no loop per row and no branch per entry, which rows of
    /// one or two entries (a transposed k-mer matrix) would pay for.
    pub fn col_stripes<'a>(
        &'a self,
        bounds: &'a [usize],
    ) -> impl Iterator<Item = CsrMatrix<T>> + 'a {
        let mut kept_before = vec![0usize; self.nnz() + 1];
        bounds.windows(2).map(move |w| {
            let (start, end) = (w[0], w[1]);
            assert!(
                start <= end && end <= self.ncols,
                "column range out of bounds"
            );
            if (start, end) == (0, self.ncols) {
                return self.clone();
            }
            let inside = |c: Index| (start..end).contains(&(c as usize));
            let kept = self.colind.iter().filter(|&&c| inside(c)).count();
            // Every entry is written at the cursor and only a kept one
            // moves it; the slot past the end takes the rest.
            let mut colind = vec![0 as Index; kept + 1];
            let mut vals = vec![T::default(); kept + 1];
            let mut at = 0;
            for (j, (&c, &v)) in self.colind.iter().zip(&self.vals).enumerate() {
                (colind[at], vals[at]) = (c.wrapping_sub(start as Index), v);
                at += usize::from(inside(c));
                kept_before[j + 1] = at;
            }
            colind.truncate(kept);
            vals.truncate(kept);
            CsrMatrix {
                nrows: self.nrows,
                ncols: end - start,
                rowptr: self.rowptr.iter().map(|&p| kept_before[p]).collect(),
                colind,
                vals,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triples(Triples::from_entries(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        ))
    }

    #[test]
    fn from_triples_builds_sorted_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).0, &[0, 2]);
        assert_eq!(m.row(1).0, &[] as &[Index]);
        assert_eq!(m.row(2).0, &[0, 1]);
        assert_eq!(m.get(2, 1), Some(&4.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.nonempty_rows(), 2);
    }

    #[test]
    fn triples_roundtrip() {
        let m = sample();
        let back = CsrMatrix::from_triples(m.to_triples());
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "duplicate coordinate")]
    fn duplicates_panic_without_combiner() {
        CsrMatrix::from_triples(Triples::from_entries(1, 1, vec![(0, 0, 1.0), (0, 0, 2.0)]));
    }

    #[test]
    fn duplicates_combined() {
        let m = CsrMatrix::from_triples_combining(
            Triples::from_entries(1, 2, vec![(0, 1, 1u32), (0, 1, 41)]),
            |a, b| *a += b,
        );
        assert_eq!(m.get(0, 1), Some(&42));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_entries() {
        let t = sample().transpose();
        assert_eq!((t.nrows(), t.ncols()), (3, 3));
        assert_eq!(t.get(0, 0), Some(&1.0));
        assert_eq!(t.get(0, 2), Some(&3.0));
        assert_eq!(t.get(1, 2), Some(&4.0));
        assert_eq!(t.get(2, 0), Some(&2.0));
    }

    #[test]
    fn extract_rows_window() {
        let m = sample();
        let sub = m.extract_rows(1, 3);
        assert_eq!((sub.nrows(), sub.ncols()), (2, 3));
        assert_eq!(sub.get(1, 0), Some(&3.0));
        assert_eq!(sub.nnz(), 2);
        let empty = m.extract_rows(1, 1);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn into_row_stripes_equal_extract_rows() {
        // Stripes of every width, empty ones and empty rows included.
        for bounds in [
            vec![0, 3],
            vec![0, 1, 3],
            vec![0, 0, 2, 2, 3],
            vec![0, 1, 2, 3],
            vec![0, 3, 3],
        ] {
            let want: Vec<_> = bounds
                .windows(2)
                .map(|w| sample().extract_rows(w[0], w[1]))
                .collect();
            assert_eq!(sample().into_row_stripes(&bounds), want, "{bounds:?}");
            let mut back = CsrMatrix::empty(0, 3);
            for mut stripe in want {
                back.append_rows(&mut stripe);
                assert_eq!(stripe, CsrMatrix::empty(0, 3));
            }
            assert_eq!(back, sample(), "{bounds:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cover the rows")]
    fn into_row_stripes_refuses_a_partial_cover() {
        sample().into_row_stripes(&[0, 2]);
    }

    #[test]
    fn extract_cols_window() {
        let m = sample();
        let sub = m.extract_cols(1, 3);
        assert_eq!((sub.nrows(), sub.ncols()), (3, 2));
        assert_eq!(sub.get(0, 1), Some(&2.0));
        assert_eq!(sub.get(2, 0), Some(&4.0));
        assert_eq!(sub.nnz(), 2);
    }

    #[test]
    fn triples_in_any_order_build_the_same_matrix() {
        // Row-major and column-major streams keep each row's columns
        // ascending and are bucketed; a reversed stream is sorted first.
        let entries = vec![(0, 1, 5u32), (0, 3, 6), (2, 0, 7), (2, 1, 8), (2, 3, 9)];
        let build =
            |e: Vec<(Index, Index, u32)>| CsrMatrix::from_triples(Triples::from_entries(3, 4, e));
        let row_major = build(entries.clone());
        let mut by_col = entries.clone();
        by_col.sort_by_key(|e| (e.1, e.0));
        assert_eq!(build(by_col), row_major);
        assert_eq!(build(entries.into_iter().rev().collect()), row_major);
        assert_eq!(row_major.row(2), (&[0, 1, 3][..], &[7, 8, 9][..]));
        assert_eq!(row_major.rowptr(), &[0, 2, 2, 5]);
    }

    #[test]
    fn col_stripes_keep_each_range_in_order() {
        // Rows of none, one and several entries; stripes of every width,
        // empty ones included, and a cut that does not start at column 0.
        let t = Triples::from_entries(
            5,
            7,
            vec![
                (0, 0, 1u32),
                (0, 3, 2),
                (0, 6, 3),
                (2, 2, 4),
                (3, 1, 5),
                (3, 2, 6),
                (3, 3, 7),
                (3, 4, 8),
                (4, 6, 9),
            ],
        );
        let m = CsrMatrix::from_triples(t);
        for bounds in [
            vec![0, 7],
            vec![0, 3, 5, 7],
            vec![0, 0, 1, 1, 7, 7],
            vec![2, 4, 6],
            (0..=7).collect(),
        ] {
            let stripes: Vec<CsrMatrix<u32>> = m.col_stripes(&bounds).collect();
            let want: Vec<CsrMatrix<u32>> = bounds
                .windows(2)
                .map(|w| {
                    let inside = m.iter().filter(|e| (w[0]..w[1]).contains(&(e.1 as usize)));
                    let entries = inside.map(|(i, j, &v)| (i, j - w[0] as Index, v)).collect();
                    CsrMatrix::from_triples(Triples::from_entries(5, w[1] - w[0], entries))
                })
                .collect();
            assert_eq!(stripes, want, "bounds {bounds:?}");
        }
        let empty = CsrMatrix::<u32>::empty(3, 4);
        let stripes: Vec<_> = empty.col_stripes(&[0, 2, 4]).collect();
        assert_eq!(
            stripes,
            vec![CsrMatrix::empty(3, 2), CsrMatrix::empty(3, 2)]
        );
    }

    #[test]
    fn prune_keeps_predicate() {
        let m = sample();
        let diag = m.prune(|i, j, _| i == j);
        assert_eq!(diag.nnz(), 1);
        assert_eq!(diag.get(0, 0), Some(&1.0));
    }

    #[test]
    fn map_changes_values_only() {
        let m = sample();
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.get(2, 1), Some(&8.0));
        assert_eq!(doubled.nnz(), m.nnz());
    }

    #[test]
    fn empty_matrix() {
        let m: CsrMatrix<u8> = CsrMatrix::empty(0, 0);
        assert_eq!(m.nnz(), 0);
        let m2: CsrMatrix<u8> = CsrMatrix::empty(5, 5);
        assert_eq!(m2.row(4).0.len(), 0);
    }

    #[test]
    fn payload_bytes_monotone_in_nnz() {
        let small = CsrMatrix::from_triples(Triples::from_entries(2, 2, vec![(0, 0, 1.0f64)]));
        let large = sample();
        assert!(large.payload_bytes() > small.payload_bytes());
    }
}
