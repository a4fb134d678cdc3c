//! Coordinate (COO) sparse-matrix form.
//!
//! Triples are the interchange format of the substrate: distributed
//! shuffles, file I/O, and format conversions all pass through them, exactly
//! as CombBLAS uses tuples for its `SpAsgn`/IO paths. Row/column indices are
//! `u32` — PASTIS's production run has 405·10⁶ sequences and 244·10⁶ k-mer
//! columns, both below `u32::MAX`.

/// Row/column index type of every sparse matrix in the substrate.
pub type Index = u32;

/// One nonzero element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple<T> {
    /// Row index.
    pub row: Index,
    /// Column index.
    pub col: Index,
    /// Stored value.
    pub val: T,
}

/// A sparse matrix in coordinate form: explicit dimensions plus an
/// unordered list of entries (duplicates allowed until a conversion
/// combines them).
#[derive(Debug, Clone, PartialEq)]
pub struct Triples<T> {
    nrows: usize,
    ncols: usize,
    /// The entries; ordering is not significant.
    pub entries: Vec<Triple<T>>,
}

impl<T> Triples<T> {
    /// An empty matrix of the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Triples<T> {
        assert!(
            nrows <= Index::MAX as usize && ncols <= Index::MAX as usize,
            "matrix dimension exceeds Index range"
        );
        Triples {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Build from `(row, col, val)` tuples.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_entries(nrows: usize, ncols: usize, entries: Vec<(Index, Index, T)>) -> Triples<T> {
        let mut t = Triples::new(nrows, ncols);
        for (row, col, val) in entries {
            t.push(row, col, val);
        }
        t
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Append an entry, checking bounds.
    pub fn push(&mut self, row: Index, col: Index, val: T) {
        assert!(
            (row as usize) < self.nrows && (col as usize) < self.ncols,
            "entry ({row}, {col}) out of bounds for {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.entries.push(Triple { row, col, val });
    }

    /// Sort entries into row-major (row, then column) order. Duplicate
    /// coordinates stay adjacent in insertion order (stable sort).
    pub fn sort_row_major(&mut self) {
        self.entries.sort_by_key(|e| (e.row, e.col));
    }

    /// Sort entries into column-major (column, then row) order.
    pub fn sort_col_major(&mut self) {
        self.entries.sort_by_key(|a| (a.col, a.row));
    }

    /// Combine duplicate coordinates with `combine(acc, incoming)`,
    /// left-to-right in current entry order after a stable row-major sort.
    pub fn combine_duplicates(&mut self, mut combine: impl FnMut(&mut T, T)) {
        self.sort_row_major();
        let mut out: Vec<Triple<T>> = Vec::with_capacity(self.entries.len());
        for t in self.entries.drain(..) {
            match out.last_mut() {
                Some(last) if last.row == t.row && last.col == t.col => {
                    combine(&mut last.val, t.val);
                }
                _ => out.push(t),
            }
        }
        self.entries = out;
    }

    /// Map values, preserving structure.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Triples<U> {
        Triples {
            nrows: self.nrows,
            ncols: self.ncols,
            entries: self
                .entries
                .into_iter()
                .map(|t| Triple {
                    row: t.row,
                    col: t.col,
                    val: f(t.val),
                })
                .collect(),
        }
    }

    /// Swap rows and columns (transpose in COO form, O(nnz)).
    pub fn transpose(self) -> Triples<T> {
        Triples {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self
                .entries
                .into_iter()
                .map(|t| Triple {
                    row: t.col,
                    col: t.row,
                    val: t.val,
                })
                .collect(),
        }
    }

    /// Keep only entries satisfying the predicate.
    pub fn retain(&mut self, mut pred: impl FnMut(Index, Index, &T) -> bool) {
        self.entries.retain(|t| pred(t.row, t.col, &t.val));
    }
}

impl<T: Clone> Triples<T> {
    /// Entries as `(row, col, val)` tuples, row-major sorted — convenient
    /// for comparisons in tests.
    pub fn to_sorted_tuples(&self) -> Vec<(Index, Index, T)> {
        let mut v: Vec<(Index, Index, T)> = self
            .entries
            .iter()
            .map(|t| (t.row, t.col, t.val.clone()))
            .collect();
        v.sort_by_key(|t| (t.0, t.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_dims() {
        let mut t = Triples::new(3, 4);
        t.push(0, 0, 1.0);
        t.push(2, 3, 2.0);
        assert_eq!(t.nnz(), 2);
        assert_eq!((t.nrows(), t.ncols()), (3, 4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut t = Triples::new(2, 2);
        t.push(2, 0, 1u8);
    }

    #[test]
    fn combine_duplicates_sums() {
        let mut t =
            Triples::from_entries(2, 2, vec![(0, 1, 2u32), (1, 0, 5), (0, 1, 3), (0, 1, 1)]);
        t.combine_duplicates(|a, b| *a += b);
        assert_eq!(t.to_sorted_tuples(), vec![(0, 1, 6), (1, 0, 5)]);
    }

    #[test]
    fn combine_is_left_to_right_in_insertion_order() {
        // combine keeps the first value's slot; check order sensitivity.
        let mut t = Triples::from_entries(1, 1, vec![(0, 0, "a"), (0, 0, "b")]);
        let mut seen = Vec::new();
        t.combine_duplicates(|acc, inc| {
            seen.push((*acc, inc));
        });
        assert_eq!(seen, vec![("a", "b")]);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let t = Triples::from_entries(2, 3, vec![(0, 2, 7u8), (1, 0, 9)]);
        let tt = t.transpose();
        assert_eq!((tt.nrows(), tt.ncols()), (3, 2));
        assert_eq!(tt.to_sorted_tuples(), vec![(0, 1, 9), (2, 0, 7)]);
    }

    #[test]
    fn sort_orders() {
        let mut t = Triples::from_entries(2, 2, vec![(1, 0, 1u8), (0, 1, 2), (0, 0, 3)]);
        t.sort_row_major();
        let rows: Vec<_> = t.entries.iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(rows, vec![(0, 0), (0, 1), (1, 0)]);
        t.sort_col_major();
        let cols: Vec<_> = t.entries.iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(cols, vec![(0, 0), (1, 0), (0, 1)]);
    }

    #[test]
    fn row_major_sort_is_stable() {
        // Duplicates of a coordinate keep their insertion order.
        let mut state = 7u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m) as Index
        };
        let mut t = Triples::new(5, 4);
        for k in 0..60 {
            t.push(next(5), next(4), k);
        }
        t.sort_row_major();
        let keys: Vec<_> = t.entries.iter().map(|e| (e.row, e.col, e.val)).collect();
        assert!(keys.is_sorted(), "{keys:?}");
    }

    #[test]
    fn retain_filters() {
        let mut t = Triples::from_entries(3, 3, vec![(0, 0, 1u8), (1, 1, 2), (2, 2, 3)]);
        t.retain(|r, c, _| r == c && r > 0);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn map_preserves_structure() {
        let t = Triples::from_entries(2, 2, vec![(0, 1, 2u32)]);
        let m = t.map(|v| v as f64 * 0.5);
        assert_eq!(m.to_sorted_tuples(), vec![(0, 1, 1.0)]);
    }
}
