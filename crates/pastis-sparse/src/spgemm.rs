//! Semiring-generic local SpGEMM kernels.
//!
//! Gustavson's row-wise algorithm, mirroring the CPU kernels CombBLAS
//! draws on (Nagasaka et al., ICPP'18 — the paper's reference [20]):
//!
//! * [`spgemm_hash`] — the serial **row kernel**: one output row at a time
//!   through a per-worker accumulator. The same per-row function serves the
//!   row-partitioned parallel kernel ([`crate::spgemm_parallel`]) and,
//!   through [`crate::SpGemmPool::visit`], SUMMA and the serving path.
//! * [`spgemm_heap`] — k-way merge with a binary heap; wins only when very
//!   few `B` rows meet in each output row. Its per-row merge is a third
//!   mode of the same per-row function, so the pool's chunk driver runs it
//!   too.
//!
//! # The row kernel's accumulator
//!
//! What Section V-B calls the compression factor (products per output
//! nonzero) decides what an accumulator should be good at, and the kernel
//! picks from what it can see in its operands — never from a flag:
//!
//! * **Dense array** when `b.ncols() × size_of::<S::Slot>()` is at most
//!   1 MiB, i.e. the array stays cache-resident while a row accumulates:
//!   every blocked run, every serve stripe, every benchmark workload. One
//!   slot per column of `B`; a product finds its slot by index, with no
//!   hashing and no probing. The slot is the semiring's own type
//!   ([`Semiring::Slot`]): `Option<C>` over `multiply` + `combine` for
//!   every semiring of this crate, a 32-byte count-and-seeds cell for the
//!   overlap semiring, which folds a product in without a branch. The
//!   product loop has none of its own either: it writes the column to the
//!   touched list unconditionally and advances the list's cursor by the
//!   slot's "was empty" answer. The row is then drained
//!   * by an **in-order scan** of the slots when it touched at least a
//!     quarter of the columns (the reduced-alphabet regime: Murphy-10,
//!     k = 5 on 4×4 blocks has rows 79% dense at compression 3.2 — one pass
//!     over 1000 slots replaces a sort of 785 columns), or
//!   * by **sorting the touched-column list** (a `u32` sort) when it is
//!     sparse (20-letter alphabet, k = 6: about 16 of 4000 columns per
//!     row).
//! * **Open-addressing table** when `B` is wider than that (an unblocked
//!   product over millions of sequences): its footprint follows the row,
//!   not the matrix. Drained by sorting the occupied slots by key.
//!
//! Measured on this host (`results/kernel_spgemm.txt`): 17 → 10 ns per
//! product in the near-dense regime, 5.7 → 4.3 in the sparse one, against
//! the table-with-tuple-sort kernel this replaced; the overlap semiring's
//! own slot then takes the near-dense regime from 11 to 5.8.
//!
//! All kernels are deterministic: products are folded in ascending inner
//! index (`k`) order for each output coordinate — Gustavson's loop order
//! fixes that, whichever accumulator holds the partial sums — so custom
//! non-commutative accumulations (like PASTIS's seed-position capture)
//! give identical results regardless of kernel, accumulator or thread
//! count — a property the tests pin down. A slot is bound by the same
//! law ([`crate::AccSlot`]): [`spgemm_heap`], ESC, the table accumulator
//! and SpAdd never see one and keep calling `multiply` and `combine`,
//! which makes them the independent route the slots are tested against.
//!
//! The kernels also report [`SpGemmStats`]: the number of semiring products
//! (`flops` in the paper's terminology) and merged output nonzeros, whose
//! ratio is the compression factor.

use std::collections::BinaryHeap;

use crate::csr::CsrMatrix;
use crate::semiring::{AccSlot, Semiring};
use crate::triples::Index;

/// Work counters from one SpGEMM invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpGemmStats {
    /// Semiring `multiply` invocations (the flops of the multiplication).
    pub products: u64,
    /// Nonzeros in the output (after `combine` merging).
    pub merged_nnz: u64,
}

impl SpGemmStats {
    /// The compression factor: intermediate products per output nonzero
    /// (Section V-B; "even with a modest value between 1 and 10 … memory
    /// management must be given special attention").
    pub fn compression_factor(&self) -> f64 {
        if self.merged_nnz == 0 {
            0.0
        } else {
            self.products as f64 / self.merged_nnz as f64
        }
    }

    /// Accumulate another invocation's counters.
    pub fn merge(&mut self, other: SpGemmStats) {
        self.products += other.products;
        self.merged_nnz += other.merged_nnz;
    }
}

/// Which local kernel multiplies a SUMMA stage's blocks (`--spgemm`).
///
/// Every choice yields bit-identical output — the kernels share one
/// combine-order contract (ascending inner index `k` per output
/// coordinate) — so the policy only ever changes wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpGemmKind {
    /// Heuristic choice per multiplication (see
    /// [`crate::parallel::SpGemmPool`]): the parallel kernel when the pool
    /// has more than one worker and enough rows to amortize chunk claims;
    /// otherwise heap for low merge fan-in, hash for high.
    #[default]
    Auto,
    /// Always the serial row kernel ([`spgemm_hash`]).
    Hash,
    /// Always the serial heap (k-way merge) kernel ([`spgemm_heap`]).
    Heap,
    /// Always the row-partitioned parallel kernel
    /// ([`crate::spgemm_parallel`]).
    Parallel,
}

impl SpGemmKind {
    /// Parse a `--spgemm` value: `auto`, `hash`, `heap`, `parallel`.
    pub fn parse(s: &str) -> Result<SpGemmKind, String> {
        match s {
            "auto" => Ok(SpGemmKind::Auto),
            "hash" => Ok(SpGemmKind::Hash),
            "heap" => Ok(SpGemmKind::Heap),
            "parallel" => Ok(SpGemmKind::Parallel),
            other => Err(format!(
                "unknown SpGEMM kernel '{other}' (expected auto|hash|heap|parallel)"
            )),
        }
    }

    /// Telemetry counter bumped when this concrete kernel runs.
    pub(crate) fn counter_name(self) -> &'static str {
        match self {
            SpGemmKind::Auto => pastis_trace::names::CTR_SPGEMM_KERNEL_AUTO,
            SpGemmKind::Hash => pastis_trace::names::CTR_SPGEMM_KERNEL_HASH,
            SpGemmKind::Heap => pastis_trace::names::CTR_SPGEMM_KERNEL_HEAP,
            SpGemmKind::Parallel => pastis_trace::names::CTR_SPGEMM_KERNEL_PARALLEL,
        }
    }

    /// The flag spelling this kind parses from.
    pub fn name(self) -> &'static str {
        match self {
            SpGemmKind::Auto => "auto",
            SpGemmKind::Hash => "hash",
            SpGemmKind::Heap => "heap",
            SpGemmKind::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for SpGemmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const EMPTY: Index = Index::MAX;

/// Largest dense accumulator the row kernel will use, in bytes of
/// `B`-column slots (`b.ncols() × size_of::<S::Slot>()`). Under it the
/// array stays cache-resident while a row is accumulated (an L2's worth);
/// a wider `B` goes through the open-addressing table, whose footprint
/// follows the row instead of the matrix.
pub(crate) const DENSE_ACC_LIMIT_BYTES: usize = 1 << 20;

/// Which accumulator the row kernel ran, counted in rows of `A` — the
/// telemetry `SpGemmPool::multiply` reports as `spgemm.acc.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AccStats {
    /// Rows accumulated in the dense array (either drain).
    pub(crate) dense_rows: u64,
    /// Of those, rows drained by the in-order scan.
    pub(crate) scan_rows: u64,
    /// Rows accumulated in the open-addressing table.
    pub(crate) table_rows: u64,
}

impl AccStats {
    pub(crate) fn merge(&mut self, other: AccStats) {
        self.dense_rows += other.dense_rows;
        self.scan_rows += other.scan_rows;
        self.table_rows += other.table_rows;
    }
}

/// Open-addressing (linear probing) accumulator keyed by column index:
/// collects one output row, then drains it sorted. The row kernel's
/// accumulator when `B` is too wide for a dense array.
struct HashAccumulator<C> {
    keys: Vec<Index>,
    vals: Vec<Option<C>>,
    occupied: Vec<u32>,
    mask: usize,
}

impl<C> HashAccumulator<C> {
    fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(4) * 2).next_power_of_two();
        HashAccumulator {
            keys: vec![EMPTY; cap],
            vals: (0..cap).map(|_| None).collect(),
            occupied: Vec::with_capacity(expected),
            mask: cap - 1,
        }
    }

    fn grow(&mut self) {
        let mut bigger = HashAccumulator::<C>::with_capacity(self.mask + 1);
        for &slot in &self.occupied {
            let key = self.keys[slot as usize];
            let val = self.vals[slot as usize]
                .take()
                .expect("occupied slot empty");
            bigger.insert_fresh(key, val);
        }
        *self = bigger;
    }

    #[inline]
    fn probe(&self, key: Index) -> usize {
        // Multiplicative hash; the table is power-of-two sized.
        let mut slot = (key as u64).wrapping_mul(0x9E3779B97F4A7C15) as usize & self.mask;
        loop {
            let k = self.keys[slot];
            if k == key || k == EMPTY {
                return slot;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn insert_fresh(&mut self, key: Index, val: C) {
        let slot = self.probe(key);
        debug_assert_eq!(self.keys[slot], EMPTY);
        self.keys[slot] = key;
        self.vals[slot] = Some(val);
        self.occupied.push(slot as u32);
    }

    /// Insert or combine.
    #[inline]
    fn upsert<S: Semiring<C = C>>(&mut self, sr: &S, key: Index, val: C) {
        if self.occupied.len() * 2 > self.mask + 1 {
            self.grow();
        }
        let slot = self.probe(key);
        if self.keys[slot] == key {
            let acc = self.vals[slot].as_mut().expect("occupied slot empty");
            sr.combine(acc, val);
        } else {
            self.keys[slot] = key;
            self.vals[slot] = Some(val);
            self.occupied.push(slot as u32);
        }
    }

    /// Drain the row sorted by column, resetting the accumulator: the
    /// occupied slots are ordered by their key and emptied in that order.
    fn drain_sorted(&mut self, cols: &mut Vec<Index>, vals: &mut Vec<C>) {
        let keys = &mut self.keys;
        self.occupied
            .sort_unstable_by_key(|&slot| keys[slot as usize]);
        cols.reserve(self.occupied.len());
        vals.reserve(self.occupied.len());
        for slot in self.occupied.drain(..) {
            cols.push(std::mem::replace(&mut keys[slot as usize], EMPTY));
            vals.push(
                self.vals[slot as usize]
                    .take()
                    .expect("occupied slot empty"),
            );
        }
    }
}

/// One worker's state for the per-row function, kept for every row and
/// chunk of a multiply: the dense accumulator, the table for a `B` too
/// wide for it, or the heap kernel's merge.
///
/// The dense accumulator is one [`Semiring::Slot`] per column of `B`.
/// Draining a row `take`s every live slot, so all slots are empty between
/// rows and nothing is cleared. `touched` is a fixed buffer of
/// `b.ncols() + 1` columns: the row's live columns in discovery order,
/// then one entry of slack for the unconditional writes below.
pub(crate) struct RowScratch<S: Semiring> {
    accumulator: Accumulator<S>,
    touched: Vec<Index>,
    /// Rows per accumulator since this scratch was created.
    pub(crate) acc: AccStats,
}

enum Accumulator<S: Semiring> {
    /// One slot per column of `B`.
    Dense(Vec<S::Slot>),
    Table(HashAccumulator<S::C>),
    /// No accumulator: [`spgemm_heap`]'s ordered merge.
    Heap(HeapMerge),
}

impl<S: Semiring> RowScratch<S> {
    /// A scratch for products with a `B` of `ncols` columns: the dense
    /// accumulator iff its slots fit `dense_limit` bytes. A property of
    /// the operand alone, so every worker and every entry point agree.
    pub(crate) fn new(ncols: usize, dense_limit: usize) -> Self {
        let dense = ncols.saturating_mul(std::mem::size_of::<S::Slot>()) <= dense_limit;
        let (accumulator, touched) = if dense {
            let slots = (0..ncols).map(|_| S::Slot::empty()).collect();
            (Accumulator::Dense(slots), vec![0; ncols + 1])
        } else {
            let table = HashAccumulator::with_capacity(16);
            (Accumulator::Table(table), Vec::new())
        };
        RowScratch {
            accumulator,
            touched,
            acc: AccStats::default(),
        }
    }

    /// A scratch for [`spgemm_heap`]'s per-row merge, which folds with
    /// `multiply` + `combine` and never sees a slot.
    pub(crate) fn heap() -> Self {
        RowScratch {
            accumulator: Accumulator::Heap(HeapMerge::default()),
            touched: Vec::new(),
            acc: AccStats::default(),
        }
    }

    /// Compute output row `i` of `A ⊗ B`, appending the sorted row to
    /// `colind`/`vals` and updating `stats`. The scratch must have been
    /// built for `b.ncols()`.
    ///
    /// Gustavson order: `A`'s row in ascending `k`, each `B` row in
    /// ascending `j`, so every output coordinate sees its products in
    /// ascending `k` whichever accumulator holds the partial sums; the
    /// heap merge pops equal columns in ascending `k` too.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn row_into(
        &mut self,
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
        i: usize,
        colind: &mut Vec<Index>,
        vals: &mut Vec<S::C>,
        stats: &mut SpGemmStats,
    ) {
        let (acols, avals) = a.row(i);
        let slots = match &mut self.accumulator {
            Accumulator::Dense(slots) => &mut slots[..],
            Accumulator::Table(table) => {
                self.acc.table_rows += 1;
                for (&k, av) in acols.iter().zip(avals) {
                    let (bcols, bvals) = b.row(k as usize);
                    stats.products += bcols.len() as u64;
                    for (&j, bv) in bcols.iter().zip(bvals) {
                        table.upsert(sr, j, sr.multiply(av, bv));
                    }
                }
                stats.merged_nnz += table.occupied.len() as u64;
                table.drain_sorted(colind, vals);
                return;
            }
            Accumulator::Heap(merge) => {
                let before = colind.len();
                merge.row_into(sr, acols, avals, b, colind, vals, stats);
                stats.merged_nnz += (colind.len() - before) as u64;
                return;
            }
        };
        debug_assert_eq!(slots.len(), b.ncols(), "scratch built for another B");
        self.acc.dense_rows += 1;
        // Slots and `touched` as local slices: nothing in the product loop
        // goes through `self`.
        let touched = &mut self.touched[..];
        let mut n = 0;
        for (&k, av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            stats.products += bcols.len() as u64;
            for (&j, bv) in bcols.iter().zip(bvals) {
                // No branch on whether the column is new to the row: the
                // write is unconditional and only the cursor depends on
                // the slot. With every column live the cursor rests on the
                // slack entry.
                touched[n] = j;
                n += usize::from(slots[j as usize].fold(sr, av, bv));
            }
        }
        stats.merged_nnz += n as u64;
        if n * 4 >= slots.len() {
            // A dense row: reading the slots in column order costs less
            // than sorting. `touched` is rewritten with the live columns,
            // ascending, again with the cursor as the only dependence.
            self.acc.scan_rows += 1;
            let mut w = 0;
            for (j, slot) in slots.iter().enumerate() {
                touched[w] = j as Index;
                w += usize::from(slot.is_live());
            }
            debug_assert_eq!(w, n);
        } else {
            touched[..n].sort_unstable();
        }
        let touched = &touched[..n];
        colind.extend_from_slice(touched);
        vals.extend(touched.iter().map(|&j| slots[j as usize].take()));
    }
}

/// A serial multiply over all of `A` with the per-row function of
/// `scratch`, returning its accumulator counts beside the product.
pub(crate) fn spgemm_rows<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    mut scratch: RowScratch<S>,
) -> (CsrMatrix<S::C>, SpGemmStats, AccStats) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "SpGEMM dimension mismatch: {}x{} · {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let mut stats = SpGemmStats::default();
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Index> = Vec::new();
    let mut vals: Vec<S::C> = Vec::new();
    for i in 0..a.nrows() {
        scratch.row_into(sr, a, b, i, &mut colind, &mut vals, &mut stats);
        rowptr.push(colind.len());
    }
    (
        CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals),
        stats,
        scratch.acc,
    )
}

/// The serial row kernel: `C = A ⊗ B` under semiring `sr`, one output row
/// at a time through the accumulator the module doc's rule selects.
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
pub fn spgemm_hash<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> (CsrMatrix<S::C>, SpGemmStats) {
    let scratch = RowScratch::new(b.ncols(), DENSE_ACC_LIMIT_BYTES);
    let (c, stats, _) = spgemm_rows(sr, a, b, scratch);
    (c, stats)
}

/// Heap-based (k-way merge) SpGEMM: `C = A ⊗ B` under semiring `sr`.
///
/// For each output row, the sorted rows of `B` selected by `A`'s row are
/// merged with a binary heap keyed on `(column, k)`, producing output
/// columns in ascending order and combining duplicates in ascending `k`
/// order — bit-identical to [`spgemm_hash`] for any semiring.
pub fn spgemm_heap<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> (CsrMatrix<S::C>, SpGemmStats) {
    let (c, stats, _) = spgemm_rows(sr, a, b, RowScratch::heap());
    (c, stats)
}

/// The heap kernel's per-row state: a min-heap of list heads and each
/// list's cursor, kept across rows.
#[derive(Default)]
struct HeapMerge {
    heap: BinaryHeap<Head>,
    cursors: Vec<usize>,
}

/// A merge list's next entry: `B` row `k`'s column at the list's cursor.
#[derive(PartialEq, Eq)]
struct Head {
    col: Index,
    k: Index,
    list: u32,
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a max-heap acting as a min-heap on (col, k).
        (other.col, other.k).cmp(&(self.col, self.k))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl HeapMerge {
    /// Merge the `B` rows `acols` selects into one sorted output row,
    /// appended to `colind`/`vals`; counts the products in `stats`.
    #[allow(clippy::too_many_arguments)]
    fn row_into<S: Semiring>(
        &mut self,
        sr: &S,
        acols: &[Index],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        colind: &mut Vec<Index>,
        vals: &mut Vec<S::C>,
        stats: &mut SpGemmStats,
    ) {
        let (heap, cursors) = (&mut self.heap, &mut self.cursors);
        heap.clear();
        cursors.clear();
        cursors.resize(acols.len(), 0);
        for (idx, &k) in acols.iter().enumerate() {
            let (bcols, _) = b.row(k as usize);
            if !bcols.is_empty() {
                heap.push(Head {
                    col: bcols[0],
                    k,
                    list: idx as u32,
                });
            }
        }
        let mut current: Option<(Index, S::C)> = None;
        while let Some(head) = heap.pop() {
            let list = head.list as usize;
            let (bcols, bvals) = b.row(head.k as usize);
            let pos = cursors[list];
            let product = sr.multiply(&avals[list], &bvals[pos]);
            stats.products += 1;
            match current.take() {
                Some((col, mut acc)) if col == head.col => {
                    sr.combine(&mut acc, product);
                    current = Some((col, acc));
                }
                Some((col, acc)) => {
                    colind.push(col);
                    vals.push(acc);
                    current = Some((head.col, product));
                }
                None => current = Some((head.col, product)),
            }
            cursors[list] += 1;
            if cursors[list] < bcols.len() {
                heap.push(Head {
                    col: bcols[cursors[list]],
                    k: head.k,
                    list: head.list,
                });
            }
        }
        if let Some((col, acc)) = current {
            colind.push(col);
            vals.push(acc);
        }
    }
}

/// Naive dense reference SpGEMM — O(n³)-ish, for tests only.
///
/// Applies `combine` in ascending `k` order per output coordinate, the same
/// contract as the sparse kernels.
pub fn spgemm_dense_ref<S: Semiring>(
    sr: &S,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S::C: Clone,
{
    assert_eq!(a.ncols(), b.nrows(), "SpGEMM dimension mismatch");
    let mut rowptr = vec![0usize];
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        let mut row: Vec<Option<S::C>> = vec![None; b.ncols()];
        let (acols, avals) = a.row(i);
        for (&k, av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, bv) in bcols.iter().zip(bvals) {
                let p = sr.multiply(av, bv);
                match &mut row[j as usize] {
                    Some(acc) => sr.combine(acc, p),
                    slot @ None => *slot = Some(p),
                }
            }
        }
        for (j, slot) in row.into_iter().enumerate() {
            if let Some(v) = slot {
                colind.push(j as Index);
                vals.push(v);
            }
        }
        rowptr.push(colind.len());
    }
    CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals)
}

/// The kernel [`spgemm_hash`] was before the row kernel — one
/// open-addressing table per output row, drained into `(column, value)`
/// tuples and comparison-sorted — kept as the oracle the row kernel's
/// differential tests compare against, together with the
/// order-revealing semiring they run it under.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    struct Table<C> {
        keys: Vec<Index>,
        vals: Vec<Option<C>>,
        occupied: Vec<u32>,
        mask: usize,
    }

    impl<C> Table<C> {
        fn with_capacity(cap: usize) -> Self {
            Table {
                keys: vec![EMPTY; cap],
                vals: (0..cap).map(|_| None).collect(),
                occupied: Vec::new(),
                mask: cap - 1,
            }
        }

        fn probe(&self, key: Index) -> usize {
            let mut slot = (key as u64).wrapping_mul(0x9E3779B97F4A7C15) as usize & self.mask;
            while self.keys[slot] != key && self.keys[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            slot
        }

        fn upsert<S: Semiring<C = C>>(&mut self, sr: &S, key: Index, val: C) {
            if self.occupied.len() * 2 > self.mask + 1 {
                let mut bigger = Table::with_capacity((self.mask + 1) * 2);
                for &slot in &self.occupied {
                    let at = bigger.probe(self.keys[slot as usize]);
                    bigger.keys[at] = self.keys[slot as usize];
                    bigger.vals[at] = self.vals[slot as usize].take();
                    bigger.occupied.push(at as u32);
                }
                *self = bigger;
            }
            let slot = self.probe(key);
            match &mut self.vals[slot] {
                Some(acc) => sr.combine(acc, val),
                empty => {
                    self.keys[slot] = key;
                    *empty = Some(val);
                    self.occupied.push(slot as u32);
                }
            }
        }
    }

    pub(crate) fn spgemm_table_oracle<S: Semiring>(
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
    ) -> (CsrMatrix<S::C>, SpGemmStats) {
        let mut stats = SpGemmStats::default();
        let mut rowptr = vec![0usize];
        let (mut colind, mut vals) = (Vec::new(), Vec::new());
        let mut table = Table::<S::C>::with_capacity(32);
        for i in 0..a.nrows() {
            let (acols, avals) = a.row(i);
            for (&k, av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(k as usize);
                stats.products += bcols.len() as u64;
                for (&j, bv) in bcols.iter().zip(bvals) {
                    table.upsert(sr, j, sr.multiply(av, bv));
                }
            }
            let mut entries: Vec<(Index, S::C)> = table
                .occupied
                .drain(..)
                .map(|slot| {
                    let key = std::mem::replace(&mut table.keys[slot as usize], EMPTY);
                    (
                        key,
                        table.vals[slot as usize].take().expect("occupied slot"),
                    )
                })
                .collect();
            entries.sort_unstable_by_key(|e| e.0);
            stats.merged_nnz += entries.len() as u64;
            for (c, v) in entries {
                colind.push(c);
                vals.push(v);
            }
            rowptr.push(colind.len());
        }
        (
            CsrMatrix::from_parts(a.nrows(), b.ncols(), rowptr, colind, vals),
            stats,
        )
    }

    /// The row kernel with a dense limit of `dense_limit` bytes.
    pub(crate) fn row_kernel<S: Semiring>(
        sr: &S,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
        dense_limit: usize,
    ) -> (CsrMatrix<S::C>, SpGemmStats, AccStats) {
        spgemm_rows(sr, a, b, RowScratch::new(b.ncols(), dense_limit))
    }

    /// A seeded `nrows × ncols` matrix with each entry present with
    /// probability `density`.
    pub(crate) fn random_matrix(
        nrows: usize,
        ncols: usize,
        density: f64,
        seed: u64,
    ) -> CsrMatrix<u32> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = crate::triples::Triples::new(nrows, ncols);
        for i in 0..nrows as Index {
            for j in 0..ncols as Index {
                if rng.gen_bool(density) {
                    t.push(i, j, rng.gen_range(1u32..100));
                }
            }
        }
        CsrMatrix::from_triples(t)
    }

    /// Order-sensitive semiring: combine concatenates, exposing any
    /// difference in accumulation order between kernels, accumulators or
    /// thread counts. Its values are neither `Copy` nor small.
    pub(crate) struct Concat;
    impl Semiring for Concat {
        type A = u32;
        type B = u32;
        type C = Vec<u32>;
        type Slot = Option<Vec<u32>>;
        fn multiply(&self, a: &u32, b: &u32) -> Vec<u32> {
            vec![a * 100 + b]
        }
        fn combine(&self, acc: &mut Vec<u32>, mut incoming: Vec<u32>) {
            acc.append(&mut incoming);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{random_matrix, row_kernel, spgemm_table_oracle, Concat};
    use super::*;
    use crate::semiring::{BoolAndOr, CountShared, MinPlus, PlusTimes};
    use crate::triples::Triples;

    fn mat(nrows: usize, ncols: usize, e: Vec<(Index, Index, f64)>) -> CsrMatrix<f64> {
        CsrMatrix::from_triples(Triples::from_entries(nrows, ncols, e))
    }

    #[test]
    fn hash_matches_dense_small() {
        let a = mat(2, 3, vec![(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)]);
        let b = mat(3, 2, vec![(0, 1, 4.0), (1, 0, 1.0), (2, 1, 5.0)]);
        let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        let r = spgemm_dense_ref(&PlusTimes::new(), &a, &b);
        assert_eq!(c, r);
        assert_eq!(stats.products, 3);
        assert_eq!(stats.merged_nnz, 2);
    }

    #[test]
    fn heap_matches_hash_small() {
        let a = mat(2, 3, vec![(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)]);
        let b = mat(3, 2, vec![(0, 1, 4.0), (1, 0, 1.0), (2, 1, 5.0)]);
        let (ch, sh) = spgemm_hash(&PlusTimes::new(), &a, &b);
        let (cp, sp) = spgemm_heap(&PlusTimes::new(), &a, &b);
        assert_eq!(ch, cp);
        assert_eq!(sh, sp);
    }

    #[test]
    fn identity_multiplication() {
        let n = 5;
        let eye = mat(n, n, (0..n as Index).map(|i| (i, i, 1.0)).collect());
        let a = mat(n, n, vec![(0, 4, 2.0), (3, 1, 7.0), (4, 4, -1.0)]);
        let (c, _) = spgemm_hash(&PlusTimes::new(), &eye, &a);
        assert_eq!(c, a);
        let (c2, _) = spgemm_hash(&PlusTimes::new(), &a, &eye);
        assert_eq!(c2, a);
    }

    #[test]
    fn empty_operands() {
        let a: CsrMatrix<f64> = CsrMatrix::empty(3, 4);
        let b: CsrMatrix<f64> = CsrMatrix::empty(4, 2);
        let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        assert_eq!(c.nnz(), 0);
        assert_eq!((c.nrows(), c.ncols()), (3, 2));
        assert_eq!(stats.products, 0);
        let (c2, _) = spgemm_heap(&PlusTimes::new(), &a, &b);
        assert_eq!(c, c2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a: CsrMatrix<f64> = CsrMatrix::empty(2, 3);
        let b: CsrMatrix<f64> = CsrMatrix::empty(2, 2);
        let _ = spgemm_hash(&PlusTimes::new(), &a, &b);
    }

    #[test]
    fn boolean_reachability() {
        let t = |e| CsrMatrix::from_triples(Triples::from_entries(3, 3, e));
        // path 0 -> 1 -> 2
        let g = t(vec![(0, 1, true), (1, 2, true)]);
        let (g2, _) = spgemm_hash(&BoolAndOr, &g, &g);
        assert_eq!(g2.get(0, 2), Some(&true));
        assert_eq!(g2.nnz(), 1);
    }

    #[test]
    fn min_plus_shortest_two_hop() {
        let t = |e| CsrMatrix::from_triples(Triples::from_entries(3, 3, e));
        let g = t(vec![(0, 1, 1.0), (0, 2, 10.0), (1, 2, 2.0), (2, 2, 0.0)]);
        let (g2, _) = spgemm_hash(&MinPlus, &g, &g);
        // 0->1->2 = 3 beats 0->2->2 = 10.
        assert_eq!(g2.get(0, 2), Some(&3.0));
    }

    #[test]
    fn count_shared_counts_inner_overlap() {
        // A: 2 sequences x 4 kmers; C = A · Aᵀ counts shared kmers.
        let a = CsrMatrix::from_triples(Triples::from_entries(
            2,
            4,
            vec![(0, 0, ()), (0, 1, ()), (0, 3, ()), (1, 1, ()), (1, 3, ())],
        ));
        let at = a.transpose();
        let (c, stats) = spgemm_hash(&CountShared::new(), &a, &at);
        assert_eq!(c.get(0, 1), Some(&2)); // kmers 1 and 3 shared
        assert_eq!(c.get(0, 0), Some(&3));
        assert_eq!(c.get(1, 1), Some(&2));
        assert!(stats.compression_factor() >= 1.0);
    }

    #[test]
    fn hash_accumulator_growth() {
        // One dense row forces repeated growth of the accumulator.
        let n = 500;
        let a = mat(1, 1, vec![(0, 0, 1.0)]);
        let b = mat(1, n, (0..n as Index).map(|j| (0, j, j as f64)).collect());
        let (c, stats) = spgemm_hash(&PlusTimes::new(), &a, &b);
        assert_eq!(c.nnz(), n);
        assert_eq!(stats.products, n as u64);
        // Sorted output.
        let cols = c.row(0).0;
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        // 500 columns fit the dense accumulator; a zero limit sends the
        // same row through the table, which has to grow five times.
        let (t, t_stats, acc) = row_kernel(&PlusTimes::new(), &a, &b, 0);
        assert_eq!((t, t_stats), (c, stats));
        assert_eq!((acc.table_rows, acc.dense_rows), (1, 0));
    }

    /// Bytes of one dense-accumulator slot under [`Concat`]: the unit the
    /// dense limit is counted in.
    const SLOT: usize = std::mem::size_of::<<Concat as Semiring>::Slot>();

    /// The [`AccSlot`] law for `S::Slot`: `fold`ing the first `n` of
    /// `products` then `take` is the left fold of `multiply` + `combine`,
    /// on a slot that has already served a longer row.
    fn assert_slot_law<S: Semiring>(sr: &S, products: &[(S::A, S::B)])
    where
        S::C: PartialEq + std::fmt::Debug,
    {
        let mut slot = S::Slot::empty();
        for (a, b) in products {
            slot.fold(sr, a, b);
        }
        slot.take();
        for n in 1..=products.len() {
            assert!(!slot.is_live());
            let mut want = sr.multiply(&products[0].0, &products[0].1);
            for (p, (a, b)) in products[..n].iter().enumerate() {
                assert_eq!(slot.fold(sr, a, b), p == 0, "n={n} p={p}");
                assert!(slot.is_live());
                if p > 0 {
                    sr.combine(&mut want, sr.multiply(a, b));
                }
            }
            assert_eq!(slot.take(), want, "n={n}");
        }
        assert!(!slot.is_live());
    }

    #[test]
    fn option_slot_is_the_left_fold() {
        let products: Vec<(u32, u32)> = (1..=5).map(|p| (p, 10 + p)).collect();
        assert_slot_law(&Concat, &products);
        assert_slot_law(&PlusTimes::<u32>::new(), &products);
    }

    /// Every kernel's answer for `a ⊗ b` under [`Concat`] must be this.
    fn expect(a: &CsrMatrix<u32>, b: &CsrMatrix<u32>) -> (CsrMatrix<Vec<u32>>, SpGemmStats) {
        let (want, stats) = spgemm_table_oracle(&Concat, a, b);
        assert_eq!(spgemm_dense_ref(&Concat, a, b), want);
        assert_eq!(spgemm_heap(&Concat, a, b), (want.clone(), stats));
        (want, stats)
    }

    #[test]
    fn dense_limit_boundary_selects_the_accumulator() {
        // A limit of exactly ten slots: nine and ten columns accumulate
        // densely, eleven go through the table; all three agree with the
        // oracle in values and combine order.
        for ncols in [9usize, 10, 11] {
            let a = random_matrix(7, 6, 0.5, 21);
            let b = random_matrix(6, ncols, 0.6, 22 + ncols as u64);
            let (want, want_stats) = expect(&a, &b);
            let (got, stats, acc) = row_kernel(&Concat, &a, &b, 10 * SLOT);
            assert_eq!((got, stats), (want, want_stats), "ncols={ncols}");
            let (dense, table) = if ncols <= 10 { (7, 0) } else { (0, 7) };
            assert_eq!(
                (acc.dense_rows, acc.table_rows),
                (dense, table),
                "ncols={ncols}"
            );
        }
    }

    #[test]
    fn drain_rule_scans_quarter_full_rows_and_sorts_the_rest() {
        // 16 columns: a row with 4 or more live columns is drained by the
        // scan, fewer by sorting `touched`.
        let t = |nrows, ncols, e| CsrMatrix::from_triples(Triples::from_entries(nrows, ncols, e));
        let mut b_entries: Vec<(Index, Index, u32)> = vec![
            (0, 12, 1),
            (0, 13, 2),
            (0, 14, 3), // ncols/4 − 1 columns
            (1, 3, 4),
            (1, 7, 5),
            (1, 9, 6),
            (1, 15, 7), // ncols/4 columns
            (3, 5, 8),  // one column
            (5, 10, 9), // row 4 is empty
            (6, 0, 10),
            (6, 1, 11),
        ];
        b_entries.extend((0..16).map(|j| (2, j, 20 + j))); // all columns
        let b = t(7, 16, b_entries);
        let a = t(
            9,
            7,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 2, 1),
                (3, 3, 1),
                (4, 4, 1), // an empty B row; row 5 of A is empty
                (6, 5, 2),
                (6, 6, 3), // discovers 10, 0, 1: sorted
                (7, 1, 2),
                (7, 5, 3),
                (7, 6, 4), // discovers 3 7 9 15 10 0 1: scanned
                (8, 0, 5),
                (8, 2, 6), // all columns, three of them combined
            ],
        );
        let (want, want_stats) = expect(&a, &b);
        assert_eq!(want.get(8, 13), Some(&vec![502, 633]));
        let (got, stats, acc) = row_kernel(&Concat, &a, &b, usize::MAX);
        assert_eq!((&got, stats), (&want, want_stats));
        assert_eq!((acc.dense_rows, acc.scan_rows, acc.table_rows), (9, 4, 0));
        let (table, t_stats, acc) = row_kernel(&Concat, &a, &b, 0);
        assert_eq!((&table, t_stats), (&want, want_stats));
        assert_eq!((acc.dense_rows, acc.scan_rows, acc.table_rows), (0, 0, 9));
    }

    #[test]
    fn empty_operands_on_both_accumulators() {
        let full = random_matrix(5, 4, 0.7, 31);
        let cases: [(CsrMatrix<u32>, CsrMatrix<u32>); 4] = [
            (CsrMatrix::empty(0, 4), random_matrix(4, 6, 0.5, 32)), // no rows
            (CsrMatrix::empty(5, 4), random_matrix(4, 6, 0.5, 33)), // empty A rows
            (full.clone(), CsrMatrix::empty(4, 6)),                 // empty B rows
            (full, CsrMatrix::empty(4, 0)),                         // ncols == 0
        ];
        for (a, b) in &cases {
            let (want, want_stats) = expect(a, b);
            assert_eq!(want.nnz(), 0);
            for limit in [0, usize::MAX] {
                let (got, stats, acc) = row_kernel(&Concat, a, b, limit);
                assert_eq!((got, stats), (want.clone(), want_stats));
                assert_eq!(acc.dense_rows + acc.table_rows, a.nrows() as u64);
            }
        }
    }

    #[test]
    fn kernels_agree_on_combine_order() {
        // A row with several inner indices hitting the same output column.
        let a = CsrMatrix::from_triples(Triples::from_entries(
            1,
            4,
            vec![(0, 0, 1u32), (0, 1, 2), (0, 2, 3), (0, 3, 4)],
        ));
        let b = CsrMatrix::from_triples(Triples::from_entries(
            4,
            2,
            vec![(0, 0, 5u32), (1, 0, 6), (2, 0, 7), (3, 0, 8), (1, 1, 9)],
        ));
        let (ch, _) = spgemm_hash(&Concat, &a, &b);
        let (cp, _) = spgemm_heap(&Concat, &a, &b);
        let dr = spgemm_dense_ref(&Concat, &a, &b);
        assert_eq!(ch, cp);
        assert_eq!(ch, dr);
        // Ascending k order: k=0..3 each contribute to column 0.
        assert_eq!(ch.get(0, 0), Some(&vec![105, 206, 307, 408]));
    }

    #[test]
    fn stats_compression_factor() {
        let s = SpGemmStats {
            products: 50,
            merged_nnz: 10,
        };
        assert_eq!(s.compression_factor(), 5.0);
        let z = SpGemmStats::default();
        assert_eq!(z.compression_factor(), 0.0);
        let mut m = s;
        m.merge(SpGemmStats {
            products: 10,
            merged_nnz: 10,
        });
        assert_eq!(m.products, 60);
        assert_eq!(m.merged_nnz, 20);
    }
}
