//! The serial row kernel allocates per multiply, never per row: its
//! accumulators, touched list and drain buffers live in one scratch, and
//! the output vectors grow geometrically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pastis_sparse::{spgemm_hash, CsrMatrix, Index, PlusTimes, Triples};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so that tests running beside
/// this one do not disturb the count.
struct Counting;

fn count() {
    // A thread being torn down has no counter left; nothing to count then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a `Cell` in a
// const-initialised thread-local, so touching it neither allocates nor
// runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `nrows × ncols` with `per_row` entries in each row, columns spread by a
/// fixed stride.
fn strided(nrows: usize, ncols: usize, per_row: usize) -> CsrMatrix<u32> {
    let mut t = Triples::new(nrows, ncols);
    for i in 0..nrows {
        for e in 0..per_row {
            let col = (i * 7919 + e * (ncols / per_row)) % ncols;
            t.push(i as Index, col as Index, 1 + (i + e) as u32 % 5);
        }
    }
    CsrMatrix::from_triples_combining(t, |acc, inc| *acc += inc)
}

fn allocations_of(a: &CsrMatrix<u32>, b: &CsrMatrix<u32>) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let (c, stats) = spgemm_hash(&PlusTimes::new(), a, b);
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(c.nnz() as u64, stats.merged_nnz);
    assert!(stats.merged_nnz > a.nrows() as u64, "rows are not empty");
    made
}

#[test]
fn no_allocation_per_row_on_either_accumulator() {
    let a = strided(4096, 64, 8);
    // 200 columns: the dense accumulator, rows on both sides of the
    // quarter-full drain rule.
    let narrow = strided(64, 200, 12);
    // 400 000 columns of `Option<u32>` pass the dense limit: the table.
    let wide = strided(64, 400_000, 12);
    for (b, path) in [(&narrow, "dense"), (&wide, "table")] {
        let made = allocations_of(&a, b);
        // Two output vectors doubling up to at most 4096 × 96 entries, the
        // row pointers, the scratch: tens. One per row would be 4096.
        assert!(made < 100, "{path}: {made} allocations for 4096 rows");
    }
}
