//! A visited product is never held whole: the chunk driver's live heap
//! stays at a few chunks while the product it hands out is megabytes, for
//! the serial kernels and for the parallel one, and the materialising
//! multiply of the same product does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pastis_sparse::{CsrMatrix, Index, PlusTimes, SpGemmKind, SpGemmPool, Triples};

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, keeping the live and peak byte counts.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters are atomics, so
// updating them neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most live bytes `f` added over what was live when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

/// One test, so no other test's allocations land in the counts.
#[test]
fn a_visit_holds_chunks_not_the_product() {
    // Every row of `A` picks two of the eight full rows of `B`: 1 100 rows
    // of 512 columns, 8 bytes an entry (column and `u32` value).
    let (nrows, inner, ncols) = (1100usize, 8usize, 512usize);
    let mut ta = Triples::new(nrows, inner);
    for i in 0..nrows {
        ta.push(i as Index, (i % inner) as Index, 1u32);
        ta.push(i as Index, ((i + 3) % inner) as Index, 2);
    }
    let mut tb = Triples::new(inner, ncols);
    for k in 0..inner {
        for j in 0..ncols {
            tb.push(k as Index, j as Index, (k + j) as u32 % 7 + 1);
        }
    }
    let (a, b) = (CsrMatrix::from_triples(ta), CsrMatrix::from_triples(tb));
    let sr = PlusTimes::<u32>::new();
    let product_bytes = nrows * ncols * 8;
    assert!(product_bytes >= 4 << 20, "the product is {product_bytes} B");
    let bound = product_bytes / 8;

    let kinds = [
        (SpGemmKind::Hash, 1),
        (SpGemmKind::Heap, 1),
        (SpGemmKind::Parallel, 2),
    ];
    for (kind, threads) in kinds {
        let what = format!("{kind}, {threads} thread(s)");
        let pool = SpGemmPool::new(threads).with_kind(kind);
        let (visited, peak) = peak_of(|| pool.visit(&sr, &a, &b, |_, chunk| chunk.nnz()));
        let entries: usize = visited.results.iter().sum();
        assert_eq!(entries, nrows * ncols, "{what}");
        assert!(
            peak < bound,
            "{what}: visiting a {product_bytes} B product peaked at {peak} B live, over {bound} B"
        );
        // The ruler reads the product when it is kept.
        let (c, peak) = peak_of(|| pool.multiply(&sr, &a, &b));
        assert_eq!(c.0.nnz(), nrows * ncols, "{what}");
        assert!(peak > bound, "{what}: the whole product peaked at {peak} B");
    }
}
