//! `AlignPool::run_score_only` allocates per call, never per lane chunk:
//! the kernel's rows and shuffle indices live in the thread's scratch and
//! a chunk's results in a fixed array. `AlignPool::run_traceback` adds one
//! allocation per pair, the result's own `ops`: its direction matrix is
//! the thread's too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pastis_align::{AlignPool, AlignTask, Blosum62, GapPenalties, SimdBackend};

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

/// Allocations of one single-threaded `run_score_only` (or, with
/// `traceback`, `run_traceback`) over `n_tasks` pairs of the same few
/// sequences, after a first call has grown the thread's scratch.
fn allocations_of(backend: SimdBackend, n_tasks: usize, traceback: bool) -> u64 {
    let seqs: Vec<Vec<u8>> = (0..8usize)
        .map(|s| (0..60 + 5 * s).map(|i| ((i * 7 + s) % 20) as u8).collect())
        .collect();
    let tasks: Vec<AlignTask> = (0..n_tasks)
        .map(|k| AlignTask {
            query: (k % 8) as u32,
            reference: (k * 3 % 8) as u32,
            seed_q: 0,
            seed_r: 0,
        })
        .collect();
    let pool = AlignPool::new(1).with_simd(backend);
    let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
    let gaps = GapPenalties::pastis_defaults();
    let run = || {
        if traceback {
            let (results, stats) = pool.run_traceback(&tasks, lookup, &Blosum62, gaps);
            // Every pair aligns somewhere, so every result owns its `ops`;
            // and every chunk ran with a pair per lane.
            assert!(results.iter().all(|r| !r.ops.is_empty()));
            assert!(stats.padded_cells > stats.cells);
            (results.len(), stats)
        } else {
            let (results, stats) = pool.run_score_only(&tasks, lookup, &Blosum62, gaps);
            (results.len(), stats)
        }
    };
    run();
    let before = ALLOCS.with(Cell::get);
    let (n_results, stats) = run();
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(n_results, n_tasks);
    assert_eq!(stats.pairs, n_tasks as u64);
    made
}

#[test]
fn no_allocation_per_lane_chunk() {
    for backend in SimdBackend::available() {
        // 4 chunks against 256 (twice that on the 8-lane backends).
        let few = allocations_of(backend, 64, false);
        let many = allocations_of(backend, 4096, false);
        assert_eq!(
            many, few,
            "{backend}: {few} allocations for 64 pairs, {many} for 4096"
        );
        // The plan's order and units, the unit payloads, the results.
        assert!(few < 16, "{backend}: {few} allocations per call");
    }
}

#[test]
fn traceback_allocates_per_pair_not_per_lane_chunk() {
    for backend in SimdBackend::available() {
        let few = allocations_of(backend, 64, true);
        let many = allocations_of(backend, 4096, true);
        assert_eq!(
            many - 4096,
            few - 64,
            "{backend}: {few} allocations for 64 pairs, {many} for 4096"
        );
        assert!(few - 64 < 16, "{backend}: {few} allocations per call");
    }
}
