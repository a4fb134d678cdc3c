//! The unified intra-rank worker pool shared by the sparse (SpGEMM) and
//! alignment engines.
//!
//! Both engines self-schedule the same way: a batch is split into units, a
//! shared atomic counter hands units to whichever thread asks next, and the
//! results are re-assembled **in unit order** so the output is bit-identical
//! for any worker count. Historically each engine owned its own scoped
//! thread team (`--spgemm-threads` / `--align-threads`), which leaves one
//! team idle while the other is busy — exactly the slack the block-level
//! overlap of Section VI-C creates, where block *i*'s alignment runs
//! concurrently with block *i+1*'s SpGEMM.
//!
//! This crate extracts that claim machinery into one process-wide pool:
//!
//! * **One team of persistent workers** ([`WorkPool::new`]) serves jobs
//!   from either engine; an idle sparse worker *steals* alignment units
//!   and vice versa ([`WorkPool::steals`] counts engine switches).
//! * **Per-engine caps** ([`WorkPool::set_cap`]) bound how many workers
//!   may serve one engine concurrently — the compatibility story for the
//!   old static split, now an upper bound instead of a partition.
//! * **The submitting thread helps**: [`WorkPool::run`] drains its own job
//!   alongside the workers (bypassing caps — a cap of zero still
//!   completes), so a job never waits on a fully-busy pool.
//!
//! A unit that panics, on a worker or on the submitting thread, is caught
//! where it ran: no unit is claimed after it, the units already claimed
//! finish, and [`WorkPool::run`] re-raises the first panic on its caller.
//! The workers stay alive for the next job.
//!
//! Determinism is inherited, not re-proven: unit claims race, but every
//! unit's result lands in its own slot and [`WorkPool::run`] returns the
//! slots in unit order, so callers see exactly what a serial loop would
//! have produced. Pool workers never touch the communicator — the
//! submitting thread remains the only collective-issuing thread, keeping
//! the SPMD collective order identical on every rank.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Which engine a job belongs to. Caps and steal accounting key off this;
/// the claim machinery itself is engine-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Local SpGEMM row-chunk work (the SUMMA stage multiply).
    Sparse = 0,
    /// Batch-alignment chunk/lane work.
    Align = 1,
}

/// Number of [`Engine`] variants (cap/active array size).
const ENGINES: usize = 2;

impl Engine {
    fn idx(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (telemetry labels, error messages).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Sparse => "sparse",
            Engine::Align => "align",
        }
    }
}

/// One submitted batch: a unit counter plus the lifetime-erased work
/// closure. Workers claim `next` until it passes `n_units`; each completed
/// unit bumps `done`, and the submitter waits on `done_cv` for the last.
/// A panicking unit counts as completed, and so do the units its panic
/// cancels, so the submitter's wait ends either way.
struct Job {
    engine: Engine,
    n_units: usize,
    next: AtomicUsize,
    done: Mutex<usize>,
    done_cv: Condvar,
    /// The first unit's panic, re-raised on the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Borrow of the submitter's stack closure with the lifetime erased.
    /// Sound because [`WorkPool::run`] blocks until `done == n_units`
    /// (every dereference happens-before the submitter returns), and a
    /// worker that loses the claim race never dereferences it at all.
    work: *const (dyn Fn(usize, usize) + Sync),
}

// SAFETY: `work` is the only non-auto-Send/Sync field. It is dereferenced
// only under a successful unit claim, and the submitter keeps the pointee
// alive until every claimed unit has completed (see `Job::work`).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n_units
    }

    /// Claim and run units until the counter is exhausted. `slot` is the
    /// executing thread's identity, forwarded to the work closure for
    /// telemetry (it never affects which unit runs what). A panic is kept
    /// for the submitter and cancels every unit not yet claimed.
    fn work_on(&self, slot: usize) {
        loop {
            let u = self.next.fetch_add(1, Ordering::Relaxed);
            if u >= self.n_units {
                return;
            }
            // SAFETY: the claim above is unique to this thread, and the
            // submitter is still blocked in `run`, keeping the closure and
            // the result slots alive (see the `work` field invariant).
            let ran = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.work)(u, slot) }));
            let mut finished = 1;
            if let Err(payload) = ran {
                let mut first = self.panic.lock().expect("nothing panics holding the slot");
                first.get_or_insert(payload);
                // Units at or past `next` were never claimed; they will
                // not be, and they count as done.
                let unclaimed = self.next.swap(self.n_units, Ordering::Relaxed);
                finished += self.n_units.saturating_sub(unclaimed);
            }
            let mut done = self.done.lock().unwrap();
            *done += finished;
            if *done == self.n_units {
                self.done_cv.notify_all();
            }
        }
    }

    fn wait_done(&self) {
        let mut done = self.done.lock().unwrap();
        while *done < self.n_units {
            done = self.done_cv.wait(done).unwrap();
        }
    }
}

/// State shared by the workers and every `WorkPool` clone.
struct PoolInner {
    /// Open jobs (completed jobs are removed by their submitter).
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Wakes workers on job submission, cap release, and shutdown.
    cv: Condvar,
    shutdown: AtomicBool,
    /// Engine switches by persistent workers (cross-engine steals).
    steals: AtomicU64,
    /// Workers currently serving each engine.
    active: [AtomicUsize; ENGINES],
    /// Per-engine concurrency bound (`usize::MAX` = uncapped).
    caps: [AtomicUsize; ENGINES],
}

impl PoolInner {
    /// Reserve a worker slot on `e`'s engine if its cap allows.
    fn try_enter(&self, e: Engine) -> bool {
        let cap = self.caps[e.idx()].load(Ordering::Relaxed);
        let active = &self.active[e.idx()];
        loop {
            let cur = active.load(Ordering::Relaxed);
            if cur >= cap {
                return false;
            }
            if active
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    fn leave(&self, e: Engine) {
        self.active[e.idx()].fetch_sub(1, Ordering::AcqRel);
        // A cap slot freed up — a worker parked on a capped engine can
        // retry.
        let _guard = self.jobs.lock().unwrap();
        self.cv.notify_all();
    }
}

/// Persistent worker body: wait for a job whose engine has cap headroom,
/// drain it, repeat. Workers never issue collectives and never submit —
/// they only execute.
fn worker_loop(inner: &PoolInner, slot: usize) {
    let mut last_engine: Option<Engine> = None;
    loop {
        let job: Arc<Job> = {
            let mut jobs = inner.jobs.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(j) = jobs
                    .iter()
                    .find(|j| j.has_work() && inner.try_enter(j.engine))
                {
                    break Arc::clone(j);
                }
                jobs = inner.cv.wait(jobs).unwrap();
            }
        };
        // A steal is a persistent worker switching engines: it was last
        // useful to one side and is now absorbing the other side's units.
        if last_engine.is_some_and(|e| e != job.engine) {
            inner.steals.fetch_add(1, Ordering::Relaxed);
        }
        last_engine = Some(job.engine);
        job.work_on(slot);
        inner.leave(job.engine);
    }
}

/// Owns the worker threads; dropped when the last `WorkPool` clone goes.
struct PoolHandle {
    inner: Arc<PoolInner>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            // Store-then-notify under the jobs lock: a worker re-checks
            // `shutdown` under the same lock before waiting, so the wakeup
            // cannot be lost.
            let _guard = self.inner.jobs.lock().unwrap();
            self.inner.cv.notify_all();
        }
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// The unified worker pool. Cheap to clone (all clones share the same
/// workers); the threads shut down when the last clone is dropped.
#[derive(Clone)]
pub struct WorkPool {
    handle: Arc<PoolHandle>,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads())
            .field("steals", &self.steals())
            .finish()
    }
}

impl WorkPool {
    /// A pool of `threads` persistent workers; `0` means one per available
    /// core. Submitting threads additionally help drain their own jobs, so
    /// a job sees up to `threads + 1` executing threads.
    pub fn new(threads: usize) -> WorkPool {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        WorkPool::with_exact_workers(threads)
    }

    /// A pool of exactly `workers` persistent workers — including zero
    /// (callers then drain their own jobs alone). Unlike [`WorkPool::new`],
    /// `0` is taken literally rather than meaning "auto".
    pub fn with_exact_workers(threads: usize) -> WorkPool {
        let inner = Arc::new(PoolInner {
            jobs: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            active: [AtomicUsize::new(0), AtomicUsize::new(0)],
            caps: [AtomicUsize::new(usize::MAX), AtomicUsize::new(usize::MAX)],
        });
        let handles = (0..threads)
            .map(|slot| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, slot))
            })
            .collect();
        WorkPool {
            handle: Arc::new(PoolHandle {
                inner,
                threads,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// A pool sized for `total` concurrently-working threads *including*
    /// the submitting thread (`0` = one per available core): spawns
    /// `total - 1` persistent workers. `total == 1` yields a pool with no
    /// persistent workers at all — every job runs entirely on its caller,
    /// which is exactly the serial execution order. This is the `--threads`
    /// knob's constructor.
    pub fn sized(total: usize) -> WorkPool {
        let total = if total == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            total
        };
        WorkPool::with_exact_workers(total - 1)
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.handle.threads
    }

    /// Cross-engine steals so far: how many times a persistent worker
    /// switched from one engine's job to the other's. Zero on a
    /// single-engine workload.
    pub fn steals(&self) -> u64 {
        self.handle.inner.steals.load(Ordering::Relaxed)
    }

    /// Bound how many persistent workers may serve `engine` concurrently
    /// (`None` lifts the bound). The submitting thread bypasses the cap —
    /// even `Some(0)` completes, just without pool help.
    pub fn set_cap(&self, engine: Engine, cap: Option<usize>) {
        self.handle.inner.caps[engine.idx()].store(cap.unwrap_or(usize::MAX), Ordering::Relaxed);
        let _guard = self.handle.inner.jobs.lock().unwrap();
        self.handle.inner.cv.notify_all();
    }

    /// The slot id [`WorkPool::run`] executes under when the submitting
    /// thread claims units of its own `engine` job. Persistent workers use
    /// slots `0..threads()`; caller slots sit above them so telemetry can
    /// tell the two apart.
    pub fn caller_slot(&self, engine: Engine) -> usize {
        self.handle.threads + engine.idx()
    }

    /// Execute `work(unit, slot)` exactly once for every `unit < n_units`
    /// across the pool (plus the calling thread), returning the results
    /// **in unit order** — bit-identical to a serial `(0..n_units).map`
    /// regardless of worker count, caps, or concurrent jobs. `slot` is the
    /// executing thread's identity (`0..threads()` for pool workers,
    /// [`WorkPool::caller_slot`] for the caller) for telemetry tracks.
    ///
    /// Blocks until the whole job is done. Concurrent `run` calls from
    /// different threads interleave freely at unit granularity.
    ///
    /// # Panics
    ///
    /// With the first panic of a unit, once every claimed unit has
    /// finished; units not yet claimed then never run.
    pub fn run<R, F>(&self, engine: Engine, n_units: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if n_units == 0 {
            return Vec::new();
        }
        let slots: Vec<Slot<R>> = (0..n_units).map(|_| Slot(UnsafeCell::new(None))).collect();
        let slots_ref = &slots;
        let closure = move |unit: usize, slot: usize| {
            let r = work(unit, slot);
            // SAFETY: `unit` was claimed exactly once (fetch_add), so this
            // thread has exclusive access to its slot; the Vec outlives the
            // job because `run` waits for completion below.
            unsafe { *slots_ref[unit].0.get() = Some(r) };
        };
        let erased: &(dyn Fn(usize, usize) + Sync) = &closure;
        // SAFETY: lifetime erasure only. `run` does not return before
        // `wait_done` observes every unit complete, and exhausted claims
        // never dereference the pointer, so no use can outlive `closure`.
        let work_ptr = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(erased) as *const (dyn Fn(usize, usize) + Sync)
        };
        let job = Arc::new(Job {
            engine,
            n_units,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            work: work_ptr,
        });
        {
            let mut jobs = self.handle.inner.jobs.lock().unwrap();
            jobs.push(Arc::clone(&job));
            self.handle.inner.cv.notify_all();
        }
        // Help drain our own job (cap-exempt), then wait out any units
        // other threads are still finishing.
        job.work_on(self.caller_slot(engine));
        job.wait_done();
        {
            let mut jobs = self.handle.inner.jobs.lock().unwrap();
            jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        let panicked = job
            .panic
            .lock()
            .expect("nothing panics holding the slot")
            .take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("every unit ran exactly once"))
            .collect()
    }
}

/// One result cell. Exclusive access per cell follows from the unique unit
/// claim, so sharing the Vec across workers is sound.
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: cells are written at most once, by the unique claimant of the
// matching unit, and read only after the job's completion barrier.
unsafe impl<R: Send> Sync for Slot<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn zero_threads_means_auto() {
        assert!(WorkPool::new(0).threads() >= 1);
        assert_eq!(WorkPool::new(3).threads(), 3);
    }

    #[test]
    fn sized_counts_the_caller() {
        assert_eq!(WorkPool::sized(4).threads(), 3);
        // `--threads 1` = serial: no persistent workers, caller-only jobs.
        let serial = WorkPool::sized(1);
        assert_eq!(serial.threads(), 0);
        let got = serial.run(Engine::Align, 40, |u, slot| (u, slot));
        assert_eq!(
            got,
            (0..40)
                .map(|u| (u, serial.caller_slot(Engine::Align)))
                .collect::<Vec<_>>()
        );
        assert!(WorkPool::sized(0).threads() + 1 >= 1);
    }

    #[test]
    fn results_come_back_in_unit_order() {
        let pool = WorkPool::new(4);
        let want: Vec<usize> = (0..257).map(|u| u * u).collect();
        for _ in 0..8 {
            let got = pool.run(Engine::Sparse, 257, |u, _slot| u * u);
            assert_eq!(got, want);
        }
        assert_eq!(pool.run::<usize, _>(Engine::Align, 0, |u, _| u), vec![]);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = WorkPool::new(2);
        std::thread::scope(|scope| {
            let p1 = pool.clone();
            let h = scope.spawn(move || p1.run(Engine::Sparse, 300, |u, _| 2 * u));
            let align: Vec<usize> = pool.run(Engine::Align, 300, |u, _| 3 * u);
            let sparse = h.join().unwrap();
            assert_eq!(sparse, (0..300).map(|u| 2 * u).collect::<Vec<_>>());
            assert_eq!(align, (0..300).map(|u| 3 * u).collect::<Vec<_>>());
        });
    }

    /// Force a persistent worker to take at least one unit: the caller's
    /// units spin until some pool slot (`slot < threads`) has executed one.
    fn run_with_forced_worker(pool: &WorkPool, engine: Engine) {
        let threads = pool.threads();
        let participated = AtomicBool::new(false);
        pool.run(engine, 2, |_u, slot| {
            if slot < threads {
                participated.store(true, Ordering::Release);
            } else {
                while !participated.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            }
        });
    }

    #[test]
    fn steals_count_engine_switches_only() {
        let pool = WorkPool::new(1);
        run_with_forced_worker(&pool, Engine::Sparse);
        run_with_forced_worker(&pool, Engine::Sparse);
        // Same engine throughout: no switch, no steal.
        assert_eq!(pool.steals(), 0);
        run_with_forced_worker(&pool, Engine::Align);
        // The worker moved from sparse units to align units: one steal.
        assert!(pool.steals() >= 1, "engine switch not counted");
    }

    #[test]
    fn capped_engine_still_completes_via_caller() {
        let pool = WorkPool::new(2);
        pool.set_cap(Engine::Sparse, Some(0));
        let got = pool.run(Engine::Sparse, 64, |u, _| u + 1);
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
        // The other engine is unaffected by the sparse cap.
        run_with_forced_worker(&pool, Engine::Align);
        pool.set_cap(Engine::Sparse, None);
        run_with_forced_worker(&pool, Engine::Sparse);
    }

    #[test]
    fn caller_slots_sit_above_worker_slots() {
        let pool = WorkPool::new(3);
        assert_eq!(pool.caller_slot(Engine::Sparse), 3);
        assert_eq!(pool.caller_slot(Engine::Align), 4);
        // With a fully-capped pool every unit runs on the caller slot.
        pool.set_cap(Engine::Align, Some(0));
        let slots = pool.run(Engine::Align, 16, |_u, slot| slot);
        assert!(slots.iter().all(|&s| s == pool.caller_slot(Engine::Align)));
    }

    /// Run `job` on a thread of its own and wait at most 10 s for it to
    /// end: the message of the panic it raised, or `None` if it returned.
    fn panic_of(pool: &WorkPool, job: impl FnOnce(&WorkPool) + Send + 'static) -> Option<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = pool.clone();
        let thread = std::thread::spawn(move || {
            let ended = catch_unwind(AssertUnwindSafe(|| job(&pool)));
            let message = ended.err().map(|p| match p.downcast::<&str>() {
                Ok(s) => s.to_string(),
                Err(p) => *p.downcast::<String>().expect("a string payload"),
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job ended within 10 s");
        thread.join().expect("the job thread caught its panic");
        message
    }

    /// A job whose units panic on the slots `fails` picks; the others wait
    /// until one has, so both kinds of thread are sure to take a unit.
    fn failing_job(pool: &WorkPool, engine: Engine, fails: impl Fn(usize) -> bool + Sync) {
        let failed = AtomicBool::new(false);
        pool.run(engine, 64, |_u, slot| {
            if fails(slot) {
                failed.store(true, Ordering::Release);
                panic!(
                    "unit failed on slot kind {}",
                    u8::from(slot >= pool.threads())
                );
            }
            while !failed.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
    }

    #[test]
    fn a_panicking_unit_is_reraised_on_the_caller_and_the_pool_survives() {
        for threads in [1, 2, 4] {
            let pool = WorkPool::with_exact_workers(threads);
            let on_worker = panic_of(&pool, move |p| {
                failing_job(p, Engine::Align, |slot| slot < threads)
            });
            assert_eq!(on_worker.as_deref(), Some("unit failed on slot kind 0"));
            let on_caller = panic_of(&pool, move |p| {
                failing_job(p, Engine::Sparse, |slot| slot >= threads)
            });
            assert_eq!(on_caller.as_deref(), Some("unit failed on slot kind 1"));
            // The same workers run the next job whole.
            let next = panic_of(&pool, |p| {
                run_with_forced_worker(p, Engine::Align);
                let got = p.run(Engine::Sparse, 100, |u, _| 3 * u);
                assert_eq!(got, (0..100).map(|u| 3 * u).collect::<Vec<_>>());
            });
            assert_eq!(next, None, "{threads} workers");
        }
    }

    #[test]
    fn clones_share_workers_and_shutdown_joins() {
        let pool = WorkPool::new(2);
        let clone = pool.clone();
        run_with_forced_worker(&clone, Engine::Sparse);
        drop(clone);
        // Original clone still works after the other is dropped.
        let got = pool.run(Engine::Sparse, 10, |u, _| u);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        drop(pool); // joins the workers; must not hang
    }
}
