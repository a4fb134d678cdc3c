//! Per-rank memory accounting for budgeted execution (`--mem-budget`).
//!
//! The paper sizes its blocked SUMMA so every process fits node memory
//! (Section VI-A chooses the blocking factor from a per-process estimate);
//! this module is the runtime half of that contract. A [`MemBudget`] tracks
//! the live bytes of the big allocations the pipeline makes — encoded
//! sequences, k-mer matrix stripes, staged broadcast buffers, completed
//! output blocks — against an optional hard budget, and reports the peak
//! (`mem.high_water`) so a run can *prove* it stayed under its budget.
//!
//! The accountant never frees anything itself. It answers one question —
//! "would this reservation exceed the budget?" — and the pipeline reacts in
//! a fixed escalation order (spill coldest completed output blocks, spill
//! inactive index stripes, pause broadcast prefetch, shrink align batches,
//! and only then give up with a typed error naming the oversized phase).
//! None of those reactions can change the output graph: spilled blocks come
//! back bit-exact (or are recomputed), and prefetch/batching are
//! wall-time-only knobs, so a budgeted run is bit-identical to an
//! unbudgeted one.
//!
//! Counters are relaxed atomics (the accountant is `Sync`), and the
//! high-water mark is a monotonic max, so exact interleavings only affect
//! which equal peak is recorded, never correctness.

use std::sync::atomic::{AtomicU64, Ordering};

/// What the pipeline was trying to hold when the budget could not be met
/// even after every downgrade. Carried in the error so the flight-recorder
/// dump can name the oversized phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The phase whose reservation failed (e.g. `"sequences"`,
    /// `"kmer_matrix"`, `"output_block"`).
    pub phase: String,
    /// Bytes the phase asked for.
    pub requested: u64,
    /// Live bytes at the time of the request.
    pub live: u64,
    /// The configured budget.
    pub budget: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded in phase {:?}: requested {} bytes with {} live \
             against a budget of {} (phase alone does not fit; raise --mem-budget \
             or increase the blocking factors)",
            self.phase, self.requested, self.live, self.budget
        )
    }
}

/// A per-rank memory accountant. `budget: None` means unbudgeted — every
/// reservation succeeds and only the high-water mark is tracked.
#[derive(Debug, Default)]
pub struct MemBudget {
    budget: Option<u64>,
    live: AtomicU64,
    high_water: AtomicU64,
}

impl MemBudget {
    /// An accountant enforcing `budget` bytes (`None` = track only).
    pub fn new(budget: Option<u64>) -> MemBudget {
        MemBudget {
            budget,
            live: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Current live bytes.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Peak live bytes observed so far.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Whether `bytes` more would fit under the budget right now. Does not
    /// reserve — the pipeline uses this to decide *whether to downgrade*
    /// (spill, pause prefetch, shrink batches) before committing.
    pub fn would_fit(&self, bytes: u64) -> bool {
        match self.budget {
            None => true,
            Some(b) => self.live().saturating_add(bytes) <= b,
        }
    }

    /// Reserve `bytes` if they fit, advancing the high-water mark. Returns
    /// `false` (reserving nothing) when over budget.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        match self.budget {
            None => {
                self.reserve_unchecked(bytes);
                true
            }
            Some(budget) => {
                // CAS loop: concurrent reservations must not overshoot.
                let mut cur = self.live.load(Ordering::Relaxed);
                loop {
                    let next = match cur.checked_add(bytes) {
                        Some(n) if n <= budget => n,
                        _ => return false,
                    };
                    match self.live.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            self.raise_high_water(next);
                            return true;
                        }
                        Err(seen) => cur = seen,
                    }
                }
            }
        }
    }

    /// Reserve `bytes` unconditionally (used after the pipeline has already
    /// downgraded as far as it can and chooses to proceed — e.g. a single
    /// block's working set that simply is the minimum). Still tracked, so
    /// `high_water` stays honest even when a phase overshoots.
    pub fn reserve_unchecked(&self, bytes: u64) {
        let next = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.raise_high_water(next);
    }

    /// Reserve `bytes` for `phase`, or explain why that can never fit:
    /// the hard-failure path, taken only when `bytes` alone exceeds the
    /// whole budget (no amount of spilling can help).
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] naming the phase, when `bytes > budget`.
    pub fn reserve(&self, phase: &str, bytes: u64) -> Result<(), BudgetExceeded> {
        if let Some(budget) = self.budget {
            if bytes > budget {
                return Err(BudgetExceeded {
                    phase: phase.to_string(),
                    requested: bytes,
                    live: self.live(),
                    budget,
                });
            }
        }
        self.reserve_unchecked(bytes);
        Ok(())
    }

    /// Release `bytes` previously reserved.
    pub fn release(&self, bytes: u64) {
        let mut cur = self.live.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .live
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn raise_high_water(&self, candidate: u64) {
        self.high_water.fetch_max(candidate, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbudgeted_tracks_high_water_only() {
        let m = MemBudget::new(None);
        assert!(m.try_reserve(1000));
        assert!(m.try_reserve(u64::MAX / 2));
        m.release(u64::MAX / 2);
        assert_eq!(m.live(), 1000);
        assert_eq!(m.high_water(), 1000 + u64::MAX / 2);
        assert!(m.would_fit(u64::MAX));
    }

    #[test]
    fn budget_is_a_hard_ceiling_for_try_reserve() {
        let m = MemBudget::new(Some(100));
        assert!(m.try_reserve(60));
        assert!(!m.try_reserve(50), "60+50 > 100 must be refused");
        assert_eq!(m.live(), 60, "failed reservation reserves nothing");
        assert!(m.try_reserve(40));
        assert_eq!(m.live(), 100);
        m.release(30);
        assert!(m.would_fit(30));
        assert!(!m.would_fit(31));
        assert_eq!(m.high_water(), 100);
    }

    #[test]
    fn hard_reserve_names_the_phase() {
        let m = MemBudget::new(Some(100));
        let err = m.reserve("kmer_matrix", 101).unwrap_err();
        assert_eq!(err.phase, "kmer_matrix");
        assert_eq!(err.budget, 100);
        assert!(err.to_string().contains("kmer_matrix"), "{err}");
        // Within budget it reserves even when live overshoots afterwards.
        assert!(m.reserve("sequences", 80).is_ok());
        assert!(m.reserve("sequences", 80).is_ok(), "unchecked overshoot");
        assert_eq!(m.live(), 160);
        assert_eq!(m.high_water(), 160);
    }

    #[test]
    fn release_saturates_at_zero() {
        let m = MemBudget::new(Some(10));
        m.release(5);
        assert_eq!(m.live(), 0);
    }

    #[test]
    fn concurrent_reservations_never_overshoot() {
        let m = std::sync::Arc::new(MemBudget::new(Some(1000)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                for _ in 0..1000 {
                    if m.try_reserve(7) {
                        got += 7;
                    }
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, m.live());
        assert!(m.high_water() <= 1000, "budget held under contention");
    }
}
