//! Search parameters.
//!
//! Defaults follow the paper's production run (Table IV): k-mer length 6,
//! gap open 11 / extend 2, common-k-mer threshold 2, ANI threshold 0.30,
//! coverage threshold 0.70.

use std::path::PathBuf;

use pastis_align::sw::GapPenalties;
use pastis_align::SimdPolicy;
use pastis_seqio::ReducedAlphabet;
use pastis_sparse::SpGemmKind;

use crate::autotune::TunePolicy;
use crate::loadbalance::LoadBalance;

/// Which alignment kernel the pipeline uses on candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignKind {
    /// Full-matrix Smith–Waterman with traceback (the paper's ADEPT
    /// kernel; required for exact ANI/coverage filtering).
    FullSw,
    /// Banded Smith–Waterman around the recorded seed diagonal with the
    /// given half-width. Score-only: candidate edges keep count/score but
    /// ANI/coverage filtering degrades to a score threshold.
    Banded(usize),
    /// Full-matrix score-only Smith–Waterman, dispatched through the
    /// multilane lock-step SIMD kernel (ADEPT-style inter-task
    /// parallelism). Exact scores — equivalent to `Banded(∞)` — at a
    /// fraction of the scalar kernel's cost; edge filtering degrades to
    /// the same normalized-score threshold as `Banded`.
    ScoreOnly,
}

/// All tunables of one similarity search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchParams {
    /// k-mer length (paper: 6).
    pub k: usize,
    /// Alphabet used for k-mer extraction (sensitivity option).
    pub alphabet: ReducedAlphabet,
    /// Number of substitute (nearest-neighbor) k-mers added per extracted
    /// k-mer (0 disables; sensitivity option from Section V).
    pub substitute_kmers: usize,
    /// Minimum number of shared k-mers for a pair to be aligned
    /// (paper: 2).
    pub common_kmer_threshold: u32,
    /// Minimum alignment identity for a pair to enter the similarity
    /// graph (paper's "ANI threshold": 0.30).
    pub ani_threshold: f64,
    /// Minimum coverage of the shorter sequence (paper: 0.70).
    pub coverage_threshold: f64,
    /// Affine gap model (paper: open 11, extend 2).
    pub gaps: GapPenalties,
    /// Alignment kernel.
    pub align_kind: AlignKind,
    /// Worker threads of the intra-rank batch-alignment pool (Section
    /// IV-D's ADEPT driver analog). `1` aligns on the calling thread;
    /// `0` uses one worker per available core. The similarity graph is
    /// bit-identical for every value — only wall time changes.
    pub align_threads: usize,
    /// Vector backend of the traceback and score-only alignment kernels
    /// (`--simd`). `Auto` picks the best the host supports; forcing an unavailable
    /// backend fails validation. Like `align_threads`, the similarity
    /// graph is bit-identical for every choice — only throughput changes.
    pub simd: SimdPolicy,
    /// Worker threads of the intra-rank local SpGEMM pool used inside each
    /// SUMMA stage (`--spgemm-threads`). `1` multiplies on the calling
    /// thread; `0` uses one worker per available core. The overlap matrix
    /// — and therefore the whole similarity graph — is bit-identical for
    /// every value; only wall time changes.
    pub spgemm_threads: usize,
    /// Local SpGEMM kernel-selection policy (`--spgemm`). `Auto` picks
    /// hash/heap/parallel per multiplication from a compression-factor
    /// heuristic; the kernels share one combine-order contract, so the
    /// output is bit-identical for every choice.
    pub spgemm: SpGemmKind,
    /// Size of the unified intra-rank worker pool shared by the sparse and
    /// alignment engines (`--threads`). `None` keeps the legacy static
    /// split (`align_threads` / `spgemm_threads` each own their scoped
    /// team); `Some(n)` runs both engines through one pool of `n` threads
    /// total — `n - 1` persistent workers plus the submitting thread — so
    /// idle sparse workers steal alignment units and vice versa. `Some(0)`
    /// sizes the pool at one thread per available core. The similarity
    /// graph is bit-identical either way — only wall time changes.
    pub threads: Option<usize>,
    /// With the unified pool, an upper bound on how many pool workers may
    /// serve alignment units concurrently (`None` = uncapped). This is the
    /// cap semantics `--align-threads` takes when `--threads` is given.
    /// Requires `threads`.
    pub align_cap: Option<usize>,
    /// With the unified pool, an upper bound on how many pool workers may
    /// serve SpGEMM row chunks concurrently (`None` = uncapped). This is
    /// the cap semantics `--spgemm-threads` takes when `--threads` is
    /// given. Requires `threads`.
    pub spgemm_cap: Option<usize>,
    /// Double-buffer the SUMMA broadcasts (`--overlap`): while stage `k`'s
    /// local multiply runs on a scoped compute thread, the rank thread —
    /// still the only one issuing collectives — posts stage `k+1`'s A/B
    /// broadcasts. The collective order and count are unchanged, so the
    /// output graph is bit-identical with overlap on or off; only the
    /// broadcasts' wall-clock placement moves.
    pub overlap: bool,
    /// Row blocking factor of the Blocked 2D Sparse SUMMA.
    pub block_rows: usize,
    /// Column blocking factor.
    pub block_cols: usize,
    /// Load-balancing scheme (Section VI-B).
    pub load_balance: LoadBalance,
    /// Overlap block `i+1`'s SpGEMM with block `i`'s alignment
    /// (Section VI-C).
    pub pre_blocking: bool,
    /// Deadline in milliseconds for blocking point-to-point receives in the
    /// pipeline (the sequence-exchange "cwait"). `None` waits forever;
    /// `Some` turns a lost peer into a typed error instead of a hang.
    /// Robustness knob — never affects the output.
    pub op_timeout_ms: Option<u64>,
    /// Directory for per-block checkpoints (`None` disables
    /// checkpointing). Robustness knob — never affects the output.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir` instead
    /// of recomputing completed blocks. The resumed run's final graph is
    /// bit-identical to an uninterrupted run.
    pub resume: bool,
    /// Stop after this many scheduled blocks (absolute index, so it
    /// composes with `resume`). Deterministic stand-in for "the job was
    /// killed here" in kill-and-resume tests; `None` runs to completion.
    pub halt_after_blocks: Option<usize>,
    /// Flag ranks whose block seconds exceed `factor × median` at the end
    /// of the run (`None` disables the scan). Must exceed 1.0.
    pub straggler_factor: Option<f64>,
    /// Per-rank memory budget in bytes (`--mem-budget`). `None` runs
    /// unbudgeted. With a budget, the pipeline charges sequences, k-mer
    /// matrix stripes, staged SUMMA broadcast buffers, and completed
    /// output blocks to a [`crate::MemBudget`] accountant, spilling the
    /// coldest completed blocks and inactive index stripes to
    /// [`SearchParams::spill_dir`] under pressure. Robustness knob — the
    /// similarity graph stays bit-identical for every budget large enough
    /// to complete.
    pub mem_budget: Option<u64>,
    /// Directory for spilled shards. Required when `mem_budget` is set
    /// (spilling is the budget's relief valve). Robustness knob — never
    /// affects the output.
    pub spill_dir: Option<PathBuf>,
    /// Self-tuning policy (`--tune`). `Off` leaves every knob as passed;
    /// `Auto` seeds the engine split from the cost model and re-splits
    /// caps / lookahead mid-run from collectively-reduced telemetry;
    /// `Fixed(spec)` applies a hand-tuned spec once. Scheduling knob —
    /// every policy produces a bit-identical similarity graph; only wall
    /// time changes. Excluded from the checkpoint fingerprint for the
    /// same reason threads/caps/overlap are.
    pub tune: TunePolicy,
    /// Seeded fault-injection plan applied to spill-shard writes (the
    /// `spill_*` keys of the `--fault` spec). Reads verify CRCs and fall
    /// back to recomputing the affected block, so the output stays
    /// bit-identical under any survivable plan.
    pub spill_faults: Option<pastis_comm::FaultPlan>,
}

impl Default for SearchParams {
    fn default() -> SearchParams {
        SearchParams {
            k: 6,
            alphabet: ReducedAlphabet::Full20,
            substitute_kmers: 0,
            common_kmer_threshold: 2,
            ani_threshold: 0.30,
            coverage_threshold: 0.70,
            gaps: GapPenalties::pastis_defaults(),
            align_kind: AlignKind::FullSw,
            align_threads: 1,
            simd: SimdPolicy::Auto,
            spgemm_threads: 1,
            spgemm: SpGemmKind::Auto,
            threads: None,
            align_cap: None,
            spgemm_cap: None,
            overlap: false,
            block_rows: 1,
            block_cols: 1,
            load_balance: LoadBalance::IndexBased,
            pre_blocking: false,
            op_timeout_ms: None,
            checkpoint_dir: None,
            resume: false,
            halt_after_blocks: None,
            straggler_factor: Some(3.0),
            mem_budget: None,
            spill_dir: None,
            tune: TunePolicy::Off,
            spill_faults: None,
        }
    }
}

impl SearchParams {
    /// Parameters tuned for unit tests: short k so tiny sequences share
    /// k-mers, permissive thresholds.
    pub fn test_defaults() -> SearchParams {
        SearchParams {
            k: 4,
            common_kmer_threshold: 1,
            ani_threshold: 0.30,
            coverage_threshold: 0.30,
            ..SearchParams::default()
        }
    }

    /// Set the blocking factors, builder style.
    pub fn with_blocking(mut self, br: usize, bc: usize) -> SearchParams {
        self.block_rows = br;
        self.block_cols = bc;
        self
    }

    /// Set the load-balancing scheme, builder style.
    pub fn with_load_balance(mut self, lb: LoadBalance) -> SearchParams {
        self.load_balance = lb;
        self
    }

    /// Enable/disable pre-blocking, builder style.
    pub fn with_pre_blocking(mut self, on: bool) -> SearchParams {
        self.pre_blocking = on;
        self
    }

    /// Set the intra-rank alignment worker count, builder style
    /// (`0` = one worker per available core).
    pub fn with_align_threads(mut self, threads: usize) -> SearchParams {
        self.align_threads = threads;
        self
    }

    /// Set the score-only vector-backend policy, builder style.
    pub fn with_simd(mut self, simd: SimdPolicy) -> SearchParams {
        self.simd = simd;
        self
    }

    /// Set the intra-rank SpGEMM worker count, builder style
    /// (`0` = one worker per available core).
    pub fn with_spgemm_threads(mut self, threads: usize) -> SearchParams {
        self.spgemm_threads = threads;
        self
    }

    /// Set the local SpGEMM kernel-selection policy, builder style.
    pub fn with_spgemm(mut self, kind: SpGemmKind) -> SearchParams {
        self.spgemm = kind;
        self
    }

    /// Run both engines through one unified pool of `threads` threads
    /// total, builder style (`0` = one per available core).
    pub fn with_threads(mut self, threads: usize) -> SearchParams {
        self.threads = Some(threads);
        self
    }

    /// Cap concurrent alignment workers of the unified pool, builder
    /// style. Requires [`SearchParams::with_threads`].
    pub fn with_align_cap(mut self, cap: usize) -> SearchParams {
        self.align_cap = Some(cap);
        self
    }

    /// Cap concurrent SpGEMM workers of the unified pool, builder style.
    /// Requires [`SearchParams::with_threads`].
    pub fn with_spgemm_cap(mut self, cap: usize) -> SearchParams {
        self.spgemm_cap = Some(cap);
        self
    }

    /// Enable/disable double-buffered SUMMA broadcasts, builder style.
    pub fn with_overlap(mut self, on: bool) -> SearchParams {
        self.overlap = on;
        self
    }

    /// Set the checkpoint directory, builder style.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> SearchParams {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enable/disable resume-from-checkpoint, builder style.
    pub fn with_resume(mut self, on: bool) -> SearchParams {
        self.resume = on;
        self
    }

    /// Halt after `blocks` scheduled blocks (absolute index), builder
    /// style.
    pub fn with_halt_after_blocks(mut self, blocks: usize) -> SearchParams {
        self.halt_after_blocks = Some(blocks);
        self
    }

    /// Set the point-to-point receive deadline, builder style.
    pub fn with_op_timeout_ms(mut self, ms: u64) -> SearchParams {
        self.op_timeout_ms = Some(ms);
        self
    }

    /// Set the per-rank memory budget in bytes, builder style.
    pub fn with_mem_budget(mut self, bytes: u64) -> SearchParams {
        self.mem_budget = Some(bytes);
        self
    }

    /// Set the spill directory, builder style.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> SearchParams {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Set the self-tuning policy, builder style.
    pub fn with_tune(mut self, tune: TunePolicy) -> SearchParams {
        self.tune = tune;
        self
    }

    /// Set the spill-write fault-injection plan, builder style.
    pub fn with_spill_faults(mut self, plan: pastis_comm::FaultPlan) -> SearchParams {
        self.spill_faults = Some(plan);
        self
    }

    /// Number of k-mer columns of the sequences-by-k-mers matrix.
    pub fn kmer_space(&self) -> usize {
        self.alphabet.kmer_space(self.k)
    }

    /// Validate parameter sanity; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k-mer length must be positive".into());
        }
        if self.k > 12 {
            return Err(format!(
                "k = {} overflows the 32-bit k-mer id space for this alphabet",
                self.k
            ));
        }
        if self.kmer_space() > u32::MAX as usize {
            return Err(format!(
                "k-mer space {} exceeds the matrix index range",
                self.kmer_space()
            ));
        }
        if self.block_rows == 0 || self.block_cols == 0 {
            return Err("blocking factors must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.ani_threshold)
            || !(0.0..=1.0).contains(&self.coverage_threshold)
        {
            return Err("thresholds must lie in [0, 1]".into());
        }
        if self.gaps.open < 0 || self.gaps.extend < 0 {
            return Err("gap penalties must be non-negative".into());
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return Err("resume requires a checkpoint directory".into());
        }
        if self.threads.is_none() && (self.align_cap.is_some() || self.spgemm_cap.is_some()) {
            return Err("per-engine caps require the unified pool (--threads)".into());
        }
        if let TunePolicy::Fixed(spec) = &self.tune {
            // Same contradiction as explicit caps without a pool.
            if self.threads.is_none() && (spec.spgemm_cap.is_some() || spec.align_cap.is_some()) {
                return Err(
                    "--tune fixed: engine caps require the unified pool (--threads)".into(),
                );
            }
        }
        self.simd.resolve()?;
        if let Some(f) = self.straggler_factor {
            if f.is_nan() || f <= 1.0 {
                return Err(format!("straggler factor must exceed 1.0, got {f}"));
            }
        }
        if let Some(b) = self.mem_budget {
            if b == 0 {
                return Err("memory budget must be positive".into());
            }
            if self.spill_dir.is_none() {
                return Err("--mem-budget requires a spill directory".into());
            }
            if self.checkpoint_dir.is_some() {
                return Err(
                    "--mem-budget cannot be combined with checkpointing: spill shards \
                     already persist completed blocks, and a checkpoint written under \
                     a budget would omit the spilled ones"
                        .into(),
                );
            }
        }
        if self
            .spill_faults
            .as_ref()
            .is_some_and(|p| p.has_spill_faults())
            && self.spill_dir.is_none()
        {
            return Err("spill fault injection requires a spill directory".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_production_run() {
        let p = SearchParams::default();
        assert_eq!(p.k, 6);
        assert_eq!(p.gaps.open, 11);
        assert_eq!(p.gaps.extend, 2);
        assert_eq!(p.common_kmer_threshold, 2);
        assert!((p.ani_threshold - 0.30).abs() < 1e-12);
        assert!((p.coverage_threshold - 0.70).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn kmer_space_by_alphabet() {
        let full = SearchParams::default();
        assert_eq!(full.kmer_space(), 64_000_000);
        let reduced = SearchParams {
            alphabet: ReducedAlphabet::Murphy10,
            ..SearchParams::default()
        };
        assert_eq!(reduced.kmer_space(), 1_000_000);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let bad_k = SearchParams {
            k: 0,
            ..SearchParams::default()
        };
        assert!(bad_k.validate().is_err());
        let big_k = SearchParams {
            k: 9,
            ..SearchParams::default()
        };
        // 20^9 > u32::MAX.
        assert!(big_k.validate().is_err());
        let bad_block = SearchParams::default().with_blocking(0, 3);
        assert!(bad_block.validate().is_err());
        let bad_thr = SearchParams {
            ani_threshold: 1.5,
            ..SearchParams::default()
        };
        assert!(bad_thr.validate().is_err());
    }

    #[test]
    fn reduced_alphabet_allows_larger_k() {
        let p = SearchParams {
            alphabet: ReducedAlphabet::Dayhoff6,
            k: 12,
            ..SearchParams::default()
        };
        // 6^12 ≈ 2.2e9 — still within u32? No: 2_176_782_336 < 4_294_967_295. OK.
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let p = SearchParams::default()
            .with_blocking(4, 5)
            .with_load_balance(LoadBalance::Triangular)
            .with_pre_blocking(true)
            .with_align_threads(4);
        assert_eq!((p.block_rows, p.block_cols), (4, 5));
        assert_eq!(p.load_balance, LoadBalance::Triangular);
        assert!(p.pre_blocking);
        assert_eq!(p.align_threads, 4);
    }

    #[test]
    fn robustness_knobs_validate() {
        // Resume without a checkpoint dir is a contradiction.
        let bad = SearchParams::default().with_resume(true);
        assert!(bad.validate().is_err());
        let ok = SearchParams::default()
            .with_checkpoint_dir("/tmp/ckpt")
            .with_resume(true)
            .with_halt_after_blocks(3)
            .with_op_timeout_ms(5000);
        assert!(ok.validate().is_ok());
        // A straggler factor at or below the median would flag healthy
        // ranks.
        let bad_factor = SearchParams {
            straggler_factor: Some(1.0),
            ..SearchParams::default()
        };
        assert!(bad_factor.validate().is_err());
        let off = SearchParams {
            straggler_factor: None,
            ..SearchParams::default()
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn mem_budget_knobs_validate() {
        // Budget defaults off.
        let p = SearchParams::default();
        assert_eq!(p.mem_budget, None);
        assert_eq!(p.spill_dir, None);
        assert!(p.spill_faults.is_none());
        // A budget with nowhere to spill is a contradiction.
        let bad = SearchParams::default().with_mem_budget(1 << 20);
        assert!(bad.validate().is_err());
        let zero = SearchParams::default()
            .with_mem_budget(0)
            .with_spill_dir("/tmp/spill");
        assert!(zero.validate().is_err());
        let ok = SearchParams::default()
            .with_mem_budget(1 << 20)
            .with_spill_dir("/tmp/spill");
        assert!(ok.validate().is_ok());
        // Spill faults without a spill directory can never fire.
        let plan = pastis_comm::FaultPlan::parse("seed=1,spill_corrupt=0.5").unwrap();
        let bad = SearchParams::default().with_spill_faults(plan.clone());
        assert!(bad.validate().is_err());
        let ok = SearchParams::default()
            .with_spill_faults(plan)
            .with_spill_dir("/tmp/spill");
        assert!(ok.validate().is_ok());
        // A comm-only plan carried in spill_faults is harmless without a dir.
        let comm_only = pastis_comm::FaultPlan::parse("seed=1,delay=0.1:10").unwrap();
        assert!(SearchParams::default()
            .with_spill_faults(comm_only)
            .validate()
            .is_ok());
        // A checkpoint written under a budget would omit spilled blocks —
        // the combination is rejected outright.
        let conflict = SearchParams::default()
            .with_mem_budget(1 << 20)
            .with_spill_dir("/tmp/spill")
            .with_checkpoint_dir("/tmp/ckpt");
        assert!(conflict.validate().unwrap_err().contains("checkpoint"));
    }

    #[test]
    fn simd_policy_defaults_auto_and_validates() {
        use pastis_align::SimdBackend;
        let p = SearchParams::default();
        assert_eq!(p.simd, SimdPolicy::Auto);
        assert!(p.validate().is_ok());
        // Forcing the always-present scalar backend is valid everywhere.
        let scalar = SearchParams::default().with_simd(SimdPolicy::Force(SimdBackend::Scalar));
        assert!(scalar.validate().is_ok());
        // Forcing a backend the host lacks must be rejected at validation
        // (NEON never exists on x86_64 and vice versa for AVX2).
        #[cfg(target_arch = "x86_64")]
        let missing = SimdBackend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let missing = SimdBackend::Avx2;
        let forced = SearchParams::default().with_simd(SimdPolicy::Force(missing));
        let err = forced.validate().unwrap_err();
        assert!(err.contains("not available"), "{err}");
    }

    #[test]
    fn align_threads_defaults_serial_and_zero_is_valid() {
        let p = SearchParams::default();
        assert_eq!(p.align_threads, 1);
        // 0 means "one worker per core" and must validate.
        assert!(p.with_align_threads(0).validate().is_ok());
    }

    #[test]
    fn unified_pool_knobs_default_off_and_validate() {
        let p = SearchParams::default();
        assert_eq!(p.threads, None);
        assert_eq!(p.align_cap, None);
        assert_eq!(p.spgemm_cap, None);
        assert!(!p.overlap);
        // Caps without the unified pool are a contradiction.
        let bad = SearchParams::default().with_align_cap(2);
        assert!(bad.validate().is_err());
        let bad = SearchParams::default().with_spgemm_cap(2);
        assert!(bad.validate().is_err());
        // With --threads they compose; 0 means auto-size and validates.
        let ok = SearchParams::default()
            .with_threads(4)
            .with_align_cap(2)
            .with_spgemm_cap(1)
            .with_overlap(true);
        assert!(ok.validate().is_ok());
        assert_eq!(ok.threads, Some(4));
        assert_eq!((ok.align_cap, ok.spgemm_cap), (Some(2), Some(1)));
        assert!(ok.overlap);
        assert!(SearchParams::default().with_threads(0).validate().is_ok());
        // Overlap alone (phased pools) is also fine.
        assert!(SearchParams::default()
            .with_overlap(true)
            .validate()
            .is_ok());
    }

    #[test]
    fn tune_policy_defaults_off_and_validates() {
        let p = SearchParams::default();
        assert_eq!(p.tune, TunePolicy::Off);
        assert!(p.validate().is_ok());
        // Auto needs nothing else: without --threads it can still pick
        // blocking/batches; the cap re-split just has no pool to act on.
        assert!(SearchParams::default()
            .with_tune(TunePolicy::Auto)
            .validate()
            .is_ok());
        // A fixed spec with engine caps mirrors the caps-require-threads
        // rule.
        let spec = TunePolicy::parse("fixed:spgemm=2,align=2").unwrap();
        let bad = SearchParams::default().with_tune(spec.clone());
        assert!(bad.validate().unwrap_err().contains("--threads"));
        let ok = SearchParams::default().with_threads(4).with_tune(spec);
        assert!(ok.validate().is_ok());
        // A lookahead/batch-only spec is fine without a pool.
        let la = TunePolicy::parse("fixed:lookahead=0,batch=64").unwrap();
        assert!(SearchParams::default().with_tune(la).validate().is_ok());
    }

    #[test]
    fn spgemm_knobs_default_serial_auto_and_compose() {
        let p = SearchParams::default();
        assert_eq!(p.spgemm_threads, 1);
        assert_eq!(p.spgemm, SpGemmKind::Auto);
        let p = p.with_spgemm_threads(4).with_spgemm(SpGemmKind::Parallel);
        assert_eq!(p.spgemm_threads, 4);
        assert_eq!(p.spgemm, SpGemmKind::Parallel);
        // 0 means "one worker per core" and must validate.
        assert!(p.with_spgemm_threads(0).validate().is_ok());
    }
}
