//! Batch alignment driver with exact work accounting.
//!
//! PASTIS hands the aligner large batches of candidate pairs discovered by
//! the SpGEMM; ADEPT's driver packs them, ships them to the node's GPUs and
//! returns scores. [`BatchAligner`] is the equivalent driver: it executes
//! the batch (on the CPU, exactly), and returns per-batch [`BatchStats`] —
//! pair count, total DP cells, wall time — from which alignments/second and
//! CUPs are computed, Section VII's reporting metrics.

use std::time::Instant;

use crate::matrices::Scoring;
use crate::simd::SimdBackend;
use crate::sw::{sw_align, AlignmentResult, GapPenalties};

/// One alignment task: indices into the caller's sequence store plus the
/// seed position recorded by the overlap semiring (used by the banded /
/// x-drop kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignTask {
    /// Query sequence id (caller-side index).
    pub query: u32,
    /// Reference sequence id.
    pub reference: u32,
    /// Seed position in the query (first shared k-mer).
    pub seed_q: u32,
    /// Seed position in the reference.
    pub seed_r: u32,
}

/// Aggregate counters for one executed batch.
///
/// Time is tracked twice so throughput stays honest under the parallel
/// driver: [`seconds`](BatchStats::seconds) is the *sum of per-worker
/// busy time* (CPU seconds), while
/// [`wall_seconds`](BatchStats::wall_seconds) is the elapsed time of the
/// batch. For the serial driver the two coincide; with `t` workers
/// `seconds / wall_seconds` approaches the pool's effective speedup.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Pairs aligned.
    pub pairs: u64,
    /// Total DP cells updated (`Σ |q|·|r|`).
    pub cells: u64,
    /// Largest single DP matrix in the batch.
    pub max_cells: u64,
    /// Pairs the i16 vector lanes could not do exactly and that went
    /// through the scalar i32 kernel instead: a saturated score (either
    /// dispatch), or for traceback a reference past the lane counters or a
    /// scoring model outside the i16 scheme. Pair-intrinsic, so identical
    /// for every backend/width/thread count.
    pub lane_promotions: u64,
    /// DP cells the pair-per-lane vectors updated, padding included: per
    /// lane chunk, lane width × longest query × longest reference rounded
    /// up to the score tile. [`cells`](BatchStats::cells) over this is the
    /// useful share of the vector work, which tells a packing change from
    /// a kernel change. A traceback chunk that runs pair-at-a-time (over
    /// the direction-matrix cap, or too thin) weighs the cells of the
    /// pairs those lanes completed, its strip padding uncounted. Zero for
    /// banded and scalar work.
    pub padded_cells: u64,
    /// Vector backend the batch's traceback or score-only work dispatched
    /// through ([`SimdBackend::Scalar`] for banded batches and the serial
    /// driver, which run scalar kernels only).
    pub simd: SimdBackend,
    /// CPU seconds: summed busy time of every worker thread (measured).
    pub seconds: f64,
    /// Wall-clock seconds of the batch (measured).
    pub wall_seconds: f64,
}

impl BatchStats {
    /// Alignments per second of wall time (0 if no time elapsed).
    pub fn alignments_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.pairs as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Cell updates per second (CUPs) of wall time — the paper's headline
    /// kernel metric, which parallelism legitimately increases.
    pub fn cups(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cells as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Cell updates per CPU second — per-core kernel efficiency,
    /// independent of the worker count.
    pub fn cups_per_cpu(&self) -> f64 {
        if self.seconds > 0.0 {
            self.cells as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Fold another batch's counters into this one. Both time components
    /// add: merged batches are modelled as having run back-to-back. The
    /// merged backend is the widest one involved (batches mixing backends
    /// do not occur in practice; the report shows the run's selection).
    pub fn merge(&mut self, other: &BatchStats) {
        self.pairs += other.pairs;
        self.cells += other.cells;
        self.max_cells = self.max_cells.max(other.max_cells);
        self.lane_promotions += other.lane_promotions;
        self.padded_cells += other.padded_cells;
        if other.simd != SimdBackend::Scalar {
            self.simd = other.simd;
        }
        self.seconds += other.seconds;
        self.wall_seconds += other.wall_seconds;
    }
}

/// Batch Smith–Waterman driver.
pub struct BatchAligner<S: Scoring> {
    scoring: S,
    gaps: GapPenalties,
}

impl<S: Scoring> BatchAligner<S> {
    /// Create a driver with the given scoring and gap model.
    pub fn new(scoring: S, gaps: GapPenalties) -> BatchAligner<S> {
        BatchAligner { scoring, gaps }
    }

    /// The gap model in use.
    pub fn gaps(&self) -> GapPenalties {
        self.gaps
    }

    /// Align one pair.
    pub fn align_pair(&self, q: &[u8], r: &[u8]) -> AlignmentResult {
        sw_align(q, r, &self.scoring, self.gaps)
    }

    /// Execute a batch of tasks against a sequence lookup.
    ///
    /// `lookup(id)` resolves a task's sequence id to its residues. Results
    /// are returned in task order together with the batch counters.
    pub fn run_batch<'a>(
        &self,
        tasks: &[AlignTask],
        mut lookup: impl FnMut(u32) -> &'a [u8],
    ) -> (Vec<AlignmentResult>, BatchStats) {
        let start = Instant::now();
        let mut stats = BatchStats::default();
        let mut results = Vec::with_capacity(tasks.len());
        for t in tasks {
            let q = lookup(t.query);
            let r = lookup(t.reference);
            let res = sw_align(q, r, &self.scoring, self.gaps);
            stats.pairs += 1;
            stats.cells += res.cells;
            stats.max_cells = stats.max_cells.max(res.cells);
            results.push(res);
        }
        stats.seconds = start.elapsed().as_secs_f64();
        stats.wall_seconds = stats.seconds;
        (results, stats)
    }

    /// Execute a batch on a worker pool of `threads` threads (0 ⇒ one per
    /// available core). Results and counters are **bit-identical** to
    /// [`run_batch`](BatchAligner::run_batch) for every thread count —
    /// only the time fields differ: `seconds` sums worker busy time and
    /// `wall_seconds` reports elapsed time.
    ///
    /// Unlike `run_batch`, the sequence lookup must be shareable across
    /// workers (`Fn + Sync` instead of `FnMut`).
    pub fn run_batch_parallel<'a, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        threads: usize,
    ) -> (Vec<AlignmentResult>, BatchStats)
    where
        S: Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        crate::parallel::AlignPool::new(threads).run_traceback(
            tasks,
            lookup,
            &self.scoring,
            self.gaps,
        )
    }

    /// Work (DP cells) a batch *would* perform, without aligning — used by
    /// the load-balancing analysis and the performance-model plane, since
    /// the paper's Figure 7b metric is exactly this sum.
    pub fn batch_cells(tasks: &[AlignTask], mut seq_len: impl FnMut(u32) -> usize) -> u64 {
        tasks
            .iter()
            .map(|t| seq_len(t.query) as u64 * seq_len(t.reference) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{encode, Blosum62};

    fn store() -> Vec<Vec<u8>> {
        ["MKVLAWYHEE", "MKVLAWYHEE", "PAWHEAE", "GGGGG"]
            .iter()
            .map(|s| encode(s).unwrap())
            .collect()
    }

    fn task(q: u32, r: u32) -> AlignTask {
        AlignTask {
            query: q,
            reference: r,
            seed_q: 0,
            seed_r: 0,
        }
    }

    #[test]
    fn batch_aligns_in_task_order() {
        let seqs = store();
        let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
        let tasks = vec![task(0, 1), task(0, 2), task(0, 3)];
        let (results, stats) = aligner.run_batch(&tasks, |id| &seqs[id as usize]);
        assert_eq!(results.len(), 3);
        // 0 vs 1 are identical.
        assert_eq!(results[0].identity(), 1.0);
        // 0 vs 3 share nothing.
        assert_eq!(results[2].score, 0);
        assert_eq!(stats.pairs, 3);
        assert_eq!(stats.cells, (10 * 10 + 10 * 7 + 10 * 5) as u64);
        assert_eq!(stats.max_cells, 100);
    }

    #[test]
    fn empty_batch() {
        let seqs = store();
        let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
        let (results, stats) = aligner.run_batch(&[], |id| &seqs[id as usize]);
        assert!(results.is_empty());
        assert_eq!(stats.pairs, 0);
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn batch_cells_predicts_run_batch() {
        let seqs = store();
        let tasks = vec![task(1, 2), task(2, 3), task(0, 0)];
        let predicted = BatchAligner::<Blosum62>::batch_cells(&tasks, |id| seqs[id as usize].len());
        let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
        let (_, stats) = aligner.run_batch(&tasks, |id| &seqs[id as usize]);
        assert_eq!(predicted, stats.cells);
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = BatchStats {
            pairs: 10,
            cells: 1000,
            max_cells: 400,
            lane_promotions: 2,
            padded_cells: 1500,
            simd: SimdBackend::Scalar,
            seconds: 2.0,
            wall_seconds: 2.0,
        };
        let b = BatchStats {
            pairs: 5,
            cells: 500,
            max_cells: 450,
            lane_promotions: 1,
            padded_cells: 600,
            simd: SimdBackend::detect(),
            seconds: 1.0,
            wall_seconds: 1.0,
        };
        a.merge(&b);
        assert_eq!(a.pairs, 15);
        assert_eq!(a.max_cells, 450);
        assert_eq!(a.lane_promotions, 3);
        assert_eq!(a.padded_cells, 2100);
        assert_eq!(a.simd, SimdBackend::detect());
        assert!((a.alignments_per_sec() - 5.0).abs() < 1e-12);
        assert!((a.cups() - 500.0).abs() < 1e-12);
        assert!((a.cups_per_cpu() - 500.0).abs() < 1e-12);
        let z = BatchStats::default();
        assert_eq!(z.alignments_per_sec(), 0.0);
        assert_eq!(z.cups(), 0.0);
    }

    #[test]
    fn wall_vs_cpu_seconds_split() {
        // A 4-worker batch: 4 s of CPU time in 1.25 s of wall time.
        let s = BatchStats {
            pairs: 8,
            cells: 4000,
            max_cells: 1000,
            lane_promotions: 0,
            padded_cells: 0,
            simd: SimdBackend::default(),
            seconds: 4.0,
            wall_seconds: 1.25,
        };
        assert!((s.cups() - 3200.0).abs() < 1e-9);
        assert!((s.cups_per_cpu() - 1000.0).abs() < 1e-9);
        assert!((s.alignments_per_sec() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn serial_driver_sets_both_clocks() {
        let seqs = store();
        let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
        let (_, stats) = aligner.run_batch(&[task(0, 1)], |id| &seqs[id as usize]);
        assert_eq!(stats.seconds, stats.wall_seconds);
    }
}
