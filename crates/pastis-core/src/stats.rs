//! Run statistics and reporting (Section VII of the paper).
//!
//! Three reporting mechanisms: component timers ([`pastis_comm::TimeBreakdown`]),
//! alignments per second (aligned pairs over whole-run time), and cell
//! updates per second (DP cells over alignment-kernel time). Per-rank
//! metrics condense to min/avg/max ([`pastis_comm::ImbalanceStats`]).

use pastis_comm::{Communicator, ImbalanceStats, ReduceOp, TimeBreakdown};

/// Counters of one search (per rank, or aggregated).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Candidate pairs discovered by the SpGEMM (overlap nonzeros before
    /// any pruning — the paper's "discovered candidates").
    pub candidates: u64,
    /// Pairs surviving symmetry pruning + common-k-mer threshold, i.e.
    /// actually aligned ("performed alignments").
    pub aligned_pairs: u64,
    /// DP cells updated by the aligner.
    pub cells: u64,
    /// Pairs passing ANI + coverage into the similarity graph ("similar
    /// pairs").
    pub similar_pairs: u64,
    /// Semiring products executed by SpGEMM (flops).
    pub spgemm_products: u64,
    /// Wall seconds of the whole search (max across ranks when
    /// aggregated).
    pub total_seconds: f64,
    /// Wall seconds in the alignment kernel (for CUPs).
    pub align_kernel_seconds: f64,
    /// CPU seconds summed across alignment-pool workers (the busy-time
    /// side of `BatchStats`' wall-vs-CPU split; sums across ranks when
    /// aggregated). `align_cpu_seconds / align_kernel_seconds` is the
    /// pool's effective parallel speedup.
    pub align_cpu_seconds: f64,
}

impl SearchStats {
    /// Alignments per second over the whole run (the paper's headline
    /// rate; 690.6 M/s in the production run).
    pub fn alignments_per_sec(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.aligned_pairs as f64 / self.total_seconds
        } else {
            0.0
        }
    }

    /// Cell updates per second over kernel time (peak-style CUPs).
    pub fn cups(&self) -> f64 {
        if self.align_kernel_seconds > 0.0 {
            self.cells as f64 / self.align_kernel_seconds
        } else {
            0.0
        }
    }

    /// Fraction of discovered candidates that were aligned (8.9% in
    /// Table IV).
    pub fn aligned_fraction(&self) -> f64 {
        if self.candidates > 0 {
            self.aligned_pairs as f64 / self.candidates as f64
        } else {
            0.0
        }
    }

    /// Fraction of aligned pairs that entered the graph (12.3% in
    /// Table IV).
    pub fn similar_fraction(&self) -> f64 {
        if self.aligned_pairs > 0 {
            self.similar_pairs as f64 / self.aligned_pairs as f64
        } else {
            0.0
        }
    }

    /// Effective alignment-pool speedup: worker CPU seconds over kernel
    /// wall seconds (≈ thread count at full occupancy, 1.0 serial; 0 when
    /// no kernel time was recorded).
    pub fn pool_speedup(&self) -> f64 {
        if self.align_kernel_seconds > 0.0 {
            self.align_cpu_seconds / self.align_kernel_seconds
        } else {
            0.0
        }
    }

    /// Sum counters; wall time takes the max (the slowest rank defines
    /// the run), CPU time sums (it is a resource total).
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.aligned_pairs += other.aligned_pairs;
        self.cells += other.cells;
        self.similar_pairs += other.similar_pairs;
        self.spgemm_products += other.spgemm_products;
        self.total_seconds = self.total_seconds.max(other.total_seconds);
        self.align_kernel_seconds = self.align_kernel_seconds.max(other.align_kernel_seconds);
        self.align_cpu_seconds += other.align_cpu_seconds;
    }

    /// Aggregate this rank's stats across a communicator: counter and
    /// CPU-time sums, wall-time maxima. Every rank receives the global
    /// stats.
    pub fn all_reduce<C: Communicator>(&self, comm: &C) -> SearchStats {
        let sums = comm.all_reduce(
            &[
                self.candidates,
                self.aligned_pairs,
                self.cells,
                self.similar_pairs,
                self.spgemm_products,
            ],
            ReduceOp::Sum,
        );
        let maxs = comm.all_reduce_f64(
            &[self.total_seconds, self.align_kernel_seconds],
            ReduceOp::Max,
        );
        let cpu = comm.all_reduce_f64(&[self.align_cpu_seconds], ReduceOp::Sum);
        SearchStats {
            candidates: sums[0],
            aligned_pairs: sums[1],
            cells: sums[2],
            similar_pairs: sums[3],
            spgemm_products: sums[4],
            total_seconds: maxs[0],
            align_kernel_seconds: maxs[1],
            align_cpu_seconds: cpu[0],
        }
    }
}

/// Per-rank observations condensed into the Figure-7-style triples.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMetrics {
    /// Aligned pairs per rank.
    pub aligned_pairs: ImbalanceStats,
    /// DP cells per rank (the Figure 7b metric).
    pub cells: ImbalanceStats,
    /// Alignment seconds per rank.
    pub align_seconds: ImbalanceStats,
    /// Sparse seconds per rank.
    pub sparse_seconds: ImbalanceStats,
}

impl RankMetrics {
    /// Build from per-rank stats and time breakdowns.
    pub fn from_ranks(stats: &[SearchStats], times: &[TimeBreakdown]) -> RankMetrics {
        assert_eq!(stats.len(), times.len());
        assert!(!stats.is_empty());
        let vals = |f: &dyn Fn(&SearchStats) -> f64| -> Vec<f64> { stats.iter().map(f).collect() };
        RankMetrics {
            aligned_pairs: ImbalanceStats::from_values(&vals(&|s| s.aligned_pairs as f64)),
            cells: ImbalanceStats::from_values(&vals(&|s| s.cells as f64)),
            align_seconds: ImbalanceStats::from_values(
                &times
                    .iter()
                    .map(|t| t.get(pastis_comm::Component::Align))
                    .collect::<Vec<_>>(),
            ),
            sparse_seconds: ImbalanceStats::from_values(
                &times.iter().map(|t| t.sparse_all()).collect::<Vec<_>>(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_comm::{run_threaded, Component};

    #[test]
    fn rates_and_fractions() {
        let s = SearchStats {
            candidates: 1000,
            aligned_pairs: 89,
            cells: 89_000,
            similar_pairs: 11,
            spgemm_products: 5000,
            total_seconds: 2.0,
            align_kernel_seconds: 0.5,
            align_cpu_seconds: 1.5,
        };
        assert!((s.alignments_per_sec() - 44.5).abs() < 1e-9);
        assert!((s.cups() - 178_000.0).abs() < 1e-6);
        assert!((s.aligned_fraction() - 0.089).abs() < 1e-12);
        assert!((s.similar_fraction() - 11.0 / 89.0).abs() < 1e-12);
        assert!((s.pool_speedup() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_guards() {
        let z = SearchStats::default();
        assert_eq!(z.alignments_per_sec(), 0.0);
        assert_eq!(z.cups(), 0.0);
        assert_eq!(z.aligned_fraction(), 0.0);
        assert_eq!(z.similar_fraction(), 0.0);
        assert_eq!(z.pool_speedup(), 0.0);
    }

    #[test]
    fn merge_sums_counters_maxes_times() {
        let mut a = SearchStats {
            candidates: 10,
            total_seconds: 3.0,
            ..Default::default()
        };
        let b = SearchStats {
            candidates: 5,
            total_seconds: 7.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.candidates, 15);
        assert_eq!(a.total_seconds, 7.0);
    }

    #[test]
    fn all_reduce_across_ranks() {
        let out = run_threaded(4, |c| {
            let local = SearchStats {
                candidates: (c.rank() + 1) as u64,
                aligned_pairs: 2,
                total_seconds: c.rank() as f64,
                align_kernel_seconds: 1.0,
                align_cpu_seconds: 2.0,
                ..Default::default()
            };
            local.all_reduce(c)
        });
        for g in out {
            assert_eq!(g.candidates, 10);
            assert_eq!(g.aligned_pairs, 8);
            assert_eq!(g.total_seconds, 3.0);
            // Wall kernel time maxes; worker CPU time sums across ranks.
            assert_eq!(g.align_kernel_seconds, 1.0);
            assert_eq!(g.align_cpu_seconds, 8.0);
        }
    }

    #[test]
    fn rank_metrics_from_ranks() {
        let stats = vec![
            SearchStats {
                aligned_pairs: 10,
                cells: 100,
                ..Default::default()
            },
            SearchStats {
                aligned_pairs: 30,
                cells: 300,
                ..Default::default()
            },
        ];
        let mut t0 = TimeBreakdown::new();
        t0.record(Component::Align, 1.0);
        t0.record(Component::SpGemm, 2.0);
        let mut t1 = TimeBreakdown::new();
        t1.record(Component::Align, 3.0);
        t1.record(Component::SparseOther, 4.0);
        let m = RankMetrics::from_ranks(&stats, &[t0, t1]);
        assert_eq!(m.aligned_pairs.max, 30.0);
        assert_eq!(m.aligned_pairs.avg, 20.0);
        assert_eq!(m.cells.min, 100.0);
        assert_eq!(m.align_seconds.max, 3.0);
        assert_eq!(m.sparse_seconds.min, 2.0);
        assert_eq!(m.sparse_seconds.max, 4.0);
    }
}
