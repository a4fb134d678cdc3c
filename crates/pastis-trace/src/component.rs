//! Pipeline components and per-rank imbalance statistics.
//!
//! [`Component`] follows the paper's reporting breakdown (Table IV:
//! Align / SpGEMM / Sparse (all) / IO / Communication wait) and is shared
//! between the telemetry layer (span categories) and `pastis-comm`'s
//! [`TimeBreakdown`](https://docs.rs/pastis-comm) accumulator, which
//! re-exports it. [`ImbalanceStats`] condenses a per-rank metric into the
//! min/avg/max(/stddev) summaries plotted in Figure 7.

use std::fmt;

/// Pipeline components timed separately, following the paper's breakdown
/// (Table IV: Align / SpGEMM / Sparse (all) / IO / Communication wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Batch pairwise alignment (GPU in the paper).
    Align,
    /// The SpGEMM proper inside the sparse phase.
    SpGemm,
    /// Other sparse work: k-mer matrix formation, transposes, pruning,
    /// symmetricity handling, output assembly.
    SparseOther,
    /// Parallel file input/output.
    Io,
    /// Waiting on sequence point-to-point transfers ("cwait", Table II).
    CommWait,
    /// Anything else (setup, bookkeeping).
    Other,
}

impl Component {
    /// All components in display order.
    pub const ALL: [Component; 6] = [
        Component::Align,
        Component::SpGemm,
        Component::SparseOther,
        Component::Io,
        Component::CommWait,
        Component::Other,
    ];

    /// Stable dense index into `[0, Component::ALL.len())`, in the order
    /// of [`Component::ALL`].
    pub fn index(self) -> usize {
        match self {
            Component::Align => 0,
            Component::SpGemm => 1,
            Component::SparseOther => 2,
            Component::Io => 3,
            Component::CommWait => 4,
            Component::Other => 5,
        }
    }

    /// Short label used in experiment tables and trace categories.
    pub fn label(self) -> &'static str {
        match self {
            Component::Align => "align",
            Component::SpGemm => "spgemm",
            Component::SparseOther => "sparse-other",
            Component::Io => "io",
            Component::CommWait => "cwait",
            Component::Other => "other",
        }
    }
}

/// Minimum / average / maximum (and dispersion) of a per-rank metric — the
/// vertical bars of Figure 7 and the "Imbalance (%)" rows of Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalanceStats {
    /// Minimum across ranks.
    pub min: f64,
    /// Mean across ranks.
    pub avg: f64,
    /// Maximum across ranks.
    pub max: f64,
    /// Population standard deviation across ranks.
    pub stddev: f64,
}

impl ImbalanceStats {
    /// Compute stats over per-rank values. Panics on an empty slice.
    pub fn from_values(values: &[f64]) -> ImbalanceStats {
        assert!(!values.is_empty(), "imbalance stats need at least one rank");
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / values.len() as f64;
        ImbalanceStats {
            min,
            avg,
            max,
            stddev: var.sqrt(),
        }
    }

    /// Load imbalance as the paper reports it: `(max/avg − 1) × 100` %.
    /// Zero for perfectly balanced work; 0 when the ratio is undefined
    /// (zero, near-zero, or NaN average — empty or trivially small phases).
    pub fn imbalance_pct(&self) -> f64 {
        (self.imbalance_factor() - 1.0) * 100.0
    }

    /// Figure 7's y-axis metric: the `max/avg` load-imbalance factor
    /// (1.0 = perfectly balanced). Defined as 1.0 whenever the ratio is
    /// not a finite number: a zero or NaN average (empty phases, ranks
    /// that recorded nothing) and a subnormal near-zero average whose
    /// quotient overflows to infinity all mean "no measurable work", not
    /// "infinitely imbalanced", and must not propagate inf/NaN into the
    /// straggler counters or the analyze report.
    pub fn imbalance_factor(&self) -> f64 {
        // Anything but a strictly-positive average — zero, negative, or
        // NaN (incomparable) — routes to the defined fallback.
        if self.avg.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 1.0;
        }
        let f = self.max / self.avg;
        if f.is_finite() {
            f
        } else {
            1.0
        }
    }

    /// Ratio max/min (∞ if min is 0 and max > 0, 1 if both 0).
    pub fn spread(&self) -> f64 {
        if self.min > 0.0 {
            self.max / self.min
        } else if self.max > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

impl fmt::Display for ImbalanceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min={:.4} avg={:.4} max={:.4} (imb {:.1}%)",
            self.min,
            self.avg,
            self.max,
            self.imbalance_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_index_is_dense_and_ordered() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(Component::CommWait.label(), "cwait");
    }

    #[test]
    fn imbalance_stats_match_paper_definition() {
        let s = ImbalanceStats::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.max, 3.0);
        assert!((s.imbalance_pct() - 50.0).abs() < 1e-12);
        assert!((s.imbalance_factor() - 1.5).abs() < 1e-12);
        assert_eq!(s.spread(), 3.0);
        // Population stddev of {1,2,3} is sqrt(2/3).
        assert!((s.stddev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn imbalance_degenerate_cases() {
        let z = ImbalanceStats::from_values(&[0.0, 0.0]);
        assert_eq!(z.imbalance_pct(), 0.0);
        assert_eq!(z.imbalance_factor(), 1.0);
        assert_eq!(z.spread(), 1.0);
        assert_eq!(z.stddev, 0.0);
        let half = ImbalanceStats::from_values(&[0.0, 2.0]);
        assert_eq!(half.spread(), f64::INFINITY);
        assert_eq!(half.stddev, 1.0);
    }

    #[test]
    fn imbalance_factor_is_defined_for_pathological_averages() {
        // NaN average (a rank reported NaN seconds) must not escape `<= 0`
        // guards: the factor and pct stay at their balanced identities.
        let nan = ImbalanceStats {
            min: 0.0,
            avg: f64::NAN,
            max: 1.0,
            stddev: 0.0,
        };
        assert_eq!(nan.imbalance_factor(), 1.0);
        assert_eq!(nan.imbalance_pct(), 0.0);
        // Subnormal near-zero average: max/avg overflows to inf; a
        // trivially small phase is "no measurable work", factor 1.0.
        let tiny = ImbalanceStats {
            min: 0.0,
            avg: f64::MIN_POSITIVE,
            max: 1.0e300,
            stddev: 0.0,
        };
        assert_eq!(tiny.imbalance_factor(), 1.0);
        // NaN max with a healthy average also stays defined.
        let nan_max = ImbalanceStats {
            min: 0.0,
            avg: 1.0,
            max: f64::NAN,
            stddev: 0.0,
        };
        assert_eq!(nan_max.imbalance_factor(), 1.0);
        // A genuinely imbalanced phase is untouched by the guards.
        let real = ImbalanceStats::from_values(&[1.0, 3.0]);
        assert_eq!(real.imbalance_factor(), 1.5);
    }

    #[test]
    fn balanced_input_has_zero_dispersion() {
        let s = ImbalanceStats::from_values(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.imbalance_factor(), 1.0);
        assert_eq!(s.imbalance_pct(), 0.0);
    }
}
