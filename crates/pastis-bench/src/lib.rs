//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md for the index). The
//! binaries run real miniature datasets through the functional pipeline
//! and replay them at Summit node counts through the performance model;
//! this module holds what they share: deterministic datasets, machine
//! calibration, block-count factoring, and table formatting.
//!
//! Dataset scale mapping (paper → reproduction, factor 10⁴):
//! 20M → 2,000 · 28M → 2,800 · 40M → 4,000 · 50M → 5,000 · 56M → 5,600 ·
//! 80M → 8,000 · 112M → 11,200 · 405M → 20,000 (production; memory-capped).

#![warn(missing_docs)]

use pastis_comm::MachineModel;
use pastis_core::{simulate, ScaleConfig, SearchParams};
use pastis_seqio::{SeqStore, SyntheticConfig, SyntheticDataset};

/// Generate the standard benchmark dataset at `n` sequences, Metaclust-like
/// (log-normal lengths, planted families, 30% singletons), deterministic in
/// `n` and the fixed experiment seed.
pub fn bench_dataset(n: usize) -> SyntheticDataset {
    SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: n,
        mean_len: 180.0,
        len_sigma: 0.4,
        mean_family_size: 8.0,
        singleton_fraction: 0.3,
        divergence: 0.10,
        indel_prob: 0.015,
        seed: 0x5C22,
        ..SyntheticConfig::default()
    })
}

/// Experiment-wide default search parameters: the paper's production
/// settings with `k` shortened to 5 so the 10⁴×-smaller sequences retain
/// comparable k-mer hit statistics.
pub fn bench_params() -> SearchParams {
    SearchParams {
        k: 5,
        ..SearchParams::default()
    }
}

/// Factor a "number of blocks" into the `br × bc` pair closest to square,
/// matching the paper's usage (e.g. its production run reports "a total of
/// 400 blocks with a blocking factor of 20 × 20").
pub fn factor_blocks(total: usize) -> (usize, usize) {
    assert!(total > 0);
    let mut best = (total, 1);
    for d in 1..=total {
        if total % d == 0 {
            let (a, b) = (total / d, d);
            if a >= b && a - b < best.0 - best.1 {
                best = (a, b);
            }
        }
    }
    best
}

/// Calibrate a Summit-derived machine for a miniature dataset:
///
/// 1. uniformly rescale all throughputs so the modeled alignment phase of
///    the reference configuration lasts `target_align_s` seconds (putting
///    the replay in the paper's hours-scale regime rather than the
///    microsecond regime where latency artifacts dominate), then
/// 2. rescale the sparse-compute rates so the node-level align:sparse
///    ratio matches `align_sparse_ratio` (the paper observes "no more than
///    2:1", Section VI-C).
pub fn calibrated_summit(
    store: &SeqStore,
    params: &SearchParams,
    nodes: usize,
    target_align_s: f64,
    align_sparse_ratio: f64,
) -> MachineModel {
    calibrated_summit_anchored(
        store,
        params,
        nodes,
        target_align_s,
        align_sparse_ratio,
        None,
    )
}

/// [`calibrated_summit`] plus an optional third anchor: choose the
/// stripe-handling rate so that at `anchor_blocks` total blocks the sparse
/// phase is `mult_growth ×` its unblocked time. Figure 5 reports a 1.40–
/// 1.45× multiplication increase at high block counts; anchoring that one
/// published point fixes the handling share, and every other configuration
/// in a sweep is then *predicted* by the model.
pub fn calibrated_summit_anchored(
    store: &SeqStore,
    params: &SearchParams,
    nodes: usize,
    target_align_s: f64,
    align_sparse_ratio: f64,
    mult_anchor: Option<(usize, f64)>,
) -> MachineModel {
    let sim = |machine: &MachineModel, prm: &SearchParams| {
        simulate(
            store,
            prm,
            &ScaleConfig {
                nodes,
                machine: machine.clone(),
                contention: Default::default(),
                sample_pairs: 0,
                fidelity: pastis_core::perfmodel::TimeFidelity::Structural,
                align_threads: 1,
                spgemm_threads: 1,
            },
        )
    };
    // Probe with the per-batch device overhead zeroed: it is an absolute
    // cost (not rescaled with the rates), so it must not leak into the
    // kernel-rate scale factor.
    let mut probe_machine = MachineModel::summit();
    probe_machine.align_batch_overhead_s = 0.0;
    let probe = sim(&probe_machine, params);
    let f = (probe.align_s / target_align_s).max(1e-30);
    let mut machine = MachineModel::summit().scaled(f);

    for _outer in 0..3 {
        // Fixed-point pass on the sparse-compute rates: the sparse phase
        // also contains a communication term the rates cannot move, so one
        // multiplicative correction under-shoots; a few iterations converge
        // whenever the comm floor is below the target.
        for _ in 0..6 {
            let probe = sim(&machine, params);
            let want_sparse = probe.align_s / align_sparse_ratio;
            let have_sparse = probe.sparse_s.max(1e-30);
            let adjust = (have_sparse / want_sparse).clamp(1e-3, 1e3);
            if (adjust - 1.0).abs() < 0.02 {
                break;
            }
            machine.spgemm_products_per_sec *= adjust;
            machine.merge_nnz_per_sec *= adjust;
            machine.stripe_nnz_per_sec *= adjust;
            machine.kmer_residues_per_sec *= adjust;
        }
        let Some((anchor_blocks, mult_growth)) = mult_anchor else {
            break;
        };
        let (br, bc) = factor_blocks(anchor_blocks);
        let base = sim(&machine, params);
        let at_anchor = sim(&machine, &params.clone().with_blocking(br, bc));
        let growth = at_anchor.sparse_s / base.sparse_s.max(1e-30);
        if (growth / mult_growth - 1.0).abs() < 0.03 {
            break;
        }
        // More handling (lower stripe rate) → more growth.
        let step = (growth / mult_growth).powf(1.5).clamp(0.2, 5.0);
        machine.stripe_nnz_per_sec *= step;
    }
    machine
}

/// A `ScaleConfig` around a calibrated machine.
pub fn scale_config(machine: &MachineModel, nodes: usize) -> ScaleConfig {
    ScaleConfig {
        nodes,
        machine: machine.clone(),
        contention: Default::default(),
        sample_pairs: 200,
        fidelity: pastis_core::perfmodel::TimeFidelity::Structural,
        align_threads: 1,
        spgemm_threads: 1,
    }
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Format seconds compactly (s / min / h).
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.2}h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{:.1}s", s)
    }
}

/// Format a large count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*c);
    }
    out.chars().rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factoring_is_near_square_and_exact() {
        assert_eq!(factor_blocks(1), (1, 1));
        assert_eq!(factor_blocks(4), (2, 2));
        assert_eq!(factor_blocks(10), (5, 2));
        assert_eq!(factor_blocks(20), (5, 4));
        assert_eq!(factor_blocks(30), (6, 5));
        assert_eq!(factor_blocks(40), (8, 5));
        assert_eq!(factor_blocks(50), (10, 5));
        assert_eq!(factor_blocks(400), (20, 20));
        assert_eq!(factor_blocks(7), (7, 1));
        for b in 1..=60 {
            let (r, c) = factor_blocks(b);
            assert_eq!(r * c, b);
            assert!(r >= c);
        }
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = bench_dataset(100);
        let b = bench_dataset(100);
        assert_eq!(a.store, b.store);
    }

    #[test]
    fn calibration_hits_targets() {
        let ds = bench_dataset(300);
        let params = bench_params().with_blocking(4, 4);
        let machine = calibrated_summit(&ds.store, &params, 16, 100.0, 2.0);
        let r = simulate(&ds.store, &params, &scale_config(&machine, 16));
        // The kernel-rate target excludes the absolute per-batch device
        // overhead (16 blocks x align_batch_overhead_s on top).
        let kernel_align = r.align_s - 16.0 * machine.align_batch_overhead_s;
        assert!(
            (kernel_align / 100.0 - 1.0).abs() < 0.1,
            "kernel align_s = {kernel_align} (target 100)"
        );
        let ratio = r.align_s / r.sparse_s;
        assert!(
            (1.2..3.0).contains(&ratio),
            "align:sparse = {ratio} (target 2)"
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(30.0), "30.0s");
        assert_eq!(fmt_secs(120.0), "2.0m");
        assert_eq!(fmt_secs(7200.0), "2.00h");
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_count(7), "7");
    }
}
