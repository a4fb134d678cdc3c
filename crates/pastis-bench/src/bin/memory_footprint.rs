//! The memory motivation (Sections V-B and VI-A) — not a numbered figure,
//! but the paper's central argument for the Blocked 2D Sparse SUMMA:
//!
//! * "For a modest dataset containing 20 million sequences, one usually
//!   needs to store hundreds of billions candidate alignments … The memory
//!   required … can quickly exceed the amount of memory found on a node."
//! * "the method to discover candidate alignments uses a parallel SpGEMM,
//!   which usually needs much more intermediate memory than the actual
//!   storage required by the found candidates" (the compression factor).
//! * Figure 5's setup note: "this search could not be performed on fewer
//!   nodes using only one block, which indicates the severity of the
//!   memory required."
//!
//! This binary reports the modeled per-rank peak memory across block
//! counts and node counts, its composition, and the minimum node count at
//! which the unblocked search fits a fixed per-rank budget vs the blocked
//! one. It ends with a measurement: what the runtime accountant's spill
//! tier costs on the repo benchmark's `search.blocked` input.

use std::time::Instant;

use pastis_bench::*;
use pastis_core::pipeline::{run_search_serial, run_search_serial_traced};
use pastis_core::{blocking_for_budget, simulate, LoadBalance};
use pastis_trace::recorder::TraceSession;

/// The spill tier's measured cost: the repo benchmark's `search.blocked`
/// configuration (1000 sequences, 3×3 blocks, triangular balance, a
/// 2-thread pool) under a loose budget and under ¾ of the loose run's
/// high-water mark, interleaved, with the spill counters of one traced
/// budgeted run.
fn measured_spill_overhead() {
    const REPS: usize = 11;
    let store = bench_dataset(1000).store;
    let dir = std::env::temp_dir().join(format!("pastis-memfoot-spill-{}", std::process::id()));
    let blocked = bench_params()
        .with_blocking(3, 3)
        .with_load_balance(LoadBalance::Triangular)
        .with_threads(2);
    let loose = blocked
        .clone()
        .with_mem_budget(1 << 40)
        .with_spill_dir(&dir);
    let high = run_search_serial(&store, &loose)
        .expect("a loose budget cannot fail")
        .mem_high_water
        .expect("budgeted runs report their high water");
    let tight = blocked.with_mem_budget(high * 3 / 4).with_spill_dir(&dir);
    let (mut loose_s, mut tight_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (params, seconds) in [(&loose, &mut loose_s), (&tight, &mut tight_s)] {
            let _ = std::fs::remove_dir_all(&dir);
            let t0 = Instant::now();
            std::hint::black_box(run_search_serial(&store, params).expect("budget fits"));
            seconds.push(t0.elapsed().as_secs_f64());
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (loose_s, tight_s) = (median(&mut loose_s), median(&mut tight_s));
    let _ = std::fs::remove_dir_all(&dir);
    let session = TraceSession::new();
    let rec = session.recorder(0);
    run_search_serial_traced(&store, &tight, &rec).expect("budget fits");
    let _ = std::fs::remove_dir_all(&dir);
    let ctr = rec.counters();
    let count = |name: &str| ctr.get(name).copied().unwrap_or(0.0) as u64;
    println!(
        "\nmeasured spill overhead (search.blocked input: {} seqs, 3x3 blocks, triangular,\n\
         2-thread pool; median of {REPS} interleaved runs):",
        store.len()
    );
    println!(
        "  loose budget {loose_s:.4} s   budget {} B (3/4 of high water {high} B) {tight_s:.4} s",
        high * 3 / 4
    );
    println!(
        "  spill overhead {:.4} s ({:.0}% of the loose run)",
        tight_s - loose_s,
        100.0 * (tight_s - loose_s) / loose_s
    );
    println!(
        "  spilled {} blocks / {} B out, {} blocks / {} B back in",
        count("spill.blocks_out"),
        fmt_count(count("spill.bytes_out")),
        count("spill.blocks_in"),
        fmt_count(count("spill.bytes_in"))
    );
}

fn main() {
    let ds = bench_dataset(12_000);
    let reference = bench_params()
        .with_blocking(1, 1)
        .with_load_balance(LoadBalance::IndexBased);
    let machine = calibrated_summit(&ds.store, &reference, 25, 600.0, 2.0);

    println!(
        "per-rank peak memory vs block count ({} seqs, 25 virtual nodes)",
        ds.store.len()
    );
    rule(100);
    println!(
        "{:>7} | {:>12} {:>12} {:>12} {:>12} {:>12} | {:>10}",
        "blocks", "inputs", "sequences", "recv", "intermed.", "out block", "total"
    );
    rule(100);
    let fmt_mb = |b: f64| format!("{:.2} MB", b / 1.0e6);
    let mut unblocked_total = 0.0;
    for blocks in [1usize, 2, 5, 10, 20, 50] {
        let (br, bc) = factor_blocks(blocks);
        let params = bench_params().with_blocking(br, bc);
        let r = simulate(&ds.store, &params, &scale_config(&machine, 25));
        let m = r.memory;
        if blocks == 1 {
            unblocked_total = m.total_bytes();
        }
        println!(
            "{:>7} | {:>12} {:>12} {:>12} {:>12} {:>12} | {:>10}",
            blocks,
            fmt_mb(m.inputs_bytes),
            fmt_mb(m.sequences_bytes),
            fmt_mb(m.recv_bytes),
            fmt_mb(m.intermediate_bytes),
            fmt_mb(m.output_block_bytes),
            fmt_mb(m.total_bytes())
        );
    }
    rule(100);

    // The compression-factor observation: intermediate vs output storage.
    let r1 = simulate(
        &ds.store,
        &bench_params().with_blocking(1, 1),
        &scale_config(&machine, 25),
    );
    println!(
        "\ncompression factor (intermediate products per output nonzero): {:.2}",
        r1.products as f64 / r1.candidates.max(1) as f64
    );
    println!(
        "SpGEMM intermediate memory is {:.1}x the stored candidate block (Section V-B).",
        r1.memory.intermediate_bytes / r1.memory.output_block_bytes.max(1.0)
    );

    // Minimum nodes to fit a fixed per-rank budget, unblocked vs blocked —
    // the Figure 5 setup note, quantified.
    let budget = unblocked_total * 0.35; // a node smaller than the 1-block/25-node need
    println!(
        "\nminimum virtual nodes to fit a {:.1} MB per-rank budget:",
        budget / 1e6
    );
    for (label, blocks) in [("1 block", 1usize), ("25 blocks", 25)] {
        let (br, bc) = factor_blocks(blocks);
        let fit = [4usize, 9, 16, 25, 49, 100, 196, 400]
            .into_iter()
            .find(|&nodes| {
                let r = simulate(
                    &ds.store,
                    &bench_params().with_blocking(br, bc),
                    &scale_config(&machine, nodes),
                );
                r.memory.total_bytes() <= budget
            });
        match fit {
            Some(nodes) => println!("  {label:>10}: {nodes} nodes"),
            None => println!("  {label:>10}: does not fit at any tested node count"),
        }
    }
    println!(
        "\npaper: the 20M-sequence search needed all 100 nodes with one block; blocking\n\
         lets the same search run on far fewer nodes by bounding the in-flight output."
    );

    // The dual question, answered by the cost model's budget planner: at a
    // *fixed* node count, which blocking fits a given per-rank budget?
    // (The runtime pairs this with the `--mem-budget` accountant, which
    // spills to disk when the chosen blocking still overshoots.)
    let floor = r1.memory.inputs_bytes + r1.memory.sequences_bytes;
    println!("\nblocks chosen to fit a per-rank budget at 25 nodes:");
    for frac in [0.9, 0.6, 0.4] {
        let budget = unblocked_total * frac;
        match blocking_for_budget(
            &ds.store,
            &bench_params(),
            &scale_config(&machine, 25),
            budget,
            64,
        ) {
            Some((br, bc, r)) => println!(
                "  {:>7.2} MB budget: {br} x {bc} blocks (peak {:.2} MB)",
                budget / 1e6,
                r.memory.total_bytes() / 1e6
            ),
            None => println!("  {:>7.2} MB budget: no blocking fits", budget / 1e6),
        }
    }
    println!(
        "  blocking-invariant floor (inputs + sequences): {:.2} MB —\n\
         below it only the runtime accountant's disk spill helps.",
        floor / 1e6
    );

    measured_spill_overhead();
}
