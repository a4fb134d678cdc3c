//! Section VI-A — the Blocked 2D Sparse SUMMA communication-cost analysis.
//!
//! The paper derives:
//!   plain:   2α√p·log√p + 2βs√p·log√p
//!   blocked: 2α(br·bc)√p·log√p + βs(br+bc)√p·log√p
//!
//! This binary (a) prints the analytic cost surface for Summit's α/β over
//! the paper's configuration ranges and (b) cross-checks the formula
//! against the *counted* broadcast traffic of the real threaded SUMMA
//! implementation (message counts from the communicator's statistics).

use pastis_bench::*;
use pastis_comm::{run_threaded, Communicator, MachineModel, ProcessGrid};
use pastis_sparse::{BlockedSumma, PlusTimes, SpGemmPool, Stitch, Triples};

fn main() {
    let net = MachineModel::summit().net;
    println!("analytic Blocked 2D Sparse SUMMA communication cost (Summit α/β)");
    println!("sub-matrix payload s = 100 MB\n");
    rule(72);
    println!(
        "{:>6} | {:>10} {:>10} {:>10} {:>10} {:>10}",
        "p", "1x1", "5x2", "8x8", "20x20", "blocked/plain(8x8)"
    );
    rule(72);
    let s_bytes = 100.0e6;
    for p in [49usize, 100, 400, 1024, 3364] {
        let plain = net.summa_cost(p, s_bytes);
        let c52 = net.blocked_summa_cost(p, s_bytes, 5, 2);
        let c88 = net.blocked_summa_cost(p, s_bytes, 8, 8);
        let c2020 = net.blocked_summa_cost(p, s_bytes, 20, 20);
        println!(
            "{:>6} | {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s {:>10.1}",
            p,
            plain,
            c52,
            c88,
            c2020,
            c88 / plain
        );
    }
    rule(72);
    println!(
        "the blocked variant multiplies the latency term by br·bc and the bandwidth\n\
         term by (br+bc)/2 — the price paid for the bounded memory footprint.\n"
    );

    // --- Cross-check against the real threaded implementation: count the
    // broadcasts issued by a Blocked SUMMA on p = 4 ranks and compare with
    // the formula's message-count prediction.
    // The counts are taken from the *overlapped* (double-buffered) path —
    // prefetching moves when a broadcast is posted, never how many are
    // posted, so the α-term is schedule-invariant.
    println!("cross-check vs the threaded implementation (p = 4, overlapped, counted broadcasts):");
    rule(64);
    println!(
        "{:>7} | {:>16} {:>16} {:>8}",
        "br x bc", "bcasts counted", "2·br·bc·√p", "match"
    );
    rule(64);
    for (br, bc) in [(1usize, 1usize), (2, 2), (3, 2), (4, 4)] {
        let counted = run_threaded(4, move |c| {
            let grid = ProcessGrid::square(c.split(0, c.rank()));
            let t = if c.rank() == 0 {
                let mut t = Triples::new(24, 24);
                for i in 0..24u32 {
                    t.push(i, (i * 7 + 3) % 24, 1.0f64);
                    t.push(i, (i * 5 + 1) % 24, 2.0);
                }
                t
            } else {
                Triples::new(24, 24)
            };
            let t2 = t.clone();
            let bs = BlockedSumma::from_triples(&grid, t, t2, br, bc, |_, _| {}, |_, _| {});
            let before = grid.row_comm().stats().broadcasts + grid.col_comm().stats().broadcasts;
            let pool = SpGemmPool::serial();
            for r in 0..br {
                for cc in 0..bc {
                    let ncols = bs.b_stripe(cc).col_dist().part_len(grid.my_col());
                    let (sr, stitch) = (PlusTimes::<f64>::new(), Stitch::new(ncols));
                    let consume = |first, chunk: &mut _| stitch.push(first, chunk);
                    let _ = bs.multiply_block(&grid, &sr, r, cc, &pool, true, consume);
                }
            }
            let after = grid.row_comm().stats().broadcasts + grid.col_comm().stats().broadcasts;
            after - before
        });
        // Every rank participates in 2·√p broadcasts per output block
        // (√p stages × two input sides), for br·bc blocks.
        let q = 2; // √4
        let predicted = (2 * q * br * bc) as u64;
        let ok = counted.iter().all(|&c| c == predicted);
        println!(
            "{:>3} x {:<3} | {:>16} {:>16} {:>8}",
            br,
            bc,
            counted[0],
            predicted,
            if ok { "yes" } else { "NO" }
        );
        assert!(ok, "formula/implementation mismatch");
    }
    rule(64);
    println!("message counts match the α-term of the Section VI-A analysis exactly.");
}
