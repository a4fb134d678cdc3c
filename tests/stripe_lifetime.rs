//! Stripe lifetimes of the Blocked 2D Sparse SUMMA: an operand stripe is
//! dropped once the sparse phase of the last scheduled block that reads it
//! has returned. These tests run that rule where it meets the rest of the
//! pipeline — pre-blocking's lookahead, process counts above one, a resume
//! that starts after some stripes' last use, and a budgeted run whose
//! assembly recomputes a damaged block from stripes already released — and
//! require the similarity TSV to be byte-identical to the 1×1 serial run's.

use std::sync::Arc;

use pastis::comm::{run_threaded, Communicator, FaultPlan, ProcessGrid, SelfComm, TracedComm};
use pastis::core::pipeline::{run_search_traced, SearchResult};
use pastis::core::{LoadBalance, SearchParams, SimilarityGraph};
use pastis::seqio::{SeqStore, SyntheticConfig, SyntheticDataset};
use pastis::trace::{names, Recorder, TraceSession};

fn dataset() -> SeqStore {
    SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 60,
        mean_len: 70.0,
        singleton_fraction: 0.35,
        divergence: 0.10,
        seed: 2024,
        ..SyntheticConfig::small(60, 2024)
    })
    .store
}

/// The TSV as `pastis search` writes it.
fn tsv_of(graph: &SimilarityGraph) -> String {
    graph
        .to_tsv_lines()
        .iter()
        .map(|l| format!("{l}\n"))
        .collect()
}

fn tsv(res: &SearchResult) -> String {
    tsv_of(&res.graph)
}

fn serial(store: &SeqStore, params: &SearchParams, rec: &Recorder) -> SearchResult {
    let grid = ProcessGrid::square(TracedComm::new(SelfComm::new(), rec.clone()));
    run_search_traced(&grid, store, params, rec).unwrap()
}

/// The 1×1 serial TSV every run below must reproduce.
fn reference(store: &SeqStore) -> String {
    let want = tsv(&serial(
        store,
        &SearchParams::test_defaults(),
        &Recorder::disabled(),
    ));
    assert!(
        want.lines().count() > 5,
        "the reference found almost nothing"
    );
    want
}

fn released(rec: &Recorder) -> f64 {
    rec.counters()[names::CTR_MEM_STRIPES_RELEASED]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pastis-lifetime-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_stripe_is_released_once_and_the_tsv_holds() {
    let store = dataset();
    let want = reference(&store);
    for (br, bc, lb, pre) in [
        (1, 1, LoadBalance::Triangular, false),
        (3, 3, LoadBalance::Triangular, false),
        (3, 3, LoadBalance::Triangular, true),
        (4, 2, LoadBalance::IndexBased, true),
        (2, 4, LoadBalance::IndexBased, false),
    ] {
        let params = SearchParams::test_defaults()
            .with_blocking(br, bc)
            .with_load_balance(lb)
            .with_pre_blocking(pre);
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let res = serial(&store, &params, &rec);
        let what = format!("{br}x{bc} {lb:?} pre-blocking {pre}");
        assert_eq!(tsv(&res), want, "{what}");
        assert_eq!(released(&rec), (br + bc) as f64, "{what}");
    }
}

#[test]
fn four_ranks_triangular_pre_blocking_equal_the_serial_tsv() {
    let store = dataset();
    let want = reference(&store);
    let params = SearchParams::test_defaults()
        .with_blocking(3, 3)
        .with_load_balance(LoadBalance::Triangular)
        .with_pre_blocking(true);
    let session = Arc::new(TraceSession::new());
    let sess = Arc::clone(&session);
    let out = run_threaded(4, move |c| {
        let rec = sess.recorder(c.rank());
        let grid = ProcessGrid::square(c.split(0, c.rank()));
        let res = run_search_traced(&grid, &store, &params, &rec).unwrap();
        let global = res.gather_graph(grid.world());
        (tsv_of(&global), released(&rec))
    });
    for (got, released) in out {
        assert_eq!(got, want);
        assert_eq!(released, 6.0, "every rank drops its 3 + 3 stripes");
    }
}

#[test]
fn resuming_after_some_stripes_last_use_keeps_the_tsv() {
    // 3×3 triangular runs (0,0) (0,1) (0,2) (1,1) (1,2) (2,2): B stripe 0
    // is last read by block 0 and A stripe 0 by block 2. Halting after
    // block 2 and again after block 4 resumes into windows that never
    // read those stripes, so they go before the first multiply.
    let store = dataset();
    let want = reference(&store);
    for pre in [false, true] {
        let dir = temp_dir(&format!("resume-{pre}"));
        let base = SearchParams::test_defaults()
            .with_blocking(3, 3)
            .with_load_balance(LoadBalance::Triangular)
            .with_pre_blocking(pre)
            .with_checkpoint_dir(&dir);
        let mut last = None;
        for (resume, halt) in [(false, Some(2)), (true, Some(4)), (true, None)] {
            let mut params = base.clone().with_resume(resume);
            params.halt_after_blocks = halt;
            let session = TraceSession::new();
            let rec = session.recorder(0);
            let res = serial(&store, &params, &rec);
            assert_eq!(released(&rec), 6.0, "pre-blocking {pre}, halt {halt:?}");
            last = Some(res);
        }
        let res = last.unwrap();
        assert_eq!(res.resumed_from_block, Some(4));
        assert_eq!(tsv(&res), want, "pre-blocking {pre}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn assembly_recompute_restores_released_stripes_from_their_spill_copies() {
    // Under a budget a stripe is released at its last use only when its
    // verified spill copy is on disk. Corrupted output shards are
    // recomputed at assembly, after every stripe's last use, so the
    // recompute reads released stripes back from those copies.
    let store = dataset();
    let want = reference(&store);
    let params = SearchParams::test_defaults()
        .with_blocking(3, 3)
        .with_load_balance(LoadBalance::Triangular);
    let dir = temp_dir("loose");
    let loose = serial(
        &store,
        &params.clone().with_mem_budget(1 << 30).with_spill_dir(&dir),
        &Recorder::disabled(),
    );
    let high = loose.mem_high_water.unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut exercised = 0;
    for eighths in [6u64, 5] {
        for seed in 1..=4 {
            let dir = temp_dir(&format!("corrupt-{eighths}-{seed}"));
            let plan = FaultPlan::parse(&format!("seed={seed},spill_corrupt=0.5")).unwrap();
            let budgeted = params
                .clone()
                .with_mem_budget(high * eighths / 8)
                .with_spill_dir(&dir)
                .with_spill_faults(plan);
            let session = TraceSession::new();
            let rec = session.recorder(0);
            let grid = ProcessGrid::square(TracedComm::new(SelfComm::new(), rec.clone()));
            let outcome = run_search_traced(&grid, &store, &budgeted, &rec);
            let _ = std::fs::remove_dir_all(&dir);
            let res = match outcome {
                Ok(res) => res,
                Err(e) => {
                    assert!(e.contains("out of memory in phase"), "{e}");
                    continue;
                }
            };
            assert_eq!(
                tsv(&res),
                want,
                "{eighths}/8 of the high water, seed {seed}"
            );
            // Stripe reads after the first output shard was read back
            // belong to the assembly's recompute.
            let spans = rec.snapshot_spans();
            let has = |s: &pastis::trace::SpanEvent, k: &str| s.args.iter().any(|(n, _)| *n == k);
            let reads: Vec<_> = spans
                .iter()
                .filter(|s| s.name == names::SPAN_SPILL_READ)
                .collect();
            let assembly = reads.iter().position(|s| has(s, "block"));
            let recompute_reads = assembly.map_or(0, |k| {
                reads[k..].iter().filter(|s| has(s, "stripe")).count()
            });
            let recomputes = rec.counters().get(names::CTR_SPILL_RECOMPUTES).copied();
            if recomputes.unwrap_or(0.0) > 0.0 && released(&rec) > 0.0 && recompute_reads > 0 {
                exercised += 1;
            }
        }
    }
    assert!(
        exercised > 0,
        "no run recomputed a block from released stripes"
    );
}
