//! Service conformance suite: `pastis serve` against a persisted index
//! must be **byte-identical** to the batch `pastis search` whenever the
//! query stream is the reference set itself — for every admission batch
//! split, thread count, SIMD backend, alignment kernel, and cache
//! setting. This is the contract that makes the serving mode a drop-in
//! face of the same search, not a second implementation with its own
//! answers.

use pastis::core::pipeline::run_search_serial;
use pastis::core::{
    build_index, serve_queries, IndexBuildConfig, PersistedIndex, SearchParams, ServeConfig,
};
use pastis::seqio::fasta::SeqStore;
use pastis::seqio::{SyntheticConfig, SyntheticDataset};
use std::path::PathBuf;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 80,
        divergence: 0.06,
        indel_prob: 0.01,
        mean_len: 90.0,
        singleton_fraction: 0.3,
        seed: 99,
        ..SyntheticConfig::small(80, 99)
    })
}

fn params() -> SearchParams {
    SearchParams {
        k: 5,
        common_kmer_threshold: 2,
        ani_threshold: 0.4,
        coverage_threshold: 0.5,
        ..SearchParams::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pastis-serve-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build(store: &SeqStore, p: &SearchParams, stripe_cols: usize, tag: &str) -> PersistedIndex {
    let dir = tmpdir(tag);
    let cfg = IndexBuildConfig {
        k: p.k,
        alphabet: p.alphabet,
        substitute_kmers: p.substitute_kmers,
        stripe_cols,
        mem_budget: None,
    };
    build_index(store, &cfg, &dir, &pastis::trace::Recorder::disabled()).unwrap();
    PersistedIndex::open(&dir).unwrap()
}

#[test]
fn self_serve_is_byte_identical_across_splits_threads_and_cache() {
    let ds = dataset();
    let p = params();
    let want = run_search_serial(&ds.store, &p)
        .unwrap()
        .graph
        .to_tsv_lines();
    assert!(
        want.len() > 10,
        "dataset too easy/hard: {} edges",
        want.len()
    );

    // Two stripe decompositions of the same index, to prove shard layout
    // is invisible too.
    for (stripe_cols, tag) in [(17usize, "s17"), (4096, "s4096")] {
        let idx = build(&ds.store, &p, stripe_cols, tag);
        for max_batch in [3usize, 64] {
            for threads in [1usize, 3] {
                for cache_entries in [0usize, 32] {
                    let mut sp = p.clone();
                    sp.align_threads = threads;
                    let cfg = ServeConfig {
                        params: sp,
                        max_batch,
                        max_wait_us: 1_000_000,
                        cache_entries,
                    };
                    let out = serve_queries(&idx, &ds.store, &cfg).unwrap();
                    assert!(out.stats.self_mode);
                    assert_eq!(
                        out.lines, want,
                        "stripe_cols={stripe_cols} max_batch={max_batch} \
                         threads={threads} cache={cache_entries}"
                    );
                }
            }
        }
        // The unified work pool is just another thread configuration.
        let mut sp = p.clone();
        sp.threads = Some(2);
        let cfg = ServeConfig {
            params: sp,
            max_batch: 16,
            max_wait_us: 1_000_000,
            cache_entries: 8,
        };
        assert_eq!(serve_queries(&idx, &ds.store, &cfg).unwrap().lines, want);
    }
}

#[test]
fn self_serve_aligns_each_pair_once_even_with_duplicate_sequences() {
    // Self mode aligns only (query, reference) pairs with reference id >
    // query id. A duplicated sequence is the case that could break it:
    // with the cache on, the later copy is answered from the earlier
    // copy's hit vector (cached or coalesced), which must still hold
    // every reference above the later copy's own id.
    let base = dataset().store;
    let mut store = SeqStore::new();
    for i in 0..base.len() {
        store.push(base.id(i).to_owned(), base.seq(i).to_vec());
        if i % 7 == 0 {
            // A copy right behind the original (same admission batch) ...
            store.push(format!("{}_again", base.id(i)), base.seq(i).to_vec());
        }
    }
    for i in (0..base.len()).step_by(11) {
        // ... and copies a whole run later.
        store.push(format!("{}_late", base.id(i)), base.seq(i).to_vec());
    }
    let p = params();
    let batch = run_search_serial(&store, &p).unwrap();
    let want = batch.graph.to_tsv_lines();
    assert!(want.len() > 10, "{} edges", want.len());

    let idx = build(&store, &p, 64, "dups");
    for cache_entries in [0usize, 4, 256] {
        for max_batch in [5usize, 64] {
            let cfg = ServeConfig {
                params: p.clone(),
                max_batch,
                max_wait_us: 1_000_000,
                cache_entries,
            };
            let out = serve_queries(&idx, &store, &cfg).unwrap();
            assert!(out.stats.self_mode);
            assert_eq!(
                out.lines, want,
                "cache={cache_entries} max_batch={max_batch}"
            );
            if cache_entries == 0 {
                // Nothing shared: exactly the batch run's alignments.
                assert_eq!(out.stats.aligned_pairs, batch.stats.aligned_pairs);
                assert_eq!(out.stats.cells, batch.stats.cells);
            } else {
                assert!(out.stats.cache_hits > 0, "duplicates never hit");
                assert!(out.stats.aligned_pairs <= batch.stats.aligned_pairs);
            }
        }
    }
}

#[test]
fn self_serve_score_only_matches_batch_for_scalar_and_auto_simd() {
    use pastis::align::SimdPolicy;
    use pastis::core::params::AlignKind;

    let ds = dataset();
    let mut p = params();
    p.align_kind = AlignKind::ScoreOnly;
    let idx = build(&ds.store, &p, 64, "simd");
    for simd in ["scalar", "auto"] {
        let mut sp = p.clone();
        sp.simd = SimdPolicy::parse(simd).unwrap();
        let want = run_search_serial(&ds.store, &sp)
            .unwrap()
            .graph
            .to_tsv_lines();
        assert!(!want.is_empty());
        for cache_entries in [0usize, 16] {
            let cfg = ServeConfig {
                params: sp.clone(),
                max_batch: 10,
                max_wait_us: 1_000_000,
                cache_entries,
            };
            let out = serve_queries(&idx, &ds.store, &cfg).unwrap();
            assert_eq!(out.lines, want, "simd={simd} cache={cache_entries}");
        }
    }
}

#[test]
fn general_mode_duplicated_stream_caches_and_matches_cold_run() {
    let ds = dataset();
    let p = params();
    let idx = build(&ds.store, &p, 32, "dup");
    // A duplicated subset stream: not the reference set → general mode.
    let mut queries = SeqStore::new();
    for pick in [0usize, 5, 0, 9, 5, 0, 17] {
        queries.push(format!("q{pick}"), ds.store.seq(pick).to_vec());
    }
    let mk = |cache: usize, max_batch: usize| ServeConfig {
        params: p.clone(),
        max_batch,
        max_wait_us: 1_000_000,
        cache_entries: cache,
    };
    let cold = serve_queries(&idx, &queries, &mk(0, 2)).unwrap();
    assert!(!cold.stats.self_mode);
    assert_eq!(cold.stats.cache_hits, 0);
    for (cache, max_batch) in [(16usize, 2usize), (16, 7), (2, 3)] {
        let out = serve_queries(&idx, &queries, &mk(cache, max_batch)).unwrap();
        assert_eq!(out.lines, cold.lines, "cache={cache} max_batch={max_batch}");
        assert!(
            out.stats.cache_hits > 0,
            "duplicated stream must hit: {:?}",
            out.stats
        );
    }
}

#[test]
fn reopened_index_serves_identically_and_stale_params_refuse() {
    let ds = dataset();
    let p = params();
    let idx = build(&ds.store, &p, 23, "reopen");
    let cfg = ServeConfig {
        params: p.clone(),
        max_batch: 16,
        max_wait_us: 1_000_000,
        cache_entries: 0,
    };
    let first = serve_queries(&idx, &ds.store, &cfg).unwrap();
    // A fresh open of the same directory — fully from disk — serves the
    // same bytes.
    let reopened = PersistedIndex::open(&idx.dir).unwrap();
    assert_eq!(
        serve_queries(&reopened, &ds.store, &cfg).unwrap().lines,
        first.lines
    );
    // Mismatched k-mer parameters refuse with the stale-index message.
    let mut stale = cfg.clone();
    stale.params.k = p.k + 1;
    let err = serve_queries(&reopened, &ds.store, &stale).unwrap_err();
    assert!(err.contains("stale index"), "{err}");
}
