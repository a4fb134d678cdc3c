//! The query-serving loop behind `pastis serve` (ROADMAP #1): answer
//! streams of queries against a [`PersistedIndex`] instead of re-running
//! the all-vs-all batch job.
//!
//! Three pieces sit in front of the compute:
//!
//! * [`AdmissionBatcher`] — groups incoming queries into SIMD-lane-aligned
//!   batches (full batches are a multiple of the vector kernel's lane
//!   count, sized from the cost model via
//!   [`crate::perfmodel::recommended_serve_batch`]) with a max-latency
//!   flush deadline so a trickling stream still gets answers.
//! * [`ResultCache`] — a bounded LRU keyed by query *content* (the full
//!   sequence bytes, not a hash, so collisions are impossible), with
//!   hit/miss/eviction counters. A query's cached value is its complete
//!   hit vector against the reference set — content-determined, so
//!   serving with the cache on is bit-identical to serving with it off.
//! * The batch engine — forms `A_query` exactly as the batch pipeline
//!   forms its SUMMA operand (the one builder, [`KmerMatrix::build`],
//!   first positions, smallest kept), once per batch and transposed once;
//!   relabels it into each loaded stripe's own nonempty k-mer rows by a
//!   merge walk of the two sorted id lists (k-mers a stripe lacks cannot
//!   match there and are dropped); runs one striped SpGEMM over those
//!   `(A_s, B_s)` pairs ([`SpGemmPool::multiply_striped`]); and hands the
//!   candidates to the batch pipeline's own candidate → align → edge stage
//!   (`filter::collect_candidates`, `filter::align_candidates`).
//!
//! **Conformance contract** (pinned by `tests/serve_e2e.rs` and the unit
//! tests below): serving the reference set back as queries against its own
//! index emits a TSV byte-identical to the batch `pastis search` run —
//! for any admission batch split, thread count, SIMD backend, SpGEMM
//! kernel, stripe width, and cache setting. The argument: per-entry
//! overlap values combine in ascending-k-mer order in both paths
//! (single-stage Gustavson here over a monotone relabelling, pinned
//! rank-invariant in batch), alignment results are per-pair and
//! batching-independent, and edge construction is shared code.
//!
//! Telemetry: one `serve.request` span per query (admission → result,
//! the latency series behind the serve p50/p95/p99 report, on
//! [`Track::Latency`]: requests overlap, so they add to no component's
//! seconds), one
//! `serve.batch` span per executed batch, one `index.load` span per
//! stripe load, plus cache hit/miss counters — all registered in
//! [`pastis_trace::names`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pastis_align::parallel::AlignPool;
use pastis_comm::MachineModel;
use pastis_seqio::SeqStore;
use pastis_sparse::SpGemmPool;
use pastis_trace::{names, span, Component, Recorder, SpanGuard, Track};

use crate::filter::{align_candidates, collect_candidates, EdgeFilter};
use crate::index::{store_digest, PersistedIndex};
use crate::kmer::{relabel, KmerMatrix};
use crate::overlap::OverlapSemiring;
use crate::params::{AlignKind, SearchParams};
use crate::pipeline::Pools;
use crate::simgraph::{SimilarityEdge, SimilarityGraph};

/// Admission batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// SIMD lane count of the alignment kernel; full batches are a
    /// multiple of it (clamped to ≥ 1).
    pub lanes: usize,
    /// Hard batch-size cap; no emitted batch ever exceeds it.
    pub max_batch: usize,
    /// Flush deadline: once the oldest queued query has waited this many
    /// microseconds, [`AdmissionBatcher::poll`] drains even a partial
    /// (non-lane-aligned) batch — latency beats alignment.
    pub max_wait_us: u64,
}

/// FIFO admission queue emitting lane-aligned batches with a max-latency
/// flush deadline. Purely deterministic: batch boundaries depend only on
/// the push/poll sequence and the clock values the caller passes in, and
/// results never depend on batch boundaries at all (see module docs).
#[derive(Debug)]
pub struct AdmissionBatcher {
    cfg: BatcherConfig,
    queue: std::collections::VecDeque<(u32, u64)>,
}

impl AdmissionBatcher {
    /// A new empty batcher (`lanes` and `max_batch` are clamped to ≥ 1).
    pub fn new(mut cfg: BatcherConfig) -> AdmissionBatcher {
        cfg.lanes = cfg.lanes.max(1);
        cfg.max_batch = cfg.max_batch.max(1);
        AdmissionBatcher {
            cfg,
            queue: std::collections::VecDeque::new(),
        }
    }

    /// The full-batch size: the largest lane multiple not exceeding
    /// `max_batch` (or `max_batch` itself when it is below one lane).
    pub fn full_batch(&self) -> usize {
        let aligned = self.cfg.max_batch - self.cfg.max_batch % self.cfg.lanes;
        if aligned == 0 {
            self.cfg.max_batch
        } else {
            aligned
        }
    }

    /// Queued queries not yet emitted.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn drain(&mut self, n: usize) -> Vec<u32> {
        self.queue.drain(..n).map(|(q, _)| q).collect()
    }

    /// Admit a query at `now_us`; returns a full lane-aligned batch when
    /// the queue reaches the full-batch size.
    pub fn push(&mut self, query: u32, now_us: u64) -> Option<Vec<u32>> {
        self.queue.push_back((query, now_us));
        (self.queue.len() >= self.full_batch()).then(|| {
            let n = self.full_batch();
            self.drain(n)
        })
    }

    /// Deadline check: when the oldest queued query has waited past
    /// `max_wait_us`, drain up to one full batch (possibly partial — the
    /// deadline always wins over lane alignment).
    pub fn poll(&mut self, now_us: u64) -> Option<Vec<u32>> {
        let (_, admitted) = *self.queue.front()?;
        (now_us.saturating_sub(admitted) >= self.cfg.max_wait_us).then(|| {
            let n = self.queue.len().min(self.full_batch());
            self.drain(n)
        })
    }

    /// End-of-stream drain: emit the next batch regardless of deadlines;
    /// `None` once empty. Calling until `None` always empties the queue.
    pub fn flush(&mut self) -> Option<Vec<u32>> {
        if self.queue.is_empty() {
            return None;
        }
        let n = self.queue.len().min(self.full_batch());
        Some(self.drain(n))
    }
}

/// A bounded LRU cache keyed by full query content. Values are shared
/// (`Arc`) so a hit costs no copy. Eviction is strict LRU over a
/// monotone access stamp — deterministic for a deterministic access
/// sequence.
#[derive(Debug)]
pub struct ResultCache<V> {
    cap: usize,
    tick: u64,
    map: HashMap<Vec<u8>, (u64, Arc<V>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> ResultCache<V> {
    /// A cache holding at most `cap` entries (clamped to ≥ 1).
    pub fn new(cap: usize) -> ResultCache<V> {
        ResultCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up by content; a hit refreshes recency.
    pub fn get(&mut self, key: &[u8]) -> Option<Arc<V>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((stamp, v)) => {
                *stamp = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// entries until the bound holds.
    pub fn insert(&mut self, key: Vec<u8>, value: Arc<V>) {
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
        while self.map.len() > self.cap {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("cache over bound is non-empty");
            self.map.remove(&lru);
            self.evictions += 1;
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to respect the bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// One query's hit against one reference: everything needed to emit the
/// result row, minus the query's identity — the cached value is purely
/// content-determined, so a duplicate query with a different id reuses it
/// verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeHit {
    /// Reference sequence id (global column of the index).
    pub j: u32,
    /// Alignment score.
    pub score: i32,
    /// Identity (or normalized score for banded/score-only kernels).
    pub ani: f32,
    /// Coverage (ditto).
    pub coverage: f32,
    /// Shared k-mer count from the overlap matrix.
    pub common_kmers: u32,
}

/// Serving knobs on top of the shared [`SearchParams`] (whose k-mer,
/// threshold, alignment, SIMD, kernel, and thread knobs all apply).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The search parameters; `k`/`alphabet`/`substitute_kmers` must
    /// match the index (enforced by [`PersistedIndex::check_params`]).
    pub params: SearchParams,
    /// Admission batch cap; 0 picks a cost-model-derived lane-aligned
    /// size ([`crate::perfmodel::recommended_serve_batch`]).
    pub max_batch: usize,
    /// Admission flush deadline in microseconds.
    pub max_wait_us: u64,
    /// Result-cache entries (0 disables the cache).
    pub cache_entries: usize,
}

impl ServeConfig {
    /// Serving defaults around the given search parameters: auto batch
    /// size, 10 ms flush deadline, 1024-entry cache.
    pub fn from_params(params: SearchParams) -> ServeConfig {
        ServeConfig {
            params,
            max_batch: 0,
            max_wait_us: 10_000,
            cache_entries: 1024,
        }
    }
}

/// Serving-run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Queries admitted.
    pub requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Queries computed fresh (cache enabled but missed).
    pub cache_misses: u64,
    /// Overlap-matrix nonzeros inspected.
    pub candidates: u64,
    /// Pairs aligned.
    pub aligned_pairs: u64,
    /// DP cells computed.
    pub cells: u64,
    /// Result rows emitted.
    pub emitted: u64,
    /// Index stripes loaded from disk.
    pub stripes_loaded: u64,
    /// Whether the query stream was recognized as the reference set
    /// itself (digest match) and served in batch-conformant self mode.
    pub self_mode: bool,
}

/// A finished serving run: the output rows (TSV, in final order) plus
/// counters.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// TSV rows. In self mode these are byte-identical to the batch
    /// search's `to_tsv_lines()`; otherwise one row per (query, hit) in
    /// query order, references ascending.
    pub lines: Vec<String>,
    /// Run counters.
    pub stats: ServeStats,
}

/// The per-batch compute engine: loaded stripes + pools.
struct BatchEngine<'a> {
    index: &'a PersistedIndex,
    queries: &'a SeqStore,
    params: &'a SearchParams,
    filter: EdgeFilter,
    spgemm: SpGemmPool,
    align: AlignPool,
    recorder: &'a Recorder,
    stripes: Vec<Option<KmerMatrix>>,
    stripes_loaded: u64,
    /// The query stream is the reference set: only pairs with
    /// `reference id > query id` are ever emitted.
    self_mode: bool,
}

impl BatchEngine<'_> {
    /// Load every not-yet-resident stripe (on demand, first batch pays).
    fn ensure_stripes(&mut self) -> Result<(), String> {
        for s in 0..self.stripes.len() {
            if self.stripes[s].is_some() {
                continue;
            }
            let _load = span!(self.recorder, Component::Io, names::SPAN_INDEX_LOAD, {
                stripe: s as u64,
            });
            self.stripes[s] = Some(self.index.load_stripe(s)?);
            self.stripes_loaded += 1;
            self.recorder
                .add_counter(names::CTR_INDEX_STRIPES_LOADED, 1.0);
        }
        Ok(())
    }

    /// Answer one admission batch: the full hit vector of every query in
    /// it, in batch order, references ascending.
    fn run_batch(
        &mut self,
        qids: &[u32],
        stats: &mut ServeStats,
    ) -> Result<Vec<Vec<ServeHit>>, String> {
        // Before the batch span: an `index.load` inside it would count
        // twice in the component seconds.
        self.ensure_stripes()?;
        let mut bspan = span!(self.recorder, Component::SparseOther, names::SPAN_SERVE_BATCH, {
            size: qids.len() as u64,
        });
        let bn = qids.len();
        let p = self.params;

        // A_query: the batch pipeline's operand recipe on the batch's own
        // little store, transposed once, then relabelled per stripe into
        // that stripe's rows by a merge walk of the sorted k-mer ids.
        let mut bstore = SeqStore::new();
        for &q in qids {
            bstore.push(String::new(), self.queries.seq(q as usize).to_vec());
        }
        let kmers = KmerMatrix::build(&bstore, 0..bn, p.k, p.alphabet, p.substitute_kmers);
        let a_qb = kmers.at.transpose();
        let mut target = Vec::new();
        let per_stripe = self.stripes.iter().map(|s| {
            let s = s.as_ref().expect("loaded");
            kmers.columns_in(&s.ids, &mut target);
            (relabel(&a_qb, &target, s.at.nrows()), &s.at)
        });

        // One striped SpGEMM over the overlap semiring: per-entry combine
        // order is ascending k-mer id, exactly the batch SUMMA's order.
        let sr = OverlapSemiring;
        let (c, gemm_stats) = self.spgemm.multiply_striped(&sr, bn, per_stripe);
        bspan.push_arg("products", gemm_stats.products);

        // Candidate selection, alignment and edge construction: the batch
        // pipeline's own stage. Lookup ids are `li < bn` for a query and
        // `bn + lj` for a reference, so the query is always the lower id
        // and the stage's orientation rule leaves every pair as it is.
        stats.candidates += c.nnz() as u64;
        let self_mode = self.self_mode;
        let entries = qids.iter().enumerate().flat_map(|(li, &qid)| {
            let (cols, vals) = c.row(li);
            cols.iter()
                .zip(vals)
                // Self mode emits each unordered pair once, from its
                // smaller id, so the other orientation is never aligned.
                // A hit vector shared through the cache or coalescing was
                // computed for a smaller query id (requests are answered
                // in ascending order), so it still holds every reference
                // above the sharing query's own id.
                .filter(move |(&lj, _)| !self_mode || lj > qid)
                .map(move |(&lj, ck)| (li as u32, bn as u32 + lj, ck))
        });
        let (tasks, counts) = collect_candidates(entries, p.common_kmer_threshold);
        stats.aligned_pairs += tasks.len() as u64;
        bspan.push_arg("pairs", tasks.len() as u64);

        let refs = &self.index.refs;
        let lookup = |id: u32| -> &[u8] {
            let id = id as usize;
            if id < bn {
                bstore.seq(id)
            } else {
                refs.seq(id - bn)
            }
        };
        let (edges, bstats) =
            align_candidates(&tasks, &counts, lookup, p, &self.align, &self.filter);
        stats.cells += bstats.cells;
        if !matches!(p.align_kind, AlignKind::Banded(_)) {
            bspan.push_arg("simd", bstats.simd.id());
        }
        let mut hits: Vec<Vec<ServeHit>> = (0..bn).map(|_| Vec::new()).collect();
        for e in edges {
            hits[e.i as usize].push(ServeHit {
                j: e.j - bn as u32,
                score: e.score,
                ani: e.ani,
                coverage: e.coverage,
                common_kmers: e.common_kmers,
            });
        }
        Ok(hits)
    }
}

/// [`serve_queries_traced`] without telemetry.
///
/// # Errors
///
/// See [`serve_queries_traced`].
pub fn serve_queries(
    index: &PersistedIndex,
    queries: &SeqStore,
    cfg: &ServeConfig,
) -> Result<ServeOutcome, String> {
    serve_queries_traced(index, queries, cfg, &Recorder::disabled())
}

/// Serve a query store against a persisted index.
///
/// When the query stream *is* the reference set (content digest match),
/// the run is in **self mode**: output is the strict-upper-triangle
/// similarity graph, byte-identical to the batch all-vs-all TSV.
/// Otherwise every (query, reference) hit is emitted in query order.
///
/// # Errors
///
/// Invalid parameters, a stale or corrupt index, and I/O failures are
/// typed errors.
pub fn serve_queries_traced(
    index: &PersistedIndex,
    queries: &SeqStore,
    cfg: &ServeConfig,
    recorder: &Recorder,
) -> Result<ServeOutcome, String> {
    let params = &cfg.params;
    params.validate()?;
    index.check_params(params.k, params.alphabet, params.substitute_kmers)?;

    let pools = Pools::new(params, recorder);
    let lanes = pools.align.simd().lanes();
    // Batch-size precedence: an explicit `--batch`, then the cost model's
    // recommendation. Both are output-safe — results never depend on batch
    // boundaries.
    let max_batch = match cfg.max_batch {
        b if b > 0 => b,
        _ => crate::perfmodel::recommended_serve_batch(
            &MachineModel::commodity(),
            lanes,
            queries.mean_len(),
            256,
        ),
    };
    let mut batcher = AdmissionBatcher::new(BatcherConfig {
        lanes,
        max_batch,
        max_wait_us: cfg.max_wait_us,
    });

    let self_mode = store_digest(queries) == index.manifest.refs_digest;
    let mut engine = BatchEngine {
        index,
        queries,
        params,
        filter: EdgeFilter::from_params(params),
        spgemm: pools.spgemm,
        align: pools.align,
        recorder,
        stripes: (0..index.manifest.n_stripes).map(|_| None).collect(),
        stripes_loaded: 0,
        self_mode,
    };

    let nq = queries.len();
    let mut stats = ServeStats {
        self_mode,
        ..ServeStats::default()
    };
    let mut cache: Option<ResultCache<Vec<ServeHit>>> =
        (cfg.cache_entries > 0).then(|| ResultCache::new(cfg.cache_entries));
    let mut results: Vec<Option<Arc<Vec<ServeHit>>>> = (0..nq).map(|_| None).collect();
    let mut open: Vec<Option<SpanGuard>> = (0..nq).map(|_| None).collect();
    // Request coalescing (cache-enabled runs only): a duplicate of a query
    // already queued or computing shares that in-flight result instead of
    // recomputing — content → follower query ids, drained as each batch
    // completes. Hits are content-determined, so coalescing can't change
    // output; it's what makes a duplicated stream hit even when the
    // duplicates land inside one batch window.
    let mut inflight: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
    let epoch = Instant::now();

    // Finish one emitted batch: compute, fill results (representatives and
    // their coalesced followers), close request spans.
    fn complete(
        engine: &mut BatchEngine<'_>,
        qids: &[u32],
        results: &mut [Option<Arc<Vec<ServeHit>>>],
        open: &mut [Option<SpanGuard>],
        cache: &mut Option<ResultCache<Vec<ServeHit>>>,
        inflight: &mut HashMap<Vec<u8>, Vec<usize>>,
        stats: &mut ServeStats,
    ) -> Result<(), String> {
        stats.batches += 1;
        engine.recorder.add_counter(names::CTR_SERVE_BATCHES, 1.0);
        let hits = engine.run_batch(qids, stats)?;
        for (&q, h) in qids.iter().zip(hits) {
            let h = Arc::new(h);
            let seq = engine.queries.seq(q as usize);
            if let Some(c) = cache.as_mut() {
                c.insert(seq.to_vec(), h.clone());
            }
            for f in inflight.remove(seq).into_iter().flatten() {
                results[f] = Some(h.clone());
                open[f].take();
            }
            results[q as usize] = Some(h);
            open[q as usize].take(); // drop → closes the serve.request span
        }
        Ok(())
    }

    for q in 0..nq {
        stats.requests += 1;
        recorder.add_counter(names::CTR_SERVE_REQUESTS, 1.0);
        // On the latency track: requests overlap, so their spans must not
        // add up into the component seconds.
        let mut g = span!(recorder, Component::SparseOther, names::SPAN_SERVE_REQUEST, {
            query: q as u64,
        })
        .on_track(Track::Latency);
        if let Some(c) = cache.as_mut() {
            if let Some(h) = c.get(queries.seq(q)) {
                recorder.add_counter(names::CTR_SERVE_CACHE_HIT, 1.0);
                stats.cache_hits += 1;
                g.push_arg("cache_hit", 1);
                results[q] = Some(h);
                continue; // span guard drops here: request done
            }
            if let Some(followers) = inflight.get_mut(queries.seq(q)) {
                // An identical query is already in flight: ride its batch.
                // Answered without compute, so it counts as a cache hit.
                recorder.add_counter(names::CTR_SERVE_CACHE_HIT, 1.0);
                stats.cache_hits += 1;
                g.push_arg("cache_hit", 1);
                followers.push(q);
                open[q] = Some(g); // closes when the shared batch lands
                continue;
            }
            recorder.add_counter(names::CTR_SERVE_CACHE_MISS, 1.0);
            stats.cache_misses += 1;
            inflight.insert(queries.seq(q).to_vec(), Vec::new());
        }
        open[q] = Some(g);
        if let Some(batch) = batcher.push(q as u32, epoch.elapsed().as_micros() as u64) {
            #[rustfmt::skip]
            complete(&mut engine, &batch, &mut results, &mut open, &mut cache, &mut inflight, &mut stats)?;
        }
        while let Some(batch) = batcher.poll(epoch.elapsed().as_micros() as u64) {
            #[rustfmt::skip]
            complete(&mut engine, &batch, &mut results, &mut open, &mut cache, &mut inflight, &mut stats)?;
        }
    }
    while let Some(batch) = batcher.flush() {
        #[rustfmt::skip]
        complete(&mut engine, &batch, &mut results, &mut open, &mut cache, &mut inflight, &mut stats)?;
    }
    debug_assert!(inflight.is_empty(), "all coalesced requests drained");
    if let Some(c) = &cache {
        recorder.add_counter(names::CTR_SERVE_CACHE_EVICTIONS, c.evictions() as f64);
    }
    stats.stripes_loaded = engine.stripes_loaded;

    // Emission. Self mode rebuilds the batch pipeline's exact output: the
    // strict upper triangle (each unordered pair once, from its
    // smaller-id side) through the same graph normalize/render path.
    let lines = if self_mode {
        let mut graph = SimilarityGraph::new(index.manifest.n_refs);
        for (q, r) in results.iter().enumerate() {
            let hits = r.as_ref().expect("every query answered");
            for h in hits.iter() {
                if (h.j as usize) > q {
                    graph.add(SimilarityEdge {
                        i: q as u32,
                        j: h.j,
                        score: h.score,
                        ani: h.ani,
                        coverage: h.coverage,
                        common_kmers: h.common_kmers,
                    });
                }
            }
        }
        graph.normalize();
        graph.to_tsv_lines()
    } else {
        let mut lines = Vec::new();
        for (q, r) in results.iter().enumerate() {
            let hits = r.as_ref().expect("every query answered");
            for h in hits.iter() {
                lines.push(
                    SimilarityEdge {
                        i: q as u32,
                        j: h.j,
                        score: h.score,
                        ani: h.ani,
                        coverage: h.coverage,
                        common_kmers: h.common_kmers,
                    }
                    .to_tsv(),
                );
            }
        }
        lines
    };
    stats.emitted = lines.len() as u64;
    recorder.add_counter(names::CTR_SIMILAR_PAIRS, stats.emitted as f64);
    Ok(ServeOutcome { lines, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_index, IndexBuildConfig};
    use crate::pipeline::run_search_serial;
    use pastis_align::matrices::encode;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn tiny_store() -> SeqStore {
        let mut s = SeqStore::new();
        for (i, q) in [
            "MKVLAWYHEEMKVLAWYHEE",
            "MKVLAWYHEEMKVLAWYHEA",
            "GGSTPNQRCDGGSTPNQRCD",
            "GGSTPNQRCDGGSTPNQRCE",
            "WPWPWPWPWPWPWPWPWPWP",
        ]
        .iter()
        .enumerate()
        {
            s.push(format!("s{i}"), encode(q).unwrap());
        }
        s
    }

    /// One shared index over `tiny_store`, built once per process.
    fn shared_index_dir() -> &'static PathBuf {
        static DIR: OnceLock<PathBuf> = OnceLock::new();
        DIR.get_or_init(|| {
            let dir =
                std::env::temp_dir().join(format!("pastis-serve-shared-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let cfg = IndexBuildConfig {
                stripe_cols: 2,
                ..IndexBuildConfig::default()
            };
            build_index(&tiny_store(), &cfg, &dir, &Recorder::disabled()).unwrap();
            dir
        })
    }

    #[test]
    fn self_serve_matches_batch_search_byte_for_byte() {
        let store = tiny_store();
        let params = SearchParams::test_defaults();
        let batch = run_search_serial(&store, &params).unwrap();
        let want = batch.graph.to_tsv_lines();
        assert!(!want.is_empty(), "tiny store must produce edges");

        let idx = PersistedIndex::open(shared_index_dir()).unwrap();
        for max_batch in [1usize, 2, 64] {
            for cache_entries in [0usize, 8] {
                let cfg = ServeConfig {
                    params: params.clone(),
                    max_batch,
                    max_wait_us: 1_000_000,
                    cache_entries,
                };
                let out = serve_queries(&idx, &store, &cfg).unwrap();
                assert!(out.stats.self_mode);
                assert_eq!(
                    out.lines, want,
                    "max_batch={max_batch} cache={cache_entries}"
                );
            }
        }
    }

    #[test]
    fn duplicate_queries_hit_the_cache_with_identical_output() {
        let store = tiny_store();
        let idx = PersistedIndex::open(shared_index_dir()).unwrap();
        // A duplicated stream (not the reference set → general mode).
        let mut queries = SeqStore::new();
        for pick in [0usize, 1, 0, 0, 3, 1] {
            queries.push(format!("q{pick}"), store.seq(pick).to_vec());
        }
        let params = SearchParams::test_defaults();
        let mk = |cache_entries| ServeConfig {
            params: params.clone(),
            max_batch: 2,
            max_wait_us: 1_000_000,
            cache_entries,
        };
        let cold = serve_queries(&idx, &queries, &mk(0)).unwrap();
        let warm = serve_queries(&idx, &queries, &mk(16)).unwrap();
        assert_eq!(cold.lines, warm.lines);
        assert!(!cold.stats.self_mode);
        assert_eq!(cold.stats.cache_hits, 0);
        assert!(warm.stats.cache_hits >= 3, "{:?}", warm.stats);
        // General mode answers every duplicate identically.
        assert!(!warm.lines.is_empty());
    }

    #[test]
    fn component_seconds_of_a_cached_coalescing_run_fit_in_its_wall_time() {
        // Every request is open from its admission to its batch's answer,
        // so a stream of duplicates holds many open at once, the followers
        // of an in-flight query (coalesced) and the cache's hits among
        // them. Their latency spans overlap; the component table sums
        // seconds, so it must not see them.
        use pastis_trace::{MetricsReport, TraceSession};
        let store = tiny_store();
        let idx = PersistedIndex::open(shared_index_dir()).unwrap();
        let mut queries = SeqStore::new();
        for k in 0..400usize {
            let pick = [0usize, 1, 0, 3, 0, 1, 2][k % 7];
            queries.push(format!("q{k}"), store.seq(pick).to_vec());
        }
        let cfg = ServeConfig {
            params: SearchParams::test_defaults(),
            max_batch: 64,
            max_wait_us: 1_000_000,
            cache_entries: 2,
        };
        let session = TraceSession::new();
        let t0 = Instant::now();
        let out = serve_queries_traced(&idx, &queries, &cfg, &session.recorder(0)).unwrap();
        let wall = t0.elapsed().as_secs_f64();
        assert!(out.stats.cache_hits > 300, "{:?}", out.stats);
        let report = MetricsReport::from_session(&session);
        let rank = &report.ranks[0];
        let summed: f64 = rank.component_s.iter().sum();
        assert!(
            summed <= wall,
            "components sum to {summed} s in a {wall} s run"
        );
        // The latency series itself is still recorded, one per request.
        let requests = &rank.span_hist[names::SPAN_SERVE_REQUEST];
        assert_eq!(requests.count(), 400);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Cache on ≡ cache off for arbitrary query streams with
        /// duplicates, across batch splits.
        #[test]
        fn cache_on_equals_cache_off(
            picks in proptest::collection::vec(0usize..5, 0..10),
            max_batch in 1usize..6,
            cache_entries in 1usize..4,
        ) {
            let store = tiny_store();
            let idx = PersistedIndex::open(shared_index_dir()).unwrap();
            let mut queries = SeqStore::new();
            for (n, &p) in picks.iter().enumerate() {
                queries.push(format!("q{n}"), store.seq(p).to_vec());
            }
            let params = SearchParams::test_defaults();
            let mk = |cache: usize| ServeConfig {
                params: params.clone(),
                max_batch,
                max_wait_us: 1_000_000,
                cache_entries: cache,
            };
            let off = serve_queries(&idx, &queries, &mk(0)).unwrap();
            let on = serve_queries(&idx, &queries, &mk(cache_entries)).unwrap();
            prop_assert_eq!(off.lines, on.lines);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The batcher never exceeds its caps, keeps full batches
        /// lane-aligned, emits in FIFO order, and always drains.
        #[test]
        fn batcher_respects_caps_and_drains(
            lanes in 1usize..9,
            max_batch in 1usize..40,
            max_wait_us in 0u64..50,
            gaps in proptest::collection::vec(0u64..30, 0..120),
        ) {
            let mut b = AdmissionBatcher::new(BatcherConfig { lanes, max_batch, max_wait_us });
            let full = b.full_batch();
            prop_assert!(full <= max_batch && full >= 1);
            prop_assert!(full % lanes == 0 || max_batch < lanes);
            let mut emitted: Vec<u32> = Vec::new();
            let mut now = 0u64;
            for (i, dt) in gaps.iter().enumerate() {
                now += dt;
                if let Some(batch) = b.push(i as u32, now) {
                    prop_assert_eq!(batch.len(), full);
                    emitted.extend(batch);
                }
                while let Some(batch) = b.poll(now) {
                    prop_assert!(!batch.is_empty() && batch.len() <= full);
                    emitted.extend(batch);
                }
            }
            while let Some(batch) = b.flush() {
                prop_assert!(!batch.is_empty() && batch.len() <= full);
                emitted.extend(batch);
            }
            prop_assert!(b.is_empty());
            let want: Vec<u32> = (0..gaps.len() as u32).collect();
            prop_assert_eq!(emitted, want);
        }

        /// The deadline drains even sub-lane remainders.
        #[test]
        fn deadline_always_drains(
            lanes in 2usize..9,
            queued in 1usize..5,
            max_wait_us in 1u64..100,
        ) {
            let mut b = AdmissionBatcher::new(BatcherConfig { lanes, max_batch: 64, max_wait_us });
            for i in 0..queued.min(lanes - 1) {
                prop_assert!(b.push(i as u32, 0).is_none());
            }
            prop_assert!(b.poll(max_wait_us - 1).is_none());
            let drained = b.poll(max_wait_us).expect("deadline must drain");
            prop_assert_eq!(drained.len(), queued.min(lanes - 1));
            prop_assert!(b.is_empty());
        }

        /// LRU eviction respects the bound; counters add up; the
        /// least-recently-used entry is the one evicted.
        #[test]
        fn cache_respects_bound_and_counts(
            cap in 1usize..6,
            keys in proptest::collection::vec(0u8..8, 0..80),
        ) {
            let mut c: ResultCache<u32> = ResultCache::new(cap);
            let mut ops = 0u64;
            for k in &keys {
                ops += 1;
                let key = vec![*k];
                match c.get(&key) {
                    Some(v) => prop_assert_eq!(*v, u32::from(*k)),
                    None => c.insert(key, Arc::new(u32::from(*k))),
                }
                prop_assert!(c.len() <= cap);
            }
            prop_assert_eq!(c.hits() + c.misses(), ops);
            prop_assert_eq!(c.evictions(), c.misses() - c.len() as u64);
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut c: ResultCache<u32> = ResultCache::new(2);
        c.insert(vec![1], Arc::new(1));
        c.insert(vec![2], Arc::new(2));
        assert!(c.get(&[1]).is_some()); // refresh 1 → 2 is now LRU
        c.insert(vec![3], Arc::new(3));
        assert!(c.get(&[2]).is_none(), "LRU entry must be evicted");
        assert!(c.get(&[1]).is_some());
        assert!(c.get(&[3]).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn stale_params_refuse_to_serve() {
        let idx = PersistedIndex::open(shared_index_dir()).unwrap();
        let mut params = SearchParams::test_defaults();
        params.k = 5;
        let cfg = ServeConfig::from_params(params);
        let err = serve_queries(&idx, &tiny_store(), &cfg).unwrap_err();
        assert!(err.contains("stale index"), "{err}");
    }
}
