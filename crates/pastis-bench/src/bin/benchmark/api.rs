//! The adapter: every call the harness makes into a `pastis_*` crate is in
//! this file, behind plain-data types, so a signature change in the
//! program is a one-file fix and the other modules never name a program
//! type.
//!
//! Three groups: inputs (generate, permute, FASTA), the timed regions the
//! end-to-end workloads run (`search_file`, `serve_file`), and the single
//! public calls the traced replay wraps in spans (`kmer_matrix` …
//! `write_edges`, `Index::*`, `comm_counts`).

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use pastis_align::{
    AlignPool, AlignTask, AlignmentResult, Blosum62, ScoreResult, Scoring, SimdBackend, SimdPolicy,
};
use pastis_comm::grid::BlockDist1D;
use pastis_comm::{run_threaded, Communicator, Component, ProcessGrid, SelfComm, TracedComm};
use pastis_core::filter::candidate_passes;
use pastis_core::index::shard_path;
use pastis_core::params::AlignKind;
use pastis_core::{
    build_index, kmer_matrix_triples, run_search, run_search_traced, serve_queries, BlockPlan,
    CommonKmers, EdgeFilter, IndexBuildConfig, LoadBalance, OverlapSemiring, PersistedIndex,
    SearchParams, SearchResult, ServeConfig, SimilarityEdge, SimilarityGraph,
};
use pastis_seqio::fasta::write_fasta;
use pastis_seqio::{FastaStream, ReducedAlphabet, SeqStore, SyntheticConfig, SyntheticDataset};
use pastis_sparse::{spgemm_hash, spgemm_parallel, CsrMatrix, Triples};
use pastis_trace::recorder::TraceSession;
use pastis_trace::Recorder;

pub use pastis_trace::json::{parse as parse_json, JsonValue, JsonWriter};

/// Largest FASTA record the harness will parse (the CLI's own bound).
const RECORD_BOUND: usize = 1 << 30;

// ---------------------------------------------------------------- inputs

/// Residue-coded sequences with their ids. Ids of generated sequences
/// carry the planted family (`fam<f>_m<k>` / `single<s>`), which is how
/// ground truth survives the trip through a FASTA file.
pub struct Seqs(SeqStore);

impl Seqs {
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn id(&self, i: usize) -> &str {
        self.0.id(i)
    }
    pub fn seq(&self, i: usize) -> &[u8] {
        self.0.seq(i)
    }
    /// The sequences at `order`, in that order.
    pub fn select(&self, order: &[usize]) -> Seqs {
        Seqs(self.0.subset(order))
    }
}

/// The `bench_dataset` family configuration at `n` sequences.
pub fn generate(n: usize, dataset_seed: u64) -> Seqs {
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: n,
        mean_len: 180.0,
        len_sigma: 0.4,
        mean_family_size: 8.0,
        singleton_fraction: 0.3,
        divergence: 0.10,
        indel_prob: 0.015,
        seed: dataset_seed,
        ..SyntheticConfig::default()
    });
    Seqs(ds.store)
}

pub fn write_seqs(seqs: &Seqs, path: &Path) -> Result<(), String> {
    let err = |e| format!("writing {}: {e}", path.display());
    let mut w = BufWriter::new(File::create(path).map_err(err)?);
    write_fasta(&mut w, &seqs.0.to_records(), 60).map_err(err)?;
    w.flush().map_err(err)
}

pub fn read_seqs(path: &Path) -> Result<Seqs, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let stream = FastaStream::new(BufReader::new(file)).with_record_bound(RECORD_BOUND);
    SeqStore::from_fasta_stream(stream)
        .map(Seqs)
        .map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn write_lines(lines: &[String], out: &Path) -> Result<u64, String> {
    let mut text = String::with_capacity(lines.len() * 32);
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(out, &text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(text.len() as u64)
}

// ------------------------------------------------------ search workloads

/// The parameter set of one `search.*` workload.
#[derive(Clone)]
pub struct SearchConfig(SearchParams);

impl SearchConfig {
    fn base() -> SearchParams {
        SearchParams {
            k: 5,
            ..SearchParams::default()
        }
    }

    /// `bench_params()`: k = 5, traceback Smith–Waterman, 1×1 blocks, one
    /// thread. Also the parameter set of both `serve.*` workloads.
    pub fn fullsw() -> SearchConfig {
        SearchConfig(SearchConfig::base())
    }

    /// The reduced-alphabet sensitivity regime: Murphy-10, common-k-mer
    /// threshold 30, score-only alignment, 4×4 blocks, one thread.
    pub fn sparse() -> SearchConfig {
        SearchConfig(
            SearchParams {
                alphabet: ReducedAlphabet::Murphy10,
                common_kmer_threshold: 30,
                align_kind: AlignKind::ScoreOnly,
                ..SearchConfig::base()
            }
            .with_blocking(4, 4),
        )
    }

    /// `fullsw` on 3×3 blocks, triangular load balance and a unified pool
    /// of `threads` threads.
    pub fn blocked(threads: usize) -> SearchConfig {
        SearchConfig(
            SearchConfig::base()
                .with_blocking(3, 3)
                .with_load_balance(LoadBalance::Triangular)
                .with_threads(threads),
        )
    }

    /// Run under a hard memory budget, spilling into `dir`.
    pub fn with_budget(self, bytes: u64, dir: &Path) -> SearchConfig {
        SearchConfig(self.0.with_mem_budget(bytes).with_spill_dir(dir))
    }
}

/// The exact counters of one search (`SearchResult.stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub candidates: u64,
    pub aligned_pairs: u64,
    pub cells: u64,
    pub similar_pairs: u64,
    pub spgemm_products: u64,
}

/// The program's own component time sums (`SearchResult.times`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Reported {
    pub align_s: f64,
    pub spgemm_s: f64,
    pub sparse_other_s: f64,
    pub cwait_s: f64,
}

pub struct SearchRun {
    pub counts: Counts,
    pub reported: Reported,
    pub mem_high_water: Option<u64>,
    pub out_bytes: u64,
}

fn finish_search(result: SearchResult, out: &Path) -> Result<SearchRun, String> {
    let out_bytes = write_lines(&result.graph.to_tsv_lines(), out)?;
    let (s, t) = (&result.stats, &result.times);
    Ok(SearchRun {
        counts: Counts {
            candidates: s.candidates,
            aligned_pairs: s.aligned_pairs,
            cells: s.cells,
            similar_pairs: s.similar_pairs,
            spgemm_products: s.spgemm_products,
        },
        reported: Reported {
            align_s: t.get(Component::Align),
            spgemm_s: t.get(Component::SpGemm),
            sparse_other_s: t.get(Component::SparseOther),
            cwait_s: t.get(Component::CommWait),
        },
        mem_high_water: result.mem_high_water,
        out_bytes,
    })
}

/// The timed region of every `search.*` workload, which is what `pastis
/// search` does: parse the FASTA, `run_search` on one rank, render and
/// write the TSV.
pub fn search_file(fasta: &Path, cfg: &SearchConfig, out: &Path) -> Result<SearchRun, String> {
    let seqs = read_seqs(fasta)?;
    let grid = ProcessGrid::square(SelfComm::new());
    finish_search(run_search(&grid, &seqs.0, &cfg.0)?, out)
}

/// [`search_file`] with the program's telemetry recording into a live
/// session, as `pastis search` runs by default; for the overhead metric.
pub fn search_file_traced(
    fasta: &Path,
    cfg: &SearchConfig,
    out: &Path,
) -> Result<SearchRun, String> {
    let seqs = read_seqs(fasta)?;
    let session = TraceSession::new();
    let rec = session.recorder(0);
    let grid = ProcessGrid::square(TracedComm::new(SelfComm::new(), rec.clone()));
    finish_search(run_search_traced(&grid, &seqs.0, &cfg.0, &rec)?, out)
}

// ------------------------------------------------------- serve workloads

pub struct IndexBuilt {
    pub shard_bytes: u64,
}

/// `pastis index build` over `refs` with the serve workloads' parameters.
pub fn index_build(refs: &Seqs, dir: &Path, stripe_cols: usize) -> Result<IndexBuilt, String> {
    let p = SearchConfig::base();
    let cfg = IndexBuildConfig {
        k: p.k,
        alphabet: p.alphabet,
        substitute_kmers: p.substitute_kmers,
        stripe_cols,
        mem_budget: None,
    };
    let report = build_index(&refs.0, &cfg, dir, &Recorder::disabled())?;
    Ok(IndexBuilt {
        shard_bytes: report.shard_bytes,
    })
}

/// An opened index directory.
pub struct Index(PersistedIndex);

impl Index {
    pub fn open(dir: &Path) -> Result<Index, String> {
        PersistedIndex::open(dir).map(Index)
    }
    pub fn n_stripes(&self) -> usize {
        self.0.manifest.n_stripes
    }
    /// The reference sequences the index was built over.
    pub fn refs(&self) -> Seqs {
        Seqs(self.0.refs.clone())
    }
    /// Load stripe `s` and drop it; returns the shard file's size.
    pub fn load_stripe(&self, s: usize) -> Result<u64, String> {
        let stripe = self.0.load_stripe(s)?;
        std::hint::black_box(&stripe);
        let path = shard_path(&self.0.dir, s);
        std::fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|e| format!("stat {}: {e}", path.display()))
    }
}

/// The counters of one serving run (`ServeStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounts {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub candidates: u64,
    pub aligned_pairs: u64,
    pub cells: u64,
    pub emitted: u64,
    pub self_mode: bool,
}

pub struct ServeRun {
    pub counts: ServeCounts,
    /// Admission batches; depends on the wall-clock flush deadline, so it
    /// is not an exact count.
    pub batches: u64,
    pub out_bytes: u64,
}

/// `serve_queries` with `ServeConfig::from_params(bench_params())`, rows
/// written to `out`.
pub fn serve(index: &Index, queries: &Seqs, out: &Path) -> Result<ServeRun, String> {
    let cfg = ServeConfig::from_params(SearchConfig::base());
    let outcome = serve_queries(&index.0, &queries.0, &cfg)?;
    let s = outcome.stats;
    Ok(ServeRun {
        counts: ServeCounts {
            requests: s.requests,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            candidates: s.candidates,
            aligned_pairs: s.aligned_pairs,
            cells: s.cells,
            emitted: s.emitted,
            self_mode: s.self_mode,
        },
        batches: s.batches,
        out_bytes: write_lines(&outcome.lines, out)?,
    })
}

/// The timed region of every `serve.*` workload, which is what `pastis
/// serve` does: parse the query stream, open the index, serve, write rows.
pub fn serve_file(index_dir: &Path, queries: &Path, out: &Path) -> Result<ServeRun, String> {
    let queries = read_seqs(queries)?;
    serve(&Index::open(index_dir)?, &queries, out)
}

// -------------------------------------------- the replay's public calls

/// The resolved SIMD backend: its name and the id telemetry reports.
pub fn simd_backend() -> (&'static str, u64) {
    let b = resolved_simd();
    (b.name(), b.id())
}

fn resolved_simd() -> SimdBackend {
    SimdPolicy::Auto
        .resolve()
        .expect("auto always resolves to an available backend")
}

/// `A` and `Aᵀ` cut into the workload's block stripes, plus its schedule.
pub struct KmerMatrix {
    a_stripes: Vec<CsrMatrix<u32>>,
    at_stripes: Vec<CsrMatrix<u32>>,
    rows: BlockDist1D,
    cols: BlockDist1D,
    plan: BlockPlan,
    pub nnz: u64,
}

impl KmerMatrix {
    /// Scheduled output blocks.
    pub fn n_blocks(&self) -> usize {
        self.plan.tasks.len()
    }
    fn offsets(&self, block: usize) -> (usize, usize) {
        let t = self.plan.tasks[block];
        (self.rows.part_offset(t.r), self.cols.part_offset(t.c))
    }
}

/// `kmer_matrix_triples` + column compaction + CSR build, as the pipeline
/// does it on one rank.
pub fn kmer_matrix(seqs: &Seqs, cfg: &SearchConfig) -> KmerMatrix {
    let (p, n) = (&cfg.0, seqs.len());
    let t = kmer_matrix_triples(&seqs.0, 0, n, p.k, p.alphabet);
    let mut col_map: Vec<u32> = t.entries.iter().map(|e| e.col).collect();
    col_map.sort_unstable();
    col_map.dedup();
    let mut compact = Triples::new(n, col_map.len().max(1));
    for e in t.entries {
        let col = col_map.binary_search(&e.col).expect("k-mer id present") as u32;
        compact.push(e.row, col, e.val);
    }
    let a = CsrMatrix::from_triples_combining(compact, |acc, inc| *acc = (*acc).min(inc));
    let at = a.transpose();
    let rows = BlockDist1D::new(n, p.block_rows.min(n.max(1)));
    let cols = BlockDist1D::new(n, p.block_cols.min(n.max(1)));
    let range = |d: BlockDist1D| move |i| (d.part_offset(i), d.part_offset(i) + d.part_len(i));
    let (row_range, col_range) = (range(rows), range(cols));
    KmerMatrix {
        a_stripes: (0..rows.parts)
            .map(|r| a.extract_rows(row_range(r).0, row_range(r).1))
            .collect(),
        at_stripes: (0..cols.parts)
            .map(|c| at.extract_cols(col_range(c).0, col_range(c).1))
            .collect(),
        plan: BlockPlan::new(p.load_balance, rows.parts, cols.parts, row_range, col_range),
        rows,
        cols,
        nnz: a.nnz() as u64,
    }
}

/// One output block of the overlap matrix.
pub struct Overlap {
    c: CsrMatrix<CommonKmers>,
    pub products: u64,
    pub out_nnz: u64,
    /// Bytes of the two operands and the result, from array sizes.
    pub computed_bytes: u64,
}

/// `spgemm_hash` (one thread) or `spgemm_parallel` under the overlap
/// semiring for scheduled block `block`.
pub fn spgemm_block(m: &KmerMatrix, block: usize, threads: usize) -> Overlap {
    let t = m.plan.tasks[block];
    let (a, b) = (&m.a_stripes[t.r], &m.at_stripes[t.c]);
    let (c, stats) = if threads <= 1 {
        spgemm_hash(&OverlapSemiring, a, b)
    } else {
        spgemm_parallel(&OverlapSemiring, a, b, threads)
    };
    Overlap {
        products: stats.products,
        out_nnz: c.nnz() as u64,
        computed_bytes: (a.payload_bytes() + b.payload_bytes() + c.payload_bytes()) as u64,
        c,
    }
}

/// The pairs of one block that get aligned, with their shared-k-mer count.
pub struct Candidates {
    tasks: Vec<AlignTask>,
    counts: Vec<u32>,
}

impl Candidates {
    pub fn len(&self) -> usize {
        self.tasks.len()
    }
}

/// Symmetry prune + `candidate_passes` + canonical orientation.
pub fn filter_block(
    m: &KmerMatrix,
    block: usize,
    overlap: &Overlap,
    cfg: &SearchConfig,
) -> Candidates {
    let (row_offset, col_offset) = m.offsets(block);
    let pruned = m
        .plan
        .prune_local(m.plan.tasks[block], &overlap.c, row_offset, col_offset);
    let mut out = Candidates {
        tasks: Vec::with_capacity(pruned.nnz()),
        counts: Vec::with_capacity(pruned.nnz()),
    };
    for (li, lj, ck) in pruned.iter() {
        if !candidate_passes(ck, cfg.0.common_kmer_threshold) {
            continue;
        }
        let (sq, sr) = ck.first_seed().unwrap_or((0, 0));
        let (gi, gj) = (
            (li as usize + row_offset) as u32,
            (lj as usize + col_offset) as u32,
        );
        out.tasks.push(if gi <= gj {
            AlignTask {
                query: gi,
                reference: gj,
                seed_q: sq,
                seed_r: sr,
            }
        } else {
            AlignTask {
                query: gj,
                reference: gi,
                seed_q: sr,
                seed_r: sq,
            }
        });
        out.counts.push(ck.count);
    }
    out
}

enum Results {
    Traceback(Vec<AlignmentResult>),
    Score(Vec<ScoreResult>),
}

pub struct Aligned {
    results: Results,
    pub cells: u64,
}

/// `AlignPool::run_traceback` / `run_score_only` over one block's pairs.
pub fn align_block(seqs: &Seqs, cands: &Candidates, cfg: &SearchConfig, threads: usize) -> Aligned {
    let pool = AlignPool::new(threads).with_simd(resolved_simd());
    let lookup = |id: u32| seqs.0.seq(id as usize);
    match cfg.0.align_kind {
        AlignKind::FullSw => {
            let (r, stats) = pool.run_traceback(&cands.tasks, lookup, &Blosum62, cfg.0.gaps);
            Aligned {
                results: Results::Traceback(r),
                cells: stats.cells,
            }
        }
        AlignKind::ScoreOnly => {
            let (r, stats) = pool.run_score_only(&cands.tasks, lookup, &Blosum62, cfg.0.gaps);
            Aligned {
                results: Results::Score(r),
                cells: stats.cells,
            }
        }
        AlignKind::Banded(_) => unreachable!("no workload uses the banded kernel"),
    }
}

/// The edge filter: ANI and coverage for traceback results; for
/// score-only results, the score normalized by the smaller self-score
/// against the ANI threshold (the pipeline's rule, restated here because
/// the pipeline keeps it private).
pub fn edge_filter(
    seqs: &Seqs,
    cands: &Candidates,
    aligned: &Aligned,
    cfg: &SearchConfig,
) -> Vec<SimilarityEdge> {
    let filter = EdgeFilter::from_params(&cfg.0);
    let pairs = cands.tasks.iter().zip(&cands.counts);
    let mut edges = Vec::new();
    match &aligned.results {
        Results::Traceback(results) => {
            for ((t, &count), res) in pairs.zip(results) {
                let (q, r) = (seqs.seq(t.query as usize), seqs.seq(t.reference as usize));
                if filter.passes(res, q.len(), r.len()) {
                    edges.push(SimilarityEdge {
                        i: t.query,
                        j: t.reference,
                        score: res.score,
                        ani: res.identity() as f32,
                        coverage: res.coverage_min(q.len(), r.len()) as f32,
                        common_kmers: count,
                    });
                }
            }
        }
        Results::Score(results) => {
            let self_score = |s: &[u8]| -> i32 { s.iter().map(|&c| Blosum62.score(c, c)).sum() };
            for ((t, &count), res) in pairs.zip(results) {
                if res.score <= 0 {
                    continue;
                }
                let (q, r) = (seqs.seq(t.query as usize), seqs.seq(t.reference as usize));
                let normalized = res.score as f64 / self_score(q).min(self_score(r)).max(1) as f64;
                if normalized >= filter.ani_threshold {
                    edges.push(SimilarityEdge {
                        i: t.query,
                        j: t.reference,
                        score: res.score,
                        ani: normalized as f32,
                        coverage: normalized as f32,
                        common_kmers: count,
                    });
                }
            }
        }
    }
    edges
}

/// Graph assembly, `normalize`, `to_tsv_lines` and the write.
pub fn write_edges(n: usize, edges: Vec<SimilarityEdge>, out: &Path) -> Result<u64, String> {
    let mut graph = SimilarityGraph::new(n);
    for e in edges {
        graph.add(e);
    }
    graph.normalize();
    write_lines(&graph.to_tsv_lines(), out)
}

/// Collective counts, summed over ranks, of a 4-rank threaded run (2×2
/// grid, 3×3 blocks, score-only) over `seqs`. Four ranks on two cores say
/// nothing about time, so only the counts come back.
#[derive(Default)]
pub struct CommCounts {
    pub bcasts: u64,
    pub all_to_allvs: u64,
    pub bytes: u64,
}

pub fn comm_counts(seqs: &Seqs) -> Result<CommCounts, String> {
    let store = std::sync::Arc::new(seqs.0.clone());
    let params = SearchParams {
        align_kind: AlignKind::ScoreOnly,
        ..SearchConfig::base()
    }
    .with_blocking(3, 3);
    let per_rank = run_threaded(4, move |world| {
        let grid = ProcessGrid::square(world.split(0, world.rank()));
        run_search(&grid, &store, &params)
            .map(|_| [grid.world(), grid.row_comm(), grid.col_comm()].map(|c| c.stats()))
    });
    let mut total = CommCounts::default();
    for rank in per_rank {
        for stats in rank? {
            total.bcasts += stats.broadcasts;
            total.all_to_allvs += stats.all_to_allvs;
            total.bytes += stats.bytes;
        }
    }
    Ok(total)
}
