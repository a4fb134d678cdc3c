//! The traced pass: one real run for reference, then the same work done
//! again from outside, one public call at a time, with a span around each
//! call. The layer numbers come from the spans' self times, are checked
//! against the real run's own counts and output, and must add up to the
//! real run's wall time within a residue. Nothing here feeds an
//! end-to-end number.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::api::{self, SearchConfig};
use crate::measure::attempt;
use crate::report::{Report, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{self_seconds_under, Tracer};
use crate::workloads::{recall_precision, Paths, Rep, Workload, STRIPE_COLS};

/// Largest share of the real run's wall time the replayed layers may miss
/// or exceed. At full size the residue itself is 0.02 to 0.06; the rest of
/// the room is for timing one real run against one replay on a host whose
/// speed moves by 8% from one second to the next. `search.blocked` gets
/// more: its budget accounting and spill I/O are not public calls the
/// replay could make, so its residue is their cost (0.13).
fn residue_bound(workload: Workload) -> f64 {
    match workload {
        Workload::SearchBlocked => 0.25,
        _ => 0.15,
    }
}

/// Sequences of the 4-rank communication count run.
const COMM_SEQS: usize = 400;

/// What the coordinator learned from the untimed `search.fullsw` run on
/// the same input, for the two cross-workload ratios.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    pub aligned_pairs: u64,
    pub wall_s: f64,
}

/// The per-layer metrics by name, all present, 0 until measured.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not in the per-layer table")) = value;
    }
}

pub fn traced_pass(workload: Workload, dir: &Path, reference: Option<Reference>) -> Report {
    let plan = match workload.plan(dir) {
        Ok(plan) => plan,
        Err(e) => return Report::failure(e),
    };
    // The real run, warmed up, against which the replay is checked.
    let _ = attempt(&plan);
    let t0 = Instant::now();
    let real = match attempt(&plan) {
        Ok(rep) => rep,
        Err(e) => return Report::failure(e),
    };
    let wall = t0.elapsed().as_secs_f64();
    let mut report = Report {
        wall_s: vec![wall],
        attempted: real.ops(),
        errors: workload.check(dir, &real),
        ..Report::default()
    };

    let mut layers = Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect());
    layers.set("info.wall_s", wall);
    layers.set("info.aligns_per_s", real.aligned_pairs() as f64 / wall);
    layers.set("info.cups", real.cells() as f64 / wall);
    let mut tracer = Tracer::new();
    let paths = &plan.paths;
    let traced = match (&plan.search, &real) {
        (Some(cfg), Rep::Search(run)) => {
            let r = run.reported;
            layers.set("core.reported_align_s", r.align_s);
            layers.set("core.reported_spgemm_s", r.spgemm_s);
            layers.set("core.reported_sparse_other_s", r.sparse_other_s);
            layers.set("core.reported_cwait_s", r.cwait_s);
            search_layers(
                workload,
                cfg,
                paths,
                run.counts,
                wall,
                &mut tracer,
                &mut layers,
            )
        }
        (None, Rep::Serve(run)) => {
            layers.set("info.queries_per_s", run.counts.requests as f64 / wall);
            layers.set("serve.batches", run.batches as f64);
            let c = run.counts;
            layers.set("serve.aligned_pairs", c.aligned_pairs as f64);
            layers.set(
                "serve.cache_hit_ratio",
                c.cache_hits as f64 / c.requests.max(1) as f64,
            );
            serve_layers(paths, wall, &mut tracer, &mut layers)
        }
        _ => unreachable!("a plan returns its own kind of rep"),
    };
    match traced {
        Ok(failed_checks) => report.errors.extend(failed_checks),
        Err(e) => report.errors.push(format!("traced replay: {e}")),
    }
    if let Some(reference) = reference {
        match workload {
            Workload::ServeSelf => {
                layers.set(
                    "serve.align_amplification",
                    real.aligned_pairs() as f64 / reference.aligned_pairs.max(1) as f64,
                );
                layers.set("info.serve_batch_ratio", wall / reference.wall_s);
            }
            Workload::SearchBlocked => layers.set("info.speedup_2t", reference.wall_s / wall),
            _ => {}
        }
    }
    if !report.errors.is_empty() {
        report.failed = report.attempted;
    }
    report.counts = real.counts();
    report.values = layers
        .0
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    report.spans = tracer.into_spans();
    report
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// What one replay of a search counted, and where its spans are rooted.
#[derive(Default)]
struct Replayed {
    root: usize,
    input_bytes: u64,
    kmer_nnz: u64,
    products: u64,
    out_nnz: u64,
    computed_bytes: u64,
    pairs: u64,
    cells: u64,
    edges: u64,
    out_bytes: u64,
}

/// FASTA → k-mer matrix → per scheduled block: `A·Aᵀ`, prune and
/// threshold, align, edge filter → TSV; `threads` sets the SpGEMM kernel
/// and the alignment pool.
fn replay_search(
    tr: &mut Tracer,
    cfg: &SearchConfig,
    fasta: &Path,
    out: &Path,
    threads: usize,
) -> Result<Replayed, String> {
    let mut r = Replayed {
        root: tr.len(),
        input_bytes: std::fs::metadata(fasta).map_or(0, |m| m.len()),
        ..Replayed::default()
    };
    tr.span("replay", |tr| -> Result<(), String> {
        let seqs = tr.span("seqio.parse", |_| api::read_seqs(fasta))?;
        let matrix = tr.span("core.kmer_matrix", |_| api::kmer_matrix(&seqs, cfg));
        r.kmer_nnz = matrix.nnz;
        let mut edges = Vec::new();
        for block in 0..matrix.n_blocks() {
            let overlap = tr.span("sparse.spgemm", |_| {
                api::spgemm_block(&matrix, block, threads)
            });
            r.products += overlap.products;
            r.out_nnz += overlap.out_nnz;
            r.computed_bytes += overlap.computed_bytes;
            // The overlap block is dropped inside the span, as the pipeline
            // drops it in its own sparse-other time.
            let matrix = &matrix;
            let cands = tr.span("core.filter", move |_| {
                api::filter_block(matrix, block, &overlap, cfg)
            });
            let aligned = tr.span("align.batch", |_| {
                api::align_block(&seqs, &cands, cfg, threads)
            });
            r.pairs += cands.len() as u64;
            r.cells += aligned.cells;
            edges.extend(tr.span("core.edge_filter", |_| {
                api::edge_filter(&seqs, &cands, &aligned, cfg)
            }));
        }
        r.edges = edges.len() as u64;
        r.out_bytes = tr.span("core.output", |_| api::write_edges(seqs.len(), edges, out))?;
        Ok(())
    })?;
    Ok(r)
}

fn search_layers(
    workload: Workload,
    cfg: &SearchConfig,
    paths: &Paths,
    real: api::Counts,
    wall: f64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    let threads = workload.threads();
    let replay_out = paths.out.with_file_name("replay.tsv");
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("reading {}: {e}", p.display()));
    let real_tsv = read(&paths.out)?;

    let r = replay_search(tr, cfg, &paths.fasta, &replay_out, threads)?;
    let by = self_seconds_under(tr.spans(), r.root);
    let secs = |name: &str| by.get(name).copied().unwrap_or(0.0);
    let residue = 1.0 - by.values().sum::<f64>() / wall;
    layers.set("seqio.parse_s", secs("seqio.parse"));
    layers.set(
        "seqio.parse_mb_per_s",
        mb(r.input_bytes) / secs("seqio.parse"),
    );
    layers.set("core.kmer_matrix_s", secs("core.kmer_matrix"));
    layers.set("core.kmer_nnz", r.kmer_nnz as f64);
    layers.set("sparse.spgemm_s", secs("sparse.spgemm"));
    layers.set("sparse.spgemm_products", r.products as f64);
    layers.set("sparse.spgemm_out_nnz", r.out_nnz as f64);
    layers.set(
        "sparse.products_per_s",
        r.products as f64 / secs("sparse.spgemm"),
    );
    layers.set("sparse.computed_bytes", r.computed_bytes as f64);
    layers.set("core.filter_s", secs("core.filter"));
    layers.set(
        "core.filter_pass_ratio",
        r.pairs as f64 / r.out_nnz.max(1) as f64,
    );
    layers.set("align.batch_s", secs("align.batch"));
    layers.set("align.pairs", r.pairs as f64);
    layers.set("align.cells", r.cells as f64);
    layers.set("align.gcups", r.cells as f64 / secs("align.batch") / 1e9);
    layers.set("align.simd_backend", api::simd_backend().1 as f64);
    layers.set(
        "core.edge_pass_ratio",
        r.edges as f64 / r.pairs.max(1) as f64,
    );
    layers.set(
        "core.output_s",
        secs("core.edge_filter") + secs("core.output"),
    );
    layers.set("core.output_bytes", r.out_bytes as f64);
    layers.set("pipeline.residue", residue);

    let mut failed_checks = Vec::new();
    let replayed = (r.products, r.out_nnz, r.pairs, r.cells, r.edges);
    let reported = (
        real.spgemm_products,
        real.candidates,
        real.aligned_pairs,
        real.cells,
        real.similar_pairs,
    );
    if replayed != reported {
        failed_checks.push(format!(
            "replayed (products, candidates, pairs, cells, similar) {replayed:?} \
             differ from the real run's {reported:?}"
        ));
    }
    if read(&replay_out)? != real_tsv {
        failed_checks.push("the replayed edge list differs from the real TSV".to_owned());
    }
    let bound = residue_bound(workload);
    if residue.abs() > bound {
        failed_checks.push(format!("pipeline.residue {residue:.3} is outside ±{bound}"));
    }

    let input = api::read_seqs(&paths.fasta)?;
    let (recall, precision) = recall_precision(&input, &String::from_utf8_lossy(&real_tsv));
    layers.set("truth.recall", recall);
    layers.set("truth.precision", precision);

    if threads > 1 {
        // The same replay on one thread gives the speed-ups' base.
        let one = replay_search(tr, cfg, &paths.fasta, &replay_out, 1)?;
        let by_one = self_seconds_under(tr.spans(), one.root);
        layers.set(
            "pool.align_speedup_2t",
            by_one["align.batch"] / secs("align.batch"),
        );
        layers.set(
            "pool.spgemm_speedup_2t",
            by_one["sparse.spgemm"] / secs("sparse.spgemm"),
        );
    }
    if workload == Workload::SearchBlocked {
        let first: Vec<usize> = (0..input.len().min(COMM_SEQS)).collect();
        let comm = tr.span("comm.count_run", |_| {
            api::comm_counts(&input.select(&first))
        })?;
        layers.set("comm.bcasts", comm.bcasts as f64);
        layers.set("comm.all_to_allvs", comm.all_to_allvs as f64);
        layers.set("comm.bytes", comm.bytes as f64);
    }
    if workload == Workload::SearchFullsw {
        let t0 = Instant::now();
        tr.span("search.telemetry_on", |_| {
            api::search_file_traced(&paths.fasta, cfg, &replay_out)
        })?;
        layers.set(
            "trace.telemetry_overhead",
            t0.elapsed().as_secs_f64() / wall - 1.0,
        );
    }
    Ok(failed_checks)
}

fn serve_layers(
    paths: &Paths,
    wall: f64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    // The served path again, call by call.
    let replay_out = paths.out.with_file_name("replay.tsv");
    let root = tr.len();
    let index = tr.span("replay", |tr| -> Result<api::Index, String> {
        let queries = tr.span("seqio.parse", |_| api::read_seqs(&paths.fasta))?;
        let index = tr.span("index.open", |_| api::Index::open(&paths.index))?;
        tr.span("serve.queries", |_| {
            api::serve(&index, &queries, &replay_out)
        })?;
        Ok(index)
    })?;
    let by = self_seconds_under(tr.spans(), root);
    let input_mb = mb(std::fs::metadata(&paths.fasta).map_or(0, |m| m.len()));
    layers.set("seqio.parse_s", by["seqio.parse"]);
    layers.set("seqio.parse_mb_per_s", input_mb / by["seqio.parse"]);
    layers.set("index.open_s", by["index.open"]);
    layers.set("serve.queries_s", by["serve.queries"]);
    layers.set("pipeline.residue", 1.0 - by.values().sum::<f64>() / wall);

    // Beside it: the index build that set-up paid, and each stripe load
    // that the first batch pays.
    let t0 = Instant::now();
    let built = tr.span("index.build", |_| {
        api::index_build(
            &index.refs(),
            &paths.index.with_file_name("index-rebuilt"),
            STRIPE_COLS,
        )
    })?;
    layers.set("index.build_s", t0.elapsed().as_secs_f64());
    layers.set("index.bytes", built.shard_bytes as f64);
    let (mut loads, mut bytes) = (Vec::new(), 0);
    for s in 0..index.n_stripes() {
        let t0 = Instant::now();
        bytes += tr.span("index.load_stripe", |_| index.load_stripe(s))?;
        loads.push(t0.elapsed().as_secs_f64());
    }
    let total: f64 = loads.iter().sum();
    layers.set("index.load_stripe_s", total);
    layers.set(
        "index.load_stripe_median_s",
        Summary::of(&loads).map_or(0.0, |s| s.median),
    );
    layers.set("index.load_mb_per_s", mb(bytes) / total);

    let same = std::fs::read(&replay_out).ok() == std::fs::read(&paths.out).ok();
    Ok(if same {
        Vec::new()
    } else {
        vec!["the replayed rows differ from the real run's".to_owned()]
    })
}
