//! `pastis` — the command-line interface of PASTIS-RS.
//!
//! Subcommands:
//!
//! * `search <input.fasta> <output.tsv>` — run the many-against-many
//!   similarity search and write the similarity graph as TSV triplets.
//! * `generate <output.fasta>` — emit a synthetic Metaclust-style protein
//!   dataset with planted families.
//! * `cluster <input.fasta> <output.tsv>` — search, then cluster by
//!   connected components; writes `sequence-id<TAB>cluster-id`.
//! * `stats <input.fasta>` — dataset statistics (lengths, composition).
//!
//! Run `pastis help` (or any subcommand with `--help`) for options. The
//! argument parser is hand-rolled to keep the dependency set at the
//! workspace's sanctioned crates.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pastis::align::matrices::AA_ALPHABET;
use pastis::align::SimdPolicy;
use pastis::comm::{
    run_threaded_with, CommConfig, Communicator, FaultPlan, FaultyComm, ProcessGrid, SelfComm,
    TracedComm,
};
use pastis::core::params::AlignKind;
use pastis::core::pipeline::{run_search_traced, SearchResult};
use pastis::core::{
    build_index, IndexBuildConfig, LoadBalance, PersistedIndex, SearchParams, ServeConfig,
};
use pastis::seqio::fasta::{write_fasta, FastaStream, SeqStore};
use pastis::seqio::{QueryBatchReader, ReducedAlphabet, SyntheticConfig, SyntheticDataset};
use pastis::sparse::SpGemmKind;
use pastis::trace::json::JsonValue;
use pastis::trace::{
    chrome_trace_json, install_crash_dump, names, render_cluster_report, render_critical_path,
    render_report, start_heartbeat, ClusterReport, CriticalPath, FlightRecorder, MetricsReport,
    Recorder, TraceSession,
};

const USAGE: &str = "\
pastis — many-against-many protein similarity search via sparse matrices

USAGE:
    pastis <COMMAND> [OPTIONS]

COMMANDS:
    search <input.fasta> <output.tsv>    run the similarity search
    cluster <input.fasta> <output.tsv>   search + connected-component clustering
    index build <ref.fasta>              persist the reference k-mer index
    serve                                answer query streams from a persisted index
    generate <output.fasta>              emit a synthetic protein dataset
    stats <input.fasta>                  dataset statistics
    trace-check <telemetry.json>...      validate emitted telemetry JSON
    analyze <metrics.json>...            cluster-wide trace analytics
    help                                 show this message

SEARCH/CLUSTER OPTIONS:
    --k <INT>                 k-mer length                       [default: 6]
    --alphabet <NAME>         full20 | murphy10 | dayhoff6       [default: full20]
    --substitute-kmers <INT>  m-nearest substitute k-mers        [default: 0]
    --common-kmers <INT>      min shared k-mers to align         [default: 2]
    --ani <FLOAT>             identity threshold                 [default: 0.30]
    --coverage <FLOAT>        coverage threshold                 [default: 0.70]
    --gap-open <INT>          gap open penalty                   [default: 11]
    --gap-extend <INT>        gap extend penalty                 [default: 2]
    --blocks <RxC>            blocking factors, e.g. 4x4         [default: 1x1]
    --load-balance <NAME>     index | triangular                 [default: index]
    --pre-blocking            overlap sparse phase with alignment
    --banded <WIDTH>          banded kernel with half-width WIDTH
    --score-only              full-matrix score-only kernel (multilane SIMD)
    --simd <NAME>             auto | avx2 | sse2 | neon | scalar — vector
                              backend of the traceback (default) and
                              score-only kernels; output is identical
                              for any choice                 [default: auto]
    --align-threads <INT>     intra-rank alignment workers; 0 = one per
                              core; output is identical for any value [default: 1]
    --spgemm <NAME>           auto | hash | heap | parallel — local SpGEMM
                              kernel inside each SUMMA stage; output is
                              identical for any choice       [default: auto]
    --spgemm-threads <INT>    intra-rank SpGEMM workers; 0 = one per core;
                              output is identical for any value [default: 1]
    --threads <INT>           unified work-stealing pool shared by the
                              sparse and alignment engines (replaces the
                              static --align-threads/--spgemm-threads
                              split); counts the submitting thread, 0 =
                              one per core; output is identical for any
                              value. When set, an explicitly passed
                              --align-threads/--spgemm-threads becomes a
                              per-engine concurrency cap on pool workers
                              instead of a dedicated thread count
    --overlap                 double-buffer SUMMA broadcasts: post stage
                              k+1's row/column broadcasts while stage k's
                              local SpGEMM runs; output is bit-identical
                              with the flag on or off
    --mcl                     cluster with Markov clustering instead of
                              connected components (cluster command only)
    --inflation <FLOAT>       MCL inflation exponent            [default: 2.0]
    --ranks <INT>             threaded ranks to run on (perfect square;
                              output is identical for any value)  [default: 1]
    --trace-out <FILE>        write a Chrome trace_event JSON of the run
                              (load in Perfetto or chrome://tracing)
    --metrics-json <FILE>     write schema-versioned per-rank metrics JSON
    --no-telemetry            disable span/counter recording entirely
    --progress                print a one-line per-rank progress heartbeat
                              every 2 s (requires telemetry)
    --flight-dump <FILE>      keep a bounded flight-recorder ring and write
                              it (plus per-rank trace tails) to FILE on
                              panic or at exit (requires telemetry)

ROBUSTNESS OPTIONS (search/cluster):
    --fault-plan <SPEC>       deterministically inject comm faults; SPEC is
                              'chaos[:SEED]', 'none', or a spec like
                              'seed=42,delay=0.2:2000,drop=0.1,corrupt=0.1
                              [,stall=RANK@OP:MS][,crash=RANK@OP]'.
                              Spill-fault keys (spill_corrupt=P,
                              spill_disk_full=P, spill_short=P,
                              spill_stall=P:US) exercise the --mem-budget
                              spill store the same way. Output is
                              bit-identical to the fault-free run
    --mem-budget <BYTES>      hard per-rank memory budget (K/M/G suffixes
                              accepted); completed output blocks and idle
                              index shards spill to --spill-dir under
                              pressure; the graph is bit-identical to an
                              unbudgeted run
    --spill-dir <DIR>         where budgeted runs spill CRC-framed shards
                              [default: a per-run dir under the system
                              temp directory]
    --op-timeout-ms <INT>     deadline on blocking comm waits — a lost peer
                              becomes a typed error, not a hang
                                                     [default: 120000]
    --checkpoint-dir <DIR>    write a per-rank checkpoint after every
                              completed block
    --resume                  resume from the newest valid checkpoint in
                              --checkpoint-dir (bit-identical final graph)
    --halt-after-blocks <INT> stop after N scheduled blocks (deterministic
                              stand-in for a mid-run kill; composes with
                              --resume)
    --straggler-factor <F>    flag ranks slower than F × median block
                              seconds via telemetry; 'off' disables
                                                     [default: 3.0]

INDEX BUILD OPTIONS (pastis index build <ref.fasta> --index-dir <DIR>):
    --index-dir <DIR>         where to persist the index (required)
    --k <INT>                 k-mer length                       [default: 6]
    --alphabet <NAME>         full20 | murphy10 | dayhoff6       [default: full20]
    --substitute-kmers <INT>  m-nearest substitute k-mers        [default: 0]
    --stripe-cols <INT>       reference columns per shard        [default: 512]
    --mem-budget <BYTES>      hard build memory budget (K/M/G suffixes)

SERVE OPTIONS (pastis serve --index-dir <DIR> --queries <FASTA>):
    --index-dir <DIR>         persisted index to serve from (required)
    --queries <FILE>          query FASTA stream; '-' reads stdin (required)
    --output <FILE>           result TSV; '-' (default) writes stdout
    --batch <INT>             admission batch cap; 0 = cost-model size
                              (SIMD-lane-aligned)                [default: 0]
    --max-wait-ms <INT>       flush deadline for partial batches [default: 10]
    --cache-entries <INT>     result-cache capacity              [default: 1024]
    --no-cache                disable the result cache
    Search knobs (--common-kmers, --ani, --coverage, --gap-*, --banded,
    --score-only, --simd, --threads, --align-threads, --spgemm*) apply as
    in search; --k/--alphabet/--substitute-kmers default to the index's
    own parameters and must match them if given. Output is byte-identical
    to batch search when the query stream is the reference set itself,
    for any batch split, thread count, SIMD backend, and cache setting.
    --trace-out/--metrics-json/--no-telemetry as in search; the run
    report includes serve latency percentiles (p50/p95/p99).

TRACE-CHECK OPTIONS:
    --expect-ranks <INT>      fail unless the file covers exactly N ranks
    --expect-phases <LIST>    comma-separated phase names that must appear

ANALYZE OPTIONS:
    analyze merges per-rank metrics JSONs (--metrics-json output; several
    single-rank files or one multi-rank file) into one cluster report:
    per-phase totals, imbalance factors, latency percentiles, slowest
    ranks/workers. With --trace it also extracts the critical path from a
    Chrome trace (--trace-out output) and attributes end-to-end wall
    clock to pipeline phases, reporting overlap-hidden comm time.
    --trace <FILE>            Chrome trace JSON for critical-path analysis
    --top <INT>               slowest ranks/workers to list  [default: 5]

GENERATE OPTIONS:
    --n <INT>                 number of sequences                [default: 1000]
    --mean-len <FLOAT>        mean sequence length               [default: 250]
    --family-size <FLOAT>     mean homolog family size           [default: 8]
    --singletons <FLOAT>      singleton fraction                 [default: 0.3]
    --divergence <FLOAT>      per-residue substitution rate      [default: 0.12]
    --seed <INT>              RNG seed                           [default: 42]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "search" => cmd_search(&args[1..], false),
        "cluster" => cmd_search(&args[1..], true),
        "index" => cmd_index(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "trace-check" => cmd_trace_check(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'pastis help')")),
    }
}

/// The flags one subcommand takes: those followed by a value and those
/// that stand alone, plus, for a subcommand that extends another (cluster
/// and serve extend search), that one's table.
struct Flags {
    value: &'static [&'static str],
    boolean: &'static [&'static str],
    extends: Option<&'static Flags>,
}

impl Flags {
    /// Whether `--name` takes a value; `None` if the subcommand has no
    /// such flag.
    fn takes_value(&self, name: &str) -> Option<bool> {
        if self.value.contains(&name) {
            Some(true)
        } else if self.boolean.contains(&name) {
            Some(false)
        } else {
            self.extends.and_then(|base| base.takes_value(name))
        }
    }
}

/// Minimal option scanner: positional args plus `--flag [value]` pairs,
/// every flag one of the subcommand's.
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String], table: &Flags) -> Result<Opts, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match table.takes_value(name) {
                    Some(true) => Some(
                        it.next()
                            .ok_or_else(|| format!("--{name} requires a value"))?
                            .clone(),
                    ),
                    Some(false) => None,
                    None => return Err(format!("unknown flag --{name} (try 'pastis help')")),
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Opts { positional, flags })
    }

    /// The subcommand's `N` positional arguments, or an error that names
    /// the extra ones (or shows `usage` when some are missing).
    fn positionals<const N: usize>(&self, usage: &str) -> Result<[&str; N], String> {
        if let Some(extra) = self.positional.get(N..).filter(|e| !e.is_empty()) {
            let extra: Vec<String> = extra.iter().map(|a| format!("'{a}'")).collect();
            return Err(format!(
                "unexpected argument {} (expected: {usage})",
                extra.join(", ")
            ));
        }
        if self.positional.len() < N {
            return Err(format!("expected: {usage}"));
        }
        Ok(std::array::from_fn(|i| self.positional[i].as_str()))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
            None => Ok(default),
        }
    }
}

const SEARCH_FLAGS: Flags = Flags {
    value: &[
        "k",
        "alphabet",
        "substitute-kmers",
        "common-kmers",
        "ani",
        "coverage",
        "gap-open",
        "gap-extend",
        "blocks",
        "load-balance",
        "banded",
        "simd",
        "align-threads",
        "spgemm",
        "spgemm-threads",
        "threads",
        "ranks",
        "trace-out",
        "metrics-json",
        "fault-plan",
        "op-timeout-ms",
        "checkpoint-dir",
        "halt-after-blocks",
        "straggler-factor",
        "flight-dump",
        "mem-budget",
        "spill-dir",
    ],
    boolean: &[
        "pre-blocking",
        "score-only",
        "overlap",
        "resume",
        "no-telemetry",
        "progress",
    ],
    extends: None,
};

const CLUSTER_FLAGS: Flags = Flags {
    value: &["inflation"],
    boolean: &["mcl"],
    extends: Some(&SEARCH_FLAGS),
};

/// Parse a byte count with optional K/M/G (binary) suffix.
fn parse_bytes(v: &str) -> Result<u64, String> {
    let (digits, shift) = match v.as_bytes().last() {
        Some(b'K' | b'k') => (&v[..v.len() - 1], 10),
        Some(b'M' | b'm') => (&v[..v.len() - 1], 20),
        Some(b'G' | b'g') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("cannot parse byte count '{v}'"))?;
    n.checked_shl(shift)
        .filter(|&b| shift == 0 || b >> shift == n)
        .ok_or_else(|| format!("byte count '{v}' overflows"))
}

fn parse_search_params(opts: &Opts) -> Result<SearchParams, String> {
    let mut p = SearchParams {
        k: opts.num("k", 6)?,
        substitute_kmers: opts.num("substitute-kmers", 0)?,
        common_kmer_threshold: opts.num("common-kmers", 2)?,
        ani_threshold: opts.num("ani", 0.30)?,
        coverage_threshold: opts.num("coverage", 0.70)?,
        ..SearchParams::default()
    };
    p.gaps.open = opts.num("gap-open", 11)?;
    p.gaps.extend = opts.num("gap-extend", 2)?;
    p.alphabet = match opts.get("alphabet").unwrap_or("full20") {
        "full20" => ReducedAlphabet::Full20,
        "murphy10" => ReducedAlphabet::Murphy10,
        "dayhoff6" => ReducedAlphabet::Dayhoff6,
        other => return Err(format!("unknown alphabet '{other}'")),
    };
    if let Some(b) = opts.get("blocks") {
        let (r, c) = b
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("--blocks expects RxC, got '{b}'"))?;
        p.block_rows = r.parse().map_err(|_| format!("bad block rows '{r}'"))?;
        p.block_cols = c.parse().map_err(|_| format!("bad block cols '{c}'"))?;
    }
    p.load_balance = match opts.get("load-balance").unwrap_or("index") {
        "index" => LoadBalance::IndexBased,
        "triangular" => LoadBalance::Triangular,
        other => return Err(format!("unknown load-balance scheme '{other}'")),
    };
    p.pre_blocking = opts.has("pre-blocking");
    if let Some(w) = opts.get("banded") {
        let w: usize = w.parse().map_err(|_| format!("bad band width '{w}'"))?;
        p.align_kind = AlignKind::Banded(w);
    }
    if opts.has("score-only") {
        if opts.has("banded") {
            return Err("--score-only and --banded are mutually exclusive".into());
        }
        p.align_kind = AlignKind::ScoreOnly;
    }
    if let Some(s) = opts.get("simd") {
        p.simd = SimdPolicy::parse(s)?;
    }
    if let Some(t) = opts.get("align-threads") {
        p.align_threads = t
            .parse()
            .map_err(|_| format!("bad align-threads value '{t}'"))?;
    }
    if let Some(s) = opts.get("spgemm") {
        p.spgemm = SpGemmKind::parse(s)?;
    }
    if let Some(t) = opts.get("spgemm-threads") {
        p.spgemm_threads = t
            .parse()
            .map_err(|_| format!("bad spgemm-threads value '{t}'"))?;
    }
    if let Some(t) = opts.get("threads") {
        p.threads = Some(t.parse().map_err(|_| format!("bad threads value '{t}'"))?);
        // Under the unified pool the legacy per-engine knobs stop being
        // thread counts and become optional concurrency caps; only map
        // them when the user actually passed them.
        if opts.get("align-threads").is_some() {
            p.align_cap = Some(p.align_threads);
        }
        if opts.get("spgemm-threads").is_some() {
            p.spgemm_cap = Some(p.spgemm_threads);
        }
    }
    p.overlap = opts.has("overlap");
    if let Some(ms) = opts.get("op-timeout-ms") {
        p.op_timeout_ms = Some(
            ms.parse()
                .map_err(|_| format!("bad op-timeout-ms value '{ms}'"))?,
        );
    }
    if let Some(dir) = opts.get("checkpoint-dir") {
        p.checkpoint_dir = Some(PathBuf::from(dir));
    }
    p.resume = opts.has("resume");
    if let Some(h) = opts.get("halt-after-blocks") {
        p.halt_after_blocks = Some(
            h.parse()
                .map_err(|_| format!("bad halt-after-blocks value '{h}'"))?,
        );
    }
    if let Some(f) = opts.get("straggler-factor") {
        p.straggler_factor = if f == "off" {
            None
        } else {
            Some(
                f.parse()
                    .map_err(|_| format!("bad straggler-factor value '{f}'"))?,
            )
        };
    }
    if let Some(b) = opts.get("mem-budget") {
        p.mem_budget = Some(parse_bytes(b).map_err(|e| format!("--mem-budget: {e}"))?);
    }
    if let Some(dir) = opts.get("spill-dir") {
        p.spill_dir = Some(PathBuf::from(dir));
    }
    if let Some(spec) = opts.get("fault-plan") {
        // The comm layer gets the same plan in cmd_search; the spill store
        // draws from an independent deterministic op stream.
        let plan = FaultPlan::parse(spec)?;
        if plan.has_spill_faults() {
            p.spill_faults = Some(plan);
        }
    }
    if (p.mem_budget.is_some() || p.spill_faults.is_some()) && p.spill_dir.is_none() {
        // Budgeted runs must spill somewhere; default to a per-process
        // directory under the system temp dir so --mem-budget works out
        // of the box.
        p.spill_dir =
            Some(std::env::temp_dir().join(format!("pastis-spill-{}", std::process::id())));
    }
    p.validate()?;
    Ok(p)
}

fn load_store(path: &Path) -> Result<SeqStore, String> {
    // Bounded streaming ingestion: records are encoded one at a time off
    // a buffered reader, so peak memory is the encoded store plus a
    // single record — never the raw file — and a pathological record
    // fails typed instead of ballooning (the --mem-budget ingestion
    // guard).
    const RECORD_BOUND: usize = 1 << 30;
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let stream = FastaStream::new(std::io::BufReader::new(file)).with_record_bound(RECORD_BOUND);
    SeqStore::from_fasta_stream(stream).map_err(|e| format!("{}: {e}", path.display()))
}

fn do_search(
    input: &Path,
    params: &SearchParams,
    ranks: usize,
    telemetry: bool,
    fault: &FaultPlan,
    progress: bool,
    flight_dump: Option<&Path>,
) -> Result<(SeqStore, SearchResult, Option<Arc<TraceSession>>), String> {
    let store = load_store(input)?;
    eprintln!(
        "loaded {} sequences ({} residues) from {}",
        store.len(),
        store.total_residues(),
        input.display()
    );
    let session = telemetry.then(|| Arc::new(TraceSession::new()));

    // Flight recorder: a bounded breadcrumb ring. The crash-dump hook
    // samples per-rank trace tails only when a panic actually fires, so
    // the run itself pays one ring push per heartbeat and nothing more.
    let flight = (progress || flight_dump.is_some()).then(|| Arc::new(FlightRecorder::default()));
    if let (Some(flight), Some(session), Some(path)) = (&flight, &session, flight_dump) {
        install_crash_dump(Arc::clone(flight), Arc::clone(session), path.to_path_buf());
    }
    let _heartbeat = match (&flight, &session, progress) {
        (Some(flight), Some(session), true) => {
            flight.note("run", format!("search start: {} ranks", ranks));
            Some(start_heartbeat(
                Arc::clone(flight),
                Arc::clone(session),
                Duration::from_secs(2),
                |line| eprintln!("[progress] {line}"),
            ))
        }
        _ => None,
    };
    // The --op-timeout-ms deadline bounds both the pipeline's explicit
    // receive waits (via params) and every blocking wait inside the
    // threaded communicator itself.
    let comm_config = params.op_timeout_ms.map_or_else(CommConfig::default, |ms| {
        CommConfig::bounded(Duration::from_millis(ms))
    });
    let result: Result<SearchResult, String> = if ranks <= 1 {
        let rec = session
            .as_ref()
            .map_or_else(Recorder::disabled, |s| s.recorder(0));
        // Stack order: trace outside, faults inside — retransmissions the
        // fault layer absorbs never pollute the comm trace.
        let faulty = FaultyComm::new(SelfComm::new(), fault.clone()).with_recorder(rec.clone());
        let grid = ProcessGrid::square(TracedComm::new(faulty, rec.clone()));
        run_search_traced(&grid, &store, params, &rec)
    } else {
        let q = (ranks as f64).sqrt().round() as usize;
        if q * q != ranks {
            return Err(format!("--ranks must be a perfect square, got {ranks}"));
        }
        let store = Arc::new(store.clone());
        let params_arc = Arc::new(params.clone());
        let session = session.clone();
        let fault = fault.clone();
        let outs = run_threaded_with(ranks, comm_config, move |c| {
            let rec = session
                .as_ref()
                .map_or_else(Recorder::disabled, |s| s.recorder(c.rank()));
            let faulty =
                FaultyComm::new(c.split(0, c.rank()), fault.clone()).with_recorder(rec.clone());
            let comm = TracedComm::new(faulty, rec.clone());
            let grid = ProcessGrid::square(comm);
            let mut res = run_search_traced(&grid, &store, &params_arc, &rec).inspect_err(|e| {
                // Per-rank failure line: in a collective abort every rank
                // reports, but a unilateral error (a rank leaving the SPMD
                // schedule alone) is visible here even if the survivors
                // then die in a comm timeout.
                eprintln!("rank {} failed: {e}", grid.world().rank());
            })?;
            // Assemble the global result on every rank; rank 0's copy is
            // the one reported.
            res.graph = res.gather_graph(grid.world());
            res.stats = res.stats.all_reduce(grid.world());
            Ok::<(usize, SearchResult), String>((grid.world().rank(), res))
        });
        let mut global: Option<SearchResult> = None;
        let mut hw_max: Option<u64> = None;
        let mut first_err: Option<String> = None;
        for out in outs {
            match out {
                Ok((rank, res)) => {
                    if let Some(h) = res.mem_high_water {
                        hw_max = Some(hw_max.map_or(h, |m| m.max(h)));
                    }
                    if rank == 0 {
                        global = Some(res);
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => global
                .ok_or_else(|| "rank 0 produced no result".to_owned())
                .map(|mut g| {
                    // Report the worst rank's accounted peak, not rank 0's.
                    g.mem_high_water = hw_max;
                    g
                }),
        }
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            // Graceful degradation on a genuine OOM: the error names the
            // oversized phase; capture it in the flight-recorder dump so
            // post-mortems see which reservation could not be satisfied.
            if e.contains("out of memory in phase") {
                if let Some(flight) = &flight {
                    flight.note("mem", e.clone());
                    if let Some(path) = flight_dump {
                        if flight
                            .write_dump(path, session.as_deref(), Some("out-of-memory"))
                            .is_ok()
                        {
                            eprintln!(
                                "wrote flight-recorder dump to {} (out of memory)",
                                path.display()
                            );
                        }
                    }
                }
            }
            return Err(e);
        }
    };
    if let (Some(hw), Some(budget)) = (result.mem_high_water, params.mem_budget) {
        eprintln!(
            "memory budget: high water {hw} of {budget} bytes ({:.0}%)",
            100.0 * hw as f64 / budget as f64
        );
    }
    eprintln!(
        "search done in {:.2}s: {} candidates, {} alignments, {} similar pairs",
        result.wall_seconds,
        result.stats.candidates,
        result.stats.aligned_pairs,
        result.stats.similar_pairs
    );
    let lane_kernel = match params.align_kind {
        AlignKind::FullSw => Some("traceback"),
        AlignKind::ScoreOnly => Some("score-only"),
        AlignKind::Banded(_) => None,
    };
    if let Some(kernel) = lane_kernel {
        // validate() (inside the pipeline) already resolved the policy.
        let backend = params.simd.resolve()?;
        eprintln!(
            "simd backend: {} ({} × i16 lanes, {kernel} kernel; results identical to scalar)",
            backend,
            backend.lanes()
        );
    }
    if let (Some(flight), Some(path)) = (&flight, flight_dump) {
        flight.note("run", "search complete");
        flight
            .write_dump(path, session.as_deref(), Some("completed"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote flight-recorder dump to {}", path.display());
    }
    Ok((store, result, session))
}

fn cmd_search(args: &[String], cluster: bool) -> Result<(), String> {
    let table = if cluster {
        &CLUSTER_FLAGS
    } else {
        &SEARCH_FLAGS
    };
    let opts = Opts::parse(args, table)?;
    let [input, output] = opts.positionals("<input.fasta> <output.tsv>")?;
    let params = parse_search_params(&opts)?;
    let ranks: usize = opts.num("ranks", 1)?;
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let telemetry = !opts.has("no-telemetry");
    let trace_out = opts.get("trace-out").map(PathBuf::from);
    let metrics_out = opts.get("metrics-json").map(PathBuf::from);
    if !telemetry && (trace_out.is_some() || metrics_out.is_some()) {
        return Err("--trace-out/--metrics-json require telemetry (drop --no-telemetry)".into());
    }
    let progress = opts.has("progress");
    let flight_dump = opts.get("flight-dump").map(PathBuf::from);
    if !telemetry && (progress || flight_dump.is_some()) {
        return Err("--progress/--flight-dump require telemetry (drop --no-telemetry)".into());
    }
    let fault = match opts.get("fault-plan") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::none(),
    };
    if !fault.is_noop() {
        eprintln!("fault injection active: {}", fault.to_spec());
    }
    let (store, result, session) = do_search(
        Path::new(input),
        &params,
        ranks,
        telemetry,
        &fault,
        progress,
        flight_dump.as_deref(),
    )?;
    if let Some(k) = result.resumed_from_block {
        eprintln!("resumed from checkpoint: blocks 0..{k} restored");
    }
    if let Some(rep) = &result.stragglers {
        if !rep.is_healthy() {
            eprintln!(
                "straggler warning: ranks {:?} exceeded {:.1}× the median block time",
                rep.flagged, rep.factor
            );
        }
    }
    if let Some(session) = &session {
        let report = MetricsReport::from_session(session.as_ref());
        eprint!("{}", render_report(&report));
        if let Some(p) = &trace_out {
            std::fs::write(p, chrome_trace_json(session.as_ref()))
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            eprintln!(
                "wrote Chrome trace to {} (load in Perfetto or chrome://tracing)",
                p.display()
            );
        }
        if let Some(p) = &metrics_out {
            std::fs::write(p, report.to_json())
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            eprintln!("wrote metrics JSON to {}", p.display());
        }
    }

    let out = PathBuf::from(output);
    if cluster {
        let labels = if opts.has("mcl") {
            let inflation = opts.num("inflation", 2.0)?;
            let r = pastis::core::mcl::mcl(
                &result.graph,
                &pastis::core::mcl::MclParams {
                    inflation,
                    ..Default::default()
                },
            );
            eprintln!(
                "MCL: {} iterations (converged: {})",
                r.iterations, r.converged
            );
            r.labels
        } else {
            result.graph.connected_components()
        };
        let mut lines = String::new();
        for (i, &label) in labels.iter().enumerate() {
            lines.push_str(&format!("{}\t{}\n", store.id(i), label));
        }
        std::fs::write(&out, lines).map_err(|e| format!("cannot write {output}: {e}"))?;
        let sizes = result.graph.cluster_sizes();
        eprintln!(
            "wrote {} cluster assignments ({} non-singleton clusters, largest {})",
            labels.len(),
            sizes.len(),
            sizes.first().copied().unwrap_or(0)
        );
    } else {
        let mut lines = String::with_capacity(result.graph.n_edges() * 32);
        for l in result.graph.to_tsv_lines() {
            lines.push_str(&l);
            lines.push('\n');
        }
        std::fs::write(&out, lines).map_err(|e| format!("cannot write {output}: {e}"))?;
        eprintln!("wrote {} edges to {output}", result.graph.n_edges());
    }
    Ok(())
}

const INDEX_BUILD_FLAGS: Flags = Flags {
    value: &[
        "index-dir",
        "k",
        "alphabet",
        "substitute-kmers",
        "stripe-cols",
        "mem-budget",
    ],
    boolean: &[],
    extends: None,
};

fn cmd_index(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_index_build(&args[1..]),
        Some(other) => Err(format!(
            "unknown index subcommand '{other}' (expected: pastis index build <ref.fasta> --index-dir <DIR>)"
        )),
        None => Err("expected: pastis index build <ref.fasta> --index-dir <DIR>".into()),
    }
}

fn cmd_index_build(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &INDEX_BUILD_FLAGS)?;
    let [input] = opts.positionals("pastis index build <ref.fasta> --index-dir <DIR>")?;
    let dir = PathBuf::from(opts.get("index-dir").ok_or("--index-dir is required")?);
    let mut cfg = IndexBuildConfig {
        k: opts.num("k", 6)?,
        substitute_kmers: opts.num("substitute-kmers", 0)?,
        stripe_cols: opts.num("stripe-cols", 512)?,
        ..IndexBuildConfig::default()
    };
    cfg.alphabet = match opts.get("alphabet").unwrap_or("full20") {
        "full20" => ReducedAlphabet::Full20,
        "murphy10" => ReducedAlphabet::Murphy10,
        "dayhoff6" => ReducedAlphabet::Dayhoff6,
        other => return Err(format!("unknown alphabet '{other}'")),
    };
    if let Some(b) = opts.get("mem-budget") {
        cfg.mem_budget = Some(parse_bytes(b).map_err(|e| format!("--mem-budget: {e}"))?);
    }
    let store = load_store(Path::new(input))?;
    eprintln!(
        "loaded {} sequences ({} residues) from {input}",
        store.len(),
        store.total_residues()
    );
    let t0 = std::time::Instant::now();
    let report = build_index(&store, &cfg, &dir, &Recorder::disabled())?;
    eprintln!(
        "built index in {:.2}s: {} refs, {} stripes ({} cols each), {} nnz, {} bytes at {}",
        t0.elapsed().as_secs_f64(),
        report.manifest.n_refs,
        report.manifest.n_stripes,
        report.manifest.stripe_cols,
        report.nnz,
        report.shard_bytes,
        dir.display()
    );
    if report.mem_high_water > 0 {
        eprintln!("build high water: {} bytes", report.mem_high_water);
    }
    // The cost-model verdict on whether persisting pays off.
    let amo = pastis::core::perfmodel::index_amortization(
        &pastis::comm::MachineModel::commodity(),
        store.total_residues() as u64,
        report.shard_bytes,
    );
    if amo.break_even_runs.is_finite() {
        eprintln!(
            "modeled amortization (commodity preset): load {:.3}s vs {:.3}s k-mer rebuild \
             per run; the build pays for itself after {:.1} runs",
            amo.load_seconds, amo.rebuild_seconds, amo.break_even_runs
        );
    } else {
        eprintln!(
            "modeled amortization (commodity preset): loading ({:.3}s) is no faster than \
             rebuilding ({:.3}s) — persist for serving, not for speed",
            amo.load_seconds, amo.rebuild_seconds
        );
    }
    Ok(())
}

const SERVE_FLAGS: Flags = Flags {
    value: &[
        "index-dir",
        "queries",
        "output",
        "batch",
        "max-wait-ms",
        "cache-entries",
    ],
    boolean: &["no-cache"],
    extends: Some(&SEARCH_FLAGS),
};

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &SERVE_FLAGS)?;
    let [] = opts.positionals("pastis serve --index-dir <DIR> --queries <FASTA>")?;
    let dir = PathBuf::from(opts.get("index-dir").ok_or("--index-dir is required")?);
    let queries_path = opts
        .get("queries")
        .ok_or("--queries is required (a FASTA file, or '-' for stdin)")?
        .to_owned();
    let output = opts.get("output").unwrap_or("-").to_owned();
    let telemetry = !opts.has("no-telemetry");
    let trace_out = opts.get("trace-out").map(PathBuf::from);
    let metrics_out = opts.get("metrics-json").map(PathBuf::from);
    if !telemetry && (trace_out.is_some() || metrics_out.is_some()) {
        return Err("--trace-out/--metrics-json require telemetry (drop --no-telemetry)".into());
    }

    let index = PersistedIndex::open(&dir)?;
    let mut params = parse_search_params(&opts)?;
    // The k-mer knobs belong to the index; default to its own parameters
    // so a plain `pastis serve` always matches. Explicitly passed values
    // are honored and checked — a mismatch is the "stale index" refusal.
    if opts.get("k").is_none() {
        params.k = index.manifest.k;
    }
    if opts.get("alphabet").is_none() {
        params.alphabet = index.manifest.alphabet;
    }
    if opts.get("substitute-kmers").is_none() {
        params.substitute_kmers = index.manifest.substitute_kmers;
    }
    let mut cfg = ServeConfig::from_params(params);
    cfg.max_batch = opts.num("batch", 0usize)?;
    cfg.max_wait_us = opts.num::<u64>("max-wait-ms", 10)?.saturating_mul(1000);
    cfg.cache_entries = if opts.has("no-cache") {
        0
    } else {
        opts.num("cache-entries", 1024)?
    };

    // Stream the queries in bounded batches off a file or stdin.
    const RECORD_BOUND: usize = 1 << 30;
    let mut queries = SeqStore::new();
    let mut ingest =
        |reader: &mut QueryBatchReader<Box<dyn std::io::BufRead>>| -> Result<(), String> {
            loop {
                let batch = reader
                    .next_batch()
                    .map_err(|e| format!("{queries_path}: {e}"))?;
                if batch.is_empty() {
                    return Ok(());
                }
                let encoded =
                    SeqStore::from_records(&batch).map_err(|e| format!("{queries_path}: {e}"))?;
                for i in 0..encoded.len() {
                    queries.push(encoded.id(i).to_owned(), encoded.seq(i).to_vec());
                }
            }
        };
    let reader: Box<dyn std::io::BufRead> = if queries_path == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        let f = std::fs::File::open(&queries_path)
            .map_err(|e| format!("cannot read {queries_path}: {e}"))?;
        Box::new(std::io::BufReader::new(f))
    };
    let mut reader = QueryBatchReader::new(reader, 4096).with_record_bound(RECORD_BOUND);
    ingest(&mut reader)?;
    eprintln!(
        "serving {} queries against {} indexed references from {}",
        queries.len(),
        index.manifest.n_refs,
        dir.display()
    );

    let session = telemetry.then(TraceSession::new);
    let rec = session
        .as_ref()
        .map_or_else(Recorder::disabled, |s| s.recorder(0));
    let t0 = std::time::Instant::now();
    let out = pastis::core::serve_queries_traced(&index, &queries, &cfg, &rec)?;
    let s = &out.stats;
    eprintln!(
        "served {} requests in {} batches in {:.2}s: {} candidates, {} alignments, \
         {} rows; cache {} hits / {} misses; {} stripes loaded{}",
        s.requests,
        s.batches,
        t0.elapsed().as_secs_f64(),
        s.candidates,
        s.aligned_pairs,
        s.emitted,
        s.cache_hits,
        s.cache_misses,
        s.stripes_loaded,
        if s.self_mode {
            "; self mode (queries are the reference set)"
        } else {
            ""
        }
    );
    if let Some(session) = &session {
        let report = MetricsReport::from_session(session);
        eprint!("{}", render_report(&report));
        if let Some(p) = &trace_out {
            std::fs::write(p, chrome_trace_json(session))
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            eprintln!("wrote Chrome trace to {}", p.display());
        }
        if let Some(p) = &metrics_out {
            std::fs::write(p, report.to_json())
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            eprintln!("wrote metrics JSON to {}", p.display());
        }
    }

    let mut text = String::with_capacity(out.lines.len() * 32);
    for l in &out.lines {
        text.push_str(l);
        text.push('\n');
    }
    if output == "-" {
        use std::io::Write as _;
        std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| format!("cannot write stdout: {e}"))?;
    } else {
        std::fs::write(&output, text).map_err(|e| format!("cannot write {output}: {e}"))?;
        eprintln!("wrote {} rows to {output}", out.lines.len());
    }
    Ok(())
}

const GENERATE_FLAGS: Flags = Flags {
    value: &[
        "n",
        "mean-len",
        "family-size",
        "singletons",
        "divergence",
        "seed",
    ],
    boolean: &[],
    extends: None,
};

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &GENERATE_FLAGS)?;
    let [output] = opts.positionals("<output.fasta>")?;
    let cfg = SyntheticConfig {
        n_sequences: opts.num("n", 1000)?,
        mean_len: opts.num("mean-len", 250.0)?,
        mean_family_size: opts.num("family-size", 8.0)?,
        singleton_fraction: opts.num("singletons", 0.3)?,
        divergence: opts.num("divergence", 0.12)?,
        seed: opts.num("seed", 42)?,
        ..SyntheticConfig::default()
    };
    let ds = SyntheticDataset::generate(&cfg);
    let mut buf = Vec::new();
    write_fasta(&mut buf, &ds.store.to_records(), 60)
        .map_err(|e| format!("serialization failed: {e}"))?;
    std::fs::write(output, buf).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "wrote {} sequences ({} residues, {} families) to {output}",
        ds.store.len(),
        ds.store.total_residues(),
        ds.n_families()
    );
    Ok(())
}

const STATS_FLAGS: Flags = Flags {
    value: &[],
    boolean: &[],
    extends: None,
};

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &STATS_FLAGS)?;
    let [input] = opts.positionals("<input.fasta>")?;
    let store = load_store(Path::new(input))?;
    let mut lens: Vec<usize> = (0..store.len()).map(|i| store.seq_len(i)).collect();
    lens.sort_unstable();
    let pct = |q: f64| -> usize {
        if lens.is_empty() {
            0
        } else {
            lens[((lens.len() - 1) as f64 * q) as usize]
        }
    };
    println!("sequences        : {}", store.len());
    println!("total residues   : {}", store.total_residues());
    println!("mean length      : {:.1}", store.mean_len());
    println!(
        "length quartiles : min={} p25={} median={} p75={} max={}",
        lens.first().copied().unwrap_or(0),
        pct(0.25),
        pct(0.5),
        pct(0.75),
        lens.last().copied().unwrap_or(0)
    );
    // Residue composition.
    let mut counts = [0u64; 21];
    for i in 0..store.len() {
        for &c in store.seq(i) {
            counts[c as usize] += 1;
        }
    }
    let total: u64 = counts.iter().sum();
    print!("composition      :");
    for (code, &n) in counts.iter().enumerate() {
        if n > 0 {
            print!(
                " {}:{:.1}%",
                AA_ALPHABET[code] as char,
                100.0 * n as f64 / total.max(1) as f64
            );
        }
    }
    println!();
    Ok(())
}

/// Merge per-rank metrics JSONs into one cluster report (per-phase
/// totals, imbalance, percentiles, slowest ranks/workers) and, given a
/// Chrome trace, extract the critical path and attribute end-to-end wall
/// clock to pipeline phases.
const ANALYZE_FLAGS: Flags = Flags {
    value: &["trace", "top"],
    boolean: &[],
    extends: None,
};

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &ANALYZE_FLAGS)?;
    if opts.positional.is_empty() && opts.get("trace").is_none() {
        return Err("expected: analyze <metrics.json>... [--trace <trace.json>] [--top K]".into());
    }
    let top: usize = opts.num("top", 5)?;
    let mut reports = Vec::new();
    for path in &opts.positional {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        reports.push(MetricsReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    if !reports.is_empty() {
        let cluster = ClusterReport::from_reports(&reports)?;
        print!("{}", render_cluster_report(&cluster, top));
    }
    if let Some(path) = opts.get("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let timelines =
            pastis::trace::timelines_from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
        match CriticalPath::extract(&timelines) {
            Some(cp) => print!("{}", render_critical_path(&cp)),
            None => eprintln!("{path}: no main-track spans; skipping critical path"),
        }
    }
    Ok(())
}

/// Validate telemetry JSON emitted by `--trace-out` / `--metrics-json`:
/// the file must parse, carry the expected structure, and (optionally)
/// cover an exact rank count and a set of phase names. Exits non-zero on
/// the first violation — the CI telemetry job is built on this.
const TRACE_CHECK_FLAGS: Flags = Flags {
    value: &["expect-ranks", "expect-phases"],
    boolean: &[],
    extends: None,
};

fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &TRACE_CHECK_FLAGS)?;
    if opts.positional.is_empty() {
        return Err("expected: trace-check <telemetry.json>...".into());
    }
    let expect_ranks: Option<usize> = match opts.get("expect-ranks") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--expect-ranks: cannot parse '{v}'"))?,
        ),
        None => None,
    };
    let expect_phases: Vec<String> = opts
        .get("expect-phases")
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    for path in &opts.positional {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (kind, ranks, phases) =
            validate_telemetry_file(&text).map_err(|e| format!("{path}: {e}"))?;
        if let Some(want) = expect_ranks {
            if ranks.len() != want {
                return Err(format!(
                    "{path}: expected {want} ranks, found {} ({ranks:?})",
                    ranks.len()
                ));
            }
        }
        for phase in &expect_phases {
            if !phases.iter().any(|p| p == phase) {
                return Err(format!(
                    "{path}: missing phase '{phase}' (present: {})",
                    phases.join(", ")
                ));
            }
        }
        eprintln!(
            "{path}: ok ({kind}, {} ranks, {} phases)",
            ranks.len(),
            phases.len()
        );
    }
    Ok(())
}

/// Parse one telemetry file, returning its kind, the rank ids it covers,
/// and the phase names present (span names for Chrome traces, nonzero
/// component labels for metrics documents). Every span and counter name
/// must come from the workspace registry (`pastis::trace::names`) — a
/// name outside it is a typo'd emit site creating an orphan series.
fn validate_telemetry_file(text: &str) -> Result<(String, Vec<usize>, Vec<String>), String> {
    let v = pastis::trace::json::parse(text)?;
    if let Some(events) = v.get("traceEvents") {
        let events = events.as_array().ok_or("traceEvents is not an array")?;
        let mut ranks: Vec<usize> = Vec::new();
        let mut phases: Vec<String> = Vec::new();
        for e in events {
            let ph = e
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or("event missing ph")?;
            let pid = e
                .get("pid")
                .and_then(JsonValue::as_u64)
                .ok_or("event missing pid")? as usize;
            if !ranks.contains(&pid) {
                ranks.push(pid);
            }
            if ph == "X" {
                let name = e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("span event missing name")?;
                for key in ["cat", "ts", "dur", "tid"] {
                    if e.get(key).is_none() {
                        return Err(format!("span '{name}' missing '{key}'"));
                    }
                }
                if !names::is_known_span(name) {
                    return Err(format!(
                        "unknown span name '{name}' (not in the pastis::trace::names registry)"
                    ));
                }
                if !phases.iter().any(|p| p == name) {
                    phases.push(name.to_owned());
                }
            }
        }
        ranks.sort_unstable();
        Ok(("chrome-trace".to_owned(), ranks, phases))
    } else {
        let parsed = MetricsReport::parse_json(text)?;
        let report = MetricsReport::from_json(text)?;
        for rank in &report.ranks {
            for name in rank.counters.keys() {
                if !names::is_known_counter(name) {
                    return Err(format!(
                        "rank {}: unknown counter '{name}' (not in the registry)",
                        rank.rank
                    ));
                }
            }
            for name in rank.span_hist.keys() {
                if !names::is_known_span(name) {
                    return Err(format!(
                        "rank {}: histogram for unknown span '{name}' (not in the registry)",
                        rank.rank
                    ));
                }
            }
        }
        let mut ranks = parsed.rank_ids;
        ranks.sort_unstable();
        ranks.dedup();
        let kind = format!(
            "metrics v{}, {} span histograms",
            parsed.schema,
            parsed.hist_names.len()
        );
        Ok((kind, ranks, parsed.phase_names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opts_parse_flags_and_positionals() {
        let table = Flags {
            value: &["k"],
            boolean: &["pre-blocking"],
            extends: None,
        };
        let o = Opts::parse(
            &s(&["in.fa", "--k", "5", "--pre-blocking", "out.tsv"]),
            &table,
        )
        .unwrap();
        assert_eq!(o.positional, vec!["in.fa", "out.tsv"]);
        assert_eq!(o.get("k"), Some("5"));
        assert!(o.has("pre-blocking"));
        assert!(!o.has("banded"));
    }

    /// `run(args)` fails, and its error names every string in `named`.
    fn rejects(args: &[&str], named: &[&str]) {
        let err = run(&s(args)).expect_err("accepted");
        for name in named {
            assert!(err.contains(name), "{args:?}: '{err}' does not name {name}");
        }
    }

    #[test]
    fn search_rejects_unknown_flags_and_extra_arguments() {
        rejects(
            &["search", "in.fa", "out.tsv", "--score-olny"],
            &["--score-olny"],
        );
        rejects(&["search", "in.fa", "out.tsv", "extra"], &["'extra'"]);
        // Clustering flags are the cluster command's.
        rejects(&["search", "in.fa", "out.tsv", "--mcl"], &["--mcl"]);
        rejects(
            &["search", "in.fa", "out.tsv", "--tune", "auto"],
            &["--tune"],
        );
    }

    #[test]
    fn cluster_rejects_unknown_flags_and_extra_arguments() {
        rejects(&["cluster", "in.fa", "out.tsv", "--mlc"], &["--mlc"]);
        rejects(&["cluster", "in.fa", "out.tsv", "a", "b"], &["'a'", "'b'"]);
    }

    #[test]
    fn index_build_rejects_unknown_flags_and_extra_arguments() {
        rejects(
            &[
                "index",
                "build",
                "r.fa",
                "--index-dir",
                "d",
                "--stripes",
                "4",
            ],
            &["--stripes"],
        );
        rejects(
            &["index", "build", "r.fa", "q.fa", "--index-dir", "d"],
            &["'q.fa'"],
        );
    }

    #[test]
    fn serve_rejects_unknown_flags_and_extra_arguments() {
        let base = ["serve", "--index-dir", "d", "--queries", "q.fa"];
        rejects(&[&base[..], &["--cache"]].concat(), &["--cache"]);
        rejects(&[&base[..], &["extra"]].concat(), &["'extra'"]);
    }

    #[test]
    fn generate_rejects_unknown_flags_and_extra_arguments() {
        rejects(&["generate", "out.fa", "--lenght", "300"], &["--lenght"]);
        rejects(&["generate", "out.fa", "more.fa"], &["'more.fa'"]);
    }

    #[test]
    fn stats_rejects_unknown_flags_and_extra_arguments() {
        rejects(&["stats", "in.fa", "--verbose"], &["--verbose"]);
        rejects(&["stats", "in.fa", "other.fa"], &["'other.fa'"]);
    }

    #[test]
    fn analyze_rejects_unknown_flags() {
        rejects(&["analyze", "m.json", "--tpo", "3"], &["--tpo"]);
    }

    #[test]
    fn trace_check_rejects_unknown_flags() {
        rejects(
            &["trace-check", "t.json", "--expect-rank", "4"],
            &["--expect-rank"],
        );
    }

    #[test]
    fn every_ci_invocation_parses() {
        // Each `pastis` command line in the CI workflow, continuation lines
        // joined, up to the first shell operator, against its subcommand's
        // table: a flag CI passes is a flag the table has.
        let ci = include_str!("../../.github/workflows/ci.yml").replace("\\\n", " ");
        let mut seen = 0;
        let mut variants = 0;
        for line in ci.lines() {
            // A `for variant in "…" "…"; do` list: each quoted entry is
            // spliced into a search command line as `$variant`.
            if let Some(list) = line.trim_start().strip_prefix("for variant in ") {
                let list = list.split_once("; do").map_or(list, |(l, _)| l);
                for entry in list.split('"').skip(1).step_by(2) {
                    let args: Vec<String> = entry.split_whitespace().map(str::to_owned).collect();
                    if let Err(e) = Opts::parse(&args, &SEARCH_FLAGS) {
                        panic!("CI loop entry \"{entry}\": {e}");
                    }
                    variants += 1;
                }
                continue;
            }
            let Some((_, cmd)) = line.split_once("--bin pastis -- ") else {
                continue;
            };
            let words: Vec<String> = cmd
                .split_whitespace()
                .take_while(|w| !["|", ">", "2>", ";", "&&"].contains(w))
                .map(str::to_owned)
                .collect();
            let (table, args) = match words[0].as_str() {
                "search" => (&SEARCH_FLAGS, &words[1..]),
                "cluster" => (&CLUSTER_FLAGS, &words[1..]),
                "index" => (&INDEX_BUILD_FLAGS, &words[2..]),
                "serve" => (&SERVE_FLAGS, &words[1..]),
                "generate" => (&GENERATE_FLAGS, &words[1..]),
                "stats" => (&STATS_FLAGS, &words[1..]),
                "analyze" => (&ANALYZE_FLAGS, &words[1..]),
                "trace-check" => (&TRACE_CHECK_FLAGS, &words[1..]),
                other => panic!("CI runs an unknown subcommand '{other}'"),
            };
            if let Err(e) = Opts::parse(args, table) {
                panic!("CI line `{}`: {e}", words.join(" "));
            }
            seen += 1;
        }
        assert!(
            seen > 30,
            "only {seen} pastis invocations found in the CI workflow"
        );
        assert!(
            variants >= 7,
            "only {variants} loop entries found in the CI workflow"
        );
    }

    #[test]
    fn opts_missing_value_is_error() {
        assert!(Opts::parse(&s(&["--k"]), &SEARCH_FLAGS).is_err());
    }

    #[test]
    fn search_params_full_roundtrip() {
        let o = Opts::parse(
            &s(&[
                "--k",
                "5",
                "--alphabet",
                "murphy10",
                "--blocks",
                "4x3",
                "--load-balance",
                "triangular",
                "--pre-blocking",
                "--ani",
                "0.5",
                "--coverage",
                "0.6",
                "--gap-open",
                "10",
                "--gap-extend",
                "1",
                "--common-kmers",
                "3",
                "--substitute-kmers",
                "4",
                "--banded",
                "16",
            ]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        let p = parse_search_params(&o).unwrap();
        assert_eq!(p.k, 5);
        assert_eq!(p.alphabet, ReducedAlphabet::Murphy10);
        assert_eq!((p.block_rows, p.block_cols), (4, 3));
        assert_eq!(p.load_balance, LoadBalance::Triangular);
        assert!(p.pre_blocking);
        assert_eq!(p.common_kmer_threshold, 3);
        assert_eq!(p.substitute_kmers, 4);
        assert_eq!(p.gaps.open, 10);
        assert!(matches!(p.align_kind, AlignKind::Banded(16)));
    }

    #[test]
    fn score_only_and_align_threads_flags() {
        let o = Opts::parse(&s(&["--score-only", "--align-threads", "4"]), &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&o).unwrap();
        assert!(matches!(p.align_kind, AlignKind::ScoreOnly));
        assert_eq!(p.align_threads, 4);
        // --score-only and --banded conflict.
        let both = Opts::parse(&s(&["--score-only", "--banded", "8"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&both).is_err());
        // Bad worker count is rejected.
        let bad = Opts::parse(&s(&["--align-threads", "many"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad).is_err());
    }

    #[test]
    fn simd_flag_parses_and_validates() {
        use pastis::align::{SimdBackend, SimdPolicy};
        // Default is auto.
        let none = Opts::parse(&[], &SEARCH_FLAGS).unwrap();
        assert_eq!(parse_search_params(&none).unwrap().simd, SimdPolicy::Auto);
        let auto = Opts::parse(&s(&["--simd", "auto"]), &SEARCH_FLAGS).unwrap();
        assert_eq!(parse_search_params(&auto).unwrap().simd, SimdPolicy::Auto);
        let scalar = Opts::parse(&s(&["--simd", "scalar"]), &SEARCH_FLAGS).unwrap();
        assert_eq!(
            parse_search_params(&scalar).unwrap().simd,
            SimdPolicy::Force(SimdBackend::Scalar)
        );
        // Unknown backend names are rejected at parse time.
        let bad = Opts::parse(&s(&["--simd", "avx1024"]), &SEARCH_FLAGS).unwrap();
        let err = parse_search_params(&bad).unwrap_err();
        assert!(err.contains("unknown SIMD backend"), "{err}");
        // Forcing a backend the host lacks fails validation with the
        // available list in the message.
        #[cfg(target_arch = "x86_64")]
        {
            let neon = Opts::parse(&s(&["--simd", "neon"]), &SEARCH_FLAGS).unwrap();
            let err = parse_search_params(&neon).unwrap_err();
            assert!(err.contains("not available"), "{err}");
        }
    }

    #[test]
    fn simd_scalar_and_auto_emit_byte_identical_tsv() {
        // The CLI-level face of the kernel-equivalence contract: the whole
        // search with `--simd scalar` and `--simd auto` writes the exact
        // same bytes (same edges, same scores, same float formatting).
        let dir = std::env::temp_dir().join(format!("pastis-cli-simd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("s.fa");
        run(&s(&[
            "generate",
            fa.to_str().unwrap(),
            "--n",
            "70",
            "--mean-len",
            "90",
            "--seed",
            "23",
        ]))
        .unwrap();
        let run_with = |kernel: &[&str], simd: &str, out: &Path| {
            let mut args = s(&[
                "search",
                fa.to_str().unwrap(),
                out.to_str().unwrap(),
                "--k",
                "5",
                "--blocks",
                "2x2",
                "--ani",
                "0.4",
                "--coverage",
                "0.5",
                "--simd",
                simd,
                "--align-threads",
                "2",
            ]);
            args.extend(s(kernel));
            run(&args).unwrap();
            std::fs::read(out).unwrap()
        };
        // The default path (traceback Smith–Waterman) and the score-only
        // one both dispatch through the `--simd` backend.
        for kernel in [&[][..], &["--score-only"][..]] {
            let scalar = run_with(kernel, "scalar", &dir.join("scalar.tsv"));
            let auto = run_with(kernel, "auto", &dir.join("auto.tsv"));
            assert!(
                !scalar.is_empty(),
                "{kernel:?}: scalar run produced no edges"
            );
            assert_eq!(
                scalar, auto,
                "{kernel:?}: --simd auto diverged from --simd scalar"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spgemm_flags_parse_and_validate() {
        // Defaults: auto kernel, serial pool.
        let none = Opts::parse(&[], &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&none).unwrap();
        assert_eq!(p.spgemm, SpGemmKind::Auto);
        assert_eq!(p.spgemm_threads, 1);
        let o = Opts::parse(
            &s(&["--spgemm", "parallel", "--spgemm-threads", "4"]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        let p = parse_search_params(&o).unwrap();
        assert_eq!(p.spgemm, SpGemmKind::Parallel);
        assert_eq!(p.spgemm_threads, 4);
        // 0 = one worker per core is valid.
        let zero = Opts::parse(&s(&["--spgemm-threads", "0"]), &SEARCH_FLAGS).unwrap();
        assert_eq!(parse_search_params(&zero).unwrap().spgemm_threads, 0);
        // Unknown kernel names and bad worker counts are rejected.
        let bad = Opts::parse(&s(&["--spgemm", "quantum"]), &SEARCH_FLAGS).unwrap();
        let err = parse_search_params(&bad).unwrap_err();
        assert!(err.contains("unknown SpGEMM kernel"), "{err}");
        let bad = Opts::parse(&s(&["--spgemm-threads", "many"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad).is_err());
    }

    #[test]
    fn spgemm_kernels_and_threads_emit_byte_identical_tsv() {
        // The CLI-level face of the SpGEMM determinism contract: every
        // kernel × worker-count combination writes the exact same bytes
        // (same edges, same scores, same float formatting).
        let dir = std::env::temp_dir().join(format!("pastis-cli-spgemm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("s.fa");
        run(&s(&[
            "generate",
            fa.to_str().unwrap(),
            "--n",
            "70",
            "--mean-len",
            "90",
            "--seed",
            "23",
        ]))
        .unwrap();
        let run_with = |spgemm: &str, threads: &str, out: &Path| {
            run(&s(&[
                "search",
                fa.to_str().unwrap(),
                out.to_str().unwrap(),
                "--k",
                "5",
                "--blocks",
                "2x2",
                "--ani",
                "0.4",
                "--coverage",
                "0.5",
                "--spgemm",
                spgemm,
                "--spgemm-threads",
                threads,
            ]))
            .unwrap();
            std::fs::read(out).unwrap()
        };
        let base = run_with("hash", "1", &dir.join("hash1.tsv"));
        assert!(!base.is_empty(), "serial hash run produced no edges");
        for (kernel, threads) in [("parallel", "4"), ("heap", "1"), ("auto", "3")] {
            let got = run_with(kernel, threads, &dir.join(format!("{kernel}{threads}.tsv")));
            assert_eq!(
                got, base,
                "--spgemm {kernel} --spgemm-threads {threads} diverged from serial hash"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unified_pool_flags_parse_and_validate() {
        // Defaults: no unified pool, overlap off.
        let none = Opts::parse(&[], &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&none).unwrap();
        assert_eq!(p.threads, None);
        assert!(!p.overlap);
        assert_eq!((p.align_cap, p.spgemm_cap), (None, None));
        // --threads alone: pool of 4, no caps.
        let o = Opts::parse(&s(&["--threads", "4", "--overlap"]), &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&o).unwrap();
        assert_eq!(p.threads, Some(4));
        assert!(p.overlap);
        assert_eq!((p.align_cap, p.spgemm_cap), (None, None));
        // 0 = one per core is valid.
        let zero = Opts::parse(&s(&["--threads", "0"]), &SEARCH_FLAGS).unwrap();
        assert_eq!(parse_search_params(&zero).unwrap().threads, Some(0));
        // Explicit legacy knobs become per-engine caps under --threads.
        let capped = Opts::parse(
            &s(&[
                "--threads",
                "8",
                "--align-threads",
                "3",
                "--spgemm-threads",
                "2",
            ]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        let p = parse_search_params(&capped).unwrap();
        assert_eq!(p.threads, Some(8));
        assert_eq!(p.align_cap, Some(3));
        assert_eq!(p.spgemm_cap, Some(2));
        // Without --threads the legacy knobs keep their dedicated-thread
        // meaning and no caps are set.
        let legacy = Opts::parse(&s(&["--align-threads", "3"]), &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&legacy).unwrap();
        assert_eq!(p.align_threads, 3);
        assert_eq!(p.align_cap, None);
        // Bad values are rejected.
        let bad = Opts::parse(&s(&["--threads", "many"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad).is_err());
    }

    #[test]
    fn overlap_and_unified_pool_emit_byte_identical_tsv() {
        // The CLI-level face of the overlap determinism contract: the
        // phased legacy run, the unified-pool run, and the overlapped
        // double-buffered run all write the exact same bytes.
        let dir = std::env::temp_dir().join(format!("pastis-cli-overlap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("s.fa");
        run(&s(&[
            "generate",
            fa.to_str().unwrap(),
            "--n",
            "70",
            "--mean-len",
            "90",
            "--seed",
            "23",
        ]))
        .unwrap();
        let run_with = |extra: &[&str], out: &Path| {
            let mut argv = s(&[
                "search",
                fa.to_str().unwrap(),
                out.to_str().unwrap(),
                "--k",
                "5",
                "--blocks",
                "2x2",
                "--ani",
                "0.4",
                "--coverage",
                "0.5",
                "--ranks",
                "4",
            ]);
            argv.extend(extra.iter().map(|x| x.to_string()));
            run(&argv).unwrap();
            std::fs::read(out).unwrap()
        };
        let base = run_with(&[], &dir.join("base.tsv"));
        assert!(!base.is_empty(), "baseline run produced no edges");
        for (label, extra) in [
            ("pool2", &["--threads", "2"][..]),
            ("pool4-overlap", &["--threads", "4", "--overlap"][..]),
            ("overlap-only", &["--overlap"][..]),
            (
                "capped",
                &["--threads", "4", "--align-threads", "1", "--overlap"][..],
            ),
        ] {
            let got = run_with(extra, &dir.join(format!("{label}.tsv")));
            assert_eq!(got, base, "{label} diverged from the phased legacy run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn robustness_flags_parse() {
        let o = Opts::parse(
            &s(&[
                "--op-timeout-ms",
                "5000",
                "--checkpoint-dir",
                "/tmp/ck",
                "--resume",
                "--halt-after-blocks",
                "3",
                "--straggler-factor",
                "2.5",
            ]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        let p = parse_search_params(&o).unwrap();
        assert_eq!(p.op_timeout_ms, Some(5000));
        assert_eq!(p.checkpoint_dir.as_deref(), Some(Path::new("/tmp/ck")));
        assert!(p.resume);
        assert_eq!(p.halt_after_blocks, Some(3));
        assert_eq!(p.straggler_factor, Some(2.5));
        // 'off' disables the straggler scan.
        let off = Opts::parse(&s(&["--straggler-factor", "off"]), &SEARCH_FLAGS).unwrap();
        assert_eq!(parse_search_params(&off).unwrap().straggler_factor, None);
        // --resume without --checkpoint-dir is rejected by validation.
        let bad = Opts::parse(&s(&["--resume"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad).is_err());
        // Fault plan specs parse (and bad ones error).
        assert!(FaultPlan::parse("chaos:7").is_ok());
        assert!(FaultPlan::parse("seed=1,delay=0.5:100,drop=0.2").is_ok());
        assert!(FaultPlan::parse("warp=9").is_err());
    }

    #[test]
    fn mem_budget_flags_parse() {
        assert_eq!(parse_bytes("1024").unwrap(), 1024);
        assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("3m").unwrap(), 3 << 20);
        assert_eq!(parse_bytes("2G").unwrap(), 2 << 30);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("999999999999G").is_err());

        let o = Opts::parse(
            &s(&["--mem-budget", "32M", "--spill-dir", "/tmp/sp"]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        let p = parse_search_params(&o).unwrap();
        assert_eq!(p.mem_budget, Some(32 << 20));
        assert_eq!(p.spill_dir.as_deref(), Some(Path::new("/tmp/sp")));
        // Without --spill-dir a temp-dir default is derived so the budget
        // works out of the box.
        let o = Opts::parse(&s(&["--mem-budget", "32M"]), &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&o).unwrap();
        assert!(p.spill_dir.is_some());
        // Spill-fault keys in --fault-plan route into params (and pull in
        // the default spill dir too).
        let o = Opts::parse(
            &s(&["--fault-plan", "seed=5,spill_corrupt=0.3"]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        let p = parse_search_params(&o).unwrap();
        assert!(p
            .spill_faults
            .as_ref()
            .is_some_and(|f| f.has_spill_faults()));
        assert!(p.spill_dir.is_some());
        // Comm-only plans do not.
        let o = Opts::parse(&s(&["--fault-plan", "seed=5,drop=0.1"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&o).unwrap().spill_faults.is_none());
        // Budget + checkpointing is rejected.
        let o = Opts::parse(
            &s(&["--mem-budget", "32M", "--checkpoint-dir", "/tmp/ck"]),
            &SEARCH_FLAGS,
        )
        .unwrap();
        assert!(parse_search_params(&o).is_err());
    }

    #[test]
    fn budgeted_search_emits_byte_identical_tsv() {
        // The CLI face of the memory-budget contract: a run forced to
        // spill (and one whose every spill write is corrupted in flight)
        // writes the exact same TSV bytes as the unbudgeted run.
        let dir = std::env::temp_dir().join(format!("pastis-cli-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("s.fa");
        run(&s(&[
            "generate",
            fa.to_str().unwrap(),
            "--n",
            "70",
            "--mean-len",
            "90",
            "--seed",
            "23",
        ]))
        .unwrap();
        let run_with = |extra: &[&str], out: &Path| -> Result<Vec<u8>, String> {
            let mut argv = s(&[
                "search",
                fa.to_str().unwrap(),
                out.to_str().unwrap(),
                "--k",
                "5",
                "--blocks",
                "3x3",
                "--ani",
                "0.4",
                "--coverage",
                "0.5",
            ]);
            argv.extend(extra.iter().map(|x| x.to_string()));
            run(&argv)?;
            Ok(std::fs::read(out).unwrap())
        };
        let base = run_with(&[], &dir.join("base.tsv")).unwrap();
        assert!(!base.is_empty(), "baseline run produced no edges");
        // Budgets descending until one forces spills; every run that
        // completes must be byte-identical, and budgets below the
        // irreducible working set must fail with a typed OOM.
        let spill = dir.join("spill");
        let spill_str = spill.to_str().unwrap().to_owned();
        let mut one_spilled = false;
        for budget in ["4M", "600K", "200K", "150K"] {
            let _ = std::fs::remove_dir_all(&spill);
            let out = dir.join(format!("b{budget}.tsv"));
            match run_with(&["--mem-budget", budget, "--spill-dir", &spill_str], &out) {
                Ok(tsv) => {
                    assert_eq!(tsv, base, "--mem-budget {budget} changed the TSV");
                    if spill.exists()
                        && std::fs::read_dir(&spill)
                            .map(|d| d.count() > 0)
                            .unwrap_or(false)
                    {
                        one_spilled = true;
                    }
                }
                Err(e) => assert!(e.contains("out of memory in phase"), "{e}"),
            }
        }
        assert!(one_spilled, "no tested budget spilled");
        // Under a seeded corrupt-every-spill plan the CRC check rejects
        // each shard on readback and the blocks are recomputed — still
        // byte-identical.
        let _ = std::fs::remove_dir_all(&spill);
        match run_with(
            &[
                "--mem-budget",
                "200K",
                "--spill-dir",
                &spill_str,
                "--fault-plan",
                "seed=7,spill_corrupt=1.0",
            ],
            &dir.join("corrupt.tsv"),
        ) {
            Ok(tsv) => assert_eq!(tsv, base, "corrupt spill plan changed the TSV"),
            Err(e) => assert!(e.contains("out of memory in phase"), "{e}"),
        }
        // Disk-full faults drop half the spill writes; the run still
        // completes under budget because the accountant retries other
        // victims, and the TSV stays byte-identical.
        let _ = std::fs::remove_dir_all(&spill);
        let tsv = run_with(
            &[
                "--mem-budget",
                "200K",
                "--spill-dir",
                &spill_str,
                "--fault-plan",
                "seed=9,spill_disk_full=0.5",
            ],
            &dir.join("diskfull.tsv"),
        )
        .expect("disk-full spill plan should complete");
        assert_eq!(tsv, base, "disk-full spill plan changed the TSV");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_params_defaults_match_paper() {
        let o = Opts::parse(&[], &SEARCH_FLAGS).unwrap();
        let p = parse_search_params(&o).unwrap();
        assert_eq!(p.k, 6);
        assert_eq!(p.gaps.open, 11);
        assert_eq!(p.gaps.extend, 2);
    }

    #[test]
    fn bad_inputs_rejected() {
        let bad_alpha = Opts::parse(&s(&["--alphabet", "dna4"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad_alpha).is_err());
        let bad_blocks = Opts::parse(&s(&["--blocks", "44"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad_blocks).is_err());
        let bad_k = Opts::parse(&s(&["--k", "0"]), &SEARCH_FLAGS).unwrap();
        assert!(parse_search_params(&bad_k).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn end_to_end_generate_search_cluster() {
        let dir = std::env::temp_dir().join(format!("pastis-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("d.fa");
        let tsv = dir.join("d.tsv");
        let clu = dir.join("d.clusters");
        run(&s(&[
            "generate",
            fa.to_str().unwrap(),
            "--n",
            "80",
            "--mean-len",
            "80",
            "--seed",
            "9",
        ]))
        .unwrap();
        run(&s(&[
            "search",
            fa.to_str().unwrap(),
            tsv.to_str().unwrap(),
            "--k",
            "5",
            "--blocks",
            "2x2",
            "--ani",
            "0.4",
            "--coverage",
            "0.5",
        ]))
        .unwrap();
        let edges = std::fs::read_to_string(&tsv).unwrap();
        assert!(edges.lines().count() > 0, "no edges found");
        run(&s(&[
            "cluster",
            fa.to_str().unwrap(),
            clu.to_str().unwrap(),
            "--k",
            "5",
            "--ani",
            "0.4",
            "--coverage",
            "0.5",
        ]))
        .unwrap();
        let clusters = std::fs::read_to_string(&clu).unwrap();
        assert_eq!(clusters.lines().count(), 80);
        run(&s(&["stats", fa.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn end_to_end_telemetry_exports_and_trace_check() {
        let dir = std::env::temp_dir().join(format!("pastis-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fa = dir.join("t.fa");
        let tsv = dir.join("t.tsv");
        let trace = dir.join("t.trace.json");
        let metrics = dir.join("t.metrics.json");
        run(&s(&[
            "generate",
            fa.to_str().unwrap(),
            "--n",
            "60",
            "--mean-len",
            "70",
            "--seed",
            "11",
        ]))
        .unwrap();
        run(&s(&[
            "search",
            fa.to_str().unwrap(),
            tsv.to_str().unwrap(),
            "--k",
            "5",
            "--blocks",
            "2x2",
            "--ani",
            "0.4",
            "--coverage",
            "0.5",
            "--ranks",
            "4",
            "--align-threads",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-json",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        // The emitted files validate, cover all 4 ranks, and contain the
        // pipeline phases.
        run(&s(&[
            "trace-check",
            trace.to_str().unwrap(),
            "--expect-ranks",
            "4",
            "--expect-phases",
            "kmer_matrix,summa.block,align.batch,output.assembly",
        ]))
        .unwrap();
        run(&s(&[
            "trace-check",
            metrics.to_str().unwrap(),
            "--expect-ranks",
            "4",
            "--expect-phases",
            "align,spgemm",
        ]))
        .unwrap();
        // Wrong expectations fail.
        assert!(run(&s(&[
            "trace-check",
            trace.to_str().unwrap(),
            "--expect-ranks",
            "9",
        ]))
        .is_err());
        assert!(run(&s(&[
            "trace-check",
            metrics.to_str().unwrap(),
            "--expect-phases",
            "warp-drive",
        ]))
        .is_err());
        // --no-telemetry still searches, but refuses export flags.
        run(&s(&[
            "search",
            fa.to_str().unwrap(),
            tsv.to_str().unwrap(),
            "--k",
            "5",
            "--no-telemetry",
        ]))
        .unwrap();
        assert!(run(&s(&[
            "search",
            fa.to_str().unwrap(),
            tsv.to_str().unwrap(),
            "--no-telemetry",
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .is_err());
    }
}
