//! The end-to-end distributed similarity search (Figure 4 of the paper).
//!
//! SPMD over a [`ProcessGrid`]; every rank executes:
//!
//! 1. **Sequence exchange** — each rank owns a contiguous slice of the
//!    input; residues are sent to all ranks with non-blocking messages
//!    immediately, and received ("cwait", Table II) only when alignment
//!    needs them.
//! 2. **k-mer matrix** — each rank builds the rows of `A` for its slice
//!    (optionally with substitute k-mers); `Aᵀ` falls out by swapping
//!    coordinates. Both are distributed as stripes of the Blocked 2D
//!    Sparse SUMMA.
//! 3. **Incremental blocked search** — for every scheduled output block:
//!    a distributed SpGEMM over the overlap semiring discovers candidates;
//!    the load-balancing scheme prunes the symmetric redundancy; the
//!    common-k-mer threshold selects pairs; each rank batch-aligns the
//!    pairs it owns; ANI/coverage filtering appends edges to the local
//!    similarity graph. With **pre-blocking** the SpGEMM of block `i+1`
//!    runs on a concurrent thread while block `i` is aligned, hiding the
//!    sparse phase (Section VI-C).
//!
//! The output is identical for every process count, blocking factor, and
//! load-balancing scheme — the determinism property PASTIS holds over
//! DIAMOND/MMseqs2 (verified by `tests/determinism.rs`).

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::{Duration, Instant};

use pastis_align::batch::AlignTask;
use pastis_align::matrices::{Blosum62, Scoring};
use pastis_align::parallel::AlignPool;

use pastis_comm::grid::{BlockDist1D, ProcessGrid};
use pastis_comm::{Communicator, Component, FaultPlan, FaultyStore, ReduceOp, TimeBreakdown};
use pastis_pool::{Engine, WorkPool};
use pastis_seqio::SeqStore;
use pastis_sparse::{BlockedSumma, CsrMatrix, SpGemmPool};
use pastis_trace::{names, span, Recorder};

use crate::autotune::{self, TuneKnobs, TunePolicy, TuneSnapshot};
use crate::checkpoint::{self, Checkpoint, IndexShard, SpillShard};
use crate::filter::{candidate_passes, EdgeFilter};
use crate::kmer::KmerMatrix;
use crate::loadbalance::{BlockPlan, BlockTask};
use crate::membudget::MemBudget;
use crate::overlap::OverlapSemiring;
use crate::params::{AlignKind, SearchParams};
use crate::simgraph::{SimilarityEdge, SimilarityGraph};
use crate::stats::SearchStats;
use crate::straggler::{detect_stragglers, StragglerReport};

/// Per-block timing and counters (this rank's share) — the raw series
/// behind Figure 5 and Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTiming {
    /// Block row.
    pub r: usize,
    /// Block column.
    pub c: usize,
    /// Seconds in the block's sparse phase (SpGEMM + pruning/extraction).
    pub sparse_seconds: f64,
    /// Seconds aligning the block's pairs.
    pub align_seconds: f64,
    /// Candidates discovered in this rank's piece (pre-prune).
    pub candidates: u64,
    /// Pairs this rank aligned.
    pub aligned_pairs: u64,
}

/// The outcome of one rank's search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Edges this rank produced (canonicalized, normalized).
    pub graph: SimilarityGraph,
    /// This rank's counters.
    pub stats: SearchStats,
    /// This rank's component time sums. With pre-blocking, overlapped
    /// components both accrue, so `times.total() ≥ wall_seconds` — the
    /// "sum vs total" distinction of Table I.
    pub times: TimeBreakdown,
    /// Wall-clock seconds of the whole search on this rank.
    pub wall_seconds: f64,
    /// Per scheduled block: timings and counters.
    pub per_block: Vec<BlockTiming>,
    /// When the run resumed from a checkpoint: the block index it resumed
    /// at (blocks `0..k` were restored, not recomputed).
    pub resumed_from_block: Option<usize>,
    /// End-of-run straggler scan (`None` when disabled, halted early, or
    /// `p == 1`).
    pub stragglers: Option<StragglerReport>,
    /// Peak accounted live bytes on this rank (`Some` only on budgeted
    /// runs): sequences + index stripes + staged broadcast buffers +
    /// completed output blocks. A correct budgeted run keeps this at or
    /// under the budget.
    pub mem_high_water: Option<u64>,
}

impl SearchResult {
    /// Gather every rank's edges into one global graph (collective).
    pub fn gather_graph<C: Communicator>(&self, comm: &C) -> SimilarityGraph {
        let all = comm.all_gather(self.graph.edges().to_vec());
        let mut g = SimilarityGraph::new(self.graph.n_vertices());
        for part in all {
            for e in part {
                g.add(e);
            }
        }
        g.normalize();
        g
    }
}

/// Flattened sequence slice exchanged between ranks.
#[derive(Debug, Clone)]
struct SeqSlice {
    begin: usize,
    lens: Vec<u32>,
    residues: Vec<u8>,
}

impl SeqSlice {
    fn from_store(store: &SeqStore, begin: usize, end: usize) -> SeqSlice {
        let mut lens = Vec::with_capacity(end - begin);
        let mut residues = Vec::new();
        for i in begin..end {
            let s = store.seq(i);
            lens.push(s.len() as u32);
            residues.extend_from_slice(s);
        }
        SeqSlice {
            begin,
            lens,
            residues,
        }
    }

    fn bytes(&self) -> usize {
        self.residues.len() + self.lens.len() * 4 + 16
    }

    fn unpack_into(&self, seqs: &mut [Vec<u8>]) {
        let mut off = 0usize;
        for (idx, &len) in self.lens.iter().enumerate() {
            let len = len as usize;
            seqs[self.begin + idx] = self.residues[off..off + len].to_vec();
            off += len;
        }
    }
}

/// One candidate pair to align (global sequence ids). Shared with the
/// serving path ([`crate::serve`]), whose edge construction must be
/// expression-for-expression identical to the batch pipeline's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairTask {
    pub(crate) i: u32,
    pub(crate) j: u32,
    pub(crate) seed_q: u32,
    pub(crate) seed_r: u32,
    pub(crate) count: u32,
}

/// The sparse phase's product for one block.
struct CandidateBatch {
    task: BlockTask,
    pairs: Vec<PairTask>,
    candidates: u64,
    products: u64,
    spgemm_seconds: f64,
    other_seconds: f64,
}

/// Accounting charge per completed-output edge (allocator overhead is
/// noise at spill granularity).
const EDGE_BYTES: u64 = std::mem::size_of::<SimilarityEdge>() as u64;

/// The blocked SUMMA of the pipeline: `A` and `Aᵀ` both carry `u32` seed
/// positions ([`OverlapSemiring`]).
pub type KmerSumma = BlockedSumma<u32, u32>;

/// Lifecycle of one scheduled block's locally-produced edges under a
/// memory budget.
enum BlockEdges {
    /// Edges resident in memory, charged to the accountant.
    Mem(Vec<SimilarityEdge>),
    /// Edges spilled to `spill_path(dir, rank, idx)`; charge released.
    Spilled,
    /// Edges merged into the similarity graph (the charge now rides the
    /// graph itself and is never released).
    Merged,
}

/// The spill/readback machinery of a budgeted run: the accountant, the
/// (fault-injectable) shard store, and the identity every shard is framed
/// with. Mutable state — the SUMMA stripes, the per-block outputs, the
/// eviction flags — is passed into each call so the borrow of `self`
/// stays shared.
struct SpillCtx<'a> {
    accountant: &'a MemBudget,
    io: &'a FaultyStore,
    dir: &'a Path,
    fingerprint: u64,
    rank: usize,
    recorder: &'a Recorder,
    /// Per index stripe (A stripes, then B stripes): a verified shard of
    /// it is on disk. Stripes never change after construction, so such a
    /// stripe is evicted by dropping it; no stripe is written twice.
    stripe_on_disk: RefCell<Vec<bool>>,
    /// The block schedule and the index of the block the drive loop is
    /// at: stripes are evicted farthest next use first.
    schedule: &'a [BlockTask],
    cursor: Cell<usize>,
}

impl SpillCtx<'_> {
    /// Reserve `bytes` for `phase`, spilling under pressure: coldest
    /// (oldest) completed output blocks first, then inactive index
    /// stripes not named in `protect`. An `Err` is a genuine OOM — the
    /// budget cannot hold `bytes` even with everything evictable on disk.
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &self,
        phase: &str,
        bytes: u64,
        bs: &mut KmerSumma,
        block_out: &mut [(usize, BlockEdges)],
        a_evicted: &mut [bool],
        b_evicted: &mut [bool],
        protect: &[BlockTask],
    ) -> Result<(), String> {
        if self.accountant.try_reserve(bytes) {
            return Ok(());
        }
        self.spill_outputs(block_out, bytes);
        self.evict_stripes(bs, a_evicted, b_evicted, protect, bytes);
        if self.accountant.try_reserve(bytes) {
            return Ok(());
        }
        Err(format!(
            "out of memory in phase \"{phase}\": need {bytes} B with {} B live \
             of {} B budget, and nothing left to spill",
            self.accountant.live(),
            self.accountant.budget().unwrap_or(0),
        ))
    }

    /// Spill completed in-memory output blocks, coldest first, until
    /// `need` bytes fit. A failed write (injected or real disk-full)
    /// keeps that block resident and moves on to the next candidate.
    fn spill_outputs(&self, block_out: &mut [(usize, BlockEdges)], need: u64) {
        for (idx, state) in block_out.iter_mut() {
            if self.accountant.would_fit(need) {
                return;
            }
            let BlockEdges::Mem(edges) = state else {
                continue;
            };
            if edges.is_empty() {
                continue;
            }
            let shard = SpillShard {
                fingerprint: self.fingerprint,
                rank: self.rank,
                block: *idx,
                edges: std::mem::take(edges),
            };
            let text = shard.to_text();
            let path = checkpoint::spill_path(self.dir, self.rank, *idx);
            let wrote = {
                let _sp = span!(self.recorder, Component::SparseOther, names::SPAN_SPILL_WRITE, {
                    block: *idx as u64,
                    bytes: text.len() as u64,
                });
                self.io.write_atomic(&path, &text)
            };
            match wrote {
                Ok(()) => {
                    self.accountant
                        .release(EDGE_BYTES * shard.edges.len() as u64);
                    self.recorder.add_counter(names::CTR_SPILL_BLOCKS_OUT, 1.0);
                    self.recorder
                        .add_counter(names::CTR_SPILL_BYTES_OUT, text.len() as f64);
                    *state = BlockEdges::Spilled;
                }
                // Nothing replaced the target file; keep the edges.
                Err(_) => *state = BlockEdges::Mem(shard.edges),
            }
        }
    }

    /// Evict inactive index stripes until `need` bytes fit. A stripe is
    /// unrecoverable once dropped (unlike output blocks there is nothing
    /// to recompute it from block-locally), so the eviction commits only
    /// after a verified readback of what actually landed on disk —
    /// injected corruption or short writes keep the stripe resident.
    fn evict_stripes(
        &self,
        bs: &mut KmerSumma,
        a_evicted: &mut [bool],
        b_evicted: &mut [bool],
        protect: &[BlockTask],
        need: u64,
    ) {
        // Candidates, farthest next use in the block schedule first (a
        // stripe no upcoming block reads goes before all others).
        let upcoming = &self.schedule[self.cursor.get().min(self.schedule.len())..];
        let next_use = |is_a: bool, i: usize| {
            upcoming
                .iter()
                .position(|t| if is_a { t.r == i } else { t.c == i })
                .unwrap_or(usize::MAX)
        };
        let a_side = (0..bs.br())
            .filter(|&r| !a_evicted[r] && !protect.iter().any(|t| t.r == r))
            .map(|r| (true, r, bs.a_stripe_bytes(r)));
        let b_side = (0..bs.bc())
            .filter(|&c| !b_evicted[c] && !protect.iter().any(|t| t.c == c))
            .map(|c| (false, c, bs.b_stripe_bytes(c)));
        let mut victims: Vec<(bool, usize, u64)> =
            a_side.chain(b_side).filter(|v| v.2 > 0).collect();
        victims.sort_by_key(|&(is_a, i, _)| std::cmp::Reverse(next_use(is_a, i)));
        // Stripes differ in size (an Aᵀ stripe carries a row pointer per
        // k-mer), so taking victims in that order until the reservation
        // fits can take more than it needs. Go back over the ones taken,
        // soonest needed first, and keep resident every one the
        // reservation fits without.
        let short = (self.accountant.live() + need)
            .saturating_sub(self.accountant.budget().unwrap_or(u64::MAX));
        let mut taken = 0;
        let mut freed = 0u64;
        while taken < victims.len() && freed < short {
            freed += victims[taken].2;
            taken += 1;
        }
        let mut spared = vec![false; victims.len()];
        for k in (0..taken).rev() {
            if freed - victims[k].2 >= short {
                freed -= victims[k].2;
                spared[k] = true;
            }
        }
        // An eviction that cannot be verified keeps its stripe, so the
        // spared ones are tried last rather than never.
        let planned = (0..victims.len()).filter(|&k| !spared[k]);
        let fallback = (0..victims.len()).filter(|&k| spared[k]);
        for k in planned.chain(fallback) {
            if self.accountant.would_fit(need) {
                return;
            }
            let (is_a, i, _) = victims[k];
            self.try_evict_stripe(bs, is_a, i, if is_a { a_evicted } else { b_evicted });
        }
    }

    fn try_evict_stripe(&self, bs: &mut KmerSumma, is_a: bool, i: usize, evicted: &mut [bool]) {
        let bytes = if is_a {
            bs.a_stripe_bytes(i)
        } else {
            bs.b_stripe_bytes(i)
        };
        let slot = if is_a { i } else { bs.br() + i };
        let block = if is_a {
            bs.evict_a_stripe(i)
        } else {
            bs.evict_b_stripe(i)
        };
        if self.stripe_on_disk.borrow()[slot] {
            evicted[i] = true;
            self.accountant.release(bytes);
            self.recorder.add_counter(names::CTR_SPILL_BLOCKS_OUT, 1.0);
            return;
        }
        let (nrows, ncols, rowptr, cols, vals) = block.into_parts();
        let shard = IndexShard {
            fingerprint: self.fingerprint,
            rank: self.rank,
            is_a,
            stripe: i,
            nrows,
            ncols,
            rowptr,
            cols,
            vals,
        };
        let text = shard.to_text();
        let path = checkpoint::index_spill_path(self.dir, self.rank, is_a, i);
        // The file must hold exactly the bytes just formatted: that catches
        // every injected or real write fault, and what `to_text` produces
        // `parse` accepts (pinned by the shard round-trip tests).
        let committed = {
            let _sp = span!(self.recorder, Component::SparseOther, names::SPAN_SPILL_WRITE, {
                stripe: i as u64,
                a_side: u64::from(is_a),
                bytes: text.len() as u64,
            });
            self.io.write_atomic(&path, &text).is_ok() && self.io.holds(&path, &text)
        };
        if committed {
            evicted[i] = true;
            self.stripe_on_disk.borrow_mut()[slot] = true;
            self.accountant.release(bytes);
            self.recorder.add_counter(names::CTR_SPILL_BLOCKS_OUT, 1.0);
            self.recorder
                .add_counter(names::CTR_SPILL_BYTES_OUT, text.len() as f64);
        } else {
            // Damaged or unwritable on disk: the stripe stays resident.
            self.recorder.add_counter(names::CTR_SPILL_CRC_REJECTS, 1.0);
            let m = CsrMatrix::from_parts(
                shard.nrows,
                shard.ncols,
                shard.rowptr,
                shard.cols,
                shard.vals,
            );
            if is_a {
                bs.restore_a_stripe(i, m);
            } else {
                bs.restore_b_stripe(i, m);
            }
        }
    }

    /// Stream evicted stripes needed by `targets` back into memory,
    /// charging them to the accountant (which may in turn spill other
    /// state — `targets` themselves are protected from eviction).
    ///
    /// # Errors
    ///
    /// A stripe that fails its CRC frame here is a hard error: spill-time
    /// verification guaranteed the file was good when written, so this is
    /// post-hoc disk damage with nothing left to rebuild from.
    fn restore_stripes_for(
        &self,
        bs: &mut KmerSumma,
        block_out: &mut [(usize, BlockEdges)],
        a_evicted: &mut [bool],
        b_evicted: &mut [bool],
        targets: &[BlockTask],
    ) -> Result<(), String> {
        for t in targets {
            if a_evicted[t.r] {
                self.restore_stripe(bs, block_out, a_evicted, b_evicted, true, t.r, targets)?;
            }
            if b_evicted[t.c] {
                self.restore_stripe(bs, block_out, a_evicted, b_evicted, false, t.c, targets)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn restore_stripe(
        &self,
        bs: &mut KmerSumma,
        block_out: &mut [(usize, BlockEdges)],
        a_evicted: &mut [bool],
        b_evicted: &mut [bool],
        is_a: bool,
        i: usize,
        protect: &[BlockTask],
    ) -> Result<(), String> {
        let path = checkpoint::index_spill_path(self.dir, self.rank, is_a, i);
        let text = {
            let _sp = span!(self.recorder, Component::SparseOther, names::SPAN_SPILL_READ, {
                stripe: i as u64,
            });
            self.io.read_to_string(&path)?
        };
        let shard = IndexShard::parse(&text).map_err(|e| {
            format!(
                "index stripe {} is unreadable ({e}); it was verified at spill \
                 time, so the file was damaged on disk afterwards",
                path.display()
            )
        })?;
        if shard.fingerprint != self.fingerprint
            || shard.is_a != is_a
            || shard.stripe != i
            || shard.rank != self.rank
        {
            return Err(format!(
                "index stripe {} belongs to a different run",
                path.display()
            ));
        }
        self.recorder.add_counter(names::CTR_SPILL_BLOCKS_IN, 1.0);
        self.recorder
            .add_counter(names::CTR_SPILL_BYTES_IN, text.len() as f64);
        let m = CsrMatrix::from_parts(
            shard.nrows,
            shard.ncols,
            shard.rowptr,
            shard.cols,
            shard.vals,
        );
        let bytes;
        if is_a {
            bs.restore_a_stripe(i, m);
            a_evicted[i] = false;
            bytes = bs.a_stripe_bytes(i);
        } else {
            bs.restore_b_stripe(i, m);
            b_evicted[i] = false;
            bytes = bs.b_stripe_bytes(i);
        }
        self.charge(
            "index stripe restore",
            bytes,
            bs,
            block_out,
            a_evicted,
            b_evicted,
            protect,
        )
    }
}

/// Stage 2 of the search: this rank's slice of the k-mer matrix from the
/// one operand builder, the collective column compaction, and the Blocked
/// SUMMA's stripes of `A` and `Aᵀ`. Returns the driver, this rank's
/// nonzero count and the compact inner dimension. Collective.
pub fn kmer_summa<C: Communicator>(
    grid: &ProcessGrid<C>,
    store: &SeqStore,
    params: &SearchParams,
) -> (KmerSumma, u64, usize) {
    let (n, world) = (store.len(), grid.world());
    let (rank, slice) = (world.rank(), BlockDist1D::new(n, world.size()));
    let my_rows = slice.part_offset(rank)..slice.part_offset(rank + 1);
    let (k, alphabet) = (params.k, params.alphabet);
    let KmerMatrix { ids, at } =
        KmerMatrix::build(store, my_rows, k, alphabet, params.substitute_kmers);
    let a_nnz = at.nnz() as u64;
    // Collectively compact the k-mer column space: `Aᵀ` is stored row-major
    // per stripe, and 20⁶ = 64M mostly-empty k-mer rows would waste the
    // memory CombBLAS avoids with DCSC storage. The column map is the
    // sorted union of every rank's distinct k-mer ids, so it is identical
    // on all ranks and for every process count — determinism is preserved.
    let mut gathered = world.all_gather(ids);
    let blocks = |asked: usize| asked.min(n.max(1));
    let (br, bc) = (blocks(params.block_rows), blocks(params.block_cols));
    if world.size() == 1 {
        // One rank's ids are the union and its operands are the stripes:
        // row stripes of `A`, and for `Aᵀ` their transposes (or, uncut,
        // `Aᵀ` as the builder made it), so that neither matrix is held
        // whole beside both sets of stripes.
        let inner_dim = gathered[0].len().max(1);
        drop(gathered);
        let a = at.transpose();
        let row_stripes = |parts: usize| {
            let d = BlockDist1D::new(n, parts);
            let stripe = |s| a.extract_rows(d.part_offset(s), d.part_offset(s + 1));
            (0..parts).map(stripe).collect::<Vec<_>>()
        };
        let b_stripes = if bc == 1 {
            vec![at]
        } else {
            drop(at);
            let cut = row_stripes(bc);
            cut.iter().map(CsrMatrix::transpose).collect()
        };
        let dims = (n, inner_dim, n);
        let bs = BlockedSumma::from_local_stripes(grid, dims, row_stripes(br), b_stripes);
        return (bs, a_nnz, inner_dim);
    }
    let mut col_map = gathered.concat();
    col_map.sort_unstable();
    col_map.dedup();
    let ids = gathered.swap_remove(rank);
    let a = KmerMatrix { ids, at }.remap(&col_map).to_triples();
    let at = a.clone().transpose();
    // Every (row, k-mer) pair has one owner rank and arrives folded.
    let no_dup = |_: &mut u32, _: u32| unreachable!("k-mer entries are distinct");
    let bs = BlockedSumma::from_triples(grid, a, at, br, bc, no_dup, no_dup);
    (bs, a_nnz, col_map.len().max(1))
}

/// Run the search over `grid`. Every rank passes the same full `store`
/// (as if all ranks read the same FASTA); each rank *uses* only its slice
/// for matrix construction and exchanges residues through the
/// communicator like the MPI implementation does.
///
/// # Errors
///
/// Returns an error for invalid [`SearchParams`].
pub fn run_search<C: Communicator + Sync>(
    grid: &ProcessGrid<C>,
    store: &SeqStore,
    params: &SearchParams,
) -> Result<SearchResult, String> {
    run_search_traced(grid, store, params, &Recorder::disabled())
}

/// [`run_search`] with structured telemetry: pipeline phases, per-block
/// SUMMA spans, alignment batches (with per-worker occupancy via the
/// [`AlignPool`] recorder), and end-of-run counters are recorded into
/// `recorder`. Telemetry is observation-only — the result is identical to
/// the untraced run (pinned by `tests/telemetry_e2e.rs`). To also record
/// per-collective traffic, run over a
/// [`TracedComm`](pastis_comm::TracedComm)-wrapped grid.
///
/// # Errors
///
/// Returns an error for invalid [`SearchParams`].
pub fn run_search_traced<C: Communicator + Sync>(
    grid: &ProcessGrid<C>,
    store: &SeqStore,
    params: &SearchParams,
    recorder: &Recorder,
) -> Result<SearchResult, String> {
    params.validate()?;
    let wall_start = Instant::now();
    let mut times = TimeBreakdown::new();
    let mut stats = SearchStats::default();

    let n = store.len();
    let world = grid.world();
    let (rank, p) = (world.rank(), world.size());

    // --- 0. Memory accountant (budgeted runs; see DESIGN.md "Memory
    // model & spill"). The run fingerprint frames both checkpoints and
    // spill shards, binding them to this exact search.
    let budgeted = params.mem_budget.is_some();
    let accountant = MemBudget::new(params.mem_budget);
    let fingerprint = if params.checkpoint_dir.is_some() || budgeted {
        checkpoint::run_fingerprint(params, store)
    } else {
        0
    };
    let spill_io = FaultyStore::new(
        params.spill_faults.clone().unwrap_or_else(FaultPlan::none),
        rank,
    )
    .with_recorder(recorder.clone());
    let slice = BlockDist1D::new(n, p);
    let my_begin = slice.part_offset(rank);
    let my_end = my_begin + slice.part_len(rank);

    // --- 1. Non-blocking sequence exchange: send now, receive at need.
    let my_slice = SeqSlice::from_store(store, my_begin, my_end);
    for dst in 0..p {
        if dst != rank {
            world.send_to(dst, my_slice.clone(), my_slice.bytes());
        }
    }

    // --- 2. k-mer matrix stripes for the Blocked SUMMA.
    let t0 = Instant::now();
    let mut kmer_span = span!(recorder, Component::SparseOther, names::SPAN_KMER_MATRIX);
    let (mut bs, a_nnz, inner_dim) = kmer_summa(grid, store, params);
    kmer_span.push_arg("nnz", a_nnz);
    kmer_span.push_arg("inner_dim", inner_dim as u64);
    drop(kmer_span);
    times.record(Component::SparseOther, t0.elapsed().as_secs_f64());

    let plan = BlockPlan::new(
        params.load_balance,
        bs.br(),
        bs.bc(),
        |r| bs.row_range(r),
        |c| bs.col_range(c),
    );

    // Budgeted-run state: per-stripe eviction flags, per-block output
    // lifecycles, and the spill context tying them to the accountant.
    let mut a_evicted = vec![false; bs.br()];
    let mut b_evicted = vec![false; bs.bc()];
    let mut block_out: Vec<(usize, BlockEdges)> = Vec::new();
    let spill_ctx = budgeted.then(|| SpillCtx {
        accountant: &accountant,
        io: &spill_io,
        dir: params
            .spill_dir
            .as_deref()
            .expect("validate() enforces budget ⇒ spill_dir"),
        fingerprint,
        rank,
        recorder,
        stripe_on_disk: RefCell::new(vec![false; bs.br() + bs.bc()]),
        schedule: &plan.tasks,
        cursor: Cell::new(0),
    });
    // Exact staging bound per stripe: each SUMMA stage holds the *received*
    // broadcast pair — some peer's block of the A/B stripe — so the bound
    // is the largest block any row/col peer owns, not this rank's own
    // block. One Max all-reduce per axis, run before any eviction zeroes
    // a local size. Collective, but `budgeted` is parameter-derived and
    // therefore identical on every rank.
    let (stage_max_a, stage_max_b) = if budgeted {
        let a: Vec<u64> = (0..bs.br()).map(|r| bs.a_stripe_bytes(r)).collect();
        let b: Vec<u64> = (0..bs.bc()).map(|c| bs.b_stripe_bytes(c)).collect();
        (
            grid.row_comm().all_reduce(&a, ReduceOp::Max),
            grid.col_comm().all_reduce(&b, ReduceOp::Max),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    // Bytes the staged broadcast buffers of one block's SUMMA may reach:
    // one received A+B pair per stage, two pairs resident when overlapped
    // broadcasts double-buffer the next stage.
    let staging_bound = |targets: &[BlockTask], overlap_on: bool| -> u64 {
        let per: u64 = targets
            .iter()
            .map(|t| stage_max_a[t.r] + stage_max_b[t.c])
            .sum();
        if overlap_on {
            per.saturating_mul(2)
        } else {
            per
        }
    };
    // Collective OOM agreement: in a budgeted multi-rank run, a rank whose
    // reservation cannot be satisfied must not abandon the SPMD schedule
    // unilaterally — its peers would block forever in the next collective.
    // Every reservation site sits at a schedule point all ranks reach, so
    // an all-reduced failure flag lets the whole world abort together:
    // the failing rank returns its own typed OOM, everyone else a peer
    // marker carrying the same "out of memory in phase" classification.
    const PEER_OOM: &str = "out of memory in phase \"peer reservation\": another rank could not \
                            satisfy a reservation under its memory budget; aborted collectively";
    let oom_vote = |local: Result<u64, String>| -> Result<u64, String> {
        if !budgeted || p == 1 {
            return local;
        }
        let any = world.all_reduce(&[u64::from(local.is_err())], ReduceOp::Max)[0];
        if any == 0 {
            local
        } else {
            local.and(Err(PEER_OOM.to_owned()))
        }
    };
    if let Some(ctx) = &spill_ctx {
        // Charge the k-mer index stripes one at a time; the first
        // scheduled blocks' stripes are protected so pressure doesn't
        // immediately evict what the loop is about to use. Not-yet-charged
        // stripes are hidden from the relief scan (evicting an uncharged
        // stripe would release bytes never reserved), so a budget smaller
        // than the whole index streams the index tail straight to disk
        // instead of refusing to start.
        let protect: Vec<BlockTask> = plan.tasks.iter().take(2).copied().collect();
        let nr = bs.br();
        let total = nr + bs.bc();
        let set_flag = |a: &mut [bool], b: &mut [bool], j: usize, v: bool| {
            if j < nr {
                a[j] = v;
            } else {
                b[j - nr] = v;
            }
        };
        let mut setup_oom: Result<u64, String> = Ok(0);
        for i in 0..total {
            for j in i + 1..total {
                set_flag(&mut a_evicted, &mut b_evicted, j, true);
            }
            let bytes = if i < nr {
                bs.a_stripe_bytes(i)
            } else {
                bs.b_stripe_bytes(i - nr)
            };
            let charged = if bytes > 0 {
                ctx.charge(
                    "k-mer index stripes",
                    bytes,
                    &mut bs,
                    &mut block_out,
                    &mut a_evicted,
                    &mut b_evicted,
                    &protect,
                )
            } else {
                Ok(())
            };
            // Uncharged stripes were only masked, never evicted (the scan
            // skips flagged entries), so their true state is still
            // resident.
            for j in i + 1..total {
                set_flag(&mut a_evicted, &mut b_evicted, j, false);
            }
            if let Err(e) = charged {
                setup_oom = Err(e);
                break;
            }
        }
        oom_vote(setup_oom)?;
    }

    // --- 3. Assemble the exchanged sequences (the cwait component).
    let t1 = Instant::now();
    let seqs: Vec<Vec<u8>> = {
        let _recv_span = span!(recorder, Component::CommWait, names::SPAN_SEQ_EXCHANGE_RECV, {
            peers: p.saturating_sub(1) as u64,
        });
        let mut unpacked = vec![Vec::new(); n];
        my_slice.unpack_into(&mut unpacked);
        let op_timeout = params.op_timeout_ms.map(Duration::from_millis);
        for src in 0..p {
            if src != rank {
                // With a deadline, a lost peer surfaces as a typed error
                // here instead of hanging the whole world in cwait.
                let s: SeqSlice = match op_timeout {
                    None => world.recv_from(src),
                    Some(t) => world
                        .recv_from_deadline(src, t)
                        .map_err(|e| format!("sequence exchange failed: {e}"))?,
                };
                s.unpack_into(&mut unpacked);
            }
        }
        unpacked
    };
    times.record(Component::CommWait, t1.elapsed().as_secs_f64());
    if let Some(ctx) = &spill_ctx {
        // The assembled sequences stay resident for the whole search
        // (alignment needs random access); charge them up front so a
        // budget below the irreducible working set fails here, naming
        // the phase, instead of thrashing later.
        let seq_bytes: u64 = seqs.iter().map(|s| s.len() as u64 + 24).sum();
        let protect: Vec<BlockTask> = plan.tasks.iter().take(2).copied().collect();
        let charged = ctx.charge(
            "sequence store",
            seq_bytes,
            &mut bs,
            &mut block_out,
            &mut a_evicted,
            &mut b_evicted,
            &protect,
        );
        oom_vote(charged.map(|()| 0))?;
    }

    // --- 4. The incremental blocked search.
    let sr = OverlapSemiring;
    // The unified intra-rank worker pool (`--threads`): one team of
    // persistent workers serves SpGEMM row chunks *and* alignment units,
    // so an idle sparse worker steals alignment work and vice versa.
    // Per-engine caps reproduce the old static split as an upper bound.
    // `None` keeps the legacy per-engine scoped teams.
    let unified = params.threads.map(|t| {
        let wp = WorkPool::sized(t);
        wp.set_cap(Engine::Align, params.align_cap);
        wp.set_cap(Engine::Sparse, params.spgemm_cap);
        wp
    });
    // --- Self-tuning seed (`--tune`). Engine caps and lookahead are
    // schedule-invariant (the graph is bit-identical for every value),
    // so nothing decided here or mid-run can change the output. `auto`
    // seeds the split from the α–β cost model over the already-exchanged
    // global sequence set — identical inputs on every rank give an
    // identical seed — unless the user passed explicit caps, which win
    // as the starting point. `fixed:` applies its hand-tuned spec once
    // and never adapts.
    let mut tune_state: Option<TuneKnobs> = None;
    match (&params.tune, &unified) {
        (TunePolicy::Auto, Some(wp)) => {
            let t = wp.threads();
            let (sp, al) = if params.spgemm_cap.is_some() || params.align_cap.is_some() {
                (
                    params.spgemm_cap.unwrap_or(t).clamp(1, t.max(1)),
                    params.align_cap.unwrap_or(t).clamp(1, t.max(1)),
                )
            } else {
                let mean_len =
                    seqs.iter().map(|s| s.len() as u64).sum::<u64>() as f64 / n.max(1) as f64;
                autotune::seed_split(t, &pastis_comm::MachineModel::commodity(), mean_len)
            };
            wp.set_cap(Engine::Sparse, Some(sp));
            wp.set_cap(Engine::Align, Some(al));
            recorder.add_counter(names::CTR_TUNE_SPGEMM_CAP, sp as f64);
            recorder.add_counter(names::CTR_TUNE_ALIGN_CAP, al as f64);
            tune_state = Some(TuneKnobs {
                spgemm_cap: sp,
                align_cap: al,
                lookahead: usize::from(params.pre_blocking),
            });
        }
        (TunePolicy::Fixed(spec), Some(wp)) => {
            if let Some(c) = spec.spgemm_cap {
                wp.set_cap(Engine::Sparse, Some(c));
                recorder.add_counter(names::CTR_TUNE_SPGEMM_CAP, c as f64);
            }
            if let Some(c) = spec.align_cap {
                wp.set_cap(Engine::Align, Some(c));
                recorder.add_counter(names::CTR_TUNE_ALIGN_CAP, c as f64);
            }
        }
        _ => {}
    }
    // The intra-rank SpGEMM pool: each SUMMA stage's local multiplication
    // picks a kernel (hash/heap/parallel) per `params.spgemm` and runs row
    // chunks across `spgemm_threads` workers, stitched in row order — the
    // overlap matrix is bit-identical for every kernel and worker count.
    let mut spgemm_pool = SpGemmPool::new(params.spgemm_threads)
        .with_kind(params.spgemm)
        .with_recorder(recorder.clone());
    if let Some(wp) = &unified {
        spgemm_pool = spgemm_pool.with_workers(wp.clone());
    }
    let spgemm_pool = spgemm_pool;
    // `bs` is passed in (not captured) so the drive loop can evict and
    // restore stripes between calls under a memory budget. Budgeted runs
    // cover the staged broadcast buffers with a reservation held across
    // the call (`staging_bound`), so no stage hook is attached — every
    // accounted byte goes through the checked reserve path.
    let compute_sparse = |bs: &KmerSumma, task: BlockTask, overlap_on: bool| -> CandidateBatch {
        let mut block_span = span!(recorder, Component::SpGemm, names::SPAN_SUMMA_BLOCK, {
            r: task.r as u64,
            c: task.c as u64,
        });
        // The block's share of the `spgemm.acc.*` counters its multiplies
        // add to: which accumulator the row kernel ran.
        let acc_rows = || {
            let counters = recorder.counters();
            names::SPGEMM_ACC_COUNTERS.map(|name| counters.get(name).copied().unwrap_or(0.0))
        };
        let acc_before = recorder.is_enabled().then(acc_rows);
        let t_mult = Instant::now();
        let (cblock, gemm_stats) =
            bs.multiply_block_hooked(grid, &sr, task.r, task.c, &spgemm_pool, overlap_on, None);
        let spgemm_seconds = t_mult.elapsed().as_secs_f64();
        if let Some(before) = acc_before {
            let after = acc_rows();
            for (k, name) in names::SPGEMM_ACC_COUNTERS.into_iter().enumerate() {
                block_span.push_arg(name, (after[k] - before[k]) as u64);
            }
        }

        let t_other = Instant::now();
        let row_offset = bs.row_range(task.r).0 + cblock.row_offset();
        let col_offset = bs.col_range(task.c).0 + cblock.col_offset();
        let candidates = cblock.nnz_local() as u64;
        let pruned = plan.prune_local(task, cblock.local(), row_offset, col_offset);
        // No capacity from `pruned.nnz()`: the threshold passes a fraction
        // of a percent of the kept entries.
        let mut pairs = Vec::new();
        for (li, lj, ck) in pruned.iter() {
            if !candidate_passes(ck, params.common_kmer_threshold) {
                continue;
            }
            let (sq, srr) = ck.first_seed().unwrap_or((0, 0));
            // Lossless narrowing: global ids are store indices, and
            // `SeqStore::push` refuses to assign an id past u32::MAX,
            // so `local + offset` here is always within u32 range.
            let (gi, gj) = (
                (li as usize + row_offset) as u32,
                (lj as usize + col_offset) as u32,
            );
            // Canonical alignment orientation: always query = lower id.
            // The parity scheme keeps some pairs as their lower-triangle
            // entry (gi > gj); traceback tie-breaking is not symmetric
            // under swapping the sequences, so without this both
            // load-balance schemes — and the serving path, which always
            // aligns (query, reference) — could disagree on the identity
            // of a tie-sensitive pair. `C(j,i)`'s combined seed is
            // `C(i,j)`'s with the positions swapped (both orientations
            // pick the same minimum k-mer id), so the swap is exact.
            let pt = if gi <= gj {
                PairTask {
                    i: gi,
                    j: gj,
                    seed_q: sq,
                    seed_r: srr,
                    count: ck.count,
                }
            } else {
                PairTask {
                    i: gj,
                    j: gi,
                    seed_q: srr,
                    seed_r: sq,
                    count: ck.count,
                }
            };
            pairs.push(pt);
        }
        // Freeing the block belongs to this window: the replay's filter
        // span ends after the same drop.
        drop(cblock);
        let other_seconds = t_other.elapsed().as_secs_f64();
        block_span.push_arg(names::CTR_CANDIDATES, candidates);
        block_span.push_arg("products", gemm_stats.products);
        block_span.push_arg("pairs", pairs.len() as u64);
        CandidateBatch {
            task,
            pairs,
            candidates,
            products: gemm_stats.products,
            spgemm_seconds,
            other_seconds,
        }
    };

    // The intra-rank alignment pool: batches execute as atomically-claimed
    // chunks across `align_threads` workers (the calling thread included),
    // with results in task order — output is bit-identical for every
    // worker count. Workers never touch the communicator, so under
    // pre-blocking the concurrent sparse thread remains the only thread
    // issuing collectives. Traceback and score-only batches dispatch
    // through the `--simd`-selected vector backend; like the thread count,
    // the choice never changes the graph (both kernels are bit-identical
    // to their scalar references).
    let simd_backend = params
        .simd
        .resolve()
        .expect("validate() checked the SIMD policy");
    let mut pool = AlignPool::new(params.align_threads)
        .with_recorder(recorder.clone())
        .with_simd(simd_backend);
    if let Some(wp) = &unified {
        pool = pool.with_workers(wp.clone());
    }
    let pool = pool;
    let filter = EdgeFilter::from_params(params);
    let align_pairs = |task: BlockTask,
                       pairs: &[PairTask]|
     -> (Vec<SimilarityEdge>, u64, f64, f64) {
        let t = Instant::now();
        let mut batch_span = span!(recorder, Component::Align, names::SPAN_ALIGN_BATCH, {
            r: task.r as u64,
            c: task.c as u64,
            pairs: pairs.len() as u64,
        });
        let tasks: Vec<AlignTask> = pairs
            .iter()
            .map(|pt| AlignTask {
                query: pt.i,
                reference: pt.j,
                seed_q: pt.seed_q,
                seed_r: pt.seed_r,
            })
            .collect();
        let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
        let mut edges = Vec::new();
        let cells;
        let cpu_seconds;
        match params.align_kind {
            AlignKind::FullSw => {
                // Traceback on the `--simd` lanes, a pair per lane where
                // the chunk's direction matrix allows and an anti-diagonal
                // per vector elsewhere; results equal the scalar kernel's
                // in every field.
                let (results, stats) = pool.run_traceback(&tasks, lookup, &Blosum62, params.gaps);
                cells = stats.cells;
                cpu_seconds = stats.seconds;
                batch_span.push_arg("simd", stats.simd.id());
                batch_span.push_arg("lane_promotions", stats.lane_promotions);
                batch_span.push_arg("padded_cells", stats.padded_cells);
                for (pt, res) in pairs.iter().zip(&results) {
                    let (qlen, rlen) = (seqs[pt.i as usize].len(), seqs[pt.j as usize].len());
                    if filter.passes(res, qlen, rlen) {
                        edges.push(SimilarityEdge {
                            i: pt.i,
                            j: pt.j,
                            score: res.score,
                            ani: res.identity() as f32,
                            coverage: res.coverage_min(qlen, rlen) as f32,
                            common_kmers: pt.count,
                        });
                    }
                }
            }
            AlignKind::Banded(w) => {
                let (results, stats) = pool.run_banded(&tasks, lookup, &Blosum62, params.gaps, w);
                cells = stats.cells;
                cpu_seconds = stats.seconds;
                for (pt, res) in pairs.iter().zip(&results) {
                    let (q, r) = (&seqs[pt.i as usize], &seqs[pt.j as usize]);
                    if let Some(e) = banded_edge(pt, res.score, q, r, &filter) {
                        edges.push(e);
                    }
                }
            }
            AlignKind::ScoreOnly => {
                // Exact scores through the multilane vector kernel.
                let (results, stats) = pool.run_score_only(&tasks, lookup, &Blosum62, params.gaps);
                cells = stats.cells;
                cpu_seconds = stats.seconds;
                batch_span.push_arg("simd", stats.simd.id());
                batch_span.push_arg("lane_promotions", stats.lane_promotions);
                batch_span.push_arg("padded_cells", stats.padded_cells);
                for (pt, res) in pairs.iter().zip(&results) {
                    let (q, r) = (&seqs[pt.i as usize], &seqs[pt.j as usize]);
                    if let Some(e) = banded_edge(pt, res.score, q, r, &filter) {
                        edges.push(e);
                    }
                }
            }
        }
        batch_span.push_arg(names::CTR_CELLS, cells);
        batch_span.push_arg("edges", edges.len() as u64);
        drop(batch_span);
        (edges, cells, t.elapsed().as_secs_f64(), cpu_seconds)
    };
    // Memory backpressure's second stage: run the block's pairs in
    // quarters, sequentially, shrinking the peak intermediate alignment
    // state. Results are per-pair and stitched in task order, so the
    // edges are bit-identical to the unshrunk batch.
    let align_batch =
        |batch: &CandidateBatch, shrink: bool| -> (Vec<SimilarityEdge>, u64, f64, f64) {
            if !shrink || batch.pairs.len() <= 1 {
                return align_pairs(batch.task, &batch.pairs);
            }
            recorder.add_counter(names::CTR_MEM_BACKPRESSURE_BATCH_SHRUNK, 1.0);
            let chunk = batch.pairs.len().div_ceil(4);
            let (mut edges, mut cells, mut wall, mut cpu) = (Vec::new(), 0u64, 0f64, 0f64);
            for part in batch.pairs.chunks(chunk) {
                let (e, cl, w, cp) = align_pairs(batch.task, part);
                edges.extend(e);
                cells += cl;
                wall += w;
                cpu += cp;
            }
            (edges, cells, wall, cpu)
        };

    let mut graph = SimilarityGraph::new(n);
    let mut per_block = Vec::with_capacity(plan.tasks.len());
    let apply = |batch: CandidateBatch,
                 outcome: (Vec<SimilarityEdge>, u64, f64, f64),
                 times: &mut TimeBreakdown,
                 stats: &mut SearchStats,
                 per_block: &mut Vec<BlockTiming>|
     -> Vec<SimilarityEdge> {
        let (edges, cells, align_seconds, align_cpu_seconds) = outcome;
        times.record(Component::SpGemm, batch.spgemm_seconds);
        times.record(Component::SparseOther, batch.other_seconds);
        times.record(Component::Align, align_seconds);
        stats.candidates += batch.candidates;
        stats.spgemm_products += batch.products;
        stats.aligned_pairs += batch.pairs.len() as u64;
        stats.cells += cells;
        stats.similar_pairs += edges.len() as u64;
        stats.align_kernel_seconds += align_seconds;
        stats.align_cpu_seconds += align_cpu_seconds;
        per_block.push(BlockTiming {
            r: batch.task.r,
            c: batch.task.c,
            sparse_seconds: batch.spgemm_seconds + batch.other_seconds,
            align_seconds,
            candidates: batch.candidates,
            aligned_pairs: batch.pairs.len() as u64,
        });
        edges
    };

    let tasks = &plan.tasks;

    // --- 4a. Checkpoint/resume bookkeeping. The run fingerprint binds a
    // checkpoint to its exact search (output-relevant params + input), so a
    // stale or foreign directory can never poison a run.
    let ckpt_dir = params.checkpoint_dir.as_deref();
    let mut start_idx = 0usize;
    let mut resumed_from_block = None;
    if params.resume {
        let dir = ckpt_dir.expect("validate() enforces resume ⇒ checkpoint_dir");
        // Resume from the last block EVERY rank completed: ranks can die at
        // different blocks, and the SUMMA loop is bulk-synchronous, so the
        // world must re-enter it at one common index (collective Min).
        let mine =
            checkpoint::latest_valid(dir, rank, p, fingerprint).map_or(0, |ck| ck.blocks_done);
        let common = world.all_reduce(&[mine as u64], pastis_comm::ReduceOp::Min)[0] as usize;
        if common > 0 {
            let path = checkpoint::checkpoint_path(dir, rank, common);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
            let ck = Checkpoint::parse(&text)
                .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
            // Restore the partial state exactly as saved. Edges are in
            // insertion order (pre-normalize); the final normalize makes
            // the resumed graph bit-identical to an uninterrupted run.
            graph = ck.graph();
            stats = ck.stats;
            times = ck.times;
            per_block = ck.per_block;
            start_idx = common;
            resumed_from_block = Some(common);
            recorder.add_counter(names::CTR_RESUME_FROM_BLOCK, common as f64);
        }
    }
    // Halt is an *absolute* block index, so halt-then-resume-then-halt
    // chains compose (the deterministic stand-in for "killed at block k").
    let stop_idx = params
        .halt_after_blocks
        .map_or(tasks.len(), |h| h.min(tasks.len()));
    let halted = stop_idx < tasks.len();

    let save_ckpt = |blocks_done: usize,
                     graph: &SimilarityGraph,
                     stats: &SearchStats,
                     times: &TimeBreakdown,
                     per_block: &[BlockTiming]|
     -> Result<(), String> {
        let Some(dir) = ckpt_dir else {
            return Ok(());
        };
        let ck = Checkpoint {
            fingerprint,
            rank,
            nranks: p,
            n_vertices: n,
            blocks_done,
            stats: *stats,
            times: *times,
            per_block: per_block.to_vec(),
            edges: graph.edges().to_vec(),
        };
        checkpoint::save(dir, &ck)?;
        recorder.add_counter(names::CTR_CHECKPOINT_BLOCKS_WRITTEN, 1.0);
        Ok(())
    };

    // One drive loop for both schedules, parameterized by the lookahead
    // depth: depth 0 computes each block's SpGEMM on the critical path
    // (the serial schedule — the scope spawns nothing); depth 1 is the
    // pre-blocking software pipeline, aligning block i while the SpGEMM
    // of block i+1 runs on a concurrent thread. Alignment is purely
    // local, so the sparse thread is the only one issuing collectives —
    // the SPMD collective order stays identical on every rank either way.
    let depth = match &params.tune {
        // A hand-tuned lookahead overrides `--pre-blocking` (the drive
        // loop implements depth 0 and 1; deeper specs clamp). The choice
        // comes from world-uniform params, so the collective schedule
        // stays identical on every rank.
        TunePolicy::Fixed(spec) if spec.lookahead.is_some() => {
            spec.lookahead.unwrap_or_default().min(1)
        }
        _ => usize::from(params.pre_blocking),
    };
    // Blocks already accounted to the tuner (resume restores per_block;
    // restored blocks never count toward a live window).
    let mut tune_window_start = per_block.len();
    // Backpressure state (budgeted runs): under sustained pressure the
    // loop first pauses broadcast/SpGEMM prefetching (overlap and
    // pre-blocking lookahead), then shrinks alignment batches — both are
    // output-neutral knobs — before any reservation is allowed to abort.
    let mut prefetch_paused = false;
    let mut shrink_batches = false;
    let mut pending: Option<CandidateBatch> = None;
    // Carried across iterations of the budgeted loop: an output-block
    // charge that failed at the end of iteration i aborts at the top of
    // iteration i+1 (the next collectively-aligned point), and a pressure
    // signal raised on any rank flips the backpressure knobs on every
    // rank at once — the lookahead depth shapes the collective schedule,
    // so it must stay uniform across the world.
    let mut deferred_oom: Option<String> = None;
    let mut pressure_hint = false;
    for idx in start_idx..stop_idx {
        if let Some(ctx) = &spill_ctx {
            ctx.cursor.set(idx);
        }
        if budgeted {
            let flags = [u64::from(deferred_oom.is_some()), u64::from(pressure_hint)];
            let flags = if p > 1 {
                world.all_reduce(&flags, ReduceOp::Max)
            } else {
                flags.to_vec()
            };
            if flags[0] != 0 {
                return Err(deferred_oom.unwrap_or_else(|| PEER_OOM.to_owned()));
            }
            if flags[1] != 0 {
                if !prefetch_paused {
                    prefetch_paused = true;
                    recorder.add_counter(names::CTR_MEM_BACKPRESSURE_PREFETCH_PAUSED, 1.0);
                } else if !shrink_batches {
                    shrink_batches = true;
                }
                pressure_hint = false;
            }
        }
        // --- Self-tuning decision point (`--tune auto`). Mirrors the
        // backpressure protocol above: window telemetry is reduced
        // collectively (exact integer microsecond sums, so every rank
        // holds identical values), then every rank runs the same pure
        // `decide` on that snapshot — the lookahead depth shapes the
        // collective schedule and therefore must stay world-uniform,
        // while the cap re-split is local but still decided from the
        // same agreed state. The window condition (`per_block` grew) is
        // itself world-uniform: the BSP loop completes exactly one block
        // per iteration on every rank.
        if let (Some(wp), Some(cur)) = (&unified, tune_state.as_mut()) {
            if per_block.len() > tune_window_start {
                let _tspan = span!(recorder, Component::Other, names::SPAN_TUNE_DECIDE, {
                    block: idx as u64,
                });
                let (mut sp_us, mut al_us) = (0u64, 0u64);
                for b in &per_block[tune_window_start..] {
                    sp_us += (b.sparse_seconds.max(0.0) * 1e6) as u64;
                    al_us += (b.align_seconds.max(0.0) * 1e6) as u64;
                }
                tune_window_start = per_block.len();
                let local = [sp_us, al_us, sp_us + al_us];
                let sums = if p > 1 {
                    world.all_reduce(&local[..2], ReduceOp::Sum)
                } else {
                    local[..2].to_vec()
                };
                let maxs = if p > 1 {
                    world.all_reduce(&local[2..], ReduceOp::Max)
                } else {
                    local[2..].to_vec()
                };
                let snap = TuneSnapshot {
                    threads: wp.threads(),
                    sparse_us: sums[0],
                    align_us: sums[1],
                    max_rank_us: maxs[0],
                    sum_rank_us: sums[0] + sums[1],
                    ranks: p as u32,
                };
                let next = autotune::decide(cur, &snap, depth);
                recorder.add_counter(names::CTR_TUNE_DECISIONS, 1.0);
                if next != *cur {
                    wp.set_cap(Engine::Sparse, Some(next.spgemm_cap));
                    wp.set_cap(Engine::Align, Some(next.align_cap));
                    recorder.add_counter(names::CTR_TUNE_RESPLITS, 1.0);
                    recorder.add_counter(names::CTR_TUNE_SPGEMM_CAP, next.spgemm_cap as f64);
                    recorder.add_counter(names::CTR_TUNE_ALIGN_CAP, next.align_cap as f64);
                    recorder.add_counter(names::CTR_TUNE_LOOKAHEAD, next.lookahead as f64);
                    *cur = next;
                }
            }
        }
        let tuned_depth = tune_state
            .as_ref()
            .map_or(depth, |k| k.lookahead.min(depth));
        let eff_depth = if prefetch_paused { 0 } else { tuned_depth };
        let next_task = (eff_depth > 0 && idx + 1 < stop_idx).then(|| tasks[idx + 1]);
        let overlap_on = params.overlap && !prefetch_paused;
        // SUMMAs this iteration will actually run: the current block unless
        // its batch was prefetched, plus the pre-blocking lookahead.
        let mut summa_targets: Vec<BlockTask> = Vec::new();
        if pending.is_none() {
            summa_targets.push(tasks[idx]);
        }
        summa_targets.extend(next_task);
        let mut staging_held = 0u64;
        if let Some(ctx) = &spill_ctx {
            let prep = (|| -> Result<u64, String> {
                // Stream back any evicted stripes the upcoming SpGEMMs need.
                ctx.restore_stripes_for(
                    &mut bs,
                    &mut block_out,
                    &mut a_evicted,
                    &mut b_evicted,
                    &summa_targets,
                )?;
                // Reserve the staged-broadcast bound and hold it across the
                // block's SUMMA: the stage buffers themselves are allocated
                // deep inside the collective (no spill relief possible there),
                // so pressure is relieved here and the reservation covers the
                // peak until the multiply returns.
                let held = staging_bound(&summa_targets, overlap_on);
                if held > 0 {
                    ctx.charge(
                        "broadcast staging",
                        held,
                        &mut bs,
                        &mut block_out,
                        &mut a_evicted,
                        &mut b_evicted,
                        &summa_targets,
                    )?;
                }
                Ok(held)
            })();
            staging_held = oom_vote(prep)?;
        }
        let batch = match pending.take() {
            Some(b) => b,
            None => compute_sparse(&bs, tasks[idx], overlap_on),
        };
        let (outcome, next_batch) = std::thread::scope(|scope| {
            let bs_ref = &bs;
            let handle =
                next_task.map(|t| scope.spawn(move || compute_sparse(bs_ref, t, overlap_on)));
            let outcome = align_batch(&batch, shrink_batches);
            (
                outcome,
                handle.map(|h| h.join().expect("pre-blocking sparse thread panicked")),
            )
        });
        // All staged buffers are dropped once the multiplies return.
        accountant.release(staging_held);
        pending = next_batch;
        let edges = apply(batch, outcome, &mut times, &mut stats, &mut per_block);
        if let Some(ctx) = &spill_ctx {
            // Charge the completed block's edges; the blocks the loop
            // touches next keep their stripes resident through any
            // relief spilling.
            let protect: Vec<BlockTask> =
                tasks[(idx + 1).min(stop_idx)..(idx + 3).min(stop_idx)].to_vec();
            match ctx.charge(
                "output block",
                EDGE_BYTES * edges.len() as u64,
                &mut bs,
                &mut block_out,
                &mut a_evicted,
                &mut b_evicted,
                &protect,
            ) {
                // A failed charge aborts at the next vote point (loop top
                // or assembly), keeping the abort collective.
                Err(e) => deferred_oom = Some(e),
                Ok(()) => block_out.push((idx, BlockEdges::Mem(edges))),
            }
            pressure_hint = accountant
                .budget()
                .is_some_and(|b| accountant.live().saturating_mul(10) >= b.saturating_mul(8));
        } else {
            for e in edges {
                graph.add(e);
            }
        }
        save_ckpt(idx + 1, &graph, &stats, &times, &per_block)?;
    }

    // --- 4b'. Budgeted output assembly: merge every block's edges into
    // the graph in scheduled order, streaming spilled shards back. A
    // shard failing its CRC frame (or torn, or foreign) is recomputed —
    // collectively, since the block's SpGEMM is SPMD — and the final
    // normalize makes the graph bit-identical to an unbudgeted run
    // either way.
    if let Some(ctx) = &spill_ctx {
        ctx.cursor.set(tasks.len());
        let mut failed: Vec<usize> = Vec::new();
        // A charge that failed at the tail of the block loop (or fails
        // while merging below) aborts at the vote before the collective
        // failed-set exchange, so the world leaves together.
        let mut merge_err: Option<String> = deferred_oom.take();
        for k in 0..block_out.len() {
            if merge_err.is_some() {
                break;
            }
            let idx = block_out[k].0;
            let state = std::mem::replace(&mut block_out[k].1, BlockEdges::Merged);
            match state {
                BlockEdges::Mem(edges) => {
                    for e in edges {
                        graph.add(e);
                    }
                }
                BlockEdges::Spilled => {
                    let path = checkpoint::spill_path(ctx.dir, rank, idx);
                    let read = {
                        let _sp = span!(recorder, Component::SparseOther, names::SPAN_SPILL_READ, {
                            block: idx as u64,
                        });
                        ctx.io
                            .read_to_string(&path)
                            .and_then(|t| SpillShard::parse(&t).map(|s| (t.len(), s)))
                    };
                    match read {
                        Ok((len, shard))
                            if shard.fingerprint == fingerprint
                                && shard.rank == rank
                                && shard.block == idx =>
                        {
                            recorder.add_counter(names::CTR_SPILL_BLOCKS_IN, 1.0);
                            recorder.add_counter(names::CTR_SPILL_BYTES_IN, len as f64);
                            match ctx.charge(
                                "output assembly",
                                EDGE_BYTES * shard.edges.len() as u64,
                                &mut bs,
                                &mut block_out,
                                &mut a_evicted,
                                &mut b_evicted,
                                &[],
                            ) {
                                Err(e) => merge_err = Some(e),
                                Ok(()) => {
                                    for e in shard.edges {
                                        graph.add(e);
                                    }
                                }
                            }
                        }
                        _ => {
                            // CRC-detect: the shard is damaged (injected
                            // corruption, short write, torn disk) or
                            // foreign. Recompute the block below.
                            recorder.add_counter(names::CTR_SPILL_CRC_REJECTS, 1.0);
                            failed.push(idx);
                        }
                    }
                }
                BlockEdges::Merged => {}
            }
        }
        oom_vote(merge_err.map_or(Ok(0), Err))?;
        // Every rank recomputes the union of failed blocks — the SUMMA
        // is collective — but only ranks whose own shard was bad keep
        // (and charge) the recomputed edges.
        let failed_union: Vec<usize> = if p > 1 {
            let all = world.all_gather(failed.clone());
            let mut u: Vec<usize> = all.concat();
            u.sort_unstable();
            u.dedup();
            u
        } else {
            let mut u = failed.clone();
            u.sort_unstable();
            u
        };
        let mut recompute_err: Option<String> = None;
        for &idx in &failed_union {
            let t = tasks[idx];
            let prep = (|| -> Result<u64, String> {
                ctx.restore_stripes_for(
                    &mut bs,
                    &mut block_out,
                    &mut a_evicted,
                    &mut b_evicted,
                    &[t],
                )?;
                let staging = staging_bound(&[t], false);
                if staging > 0 {
                    ctx.charge(
                        "output recompute staging",
                        staging,
                        &mut bs,
                        &mut block_out,
                        &mut a_evicted,
                        &mut b_evicted,
                        &[t],
                    )?;
                }
                Ok(staging)
            })();
            // One vote per recomputed block, before its collective SpGEMM;
            // it also settles the previous block's deferred charge.
            let local = match recompute_err.take() {
                Some(e) => Err(e),
                None => prep,
            };
            let staging = oom_vote(local)?;
            let batch = compute_sparse(&bs, t, false);
            accountant.release(staging);
            if failed.contains(&idx) {
                let (edges, _cells, _wall, _cpu) = align_pairs(t, &batch.pairs);
                recorder.add_counter(names::CTR_SPILL_RECOMPUTES, 1.0);
                match ctx.charge(
                    "output assembly",
                    EDGE_BYTES * edges.len() as u64,
                    &mut bs,
                    &mut block_out,
                    &mut a_evicted,
                    &mut b_evicted,
                    &[],
                ) {
                    Err(e) => recompute_err = Some(e),
                    Ok(()) => {
                        for e in edges {
                            graph.add(e);
                        }
                    }
                }
            }
        }
        oom_vote(recompute_err.map_or(Ok(0), Err))?;
    }

    // --- 4b. Graceful degradation: flag environmental stragglers. Work
    // counters stay balanced when a *node* (not the partition) is slow, so
    // the scan compares wall seconds, rank against rank, via telemetry
    // rather than silently absorbing the skew. Collective — skipped on
    // halted (partial) runs where ranks may disagree about completion.
    let stragglers = match params.straggler_factor {
        Some(factor) if p > 1 && !halted => {
            let my_secs: f64 = per_block
                .iter()
                .map(|b| b.sparse_seconds + b.align_seconds)
                .sum();
            let all = world.all_gather(my_secs);
            let report = detect_stragglers(&all, factor);
            recorder.add_counter(names::CTR_STRAGGLER_MEDIAN_SECONDS, report.median_seconds);
            recorder.add_counter(names::CTR_STRAGGLER_SELF_SECONDS, my_secs);
            recorder.add_counter(
                names::CTR_STRAGGLER_IMBALANCE_FACTOR,
                report.imbalance_factor,
            );
            if report.flagged.contains(&rank) {
                recorder.add_counter(names::CTR_STRAGGLER_FLAGGED, 1.0);
            }
            Some(report)
        }
        _ => None,
    };

    {
        let _out_span = span!(recorder, Component::SparseOther, names::SPAN_OUTPUT_ASSEMBLY, {
            edges: graph.n_edges() as u64,
        });
        graph.normalize();
    }
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    stats.total_seconds = wall_seconds;
    recorder.add_counter(names::CTR_CANDIDATES, stats.candidates as f64);
    recorder.add_counter(names::CTR_ALIGNED_PAIRS, stats.aligned_pairs as f64);
    recorder.add_counter(names::CTR_CELLS, stats.cells as f64);
    recorder.add_counter(names::CTR_SIMILAR_PAIRS, stats.similar_pairs as f64);
    recorder.add_counter(names::CTR_ALIGN_SECONDS, times.get(Component::Align));
    recorder.add_counter(names::CTR_SPARSE_SECONDS, times.sparse_all());
    recorder.add_counter(names::CTR_ALIGN_CPU_SECONDS, stats.align_cpu_seconds);
    if budgeted {
        // The accountant's high-water mark: peak live bytes across
        // sequences, stripes, staged broadcast buffers, and output
        // blocks. The acceptance bar for a budgeted run is that this
        // stays at or under the budget.
        recorder.add_counter(names::CTR_MEM_HIGH_WATER, accountant.high_water() as f64);
    }
    if let Some(wp) = &unified {
        // Cross-engine steals: how often a persistent pool worker switched
        // between sparse and alignment jobs — the utilization the unified
        // pool recovers over the old static thread split.
        recorder.add_counter(names::CTR_POOL_STEALS, wp.steals() as f64);
    }
    if !matches!(params.align_kind, AlignKind::Banded(_)) {
        // Which vector backend the traceback or score-only batches ran on
        // (stable id: scalar 0, sse2 1, avx2 2, neon 3). Once per run.
        recorder.add_counter(names::CTR_ALIGN_SIMD_BACKEND, simd_backend.id() as f64);
    }
    Ok(SearchResult {
        graph,
        stats,
        times,
        wall_seconds,
        per_block,
        resumed_from_block,
        stragglers,
        mem_high_water: budgeted.then(|| accountant.high_water()),
    })
}

/// Edge construction for the banded (score-only) kernel: the ANI threshold
/// applies to the score normalized by the shorter sequence's self-score,
/// and coverage is not measurable (reported as the normalized score too).
/// Shared with [`crate::serve`] so both paths compute identical edges.
pub(crate) fn banded_edge(
    pt: &PairTask,
    score: i32,
    q: &[u8],
    r: &[u8],
    filter: &EdgeFilter,
) -> Option<SimilarityEdge> {
    if score <= 0 {
        return None;
    }
    let self_score = |s: &[u8]| -> i32 { s.iter().map(|&c| Blosum62.score(c, c)).sum() };
    let denom = self_score(q).min(self_score(r)).max(1);
    let normalized = score as f64 / denom as f64;
    (normalized >= filter.ani_threshold).then_some(SimilarityEdge {
        i: pt.i,
        j: pt.j,
        score,
        ani: normalized as f32,
        coverage: normalized as f32,
        common_kmers: pt.count,
    })
}

/// Convenience serial entry point: run the whole search on one rank.
pub fn run_search_serial(store: &SeqStore, params: &SearchParams) -> Result<SearchResult, String> {
    let grid = ProcessGrid::square(pastis_comm::SelfComm::new());
    run_search(&grid, store, params)
}

/// Serial entry point with telemetry: the single rank's communicator is
/// wrapped in a [`TracedComm`](pastis_comm::TracedComm) so collectives are
/// recorded alongside the pipeline spans.
pub fn run_search_serial_traced(
    store: &SeqStore,
    params: &SearchParams,
    recorder: &Recorder,
) -> Result<SearchResult, String> {
    let comm = pastis_comm::TracedComm::new(pastis_comm::SelfComm::new(), recorder.clone());
    let grid = ProcessGrid::square(comm);
    run_search_traced(&grid, store, params, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_align::matrices::encode;
    use pastis_comm::run_threaded;
    use pastis_seqio::{SyntheticConfig, SyntheticDataset};

    fn tiny_store() -> SeqStore {
        // Two obvious families plus noise.
        let mut s = SeqStore::new();
        let fam1 = "MKVLAWYHEEMKVLAWYHEE";
        let fam1b = "MKVLAWYHEEMKVLAWYHEA"; // one substitution
        let fam2 = "GGSTPNQRCDGGSTPNQRCD";
        let fam2b = "GGSTPNQRCDGGSTPNQRCE";
        let noise = "WPWPWPWPWPWPWPWPWPWP";
        for (i, q) in [fam1, fam1b, fam2, fam2b, noise].iter().enumerate() {
            s.push(format!("s{i}"), encode(q).unwrap());
        }
        s
    }

    fn edges_of(result: &SearchResult) -> Vec<(u32, u32)> {
        result.graph.edges().iter().map(|e| e.key()).collect()
    }

    /// Stage 2 as it was before the one builder: a comparison sort per
    /// sequence, triples over the full k-mer space, the column ids sorted
    /// again for the map, a binary search per entry, a cloned transpose
    /// and the sorts inside `BlockedSumma::from_triples`.
    fn old_recipe_summa<C: Communicator>(
        grid: &ProcessGrid<C>,
        store: &SeqStore,
        params: &SearchParams,
    ) -> KmerSumma {
        use crate::kmer::distinct_kmers;
        use crate::subkmers::nearest_kmers;
        use pastis_sparse::Triples;
        let (n, world) = (store.len(), grid.world());
        let slice = BlockDist1D::new(n, world.size());
        let (k, alphabet) = (params.k, params.alphabet);
        let mut a = Triples::new(n, alphabet.kmer_space(k));
        for row in slice.part_offset(world.rank())..slice.part_offset(world.rank() + 1) {
            let seq = store.seq(row);
            for (id, pos) in distinct_kmers(seq, k, alphabet) {
                a.push(row as u32, id, pos);
                for near in nearest_kmers(seq, pos as usize, k, alphabet, params.substitute_kmers) {
                    a.push(row as u32, near, pos);
                }
            }
        }
        let keep_min = |acc: &mut u32, inc: u32| *acc = (*acc).min(inc);
        a.combine_duplicates(keep_min);
        let mut my_cols: Vec<u32> = a.entries.iter().map(|e| e.col).collect();
        my_cols.sort_unstable();
        my_cols.dedup();
        let mut col_map: Vec<u32> = world.all_gather(my_cols).concat();
        col_map.sort_unstable();
        col_map.dedup();
        let mut compact = Triples::new(n, col_map.len().max(1));
        for e in a.entries {
            let col = col_map.binary_search(&e.col).expect("k-mer id present") as u32;
            compact.push(e.row, col, e.val);
        }
        let at = compact.clone().transpose();
        let (br, bc) = (params.block_rows.min(n), params.block_cols.min(n));
        BlockedSumma::from_triples(grid, compact, at, br, bc, keep_min, keep_min)
    }

    #[test]
    fn kmer_summa_stripes_equal_the_old_recipe() {
        let ds = SyntheticDataset::generate(&SyntheticConfig {
            seed: 31,
            ..SyntheticConfig::small(60, 31)
        });
        fn same_stripes<C: Communicator>(
            grid: &ProcessGrid<C>,
            store: &SeqStore,
            params: &SearchParams,
        ) {
            let (new, nnz, inner) = kmer_summa(grid, store, params);
            let old = old_recipe_summa(grid, store, params);
            let what = format!(
                "{}x{} m={} p={}",
                params.block_rows,
                params.block_cols,
                params.substitute_kmers,
                grid.world().size()
            );
            assert_eq!((new.br(), new.bc()), (old.br(), old.bc()), "{what}");
            let mut local_nnz = 0;
            for r in 0..new.br() {
                assert_eq!(new.a_stripe(r), old.a_stripe(r), "A stripe {r}, {what}");
                assert_eq!(new.a_stripe(r).ncols(), inner, "{what}");
                local_nnz += new.a_stripe(r).nnz_local();
            }
            for c in 0..new.bc() {
                assert_eq!(new.b_stripe(c), old.b_stripe(c), "B stripe {c}, {what}");
            }
            // Every entry this rank built lands on some rank: the local
            // counts agree in sum.
            let sum = |x: u64| grid.world().all_reduce(&[x], ReduceOp::Sum)[0];
            assert_eq!(sum(nnz), sum(local_nnz as u64), "{what}");
        }
        for blocks in [1, 3, 4] {
            for m in [0, 2] {
                let params = SearchParams {
                    substitute_kmers: m,
                    ..SearchParams::test_defaults()
                }
                .with_blocking(blocks, blocks);
                same_stripes(
                    &ProcessGrid::square(pastis_comm::SelfComm::new()),
                    &ds.store,
                    &params,
                );
                let store = ds.store.clone();
                run_threaded(4, move |c| {
                    same_stripes(&ProcessGrid::square(c.split(0, c.rank())), &store, &params);
                });
            }
        }
    }

    #[test]
    fn serial_search_finds_planted_families() {
        let store = tiny_store();
        let params = SearchParams::test_defaults();
        let res = run_search_serial(&store, &params).unwrap();
        let keys = edges_of(&res);
        assert!(keys.contains(&(0, 1)), "family 1 missed: {keys:?}");
        assert!(keys.contains(&(2, 3)), "family 2 missed: {keys:?}");
        assert!(!keys.contains(&(0, 2)), "cross-family edge: {keys:?}");
        assert!(
            !keys.iter().any(|&(i, j)| i == 4 || j == 4),
            "noise matched"
        );
        // Counters are coherent.
        assert!(res.stats.candidates >= res.stats.aligned_pairs);
        assert!(res.stats.aligned_pairs >= res.stats.similar_pairs);
        assert_eq!(res.stats.similar_pairs as usize, res.graph.n_edges());
        assert!(res.stats.cells > 0);
    }

    #[test]
    fn each_pair_aligned_exactly_once() {
        let store = tiny_store();
        for lb in [
            crate::LoadBalance::Triangular,
            crate::LoadBalance::IndexBased,
        ] {
            let params = SearchParams::test_defaults().with_load_balance(lb);
            let res = run_search_serial(&store, &params).unwrap();
            // 5 sequences share kmers only within families; candidates
            // pruned to one per unordered pair: count aligned pairs for a
            // sanity bound.
            let mut seen = std::collections::HashSet::new();
            for e in res.graph.edges() {
                assert!(seen.insert(e.key()), "{lb:?} duplicated {:?}", e.key());
            }
        }
    }

    #[test]
    fn blocked_equals_unblocked_serial() {
        let store = tiny_store();
        let base = run_search_serial(&store, &SearchParams::test_defaults()).unwrap();
        for (br, bc) in [(2, 2), (3, 2), (5, 5)] {
            let params = SearchParams::test_defaults().with_blocking(br, bc);
            let res = run_search_serial(&store, &params).unwrap();
            assert_eq!(
                edges_of(&res),
                edges_of(&base),
                "blocking {br}x{bc} changed the result"
            );
        }
    }

    #[test]
    fn schemes_agree_on_results() {
        let store = tiny_store();
        let tri = run_search_serial(
            &store,
            &SearchParams::test_defaults()
                .with_load_balance(crate::LoadBalance::Triangular)
                .with_blocking(3, 3),
        )
        .unwrap();
        let idx = run_search_serial(
            &store,
            &SearchParams::test_defaults()
                .with_load_balance(crate::LoadBalance::IndexBased)
                .with_blocking(3, 3),
        )
        .unwrap();
        assert_eq!(edges_of(&tri), edges_of(&idx));
    }

    #[test]
    fn pre_blocking_preserves_results() {
        let store = tiny_store();
        let off =
            run_search_serial(&store, &SearchParams::test_defaults().with_blocking(4, 4)).unwrap();
        let on = run_search_serial(
            &store,
            &SearchParams::test_defaults()
                .with_blocking(4, 4)
                .with_pre_blocking(true),
        )
        .unwrap();
        assert_eq!(edges_of(&on), edges_of(&off));
    }

    #[test]
    fn distributed_matches_serial() {
        let ds = SyntheticDataset::generate(&SyntheticConfig {
            n_sequences: 40,
            mean_len: 60.0,
            singleton_fraction: 0.4,
            seed: 77,
            ..SyntheticConfig::small(40, 77)
        });
        let params = SearchParams::test_defaults().with_blocking(2, 3);
        let serial = run_search_serial(&ds.store, &params).unwrap();
        let want = edges_of(&serial);
        for p in [4usize, 9] {
            let store = ds.store.clone();
            let params = params.clone();
            let out = run_threaded(p, move |c| {
                let grid = ProcessGrid::square(c.split(0, c.rank()));
                let res = run_search(&grid, &store, &params).unwrap();
                let global = res.gather_graph(grid.world());
                let keys: Vec<(u32, u32)> = global.edges().iter().map(|e| e.key()).collect();
                let gstats = res.stats.all_reduce(grid.world());
                (keys, gstats.aligned_pairs, gstats.similar_pairs)
            });
            for (keys, aligned, similar) in &out {
                assert_eq!(keys, &want, "p={p} changed the similarity graph");
                assert_eq!(*aligned, serial.stats.aligned_pairs, "p={p}");
                assert_eq!(*similar, serial.stats.similar_pairs, "p={p}");
            }
        }
    }

    #[test]
    fn tune_auto_sweep_is_byte_identical() {
        use crate::autotune::TunePolicy;
        use pastis_sparse::SpGemmKind;
        // The satellite determinism sweep: `--tune auto` must emit the
        // same TSV bytes as `--tune off` (and as the untuned baseline)
        // across pool sizes, SpGEMM kernels, and the overlap switch —
        // tuning moves only schedule-invariant knobs.
        let ds = SyntheticDataset::generate(&SyntheticConfig::small(60, 5));
        let base = SearchParams::test_defaults()
            .with_blocking(3, 3)
            .with_pre_blocking(true);
        let tsv = |p: &SearchParams| {
            run_search_serial(&ds.store, p)
                .unwrap()
                .graph
                .to_tsv_lines()
        };
        let want = tsv(&base);
        assert!(!want.is_empty(), "sweep baseline found no edges");
        for threads in [1usize, 2, 4] {
            for kernel in [SpGemmKind::Hash, SpGemmKind::Parallel] {
                for overlap in [false, true] {
                    let cfg = base
                        .clone()
                        .with_threads(threads)
                        .with_spgemm(kernel)
                        .with_overlap(overlap);
                    let ctx = format!("threads={threads} kernel={kernel:?} overlap={overlap}");
                    let off = tsv(&cfg.clone().with_tune(TunePolicy::Off));
                    assert_eq!(off, want, "--tune off diverged at {ctx}");
                    let auto = tsv(&cfg.clone().with_tune(TunePolicy::Auto));
                    assert_eq!(auto, want, "--tune auto diverged at {ctx}");
                }
            }
        }
    }

    #[test]
    fn tune_auto_resplits_mid_run_on_imbalanced_input() {
        use crate::autotune::TunePolicy;
        use pastis_trace::TraceSession;
        // A fixture the cost model mis-seeds on purpose: the commodity
        // preset models alignment as the dominant cost (gcups 0 → the
        // modeled O(len²) term saturates), so the seed gives alignment
        // the lion's share of the pool. But this run's common-k-mer
        // filter is so strict that almost no candidate survives to
        // alignment — the *measured* time is all sparse. The telemetry
        // loop must notice and move workers from align to SpGEMM.
        let ds = SyntheticDataset::generate(&SyntheticConfig {
            n_sequences: 160,
            mean_len: 200.0,
            len_sigma: 0.2,
            singleton_fraction: 1.0,
            seed: 0xA5A5,
            ..SyntheticConfig::default()
        });
        let params = SearchParams {
            common_kmer_threshold: 64,
            ..SearchParams::test_defaults()
        }
        .with_blocking(4, 4)
        .with_threads(4)
        .with_tune(TunePolicy::Auto);
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let res = run_search_serial_traced(&ds.store, &params, &rec).unwrap();
        let ctr = rec.counters();
        let decisions = ctr.get(names::CTR_TUNE_DECISIONS).copied().unwrap_or(0.0);
        let resplits = ctr.get(names::CTR_TUNE_RESPLITS).copied().unwrap_or(0.0);
        assert!(decisions >= 1.0, "tuning loop never evaluated: {ctr:?}");
        assert!(
            resplits >= 1.0,
            "no mid-run re-split on an align-misseeded fixture: {ctr:?}"
        );
        // And the tuned graph is still exactly the untuned graph.
        let off = run_search_serial(&ds.store, &params.clone().with_tune(TunePolicy::Off)).unwrap();
        assert_eq!(res.graph.to_tsv_lines(), off.graph.to_tsv_lines());
    }

    #[test]
    fn banded_kernel_runs_and_filters() {
        let store = tiny_store();
        let params = SearchParams {
            align_kind: AlignKind::Banded(8),
            ..SearchParams::test_defaults()
        };
        let res = run_search_serial(&store, &params).unwrap();
        let keys = edges_of(&res);
        assert!(keys.contains(&(0, 1)), "banded missed identical family");
        assert!(res.stats.cells > 0);
        // Banded explores fewer cells than full SW would.
        let full = run_search_serial(&store, &SearchParams::test_defaults()).unwrap();
        assert!(res.stats.cells < full.stats.cells);
    }

    #[test]
    fn invalid_params_rejected() {
        let store = tiny_store();
        let bad = SearchParams {
            k: 0,
            ..SearchParams::default()
        };
        assert!(run_search_serial(&store, &bad).is_err());
    }

    #[test]
    fn empty_store_is_ok() {
        let res = run_search_serial(&SeqStore::new(), &SearchParams::test_defaults()).unwrap();
        assert_eq!(res.graph.n_edges(), 0);
        assert_eq!(res.stats.aligned_pairs, 0);
    }

    #[test]
    fn sequences_shorter_than_k_are_isolated() {
        let mut store = tiny_store();
        store.push("tiny".into(), encode("MK").unwrap());
        let res = run_search_serial(&store, &SearchParams::test_defaults()).unwrap();
        assert!(!res.graph.edges().iter().any(|e| e.i == 5 || e.j == 5));
    }

    #[test]
    fn per_block_series_covers_schedule() {
        let store = tiny_store();
        let params = SearchParams::test_defaults()
            .with_blocking(3, 3)
            .with_load_balance(crate::LoadBalance::Triangular);
        let res = run_search_serial(&store, &params).unwrap();
        // The per-block series covers exactly the scheduled (non-avoidable)
        // blocks. For 5 sequences blocked 3x3 the stripes are 2/2/1 and the
        // last diagonal block is a single element (4,4) — avoidable — so 5
        // of the 9 blocks are scheduled.
        assert_eq!(res.per_block.len(), 5);
        let total_aligned: u64 = res.per_block.iter().map(|b| b.aligned_pairs).sum();
        assert_eq!(total_aligned, res.stats.aligned_pairs);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pastis-pipe-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn graph_bits(result: &SearchResult) -> Vec<(u32, u32, i32, u32, u32, u32)> {
        result
            .graph
            .edges()
            .iter()
            .map(|e| {
                (
                    e.i,
                    e.j,
                    e.score,
                    e.ani.to_bits(),
                    e.coverage.to_bits(),
                    e.common_kmers,
                )
            })
            .collect()
    }

    #[test]
    fn halt_and_resume_is_bit_identical_serial() {
        let store = tiny_store();
        let dir = ckpt_dir("serial");
        let base_params = SearchParams::test_defaults().with_blocking(3, 3);
        let base = run_search_serial(&store, &base_params).unwrap();

        // Phase 1: run to block 2, then "die".
        let halted = run_search_serial(
            &store,
            &base_params
                .clone()
                .with_checkpoint_dir(&dir)
                .with_halt_after_blocks(2),
        )
        .unwrap();
        assert_eq!(halted.per_block.len(), 2);
        assert!(halted.resumed_from_block.is_none());

        // Phase 2: resume and finish; output is bit-identical to the
        // uninterrupted run.
        let resumed = run_search_serial(
            &store,
            &base_params
                .clone()
                .with_checkpoint_dir(&dir)
                .with_resume(true),
        )
        .unwrap();
        assert_eq!(resumed.resumed_from_block, Some(2));
        assert_eq!(graph_bits(&resumed), graph_bits(&base));
        assert_eq!(resumed.stats.candidates, base.stats.candidates);
        assert_eq!(resumed.stats.aligned_pairs, base.stats.aligned_pairs);
        assert_eq!(resumed.stats.similar_pairs, base.stats.similar_pairs);
        assert_eq!(resumed.stats.cells, base.stats.cells);
        assert_eq!(resumed.per_block.len(), base.per_block.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halt_resume_chains_compose() {
        // Kill at block 1, resume and kill at block 3, resume to the end:
        // the absolute halt index composes with resume.
        let store = tiny_store();
        let dir = ckpt_dir("chain");
        let base_params = SearchParams::test_defaults()
            .with_blocking(3, 3)
            .with_pre_blocking(true);
        let base = run_search_serial(&store, &base_params).unwrap();

        let p1 = base_params
            .clone()
            .with_checkpoint_dir(&dir)
            .with_halt_after_blocks(1);
        let r1 = run_search_serial(&store, &p1).unwrap();
        assert_eq!(r1.per_block.len(), 1);

        let p2 = base_params
            .clone()
            .with_checkpoint_dir(&dir)
            .with_resume(true)
            .with_halt_after_blocks(3);
        let r2 = run_search_serial(&store, &p2).unwrap();
        assert_eq!(r2.resumed_from_block, Some(1));
        assert_eq!(r2.per_block.len(), 3);

        let p3 = base_params
            .clone()
            .with_checkpoint_dir(&dir)
            .with_resume(true);
        let r3 = run_search_serial(&store, &p3).unwrap();
        assert_eq!(r3.resumed_from_block, Some(3));
        assert_eq!(graph_bits(&r3), graph_bits(&base));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_empty_dir_recomputes_from_scratch() {
        let store = tiny_store();
        let dir = ckpt_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let params = SearchParams::test_defaults()
            .with_blocking(2, 2)
            .with_checkpoint_dir(&dir)
            .with_resume(true);
        let res = run_search_serial(&store, &params).unwrap();
        assert!(res.resumed_from_block.is_none());
        let base =
            run_search_serial(&store, &SearchParams::test_defaults().with_blocking(2, 2)).unwrap();
        assert_eq!(graph_bits(&res), graph_bits(&base));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distributed_halt_resume_matches_uninterrupted() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::small(30, 11));
        let params = SearchParams::test_defaults().with_blocking(3, 3);
        let store = ds.store.clone();
        let want = {
            let serial = run_search_serial(&store, &params).unwrap();
            edges_of(&serial)
        };
        let dir = ckpt_dir("dist");
        let p = 4usize;
        // Phase 1: every rank halts after 2 blocks, checkpointing as it goes.
        {
            let store = store.clone();
            let params = params
                .clone()
                .with_checkpoint_dir(&dir)
                .with_halt_after_blocks(2);
            run_threaded(p, move |c| {
                let grid = ProcessGrid::square(c.split(0, c.rank()));
                run_search(&grid, &store, &params).unwrap().per_block.len()
            });
        }
        // Phase 2: resume on the same world size; the gathered graph is the
        // same as the uninterrupted distributed (and serial) run.
        let out = {
            let store = store.clone();
            let params = params.clone().with_checkpoint_dir(&dir).with_resume(true);
            run_threaded(p, move |c| {
                let grid = ProcessGrid::square(c.split(0, c.rank()));
                let res = run_search(&grid, &store, &params).unwrap();
                let global = res.gather_graph(grid.world());
                let keys: Vec<(u32, u32)> = global.edges().iter().map(|e| e.key()).collect();
                (res.resumed_from_block, keys)
            })
        };
        for (resumed, keys) in &out {
            assert_eq!(*resumed, Some(2));
            assert_eq!(keys, &want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_checkpoints_are_ignored() {
        // Checkpoints from a different search (different k) must not be
        // resumed into this one.
        let store = tiny_store();
        let dir = ckpt_dir("foreign");
        let other = SearchParams {
            k: 5,
            ..SearchParams::test_defaults()
        }
        .with_blocking(2, 2)
        .with_checkpoint_dir(&dir);
        run_search_serial(&store, &other).unwrap();
        let params = SearchParams::test_defaults()
            .with_blocking(2, 2)
            .with_checkpoint_dir(&dir)
            .with_resume(true);
        let res = run_search_serial(&store, &params).unwrap();
        assert!(res.resumed_from_block.is_none(), "resumed a foreign run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn straggler_scan_reports_on_distributed_runs() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::small(20, 5));
        let params = SearchParams::test_defaults().with_blocking(2, 2);
        let store = ds.store.clone();
        let out = run_threaded(4, move |c| {
            let grid = ProcessGrid::square(c.split(0, c.rank()));
            run_search(&grid, &store, &params).unwrap().stragglers
        });
        for report in out {
            let report = report.expect("scan enabled by default on p > 1");
            assert_eq!(report.per_rank_seconds.len(), 4);
            // A healthy in-process world must not flag anyone (the 1 ms
            // absolute floor absorbs scheduler noise on tiny runs).
            assert!(report.is_healthy(), "flagged: {:?}", report.flagged);
        }
    }

    #[test]
    fn serial_run_skips_straggler_scan() {
        let store = tiny_store();
        let res = run_search_serial(&store, &SearchParams::test_defaults()).unwrap();
        assert!(res.stragglers.is_none());
    }

    fn spill_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pastis-pipe-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spill_files(dir: &std::path::Path) -> usize {
        let Ok(ranks) = std::fs::read_dir(dir) else {
            return 0;
        };
        ranks
            .flatten()
            .filter_map(|d| std::fs::read_dir(d.path()).ok())
            .flat_map(|files| files.flatten())
            .filter(|f| f.path().extension().is_some_and(|e| e == "spill"))
            .count()
    }

    #[test]
    fn budgeted_run_spills_and_stays_bit_identical() {
        let store = tiny_store();
        let base_params = SearchParams::test_defaults().with_blocking(3, 3);
        let base = run_search_serial(&store, &base_params).unwrap();

        // Phase 1: a budget too big to pressure anything measures the
        // unconstrained high-water mark.
        let dir = spill_dir("loose");
        let loose = run_search_serial(
            &store,
            &base_params
                .clone()
                .with_mem_budget(1 << 30)
                .with_spill_dir(&dir),
        )
        .unwrap();
        let high = loose.mem_high_water.unwrap();
        assert!(high > 0);
        assert_eq!(graph_bits(&loose), graph_bits(&base), "loose budget");
        assert_eq!(spill_files(&dir), 0, "a loose budget must not spill");
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 2: budgets below the unconstrained peak force spills yet
        // leave the graph bit-identical, with the accounted high-water
        // staying under budget. Budgets can undershoot the irreducible
        // working set (sequences + active stripes + current block) — those
        // runs fail gracefully, naming the phase.
        let mut spilled_and_passed = false;
        for denom in [4u64, 2, 1] {
            let budget = (high * 3) / (denom * 4); // 3/16, 3/8, 3/4 of peak
            if budget == 0 {
                continue;
            }
            let dir = spill_dir(&format!("tight{denom}"));
            let params = base_params
                .clone()
                .with_mem_budget(budget)
                .with_spill_dir(&dir);
            match run_search_serial(&store, &params) {
                Ok(res) => {
                    assert_eq!(graph_bits(&res), graph_bits(&base), "budget {budget}");
                    assert!(
                        res.mem_high_water.unwrap() <= budget,
                        "budget {budget} overshot to {}",
                        res.mem_high_water.unwrap()
                    );
                    if spill_files(&dir) > 0 {
                        spilled_and_passed = true;
                    }
                }
                Err(e) => assert!(e.contains("out of memory in phase"), "{e}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(
            spilled_and_passed,
            "no tested budget both spilled and completed"
        );
    }

    #[test]
    fn budgeted_run_writes_each_stripe_once_and_keeps_what_it_cannot_verify() {
        use pastis_trace::TraceSession;
        let store = tiny_store();
        let base_params = SearchParams::test_defaults().with_blocking(3, 3);
        let base = run_search_serial(&store, &base_params).unwrap();
        let dir = spill_dir("once-loose");
        let high = run_search_serial(
            &store,
            &base_params
                .clone()
                .with_mem_budget(1 << 30)
                .with_spill_dir(&dir),
        )
        .unwrap()
        .mem_high_water
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let arg = |s: &pastis_trace::SpanEvent, k: &str| {
            s.args.iter().find(|(n, _)| *n == k).map(|(_, v)| *v)
        };

        // Index stripes never change, so a stripe that is evicted, restored
        // and evicted again is written the first time only. Tighter budgets
        // evict more often; at least one of them must re-evict.
        let mut re_evicted = false;
        for denom in [4u64, 5, 6, 8] {
            let dir = spill_dir(&format!("once{denom}"));
            let params = base_params
                .clone()
                .with_mem_budget(high * 3 / denom)
                .with_spill_dir(&dir);
            let session = TraceSession::new();
            let rec = session.recorder(0);
            match run_search_serial_traced(&store, &params, &rec) {
                Ok(res) => assert_eq!(graph_bits(&res), graph_bits(&base), "3/{denom}"),
                Err(e) => {
                    assert!(e.contains("out of memory in phase"), "{e}");
                    continue;
                }
            }
            let spans = rec.snapshot_spans();
            let mut written: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.name == names::SPAN_SPILL_WRITE)
                .filter_map(|s| Some((arg(s, "a_side")?, arg(s, "stripe")?)))
                .collect();
            let stripe_writes = written.len();
            written.sort_unstable();
            written.dedup();
            assert_eq!(
                written.len(),
                stripe_writes,
                "3/{denom}: a stripe was written twice"
            );
            let block_writes = spans
                .iter()
                .filter(|s| s.name == names::SPAN_SPILL_WRITE && arg(s, "block").is_some())
                .count();
            let evictions = rec.counters()[names::CTR_SPILL_BLOCKS_OUT] as usize;
            re_evicted |= evictions > stripe_writes + block_writes;
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(re_evicted, "no tested budget evicted a stripe twice");

        // Every write damaged in flight: comparing the file with the bytes
        // just formatted catches each one, so no stripe eviction commits and
        // no stripe is ever read back.
        let dir = spill_dir("once-corrupt");
        let params = base_params
            .clone()
            .with_mem_budget(high * 3 / 4)
            .with_spill_dir(&dir)
            .with_spill_faults(pastis_comm::FaultPlan::parse("seed=3,spill_corrupt=1.0").unwrap());
        let session = TraceSession::new();
        let rec = session.recorder(0);
        match run_search_serial_traced(&store, &params, &rec) {
            Ok(res) => assert_eq!(graph_bits(&res), graph_bits(&base)),
            Err(e) => assert!(e.contains("out of memory in phase"), "{e}"),
        }
        let spans = rec.snapshot_spans();
        let attempted = spans
            .iter()
            .filter(|s| s.name == names::SPAN_SPILL_WRITE && arg(s, "stripe").is_some())
            .count();
        assert!(
            attempted > 0,
            "the corrupt plan never tried to evict a stripe"
        );
        assert!(
            rec.counters()[names::CTR_SPILL_CRC_REJECTS] >= attempted as f64,
            "a damaged stripe write was not caught"
        );
        assert!(
            !spans
                .iter()
                .any(|s| s.name == names::SPAN_SPILL_READ && arg(s, "stripe").is_some()),
            "a stripe was restored although no eviction could commit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_run_recovers_from_fully_corrupted_spills() {
        // Every spill write is corrupted in flight: output shards fail
        // their CRC on readback and are recomputed; index-stripe
        // evictions never commit (verified write). The graph must still
        // be bit-identical.
        let store = tiny_store();
        let base_params = SearchParams::test_defaults().with_blocking(3, 3);
        let base = run_search_serial(&store, &base_params).unwrap();
        let dir = spill_dir("loose-crc");
        let high = run_search_serial(
            &store,
            &base_params
                .clone()
                .with_mem_budget(1 << 30)
                .with_spill_dir(&dir),
        )
        .unwrap()
        .mem_high_water
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let dir = spill_dir("corrupt");
        let plan = pastis_comm::FaultPlan::parse("seed=7,spill_corrupt=1.0").unwrap();
        let params = base_params
            .clone()
            .with_mem_budget((high * 3) / 4)
            .with_spill_dir(&dir)
            .with_spill_faults(plan);
        match run_search_serial(&store, &params) {
            Ok(res) => assert_eq!(graph_bits(&res), graph_bits(&base)),
            // Only a genuine OOM is acceptable (nothing evictable sticks
            // when every write corrupts) — never a wrong graph.
            Err(e) => assert!(e.contains("out of memory in phase"), "{e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distributed_budgeted_matches_unbudgeted() {
        let ds = SyntheticDataset::generate(&SyntheticConfig::small(30, 11));
        let params = SearchParams::test_defaults().with_blocking(3, 3);
        let store = ds.store.clone();
        let want = {
            let serial = run_search_serial(&store, &params).unwrap();
            edges_of(&serial)
        };
        let p = 4usize;
        // Measure each rank's unconstrained peak first.
        let dir = spill_dir("dist-loose");
        let highs = {
            let store = store.clone();
            let params = params.clone().with_mem_budget(1 << 30).with_spill_dir(&dir);
            run_threaded(p, move |c| {
                let grid = ProcessGrid::square(c.split(0, c.rank()));
                let res = run_search(&grid, &store, &params).unwrap();
                res.mem_high_water.unwrap()
            })
        };
        let _ = std::fs::remove_dir_all(&dir);
        let budget = (highs.iter().copied().max().unwrap() * 3) / 4;
        let dir = spill_dir("dist-tight");
        let out = {
            let store = store.clone();
            let dir2 = dir.clone();
            let params = params.clone().with_mem_budget(budget).with_spill_dir(dir2);
            run_threaded(p, move |c| {
                let grid = ProcessGrid::square(c.split(0, c.rank()));
                let res = run_search(&grid, &store, &params).unwrap();
                let global = res.gather_graph(grid.world());
                let keys: Vec<(u32, u32)> = global.edges().iter().map(|e| e.key()).collect();
                (keys, res.mem_high_water.unwrap())
            })
        };
        for (keys, hw) in &out {
            assert_eq!(keys, &want, "budget {budget} changed the graph");
            assert!(*hw <= budget, "rank overshot: {hw} > {budget}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn substitute_kmers_increase_sensitivity() {
        // Two sequences whose only k-mer matches are destroyed by sparse
        // substitutions; substitute k-mers recover the pair.
        let mut store = SeqStore::new();
        store.push("a".into(), encode("MKVLAWYHEEGASTPNQRCD").unwrap());
        store.push("b".into(), encode("MKVIAWYHELGASTPMQRCD").unwrap());
        let strict = SearchParams {
            k: 6,
            common_kmer_threshold: 2,
            ani_threshold: 0.3,
            coverage_threshold: 0.3,
            ..SearchParams::default()
        };
        let plain = run_search_serial(&store, &strict).unwrap();
        let boosted = run_search_serial(
            &store,
            &SearchParams {
                substitute_kmers: 12,
                ..strict
            },
        )
        .unwrap();
        assert!(boosted.stats.candidates >= plain.stats.candidates);
        assert!(
            boosted.stats.aligned_pairs >= plain.stats.aligned_pairs,
            "substitutes did not add candidates"
        );
    }
}
