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

use pastis_align::batch::{AlignTask, BatchStats};
use pastis_align::parallel::AlignPool;

use pastis_comm::grid::{BlockDist1D, ProcessGrid};
use pastis_comm::{Communicator, Component, FaultPlan, FaultyStore, ReduceOp, TimeBreakdown};
use pastis_pool::{Engine, WorkPool};
use pastis_seqio::SeqStore;
use pastis_sparse::{BlockedSumma, CsrMatrix, SpGemmPool};
use pastis_trace::{names, span, Recorder};

use crate::checkpoint::{self, Checkpoint, IndexShard, SpillShard};
use crate::filter::{align_candidates, collect_candidates, EdgeFilter};
use crate::kmer::KmerMatrix;
use crate::loadbalance::{BlockPlan, BlockTask};
use crate::membudget::MemBudget;
use crate::overlap::{CommonKmers, OverlapSemiring};
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
        let ids = begin..end;
        let lens: Vec<u32> = ids.clone().map(|i| store.seq(i).len() as u32).collect();
        let mut residues = Vec::with_capacity(lens.iter().map(|&l| l as usize).sum());
        for i in ids {
            residues.extend_from_slice(store.seq(i));
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
}

/// The assembled sequences, held once: every residue in one buffer in id
/// order, and where each sequence starts (one more offset at the end).
struct SeqSet {
    residues: Vec<u8>,
    offsets: Vec<usize>,
}

impl SeqSet {
    fn with_capacity(n: usize) -> SeqSet {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        SeqSet {
            residues: Vec::new(),
            offsets,
        }
    }

    /// Append the slice that starts at the next id. The first residues are
    /// moved in, not copied (at p = 1 that is the whole set).
    fn append(&mut self, slice: SeqSlice) {
        debug_assert_eq!(
            slice.begin + 1,
            self.offsets.len(),
            "slices arrive in id order"
        );
        let mut end = self.residues.len();
        for &len in &slice.lens {
            end += len as usize;
            self.offsets.push(end);
        }
        if self.residues.is_empty() {
            self.residues = slice.residues;
        } else {
            self.residues.extend_from_slice(&slice.residues);
        }
    }

    fn seq(&self, id: u32) -> &[u8] {
        let id = id as usize;
        &self.residues[self.offsets[id]..self.offsets[id + 1]]
    }

    /// The bytes the set holds.
    fn bytes(&self) -> u64 {
        (self.residues.capacity() + self.offsets.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

/// The intra-rank worker pools of a search or a serve run.
pub(crate) struct Pools {
    /// The unified worker pool (`--threads`): one team of persistent
    /// workers serves SpGEMM row chunks *and* alignment units, so an idle
    /// sparse worker steals alignment work and vice versa. Per-engine caps
    /// reproduce the old static split as an upper bound. `None` keeps the
    /// legacy per-engine scoped teams.
    pub(crate) unified: Option<WorkPool>,
    /// Each local multiplication picks a kernel (hash/heap/parallel) per
    /// `params.spgemm` and runs row chunks across `spgemm_threads` workers,
    /// stitched in row order: the overlap matrix is bit-identical for every
    /// kernel and worker count.
    pub(crate) spgemm: SpGemmPool,
    /// Batches execute as atomically-claimed chunks across `align_threads`
    /// workers, traceback and score-only ones on the `--simd` backend, with
    /// results in task order: bit-identical for every worker count and
    /// backend. Workers never touch the communicator, so under pre-blocking
    /// the concurrent sparse thread is the only one issuing collectives.
    pub(crate) align: AlignPool,
}

impl Pools {
    pub(crate) fn new(params: &SearchParams, recorder: &Recorder) -> Pools {
        let simd = params
            .simd
            .resolve()
            .expect("validate() checked the SIMD policy");
        let unified = params.threads.map(|t| {
            let wp = WorkPool::sized(t);
            wp.set_cap(Engine::Align, params.align_cap);
            wp.set_cap(Engine::Sparse, params.spgemm_cap);
            wp
        });
        let mut spgemm = SpGemmPool::new(params.spgemm_threads)
            .with_kind(params.spgemm)
            .with_recorder(recorder.clone());
        let mut align = AlignPool::new(params.align_threads)
            .with_recorder(recorder.clone())
            .with_simd(simd);
        if let Some(wp) = &unified {
            spgemm = spgemm.with_workers(wp.clone());
            align = align.with_workers(wp.clone());
        }
        Pools {
            unified,
            spgemm,
            align,
        }
    }
}

/// The sparse phase's product for one block.
struct CandidateBatch {
    task: BlockTask,
    /// The block's pairs to align (global ids) and their common-k-mer
    /// counts, index for index.
    tasks: Vec<AlignTask>,
    counts: Vec<u32>,
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

/// When each operand stripe of a run window is read for the last time. The
/// Blocked SUMMA forms one output block at a time, so a stripe is needed
/// only until the sparse phase of the last scheduled block that reads it
/// has returned, and is dropped then rather than at the end of the run.
struct StripeLives {
    /// A stripes, then B stripes: how many of the window's tasks must have
    /// had their sparse phase before the stripe can go (0 when no task of
    /// the window reads it); `None` once it was handed out.
    due: Vec<Option<usize>>,
    br: usize,
}

impl StripeLives {
    fn new(window: &[BlockTask], br: usize, bc: usize) -> StripeLives {
        let mut due = vec![Some(0); br + bc];
        for (k, t) in window.iter().enumerate() {
            due[t.r] = Some(k + 1);
            due[br + t.c] = Some(k + 1);
        }
        StripeLives { due, br }
    }

    /// The stripes, `(is_a, index)`, that may go once the first `done`
    /// tasks of the window have had their sparse phase; each is handed out
    /// once.
    fn take_due(&mut self, done: usize) -> Vec<(bool, usize)> {
        let br = self.br;
        let mut out = Vec::new();
        for (j, d) in self.due.iter_mut().enumerate() {
            if d.is_some_and(|d| d <= done) {
                *d = None;
                out.push(if j < br { (true, j) } else { (false, j - br) });
            }
        }
        out
    }
}

/// Drop the stripes in `due`, whose last reader's sparse phase has
/// returned; the count of those dropped. Under a memory budget a stripe
/// goes only when its verified spill copy is on disk, so the output
/// assembly can still restore it to recompute a damaged block; one without
/// a copy stays resident. A release writes nothing.
fn release_stripes(
    bs: &mut KmerSumma,
    due: &[(bool, usize)],
    spill: Option<&SpillCtx>,
    a_evicted: &mut [bool],
    b_evicted: &mut [bool],
) -> u64 {
    let mut released = 0;
    for &(is_a, i) in due {
        let evicted = if is_a {
            &mut *a_evicted
        } else {
            &mut *b_evicted
        };
        if evicted[i] {
            continue;
        }
        let gone = match spill {
            Some(ctx) => ctx.drop_spilled_stripe(bs, is_a, i, evicted),
            None => {
                release_stripe(bs, is_a, i);
                evicted[i] = true;
                true
            }
        };
        released += u64::from(gone);
    }
    released
}

fn release_stripe(bs: &mut KmerSumma, is_a: bool, i: usize) {
    if is_a {
        bs.release_a_stripe(i);
    } else {
        bs.release_b_stripe(i);
    }
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
                self.io.write_atomic(&path, text.as_bytes())
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

    /// Drop resident stripe `i` if a verified copy of it is already on
    /// disk, returning its bytes to the accountant; whether it went.
    fn drop_spilled_stripe(
        &self,
        bs: &mut KmerSumma,
        is_a: bool,
        i: usize,
        evicted: &mut [bool],
    ) -> bool {
        let slot = if is_a { i } else { bs.br() + i };
        if !self.stripe_on_disk.borrow()[slot] {
            return false;
        }
        let bytes = if is_a {
            bs.a_stripe_bytes(i)
        } else {
            bs.b_stripe_bytes(i)
        };
        release_stripe(bs, is_a, i);
        evicted[i] = true;
        self.accountant.release(bytes);
        true
    }

    fn try_evict_stripe(&self, bs: &mut KmerSumma, is_a: bool, i: usize, evicted: &mut [bool]) {
        if self.drop_spilled_stripe(bs, is_a, i, evicted) {
            self.recorder.add_counter(names::CTR_SPILL_BLOCKS_OUT, 1.0);
            return;
        }
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
        // Written by its nonempty rows; read back as the CSR it was.
        let shard = IndexShard::from_csr(self.fingerprint, self.rank, is_a, i, block);
        let frame = shard.to_bytes();
        let path = checkpoint::index_spill_path(self.dir, self.rank, is_a, i);
        // The file must hold exactly the bytes just encoded: that catches
        // every injected or real write fault, and what `to_bytes` produces
        // `from_bytes` accepts (pinned by the shard round-trip tests).
        let committed = {
            let _sp = span!(self.recorder, Component::SparseOther, names::SPAN_SPILL_WRITE, {
                stripe: i as u64,
                a_side: u64::from(is_a),
                bytes: frame.len() as u64,
            });
            self.io.write_atomic(&path, &frame).is_ok() && self.io.holds(&path, &frame)
        };
        if committed {
            evicted[i] = true;
            self.stripe_on_disk.borrow_mut()[slot] = true;
            self.accountant.release(bytes);
            self.recorder.add_counter(names::CTR_SPILL_BLOCKS_OUT, 1.0);
            self.recorder
                .add_counter(names::CTR_SPILL_BYTES_OUT, frame.len() as f64);
        } else {
            // Damaged or unwritable on disk: the stripe stays resident.
            self.recorder.add_counter(names::CTR_SPILL_CRC_REJECTS, 1.0);
            let m = shard.into_csr();
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
        let frame = {
            let _sp = span!(self.recorder, Component::SparseOther, names::SPAN_SPILL_READ, {
                stripe: i as u64,
            });
            self.io.read(&path)?
        };
        let shard = IndexShard::from_bytes(&frame).map_err(|e| {
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
            .add_counter(names::CTR_SPILL_BYTES_IN, frame.len() as f64);
        // Freed before the dense row pointer is allocated.
        drop(frame);
        let m = shard.into_csr();
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
        // for `Aᵀ` the transposes of `A`'s row stripes, cut one at a time
        // (or, uncut, `Aᵀ` as the builder made it), then `A` cut into its
        // row stripes by consuming it (or, uncut, `A` itself), so that no
        // matrix is held whole beside a copy of itself.
        let inner_dim = gathered[0].len().max(1);
        drop(gathered);
        let a = at.transpose();
        let bounds = |parts: usize| {
            let d = BlockDist1D::new(n, parts);
            (0..=parts).map(|s| d.part_offset(s)).collect::<Vec<_>>()
        };
        let b_stripes = if bc == 1 {
            vec![at]
        } else {
            drop(at);
            let cut = bounds(bc);
            let stripe = |w: &[usize]| a.extract_rows(w[0], w[1]).transpose();
            cut.windows(2).map(stripe).collect()
        };
        let a_stripes = a.into_row_stripes(&bounds(br));
        let dims = (n, inner_dim, n);
        let bs = BlockedSumma::from_local_stripes(grid, dims, a_stripes, b_stripes);
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
    // What is sent is dropped here; this rank's own slice is cut from the
    // store when the set is assembled, so no copy of it is held through
    // the k-mer build.
    if p > 1 {
        let mine = SeqSlice::from_store(store, my_begin, my_end);
        for dst in (0..p).filter(|&dst| dst != rank) {
            world.send_to(dst, mine.clone(), mine.bytes());
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
    let seqs = {
        let _recv_span = span!(recorder, Component::CommWait, names::SPAN_SEQ_EXCHANGE_RECV, {
            peers: p.saturating_sub(1) as u64,
        });
        let mut set = SeqSet::with_capacity(n);
        let op_timeout = params.op_timeout_ms.map(Duration::from_millis);
        for src in 0..p {
            // With a deadline, a lost peer surfaces as a typed error here
            // instead of hanging the whole world in cwait.
            let s: SeqSlice = match op_timeout {
                _ if src == rank => SeqSlice::from_store(store, my_begin, my_end),
                None => world.recv_from(src),
                Some(t) => world
                    .recv_from_deadline(src, t)
                    .map_err(|e| format!("sequence exchange failed: {e}"))?,
            };
            set.append(s);
        }
        set.residues.shrink_to_fit();
        set
    };
    times.record(Component::CommWait, t1.elapsed().as_secs_f64());
    if let Some(ctx) = &spill_ctx {
        // The assembled sequences stay resident for the whole search
        // (alignment needs random access); charge them up front so a
        // budget below the irreducible working set fails here, naming
        // the phase, instead of thrashing later.
        let seq_bytes = seqs.bytes();
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
    let pools = Pools::new(params, recorder);
    // `bs` is passed in (not captured) so the drive loop can evict and
    // restore stripes between calls under a memory budget. Budgeted runs
    // cover the staged broadcast buffers with a reservation held across
    // the call (`staging_bound`), so every accounted byte goes through the
    // checked reserve path.
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
        // The block is pruned and thresholded chunk by chunk as the
        // multiply forms it, so it is never held whole.
        let row_offset = bs.row_range(task.r).0 + bs.a_stripe(task.r).row_offset();
        let col_offset = bs.col_range(task.c).0 + bs.b_stripe(task.c).col_offset();
        let pairs_of = |first: usize, chunk: &mut CsrMatrix<CommonKmers>| {
            let pruned = plan.prune_local(task, chunk, row_offset + first, col_offset);
            // Lossless narrowing: global ids are store indices, and
            // `SeqStore::push` refuses to assign an id past u32::MAX, so
            // `local + offset` here is always within u32 range.
            let (ro, co) = ((row_offset + first) as u32, col_offset as u32);
            let entries = pruned.iter().map(|(li, lj, ck)| (li + ro, lj + co, ck));
            collect_candidates(entries, params.common_kmer_threshold)
        };
        let t_mult = Instant::now();
        let (r, c, pool) = (task.r, task.c, &pools.spgemm);
        let visited = bs.multiply_block(grid, &sr, r, c, pool, overlap_on, pairs_of);
        let sparse_seconds = t_mult.elapsed().as_secs_f64();
        if let Some(before) = acc_before {
            let after = acc_rows();
            for (k, name) in names::SPGEMM_ACC_COUNTERS.into_iter().enumerate() {
                block_span.push_arg(name, (after[k] - before[k]) as u64);
            }
        }
        // Chunks come back in row order, so the pairs are in the block's
        // row-major order; the product's nonzeros are counted per chunk.
        let (tasks, counts): (Vec<_>, Vec<_>) = visited.results.into_iter().unzip();
        let (tasks, counts) = (tasks.concat(), counts.concat());
        let (candidates, products) = (visited.stats.merged_nnz, visited.stats.products);
        block_span.push_arg(names::CTR_CANDIDATES, candidates);
        block_span.push_arg("products", products);
        block_span.push_arg("pairs", tasks.len() as u64);
        CandidateBatch {
            task,
            tasks,
            counts,
            candidates,
            products,
            spgemm_seconds: sparse_seconds - visited.consume_seconds,
            other_seconds: visited.consume_seconds,
        }
    };

    let filter = EdgeFilter::from_params(params);
    // Traceback and score-only run on the `--simd` lanes, banded is scalar.
    let on_lanes = !matches!(params.align_kind, AlignKind::Banded(_));
    let lookup = |id: u32| seqs.seq(id);
    // One block's (or backpressure quarter's) alignment; its `wall_seconds`
    // covers the edge construction too.
    let align_pairs = |task: BlockTask,
                       tasks: &[AlignTask],
                       counts: &[u32]|
     -> (Vec<SimilarityEdge>, BatchStats) {
        let t = Instant::now();
        let mut batch_span = span!(recorder, Component::Align, names::SPAN_ALIGN_BATCH, {
            r: task.r as u64,
            c: task.c as u64,
            pairs: tasks.len() as u64,
        });
        let (edges, mut stats) =
            align_candidates(tasks, counts, lookup, params, &pools.align, &filter);
        if on_lanes {
            batch_span.push_arg("simd", stats.simd.id());
            batch_span.push_arg("lane_promotions", stats.lane_promotions);
            batch_span.push_arg("padded_cells", stats.padded_cells);
        }
        batch_span.push_arg(names::CTR_CELLS, stats.cells);
        batch_span.push_arg("edges", edges.len() as u64);
        drop(batch_span);
        stats.wall_seconds = t.elapsed().as_secs_f64();
        (edges, stats)
    };
    // Memory backpressure's second stage: run the block's pairs in
    // quarters, sequentially, shrinking the peak intermediate alignment
    // state. Results are per-pair and stitched in task order, so the
    // edges are bit-identical to the unshrunk batch.
    let align_batch = |batch: &CandidateBatch, shrink: bool| -> (Vec<SimilarityEdge>, BatchStats) {
        if !shrink || batch.tasks.len() <= 1 {
            return align_pairs(batch.task, &batch.tasks, &batch.counts);
        }
        recorder.add_counter(names::CTR_MEM_BACKPRESSURE_BATCH_SHRUNK, 1.0);
        let chunk = batch.tasks.len().div_ceil(4);
        let (mut edges, mut total) = (Vec::new(), BatchStats::default());
        for (tasks, counts) in batch.tasks.chunks(chunk).zip(batch.counts.chunks(chunk)) {
            let (e, st) = align_pairs(batch.task, tasks, counts);
            edges.extend(e);
            total.merge(&st);
        }
        (edges, total)
    };

    let mut graph = SimilarityGraph::new(n);
    let mut per_block = Vec::with_capacity(plan.tasks.len());
    let apply = |batch: CandidateBatch,
                 (edges, align): (Vec<SimilarityEdge>, BatchStats),
                 times: &mut TimeBreakdown,
                 stats: &mut SearchStats,
                 per_block: &mut Vec<BlockTiming>|
     -> Vec<SimilarityEdge> {
        times.record(Component::SpGemm, batch.spgemm_seconds);
        times.record(Component::SparseOther, batch.other_seconds);
        times.record(Component::Align, align.wall_seconds);
        stats.candidates += batch.candidates;
        stats.spgemm_products += batch.products;
        stats.aligned_pairs += batch.tasks.len() as u64;
        stats.cells += align.cells;
        stats.similar_pairs += edges.len() as u64;
        stats.align_kernel_seconds += align.wall_seconds;
        stats.align_cpu_seconds += align.seconds;
        per_block.push(BlockTiming {
            r: batch.task.r,
            c: batch.task.c,
            sparse_seconds: batch.spgemm_seconds + batch.other_seconds,
            align_seconds: align.wall_seconds,
            candidates: batch.candidates,
            aligned_pairs: batch.tasks.len() as u64,
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

    // One drive loop for both schedules: without lookahead each block's
    // SpGEMM runs on the critical path (the serial schedule — the scope
    // spawns nothing); with it (`--pre-blocking`) the loop aligns block i
    // while the SpGEMM of block i+1 runs on a concurrent thread. Alignment
    // is purely local, so the sparse thread is the only one issuing
    // collectives — the SPMD collective order stays identical on every
    // rank either way.
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
    // rank at once — the lookahead shapes the collective schedule, so it
    // must stay uniform across the world.
    let mut deferred_oom: Option<String> = None;
    let mut pressure_hint = false;
    // A stripe lives until the sparse phase of its last reader in this
    // window has returned; one that no task of the window reads (after a
    // resume, or under the triangular schedule) goes before the first
    // multiply. `done` counts the window's tasks whose sparse phase ran.
    let mut lives = StripeLives::new(&tasks[start_idx..stop_idx], bs.br(), bs.bc());
    let mut release_due =
        |bs: &mut KmerSumma, a_evicted: &mut [bool], b_evicted: &mut [bool], done: usize| {
            let due = lives.take_due(done);
            release_stripes(bs, &due, spill_ctx.as_ref(), a_evicted, b_evicted)
        };
    let mut stripes_released = release_due(&mut bs, &mut a_evicted, &mut b_evicted, 0);
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
        let lookahead = params.pre_blocking && !prefetch_paused;
        let next_task = (lookahead && idx + 1 < stop_idx).then(|| tasks[idx + 1]);
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
            None => {
                let b = compute_sparse(&bs, tasks[idx], overlap_on);
                let done = idx + 1 - start_idx;
                stripes_released += release_due(&mut bs, &mut a_evicted, &mut b_evicted, done);
                b
            }
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
        if next_batch.is_some() {
            let done = idx + 2 - start_idx;
            stripes_released += release_due(&mut bs, &mut a_evicted, &mut b_evicted, done);
        }
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
                let (edges, _) = align_pairs(t, &batch.tasks, &batch.counts);
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
    recorder.add_counter(names::CTR_MEM_STRIPES_RELEASED, stripes_released as f64);
    if budgeted {
        // The accountant's high-water mark: peak live bytes across
        // sequences, stripes, staged broadcast buffers, and output
        // blocks. The acceptance bar for a budgeted run is that this
        // stays at or under the budget.
        recorder.add_counter(names::CTR_MEM_HIGH_WATER, accountant.high_water() as f64);
    }
    if let Some(wp) = &pools.unified {
        // Cross-engine steals: how often a persistent pool worker switched
        // between sparse and alignment jobs — the utilization the unified
        // pool recovers over the old static thread split.
        recorder.add_counter(names::CTR_POOL_STEALS, wp.steals() as f64);
    }
    if on_lanes {
        // Which vector backend the traceback or score-only batches ran on
        // (stable id: scalar 0, sse2 1, avx2 2, neon 3). Once per run.
        recorder.add_counter(
            names::CTR_ALIGN_SIMD_BACKEND,
            pools.align.simd().id() as f64,
        );
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
    fn stripe_lives_release_each_stripe_right_after_its_last_reader() {
        use crate::LoadBalance;
        let ranges = |n: usize, parts: usize| {
            let d = BlockDist1D::new(n, parts);
            move |s: usize| (d.part_offset(s), d.part_offset(s + 1))
        };
        for br in 1..=4 {
            for bc in 1..=4 {
                for lb in [LoadBalance::Triangular, LoadBalance::IndexBased] {
                    let plan = BlockPlan::new(lb, br, bc, ranges(12, br), ranges(12, bc));
                    let tasks = &plan.tasks;
                    for start in 0..=tasks.len() {
                        for stop in start..=tasks.len() {
                            let window = &tasks[start..stop];
                            let what = format!("{br}x{bc} {lb:?} [{start}, {stop})");
                            let reads = |(is_a, i): (bool, usize), t: &BlockTask| {
                                if is_a {
                                    t.r == i
                                } else {
                                    t.c == i
                                }
                            };
                            let mut lives = StripeLives::new(window, br, bc);
                            let mut seen = Vec::new();
                            for done in 0..=window.len() {
                                for s in lives.take_due(done) {
                                    // No task still to run reads it ...
                                    assert!(
                                        !window[done..].iter().any(|t| reads(s, t)),
                                        "{what}: {s:?} released at {done} before a reader"
                                    );
                                    // ... and it was read by the task just
                                    // finished, or by none at all.
                                    let last = window.iter().rposition(|t| reads(s, t));
                                    assert_eq!(
                                        last.map_or(0, |k| k + 1),
                                        done,
                                        "{what}: {s:?} held past its last reader"
                                    );
                                    seen.push(s);
                                }
                            }
                            seen.sort_unstable();
                            let all: Vec<(bool, usize)> = (0..bc)
                                .map(|c| (false, c))
                                .chain((0..br).map(|r| (true, r)))
                                .collect();
                            assert_eq!(seen, all, "{what}: each stripe released once");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn released_stripes_hold_nothing() {
        let store = tiny_store();
        let params = SearchParams::test_defaults().with_blocking(2, 3);
        let grid = ProcessGrid::square(pastis_comm::SelfComm::new());
        let (mut bs, _, _) = kmer_summa(&grid, &store, &params);
        let empty = pastis_sparse::csr_payload_bytes(0, 0, 4) as u64;
        let (mut a_ev, mut b_ev) = (vec![false; 2], vec![false; 3]);
        let due = [(true, 1), (false, 0), (false, 2)];
        assert!(due.iter().all(|&(a, i)| (if a {
            bs.a_stripe_bytes(i)
        } else {
            bs.b_stripe_bytes(i)
        }) > empty));
        assert_eq!(
            release_stripes(&mut bs, &due, None, &mut a_ev, &mut b_ev),
            3
        );
        assert_eq!(bs.a_stripe_bytes(1), empty);
        assert_eq!((bs.b_stripe_bytes(0), bs.b_stripe_bytes(2)), (empty, empty));
        assert!(bs.a_stripe_bytes(0) > empty && bs.b_stripe_bytes(1) > empty);
        assert_eq!((a_ev, b_ev), (vec![false, true], vec![true, false, true]));
        // A stripe already gone is not released twice.
        let (mut a_ev, mut b_ev) = (vec![false, true], vec![true, false, true]);
        assert_eq!(
            release_stripes(&mut bs, &due, None, &mut a_ev, &mut b_ev),
            0
        );
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
        // The index-based scheme keeps some pairs as their lower-triangle
        // entry, whose seeds the canonical orientation swaps. Only the
        // banded kernel reads seeds, so under it this is the direct check
        // of that swap. In `shifted`, pair {0, 2} aligns 20 residues off
        // the main diagonal and the index-based scheme keeps it as entry
        // (2, 0): seeds the wrong way round put the band of 8 on diagonal
        // +20 instead of -20.
        let core = "MKVLAWYHEEGGSTPNQRCDFILKMNPQRS";
        let mut shifted = SeqStore::new();
        for q in [
            core,
            "WPWPWPWPWPWPWPWPWPWP",
            &format!("DEDEDEDEDEDEDEDEDEDE{core}"),
        ] {
            shifted.push(String::new(), encode(q).unwrap());
        }
        for store in [&tiny_store(), &shifted] {
            for kind in [AlignKind::FullSw, AlignKind::Banded(8)] {
                let run = |lb| {
                    let mut p = SearchParams::test_defaults()
                        .with_load_balance(lb)
                        .with_blocking(3, 3);
                    p.align_kind = kind;
                    graph_bits(&run_search_serial(store, &p).unwrap())
                };
                let tri = run(crate::LoadBalance::Triangular);
                assert!(!tri.is_empty());
                assert_eq!(tri, run(crate::LoadBalance::IndexBased), "{kind:?}");
            }
        }
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
