//! The performance-model plane: replaying the pipeline at Summit scale.
//!
//! The paper's evaluation runs on 25–3364 Summit nodes. This module
//! replays the *same* block schedule the functional pipeline executes,
//! over the *real* dataset, for an arbitrary virtual node count: per-rank
//! work (candidates, aligned pairs, DP cells, semiring products,
//! broadcast payloads) is counted **exactly** from the actual overlap
//! matrix and the actual 2D partitioning, and only the conversion to
//! seconds goes through the calibrated [`MachineModel`]. The scaling
//! *shapes* — who wins, where the crossovers fall, how imbalance behaves —
//! therefore derive from genuine workload structure, not from closed-form
//! approximations.
//!
//! What is modeled rather than measured (documented per-experiment in
//! EXPERIMENTS.md): per-unit compute rates, the α–β network, filesystem
//! bandwidth, and the CPU contention factors of pre-blocking
//! (Section VI-C notes alignment and sparse work slow down when
//! overlapped; Table I measures 1.08–1.15× and 1.14–1.57×).

use pastis_align::batch::BatchAligner;
use pastis_align::matrices::Blosum62;
use pastis_comm::grid::BlockDist1D;
use pastis_comm::{ImbalanceStats, MachineModel};
use pastis_seqio::SeqStore;
use pastis_sparse::semiring::CountShared;
use pastis_sparse::spgemm_hash;
use pastis_trace::{names, CommOp, Component, TraceSession, Track};

use crate::filter::EdgeFilter;
use crate::kmer::KmerMatrix;
use crate::loadbalance::{BlockPlan, LoadBalance};
use crate::params::SearchParams;

/// CPU contention when alignment and the next block's SpGEMM overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// Alignment slowdown while sharing the node (paper: 1.08–1.15×).
    pub align_factor: f64,
    /// Sparse slowdown at one block (paper: ≈1.14× at 10 blocks).
    pub sparse_factor_base: f64,
    /// Additional sparse slowdown per scheduled block (broadcast pressure
    /// grows with block count; paper: up to 1.57× at 50 blocks).
    pub sparse_factor_per_block: f64,
    /// Saturation of the sparse contention factor — resource sharing
    /// cannot degrade indefinitely (the paper's production run uses 400
    /// blocks yet keeps a healthy sparse phase).
    pub sparse_factor_cap: f64,
    /// Fraction of SUMMA broadcast time hidden behind local compute by the
    /// double-buffered broadcast path (`--overlap`), in `[0, 1]`. `0.0`
    /// models the phased schedule (every broadcast on the critical path);
    /// at `e`, `e · min(comm, compute)` of each block's broadcast wait is
    /// subtracted from its sparse time — a stage's prefetch can hide at
    /// most the compute it runs behind. The unhidden share of the
    /// sequence-exchange residual shrinks by the same factor. Affects
    /// modeled *seconds* only; byte counts are schedule-invariant.
    pub comm_overlap_efficiency: f64,
}

impl Default for Contention {
    fn default() -> Contention {
        Contention {
            align_factor: 1.13,
            sparse_factor_base: 1.12,
            sparse_factor_per_block: 0.006,
            sparse_factor_cap: 1.60,
            comm_overlap_efficiency: 0.0,
        }
    }
}

/// Configuration of one virtual-scale replay.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Virtual node count (must be a perfect square, as in CombBLAS).
    pub nodes: usize,
    /// Machine preset translating work to seconds.
    pub machine: MachineModel,
    /// Pre-blocking contention model.
    pub contention: Contention,
    /// Max pairs actually aligned to estimate the ANI/coverage pass
    /// fraction (0 = skip sampling and assume 12.3%, the paper's value).
    pub sample_pairs: usize,
    /// How per-rank work counts convert to modeled time; see
    /// [`TimeFidelity`].
    pub fidelity: TimeFidelity,
    /// Intra-rank alignment pool width replayed on every virtual rank
    /// (1 = serial driver, 0 = one worker per modeled core); enters the
    /// align term through [`MachineModel::align_time_parallel`].
    pub align_threads: usize,
    /// Intra-rank SpGEMM pool width replayed on every virtual rank
    /// (1 = serial kernel, 0 = one worker per modeled core); enters the
    /// sparse term through [`MachineModel::spgemm_time_parallel`].
    pub spgemm_threads: usize,
}

/// How the replay converts per-rank work into seconds.
///
/// At the paper's scale every rank-block cell holds 10⁶–10⁷ pairs, so its
/// duration concentrates tightly at its expectation (law of large
/// numbers); what remains is the *structural* imbalance the schemes of
/// Section VI-B are designed around (partial-block idling, parity
/// uniformity). A 10⁴×-miniature dataset has ~10²-pair cells whose
/// sampling noise would otherwise masquerade as imbalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeFidelity {
    /// Time each cell from its exact miniature counts (keeps sampling
    /// noise; right for validating against the functional pipeline).
    Exact,
    /// Time each cell from its structural expectation: the scheme's
    /// kept-area within the rank's rectangle × the global pair density
    /// (the paper's own uniform-distribution argument, Figure 6). All
    /// reported *counters* and the Figure-7a/b imbalance metrics stay
    /// exact.
    Structural,
}

impl ScaleConfig {
    /// A Summit replay on `nodes` nodes.
    pub fn summit(nodes: usize) -> ScaleConfig {
        ScaleConfig {
            nodes,
            machine: MachineModel::summit(),
            contention: Contention::default(),
            sample_pairs: 300,
            fidelity: TimeFidelity::Structural,
            align_threads: 1,
            spgemm_threads: 1,
        }
    }
}

/// Per-rank, per-component outcome of a replay.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Virtual node count.
    pub nodes: usize,
    /// Blocking factors replayed.
    pub br: usize,
    /// Column blocking factor.
    pub bc: usize,
    /// Load-balancing scheme replayed.
    pub scheme: LoadBalance,
    /// Modeled input-read seconds.
    pub io_read_s: f64,
    /// Modeled output-write seconds.
    pub io_write_s: f64,
    /// Modeled unhidden sequence-communication wait.
    pub cwait_s: f64,
    /// Modeled k-mer matrix formation seconds (slowest rank).
    pub kmer_s: f64,
    /// Σ over blocks of the slowest rank's alignment seconds
    /// (no contention).
    pub align_s: f64,
    /// Σ over blocks of the slowest rank's sparse seconds (SpGEMM compute
    /// + SUMMA broadcasts + pruning), plus k-mer formation.
    pub sparse_s: f64,
    /// End-to-end seconds without pre-blocking.
    pub total_without_pb: f64,
    /// End-to-end seconds with pre-blocking.
    pub total_with_pb: f64,
    /// Alignment seconds with contention applied (Table I "align w/").
    pub align_pb_s: f64,
    /// Sparse seconds with contention applied (Table I "sparse w/").
    pub sparse_pb_s: f64,
    /// The overlapped region's obtained time (Table I "sum w/").
    pub region_pb_s: f64,
    /// Pre-blocking efficiency: hidden work over ideally hideable work
    /// (Table I last column).
    pub pb_efficiency: f64,
    /// Discovered candidates (computed blocks only).
    pub candidates: u64,
    /// Pairs aligned.
    pub aligned_pairs: u64,
    /// Total DP cells.
    pub cells: u64,
    /// Semiring products (SpGEMM flops).
    pub products: u64,
    /// Σ over (block, rank) of the SUMMA broadcast payload the α–β model
    /// charges: the row+column stripe nonzeros a rank receives for the
    /// block, at the wire size of one nonzero (12 bytes). The traced
    /// replay records exactly these bytes on its broadcast events, so
    /// telemetry totals cross-check against this field bit-for-bit.
    pub modeled_bcast_bytes: u64,
    /// Estimated pairs passing ANI/coverage.
    pub similar_pairs: u64,
    /// Per-rank peak memory during the search, bytes (worst rank) —
    /// see [`MemoryFootprint`].
    pub memory: MemoryFootprint,
    /// Per-rank aligned-pair imbalance (Figure 7a).
    pub pairs_imbalance: ImbalanceStats,
    /// Per-rank DP-cell imbalance (Figure 7b).
    pub cells_imbalance: ImbalanceStats,
    /// Per-rank alignment-seconds imbalance (Figure 7c).
    pub align_time_imbalance: ImbalanceStats,
    /// Per-rank sparse-seconds imbalance.
    pub sparse_time_imbalance: ImbalanceStats,
}

/// The per-rank memory model behind the paper's central motivation
/// (Section V-B: "the memory required by such a relatively small-scale
/// search can quickly exceed the amount of memory found on a node",
/// Section VI-A: the unblocked 20M-sequence search "could not be
/// performed on fewer nodes").
///
/// All byte counts are for the *worst* rank at its peak block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryFootprint {
    /// Resident input stripes (this rank's shares of every A and B
    /// stripe), bytes.
    pub inputs_bytes: f64,
    /// This rank's slice of the sequence store plus fetched remote
    /// residues, bytes.
    pub sequences_bytes: f64,
    /// Peak SUMMA receive buffers within one block, bytes.
    pub recv_bytes: f64,
    /// Peak SpGEMM intermediate products within one block, bytes
    /// (compression-factor × output; the paper's Section V-B concern).
    pub intermediate_bytes: f64,
    /// Peak stored output block (candidates awaiting alignment), bytes.
    pub output_block_bytes: f64,
}

impl MemoryFootprint {
    /// Total peak bytes per rank.
    pub fn total_bytes(&self) -> f64 {
        self.inputs_bytes
            + self.sequences_bytes
            + self.recv_bytes
            + self.intermediate_bytes
            + self.output_block_bytes
    }

    /// The portion that the blocked formation bounds (everything that
    /// scales with the *output*, not the inputs).
    pub fn blocked_portion_bytes(&self) -> f64 {
        self.recv_bytes + self.intermediate_bytes + self.output_block_bytes
    }
}

impl ScaleReport {
    /// Total runtime under the given pre-blocking setting.
    pub fn total(&self, pre_blocking: bool) -> f64 {
        if pre_blocking {
            self.total_with_pb
        } else {
            self.total_without_pb
        }
    }

    /// Alignments per second of the pre-blocking run.
    pub fn alignments_per_sec(&self) -> f64 {
        self.aligned_pairs as f64 / self.total_with_pb
    }

    /// Sustained cell updates per second of the pre-blocking run.
    pub fn cups(&self) -> f64 {
        self.cells as f64 / self.total_with_pb
    }

    /// Overhead seconds common to both modes (IO, k-mer formation, cwait).
    pub fn overhead_s(&self) -> f64 {
        self.io_read_s + self.io_write_s + self.kmer_s + self.cwait_s
    }
}

/// Replay the search described by `params` over `store` on
/// `cfg.nodes` virtual Summit nodes.
///
/// # Panics
///
/// Panics if `cfg.nodes` is not a perfect square or `params` are invalid.
pub fn simulate(store: &SeqStore, params: &SearchParams, cfg: &ScaleConfig) -> ScaleReport {
    simulate_inner(store, params, cfg, None)
}

/// Like [`simulate`], additionally replaying the modeled per-rank timeline
/// into `session` (normally a [`TraceSession::virtual_time`]): io / k-mer /
/// sequence-exchange / SUMMA-block / alignment-batch spans, one broadcast
/// event per (block, rank) whose byte count is *exactly* the α–β cost
/// model's assumed volume ([`ScaleReport::modeled_bcast_bytes`]), and
/// per-rank work counters. Telemetry is observation-only: the returned
/// report is identical to [`simulate`]'s.
///
/// # Panics
///
/// Panics if `cfg.nodes` is not a perfect square or `params` are invalid.
pub fn simulate_traced(
    store: &SeqStore,
    params: &SearchParams,
    cfg: &ScaleConfig,
    session: &TraceSession,
) -> ScaleReport {
    simulate_inner(store, params, cfg, Some(session))
}

fn simulate_inner(
    store: &SeqStore,
    params: &SearchParams,
    cfg: &ScaleConfig,
    session: Option<&TraceSession>,
) -> ScaleReport {
    params.validate().unwrap_or_else(|e| panic!("{e}"));
    let p = cfg.nodes;
    let q = (p as f64).sqrt().round() as usize;
    assert_eq!(q * q, p, "virtual node count must be a perfect square");
    let machine = &cfg.machine;
    let n = store.len();

    // --- Exact overlap structure, computed serially once.
    // The pipeline's operand recipe: compact columns keep Aᵀ
    // materializable (CombBLAS would use DCSC here).
    let (k, substitutes) = (params.k, params.substitute_kmers);
    let at = KmerMatrix::build(store, 0..n, k, params.alphabet, substitutes).at;
    let a = at.transpose();
    let (c, _) = spgemm_hash(&CountShared::<u32, u32>::new(), &a, &at);

    // --- Partitioning structures.
    let br = params.block_rows.min(n.max(1));
    let bc = params.block_cols.min(n.max(1));
    let row_stripes = BlockDist1D::new(n, br);
    let col_stripes = BlockDist1D::new(n, bc);
    let plan = BlockPlan::new(
        params.load_balance,
        br,
        bc,
        |r| {
            let s = row_stripes.part_offset(r);
            (s, s + row_stripes.part_len(r))
        },
        |c| {
            let s = col_stripes.part_offset(c);
            (s, s + col_stripes.part_len(c))
        },
    );
    let mut block_index = vec![usize::MAX; br * bc];
    for (idx, t) in plan.tasks.iter().enumerate() {
        block_index[t.r * bc + t.c] = idx;
    }
    let nb = plan.tasks.len();

    // Per-stripe intra-distribution over the grid dimension.
    let row_intra: Vec<BlockDist1D> = (0..br)
        .map(|r| BlockDist1D::new(row_stripes.part_len(r), q))
        .collect();
    let col_intra: Vec<BlockDist1D> = (0..bc)
        .map(|c| BlockDist1D::new(col_stripes.part_len(c), q))
        .collect();

    // --- Accumulate exact per-(block, rank) work from C's nonzeros.
    let mut candidates = vec![vec![0u64; p]; nb];
    let mut products = vec![vec![0u64; p]; nb];
    let mut pairs = vec![vec![0u64; p]; nb];
    let mut cells = vec![vec![0u64; p]; nb];
    let mut kept_total = 0u64;
    let mut sampled: Vec<(u32, u32)> = Vec::new();
    let sample_stride = 97usize;
    for (i, j, &count) in c.iter() {
        let (gi, gj) = (i as usize, j as usize);
        let r = row_stripes.owner(gi);
        let cc = col_stripes.owner(gj);
        let bidx = block_index[r * bc + cc];
        if bidx == usize::MAX {
            continue; // avoidable block: never computed
        }
        let rank = row_intra[r].owner(gi - row_stripes.part_offset(r)) * q
            + col_intra[cc].owner(gj - col_stripes.part_offset(cc));
        candidates[bidx][rank] += 1;
        products[bidx][rank] += count;
        if plan.keeps(i, j) && count >= params.common_kmer_threshold as u64 {
            pairs[bidx][rank] += 1;
            cells[bidx][rank] += store.seq_len(gi) as u64 * store.seq_len(gj) as u64;
            if cfg.sample_pairs > 0
                && sampled.len() < cfg.sample_pairs
                && kept_total as usize % sample_stride == 0
            {
                sampled.push((i, j));
            }
            kept_total += 1;
        }
    }

    // --- Broadcast payload histograms: nnz of stripe r owned by grid row
    // gi (A side) and of stripe c owned by grid col gj (B side). One pass
    // over A's entries.
    let mut hist_a = vec![vec![0u64; q]; br];
    let mut hist_b = vec![vec![0u64; q]; bc];
    for (s, _k, _) in a.iter() {
        let s = s as usize;
        let r = row_stripes.owner(s);
        hist_a[r][row_intra[r].owner(s - row_stripes.part_offset(r))] += 1;
        let cc = col_stripes.owner(s);
        hist_b[cc][col_intra[cc].owner(s - col_stripes.part_offset(cc))] += 1;
    }
    // One nonzero ≈ index + value + amortized pointer bytes. The integer
    // constant is authoritative: the traced replay records
    // `NNZ_WIRE_BYTES · stripe_nnz` on each broadcast event while the β
    // term below uses its float image, so the two cannot drift apart.
    const NNZ_WIRE_BYTES: u64 = 12;
    let nnz_bytes = NNZ_WIRE_BYTES as f64;
    let lg = if q <= 1 {
        0.0
    } else {
        (q as f64).log2().ceil()
    };

    // --- Per-block, per-rank modeled seconds.
    let total_pairs: u64 = pairs.iter().flatten().sum();
    let total_cells: u64 = cells.iter().flatten().sum();
    let total_candidates: u64 = candidates.iter().flatten().sum();
    let total_products: u64 = products.iter().flatten().sum();
    let expected_cells_per_pair = if total_pairs > 0 {
        total_cells as f64 / total_pairs as f64
    } else {
        0.0
    };
    let avg_multiplicity = if total_candidates > 0 {
        total_products as f64 / total_candidates as f64
    } else {
        0.0
    };

    // Structural expectations: for every (block, rank) rectangle, the
    // number of positions the scheme would align (kept area) and compute
    // (full area), converted to expected counts through global densities.
    let rect_of = |task: &crate::loadbalance::BlockTask, gi: usize, gj: usize| {
        let r0 = row_stripes.part_offset(task.r) + row_intra[task.r].part_offset(gi);
        let r1 = r0 + row_intra[task.r].part_len(gi);
        let c0 = col_stripes.part_offset(task.c) + col_intra[task.c].part_offset(gj);
        let c1 = c0 + col_intra[task.c].part_len(gj);
        (r0, r1, c0, c1)
    };
    let mut kept_area = vec![vec![0u64; p]; nb];
    let mut full_area = vec![vec![0u64; p]; nb];
    let (mut kept_area_total, mut full_area_total) = (0u64, 0u64);
    if cfg.fidelity == TimeFidelity::Structural {
        for (bidx, task) in plan.tasks.iter().enumerate() {
            for rank in 0..p {
                let (gi, gj) = (rank / q, rank % q);
                let (r0, r1, c0, c1) = rect_of(task, gi, gj);
                let kept = match params.load_balance {
                    LoadBalance::Triangular => count_upper(r0, r1, c0, c1),
                    LoadBalance::IndexBased => count_parity_kept(r0, r1, c0, c1),
                };
                let area = ((r1 - r0) * (c1 - c0)) as u64;
                kept_area[bidx][rank] = kept;
                full_area[bidx][rank] = area;
                kept_area_total += kept;
                full_area_total += area;
            }
        }
    }
    let pair_density = if kept_area_total > 0 {
        total_pairs as f64 / kept_area_total as f64
    } else {
        0.0
    };
    let cand_density = if full_area_total > 0 {
        total_candidates as f64 / full_area_total as f64
    } else {
        0.0
    };

    let mut sparse_secs = vec![vec![0.0f64; p]; nb];
    let mut align_secs = vec![vec![0.0f64; p]; nb];
    let mut bcast_wait = vec![vec![0.0f64; p]; nb];
    let mut modeled_bcast_bytes = 0u64;
    for (bidx, task) in plan.tasks.iter().enumerate() {
        for rank in 0..p {
            let (gi, gj) = (rank / q, rank % q);
            let stripe_nnz = (hist_a[task.r][gi] + hist_b[task.c][gj]) as f64;
            let (t_products, t_candidates, t_pairs) = match cfg.fidelity {
                TimeFidelity::Exact => (
                    products[bidx][rank] as f64,
                    candidates[bidx][rank] as f64,
                    pairs[bidx][rank] as f64,
                ),
                TimeFidelity::Structural => {
                    let cand = cand_density * full_area[bidx][rank] as f64;
                    (
                        cand * avg_multiplicity,
                        cand,
                        pair_density * kept_area[bidx][rank] as f64,
                    )
                }
            };
            let compute = machine.spgemm_time_parallel(t_products, t_candidates, cfg.spgemm_threads)
                    // Stripe handling: every block's SUMMA re-receives and
                    // re-traverses the input stripes (CSR walks, hash-table
                    // set-up). This split-computation overhead repeats per
                    // block while the product work above is
                    // blocking-invariant — it is what makes multiplication
                    // time grow with the block count in Figure 5.
                    + stripe_nnz / machine.stripe_nnz_per_sec;
            // SUMMA broadcasts over the q stages: latency q·α·log q per
            // side plus bandwidth on the row/column payload this rank
            // receives in aggregate.
            let comm = 2.0 * q as f64 * machine.net.alpha * lg
                + machine.net.beta * lg * nnz_bytes * stripe_nnz;
            // Double-buffered broadcasts hide up to `e · min(comm,
            // compute)` of the wait behind the local multiply — the
            // prefetch cannot hide more than the compute it overlaps.
            let hidden = cfg.contention.comm_overlap_efficiency * comm.min(compute);
            sparse_secs[bidx][rank] = compute + comm - hidden;
            bcast_wait[bidx][rank] = comm - hidden;
            modeled_bcast_bytes += NNZ_WIRE_BYTES * (hist_a[task.r][gi] + hist_b[task.c][gj]);
            align_secs[bidx][rank] = machine.align_time_parallel(
                t_pairs * expected_cells_per_pair,
                t_pairs,
                cfg.align_threads,
            )
                    // Per-batch device overhead: each block is one batch;
                    // more blocks = smaller, less efficient batches.
                    + if t_pairs > 0.0 {
                        machine.align_batch_overhead_s
                    } else {
                        0.0
                    };
        }
    }

    // --- Component times. The component columns report the *average*
    // rank's accumulated component time (the paper's Table I align/sparse
    // columns are balance-independent: its triangularity rows show align
    // times equal to the index rows despite far worse balance). Wall-clock
    // region/total times below remain max-based — imbalance surfaces
    // there, exactly as in the paper.
    let max_of = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let align_s: f64 = (0..p)
        .map(|r| align_secs.iter().map(|b| b[r]).sum::<f64>())
        .sum::<f64>()
        / p as f64;
    let sparse_blocks_s: f64 = (0..p)
        .map(|r| sparse_secs.iter().map(|b| b[r]).sum::<f64>())
        .sum::<f64>()
        / p as f64;

    // k-mer formation: contiguous sequence slices over all p ranks.
    let seq_slice = BlockDist1D::new(n, p);
    let kmer_secs: Vec<f64> = (0..p)
        .map(|rank| {
            let s0 = seq_slice.part_offset(rank);
            let s1 = s0 + seq_slice.part_len(rank);
            let residues: u64 = (s0..s1).map(|i| store.seq_len(i) as u64).sum();
            residues as f64 / machine.kmer_residues_per_sec
        })
        .collect();
    let kmer_s = kmer_secs.iter().copied().fold(0.0, f64::max);
    let sparse_s = sparse_blocks_s + kmer_s;

    // --- Region times with/without pre-blocking.
    let region_without: f64 = (0..nb)
        .map(|b| {
            (0..p)
                .map(|r| sparse_secs[b][r] + align_secs[b][r])
                .fold(0.0, f64::max)
        })
        .sum();
    let caf = cfg.contention.align_factor;
    let csf = (cfg.contention.sparse_factor_base
        + cfg.contention.sparse_factor_per_block * nb as f64)
        .min(cfg.contention.sparse_factor_cap);
    let mut region_pb = if nb > 0 {
        max_of(&sparse_secs[0]) * csf
    } else {
        0.0
    };
    for b in 0..nb {
        let step = (0..p)
            .map(|r| {
                let al = align_secs[b][r] * caf;
                let sp = if b + 1 < nb {
                    sparse_secs[b + 1][r] * csf
                } else {
                    0.0
                };
                al.max(sp)
            })
            .fold(0.0, f64::max);
        region_pb += step;
    }
    let align_pb_s = align_s * caf;
    let sparse_pb_s = sparse_blocks_s * csf + kmer_s;
    // Pre-blocking efficiency, the paper's Table I definition (verified
    // against its published cells, e.g. max(722,663)/740 = 97.6%):
    // how close the obtained overlapped region is to its lower bound, the
    // larger of the two contended components.
    let pb_efficiency = {
        let lower_bound = align_pb_s.max(sparse_blocks_s * csf);
        if region_pb > 0.0 {
            (lower_bound / region_pb).clamp(0.0, 1.0)
        } else {
            1.0
        }
    };

    // --- Per-rank peak memory (Section V-B / VI-A motivation).
    let mean_len = store.mean_len();
    let per_rank_pairs: Vec<u64> = (0..p).map(|r| (0..nb).map(|b| pairs[b][r]).sum()).collect();
    let max_pairs = per_rank_pairs.iter().copied().max().unwrap_or(0);
    let fetch_seqs = ((2 * max_pairs) as f64).min(n as f64);
    let memory = {
        const NNZ_IN_BYTES: f64 = 12.0; // index + u32 position + amortized ptr
        const CAND_BYTES: f64 = 28.0; // coords + CommonKmers{count, 2 seeds}
        const INTERMEDIATE_BYTES: f64 = 24.0; // hash slot: key + value + load slack
        let nnz_a: f64 = a.nnz() as f64;
        // Every rank holds its share of all A stripes plus all B stripes.
        let inputs_bytes = 2.0 * nnz_a / p as f64 * NNZ_IN_BYTES;
        // Own slice plus the remote sequences this rank's alignments touch.
        let sequences_bytes = store.total_residues() as f64 / p as f64 + fetch_seqs * mean_len;
        let mut worst = MemoryFootprint {
            inputs_bytes,
            sequences_bytes,
            ..MemoryFootprint::default()
        };
        let mut worst_total = 0.0f64;
        for (bidx, task) in plan.tasks.iter().enumerate() {
            for rank in 0..p {
                let (gi, gj) = (rank / q, rank % q);
                // Stage receive buffers: one stage's stripes at a time.
                let recv = (hist_a[task.r][gi] + hist_b[task.c][gj]) as f64 / q.max(1) as f64
                    * NNZ_IN_BYTES;
                let intermediate = products[bidx][rank] as f64 * INTERMEDIATE_BYTES;
                let output = candidates[bidx][rank] as f64 * CAND_BYTES;
                let total = inputs_bytes + sequences_bytes + recv + intermediate + output;
                if total > worst_total {
                    worst_total = total;
                    worst.recv_bytes = recv;
                    worst.intermediate_bytes = intermediate;
                    worst.output_block_bytes = output;
                }
            }
        }
        worst
    };

    // --- IO, cwait, pass-fraction.
    let header_bytes = 16u64;
    let input_bytes: u64 = store.total_residues() as u64 + n as u64 * header_bytes;
    let io_read_s = machine.io_time(input_bytes as f64, p);
    let pass_fraction = if cfg.sample_pairs == 0 || sampled.is_empty() {
        0.123 // the paper's production-run value
    } else {
        let aligner = BatchAligner::new(Blosum62, params.gaps);
        let filter = EdgeFilter::from_params(params);
        let passed = sampled
            .iter()
            .filter(|&&(i, j)| {
                // `i`/`j` are u32 store ids (dense, ≤ u32::MAX by
                // `SeqStore::push`'s checked constructor); widening them
                // back to usize store indices is always exact.
                let (qs, rs) = (store.seq(i as usize), store.seq(j as usize));
                filter.passes(&aligner.align_pair(qs, rs), qs.len(), rs.len())
            })
            .count();
        passed as f64 / sampled.len() as f64
    };
    let similar_pairs = (kept_total as f64 * pass_fraction).round() as u64;
    let triplet_bytes = 40.0;
    let io_write_s = machine.io_time(similar_pairs as f64 * triplet_bytes, p);

    // Sequence exchange: each rank fetches the sequences its alignments
    // touch (bounded by the whole set); the transfers are issued early and
    // almost fully hidden — only a small unhidden fraction plus the
    // per-peer latencies surface as cwait (Table II: ≤ 0.31%).
    // The unhidden remainder is host-side: per-peer message handling (one
    // slice per source rank — this is why the paper's cwait share *rises*
    // with node count, Table II) plus a small unpacking residual that
    // competes with the CPU sparse work.
    let unhidden = 0.015 * (1.0 - cfg.contention.comm_overlap_efficiency);
    let cwait_s = (p.saturating_sub(1)) as f64
        * (machine.net.alpha * lg.max(1.0) + machine.p2p_handling_s)
        + unhidden * fetch_seqs * mean_len / machine.kmer_residues_per_sec;

    let overhead = io_read_s + io_write_s + kmer_s + cwait_s;
    let total_without_pb = overhead + region_without;
    let total_with_pb = overhead + region_pb;

    // --- Virtual-time telemetry: replay the bulk-synchronous (no
    // pre-blocking) schedule onto per-rank recorders through the `*_at`
    // entry points. Every number on an event is the number the cost model
    // charged — in particular each broadcast's byte count is exactly the
    // α–β term's assumed volume, so exported metrics cross-check against
    // `modeled_bcast_bytes` bit-for-bit (pinned by a test below).
    if let Some(session) = session {
        let recs: Vec<_> = (0..p).map(|rank| session.recorder(rank)).collect();
        let t_blocks = io_read_s + kmer_s + cwait_s;
        for (rank, rec) in recs.iter().enumerate() {
            rec.record_span_at(
                Component::Io,
                names::SPAN_IO_READ,
                Track::Rank,
                0.0,
                io_read_s,
                &[("bytes", input_bytes)],
            );
            rec.record_span_at(
                Component::SparseOther,
                names::SPAN_KMER_MATRIX,
                Track::Rank,
                io_read_s,
                kmer_secs[rank],
                &[],
            );
            rec.record_span_at(
                Component::CommWait,
                names::SPAN_SEQ_EXCHANGE_RECV,
                Track::Rank,
                io_read_s + kmer_s,
                cwait_s,
                &[("peers", p.saturating_sub(1) as u64)],
            );
        }
        let mut cursor = vec![t_blocks; p];
        for (bidx, task) in plan.tasks.iter().enumerate() {
            // The SUMMA broadcasts synchronize the grid: every block
            // starts at the slowest rank's cursor.
            let start = cursor.iter().copied().fold(t_blocks, f64::max);
            for (rank, rec) in recs.iter().enumerate() {
                let (gi, gj) = (rank / q, rank % q);
                let bytes = NNZ_WIRE_BYTES * (hist_a[task.r][gi] + hist_b[task.c][gj]);
                rec.record_comm_at(
                    CommOp::Broadcast,
                    bytes,
                    2 * q.saturating_sub(1), // the rank's row team + column team
                    bcast_wait[bidx][rank],
                    start,
                );
                rec.record_span_at(
                    Component::SpGemm,
                    names::SPAN_SUMMA_BLOCK,
                    Track::Rank,
                    start,
                    sparse_secs[bidx][rank],
                    &[
                        ("r", task.r as u64),
                        ("c", task.c as u64),
                        ("candidates", candidates[bidx][rank]),
                        ("products", products[bidx][rank]),
                    ],
                );
                rec.record_span_at(
                    Component::Align,
                    names::SPAN_ALIGN_BATCH,
                    Track::Rank,
                    start + sparse_secs[bidx][rank],
                    align_secs[bidx][rank],
                    &[
                        ("r", task.r as u64),
                        ("c", task.c as u64),
                        ("pairs", pairs[bidx][rank]),
                        ("cells", cells[bidx][rank]),
                    ],
                );
                cursor[rank] = start + sparse_secs[bidx][rank] + align_secs[bidx][rank];
            }
        }
        let end = cursor.iter().copied().fold(t_blocks, f64::max);
        for (rank, rec) in recs.iter().enumerate() {
            rec.record_span_at(
                Component::Io,
                names::SPAN_IO_WRITE,
                Track::Rank,
                end,
                io_write_s,
                &[],
            );
            let sum_u = |data: &[Vec<u64>]| (0..nb).map(|b| data[b][rank]).sum::<u64>() as f64;
            rec.add_counter(names::CTR_CANDIDATES, sum_u(&candidates));
            rec.add_counter(names::CTR_ALIGNED_PAIRS, sum_u(&pairs));
            rec.add_counter(names::CTR_CELLS, sum_u(&cells));
            rec.add_counter(
                names::CTR_ALIGN_SECONDS,
                (0..nb).map(|b| align_secs[b][rank]).sum::<f64>(),
            );
            rec.add_counter(
                names::CTR_SPARSE_SECONDS,
                kmer_secs[rank] + (0..nb).map(|b| sparse_secs[b][rank]).sum::<f64>(),
            );
        }
    }

    // --- Imbalance metrics over per-rank totals.
    let per_rank = |data: &[Vec<u64>]| -> Vec<f64> {
        (0..p)
            .map(|r| data.iter().map(|b| b[r] as f64).sum())
            .collect()
    };
    let per_rank_f = |data: &[Vec<f64>]| -> Vec<f64> {
        (0..p).map(|r| data.iter().map(|b| b[r]).sum()).collect()
    };
    let sum2 = |data: &[Vec<u64>]| -> u64 { data.iter().flatten().sum() };

    ScaleReport {
        nodes: p,
        br,
        bc,
        scheme: params.load_balance,
        io_read_s,
        io_write_s,
        cwait_s,
        kmer_s,
        align_s,
        sparse_s,
        total_without_pb,
        total_with_pb,
        align_pb_s,
        sparse_pb_s,
        region_pb_s: region_pb,
        pb_efficiency,
        candidates: sum2(&candidates),
        aligned_pairs: sum2(&pairs),
        cells: sum2(&cells),
        products: sum2(&products),
        modeled_bcast_bytes,
        similar_pairs,
        memory,
        pairs_imbalance: ImbalanceStats::from_values(&per_rank(&pairs)),
        cells_imbalance: ImbalanceStats::from_values(&per_rank(&cells)),
        align_time_imbalance: ImbalanceStats::from_values(&per_rank_f(&align_secs)),
        sparse_time_imbalance: ImbalanceStats::from_values(&per_rank_f(&sparse_secs)),
    }
}

/// Factor a total block count into the `br × bc` pair closest to square,
/// matching the paper's usage (its production run reports "a total of 676
/// blocks" on a 26×26 grid).
fn near_square_factors(total: usize) -> (usize, usize) {
    let mut best = (total, 1);
    for d in 1..=total {
        if total % d == 0 {
            let (a, b) = (total / d, d);
            if a >= b && a - b < best.0 - best.1 {
                best = (a, b);
            }
        }
    }
    best
}

/// Choose the smallest block count whose modeled per-rank peak memory fits
/// `budget_bytes` — the planning face of the runtime `--mem-budget`
/// accountant. Sweeps total block counts `1..=max_blocks`, factoring each
/// into the near-square `br × bc` the paper uses, and replays the schedule
/// through [`simulate`]; the first blocking whose
/// [`MemoryFootprint::total_bytes`] fits is returned with its report.
///
/// Returns `None` when no tested blocking fits — in particular when the
/// budget is below the blocking-invariant floor (input stripes plus the
/// sequence store), the same irreducible working set that makes the
/// runtime accountant fail with a typed out-of-memory instead of spilling.
///
/// # Panics
///
/// Panics if `cfg.nodes` is not a perfect square, `params` are invalid, or
/// `max_blocks` is zero.
pub fn blocking_for_budget(
    store: &SeqStore,
    params: &SearchParams,
    cfg: &ScaleConfig,
    budget_bytes: f64,
    max_blocks: usize,
) -> Option<(usize, usize, ScaleReport)> {
    assert!(max_blocks > 0, "max_blocks must be positive");
    for total in 1..=max_blocks {
        let (br, bc) = near_square_factors(total);
        let mut p = params.clone();
        p.block_rows = br;
        p.block_cols = bc;
        let r = simulate(store, &p, cfg);
        if r.memory.total_bytes() <= budget_bytes {
            return Some((br, bc, r));
        }
    }
    None
}

/// Modeled CPU cell-update rate of the scalar score-only kernel,
/// cells/second/thread — the base the SIMD lane factor multiplies when
/// sizing serve batches.
const SERVE_CPU_CELLS_PER_SEC: f64 = 2.0e8;

/// Target share of a serve batch's time allowed to go to the fixed
/// per-batch overhead (launch/packing); batches are sized so overhead is
/// amortized to at most this fraction of useful work.
const SERVE_BATCH_OVERHEAD_FRACTION: f64 = 0.1;

/// Recommended admission-batch size for `pastis serve`: the smallest
/// SIMD-lane-aligned batch whose modeled useful work amortizes the
/// machine's fixed per-batch overhead ([`MachineModel::align_batch_overhead_s`])
/// to at most 10%, clamped to `[lanes, cap]` and rounded down to a lane
/// multiple. Latency is bounded separately by the batcher's flush
/// deadline, so the cap (not this model) is what keeps tail latency sane.
pub fn recommended_serve_batch(
    m: &MachineModel,
    lanes: usize,
    mean_query_len: f64,
    cap: usize,
) -> usize {
    let lanes = lanes.max(1);
    let cap = cap.max(lanes);
    // Modeled per-query compute: score-only DP over an average-length pair
    // plus the per-pair driver overhead, on the CPU vector kernel.
    let len = mean_query_len.max(1.0);
    let per_query_s = len * len / (SERVE_CPU_CELLS_PER_SEC * m.simd_lane_speedup.max(1.0))
        + m.align_overhead_per_pair;
    let n = (m.align_batch_overhead_s / (SERVE_BATCH_OVERHEAD_FRACTION * per_query_s)).ceil();
    // Degenerate calibration constants (zero/negative overhead, NaN/inf
    // rates) must never surface as a 0-sized batch: `n as usize` saturates
    // a small or negative finite float at 0, and a 0-sized recommendation
    // fed to the batcher is a silent no-progress loop. Anything that is
    // not a finite count of at least one query falls back to the cap.
    let n = if n.is_finite() && n >= 1.0 {
        n as usize
    } else {
        cap
    };
    let n = n.clamp(lanes, cap);
    n - n % lanes
}

/// The economics of persisting the reference k-mer matrix: what one index
/// build costs, what each serving process pays to load it back, and after
/// how many runs the build has paid for itself against re-deriving the
/// matrix from FASTA every time (what batch `pastis search` does).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexAmortization {
    /// One-time build cost, seconds: k-mer matrix formation plus writing
    /// the shards through the filesystem.
    pub build_seconds: f64,
    /// Per-process load cost, seconds: reading the shards back.
    pub load_seconds: f64,
    /// What every indexless run pays instead, seconds: re-deriving the
    /// k-mer matrix from the reference residues.
    pub rebuild_seconds: f64,
    /// Runs until the build breaks even:
    /// `build / (rebuild - load)`; infinite when loading is no cheaper
    /// than rebuilding (tiny references on slow disks).
    pub break_even_runs: f64,
}

/// Evaluate [`IndexAmortization`] for a reference set of
/// `total_residues` whose persisted index occupies `index_bytes`, under
/// machine model `m` (single node: `kmer_residues_per_sec` and
/// `io_bw_per_node` are the governing rates).
pub fn index_amortization(
    m: &MachineModel,
    total_residues: u64,
    index_bytes: u64,
) -> IndexAmortization {
    let rebuild_seconds = total_residues as f64 / m.kmer_residues_per_sec;
    let load_seconds = index_bytes as f64 / m.io_bw_per_node;
    let build_seconds = rebuild_seconds + load_seconds;
    let saved = rebuild_seconds - load_seconds;
    let break_even_runs = if saved > 0.0 {
        build_seconds / saved
    } else {
        f64::INFINITY
    };
    IndexAmortization {
        build_seconds,
        load_seconds,
        rebuild_seconds,
        break_even_runs,
    }
}

/// Number of strictly-upper positions (`j > i`) in the rectangle
/// `[r0, r1) × [c0, c1)` of global coordinates.
fn count_upper(r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
    let mut total = 0u64;
    for i in r0..r1 {
        let lo = c0.max(i + 1);
        if lo < c1 {
            total += (c1 - lo) as u64;
        }
    }
    total
}

/// Number of positions the index-based parity rule keeps in the rectangle
/// `[r0, r1) × [c0, c1)` (see [`pastis_sparse::spops::parity_keep`]).
fn count_parity_kept(r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
    // Evens in [a, b).
    fn evens(a: usize, b: usize) -> u64 {
        if a >= b {
            0
        } else {
            (b.div_ceil(2) - a.div_ceil(2)) as u64
        }
    }
    let mut total = 0u64;
    for i in r0..r1 {
        // Lower triangle (j < i): keep same parity as i.
        let (lo, hi) = (c0, c1.min(i));
        if lo < hi {
            let e = evens(lo, hi);
            let o = (hi - lo) as u64 - e;
            total += if i % 2 == 0 { e } else { o };
        }
        // Upper triangle (j > i): keep opposite parity.
        let (lo, hi) = (c0.max(i + 1), c1);
        if lo < hi {
            let e = evens(lo, hi);
            let o = (hi - lo) as u64 - e;
            total += if i % 2 == 0 { o } else { e };
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_search_serial;
    use pastis_comm::costmodel::{AlphaBeta, CollectiveAlgo};
    use pastis_seqio::{SyntheticConfig, SyntheticDataset};

    fn dataset(n: usize) -> SeqStore {
        SyntheticDataset::generate(&SyntheticConfig {
            n_sequences: n,
            mean_len: 80.0,
            singleton_fraction: 0.3,
            seed: 5,
            ..SyntheticConfig::small(n, 5)
        })
        .store
    }

    fn params() -> SearchParams {
        SearchParams::test_defaults().with_blocking(4, 4)
    }

    /// A machine slowed down so that the *compute* of a tiny test dataset
    /// dominates latency terms, putting the replay into the regime the
    /// paper's node counts operate in (Summit rates with a 100-sequence
    /// input would be pure-latency, which scales like no real system).
    fn test_machine() -> MachineModel {
        MachineModel {
            name: "test-slow".into(),
            net: AlphaBeta::from_latency_bandwidth(2.0e-6, 2.0e7),
            algo: CollectiveAlgo::Tree,
            gpus_per_node: 1,
            gcups_per_gpu: 1.0e-2, // 10M cells/s per node
            align_overhead_per_pair: 1.0e-7,
            align_pool_efficiency: 0.9,
            spgemm_pool_efficiency: 0.8,
            simd_lane_speedup: 1.0,
            align_batch_overhead_s: 0.0,
            p2p_handling_s: 0.0,
            spgemm_products_per_sec: 1.0e6,
            merge_nnz_per_sec: 1.0e6,
            stripe_nnz_per_sec: 2.0e7,
            kmer_residues_per_sec: 1.0e7,
            io_bw_per_node: 1.0e9,
            io_bw_global_cap: 1.0e12,
            cores_per_node: 1,
        }
    }

    fn test_config(nodes: usize) -> ScaleConfig {
        ScaleConfig {
            nodes,
            machine: test_machine(),
            contention: Contention::default(),
            sample_pairs: 100,
            fidelity: TimeFidelity::Exact,
            align_threads: 1,
            spgemm_threads: 1,
        }
    }

    /// Rescale the sparse rates so modeled sparse time ≈ align time — the
    /// regime of the paper (align:sparse ≤ 2:1) where pre-blocking pays.
    fn balanced_config(store: &SeqStore, p: &SearchParams, nodes: usize) -> ScaleConfig {
        let mut cfg = test_config(nodes);
        let probe = simulate(store, p, &cfg);
        let ratio = probe.sparse_s / probe.align_s.max(1e-12);
        cfg.machine.spgemm_products_per_sec *= ratio;
        cfg.machine.merge_nnz_per_sec *= ratio;
        cfg
    }

    #[test]
    fn replay_counts_match_functional_pipeline() {
        let store = dataset(60);
        let p = params();
        let functional = run_search_serial(&store, &p).unwrap();
        let report = simulate(&store, &p, &test_config(4));
        assert_eq!(report.candidates, functional.stats.candidates);
        assert_eq!(report.aligned_pairs, functional.stats.aligned_pairs);
        assert_eq!(report.cells, functional.stats.cells);
    }

    #[test]
    fn replay_counts_invariant_in_node_count() {
        let store = dataset(50);
        let p = params();
        let r1 = simulate(&store, &p, &test_config(1));
        let r16 = simulate(&store, &p, &test_config(16));
        let r100 = simulate(&store, &p, &test_config(100));
        assert_eq!(r1.aligned_pairs, r16.aligned_pairs);
        assert_eq!(r16.aligned_pairs, r100.aligned_pairs);
        assert_eq!(r1.cells, r100.cells);
    }

    #[test]
    fn align_threads_shrink_align_time_only() {
        let store = dataset(60);
        let p = params();
        let serial = simulate(&store, &p, &test_config(4));
        let mut cfg = test_config(4);
        cfg.align_threads = 4;
        let pooled = simulate(&store, &p, &cfg);
        // Counters are work, not time: invariant.
        assert_eq!(pooled.aligned_pairs, serial.aligned_pairs);
        assert_eq!(pooled.cells, serial.cells);
        // The align term divides by the modeled pool speedup; sparse does not.
        let speedup = cfg.machine.align_speedup(4);
        assert!((pooled.align_s - serial.align_s / speedup).abs() < 1e-9 * serial.align_s);
        assert!((pooled.sparse_s - serial.sparse_s).abs() < 1e-12);
    }

    #[test]
    fn spgemm_threads_shrink_sparse_time_only() {
        let store = dataset(60);
        let p = params();
        let serial = simulate(&store, &p, &test_config(4));
        let mut cfg = test_config(4);
        cfg.spgemm_threads = 4;
        let pooled = simulate(&store, &p, &cfg);
        // Counters are work, not time: invariant.
        assert_eq!(pooled.candidates, serial.candidates);
        assert_eq!(pooled.cells, serial.cells);
        // Only the product term of the sparse phase divides by the pool
        // speedup (merge + stripe handling stay serial), so sparse time
        // must drop but by less than the full speedup; align is untouched.
        assert!(pooled.sparse_s < serial.sparse_s, "sparse time must shrink");
        let speedup = cfg.machine.spgemm_speedup(4);
        assert!(
            pooled.sparse_s > serial.sparse_s / speedup,
            "merge/stripe terms must not parallelize"
        );
        assert!((pooled.align_s - serial.align_s).abs() < 1e-12);
    }

    #[test]
    fn comm_overlap_efficiency_hides_broadcast_wait_only() {
        let store = dataset(60);
        let p = params();
        let phased = simulate(&store, &p, &test_config(4));
        // eff = 0.0 is the default: an explicit zero is bit-identical.
        let mut zero = test_config(4);
        zero.contention.comm_overlap_efficiency = 0.0;
        let z = simulate(&store, &p, &zero);
        assert_eq!(z.sparse_s.to_bits(), phased.sparse_s.to_bits());
        assert_eq!(z.cwait_s.to_bits(), phased.cwait_s.to_bits());
        // eff = 0.9 hides broadcast wait behind local SpGEMM compute.
        let mut cfg = test_config(4);
        cfg.contention.comm_overlap_efficiency = 0.9;
        let ov = simulate(&store, &p, &cfg);
        // Work counters and the modeled wire bytes are schedule-invariant:
        // overlap changes when bytes move, never how many.
        assert_eq!(ov.candidates, phased.candidates);
        assert_eq!(ov.aligned_pairs, phased.aligned_pairs);
        assert_eq!(ov.cells, phased.cells);
        assert_eq!(ov.products, phased.products);
        assert_eq!(ov.modeled_bcast_bytes, phased.modeled_bcast_bytes);
        // Hidden time comes out of the sparse phase and the unhidden
        // sequence-communication wait; alignment is untouched.
        assert!(ov.sparse_s < phased.sparse_s, "overlap must shrink sparse");
        assert!(ov.cwait_s < phased.cwait_s, "overlap must shrink cwait");
        assert!((ov.align_s - phased.align_s).abs() < 1e-12);
        // At most min(comm, compute) can hide: sparse time stays above
        // the compute-only floor even at eff = 1.0.
        let mut full = test_config(4);
        full.contention.comm_overlap_efficiency = 1.0;
        let f = simulate(&store, &p, &full);
        assert!(f.sparse_s < ov.sparse_s);
        assert!(f.sparse_s > 0.0);
    }

    #[test]
    fn more_nodes_reduce_total_time() {
        let store = dataset(80);
        let p = params();
        let t4 = simulate(&store, &p, &test_config(4)).total_with_pb;
        let t16 = simulate(&store, &p, &test_config(16)).total_with_pb;
        let t64 = simulate(&store, &p, &test_config(64)).total_with_pb;
        assert!(t16 < t4, "t4={t4} t16={t16}");
        assert!(t64 < t16, "t16={t16} t64={t64}");
    }

    #[test]
    fn pre_blocking_reduces_total() {
        let store = dataset(80);
        let cfg = balanced_config(&store, &params(), 16);
        let r = simulate(&store, &params(), &cfg);
        assert!(r.total_with_pb < r.total_without_pb);
        assert!(r.pb_efficiency > 0.3 && r.pb_efficiency <= 1.0);
        // With-contention components exceed the uncontended ones.
        assert!(r.align_pb_s > r.align_s);
        assert!(r.sparse_pb_s > r.sparse_s);
    }

    #[test]
    fn triangular_avoids_sparse_work() {
        let store = dataset(80);
        let tri = simulate(
            &store,
            &params().with_load_balance(LoadBalance::Triangular),
            &test_config(16),
        );
        let idx = simulate(
            &store,
            &params().with_load_balance(LoadBalance::IndexBased),
            &test_config(16),
        );
        // Same alignment work...
        assert_eq!(tri.aligned_pairs, idx.aligned_pairs);
        assert_eq!(tri.cells, idx.cells);
        // ...but fewer candidates computed and fewer products.
        assert!(tri.candidates < idx.candidates);
        assert!(tri.products < idx.products);
        // And worse alignment balance (partial blocks idle some ranks).
        assert!(tri.pairs_imbalance.imbalance_pct() >= idx.pairs_imbalance.imbalance_pct());
    }

    #[test]
    fn more_blocks_increase_sparse_time() {
        // Figure 5's main effect: block count inflates multiplication time.
        let store = dataset(80);
        let few = simulate(
            &store,
            &SearchParams::test_defaults().with_blocking(1, 1),
            &test_config(16),
        );
        let many = simulate(
            &store,
            &SearchParams::test_defaults().with_blocking(8, 8),
            &test_config(16),
        );
        assert!(many.sparse_s > few.sparse_s);
        assert_eq!(few.aligned_pairs, many.aligned_pairs);
    }

    #[test]
    fn io_fraction_is_small() {
        let store = dataset(100);
        let r = simulate(&store, &params(), &test_config(16));
        let io_pct = (r.io_read_s + r.io_write_s) / r.total_with_pb * 100.0;
        assert!(io_pct < 10.0, "io {io_pct}%");
        let cwait_pct = r.cwait_s / r.total_with_pb * 100.0;
        assert!(cwait_pct < 5.0, "cwait {cwait_pct}%");
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_node_count_panics() {
        let store = dataset(20);
        let _ = simulate(&store, &params(), &test_config(12));
    }

    #[test]
    fn traced_replay_bytes_match_cost_model_exactly() {
        use pastis_trace::MetricsReport;
        let store = dataset(60);
        let p = params();
        let session = TraceSession::virtual_time();
        let traced = simulate_traced(&store, &p, &test_config(4), &session);
        let untraced = simulate(&store, &p, &test_config(4));
        // Observation-only: tracing changes nothing in the report.
        assert_eq!(traced.aligned_pairs, untraced.aligned_pairs);
        assert_eq!(traced.cells, untraced.cells);
        assert_eq!(traced.candidates, untraced.candidates);
        assert_eq!(traced.modeled_bcast_bytes, untraced.modeled_bcast_bytes);
        assert_eq!(traced.total_with_pb, untraced.total_with_pb);
        assert_eq!(traced.total_without_pb, untraced.total_without_pb);
        // The built-in cross-check: per-collective byte counters on the
        // virtual-time backend equal the α–β model's assumed volumes,
        // exactly (not approximately).
        let metrics = MetricsReport::from_session(&session);
        assert!(metrics.virtual_time);
        assert!(traced.modeled_bcast_bytes > 0);
        assert_eq!(
            metrics.total_bytes(CommOp::Broadcast),
            traced.modeled_bcast_bytes
        );
        // The recorded broadcast waits reconstruct the model's comm term.
        assert!(metrics.total_wait_s(CommOp::Broadcast) > 0.0);
    }

    #[test]
    fn traced_replay_timeline_covers_all_phases_per_rank() {
        let store = dataset(60);
        let p = params();
        let session = TraceSession::virtual_time();
        let report = simulate_traced(&store, &p, &test_config(4), &session);
        let recs = session.recorders();
        assert_eq!(recs.len(), 4);
        for rec in &recs {
            let spans = rec.snapshot_spans();
            for name in [
                names::SPAN_IO_READ,
                names::SPAN_KMER_MATRIX,
                names::SPAN_SEQ_EXCHANGE_RECV,
                names::SPAN_SUMMA_BLOCK,
                names::SPAN_ALIGN_BATCH,
                names::SPAN_IO_WRITE,
            ] {
                assert!(
                    spans.iter().any(|s| s.name == name),
                    "rank {} missing span {name}",
                    rec.rank()
                );
            }
            // Bulk-synchronous schedule: no block span starts before the
            // prologue (read + k-mer + exchange) ends.
            let prologue_end = spans
                .iter()
                .find(|s| s.name == "seq_exchange.recv")
                .unwrap()
                .end_us();
            assert!(spans
                .iter()
                .filter(|s| s.name == "summa.block")
                .all(|s| s.start_us >= prologue_end));
        }
        // Per-rank counters partition the global work counts exactly.
        let sum_counter = |name: &str| -> u64 {
            recs.iter().map(|r| r.counters()[name]).sum::<f64>().round() as u64
        };
        assert_eq!(sum_counter("aligned_pairs"), report.aligned_pairs);
        assert_eq!(sum_counter("cells"), report.cells);
        assert_eq!(sum_counter("candidates"), report.candidates);
    }

    #[test]
    fn count_upper_matches_bruteforce() {
        for (r0, r1, c0, c1) in [
            (0usize, 5usize, 0usize, 5usize),
            (2, 7, 0, 4),
            (0, 3, 5, 9),
            (6, 9, 1, 3),
            (4, 4, 0, 9),
            (3, 8, 3, 8),
        ] {
            let brute = (r0..r1)
                .flat_map(|i| (c0..c1).map(move |j| (i, j)))
                .filter(|&(i, j)| j > i)
                .count() as u64;
            assert_eq!(
                count_upper(r0, r1, c0, c1),
                brute,
                "rect [{r0},{r1})x[{c0},{c1})"
            );
        }
    }

    #[test]
    fn count_parity_matches_bruteforce() {
        use pastis_sparse::spops::parity_keep;
        for (r0, r1, c0, c1) in [
            (0usize, 6usize, 0usize, 6usize),
            (1, 8, 2, 5),
            (0, 4, 7, 12),
            (5, 11, 0, 3),
            (2, 2, 0, 5),
            (3, 9, 3, 9),
        ] {
            let brute = (r0..r1)
                .flat_map(|i| (c0..c1).map(move |j| (i, j)))
                // Test-local narrowing over rectangles far below the
                // u32 edge; production ids stay ≤ u32::MAX via
                // `SeqStore::push`'s checked constructor.
                .filter(|&(i, j)| parity_keep(i as u32, j as u32))
                .count() as u64;
            assert_eq!(
                count_parity_kept(r0, r1, c0, c1),
                brute,
                "rect [{r0},{r1})x[{c0},{c1})"
            );
        }
    }

    #[test]
    fn memory_footprint_shrinks_with_blocks() {
        let store = dataset(60);
        let cfg = test_config(4);
        let one = simulate(
            &store,
            &SearchParams::test_defaults().with_blocking(1, 1),
            &cfg,
        );
        let many = simulate(
            &store,
            &SearchParams::test_defaults().with_blocking(4, 4),
            &cfg,
        );
        assert!(
            many.memory.blocked_portion_bytes() < one.memory.blocked_portion_bytes(),
            "blocking failed to bound the in-flight memory: {} vs {}",
            many.memory.blocked_portion_bytes(),
            one.memory.blocked_portion_bytes()
        );
        // Inputs and sequences are blocking-invariant.
        assert!((many.memory.inputs_bytes - one.memory.inputs_bytes).abs() < 1.0);
        assert!(one.memory.total_bytes() > 0.0);
    }

    #[test]
    fn blocking_for_budget_picks_smallest_fitting_blocking() {
        let store = dataset(60);
        let p = SearchParams::test_defaults();
        let cfg = test_config(4);
        let one = simulate(&store, &p.clone().with_blocking(1, 1), &cfg);
        // A budget at the unblocked peak is satisfied without blocking.
        let (br, bc, r) =
            blocking_for_budget(&store, &p, &cfg, one.memory.total_bytes(), 64).unwrap();
        assert_eq!((br, bc), (1, 1));
        assert_eq!(r.memory.total_bytes(), one.memory.total_bytes());
        // A budget between the invariant floor and the unblocked peak
        // forces a finer blocking, and the chosen one actually fits.
        let floor = one.memory.inputs_bytes + one.memory.sequences_bytes;
        let budget = floor + 0.25 * one.memory.blocked_portion_bytes();
        let (br, bc, r) = blocking_for_budget(&store, &p, &cfg, budget, 64)
            .expect("a finer blocking should fit this budget");
        assert!(br * bc > 1, "budget below the unblocked peak needs blocks");
        assert!(r.memory.total_bytes() <= budget);
        // Below the blocking-invariant floor no blocking helps — the same
        // irreducible working set the runtime accountant reports as OOM.
        assert!(blocking_for_budget(&store, &p, &cfg, floor * 0.5, 64).is_none());
    }

    #[test]
    fn near_square_factors_match_paper_usage() {
        assert_eq!(near_square_factors(1), (1, 1));
        assert_eq!(near_square_factors(25), (5, 5));
        assert_eq!(near_square_factors(50), (10, 5));
        assert_eq!(near_square_factors(676), (26, 26));
        assert_eq!(near_square_factors(7), (7, 1));
    }

    #[test]
    fn recommended_serve_batch_is_lane_aligned_bounded_and_monotone() {
        let m = MachineModel::commodity();
        for lanes in [1usize, 4, 16] {
            for len in [10.0f64, 100.0, 1000.0] {
                for cap in [8usize, 256, 4096] {
                    let n = recommended_serve_batch(&m, lanes, len, cap);
                    assert_eq!(n % lanes, 0, "lanes={lanes} len={len} cap={cap}");
                    assert!(n >= lanes && n <= cap.max(lanes));
                }
            }
        }
        // More per-batch overhead never shrinks the recommendation.
        let mut costly = MachineModel::commodity();
        costly.align_batch_overhead_s *= 10.0;
        assert!(
            recommended_serve_batch(&costly, 16, 200.0, 1 << 20)
                >= recommended_serve_batch(&m, 16, 200.0, 1 << 20)
        );
        // Longer queries amortize the overhead in fewer of them.
        assert!(
            recommended_serve_batch(&m, 16, 2000.0, 1 << 20)
                <= recommended_serve_batch(&m, 16, 20.0, 1 << 20)
        );
    }

    #[test]
    fn recommended_serve_batch_survives_degenerate_calibration() {
        // Degenerate calibration constants used to cast a small/negative
        // finite recommendation to 0 (`n as usize` saturates at 0) before
        // the clamp; every combination here must still yield a positive,
        // lane-aligned batch within [lanes, cap].
        let degenerate = [
            0.0,               // zero overhead -> n = 0.0
            -1.0e-3,           // negative overhead -> negative finite n
            f64::NAN,          // NaN propagates through the division
            f64::INFINITY,     // inf overhead -> inf n
            -f64::INFINITY,    // -inf overhead -> -inf n
            f64::MIN_POSITIVE, // subnormal-adjacent -> n rounds to 1
        ];
        for overhead in degenerate {
            for speedup in [1.0, 0.0, f64::NAN] {
                let mut m = MachineModel::commodity();
                m.align_batch_overhead_s = overhead;
                m.simd_lane_speedup = speedup;
                for (lanes, cap) in [(1usize, 1usize), (4, 8), (16, 256)] {
                    let n = recommended_serve_batch(&m, lanes, 150.0, cap);
                    assert!(
                        n >= 1,
                        "zero-sized batch for overhead={overhead} speedup={speedup} \
                         lanes={lanes} cap={cap}"
                    );
                    assert!(n >= lanes && n <= cap.max(lanes));
                    assert_eq!(n % lanes, 0);
                }
            }
        }
        // Zero-length / NaN mean query length is also survivable.
        let m = MachineModel::commodity();
        assert!(recommended_serve_batch(&m, 4, 0.0, 64) >= 4);
        assert!(recommended_serve_batch(&m, 4, f64::NAN, 64) >= 4);
    }

    #[test]
    fn index_amortization_breaks_even_when_loading_beats_rebuilding() {
        let m = MachineModel::commodity();
        // A compact index: shard bytes well under the residue count's
        // k-mer formation cost on this machine's disk.
        let a = index_amortization(&m, 1_000_000_000, 100_000_000);
        assert!(a.build_seconds > 0.0 && a.load_seconds > 0.0);
        assert!(a.rebuild_seconds > a.load_seconds, "{a:?}");
        assert!(a.break_even_runs.is_finite() && a.break_even_runs > 1.0);
        // A bloated index on the same disk never pays for itself.
        let never = index_amortization(&m, 1_000, u64::MAX);
        assert!(never.break_even_runs.is_infinite());
        // Bigger index ⇒ later break-even.
        let b = index_amortization(&m, 1_000_000_000, 150_000_000);
        assert!(b.break_even_runs >= a.break_even_runs);
    }
}
