//! The span/counter name registry — one authoritative list of every
//! telemetry name the workspace emits.
//!
//! Telemetry names are load-bearing: the analytics layer groups
//! histograms by span name ([`crate::hist`]), the critical-path extractor
//! attributes wall-clock to them ([`crate::critical`]), and the CLI's
//! `trace-check` subcommand validates exported files against this
//! registry. A typo'd literal at an emit site would silently create an
//! orphan series, so emit sites reference these constants instead of
//! spelling strings; `trace-check` flags any name outside
//! [`KNOWN_SPANS`] / [`KNOWN_COUNTERS`].
//!
//! When adding a new span or counter: add the constant here, use it at
//! the emit site, and the validators pick it up automatically.

// --- Pipeline phase spans (main track, `Track::Rank`). ---

/// K-mer matrix construction (`A` formation), per rank.
pub const SPAN_KMER_MATRIX: &str = "kmer_matrix";
/// Blocking receive side of the sequence exchange — the paper's "cwait".
pub const SPAN_SEQ_EXCHANGE_RECV: &str = "seq_exchange.recv";
/// One SUMMA output block's sparse phase (broadcasts + local SpGEMM).
pub const SPAN_SUMMA_BLOCK: &str = "summa.block";
/// One output block's batch alignment phase.
pub const SPAN_ALIGN_BATCH: &str = "align.batch";
/// Final similarity-graph assembly.
pub const SPAN_OUTPUT_ASSEMBLY: &str = "output.assembly";
/// Parallel file read (perf-model plane).
pub const SPAN_IO_READ: &str = "io.read";
/// Parallel file write (perf-model plane).
pub const SPAN_IO_WRITE: &str = "io.write";

// --- Sub-track spans (worker occupancy / comm-prefetch path). ---

/// One local SpGEMM stage inside the overlapped SUMMA schedule
/// (`Track::SpGemmWorker`).
pub const SPAN_SPGEMM_STAGE: &str = "spgemm.stage";
/// Posting stage `k+1`'s broadcasts while stage `k` computes
/// (`Track::CommPath`) — the overlap the critical path credits as
/// hidden communication.
pub const SPAN_SUMMA_BCAST_PREFETCH: &str = "summa.bcast.prefetch";
/// One claimed row chunk of the parallel SpGEMM kernel.
pub const SPAN_SPGEMM_ROW_CHUNK: &str = "spgemm.row_chunk";
/// One claimed unit of alignment work on a unified-pool worker.
pub const SPAN_ALIGN_UNIT: &str = "align.unit";
/// One alignment-pool worker's whole-batch occupancy span.
pub const SPAN_ALIGN_WORKER: &str = "align.worker";

// --- Spill spans (memory-budgeted execution). ---

/// Writing one completed output block (or index shard) to the spill
/// directory as a CRC-framed shard.
pub const SPAN_SPILL_WRITE: &str = "spill.write";
/// Streaming a spilled shard back from disk (CRC-verified).
pub const SPAN_SPILL_READ: &str = "spill.read";

// --- Serving-mode spans (`pastis serve`). ---

/// One serve request's admission-to-result latency (opened when the
/// query is admitted, closed when its result is ready) — the series
/// behind the serve p50/p95/p99 report.
pub const SPAN_SERVE_REQUEST: &str = "serve.request";
/// One admission batch's compute: query matrix formation, striped
/// SpGEMM against the loaded index, batch alignment.
pub const SPAN_SERVE_BATCH: &str = "serve.batch";
/// Loading (and CRC-verifying) one persisted index stripe from disk.
pub const SPAN_INDEX_LOAD: &str = "index.load";

// --- Baseline pipeline spans. ---

/// MMseqs2-like baseline: k-mer index build.
pub const SPAN_INDEX_BUILD: &str = "index.build";
/// MMseqs2-like baseline: prefilter scan.
pub const SPAN_PREFILTER: &str = "prefilter";
/// DIAMOND-like baseline: seed-join packaging for one (r, c) pair.
pub const SPAN_PACKAGE_SEED_JOIN: &str = "package.seed_join";
/// DIAMOND-like baseline: alignment of one joined chunk.
pub const SPAN_JOIN_ALIGN: &str = "join.align";

/// Every span name the workspace emits, in display order.
pub const KNOWN_SPANS: &[&str] = &[
    SPAN_KMER_MATRIX,
    SPAN_SEQ_EXCHANGE_RECV,
    SPAN_SUMMA_BLOCK,
    SPAN_ALIGN_BATCH,
    SPAN_OUTPUT_ASSEMBLY,
    SPAN_IO_READ,
    SPAN_IO_WRITE,
    SPAN_SPGEMM_STAGE,
    SPAN_SUMMA_BCAST_PREFETCH,
    SPAN_SPGEMM_ROW_CHUNK,
    SPAN_ALIGN_UNIT,
    SPAN_ALIGN_WORKER,
    SPAN_SPILL_WRITE,
    SPAN_SPILL_READ,
    SPAN_SERVE_REQUEST,
    SPAN_SERVE_BATCH,
    SPAN_INDEX_LOAD,
    SPAN_INDEX_BUILD,
    SPAN_PREFILTER,
    SPAN_PACKAGE_SEED_JOIN,
    SPAN_JOIN_ALIGN,
];

// --- Work counters. ---

/// Candidate pairs surviving the sparse phase.
pub const CTR_CANDIDATES: &str = "candidates";
/// Pairs actually aligned.
pub const CTR_ALIGNED_PAIRS: &str = "aligned_pairs";
/// DP cells computed across all alignments.
pub const CTR_CELLS: &str = "cells";
/// Pairs passing the similarity thresholds.
pub const CTR_SIMILAR_PAIRS: &str = "similar_pairs";
/// Wall seconds in the alignment component.
pub const CTR_ALIGN_SECONDS: &str = "align_seconds";
/// Wall seconds in the sparse components (SpGEMM + other).
pub const CTR_SPARSE_SECONDS: &str = "sparse_seconds";
/// CPU seconds summed over alignment workers (vs the wall split).
pub const CTR_ALIGN_CPU_SECONDS: &str = "align_cpu_seconds";
/// MMseqs2-like baseline: candidates emitted by the prefilter.
pub const CTR_PREFILTER_CANDIDATES: &str = "prefilter_candidates";

// --- Serving-mode counters (`pastis serve`). ---

/// Queries admitted to the serving loop.
pub const CTR_SERVE_REQUESTS: &str = "serve.requests";
/// Admission batches executed.
pub const CTR_SERVE_BATCHES: &str = "serve.batches";
/// Queries answered from the content-keyed result cache.
pub const CTR_SERVE_CACHE_HIT: &str = "serve.cache.hit";
/// Queries that missed the result cache (computed fresh).
pub const CTR_SERVE_CACHE_MISS: &str = "serve.cache.miss";
/// Cache entries evicted to respect the LRU bound.
pub const CTR_SERVE_CACHE_EVICTIONS: &str = "serve.cache.evictions";
/// Persisted index stripes loaded from disk.
pub const CTR_INDEX_STRIPES_LOADED: &str = "index.stripes_loaded";
/// MMseqs2-like baseline: prefilter tables reused from a persisted
/// index directory instead of being rebuilt.
pub const CTR_INDEX_PREFILTER_REUSED: &str = "index.prefilter_reused";

// --- Engine counters. ---

/// Units the unified pool's workers claimed from the other engine's
/// backlog.
pub const CTR_POOL_STEALS: &str = "pool.steals";
/// Numeric id of the SIMD backend the alignment kernel ran on.
pub const CTR_ALIGN_SIMD_BACKEND: &str = "align.simd_backend";
/// Lanes promoted from i16 to i32 on saturation rescue.
pub const CTR_ALIGN_LANE_PROMOTIONS: &str = "align.lane_promotions";
/// DP cells the pair-per-lane vectors updated, score-only or traceback,
/// padding included (`cells` over this is the useful share of the vector
/// work).
pub const CTR_ALIGN_PADDED_CELLS: &str = "align.padded_cells";
/// SpGEMM kernel dispatches: auto selector invoked.
pub const CTR_SPGEMM_KERNEL_AUTO: &str = "spgemm.kernel.auto";
/// SpGEMM kernel dispatches: hash kernel.
pub const CTR_SPGEMM_KERNEL_HASH: &str = "spgemm.kernel.hash";
/// SpGEMM kernel dispatches: heap kernel.
pub const CTR_SPGEMM_KERNEL_HEAP: &str = "spgemm.kernel.heap";
/// SpGEMM kernel dispatches: parallel row-partitioned kernel.
pub const CTR_SPGEMM_KERNEL_PARALLEL: &str = "spgemm.kernel.parallel";
/// Output rows the SpGEMM row kernel accumulated in its dense array.
pub const CTR_SPGEMM_ACC_DENSE_ROWS: &str = "spgemm.acc.dense_rows";
/// Of the dense rows, those drained by the in-order scan (the rest sort
/// their touched-column list).
pub const CTR_SPGEMM_ACC_SCAN_ROWS: &str = "spgemm.acc.scan_rows";
/// Output rows the SpGEMM row kernel accumulated in its hash table.
pub const CTR_SPGEMM_ACC_TABLE_ROWS: &str = "spgemm.acc.table_rows";
/// The three `spgemm.acc.*` counters, in the order dense, scan, table.
pub const SPGEMM_ACC_COUNTERS: [&str; 3] = [
    CTR_SPGEMM_ACC_DENSE_ROWS,
    CTR_SPGEMM_ACC_SCAN_ROWS,
    CTR_SPGEMM_ACC_TABLE_ROWS,
];

// --- Checkpoint / resume counters. ---

/// Block index the run resumed from (0 when fresh).
pub const CTR_RESUME_FROM_BLOCK: &str = "resume.from_block";
/// Checkpoint block shards written by this rank.
pub const CTR_CHECKPOINT_BLOCKS_WRITTEN: &str = "checkpoint.blocks_written";
/// Baseline checkpoint units written by this rank.
pub const CTR_CHECKPOINT_UNITS_WRITTEN: &str = "checkpoint.units_written";
/// Best-effort checkpoint writes that failed (non-fatal).
pub const CTR_CHECKPOINT_WRITE_FAILED: &str = "checkpoint.write_failed";

// --- Straggler scan counters. ---

/// Median of the all-gathered per-rank block seconds.
pub const CTR_STRAGGLER_MEDIAN_SECONDS: &str = "straggler.median_seconds";
/// This rank's own block seconds as seen by the scan.
pub const CTR_STRAGGLER_SELF_SECONDS: &str = "straggler.self_seconds";
/// 1.0 when the scan flagged this rank as a straggler.
pub const CTR_STRAGGLER_FLAGGED: &str = "straggler.flagged";
/// Cross-rank max/avg imbalance factor of the block seconds (identical
/// on every rank; recorded once per rank for the aggregator).
pub const CTR_STRAGGLER_IMBALANCE_FACTOR: &str = "straggler.imbalance_factor";

// --- Fault-injection counters (`FaultyComm`). ---

/// Injected op delays taken.
pub const CTR_FAULT_DELAYS: &str = "fault.delays";
/// Injected p2p frame drops.
pub const CTR_FAULT_DROPS: &str = "fault.drops";
/// Injected p2p frame corruptions.
pub const CTR_FAULT_CORRUPTS: &str = "fault.corrupts";
/// Frames rejected by CRC validation on receive.
pub const CTR_FAULT_CRC_REJECTS: &str = "fault.crc_rejects";
/// Receive retries after a reject or drop.
pub const CTR_FAULT_RETRIES: &str = "fault.retries";
/// Injected op stalls taken.
pub const CTR_FAULT_STALLS: &str = "fault.stalls";
/// Baseline best-effort checkpoint saves that hit an I/O error
/// (mirrors [`CTR_CHECKPOINT_WRITE_FAILED`] into the fault family so the
/// end-of-run report can warn about degraded restartability).
pub const CTR_FAULT_CKPT_SAVE_FAILED: &str = "fault.ckpt_save_failed";

// --- Memory budget / spill counters. ---

/// Bytes of completed output blocks and index shards written to spill.
pub const CTR_SPILL_BYTES_OUT: &str = "spill.bytes_out";
/// Bytes streamed back from spill on demand.
pub const CTR_SPILL_BYTES_IN: &str = "spill.bytes_in";
/// Shards written to the spill directory.
pub const CTR_SPILL_BLOCKS_OUT: &str = "spill.blocks_out";
/// Shards streamed back (CRC-verified) from the spill directory.
pub const CTR_SPILL_BLOCKS_IN: &str = "spill.blocks_in";
/// Spilled shards rejected by CRC validation on readback.
pub const CTR_SPILL_CRC_REJECTS: &str = "spill.crc_rejects";
/// Output blocks recomputed because their spilled shard was unreadable.
pub const CTR_SPILL_RECOMPUTES: &str = "spill.recomputes";
/// Peak live bytes the memory accountant observed on this rank.
pub const CTR_MEM_HIGH_WATER: &str = "mem.high_water";
/// Index stripes dropped after the sparse phase of the last scheduled
/// block that reads them (under a budget, only those with a verified spill
/// copy on disk).
pub const CTR_MEM_STRIPES_RELEASED: &str = "mem.stripes_released";
/// Blocks run with broadcast prefetch paused under budget pressure.
pub const CTR_MEM_BACKPRESSURE_PREFETCH_PAUSED: &str = "mem.backpressure.prefetch_paused";
/// Align batches split into smaller sequential slices under pressure.
pub const CTR_MEM_BACKPRESSURE_BATCH_SHRUNK: &str = "mem.backpressure.batch_shrunk";

// --- Spill fault-injection counters (`FaultyStore`). ---

/// Injected spill-write corruptions.
pub const CTR_FAULT_SPILL_CORRUPTS: &str = "fault.spill.corrupts";
/// Injected spill-write disk-full failures.
pub const CTR_FAULT_SPILL_DISK_FULL: &str = "fault.spill.disk_full";
/// Injected spill-write short (truncated) writes.
pub const CTR_FAULT_SPILL_SHORT_WRITES: &str = "fault.spill.short_writes";
/// Injected spill-write stalls taken.
pub const CTR_FAULT_SPILL_STALLS: &str = "fault.spill.stalls";

/// Every counter name the workspace emits, in display order.
pub const KNOWN_COUNTERS: &[&str] = &[
    CTR_CANDIDATES,
    CTR_ALIGNED_PAIRS,
    CTR_CELLS,
    CTR_SIMILAR_PAIRS,
    CTR_ALIGN_SECONDS,
    CTR_SPARSE_SECONDS,
    CTR_ALIGN_CPU_SECONDS,
    CTR_PREFILTER_CANDIDATES,
    CTR_SERVE_REQUESTS,
    CTR_SERVE_BATCHES,
    CTR_SERVE_CACHE_HIT,
    CTR_SERVE_CACHE_MISS,
    CTR_SERVE_CACHE_EVICTIONS,
    CTR_INDEX_STRIPES_LOADED,
    CTR_INDEX_PREFILTER_REUSED,
    CTR_POOL_STEALS,
    CTR_ALIGN_SIMD_BACKEND,
    CTR_ALIGN_LANE_PROMOTIONS,
    CTR_ALIGN_PADDED_CELLS,
    CTR_SPGEMM_KERNEL_AUTO,
    CTR_SPGEMM_KERNEL_HASH,
    CTR_SPGEMM_KERNEL_HEAP,
    CTR_SPGEMM_KERNEL_PARALLEL,
    CTR_SPGEMM_ACC_DENSE_ROWS,
    CTR_SPGEMM_ACC_SCAN_ROWS,
    CTR_SPGEMM_ACC_TABLE_ROWS,
    CTR_RESUME_FROM_BLOCK,
    CTR_CHECKPOINT_BLOCKS_WRITTEN,
    CTR_CHECKPOINT_UNITS_WRITTEN,
    CTR_CHECKPOINT_WRITE_FAILED,
    CTR_STRAGGLER_MEDIAN_SECONDS,
    CTR_STRAGGLER_SELF_SECONDS,
    CTR_STRAGGLER_FLAGGED,
    CTR_STRAGGLER_IMBALANCE_FACTOR,
    CTR_FAULT_DELAYS,
    CTR_FAULT_DROPS,
    CTR_FAULT_CORRUPTS,
    CTR_FAULT_CRC_REJECTS,
    CTR_FAULT_RETRIES,
    CTR_FAULT_STALLS,
    CTR_FAULT_CKPT_SAVE_FAILED,
    CTR_SPILL_BYTES_OUT,
    CTR_SPILL_BYTES_IN,
    CTR_SPILL_BLOCKS_OUT,
    CTR_SPILL_BLOCKS_IN,
    CTR_SPILL_CRC_REJECTS,
    CTR_SPILL_RECOMPUTES,
    CTR_MEM_HIGH_WATER,
    CTR_MEM_STRIPES_RELEASED,
    CTR_MEM_BACKPRESSURE_PREFETCH_PAUSED,
    CTR_MEM_BACKPRESSURE_BATCH_SHRUNK,
    CTR_FAULT_SPILL_CORRUPTS,
    CTR_FAULT_SPILL_DISK_FULL,
    CTR_FAULT_SPILL_SHORT_WRITES,
    CTR_FAULT_SPILL_STALLS,
];

/// Whether `name` is a registered span name.
pub fn is_known_span(name: &str) -> bool {
    KNOWN_SPANS.contains(&name)
}

/// Whether `name` is a registered counter name.
pub fn is_known_counter(name: &str) -> bool {
    KNOWN_COUNTERS.contains(&name)
}

/// The pipeline phases the critical-path extractor attributes end-to-end
/// wall-clock to, in pipeline order. Every main-track second of a
/// production run falls under one of these (plus the comm-prefetch track's
/// [`SPAN_SUMMA_BCAST_PREFETCH`], reported separately as hidden time).
pub const CRITICAL_PHASES: &[&str] = &[
    SPAN_IO_READ,
    SPAN_KMER_MATRIX,
    SPAN_SEQ_EXCHANGE_RECV,
    SPAN_SUMMA_BLOCK,
    SPAN_ALIGN_BATCH,
    SPAN_OUTPUT_ASSEMBLY,
    SPAN_IO_WRITE,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_duplicate_free() {
        for (i, a) in KNOWN_SPANS.iter().enumerate() {
            assert!(!KNOWN_SPANS[..i].contains(a), "duplicate span {a}");
        }
        for (i, a) in KNOWN_COUNTERS.iter().enumerate() {
            assert!(!KNOWN_COUNTERS[..i].contains(a), "duplicate counter {a}");
        }
    }

    #[test]
    fn lookups_work() {
        assert!(is_known_span(SPAN_SUMMA_BLOCK));
        assert!(is_known_counter(CTR_POOL_STEALS));
        assert!(!is_known_span("summa.blok"));
        assert!(!is_known_counter("pool.steal"));
    }

    #[test]
    fn critical_phases_are_registered_spans() {
        for p in CRITICAL_PHASES {
            assert!(is_known_span(p), "{p} not in KNOWN_SPANS");
        }
    }
}
