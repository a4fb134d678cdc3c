//! Intra-rank parallel batch-alignment engine — the ADEPT driver analog.
//!
//! ADEPT feeds a GPU thousands of independent alignments that advance in
//! lock-step; on the CPU the same parallelism maps onto nested levels,
//! all provided here:
//!
//! * **A worker pool** ([`AlignPool`]): an `AlignTask` batch is split into
//!   units that `t` scoped threads claim from a shared atomic counter
//!   (dynamic self-scheduling, so ragged task costs balance), with results
//!   re-assembled **in task order**. Every task is computed by the same
//!   scalar kernel regardless of which worker claims it, so output is
//!   bit-identical to the serial driver for any thread count — the same
//!   determinism contract the SUMMA layer pins down.
//! * **Multilane packing** ([`AlignPool::run_score_only`]): score-only
//!   work is sorted by length into ragged lanes and dispatched through the
//!   vector kernel ([`crate::multilane`]) at the selected backend's lane
//!   width ([`AlignPool::with_simd`]; AVX2 16, SSE2/NEON 8, portable 16),
//!   falling back to scalar [`sw_score_only`] for oversized tasks. The
//!   lane plan is a pure function of the task list and lane width, never
//!   of the thread count, and the vector kernel is padding-invariant and
//!   bit-identical to the scalar one (its i16 saturation rescue re-scores
//!   through scalar i32), so scores stay bit-identical here too — across
//!   thread counts *and* backends. The kernel's rows and shuffle indices
//!   live in the per-thread scratch the traceback kernels use, and a
//!   lane's results come back in a fixed array, so a batch allocates per
//!   call, not per lane.
//!
//! * **Traceback lanes** ([`AlignPool::run_traceback`]): the same lane
//!   plan, and the same kernel with a pair in each lane, now also writing
//!   what a traceback needs of every cell; a walk per lane follows. The
//!   direction matrix of a whole chunk has to stay cache-resident for
//!   that to pay, so a chunk over a byte cap, or under half full, runs its
//!   pairs one at a time with the anti-diagonal of the pair's DP matrix
//!   in a vector ([`crate::tblanes`]). The choice is a function of the
//!   chunk's shape alone. Both are bit-identical to
//!   [`sw_align`](crate::sw::sw_align), which stays the per-pair
//!   fallback; direction bytes live in a per-thread scratch that is
//!   reused from chunk to chunk and pair to pair.
//!
//! Seed-anchored banded work ([`AlignPool::run_banded`]) parallelizes over
//! the scalar kernel only — its exploration set depends on per-pair seeds,
//! which does not fit lock-step lanes.
//!
//! Time accounting: the returned [`BatchStats`] carries the wall-vs-CPU
//! split — `seconds` sums worker busy time, `wall_seconds` is elapsed.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pastis_pool::{Engine, WorkPool};
use pastis_trace::{names, Component, Recorder, Track};

use crate::banded::sw_banded;
use crate::batch::{AlignTask, BatchStats};
use crate::matrices::Scoring;
use crate::multilane::{align_lanes_chunk, score_lanes_into, LaneTable, TRACE_CAP_BYTES};
use crate::simd::{SimdBackend, MAX_LANES};
use crate::sw::{
    sw_align_in, sw_score_only, with_scratch, AlignmentResult, GapPenalties, TbScratch,
};
use crate::tblanes::sw_align_lanes;

/// Scalar tasks claimed per unit of work. Small enough for dynamic load
/// balance over ragged lengths, large enough to amortize the atomic claim.
const CHUNK: usize = 32;

/// Sequences longer than this skip the multilane path: one huge lane
/// member would pad every companion to its dimensions, and the lane's
/// working set would fall out of cache.
const OVERSIZED_LEN: usize = 4096;

/// Score and exact work of one score-only or banded task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreResult {
    /// Optimal local score found by the kernel (≥ 0).
    pub score: i32,
    /// DP cells attributed to the task (`|q|·|r|` for full-matrix
    /// kernels; explored cells for the banded kernel).
    pub cells: u64,
}

/// Persistent-for-the-batch worker pool executing alignment batches as
/// atomically-claimed units across `t` threads.
#[derive(Debug, Clone)]
pub struct AlignPool {
    threads: usize,
    recorder: Recorder,
    simd: SimdBackend,
    workers: Option<WorkPool>,
}

impl AlignPool {
    /// A pool of `threads` workers; `0` means one per available core.
    /// Telemetry is off until [`AlignPool::with_recorder`] attaches a
    /// sink; the vector backend defaults to the best one the host
    /// supports ([`SimdBackend::detect`]).
    pub fn new(threads: usize) -> AlignPool {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        AlignPool {
            threads,
            recorder: Recorder::disabled(),
            simd: SimdBackend::detect(),
            workers: None,
        }
    }

    /// Submit batches to a shared [`WorkPool`] instead of spawning scoped
    /// threads per batch: units become pool jobs an idle sparse worker can
    /// steal (and vice versa), the pool's size supersedes this pool's own
    /// thread knob, and per-unit `align.unit` spans land on
    /// [`Track::PoolWorker`] sub-tracks. Results stay bit-identical — the
    /// units and their unit-order reassembly are unchanged.
    pub fn with_workers(mut self, workers: WorkPool) -> AlignPool {
        self.workers = Some(workers);
        self
    }

    /// The attached unified pool, if any.
    pub fn workers(&self) -> Option<&WorkPool> {
        self.workers.as_ref()
    }

    /// Attach a telemetry recorder: each batch then emits one
    /// `align.worker` span per claiming worker on its
    /// [`Track::AlignWorker`] sub-track (occupancy view), tagged with the
    /// units/pairs/cells that worker processed. Observation-only — results
    /// are unchanged.
    pub fn with_recorder(mut self, recorder: Recorder) -> AlignPool {
        self.recorder = recorder;
        self
    }

    /// Select the vector backend for traceback and score-only dispatch
    /// (an unavailable backend degrades to the portable lanes; callers
    /// that must reject that case validate through
    /// [`crate::simd::SimdPolicy::resolve`] first). Results are
    /// bit-identical for every choice — only throughput changes.
    pub fn with_simd(mut self, simd: SimdBackend) -> AlignPool {
        self.simd = simd;
        self
    }

    /// Worker count this pool dispatches to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Vector backend traceback and score-only batches dispatch through.
    pub fn simd(&self) -> SimdBackend {
        self.simd
    }

    /// Full Smith–Waterman with traceback over every task; results in task
    /// order, every field equal to [`sw_align`](crate::sw::sw_align)'s, for
    /// every thread count and every backend.
    ///
    /// Tasks are packed into lane chunks as for
    /// [`AlignPool::run_score_only`]. A chunk runs with a pair in each
    /// lane ([`crate::multilane`]) when it fills at least half the vector
    /// and its direction matrix stays under
    /// [`TRACE_CAP_BYTES`](crate::multilane); otherwise its pairs run one
    /// at a time, an anti-diagonal per vector ([`crate::tblanes`]). A pair
    /// the i16 lanes cannot do exactly (its score reaches `i16::MAX`, its
    /// reference is longer than the lane counters, or the scoring model
    /// fails [`LaneTable::build`]) goes through `sw_align` and is counted
    /// in `lane_promotions`.
    pub fn run_traceback<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
    ) -> (Vec<AlignmentResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        self.run_traceback_capped(tasks, lookup, scoring, gaps, TRACE_CAP_BYTES)
    }

    /// [`AlignPool::run_traceback`] with the direction-matrix cap as a
    /// parameter, so that tests can put a chunk on either side of it.
    pub(crate) fn run_traceback_capped<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
        cap: usize,
    ) -> (Vec<AlignmentResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        let backend = self.simd.or_portable();
        let table = LaneTable::build(scoring, gaps);
        let plan = LanePlan::build(tasks, &lookup, backend.lanes());
        // As for score-only, a unit's payload is a fixed array in lane
        // order; an empty result owns no allocation.
        let (unit_results, mut stats) = self.execute_units(plan.units.len(), |u, local| {
            let mut out: [AlignmentResult; MAX_LANES] =
                std::array::from_fn(|_| AlignmentResult::empty(0, 0));
            with_scratch(|scratch| {
                trace_lane(
                    plan.members(u),
                    tasks,
                    &lookup,
                    scoring,
                    gaps,
                    backend,
                    table.as_ref(),
                    cap,
                    scratch,
                    local,
                    &mut out,
                )
            });
            out
        });
        stats.simd = backend;
        self.recorder.add_counter(
            names::CTR_ALIGN_LANE_PROMOTIONS,
            stats.lane_promotions as f64,
        );
        self.recorder
            .add_counter(names::CTR_ALIGN_PADDED_CELLS, stats.padded_cells as f64);
        // Move lane-ordered results to task order.
        let mut results = vec![AlignmentResult::empty(0, 0); tasks.len()];
        for (u, out) in unit_results.into_iter().enumerate() {
            for (&idx, r) in plan.members(u).iter().zip(out) {
                results[idx] = r;
            }
        }
        (results, stats)
    }

    /// Seed-anchored banded Smith–Waterman (half-width `w`) over every
    /// task, in parallel chunks; results in task order.
    pub fn run_banded<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
        w: usize,
    ) -> (Vec<ScoreResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        let n_units = tasks.len().div_ceil(CHUNK);
        let (chunks, stats) = self.execute_units(n_units, |u, local| {
            let range = chunk_range(u, tasks.len());
            let mut out = Vec::with_capacity(range.len());
            for t in &tasks[range] {
                let b = sw_banded(
                    lookup(t.query),
                    lookup(t.reference),
                    scoring,
                    gaps,
                    t.seed_q as usize,
                    t.seed_r as usize,
                    w,
                );
                local.pairs += 1;
                local.cells += b.cells;
                local.max_cells = local.max_cells.max(b.cells);
                out.push(ScoreResult {
                    score: b.score,
                    cells: b.cells,
                });
            }
            out
        });
        (chunks.concat(), stats)
    }

    /// Full-matrix score-only alignment over every task, dispatched
    /// through the multilane vector kernel where possible.
    ///
    /// Tasks are sorted by length into lanes of the selected backend's
    /// width (so lane members pad against near-equals); oversized tasks
    /// run through scalar [`sw_score_only`]. The plan depends only on the
    /// task list and lane width, and the vector kernel is bit-identical
    /// to the scalar one (saturated lanes are promoted to the scalar i32
    /// kernel), so results match the serial scalar driver for every
    /// thread count and every backend. The returned stats carry the
    /// backend used, the promotion count and the cells the vectors
    /// updated with padding (`padded_cells`, also the
    /// `align.padded_cells` counter).
    pub fn run_score_only<'a, S, L>(
        &self,
        tasks: &[AlignTask],
        lookup: L,
        scoring: &S,
        gaps: GapPenalties,
    ) -> (Vec<ScoreResult>, BatchStats)
    where
        S: Scoring + Sync,
        L: Fn(u32) -> &'a [u8] + Sync,
    {
        let backend = self.simd.or_portable();
        let table = LaneTable::build(scoring, gaps);
        let plan = LanePlan::build(tasks, &lookup, backend.lanes());
        // A unit's payload is its members' results in lane order, in a
        // fixed array: no allocation per unit.
        let (unit_results, mut stats) = self.execute_units(plan.units.len(), |u, local| {
            let mut out = [ScoreResult::default(); MAX_LANES];
            match plan.units[u] {
                LaneUnit::Lane { start, len } => with_scratch(|scratch| {
                    run_lane(
                        &plan.order[start..start + len],
                        tasks,
                        &lookup,
                        scoring,
                        gaps,
                        backend,
                        table.as_ref(),
                        scratch,
                        local,
                        &mut out,
                    )
                }),
                LaneUnit::Scalar(idx) => {
                    let t = &tasks[idx];
                    let (score, _, _, cells) =
                        sw_score_only(lookup(t.query), lookup(t.reference), scoring, gaps);
                    local.pairs += 1;
                    local.cells += cells;
                    local.max_cells = local.max_cells.max(cells);
                    out[0] = ScoreResult { score, cells };
                }
            }
            out
        });
        stats.simd = backend;
        self.recorder.add_counter(
            names::CTR_ALIGN_LANE_PROMOTIONS,
            stats.lane_promotions as f64,
        );
        self.recorder
            .add_counter(names::CTR_ALIGN_PADDED_CELLS, stats.padded_cells as f64);
        // Scatter lane-ordered results back to task order.
        let mut results = vec![ScoreResult::default(); tasks.len()];
        for (u, out) in unit_results.iter().enumerate() {
            for (&idx, &r) in plan.members(u).iter().zip(out) {
                results[idx] = r;
            }
        }
        (results, stats)
    }

    /// Dynamic self-scheduling core: `run_unit(u, &mut local_stats)` is
    /// called exactly once for each `u < n_units`, by whichever worker
    /// claims `u` from the shared counter. Returns per-unit payloads in
    /// unit order plus merged stats (busy-time sum in `seconds`, elapsed
    /// in `wall_seconds`).
    fn execute_units<P, F>(&self, n_units: usize, run_unit: F) -> (Vec<P>, BatchStats)
    where
        P: Send,
        F: Fn(usize, &mut BatchStats) -> P + Sync,
    {
        let wall = Instant::now();
        if let Some(wp) = &self.workers {
            return self.execute_units_pooled(wp, n_units, run_unit, wall);
        }
        let workers = self.threads.min(n_units.max(1));
        let (payloads, mut stats) = if workers <= 1 {
            let busy = Instant::now();
            let mut span = self.worker_span(0);
            let mut local = BatchStats::default();
            let out = (0..n_units).map(|u| run_unit(u, &mut local)).collect();
            local.seconds = busy.elapsed().as_secs_f64();
            if let Some(span) = span.as_mut() {
                tag_worker_span(span, n_units as u64, &local);
            }
            (out, local)
        } else {
            let next = AtomicUsize::new(0);
            let worker = |w: u32| {
                let busy = Instant::now();
                let mut span = self.worker_span(w);
                let mut local = BatchStats::default();
                let mut out = Vec::new();
                loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= n_units {
                        break;
                    }
                    out.push((u, run_unit(u, &mut local)));
                }
                local.seconds = busy.elapsed().as_secs_f64();
                if let Some(span) = span.as_mut() {
                    tag_worker_span(span, out.len() as u64, &local);
                }
                (out, local)
            };
            // The calling thread is worker 0, so `threads = t` occupies
            // exactly t OS threads — important under pre-blocking, where a
            // concurrent sparse thread already owns the communicator.
            std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> = (1..workers)
                    .map(|w| scope.spawn(move || worker(w as u32)))
                    .collect();
                let mut tagged: Vec<(usize, P)> = Vec::with_capacity(n_units);
                let (own_out, own_local) = worker(0);
                tagged.extend(own_out);
                let mut merged = own_local;
                for h in handles {
                    let (out, local) = h.join().expect("alignment worker panicked");
                    tagged.extend(out);
                    merged.pairs += local.pairs;
                    merged.cells += local.cells;
                    merged.max_cells = merged.max_cells.max(local.max_cells);
                    merged.lane_promotions += local.lane_promotions;
                    merged.padded_cells += local.padded_cells;
                    merged.seconds += local.seconds;
                }
                tagged.sort_unstable_by_key(|&(u, _)| u);
                (tagged.into_iter().map(|(_, p)| p).collect(), merged)
            })
        };
        stats.wall_seconds = wall.elapsed().as_secs_f64();
        (payloads, stats)
    }

    /// [`AlignPool::execute_units`] on the unified pool: each unit is a
    /// claimable pool job unit, run by whichever pool worker (or the
    /// submitting thread) takes it — including workers that just finished
    /// sparse chunks. Per-unit payload/stat pairs come back in unit order,
    /// so the merge below reproduces the scoped path's totals exactly.
    fn execute_units_pooled<P, F>(
        &self,
        wp: &WorkPool,
        n_units: usize,
        run_unit: F,
        wall: Instant,
    ) -> (Vec<P>, BatchStats)
    where
        P: Send,
        F: Fn(usize, &mut BatchStats) -> P + Sync,
    {
        let unit_out: Vec<(P, BatchStats)> = wp.run(Engine::Align, n_units, |u, slot| {
            let busy = Instant::now();
            let mut span = self.recorder.is_enabled().then(|| {
                self.recorder
                    .span(Component::Align, names::SPAN_ALIGN_UNIT)
                    .on_track(Track::PoolWorker(slot as u32))
                    .arg("unit", u as u64)
            });
            let mut local = BatchStats::default();
            let p = run_unit(u, &mut local);
            local.seconds = busy.elapsed().as_secs_f64();
            if let Some(span) = span.as_mut() {
                span.push_arg("pairs", local.pairs);
                span.push_arg("cells", local.cells);
            }
            (p, local)
        });
        let mut merged = BatchStats::default();
        let payloads = unit_out
            .into_iter()
            .map(|(p, local)| {
                merged.pairs += local.pairs;
                merged.cells += local.cells;
                merged.max_cells = merged.max_cells.max(local.max_cells);
                merged.lane_promotions += local.lane_promotions;
                merged.padded_cells += local.padded_cells;
                merged.seconds += local.seconds;
                p
            })
            .collect();
        merged.wall_seconds = wall.elapsed().as_secs_f64();
        (payloads, merged)
    }

    /// Open worker `w`'s occupancy span on its sub-track, or `None` with
    /// telemetry disabled (skipping even the guard construction).
    fn worker_span(&self, w: u32) -> Option<pastis_trace::SpanGuard> {
        if !self.recorder.is_enabled() {
            return None;
        }
        Some(
            self.recorder
                .span(Component::Align, names::SPAN_ALIGN_WORKER)
                .on_track(Track::AlignWorker(w)),
        )
    }
}

/// Attach the per-worker outcome counters to its occupancy span.
fn tag_worker_span(span: &mut pastis_trace::SpanGuard, units: u64, local: &BatchStats) {
    span.push_arg("units", units);
    span.push_arg("pairs", local.pairs);
    span.push_arg("cells", local.cells);
}

fn chunk_range(unit: usize, total: usize) -> Range<usize> {
    unit * CHUNK..((unit + 1) * CHUNK).min(total)
}

/// One claimable unit of lane work. Lane units carry the offset and
/// length of their member run in [`LanePlan::order`].
#[derive(Debug, Clone, Copy)]
enum LaneUnit {
    Lane { start: usize, len: usize },
    Scalar(usize),
}

/// Deterministic length-bucketed packing of a score-only or traceback
/// batch.
struct LanePlan {
    /// Lane-eligible task indices, sorted by descending max sequence
    /// length (ties by index) so lane members pad against near-equals.
    order: Vec<usize>,
    units: Vec<LaneUnit>,
}

impl LanePlan {
    /// Pack `tasks` into lanes of width `w` (the backend's lane count);
    /// the final lane may be partial — a part-filled vector costs the
    /// same as a full one, so there is no scalar tail.
    fn build<'a, L: Fn(u32) -> &'a [u8]>(tasks: &[AlignTask], lookup: &L, w: usize) -> LanePlan {
        let mut order = Vec::with_capacity(tasks.len());
        let mut units = Vec::new();
        for (idx, t) in tasks.iter().enumerate() {
            let max_len = lookup(t.query).len().max(lookup(t.reference).len());
            if max_len > OVERSIZED_LEN {
                units.push(LaneUnit::Scalar(idx));
            } else {
                order.push((max_len, idx));
            }
        }
        order.sort_unstable_by(|a, b| b.cmp(a));
        let order: Vec<usize> = order.into_iter().map(|(_, idx)| idx).collect();
        units.reserve_exact(order.len().div_ceil(w));
        let mut pos = 0;
        while pos < order.len() {
            let len = w.min(order.len() - pos);
            units.push(LaneUnit::Lane { start: pos, len });
            pos += len;
        }
        LanePlan { order, units }
    }

    /// Task indices of unit `u`, in lane order.
    fn members(&self, u: usize) -> &[usize] {
        match &self.units[u] {
            LaneUnit::Lane { start, len } => &self.order[*start..*start + *len],
            LaneUnit::Scalar(idx) => std::slice::from_ref(idx),
        }
    }
}

/// The queries and references of a unit's members, in lane order.
fn gather_members<'a, L: Fn(u32) -> &'a [u8]>(
    members: &[usize],
    tasks: &[AlignTask],
    lookup: &L,
) -> ([&'a [u8]; MAX_LANES], [&'a [u8]; MAX_LANES]) {
    debug_assert!(!members.is_empty() && members.len() <= MAX_LANES);
    let mut qs: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
    let mut rs: [&[u8]; MAX_LANES] = [&[]; MAX_LANES];
    for (l, &idx) in members.iter().enumerate() {
        qs[l] = lookup(tasks[idx].query);
        rs[l] = lookup(tasks[idx].reference);
    }
    (qs, rs)
}

/// Executes one lane unit: gathers the member pairs, runs the vector
/// kernel (with its exact overflow rescue) on the thread's scratch, and
/// records per-member results in lane order and exact (unpadded) cell
/// counts.
#[allow(clippy::too_many_arguments)]
fn run_lane<'a, S, L>(
    members: &[usize],
    tasks: &[AlignTask],
    lookup: &L,
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
    table: Option<&LaneTable>,
    scratch: &mut TbScratch,
    local: &mut BatchStats,
    out: &mut [ScoreResult; MAX_LANES],
) where
    S: Scoring,
    L: Fn(u32) -> &'a [u8],
{
    let (qs, rs) = gather_members(members, tasks, lookup);
    let mut scores = [0i32; MAX_LANES];
    let n = members.len();
    let work = score_lanes_into(
        &qs[..n],
        &rs[..n],
        scoring,
        gaps,
        backend,
        table,
        scratch,
        &mut scores[..n],
    );
    local.lane_promotions += work.promotions;
    local.padded_cells += work.padded_cells;
    for l in 0..n {
        let cells = qs[l].len() as u64 * rs[l].len() as u64;
        local.pairs += 1;
        local.cells += cells;
        local.max_cells = local.max_cells.max(cells);
        out[l] = ScoreResult {
            score: scores[l],
            cells,
        };
    }
}

/// Executes one traceback unit: the chunk with a pair in each lane if
/// [`align_lanes_chunk`] takes it, otherwise (a thin or oversized unit, a
/// matrix over `cap`) its pairs one after the other on the anti-diagonal
/// lanes; whatever neither could do exactly goes through the scalar
/// kernel. Results in lane order.
#[allow(clippy::too_many_arguments)]
fn trace_lane<'a, S, L>(
    members: &[usize],
    tasks: &[AlignTask],
    lookup: &L,
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
    table: Option<&LaneTable>,
    cap: usize,
    scratch: &mut TbScratch,
    local: &mut BatchStats,
    out: &mut [AlignmentResult; MAX_LANES],
) where
    S: Scoring,
    L: Fn(u32) -> &'a [u8],
{
    let (qs, rs) = gather_members(members, tasks, lookup);
    let mut on_lanes: [Option<AlignmentResult>; MAX_LANES] = [const { None }; MAX_LANES];
    let n = members.len();
    let (qs, rs, on_lanes) = (&qs[..n], &rs[..n], &mut on_lanes[..n]);
    let cells = |l: usize| qs[l].len() as u64 * rs[l].len() as u64;
    if let Some(table) = table {
        match align_lanes_chunk(backend, qs, rs, table, cap, scratch, on_lanes) {
            Some(padded_cells) => local.padded_cells += padded_cells,
            None => {
                for (l, res) in on_lanes.iter_mut().enumerate() {
                    *res = sw_align_lanes(backend, qs[l], rs[l], table, scratch);
                    // Nothing is padded here that is counted: the pair
                    // weighs its own cells, if the lanes took it.
                    if res.is_some() {
                        local.padded_cells += cells(l);
                    }
                }
            }
        }
    }
    for (l, (res, out)) in on_lanes.iter_mut().zip(out).enumerate() {
        *out = res.take().unwrap_or_else(|| {
            local.lane_promotions += 1;
            sw_align_in(qs[l], rs[l], scoring, gaps, scratch)
        });
        local.pairs += 1;
        local.cells += cells(l);
        local.max_cells = local.max_cells.max(cells(l));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchAligner;
    use crate::matrices::{encode, Blosum62};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, max_len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(0..=max_len);
                (0..len).map(|_| rng.gen_range(0u8..21)).collect()
            })
            .collect()
    }

    fn random_tasks(n_seqs: usize, n_tasks: usize, seed: u64) -> Vec<AlignTask> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_tasks)
            .map(|_| AlignTask {
                query: rng.gen_range(0..n_seqs as u32),
                reference: rng.gen_range(0..n_seqs as u32),
                seed_q: 0,
                seed_r: 0,
            })
            .collect()
    }

    #[test]
    fn pool_zero_threads_means_auto() {
        assert!(AlignPool::new(0).threads() >= 1);
        assert_eq!(AlignPool::new(3).threads(), 3);
    }

    #[test]
    fn traceback_matches_serial_for_every_thread_count() {
        let seqs = random_store(12, 40, 1);
        let tasks = random_tasks(12, 70, 2);
        let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
        let (want, want_stats) = aligner.run_batch(&tasks, |id| &seqs[id as usize]);
        for t in [1, 2, 3, 8] {
            let pool = AlignPool::new(t);
            let (got, stats) = pool.run_traceback(
                &tasks,
                |id| &seqs[id as usize],
                &Blosum62,
                GapPenalties::pastis_defaults(),
            );
            assert_eq!(got, want, "t={t}");
            assert_eq!(stats.pairs, want_stats.pairs, "t={t}");
            assert_eq!(stats.cells, want_stats.cells, "t={t}");
            assert_eq!(stats.max_cells, want_stats.max_cells, "t={t}");
        }
    }

    #[test]
    fn banded_matches_serial_kernel() {
        let seqs = random_store(10, 50, 3);
        let tasks = random_tasks(10, 40, 4);
        let g = GapPenalties::pastis_defaults();
        for t in [1, 4] {
            let (got, stats) =
                AlignPool::new(t).run_banded(&tasks, |id| &seqs[id as usize], &Blosum62, g, 5);
            for (k, task) in tasks.iter().enumerate() {
                let want = sw_banded(
                    &seqs[task.query as usize],
                    &seqs[task.reference as usize],
                    &Blosum62,
                    g,
                    0,
                    0,
                    5,
                );
                assert_eq!(got[k].score, want.score, "t={t} task {k}");
                assert_eq!(got[k].cells, want.cells, "t={t} task {k}");
            }
            assert_eq!(stats.pairs, tasks.len() as u64);
        }
    }

    #[test]
    fn score_only_matches_scalar_kernel() {
        let seqs = random_store(16, 60, 5);
        // 70 tasks ⇒ the plan exercises full lanes plus a partial tail
        // lane for every backend width (70 mod 16 = 6, 70 mod 8 = 6).
        let tasks = random_tasks(16, 70, 6);
        let g = GapPenalties::pastis_defaults();
        for t in [1, 2, 3, 8] {
            let (got, stats) =
                AlignPool::new(t).run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            for (k, task) in tasks.iter().enumerate() {
                let (score, _, _, cells) = sw_score_only(
                    &seqs[task.query as usize],
                    &seqs[task.reference as usize],
                    &Blosum62,
                    g,
                );
                assert_eq!(got[k].score, score, "t={t} task {k}");
                assert_eq!(got[k].cells, cells, "t={t} task {k}");
            }
            assert_eq!(stats.pairs, tasks.len() as u64);
        }
    }

    #[test]
    fn lane_plan_is_exhaustive_and_deterministic() {
        let seqs = random_store(9, 30, 7);
        let tasks = random_tasks(9, 53, 8);
        let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
        for width in [4usize, 8, 16] {
            let plan = LanePlan::build(&tasks, &lookup, width);
            // Every task appears in exactly one unit.
            let mut seen = vec![0u32; tasks.len()];
            for unit in &plan.units {
                match *unit {
                    LaneUnit::Lane { start, len } => {
                        assert!(len >= 1 && len <= width, "w={width} lane len {len}");
                        plan.order[start..start + len]
                            .iter()
                            .for_each(|&i| seen[i] += 1);
                    }
                    LaneUnit::Scalar(i) => seen[i] += 1,
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "w={width} coverage: {seen:?}");
            // Descending length order within the lane-eligible set.
            for w in plan.order.windows(2) {
                let len = |i: usize| {
                    seqs[tasks[i].query as usize]
                        .len()
                        .max(seqs[tasks[i].reference as usize].len())
                };
                assert!(len(w[0]) >= len(w[1]));
            }
        }
    }

    #[test]
    fn oversized_tasks_fall_back_to_scalar() {
        let long = vec![7u8; OVERSIZED_LEN + 1];
        let short = encode("MKVLAWYHEE").unwrap();
        let seqs = [long, short];
        let tasks = vec![
            AlignTask {
                query: 0,
                reference: 1,
                seed_q: 0,
                seed_r: 0,
            };
            5
        ];
        let lookup = |id: u32| -> &[u8] { &seqs[id as usize] };
        let plan = LanePlan::build(&tasks, &lookup, SimdBackend::detect().lanes());
        assert!(plan.order.is_empty());
        assert_eq!(plan.units.len(), 5);
        let g = GapPenalties::pastis_defaults();
        let (got, _) = AlignPool::new(2).run_score_only(&tasks, lookup, &Blosum62, g);
        let (want, _, _, _) = sw_score_only(&seqs[0], &seqs[1], &Blosum62, g);
        assert!(got.iter().all(|r| r.score == want));
    }

    #[test]
    fn every_backend_yields_identical_results_and_stats() {
        // The cross-backend contract the differential harness extends:
        // scores, pairs, cells, max_cells and lane_promotions are all
        // invariant under backend choice (only `simd` itself and the
        // clocks may differ).
        let seqs = random_store(14, 80, 21);
        let tasks = random_tasks(14, 90, 22);
        let g = GapPenalties::pastis_defaults();
        let pool = AlignPool::new(2).with_simd(SimdBackend::Scalar);
        let (want, want_stats) = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        assert_eq!(want_stats.simd, SimdBackend::Scalar);
        for backend in SimdBackend::available() {
            let pool = AlignPool::new(2).with_simd(backend);
            assert_eq!(pool.simd(), backend);
            let (got, stats) = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            assert_eq!(got, want, "{backend}");
            assert_eq!(stats.simd, backend);
            assert_eq!(stats.pairs, want_stats.pairs, "{backend}");
            assert_eq!(stats.cells, want_stats.cells, "{backend}");
            assert_eq!(stats.max_cells, want_stats.max_cells, "{backend}");
            assert_eq!(
                stats.lane_promotions, want_stats.lane_promotions,
                "{backend}"
            );
        }
    }

    #[test]
    fn padded_cells_count_the_vector_work() {
        // One chunk of three pairs: the vectors run every lane over the
        // longest query (33 rows) by the longest reference (33 columns)
        // rounded up to three tiles of 16.
        let seqs = [vec![3u8; 20], vec![5u8; 33], vec![7u8; 9]];
        let tasks: Vec<AlignTask> = [(0, 1), (2, 0), (1, 2)]
            .iter()
            .map(|&(query, reference)| AlignTask {
                query,
                reference,
                seed_q: 0,
                seed_r: 0,
            })
            .collect();
        let g = GapPenalties::pastis_defaults();
        for backend in SimdBackend::available() {
            for t in [1, 3] {
                let (_, stats) = AlignPool::new(t).with_simd(backend).run_score_only(
                    &tasks,
                    |id| &seqs[id as usize],
                    &Blosum62,
                    g,
                );
                assert_eq!(stats.cells, 20 * 33 + 9 * 20 + 33 * 9, "{backend} t={t}");
                assert_eq!(
                    stats.padded_cells,
                    backend.lanes() as u64 * 33 * 48,
                    "{backend} t={t}"
                );
            }
        }
        // Traceback weighs a chunk the same way when it runs a pair per
        // lane, which three pairs are too few for on any backend: they
        // run one at a time and weigh their own cells. Four copies of
        // them are 12 pairs: one chunk of 16 lanes, or one of 8 lanes and
        // one half full.
        let twelve: Vec<AlignTask> = tasks.iter().cycle().take(12).copied().collect();
        for backend in SimdBackend::available() {
            for t in [1, 3] {
                let pool = AlignPool::new(t).with_simd(backend);
                let (_, stats) = pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
                assert_eq!(stats.padded_cells, stats.cells, "{backend} t={t}");
                let (_, stats) = pool.run_traceback(&twelve, |id| &seqs[id as usize], &Blosum62, g);
                assert_eq!(
                    stats.cells,
                    4 * (20 * 33 + 9 * 20 + 33 * 9),
                    "{backend} t={t}"
                );
                // The plan sorts by longest sequence, ties by index
                // descending: the eight (0, 1) and (1, 2) pairs, then the
                // four (2, 0) pairs.
                let want = match backend.lanes() {
                    16 => 16 * 33 * 48,
                    _ => 8 * 33 * 48 + 8 * 9 * 32,
                };
                assert_eq!(stats.padded_cells, want, "{backend} t={t}");
            }
        }
    }

    /// `run_traceback_capped` on `pool` against serial `sw_align`, field
    /// by field; returns the stats.
    fn traceback_equals_sw_align<S: Scoring + Sync>(
        pool: &AlignPool,
        seqs: &[Vec<u8>],
        tasks: &[AlignTask],
        scoring: &S,
        cap: usize,
        what: &str,
    ) -> BatchStats {
        let g = GapPenalties::pastis_defaults();
        let (got, stats) =
            pool.run_traceback_capped(tasks, |id| &seqs[id as usize], scoring, g, cap);
        assert_eq!(got.len(), tasks.len(), "{what}");
        for (k, (t, got)) in tasks.iter().zip(&got).enumerate() {
            let (q, r) = (&seqs[t.query as usize], &seqs[t.reference as usize]);
            assert_eq!(
                got,
                &crate::sw::sw_align(q, r, scoring, g),
                "{what}: task {k}"
            );
        }
        assert_eq!(stats.pairs, tasks.len() as u64, "{what}");
        stats
    }

    #[test]
    fn traceback_task_counts_around_the_lane_width_match_sw_align() {
        // One task, a vector short of one, a full one, one over, and a
        // half-full tail: every chunk shape the plan can produce.
        let seqs = random_store(20, 60, 31);
        for backend in SimdBackend::available() {
            let lanes = backend.lanes();
            for n_tasks in [
                1,
                lanes / 2,
                lanes - 1,
                lanes,
                lanes + 1,
                2 * lanes + lanes / 2,
            ] {
                let tasks = random_tasks(20, n_tasks, 32 + n_tasks as u64);
                let pool = AlignPool::new(2).with_simd(backend);
                let what = format!("{backend}, {n_tasks} tasks");
                let stats = traceback_equals_sw_align(
                    &pool,
                    &seqs,
                    &tasks,
                    &Blosum62,
                    TRACE_CAP_BYTES,
                    &what,
                );
                assert_eq!(stats.lane_promotions, 0, "{what}");
                assert!(stats.padded_cells >= stats.cells, "{what}");
            }
        }
    }

    #[test]
    fn traceback_chunks_either_side_of_the_cap_match_sw_align() {
        // One full chunk of 40 x 33 pairs: a byte under its matrix the
        // pairs run one at a time and weigh their own cells, at it and a
        // byte over they run a pair per lane and weigh the padded chunk.
        let seqs = [
            vec![3u8; 40],
            vec![5u8; 33],
            random_store(1, 40, 3).remove(0),
        ];
        for backend in SimdBackend::available() {
            let lanes = backend.lanes();
            let tasks: Vec<AlignTask> = (0..lanes as u32)
                .map(|k| AlignTask {
                    query: 2 * (k % 2),
                    reference: 1,
                    seed_q: 0,
                    seed_r: 0,
                })
                .collect();
            let matrix = crate::multilane::trace_matrix_bytes(backend, 40, 33);
            let pool = AlignPool::new(1).with_simd(backend);
            for (cap, per_lane) in [(matrix - 1, false), (matrix, true), (matrix + 1, true)] {
                let what = format!("{backend}, cap {cap} of {matrix}");
                let stats = traceback_equals_sw_align(&pool, &seqs, &tasks, &Blosum62, cap, &what);
                let want = if per_lane {
                    (lanes * 40 * 48) as u64
                } else {
                    stats.cells
                };
                assert_eq!(stats.padded_cells, want, "{what}");
                assert_eq!(stats.lane_promotions, 0, "{what}");
            }
        }
    }

    #[test]
    fn a_saturating_pair_in_a_chunk_is_promoted_alone() {
        // 259 matches at 127 reach i16::MAX; its lane companions do not.
        let steep = crate::matrices::MatchMismatch {
            match_score: 127,
            mismatch_score: -127,
        };
        let mut seqs = random_store(19, 60, 41);
        seqs.push(vec![7u8; 259]);
        let mut tasks = random_tasks(19, 40, 42);
        tasks[13] = AlignTask {
            query: 19,
            reference: 19,
            seed_q: 0,
            seed_r: 0,
        };
        for backend in SimdBackend::available() {
            for threads in [1, 3] {
                let pool = AlignPool::new(threads).with_simd(backend);
                let what = format!("{backend} t={threads}");
                // Any cap: the pair is promoted by whichever kernel meets it.
                for cap in [0, usize::MAX] {
                    let stats = traceback_equals_sw_align(&pool, &seqs, &tasks, &steep, cap, &what);
                    assert_eq!(stats.lane_promotions, 1, "{what}, cap {cap}");
                }
            }
        }
    }

    #[test]
    fn a_model_without_i8_rows_runs_pair_at_a_time_unpromoted() {
        // ±200 fits the i16 lanes but not the score tiles' i8 rows: the
        // anti-diagonal kernel takes every pair, nothing is promoted.
        let wide = crate::matrices::MatchMismatch {
            match_score: 200,
            mismatch_score: -200,
        };
        let seqs = random_store(12, 50, 51);
        let tasks = random_tasks(12, 40, 52);
        for backend in SimdBackend::available() {
            let pool = AlignPool::new(2).with_simd(backend);
            let what = format!("{backend}");
            let stats = traceback_equals_sw_align(&pool, &seqs, &tasks, &wide, usize::MAX, &what);
            assert_eq!(stats.lane_promotions, 0, "{what}");
            assert_eq!(stats.padded_cells, stats.cells, "{what}");
        }
    }

    #[test]
    fn traceback_is_identical_across_threads_and_the_work_pool() {
        let seqs = random_store(30, 90, 61);
        let tasks = random_tasks(30, 150, 62);
        let g = GapPenalties::pastis_defaults();
        for backend in SimdBackend::available() {
            let serial = AlignPool::new(1).with_simd(backend);
            let want_stats = traceback_equals_sw_align(
                &serial,
                &seqs,
                &tasks,
                &Blosum62,
                TRACE_CAP_BYTES,
                "serial",
            );
            let (want, _) = serial.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            for threads in [1usize, 2, 3] {
                let scoped = AlignPool::new(threads).with_simd(backend);
                let pooled = AlignPool::new(1)
                    .with_simd(backend)
                    .with_workers(WorkPool::with_exact_workers(threads));
                for (pool, how) in [(scoped, "scoped"), (pooled, "work pool")] {
                    let what = format!("{backend} {how} t={threads}");
                    let (got, stats) =
                        pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
                    assert_eq!(got, want, "{what}");
                    assert_eq!(stats.cells, want_stats.cells, "{what}");
                    assert_eq!(stats.max_cells, want_stats.max_cells, "{what}");
                    assert_eq!(stats.padded_cells, want_stats.padded_cells, "{what}");
                    assert_eq!(stats.lane_promotions, 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let seqs = random_store(2, 10, 9);
        let pool = AlignPool::new(4);
        let g = GapPenalties::pastis_defaults();
        let (r1, s1) = pool.run_traceback(&[], |id| &seqs[id as usize], &Blosum62, g);
        assert!(r1.is_empty());
        assert_eq!(s1.pairs, 0);
        let (r2, _) = pool.run_score_only(&[], |id| &seqs[id as usize], &Blosum62, g);
        assert!(r2.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The tentpole contract: `run_batch_parallel(t)` is bit-identical
        /// to `run_batch` — every traceback field of every result plus the
        /// pairs/cells/max_cells counters — for any thread count.
        #[test]
        fn parallel_driver_equals_serial_driver(
            store_seed in 0u64..1_000_000,
            task_seed in 0u64..1_000_000,
            n_seqs in 1usize..14,
            n_tasks in 0usize..90,
        ) {
            let seqs = random_store(n_seqs, 48, store_seed);
            let tasks = random_tasks(n_seqs, n_tasks, task_seed);
            let aligner = BatchAligner::new(Blosum62, GapPenalties::pastis_defaults());
            let (want, want_stats) = aligner.run_batch(&tasks, |id| &seqs[id as usize]);
            for t in [1usize, 2, 3, 8] {
                let (got, stats) =
                    aligner.run_batch_parallel(&tasks, |id| &seqs[id as usize], t);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(stats.pairs, want_stats.pairs);
                prop_assert_eq!(stats.cells, want_stats.cells);
                prop_assert_eq!(stats.max_cells, want_stats.max_cells);
            }
        }

        /// The multilane dispatch path holds the same contract against the
        /// scalar score-only kernel.
        #[test]
        fn multilane_dispatch_equals_scalar_scores(
            store_seed in 0u64..1_000_000,
            n_tasks in 0usize..60,
        ) {
            let seqs = random_store(10, 40, store_seed);
            let tasks = random_tasks(10, n_tasks, store_seed ^ 0x9e37_79b9);
            let g = GapPenalties::pastis_defaults();
            for t in [1usize, 3] {
                let (got, _) = AlignPool::new(t)
                    .run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
                for (k, task) in tasks.iter().enumerate() {
                    let (score, _, _, cells) = sw_score_only(
                        &seqs[task.query as usize],
                        &seqs[task.reference as usize],
                        &Blosum62,
                        g,
                    );
                    prop_assert_eq!(got[k].score, score);
                    prop_assert_eq!(got[k].cells, cells);
                }
            }
        }
    }

    #[test]
    fn traced_pool_emits_worker_occupancy_spans() {
        use pastis_trace::TraceSession;
        let seqs = random_store(10, 48, 12);
        let tasks = random_tasks(10, 200, 13);
        let g = GapPenalties::pastis_defaults();
        let (want, want_stats) =
            AlignPool::new(3).run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);

        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = AlignPool::new(3).with_recorder(rec.clone());
        let (got, stats) = pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);

        // Observation-only: results and merged counters are unchanged.
        assert_eq!(got, want);
        assert_eq!(stats.pairs, want_stats.pairs);
        assert_eq!(stats.cells, want_stats.cells);

        let spans = rec.snapshot_spans();
        // 200 tasks in lane chunks are 13 units or more ≥ 3 workers, so all
        // 3 workers participate and each emits exactly one span on its own
        // sub-track.
        assert_eq!(spans.len(), 3);
        let mut tracks: Vec<Track> = spans.iter().map(|s| s.track).collect();
        tracks.sort_by_key(|t| t.tid());
        assert_eq!(
            tracks,
            vec![
                Track::AlignWorker(0),
                Track::AlignWorker(1),
                Track::AlignWorker(2)
            ]
        );
        // Per-worker tallies sum to the batch totals.
        let arg = |s: &pastis_trace::SpanEvent, k: &str| {
            s.args
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let pairs: u64 = spans.iter().map(|s| arg(s, "pairs")).sum();
        let cells: u64 = spans.iter().map(|s| arg(s, "cells")).sum();
        let units: u64 = spans.iter().map(|s| arg(s, "units")).sum();
        assert_eq!(pairs, stats.pairs);
        assert_eq!(cells, stats.cells);
        assert_eq!(units, 200u64.div_ceil(pool.simd().lanes() as u64));
    }

    #[test]
    fn serial_traced_pool_uses_worker_zero_track() {
        use pastis_trace::TraceSession;
        let seqs = random_store(6, 30, 14);
        let tasks = random_tasks(6, 10, 15);
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = AlignPool::new(1).with_recorder(rec.clone());
        let g = GapPenalties::pastis_defaults();
        let _ = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let spans = rec.snapshot_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, Track::AlignWorker(0));
        assert_eq!(spans[0].name, names::SPAN_ALIGN_WORKER);
    }

    #[test]
    fn pool_backed_batches_match_serial_for_every_worker_count() {
        let seqs = random_store(12, 40, 1);
        let tasks = random_tasks(12, 70, 2);
        let g = GapPenalties::pastis_defaults();
        let (want_tb, want_tb_stats) =
            AlignPool::new(1).run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let (want_so, _) =
            AlignPool::new(1).run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let (want_bd, _) =
            AlignPool::new(1).run_banded(&tasks, |id| &seqs[id as usize], &Blosum62, g, 5);
        for workers in [0usize, 1, 3] {
            let pool = AlignPool::new(1).with_workers(WorkPool::with_exact_workers(workers));
            assert!(pool.workers().is_some());
            let (tb, tb_stats) = pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            assert_eq!(tb, want_tb, "workers={workers}");
            assert_eq!(tb_stats.pairs, want_tb_stats.pairs, "workers={workers}");
            assert_eq!(tb_stats.cells, want_tb_stats.cells, "workers={workers}");
            assert_eq!(
                tb_stats.max_cells, want_tb_stats.max_cells,
                "workers={workers}"
            );
            let (so, _) = pool.run_score_only(&tasks, |id| &seqs[id as usize], &Blosum62, g);
            assert_eq!(so, want_so, "workers={workers}");
            let (bd, _) = pool.run_banded(&tasks, |id| &seqs[id as usize], &Blosum62, g, 5);
            assert_eq!(bd, want_bd, "workers={workers}");
        }
    }

    #[test]
    fn pool_backed_batches_emit_unit_spans_on_pool_tracks() {
        use pastis_trace::TraceSession;
        let seqs = random_store(10, 48, 12);
        let tasks = random_tasks(10, 200, 13);
        let g = GapPenalties::pastis_defaults();
        let session = TraceSession::new();
        let rec = session.recorder(0);
        let pool = AlignPool::new(1)
            .with_recorder(rec.clone())
            .with_workers(WorkPool::with_exact_workers(2));
        let (_, stats) = pool.run_traceback(&tasks, |id| &seqs[id as usize], &Blosum62, g);
        let spans = rec.snapshot_spans();
        // One span per unit (200 tasks in lane chunks), each on a
        // unified-pool track, with per-unit tallies summing to the batch.
        assert_eq!(spans.len(), 200usize.div_ceil(pool.simd().lanes()));
        let arg = |s: &pastis_trace::SpanEvent, k: &str| {
            s.args
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let mut units: Vec<u64> = Vec::new();
        let mut pairs = 0u64;
        let mut cells = 0u64;
        for s in &spans {
            assert_eq!(s.name, names::SPAN_ALIGN_UNIT);
            assert!(matches!(s.track, Track::PoolWorker(_)), "{:?}", s.track);
            units.push(arg(s, "unit"));
            pairs += arg(s, "pairs");
            cells += arg(s, "cells");
        }
        units.sort_unstable();
        assert_eq!(units, (0..spans.len() as u64).collect::<Vec<_>>());
        assert_eq!(pairs, stats.pairs);
        assert_eq!(cells, stats.cells);
    }

    #[test]
    fn parallel_stats_report_both_clocks() {
        let seqs = random_store(8, 64, 10);
        let tasks = random_tasks(8, 120, 11);
        let (_, stats) = AlignPool::new(4).run_traceback(
            &tasks,
            |id| &seqs[id as usize],
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.seconds > 0.0);
        // CPU time sums over workers; it can exceed wall but never be
        // less than a single worker's share of it by orders of magnitude.
        assert!(stats.seconds >= stats.wall_seconds * 0.01);
    }
}
