//! Multi-lane (inter-sequence) batched Smith–Waterman on real SIMD lanes,
//! score-only and with traceback.
//!
//! ADEPT's GPU kernel derives much of its throughput from *inter-task*
//! parallelism — many independent alignments advance in lock-step. On the
//! CPU the same structure maps onto vector lanes (Rognes' SWIPE and the
//! inter-sequence mode of SeqAn): one sequence pair per i16 lane, all
//! lanes updated per DP cell with saturating vector arithmetic. The lane
//! arithmetic comes from the [`crate::simd`] backends (AVX2/SSE2/NEON, or
//! the portable scalar-array fallback) selected by [`SimdBackend`].
//!
//! # Score tiles
//!
//! A cell needs `score(q, r)` in every lane, and each lane has its own
//! query *and* its own reference, so there is no query profile to share
//! (SWIPE's, one query against a database, is 16 lookups with one index).
//! Filling the score vector with a table load per lane costs more than the
//! recurrence it feeds. Instead the scores of a DP row arrive in **tiles
//! of 16 reference columns** ([`SimdVec::score_tile`]): per lane, its
//! query residue's substitution row as 32 bytes of i8 and its 16 reference
//! codes as byte-shuffle indices give 16 scores in two shuffles; a byte
//! transpose turns the lanes × columns block into one vector per column;
//! a sign extension widens it to i16. The indices are laid down once per
//! chunk (PAD where a lane has run out), the rows once per DP row. The
//! recurrence then runs over the tile's 16 columns, and its saturation
//! rule, PAD handling and results are what they were with one lookup per
//! cell. The rows are i8: a model with a score outside i8 runs scalar
//! (see [`LaneTable`]).
//!
//! Reference codes are residue codes (`< 21`, or PAD); the shuffles need
//! them below 32, which the alphabet guarantees.
//!
//! # Exactness
//!
//! The kernel is *bit-identical* to the scalar i32 kernel
//! [`sw_score_only`], which the paper's determinism claim requires:
//!
//! * `H` values of a local alignment live in `[0, best]`; while
//!   `best < i16::MAX` no intermediate can top-saturate, and i16
//!   arithmetic equals i32 arithmetic exactly.
//! * `E`/`F` can only bottom-saturate at `i16::MIN`, which behaves as the
//!   scalar kernel's `−∞` sentinel: a bottom-saturated value never wins a
//!   `max` against `h − first ≥ −first ≥ −i16::MAX` and feeds nothing
//!   else (saturating subtraction keeps it pinned).
//! * Any top saturation forces that lane's running `best` to `i16::MAX`,
//!   so `best == i16::MAX` is an exact overflow detector: such lanes are
//!   **promoted** — re-scored through the scalar i32 kernel — and counted
//!   ([`LaneScores::promotions`], surfaced as the `align.lane_promotions`
//!   counter). A true score of exactly `i16::MAX` is indistinguishable
//!   from saturation and takes the (equally exact) rescue path too.
//!
//! Scoring models whose table or gap penalties do not fit the scheme
//! (see [`LaneTable::build`]) bypass the lanes entirely and run scalar —
//! exactness is never traded for speed.
//!
//! Lanes are padded to the chunk's maximum dimensions, the reference side
//! up to a whole tile, with a PAD residue scoring −100 against everything.
//! A path that steps into padding only loses score and cannot come back
//! (padding lies to the right of and below a lane's own matrix), so every
//! padded cell stays below some real cell of its lane: padding cannot
//! influence any lane's optimum (property-tested), and promotion is a
//! property of the pair alone, not of its lane companions. What padding
//! costs is counted (`BatchStats::padded_cells`).
//!
//! # Traceback lanes
//!
//! The same kernel, asked to (`TRACE`), also keeps what a traceback
//! needs: per cell and lane the outcome of the five comparisons
//! [`sw_align`](crate::sw::sw_align) makes its direction byte from (`H`
//! from the diagonal, from `E`, from `F`; `E` extends; `F` extends) and of
//! a sixth, whether the cell raised the lane's running maximum. The six
//! masks go to the thread's direction matrix through
//! [`SimdVec::store_masks`], row-major: cell `(i, j)` of the chunk is at
//! `(i · cols + j) · MASK_BYTES` with `cols` the tile-rounded width; a
//! byte per lane on the portable lanes and NEON, six bit planes (0.75 byte
//! per lane) where `packs` + `movemask` make them. Afterwards
//! [`traceback`] walks each lane's cells back from its first maximum,
//! reading the masks through [`SimdVec::mask_at`], exactly as it walks
//! `sw_align`'s bytes. There are no cross-lane shifts, no skewed profile,
//! no boundary rows and no strip edges, which is where the pair-at-a-time
//! kernel ([`crate::tblanes`]) spends its time; what this one needs
//! instead is a matrix for `LANES` pairs at once, so a chunk runs here
//! only if that matrix stays under a cap ([`TRACE_CAP_BYTES`]) and at
//! least half the lanes are filled ([`align_lanes_chunk`]).
//!
//! Every field of every result equals `sw_align`'s because:
//!
//! 1. *A real cell sees only real cells.* Its `H`, `E`, `F` and masks are
//!    functions of its upper, left and diagonal neighbours, which lie in
//!    the lane's own matrix or on its zero border; padding lies to the
//!    right of and below it. The comparisons are `sw_align`'s, in its
//!    priority (`diag > E > F > stop`, extension only on strict `>`), on
//!    values that are exact in i16 for the reasons above.
//! 2. *A padded cell never takes the first maximum.* Its `H` is 0 or
//!    comes, through PAD (−100) or a gap (cost ≥ 0), from a cell earlier
//!    in row-major order, so by induction it is at most the running
//!    maximum when it is reached, and the running maximum moves on strict
//!    `>` only. The first maximum is therefore a real cell: the last cell
//!    to raise the maximum in the last row that raised it, which is what
//!    the sixth mask and a row counter record.
//! 3. *The walk stays inside the lane's matrix.* From a real cell it only
//!    moves up and left.
//! 4. *Saturation is detected as for scores*: a lane whose maximum reads
//!    `i16::MAX` is handed back, and the caller redoes the pair through
//!    `sw_align` and counts a promotion.
//! 5. *Rows are counted in an i16 lane* (columns are not counted at all):
//!    a chunk with a query past `i16::MAX` residues runs pair-at-a-time.

use crate::matrices::{Scoring, AA_COUNT};
use crate::simd::{
    tile_index, ScalarLanes, SimdBackend, SimdVec, MAX_LANES, TILE_COLS, TRACE_MASKS,
};
use crate::sw::{
    sw_score_only, traceback, with_scratch, AlignmentResult, GapPenalties, TbScratch, E_EXT, F_EXT,
    H_DIAG, H_FROM_E, H_FROM_F,
};

#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Vec, Sse2Vec};

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonVec;

/// Table index used to pad ragged lanes (one past the residue codes).
pub(crate) const PAD_IDX: usize = AA_COUNT;

/// Width of one score-table row: 21 residue codes + the PAD column.
pub(crate) const TABLE_DIM: usize = AA_COUNT + 1;

/// Score of PAD against anything: below the local-alignment floor.
pub(crate) const PAD_SCORE: i16 = -100;

/// Largest |substitution score| the i16 scheme accepts. Leaves headroom so
/// `diag + score` can only saturate at the top (caught by promotion),
/// never wrap at the bottom.
const MAX_TABLE_SCORE: i32 = 30_000;

/// Bytes of one substitution row of [`LaneTable::bytes`]: the
/// [`TABLE_DIM`] codes, padded to two 16-entry shuffle tables.
const ROW_BYTES: usize = 32;

/// Flattened i16 score profile plus gap costs, pre-validated for the i16
/// lane scheme. Built once per batch ([`LaneTable::build`]); `None` means
/// the scoring model needs the scalar i32 path. The traceback lanes read
/// the i16 table; the score-only lanes its i8 rows, which exist when every
/// score fits i8 (BLOSUM62, match/mismatch models and PAD do).
#[derive(Debug, Clone)]
pub struct LaneTable {
    /// `flat[a * TABLE_DIM + b]` = score of codes `a` vs `b`; row/column
    /// [`PAD_IDX`] holds [`PAD_SCORE`].
    pub(crate) flat: [i16; TABLE_DIM * TABLE_DIM],
    /// The same table as two's-complement i8 rows, `bytes[a][b]`, which
    /// the score-only lanes look up with byte shuffles; `None` when some
    /// score does not fit i8, and score-only work then runs scalar.
    bytes: Option<[[u8; ROW_BYTES]; TABLE_DIM]>,
    pub(crate) first: i16,
    pub(crate) extend: i16,
}

impl LaneTable {
    /// Flatten `scoring` + `gaps` into an i16 profile, or `None` if any
    /// score or gap cost falls outside the range for which the i16 kernel
    /// is provably exact (`|score| ≤ 30000`, `0 ≤ open + extend ≤ i16::MAX`,
    /// `0 ≤ extend ≤ i16::MAX`).
    pub fn build<S: Scoring>(scoring: &S, gaps: GapPenalties) -> Option<LaneTable> {
        let first = gaps.open + gaps.extend;
        if !(0..=i16::MAX as i32).contains(&first) || !(0..=i16::MAX as i32).contains(&gaps.extend)
        {
            return None;
        }
        let mut flat = [PAD_SCORE; TABLE_DIM * TABLE_DIM];
        for a in 0..AA_COUNT {
            for b in 0..AA_COUNT {
                let s = scoring.score(a as u8, b as u8);
                if s.abs() > MAX_TABLE_SCORE {
                    return None;
                }
                flat[a * TABLE_DIM + b] = s as i16;
            }
        }
        let fits_i8 = flat.iter().all(|&s| i8::try_from(s).is_ok());
        let bytes = fits_i8.then(|| {
            let mut bytes = [[PAD_SCORE as u8; ROW_BYTES]; TABLE_DIM];
            for (row, scores) in bytes.iter_mut().zip(flat.chunks_exact(TABLE_DIM)) {
                for (byte, &s) in row.iter_mut().zip(scores) {
                    *byte = s as u8;
                }
            }
            bytes
        });
        Some(LaneTable {
            flat,
            bytes,
            first: first as i16,
            extend: gaps.extend as i16,
        })
    }

    /// What the score-only lanes read, if every score fits i8.
    fn byte_rows(&self) -> Option<ByteRows<'_>> {
        Some(ByteRows {
            rows: self.bytes.as_ref()?,
            first: self.first,
            extend: self.extend,
        })
    }
}

/// The i8 rows of a [`LaneTable`] with its gap costs.
#[derive(Clone, Copy)]
struct ByteRows<'a> {
    rows: &'a [[u8; ROW_BYTES]; TABLE_DIM],
    first: i16,
    extend: i16,
}

/// Scores and overflow-rescue count of one multilane invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneScores {
    /// Optimal local score per pair, in input order. Bit-identical to
    /// [`sw_score_only`] for every backend.
    pub scores: Vec<i32>,
    /// Pairs whose i16 lane saturated and were re-scored through the
    /// scalar i32 kernel. A property of each pair (its score vs
    /// `i16::MAX`), not of lane packing — deterministic across backends,
    /// lane widths and thread counts.
    pub promotions: u64,
}

/// What one call of the lane scorer did beyond the scores it wrote.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneWork {
    /// Pairs re-scored through the scalar kernel ([`LaneScores::promotions`]).
    pub(crate) promotions: u64,
    /// DP cells the vectors updated, padding included: per chunk, lane
    /// width × longest query × longest reference rounded up to the tile.
    pub(crate) padded_cells: u64,
}

// The masks the traceback kernel keeps of a cell, in
// `SimdVec::store_masks` order: `sw_align`'s five comparisons (whether
// `H` can come from the diagonal, from `E`, from `F`, and whether `E` and
// `F` extend) and whether the cell raised the lane's running maximum.
const MASK_DIAG: usize = 0;
const MASK_E: usize = 1;
const MASK_F: usize = 2;
const MASK_E_EXT: usize = 3;
const MASK_F_EXT: usize = 4;
const MASK_RAISED: usize = 5;

/// What the kernel found in one chunk, lane by lane.
struct ChunkBest {
    /// Largest `H` of the lane; `i16::MAX` means the lane saturated.
    best: [i16; MAX_LANES],
    /// Row (1-based) of the lane's first `best` in row-major order. Only
    /// the traceback kernel tracks it.
    bi: [i16; MAX_LANES],
    /// DP cells the vectors updated, padding included.
    padded_cells: u64,
}

/// The vector kernel proper: one chunk of ≤ `V::LANES` pairs in lock-step,
/// a row of the DP matrices at a time, the row cut into tiles of
/// [`TILE_COLS`] columns whose substitution scores come from one
/// [`SimdVec::score_tile`] each.
///
/// With `TRACE` it also writes every cell's masks to `scratch.tb` (see
/// the module doc for the layout) and tracks the row of each lane's first
/// maximum; without, it is the score-only kernel and the compiler drops
/// all of that. Marked `#[inline(always)]` so the
/// `#[target_feature]` entry points inline it and the trait ops compile to
/// bare vector instructions.
#[inline(always)]
fn lanes_kernel<V: SimdVec, const TRACE: bool>(
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: ByteRows<'_>,
    scratch: &mut TbScratch,
) -> ChunkBest {
    debug_assert!(qs.len() == rs.len() && qs.len() <= V::LANES && V::LANES <= MAX_LANES);
    let lanes = V::LANES;
    let m = qs.iter().map(|q| q.len()).max().unwrap_or(0);
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut found = ChunkBest {
        best: [0; MAX_LANES],
        bi: [0; MAX_LANES],
        padded_cells: 0,
    };
    if m == 0 || n == 0 {
        return found;
    }
    let tiles = n.div_ceil(TILE_COLS);
    // One half of a tile's shuffle indices, or of a row's substitution
    // rows: 16 bytes per lane (`SimdVec::score_tile`'s layout).
    let half = lanes * TILE_COLS;

    // Shuffle indices of every lane's reference codes, tile by tile, PAD
    // beyond the lane's length and in the lanes the chunk leaves empty.
    let idx = &mut scratch.codes;
    idx.clear();
    idx.resize(tiles * 2 * half, 0);
    let pad = tile_index(PAD_IDX as u8);
    for tile in idx.chunks_exact_mut(2 * half) {
        let (lo, hi) = tile.split_at_mut(half);
        lo.fill(pad[0]);
        hi.fill(pad[1]);
    }
    for (l, r) in rs.iter().enumerate() {
        for (j, &code) in r.iter().enumerate() {
            let at = (j / TILE_COLS) * 2 * half + l * TILE_COLS + j % TILE_COLS;
            [idx[at], idx[at + half]] = tile_index(code);
        }
    }

    // Per column a vector each of H and of F of the row above (the left
    // border needs no entry: it is the zero `diag` and `h_left` start from).
    let cols = tiles * TILE_COLS;
    let hf = &mut scratch.lanes;
    hf.clear();
    hf.resize(cols * lanes, 0);
    hf.resize(2 * cols * lanes, i16::MIN);
    let (h, f) = hf.split_at_mut(cols * lanes);

    // The masks of one tile of one row.
    let tile_masks = TILE_COLS * V::MASK_BYTES;
    let tb: &mut [u8] = if TRACE {
        &mut scratch.tb[..m * tiles * tile_masks]
    } else {
        &mut []
    };

    let neg = V::splat(i16::MIN);
    let zero = V::zero();
    let vfirst = V::splat(table.first);
    let vext = V::splat(table.extend);
    let (mut best, mut bi) = (zero, zero);
    let mut rows = [0u8; 2 * MAX_LANES * TILE_COLS];
    let rows = &mut rows[..2 * half];
    let mut scores = [0i16; MAX_LANES * TILE_COLS];
    let scores = &mut scores[..half];

    for i in 0..m {
        // Each lane's substitution row for its residue in this DP row.
        for l in 0..lanes {
            let code = qs.get(l).and_then(|q| q.get(i)).copied();
            let row = &table.rows[code.map_or(PAD_IDX, usize::from)];
            let (lo, hi) = row.split_at(ROW_BYTES / 2);
            rows[l * lo.len()..][..lo.len()].copy_from_slice(lo);
            rows[half + l * hi.len()..][..hi.len()].copy_from_slice(hi);
        }
        let mut e = neg;
        let mut h_left = zero; // H(i, j-1), walking left to right
        let mut diag = zero; // H(i-1, j-1); starts at H(i-1, 0) = 0
        let mut row_best = best; // the running maximum, rows above included
        let tb_row: &mut [u8] = if TRACE {
            &mut tb[i * tiles * tile_masks..][..tiles * tile_masks]
        } else {
            &mut []
        };
        for t in 0..tiles {
            let idx = &idx[t * 2 * half..][..2 * half];
            let (h, f) = (&mut h[t * half..][..half], &mut f[t * half..][..half]);
            let tb_tile: &mut [u8] = if TRACE {
                &mut tb_row[t * tile_masks..][..tile_masks]
            } else {
                &mut []
            };
            V::score_tile(rows, idx, scores);
            // Constant indices into tile-sized slices: no bounds check
            // per column, and (measured, rustc 1.95) zipped chunk
            // iterators here make LLVM carry the portable lanes' vectors
            // from column to column in scalar pieces, at half the speed.
            for c in 0..TILE_COLS {
                let at = c * lanes..(c + 1) * lanes;
                let up = V::load(&h[at.clone()]); // H(i-1, j)
                let f_open = up.sub_sat(vfirst);
                let f_ext = V::load(&f[at.clone()]).sub_sat(vext);
                let fv = f_open.max(f_ext);
                fv.store(&mut f[at.clone()]);
                let e_open = h_left.sub_sat(vfirst);
                let e_ext = e.sub_sat(vext);
                let ev = e_open.max(e_ext);
                e = ev;
                // `ev` joins last: it ends the chain from the cell to the
                // left, the one dependency that orders the columns.
                let dv = diag.add_sat(V::load(&scores[at.clone()]));
                let h_d = dv.max(zero);
                let hv = h_d.max(fv).max(ev);
                if TRACE {
                    // `sw_align`'s five comparisons and whether the cell
                    // raised the running maximum, a bit each; none of
                    // this feeds the next column.
                    let h_e = ev.max(h_d);
                    let mut masks = [zero; TRACE_MASKS];
                    masks[MASK_DIAG] = dv.gt(zero);
                    masks[MASK_E] = ev.gt(h_d);
                    masks[MASK_F] = fv.gt(h_e);
                    masks[MASK_E_EXT] = e_ext.gt(e_open);
                    masks[MASK_F_EXT] = f_ext.gt(f_open);
                    masks[MASK_RAISED] = hv.gt(row_best);
                    V::store_masks(masks, &mut tb_tile[c * V::MASK_BYTES..][..V::MASK_BYTES]);
                }
                row_best = row_best.max(hv);
                diag = up;
                hv.store(&mut h[at]);
                h_left = hv;
            }
        }
        if TRACE {
            // The last row to raise the maximum holds its first
            // occurrence in row-major order.
            bi = V::select(row_best.gt(best), V::splat(i as i16 + 1), bi);
        }
        best = row_best;
    }

    best.store(&mut found.best);
    bi.store(&mut found.bi);
    found.padded_cells = (lanes * m * cols) as u64;
    found
}

/// Walk every lane of a chunk the traceback kernel has just run back
/// from its first maximum: `out[l]` is pair `l`'s result, `None` if its
/// lane saturated.
fn walk_lanes<V: SimdVec>(
    qs: &[&[u8]],
    rs: &[&[u8]],
    found: &ChunkBest,
    scratch: &mut TbScratch,
    out: &mut [Option<AlignmentResult>],
) {
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    let cols = n.next_multiple_of(TILE_COLS);
    let tb = &scratch.tb;
    for (l, o) in out.iter_mut().enumerate() {
        let mask = |i: usize, j: usize, k: usize| {
            V::mask_at(&tb[(i * cols + j) * V::MASK_BYTES..][..V::MASK_BYTES], l, k)
        };
        let (best, bi) = (found.best[l], found.bi[l] as usize);
        *o = (best < i16::MAX).then(|| {
            // The last cell of row `bi` to raise the maximum reached it
            // first; a lane that stayed at zero has no such row.
            let raised = |&j: &usize| bi > 0 && mask(bi - 1, j, MASK_RAISED);
            let bj = (0..rs[l].len()).rev().find(raised).map_or(0, |j| j + 1);
            let ops_rev = &mut scratch.ops_rev;
            traceback(qs[l], rs[l], best as i32, bi, bj, ops_rev, |i, j| {
                let flag = |k: usize, code: u8| if mask(i, j, k) { code } else { 0 };
                // The source is the largest code whose comparison held.
                let src = flag(MASK_DIAG, H_DIAG)
                    .max(flag(MASK_E, H_FROM_E))
                    .max(flag(MASK_F, H_FROM_F));
                src | flag(MASK_E_EXT, E_EXT) | flag(MASK_F_EXT, F_EXT)
            })
        });
    }
}

/// One chunk on lane type `V`: the kernel, and with `TRACE` the walks
/// into `out` (which score-only callers leave empty).
#[inline(always)]
fn lanes_chunk_on<V: SimdVec, const TRACE: bool>(
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: ByteRows<'_>,
    scratch: &mut TbScratch,
    out: &mut [Option<AlignmentResult>],
) -> ChunkBest {
    let found = lanes_kernel::<V, TRACE>(qs, rs, table, scratch);
    if TRACE {
        walk_lanes::<V>(qs, rs, &found, scratch, out);
    }
    found
}

/// AVX2 entry point: the `#[target_feature]` boundary under which the
/// generic kernel and the `Avx2Vec` ops inline into VEX instructions.
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`
/// (dispatch goes through [`SimdBackend::is_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lanes_chunk_avx2<const TRACE: bool>(
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: ByteRows<'_>,
    scratch: &mut TbScratch,
    out: &mut [Option<AlignmentResult>],
) -> ChunkBest {
    lanes_chunk_on::<Avx2Vec, TRACE>(qs, rs, table, scratch, out)
}

/// Run one chunk on `backend`. Callers cut their chunks to
/// `backend.lanes()`, so they have passed it through
/// [`SimdBackend::or_portable`].
fn lanes_chunk<const TRACE: bool>(
    backend: SimdBackend,
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: ByteRows<'_>,
    scratch: &mut TbScratch,
    out: &mut [Option<AlignmentResult>],
) -> ChunkBest {
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => lanes_chunk_on::<Sse2Vec, TRACE>(qs, rs, table, scratch, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only dispatched after runtime detection.
        SimdBackend::Avx2 if backend.is_available() => unsafe {
            lanes_chunk_avx2::<TRACE>(qs, rs, table, scratch, out)
        },
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => lanes_chunk_on::<NeonVec, TRACE>(qs, rs, table, scratch, out),
        _ => lanes_chunk_on::<ScalarLanes<16>, TRACE>(qs, rs, table, scratch, out),
    }
}

/// [`lanes_chunk`] for scores alone. Not generic, so that the kernel is
/// compiled with this crate, at this crate's optimisation level, whichever
/// crate instantiates the generic drivers that call it (dev builds
/// optimise this crate only).
fn score_chunk(
    backend: SimdBackend,
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: ByteRows<'_>,
    scratch: &mut TbScratch,
) -> ChunkBest {
    lanes_chunk::<false>(backend, qs, rs, table, scratch, &mut [])
}

/// Bytes the traceback kernel writes for a chunk whose longest query has
/// `m` residues and whose longest reference has `n`, on `backend`:
/// [`SimdVec::MASK_BYTES`] per cell of `m` rows by `n` rounded up to the
/// tile.
pub(crate) fn trace_matrix_bytes(backend: SimdBackend, m: usize, n: usize) -> usize {
    let mask_bytes = match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => Sse2Vec::MASK_BYTES,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => Avx2Vec::MASK_BYTES,
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => NeonVec::MASK_BYTES,
        _ => ScalarLanes::<16>::MASK_BYTES,
    };
    m * n.next_multiple_of(TILE_COLS) * mask_bytes
}

/// Score `queries[k]` vs `refs[k]` for every `k` through the vector
/// backend, chunking by the backend's lane width, with the overflow
/// rescue applied. Results are bit-identical to [`sw_score_only`].
///
/// Builds the score profile per call; batch drivers that amortize it use
/// [`score_lanes_into`].
pub fn sw_score_lanes<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
) -> LaneScores {
    let table = LaneTable::build(scoring, gaps);
    let mut scores = vec![0i32; queries.len()];
    let work = with_scratch(|scratch| {
        score_lanes_into(
            queries,
            refs,
            scoring,
            gaps,
            backend,
            table.as_ref(),
            scratch,
            &mut scores,
        )
    });
    LaneScores {
        scores,
        promotions: work.promotions,
    }
}

/// [`sw_score_lanes`] with a pre-built [`LaneTable`], on the caller's
/// scratch and into the caller's `scores` (one per pair). The lanes need
/// the table's i8 rows: without a table (a model [`LaneTable::build`]
/// rejects) or without the rows (a score that does not fit i8) every pair
/// runs the scalar kernel, which is no promotion — nothing saturated.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_lanes_into<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
    table: Option<&LaneTable>,
    scratch: &mut TbScratch,
    scores: &mut [i32],
) -> LaneWork {
    assert!(
        queries.len() == refs.len() && queries.len() == scores.len(),
        "ragged lane inputs"
    );
    let mut work = LaneWork::default();
    let Some(table) = table.and_then(LaneTable::byte_rows) else {
        for ((q, r), score) in queries.iter().zip(refs).zip(scores) {
            *score = sw_score_only(q, r, scoring, gaps).0;
        }
        return work;
    };
    let backend = backend.or_portable();
    let w = backend.lanes();
    for ((qs, rs), out) in queries
        .chunks(w)
        .zip(refs.chunks(w))
        .zip(scores.chunks_mut(w))
    {
        let found = score_chunk(backend, qs, rs, table, scratch);
        work.padded_cells += found.padded_cells;
        for (l, (o, &best)) in out.iter_mut().zip(&found.best).enumerate() {
            *o = if best == i16::MAX {
                work.promotions += 1;
                sw_score_only(qs[l], rs[l], scoring, gaps).0
            } else {
                best as i32
            };
        }
    }
    work
}

/// Largest direction matrix ([`trace_matrix_bytes`]) a pair-per-lane
/// traceback chunk may write; a chunk over it runs pair-at-a-time
/// ([`crate::tblanes`]). The matrix is the thread's and stays with it, so
/// the cap is what every alignment worker adds to the resident set, and
/// what keeps the matrix in L2.
///
/// Measured on the repo benchmark (2-core AVX2 host, 0.75 byte per cell;
/// `wall_s` / `peak_rss_mb` of `search.fullsw`, 0.229 / 13.35 at the
/// parent): 512 KiB 0.165 / 12.5, 768 KiB 0.160 / 12.7, 1 MiB 0.152 /
/// 13.1, 1.5 MiB 0.148 / 13.7, 2 MiB 0.149 / 14.05, 4 MiB 0.145 / 16.2.
/// On `search.blocked` two pool workers and the submitting thread each
/// hold a matrix: 12.7 MB at the parent, 13.1-13.2 at 512 KiB (+4%),
/// 14.15 at 1 MiB (+11%, past the benchmark's 10% bound). So the cap is
/// set by the workloads with several workers, and the one-thread
/// `search.fullsw` pays for it: 512 KiB keeps four fifths of its gain.
pub(crate) const TRACE_CAP_BYTES: usize = 512 << 10;

/// Traceback of one chunk of ≤ `backend.lanes()` pairs with a pair in each
/// lane: `out[l]` is pair `l`'s result, equal to
/// [`sw_align`](crate::sw::sw_align)'s in every field, or `None` when its
/// lane saturated and the caller must redo the pair exactly. Returns the
/// padded cell count.
///
/// Returns `None`, leaving `out` alone, when the chunk is one for the
/// pair-at-a-time kernel, which is decided from its shape alone: fewer
/// than half the lanes filled, a direction matrix over `cap` bytes (the
/// caller's is [`TRACE_CAP_BYTES`]; tests pass others), a query past the
/// i16 row counter, or a table without i8 rows. Half is where the two
/// kernels meet on AVX2: sixteen lanes of padded cells at 2.7 G cells/s
/// cost what eight pairs cost the anti-diagonal kernel at 1.45 (8 lanes
/// of SSE2 at 1.7 against 0.89 meet at four).
pub(crate) fn align_lanes_chunk(
    backend: SimdBackend,
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: &LaneTable,
    cap: usize,
    scratch: &mut TbScratch,
    out: &mut [Option<AlignmentResult>],
) -> Option<u64> {
    assert!(
        qs.len() == rs.len() && qs.len() == out.len() && qs.len() <= backend.lanes(),
        "ragged lane inputs"
    );
    let rows = table.byte_rows()?;
    let backend = backend.or_portable();
    let m = qs.iter().map(|q| q.len()).max().unwrap_or(0);
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    let matrix = trace_matrix_bytes(backend, m, n);
    if 2 * qs.len() < backend.lanes() || m > i16::MAX as usize || matrix > cap {
        return None;
    }
    if scratch.tb.len() < matrix {
        scratch.tb.resize(matrix, 0);
    }
    Some(lanes_chunk::<true>(backend, qs, rs, rows, scratch, out).padded_cells)
}

/// Score a whole batch of pairs on an explicit backend; the thin wrapper
/// the differential harness and the kernel benchmarks drive directly.
pub fn sw_score_batch_simd<S: Scoring>(
    pairs: &[(&[u8], &[u8])],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
) -> LaneScores {
    let queries: Vec<&[u8]> = pairs.iter().map(|(q, _)| *q).collect();
    let refs: Vec<&[u8]> = pairs.iter().map(|(_, r)| *r).collect();
    sw_score_lanes(&queries, &refs, scoring, gaps, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{encode, Blosum62, MatchMismatch};
    use proptest::prelude::*;

    fn scalar(q: &[u8], r: &[u8]) -> i32 {
        sw_score_only(q, r, &Blosum62, GapPenalties::pastis_defaults()).0
    }

    /// Scores of `pairs` on the detected backend.
    fn lanes(pairs: &[(&[u8], &[u8])]) -> Vec<i32> {
        let g = GapPenalties::pastis_defaults();
        sw_score_batch_simd(pairs, &Blosum62, g, SimdBackend::detect()).scores
    }

    #[test]
    fn uniform_lanes_match_scalar() {
        let q = encode("HEAGAWGHEE").unwrap();
        let r = encode("PAWHEAE").unwrap();
        let got = lanes(&[(q.as_slice(), r.as_slice()); 4]);
        assert_eq!(got, [scalar(&q, &r); 4]);
    }

    #[test]
    fn ragged_lanes_match_scalar() {
        let seqs: Vec<Vec<u8>> = ["MKVLAWYHEE", "PAWHEAE", "GGSTPNQRCDGGSTPNQRCD", "MK"]
            .iter()
            .map(|s| encode(s).unwrap())
            .collect();
        let pairs: Vec<(&[u8], &[u8])> = (0..4)
            .map(|l| (seqs[l].as_slice(), seqs[(l + 1) % 4].as_slice()))
            .collect();
        let got = lanes(&pairs);
        for (l, (q, r)) in pairs.iter().enumerate() {
            assert_eq!(got[l], scalar(q, r), "lane {l}");
        }
    }

    #[test]
    fn empty_lanes_are_zero() {
        let q = encode("MKVLAW").unwrap();
        let got = lanes(&[(&q, &q), (&[], &q)]);
        assert_eq!(got, [scalar(&q, &q), 0]);
    }

    #[test]
    fn batch_wrapper_handles_tail() {
        // 19 pairs: full chunks plus a partial one at either lane width.
        let seqs: Vec<Vec<u8>> = (0..19)
            .map(|i| encode(&"MKVLAWYHEEPAWHEAEGGSTPNQ"[..4 + i]).unwrap())
            .collect();
        let pairs: Vec<(&[u8], &[u8])> = (0..19)
            .map(|i| (seqs[i].as_slice(), seqs[(i + 3) % 19].as_slice()))
            .collect();
        let got = lanes(&pairs);
        assert_eq!(got.len(), 19);
        for (idx, (q, r)) in pairs.iter().enumerate() {
            assert_eq!(got[idx], scalar(q, r), "pair {idx}");
        }
    }

    #[test]
    fn every_available_backend_matches_scalar() {
        let seqs: Vec<Vec<u8>> = [
            "MKVLAWYHEE",
            "PAWHEAE",
            "GGSTPNQRCDGGSTPNQRCD",
            "MK",
            "",
            "W",
            "HEAGAWGHEEHEAGAWGHEE",
        ]
        .iter()
        .map(|s| encode(s).unwrap())
        .collect();
        let pairs: Vec<(&[u8], &[u8])> = (0..seqs.len())
            .flat_map(|i| (0..seqs.len()).map(move |j| (i, j)))
            .map(|(i, j)| (seqs[i].as_slice(), seqs[j].as_slice()))
            .collect();
        let g = GapPenalties::pastis_defaults();
        for backend in SimdBackend::available() {
            let got = sw_score_batch_simd(&pairs, &Blosum62, g, backend);
            assert_eq!(got.promotions, 0, "{backend}: tiny scores promoted");
            for (k, (q, r)) in pairs.iter().enumerate() {
                assert_eq!(
                    got.scores[k],
                    sw_score_only(q, r, &Blosum62, g).0,
                    "{backend} pair {k}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_scoring_takes_scalar_path() {
        // Scores beyond the i16 window must bypass the lanes (build fails)
        // and still come back exact.
        let big = MatchMismatch {
            match_score: 100_000,
            mismatch_score: -100_000,
        };
        let g = GapPenalties::pastis_defaults();
        assert!(LaneTable::build(&big, g).is_none());
        let q = vec![3u8; 12];
        let r = vec![3u8; 12];
        let got = sw_score_batch_simd(&[(&q, &r)], &big, g, SimdBackend::detect());
        assert_eq!(got.scores[0], sw_score_only(&q, &r, &big, g).0);
        assert_eq!(got.promotions, 0);
        // Pathological gap costs likewise.
        let huge_gap = GapPenalties {
            open: i16::MAX as i32,
            extend: 10,
        };
        assert!(LaneTable::build(&Blosum62, huge_gap).is_none());
    }

    // ------------------------------------------------ traceback chunks

    use crate::sw::sw_align;

    type Pair = (Vec<u8>, Vec<u8>);

    /// The pair-per-lane traceback of one chunk on `backend`, whatever
    /// its matrix weighs: a result per pair (`None` for a saturated lane)
    /// and the padded cell count, or `None` if the rule turns the chunk
    /// away.
    fn trace_chunk<S: Scoring>(
        backend: SimdBackend,
        pairs: &[Pair],
        scoring: &S,
        g: GapPenalties,
    ) -> Option<(Vec<Option<AlignmentResult>>, u64)> {
        let table = LaneTable::build(scoring, g).expect("the model fits the i16 scheme");
        let qs: Vec<&[u8]> = pairs.iter().map(|(q, _)| q.as_slice()).collect();
        let rs: Vec<&[u8]> = pairs.iter().map(|(_, r)| r.as_slice()).collect();
        let mut out = vec![None; pairs.len()];
        with_scratch(|scratch| {
            align_lanes_chunk(backend, &qs, &rs, &table, usize::MAX, scratch, &mut out)
        })
        .map(|padded| (out, padded))
    }

    /// Every chunk of `pairs` at every available backend's width equals
    /// `sw_align` pair by pair, in every field; chunks under half full
    /// are turned away.
    fn assert_chunks_equal_sw_align<S: Scoring>(
        pairs: &[Pair],
        scoring: &S,
        g: GapPenalties,
        what: &str,
    ) {
        for backend in SimdBackend::available() {
            let lanes = backend.lanes();
            for (c, chunk) in pairs.chunks(lanes).enumerate() {
                let got = trace_chunk(backend, chunk, scoring, g);
                if 2 * chunk.len() < lanes {
                    assert!(got.is_none(), "{what}: {backend} took a thin chunk");
                    continue;
                }
                let (got, padded) = got.unwrap_or_else(|| panic!("{what}: {backend} chunk {c}"));
                let m = chunk.iter().map(|(q, _)| q.len()).max().unwrap();
                let n = chunk.iter().map(|(_, r)| r.len()).max().unwrap();
                let want_padded = if m == 0 || n == 0 {
                    0
                } else {
                    lanes * m * n.next_multiple_of(TILE_COLS)
                };
                assert_eq!(padded, want_padded as u64, "{what}: {backend} chunk {c}");
                for (l, ((q, r), got)) in chunk.iter().zip(got).enumerate() {
                    let want = sw_align(q, r, scoring, g);
                    assert_eq!(
                        got,
                        Some(want),
                        "{what}: {backend} chunk {c} lane {l} ({}x{}) under {g:?}",
                        q.len(),
                        r.len()
                    );
                }
            }
        }
    }

    fn gap_models() -> [GapPenalties; 3] {
        [
            GapPenalties::pastis_defaults(),
            GapPenalties { open: 1, extend: 1 },
            GapPenalties { open: 3, extend: 0 },
        ]
    }

    /// `n` residues of a fixed pseudo-random sequence, from `start`.
    fn residues(start: usize, n: usize) -> Vec<u8> {
        (start..start + n)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8 % 20)
            .collect()
    }

    #[test]
    fn trace_chunks_at_tile_edges_match_sw_align() {
        // References of 15, 16, 17 and 32 columns end just under, at and
        // just over a tile edge; each width once as the chunk's widest
        // reference and once beside a wider one.
        for width in [15usize, 16, 17, 32] {
            let pairs: Vec<Pair> = (0..16)
                .map(|l| (residues(l, 20 + l), residues(l + 3, width - l % 3)))
                .collect();
            let mut mixed = pairs.clone();
            mixed[5].1 = residues(9, 40);
            for g in gap_models() {
                assert_chunks_equal_sw_align(&pairs, &Blosum62, g, "tile edge");
                assert_chunks_equal_sw_align(&mixed, &Blosum62, g, "tile edge, mixed");
            }
        }
    }

    #[test]
    fn trace_chunks_with_empty_and_dwarfed_lanes_match_sw_align() {
        // Empty queries, empty references, a pair far shorter than its
        // companions (padded below and to the right) and one far longer
        // than them (every other lane padded), in half-full and full
        // chunks.
        let mut pairs: Vec<Pair> = (0..16)
            .map(|l| (residues(l, 30 + l), residues(l + 1, 35 - l)))
            .collect();
        pairs[2].0.clear();
        pairs[7].1.clear();
        pairs[11] = (Vec::new(), Vec::new());
        pairs[4] = (residues(4, 3), residues(5, 2));
        pairs[9] = (residues(0, 150), residues(2, 170));
        for g in gap_models() {
            assert_chunks_equal_sw_align(&pairs, &Blosum62, g, "ragged");
            assert_chunks_equal_sw_align(&pairs[..8], &Blosum62, g, "ragged, half full");
        }
        let empty = vec![(Vec::new(), residues(0, 9)); 16];
        assert_chunks_equal_sw_align(&empty, &Blosum62, gap_models()[0], "all queries empty");
    }

    #[test]
    fn trace_chunks_of_identical_pairs_and_homopolymers_match_sw_align() {
        // Homopolymers tie everywhere: many cells share the maximum and
        // many directions share a cell's value, so only the first-maximum
        // rule and the direction priority pick the alignment.
        let unit = MatchMismatch {
            match_score: 1,
            mismatch_score: -1,
        };
        let identical: Vec<Pair> = (0..16)
            .map(|l| (residues(l, 33), residues(l, 33)))
            .collect();
        let homopolymers: Vec<Pair> = (0..16)
            .map(|l| (vec![3u8; 5 + 2 * l], vec![3u8; 36 - 2 * l]))
            .collect();
        for g in gap_models() {
            assert_chunks_equal_sw_align(&identical, &Blosum62, g, "identical");
            assert_chunks_equal_sw_align(&homopolymers, &Blosum62, g, "homopolymers");
            assert_chunks_equal_sw_align(&homopolymers, &unit, g, "homopolymers/+1-1");
        }
    }

    #[test]
    fn a_saturated_lane_is_handed_back_and_its_neighbours_are_exact() {
        // 259 matches at 127 pass i16::MAX; the table still has i8 rows.
        let steep = MatchMismatch {
            match_score: 127,
            mismatch_score: -127,
        };
        let g = GapPenalties::pastis_defaults();
        let mut pairs: Vec<Pair> = (0..16)
            .map(|l| (residues(l, 40 + l), residues(l + 2, 50 - l)))
            .collect();
        pairs[6] = (vec![7u8; 259], vec![7u8; 259]);
        assert_eq!(
            sw_align(&pairs[6].0, &pairs[6].1, &steep, g).score,
            259 * 127
        );
        for backend in SimdBackend::available() {
            for chunk in pairs.chunks(backend.lanes()) {
                let (got, _) = trace_chunk(backend, chunk, &steep, g).expect("full chunks");
                for ((q, r), got) in chunk.iter().zip(got) {
                    let want = sw_align(q, r, &steep, g);
                    let want = (want.score < i16::MAX as i32).then_some(want);
                    assert_eq!(got, want, "{backend} {}x{}", q.len(), r.len());
                }
            }
        }
    }

    #[test]
    fn chunks_outside_the_rule_are_turned_away() {
        let g = GapPenalties::pastis_defaults();
        let pairs: Vec<Pair> = (0..16)
            .map(|l| (residues(l, 20), residues(l, 30)))
            .collect();
        let qs: Vec<&[u8]> = pairs.iter().map(|(q, _)| q.as_slice()).collect();
        let rs: Vec<&[u8]> = pairs.iter().map(|(_, r)| r.as_slice()).collect();
        let run = |backend: SimdBackend, table: &LaneTable, cap: usize| {
            let n = backend.lanes();
            let mut out = vec![None; n];
            with_scratch(|scratch| {
                align_lanes_chunk(backend, &qs[..n], &rs[..n], table, cap, scratch, &mut out)
            })
        };
        let blosum = LaneTable::build(&Blosum62, g).unwrap();
        // Scores of ±200 fit the i16 scheme but not the i8 rows.
        let wide = MatchMismatch {
            match_score: 200,
            mismatch_score: -200,
        };
        let wide = LaneTable::build(&wide, g).unwrap();
        assert!(wide.byte_rows().is_none());
        for backend in SimdBackend::available() {
            let matrix = trace_matrix_bytes(backend, 20, 30);
            assert_eq!(matrix % (20 * 32), 0, "{backend}: 20 rows of two tiles");
            assert!(run(backend, &blosum, matrix - 1).is_none(), "{backend}");
            let padded = (backend.lanes() * 20 * 32) as u64;
            assert_eq!(run(backend, &blosum, matrix), Some(padded), "{backend}");
            assert_eq!(run(backend, &blosum, matrix + 1), Some(padded), "{backend}");
            assert!(run(backend, &wide, usize::MAX).is_none(), "{backend}");
        }
        // One query past the i16 row counter.
        let tall = vec![1u8; i16::MAX as usize + 1];
        let mut qs = qs;
        qs[3] = &tall;
        for backend in SimdBackend::available() {
            let n = backend.lanes();
            let mut out = vec![None; n];
            let got = with_scratch(|scratch| {
                align_lanes_chunk(
                    backend,
                    &qs[..n],
                    &rs[..n],
                    &blosum,
                    usize::MAX,
                    scratch,
                    &mut out,
                )
            });
            assert!(got.is_none(), "{backend}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Ragged chunks over a four-letter alphabet, where ties are the
        /// rule, under BLOSUM62 and a two-valued model and every gap
        /// model: 8 to 16 pairs, so that every width has a chunk at
        /// least half full, of 0 to 40 residues a side.
        #[test]
        fn ragged_trace_chunks_match_sw_align(
            pairs in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..4, 0..40),
                    proptest::collection::vec(0u8..4, 0..40),
                ),
                8..=16,
            ),
        ) {
            let unit = MatchMismatch { match_score: 1, mismatch_score: -1 };
            for g in gap_models() {
                assert_chunks_equal_sw_align(&pairs, &Blosum62, g, "proptest/blosum62");
                assert_chunks_equal_sw_align(&pairs, &unit, g, "proptest/+1-1");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lanes_always_match_scalar(
            a in proptest::collection::vec(0u8..21, 0..24),
            b in proptest::collection::vec(0u8..21, 0..24),
            c in proptest::collection::vec(0u8..21, 0..24),
            d in proptest::collection::vec(0u8..21, 0..24),
        ) {
            let got = lanes(&[(&a, &b), (&c, &d)]);
            prop_assert_eq!(got[0], scalar(&a, &b));
            prop_assert_eq!(got[1], scalar(&c, &d));
        }
    }
}
