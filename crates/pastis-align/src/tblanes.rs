//! Traceback Smith–Waterman on SIMD lanes: one pair at a time, the
//! anti-diagonal of its DP matrix in a vector.
//!
//! The multilane kernel ([`crate::multilane`]) puts one *pair* in each
//! lane, and for a traceback every lane then needs its own direction
//! matrix at once: `LANES` pairs' worth, which pays while it stays
//! cache-resident and costs resident memory per worker thread either way.
//! So [`AlignPool::run_traceback`](crate::parallel::AlignPool::run_traceback)
//! runs a lane chunk there only under a byte cap
//! (`multilane::TRACE_CAP_BYTES`, with the measurements behind it) and
//! only when the chunk fills at least half the vector; every other pair
//! comes here: the long ones, the thin tail of a batch, and scoring
//! models whose scores do not fit the score tiles' i8 rows. This kernel
//! is the CPU analogue of ADEPT's intra-alignment wavefront, one pair's
//! matrix at a time. The query is cut into strips of
//! `V::LANES` rows; lane `l` owns row `i0 + l` of the strip and at step
//! `t` computes column `t - l`, so one vector holds one anti-diagonal and
//! every dependency of a cell is a lane of an earlier step:
//!
//! ```text
//! E(i, j)   from (i, j-1):    same lane,  step t-1
//! F(i, j)   from (i-1, j):    lane l-1,   step t-1   (one-lane shift)
//! diagonal  from (i-1, j-1):  lane l-1,   step t-2   (the shift of step t-1, kept)
//! ```
//!
//! Lane 0 takes its upper neighbours from the *boundary rows*: `H` and `F`
//! of the previous strip's last row, which the top lane writes as it goes.
//!
//! # Bit-identity with [`sw_align`](crate::sw::sw_align)
//!
//! Nothing is iterated to convergence (no lazy-F loop): every cell's `H`,
//! `E`, `F` and its direction byte come from the same comparisons as the
//! scalar kernel's, in the same priority order (`diag > E > F > stop`,
//! extension only on strict `>`), so ties break equally by construction.
//! The best cell is tracked per lane — per row, the first column reaching
//! the row's maximum — and rows are reduced in ascending order with a
//! strict `>`, which is the scalar kernel's first maximum in row-major
//! order.
//!
//! The arithmetic is saturating i16 under the [`LaneTable`] validation,
//! exact for the reasons given in [`crate::multilane`]: `H` lives in
//! `[0, best]`, and `E`/`F` can only bottom out at `i16::MIN`, where they
//! lose every comparison exactly as the scalar kernel's `−∞` sentinel
//! does (`H − first ≥ −i16::MAX` always beats it). A pair whose best
//! reaches `i16::MAX` may have saturated and is handed back (`None`) for
//! the scalar kernel to redo.
//!
//! Cells outside the matrix that a skewed strip passes through are inert:
//! left of column 0 the profile holds the PAD score, which keeps `H` at 0
//! and `E` at or below `−first`, the values the scalar kernel starts a row
//! with (an `E` of `−first` where the scalar has `−∞` cannot win either:
//! `E − extend > H − first` needs `extend < 0`); right of the last column
//! and below the last row nothing reads them, and the best-cell tracking
//! masks them out.
//!
//! # Layout
//!
//! One direction byte per cell, strip-major and skewed: strip `s`, step
//! `t`, lane `l` is at `(s · steps + t) · LANES + l` with
//! `steps = n + LANES − 1`, so each step stores its bytes with one narrow
//! vector store.
//!
//! The score vector of step `t`, `score(q[i0 + l], r[t − l])` over lanes
//! `l`, is the by-residue vector of column `t` with lane `l` delayed by
//! `l` steps. A table lookup per cell to build it costs more than the DP
//! itself, so the delay is applied with vector selects in two halves:
//! `l mod 4` steps while the strip's profile is laid down (each step
//! blends the by-residue vectors of four neighbouring columns), and
//! `4 · ⌊l / 4⌋` steps as the DP loop reads it (each step blends four
//! earlier profile steps; two on 8 lanes).
//!
//! Bytes, the strip's profile and by-residue vectors, and the boundary
//! rows live in the calling thread's `TbScratch` (`crate::sw`) and are
//! reused from pair to pair.

use crate::multilane::{LaneTable, PAD_IDX, PAD_SCORE, TABLE_DIM};
use crate::simd::{ScalarLanes, SimdBackend, SimdVec, MAX_LANES};
use crate::sw::{
    traceback, with_scratch, AlignmentResult, TbScratch, E_EXT, F_EXT, H_DIAG, H_FROM_E, H_FROM_F,
};

#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2Vec, Sse2Vec};

#[cfg(target_arch = "aarch64")]
use crate::simd::NeonVec;

/// Longest reference the lanes take: step and column numbers are tracked
/// in i16 lanes.
const MAX_COLS: usize = i16::MAX as usize - MAX_LANES;

/// The skew of the score profile is split into a low part (`l mod 4`
/// steps, applied while the profile is laid down) and a high part
/// (`4 · (l / 4)` steps, applied as the DP loop reads it).
const LOW_DELAYS: usize = 4;

/// Lane numbers, for masking the lanes that have run off the right edge.
const LANE_IDS: [i16; MAX_LANES] = {
    let mut ids = [0i16; MAX_LANES];
    let mut l = 0;
    while l < MAX_LANES {
        ids[l] = l as i16;
        l += 1;
    }
    ids
};

/// The kernel proper, generic over the lane type. `None` means the pair
/// cannot be done exactly on i16 lanes (too long, or its score reached
/// `i16::MAX`).
#[inline(always)]
fn align_kernel<V: SimdVec>(
    q: &[u8],
    r: &[u8],
    table: &LaneTable,
    scratch: &mut TbScratch,
) -> Option<AlignmentResult> {
    let (m, n) = (q.len(), r.len());
    if m == 0 || n == 0 {
        return Some(AlignmentResult::empty(m, n));
    }
    if n > MAX_COLS {
        return None;
    }
    const { assert!(V::LANES % LOW_DELAYS == 0 && V::LANES <= MAX_LANES) };
    let lanes = V::LANES;
    let steps = n + lanes - 1;
    let strip_bytes = steps * lanes;
    let strips = m.div_ceil(lanes);
    if scratch.tb.len() < strips * strip_bytes {
        scratch.tb.resize(strips * strip_bytes, 0);
    }
    // Reference codes with PAD on both sides, so that every step finds a
    // code for each of the columns t - 3 ..= t: codes[k] is column k - 3.
    scratch.codes.clear();
    scratch.codes.resize(LOW_DELAYS - 1, PAD_IDX as u8);
    scratch.codes.extend_from_slice(r);
    scratch.codes.resize(LOW_DELAYS - 1 + steps, PAD_IDX as u8);
    // i16 scratch: the half-skewed profile (with `front` PAD steps before
    // step 0), the two boundary rows, and the strip's scores by code.
    // Boundary entry k is column k - 1, so entry 0 is the left border.
    let front = lanes - LOW_DELAYS;
    let half_len = (front + steps) * lanes;
    let lanes_len = half_len + 2 * (steps + 1) + TABLE_DIM * lanes;
    if scratch.lanes.len() < lanes_len {
        scratch.lanes.resize(lanes_len, 0);
    }
    let (half, rest) = scratch.lanes[..lanes_len].split_at_mut(half_len);
    let (hb, rest) = rest.split_at_mut(steps + 1);
    let (fb, by_code) = rest.split_at_mut(steps + 1);
    half[..front * lanes].fill(PAD_SCORE);
    hb.fill(0);
    fb.fill(i16::MIN);

    let zero = V::zero();
    let neg = V::splat(i16::MIN);
    let one = V::splat(1);
    let vfirst = V::splat(table.first);
    let vext = V::splat(table.extend);
    let (c_diag, c_e, c_f) = (
        V::splat(H_DIAG as i16),
        V::splat(H_FROM_E as i16),
        V::splat(H_FROM_F as i16),
    );
    let (c_eext, c_fext) = (V::splat(E_EXT as i16), V::splat(F_EXT as i16));
    let lane_ids = V::load(&LANE_IDS);
    // Lanes whose delay is at least `d` (low half: l mod 4 >= d) or at
    // least 4k (high half: l >= 4k); entry 0 of each is unused.
    let low_lane = lane_ids.and(V::splat(LOW_DELAYS as i16 - 1));
    let low_masks: [V; LOW_DELAYS] = std::array::from_fn(|d| low_lane.gt(V::splat(d as i16 - 1)));
    let high_masks: [V; MAX_LANES / LOW_DELAYS] =
        std::array::from_fn(|k| lane_ids.gt(V::splat((k * LOW_DELAYS) as i16 - 1)));
    let (mut best, mut bi, mut bj) = (0i16, 0usize, 0usize);

    for (s, tb) in scratch
        .tb
        .chunks_exact_mut(strip_bytes)
        .take(strips)
        .enumerate()
    {
        let i0 = s * lanes;
        let rows = (m - i0).min(lanes);
        // Per residue code c (PAD included), the vector over lanes of
        // score(q[i0 + l], c).
        by_code.fill(PAD_SCORE);
        for (l, &qc) in q[i0..i0 + rows].iter().enumerate() {
            let scores = &table.flat[qc as usize * TABLE_DIM..][..TABLE_DIM];
            for (by_lane, &score) in by_code.chunks_exact_mut(lanes).zip(scores) {
                by_lane[l] = score;
            }
        }
        // Step t wants score(q[i0 + l], r[t - l]) in lane l: the by-code
        // vector of column t, with lane l delayed by l steps. The delay is
        // applied in two halves, each a few selects per step in place of
        // a scatter per cell: l mod 4 here, from four neighbouring
        // columns; 4 * (l / 4) in the DP loop, from four (two on 8 lanes)
        // earlier steps of this half-skewed profile.
        for (out, cols) in half[front * lanes..]
            .chunks_exact_mut(lanes)
            .zip(scratch.codes.windows(LOW_DELAYS))
        {
            let column = |back: usize| {
                let code = cols[LOW_DELAYS - 1 - back] as usize;
                V::load(&by_code[code * lanes..(code + 1) * lanes])
            };
            let mut v = column(0);
            for (back, &mask) in low_masks.iter().enumerate().skip(1) {
                v = V::select(mask, column(back), v);
            }
            v.store(out);
        }

        let (mut h, mut e, mut f) = (zero, neg, neg);
        // H of lane l - 1 one step back: the upper neighbour now, the
        // diagonal neighbour at the next step.
        let mut h_up_prev = zero;
        let (mut row_best, mut row_best_t, mut tv) = (zero, zero, zero);
        let mut last = [0i16; MAX_LANES];
        for (t, (recent, flags_out)) in half
            .windows((front + 1) * lanes)
            .step_by(lanes)
            .zip(tb.chunks_exact_mut(lanes))
            .enumerate()
        {
            // `recent` ends with step t of the half-skewed profile.
            let earlier =
                |back: usize| V::load(&recent[(front - back) * lanes..(front - back + 1) * lanes]);
            let mut scores = earlier(0);
            for (k, &mask) in high_masks[..lanes / LOW_DELAYS].iter().enumerate().skip(1) {
                scores = V::select(mask, earlier(k * LOW_DELAYS), scores);
            }
            let h_up = h.shift_in(hb[t + 1]);
            let f_up = f.shift_in(fb[t + 1]);
            let e_open = h.sub_sat(vfirst);
            let e_ext = e.sub_sat(vext);
            e = e_open.max(e_ext);
            let f_open = h_up.sub_sat(vfirst);
            let f_ext = f_up.sub_sat(vext);
            f = f_open.max(f_ext);
            let diag = h_up_prev.add_sat(scores);
            // The source is the largest code whose comparison held, as in
            // the scalar kernel.
            let h_d = diag.max(zero);
            let h_e = e.max(h_d);
            h = f.max(h_e);
            let src = diag
                .gt(zero)
                .and(c_diag)
                .max(e.gt(h_d).and(c_e))
                .max(f.gt(h_e).and(c_f));
            src.or(e_ext.gt(e_open).and(c_eext))
                .or(f_ext.gt(f_open).and(c_fext))
                .store_bytes(flags_out);
            h_up_prev = h_up;

            // The top lane is the next strip's upper boundary. It writes
            // entry t + 2 - lanes, behind every entry still to be read.
            if t + 1 >= lanes {
                h.store(&mut last);
                hb[t + 2 - lanes] = last[lanes - 1];
                f.store(&mut last);
                fb[t + 2 - lanes] = last[lanes - 1];
            }

            // Per row, the first column reaching the row's maximum. From
            // step n on, lanes 0..=t-n have run off the right edge.
            let candidate = if t >= n {
                h.and(lane_ids.gt(V::splat((t - n) as i16)))
            } else {
                h
            };
            row_best_t = row_best_t.max(candidate.gt(row_best).and(tv));
            row_best = row_best.max(candidate);
            tv = tv.add_sat(one);
        }

        let (mut rb, mut rt) = ([0i16; MAX_LANES], [0i16; MAX_LANES]);
        row_best.store(&mut rb);
        row_best_t.store(&mut rt);
        for l in 0..rows {
            if rb[l] > best {
                best = rb[l];
                bi = i0 + l + 1;
                bj = rt[l] as usize - l + 1;
            }
        }
        if best == i16::MAX {
            return None;
        }
    }

    let tb = &scratch.tb;
    Some(traceback(
        q,
        r,
        best as i32,
        bi,
        bj,
        &mut scratch.ops_rev,
        |i, j| {
            let l = i % lanes;
            tb[(i / lanes) * strip_bytes + (j + l) * lanes + l]
        },
    ))
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
unsafe fn align_avx2(
    q: &[u8],
    r: &[u8],
    table: &LaneTable,
    scratch: &mut TbScratch,
) -> Option<AlignmentResult> {
    align_kernel::<Avx2Vec>(q, r, table, scratch)
}

/// [`sw_align_lanes`] on the calling thread's scratch: the anti-diagonal
/// kernel for one pair on an explicit backend, which the kernel benchmark
/// sets beside [`AlignPool::run_traceback`](crate::parallel::AlignPool::run_traceback)'s
/// pair-per-lane chunks.
pub fn sw_align_antidiagonal(
    backend: SimdBackend,
    q: &[u8],
    r: &[u8],
    table: &LaneTable,
) -> Option<AlignmentResult> {
    with_scratch(|scratch| sw_align_lanes(backend, q, r, table, scratch))
}

/// Align `q` against `r` with traceback on `backend`'s lanes; the result
/// equals [`sw_align`](crate::sw::sw_align)'s in every field. `None` when
/// the pair needs the scalar kernel: a reference longer than the i16
/// column counter, or a score that reached `i16::MAX`. An unavailable
/// backend degrades to the portable lanes.
pub(crate) fn sw_align_lanes(
    backend: SimdBackend,
    q: &[u8],
    r: &[u8],
    table: &LaneTable,
    scratch: &mut TbScratch,
) -> Option<AlignmentResult> {
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => align_kernel::<Sse2Vec>(q, r, table, scratch),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only dispatched after runtime detection.
        SimdBackend::Avx2 if backend.is_available() => unsafe { align_avx2(q, r, table, scratch) },
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => align_kernel::<NeonVec>(q, r, table, scratch),
        _ => align_kernel::<ScalarLanes<16>>(q, r, table, scratch),
    }
}
