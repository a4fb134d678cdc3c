//! Exact affine-gap Smith–Waterman local alignment.
//!
//! This is the alignment kernel of the pipeline: ADEPT (the paper's GPU
//! library) "realizes the full Smith–Waterman sequence alignment", i.e. the
//! entire `m × n` dynamic-programming matrix is computed — which is why the
//! paper's preferred load-balance metric is the *sum of DP-matrix sizes*
//! (Figure 7b) and its kernel metric is cell updates per second.
//!
//! Two kernels:
//! * [`sw_score_only`] — linear memory, returns score, end coordinates and
//!   the exact cell count; used when only filtering on score.
//! * [`sw_align`] — full traceback, returning the alignment operations and
//!   the statistics the PASTIS filter needs (identity a.k.a. ANI, per-
//!   sequence coverage).
//!
//! Gap convention: a gap run of length `k` costs `open + k·extend`
//! (NCBI-BLAST convention; the paper's production parameters are
//! `open = 11`, `extend = 2`).

use crate::matrices::Scoring;

/// Affine gap penalties (positive numbers; they are subtracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// Cost of opening a gap run (charged once per run, on top of the
    /// first `extend`).
    pub open: i32,
    /// Cost per gap character.
    pub extend: i32,
}

impl GapPenalties {
    /// The paper's production parameters: open 11, extend 2 (Table IV).
    pub fn pastis_defaults() -> GapPenalties {
        GapPenalties {
            open: 11,
            extend: 2,
        }
    }

    /// NCBI BLASTP defaults: open 11, extend 1.
    pub fn blast_defaults() -> GapPenalties {
        GapPenalties {
            open: 11,
            extend: 1,
        }
    }

    #[inline]
    fn first(self) -> i32 {
        self.open + self.extend
    }
}

/// One column of a pairwise alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Identical residues aligned.
    Match,
    /// Differing residues aligned.
    Mismatch,
    /// Gap in the query (consumes a reference residue).
    GapInQuery,
    /// Gap in the reference (consumes a query residue).
    GapInRef,
}

/// Result of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentResult {
    /// Optimal local alignment score (≥ 0).
    pub score: i32,
    /// Query span `[q_begin, q_end)` of the aligned region (0-based).
    pub q_begin: usize,
    /// Exclusive end of the query span.
    pub q_end: usize,
    /// Reference span `[r_begin, r_end)`.
    pub r_begin: usize,
    /// Exclusive end of the reference span.
    pub r_end: usize,
    /// Identically aligned columns.
    pub matches: usize,
    /// Substituted columns.
    pub mismatches: usize,
    /// Gap characters in the query.
    pub q_gaps: usize,
    /// Gap characters in the reference.
    pub r_gaps: usize,
    /// DP cells computed (`|q| · |r|`), the CUPs numerator.
    pub cells: u64,
    /// Alignment operations, query-to-reference, in sequence order.
    pub ops: Vec<AlignOp>,
}

impl AlignmentResult {
    pub(crate) fn empty(qlen: usize, rlen: usize) -> AlignmentResult {
        AlignmentResult {
            score: 0,
            q_begin: 0,
            q_end: 0,
            r_begin: 0,
            r_end: 0,
            matches: 0,
            mismatches: 0,
            q_gaps: 0,
            r_gaps: 0,
            cells: (qlen as u64) * (rlen as u64),
            ops: Vec::new(),
        }
    }

    /// Total alignment columns.
    pub fn aligned_cols(&self) -> usize {
        self.matches + self.mismatches + self.q_gaps + self.r_gaps
    }

    /// Sequence identity over the alignment — the quantity the paper's
    /// "ANI threshold" (0.30 in Table IV) is applied to. 0 for an empty
    /// alignment.
    pub fn identity(&self) -> f64 {
        let cols = self.aligned_cols();
        if cols == 0 {
            0.0
        } else {
            self.matches as f64 / cols as f64
        }
    }

    /// Fraction of the query covered by the aligned span.
    pub fn coverage_query(&self, qlen: usize) -> f64 {
        if qlen == 0 {
            0.0
        } else {
            (self.q_end - self.q_begin) as f64 / qlen as f64
        }
    }

    /// Fraction of the reference covered by the aligned span.
    pub fn coverage_ref(&self, rlen: usize) -> f64 {
        if rlen == 0 {
            0.0
        } else {
            (self.r_end - self.r_begin) as f64 / rlen as f64
        }
    }

    /// The smaller of the two coverages — what the paper's coverage
    /// threshold (0.70) is checked against.
    pub fn coverage_min(&self, qlen: usize, rlen: usize) -> f64 {
        self.coverage_query(qlen).min(self.coverage_ref(rlen))
    }
}

/// Score-only Smith–Waterman: linear memory, no traceback.
///
/// Returns `(score, q_end, r_end, cells)` where the ends are exclusive
/// coordinates of the best-scoring cell.
pub fn sw_score_only<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
) -> (i32, usize, usize, u64) {
    let (m, n) = (q.len(), r.len());
    let cells = (m as u64) * (n as u64);
    if m == 0 || n == 0 {
        return (0, 0, 0, cells);
    }
    // h_prev[j] = H(i-1, j); e[j] = E(i, j) built left-to-right;
    // f_prev[j] = F(i-1, j) required for F recursion — keep per-row F.
    let mut h_prev = vec![0i32; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut f_prev = vec![i32::MIN / 2; n + 1];
    let mut f_cur = vec![i32::MIN / 2; n + 1];
    let (mut best, mut bi, mut bj) = (0i32, 0usize, 0usize);
    for i in 1..=m {
        let qi = q[i - 1];
        let mut e = i32::MIN / 2;
        for j in 1..=n {
            e = (h_cur[j - 1] - gaps.first()).max(e - gaps.extend);
            let f = (h_prev[j] - gaps.first()).max(f_prev[j] - gaps.extend);
            f_cur[j] = f;
            let diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
            let h = 0.max(diag).max(e).max(f);
            h_cur[j] = h;
            if h > best {
                best = h;
                bi = i;
                bj = j;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
        h_cur[0] = 0;
    }
    (best, bi, bj, cells)
}

// Traceback encoding, one byte per cell:
// bits 0-1: H source (0 = stop/zero, 1 = diagonal, 2 = E, 3 = F)
// bit 2: E extends a previous E (otherwise opens from H at (i, j-1))
// bit 3: F extends a previous F (otherwise opens from H at (i-1, j))
pub(crate) const H_STOP: u8 = 0;
pub(crate) const H_DIAG: u8 = 1;
pub(crate) const H_FROM_E: u8 = 2;
pub(crate) const H_FROM_F: u8 = 3;
pub(crate) const E_EXT: u8 = 1 << 2;
pub(crate) const F_EXT: u8 = 1 << 3;

/// A traceback matrix larger than this is released after the pair that
/// needed it, so one giant alignment does not pin its matrix to the
/// thread for good; everything smaller stays for the next pair.
const SCRATCH_KEEP_BYTES: usize = 4 << 20;

/// Per-thread buffers of the traceback kernels, reused from pair to pair:
/// the direction bytes (row-major here, strip-major skewed in
/// [`crate::tblanes`], a whole lane chunk's masks in
/// [`crate::multilane`]), the scalar kernel's `H`/`F` rows, the
/// anti-diagonal kernel's i16 profile and strip boundary rows, and the
/// reversed operation list the walk builds. The pair-per-lane kernel
/// ([`crate::multilane`]) keeps its shuffle indices in `codes` and its
/// `H`/`F` rows in `lanes`, from chunk to chunk.
#[derive(Default)]
pub(crate) struct TbScratch {
    pub(crate) tb: Vec<u8>,
    rows: Vec<[i32; 2]>,
    pub(crate) lanes: Vec<i16>,
    pub(crate) codes: Vec<u8>,
    pub(crate) ops_rev: Vec<AlignOp>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<TbScratch> = std::cell::RefCell::default();
}

/// Run `f` with this thread's [`TbScratch`] (a fresh one if `f` is itself
/// running inside another `with_scratch` on this thread, which only a
/// `Scoring` or lookup that aligns could bring about).
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut TbScratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut s) => {
            let out = f(&mut s);
            if s.tb.capacity() > SCRATCH_KEEP_BYTES {
                s.tb = Vec::new();
            }
            out
        }
        Err(_) => f(&mut TbScratch::default()),
    })
}

/// Full Smith–Waterman with traceback and alignment statistics.
///
/// O(m·n) time and memory (one byte per DP cell for the traceback, held
/// in a per-thread buffer that is reused from call to call). This is the
/// reference every vector traceback backend is pinned against, and the
/// per-pair fallback of [`crate::parallel::AlignPool::run_traceback`].
pub fn sw_align<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
) -> AlignmentResult {
    with_scratch(|scratch| sw_align_in(q, r, scoring, gaps, scratch))
}

/// [`sw_align`] on the caller's scratch.
pub(crate) fn sw_align_in<S: Scoring>(
    q: &[u8],
    r: &[u8],
    scoring: &S,
    gaps: GapPenalties,
    scratch: &mut TbScratch,
) -> AlignmentResult {
    let (m, n) = (q.len(), r.len());
    if m == 0 || n == 0 {
        return AlignmentResult::empty(m, n);
    }
    if scratch.tb.len() < m * n {
        scratch.tb.resize(m * n, 0);
    }
    // One row of (H, F) per column, updated in place: entry j holds row
    // i - 1 until cell (i, j) overwrites it with row i.
    scratch.rows.clear();
    scratch.rows.resize(n, [0, i32::MIN / 2]);
    let (first, extend) = (gaps.first(), gaps.extend);
    let (mut best, mut bi, mut bj) = (0i32, 0usize, 0usize);
    for (i, (&qi, tb_row)) in q.iter().zip(scratch.tb.chunks_exact_mut(n)).enumerate() {
        let mut e = i32::MIN / 2;
        let (mut h_left, mut h_diag) = (0, 0);
        let (mut row_best, mut row_bj) = (best, 0);
        let cells = r.iter().zip(scratch.rows.iter_mut()).zip(tb_row.iter_mut());
        for (j, ((&rj, hf), tb)) in cells.enumerate() {
            let [h_up, f_up] = *hf;
            // Every flag is the outcome of a comparison, so the cell has
            // no data-dependent branch. Extension wins only on strict `>`.
            let e_open = h_left - first;
            let e_ext = e - extend;
            e = e_open.max(e_ext);
            let f_open = h_up - first;
            let f_ext = f_up - extend;
            let f = f_open.max(f_ext);
            let diag = h_diag + scoring.score(qi, rj);
            // Tie-break preference: diagonal > E > F > stop, which yields
            // the most "matched" alignment among optimal ones. A later
            // source replaces an earlier one only when strictly greater,
            // and its code is larger, so the source is the largest code
            // whose comparison held.
            let h_d = diag.max(0);
            let h_e = e.max(h_d);
            let h = f.max(h_e);
            let src = (u8::from(diag > 0) * H_DIAG)
                .max(u8::from(e > h_d) * H_FROM_E)
                .max(u8::from(f > h_e) * H_FROM_F);
            *tb = src | (u8::from(e_ext > e_open) * E_EXT) | (u8::from(f_ext > f_open) * F_EXT);
            *hf = [h, f];
            h_diag = h_up;
            h_left = h;
            if h > row_best {
                row_best = h;
                row_bj = j + 1;
            }
        }
        // The first strict maximum in row-major order: a row takes over
        // only by beating every earlier row, at its first such column.
        if row_best > best {
            best = row_best;
            bi = i + 1;
            bj = row_bj;
        }
    }
    let tb = &scratch.tb;
    traceback(q, r, best, bi, bj, &mut scratch.ops_rev, |i, j| {
        tb[i * n + j]
    })
}

/// Walk the direction bytes back from the best cell `(bi, bj)` (1-based,
/// as the fill loops count) and assemble the result. `cell(i, j)` is the
/// byte of the 0-based cell, which is all a kernel's layout has to supply.
pub(crate) fn traceback(
    q: &[u8],
    r: &[u8],
    best: i32,
    bi: usize,
    bj: usize,
    ops_rev: &mut Vec<AlignOp>,
    cell: impl Fn(usize, usize) -> u8,
) -> AlignmentResult {
    let mut res = AlignmentResult::empty(q.len(), r.len());
    res.score = best;
    if best == 0 {
        return res;
    }
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let (mut i, mut j) = (bi, bj);
    let mut state = State::H;
    ops_rev.clear();
    loop {
        let cell = cell(i - 1, j - 1);
        match state {
            State::H => match cell & 0b11 {
                H_STOP => break,
                H_DIAG => {
                    if q[i - 1] == r[j - 1] {
                        res.matches += 1;
                        ops_rev.push(AlignOp::Match);
                    } else {
                        res.mismatches += 1;
                        ops_rev.push(AlignOp::Mismatch);
                    }
                    i -= 1;
                    j -= 1;
                    if i == 0 || j == 0 {
                        break;
                    }
                }
                H_FROM_E => state = State::E,
                H_FROM_F => state = State::F,
                _ => unreachable!(),
            },
            State::E => {
                // Gap in query, consuming r[j-1].
                res.q_gaps += 1;
                ops_rev.push(AlignOp::GapInQuery);
                let ext = cell & E_EXT != 0;
                j -= 1;
                if j == 0 {
                    break;
                }
                if !ext {
                    state = State::H;
                }
            }
            State::F => {
                // Gap in reference, consuming q[i-1].
                res.r_gaps += 1;
                ops_rev.push(AlignOp::GapInRef);
                let ext = cell & F_EXT != 0;
                i -= 1;
                if i == 0 {
                    break;
                }
                if !ext {
                    state = State::H;
                }
            }
        }
    }
    res.q_begin = i;
    res.q_end = bi;
    res.r_begin = j;
    res.r_end = bj;
    res.ops = ops_rev.iter().rev().copied().collect();
    res
}

/// Recompute the score of an alignment from its operations — the checking
/// oracle used by the test suite.
pub fn rescore<S: Scoring>(
    q: &[u8],
    r: &[u8],
    res: &AlignmentResult,
    scoring: &S,
    gaps: GapPenalties,
) -> i32 {
    let mut score = 0i32;
    let (mut i, mut j) = (res.q_begin, res.r_begin);
    let mut prev: Option<AlignOp> = None;
    for &op in &res.ops {
        match op {
            AlignOp::Match | AlignOp::Mismatch => {
                score += scoring.score(q[i], r[j]);
                i += 1;
                j += 1;
            }
            AlignOp::GapInQuery => {
                score -= if prev == Some(AlignOp::GapInQuery) {
                    gaps.extend
                } else {
                    gaps.first()
                };
                j += 1;
            }
            AlignOp::GapInRef => {
                score -= if prev == Some(AlignOp::GapInRef) {
                    gaps.extend
                } else {
                    gaps.first()
                };
                i += 1;
            }
        }
        prev = Some(op);
    }
    assert_eq!(i, res.q_end, "ops do not span the query range");
    assert_eq!(j, res.r_end, "ops do not span the reference range");
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{encode, Blosum62, MatchMismatch};
    use proptest::prelude::*;

    fn gp(open: i32, extend: i32) -> GapPenalties {
        GapPenalties { open, extend }
    }

    /// The kernel as it was first written: a branch per decision and fresh
    /// buffers per pair. Kept as the oracle the branch-free [`sw_align`]
    /// is pinned against, field for field.
    fn sw_align_branchy<S: Scoring>(
        q: &[u8],
        r: &[u8],
        scoring: &S,
        gaps: GapPenalties,
    ) -> AlignmentResult {
        let (m, n) = (q.len(), r.len());
        if m == 0 || n == 0 {
            return AlignmentResult::empty(m, n);
        }
        let mut tb = vec![0u8; m * n];
        let mut h_prev = vec![0i32; n + 1];
        let mut h_cur = vec![0i32; n + 1];
        let mut f_prev = vec![i32::MIN / 2; n + 1];
        let mut f_cur = vec![i32::MIN / 2; n + 1];
        let (mut best, mut bi, mut bj) = (0i32, 0usize, 0usize);
        for i in 1..=m {
            let qi = q[i - 1];
            let mut e = i32::MIN / 2;
            let row = (i - 1) * n;
            for j in 1..=n {
                let mut flags = 0u8;
                let e_open = h_cur[j - 1] - gaps.first();
                let e_ext = e - gaps.extend;
                e = if e_ext > e_open {
                    flags |= E_EXT;
                    e_ext
                } else {
                    e_open
                };
                let f_open = h_prev[j] - gaps.first();
                let f_ext = f_prev[j] - gaps.extend;
                let f = if f_ext > f_open {
                    flags |= F_EXT;
                    f_ext
                } else {
                    f_open
                };
                f_cur[j] = f;
                let diag = h_prev[j - 1] + scoring.score(qi, r[j - 1]);
                // Tie-break preference: diagonal > E > F > stop, which yields
                // the most "matched" alignment among optimal ones.
                let mut h = 0;
                let mut src = H_STOP;
                if diag > h {
                    h = diag;
                    src = H_DIAG;
                }
                if e > h {
                    h = e;
                    src = H_FROM_E;
                }
                if f > h {
                    h = f;
                    src = H_FROM_F;
                }
                h_cur[j] = h;
                tb[row + (j - 1)] = flags | src;
                if h > best {
                    best = h;
                    bi = i;
                    bj = j;
                }
            }
            std::mem::swap(&mut h_prev, &mut h_cur);
            std::mem::swap(&mut f_prev, &mut f_cur);
            h_cur[0] = 0;
        }

        let mut res = AlignmentResult::empty(m, n);
        res.score = best;
        if best == 0 {
            return res;
        }
        // Traceback from (bi, bj).
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            H,
            E,
            F,
        }
        let (mut i, mut j) = (bi, bj);
        let mut state = State::H;
        let mut ops_rev: Vec<AlignOp> = Vec::new();
        loop {
            let cell = tb[(i - 1) * n + (j - 1)];
            match state {
                State::H => match cell & 0b11 {
                    H_STOP => break,
                    H_DIAG => {
                        if q[i - 1] == r[j - 1] {
                            res.matches += 1;
                            ops_rev.push(AlignOp::Match);
                        } else {
                            res.mismatches += 1;
                            ops_rev.push(AlignOp::Mismatch);
                        }
                        i -= 1;
                        j -= 1;
                        if i == 0 || j == 0 {
                            break;
                        }
                    }
                    H_FROM_E => state = State::E,
                    H_FROM_F => state = State::F,
                    _ => unreachable!(),
                },
                State::E => {
                    // Gap in query, consuming r[j-1].
                    res.q_gaps += 1;
                    ops_rev.push(AlignOp::GapInQuery);
                    let ext = cell & E_EXT != 0;
                    j -= 1;
                    if j == 0 {
                        break;
                    }
                    if !ext {
                        state = State::H;
                    }
                }
                State::F => {
                    // Gap in reference, consuming q[i-1].
                    res.r_gaps += 1;
                    ops_rev.push(AlignOp::GapInRef);
                    let ext = cell & F_EXT != 0;
                    i -= 1;
                    if i == 0 {
                        break;
                    }
                    if !ext {
                        state = State::H;
                    }
                }
            }
        }
        res.q_begin = i;
        res.q_end = bi;
        res.r_begin = j;
        res.r_end = bj;
        ops_rev.reverse();
        res.ops = ops_rev;
        res
    }

    #[test]
    fn identical_sequences_align_fully() {
        let s = encode("MKVLAWYHE").unwrap();
        let res = sw_align(&s, &s, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.matches, s.len());
        assert_eq!(res.mismatches, 0);
        assert_eq!(res.q_gaps + res.r_gaps, 0);
        assert_eq!(res.identity(), 1.0);
        assert_eq!(res.coverage_min(s.len(), s.len()), 1.0);
        // Score = sum of diagonal scores.
        let want: i32 = s.iter().map(|&c| Blosum62.score(c, c)).sum();
        assert_eq!(res.score, want);
    }

    #[test]
    fn known_alignment_heagawghee_pawheae() {
        // Classic textbook pair (Durbin et al.).
        let q = encode("HEAGAWGHEE").unwrap();
        let r = encode("PAWHEAE").unwrap();
        let res = sw_align(&q, &r, &Blosum62, gp(10, 1));
        assert!(res.score > 0);
        assert_eq!(res.score, rescore(&q, &r, &res, &Blosum62, gp(10, 1)));
        let (s, _, _, cells) = sw_score_only(&q, &r, &Blosum62, gp(10, 1));
        assert_eq!(s, res.score);
        assert_eq!(cells, 70);
    }

    #[test]
    fn local_alignment_ignores_flanks() {
        // Shared core "AWGHE" with unrelated flanks.
        let q = encode("PPPPAWGHEPPPP").unwrap();
        let r = encode("KKKAWGHEKKK").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.matches, 5);
        assert_eq!(
            &q[res.q_begin..res.q_end],
            encode("AWGHE").unwrap().as_slice()
        );
        assert_eq!(
            &r[res.r_begin..res.r_end],
            encode("AWGHE").unwrap().as_slice()
        );
    }

    #[test]
    fn gap_is_opened_when_cheaper_than_mismatches() {
        // q has GGG inserted relative to r; with cheap gaps the optimal
        // local alignment bridges the insert with one 3-char gap run.
        let q = encode("AAAAGGGTTTT").unwrap();
        let r = encode("AAAATTTT").unwrap();
        let sc = MatchMismatch {
            match_score: 2,
            mismatch_score: -3,
        };
        let res = sw_align(&q, &r, &sc, gp(1, 1));
        assert_eq!(res.r_gaps, 3, "ops: {:?}", res.ops);
        assert_eq!(res.matches, 8);
        assert_eq!(res.score, 8 * 2 - (1 + 3));
        assert_eq!(res.score, rescore(&q, &r, &res, &sc, gp(1, 1)));
    }

    #[test]
    fn affine_prefers_one_long_gap_over_two_short() {
        // With high open and low extend, a single gap run is preferred.
        let q = encode("AAAWWWAAA").unwrap();
        let r = encode("AAAAAA").unwrap();
        let res = sw_align(
            &q,
            &r,
            &MatchMismatch {
                match_score: 5,
                mismatch_score: -4,
            },
            gp(6, 1),
        );
        // Best: align AAA...AAA with one 3-long gap in reference.
        assert_eq!(res.matches, 6);
        assert_eq!(res.r_gaps, 3);
        assert_eq!(res.score, 6 * 5 - (6 + 3));
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<u8> = Vec::new();
        let s = encode("MKV").unwrap();
        for (a, b) in [(&e, &s), (&s, &e), (&e, &e)] {
            let res = sw_align(a, b, &Blosum62, GapPenalties::pastis_defaults());
            assert_eq!(res.score, 0);
            assert_eq!(res.aligned_cols(), 0);
            assert_eq!(res.identity(), 0.0);
        }
    }

    #[test]
    fn dissimilar_sequences_score_zero_or_tiny() {
        let q = encode("WWWWW").unwrap();
        let r = encode("PPPPP").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.score, 0);
        assert!(res.ops.is_empty());
    }

    #[test]
    fn coverage_accounts_for_span_not_columns() {
        let q = encode("MKVLAWYHEE").unwrap();
        let r = encode("MKVLA").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert!((res.coverage_query(q.len()) - 0.5).abs() < 1e-12);
        assert_eq!(res.coverage_ref(r.len()), 1.0);
        assert_eq!(res.coverage_min(q.len(), r.len()), 0.5);
    }

    #[test]
    fn cells_counted_even_when_no_alignment() {
        let (_, _, _, cells) = sw_score_only(
            &encode("WW").unwrap(),
            &encode("PPP").unwrap(),
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        assert_eq!(cells, 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn score_is_symmetric(
            a in proptest::collection::vec(0u8..21, 0..40),
            b in proptest::collection::vec(0u8..21, 0..40),
        ) {
            let g = GapPenalties::pastis_defaults();
            let (sab, ..) = sw_score_only(&a, &b, &Blosum62, g);
            let (sba, ..) = sw_score_only(&b, &a, &Blosum62, g);
            prop_assert_eq!(sab, sba);
        }

        #[test]
        fn align_score_matches_score_only_and_rescore(
            a in proptest::collection::vec(0u8..21, 0..40),
            b in proptest::collection::vec(0u8..21, 0..40),
            open in 1i32..15,
            extend in 1i32..5,
        ) {
            let g = gp(open, extend);
            let res = sw_align(&a, &b, &Blosum62, g);
            let (s, ..) = sw_score_only(&a, &b, &Blosum62, g);
            prop_assert_eq!(res.score, s);
            if res.score > 0 {
                prop_assert_eq!(rescore(&a, &b, &res, &Blosum62, g), res.score);
            }
            prop_assert!(res.score >= 0);
        }

        #[test]
        fn self_alignment_is_perfect(
            a in proptest::collection::vec(0u8..20, 1..50),
        ) {
            let res = sw_align(&a, &a, &Blosum62, GapPenalties::pastis_defaults());
            prop_assert_eq!(res.matches, a.len());
            prop_assert_eq!(res.identity(), 1.0);
        }

        #[test]
        fn substring_scores_at_least_its_self_score(
            a in proptest::collection::vec(0u8..20, 5..40),
            start in 0usize..3,
        ) {
            // Aligning a substring against the whole must recover at least
            // the substring's self-score.
            let end = a.len() - 1;
            let sub = &a[start..end];
            let self_score: i32 = sub.iter().map(|&c| Blosum62.score(c, c)).sum();
            let (s, ..) = sw_score_only(sub, &a, &Blosum62, GapPenalties::pastis_defaults());
            prop_assert!(s >= self_score);
        }

        #[test]
        fn longer_gaps_never_increase_score(
            a in proptest::collection::vec(0u8..21, 0..30),
            b in proptest::collection::vec(0u8..21, 0..30),
        ) {
            let (cheap, ..) = sw_score_only(&a, &b, &Blosum62, gp(5, 1));
            let (pricey, ..) = sw_score_only(&a, &b, &Blosum62, gp(11, 2));
            prop_assert!(pricey <= cheap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn branch_free_kernel_equals_the_branchy_oracle(
            a in proptest::collection::vec(0u8..4, 0..40),
            b in proptest::collection::vec(0u8..4, 0..40),
            open in 0i32..13,
            extend in 0i32..4,
            blosum in 0u8..2,
        ) {
            // A four-letter alphabet and small gap costs make ties the
            // common case, which is where the two could part.
            let g = gp(open, extend);
            if blosum == 1 {
                prop_assert_eq!(sw_align(&a, &b, &Blosum62, g), sw_align_branchy(&a, &b, &Blosum62, g));
            } else {
                let sc = MatchMismatch { match_score: 1, mismatch_score: -1 };
                prop_assert_eq!(sw_align(&a, &b, &sc, g), sw_align_branchy(&a, &b, &sc, g));
            }
        }
    }
}
