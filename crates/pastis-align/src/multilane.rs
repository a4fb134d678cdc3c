//! Multi-lane (inter-sequence) batched Smith–Waterman on real SIMD lanes.
//!
//! ADEPT's GPU kernel derives much of its throughput from *inter-task*
//! parallelism — many independent alignments advance in lock-step. On the
//! CPU the same structure maps onto vector lanes (Rognes' SWIPE and the
//! inter-sequence mode of SeqAn): one sequence pair per i16 lane, all
//! lanes updated per DP cell with saturating vector arithmetic. The lane
//! arithmetic comes from the [`crate::simd`] backends (AVX2/SSE2/NEON, or
//! the portable scalar-array fallback) selected by [`SimdBackend`].
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
//! Scoring models whose table or gap penalties do not fit the i16 scheme
//! (see [`LaneTable::build`]) bypass the lanes entirely and run scalar —
//! exactness is never traded for speed.
//!
//! Lanes are padded to the chunk's maximum dimensions with a PAD residue
//! scoring −100 against everything: padded cells can never climb above the
//! local-alignment floor of zero, so padding cannot influence any lane's
//! optimum (property-tested), and promotion is a property of the pair
//! alone, not of its lane companions.

use crate::matrices::{Scoring, AA_COUNT};
use crate::simd::{ScalarLanes, SimdBackend, SimdVec, MAX_LANES};
use crate::sw::{sw_score_only, GapPenalties};

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

/// Flattened i16 score profile plus gap costs, pre-validated for the i16
/// lane scheme. Built once per batch ([`LaneTable::build`]); `None` means
/// the scoring model needs the scalar i32 path.
#[derive(Debug, Clone)]
pub struct LaneTable {
    /// `flat[a * TABLE_DIM + b]` = score of codes `a` vs `b`; row/column
    /// [`PAD_IDX`] holds [`PAD_SCORE`].
    pub(crate) flat: [i16; TABLE_DIM * TABLE_DIM],
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
        Some(LaneTable {
            flat,
            first: first as i16,
            extend: gaps.extend as i16,
        })
    }
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

/// The vector kernel proper: one chunk of ≤ `V::LANES` pairs in lock-step.
///
/// Writes non-saturated lanes' scores into `out` and returns the bitmask
/// of saturated lanes (callers re-score those exactly). Marked
/// `#[inline(always)]` so the `#[target_feature]` entry points inline it
/// and the trait ops compile to bare vector instructions.
#[inline(always)]
fn lanes_kernel<V: SimdVec>(qs: &[&[u8]], rs: &[&[u8]], table: &LaneTable, out: &mut [i32]) -> u32 {
    debug_assert!(qs.len() == rs.len() && qs.len() <= V::LANES && V::LANES <= MAX_LANES);
    let lanes = V::LANES;
    let m = qs.iter().map(|q| q.len()).max().unwrap_or(0);
    let n = rs.iter().map(|r| r.len()).max().unwrap_or(0);
    for o in out[..qs.len()].iter_mut() {
        *o = 0;
    }
    if m == 0 || n == 0 {
        return 0;
    }

    // Transposed padded reference residues: rt[(j-1)*lanes + l] is lane
    // l's reference code at column j (PAD beyond the lane's length), so
    // the per-cell score gather is a single sequential slice walk.
    let mut rt = vec![PAD_IDX as u8; n * lanes];
    for (l, r) in rs.iter().enumerate() {
        for (j, &c) in r.iter().enumerate() {
            rt[j * lanes + l] = c;
        }
    }

    let neg = V::splat(i16::MIN);
    let zero = V::zero();
    let vfirst = V::splat(table.first);
    let vext = V::splat(table.extend);
    let mut h = vec![zero; n + 1]; // current row of H; h[0] = H(i, 0) = 0
    let mut f = vec![neg; n + 1]; // F of the previous row, per column
    let mut best = zero;
    let mut qoff = [PAD_IDX * TABLE_DIM; MAX_LANES];
    let mut sbuf = [0i16; MAX_LANES];

    for i in 1..=m {
        for (l, off) in qoff.iter_mut().enumerate().take(lanes) {
            let code = qs
                .get(l)
                .and_then(|q| q.get(i - 1))
                .copied()
                .unwrap_or(PAD_IDX as u8);
            *off = code as usize * TABLE_DIM;
        }
        let mut e = neg;
        let mut h_left = zero; // H(i, j-1), walking left to right
        let mut diag = zero; // H(i-1, j-1); starts at H(i-1, 0) = 0
        for j in 1..=n {
            let up = h[j]; // H(i-1, j)
            let fv = up.sub_sat(vfirst).max(f[j].sub_sat(vext));
            f[j] = fv;
            let ev = h_left.sub_sat(vfirst).max(e.sub_sat(vext));
            e = ev;
            let col = &rt[(j - 1) * lanes..j * lanes];
            for l in 0..lanes {
                sbuf[l] = table.flat[qoff[l] + col[l] as usize];
            }
            let sc = V::load(&sbuf);
            let hv = diag.add_sat(sc).max(ev).max(fv).max(zero);
            best = best.max(hv);
            diag = up;
            h[j] = hv;
            h_left = hv;
        }
    }

    let mut bbuf = [0i16; MAX_LANES];
    best.store(&mut bbuf);
    let mut saturated = 0u32;
    for (l, o) in out[..qs.len()].iter_mut().enumerate() {
        if bbuf[l] == i16::MAX {
            saturated |= 1 << l;
        } else {
            *o = bbuf[l] as i32;
        }
    }
    saturated
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
unsafe fn lanes_chunk_avx2(qs: &[&[u8]], rs: &[&[u8]], table: &LaneTable, out: &mut [i32]) -> u32 {
    lanes_kernel::<Avx2Vec>(qs, rs, table, out)
}

/// Run one ≤ `backend.lanes()` chunk on the given backend.
fn lanes_chunk(
    backend: SimdBackend,
    qs: &[&[u8]],
    rs: &[&[u8]],
    table: &LaneTable,
    out: &mut [i32],
) -> u32 {
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Sse2 => lanes_kernel::<Sse2Vec>(qs, rs, table, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after runtime detection.
        SimdBackend::Avx2 => unsafe { lanes_chunk_avx2(qs, rs, table, out) },
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => lanes_kernel::<NeonVec>(qs, rs, table, out),
        _ => lanes_kernel::<ScalarLanes<16>>(qs, rs, table, out),
    }
}

/// Score `queries[k]` vs `refs[k]` for every `k` through the vector
/// backend, chunking by the backend's lane width, with the overflow
/// rescue applied. Results are bit-identical to [`sw_score_only`].
///
/// Builds the score profile per call; batch drivers that amortize it use
/// [`sw_score_lanes_prepared`].
pub fn sw_score_lanes<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
) -> LaneScores {
    let table = LaneTable::build(scoring, gaps);
    sw_score_lanes_prepared(queries, refs, scoring, gaps, backend, table.as_ref())
}

/// [`sw_score_lanes`] with a pre-built [`LaneTable`] (`None` forces the
/// scalar path, which [`LaneTable::build`] demands for out-of-range
/// scoring models).
pub fn sw_score_lanes_prepared<S: Scoring>(
    queries: &[&[u8]],
    refs: &[&[u8]],
    scoring: &S,
    gaps: GapPenalties,
    backend: SimdBackend,
    table: Option<&LaneTable>,
) -> LaneScores {
    assert_eq!(queries.len(), refs.len(), "ragged lane inputs");
    let mut scores = vec![0i32; queries.len()];
    let mut promotions = 0u64;
    let Some(table) = table else {
        for (k, (q, r)) in queries.iter().zip(refs).enumerate() {
            scores[k] = sw_score_only(q, r, scoring, gaps).0;
        }
        return LaneScores { scores, promotions };
    };
    // A forced-but-unavailable backend (possible only through library
    // misuse; the CLI validates) degrades to the portable lanes.
    let backend = if backend.is_available() {
        backend
    } else {
        SimdBackend::Scalar
    };
    let w = backend.lanes();
    for ((qs, rs), out) in queries
        .chunks(w)
        .zip(refs.chunks(w))
        .zip(scores.chunks_mut(w))
    {
        let saturated = lanes_chunk(backend, qs, rs, table, out);
        if saturated != 0 {
            for l in 0..qs.len() {
                if saturated & (1 << l) != 0 {
                    out[l] = sw_score_only(qs[l], rs[l], scoring, gaps).0;
                    promotions += 1;
                }
            }
        }
    }
    LaneScores { scores, promotions }
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

/// Align `L` pairs in lock-step; returns each lane's optimal local score.
///
/// Lanes may have ragged lengths (they are padded internally); empty
/// lanes (`q` or `r` empty) score 0. Retained compatibility surface over
/// [`sw_score_lanes`] on the detected backend.
pub fn sw_score_multi<const L: usize, S: Scoring>(
    queries: &[&[u8]; L],
    refs: &[&[u8]; L],
    scoring: &S,
    gaps: GapPenalties,
) -> [i32; L] {
    let ls = sw_score_lanes(
        &queries[..],
        &refs[..],
        scoring,
        gaps,
        SimdBackend::detect(),
    );
    let mut out = [0i32; L];
    out.copy_from_slice(&ls.scores);
    out
}

/// Score a whole batch of pairs through the multi-lane kernel, processing
/// `L` at a time. Retained compatibility surface; the lane width actually
/// used is the detected backend's, which is what makes it fast.
pub fn sw_score_batch<const L: usize, S: Scoring>(
    pairs: &[(&[u8], &[u8])],
    scoring: &S,
    gaps: GapPenalties,
) -> Vec<i32> {
    sw_score_batch_simd(pairs, scoring, gaps, SimdBackend::detect()).scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{encode, Blosum62, MatchMismatch};
    use proptest::prelude::*;

    fn scalar(q: &[u8], r: &[u8]) -> i32 {
        sw_score_only(q, r, &Blosum62, GapPenalties::pastis_defaults()).0
    }

    #[test]
    fn uniform_lanes_match_scalar() {
        let q = encode("HEAGAWGHEE").unwrap();
        let r = encode("PAWHEAE").unwrap();
        let got = sw_score_multi::<4, _>(
            &[&q, &q, &q, &q],
            &[&r, &r, &r, &r],
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        let want = scalar(&q, &r);
        assert_eq!(got, [want; 4]);
    }

    #[test]
    fn ragged_lanes_match_scalar() {
        let seqs: Vec<Vec<u8>> = ["MKVLAWYHEE", "PAWHEAE", "GGSTPNQRCDGGSTPNQRCD", "MK"]
            .iter()
            .map(|s| encode(s).unwrap())
            .collect();
        let qs: [&[u8]; 4] = [&seqs[0], &seqs[1], &seqs[2], &seqs[3]];
        let rs: [&[u8]; 4] = [&seqs[1], &seqs[2], &seqs[3], &seqs[0]];
        let got = sw_score_multi::<4, _>(&qs, &rs, &Blosum62, GapPenalties::pastis_defaults());
        for l in 0..4 {
            assert_eq!(got[l], scalar(qs[l], rs[l]), "lane {l}");
        }
    }

    #[test]
    fn empty_lanes_are_zero() {
        let q = encode("MKVLAW").unwrap();
        let e: Vec<u8> = Vec::new();
        let got = sw_score_multi::<2, _>(
            &[&q, &e],
            &[&q, &q],
            &Blosum62,
            GapPenalties::pastis_defaults(),
        );
        assert_eq!(got[0], scalar(&q, &q));
        assert_eq!(got[1], 0);
    }

    #[test]
    fn batch_wrapper_handles_tail() {
        let seqs: Vec<Vec<u8>> = (0..7)
            .map(|i| encode(&"MKVLAWYHEE"[..4 + i]).unwrap())
            .collect();
        let pairs: Vec<(&[u8], &[u8])> = (0..7)
            .map(|i| (seqs[i].as_slice(), seqs[(i + 3) % 7].as_slice()))
            .collect();
        let got = sw_score_batch::<4, _>(&pairs, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(got.len(), 7);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lanes_always_match_scalar(
            a in proptest::collection::vec(0u8..21, 0..24),
            b in proptest::collection::vec(0u8..21, 0..24),
            c in proptest::collection::vec(0u8..21, 0..24),
            d in proptest::collection::vec(0u8..21, 0..24),
        ) {
            let g = GapPenalties::pastis_defaults();
            let got = sw_score_multi::<2, _>(&[&a, &c], &[&b, &d], &Blosum62, g);
            prop_assert_eq!(got[0], scalar(&a, &b));
            prop_assert_eq!(got[1], scalar(&c, &d));
        }
    }
}
