//! Differential kernel-equivalence harness: every compiled SIMD backend of
//! the score-only multilane kernel must be **bit-identical** to the scalar
//! i32 kernel — scores and batch counters alike — and every backend of the
//! traceback kernel behind `AlignPool::run_traceback` must equal
//! `sw_align` in every field of every result, operations included.
//!
//! The paper's headline determinism claim ("the output is identical for
//! every process count / blocking factor") only survives a vectorized
//! kernel if the vector arithmetic is provably score-preserving, so this
//! suite attacks it differentially: seeded generators produce biased
//! protein sequences (real amino-acid frequencies), homologous pairs via
//! point mutation + indels, adversarial all-max/all-min score pairs, and
//! the degenerate lengths (0, 1, and scores beyond i16 saturation), then
//! every backend in [`SimdBackend::available`] — which always includes the
//! portable scalar-array lanes, so the whole dispatch surface runs even on
//! hosts without AVX2 — is compared against [`sw_score_only`].

use pastis::align::matrices::AA_COUNT;
use pastis::align::parallel::AlignPool;
use pastis::align::sw::{sw_align, sw_score_only, GapPenalties};
use pastis::align::{
    sw_score_batch_simd, AlignTask, AlignmentResult, BatchStats, Blosum62, MatchMismatch, Scoring,
    SimdBackend,
};
use pastis::core::pipeline::{run_search_serial, SearchResult};
use pastis::core::SearchParams;
use pastis::seqio::{SyntheticConfig, SyntheticDataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Residue codes (alphabet `ARNDCQEGHILKMFPSTWYVX`).
const W: u8 = 17; // BLOSUM62 self-score 11 (the maximum)
const A: u8 = 0; // BLOSUM62 self-score 4

/// Swiss-Prot amino-acid frequencies in per-mille, in the order of the
/// canonical alphabet `ARNDCQEGHILKMFPSTWYV` plus a trace of `X`.
const AA_FREQ_PER_MILLE: [u32; 21] = [
    83, 55, 41, 55, 14, 39, 67, 71, 23, 59, 97, 58, 24, 39, 47, 66, 53, 11, 29, 69, 1,
];

fn biased_residue(rng: &mut StdRng) -> u8 {
    let total: u32 = AA_FREQ_PER_MILLE.iter().sum();
    let mut roll = rng.gen_range(0..total);
    for (code, &w) in AA_FREQ_PER_MILLE.iter().enumerate() {
        if roll < w {
            return code as u8;
        }
        roll -= w;
    }
    unreachable!("frequency table exhausted");
}

fn biased_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| biased_residue(rng)).collect()
}

/// Homolog of `parent`: seeded point mutations plus occasional 1–3-residue
/// indels, the generator's stand-in for divergent family members.
fn mutate(rng: &mut StdRng, parent: &[u8], rate: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(parent.len() + 4);
    for &c in parent {
        let roll: f64 = rng.gen();
        if roll < rate / 4.0 {
            continue; // deletion
        } else if roll < rate / 2.0 {
            out.push(biased_residue(rng)); // insertion
            out.push(c);
        } else if roll < rate {
            out.push(biased_residue(rng)); // substitution
        } else {
            out.push(c);
        }
    }
    out
}

/// One generated batch: biased random pairs, homologous pairs, and the
/// degenerate lengths 0 and 1 mixed in.
fn gen_pairs(seed: u64, n_pairs: usize, max_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(n_pairs);
    for k in 0..n_pairs {
        let pair = match k % 4 {
            // Unrelated biased sequences.
            0 => {
                let la = rng.gen_range(0..=max_len);
                let lb = rng.gen_range(0..=max_len);
                (biased_seq(&mut rng, la), biased_seq(&mut rng, lb))
            }
            // Homologous pair (seeded mutation of a common parent).
            1 => {
                let len = rng.gen_range(1..=max_len);
                let rate = rng.gen_range(0.02..0.4);
                let parent = biased_seq(&mut rng, len);
                let child = mutate(&mut rng, &parent, rate);
                (parent, child)
            }
            // Adversarial composition: runs of the max-scoring residue
            // against runs of itself or of a uniform random residue.
            2 => {
                let la = rng.gen_range(0..=max_len);
                let lb = rng.gen_range(0..=max_len);
                let other = rng.gen_range(0..AA_COUNT as u8);
                (vec![W; la], vec![other; lb])
            }
            // Degenerate lengths 0 / 1 on either side.
            _ => {
                let tiny = rng.gen_range(0..=1);
                let l = rng.gen_range(0..=max_len);
                if k % 8 < 4 {
                    (biased_seq(&mut rng, tiny), biased_seq(&mut rng, l))
                } else {
                    (biased_seq(&mut rng, l), biased_seq(&mut rng, tiny))
                }
            }
        };
        pairs.push(pair);
    }
    pairs
}

fn scalar_reference(pairs: &[(Vec<u8>, Vec<u8>)], g: GapPenalties) -> Vec<i32> {
    pairs
        .iter()
        .map(|(q, r)| sw_score_only(q, r, &Blosum62, g).0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 generated batches, each checked against every available
    /// backend (so ≥256 cases per backend pair on any host — scalar vs
    /// SSE2 and scalar vs AVX2 on x86_64).
    #[test]
    fn every_backend_is_bit_identical_to_scalar(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..32,
        max_len in 1usize..72,
    ) {
        let g = GapPenalties::pastis_defaults();
        let pairs = gen_pairs(seed, n_pairs, max_len);
        let borrowed: Vec<(&[u8], &[u8])> =
            pairs.iter().map(|(q, r)| (q.as_slice(), r.as_slice())).collect();
        let want = scalar_reference(&pairs, g);
        for backend in SimdBackend::available() {
            let got = sw_score_batch_simd(&borrowed, &Blosum62, g, backend);
            prop_assert_eq!(&got.scores, &want, "backend {}", backend);
            // Short pairs cannot reach i16 saturation.
            prop_assert_eq!(got.promotions, 0, "backend {}", backend);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool dispatch path (lane packing + worker scheduling) holds the
    /// same contract, including bit-identical `BatchStats` counters across
    /// backends *and* thread counts. Fewer cases than the raw-kernel
    /// proptest above — each case runs seven full pools.
    #[test]
    fn pool_stats_are_identical_across_backends(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..48,
    ) {
        let g = GapPenalties::pastis_defaults();
        let pairs = gen_pairs(seed, n_pairs, 80);
        let mut store: Vec<Vec<u8>> = Vec::with_capacity(pairs.len() * 2);
        let mut tasks = Vec::with_capacity(pairs.len());
        for (q, r) in pairs {
            tasks.push(AlignTask {
                query: store.len() as u32,
                reference: store.len() as u32 + 1,
                seed_q: 0,
                seed_r: 0,
            });
            store.push(q);
            store.push(r);
        }
        let lookup = |id: u32| -> &[u8] { &store[id as usize] };
        let (want, want_stats) = AlignPool::new(1)
            .with_simd(SimdBackend::Scalar)
            .run_score_only(&tasks, lookup, &Blosum62, g);
        for backend in SimdBackend::available() {
            for threads in [1usize, 3] {
                let (got, stats) = AlignPool::new(threads)
                    .with_simd(backend)
                    .run_score_only(&tasks, lookup, &Blosum62, g);
                prop_assert_eq!(&got, &want, "backend {} t{}", backend, threads);
                prop_assert_eq!(stats.pairs, want_stats.pairs);
                prop_assert_eq!(stats.cells, want_stats.cells);
                prop_assert_eq!(stats.max_cells, want_stats.max_cells);
                prop_assert_eq!(stats.lane_promotions, want_stats.lane_promotions);
                prop_assert_eq!(stats.simd, backend);
            }
        }
    }
}

/// All 21×21 single-residue pairings — including the most negative BLOSUM62
/// entries — at assorted lengths, on every backend. Catches sign/saturation
/// slips that biased sampling might miss.
#[test]
fn exhaustive_residue_pairings_match_scalar() {
    let g = GapPenalties::pastis_defaults();
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for a in 0..AA_COUNT as u8 {
        for b in 0..AA_COUNT as u8 {
            pairs.push((vec![a; 7], vec![b; 13]));
            pairs.push((vec![a; 1], vec![b; 1]));
        }
    }
    let borrowed: Vec<(&[u8], &[u8])> = pairs
        .iter()
        .map(|(q, r)| (q.as_slice(), r.as_slice()))
        .collect();
    let want = scalar_reference(&pairs, g);
    for backend in SimdBackend::available() {
        let got = sw_score_batch_simd(&borrowed, &Blosum62, g, backend);
        assert_eq!(got.scores, want, "{backend}");
        assert_eq!(got.promotions, 0, "{backend}");
    }
}

/// Self-alignments whose optimal score lands exactly at i16 saturation ±1:
/// 32766 must stay on the fast path, 32767 and 32768 must take the
/// promote-to-i32 rescue — and all three must match the scalar kernel
/// exactly on every backend.
#[test]
fn overflow_boundary_promotes_exactly_at_saturation() {
    let g = GapPenalties::pastis_defaults();
    // The construction relies on these BLOSUM62 diagonal entries.
    assert_eq!(Blosum62.score(W, W), 11);
    assert_eq!(Blosum62.score(A, A), 4);
    // 11·w + 4·a self-alignment scores, straddling i16::MAX = 32767.
    let compose = |w: usize, a: usize| -> Vec<u8> {
        let mut s = vec![W; w];
        s.extend(std::iter::repeat_n(A, a));
        s
    };
    let cases = [
        (compose(2978, 2), 32766i32, 0u64), // MAX−1: no promotion
        (compose(2977, 5), 32767i32, 1u64), // exactly MAX: promoted (rescue is exact)
        (compose(2976, 8), 32768i32, 1u64), // MAX+1: saturates, promoted
    ];
    for (seq, want_score, want_promotions) in &cases {
        let (scalar_score, _, _, _) = sw_score_only(seq, seq, &Blosum62, g);
        assert_eq!(scalar_score, *want_score, "construction is off");
        for backend in SimdBackend::available() {
            let got = sw_score_batch_simd(&[(seq, seq)], &Blosum62, g, backend);
            assert_eq!(got.scores[0], *want_score, "{backend} score");
            assert_eq!(
                got.promotions, *want_promotions,
                "{backend} promotions at score {want_score}"
            );
        }
    }
}

/// Promotions are pair-intrinsic: packing a saturating pair next to small
/// pairs in the same batch promotes exactly that pair, on every backend
/// and thread count, and the `align.lane_promotions` telemetry counter
/// reports it.
#[test]
fn lane_promotions_surface_in_stats_and_telemetry() {
    use pastis::trace::TraceSession;
    let g = GapPenalties::pastis_defaults();
    let big = {
        let mut s = vec![W; 2976];
        s.extend(std::iter::repeat_n(A, 8));
        s
    };
    let mut rng = StdRng::seed_from_u64(99);
    // Two saturating self-alignments buried among 30 ordinary pairs.
    let mut store: Vec<Vec<u8>> = vec![big.clone(), big];
    for _ in 0..30 {
        let len = rng.gen_range(10..60);
        store.push(biased_seq(&mut rng, len));
    }
    let mut tasks = vec![
        AlignTask {
            query: 0,
            reference: 0,
            seed_q: 0,
            seed_r: 0,
        },
        AlignTask {
            query: 1,
            reference: 1,
            seed_q: 0,
            seed_r: 0,
        },
    ];
    for i in 2..store.len() as u32 {
        tasks.push(AlignTask {
            query: i,
            reference: (i % 30) + 2,
            seed_q: 0,
            seed_r: 0,
        });
    }
    let lookup = |id: u32| -> &[u8] { &store[id as usize] };
    for backend in SimdBackend::available() {
        for threads in [1usize, 4] {
            let session = TraceSession::new();
            let rec = session.recorder(0);
            let pool = AlignPool::new(threads)
                .with_simd(backend)
                .with_recorder(rec.clone());
            let (results, stats) = pool.run_score_only(&tasks, lookup, &Blosum62, g);
            assert_eq!(results[0].score, 32768, "{backend} t{threads}");
            assert_eq!(results[1].score, 32768, "{backend} t{threads}");
            assert_eq!(stats.lane_promotions, 2, "{backend} t{threads}");
            assert_eq!(
                rec.counters().get("align.lane_promotions").copied(),
                Some(2.0),
                "{backend} t{threads}: counter missing or wrong"
            );
        }
    }
}

/// `pairs` on every backend through the raw lane entry point, against the
/// scalar kernel under the same scoring; nothing here can saturate.
fn assert_lanes_equal_scalar<S: Scoring>(
    pairs: &[(Vec<u8>, Vec<u8>)],
    scoring: &S,
    g: GapPenalties,
    what: &str,
) {
    let borrowed: Vec<(&[u8], &[u8])> = pairs
        .iter()
        .map(|(q, r)| (q.as_slice(), r.as_slice()))
        .collect();
    let want: Vec<i32> = pairs
        .iter()
        .map(|(q, r)| sw_score_only(q, r, scoring, g).0)
        .collect();
    for backend in SimdBackend::available() {
        let got = sw_score_batch_simd(&borrowed, scoring, g, backend);
        assert_eq!(got.scores, want, "{what}: {backend}");
        assert_eq!(got.promotions, 0, "{what}: {backend}");
    }
}

/// The lanes score a DP row in tiles of 16 reference columns: reference
/// lengths on both sides of one and two tiles, against query lengths
/// around both lane widths, unrelated and homologous.
#[test]
fn score_lanes_handle_every_length_around_the_tile_edge() {
    let g = GapPenalties::pastis_defaults();
    let mut rng = StdRng::seed_from_u64(0x711e);
    let mut pairs = Vec::new();
    for n in [1usize, 15, 16, 17, 31, 32, 33] {
        for m in [1usize, 7, 8, 9, 15, 16, 17] {
            let r = biased_seq(&mut rng, n);
            pairs.push((biased_seq(&mut rng, m), r.clone()));
            let mut q = mutate(&mut rng, &r, 0.2);
            q.resize(m, A);
            pairs.push((q, r));
        }
    }
    assert_lanes_equal_scalar(&pairs, &Blosum62, g, "tile edge");
}

/// Chunks of 1 to 16 members with ragged lengths: empty lanes, lanes that
/// end inside a tile the longest lane still fills, and rows past a lane's
/// query all score as PAD and must leave every member's score alone.
#[test]
fn score_lanes_handle_partial_chunks_of_ragged_members() {
    let g = GapPenalties::pastis_defaults();
    let mut rng = StdRng::seed_from_u64(0x7a66ed);
    for members in 1..=16usize {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..members)
            .map(|k| {
                let r = biased_seq(&mut rng, 1 + (k * 11 + members * 3) % 45);
                let q = if k % 2 == 0 {
                    mutate(&mut rng, &r, 0.15)
                } else {
                    biased_seq(&mut rng, 1 + (k * 7 + members) % 40)
                };
                (q, r)
            })
            .collect();
        assert_lanes_equal_scalar(&pairs, &Blosum62, g, &format!("{members} members"));
    }
}

/// A substitution row is looked up in two 16-entry halves: sequences made
/// only of the codes past 16 (`T W Y V X`), only of those below, and
/// mixes that change half at every residue.
#[test]
fn score_lanes_cover_both_halves_of_the_substitution_row() {
    let g = GapPenalties::pastis_defaults();
    let mut rng = StdRng::seed_from_u64(0x4a1f);
    let mut draw = |codes: std::ops::Range<u8>, len: usize| -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(codes.clone())).collect()
    };
    let high = 16..AA_COUNT as u8;
    let mut pairs = Vec::new();
    for len in [5usize, 16, 23, 40] {
        let (a, b) = (draw(high.clone(), len), draw(high.clone(), len + 3));
        let (c, d) = (draw(0..16, len), draw(0..16, len + 1));
        let alternating: Vec<u8> = a.iter().zip(&c).flat_map(|(&hi, &lo)| [hi, lo]).collect();
        pairs.push((a.clone(), a.clone()));
        pairs.push((a.clone(), b));
        pairs.push((a, c.clone()));
        pairs.push((c, d.clone()));
        pairs.push((alternating.clone(), alternating.clone()));
        pairs.push((alternating, d));
    }
    assert_lanes_equal_scalar(&pairs, &Blosum62, g, "row halves");
    for scoring in [
        MatchMismatch {
            match_score: 1,
            mismatch_score: -1,
        },
        MatchMismatch {
            match_score: 2,
            mismatch_score: -3,
        },
    ] {
        assert_lanes_equal_scalar(&pairs, &scoring, g, "row halves, match/mismatch");
    }
}

/// The score-only lanes look scores up as i8. A model with a score of 128
/// or of −129 fits the i16 table (traceback still runs on lanes) but not
/// the i8 rows, so score-only work runs the scalar kernel — exact, and
/// **not counted in `lane_promotions`**: a promotion is a lane that
/// saturated, and these pairs were never on one. `padded_cells`, the
/// cells the vectors updated, tells the two routes apart.
#[test]
fn scores_outside_i8_take_the_scalar_route_uncounted() {
    let g = GapPenalties::pastis_defaults();
    let mut rng = StdRng::seed_from_u64(0x128);
    let store: Vec<Vec<u8>> = (0..24)
        .map(|k| {
            let len = 10 + 3 * k;
            biased_seq(&mut rng, len)
        })
        .collect();
    let tasks: Vec<AlignTask> = (0..40u32)
        .map(|k| AlignTask {
            query: k % 24,
            reference: (k * 5 + 1) % 24,
            seed_q: 0,
            seed_r: 0,
        })
        .collect();
    let lookup = |id: u32| -> &[u8] { &store[id as usize] };
    let model = |match_score, mismatch_score| MatchMismatch {
        match_score,
        mismatch_score,
    };
    // (model, whether its scores fit i8)
    let cases = [
        (model(127, -128), true),
        (model(128, -1), false),
        (model(1, -129), false),
        (model(128, -129), false),
    ];
    for (scoring, fits_i8) in cases {
        let what = format!("{}/{}", scoring.match_score, scoring.mismatch_score);
        let want: Vec<i32> = tasks
            .iter()
            .map(|t| sw_score_only(lookup(t.query), lookup(t.reference), &scoring, g).0)
            .collect();
        for backend in SimdBackend::available() {
            let (got, stats) = AlignPool::new(2)
                .with_simd(backend)
                .run_score_only(&tasks, lookup, &scoring, g);
            let got: Vec<i32> = got.iter().map(|r| r.score).collect();
            assert_eq!(got, want, "{what}: {backend}");
            assert_eq!(stats.lane_promotions, 0, "{what}: {backend}");
            assert_eq!(stats.padded_cells > 0, fits_i8, "{what}: {backend}");
            if fits_i8 {
                assert!(stats.padded_cells >= stats.cells, "{what}: {backend}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Traceback lanes: `AlignPool::run_traceback` against `sw_align`
// ---------------------------------------------------------------------------

/// `run_traceback` over `pairs` on one backend.
fn traceback_on<S: Scoring + Sync>(
    backend: SimdBackend,
    threads: usize,
    pairs: &[(Vec<u8>, Vec<u8>)],
    scoring: &S,
    g: GapPenalties,
) -> (Vec<AlignmentResult>, BatchStats) {
    let tasks: Vec<AlignTask> = (0..pairs.len() as u32)
        .map(|k| AlignTask {
            query: 2 * k,
            reference: 2 * k + 1,
            seed_q: 0,
            seed_r: 0,
        })
        .collect();
    let lookup = |id: u32| -> &[u8] {
        let (q, r) = &pairs[id as usize / 2];
        if id % 2 == 0 {
            q
        } else {
            r
        }
    };
    AlignPool::new(threads)
        .with_simd(backend)
        .run_traceback(&tasks, lookup, scoring, g)
}

/// Every available backend (the portable `ScalarLanes` always among them)
/// returns `sw_align`'s result for every pair — score, end cell, spans,
/// counts and `ops` — without falling back.
fn assert_traceback_equals_sw_align<S: Scoring + Sync>(
    pairs: &[(Vec<u8>, Vec<u8>)],
    scoring: &S,
    g: GapPenalties,
    what: &str,
) {
    let want: Vec<AlignmentResult> = pairs
        .iter()
        .map(|(q, r)| sw_align(q, r, scoring, g))
        .collect();
    for backend in SimdBackend::available() {
        let (got, stats) = traceback_on(backend, 1, pairs, scoring, g);
        for (k, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                got,
                want,
                "{what}: {backend} pair {k} ({}x{}) under {g:?}",
                pairs[k].0.len(),
                pairs[k].1.len()
            );
        }
        assert_eq!(stats.lane_promotions, 0, "{what}: {backend} fell back");
        assert_eq!(stats.simd, backend, "{what}");
    }
}

/// The gap models the suite crosses everything with: the production
/// 11/2, a cheap 1/1 under which gaps are everywhere, and free extension,
/// where a gap run of any length ties with its first character.
fn gap_models() -> [GapPenalties; 3] {
    [
        GapPenalties::pastis_defaults(),
        GapPenalties { open: 1, extend: 1 },
        GapPenalties { open: 3, extend: 0 },
    ]
}

/// Tie-heavy inputs: homopolymers, tandem repeats (against themselves, a
/// shifted copy and a copy with one unit dropped) and a two-letter
/// alphabet, where many alignments share the optimal score and only the
/// tie-break order picks one.
fn tie_heavy_pairs(seed: u64, n_pairs: usize, max_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(n_pairs);
    for k in 0..n_pairs {
        let la = rng.gen_range(0..=max_len);
        let lb = rng.gen_range(0..=max_len);
        pairs.push(match k % 4 {
            0 => {
                let c = rng.gen_range(0..AA_COUNT as u8);
                (vec![c; la], vec![c; lb])
            }
            1 => {
                let unit_len = rng.gen_range(1..=4);
                let unit = biased_seq(&mut rng, unit_len);
                let shift = rng.gen_range(0..unit_len);
                let a: Vec<u8> = unit.iter().cycle().take(la).copied().collect();
                let b: Vec<u8> = unit.iter().cycle().skip(shift).take(lb).copied().collect();
                (a, b)
            }
            2 => {
                let unit = biased_seq(&mut rng, 3);
                let a: Vec<u8> = unit.iter().cycle().take(la).copied().collect();
                let mut b = a.clone();
                if b.len() > 6 {
                    let at = rng.gen_range(0..b.len() - 3);
                    b.drain(at..at + 3);
                }
                (a, b)
            }
            _ => (
                (0..la).map(|_| rng.gen_range(0..2u8)).collect(),
                (0..lb).map(|_| rng.gen_range(0..2u8)).collect(),
            ),
        });
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole contract on the generators the score-only suite uses
    /// (biased, homologous, adversarial, degenerate lengths) plus the
    /// tie-heavy ones, under BLOSUM62 and under a match/mismatch model
    /// whose two values make equal scores the rule.
    #[test]
    fn traceback_lanes_equal_sw_align(
        seed in 0u64..1_000_000_000,
        n_pairs in 1usize..24,
        max_len in 1usize..72,
    ) {
        let unit = MatchMismatch { match_score: 1, mismatch_score: -1 };
        let steep = MatchMismatch { match_score: 2, mismatch_score: -3 };
        for g in gap_models() {
            let pairs = gen_pairs(seed, n_pairs, max_len);
            assert_traceback_equals_sw_align(&pairs, &Blosum62, g, "generated/blosum62");
            assert_traceback_equals_sw_align(&pairs, &unit, g, "generated/+1-1");
            let pairs = tie_heavy_pairs(seed, n_pairs, max_len);
            assert_traceback_equals_sw_align(&pairs, &Blosum62, g, "ties/blosum62");
            assert_traceback_equals_sw_align(&pairs, &unit, g, "ties/+1-1");
            assert_traceback_equals_sw_align(&pairs, &steep, g, "ties/+2-3");
        }
    }
}

/// Every shape around the strip and step boundaries of both lane widths
/// (8 and 16): L−1, L, L+1, 2L+1 rows and columns, single rows and
/// columns, and empty sequences, for identical, homologous and unrelated
/// content.
#[test]
fn traceback_lanes_handle_every_length_around_the_lane_width() {
    let lens = [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40];
    let mut rng = StdRng::seed_from_u64(0x5C22);
    let parent = biased_seq(&mut rng, 48);
    let child = mutate(&mut rng, &parent, 0.15);
    let other = biased_seq(&mut rng, 48);
    let mut pairs = Vec::new();
    for &m in &lens {
        for &n in &lens {
            pairs.push((parent[..m].to_vec(), parent[..n].to_vec()));
            pairs.push((parent[..m].to_vec(), child[child.len() - n..].to_vec()));
            pairs.push((parent[..m].to_vec(), other[..n].to_vec()));
            pairs.push((vec![W; m], vec![W; n]));
        }
    }
    for g in gap_models() {
        assert_traceback_equals_sw_align(&pairs, &Blosum62, g, "lengths");
    }
}

/// The pool face of the contract: results and every counter are the same
/// for every backend and thread count, chunk boundaries included.
#[test]
fn traceback_pool_is_identical_across_backends_and_threads() {
    let g = GapPenalties::pastis_defaults();
    let mut pairs = gen_pairs(7, 90, 120);
    pairs.extend(tie_heavy_pairs(8, 40, 90));
    let (want, want_stats) = traceback_on(SimdBackend::Scalar, 1, &pairs, &Blosum62, g);
    for (k, (q, r)) in pairs.iter().enumerate() {
        assert_eq!(want[k], sw_align(q, r, &Blosum62, g), "pair {k}");
    }
    for backend in SimdBackend::available() {
        for threads in [1usize, 2, 3] {
            let (got, stats) = traceback_on(backend, threads, &pairs, &Blosum62, g);
            assert_eq!(got, want, "{backend} t{threads}");
            assert_eq!(stats.pairs, want_stats.pairs);
            assert_eq!(stats.cells, want_stats.cells);
            assert_eq!(stats.max_cells, want_stats.max_cells);
            assert_eq!(stats.lane_promotions, 0);
            assert_eq!(stats.simd, backend);
        }
    }
}

/// Self-alignments at i16 saturation ±1 with traceback: 32766 stays on
/// the lanes, 32767 and 32768 go through `sw_align` and are counted, and
/// all three results equal the reference on every backend.
#[test]
fn traceback_promotes_exactly_at_saturation() {
    let g = GapPenalties::pastis_defaults();
    let compose = |w: usize, a: usize| -> Vec<u8> {
        let mut s = vec![W; w];
        s.extend(std::iter::repeat_n(A, a));
        s
    };
    let cases = [
        (compose(2978, 2), 32766i32, 0u64),
        (compose(2977, 5), 32767i32, 1u64),
        (compose(2976, 8), 32768i32, 1u64),
    ];
    for (seq, want_score, want_promotions) in cases {
        let want = sw_align(&seq, &seq, &Blosum62, g);
        assert_eq!(want.score, want_score, "construction is off");
        assert_eq!(want.matches, seq.len());
        let pairs = [(seq.clone(), seq)];
        for backend in SimdBackend::available() {
            let (got, stats) = traceback_on(backend, 1, &pairs, &Blosum62, g);
            assert_eq!(got[0], want, "{backend} at score {want_score}");
            assert_eq!(
                stats.lane_promotions, want_promotions,
                "{backend} promotions at score {want_score}"
            );
        }
    }
}

/// Every way off the lanes is counted and exact: a scoring model outside
/// the i16 scheme sends every pair through `sw_align`, a reference longer
/// than the lanes' column counter sends that pair, and the
/// `align.lane_promotions` counter reports the total.
#[test]
fn traceback_fallbacks_are_counted_and_exact() {
    use pastis::trace::TraceSession;
    let g = GapPenalties::pastis_defaults();
    let pairs = gen_pairs(11, 24, 40);
    let all = pairs.len() as u64;
    let big = MatchMismatch {
        match_score: 100_000,
        mismatch_score: -100_000,
    };
    let huge_gap = GapPenalties {
        open: i16::MAX as i32,
        extend: 10,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let (short_q, long_r) = (
        biased_seq(&mut rng, 3),
        biased_seq(&mut rng, i16::MAX as usize),
    );
    for backend in SimdBackend::available() {
        let (got, stats) = traceback_on(backend, 2, &pairs, &big, g);
        for (k, (q, r)) in pairs.iter().enumerate() {
            assert_eq!(got[k], sw_align(q, r, &big, g), "{backend} pair {k}");
        }
        assert_eq!(stats.lane_promotions, all, "{backend}: scoring");

        let (got, stats) = traceback_on(backend, 2, &pairs, &Blosum62, huge_gap);
        for (k, (q, r)) in pairs.iter().enumerate() {
            assert_eq!(
                got[k],
                sw_align(q, r, &Blosum62, huge_gap),
                "{backend} pair {k}"
            );
        }
        assert_eq!(stats.lane_promotions, all, "{backend}: gap costs");

        let session = TraceSession::new();
        let rec = session.recorder(0);
        let tasks = [AlignTask {
            query: 0,
            reference: 1,
            seed_q: 0,
            seed_r: 0,
        }];
        let (q, r) = (&short_q, &long_r);
        let lookup = |id: u32| -> &[u8] {
            if id == 0 {
                q
            } else {
                r
            }
        };
        let (got, stats) = AlignPool::new(1)
            .with_simd(backend)
            .with_recorder(rec.clone())
            .run_traceback(&tasks, lookup, &Blosum62, g);
        assert_eq!(
            got[0],
            sw_align(q, r, &Blosum62, g),
            "{backend}: long reference"
        );
        assert_eq!(stats.lane_promotions, 1, "{backend}: long reference");
        assert_eq!(
            rec.counters().get("align.lane_promotions").copied(),
            Some(1.0),
            "{backend}: counter missing or wrong"
        );
    }
}

/// Bit-level identity of a similarity graph (the `tests/chaos.rs` pattern):
/// every field of every edge, floats by their exact bit patterns.
fn graph_bits(res: &SearchResult) -> Vec<(u32, u32, i32, u32, u32, u32)> {
    res.graph
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

/// Whole-pipeline face of the contract on the chaos-test corpus: a search
/// on the default traceback path and on the score-only path, run under
/// every backend (forced scalar, forced each available backend, and
/// auto), produces the bit-identical similarity graph.
#[test]
fn pipeline_graph_is_bit_identical_across_backends() {
    use pastis::align::SimdPolicy;
    use pastis::core::params::AlignKind;
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        n_sequences: 40,
        mean_len: 60.0,
        singleton_fraction: 0.3,
        divergence: 0.08,
        seed: 42,
        ..SyntheticConfig::small(40, 42)
    });
    for align_kind in [AlignKind::FullSw, AlignKind::ScoreOnly] {
        let base = SearchParams {
            align_kind,
            ..SearchParams::test_defaults()
        }
        .with_blocking(2, 2)
        .with_align_threads(2);
        let want = {
            let params = base
                .clone()
                .with_simd(SimdPolicy::Force(SimdBackend::Scalar));
            graph_bits(&run_search_serial(&ds.store, &params).unwrap())
        };
        assert!(
            !want.is_empty(),
            "{align_kind:?}: reference graph is empty; test is vacuous"
        );
        let mut policies = vec![SimdPolicy::Auto];
        policies.extend(SimdBackend::available().into_iter().map(SimdPolicy::Force));
        for policy in policies {
            let params = base.clone().with_simd(policy);
            let got = graph_bits(&run_search_serial(&ds.store, &params).unwrap());
            assert_eq!(
                got, want,
                "{align_kind:?}: policy {policy:?} changed the graph"
            );
        }
    }
}
