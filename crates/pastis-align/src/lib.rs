//! Batch protein sequence alignment for PASTIS-RS.
//!
//! PASTIS performs its compute-bound phase — millions of pairwise
//! Smith–Waterman alignments per node — on GPUs through ADEPT, with SeqAn
//! as a CPU alternative. This crate is the substrate replacing both:
//!
//! * [`matrices`] — the canonical 20+1-letter amino-acid code, BLOSUM62,
//!   and simple match/mismatch scoring.
//! * [`sw`] — exact full-matrix affine-gap Smith–Waterman: a score-only
//!   linear-memory kernel and a traceback kernel producing the alignment
//!   statistics PASTIS filters on (identity/ANI, coverage).
//! * [`banded`] — banded and x-drop variants (cheaper, bounded-error
//!   kernels offered as sensitivity/performance options).
//! * [`multilane`] — ADEPT-style inter-task batching: many alignments
//!   advance in lock-step vector lanes (the SeqAn-class vectorized CPU
//!   backend), one pair per saturating i16 lane with an exact
//!   promote-to-i32 overflow rescue; substitution scores arrive in tiles
//!   of 16 columns built with byte shuffles and a transpose, not gathers.
//!   With traceback too: a chunk whose direction matrix is over the
//!   per-thread byte bound runs in row blocks, the earlier ones recomputed
//!   from checkpoints as the walks reach them.
//! * [`tblanes`] — traceback for what the lanes leave: one pair at a time,
//!   the anti-diagonal of its DP matrix in a vector (ADEPT's
//!   intra-alignment wavefront), for a batch's thin tail, chunks too wide
//!   for any cut into row blocks, oversized pairs, and scoring models
//!   without i8 scores. Both are bit-identical to [`sw::sw_align`] and
//!   reached through [`parallel::AlignPool::run_traceback`].
//! * [`simd`] — the lane substrate: a [`simd::SimdVec`] trait with
//!   AVX2/SSE2 (`core::arch::x86_64`, runtime-detected), NEON (aarch64)
//!   and portable scalar-array implementations, plus backend
//!   detection/selection ([`simd::SimdBackend`], [`simd::SimdPolicy`]).
//! * [`parallel`] — the intra-rank parallel engine: a worker pool
//!   executing batches as atomically-claimed chunks across `t` threads
//!   (bit-identical to the serial driver for any thread count), with a
//!   length-bucketing packer dispatching score-only and traceback work
//!   through the multilane kernel, a pair per lane.
//! * [`batch`] — the batch driver with exact cell-update accounting: the
//!   paper's load-balance metric (Figure 7b) is the *sum of DP-matrix
//!   sizes*, and its headline kernel metric is cell updates per second
//!   (CUPs), both of which come from these counters.
//!
//! # Example
//!
//! ```
//! use pastis_align::{matrices::{encode, Blosum62}, sw::{sw_align, GapPenalties}};
//!
//! let q = encode("HEAGAWGHEE").unwrap();
//! let r = encode("PAWHEAE").unwrap();
//! let res = sw_align(&q, &r, &Blosum62, GapPenalties::blast_defaults());
//! assert!(res.score > 0);
//! assert!(res.identity() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod banded;
pub mod batch;
pub mod matrices;
pub mod multilane;
pub mod parallel;
pub mod simd;
pub mod sw;
pub mod tblanes;

pub use batch::{AlignTask, BatchAligner, BatchStats};
pub use matrices::{encode, Blosum62, MatchMismatch, Scoring, AA_ALPHABET};
pub use multilane::{sw_score_batch_simd, sw_score_lanes, LaneScores, LaneTable};
pub use parallel::{AlignPool, ScoreResult};
pub use simd::{SimdBackend, SimdPolicy};
pub use sw::{sw_align, sw_score_only, AlignmentResult, GapPenalties};
