//! Candidate and edge filtering.
//!
//! Two filters bracket the aligner, as in the paper's pipeline: the
//! *common-k-mer threshold* decides which discovered candidates are worth
//! aligning (Table IV: threshold 2; only 8.9% of discovered candidates
//! were aligned in the production run), and the *ANI + coverage
//! thresholds* decide which aligned pairs enter the similarity graph
//! (0.30 / 0.70; 12.3% of aligned pairs survived).
//!
//! Between them sits the one candidate → align → edge stage that both
//! `pastis search` ([`crate::pipeline`], per output block) and `pastis
//! serve` ([`crate::serve`], per admission batch) run:
//! `collect_candidates` picks and orients the pairs, and
//! `align_candidates` aligns them and builds the edges. One copy of the
//! stage is what makes serve's rows byte-identical to the batch TSV.

use pastis_align::batch::{AlignTask, BatchStats};
use pastis_align::matrices::{Blosum62, Scoring};
use pastis_align::parallel::{AlignPool, ScoreResult};
use pastis_align::sw::AlignmentResult;

use crate::overlap::CommonKmers;
use crate::params::{AlignKind, SearchParams};
use crate::simgraph::SimilarityEdge;

/// The post-alignment edge filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFilter {
    /// Minimum identity over the alignment.
    pub ani_threshold: f64,
    /// Minimum coverage of the shorter sequence.
    pub coverage_threshold: f64,
}

impl EdgeFilter {
    /// Extract the filter from search parameters.
    pub fn from_params(p: &SearchParams) -> EdgeFilter {
        EdgeFilter {
            ani_threshold: p.ani_threshold,
            coverage_threshold: p.coverage_threshold,
        }
    }

    /// Does an aligned pair enter the similarity graph?
    pub fn passes(&self, res: &AlignmentResult, qlen: usize, rlen: usize) -> bool {
        res.score > 0
            && res.identity() >= self.ani_threshold
            && res.coverage_min(qlen, rlen) >= self.coverage_threshold
    }
}

/// Does a discovered candidate get aligned at all?
#[inline]
pub fn candidate_passes(ck: &CommonKmers, threshold: u32) -> bool {
    ck.count >= threshold
}

/// The discovered candidates worth aligning, from `(row id, column id,
/// overlap)` entries: the pairs that pass [`candidate_passes`] with their
/// first seeds, and beside them, index for index, their common-k-mer
/// counts.
///
/// Every pair comes out in the canonical orientation, query = lower id.
/// The index-based scheme keeps some pairs as their lower-triangle entry,
/// and traceback tie-breaking is not symmetric under swapping the
/// sequences, so without the swap the two load-balancing schemes could
/// disagree on a tie-sensitive pair. `C(j,i)`'s combined seed is
/// `C(i,j)`'s with the positions swapped (both pick the same minimum k-mer
/// id), so the swap is exact.
pub(crate) fn collect_candidates<'a>(
    entries: impl IntoIterator<Item = (u32, u32, &'a CommonKmers)>,
    threshold: u32,
) -> (Vec<AlignTask>, Vec<u32>) {
    // No capacity hint: the threshold passes a fraction of a percent of
    // the discovered entries.
    let (mut tasks, mut counts) = (Vec::new(), Vec::new());
    for (i, j, ck) in entries
        .into_iter()
        .filter(|e| candidate_passes(e.2, threshold))
    {
        let (si, sj) = ck.first_seed().unwrap_or((0, 0));
        let (query, reference, seed_q, seed_r) = if i <= j {
            (i, j, si, sj)
        } else {
            (j, i, sj, si)
        };
        tasks.push(AlignTask {
            query,
            reference,
            seed_q,
            seed_r,
        });
        counts.push(ck.count);
    }
    (tasks, counts)
}

/// Align `tasks` (`counts[t]` is task `t`'s common-k-mer count, `lookup`
/// maps an id to its residues) with the kernel `params.align_kind` names,
/// and return the edges `filter` passes, in task order. Results are per
/// pair: the edges do not depend on how the tasks are split into calls,
/// nor on the pool's threads or `--simd` backend.
pub(crate) fn align_candidates<'a, L>(
    tasks: &[AlignTask],
    counts: &[u32],
    lookup: L,
    params: &SearchParams,
    pool: &AlignPool,
    filter: &EdgeFilter,
) -> (Vec<SimilarityEdge>, BatchStats)
where
    L: Fn(u32) -> &'a [u8] + Sync,
{
    debug_assert_eq!(tasks.len(), counts.len());
    let pairs = || tasks.iter().zip(counts);
    let residues = |t: &AlignTask| (lookup(t.query), lookup(t.reference));
    let edge = |(t, &common_kmers): (&AlignTask, &u32), (score, ani, coverage)| SimilarityEdge {
        i: t.query,
        j: t.reference,
        score,
        ani,
        coverage,
        common_kmers,
    };
    let scored = |(results, stats): (Vec<ScoreResult>, BatchStats)| {
        let edges = pairs().zip(&results).filter_map(|(pair, res)| {
            banded_edge(res.score, residues(pair.0), filter).map(|values| edge(pair, values))
        });
        (edges.collect(), stats)
    };
    match params.align_kind {
        AlignKind::FullSw => {
            // Traceback on the `--simd` lanes, a pair per lane where the
            // chunk's masks fit the per-thread bound (in row blocks if need
            // be) and an anti-diagonal per vector elsewhere; results equal
            // the scalar kernel's in every field.
            let (results, stats) = pool.run_traceback(tasks, &lookup, &Blosum62, params.gaps);
            let edges = pairs().zip(&results).filter_map(|(pair, res)| {
                let (q, r) = residues(pair.0);
                let (qlen, rlen) = (q.len(), r.len());
                filter.passes(res, qlen, rlen).then(|| {
                    let coverage = res.coverage_min(qlen, rlen) as f32;
                    edge(pair, (res.score, res.identity() as f32, coverage))
                })
            });
            (edges.collect(), stats)
        }
        AlignKind::Banded(w) => scored(pool.run_banded(tasks, &lookup, &Blosum62, params.gaps, w)),
        // Exact scores through the multilane vector kernel.
        AlignKind::ScoreOnly => scored(pool.run_score_only(tasks, &lookup, &Blosum62, params.gaps)),
    }
}

/// The edge values for the score-only kernels (banded and multilane): the
/// ANI threshold applies to the score normalized by the shorter sequence's
/// self-score, and coverage is not measurable (reported as the normalized
/// score too).
fn banded_edge(score: i32, (q, r): (&[u8], &[u8]), filter: &EdgeFilter) -> Option<(i32, f32, f32)> {
    if score <= 0 {
        return None;
    }
    let self_score = |s: &[u8]| -> i32 { s.iter().map(|&c| Blosum62.score(c, c)).sum() };
    let denom = self_score(q).min(self_score(r)).max(1);
    let normalized = score as f64 / denom as f64;
    (normalized >= filter.ani_threshold).then_some((score, normalized as f32, normalized as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_align::matrices::{encode, Blosum62};
    use pastis_align::sw::{sw_align, GapPenalties};

    fn filter(ani: f64, cov: f64) -> EdgeFilter {
        EdgeFilter {
            ani_threshold: ani,
            coverage_threshold: cov,
        }
    }

    #[test]
    fn identical_pair_passes_strict_filter() {
        let s = encode("MKVLAWYHEEMKVLAWYHEE").unwrap();
        let res = sw_align(&s, &s, &Blosum62, GapPenalties::pastis_defaults());
        assert!(filter(0.95, 0.95).passes(&res, s.len(), s.len()));
    }

    #[test]
    fn low_coverage_fails() {
        // Perfect identity on a short core, but poor coverage of the
        // longer sequence.
        let q = encode("MKVLA").unwrap();
        let r = encode("MKVLAWYHEEWYHEEWYHEE").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert_eq!(res.identity(), 1.0);
        assert!(!filter(0.3, 0.7).passes(&res, q.len(), r.len()));
        // Relaxing coverage admits it.
        assert!(filter(0.3, 0.2).passes(&res, q.len(), r.len()));
    }

    #[test]
    fn zero_score_never_passes() {
        let q = encode("WWWWW").unwrap();
        let r = encode("PPPPP").unwrap();
        let res = sw_align(&q, &r, &Blosum62, GapPenalties::pastis_defaults());
        assert!(!filter(0.0, 0.0).passes(&res, q.len(), r.len()));
    }

    #[test]
    fn candidate_threshold() {
        use pastis_sparse::Semiring;
        let one = CommonKmers::seed(0, 0);
        assert!(candidate_passes(&one, 1));
        assert!(!candidate_passes(&one, 2));
        let mut two = one;
        crate::overlap::OverlapSemiring.combine(&mut two, CommonKmers::seed(1, 1));
        assert!(candidate_passes(&two, 2));
    }
}
