//! Substitute k-mers: the m-nearest-neighbor sensitivity option.
//!
//! Section V: "PASTIS has the option to introduce substitute k-mers that
//! are m-nearest neighbors of a k-mer … which can enhance the
//! sensitivity." A k-mer's neighbors are the single-substitution variants
//! ranked by substitution-matrix score; adding the top `m` to the k-mer
//! matrix lets diverged homologs that share no exact k-mer still be
//! discovered by the SpGEMM.

use pastis_align::matrices::{Blosum62, Scoring};
use pastis_seqio::ReducedAlphabet;

use crate::kmer::kmer_id;

/// The `m` highest-scoring single-substitution neighbors of the k-mer at
/// `seq[pos..pos+k]`, as k-mer ids under `alphabet` (own id excluded,
/// deduplicated, deterministic order: descending score, then ascending
/// id).
pub fn nearest_kmers(
    seq: &[u8],
    pos: usize,
    k: usize,
    alphabet: ReducedAlphabet,
    m: usize,
) -> Vec<u32> {
    if m == 0 || pos + k > seq.len() {
        return Vec::new();
    }
    let window = &seq[pos..pos + k];
    let own = kmer_id(seq, pos, k, alphabet).expect("in range");
    let scoring = Blosum62;
    // Score of the unmodified k-mer against itself.
    let self_score: i32 = window.iter().map(|&c| scoring.score(c, c)).sum();
    let mut candidates: Vec<(i32, u32)> = Vec::with_capacity(k * 19);
    let base = alphabet.size() as u64;
    for (i, &orig) in window.iter().enumerate() {
        // Place value of window position i in the packed base-Σ id; a
        // variant id is the k-mer's own id with that digit swapped — no
        // O(k) re-encoding per variant.
        let place = base.pow((k - 1 - i) as u32);
        let orig_digit = alphabet.reduce(orig) as u64;
        for sub in 0..20u8 {
            if sub == orig {
                continue;
            }
            // Score of the substituted k-mer aligned to the original.
            let score = self_score - scoring.score(orig, orig) + scoring.score(orig, sub);
            let id64 = own as u64 - orig_digit * place + alphabet.reduce(sub) as u64 * place;
            debug_assert!(id64 <= u32::MAX as u64, "variant id overflows u32");
            let id = id64 as u32;
            if id != own {
                candidates.push((score, id));
            }
        }
    }
    // Descending score, ascending id; dedup ids keeping the best score.
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let cap = m.min(candidates.len());
    let mut seen = std::collections::HashSet::with_capacity(cap);
    let mut out = Vec::with_capacity(cap);
    for (_, id) in candidates {
        if seen.insert(id) {
            out.push(id);
            if out.len() == m {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer::KmerMatrix;
    use pastis_align::matrices::encode;
    use pastis_seqio::SeqStore;

    const FULL: ReducedAlphabet = ReducedAlphabet::Full20;

    #[test]
    fn zero_m_yields_nothing() {
        let seq = encode("MKVLAW").unwrap();
        assert!(nearest_kmers(&seq, 0, 4, FULL, 0).is_empty());
    }

    #[test]
    fn neighbors_exclude_self_and_are_distinct() {
        let seq = encode("MKVLAW").unwrap();
        let own = kmer_id(&seq, 0, 4, FULL).unwrap();
        let n = nearest_kmers(&seq, 0, 4, FULL, 10);
        assert_eq!(n.len(), 10);
        assert!(!n.contains(&own));
        let set: std::collections::HashSet<_> = n.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn best_neighbor_substitutes_conservatively() {
        // For "LLLL", the best single substitution is L->I or L->M
        // (BLOSUM62 score 2), never L->P (-3).
        let seq = encode("LLLL").unwrap();
        let n = nearest_kmers(&seq, 0, 4, FULL, 1);
        assert_eq!(n.len(), 1);
        // Decode the neighbor id: base-20 digits.
        let mut id = n[0];
        let mut codes = [0u8; 4];
        for slot in (0..4).rev() {
            codes[slot] = (id % 20) as u8;
            id /= 20;
        }
        let subs: Vec<u8> = codes
            .iter()
            .copied()
            .filter(|&c| c != encode("L").unwrap()[0])
            .collect();
        assert_eq!(subs.len(), 1);
        // I = 9 or M = 12 (both score 2 vs L).
        assert!(subs[0] == 9 || subs[0] == 12, "unexpected sub {}", subs[0]);
    }

    #[test]
    fn place_value_ids_match_reencoding() {
        // The fast path swaps one digit of the packed id; the reference is
        // re-encoding the substituted window. They must agree for every
        // single-substitution variant, including under reduced alphabets
        // where distinct residues share a digit.
        let seq = encode("MKVLAWYHEE").unwrap();
        for alphabet in [ReducedAlphabet::Full20, ReducedAlphabet::Murphy10] {
            for (pos, k) in [(0usize, 6usize), (2, 5), (4, 4)] {
                let window = &seq[pos..pos + k];
                let mut reference = std::collections::HashSet::new();
                let mut variant = window.to_vec();
                for i in 0..k {
                    let orig = window[i];
                    for sub in 0..20u8 {
                        if sub == orig {
                            continue;
                        }
                        variant[i] = sub;
                        reference.insert(kmer_id(&variant, 0, k, alphabet).unwrap());
                    }
                    variant[i] = orig;
                }
                let own = kmer_id(&seq, pos, k, alphabet).unwrap();
                reference.remove(&own);
                let fast: std::collections::HashSet<u32> =
                    nearest_kmers(&seq, pos, k, alphabet, usize::MAX)
                        .into_iter()
                        .collect();
                assert_eq!(fast, reference, "alphabet {alphabet:?}, pos={pos}, k={k}");
            }
        }
    }

    #[test]
    fn deterministic_ordering() {
        let seq = encode("HEAGAW").unwrap();
        let a = nearest_kmers(&seq, 1, 5, FULL, 7);
        let b = nearest_kmers(&seq, 1, 5, FULL, 7);
        assert_eq!(a, b);
        // Prefix property: top-3 is a prefix of top-7.
        let c = nearest_kmers(&seq, 1, 5, FULL, 3);
        assert_eq!(&a[..3], c.as_slice());
    }

    #[test]
    fn substitutes_connect_diverged_kmers() {
        // Two sequences differing by one conservative substitution share
        // no exact 6-mer but do share one after expansion.
        let mut store = SeqStore::new();
        store.push("a".into(), encode("MKVLAW").unwrap());
        store.push("b".into(), encode("MKVIAW").unwrap()); // L -> I
        let exact = KmerMatrix::build(&store, 0..2, 6, FULL, 0);
        let expanded = KmerMatrix::build(&store, 0..2, 6, FULL, 8);
        // Columns of `Aᵀ` (k-mers) that both sequences reach.
        let shared = |m: &KmerMatrix| (0..m.ids.len()).filter(|&c| m.at.row_nnz(c) == 2).count();
        assert_eq!(shared(&exact), 0);
        assert!(
            shared(&expanded) >= 1,
            "expansion failed to connect L/I variants"
        );
    }

    #[test]
    fn expansion_grows_matrix_monotonically() {
        let mut store = SeqStore::new();
        store.push("a".into(), encode("MKVLAWYHEE").unwrap());
        let nnz = |m: usize| KmerMatrix::build(&store, 0..1, 5, FULL, m).at.nnz();
        assert!(nnz(0) < nnz(2));
        assert!(nnz(2) <= nnz(5));
    }
}
