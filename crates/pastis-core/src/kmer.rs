//! The sequences-by-k-mers matrix.
//!
//! Figure 1 of the paper: "k-mer information in sequences are captured in a
//! sparse matrix whose rows and columns respectively correspond to
//! sequences and k-mers and a nonzero element indicates the existence of a
//! specific k-mer in a specific sequence". Values carry the k-mer's first
//! position in the sequence, which the overlap semiring turns into seed
//! coordinates for the aligner.
//!
//! [`KmerMatrix::build`] is the one operand recipe behind the batch
//! pipeline, the index build, the serve batch and the scaling simulator.
//! The matrix is `|Σ|^k` wide and hypersparse, so no column is ever
//! searched for: every window is written down as `(k-mer id, row,
//! position)` in row order, one stable radix sort by k-mer id puts equal
//! ids side by side with their rows still ascending, and one walk of that
//! stream yields the column map and `Aᵀ` in CSR. `A` is its transpose.

use std::ops::Range;

use pastis_seqio::{ReducedAlphabet, SeqStore};
use pastis_sparse::{CsrMatrix, Index, Triple, Triples};

use crate::subkmers::nearest_kmers;

/// Pack the `k` reduced residue codes starting at `seq[pos]` into a base-Σ
/// k-mer id. Returns `None` if the window extends past the sequence end.
#[inline]
pub fn kmer_id(seq: &[u8], pos: usize, k: usize, alphabet: ReducedAlphabet) -> Option<u32> {
    if pos + k > seq.len() {
        return None;
    }
    let base = alphabet.size() as u64;
    let mut id = 0u64;
    for &code in &seq[pos..pos + k] {
        id = id * base + alphabet.reduce(code) as u64;
    }
    debug_assert!(id <= u32::MAX as u64, "k-mer id overflows u32");
    Some(id as u32)
}

/// Rolling base-Σ k-mer encoder: `(kmer_id, position)` for every window of
/// `seq` (none if `k == 0` or the sequence is shorter than `k`) in O(1) per
/// window and with no division: `id' = (id − c_out·Σ^(k-1))·Σ + c_in`. Ids
/// are those of the windowed [`kmer_id`], which stays as the reference
/// implementation (and the random-access path for stored positions).
pub fn rolling_kmers(
    seq: &[u8],
    k: usize,
    alphabet: ReducedAlphabet,
) -> impl Iterator<Item = (u32, u32)> + '_ {
    let base = alphabet.size() as u64;
    let msd = base.pow(k.saturating_sub(1) as u32);
    let digit = move |i: usize| alphabet.reduce(seq[i]) as u64;
    let windows = (seq.len() + 1).saturating_sub(k) * usize::from(k > 0);
    let mut id = 0u64;
    (0..windows).map(move |pos| {
        id = match pos {
            0 => (0..k).fold(0, |id, i| id * base + digit(i)),
            _ => (id - digit(pos - 1) * msd) * base + digit(pos + k - 1),
        };
        debug_assert!(id <= u32::MAX as u64, "k-mer id overflows u32");
        (id as u32, pos as u32)
    })
}

/// Enumerate `(kmer_id, first_position)` for each **distinct** k-mer of a
/// sequence (first occurrence wins).
pub fn distinct_kmers(seq: &[u8], k: usize, alphabet: ReducedAlphabet) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = rolling_kmers(seq, k, alphabet).collect();
    // Keep the smallest position per k-mer id.
    pairs.sort_unstable();
    pairs.dedup_by_key(|p| p.0);
    pairs
}

/// One k-mer occurrence, the record the builder sorts.
#[derive(Clone, Copy, Default)]
struct Window {
    id: u32,
    row: Index,
    pos: u32,
}

/// Stable LSD radix sort by `id`, which is under `1 << key_bits`: passes of
/// equal width, no digit over 11 bits (2 048 counters stay in L1 beside
/// the stream), between two buffers. Equal ids keep their order.
fn sort_by_id(mut src: Vec<Window>, key_bits: u32) -> Vec<Window> {
    let passes = key_bits.div_ceil(11).max(1);
    let digit_bits = key_bits.div_ceil(passes);
    let mut dst = vec![Window::default(); src.len()];
    for shift in (0..passes).map(|pass| pass * digit_bits) {
        let digit = |w: &Window| (w.id >> shift) as usize & ((1 << digit_bits) - 1);
        let mut next = vec![0usize; 1 << digit_bits];
        for w in &src {
            next[digit(w)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            at += std::mem::replace(slot, at);
        }
        for w in &src {
            let slot = &mut next[digit(w)];
            dst[*slot] = *w;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Number of k-mer windows in `rows` of `store`.
fn window_count(store: &SeqStore, rows: Range<usize>, k: usize) -> usize {
    rows.map(|r| (store.seq_len(r) + 1).saturating_sub(k)).sum()
}

/// The k-mer matrix of a row range, sorted by k-mer id. A loaded index
/// stripe is one too: the matrix of the stripe's references, its columns
/// local to the stripe.
#[derive(Debug, Clone, PartialEq)]
pub struct KmerMatrix {
    /// Sorted distinct k-mer ids: the run boundaries of the sorted stream
    /// and the column map (`at`'s row `c` is k-mer `ids[c]`).
    pub ids: Vec<u32>,
    /// `Aᵀ` over the compact columns, `ids.len().max(1) × store.len()`;
    /// values are the k-mer's first position in the sequence.
    pub at: CsrMatrix<u32>,
}

impl KmerMatrix {
    /// Upper bound on the bytes [`KmerMatrix::build`] holds at once, 32 per
    /// k-mer occurrence: the sorted 12-byte records beside either their
    /// radix twin or the output at one distinct id per window (20 bytes).
    pub fn peak_bytes(store: &SeqStore, rows: Range<usize>, k: usize, substitutes: usize) -> u64 {
        (window_count(store, rows, k) * (1 + substitutes) * 32) as u64
    }

    /// Build the k-mer matrix for the sequence rows `rows` of `store`
    /// (global row ids; each rank of the SPMD pipeline builds its own
    /// contiguous slice, and the union over ranks is the full matrix).
    /// With `substitutes = m > 0` every distinct k-mer of a sequence also
    /// contributes its `m` nearest neighbours, taken from the k-mer's first
    /// window and carrying that window's position. Where a sequence reaches
    /// a k-mer id more than once, the smallest position is kept.
    pub fn build(
        store: &SeqStore,
        rows: Range<usize>,
        k: usize,
        alphabet: ReducedAlphabet,
        substitutes: usize,
    ) -> KmerMatrix {
        assert!(rows.end <= store.len(), "row range out of bounds");
        let mut windows = Vec::with_capacity(window_count(store, rows.clone(), k));
        for r in rows {
            let (seq, row) = (store.seq(r), r as Index);
            let window = |(id, pos)| Window { id, row, pos };
            windows.extend(rolling_kmers(seq, k, alphabet).map(window));
            if substitutes > 0 {
                for (_, pos) in distinct_kmers(seq, k, alphabet) {
                    let near = nearest_kmers(seq, pos as usize, k, alphabet, substitutes);
                    windows.extend(near.into_iter().map(|id| window((id, pos))));
                }
            }
        }
        let id_bits = usize::BITS - (alphabet.kmer_space(k) - 1).leading_zeros();
        let sorted = sort_by_id(windows, id_bits);

        // Equal ids are adjacent with rows ascending (the sort is stable
        // and rows were generated in order), so one walk opens a column at
        // each id change and folds a sequence's repeats of a k-mer into
        // the entry before them.
        let (mut ids, mut ptr) = (Vec::new(), Vec::new());
        let mut colind: Vec<Index> = Vec::with_capacity(sorted.len());
        let mut vals: Vec<u32> = Vec::with_capacity(sorted.len());
        for w in &sorted {
            if ids.last() != Some(&w.id) {
                ids.push(w.id);
                ptr.push(colind.len());
            } else if colind.last() == Some(&w.row) {
                let first = vals.last_mut().expect("one value per entry");
                *first = (*first).min(w.pos);
                continue;
            }
            colind.push(w.row);
            vals.push(w.pos);
        }
        // No k-mer at all leaves the inner dimension one empty column.
        ptr.resize(ids.len().max(1) + 1, colind.len());
        let at = CsrMatrix::from_parts(ids.len().max(1), store.len(), ptr, colind, vals);
        KmerMatrix { ids, at }
    }

    /// `A` (`store.len() × col_map.len().max(1)`) over an external,
    /// strictly increasing column map: [`KmerMatrix::columns_in`], then
    /// [`relabel`] of `Aᵀ`'s transpose; k-mers absent from the map are
    /// dropped. Memory follows this matrix, not the map's length.
    pub fn remap(&self, col_map: &[u32]) -> CsrMatrix<u32> {
        let mut target = Vec::new();
        self.columns_in(col_map, &mut target);
        relabel(&self.at.transpose(), &target, col_map.len().max(1))
    }

    /// Each own k-mer's column in the strictly increasing `col_map`,
    /// `Index::MAX` if it has none, into `target` (cleared first): one
    /// merge walk of the two id lists.
    pub fn columns_in(&self, col_map: &[u32], target: &mut Vec<Index>) {
        target.clear();
        let mut theirs = 0;
        target.extend(self.ids.iter().map(|&id| {
            while theirs < col_map.len() && col_map[theirs] < id {
                theirs += 1;
            }
            let found = col_map.get(theirs).filter(|&&theirs| theirs == id);
            found.map_or(Index::MAX, |_| theirs as Index)
        }));
    }
}

/// `a` with column `c` renamed `target[c]`, and dropped where that is
/// `Index::MAX`, `ncols` wide. A monotone `target` (as
/// [`KmerMatrix::columns_in`] makes) keeps every row sorted, so products
/// over the result still combine in ascending k-mer order.
pub fn relabel(a: &CsrMatrix<u32>, target: &[Index], ncols: usize) -> CsrMatrix<u32> {
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..a.nrows() {
        let (own, positions) = a.row(i);
        for (&c, &pos) in own.iter().zip(positions) {
            if target[c as usize] != Index::MAX {
                cols.push(target[c as usize]);
                vals.push(pos);
            }
        }
        rowptr.push(cols.len());
    }
    CsrMatrix::from_parts(a.nrows(), ncols, rowptr, cols, vals)
}

/// The triples of the k-mer matrix `A` for the sequence rows
/// `[seq_begin, seq_end)` of `store` over the uncompacted
/// `alphabet.kmer_space(k)` columns, in column-major order: a view of
/// [`KmerMatrix::build`] for callers that do their own compaction.
pub fn kmer_matrix_triples(
    store: &SeqStore,
    seq_begin: usize,
    seq_end: usize,
    k: usize,
    alphabet: ReducedAlphabet,
) -> Triples<u32> {
    let m = KmerMatrix::build(store, seq_begin..seq_end, k, alphabet, 0);
    let mut t = Triples::new(store.len(), alphabet.kmer_space(k));
    t.entries.reserve(m.at.nnz());
    for (c, &col) in m.ids.iter().enumerate() {
        let (rows, positions) = m.at.row(c);
        let entries = rows.iter().zip(positions);
        t.entries
            .extend(entries.map(|(&row, &val)| Triple { row, col, val }));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_align::matrices::encode;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn store_of(seqs: &[&str]) -> SeqStore {
        let mut s = SeqStore::new();
        for (i, q) in seqs.iter().enumerate() {
            s.push(format!("s{i}"), encode(q).unwrap());
        }
        s
    }

    #[test]
    fn kmer_id_is_base_sigma_positional() {
        // "AR" under Full20: A=0, R=1 -> 0*20 + 1 = 1.
        let seq = encode("ARN").unwrap();
        assert_eq!(kmer_id(&seq, 0, 2, ReducedAlphabet::Full20), Some(1));
        // "RN": 1*20 + 2 = 22.
        assert_eq!(kmer_id(&seq, 1, 2, ReducedAlphabet::Full20), Some(22));
        assert_eq!(kmer_id(&seq, 2, 2, ReducedAlphabet::Full20), None);
    }

    #[test]
    fn kmer_id_respects_reduced_alphabet() {
        // L and V are the same Murphy-10 group: "LA" == "VA".
        let l = encode("LA").unwrap();
        let v = encode("VA").unwrap();
        let a = ReducedAlphabet::Murphy10;
        assert_eq!(kmer_id(&l, 0, 2, a), kmer_id(&v, 0, 2, a));
        assert_ne!(
            kmer_id(&l, 0, 2, ReducedAlphabet::Full20),
            kmer_id(&v, 0, 2, ReducedAlphabet::Full20)
        );
    }

    #[test]
    fn distinct_kmers_keep_first_position() {
        // "ARAR": AR at 0 and 2, RA at 1.
        let seq = encode("ARAR").unwrap();
        let got = distinct_kmers(&seq, 2, ReducedAlphabet::Full20);
        assert_eq!(got.len(), 2);
        // AR id = 1 at pos 0; RA id = 20 at pos 1.
        assert!(got.contains(&(1, 0)));
        assert!(got.contains(&(20, 1)));
    }

    #[test]
    fn short_sequences_yield_nothing() {
        let seq = encode("AR").unwrap();
        assert!(distinct_kmers(&seq, 3, ReducedAlphabet::Full20).is_empty());
        assert!(distinct_kmers(&[], 3, ReducedAlphabet::Full20).is_empty());
        assert_eq!(rolling_kmers(&seq, 3, ReducedAlphabet::Full20).count(), 0);
        assert_eq!(rolling_kmers(&seq, 0, ReducedAlphabet::Full20).count(), 0);
    }

    const ALPHABETS: [ReducedAlphabet; 3] = [
        ReducedAlphabet::Full20,
        ReducedAlphabet::Murphy10,
        ReducedAlphabet::Dayhoff6,
    ];

    #[test]
    fn rolling_encoder_matches_windowed_reference() {
        // Every window of a residue-cycling sequence, of the same with `X`
        // (code 20) planted in it, and of sequences of exactly k residues,
        // under every alphabet (the reduced ones exercise repeated digits
        // in the rolling state) and from k = 1, where the leading place
        // value is 1 and every residue is its own window.
        let cycling: Vec<u8> = (0..60usize).map(|i| ((i * 7 + 3) % 20) as u8).collect();
        let mut with_x = cycling.clone();
        for at in [0, 1, 17, 18, 19, 40, 59] {
            with_x[at] = 20;
        }
        for alphabet in ALPHABETS {
            for k in [1usize, 2, 3, 6] {
                for seq in [&cycling[..], &with_x[..], &cycling[..k], &with_x[..k]] {
                    let rolled: Vec<(u32, u32)> = rolling_kmers(seq, k, alphabet).collect();
                    assert_eq!(rolled.len(), seq.len() - k + 1);
                    for (at, &(id, pos)) in rolled.iter().enumerate() {
                        assert_eq!(at, pos as usize);
                        assert_eq!(
                            Some(id),
                            kmer_id(seq, at, k, alphabet),
                            "alphabet {alphabet:?}, k={k}, pos={pos}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_triples_rows_and_sharing() {
        let store = store_of(&["MKVLAW", "KVLAWY", "PPPPPP"]);
        let t = kmer_matrix_triples(&store, 0, 3, 4, ReducedAlphabet::Full20);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 160_000);
        // Row 0 has 3 distinct 4-mers, row 1 has 3, row 2 has 1 (PPPP).
        let rows: Vec<usize> = (0..3)
            .map(|r| t.entries.iter().filter(|e| e.row == r).count())
            .collect();
        assert_eq!(rows, vec![3, 3, 1]);
        // KVLA and VLAW shared between rows 0 and 1 (as column collisions).
        use std::collections::HashMap;
        let mut by_col: HashMap<u32, Vec<u32>> = HashMap::new();
        for e in &t.entries {
            by_col.entry(e.col).or_default().push(e.row);
        }
        let shared = by_col.values().filter(|rows| rows.len() == 2).count();
        assert_eq!(shared, 2);
    }

    #[test]
    fn partitioned_construction_unions_to_full() {
        let store = store_of(&["MKVLAWYHE", "KVLAWYHEM", "AWYHEMKVL", "HEMKVLAWY"]);
        let full = kmer_matrix_triples(&store, 0, 4, 5, ReducedAlphabet::Full20);
        let mut merged = Triples::new(full.nrows(), full.ncols());
        for (b, e) in [(0, 2), (2, 3), (3, 4)] {
            let part = kmer_matrix_triples(&store, b, e, 5, ReducedAlphabet::Full20);
            for entry in part.entries {
                merged.push(entry.row, entry.col, entry.val);
            }
        }
        assert_eq!(full.to_sorted_tuples(), merged.to_sorted_tuples());
    }

    #[test]
    fn positions_point_at_kmer_occurrences() {
        let store = store_of(&["MKVLAWMKVL"]);
        let t = kmer_matrix_triples(&store, 0, 1, 4, ReducedAlphabet::Full20);
        let seq = store.seq(0);
        for e in &t.entries {
            let pos = e.val as usize;
            let id = kmer_id(seq, pos, 4, ReducedAlphabet::Full20).unwrap();
            assert_eq!(id, e.col, "stored position does not reproduce the k-mer");
        }
    }

    /// The k-mer matrix by definition: every window through the O(k)
    /// [`kmer_id`], smallest position per `(row, k-mer id)` in a map. No
    /// rolling state, no sort. With substitutes, each entry's neighbours
    /// at its position.
    fn oracle(
        store: &SeqStore,
        rows: Range<usize>,
        k: usize,
        alphabet: ReducedAlphabet,
        m: usize,
    ) -> BTreeMap<(Index, u32), u32> {
        let mut exact = BTreeMap::new();
        for row in rows {
            let seq = store.seq(row);
            for pos in 0..(seq.len() + 1).saturating_sub(k) {
                let id = kmer_id(seq, pos, k, alphabet).unwrap();
                exact.entry((row as Index, id)).or_insert(pos as u32);
            }
        }
        let mut all = exact.clone();
        for (&(row, _), &pos) in &exact {
            for near in nearest_kmers(store.seq(row as usize), pos as usize, k, alphabet, m) {
                let first = all.entry((row, near)).or_insert(pos);
                *first = (*first).min(pos);
            }
        }
        all
    }

    /// `A` as `(row, k-mer id) → position`, read back through a column map.
    fn entries_of(a: &CsrMatrix<u32>, col_map: &[u32]) -> BTreeMap<(Index, u32), u32> {
        a.iter()
            .map(|(row, c, &pos)| ((row, col_map[c as usize]), pos))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Column map, `Aᵀ` and `A` against the oracle; row ranges union
        /// to the whole; an external map drops exactly the absent ids.
        /// Stores hold homopolymers and two-letter repeats, `X`, sequences
        /// shorter than k and empty ones, and may be empty.
        #[test]
        fn builder_matches_the_window_by_window_oracle(
            seqs in proptest::collection::vec(
                (1u8..22, proptest::collection::vec(0u8..21, 0..14)), 0..6),
            alphabet in 0usize..3,
            k in 1usize..7,
            m in 0usize..2,
            cut in 0usize..7,
            drop_every in 2u32..4,
        ) {
            let (alphabet, m) = (ALPHABETS[alphabet], 2 * m);
            let mut store = SeqStore::new();
            for (i, (letters, seq)) in seqs.iter().enumerate() {
                // `letters` distinct residues: 1 is a homopolymer.
                store.push(format!("s{i}"), seq.iter().map(|c| c % letters).collect());
            }
            let n = store.len();
            let want = oracle(&store, 0..n, k, alphabet, m);
            let built = KmerMatrix::build(&store, 0..n, k, alphabet, m);

            let mut ids: Vec<u32> = want.keys().map(|&(_, id)| id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(&built.ids, &ids);
            prop_assert_eq!((built.at.nrows(), built.at.ncols()), (ids.len().max(1), n));
            let at: BTreeMap<(Index, u32), u32> = built.at.iter()
                .map(|(c, row, &pos)| ((row, ids[c as usize]), pos))
                .collect();
            prop_assert_eq!(built.at.nnz(), want.len());
            prop_assert_eq!(&at, &want);
            prop_assert_eq!(&entries_of(&built.at.transpose(), &ids), &want);
            prop_assert_eq!(built.remap(&ids), built.at.transpose());

            // Row ranges [0, cut) and [cut, n) union to the whole.
            let cut = cut.min(n);
            let mut union = BTreeMap::new();
            for rows in [0..cut, cut..n] {
                let windows: usize = rows.clone()
                    .map(|r| rolling_kmers(store.seq(r), k, alphabet).count())
                    .sum();
                prop_assert_eq!(
                    KmerMatrix::peak_bytes(&store, rows.clone(), k, m),
                    (windows * (1 + m) * 32) as u64
                );
                let part = KmerMatrix::build(&store, rows.clone(), k, alphabet, m);
                let got = entries_of(&part.at.transpose(), &part.ids);
                prop_assert_eq!(&got, &oracle(&store, rows, k, alphabet, m));
                union.extend(got);
            }
            prop_assert_eq!(&union, &want);

            // An external map: some of the ids, and ids the store lacks.
            let mut external: Vec<u32> = ids.iter().copied()
                .filter(|id| id % drop_every != 0)
                .chain((0..alphabet.kmer_space(k) as u32).step_by(7).take(20))
                .collect();
            external.sort_unstable();
            external.dedup();
            let a = built.remap(&external);
            prop_assert_eq!((a.nrows(), a.ncols()), (n, external.len().max(1)));
            let kept: BTreeMap<(Index, u32), u32> = want.iter()
                .filter(|((_, id), _)| external.binary_search(id).is_ok())
                .map(|(&key, &pos)| (key, pos))
                .collect();
            prop_assert_eq!(a.nnz(), kept.len());
            prop_assert_eq!(&entries_of(&a, &external), &kept);
        }
    }
}
