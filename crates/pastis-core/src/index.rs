//! The persistent sharded k-mer index behind `pastis index build` and
//! `pastis serve`.
//!
//! The batch pipeline forms `C = A·Aᵀ` from scratch on every run. The
//! serving path splits that work: `build_index` constructs the reference
//! side **once** — the compacted k-mer matrix `B = Aᵀ` (k-mers × refs,
//! values are first k-mer positions, exactly the operand the batch SUMMA
//! multiplies) — and persists it as column stripes, each an
//! [`IndexShard`] in the binary CRC-framed format of [`crate::frame`], plus
//! one manifest binding the shards to the build parameters and the
//! reference set. [`PersistedIndex::open`] reloads the manifest and the reference
//! sequences, re-verifying every frame, so a query batch only has to form
//! its own small `A_query` and multiply against the loaded stripes.
//!
//! Identity is defended in layers, mirroring the checkpoint family:
//!
//! * every file (manifest, shard, `refs.fasta` via its digest line) is
//!   covered by a CRC32 trailer → torn or bit-flipped files are rejected
//!   with a typed error, never parsed into garbage;
//! * the manifest records the *output-relevant* build parameters
//!   (`k`, alphabet, substitute k-mers) and a digest of the reference
//!   store; shards carry the same [`index_fingerprint`] → a stale index
//!   (different parameters or references) refuses to serve with a clear
//!   message instead of silently answering from the wrong matrix;
//! * shard CSR invariants are re-validated on load (via
//!   [`IndexShard::from_bytes`]) so even a CRC-colliding forgery yields
//!   `Err`;
//! * an index written in the text format of version 1 is refused with an
//!   error naming the version: rebuild it with `pastis index build`.

use std::path::{Path, PathBuf};

use pastis_seqio::fasta::write_fasta;
use pastis_seqio::{FastaStream, ReducedAlphabet, SeqStore};
use pastis_sparse::CsrMatrix;
use pastis_trace::{names, span, Component, Recorder};

use crate::checkpoint::{digest_bytes, digest_u64, write_atomic, IndexShard};
use crate::frame::{FrameError, FrameReader, FrameWriter, Kind};
use crate::kmer::KmerMatrix;
use crate::membudget::MemBudget;

/// Schema version of the binary index-manifest frame (version 1 was text).
pub const INDEX_MANIFEST_SCHEMA_VERSION: u32 = 2;

/// Largest record accepted when reloading `refs.fasta` (matches the CLI's
/// input bound).
const RECORD_BOUND: usize = 1 << 30;

/// Content digest of a sequence store: length, every id, every encoded
/// sequence. Binds `refs.fasta` to the shards and detects self-serving
/// (query stream == reference set) deterministically.
pub fn store_digest(store: &SeqStore) -> u64 {
    let mut h = 0x5041_5354_4953_2d53u64; // "PASTIS-S"
    h = digest_u64(h, store.len() as u64);
    for i in 0..store.len() {
        h = digest_bytes(h, store.id(i).as_bytes());
        h = digest_bytes(h, store.seq(i));
    }
    h
}

/// Identity of a persisted index: the output-relevant build parameters
/// plus the reference store digest. Serving-time knobs (thresholds,
/// alignment kind, threads, SIMD backend, kernels) are deliberately
/// excluded — they are query-time choices and never change what the
/// index *is*, exactly as [`crate::checkpoint::run_fingerprint`] excludes
/// wall-time-only knobs.
pub fn index_fingerprint(
    k: usize,
    alphabet: ReducedAlphabet,
    substitute_kmers: usize,
    store: &SeqStore,
) -> u64 {
    let mut h = 0x5041_5354_4953_2d49u64; // "PASTIS-I"
    h = digest_u64(h, k as u64);
    h = digest_bytes(h, alphabet_name(alphabet).as_bytes());
    h = digest_u64(h, substitute_kmers as u64);
    digest_u64(h, store_digest(store))
}

/// The CLI spelling of an alphabet (stable across `Debug` renames).
pub fn alphabet_name(a: ReducedAlphabet) -> &'static str {
    match a {
        ReducedAlphabet::Full20 => "full20",
        ReducedAlphabet::Murphy10 => "murphy10",
        ReducedAlphabet::Dayhoff6 => "dayhoff6",
    }
}

/// The alphabets by their code in the index manifest.
const ALPHABETS: [ReducedAlphabet; 3] = [
    ReducedAlphabet::Full20,
    ReducedAlphabet::Murphy10,
    ReducedAlphabet::Dayhoff6,
];

/// The index-manifest frame.
const INDEX_MANIFEST: Kind = Kind(
    *b"\x89PSTIMF\n",
    INDEX_MANIFEST_SCHEMA_VERSION,
    "PASTIS-IDXMAN ",
);

/// The manifest tying an index directory together: a [`crate::frame`]
/// whose body binds the shards to the build parameters and the
/// reference set, with the column map stored as ascending deltas:
///
/// ```text
/// fingerprint u64 | k, alphabet code, substitute-kmers, n_refs varints
/// | refs digest u64 | stripe_cols, n_stripes, colmap length varints
/// | colmap delta varints
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexManifest {
    /// Index identity ([`index_fingerprint`]); every shard carries it too.
    pub fingerprint: u64,
    /// k-mer length the matrix was built with.
    pub k: usize,
    /// Reduced alphabet the matrix was built with.
    pub alphabet: ReducedAlphabet,
    /// Substitute k-mers per position (0 = exact k-mers only).
    pub substitute_kmers: usize,
    /// Reference sequence count (columns of `B`).
    pub n_refs: usize,
    /// [`store_digest`] of the reference store (`refs.fasta` must match).
    pub refs_digest: u64,
    /// Reference columns per stripe (the last stripe may be narrower).
    pub stripe_cols: usize,
    /// Stripe count (`ceil(n_refs / stripe_cols)`).
    pub n_stripes: usize,
    /// Sorted distinct k-mer ids of the reference matrix: the compacted
    /// inner dimension, identical to the batch pipeline's collective
    /// column compaction. Query k-mers are remapped through it by binary
    /// search; ids absent here cannot match any reference and are dropped.
    pub col_map: Vec<u32>,
}

impl IndexManifest {
    /// The compacted inner dimension (`col_map.len().max(1)`), the row
    /// count of every `B` stripe.
    pub fn inner_dim(&self) -> usize {
        self.col_map.len().max(1)
    }

    /// Column range `[lo, hi)` of stripe `s` in global reference ids.
    pub fn stripe_range(&self, s: usize) -> (usize, usize) {
        let lo = s * self.stripe_cols;
        (lo, (lo + self.stripe_cols).min(self.n_refs))
    }

    /// Serialize to the binary frame (CRC trailer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(&INDEX_MANIFEST, 64 + 2 * self.col_map.len());
        w.u64(self.fingerprint);
        let code = ALPHABETS.iter().position(|&a| a == self.alphabet);
        let code = code.expect("every alphabet has a code");
        for v in [self.k, code, self.substitute_kmers, self.n_refs] {
            w.varint(v as u64);
        }
        w.u64(self.refs_digest);
        for v in [self.stripe_cols, self.n_stripes, self.col_map.len()] {
            w.varint(v as u64);
        }
        let mut prev = 0;
        for &id in &self.col_map {
            w.varint(u64::from(id - prev));
            prev = id;
        }
        w.finish()
    }

    /// Check the frame, decode it, and validate its structure: a column
    /// map not strictly increasing or inconsistent stripe arithmetic is
    /// an `Err` too, so even a CRC-colliding forgery cannot poison the
    /// binary searches downstream.
    pub fn from_bytes(bytes: &[u8]) -> Result<IndexManifest, FrameError> {
        let mut r = FrameReader::open(bytes, &INDEX_MANIFEST)?;
        let invalid = |why: String| Err(FrameError::Invalid(why));
        let mut m = IndexManifest {
            fingerprint: r.u64("fingerprint")?,
            k: r.varint("k")?,
            alphabet: match ALPHABETS.get(r.varint::<usize>("alphabet")?) {
                Some(&a) => a,
                None => return invalid("unknown alphabet code".to_string()),
            },
            substitute_kmers: r.varint("substitute-kmers")?,
            n_refs: r.varint("refs")?,
            refs_digest: r.u64("refs digest")?,
            stripe_cols: r.varint("stripe width")?,
            n_stripes: r.varint("stripes")?,
            col_map: Vec::new(),
        };
        let n_cols = r.varint("colmap length")?;
        let deltas = r.varints(n_cols, "colmap")?;
        r.finish()?;

        m.col_map.reserve_exact(n_cols as usize);
        let mut prev = 0u64;
        for (i, delta) in deltas.enumerate() {
            if i > 0 && delta == 0 {
                return invalid("colmap not strictly increasing".to_string());
            }
            prev = prev.saturating_add(delta);
            match u32::try_from(prev) {
                Ok(id) => m.col_map.push(id),
                Err(_) => return invalid("colmap id past u32".to_string()),
            }
        }
        let (k, n_refs, cols, n) = (m.k, m.n_refs, m.stripe_cols, m.n_stripes);
        if k == 0 || k > 12 {
            return invalid(format!("k {k} out of range (1..=12)"));
        }
        if n_refs == 0 || cols == 0 {
            return invalid("empty reference set or zero stripe width".to_string());
        }
        if n != n_refs.div_ceil(cols) {
            return invalid(format!(
                "stripe arithmetic inconsistent: {n} stripes of {cols} cols for {n_refs} refs"
            ));
        }
        Ok(m)
    }
}

/// Path of the manifest inside an index directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("index.manifest")
}

/// Path of stripe `s`'s shard inside an index directory.
pub fn shard_path(dir: &Path, stripe: usize) -> PathBuf {
    dir.join(format!("shard_b{stripe:04}.idx"))
}

/// Path of the persisted reference sequences inside an index directory.
pub fn refs_path(dir: &Path) -> PathBuf {
    dir.join("refs.fasta")
}

/// Build-time knobs for [`build_index`].
#[derive(Debug, Clone)]
pub struct IndexBuildConfig {
    /// k-mer length (1..=12, with the k-mer space fitting `u32`).
    pub k: usize,
    /// Reduced alphabet.
    pub alphabet: ReducedAlphabet,
    /// Substitute k-mers per position (0 = exact only).
    pub substitute_kmers: usize,
    /// Reference columns per persisted stripe.
    pub stripe_cols: usize,
    /// Optional hard byte budget for the build (PR 8 accountant): the
    /// build charges each phase and streams stripes out one at a time, so
    /// the budget bounds peak live bytes; an unsatisfiable phase fails
    /// with a typed error naming it.
    pub mem_budget: Option<u64>,
}

impl Default for IndexBuildConfig {
    fn default() -> IndexBuildConfig {
        IndexBuildConfig {
            k: 4,
            alphabet: ReducedAlphabet::Full20,
            substitute_kmers: 0,
            stripe_cols: 512,
            mem_budget: None,
        }
    }
}

/// What [`build_index`] wrote.
#[derive(Debug, Clone)]
pub struct IndexBuildReport {
    /// The manifest as persisted.
    pub manifest: IndexManifest,
    /// Total bytes of shard frames written.
    pub shard_bytes: u64,
    /// Nonzeros of the reference matrix.
    pub nnz: u64,
    /// Peak accounted live bytes during the build.
    pub mem_high_water: u64,
}

/// Construct the reference k-mer matrix once and persist it as versioned,
/// CRC'd, fingerprint-bound column stripes plus a manifest and the
/// reference sequences themselves.
///
/// The matrix is built exactly as the batch pipeline builds its SUMMA
/// operand: triples of first k-mer positions, collectively-compacted
/// column space (here trivially collective — one builder), transpose, so
/// a serve-side `A_query × B_stripe` SpGEMM reproduces the batch overlap
/// values bit-for-bit.
///
/// # Errors
///
/// Invalid parameters, an empty reference set, I/O failures, and memory
/// budget exhaustion (typed, naming the phase) all return `Err`.
pub fn build_index(
    store: &SeqStore,
    cfg: &IndexBuildConfig,
    dir: &Path,
    recorder: &Recorder,
) -> Result<IndexBuildReport, String> {
    if cfg.k == 0 || cfg.k > 12 {
        return Err(format!("index build k {} out of range (1..=12)", cfg.k));
    }
    if cfg.alphabet.kmer_space(cfg.k) > u32::MAX as usize {
        return Err(format!(
            "k-mer space for k={} over {} does not fit u32 ids",
            cfg.k,
            alphabet_name(cfg.alphabet)
        ));
    }
    if cfg.stripe_cols == 0 {
        return Err("index build stripe width must be at least 1".to_string());
    }
    if store.is_empty() {
        return Err("index build requires a non-empty reference set".to_string());
    }

    let mut build_span = span!(recorder, Component::SparseOther, names::SPAN_INDEX_BUILD);
    let budget = MemBudget::new(cfg.mem_budget);
    let n = store.len();
    let fingerprint = index_fingerprint(cfg.k, cfg.alphabet, cfg.substitute_kmers, store);

    // 1. The batch pipeline's operand recipe: the builder's sorted column
    // map and `B = Aᵀ` (inner_dim × n_refs, first k-mer positions). Its
    // scratch is charged before it is allocated.
    let reserve = |phase, bytes| budget.reserve(phase, bytes).map_err(|e| e.to_string());
    let (k, substitutes) = (cfg.k, cfg.substitute_kmers);
    let scratch_bytes = KmerMatrix::peak_bytes(store, 0..n, k, substitutes);
    reserve("index k-mer sort", scratch_bytes)?;
    let kmers = KmerMatrix::build(store, 0..n, k, cfg.alphabet, substitutes);
    let (col_map, bt) = (kmers.ids, kmers.at);
    budget.release(scratch_bytes);
    let nnz = bt.nnz();
    // `B`, its column map, and the stripe cutter's count per entry.
    let bt_bytes = (bt.payload_bytes() + col_map.len() * 4 + (nnz + 1) * 8) as u64;
    reserve("index transpose", bt_bytes)?;

    // 2. Stream the column stripes to disk one at a time: only one stripe
    // buffer is ever live on top of `B`, so `--mem-budget` bounds the
    // build's peak instead of the whole shard set.
    let n_stripes = n.div_ceil(cfg.stripe_cols);
    let bounds: Vec<usize> = (0..=n_stripes)
        .map(|s| (s * cfg.stripe_cols).min(n))
        .collect();
    let mut shard_bytes = 0u64;
    for (s, stripe) in bt.col_stripes(&bounds).enumerate() {
        let stripe_bytes = stripe.payload_bytes() as u64;
        reserve("index stripe buffer", stripe_bytes)?;
        let (nrows, ncols, rowptr, cols, vals) = stripe.into_parts();
        let shard = IndexShard {
            fingerprint,
            rank: 0,
            is_a: false,
            stripe: s,
            nrows,
            ncols,
            rowptr,
            cols,
            vals,
        };
        let bytes = shard.to_bytes();
        shard_bytes += bytes.len() as u64;
        write_atomic(&shard_path(dir, s), &bytes)?;
        budget.release(stripe_bytes);
    }
    budget.release(bt_bytes);
    drop(bt);

    // 3. The reference sequences (alignment needs the residues at serve
    // time) and, last, the manifest — a directory without a valid
    // manifest is not an index, so a torn build can never be opened.
    let records = store.to_records();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &records, 60).map_err(|e| format!("rendering refs.fasta: {e}"))?;
    let fasta = String::from_utf8(fasta).map_err(|_| "reference ids are not UTF-8".to_string())?;
    write_atomic(&refs_path(dir), &fasta)?;

    let manifest = IndexManifest {
        fingerprint,
        k: cfg.k,
        alphabet: cfg.alphabet,
        substitute_kmers: cfg.substitute_kmers,
        n_refs: n,
        refs_digest: store_digest(store),
        stripe_cols: cfg.stripe_cols,
        n_stripes,
        col_map,
    };
    write_atomic(&manifest_path(dir), manifest.to_bytes())?;
    build_span.push_arg("nnz", nnz as u64);
    build_span.push_arg("stripes", n_stripes as u64);
    Ok(IndexBuildReport {
        manifest,
        shard_bytes,
        nnz: nnz as u64,
        mem_high_water: budget.high_water(),
    })
}

/// An opened index directory: verified manifest plus the reloaded (and
/// digest-checked) reference store. Stripes are loaded on demand via
/// [`PersistedIndex::load_stripe`].
#[derive(Debug)]
pub struct PersistedIndex {
    /// The directory the index lives in.
    pub dir: PathBuf,
    /// The verified manifest.
    pub manifest: IndexManifest,
    /// The reference sequences, digest-bound to the manifest.
    pub refs: SeqStore,
}

impl PersistedIndex {
    /// Open an index directory: parse + CRC-check the manifest, reload
    /// `refs.fasta`, and verify its digest against the manifest.
    ///
    /// # Errors
    ///
    /// Missing or corrupt files, and a reference set that no longer
    /// matches the manifest digest, are typed errors.
    pub fn open(dir: &Path) -> Result<PersistedIndex, String> {
        let mpath = manifest_path(dir);
        let bytes = std::fs::read(&mpath)
            .map_err(|e| format!("reading index manifest {}: {e}", mpath.display()))?;
        let manifest = IndexManifest::from_bytes(&bytes)
            .map_err(|e| format!("index manifest {}: {e}", mpath.display()))?;
        let rpath = refs_path(dir);
        let file = std::fs::File::open(&rpath)
            .map_err(|e| format!("opening index references {}: {e}", rpath.display()))?;
        let stream =
            FastaStream::new(std::io::BufReader::new(file)).with_record_bound(RECORD_BOUND);
        let refs = SeqStore::from_fasta_stream(stream)
            .map_err(|e| format!("parsing index references {}: {e}", rpath.display()))?;
        if refs.len() != manifest.n_refs || store_digest(&refs) != manifest.refs_digest {
            return Err(format!(
                "index references {} do not match the manifest digest \
                 (the index directory was modified after the build; rebuild it)",
                rpath.display()
            ));
        }
        Ok(PersistedIndex {
            dir: dir.to_path_buf(),
            manifest,
            refs,
        })
    }

    /// Refuse to serve with parameters the index was not built for. The
    /// serving SpGEMM is only meaningful over the k-mer space the index
    /// was built in, so a mismatch is an error, never a silent answer.
    ///
    /// # Errors
    ///
    /// Names both the persisted and the requested parameter set.
    pub fn check_params(
        &self,
        k: usize,
        alphabet: ReducedAlphabet,
        substitute_kmers: usize,
    ) -> Result<(), String> {
        let m = &self.manifest;
        if k != m.k || alphabet != m.alphabet || substitute_kmers != m.substitute_kmers {
            return Err(format!(
                "stale index: {} was built with k={} alphabet={} substitute-kmers={}, \
                 but serving requested k={} alphabet={} substitute-kmers={}; \
                 rebuild with `pastis index build` or drop the conflicting flags",
                self.dir.display(),
                m.k,
                alphabet_name(m.alphabet),
                m.substitute_kmers,
                k,
                alphabet_name(alphabet),
                substitute_kmers
            ));
        }
        Ok(())
    }

    /// Load stripe `s`: read its shard, CRC-check, re-validate the CSR
    /// invariants, and verify it is *this* index's stripe `s` (fingerprint,
    /// side, stripe number, dimensions all bound by the manifest).
    ///
    /// # Errors
    ///
    /// Corrupt, foreign, or mis-shaped shards are typed errors.
    pub fn load_stripe(&self, s: usize) -> Result<CsrMatrix<u32>, String> {
        let path = shard_path(&self.dir, s);
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("reading index shard {}: {e}", path.display()))?;
        let shard = IndexShard::from_bytes(&bytes)
            .map_err(|e| format!("index shard {}: {e}", path.display()))?;
        let (lo, hi) = self.manifest.stripe_range(s);
        if shard.fingerprint != self.manifest.fingerprint {
            return Err(format!(
                "index shard {} belongs to a different index build \
                 (fingerprint {:016x}, manifest {:016x}); rebuild the index",
                path.display(),
                shard.fingerprint,
                self.manifest.fingerprint
            ));
        }
        if shard.is_a
            || shard.stripe != s
            || shard.nrows != self.manifest.inner_dim()
            || shard.ncols != hi - lo
        {
            return Err(format!(
                "index shard {} is not stripe {s} of this index \
                 (side/stripe/dims disagree with the manifest)",
                path.display()
            ));
        }
        Ok(CsrMatrix::from_parts(
            shard.nrows,
            shard.ncols,
            shard.rowptr,
            shard.cols,
            shard.vals,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_align::matrices::encode;

    fn tiny_store() -> SeqStore {
        let mut s = SeqStore::new();
        for (i, q) in [
            "MKVLAWYHEEMKVLAWYHEE",
            "MKVLAWYHEEMKVLAWYHEA",
            "GGSTPNQRCDGGSTPNQRCD",
            "GGSTPNQRCDGGSTPNQRCE",
            "WPWPWPWPWPWPWPWPWPWP",
        ]
        .iter()
        .enumerate()
        {
            s.push(format!("s{i}"), encode(q).unwrap());
        }
        s
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pastis-index-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_manifest() -> IndexManifest {
        IndexManifest {
            fingerprint: 0xdead_beef_0123_4567,
            k: 4,
            alphabet: ReducedAlphabet::Murphy10,
            substitute_kmers: 2,
            n_refs: 7,
            refs_digest: 0x0123_4567_89ab_cdef,
            stripe_cols: 3,
            n_stripes: 3,
            col_map: vec![0, 5, 9, 1000, u32::MAX],
        }
    }

    #[test]
    fn manifest_round_trips_bit_identically() {
        let m = sample_manifest();
        let bytes = m.to_bytes();
        let back = IndexManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_bytes(), bytes);
        assert!(back.col_map.capacity() <= bytes.len());
    }

    /// The sample manifest's frame with its column map re-encoded as
    /// `len` (the count field) and `deltas`, CRC recomputed.
    fn forged_colmap(len: u64, deltas: &[u64]) -> Vec<u8> {
        let empty = IndexManifest {
            col_map: Vec::new(),
            ..sample_manifest()
        }
        .to_bytes();
        // Everything up to the column map's length field (one byte, 0).
        let head = &empty[12..empty.len() - 5];
        let mut w = FrameWriter::new(&INDEX_MANIFEST, 0);
        w.bytes(head);
        w.varint(len);
        deltas.iter().for_each(|&d| w.varint(d));
        w.finish()
    }

    #[test]
    fn manifest_rejects_corruption_and_skew() {
        let bytes = sample_manifest().to_bytes();
        // Every truncation and every single-byte flip is refused.
        for cut in 0..bytes.len() {
            assert!(
                IndexManifest::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert!(IndexManifest::from_bytes(&flipped).is_err(), "byte {at}");
        }
        let mut flipped = bytes.clone();
        flipped[20] ^= 1;
        assert!(IndexManifest::from_bytes(&flipped)
            .unwrap_err()
            .to_string()
            .contains("crc"));
        // Version skew (CRC re-framed so the version check itself fires).
        let mut v9 = FrameWriter::new(&Kind(INDEX_MANIFEST.0, 9, ""), 0);
        v9.bytes(&bytes[12..bytes.len() - 4]);
        assert!(IndexManifest::from_bytes(&v9.finish())
            .unwrap_err()
            .to_string()
            .contains("schema version 9"));
        // A self-consistent frame with a broken column map or stripe
        // arithmetic.
        let deltas = [0, 5, 4, 991, u64::from(u32::MAX - 1000)];
        assert_eq!(
            IndexManifest::from_bytes(&forged_colmap(5, &deltas)).unwrap(),
            sample_manifest()
        );
        let err = |len, d: &[u64]| IndexManifest::from_bytes(&forged_colmap(len, d)).unwrap_err();
        assert!(err(5, &[0, 5, 0, 991, 7])
            .to_string()
            .contains("strictly increasing"));
        assert!(err(5, &[0, 5, 4, 991, u64::from(u32::MAX)])
            .to_string()
            .contains("past u32"));
        let skewed = IndexManifest {
            n_stripes: 2,
            ..sample_manifest()
        };
        assert!(IndexManifest::from_bytes(&skewed.to_bytes())
            .unwrap_err()
            .to_string()
            .contains("stripe arithmetic"));
        // A forged column-map length, up to u64::MAX, fails on the bytes
        // left before anything is sized by it.
        for len in [4, 6, bytes.len() as u64, u64::from(u32::MAX), u64::MAX] {
            assert!(
                matches!(
                    err(len, &deltas),
                    FrameError::Truncated(_) | FrameError::Invalid(_)
                ),
                "{len}"
            );
        }
    }

    #[test]
    fn text_manifest_is_refused_naming_its_version() {
        let v1 = "PASTIS-IDXMAN 1\nfingerprint 00000000000000ab\nparams 4 full20 0\n\
                  refs 1 00000000000000cd\nstripes 1 512\ncolmap 1 7\nend 0badf00d\n";
        let err = IndexManifest::from_bytes(v1.as_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.contains("text format version 1"), "{err}");
        assert!(err.contains("re-run `pastis index build`"), "{err}");
        // Opening a version-1 directory names the manifest file.
        let dir = tmpdir("v1");
        std::fs::write(manifest_path(&dir), v1).unwrap();
        let err = PersistedIndex::open(&dir).unwrap_err();
        assert!(
            err.contains("index.manifest") && err.contains("version 1"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_open_round_trip_is_bit_identical() {
        let store = tiny_store();
        let dir = tmpdir("roundtrip");
        let cfg = IndexBuildConfig {
            stripe_cols: 2,
            ..IndexBuildConfig::default()
        };
        let report = build_index(&store, &cfg, &dir, &Recorder::disabled()).unwrap();
        let idx = PersistedIndex::open(&dir).unwrap();
        assert_eq!(idx.manifest, report.manifest);
        assert_eq!(store_digest(&idx.refs), store_digest(&store));
        // Every stripe reloads and matches a fresh in-memory build.
        let mut total_nnz = 0usize;
        for s in 0..idx.manifest.n_stripes {
            let stripe = idx.load_stripe(s).unwrap();
            assert_eq!(stripe.nrows(), idx.manifest.inner_dim());
            let (lo, hi) = idx.manifest.stripe_range(s);
            assert_eq!(stripe.ncols(), hi - lo);
            total_nnz += stripe.nnz();
        }
        assert_eq!(total_nnz as u64, report.nnz);
        // A second build writes byte-identical files.
        let dir2 = tmpdir("roundtrip2");
        build_index(&store, &cfg, &dir2, &Recorder::disabled()).unwrap();
        for s in 0..idx.manifest.n_stripes {
            assert_eq!(
                std::fs::read(shard_path(&dir, s)).unwrap(),
                std::fs::read(shard_path(&dir2, s)).unwrap()
            );
        }
        assert_eq!(
            std::fs::read(manifest_path(&dir)).unwrap(),
            std::fs::read(manifest_path(&dir2)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn stale_parameters_refuse_to_serve() {
        let store = tiny_store();
        let dir = tmpdir("stale");
        build_index(
            &store,
            &IndexBuildConfig::default(),
            &dir,
            &Recorder::disabled(),
        )
        .unwrap();
        let idx = PersistedIndex::open(&dir).unwrap();
        idx.check_params(4, ReducedAlphabet::Full20, 0).unwrap();
        let err = idx.check_params(5, ReducedAlphabet::Full20, 0).unwrap_err();
        assert!(err.contains("stale index"), "{err}");
        assert!(err.contains("k=5"), "{err}");
        let err = idx
            .check_params(4, ReducedAlphabet::Murphy10, 0)
            .unwrap_err();
        assert!(err.contains("murphy10"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_or_corrupt_shard_is_rejected() {
        let store = tiny_store();
        let dir = tmpdir("corrupt");
        build_index(
            &store,
            &IndexBuildConfig::default(),
            &dir,
            &Recorder::disabled(),
        )
        .unwrap();
        let idx = PersistedIndex::open(&dir).unwrap();
        let p = shard_path(&dir, 0);
        let bytes = std::fs::read(&p).unwrap();
        // Bit flip → CRC rejection; torn write → the same.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        std::fs::write(&p, flipped).unwrap();
        assert!(idx.load_stripe(0).unwrap_err().contains("crc"));
        std::fs::write(&p, &bytes[..bytes.len() - 1]).unwrap();
        let err = idx.load_stripe(0).unwrap_err();
        assert!(
            err.contains("index shard") && err.contains("shard_b0000.idx"),
            "{err}"
        );
        // Foreign fingerprint or another stripe, correctly framed →
        // binding rejection.
        let mut foreign = IndexShard::from_bytes(&bytes).unwrap();
        foreign.fingerprint ^= 1;
        std::fs::write(&p, foreign.to_bytes()).unwrap();
        assert!(idx
            .load_stripe(0)
            .unwrap_err()
            .contains("different index build"));
        foreign.fingerprint ^= 1;
        foreign.stripe = 1;
        std::fs::write(&p, foreign.to_bytes()).unwrap();
        assert!(idx.load_stripe(0).unwrap_err().contains("is not stripe 0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_honors_memory_budget_with_typed_error() {
        let store = tiny_store();
        let dir = tmpdir("budget");
        let cfg = IndexBuildConfig {
            mem_budget: Some(64),
            ..IndexBuildConfig::default()
        };
        let err = build_index(&store, &cfg, &dir, &Recorder::disabled()).unwrap_err();
        assert!(err.contains("memory budget exceeded in phase"), "{err}");
        // A torn budgeted build leaves no manifest, so it can never open.
        assert!(PersistedIndex::open(&dir).is_err());
        // A generous budget succeeds and reports its high-water mark.
        let cfg = IndexBuildConfig {
            mem_budget: Some(1 << 20),
            ..IndexBuildConfig::default()
        };
        let report = build_index(&store, &cfg, &dir, &Recorder::disabled()).unwrap();
        // The builder's bound is the peak: 5 × 17 windows at 32 bytes. (The
        // old recipe reported 1104 here, two copies of its 44 per-sequence
        // deduplicated triples being all it charged; these sequences are
        // tandem repeats, so they have twice as many windows as nonzeros.)
        assert_eq!(report.mem_high_water, 85 * 32);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
