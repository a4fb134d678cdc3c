//! The persistent sharded k-mer index behind `pastis index build` and
//! `pastis serve`.
//!
//! The batch pipeline forms `C = A·Aᵀ` from scratch on every run. The
//! serving path splits that work: `build_index` constructs the reference
//! side **once** — the k-mer matrix `B = Aᵀ` (k-mers × refs, values are
//! first k-mer positions, exactly the operand the batch SUMMA multiplies)
//! — and persists it as column stripes, each the [`KmerMatrix`] of its own
//! references stored by its nonempty k-mer rows as an [`IndexShard`] in
//! the binary CRC-framed format of [`crate::frame`], plus one manifest
//! binding the shards to the build parameters and the reference set.
//! [`PersistedIndex::open`] reloads the manifest and the reference
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
//! * an index written in the text format of version 1, or in the binary
//!   format of version 2 (a row for every k-mer of the index in every
//!   stripe), is refused with an error naming the version: rebuild it
//!   with `pastis index build`.

use std::path::{Path, PathBuf};

use pastis_seqio::fasta::write_fasta;
use pastis_seqio::{FastaStream, ReducedAlphabet, SeqStore};
use pastis_sparse::{CsrMatrix, Index};
use pastis_trace::{names, span, Component, Recorder};

use crate::checkpoint::{digest_bytes, digest_u64, write_atomic, IndexShard};
use crate::frame::{FrameError, FrameReader, FrameWriter, Kind};
use crate::kmer::KmerMatrix;
use crate::membudget::MemBudget;

/// Schema version of the binary index-manifest frame (version 1 was text,
/// version 2 carried the index's column map).
pub const INDEX_MANIFEST_SCHEMA_VERSION: u32 = 3;

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
/// whose body binds the shards to the build parameters and the reference
/// set:
///
/// ```text
/// fingerprint u64 | k, alphabet code, substitute-kmers, n_refs varints
/// | refs digest u64 | stripe_cols, n_stripes varints
/// ```
///
/// There is no column map: each stripe lists its own nonempty rows by
/// raw k-mer id, and a query batch is relabelled into them stripe by
/// stripe.
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
}

impl IndexManifest {
    /// Column range `[lo, hi)` of stripe `s` in global reference ids.
    pub fn stripe_range(&self, s: usize) -> (usize, usize) {
        let lo = s * self.stripe_cols;
        (lo, (lo + self.stripe_cols).min(self.n_refs))
    }

    /// Serialize to the binary frame (CRC trailer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(&INDEX_MANIFEST, 64);
        w.u64(self.fingerprint);
        let code = ALPHABETS.iter().position(|&a| a == self.alphabet);
        let code = code.expect("every alphabet has a code");
        for v in [self.k, code, self.substitute_kmers, self.n_refs] {
            w.varint(v as u64);
        }
        w.u64(self.refs_digest);
        for v in [self.stripe_cols, self.n_stripes] {
            w.varint(v as u64);
        }
        w.finish()
    }

    /// Check the frame, decode it, and validate its structure: a `k` out
    /// of range or inconsistent stripe arithmetic is an `Err` too, so even
    /// a CRC-colliding forgery cannot poison the stripe loads downstream.
    pub fn from_bytes(bytes: &[u8]) -> Result<IndexManifest, FrameError> {
        let mut r = FrameReader::open(bytes, &INDEX_MANIFEST)?;
        let invalid = |why: String| Err(FrameError::Invalid(why));
        let m = IndexManifest {
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
        };
        r.finish()?;
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
/// Each stripe is built on its own, exactly as the batch pipeline builds
/// its SUMMA operand (first k-mer positions, smallest kept, the same
/// builder) but over the stripe's references only, and stored by its
/// nonempty k-mer rows; a serve-side `A_query × B_stripe` SpGEMM over the
/// relabelled query reproduces the batch overlap values bit-for-bit.
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

    // 1. One stripe at a time: the builder over the stripe's references
    // (its scratch charged before it is allocated), its columns shifted to
    // the stripe, then the shard written. Only one stripe is ever live, so
    // `--mem-budget` bounds the build's peak, not the whole index.
    let reserve = |phase, bytes| budget.reserve(phase, bytes).map_err(|e| e.to_string());
    let (k, substitutes) = (cfg.k, cfg.substitute_kmers);
    let n_stripes = n.div_ceil(cfg.stripe_cols);
    let (mut shard_bytes, mut nnz) = (0u64, 0usize);
    for s in 0..n_stripes {
        let (lo, hi) = (s * cfg.stripe_cols, ((s + 1) * cfg.stripe_cols).min(n));
        let scratch_bytes = KmerMatrix::peak_bytes(store, lo..hi, k, substitutes);
        reserve("index k-mer sort", scratch_bytes)?;
        let KmerMatrix { ids, at } = KmerMatrix::build(store, lo..hi, k, cfg.alphabet, substitutes);
        budget.release(scratch_bytes);
        let stripe_bytes = (at.payload_bytes() + ids.len() * 4) as u64;
        reserve("index stripe buffer", stripe_bytes)?;
        let (_, _, mut rowptr, mut cols, vals) = at.into_parts();
        // A stripe with no k-mer has the builder's one empty row, which
        // is not listed.
        rowptr.truncate(ids.len() + 1);
        cols.iter_mut().for_each(|c| *c -= lo as Index);
        nnz += cols.len();
        let shard = IndexShard {
            fingerprint,
            rank: 0,
            is_a: false,
            stripe: s,
            nrows: cfg.alphabet.kmer_space(k),
            ncols: hi - lo,
            rows: ids,
            rowptr,
            cols,
            vals,
        };
        let bytes = shard.to_bytes();
        shard_bytes += bytes.len() as u64;
        write_atomic(&shard_path(dir, s), &bytes)?;
        budget.release(stripe_bytes);
    }

    // 2. The reference sequences (alignment needs the residues at serve
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

    /// Load stripe `s`: read its shard, CRC-check, re-validate it, and
    /// verify it is *this* index's stripe `s` (fingerprint, side, stripe
    /// number, row space and width bound by the manifest). It comes back
    /// as the [`KmerMatrix`] of its references over the stripe's columns,
    /// so its memory follows its nonzeros, not the k-mer space.
    ///
    /// # Errors
    ///
    /// Corrupt, foreign, or mis-shaped shards are typed errors.
    pub fn load_stripe(&self, s: usize) -> Result<KmerMatrix, String> {
        let path = shard_path(&self.dir, s);
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("reading index shard {}: {e}", path.display()))?;
        let shard = IndexShard::from_bytes(&bytes)
            .map_err(|e| format!("index shard {}: {e}", path.display()))?;
        let m = &self.manifest;
        let (lo, hi) = m.stripe_range(s);
        if shard.fingerprint != m.fingerprint {
            return Err(format!(
                "index shard {} belongs to a different index build \
                 (fingerprint {:016x}, manifest {:016x}); rebuild the index",
                path.display(),
                shard.fingerprint,
                m.fingerprint
            ));
        }
        if shard.is_a
            || shard.stripe != s
            || shard.nrows != m.alphabet.kmer_space(m.k)
            || shard.ncols != hi - lo
        {
            return Err(format!(
                "index shard {} is not stripe {s} of this index \
                 (side/stripe/dims disagree with the manifest)",
                path.display()
            ));
        }
        // No k-mer at all: the builder's one empty row.
        let (ids, mut rowptr) = (shard.rows, shard.rowptr);
        rowptr.resize(rowptr.len().max(2), 0);
        let at = CsrMatrix::from_parts(ids.len().max(1), hi - lo, rowptr, shard.cols, shard.vals);
        Ok(KmerMatrix { ids, at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SearchParams;
    use crate::pipeline::run_search_serial;
    use crate::serve::{serve_queries, ServeConfig};
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
        }
    }

    #[test]
    fn manifest_round_trips_bit_identically() {
        let m = sample_manifest();
        let bytes = m.to_bytes();
        let back = IndexManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_bytes(), bytes);
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
        // A self-consistent frame with broken stripe arithmetic, a k out
        // of range, or bytes left over.
        let skewed = IndexManifest {
            n_stripes: 2,
            ..sample_manifest()
        };
        assert!(IndexManifest::from_bytes(&skewed.to_bytes())
            .unwrap_err()
            .to_string()
            .contains("stripe arithmetic"));
        let k13 = IndexManifest {
            k: 13,
            ..sample_manifest()
        };
        assert!(IndexManifest::from_bytes(&k13.to_bytes())
            .unwrap_err()
            .to_string()
            .contains("k 13 out of range"));
        let mut longer = FrameWriter::new(&INDEX_MANIFEST, 0);
        longer.bytes(&bytes[12..bytes.len() - 4]);
        longer.varint(1);
        assert!(IndexManifest::from_bytes(&longer.finish())
            .unwrap_err()
            .to_string()
            .contains("trailing bytes"));
    }

    #[test]
    fn text_and_version_2_manifests_are_refused_naming_their_version() {
        let v1 = "PASTIS-IDXMAN 1\nfingerprint 00000000000000ab\nparams 4 full20 0\n\
                  refs 1 00000000000000cd\nstripes 1 512\ncolmap 1 7\nend 0badf00d\n";
        let err = IndexManifest::from_bytes(v1.as_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.contains("text format version 1"), "{err}");
        assert!(err.contains("re-run `pastis index build`"), "{err}");
        // A version-2 manifest as that format's `pastis index build` wrote
        // it (one reference "MKVLAW", k = 4, its three k-mers' column map).
        const V2: [u8; 47] = [
            0x89, 0x50, 0x53, 0x54, 0x49, 0x4d, 0x46, 0x0a, 0x02, 0x00, 0x00, 0x00, 0x71, 0x91,
            0x8b, 0x2c, 0xfd, 0xeb, 0xbf, 0x39, 0x04, 0x00, 0x00, 0x01, 0x09, 0xf5, 0x0a, 0x29,
            0xb2, 0x7f, 0x68, 0x40, 0x01, 0x01, 0x03, 0xb8, 0xec, 0x05, 0xfe, 0x26, 0xbb, 0xaf,
            0x03, 0xc6, 0xab, 0xe3, 0xe5,
        ];
        let err = IndexManifest::from_bytes(&V2).unwrap_err().to_string();
        assert!(err.contains("schema version 2"), "{err}");
        assert!(err.contains("re-run `pastis index build`"), "{err}");
        // Opening a version-1 or version-2 directory names the manifest
        // file and the version.
        let dir = tmpdir("old");
        for (old, version) in [(v1.as_bytes(), "version 1"), (&V2[..], "version 2")] {
            std::fs::write(manifest_path(&dir), old).unwrap();
            let err = PersistedIndex::open(&dir).unwrap_err();
            assert!(
                err.contains("index.manifest") && err.contains(version),
                "{err}"
            );
            assert!(err.contains("pastis index build"), "{err}");
        }
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
        // Every stripe reloads as the builder's matrix of its references,
        // columns local to the stripe.
        let mut total_nnz = 0usize;
        for s in 0..idx.manifest.n_stripes {
            let stripe = idx.load_stripe(s).unwrap();
            let (lo, hi) = idx.manifest.stripe_range(s);
            let want = KmerMatrix::build(&store, lo..hi, 4, ReducedAlphabet::Full20, 0);
            assert_eq!(stripe.ids, want.ids);
            assert_eq!(stripe.at.nrows(), want.ids.len().max(1));
            assert_eq!(stripe.at.ncols(), hi - lo);
            let shifted: Vec<(Index, Index, u32)> = want
                .at
                .iter()
                .map(|(r, c, &v)| (r, c - lo as Index, v))
                .collect();
            let got: Vec<(Index, Index, u32)> =
                stripe.at.iter().map(|(r, c, &v)| (r, c, v)).collect();
            assert_eq!(got, shifted);
            total_nnz += stripe.at.nnz();
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
    fn stripes_built_alone_equal_the_whole_matrix_cut_into_stripes() {
        // The old route: `B` over every reference, cut by columns, each
        // stripe's nonempty rows named through the whole matrix's ids.
        let store = tiny_store();
        for (substitutes, stripe_cols) in [(0, 1), (0, 2), (2, 2), (2, 3), (1, 5)] {
            let n = store.len();
            let whole = KmerMatrix::build(&store, 0..n, 4, ReducedAlphabet::Full20, substitutes);
            let bounds: Vec<usize> = (0..=n.div_ceil(stripe_cols))
                .map(|s| (s * stripe_cols).min(n))
                .collect();
            let dir = tmpdir(&format!("routes{substitutes}{stripe_cols}"));
            let cfg = IndexBuildConfig {
                substitute_kmers: substitutes,
                stripe_cols,
                ..IndexBuildConfig::default()
            };
            build_index(&store, &cfg, &dir, &Recorder::disabled()).unwrap();
            let idx = PersistedIndex::open(&dir).unwrap();
            for (s, cut) in whole.at.col_stripes(&bounds).enumerate() {
                let cut = IndexShard::from_csr(0, 0, false, s, cut);
                let ids: Vec<u32> = cut.rows.iter().map(|&r| whole.ids[r as usize]).collect();
                let alone = idx.load_stripe(s).unwrap();
                assert_eq!(alone.ids, ids, "stripe {s}");
                let (_, _, rowptr, cols, vals) = alone.at.into_parts();
                assert_eq!((&rowptr, &cols, &vals), (&cut.rowptr, &cut.cols, &cut.vals));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Heap bytes a loaded stripe holds, by capacity.
    fn allocated_bytes(stripe: KmerMatrix) -> usize {
        let (_, _, rowptr, cols, vals) = stripe.at.into_parts();
        4 * stripe.ids.capacity() + 8 * rowptr.capacity() + 4 * (cols.capacity() + vals.capacity())
    }

    #[test]
    fn loaded_stripes_hold_memory_by_nonzeros_not_by_the_kmer_space() {
        // One reference per stripe, so every stripe holds a few dozen of
        // the 160 000 possible 4-mer rows.
        let store = tiny_store();
        let dir = tmpdir("memory");
        let cfg = IndexBuildConfig {
            stripe_cols: 1,
            ..IndexBuildConfig::default()
        };
        build_index(&store, &cfg, &dir, &Recorder::disabled()).unwrap();
        let idx = PersistedIndex::open(&dir).unwrap();
        assert_eq!(idx.manifest.n_stripes, store.len());
        for s in 0..idx.manifest.n_stripes {
            let stripe = idx.load_stripe(s).unwrap();
            let (nnz, nnr) = (stripe.at.nnz(), stripe.ids.len());
            assert!(nnr > 0 && nnz >= nnr, "stripe {s}");
            let held = allocated_bytes(stripe);
            assert!(
                held <= 16 * nnz + 16 * nnr + 64,
                "stripe {s}: {held} bytes for {nnz} nonzeros in {nnr} rows"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stripe_of_references_shorter_than_k_round_trips_and_serves() {
        // The last stripe's references are all shorter than k = 4: it has
        // no nonempty row at all.
        let mut store = tiny_store();
        store.push("short0".to_string(), encode("MKV").unwrap());
        store.push("short1".to_string(), encode("WP").unwrap());
        let dir = tmpdir("shorter");
        let cfg = IndexBuildConfig {
            stripe_cols: 5,
            ..IndexBuildConfig::default()
        };
        build_index(&store, &cfg, &dir, &Recorder::disabled()).unwrap();
        let idx = PersistedIndex::open(&dir).unwrap();
        assert_eq!(idx.manifest.n_stripes, 2);
        let empty = idx.load_stripe(1).unwrap();
        assert!(empty.ids.is_empty());
        assert_eq!(
            (empty.at.nrows(), empty.at.ncols(), empty.at.nnz()),
            (1, 2, 0)
        );
        let shard = IndexShard::from_bytes(&std::fs::read(shard_path(&dir, 1)).unwrap()).unwrap();
        assert_eq!(IndexShard::from_bytes(&shard.to_bytes()).unwrap(), shard);
        assert!(shard.rows.is_empty() && shard.rowptr == [0]);
        // Served back as its own queries: the batch search's rows.
        let params = SearchParams::test_defaults();
        let want = run_search_serial(&store, &params)
            .unwrap()
            .graph
            .to_tsv_lines();
        let out = serve_queries(&idx, &store, &ServeConfig::from_params(params)).unwrap();
        assert!(out.stats.self_mode);
        assert_eq!(out.lines, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_rows_do_not_depend_on_the_stripe_width() {
        let store = tiny_store();
        let mut queries = SeqStore::new();
        for (n, pick) in [3usize, 0, 4, 1, 0].into_iter().enumerate() {
            queries.push(format!("q{n}"), store.seq(pick).to_vec());
        }
        let params = SearchParams::test_defaults();
        let batch = run_search_serial(&store, &params)
            .unwrap()
            .graph
            .to_tsv_lines();
        let cfg = ServeConfig::from_params(params);
        let mut general = None;
        for stripe_cols in [1, 2, 64, store.len()] {
            let dir = tmpdir(&format!("width{stripe_cols}"));
            let build = IndexBuildConfig {
                stripe_cols,
                ..IndexBuildConfig::default()
            };
            build_index(&store, &build, &dir, &Recorder::disabled()).unwrap();
            let idx = PersistedIndex::open(&dir).unwrap();
            assert_eq!(serve_queries(&idx, &store, &cfg).unwrap().lines, batch);
            let rows = serve_queries(&idx, &queries, &cfg).unwrap().lines;
            assert!(!rows.is_empty());
            assert_eq!(
                general.get_or_insert_with(|| rows.clone()),
                &rows,
                "{stripe_cols}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
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
        // A row space other than the index's k-mer space, as a shard of a
        // k = 5 index would have.
        foreign.stripe = 0;
        foreign.nrows = ReducedAlphabet::Full20.kmer_space(5);
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
