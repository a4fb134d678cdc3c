//! The persistent sharded k-mer index behind `pastis index build` and
//! `pastis serve`.
//!
//! The batch pipeline forms `C = A·Aᵀ` from scratch on every run. The
//! serving path splits that work: `build_index` constructs the reference
//! side **once** — the compacted k-mer matrix `B = Aᵀ` (k-mers × refs,
//! values are first k-mer positions, exactly the operand the batch SUMMA
//! multiplies) — and persists it as column stripes in the CRC-framed
//! `PASTIS-IDX 1` shard format from [`crate::checkpoint`], plus one
//! manifest binding the shards to the build parameters and the reference
//! set. [`PersistedIndex::open`] reloads the manifest and the reference
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
//!   [`IndexShard::parse`]) so even a CRC-colliding forgery yields `Err`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pastis_comm::fault::crc32;
use pastis_seqio::fasta::write_fasta;
use pastis_seqio::{FastaStream, ReducedAlphabet, SeqStore};
use pastis_sparse::CsrMatrix;
use pastis_trace::{names, span, Component, Recorder};

use crate::checkpoint::{
    checked_body, digest_bytes, digest_u64, parse_decimal_list, push_decimal_list, write_atomic,
    IndexShard,
};
use crate::kmer::KmerMatrix;
use crate::membudget::MemBudget;

/// Schema version of the index manifest format.
pub const INDEX_MANIFEST_SCHEMA_VERSION: u32 = 1;

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

/// Inverse of [`alphabet_name`].
pub fn alphabet_from_name(s: &str) -> Result<ReducedAlphabet, String> {
    match s {
        "full20" => Ok(ReducedAlphabet::Full20),
        "murphy10" => Ok(ReducedAlphabet::Murphy10),
        "dayhoff6" => Ok(ReducedAlphabet::Dayhoff6),
        other => Err(format!("unknown alphabet in index manifest: {other:?}")),
    }
}

/// The manifest tying an index directory together: schema-versioned,
/// CRC-framed, hand-rolled text like the whole checkpoint family.
///
/// ```text
/// PASTIS-IDXMAN 1
/// fingerprint <hex16>
/// params <k> <alphabet> <substitute-kmers>
/// refs <n_refs> <store-digest hex16>
/// stripes <n_stripes> <stripe_cols>
/// colmap <len> <id0> <id1> ...
/// end <crc32-hex>
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

    /// Serialize to the schema-v1 text format (CRC trailer included).
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(96 + self.col_map.len() * 8);
        let _ = writeln!(s, "PASTIS-IDXMAN {INDEX_MANIFEST_SCHEMA_VERSION}");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(
            s,
            "params {} {} {}",
            self.k,
            alphabet_name(self.alphabet),
            self.substitute_kmers
        );
        let _ = writeln!(s, "refs {} {:016x}", self.n_refs, self.refs_digest);
        let _ = writeln!(s, "stripes {} {}", self.n_stripes, self.stripe_cols);
        let _ = write!(s, "colmap {}", self.col_map.len());
        push_decimal_list(&mut s, &self.col_map);
        s.push('\n');
        let crc = crc32(s.as_bytes());
        let _ = writeln!(s, "end {crc:08x}");
        s
    }

    /// Parse, CRC-check, and structurally validate a schema-v1 manifest.
    ///
    /// # Errors
    ///
    /// Any truncation, bit flip, version skew, or structural violation
    /// (unsorted column map, inconsistent stripe arithmetic) is an `Err`.
    pub fn parse(text: &str) -> Result<IndexManifest, String> {
        let body = checked_body(text, "index manifest")?;

        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        let version: u32 = magic
            .strip_prefix("PASTIS-IDXMAN ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad index manifest magic: {magic:?}"))?;
        if version != INDEX_MANIFEST_SCHEMA_VERSION {
            return Err(format!(
                "unsupported index manifest schema version {version} \
                 (this build reads {INDEX_MANIFEST_SCHEMA_VERSION})"
            ));
        }

        fn keyed<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
            let line = line.ok_or_else(|| format!("index manifest truncated before {key:?}"))?;
            line.strip_prefix(key)
                .ok_or_else(|| format!("expected {key:?} line, got {line:?}"))
        }

        let fingerprint = u64::from_str_radix(keyed(lines.next(), "fingerprint ")?.trim(), 16)
            .map_err(|_| "bad fingerprint in index manifest".to_string())?;

        let mut it = keyed(lines.next(), "params ")?.split_whitespace();
        let k: usize = it
            .next()
            .ok_or("index manifest params line missing k")?
            .parse()
            .map_err(|_| "bad k in index manifest".to_string())?;
        let alphabet = alphabet_from_name(
            it.next()
                .ok_or("index manifest params line missing alphabet")?,
        )?;
        let substitute_kmers: usize = it
            .next()
            .ok_or("index manifest params line missing substitute-kmers")?
            .parse()
            .map_err(|_| "bad substitute-kmers in index manifest".to_string())?;

        let mut it = keyed(lines.next(), "refs ")?.split_whitespace();
        let n_refs: usize = it
            .next()
            .ok_or("index manifest refs line missing count")?
            .parse()
            .map_err(|_| "bad reference count in index manifest".to_string())?;
        let refs_digest = u64::from_str_radix(
            it.next().ok_or("index manifest refs line missing digest")?,
            16,
        )
        .map_err(|_| "bad reference digest in index manifest".to_string())?;

        let mut it = keyed(lines.next(), "stripes ")?.split_whitespace();
        let n_stripes: usize = it
            .next()
            .ok_or("index manifest stripes line missing count")?
            .parse()
            .map_err(|_| "bad stripe count in index manifest".to_string())?;
        let stripe_cols: usize = it
            .next()
            .ok_or("index manifest stripes line missing width")?
            .parse()
            .map_err(|_| "bad stripe width in index manifest".to_string())?;

        // `colmap <len>` then one ` <id>` field per entry, the shards'
        // number-list form.
        let colmap = keyed(lines.next(), "colmap ")?;
        let (n_cols, ids) = colmap.split_at(colmap.find(' ').unwrap_or(colmap.len()));
        let n_cols: usize = n_cols
            .parse()
            .map_err(|_| "bad colmap length in index manifest".to_string())?;
        let col_map: Vec<u32> = parse_decimal_list(ids, n_cols)
            .ok_or_else(|| "bad colmap entry in index manifest".to_string())?;
        if lines.next().is_some() {
            return Err("trailing lines in index manifest".to_string());
        }

        // Structural invariants: even a CRC-colliding forgery must come
        // out as Err, never poison downstream binary searches.
        if col_map.len() != n_cols {
            return Err(format!(
                "index manifest colmap says {n_cols} entries, got {}",
                col_map.len()
            ));
        }
        if col_map.windows(2).any(|w| w[0] >= w[1]) {
            return Err("index manifest colmap not strictly increasing".to_string());
        }
        if k == 0 || k > 12 {
            return Err(format!("index manifest k {k} out of range (1..=12)"));
        }
        if n_refs == 0 || stripe_cols == 0 {
            return Err("index manifest has empty reference set or zero stripe width".to_string());
        }
        if n_stripes != n_refs.div_ceil(stripe_cols) {
            return Err(format!(
                "index manifest stripe arithmetic inconsistent: \
                 {n_stripes} stripes of {stripe_cols} cols for {n_refs} refs"
            ));
        }
        Ok(IndexManifest {
            fingerprint,
            k,
            alphabet,
            substitute_kmers,
            n_refs,
            refs_digest,
            stripe_cols,
            n_stripes,
            col_map,
        })
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
    /// Total bytes of shard text written.
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
        let text = shard.to_text();
        shard_bytes += text.len() as u64;
        write_atomic(&shard_path(dir, s), &text)?;
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
    write_atomic(&manifest_path(dir), &manifest.to_text())?;
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
        let text = std::fs::read_to_string(&mpath)
            .map_err(|e| format!("reading index manifest {}: {e}", mpath.display()))?;
        let manifest = IndexManifest::parse(&text)
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
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading index shard {}: {e}", path.display()))?;
        let shard =
            IndexShard::parse(&text).map_err(|e| format!("index shard {}: {e}", path.display()))?;
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

    #[test]
    fn manifest_round_trips_bit_identically() {
        let m = IndexManifest {
            fingerprint: 0xdead_beef_0123_4567,
            k: 4,
            alphabet: ReducedAlphabet::Murphy10,
            substitute_kmers: 2,
            n_refs: 7,
            refs_digest: 0x0123_4567_89ab_cdef,
            stripe_cols: 3,
            n_stripes: 3,
            col_map: vec![1, 5, 9, 1000],
        };
        let text = m.to_text();
        let back = IndexManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn manifest_rejects_corruption_and_skew() {
        let m = IndexManifest {
            fingerprint: 1,
            k: 4,
            alphabet: ReducedAlphabet::Full20,
            substitute_kmers: 0,
            n_refs: 5,
            refs_digest: 2,
            stripe_cols: 2,
            n_stripes: 3,
            col_map: vec![3, 4],
        };
        let text = m.to_text();
        // Bit flip in the body.
        let flipped = text.replacen("refs 5", "refs 6", 1);
        assert!(IndexManifest::parse(&flipped).unwrap_err().contains("crc"));
        // Truncation.
        assert!(IndexManifest::parse(&text[..text.len() / 2]).is_err());
        // Version skew (CRC re-framed so the version check itself fires).
        let body = text.replacen("PASTIS-IDXMAN 1", "PASTIS-IDXMAN 9", 1);
        let body = &body[..body.rfind("end ").unwrap()];
        let reframed = format!("{body}end {:08x}\n", crc32(body.as_bytes()));
        assert!(IndexManifest::parse(&reframed)
            .unwrap_err()
            .contains("schema version"));
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
        let text = std::fs::read_to_string(&p).unwrap();
        // Bit flip → CRC rejection.
        std::fs::write(&p, text.replacen("stripe b 0", "stripe b 1", 1)).unwrap();
        assert!(idx.load_stripe(0).unwrap_err().contains("crc"));
        // Foreign fingerprint, correctly framed → binding rejection.
        let mut foreign = IndexShard::parse(&text).unwrap();
        foreign.fingerprint ^= 1;
        std::fs::write(&p, foreign.to_text()).unwrap();
        assert!(idx
            .load_stripe(0)
            .unwrap_err()
            .contains("different index build"));
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
