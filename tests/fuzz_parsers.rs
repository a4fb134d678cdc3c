//! Structure-aware fuzzing of every strict parser in the workspace
//! (ROADMAP #4, the rusteomics dedicated-fuzz-target pattern).
//!
//! The robustness contract for each format — FASTA, the `FaultPlan` CLI
//! spec, the CRC-framed checkpoint / spill text and the binary index
//! shard and manifest frames — is the same: arbitrary bytes must yield
//! `Err`, never a panic, and a mutated (truncated or byte-flipped) valid
//! document must either fail parsing or decode to the exact original
//! value. The CRC trailer makes the second half a hard guarantee rather
//! than a hope: any accepted mutant must re-render byte-identically.
//!
//! Two input regimes per parser:
//! * **unstructured** — arbitrary bytes/text, asserting totality;
//! * **structured** — a valid document generated from an arbitrary value,
//!   round-tripped, then mutated one byte (or cut) at a time.

use proptest::prelude::*;

use pastis::baselines::BaselineCheckpoint;
use pastis::comm::FaultPlan;
use pastis::core::checkpoint::{Checkpoint, IndexShard, SpillShard};
use pastis::core::frame::{FrameError, FrameWriter, Kind};
use pastis::core::pipeline::BlockTiming;
use pastis::core::{
    IndexManifest, SearchStats, SimilarityEdge, INDEX_MANIFEST_SCHEMA_VERSION,
    INDEX_SHARD_SCHEMA_VERSION,
};
use pastis::seqio::fasta::{parse_fasta, FastaStream, SeqStore};
use pastis::seqio::ReducedAlphabet;

// --- Builders from primitive draws (the vendored proptest generates
// --- primitives; structure is assembled here). ---

type EdgeRaw = (u32, u32, i32, u32, u32, u32);

fn edges_from(raw: &[EdgeRaw]) -> Vec<SimilarityEdge> {
    raw.iter()
        .map(|&(i, j, score, ani, cov, common_kmers)| SimilarityEdge {
            i,
            j,
            score,
            ani: ani as f32 / 1000.0,
            coverage: cov as f32 / 1000.0,
            common_kmers,
        })
        .collect()
}

fn name_from(raw: &[u8]) -> String {
    raw.iter().map(|&b| (b'a' + b % 26) as char).collect()
}

/// Truncate a (pure-ASCII) document at `cut % len` bytes.
fn truncated(doc: &str, cut: usize) -> &str {
    &doc[..cut % doc.len()]
}

/// Overwrite one byte of a (pure-ASCII) document with a printable char.
fn flipped(doc: &str, idx: usize, ch: u8) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let idx = idx % bytes.len();
    bytes[idx] = ch;
    String::from_utf8(bytes).expect("printable-ASCII flip keeps UTF-8")
}

/// The mutation contract for a CRC-framed format: a mutant either fails to
/// parse, or re-renders byte-identically to the original document.
macro_rules! assert_mutation_safe {
    ($parse:path, $doc:expr, $cut:expr, $idx:expr, $ch:expr) => {{
        let doc: &str = $doc;
        if let Ok(p) = $parse(truncated(doc, $cut)) {
            prop_assert_eq!(p.to_text(), doc);
        }
        if let Ok(p) = $parse(&flipped(doc, $idx, $ch)) {
            prop_assert_eq!(p.to_text(), doc);
        }
    }};
}

/// The same contract for a binary frame: a cut at `cut % len` and a
/// byte XORed with a nonzero `flip` either fail or decode to a value that
/// re-encodes to the original frame.
macro_rules! assert_frame_mutation_safe {
    ($parse:path, $doc:expr, $cut:expr, $idx:expr, $flip:expr) => {{
        let doc: &[u8] = $doc;
        if let Ok(p) = $parse(&doc[..$cut % doc.len()]) {
            prop_assert_eq!(p.to_bytes(), doc);
        }
        let mut flipped = doc.to_vec();
        flipped[$idx % doc.len()] ^= $flip;
        if let Ok(p) = $parse(&flipped) {
            prop_assert_eq!(p.to_bytes(), doc);
        }
    }};
}

/// A valid index shard frame.
fn valid_shard() -> Vec<u8> {
    IndexShard {
        fingerprint: 1,
        rank: 0,
        is_a: false,
        stripe: 0,
        nrows: 8,
        ncols: 1,
        rows: vec![5],
        rowptr: vec![0, 1],
        cols: vec![0],
        vals: vec![3],
    }
    .to_bytes()
}

/// A valid index manifest frame.
fn valid_manifest() -> Vec<u8> {
    IndexManifest {
        fingerprint: 1,
        k: 4,
        alphabet: ReducedAlphabet::Full20,
        substitute_kmers: 0,
        n_refs: 1,
        refs_digest: 2,
        stripe_cols: 1,
        n_stripes: 1,
    }
    .to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- Unstructured: totality over arbitrary input. ---

    #[test]
    fn fasta_parsers_never_panic_on_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = parse_fasta(&bytes[..]);
        // The streaming reader must agree and also never panic, including
        // with a tiny per-record bound engaged.
        let _ = FastaStream::new(&bytes[..]).collect::<Result<Vec<_>, _>>();
        let _ = FastaStream::new(&bytes[..]).with_record_bound(16).collect::<Result<Vec<_>, _>>();
        let _ = SeqStore::from_fasta_stream(FastaStream::new(&bytes[..]));
    }

    #[test]
    fn header_parsers_never_panic_on_arbitrary_text(bytes in proptest::collection::vec(9u8..127, 0..300)) {
        let s = String::from_utf8(bytes).expect("ASCII bytes");
        let _ = FaultPlan::parse(&s);
        let _ = Checkpoint::parse(&s);
        let _ = SpillShard::parse(&s);
        let _ = IndexShard::from_bytes(s.as_bytes());
        let _ = IndexManifest::from_bytes(s.as_bytes());
        let _ = BaselineCheckpoint::parse(&s);
    }

    #[test]
    fn index_frames_never_panic_on_arbitrary_sealed_bodies(
        kind in 0u8..2, body in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        // Arbitrary bodies behind a valid magic, version and CRC reach
        // the decoders themselves, past the frame checks.
        let (magic, version) = match kind {
            0 => (valid_shard(), INDEX_SHARD_SCHEMA_VERSION),
            _ => (valid_manifest(), INDEX_MANIFEST_SCHEMA_VERSION),
        };
        let mut w = FrameWriter::new(&Kind(magic[..8].try_into().unwrap(), version, ""), body.len());
        w.bytes(&body);
        let frame = w.finish();
        let _ = IndexShard::from_bytes(&frame);
        let _ = IndexManifest::from_bytes(&frame);
    }

    #[test]
    fn header_parsers_never_panic_on_structured_noise(
        prefix_idx in 0usize..8, key_raw in proptest::collection::vec(0u8..26, 0..14),
        val_raw in proptest::collection::vec(0u8..16, 0..24),
    ) {
        // Noise biased toward the grammars: magic lines, key=value
        // fields, hex digits, and trailers, in arbitrary combination.
        const PREFIXES: [&str; 8] = [
            "", "PASTIS-CKPT 1\n", "PASTIS-SPILL 1\n", "PASTIS-IDX 1\n",
            "PASTIS-IDXMAN 1\n", "PASTIS-PFIDX 1\n", "end ", "chaos",
        ];
        let key = name_from(&key_raw);
        let val: String = val_raw.iter().map(|&b| char::from_digit(b as u32, 16).unwrap()).collect();
        let s = format!("{}{key}={val}\nend {val}", PREFIXES[prefix_idx]);
        let _ = FaultPlan::parse(&s);
        let _ = Checkpoint::parse(&s);
        let _ = SpillShard::parse(&s);
        let _ = IndexShard::from_bytes(s.as_bytes());
        let _ = IndexManifest::from_bytes(s.as_bytes());
        let _ = BaselineCheckpoint::parse(&s);
    }

    // --- Structured: round-trip + one-byte mutations. ---

    #[test]
    fn checkpoint_mutations_err_or_decode_identically(
        fingerprint in 0u64..=u64::MAX, rank in 0usize..8, nranks in 1usize..8,
        blocks_raw in proptest::collection::vec(
            (0usize..8, 0usize..8, 0.0f64..100.0, 0.0f64..100.0, 0u64..=u64::MAX, 0u64..=u64::MAX),
            0..4,
        ),
        edges_raw in proptest::collection::vec((0u32..500, 500u32..1000, -1000i32..1000, 0u32..1000, 0u32..1000, 0u32..=u32::MAX), 0..6),
        counters in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        secs in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0),
        cut in 0usize..1_000_000, idx in 0usize..1_000_000, ch in 0x20u8..0x7f,
    ) {
        let per_block: Vec<BlockTiming> = blocks_raw
            .iter()
            .map(|&(r, c, sparse_seconds, align_seconds, candidates, aligned_pairs)| BlockTiming {
                r, c, sparse_seconds, align_seconds, candidates, aligned_pairs,
            })
            .collect();
        let stats = SearchStats {
            candidates: counters.0,
            aligned_pairs: counters.1,
            cells: counters.2,
            similar_pairs: counters.3,
            spgemm_products: counters.4,
            total_seconds: secs.0,
            align_kernel_seconds: secs.1,
            align_cpu_seconds: secs.2,
        };
        let ck = Checkpoint {
            fingerprint,
            rank,
            nranks,
            n_vertices: 1000,
            blocks_done: per_block.len(),
            stats,
            times: Default::default(),
            per_block,
            edges: edges_from(&edges_raw),
        };
        let doc = ck.to_text();
        prop_assert_eq!(Checkpoint::parse(&doc).expect("valid doc").to_text(), doc.clone());
        assert_mutation_safe!(Checkpoint::parse, &doc, cut, idx, ch);
    }

    #[test]
    fn spill_shard_mutations_err_or_decode_identically(
        fingerprint in 0u64..=u64::MAX, rank in 0usize..8, block in 0usize..64,
        edges_raw in proptest::collection::vec((0u32..500, 500u32..1000, -1000i32..1000, 0u32..1000, 0u32..1000, 0u32..=u32::MAX), 0..6),
        cut in 0usize..1_000_000, idx in 0usize..1_000_000, ch in 0x20u8..0x7f,
    ) {
        let sh = SpillShard { fingerprint, rank, block, edges: edges_from(&edges_raw) };
        let doc = sh.to_text();
        prop_assert_eq!(SpillShard::parse(&doc).expect("valid doc").to_text(), doc.clone());
        assert_mutation_safe!(SpillShard::parse, &doc, cut, idx, ch);
    }

    #[test]
    fn index_shard_mutations_err_or_decode_identically(
        fingerprint in 0u64..=u64::MAX, rank in 0usize..6, side in 0u8..2, stripe in 0usize..6,
        nnr in 0usize..4, ncols in 1u32..8, first_row in 0u32..(1 << 30),
        row_gaps in proptest::collection::vec(1u32..300, 4), space_pad in 1usize..3,
        row_masks in proptest::collection::vec(0u64..=u64::MAX, 4),
        vals_raw in proptest::collection::vec(0u32..=u32::MAX, 1..32),
        cut in 0usize..1_000_000, idx in 0usize..1_000_000, flip in 1u8..=255,
    ) {
        // Assemble a stripe that satisfies the invariants
        // IndexShard::from_bytes enforces: strictly increasing row ids
        // inside the row space, every listed row nonempty, sorted unique
        // in-bounds columns per row.
        let mut rows = Vec::new();
        let mut rowptr = vec![0usize];
        let mut cols: Vec<u32> = Vec::new();
        let mut id = first_row;
        for (gap, mask) in row_gaps.iter().zip(&row_masks).take(nnr) {
            let mask = (mask & ((1u64 << ncols) - 1)).max(1);
            rows.push(id);
            id += gap;
            cols.extend((0..ncols).filter(|c| mask & (1u64 << c) != 0));
            rowptr.push(cols.len());
        }
        let vals: Vec<u32> = (0..cols.len()).map(|k| vals_raw[k % vals_raw.len()]).collect();
        let sh = IndexShard {
            fingerprint,
            rank,
            is_a: side == 0,
            stripe,
            nrows: rows.last().map_or(0, |&r| r as usize) + space_pad,
            ncols: ncols as usize,
            rows,
            rowptr,
            cols,
            vals,
        };
        let doc = sh.to_bytes();
        prop_assert_eq!(IndexShard::from_bytes(&doc).expect("valid frame").to_bytes(), doc.clone());
        assert_frame_mutation_safe!(IndexShard::from_bytes, &doc, cut, idx, flip);
    }

    #[test]
    fn index_shard_forged_counts_fail_before_allocating(
        big in (0u64..=u64::MAX, 0u64..=u64::MAX), small in (0u64..4, 0u64..4), pick in 0u8..4,
    ) {
        // The valid shard's nonempty-row and nonzero counts replaced,
        // each small or anywhere up to u64::MAX, the CRC re-sealed. Only
        // the true counts decode, into arrays no larger than the file;
        // every other pair is refused on the bytes left.
        let nnr = if pick & 1 == 0 { small.0 } else { big.0 };
        let nnz = if pick & 2 == 0 { small.1 } else { big.1 };
        let magic: [u8; 8] = valid_shard()[..8].try_into().unwrap();
        let mut w = FrameWriter::new(&Kind(magic, INDEX_SHARD_SCHEMA_VERSION, ""), 32);
        w.u64(1);
        for v in [0, 0, 0, 8, 1, nnr, nnz, 5, 1] {
            w.varint(v);
        }
        w.u32s(&[0, 3]);
        let frame = w.finish();
        match IndexShard::from_bytes(&frame) {
            Ok(sh) => {
                prop_assert_eq!((nnr, nnz), (1, 1));
                prop_assert_eq!(sh.to_bytes(), valid_shard());
                let held = 4 * sh.rows.capacity() + 8 * sh.rowptr.capacity()
                    + 4 * (sh.cols.capacity() + sh.vals.capacity());
                prop_assert!(held <= frame.len(), "{} bytes held for a {}-byte frame", held, frame.len());
            }
            Err(e) => prop_assert!(
                matches!(e, FrameError::Truncated(_) | FrameError::Invalid(_)),
                "{nnr} {nnz}: {e}"
            ),
        }
    }

    #[test]
    fn index_manifest_mutations_err_or_decode_identically(
        fingerprint in 0u64..=u64::MAX, refs_digest in 0u64..=u64::MAX,
        k in 1usize..=12, alphabet_idx in 0u8..3, substitute_kmers in 0usize..3,
        n_refs in 1usize..2000, stripe_cols in 1usize..300,
        cut in 0usize..1_000_000, idx in 0usize..1_000_000, flip in 1u8..=255,
    ) {
        // Stripe arithmetic derived so the frame satisfies from_bytes'
        // invariants.
        let alphabet = [
            ReducedAlphabet::Full20,
            ReducedAlphabet::Murphy10,
            ReducedAlphabet::Dayhoff6,
        ][alphabet_idx as usize];
        let m = IndexManifest {
            fingerprint,
            k,
            alphabet,
            substitute_kmers,
            n_refs,
            refs_digest,
            stripe_cols,
            n_stripes: n_refs.div_ceil(stripe_cols),
        };
        let doc = m.to_bytes();
        prop_assert_eq!(IndexManifest::from_bytes(&doc).expect("valid frame").to_bytes(), doc.clone());
        assert_frame_mutation_safe!(IndexManifest::from_bytes, &doc, cut, idx, flip);
    }

    #[test]
    fn baseline_ckpt_mutations_err_or_decode_identically(
        fingerprint in 0u64..=u64::MAX, units in 1usize..10, done_raw in 0usize..10,
        counters_raw in proptest::collection::vec((proptest::collection::vec(0u8..26, 1..12), 0u64..=u64::MAX), 0..4),
        edges_raw in proptest::collection::vec((0u32..500, 500u32..1000, -1000i32..1000, 0u32..1000, 0u32..1000, 0u32..=u32::MAX), 0..6),
        cut in 0usize..1_000_000, idx in 0usize..1_000_000, ch in 0x20u8..0x7f,
    ) {
        let ck = BaselineCheckpoint {
            fingerprint,
            units_done: done_raw % (units + 1),
            units,
            counters: counters_raw.iter().map(|(n, v)| (name_from(n), *v)).collect(),
            edges: edges_from(&edges_raw),
        };
        let doc = ck.to_text();
        prop_assert_eq!(BaselineCheckpoint::parse(&doc).expect("valid doc").to_text(), doc.clone());
        assert_mutation_safe!(BaselineCheckpoint::parse, &doc, cut, idx, ch);
    }

    #[test]
    fn fault_plan_valid_specs_parse_and_mutants_never_panic(
        seed in 0u64..=u64::MAX, p1 in 0.0f64..1.0, p2 in 0.0f64..1.0, us in 0u64..5000,
        idx in 0usize..1_000_000, ch in 0x20u8..0x7f,
    ) {
        let spec = format!(
            "seed={seed},drop={p1:.3},spill_corrupt={p2:.3},spill_disk_full={p1:.3},spill_stall={p2:.3}:{us}"
        );
        let plan = FaultPlan::parse(&spec).expect("valid spec");
        prop_assert_eq!(plan.seed, seed);
        // A one-char mutant must parse or fail cleanly, never panic.
        let _ = FaultPlan::parse(&flipped(&spec, idx, ch));
        let _ = FaultPlan::parse(truncated(&spec, idx));
    }

    #[test]
    fn fasta_valid_docs_roundtrip_and_mutants_never_panic(
        records_raw in proptest::collection::vec(
            (proptest::collection::vec(0u8..26, 1..10), 0u8..2, proptest::collection::vec(0u8..20, 1..40)),
            1..5,
        ),
        idx in 0usize..1_000_000, ch in 0u8..=255,
    ) {
        const RESIDUES: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
        let records: Vec<(String, bool, String)> = records_raw
            .iter()
            .map(|(id, desc, seq)| {
                (
                    name_from(id),
                    *desc == 1,
                    seq.iter().map(|&b| RESIDUES[b as usize] as char).collect(),
                )
            })
            .collect();
        let mut doc = String::new();
        for (id, with_desc, seq) in &records {
            if *with_desc {
                doc.push_str(&format!(">{id} some description\n{seq}\n"));
            } else {
                doc.push_str(&format!(">{id}\n{seq}\n"));
            }
        }
        let parsed = parse_fasta(doc.as_bytes()).expect("valid FASTA");
        prop_assert_eq!(parsed.len(), records.len());
        for (rec, (id, _, seq)) in parsed.iter().zip(&records) {
            prop_assert_eq!(&rec.id, id);
            prop_assert_eq!(&rec.seq, seq);
        }
        // Streaming parser sees the same records.
        let streamed: Vec<_> = FastaStream::new(doc.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .expect("valid FASTA streams");
        prop_assert_eq!(streamed, parsed);
        // One flipped byte: any outcome but a panic.
        let mut bytes = doc.into_bytes();
        let i = idx % bytes.len();
        bytes[i] = ch;
        let _ = parse_fasta(&bytes[..]);
        let _ = FastaStream::new(&bytes[..]).collect::<Result<Vec<_>, _>>();
    }
}
