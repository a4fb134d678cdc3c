//! Checkpoint/restart of the pre-blocked SUMMA loop.
//!
//! The paper's production run processed 405M sequences in batches precisely
//! so that a preempted or crashed job loses one batch, not the run. This
//! module gives the reproduction the same property at block granularity:
//! after every completed output block, each rank serializes its *block
//! cursor* (how many scheduled blocks are done) plus its partial state —
//! edges in insertion order, counters, component times, per-block series —
//! to a versioned checkpoint file. A resumed run replays from the last
//! block every rank completed and provably produces the bit-identical final
//! graph (edges are stored pre-`normalize`, and the final normalize sorts
//! them canonically, so the split point cannot influence the output).
//!
//! # Format (schema version 1)
//!
//! A checkpoint is a plain text file (no serialization dependency, so the
//! format is hand-rolled and auditable). All floats are written
//! as `to_bits()` hex so round-trips are bit-exact. Layout:
//!
//! ```text
//! PASTIS-CKPT 1
//! fingerprint <hex64>            # run identity: params + input digest
//! rank <r> <nranks>
//! nverts <n>
//! blocks_done <k>
//! stat <candidates> <aligned> <cells> <similar> <products>
//! statf <total_bits> <kernel_bits> <cpu_bits>
//! time <component-label> <bits>  # one line per Component::ALL entry
//! block <r> <c> <sparse_bits> <align_bits> <candidates> <aligned>  # ×k
//! edge <i> <j> <score> <ani_bits> <cov_bits> <common>              # ×edges
//! end <crc32-hex>                # CRC over every preceding byte
//! ```
//!
//! Files are written atomically (`.tmp` + rename) into
//! `<dir>/rank<r>/block<k>.ckpt`; recovery scans for the newest file that
//! parses, CRC-checks, and matches the run fingerprint, so a torn write
//! from a killed process simply falls back to the previous block.

use std::fs;
use std::path::{Path, PathBuf};

use pastis_comm::fault::crc32;
use pastis_comm::{Component, TimeBreakdown};
use pastis_seqio::SeqStore;
use pastis_sparse::CsrMatrix;

use crate::frame::{FrameError, FrameReader, FrameWriter, Kind};
use crate::params::SearchParams;
use crate::pipeline::BlockTiming;
use crate::simgraph::{SimilarityEdge, SimilarityGraph};
use crate::stats::SearchStats;

/// Version stamp of the on-disk checkpoint format.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Number fields
// ---------------------------------------------------------------------------
//
// The bulk of an edge shard is numbers, one `edge` line per edge. They are
// written and read here without `fmt` or `FromStr`, digit by digit. The
// reader is stricter than `str::parse`, never laxer: ASCII digits only
// (no sign on unsigned fields, no `+` anywhere), fields separated by
// exactly one ASCII space.

/// Append `v` in decimal.
fn push_decimal(s: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while at == buf.len() || v > 0 {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    s.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `v` as eight lower-case hex digits.
fn push_hex32(s: &mut String, v: u32) {
    for shift in (0..8).rev() {
        let nibble = (v >> (shift * 4)) & 0xF;
        s.push(char::from_digit(nibble, 16).expect("a nibble is a hex digit"));
    }
}

/// The body of a CRC-framed document: everything before its last
/// `end <crc32-hex>` trailer line, once the trailer matches the body.
/// `what` names the format in the error.
fn checked_body<'a>(text: &'a str, what: &str) -> Result<&'a str, String> {
    let body_end = text
        .rfind("end ")
        .ok_or_else(|| format!("{what} missing end trailer"))?;
    let (body, trailer) = (&text[..body_end], text[body_end + 4..].trim());
    let want_crc = u32::from_str_radix(trailer, 16)
        .map_err(|_| format!("bad {what} crc trailer: {trailer:?}"))?;
    let got_crc = crc32(body.as_bytes());
    if got_crc != want_crc {
        return Err(format!(
            "{what} crc mismatch: file says {want_crc:08x}, content is {got_crc:08x}"
        ));
    }
    Ok(body)
}

/// Append one `edge <i> <j> <score> <ani_bits> <cov_bits> <common>` line.
fn push_edge_line(s: &mut String, e: &SimilarityEdge) {
    s.push_str("edge ");
    push_decimal(s, e.i.into());
    s.push(' ');
    push_decimal(s, e.j.into());
    s.push(' ');
    if e.score < 0 {
        s.push('-');
    }
    push_decimal(s, e.score.unsigned_abs().into());
    s.push(' ');
    push_hex32(s, e.ani.to_bits());
    s.push(' ');
    push_hex32(s, e.coverage.to_bits());
    s.push(' ');
    push_decimal(s, e.common_kmers.into());
    s.push('\n');
}

/// Longest run of digits read as one number: nineteen cannot overflow a
/// u64, so digits are folded unchecked and counted once per field.
const MAX_DIGITS: usize = 19;

/// A field of one to [`MAX_DIGITS`] ASCII digits as a number; `None` for
/// anything else, or a value that does not fit `T`.
fn parse_decimal<T: TryFrom<u64>>(field: &str) -> Option<T> {
    if field.is_empty() || field.len() > MAX_DIGITS || !field.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let v = field
        .bytes()
        .fold(0u64, |v, b| v * 10 + u64::from(b - b'0'));
    T::try_from(v).ok()
}

/// The fields of an `edge` line (what follows `edge `).
fn parse_edge(body: &str) -> Option<SimilarityEdge> {
    let mut fields = body.split(' ');
    let i = parse_decimal(fields.next()?)?;
    let j = parse_decimal(fields.next()?)?;
    let score = fields.next()?;
    let score = match score.strip_prefix('-') {
        Some(magnitude) => 0i64.checked_sub(parse_decimal(magnitude)?)?,
        None => parse_decimal(score)?,
    };
    let bits = |field: &str| u32::from_str_radix(field, 16).ok().map(f32::from_bits);
    let edge = SimilarityEdge {
        i,
        j,
        score: i32::try_from(score).ok()?,
        ani: bits(fields.next()?)?,
        coverage: bits(fields.next()?)?,
        common_kmers: parse_decimal(fields.next()?)?,
    };
    fields.next().is_none().then_some(edge)
}

/// Mix one 64-bit value into a running digest (splitmix64 finalizer).
/// Building block of [`run_fingerprint`]; exported so other layers (the
/// baseline searches) can fingerprint their own runs the same way.
pub fn digest_u64(h: u64, v: u64) -> u64 {
    mix(h, v)
}

/// Mix a byte string (length included) into a running digest.
pub fn digest_bytes(h: u64, bytes: &[u8]) -> u64 {
    mix_bytes(h, bytes)
}

fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(buf));
    }
    mix(h, bytes.len() as u64)
}

/// Digest of everything that determines the search *output*: the
/// output-relevant parameters and the input sequences. Two runs with equal
/// fingerprints produce the same similarity graph, so a checkpoint is only
/// ever resumed into the run that wrote it.
///
/// Deliberately excluded: `align_threads`, the `simd` backend policy, the
/// `spgemm_threads` / `spgemm` kernel knobs, and any
/// fault/checkpoint/timeout knobs — they change wall time, never the
/// output (the vector kernel is bit-identical to scalar, and the SpGEMM
/// kernels share one combine-order contract), and a chaos run must be
/// resumable into a fault-free run (and vice versa).
pub fn run_fingerprint(params: &SearchParams, store: &SeqStore) -> u64 {
    let mut h = 0x5054_4953_2d52_5321u64; // "PTIS-RS!"
    h = mix(h, params.k as u64);
    h = mix_bytes(h, format!("{:?}", params.alphabet).as_bytes());
    h = mix(h, params.substitute_kmers as u64);
    h = mix(h, params.common_kmer_threshold as u64);
    h = mix(h, params.ani_threshold.to_bits());
    h = mix(h, params.coverage_threshold.to_bits());
    h = mix(h, params.gaps.open as u64);
    h = mix(h, params.gaps.extend as u64);
    h = mix_bytes(h, format!("{:?}", params.align_kind).as_bytes());
    h = mix(h, params.block_rows as u64);
    h = mix(h, params.block_cols as u64);
    h = mix_bytes(h, format!("{:?}", params.load_balance).as_bytes());
    h = mix(h, params.pre_blocking as u64);
    h = mix(h, store.len() as u64);
    for i in 0..store.len() {
        h = mix_bytes(h, store.seq(i));
    }
    h
}

/// One rank's saved state after `blocks_done` completed blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Run identity ([`run_fingerprint`]).
    pub fingerprint: u64,
    /// Writing rank.
    pub rank: usize,
    /// World size the run used (resume requires the same).
    pub nranks: usize,
    /// Vertex count of the partial graph.
    pub n_vertices: usize,
    /// Completed scheduled blocks (the block cursor).
    pub blocks_done: usize,
    /// Counters accumulated so far.
    pub stats: SearchStats,
    /// Component times accumulated so far.
    pub times: TimeBreakdown,
    /// Per-block series so far (`len == blocks_done`).
    pub per_block: Vec<BlockTiming>,
    /// Edges in insertion order, pre-`normalize`.
    pub edges: Vec<SimilarityEdge>,
}

impl Checkpoint {
    /// Serialize to the schema-v1 text format (CRC trailer included).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.edges.len() * 48);
        let _ = writeln!(s, "PASTIS-CKPT {CHECKPOINT_SCHEMA_VERSION}");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "rank {} {}", self.rank, self.nranks);
        let _ = writeln!(s, "nverts {}", self.n_vertices);
        let _ = writeln!(s, "blocks_done {}", self.blocks_done);
        let st = &self.stats;
        let _ = writeln!(
            s,
            "stat {} {} {} {} {}",
            st.candidates, st.aligned_pairs, st.cells, st.similar_pairs, st.spgemm_products
        );
        let _ = writeln!(
            s,
            "statf {:016x} {:016x} {:016x}",
            st.total_seconds.to_bits(),
            st.align_kernel_seconds.to_bits(),
            st.align_cpu_seconds.to_bits()
        );
        for c in Component::ALL {
            let _ = writeln!(s, "time {} {:016x}", c.label(), self.times.get(c).to_bits());
        }
        for b in &self.per_block {
            let _ = writeln!(
                s,
                "block {} {} {:016x} {:016x} {} {}",
                b.r,
                b.c,
                b.sparse_seconds.to_bits(),
                b.align_seconds.to_bits(),
                b.candidates,
                b.aligned_pairs
            );
        }
        for e in &self.edges {
            push_edge_line(&mut s, e);
        }
        let crc = crc32(s.as_bytes());
        let _ = writeln!(s, "end {crc:08x}");
        s
    }

    /// Parse and CRC-check a schema-v1 checkpoint.
    ///
    /// # Errors
    ///
    /// Any structural problem — bad magic, wrong schema version, CRC
    /// mismatch (torn write), malformed line — is an `Err` with a
    /// description; the caller treats it as "this file does not exist".
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let body = checked_body(text, "checkpoint")?;

        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        let version: u32 = magic
            .strip_prefix("PASTIS-CKPT ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad checkpoint magic: {magic:?}"))?;
        if version != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema version {version} (this build reads {CHECKPOINT_SCHEMA_VERSION})"
            ));
        }

        fn field<'a>(
            line: Option<&'a str>,
            key: &str,
        ) -> Result<std::str::SplitWhitespace<'a>, String> {
            let line = line.ok_or_else(|| format!("checkpoint truncated before {key:?}"))?;
            let rest = line
                .strip_prefix(key)
                .ok_or_else(|| format!("expected {key:?} line, got {line:?}"))?;
            Ok(rest.split_whitespace())
        }
        fn next_num<T: std::str::FromStr>(
            it: &mut std::str::SplitWhitespace<'_>,
            what: &str,
        ) -> Result<T, String> {
            it.next()
                .ok_or_else(|| format!("checkpoint line missing {what}"))?
                .parse()
                .map_err(|_| format!("bad {what} in checkpoint"))
        }
        fn next_bits64(it: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<f64, String> {
            let tok = it
                .next()
                .ok_or_else(|| format!("checkpoint line missing {what}"))?;
            u64::from_str_radix(tok, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad {what} bits in checkpoint"))
        }

        let mut it = field(lines.next(), "fingerprint ")?;
        let fingerprint =
            u64::from_str_radix(it.next().ok_or("checkpoint line missing fingerprint")?, 16)
                .map_err(|_| "bad fingerprint in checkpoint".to_string())?;

        let mut it = field(lines.next(), "rank ")?;
        let rank: usize = next_num(&mut it, "rank")?;
        let nranks: usize = next_num(&mut it, "nranks")?;

        let mut it = field(lines.next(), "nverts ")?;
        let n_vertices: usize = next_num(&mut it, "nverts")?;

        let mut it = field(lines.next(), "blocks_done ")?;
        let blocks_done: usize = next_num(&mut it, "blocks_done")?;

        let mut it = field(lines.next(), "stat ")?;
        let mut stats = SearchStats {
            candidates: next_num(&mut it, "candidates")?,
            aligned_pairs: next_num(&mut it, "aligned_pairs")?,
            cells: next_num(&mut it, "cells")?,
            similar_pairs: next_num(&mut it, "similar_pairs")?,
            spgemm_products: next_num(&mut it, "spgemm_products")?,
            ..SearchStats::default()
        };
        let mut it = field(lines.next(), "statf ")?;
        stats.total_seconds = next_bits64(&mut it, "total_seconds")?;
        stats.align_kernel_seconds = next_bits64(&mut it, "align_kernel_seconds")?;
        stats.align_cpu_seconds = next_bits64(&mut it, "align_cpu_seconds")?;

        let mut times = TimeBreakdown::new();
        for c in Component::ALL {
            let mut it = field(lines.next(), "time ")?;
            let label = it.next().ok_or("checkpoint time line missing label")?;
            if label != c.label() {
                return Err(format!(
                    "checkpoint time lines out of order: expected {:?}, got {label:?}",
                    c.label()
                ));
            }
            times.record(c, next_bits64(&mut it, "component seconds")?);
        }

        let mut per_block = Vec::with_capacity(blocks_done);
        let mut edges = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("block ") {
                let mut it = rest.split_whitespace();
                per_block.push(BlockTiming {
                    r: next_num(&mut it, "block row")?,
                    c: next_num(&mut it, "block col")?,
                    sparse_seconds: next_bits64(&mut it, "sparse_seconds")?,
                    align_seconds: next_bits64(&mut it, "align_seconds")?,
                    candidates: next_num(&mut it, "block candidates")?,
                    aligned_pairs: next_num(&mut it, "block aligned_pairs")?,
                });
            } else if let Some(rest) = line.strip_prefix("edge ") {
                edges.push(
                    parse_edge(rest).ok_or_else(|| format!("bad checkpoint line: {line:?}"))?,
                );
            } else {
                return Err(format!("unexpected checkpoint line: {line:?}"));
            }
        }
        if per_block.len() != blocks_done {
            return Err(format!(
                "checkpoint inconsistent: {blocks_done} blocks_done but {} block lines",
                per_block.len()
            ));
        }
        Ok(Checkpoint {
            fingerprint,
            rank,
            nranks,
            n_vertices,
            blocks_done,
            stats,
            times,
            per_block,
            edges,
        })
    }

    /// Reconstruct the partial (pre-`normalize`) graph.
    pub fn graph(&self) -> SimilarityGraph {
        let mut g = SimilarityGraph::new(self.n_vertices);
        for e in &self.edges {
            g.add(*e);
        }
        g
    }
}

/// The file a rank's checkpoint for `blocks_done` lives in.
pub fn checkpoint_path(dir: &Path, rank: usize, blocks_done: usize) -> PathBuf {
    dir.join(format!("rank{rank}"))
        .join(format!("block{blocks_done:06}.ckpt"))
}

/// Write `content` to `path` atomically: write a sibling `.tmp`, then
/// rename over the target. A killed process leaves either the old file or
/// a stray `.tmp`, never a torn target.
///
/// # Errors
///
/// I/O failures, with the path in the message.
pub fn write_atomic(path: &Path, content: impl AsRef<[u8]>) -> Result<(), String> {
    let parent = path
        .parent()
        .ok_or_else(|| format!("checkpoint path has no parent: {}", path.display()))?;
    fs::create_dir_all(parent).map_err(|e| format!("creating {}: {e}", parent.display()))?;
    let tmp = path.with_extension("ckpt.tmp");
    fs::write(&tmp, content).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path)
        .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
}

/// Atomically persist `ck` under `dir`, returning the file written.
///
/// # Errors
///
/// I/O failures.
pub fn save(dir: &Path, ck: &Checkpoint) -> Result<PathBuf, String> {
    let path = checkpoint_path(dir, ck.rank, ck.blocks_done);
    write_atomic(&path, ck.to_text())?;
    Ok(path)
}

/// The newest valid checkpoint for `rank` under `dir` that matches
/// `fingerprint` and `nranks`: highest block count whose file parses,
/// CRC-checks, and belongs to this run. Corrupt, foreign, or torn files
/// are skipped (that is the recovery path, not an error).
pub fn latest_valid(
    dir: &Path,
    rank: usize,
    nranks: usize,
    fingerprint: u64,
) -> Option<Checkpoint> {
    let rank_dir = dir.join(format!("rank{rank}"));
    let mut counts: Vec<usize> = fs::read_dir(&rank_dir)
        .ok()?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("block")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()
        })
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    for count in counts {
        let path = checkpoint_path(dir, rank, count);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        match Checkpoint::parse(&text) {
            Ok(ck)
                if ck.fingerprint == fingerprint
                    && ck.nranks == nranks
                    && ck.rank == rank
                    && ck.blocks_done == count =>
            {
                return Some(ck);
            }
            _ => continue,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Spill shards (memory-budgeted execution)
// ---------------------------------------------------------------------------

/// Version stamp of the on-disk spill-shard format.
pub const SPILL_SCHEMA_VERSION: u32 = 1;

/// One completed output block's edges, evicted to disk under memory
/// pressure. The format is the checkpoint family's little sibling — same
/// hand-rolled text serialization, same bit-exact `edge` lines, same CRC
/// trailer — but holds exactly one block so eviction and readback stay
/// proportional to the block, not the run:
///
/// ```text
/// PASTIS-SPILL 1
/// fingerprint <hex64>
/// rank <r>
/// block <k>                      # scheduled block index
/// edge <i> <j> <score> <ani_bits> <cov_bits> <common>   # ×edges
/// end <crc32-hex>
/// ```
///
/// A shard that fails its CRC on readback is not an error: the block is
/// simply recomputed, and the final `normalize` makes the result
/// bit-identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillShard {
    /// Run identity ([`run_fingerprint`]).
    pub fingerprint: u64,
    /// Writing rank.
    pub rank: usize,
    /// Scheduled block index this shard holds the edges of.
    pub block: usize,
    /// The block's edges in insertion order, pre-`normalize`.
    pub edges: Vec<SimilarityEdge>,
}

impl SpillShard {
    /// Serialize to the schema-v1 text format (CRC trailer included).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.edges.len() * 48);
        let _ = writeln!(s, "PASTIS-SPILL {SPILL_SCHEMA_VERSION}");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "rank {}", self.rank);
        let _ = writeln!(s, "block {}", self.block);
        for e in &self.edges {
            push_edge_line(&mut s, e);
        }
        let crc = crc32(s.as_bytes());
        let _ = writeln!(s, "end {crc:08x}");
        s
    }

    /// Parse and CRC-check a schema-v1 spill shard.
    ///
    /// # Errors
    ///
    /// Any structural problem — bad magic, wrong schema version, CRC
    /// mismatch (torn/corrupted write), malformed line — is an `Err`; the
    /// caller recomputes the block instead.
    pub fn parse(text: &str) -> Result<SpillShard, String> {
        let body = checked_body(text, "spill shard")?;

        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        let version: u32 = magic
            .strip_prefix("PASTIS-SPILL ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad spill shard magic: {magic:?}"))?;
        if version != SPILL_SCHEMA_VERSION {
            return Err(format!(
                "unsupported spill shard schema version {version} (this build reads {SPILL_SCHEMA_VERSION})"
            ));
        }

        fn keyed<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
            let line = line.ok_or_else(|| format!("spill shard truncated before {key:?}"))?;
            line.strip_prefix(key)
                .map(str::trim)
                .ok_or_else(|| format!("expected {key:?} line, got {line:?}"))
        }

        let fingerprint = u64::from_str_radix(keyed(lines.next(), "fingerprint ")?, 16)
            .map_err(|_| "bad fingerprint in spill shard".to_string())?;
        let rank: usize = keyed(lines.next(), "rank ")?
            .parse()
            .map_err(|_| "bad rank in spill shard".to_string())?;
        let block: usize = keyed(lines.next(), "block ")?
            .parse()
            .map_err(|_| "bad block in spill shard".to_string())?;

        let mut edges = Vec::new();
        for line in lines {
            let edge = line
                .strip_prefix("edge ")
                .and_then(parse_edge)
                .ok_or_else(|| format!("bad spill shard line: {line:?}"))?;
            edges.push(edge);
        }
        Ok(SpillShard {
            fingerprint,
            rank,
            block,
            edges,
        })
    }
}

/// The file a rank's spilled edges for scheduled block `block` live in.
pub fn spill_path(dir: &Path, rank: usize, block: usize) -> PathBuf {
    dir.join(format!("rank{rank}"))
        .join(format!("block{block:06}.spill"))
}

/// Version stamp of the binary index-shard frame (version 1 was text,
/// version 2 listed every row of the row space).
pub const INDEX_SHARD_SCHEMA_VERSION: u32 = 3;

/// The index-shard frame.
const INDEX_SHARD: Kind = Kind(*b"\x89PSTIDX\n", INDEX_SHARD_SCHEMA_VERSION, "PASTIS-IDX ");

/// One stripe of a k-mer index by its nonempty rows (so its bytes follow
/// its nonzeros, not its row space): a persisted index's column stripe
/// (rows are raw k-mer ids), or one rank's block of an inactive stripe
/// evicted under memory pressure. A [`crate::frame`] whose body is the
/// header, the row ids as deltas (the first id, then each gap), one
/// length per listed row, then the columns and values as u32 LE arrays:
///
/// ```text
/// fingerprint u64 | rank, side (1 = a), stripe, nrows, ncols, nnr, nnz
/// varints | nnr row-id delta varints | nnr row-length varints
/// | nnz cols u32 | nnz vals u32
/// ```
///
/// Unlike output-block shards, a stripe shard that fails its CRC is
/// unrecoverable in place (the stripe's triples are gone) — so the
/// pipeline only drops a stripe from memory *after* a verified read-back
/// of what it wrote, falling back to keeping the stripe resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexShard {
    /// Run identity ([`run_fingerprint`]).
    pub fingerprint: u64,
    /// Writing rank.
    pub rank: usize,
    /// `true` for an A (row) stripe, `false` for a B (column) stripe.
    pub is_a: bool,
    /// Stripe index within its blocking dimension.
    pub stripe: usize,
    /// The row space: every listed row id is below it.
    pub nrows: usize,
    /// Local column count.
    pub ncols: usize,
    /// Ids of the nonempty rows, strictly increasing.
    pub rows: Vec<u32>,
    /// Row pointers over `rows` (`rows.len() + 1` entries, every row
    /// nonempty).
    pub rowptr: Vec<usize>,
    /// CSR column indices.
    pub cols: Vec<u32>,
    /// Stored values (the pipeline's index stripes carry `u32` seed
    /// positions).
    pub vals: Vec<u32>,
}

impl IndexShard {
    /// The shard of a stripe held as a CSR over its whole row space (the
    /// pipeline's): its nonempty rows.
    pub fn from_csr(
        fingerprint: u64,
        rank: usize,
        is_a: bool,
        stripe: usize,
        m: CsrMatrix<u32>,
    ) -> IndexShard {
        let (nrows, ncols, dense, cols, vals) = m.into_parts();
        // Sized exactly: this runs beside the dense row pointer, when the
        // pipeline is short of memory.
        let nnr = dense.windows(2).filter(|row| row[1] > row[0]).count();
        let (mut rows, mut rowptr) = (Vec::with_capacity(nnr), Vec::with_capacity(nnr + 1));
        rowptr.push(0);
        for (i, row) in dense.windows(2).enumerate() {
            if row[1] > row[0] {
                rows.push(i as u32);
                rowptr.push(row[1]);
            }
        }
        IndexShard {
            fingerprint,
            rank,
            is_a,
            stripe,
            nrows,
            ncols,
            rows,
            rowptr,
            cols,
            vals,
        }
    }

    /// The stripe back as a CSR over its whole row space, the rows not
    /// listed empty.
    pub fn into_csr(self) -> CsrMatrix<u32> {
        let mut dense = Vec::with_capacity(self.nrows + 1);
        dense.push(0);
        for (&row, &end) in self.rows.iter().zip(&self.rowptr[1..]) {
            let start = *dense.last().expect("starts at 0");
            dense.resize(row as usize + 1, start);
            dense.push(end);
        }
        dense.resize(self.nrows + 1, self.cols.len());
        CsrMatrix::from_parts(self.nrows, self.ncols, dense, self.cols, self.vals)
    }

    /// Serialize to the binary frame (CRC trailer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let (side, nnr, nnz) = (usize::from(self.is_a), self.rows.len(), self.cols.len());
        let mut w = FrameWriter::new(&INDEX_SHARD, 48 + 3 * nnr + 8 * nnz);
        w.u64(self.fingerprint);
        let header = [self.rank, side, self.stripe, self.nrows, self.ncols];
        for v in header.into_iter().chain([nnr, nnz]) {
            w.varint(v as u64);
        }
        let mut prev = 0;
        for &row in &self.rows {
            w.varint(u64::from(row - prev));
            prev = row;
        }
        for row in self.rowptr.windows(2) {
            w.varint((row[1] - row[0]) as u64);
        }
        w.u32s(&self.cols);
        w.u32s(&self.vals);
        w.finish()
    }

    /// Check the frame and decode it, re-validating every invariant (row
    /// ids strictly increasing and inside the row space, every listed row
    /// nonempty, row lengths summing to `nnz`, sorted unique in-bounds
    /// columns), so even a CRC-colliding forgery yields `Err`, never a
    /// panic downstream. Every count is held against the bytes left before
    /// anything is allocated for it.
    pub fn from_bytes(bytes: &[u8]) -> Result<IndexShard, FrameError> {
        let mut r = FrameReader::open(bytes, &INDEX_SHARD)?;
        let invalid = |why: String| Err(FrameError::Invalid(why));
        let (fingerprint, rank) = (r.u64("fingerprint")?, r.varint("rank")?);
        let is_a = match r.varint::<u8>("side")? {
            0 => false,
            1 => true,
            side => return invalid(format!("bad stripe side {side}")),
        };
        let stripe = r.varint("stripe")?;
        let (nrows, ncols): (usize, usize) = (r.varint("nrows")?, r.varint("ncols")?);
        let (nnr, nnz): (u64, u64) = (r.varint("nonempty rows")?, r.varint("nnz")?);
        // An id and a length, a byte or more each, for every listed row.
        let nnr = r.count(nnr, 2, "row ids")?;
        let mut rows = Vec::with_capacity(nnr);
        let mut id = 0u64;
        for i in 0..nnr {
            let gap: u64 = r.varint("row ids")?;
            if i > 0 && gap == 0 {
                return invalid("row ids not strictly increasing".to_string());
            }
            id = id.saturating_add(gap);
            match u32::try_from(id) {
                Ok(row) if id < nrows as u64 => rows.push(row),
                _ => return invalid(format!("row id {id} past the row space {nrows}")),
            }
        }
        let mut rowptr = Vec::with_capacity(nnr + 1);
        rowptr.push(0);
        let mut end = 0u64;
        for &row in &rows {
            let len: u64 = r.varint("row lengths")?;
            if len == 0 {
                return invalid(format!("row {row} is listed but empty"));
            }
            end = end.saturating_add(len);
            if end > nnz {
                return invalid(format!("row lengths pass nnz {nnz}"));
            }
            rowptr.push(end as usize);
        }
        if end != nnz {
            return invalid(format!("row lengths sum to {end}, not nnz {nnz}"));
        }
        let cols = r.u32s(nnz, "cols")?;
        let vals = r.u32s(nnz, "vals")?;
        r.finish()?;

        for (row, at) in rows.iter().zip(rowptr.windows(2)) {
            // Ascending with the last in bounds: all in bounds.
            let row_cols = &cols[at[0]..at[1]];
            if row_cols.windows(2).any(|c| c[0] >= c[1])
                || row_cols[row_cols.len() - 1] as usize >= ncols
            {
                return invalid(format!("row {row} columns not sorted/in-bounds"));
            }
        }
        Ok(IndexShard {
            fingerprint,
            rank,
            is_a,
            stripe,
            nrows,
            ncols,
            rows,
            rowptr,
            cols,
            vals,
        })
    }
}

/// The file a rank's evicted index stripe lives in.
pub fn index_spill_path(dir: &Path, rank: usize, is_a: bool, stripe: usize) -> PathBuf {
    dir.join(format!("rank{rank}")).join(format!(
        "idx_{}{stripe:04}.spill",
        if is_a { "a" } else { "b" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis_align::matrices::encode;

    fn sample_checkpoint() -> Checkpoint {
        let mut times = TimeBreakdown::new();
        times.record(Component::Align, 1.25);
        times.record(Component::SpGemm, 0.125);
        times.record(Component::CommWait, 3.0e-7);
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            rank: 1,
            nranks: 4,
            n_vertices: 10,
            blocks_done: 2,
            stats: SearchStats {
                candidates: 100,
                aligned_pairs: 42,
                cells: 9000,
                similar_pairs: 7,
                spgemm_products: 555,
                total_seconds: 1.5,
                align_kernel_seconds: 0.7,
                align_cpu_seconds: 1.4,
            },
            times,
            per_block: vec![
                BlockTiming {
                    r: 0,
                    c: 0,
                    sparse_seconds: 0.1,
                    align_seconds: 0.2,
                    candidates: 60,
                    aligned_pairs: 30,
                },
                BlockTiming {
                    r: 0,
                    c: 1,
                    sparse_seconds: 0.3,
                    align_seconds: 0.4,
                    candidates: 40,
                    aligned_pairs: 12,
                },
            ],
            edges: vec![
                SimilarityEdge {
                    i: 2,
                    j: 5,
                    score: 37,
                    ani: 0.875,
                    coverage: 0.5,
                    common_kmers: 3,
                },
                SimilarityEdge {
                    i: 0,
                    j: 9,
                    score: 11,
                    ani: 0.333_333_34,
                    coverage: 0.999_999_9,
                    common_kmers: 1,
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let ck = sample_checkpoint();
        let parsed = Checkpoint::parse(&ck.to_text()).unwrap();
        assert_eq!(parsed, ck);
        // Bit-exactness beyond PartialEq: re-serialization is identical.
        assert_eq!(parsed.to_text(), ck.to_text());
    }

    #[test]
    fn crc_catches_torn_or_flipped_content() {
        let ck = sample_checkpoint();
        let text = ck.to_text();
        // Flip a digit inside the body.
        let corrupted = text.replacen("blocks_done 2", "blocks_done 3", 1);
        assert!(Checkpoint::parse(&corrupted).unwrap_err().contains("crc"));
        // Truncate mid-file (torn write): the trailer disappears or the crc
        // no longer covers the body.
        let torn = &text[..text.len() / 2];
        assert!(Checkpoint::parse(torn).is_err());
    }

    #[test]
    fn schema_version_is_enforced() {
        let text = sample_checkpoint()
            .to_text()
            .replacen("PASTIS-CKPT 1", "PASTIS-CKPT 2", 1);
        // CRC fails first (content changed) — rebuild a consistent v2 file.
        let body_end = text.rfind("end ").unwrap();
        let body = &text[..body_end];
        let fixed = format!("{body}end {:08x}\n", crc32(body.as_bytes()));
        let err = Checkpoint::parse(&fixed).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
    }

    #[test]
    fn save_and_latest_valid_pick_newest_matching() {
        let dir = std::env::temp_dir().join(format!("pastis-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut ck = sample_checkpoint();
        save(&dir, &ck).unwrap();
        ck.blocks_done = 3;
        ck.per_block.push(BlockTiming {
            r: 1,
            c: 1,
            sparse_seconds: 0.5,
            align_seconds: 0.6,
            candidates: 1,
            aligned_pairs: 1,
        });
        save(&dir, &ck).unwrap();
        // A corrupt newer file must be skipped, not trusted.
        let bad = checkpoint_path(&dir, ck.rank, 4);
        fs::create_dir_all(bad.parent().unwrap()).unwrap();
        fs::write(&bad, "PASTIS-CKPT 1\ngarbage\n").unwrap();

        let got = latest_valid(&dir, ck.rank, ck.nranks, ck.fingerprint).unwrap();
        assert_eq!(got.blocks_done, 3);
        assert_eq!(got, ck);
        // Wrong fingerprint or world size: nothing valid.
        assert!(latest_valid(&dir, ck.rank, ck.nranks, 1).is_none());
        assert!(latest_valid(&dir, ck.rank, 8, ck.fingerprint).is_none());
        // Other ranks have no files.
        assert!(latest_valid(&dir, 0, ck.nranks, ck.fingerprint).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_output_relevant_params_only() {
        let mut store = SeqStore::new();
        store.push("a".into(), encode("MKVLAWYHEE").unwrap());
        store.push("b".into(), encode("GGSTPNQRCD").unwrap());
        let base = SearchParams::test_defaults();
        let fp = run_fingerprint(&base, &store);
        assert_eq!(fp, run_fingerprint(&base.clone(), &store), "deterministic");
        // Threads never change the output → same fingerprint.
        assert_eq!(
            fp,
            run_fingerprint(&base.clone().with_align_threads(8), &store)
        );
        // Neither does a memory budget: a budgeted run spills and streams
        // back bit-exact shards, so its checkpoints stay interchangeable
        // with an unbudgeted run's.
        assert_eq!(
            fp,
            run_fingerprint(
                &base
                    .clone()
                    .with_mem_budget(1 << 20)
                    .with_spill_dir("/tmp/spill"),
                &store
            )
        );
        // Neither do the local SpGEMM kernel knobs (bit-identical kernels).
        assert_eq!(
            fp,
            run_fingerprint(
                &base
                    .clone()
                    .with_spgemm_threads(8)
                    .with_spgemm(pastis_sparse::SpGemmKind::Heap),
                &store
            )
        );
        // Output-relevant knobs change it.
        assert_ne!(
            fp,
            run_fingerprint(&base.clone().with_blocking(2, 2), &store)
        );
        assert_ne!(
            fp,
            run_fingerprint(
                &SearchParams {
                    ani_threshold: 0.5,
                    ..base.clone()
                },
                &store
            )
        );
        // So does the input.
        let mut store2 = SeqStore::new();
        store2.push("a".into(), encode("MKVLAWYHEE").unwrap());
        store2.push("b".into(), encode("GGSTPNQRCE").unwrap());
        assert_ne!(fp, run_fingerprint(&base, &store2));
    }

    #[test]
    fn fingerprints_are_pinned_literals() {
        // Checkpoints and index manifests on disk carry these values: a
        // change to either digest, or to what `SearchParams` feeds into
        // it, orphans every checkpoint and index already written.
        let mut store = SeqStore::new();
        store.push("a".into(), encode("MKVLAWYHEE").unwrap());
        store.push("b".into(), encode("GGSTPNQRCD").unwrap());
        let p = SearchParams::test_defaults();
        assert_eq!(run_fingerprint(&p, &store), 0xc55b_9457_2d01_9861);
        assert_eq!(
            crate::index::index_fingerprint(p.k, p.alphabet, p.substitute_kmers, &store),
            0xe202_6b43_42ea_6a39
        );
    }

    #[test]
    fn spill_shard_round_trip_is_bit_exact() {
        let shard = SpillShard {
            fingerprint: 0xFEED_F00D_1234_5678,
            rank: 3,
            block: 41,
            edges: sample_checkpoint().edges,
        };
        let parsed = SpillShard::parse(&shard.to_text()).unwrap();
        assert_eq!(parsed, shard);
        assert_eq!(parsed.to_text(), shard.to_text());
        // Empty shards (a block with no surviving edges) round-trip too.
        let empty = SpillShard {
            edges: Vec::new(),
            ..shard
        };
        assert_eq!(SpillShard::parse(&empty.to_text()).unwrap(), empty);
    }

    #[test]
    fn spill_shard_crc_catches_flips_and_truncation() {
        let shard = SpillShard {
            fingerprint: 1,
            rank: 0,
            block: 7,
            edges: sample_checkpoint().edges,
        };
        let text = shard.to_text();
        // Flip one byte anywhere in the body.
        let mut bytes = text.clone().into_bytes();
        bytes[text.len() / 3] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(SpillShard::parse(&flipped).is_err());
        // Torn write.
        assert!(SpillShard::parse(&text[..text.len() / 2]).is_err());
        // Wrong schema version with a self-consistent CRC.
        let v2 = text.replacen("PASTIS-SPILL 1", "PASTIS-SPILL 2", 1);
        let body_end = v2.rfind("end ").unwrap();
        let body = &v2[..body_end];
        let fixed = format!("{body}end {:08x}\n", crc32(body.as_bytes()));
        assert!(SpillShard::parse(&fixed)
            .unwrap_err()
            .contains("schema version 2"));
    }

    #[test]
    fn spill_paths_are_per_rank_per_block() {
        let dir = Path::new("/tmp/spill");
        assert_eq!(
            spill_path(dir, 2, 41),
            Path::new("/tmp/spill/rank2/block000041.spill")
        );
        assert_ne!(spill_path(dir, 2, 41), spill_path(dir, 1, 41));
        assert_ne!(spill_path(dir, 2, 41), spill_path(dir, 2, 40));
    }

    fn sample_index_shard() -> IndexShard {
        // Row space 9, 5 columns: row 2 = {1:7, 4:9}, row 7 = {0:1, 2:2, 3:3}.
        IndexShard {
            fingerprint: 0xABCD_EF01_2345_6789,
            rank: 2,
            is_a: true,
            stripe: 5,
            nrows: 9,
            ncols: 5,
            rows: vec![2, 7],
            rowptr: vec![0, 2, 5],
            cols: vec![1, 4, 0, 2, 3],
            vals: vec![7, 9, 1, 2, 3],
        }
    }

    #[test]
    fn index_shard_round_trip_is_bit_exact() {
        let shard = sample_index_shard();
        let bytes = shard.to_bytes();
        let parsed = IndexShard::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, shard);
        assert_eq!(parsed.to_bytes(), bytes);
        // Decoded arrays are sized by the file.
        assert!(8 * parsed.rowptr.capacity() + 4 * parsed.rows.capacity() <= bytes.len());
        assert!(4 * (parsed.cols.capacity() + parsed.vals.capacity()) <= bytes.len());
        // A stripe with no nonempty row round-trips too.
        let empty = IndexShard {
            is_a: false,
            rows: Vec::new(),
            rowptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            ..shard
        };
        assert_eq!(IndexShard::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn spill_round_trip_of_a_dense_stripe_is_bit_exact() {
        // Empty rows at both ends and in the middle, and a matrix with no
        // entry at all: dense CSR → frame → dense CSR is the same matrix.
        let triples = |nrows, ncols, e: Vec<(u32, u32, u32)>| {
            CsrMatrix::from_triples(pastis_sparse::Triples::from_entries(nrows, ncols, e))
        };
        for m in [
            triples(7, 4, vec![(2, 1, 5), (2, 3, 6), (3, 0, 1), (5, 2, 8)]),
            triples(3, 2, vec![(0, 0, 1), (2, 1, 2)]),
            triples(4, 3, Vec::new()),
            triples(1, 1, vec![(0, 0, 9)]),
        ] {
            let shard = IndexShard::from_csr(7, 1, false, 3, m.clone());
            assert!(shard.rowptr.windows(2).all(|r| r[1] > r[0]));
            let back = IndexShard::from_bytes(&shard.to_bytes()).unwrap();
            assert_eq!(back, shard);
            assert_eq!(back.into_csr(), m);
        }
        let shard = IndexShard::from_csr(7, 1, false, 3, triples(7, 4, vec![(2, 1, 5)]));
        assert_eq!((shard.nrows, shard.rows.as_slice()), (7, &[2][..]));
    }

    /// The sample shard's frame with its counts, row-id deltas and row
    /// lengths replaced, CRC recomputed.
    fn forged(nrows: u64, nnr: u64, nnz: u64, gaps: &[u64], lens: &[u64]) -> Vec<u8> {
        let s = sample_index_shard();
        let mut w = FrameWriter::new(&INDEX_SHARD, 0);
        w.u64(s.fingerprint);
        for v in [2, 1, 5, nrows, 5, nnr, nnz] {
            w.varint(v);
        }
        gaps.iter().chain(lens).for_each(|&v| w.varint(v));
        w.u32s(&s.cols);
        w.u32s(&s.vals);
        w.finish()
    }

    #[test]
    fn index_shard_rejects_corruption_and_forged_structure() {
        let bytes = sample_index_shard().to_bytes();
        // Every truncation and every single-byte flip is refused.
        for cut in 0..bytes.len() {
            assert!(IndexShard::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert!(IndexShard::from_bytes(&flipped).is_err(), "{at}.{bit}");
            }
        }
        // A frame whose CRC is valid but whose structure is broken is an
        // Err, not a panic downstream.
        let forge = |edit: fn(&mut IndexShard)| {
            let mut s = sample_index_shard();
            edit(&mut s);
            IndexShard::from_bytes(&s.to_bytes())
                .unwrap_err()
                .to_string()
        };
        assert!(forge(|s| s.cols[1] = 9).contains("not sorted/in-bounds"));
        assert!(forge(|s| s.cols[1] = 1).contains("row 2 columns not sorted"));
        assert!(forge(|s| s.rowptr = vec![0, 2, 4]).contains("row lengths sum to 4"));
        let ok = forged(9, 2, 5, &[2, 5], &[2, 3]);
        assert_eq!(IndexShard::from_bytes(&ok).unwrap(), sample_index_shard());
        let refused = |nrows, gaps: &[u64], lens: &[u64]| {
            IndexShard::from_bytes(&forged(nrows, 2, 5, gaps, lens))
                .unwrap_err()
                .to_string()
        };
        // A zero gap (a row listed twice), an id past the row space, a
        // listed row with no entry, lengths that do not sum to nnz.
        assert!(refused(9, &[2, 0], &[2, 3]).contains("not strictly increasing"));
        assert!(refused(7, &[2, 5], &[2, 3]).contains("row id 7 past the row space 7"));
        assert!(
            refused(u64::MAX, &[2, u64::from(u32::MAX)], &[2, 3]).contains("past the row space")
        );
        assert!(refused(9, &[2, 5], &[0, 5]).contains("row 2 is listed but empty"));
        assert!(refused(9, &[2, 5], &[2, 2]).contains("row lengths sum to 4"));
        assert!(refused(9, &[2, 5], &[2, 4]).contains("row lengths pass nnz"));
        // Forged counts, up to u64::MAX, fail on the bytes left before
        // anything is sized by them.
        let len = bytes.len() as u64;
        for (nnr, nnz) in [
            (3, 5),
            (len, 5),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 5),
            (2, 4),
            (2, 6),
            (2, len),
            (2, u64::MAX / 4 + 1),
            (2, u64::MAX),
            (u64::MAX, u64::MAX),
        ] {
            let err = IndexShard::from_bytes(&forged(9, nnr, nnz, &[2, 5], &[2, 3])).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated(_) | FrameError::Invalid(_)),
                "{nnr} {nnz}: {err}"
            );
        }
    }

    #[test]
    fn text_and_version_2_index_shards_are_refused_naming_their_version() {
        let v1 = "PASTIS-IDX 1\nfingerprint 00000000000000ab\nrank 0\nstripe b 0\n\
                  dims 1 1 1\nrowptr 0 1\ncols 0\nvals 3\nend 0badf00d\n";
        let err = IndexShard::from_bytes(v1.as_bytes()).unwrap_err();
        assert_eq!(err, FrameError::Legacy("1".to_string()));
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(err.to_string().contains("pastis index build"), "{err}");
        // A version-2 shard as that format's `pastis index build` wrote it
        // (one reference "MKVLAW", k = 4: a row per k-mer of the index).
        const V2: [u8; 57] = [
            0x89, 0x50, 0x53, 0x54, 0x49, 0x44, 0x58, 0x0a, 0x02, 0x00, 0x00, 0x00, 0x71, 0x91,
            0x8b, 0x2c, 0xfd, 0xeb, 0xbf, 0x39, 0x00, 0x00, 0x00, 0x03, 0x01, 0x03, 0x01, 0x01,
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xc4, 0x92, 0x6c,
            0xd0,
        ];
        let err = IndexShard::from_bytes(&V2).unwrap_err();
        assert_eq!(err, FrameError::Version(2));
        assert!(err.to_string().contains("version 2"), "{err}");
        assert!(err.to_string().contains("pastis index build"), "{err}");
    }

    #[test]
    fn index_spill_paths_separate_sides_and_stripes() {
        let dir = Path::new("/tmp/spill");
        assert_eq!(
            index_spill_path(dir, 1, true, 3),
            Path::new("/tmp/spill/rank1/idx_a0003.spill")
        );
        assert_ne!(
            index_spill_path(dir, 1, true, 3),
            index_spill_path(dir, 1, false, 3)
        );
        assert_ne!(
            index_spill_path(dir, 1, true, 3),
            index_spill_path(dir, 1, true, 4)
        );
    }

    #[test]
    fn graph_reconstruction_preserves_insertion_order() {
        let ck = sample_checkpoint();
        let g = ck.graph();
        // add() canonicalizes endpoints but keeps insertion order.
        let keys: Vec<(u32, u32)> = g.edges().iter().map(|e| e.key()).collect();
        assert_eq!(keys, vec![(2, 5), (0, 9)]);
    }
}
