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
//! A checkpoint is a plain text file (the vendored `serde` is a no-op stub,
//! so serialization is hand-rolled and auditable). All floats are written
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
// The bulk of a spill shard is numbers: a k-mer index stripe is three
// long lists of them, an output block one `edge` line per edge. They are
// written and read here without `fmt` or `FromStr`, digit by digit. The
// reader is stricter than `str::parse`, never laxer: ASCII digits only
// (no sign on unsigned fields, no `+` anywhere), fields separated by
// exactly one ASCII space.

/// "00" "01" … "99": two digits per division when formatting.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Most decimal digits of a u64.
const MAX_DECIMAL_LEN: usize = 20;

/// Write `v` in decimal to the front of `out` (at least
/// [`MAX_DECIMAL_LEN`] long); returns the number of digits written.
fn write_decimal(out: &mut [u8], mut v: u64) -> usize {
    let len = v.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut at = len;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + v as u8;
    }
    len
}

/// Append `v` in decimal.
fn push_decimal(s: &mut String, v: u64) {
    let mut buf = [0u8; MAX_DECIMAL_LEN];
    let len = write_decimal(&mut buf, v);
    s.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII digits"));
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
pub(crate) fn checked_body<'a>(text: &'a str, what: &str) -> Result<&'a str, String> {
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

/// Append a ` <v>` field per value: the body of a number-list line.
/// Values are formatted a batch at a time into a stack buffer sized for
/// the worst case, so the string is touched once per batch, not per value.
pub(crate) fn push_decimal_list<T: Copy + TryInto<u64>>(s: &mut String, values: &[T]) {
    const BATCH: usize = 64;
    let mut buf = [0u8; BATCH * (1 + MAX_DECIMAL_LEN)];
    for batch in values.chunks(BATCH) {
        let mut at = 0;
        for &v in batch {
            buf[at] = b' ';
            let v = v.try_into().ok().expect("list values are unsigned");
            at += 1 + write_decimal(&mut buf[at + 1..], v);
        }
        s.push_str(std::str::from_utf8(&buf[..at]).expect("ASCII digits and spaces"));
    }
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

/// The body of a number-list line (what follows its key): a ` <v>` field
/// per value. `expect` sizes the result and is itself bounded by what the
/// line could hold, so a forged count cannot force an allocation.
pub(crate) fn parse_decimal_list<T: TryFrom<u64>>(body: &str, expect: usize) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(expect.min(body.len() / 2));
    let mut bytes = body.bytes();
    let mut next = bytes.next();
    while let Some(b' ') = next {
        let (mut v, mut digits) = (0u64, 0);
        loop {
            next = bytes.next();
            match next {
                Some(d @ b'0'..=b'9') => {
                    v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    digits += 1;
                }
                _ => break,
            }
        }
        if digits == 0 || digits > MAX_DIGITS {
            return None;
        }
        out.push(T::try_from(v).ok()?);
    }
    next.is_none().then_some(out)
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
pub fn write_atomic(path: &Path, content: &str) -> Result<(), String> {
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
    write_atomic(&path, &ck.to_text())?;
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

/// One rank's local CSR block of an inactive k-mer index stripe, evicted
/// to disk under memory pressure. Same CRC-framed text family as
/// [`Checkpoint`] / [`SpillShard`]; the CSR arrays are stored verbatim so
/// restore is bit-exact:
///
/// ```text
/// PASTIS-IDX 1
/// fingerprint <hex64>
/// rank <r>
/// stripe <a|b> <idx>
/// dims <nrows> <ncols> <nnz>
/// rowptr <v0> <v1> ... <v_nrows>
/// cols <c0> ... <c_{nnz-1}>
/// vals <v0> ... <v_{nnz-1}>
/// end <crc32-hex>
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
    /// Local row count.
    pub nrows: usize,
    /// Local column count.
    pub ncols: usize,
    /// CSR row pointers (`nrows + 1` entries).
    pub rowptr: Vec<usize>,
    /// CSR column indices.
    pub cols: Vec<u32>,
    /// Stored values (the pipeline's index stripes carry `u32` seed
    /// positions).
    pub vals: Vec<u32>,
}

impl IndexShard {
    /// Serialize to the schema-v1 text format (CRC trailer included).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96 + self.cols.len() * 16 + self.rowptr.len() * 8);
        let _ = writeln!(s, "PASTIS-IDX {SPILL_SCHEMA_VERSION}");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "rank {}", self.rank);
        let _ = writeln!(
            s,
            "stripe {} {}",
            if self.is_a { "a" } else { "b" },
            self.stripe
        );
        let _ = writeln!(s, "dims {} {} {}", self.nrows, self.ncols, self.cols.len());
        s.push_str("rowptr");
        push_decimal_list(&mut s, &self.rowptr);
        s.push_str("\ncols");
        push_decimal_list(&mut s, &self.cols);
        s.push_str("\nvals");
        push_decimal_list(&mut s, &self.vals);
        s.push('\n');
        let crc = crc32(s.as_bytes());
        let _ = writeln!(s, "end {crc:08x}");
        s
    }

    /// Parse, CRC-check, and structurally validate a schema-v1 index shard.
    /// The CSR invariants (monotone row pointers ending at `nnz`, sorted
    /// unique in-bounds columns) are re-checked so even a CRC-colliding
    /// forgery yields `Err`, never a panic downstream.
    ///
    /// # Errors
    ///
    /// Any structural problem is an `Err`; the caller keeps (or rebuilds)
    /// the in-memory stripe instead.
    pub fn parse(text: &str) -> Result<IndexShard, String> {
        let body = checked_body(text, "index shard")?;

        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        let version: u32 = magic
            .strip_prefix("PASTIS-IDX ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad index shard magic: {magic:?}"))?;
        if version != SPILL_SCHEMA_VERSION {
            return Err(format!(
                "unsupported index shard schema version {version} (this build reads {SPILL_SCHEMA_VERSION})"
            ));
        }

        fn keyed<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
            let line = line.ok_or_else(|| format!("index shard truncated before {key:?}"))?;
            line.strip_prefix(key)
                .ok_or_else(|| format!("expected {key:?} line, got {line:?}"))
        }
        fn list_of<T: TryFrom<u64>>(
            line: Option<&str>,
            key: &str,
            expect: usize,
        ) -> Result<Vec<T>, String> {
            parse_decimal_list(keyed(line, key)?, expect)
                .ok_or_else(|| format!("bad {key} entry in index shard"))
        }

        let fingerprint = u64::from_str_radix(keyed(lines.next(), "fingerprint ")?.trim(), 16)
            .map_err(|_| "bad fingerprint in index shard".to_string())?;
        let rank: usize = keyed(lines.next(), "rank ")?
            .trim()
            .parse()
            .map_err(|_| "bad rank in index shard".to_string())?;
        let mut it = keyed(lines.next(), "stripe ")?.split_whitespace();
        let is_a = match it.next() {
            Some("a") => true,
            Some("b") => false,
            other => return Err(format!("bad stripe side in index shard: {other:?}")),
        };
        let stripe: usize = it
            .next()
            .ok_or("index shard stripe line missing index")?
            .parse()
            .map_err(|_| "bad stripe index in index shard".to_string())?;
        let mut it = keyed(lines.next(), "dims ")?.split_whitespace();
        let mut dim = |what: &str| -> Result<usize, String> {
            it.next()
                .ok_or_else(|| format!("index shard dims line missing {what}"))?
                .parse()
                .map_err(|_| format!("bad {what} in index shard"))
        };
        let nrows = dim("nrows")?;
        let ncols = dim("ncols")?;
        let nnz = dim("nnz")?;

        let rowptr: Vec<usize> = list_of(lines.next(), "rowptr", nrows.saturating_add(1))?;
        let cols: Vec<u32> = list_of(lines.next(), "cols", nnz)?;
        let vals: Vec<u32> = list_of(lines.next(), "vals", nnz)?;
        if lines.next().is_some() {
            return Err("trailing lines in index shard".to_string());
        }

        // CSR invariants, checked here so downstream from_parts can't panic.
        if rowptr.len() != nrows + 1 {
            return Err(format!(
                "index shard rowptr has {} entries for {nrows} rows",
                rowptr.len()
            ));
        }
        if cols.len() != nnz || vals.len() != nnz {
            return Err(format!(
                "index shard nnz mismatch: dims say {nnz}, got {} cols / {} vals",
                cols.len(),
                vals.len()
            ));
        }
        if rowptr.first() != Some(&0) || rowptr.last() != Some(&nnz) {
            return Err("index shard rowptr does not span [0, nnz]".to_string());
        }
        if rowptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("index shard rowptr not monotone".to_string());
        }
        if cols.iter().any(|&c| c as usize >= ncols) {
            return Err("index shard columns not sorted/in-bounds".to_string());
        }
        // Most rows of a transposed k-mer stripe hold at most one entry;
        // only longer ones have an order to check.
        for (i, w) in rowptr.windows(2).enumerate() {
            if w[1] - w[0] > 1 && cols[w[0]..w[1]].windows(2).any(|c| c[0] >= c[1]) {
                return Err(format!("index shard row {i} columns not sorted/in-bounds"));
            }
        }
        Ok(IndexShard {
            fingerprint,
            rank,
            is_a,
            stripe,
            nrows,
            ncols,
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
        // 3x5 CSR: row0 = {1:7, 4:9}, row1 = {}, row2 = {0:1, 2:2, 3:3}
        IndexShard {
            fingerprint: 0xABCD_EF01_2345_6789,
            rank: 2,
            is_a: true,
            stripe: 5,
            nrows: 3,
            ncols: 5,
            rowptr: vec![0, 2, 2, 5],
            cols: vec![1, 4, 0, 2, 3],
            vals: vec![7, 9, 1, 2, 3],
        }
    }

    #[test]
    fn index_shard_round_trip_is_bit_exact() {
        let shard = sample_index_shard();
        let parsed = IndexShard::parse(&shard.to_text()).unwrap();
        assert_eq!(parsed, shard);
        assert_eq!(parsed.to_text(), shard.to_text());
        // An empty stripe (all rows empty) round-trips too.
        let empty = IndexShard {
            is_a: false,
            nrows: 2,
            rowptr: vec![0, 0, 0],
            cols: Vec::new(),
            vals: Vec::new(),
            ..shard
        };
        assert_eq!(IndexShard::parse(&empty.to_text()).unwrap(), empty);
    }

    #[test]
    fn index_shard_rejects_corruption_and_forged_structure() {
        let shard = sample_index_shard();
        let text = shard.to_text();
        // Bit flip anywhere in the body.
        let mut bytes = text.clone().into_bytes();
        bytes[text.len() / 2] ^= 0x01;
        assert!(IndexShard::parse(&String::from_utf8(bytes).unwrap()).is_err());
        // Torn write.
        assert!(IndexShard::parse(&text[..text.len() / 2]).is_err());
        // A shard whose CRC is valid but whose CSR invariants are broken
        // (out-of-bounds column) must parse to Err, not panic downstream.
        let forged_body = text[..text.rfind("end ").unwrap()].replacen("cols 1 4", "cols 1 9", 1);
        let forged = format!("{forged_body}end {:08x}\n", crc32(forged_body.as_bytes()));
        assert!(IndexShard::parse(&forged)
            .unwrap_err()
            .contains("not sorted/in-bounds"));
        // Non-monotone rowptr, again with a self-consistent CRC.
        let forged_body =
            text[..text.rfind("end ").unwrap()].replacen("rowptr 0 2 2 5", "rowptr 0 3 2 5", 1);
        let forged = format!("{forged_body}end {:08x}\n", crc32(forged_body.as_bytes()));
        assert!(IndexShard::parse(&forged).is_err());
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
