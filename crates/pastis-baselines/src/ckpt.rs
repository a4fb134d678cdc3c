//! Checkpoint/restart for the baseline searches.
//!
//! Both comparator architectures decompose into serially-executed *units*
//! (MMseqs2-style: one simulated rank; DIAMOND-style: one query chunk's
//! join), so both share one cumulative checkpoint format: after each
//! completed unit the cumulative pre-`normalize` edge list and the named
//! counters are persisted. A resumed run restores the newest valid
//! checkpoint and skips the restored units; the final `normalize` sorts
//! edges canonically, so the split point cannot influence the output —
//! the same bit-identity argument as the PASTIS pipeline's
//! `pastis_core::checkpoint`.
//!
//! The format mirrors the pipeline's schema (text, `to_bits()` hex floats,
//! CRC32 trailer, atomic `.tmp` + rename writes) with a distinct magic so
//! the two checkpoint kinds can never be confused for each other.

use std::fs;
use std::path::{Path, PathBuf};

use pastis_comm::fault::crc32;
use pastis_core::checkpoint::write_atomic;
use pastis_core::simgraph::SimilarityEdge;

/// Version stamp of the baseline checkpoint format.
pub const BASELINE_CKPT_SCHEMA_VERSION: u32 = 1;

/// Cumulative state after `units_done` of `units` serial work units.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheckpoint {
    /// Run identity (config + input digest, baseline-specific).
    pub fingerprint: u64,
    /// Completed units (the cursor).
    pub units_done: usize,
    /// Total units of the run (resume requires the same decomposition).
    pub units: usize,
    /// Named cumulative counters, in a fixed baseline-defined order.
    pub counters: Vec<(String, u64)>,
    /// Edges in insertion order, pre-`normalize`.
    pub edges: Vec<SimilarityEdge>,
}

impl BaselineCheckpoint {
    /// Serialize to the schema-v1 text format (CRC trailer included).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.edges.len() * 48);
        let _ = writeln!(s, "PASTIS-BCKPT {BASELINE_CKPT_SCHEMA_VERSION}");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "units {} {}", self.units_done, self.units);
        for (name, v) in &self.counters {
            let _ = writeln!(s, "counter {name} {v}");
        }
        for e in &self.edges {
            let _ = writeln!(
                s,
                "edge {} {} {} {:08x} {:08x} {}",
                e.i,
                e.j,
                e.score,
                e.ani.to_bits(),
                e.coverage.to_bits(),
                e.common_kmers
            );
        }
        let crc = crc32(s.as_bytes());
        let _ = writeln!(s, "end {crc:08x}");
        s
    }

    /// Parse and CRC-check a schema-v1 baseline checkpoint.
    ///
    /// # Errors
    ///
    /// Bad magic, wrong schema version, CRC mismatch (torn write), or a
    /// malformed line — the caller treats any of these as "no checkpoint".
    pub fn parse(text: &str) -> Result<BaselineCheckpoint, String> {
        let body_end = text
            .rfind("end ")
            .ok_or_else(|| "baseline checkpoint missing end trailer".to_string())?;
        let trailer = text[body_end..].strip_prefix("end ").unwrap().trim();
        let want_crc = u32::from_str_radix(trailer, 16)
            .map_err(|_| format!("bad baseline checkpoint crc trailer: {trailer:?}"))?;
        let body = &text[..body_end];
        if crc32(body.as_bytes()) != want_crc {
            return Err("baseline checkpoint crc mismatch".into());
        }

        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        let version: u32 = magic
            .strip_prefix("PASTIS-BCKPT ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad baseline checkpoint magic: {magic:?}"))?;
        if version != BASELINE_CKPT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported baseline checkpoint schema version {version}"
            ));
        }

        let fp_line = lines
            .next()
            .and_then(|l| l.strip_prefix("fingerprint "))
            .ok_or("baseline checkpoint missing fingerprint")?;
        let fingerprint = u64::from_str_radix(fp_line.trim(), 16)
            .map_err(|_| "bad fingerprint in baseline checkpoint".to_string())?;

        let units_line = lines
            .next()
            .and_then(|l| l.strip_prefix("units "))
            .ok_or("baseline checkpoint missing units")?;
        let mut it = units_line.split_whitespace();
        let parse_usize = |tok: Option<&str>, what: &str| -> Result<usize, String> {
            tok.ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|_| format!("bad {what} in baseline checkpoint"))
        };
        let units_done = parse_usize(it.next(), "units_done")?;
        let units = parse_usize(it.next(), "units")?;

        let mut counters = Vec::new();
        let mut edges = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("counter ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or("counter line missing name")?.to_string();
                let v: u64 = it
                    .next()
                    .ok_or("counter line missing value")?
                    .parse()
                    .map_err(|_| "bad counter value in baseline checkpoint".to_string())?;
                counters.push((name, v));
            } else if let Some(rest) = line.strip_prefix("edge ") {
                let mut it = rest.split_whitespace();
                let num = |it: &mut std::str::SplitWhitespace<'_>, what: &str| {
                    it.next()
                        .ok_or_else(|| format!("edge line missing {what}"))
                        .map(str::to_string)
                };
                let i: u32 = num(&mut it, "i")?.parse().map_err(|_| "bad edge i")?;
                let j: u32 = num(&mut it, "j")?.parse().map_err(|_| "bad edge j")?;
                let score: i32 = num(&mut it, "score")?.parse().map_err(|_| "bad score")?;
                let ani = u32::from_str_radix(&num(&mut it, "ani")?, 16)
                    .map(f32::from_bits)
                    .map_err(|_| "bad ani bits")?;
                let coverage = u32::from_str_radix(&num(&mut it, "coverage")?, 16)
                    .map(f32::from_bits)
                    .map_err(|_| "bad coverage bits")?;
                let common_kmers: u32 = num(&mut it, "common_kmers")?
                    .parse()
                    .map_err(|_| "bad common_kmers")?;
                edges.push(SimilarityEdge {
                    i,
                    j,
                    score,
                    ani,
                    coverage,
                    common_kmers,
                });
            } else {
                return Err(format!("unexpected baseline checkpoint line: {line:?}"));
            }
        }
        Ok(BaselineCheckpoint {
            fingerprint,
            units_done,
            units,
            counters,
            edges,
        })
    }

    /// Look up a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// The file the checkpoint for `units_done` completed units lives in.
pub fn baseline_ckpt_path(dir: &Path, units_done: usize) -> PathBuf {
    dir.join(format!("unit{units_done:06}.bckpt"))
}

/// Atomically persist `ck` under `dir`.
///
/// # Errors
///
/// I/O failures, with the path in the message.
pub fn save(dir: &Path, ck: &BaselineCheckpoint) -> Result<PathBuf, String> {
    let path = baseline_ckpt_path(dir, ck.units_done);
    write_atomic(&path, ck.to_text())?;
    Ok(path)
}

/// The newest valid checkpoint under `dir` matching `fingerprint` and the
/// run's unit decomposition. Corrupt, foreign, or torn files are skipped.
pub fn latest_valid(dir: &Path, units: usize, fingerprint: u64) -> Option<BaselineCheckpoint> {
    let mut counts: Vec<usize> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("unit")?
                .strip_suffix(".bckpt")?
                .parse()
                .ok()
        })
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    for count in counts {
        let path = baseline_ckpt_path(dir, count);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        match BaselineCheckpoint::parse(&text) {
            Ok(ck)
                if ck.fingerprint == fingerprint && ck.units == units && ck.units_done == count =>
            {
                return Some(ck);
            }
            _ => continue,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BaselineCheckpoint {
        BaselineCheckpoint {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            units_done: 2,
            units: 4,
            counters: vec![
                ("prefilter_candidates".into(), 99),
                ("aligned_pairs".into(), 17),
            ],
            edges: vec![SimilarityEdge {
                i: 1,
                j: 3,
                score: 42,
                ani: 0.75,
                coverage: 0.5,
                common_kmers: 2,
            }],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ck = sample();
        let parsed = BaselineCheckpoint::parse(&ck.to_text()).unwrap();
        assert_eq!(parsed, ck);
        assert_eq!(parsed.to_text(), ck.to_text());
        assert_eq!(parsed.counter("aligned_pairs"), 17);
        assert_eq!(parsed.counter("missing"), 0);
    }

    #[test]
    fn crc_rejects_tampering() {
        let text = sample().to_text().replacen("units 2 4", "units 3 4", 1);
        assert!(BaselineCheckpoint::parse(&text)
            .unwrap_err()
            .contains("crc"));
    }

    #[test]
    fn pipeline_checkpoints_are_not_confused_for_baseline_ones() {
        // A pastis-core pipeline checkpoint has a different magic; even a
        // structurally valid one must be rejected here.
        let text = sample()
            .to_text()
            .replacen("PASTIS-BCKPT", "PASTIS-CKPT", 1);
        assert!(BaselineCheckpoint::parse(&text).is_err());
    }

    #[test]
    fn latest_valid_skips_corrupt_and_foreign() {
        let dir = std::env::temp_dir().join(format!("pastis-bckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut ck = sample();
        ck.units_done = 1;
        save(&dir, &ck).unwrap();
        ck.units_done = 2;
        save(&dir, &ck).unwrap();
        fs::write(baseline_ckpt_path(&dir, 3), "garbage").unwrap();
        let got = latest_valid(&dir, ck.units, ck.fingerprint).unwrap();
        assert_eq!(got.units_done, 2);
        assert!(latest_valid(&dir, ck.units, 7).is_none(), "foreign fp");
        assert!(
            latest_valid(&dir, 9, ck.fingerprint).is_none(),
            "foreign decomposition"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
