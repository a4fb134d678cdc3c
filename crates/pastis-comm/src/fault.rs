//! Deterministic fault injection: [`FaultyComm`] wraps any [`Communicator`]
//! and perturbs it according to a seeded [`FaultPlan`].
//!
//! The paper's production runs (405M sequences over 3364 Summit nodes)
//! operate in a regime where message delays, dropped/corrupted transfers,
//! rank stalls, and outright rank deaths are routine. This module gives the
//! reproduction a *reproducible* chaos harness: every fault decision is a
//! pure function of `(plan.seed, home rank, per-rank op index, fault kind)`,
//! so a chaos run can be replayed bit-for-bit from its seed.
//!
//! Injected faults and how they surface:
//!
//! * **Delays** — the calling rank sleeps before the op. Timing shifts only;
//!   outputs are unchanged (this is what makes chaos convergence testable).
//! * **Drops** — point-to-point sends are preceded by a `Dropped` marker
//!   frame, modelling a lost message whose retransmission timeout fired.
//!   The receiver retries and counts a retry.
//! * **Corruption** — point-to-point sends are preceded by a `Garbled` frame
//!   whose CRC cannot validate. The receiver's CRC check rejects it and
//!   retries. (Payloads are type-erased clones, not byte buffers, so the
//!   CRC covers the frame header and stands in for a payload checksum.)
//! * **Stall** — one rank sleeps once, at one op index, for a configured
//!   time: a transient straggler.
//! * **Crash** — one rank panics with [`CommError::RankDead`] at one op
//!   index: a hard failure. Surviving ranks observe it as bounded-wait
//!   timeouts ([`CommError::Timeout`] / [`CommError::Closed`]).
//!
//! Damaged copies are always sent *before* the good frame ("retransmit
//! ahead"), so the retry counts are deterministic and the final payload
//! always arrives — chaos runs converge to the fault-free result, which the
//! chaos suite asserts bit-for-bit.
//!
//! Fault counters are mirrored into a [`Recorder`] (`fault.delays`,
//! `fault.drops`, `fault.corrupts`, `fault.crc_rejects`, `fault.retries`,
//! `fault.stalls`) so they appear in the metrics JSON next to the span and
//! comm telemetry.

use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pastis_trace::{names, Recorder};

use crate::communicator::{CommError, CommStatsSnapshot, Communicator, Payload};

// ---------------------------------------------------------------------------
// Deterministic draws
// ---------------------------------------------------------------------------

/// SplitMix64 mixer: the standard finalizer used to derive independent
/// streams from a seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed on (seed, rank, op index, fault kind).
fn unit_draw(seed: u64, rank: u64, op: u64, salt: u64) -> f64 {
    let mut h = splitmix64(seed ^ rank.wrapping_mul(0xA24B_AED4_963E_E407));
    h = splitmix64(h ^ op.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    h = splitmix64(h ^ salt);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_DELAY: u64 = 1;
const SALT_DELAY_FRAC: u64 = 2;
const SALT_DROP: u64 = 3;
const SALT_CORRUPT: u64 = 4;
const SALT_SPILL_CORRUPT: u64 = 5;
const SALT_SPILL_CORRUPT_POS: u64 = 6;
const SALT_SPILL_DISK_FULL: u64 = 7;
const SALT_SPILL_SHORT: u64 = 8;
const SALT_SPILL_SHORT_FRAC: u64 = 9;
const SALT_SPILL_STALL: u64 = 10;
const SALT_SPILL_STALL_FRAC: u64 = 11;

// ---------------------------------------------------------------------------
// CRC framing
// ---------------------------------------------------------------------------

/// The reflected IEEE CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0]` is the classic byte table, and
/// `CRC32_TABLES[k][b]` advances the CRC of byte `b` over `k` further zero
/// bytes, so eight input bytes fold into the register with eight
/// independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (reflected, polynomial 0xEDB88320), the classic IEEE CRC, eight
/// bytes per step. Frames every on-disk document and p2p frame, so its
/// values are part of those formats.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Body of a point-to-point frame.
#[derive(Clone)]
enum FrameBody<T> {
    /// The real payload.
    Payload(T),
    /// An injected-corruption copy: bits damaged beyond recovery.
    Garbled,
    /// An injected-drop marker: models a message lost on the wire whose
    /// retransmission timeout fired at the receiver.
    Dropped,
}

impl<T> FrameBody<T> {
    fn tag(&self) -> u8 {
        match self {
            FrameBody::Payload(_) => 0,
            FrameBody::Garbled => 1,
            FrameBody::Dropped => 2,
        }
    }
}

/// A CRC-checked point-to-point frame. `FaultyComm` transports every
/// `send_to` payload inside one of these.
#[derive(Clone)]
struct Frame<T> {
    src: u32,
    dst: u32,
    seq: u64,
    crc: u32,
    body: FrameBody<T>,
}

/// CRC over the frame header plus body tag (payloads are type-erased clones,
/// so the header checksum stands in for a payload checksum).
fn frame_crc(src: u32, dst: u32, seq: u64, tag: u8) -> u32 {
    let mut buf = [0u8; 17];
    buf[0..4].copy_from_slice(&src.to_le_bytes());
    buf[4..8].copy_from_slice(&dst.to_le_bytes());
    buf[8..16].copy_from_slice(&seq.to_le_bytes());
    buf[16] = tag;
    crc32(&buf)
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// A transient stall: `rank` sleeps `millis` once, at op index `at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallFault {
    /// The stalling (world) rank.
    pub rank: usize,
    /// The per-rank communicator-op index at which the stall fires.
    pub at_op: u64,
    /// Stall duration in milliseconds.
    pub millis: u64,
}

/// A hard crash: `rank` panics with [`CommError::RankDead`] at op `at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The crashing (world) rank.
    pub rank: usize,
    /// The per-rank communicator-op index at which the crash fires.
    pub at_op: u64,
}

/// A seeded, fully deterministic fault schedule.
///
/// Every decision is a pure function of `(seed, home rank, op index)`, so
/// two runs with the same plan inject byte-identical fault sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic draws.
    pub seed: u64,
    /// Per-op probability of an injected delay.
    pub delay_p: f64,
    /// Maximum injected delay in microseconds (actual delay is a
    /// deterministic fraction of this).
    pub max_delay_us: u64,
    /// Per-message probability of an injected drop (p2p only).
    pub drop_p: f64,
    /// Per-message probability of an injected corruption (p2p only).
    pub corrupt_p: f64,
    /// Optional transient stall.
    pub stall: Option<StallFault>,
    /// Optional hard crash.
    pub crash: Option<CrashFault>,
    /// Per-spill-write probability of an injected single-byte corruption
    /// ([`FaultyStore`] only).
    pub spill_corrupt_p: f64,
    /// Per-spill-write probability of an injected disk-full failure
    /// ([`FaultyStore`] only).
    pub spill_disk_full_p: f64,
    /// Per-spill-write probability of an injected short (truncated) write
    /// ([`FaultyStore`] only).
    pub spill_short_p: f64,
    /// Per-spill-write probability of an injected stall
    /// ([`FaultyStore`] only).
    pub spill_stall_p: f64,
    /// Maximum injected spill-write stall in microseconds (actual stall is
    /// a deterministic fraction of this).
    pub spill_stall_us: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing. Wrapping a communicator with it is a
    /// strict no-op (pinned by the chaos proptest suite).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            delay_p: 0.0,
            max_delay_us: 0,
            drop_p: 0.0,
            corrupt_p: 0.0,
            stall: None,
            crash: None,
            spill_corrupt_p: 0.0,
            spill_disk_full_p: 0.0,
            spill_short_p: 0.0,
            spill_stall_p: 0.0,
            spill_stall_us: 0,
        }
    }

    /// A representative chaos preset: 20% delays up to 2 ms, 10% drops,
    /// 10% corruptions, no stall/crash, no spill faults.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_p: 0.2,
            max_delay_us: 2000,
            drop_p: 0.1,
            corrupt_p: 0.1,
            ..FaultPlan::none()
        }
    }

    /// `true` when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        (self.delay_p <= 0.0 || self.max_delay_us == 0)
            && self.drop_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.stall.is_none()
            && self.crash.is_none()
            && !self.has_spill_faults()
    }

    /// `true` when the plan can inject spill-write faults
    /// (the [`FaultyStore`] family).
    pub fn has_spill_faults(&self) -> bool {
        self.spill_corrupt_p > 0.0
            || self.spill_disk_full_p > 0.0
            || self.spill_short_p > 0.0
            || (self.spill_stall_p > 0.0 && self.spill_stall_us > 0)
    }

    /// Parse a plan from its compact CLI spec, e.g.
    /// `seed=42,delay=0.2:2000,drop=0.1,corrupt=0.1,stall=1@5:50,crash=2@40`.
    ///
    /// Fields: `seed=N`; `delay=P:MAX_US`; `drop=P`; `corrupt=P`;
    /// `stall=RANK@OP:MILLIS`; `crash=RANK@OP`. Omitted fields default to
    /// "never". The single word `chaos` (optionally `chaos:SEED`) expands to
    /// [`FaultPlan::chaos`].
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(FaultPlan::none());
        }
        if let Some(rest) = spec.strip_prefix("chaos") {
            let seed = match rest.strip_prefix(':') {
                None if rest.is_empty() => 0,
                Some(s) => s
                    .parse()
                    .map_err(|_| format!("bad chaos seed in fault plan: {s:?}"))?,
                _ => return Err(format!("bad fault plan spec: {spec:?}")),
            };
            return Ok(FaultPlan::chaos(seed));
        }
        let mut plan = FaultPlan::none();
        for field in spec.split(',') {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("bad fault plan field (want key=value): {field:?}"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = val
                        .parse()
                        .map_err(|_| format!("bad seed in fault plan: {val:?}"))?;
                }
                "delay" => {
                    let (p, us) = val
                        .split_once(':')
                        .ok_or_else(|| format!("bad delay (want P:MAX_US): {val:?}"))?;
                    plan.delay_p = parse_prob("delay", p)?;
                    plan.max_delay_us = us
                        .parse()
                        .map_err(|_| format!("bad delay microseconds: {us:?}"))?;
                }
                "drop" => plan.drop_p = parse_prob("drop", val)?,
                "corrupt" => plan.corrupt_p = parse_prob("corrupt", val)?,
                "spill_corrupt" => plan.spill_corrupt_p = parse_prob("spill_corrupt", val)?,
                "spill_disk_full" => plan.spill_disk_full_p = parse_prob("spill_disk_full", val)?,
                "spill_short" => plan.spill_short_p = parse_prob("spill_short", val)?,
                "spill_stall" => {
                    let (p, us) = val
                        .split_once(':')
                        .ok_or_else(|| format!("bad spill_stall (want P:MAX_US): {val:?}"))?;
                    plan.spill_stall_p = parse_prob("spill_stall", p)?;
                    plan.spill_stall_us = us
                        .parse()
                        .map_err(|_| format!("bad spill_stall microseconds: {us:?}"))?;
                }
                "stall" => {
                    let (rank, rest) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad stall (want RANK@OP:MILLIS): {val:?}"))?;
                    let (op, ms) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("bad stall (want RANK@OP:MILLIS): {val:?}"))?;
                    plan.stall = Some(StallFault {
                        rank: rank
                            .parse()
                            .map_err(|_| format!("bad stall rank: {rank:?}"))?,
                        at_op: op.parse().map_err(|_| format!("bad stall op: {op:?}"))?,
                        millis: ms
                            .parse()
                            .map_err(|_| format!("bad stall millis: {ms:?}"))?,
                    });
                }
                "crash" => {
                    let (rank, op) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad crash (want RANK@OP): {val:?}"))?;
                    plan.crash = Some(CrashFault {
                        rank: rank
                            .parse()
                            .map_err(|_| format!("bad crash rank: {rank:?}"))?,
                        at_op: op.parse().map_err(|_| format!("bad crash op: {op:?}"))?,
                    });
                }
                other => return Err(format!("unknown fault plan field: {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The compact spec string [`FaultPlan::parse`] accepts;
    /// `parse(to_spec()) == self` for plans with exactly-representable
    /// probabilities.
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        if self.delay_p > 0.0 && self.max_delay_us > 0 {
            out.push_str(&format!(",delay={}:{}", self.delay_p, self.max_delay_us));
        }
        if self.drop_p > 0.0 {
            out.push_str(&format!(",drop={}", self.drop_p));
        }
        if self.corrupt_p > 0.0 {
            out.push_str(&format!(",corrupt={}", self.corrupt_p));
        }
        if let Some(s) = self.stall {
            out.push_str(&format!(",stall={}@{}:{}", s.rank, s.at_op, s.millis));
        }
        if let Some(c) = self.crash {
            out.push_str(&format!(",crash={}@{}", c.rank, c.at_op));
        }
        if self.spill_corrupt_p > 0.0 {
            out.push_str(&format!(",spill_corrupt={}", self.spill_corrupt_p));
        }
        if self.spill_disk_full_p > 0.0 {
            out.push_str(&format!(",spill_disk_full={}", self.spill_disk_full_p));
        }
        if self.spill_short_p > 0.0 {
            out.push_str(&format!(",spill_short={}", self.spill_short_p));
        }
        if self.spill_stall_p > 0.0 && self.spill_stall_us > 0 {
            out.push_str(&format!(
                ",spill_stall={}:{}",
                self.spill_stall_p, self.spill_stall_us
            ));
        }
        out
    }

    /// The injected delay (if any) for op `op` on `rank`.
    fn delay_for(&self, rank: usize, op: u64) -> Option<Duration> {
        if self.delay_p <= 0.0 || self.max_delay_us == 0 {
            return None;
        }
        let rank = rank as u64;
        if unit_draw(self.seed, rank, op, SALT_DELAY) >= self.delay_p {
            return None;
        }
        let frac = unit_draw(self.seed, rank, op, SALT_DELAY_FRAC);
        Some(Duration::from_micros(
            1 + (frac * self.max_delay_us as f64) as u64,
        ))
    }

    fn should_drop(&self, rank: usize, op: u64) -> bool {
        self.drop_p > 0.0 && unit_draw(self.seed, rank as u64, op, SALT_DROP) < self.drop_p
    }

    fn should_corrupt(&self, rank: usize, op: u64) -> bool {
        self.corrupt_p > 0.0 && unit_draw(self.seed, rank as u64, op, SALT_CORRUPT) < self.corrupt_p
    }
}

fn parse_prob(what: &str, s: &str) -> Result<f64, String> {
    let p: f64 = s
        .parse()
        .map_err(|_| format!("bad {what} probability: {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} probability out of [0,1]: {p}"));
    }
    Ok(p)
}

// ---------------------------------------------------------------------------
// Fault counters
// ---------------------------------------------------------------------------

/// Counters of injected faults and the recovery work they caused.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Injected delays executed.
    pub delays: AtomicU64,
    /// Injected transient stalls executed.
    pub stalls: AtomicU64,
    /// Drop markers sent (each models one lost message).
    pub drops: AtomicU64,
    /// Garbled frames sent (each models one corrupted message).
    pub corrupts: AtomicU64,
    /// Frames the receiver rejected on CRC mismatch.
    pub crc_rejects: AtomicU64,
    /// Extra receive attempts caused by rejected or dropped frames.
    pub retries: AtomicU64,
}

impl FaultStats {
    /// Snapshot into a plain struct.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            delays: self.delays.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            corrupts: self.corrupts.load(Ordering::Relaxed),
            crc_rejects: self.crc_rejects.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Injected delays executed.
    pub delays: u64,
    /// Injected transient stalls executed.
    pub stalls: u64,
    /// Drop markers sent.
    pub drops: u64,
    /// Garbled frames sent.
    pub corrupts: u64,
    /// Frames rejected on CRC mismatch.
    pub crc_rejects: u64,
    /// Extra receive attempts.
    pub retries: u64,
}

impl FaultStatsSnapshot {
    /// `true` when no fault fired and no recovery work happened.
    pub fn is_clean(&self) -> bool {
        *self == FaultStatsSnapshot::default()
    }
}

// ---------------------------------------------------------------------------
// The wrapper
// ---------------------------------------------------------------------------

/// Maximum receive attempts per logical message before giving up with
/// [`CommError::Corrupt`]. Each send emits at most two damaged copies before
/// the good frame, so this bound is generous.
const MAX_RECV_ATTEMPTS: u32 = 16;

/// A communicator wrapper that deterministically injects faults from a
/// seeded [`FaultPlan`] (see the module docs for the fault taxonomy).
///
/// Stacking order with telemetry: wrap the fault layer *inside* the traced
/// layer — `TracedComm<FaultyComm<C>>` — so retransmitted frames do not
/// produce extra trace events and an empty plan leaves the trace
/// byte-identical.
pub struct FaultyComm<C: Communicator> {
    inner: C,
    plan: Arc<FaultPlan>,
    /// World rank at wrap time: fault decisions stay keyed on it across
    /// `split`, so a rank's schedule does not depend on communicator shape.
    home_rank: usize,
    /// Per-rank-thread op counter, shared across splits of the same rank.
    ops: Arc<AtomicU64>,
    /// Per-destination p2p sequence numbers (this communicator only).
    send_seq: Vec<AtomicU64>,
    stats: Arc<FaultStats>,
    recorder: Recorder,
}

impl<C: Communicator> FaultyComm<C> {
    /// Wrap `inner`, injecting faults per `plan`. Fault decisions are keyed
    /// on `inner.rank()` at wrap time (the home rank).
    pub fn new(inner: C, plan: FaultPlan) -> FaultyComm<C> {
        let home_rank = inner.rank();
        let size = inner.size();
        FaultyComm {
            inner,
            plan: Arc::new(plan),
            home_rank,
            ops: Arc::new(AtomicU64::new(0)),
            send_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
            stats: Arc::new(FaultStats::default()),
            recorder: Recorder::disabled(),
        }
    }

    /// Mirror fault counters into `recorder` (`fault.*` metric names).
    pub fn with_recorder(mut self, recorder: Recorder) -> FaultyComm<C> {
        self.recorder = recorder;
        self
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwrap into the underlying communicator.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the fault counters (shared across splits of this rank).
    pub fn fault_stats(&self) -> FaultStatsSnapshot {
        self.stats.snapshot()
    }

    fn bump(&self, ctr: &AtomicU64, name: &'static str) {
        ctr.fetch_add(1, Ordering::Relaxed);
        self.recorder.add_counter(name, 1.0);
    }

    /// Advance the op counter and apply crash/stall/delay for this op.
    /// Returns the op index (used to key p2p drop/corrupt draws).
    fn on_op(&self) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.plan.is_noop() {
            return op;
        }
        if let Some(c) = self.plan.crash {
            if c.rank == self.home_rank && op == c.at_op {
                let e = CommError::RankDead {
                    rank: self.home_rank,
                    at_op: op,
                };
                panic!("{e}");
            }
        }
        if let Some(s) = self.plan.stall {
            if s.rank == self.home_rank && op == s.at_op {
                self.bump(&self.stats.stalls, names::CTR_FAULT_STALLS);
                thread::sleep(Duration::from_millis(s.millis));
            }
        }
        if let Some(d) = self.plan.delay_for(self.home_rank, op) {
            self.bump(&self.stats.delays, names::CTR_FAULT_DELAYS);
            thread::sleep(d);
        }
        op
    }

    /// Receive frames from `src` until one validates; damaged and dropped
    /// frames count retries. `timeout` bounds each attempt.
    fn framed_recv<T: Payload>(
        &self,
        src: usize,
        timeout: Option<Duration>,
    ) -> Result<T, CommError> {
        let mut rejects = 0u32;
        for _ in 0..MAX_RECV_ATTEMPTS {
            let frame: Frame<T> = match timeout {
                None => self.inner.recv_from(src),
                Some(t) => self.inner.recv_from_deadline(src, t)?,
            };
            let expect = frame_crc(frame.src, frame.dst, frame.seq, frame.body.tag());
            if frame.crc != expect {
                rejects += 1;
                self.bump(&self.stats.crc_rejects, names::CTR_FAULT_CRC_REJECTS);
                self.bump(&self.stats.retries, names::CTR_FAULT_RETRIES);
                continue;
            }
            match frame.body {
                FrameBody::Payload(v) => return Ok(v),
                // A garbled body with a valid CRC is never produced, but a
                // defensive reject keeps the invariant "CRC-valid payloads
                // only" in one place.
                FrameBody::Garbled => {
                    rejects += 1;
                    self.bump(&self.stats.crc_rejects, names::CTR_FAULT_CRC_REJECTS);
                    self.bump(&self.stats.retries, names::CTR_FAULT_RETRIES);
                }
                FrameBody::Dropped => {
                    self.bump(&self.stats.retries, names::CTR_FAULT_RETRIES);
                }
            }
        }
        Err(CommError::Corrupt {
            op: "recv_from",
            rank: self.inner.rank(),
            src,
            rejects,
        })
    }
}

impl<C: Communicator> Communicator for FaultyComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn barrier(&self) {
        self.on_op();
        self.inner.barrier();
    }

    fn barrier_deadline(&self, timeout: Duration) -> Result<(), CommError> {
        self.on_op();
        self.inner.barrier_deadline(timeout)
    }

    fn broadcast<T: Payload>(&self, root: usize, value: T, nbytes: usize) -> T {
        self.on_op();
        self.inner.broadcast(root, value, nbytes)
    }

    fn all_gather<T: Payload>(&self, value: T) -> Vec<T> {
        self.on_op();
        self.inner.all_gather(value)
    }

    fn gather<T: Payload>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.on_op();
        self.inner.gather(root, value)
    }

    fn all_to_allv<T: Payload>(&self, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.on_op();
        self.inner.all_to_allv(parts)
    }

    fn send_to<T: Payload>(&self, dst: usize, value: T, nbytes: usize) {
        let op = self.on_op();
        let src = self.inner.rank() as u32;
        let dst32 = dst as u32;
        let seq = self.send_seq[dst].fetch_add(1, Ordering::Relaxed);
        // Damaged copies go out *before* the good frame, so delivery (and
        // therefore the final output) never depends on the fault draw.
        if self.plan.should_corrupt(self.home_rank, op) {
            self.bump(&self.stats.corrupts, names::CTR_FAULT_CORRUPTS);
            let frame = Frame::<T> {
                src,
                dst: dst32,
                seq,
                crc: !frame_crc(src, dst32, seq, 1),
                body: FrameBody::Garbled,
            };
            self.inner.send_to(dst, frame, 0);
        }
        if self.plan.should_drop(self.home_rank, op) {
            self.bump(&self.stats.drops, names::CTR_FAULT_DROPS);
            let frame = Frame::<T> {
                src,
                dst: dst32,
                seq,
                crc: frame_crc(src, dst32, seq, 2),
                body: FrameBody::Dropped,
            };
            self.inner.send_to(dst, frame, 0);
        }
        let frame = Frame {
            src,
            dst: dst32,
            seq,
            crc: frame_crc(src, dst32, seq, 0),
            body: FrameBody::Payload(value),
        };
        self.inner.send_to(dst, frame, nbytes);
    }

    fn recv_from<T: Payload>(&self, src: usize) -> T {
        self.on_op();
        match self.framed_recv(src, None) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    fn recv_from_deadline<T: Payload>(
        &self,
        src: usize,
        timeout: Duration,
    ) -> Result<T, CommError> {
        self.on_op();
        self.framed_recv(src, Some(timeout))
    }

    fn split(&self, color: usize, key: usize) -> Self {
        // The split itself is a collective (an op), and the child shares this
        // rank's op counter, plan, stats, and recorder: a rank's fault
        // schedule is one stream regardless of communicator shape.
        self.on_op();
        let inner = self.inner.split(color, key);
        let size = inner.size();
        FaultyComm {
            inner,
            plan: Arc::clone(&self.plan),
            home_rank: self.home_rank,
            ops: Arc::clone(&self.ops),
            send_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
            stats: Arc::clone(&self.stats),
            recorder: self.recorder.clone(),
        }
    }

    fn stats(&self) -> CommStatsSnapshot {
        self.inner.stats()
    }
}

// ---------------------------------------------------------------------------
// The spill-store wrapper
// ---------------------------------------------------------------------------

/// Counters of injected spill-write faults ([`FaultyStore`]).
#[derive(Debug, Default)]
pub struct StoreFaultStats {
    /// Single-byte corruptions injected into written shards.
    pub corrupts: AtomicU64,
    /// Writes failed with an injected disk-full error.
    pub disk_full: AtomicU64,
    /// Writes truncated by an injected short write.
    pub short_writes: AtomicU64,
    /// Injected write stalls executed.
    pub stalls: AtomicU64,
}

/// Plain-value snapshot of [`StoreFaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFaultStatsSnapshot {
    /// Single-byte corruptions injected.
    pub corrupts: u64,
    /// Injected disk-full failures.
    pub disk_full: u64,
    /// Injected short writes.
    pub short_writes: u64,
    /// Injected stalls executed.
    pub stalls: u64,
}

impl StoreFaultStatsSnapshot {
    /// `true` when no spill fault fired.
    pub fn is_clean(&self) -> bool {
        *self == StoreFaultStatsSnapshot::default()
    }
}

impl StoreFaultStats {
    /// Snapshot into a plain struct.
    pub fn snapshot(&self) -> StoreFaultStatsSnapshot {
        StoreFaultStatsSnapshot {
            corrupts: self.corrupts.load(Ordering::Relaxed),
            disk_full: self.disk_full.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }
}

/// [`FaultyComm`]'s sibling for spill I/O: a file store that
/// deterministically injects disk-full, short-write, corruption, and stall
/// faults into atomic writes, per the `spill_*` fields of a [`FaultPlan`].
///
/// Fault decisions are keyed on `(seed, home rank, write index, kind)` via
/// the same splitmix64 draws as the communicator faults, but on an
/// independent op stream — a plan injects the same spill schedule whether
/// or not comm faults also fire. Reads are never perturbed: damage is
/// discovered the honest way, by the caller's CRC check on readback.
///
/// Injected damage is always *detectable*: a corrupted or truncated shard
/// fails its CRC frame on readback, and a disk-full write surfaces as an
/// `Err` the caller keeps the data in memory over. Counters are mirrored
/// into the [`Recorder`] as `fault.spill.*`.
pub struct FaultyStore {
    plan: Arc<FaultPlan>,
    home_rank: usize,
    writes: AtomicU64,
    stats: Arc<StoreFaultStats>,
    recorder: Recorder,
}

impl FaultyStore {
    /// A store injecting faults per `plan`, keyed on `home_rank`.
    pub fn new(plan: FaultPlan, home_rank: usize) -> FaultyStore {
        FaultyStore {
            plan: Arc::new(plan),
            home_rank,
            writes: AtomicU64::new(0),
            stats: Arc::new(StoreFaultStats::default()),
            recorder: Recorder::disabled(),
        }
    }

    /// Mirror spill-fault counters into `recorder` (`fault.spill.*`).
    pub fn with_recorder(mut self, recorder: Recorder) -> FaultyStore {
        self.recorder = recorder;
        self
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the spill-fault counters.
    pub fn fault_stats(&self) -> StoreFaultStatsSnapshot {
        self.stats.snapshot()
    }

    fn bump(&self, ctr: &AtomicU64, name: &'static str) {
        ctr.fetch_add(1, Ordering::Relaxed);
        self.recorder.add_counter(name, 1.0);
    }

    fn draw(&self, op: u64, salt: u64) -> f64 {
        unit_draw(self.plan.seed, self.home_rank as u64, op, salt)
    }

    /// Write `content` to `path` atomically (sibling `.tmp` + rename),
    /// applying the plan's spill faults to this write.
    ///
    /// # Errors
    ///
    /// Real I/O failures and injected disk-full failures, with the path in
    /// the message. An `Err` means nothing replaced `path`; the caller
    /// keeps its in-memory copy. Injected corruption and short writes
    /// *succeed* — the damage is caught by the caller's CRC on readback.
    pub fn write_atomic(&self, path: &Path, content: &str) -> Result<(), String> {
        let op = self.writes.fetch_add(1, Ordering::Relaxed);
        if !self.plan.has_spill_faults() {
            return write_file_atomic(path, content.as_bytes());
        }
        let mut bytes = content.as_bytes().to_vec();
        if self.plan.spill_stall_p > 0.0
            && self.plan.spill_stall_us > 0
            && self.draw(op, SALT_SPILL_STALL) < self.plan.spill_stall_p
        {
            self.bump(&self.stats.stalls, names::CTR_FAULT_SPILL_STALLS);
            let frac = self.draw(op, SALT_SPILL_STALL_FRAC);
            thread::sleep(Duration::from_micros(
                1 + (frac * self.plan.spill_stall_us as f64) as u64,
            ));
        }
        if self.plan.spill_disk_full_p > 0.0
            && self.draw(op, SALT_SPILL_DISK_FULL) < self.plan.spill_disk_full_p
        {
            self.bump(&self.stats.disk_full, names::CTR_FAULT_SPILL_DISK_FULL);
            return Err(format!(
                "injected disk-full writing {} (spill write {op})",
                path.display()
            ));
        }
        if !bytes.is_empty()
            && self.plan.spill_short_p > 0.0
            && self.draw(op, SALT_SPILL_SHORT) < self.plan.spill_short_p
        {
            self.bump(
                &self.stats.short_writes,
                names::CTR_FAULT_SPILL_SHORT_WRITES,
            );
            let keep = (self.draw(op, SALT_SPILL_SHORT_FRAC) * bytes.len() as f64) as usize;
            bytes.truncate(keep.min(bytes.len().saturating_sub(1)));
        }
        if !bytes.is_empty()
            && self.plan.spill_corrupt_p > 0.0
            && self.draw(op, SALT_SPILL_CORRUPT) < self.plan.spill_corrupt_p
        {
            self.bump(&self.stats.corrupts, names::CTR_FAULT_SPILL_CORRUPTS);
            let pos = (self.draw(op, SALT_SPILL_CORRUPT_POS) * bytes.len() as f64) as usize;
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= 0x01;
        }
        write_file_atomic(path, &bytes)
    }

    /// Read a shard back. Never fault-injected: spilled damage is caught by
    /// the caller's CRC check, exactly like a real torn disk.
    ///
    /// # Errors
    ///
    /// Real I/O failures, with the path in the message.
    pub fn read_to_string(&self, path: &Path) -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
    }

    /// Whether the file at `path` holds exactly `content`: the read-back
    /// check of a write that must not be lost. Compared a block at a time,
    /// so verifying a shard costs no allocation of its size. Never
    /// fault-injected, like [`FaultyStore::read_to_string`]; an I/O error
    /// is a `false`.
    pub fn holds(&self, path: &Path, content: &str) -> bool {
        let Ok(mut file) = std::fs::File::open(path) else {
            return false;
        };
        let mut want = content.as_bytes();
        let mut block = [0u8; 1 << 16];
        loop {
            match file.read(&mut block) {
                Ok(0) => return want.is_empty(),
                Ok(n) if want.len() >= n && want[..n] == block[..n] => want = &want[n..],
                Ok(_) => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// Write `bytes` to `path` via a sibling `.tmp` + rename, creating parent
/// directories. A killed process leaves the old file or a stray `.tmp`,
/// never a torn target.
fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let parent = path
        .parent()
        .ok_or_else(|| format!("spill path has no parent: {}", path.display()))?;
    std::fs::create_dir_all(parent).map_err(|e| format!("creating {}: {e}", parent.display()))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::ReduceOp;
    use crate::local::SelfComm;
    use crate::threaded::{run_threaded, run_threaded_with, CommConfig, ThreadedComm};

    /// The bit-at-a-time definition the table-driven [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_tables_equal_the_bitwise_definition() {
        // Every length around the eight-byte step, at every alignment of
        // the tail, plus long random buffers.
        let mut state = 0x5C22u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        };
        for len in (0..=64).chain([255, 256, 1000, 4097, 65_543]) {
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
        let buf: Vec<u8> = (0..300).map(|_| next()).collect();
        for start in 0..16 {
            assert_eq!(
                crc32(&buf[start..]),
                crc32_bitwise(&buf[start..]),
                "offset {start}"
            );
        }
    }

    #[test]
    fn unit_draw_is_deterministic_and_uniform_ish() {
        let a = unit_draw(42, 1, 7, SALT_DROP);
        let b = unit_draw(42, 1, 7, SALT_DROP);
        assert_eq!(a, b);
        assert!(unit_draw(42, 1, 7, SALT_CORRUPT) != a);
        let mean: f64 = (0..1000)
            .map(|op| unit_draw(9, 0, op, SALT_DELAY))
            .sum::<f64>()
            / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn spec_round_trip() {
        let plans = [
            FaultPlan::none(),
            FaultPlan::chaos(7),
            FaultPlan {
                seed: 42,
                delay_p: 0.25,
                max_delay_us: 1500,
                drop_p: 0.125,
                corrupt_p: 0.5,
                stall: Some(StallFault {
                    rank: 1,
                    at_op: 5,
                    millis: 50,
                }),
                crash: Some(CrashFault { rank: 2, at_op: 40 }),
                ..FaultPlan::none()
            },
            FaultPlan {
                seed: 8,
                spill_corrupt_p: 0.5,
                spill_disk_full_p: 0.25,
                spill_short_p: 0.125,
                spill_stall_p: 0.5,
                spill_stall_us: 300,
                ..FaultPlan::none()
            },
        ];
        for p in plans {
            assert_eq!(
                FaultPlan::parse(&p.to_spec()).unwrap(),
                p,
                "spec: {}",
                p.to_spec()
            );
        }
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("chaos:9").unwrap(), FaultPlan::chaos(9));
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("stall=1@2").is_err());
        assert!(FaultPlan::parse("spill_corrupt=2.0").is_err());
        assert!(FaultPlan::parse("spill_stall=0.5").is_err());
    }

    #[test]
    fn empty_plan_is_strict_noop() {
        let plain = run_threaded(4, |c| {
            let g = c.all_gather(c.rank() as u64);
            c.send_to((c.rank() + 1) % 4, c.rank() as u32, 4);
            let r = c.recv_from::<u32>((c.rank() + 3) % 4);
            let s = c.all_reduce(&[c.rank() as u64], ReduceOp::Sum);
            (g, r, s, c.stats())
        });
        let faulty = run_threaded(4, |c| {
            let f = FaultyComm::new(c.split(0, c.rank()), FaultPlan::none());
            let g = f.all_gather(f.rank() as u64);
            f.send_to((f.rank() + 1) % 4, f.rank() as u32, 4);
            let r = f.recv_from::<u32>((f.rank() + 3) % 4);
            let s = f.all_reduce(&[f.rank() as u64], ReduceOp::Sum);
            assert!(f.fault_stats().is_clean());
            (g, r, s, f.stats())
        });
        for (p, f) in plain.iter().zip(&faulty) {
            assert_eq!(p.0, f.0);
            assert_eq!(p.1, f.1);
            assert_eq!(p.2, f.2);
            // Same message/byte counters: no hidden extra frames.
            assert_eq!(p.3.p2p_messages, f.3.p2p_messages);
            assert_eq!(p.3.bytes, f.3.bytes);
        }
    }

    /// An exchange mixing collectives and p2p, returning rank-visible data.
    fn workload<C: Communicator>(c: &C) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
        let p = c.size();
        let g = c.all_gather(c.rank() as u64 * 3 + 1);
        for dst in 0..p {
            c.send_to(dst, (c.rank() * 100 + dst) as u32, 4);
        }
        let recvd: Vec<u32> = (0..p).map(|src| c.recv_from::<u32>(src)).collect();
        let s = c.all_reduce(&[c.rank() as u64 + 7], ReduceOp::Sum);
        (g, recvd, s)
    }

    #[test]
    fn chaos_plans_converge_to_fault_free_results() {
        let baseline = run_threaded(4, workload);
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan {
                // Certain drops + corruption exercise the retry path on
                // every message.
                seed,
                delay_p: 0.3,
                max_delay_us: 500,
                drop_p: 1.0,
                corrupt_p: 1.0,
                stall: Some(StallFault {
                    rank: 1,
                    at_op: 3,
                    millis: 5,
                }),
                ..FaultPlan::none()
            };
            let out = run_threaded(4, move |c| {
                let f = FaultyComm::new(c.split(0, c.rank()), plan.clone());
                let r = workload(&f);
                (r, f.fault_stats())
            });
            for (rank, ((r, fs), base)) in out.iter().zip(&baseline).enumerate() {
                assert_eq!(r, base, "seed {seed} rank {rank} diverged");
                assert_eq!(fs.drops, 4, "every send drop-injected");
                assert_eq!(fs.corrupts, 4);
                assert_eq!(fs.crc_rejects, 4);
                assert_eq!(fs.retries, 8);
            }
            assert!(out[1].1.stalls == 1, "rank 1 stalls once");
        }
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = |seed: u64| {
            run_threaded(4, move |c| {
                let f = FaultyComm::new(c.split(0, c.rank()), FaultPlan::chaos(seed));
                workload(&f);
                f.fault_stats()
            })
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds give different schedules");
    }

    #[test]
    fn f64_all_reduce_is_bit_deterministic_under_delays() {
        // Magnitudes chosen so that any reordering of the fold changes the
        // result bits: 1e16 + 1 - 1e16 is 0.0 or 1.0 depending on order.
        let vals = [1e16, 1.0, -1e16, 3.5];
        let baseline = run_threaded(4, move |c| {
            c.all_reduce_f64(&[vals[c.rank()], vals[3 - c.rank()]], ReduceOp::Sum)
        });
        for seed in [5u64, 6, 7, 8] {
            let plan = FaultPlan {
                seed,
                delay_p: 1.0,
                max_delay_us: 3000,
                ..FaultPlan::none()
            };
            let out = run_threaded(4, move |c| {
                let f = FaultyComm::new(c.split(0, c.rank()), plan.clone());
                f.all_reduce_f64(&[vals[f.rank()], vals[3 - f.rank()]], ReduceOp::Sum)
            });
            for (got, want) in out.iter().zip(&baseline) {
                let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                let want_bits: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    got_bits, want_bits,
                    "seed {seed}: f64 reduction not bit-stable"
                );
            }
        }
    }

    #[test]
    fn injected_crash_surfaces_as_timeout_on_survivor() {
        let handles = ThreadedComm::world_with(2, CommConfig::bounded(Duration::from_millis(50)));
        let plan = FaultPlan {
            crash: Some(CrashFault { rank: 1, at_op: 0 }),
            ..FaultPlan::none()
        };
        let joins: Vec<_> = handles
            .into_iter()
            .map(|c| {
                let plan = plan.clone();
                thread::spawn(move || {
                    let f = FaultyComm::new(c, plan);
                    f.barrier_deadline(Duration::from_millis(50))
                })
            })
            .collect();
        let mut results = joins.into_iter().map(|j| j.join());
        let survivor = results.next().unwrap().expect("rank 0 must not panic");
        assert!(matches!(survivor, Err(CommError::Timeout { .. })));
        let dead = results.next().unwrap();
        let msg = dead
            .expect_err("rank 1 must crash")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected crash: rank 1"), "got: {msg}");
    }

    #[test]
    fn works_on_self_comm() {
        let f = FaultyComm::new(SelfComm::new(), FaultPlan::chaos(3));
        f.send_to(0, 42u8, 1);
        assert_eq!(f.recv_from::<u8>(0), 42);
        assert_eq!(f.all_gather(1u8), vec![1]);
        let fs = f.fault_stats();
        // chaos(3) injects on some ops; whatever fired, delivery succeeded.
        assert_eq!(fs.crc_rejects, fs.corrupts);
    }

    #[test]
    fn chaos_under_traced_wrapper_converges() {
        use crate::traced::TracedComm;
        let baseline = run_threaded(4, workload);
        let out = run_threaded(4, |c| {
            let f = FaultyComm::new(c.split(0, c.rank()), FaultPlan::chaos(99));
            let t = TracedComm::new(f, pastis_trace::Recorder::disabled());
            workload(&t)
        });
        assert_eq!(out, baseline);
    }

    #[test]
    fn run_threaded_with_unbounded_still_works() {
        let out = run_threaded_with(2, CommConfig::unbounded(), |c| c.all_gather(c.rank()));
        assert_eq!(out[0], vec![0, 1]);
    }

    fn store_test_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pastis-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn clean_store_writes_faithfully_and_atomically() {
        let dir = store_test_dir("clean");
        let _ = std::fs::remove_dir_all(&dir);
        let store = FaultyStore::new(FaultPlan::none(), 0);
        let path = dir.join("nested/shard.spill");
        store.write_atomic(&path, "payload\n").unwrap();
        assert_eq!(store.read_to_string(&path).unwrap(), "payload\n");
        assert!(store.fault_stats().is_clean());
        // No stray tmp left behind.
        assert!(!dir.join("nested/shard.spill.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_faults_are_deterministic_and_detectable() {
        let dir = store_test_dir("faulty");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan {
            seed: 13,
            spill_corrupt_p: 0.5,
            spill_disk_full_p: 0.25,
            spill_short_p: 0.25,
            ..FaultPlan::none()
        };
        let run = |tag: &str| {
            let store = FaultyStore::new(plan.clone(), 2);
            let mut outcomes = Vec::new();
            for i in 0..64 {
                let path = dir.join(format!("{tag}/shard{i}.spill"));
                let content = format!("shard {i} body body body\n");
                match store.write_atomic(&path, &content) {
                    Err(_) => outcomes.push("disk_full".to_string()),
                    Ok(()) => {
                        let back = store.read_to_string(&path).unwrap();
                        outcomes.push(if back == content {
                            "intact".into()
                        } else {
                            "damaged".into()
                        });
                    }
                }
            }
            (outcomes, store.fault_stats())
        };
        let (a, sa) = run("a");
        let (b, sb) = run("b");
        assert_eq!(a, b, "spill fault schedule must be reproducible");
        assert_eq!(sa, sb);
        // With these probabilities over 64 writes, every kind fires.
        assert!(sa.corrupts > 0 && sa.disk_full > 0 && sa.short_writes > 0);
        // Every non-failed damaged write is visibly damaged (CRC would
        // catch it); intact writes round-trip exactly.
        assert!(a.iter().any(|o| o == "damaged"));
        assert!(a.iter().any(|o| o == "intact"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_faults_ride_an_independent_op_stream() {
        // The same plan drives FaultyComm draws and FaultyStore draws from
        // disjoint salts, so comm traffic cannot shift the spill schedule.
        let plan = FaultPlan {
            seed: 5,
            spill_disk_full_p: 0.5,
            ..FaultPlan::none()
        };
        let dir = store_test_dir("stream");
        let _ = std::fs::remove_dir_all(&dir);
        let schedule = |with_comm: bool| {
            let store = FaultyStore::new(plan.clone(), 0);
            if with_comm {
                let f = FaultyComm::new(SelfComm::new(), plan.clone());
                f.send_to(0, 1u8, 1);
                let _ = f.recv_from::<u8>(0);
            }
            (0..32)
                .map(|i| {
                    store
                        .write_atomic(&dir.join(format!("s{i}.spill")), "x\n")
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(schedule(false), schedule(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
