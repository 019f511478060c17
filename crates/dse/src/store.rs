//! Persistent, content-addressed result store — the corpus of evaluated
//! design points, outliving the process that computed them.
//!
//! The in-memory [`MemoCache`] makes revisits free *within* one study;
//! this module makes them free *across* studies, processes and CI runs.
//! A [`ResultStore`] is an append-only log on disk mapping
//! `hash(point, workload, sim-version)` → [`EvalResult`]. Studies open
//! it at startup, stream every record whose context matches into their
//! memo cache ([`StudyStore::hydrate_into`]), and append each freshly
//! simulated point back — so an interrupted sweep resumes where it
//! stopped and a repeated sweep performs **zero** guest simulations.
//!
//! # Record format (version 2)
//!
//! The file is framed as magic, version, then length-prefixed records,
//! each closed by an FNV-1a-64 checksum. All integers are little-endian.
//!
//! ```text
//! file   := magic "CFRS" | format_version u32 | record*
//! record := body_len u32 | body | checksum u64     (fnv1a(body_len | body))
//! body   := key_hash u64 (fnv1a(key)) | key_len u32 | key | tag u8 | payload
//! key    := sim_version u32 | workload_len u32 | workload | point_key
//! tag 0  := result payload: latency u64 | luts u32 | ffs u32 | brams u32
//!           | dsps u32 | fits u8 | energy_uj f64-bits u64 | aux u64
//! tag 1  := failure tombstone payload: tombstone_version u8 | class u8
//!           | guest_kind u8 | cycles u64 | budget u64
//!           | detail_len u32 | detail
//! ```
//!
//! Tombstones (tag 1) record *classified evaluation failures* so a
//! resumed study can distinguish "known infeasible — skip" from
//! "transient — re-evaluate" without re-running the simulator. A result
//! record for a key always supersedes any tombstone for it, regardless
//! of file order. The legacy `(u64::MAX, ∞)` failure sentinel is never
//! written (the engine records tombstones instead) and any sentinel
//! found in an old file is dropped at open time.
//!
//! `point_key` is the [`StoreKey`] encoding of the candidate — an
//! explicit, field-by-field byte layout that deliberately does **not**
//! depend on `#[derive(Hash)]` or struct memory layout, so the file
//! stays valid across compiler versions and refactors.
//!
//! # Crash safety
//!
//! Appends are buffered in memory and written with one `write_all` per
//! [`ResultStore::flush`] on a file opened in append mode. If the
//! process dies mid-write, [`ResultStore::open`] detects the truncated
//! or checksum-corrupt tail record, drops it, and truncates the file
//! back to the last good record — a damaged tail costs at most one
//! batch of results, never the corpus and never a wrong answer.
//!
//! # Invalidation
//!
//! Every key embeds [`SIM_VERSION`]. Bump it whenever the simulator's
//! timing model changes observably and all prior records simply stop
//! matching — they stay in the file (append-only), but no study will
//! ever read them again.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use cfu_core::Resources;
use cfu_mem::CacheConfig;
use cfu_sim::{BranchPredictor, CpuConfig, Divider, Multiplier, Shifter};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;

use crate::eval::EvalResult;
use crate::fault::{EvalFailure, FailureClass, FaultPlan, GuestFaultKind};
use crate::parallel::MemoCache;
use crate::space::{CfuChoice, DesignPoint};

/// Version of the *simulator timing model* baked into every store key.
///
/// Bump this when a change alters simulated cycle counts, resource
/// estimates or energy numbers for an existing design point; all
/// records written under older versions then silently stop matching.
/// Changes that provably cannot move any published number (host-side
/// speedups, refactors pinned by parity tests) must **not** bump it —
/// that is what keeps warm caches warm across releases.
///
/// Version 2: `BranchPredictor::Static` points gained real mispredict
/// accounting (the predictor previously scored a prediction recomputed
/// from the outcome, so BTFN never missed) — every Static design point's
/// cycle count legitimately moved.
pub const SIM_VERSION: u32 = 2;

/// File magic: "CFU Result Store".
const STORE_MAGIC: [u8; 4] = *b"CFRS";
/// On-disk format version (framing, not simulator semantics).
/// Version 2 added tagged values and failure tombstones; a file of any
/// other version is refused.
const FORMAT_VERSION: u32 = 2;
/// Serialized [`EvalResult`] size: 8 + 4*4 + 1 + 8 + 8.
const VALUE_LEN: usize = 41;
/// Value tag: a 41-byte [`EvalResult`] payload follows.
const VALUE_TAG_RESULT: u8 = 0;
/// Value tag: a failure-tombstone payload follows.
const VALUE_TAG_TOMBSTONE: u8 = 1;
/// Version byte leading every tombstone payload, so the failure
/// taxonomy can evolve without another whole-file format bump.
const TOMBSTONE_VERSION: u8 = 1;

/// FNV-1a 64-bit: the record checksum and the key hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable 64-bit fingerprint of a candidate's [`StoreKey`] encoding —
/// FNV-1a over the key bytes. Harnesses embed it in workload tags when
/// a configuration that is *not* part of the searched point (e.g. the
/// fixed CPU under a kernel-ladder sweep) still changes the numbers.
pub fn key_fingerprint<P: StoreKey>(point: &P) -> u64 {
    let mut bytes = Vec::new();
    point.encode_key(&mut bytes);
    fnv1a(&bytes)
}

/// Identifies *what* a result is a result of, beyond the design point:
/// the workload (model, input resolution, kernel build — anything that
/// changes the numbers) and the simulator version. Two studies sharing
/// one store file stay isolated as long as their contexts differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreContext {
    workload: String,
    sim_version: u32,
}

impl StoreContext {
    /// A context for `workload` under the current [`SIM_VERSION`].
    pub fn new(workload: impl Into<String>) -> Self {
        StoreContext { workload: workload.into(), sim_version: SIM_VERSION }
    }

    /// A context pinned to an explicit simulator version — for tests
    /// that prove stale-version records are never served.
    pub fn versioned(workload: impl Into<String>, sim_version: u32) -> Self {
        StoreContext { workload: workload.into(), sim_version }
    }

    /// The workload tag.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Serializes the context prefix of a full key.
    fn prefix(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.workload.len());
        out.extend_from_slice(&self.sim_version.to_le_bytes());
        out.extend_from_slice(&(self.workload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.workload.as_bytes());
        out
    }

    /// Full key bytes for `point` under this context.
    fn key_bytes<P: StoreKey>(&self, point: &P) -> Vec<u8> {
        let mut key = self.prefix();
        point.encode_key(&mut key);
        key
    }
}

/// A candidate type with a stable on-disk key encoding.
///
/// Implementations must be *explicit* byte layouts (no `Hash`, no
/// `mem::transmute`-of-struct tricks): the encoding is a file format.
/// Fields that cannot affect evaluation results (host-only simulator
/// knobs) must be excluded, and `decode_key` must invert `encode_key`
/// exactly — the round trip is property-tested.
pub trait StoreKey: Sized {
    /// Appends this candidate's key bytes to `out`.
    fn encode_key(&self, out: &mut Vec<u8>);
    /// Reconstructs a candidate from key bytes produced by
    /// `encode_key`, consuming all of `bytes`; `None` on any mismatch.
    fn decode_key(bytes: &[u8]) -> Option<Self>;
}

/// Byte-cursor helper for `decode_key` implementations.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).and_then(|b| Some(u32::from_le_bytes(b.try_into().ok()?)))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).and_then(|b| Some(u64::from_le_bytes(b.try_into().ok()?)))
    }

    fn finished(&self) -> bool {
        self.bytes.is_empty()
    }
}

fn encode_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn decode_bool(c: &mut Cursor) -> Option<bool> {
    match c.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn encode_cache(out: &mut Vec<u8>, cache: &Option<CacheConfig>) {
    match cache {
        None => {
            out.push(0);
            out.extend_from_slice(&[0u8; 12]);
        }
        Some(c) => {
            out.push(1);
            out.extend_from_slice(&c.size_bytes.to_le_bytes());
            out.extend_from_slice(&c.ways.to_le_bytes());
            out.extend_from_slice(&c.line_bytes.to_le_bytes());
        }
    }
}

fn decode_cache_cfg(c: &mut Cursor) -> Option<Option<CacheConfig>> {
    let present = decode_bool(c)?;
    let size_bytes = c.u32()?;
    let ways = c.u32()?;
    let line_bytes = c.u32()?;
    if present {
        Some(Some(CacheConfig { size_bytes, ways, line_bytes }))
    } else if size_bytes == 0 && ways == 0 && line_bytes == 0 {
        Some(None)
    } else {
        None
    }
}

/// [`DesignPoint`] keys: every hardware knob, field by field, in a
/// fixed order.
impl StoreKey for DesignPoint {
    fn encode_key(&self, out: &mut Vec<u8>) {
        let cpu = &self.cpu;
        out.extend_from_slice(&cpu.pipeline_depth.to_le_bytes());
        encode_bool(out, cpu.bypassing);
        let (bp_tag, bp_entries) = match cpu.branch_predictor {
            BranchPredictor::None => (0u8, 0u32),
            BranchPredictor::Static => (1, 0),
            BranchPredictor::Dynamic { entries } => (2, entries),
            BranchPredictor::DynamicTarget { entries } => (3, entries),
        };
        out.push(bp_tag);
        out.extend_from_slice(&bp_entries.to_le_bytes());
        out.push(match cpu.multiplier {
            Multiplier::None => 0,
            Multiplier::Iterative => 1,
            Multiplier::SingleCycleDsp => 2,
            Multiplier::SingleCycleLut => 3,
        });
        out.push(match cpu.divider {
            Divider::None => 0,
            Divider::Iterative => 1,
        });
        out.push(match cpu.shifter {
            Shifter::Iterative => 0,
            Shifter::Barrel => 1,
        });
        encode_cache(out, &cpu.icache);
        encode_cache(out, &cpu.dcache);
        encode_bool(out, cpu.hw_error_checking);
        encode_bool(out, cpu.compressed);
        out.push(match self.cfu {
            CfuChoice::None => 0,
            CfuChoice::Cfu1 => 1,
            CfuChoice::Cfu2 => 2,
        });
    }

    fn decode_key(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor::new(bytes);
        let pipeline_depth = c.u32()?;
        let bypassing = decode_bool(&mut c)?;
        let bp_tag = c.u8()?;
        let entries = c.u32()?;
        let branch_predictor = match bp_tag {
            0 if entries == 0 => BranchPredictor::None,
            1 if entries == 0 => BranchPredictor::Static,
            2 => BranchPredictor::Dynamic { entries },
            3 => BranchPredictor::DynamicTarget { entries },
            _ => return None,
        };
        let multiplier = match c.u8()? {
            0 => Multiplier::None,
            1 => Multiplier::Iterative,
            2 => Multiplier::SingleCycleDsp,
            3 => Multiplier::SingleCycleLut,
            _ => return None,
        };
        let divider = match c.u8()? {
            0 => Divider::None,
            1 => Divider::Iterative,
            _ => return None,
        };
        let shifter = match c.u8()? {
            0 => Shifter::Iterative,
            1 => Shifter::Barrel,
            _ => return None,
        };
        let icache = decode_cache_cfg(&mut c)?;
        let dcache = decode_cache_cfg(&mut c)?;
        let hw_error_checking = decode_bool(&mut c)?;
        let compressed = decode_bool(&mut c)?;
        let cfu = match c.u8()? {
            0 => CfuChoice::None,
            1 => CfuChoice::Cfu1,
            2 => CfuChoice::Cfu2,
            _ => return None,
        };
        if !c.finished() {
            return None;
        }
        let cpu = CpuConfig {
            pipeline_depth,
            bypassing,
            branch_predictor,
            multiplier,
            divider,
            shifter,
            icache,
            dcache,
            hw_error_checking,
            compressed,
        };
        Some(DesignPoint { cpu, cfu })
    }
}

/// Figure-4 ladder rungs. Lives here (not in `cfu-tflm`) because the
/// store trait does; the tag order is the published ladder order.
impl StoreKey for Conv1x1Variant {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Conv1x1Variant::Generic => 0,
            Conv1x1Variant::SwSpecialized => 1,
            Conv1x1Variant::CfuPostproc => 2,
            Conv1x1Variant::CfuHoldFilter => 3,
            Conv1x1Variant::CfuHoldInput => 4,
            Conv1x1Variant::CfuMac4 => 5,
            Conv1x1Variant::CfuMac4Run1 => 6,
            Conv1x1Variant::CfuInclPostproc => 7,
            Conv1x1Variant::CfuMac4Run4 => 8,
            Conv1x1Variant::CfuOverlapInput => 9,
        });
    }

    fn decode_key(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor::new(bytes);
        let variant = match c.u8()? {
            0 => Conv1x1Variant::Generic,
            1 => Conv1x1Variant::SwSpecialized,
            2 => Conv1x1Variant::CfuPostproc,
            3 => Conv1x1Variant::CfuHoldFilter,
            4 => Conv1x1Variant::CfuHoldInput,
            5 => Conv1x1Variant::CfuMac4,
            6 => Conv1x1Variant::CfuMac4Run1,
            7 => Conv1x1Variant::CfuInclPostproc,
            8 => Conv1x1Variant::CfuMac4Run4,
            9 => Conv1x1Variant::CfuOverlapInput,
            _ => return None,
        };
        c.finished().then_some(variant)
    }
}

fn encode_value(result: &EvalResult) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    out[0..8].copy_from_slice(&result.latency.to_le_bytes());
    out[8..12].copy_from_slice(&result.resources.luts.to_le_bytes());
    out[12..16].copy_from_slice(&result.resources.ffs.to_le_bytes());
    out[16..20].copy_from_slice(&result.resources.brams.to_le_bytes());
    out[20..24].copy_from_slice(&result.resources.dsps.to_le_bytes());
    out[24] = u8::from(result.fits);
    out[25..33].copy_from_slice(&result.energy_uj.to_bits().to_le_bytes());
    out[33..41].copy_from_slice(&result.aux.to_le_bytes());
    out
}

fn decode_value(bytes: &[u8]) -> Option<EvalResult> {
    let mut c = Cursor::new(bytes);
    let latency = c.u64()?;
    let luts = c.u32()?;
    let ffs = c.u32()?;
    let brams = c.u32()?;
    let dsps = c.u32()?;
    let fits = decode_bool(&mut c)?;
    let energy_uj = f64::from_bits(c.u64()?);
    let aux = c.u64()?;
    c.finished().then_some(EvalResult {
        latency,
        resources: Resources { luts, ffs, brams, dsps },
        fits,
        energy_uj,
        aux,
    })
}

/// A decoded store value: a real measurement or a failure tombstone.
#[derive(Debug, Clone, PartialEq)]
enum StoredValue {
    Result(EvalResult),
    Tombstone(EvalFailure),
}

fn guest_kind_tag(kind: GuestFaultKind) -> u8 {
    match kind {
        GuestFaultKind::Mem => 0,
        GuestFaultKind::Illegal => 1,
        GuestFaultKind::Cfu => 2,
        GuestFaultKind::Unsupported => 3,
    }
}

fn guest_kind_from_tag(tag: u8) -> Option<GuestFaultKind> {
    match tag {
        0 => Some(GuestFaultKind::Mem),
        1 => Some(GuestFaultKind::Illegal),
        2 => Some(GuestFaultKind::Cfu),
        3 => Some(GuestFaultKind::Unsupported),
        _ => None,
    }
}

/// Serializes a tombstone payload (everything after the value tag).
fn encode_failure(out: &mut Vec<u8>, failure: &EvalFailure) {
    out.push(TOMBSTONE_VERSION);
    let (class, kind, cycles, budget, detail): (u8, u8, u64, u64, &str) = match failure {
        EvalFailure::Infeasible(d) => (0, 0, 0, 0, d),
        EvalFailure::Deploy(d) => (1, 0, 0, 0, d),
        EvalFailure::GuestFault { kind, detail } => (2, guest_kind_tag(*kind), 0, 0, detail),
        EvalFailure::BudgetExhausted { cycles, budget } => (3, 0, *cycles, *budget, ""),
        EvalFailure::Panicked(d) => (4, 0, 0, 0, d),
        EvalFailure::CorruptResult => (5, 0, 0, 0, ""),
    };
    out.push(class);
    out.push(kind);
    out.extend_from_slice(&cycles.to_le_bytes());
    out.extend_from_slice(&budget.to_le_bytes());
    out.extend_from_slice(&(detail.len() as u32).to_le_bytes());
    out.extend_from_slice(detail.as_bytes());
}

/// Decodes a tombstone payload. `None` on malformed bytes or an unknown
/// tombstone version (a future taxonomy this build cannot interpret —
/// safer to re-evaluate than to misclassify).
fn decode_failure(bytes: &[u8]) -> Option<EvalFailure> {
    let mut c = Cursor::new(bytes);
    if c.u8()? != TOMBSTONE_VERSION {
        return None;
    }
    let class = c.u8()?;
    let kind = c.u8()?;
    let cycles = c.u64()?;
    let budget = c.u64()?;
    let detail_len = c.u32()? as usize;
    let detail = String::from_utf8(c.take(detail_len)?.to_vec()).ok()?;
    if !c.finished() {
        return None;
    }
    match class {
        0 => Some(EvalFailure::Infeasible(detail)),
        1 => Some(EvalFailure::Deploy(detail)),
        2 => Some(EvalFailure::GuestFault { kind: guest_kind_from_tag(kind)?, detail }),
        3 => Some(EvalFailure::BudgetExhausted { cycles, budget }),
        4 => Some(EvalFailure::Panicked(detail)),
        5 => Some(EvalFailure::CorruptResult),
        _ => None,
    }
}

fn encode_stored(value: &StoredValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + VALUE_LEN);
    match value {
        StoredValue::Result(result) => {
            out.push(VALUE_TAG_RESULT);
            out.extend_from_slice(&encode_value(result));
        }
        StoredValue::Tombstone(failure) => {
            out.push(VALUE_TAG_TOMBSTONE);
            encode_failure(&mut out, failure);
        }
    }
    out
}

fn decode_stored(bytes: &[u8]) -> Option<StoredValue> {
    let (tag, payload) = bytes.split_first()?;
    match *tag {
        VALUE_TAG_RESULT => Some(StoredValue::Result(decode_value(payload)?)),
        VALUE_TAG_TOMBSTONE => Some(StoredValue::Tombstone(decode_failure(payload)?)),
        _ => None,
    }
}

/// Serializes one framed record (`body_len | body | checksum`).
fn encode_record(key: &[u8], value: &StoredValue) -> Vec<u8> {
    let value_bytes = encode_stored(value);
    let body_len = 8 + 4 + key.len() + value_bytes.len();
    let mut record = Vec::with_capacity(4 + body_len + 8);
    record.extend_from_slice(&(body_len as u32).to_le_bytes());
    record.extend_from_slice(&fnv1a(key).to_le_bytes());
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(key);
    record.extend_from_slice(&value_bytes);
    let checksum = fnv1a(&record);
    record.extend_from_slice(&checksum.to_le_bytes());
    record
}

/// Parses the framed record starting at `bytes[at..]` into its verified
/// `(key, value, next_offset)`. Callers treat any `None` (a truncated,
/// checksum-corrupt or malformed record) as "the log ends here".
fn parse_record(bytes: &[u8], at: usize) -> Option<(Vec<u8>, StoredValue, usize)> {
    let rest = bytes.get(at..)?;
    let body_len = u32::from_le_bytes(rest.get(0..4)?.try_into().ok()?) as usize;
    let framed = rest.get(..4 + body_len)?;
    let stored = u64::from_le_bytes(rest.get(4 + body_len..4 + body_len + 8)?.try_into().ok()?);
    if fnv1a(framed) != stored {
        return None;
    }
    let body = &framed[4..];
    let key_hash = u64::from_le_bytes(body.get(0..8)?.try_into().ok()?);
    let key_len = u32::from_le_bytes(body.get(8..12)?.try_into().ok()?) as usize;
    let key = body.get(12..12 + key_len)?;
    if fnv1a(key) != key_hash {
        return None;
    }
    Some((key.to_vec(), decode_stored(body.get(12 + key_len..)?)?, at + 4 + body_len + 8))
}

/// Folds one decoded record into the index with the override policy:
/// legacy sentinels are dropped, results always win over tombstones,
/// and a later record of the same kind replaces an earlier one.
fn index_record(index: &mut HashMap<Vec<u8>, StoredValue>, key: Vec<u8>, value: StoredValue) {
    match value {
        // A legacy failure sentinel: ignore on hydration, forever.
        StoredValue::Result(r) if r.latency == u64::MAX => {}
        StoredValue::Result(r) => {
            index.insert(key, StoredValue::Result(r));
        }
        StoredValue::Tombstone(f) => {
            // A tombstone never shadows a real measurement.
            if !matches!(index.get(&key), Some(StoredValue::Result(_))) {
                index.insert(key, StoredValue::Tombstone(f));
            }
        }
    }
}

struct StoreInner {
    file: File,
    index: HashMap<Vec<u8>, StoredValue>,
    pending: Vec<u8>,
    recovered_bytes: u64,
}

/// The on-disk, append-only, content-addressed result store.
///
/// Open (or create) one per corpus file; share it across studies via
/// [`Arc`]. Reads hit an in-memory index built at open time; writes
/// buffer until [`flush`](ResultStore::flush) (the engine flushes after
/// every batch merge; [`Drop`] flushes best-effort). Concurrent
/// studies — even in separate processes — may append to the same file:
/// each flush is a single append-mode `write_all` of whole records, and
/// the open-time scan tolerates (drops) a torn tail.
///
/// # Example
///
/// ```
/// use cfu_dse::{DesignSpace, ResultStore, StoreContext};
///
/// let path = std::env::temp_dir().join(format!("cfu-store-doc-{}.log", std::process::id()));
/// let _ = std::fs::remove_file(&path);
///
/// let ctx = StoreContext::new("doctest-mnv2");
/// let point = DesignSpace::small().point(3);
/// let result = cfu_dse::EvalResult {
///     latency: 1234,
///     resources: cfu_core::Resources { luts: 5000, ffs: 4000, brams: 8, dsps: 4 },
///     fits: true,
///     energy_uj: 17.5,
///     aux: 0,
/// };
/// {
///     let store = ResultStore::open(&path).unwrap();
///     assert!(store.get(&ctx, &point).is_none());
///     store.put(&ctx, &point, result);
///     store.flush().unwrap();
/// }
/// // A fresh process (here: a fresh handle) sees the record.
/// let store = ResultStore::open(&path).unwrap();
/// assert_eq!(store.get(&ctx, &point), Some(result));
/// assert_eq!(store.len(), 1);
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub struct ResultStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore").field("path", &self.path).field("len", &self.len()).finish()
    }
}

impl ResultStore {
    /// Opens `path`, creating an empty store if it does not exist, and
    /// builds the in-memory index from every intact record.
    ///
    /// Recovery rules: a file shorter than its 8-byte header is treated
    /// as a torn header write and rewritten from scratch; a wrong magic
    /// or unknown format version is an error (never clobber a file that
    /// is not ours); a truncated or checksum-corrupt tail record is
    /// dropped and the file truncated back to the last good record.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&STORE_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

        let mut recovered_bytes = 0u64;
        let mut index = HashMap::new();
        if bytes.len() < header.len() {
            // Empty file (fresh store) or a torn header write: start over.
            recovered_bytes = bytes.len() as u64;
            file.set_len(0)?;
            file.write_all(&header)?;
        } else {
            if bytes[0..4] != STORE_MAGIC {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{} is not a CFU result store (bad magic)", path.display()),
                ));
            }
            let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
            if version != FORMAT_VERSION {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: unsupported result-store format version {version}",
                        path.display()
                    ),
                ));
            }
            let mut offset = header.len();
            while offset < bytes.len() {
                match parse_record(&bytes, offset) {
                    Some((key, value, next)) => {
                        index_record(&mut index, key, value);
                        offset = next;
                    }
                    None => {
                        // Torn or corrupt tail: drop it from the file so
                        // the damage never compounds.
                        recovered_bytes = (bytes.len() - offset) as u64;
                        file.set_len(offset as u64)?;
                        break;
                    }
                }
            }
        }
        Ok(ResultStore {
            path,
            inner: Mutex::new(StoreInner { file, index, pending: Vec::new(), recovered_bytes }),
        })
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys in the store (all contexts).
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of torn/corrupt tail dropped by [`open`](ResultStore::open)
    /// (0 for a clean file).
    pub fn recovered_bytes(&self) -> u64 {
        self.lock().recovered_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        // Poison recovery: every mutation under this lock leaves the
        // index/pending pair coherent (whole-record appends), so a
        // panicked worker elsewhere must not wedge the whole corpus.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the stored result for `point` under `ctx`. Tombstoned
    /// (failed) points return `None` here — see
    /// [`get_failure`](ResultStore::get_failure).
    pub fn get<P: StoreKey>(&self, ctx: &StoreContext, point: &P) -> Option<EvalResult> {
        let key = ctx.key_bytes(point);
        match self.lock().index.get(&key) {
            Some(StoredValue::Result(result)) => Some(*result),
            _ => None,
        }
    }

    /// Looks up the recorded failure tombstone for `point` under `ctx`.
    /// `None` when the point succeeded or was never attempted.
    pub fn get_failure<P: StoreKey>(&self, ctx: &StoreContext, point: &P) -> Option<EvalFailure> {
        let key = ctx.key_bytes(point);
        match self.lock().index.get(&key) {
            Some(StoredValue::Tombstone(failure)) => Some(failure.clone()),
            _ => None,
        }
    }

    /// Records `result` for `point` under `ctx`, buffering the append
    /// until the next [`flush`](ResultStore::flush). Idempotent: if the
    /// identical key→value pair is already present nothing is written.
    /// The legacy `(u64::MAX, ∞)` failure sentinel is refused outright —
    /// failures are recorded as tombstones
    /// ([`put_failure`](ResultStore::put_failure)), never as results.
    /// Returns `true` when a record was actually queued.
    pub fn put<P: StoreKey>(&self, ctx: &StoreContext, point: &P, result: EvalResult) -> bool {
        if result.latency == u64::MAX {
            return false;
        }
        let key = ctx.key_bytes(point);
        let mut inner = self.lock();
        if inner.index.get(&key) == Some(&StoredValue::Result(result)) {
            return false;
        }
        let value = StoredValue::Result(result);
        let record = encode_record(&key, &value);
        inner.pending.extend_from_slice(&record);
        inner.index.insert(key, value);
        true
    }

    /// Records a failure tombstone for `point` under `ctx`, buffering
    /// like [`put`](ResultStore::put). A tombstone never shadows an
    /// existing result record, and an identical tombstone is not
    /// re-queued. Returns `true` when a record was actually queued.
    pub fn put_failure<P: StoreKey>(
        &self,
        ctx: &StoreContext,
        point: &P,
        failure: &EvalFailure,
    ) -> bool {
        let key = ctx.key_bytes(point);
        let mut inner = self.lock();
        match inner.index.get(&key) {
            Some(StoredValue::Result(_)) => return false,
            Some(StoredValue::Tombstone(existing)) if existing == failure => return false,
            _ => {}
        }
        let value = StoredValue::Tombstone(failure.clone());
        let record = encode_record(&key, &value);
        inner.pending.extend_from_slice(&record);
        inner.index.insert(key, value);
        true
    }

    /// Appends all buffered records to disk in one `write_all`.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        if inner.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut inner.pending);
        if let Err(e) = inner.file.write_all(&pending) {
            // Put the records back so a later flush can retry.
            inner.pending = pending;
            return Err(e);
        }
        inner.file.flush()
    }

    /// All stored `(point, result)` pairs under `ctx`, decoded. Records
    /// from other contexts (different workload or simulator version),
    /// failure tombstones, and keys the current code no longer
    /// understands are skipped.
    pub fn entries<P: StoreKey>(&self, ctx: &StoreContext) -> Vec<(P, EvalResult)> {
        let prefix = ctx.prefix();
        let inner = self.lock();
        inner
            .index
            .iter()
            .filter_map(|(key, value)| {
                let point_key = key.strip_prefix(prefix.as_slice())?;
                match value {
                    StoredValue::Result(result) => Some((P::decode_key(point_key)?, *result)),
                    StoredValue::Tombstone(_) => None,
                }
            })
            .collect()
    }

    /// All failure tombstones under `ctx`, decoded — the resume-mode
    /// counterpart of [`entries`](ResultStore::entries).
    pub fn tombstones<P: StoreKey>(&self, ctx: &StoreContext) -> Vec<(P, EvalFailure)> {
        let prefix = ctx.prefix();
        let inner = self.lock();
        inner
            .index
            .iter()
            .filter_map(|(key, value)| {
                let point_key = key.strip_prefix(prefix.as_slice())?;
                match value {
                    StoredValue::Tombstone(failure) => {
                        Some((P::decode_key(point_key)?, failure.clone()))
                    }
                    StoredValue::Result(_) => None,
                }
            })
            .collect()
    }

    /// Fault-injection aid: flushes, then chops `bytes` off the file's
    /// tail — the deterministic stand-in for a crash mid-append. The
    /// in-memory index is deliberately left untouched (the "crashed"
    /// state only becomes visible to the next [`open`](ResultStore::open),
    /// exactly like a real torn write).
    ///
    /// # Errors
    ///
    /// I/O errors from the flush or the truncation.
    pub fn tear_tail(&self, bytes: u64) -> std::io::Result<()> {
        let mut inner = self.lock();
        if !inner.pending.is_empty() {
            let pending = std::mem::take(&mut inner.pending);
            inner.file.write_all(&pending)?;
        }
        inner.file.flush()?;
        let len = inner.file.metadata()?.len();
        inner.file.set_len(len.saturating_sub(bytes))
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        // Best-effort: never panic in drop, even on a poisoned lock.
        let Ok(mut inner) = self.inner.lock() else { return };
        if inner.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut inner.pending);
        if let Err(e) = inner.file.write_all(&pending) {
            eprintln!("warning: result store {} flush failed on drop: {e}", self.path.display());
        }
    }
}

/// A store handle bound to one study: one shared [`ResultStore`], one
/// [`StoreContext`], a resume policy, and observability counters.
///
/// Attach it with [`ParallelStudy::attach_store`]: when `resume` is set,
/// every matching record hydrates the study's [`MemoCache`] up front (so the
/// evaluator is never invoked for known points); either way, every
/// freshly computed point is appended back, and the engine flushes
/// after each batch merge.
///
/// [`ParallelStudy::attach_store`]: crate::ParallelStudy::attach_store
#[derive(Debug)]
pub struct StudyStore<P = DesignPoint> {
    store: Arc<ResultStore>,
    ctx: StoreContext,
    resume: bool,
    hydrated: AtomicU64,
    appended: AtomicU64,
    tombstoned: AtomicU64,
    fault_plan: Option<Arc<FaultPlan>>,
    _marker: PhantomData<fn(P) -> P>,
}

impl<P> StudyStore<P> {
    /// Binds `store` + `ctx` in record-only mode (`--store` without
    /// `--resume`): prior results are ignored, fresh ones are appended.
    pub fn new(store: Arc<ResultStore>, ctx: StoreContext) -> Self {
        StudyStore {
            store,
            ctx,
            resume: false,
            hydrated: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            tombstoned: AtomicU64::new(0),
            fault_plan: None,
            _marker: PhantomData,
        }
    }

    /// Enables (or disables) resume mode: hydrate prior results into the
    /// study's memo cache at attach time.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Attaches a [`FaultPlan`] whose torn-flush entries fire against
    /// this handle's flushes — the deterministic crash-mid-append
    /// injection used by the fault test suite.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// `true` when attach-time hydration is enabled.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// The underlying shared store.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// The study's context tag.
    pub fn context(&self) -> &StoreContext {
        &self.ctx
    }

    /// Prior results hydrated into the memo cache at attach time.
    pub fn hydrated(&self) -> u64 {
        self.hydrated.load(Ordering::Relaxed)
    }

    /// Fresh results appended (queued) to the store by this study.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Failure tombstones appended (queued) to the store by this study.
    pub fn tombstoned(&self) -> u64 {
        self.tombstoned.load(Ordering::Relaxed)
    }
}

impl<P: StoreKey + Copy + Eq + Hash> StudyStore<P> {
    /// Streams every matching record into `cache` (resume mode only).
    pub(crate) fn hydrate_into(&self, cache: &MemoCache<P>) {
        if !self.resume {
            return;
        }
        let mut count = 0u64;
        for (point, result) in self.store.entries::<P>(&self.ctx) {
            cache.insert(point, result);
            count += 1;
        }
        self.hydrated.fetch_add(count, Ordering::Relaxed);
    }

    /// Tombstones for *permanently* failing points under this study's
    /// context (resume mode only; empty otherwise). Transient classes —
    /// a panic may have been an environment hiccup — are deliberately
    /// excluded so resumed studies re-evaluate them.
    pub(crate) fn permanent_tombstones(&self) -> Vec<(P, EvalFailure)> {
        if !self.resume {
            return Vec::new();
        }
        self.store
            .tombstones::<P>(&self.ctx)
            .into_iter()
            .filter(|(_, failure)| failure.class() == FailureClass::Permanent)
            .collect()
    }
}

/// Object-safe recording facade the engine holds, erasing the
/// [`StoreKey`] bound so `ParallelStudy`/`evaluate_batch` stay generic
/// over plain `SearchSpace` points.
pub(crate) trait StoreSink<P>: Send + Sync + std::fmt::Debug {
    /// Records one freshly computed result.
    fn record(&self, point: &P, result: &EvalResult);
    /// Records one quarantined point's failure tombstone.
    fn record_failure(&self, point: &P, failure: &EvalFailure);
    /// Persists buffered records (called after each batch merge).
    fn flush_sink(&self);
}

impl<P: StoreKey + Send + Sync + std::fmt::Debug> StoreSink<P> for StudyStore<P> {
    fn record(&self, point: &P, result: &EvalResult) {
        if self.store.put(&self.ctx, point, *result) {
            self.appended.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_failure(&self, point: &P, failure: &EvalFailure) {
        if self.store.put_failure(&self.ctx, point, failure) {
            self.tombstoned.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush_sink(&self) {
        if let Err(e) = self.store.flush() {
            eprintln!("warning: result store {} flush failed: {e}", self.store.path().display());
        }
        if let Some(bytes) = self.fault_plan.as_ref().and_then(|plan| plan.next_flush_tear()) {
            if let Err(e) = self.store.tear_tail(bytes) {
                eprintln!(
                    "warning: injected torn write on {} failed: {e}",
                    self.store.path().display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;

    fn temp_path(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("cfu-store-unit-{tag}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample_result(salt: u64) -> EvalResult {
        EvalResult {
            latency: 1000 + salt,
            resources: Resources { luts: 10, ffs: 20, brams: 1, dsps: 2 },
            fits: salt.is_multiple_of(2),
            energy_uj: 0.5 + salt as f64,
            aux: salt.wrapping_mul(3),
        }
    }

    #[test]
    fn design_point_key_roundtrips_over_the_paper_space() {
        let space = DesignSpace::paper_scale();
        let step = space.size() / 997;
        for k in 0..997 {
            let point = space.point(k * step);
            let mut key = Vec::new();
            point.encode_key(&mut key);
            let back = DesignPoint::decode_key(&key).expect("decodes");
            assert_eq!(back, point);
        }
    }

    #[test]
    fn value_roundtrips_including_infinity() {
        for result in [
            sample_result(7),
            EvalResult {
                latency: u64::MAX,
                resources: Resources::default(),
                fits: false,
                energy_uj: f64::INFINITY,
                aux: u64::MAX,
            },
        ] {
            let bytes = encode_value(&result);
            assert_eq!(decode_value(&bytes), Some(result));
        }
    }

    #[test]
    fn put_is_idempotent_and_get_respects_context() {
        let path = temp_path("idempotent");
        let store = ResultStore::open(&path).unwrap();
        let ctx = StoreContext::new("w1");
        let other = StoreContext::new("w2");
        let point = DesignSpace::small().point(5);
        assert!(store.put(&ctx, &point, sample_result(1)));
        assert!(!store.put(&ctx, &point, sample_result(1)), "identical pair re-queued");
        assert!(store.put(&ctx, &point, sample_result(2)), "changed value must append");
        assert_eq!(store.get(&ctx, &point), Some(sample_result(2)));
        assert_eq!(store.get(&other, &point), None, "workload tags must isolate");
        store.flush().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_sim_version_records_are_never_served() {
        let path = temp_path("simver");
        let point = DesignSpace::small().point(9);
        {
            let store = ResultStore::open(&path).unwrap();
            store.put(&StoreContext::versioned("w", 1), &point, sample_result(4));
            store.flush().unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get(&StoreContext::versioned("w", 1), &point), Some(sample_result(4)));
        assert_eq!(store.get(&StoreContext::versioned("w", 2), &point), None);
        assert!(store.entries::<DesignPoint>(&StoreContext::versioned("w", 2)).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_files_are_never_clobbered() {
        let path = temp_path("foreign");
        // A non-store file, then a header of the retired version 1
        // followed by 64 bytes of record data.
        let mut v1 = b"CFRS".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&[7; 64]);
        for contents in [b"definitely not a store".to_vec(), v1] {
            std::fs::write(&path, &contents).unwrap();
            let err = ResultStore::open(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), contents, "the refused file was modified");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
