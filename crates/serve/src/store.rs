//! Crash-safe index persistence: versioned checksummed snapshots plus a
//! write-ahead journal.
//!
//! **Snapshot format.** A fixed 44-byte header — magic `SEMSNAP1`,
//! format version, vector width, cell count, vector count, payload length,
//! payload CRC32 and a CRC32 over the header itself — followed by the JSON
//! payload. Snapshots are written to a temp file in the same directory,
//! fsynced, atomically renamed over the target and the directory fsynced,
//! so a crash at any point leaves either the old snapshot or the new one,
//! never a half-written hybrid. Torn or bit-flipped snapshots fail the
//! checksum and are **rejected**, never silently loaded. Legacy plain-JSON
//! snapshots (pre-v1) are still readable.
//!
//! **Versions.** v3 (current) extends the JSON payload with the optional
//! SQ8 quantization sidecar (per-segment scales plus the u8 code matrix);
//! the header and framing are unchanged. v2 added the optional facet
//! layout ([`crate::facet::FacetLayout`]); v1 is the original fused
//! format. Both load via read-path migrations — absent fields
//! deserialise to the fused, unquantized defaults — and the next
//! [`IndexStore::save_snapshot`] rewrites them as v3. Writes always emit
//! v3; versions above v3 are rejected, never guessed at.
//!
//! **Journal.** Each acknowledged ingest appends one length+CRC framed
//! record (`{seq, vector}`) and fsyncs before reporting durability, so
//! every acknowledged ingest survives a crash. Recovery loads the snapshot
//! and replays the journal in order; a torn tail (partial final record) is
//! discarded — those records were never acknowledged — while corruption
//! *before* valid records is an error, because it would silently drop
//! acknowledged data. Records whose `seq` precedes the snapshot's vector
//! count are skipped, which makes replay idempotent when a crash lands
//! between the snapshot rename and the journal truncation. Saving a
//! snapshot compacts the journal back to empty.
//!
//! **Online compaction.** [`IndexStore::save_snapshot`] blocks ingest for
//! the whole encode+write, which a live-maintenance deployment cannot
//! afford. The online protocol splits the work:
//! [`IndexStore::begin_online_compaction`] flushes the batch buffer and
//! redirects subsequent appends to a *side journal*
//! (`<snapshot>.journal.side`, same frame format) so ingest continues
//! while the caller encodes a point-in-time clone off-lock; the side
//! records are then replayed into the clone
//! ([`IndexStore::side_records`]) and
//! [`IndexStore::commit_online_compaction`] renames the fresh snapshot in
//! and deletes first the main journal, then the side journal. Every step
//! is crash-safe by seq-idempotent replay — [`IndexStore::load`] replays
//! the main journal and then the side journal, skipping records the
//! snapshot already holds — and every step has a [`FaultPlan`] crash
//! point proving it.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sem_obs::{Counter, Histogram, Registry};
use sem_train::atomic::{fsync_parent_dir, tmp_path, write_atomic_retry};
use sem_train::retry::{retry, RetryPolicy};
use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::fault::{CrashPoint, FaultPlan};
use crate::index::AnnIndex;

const MAGIC: &[u8; 8] = b"SEMSNAP1";
/// Newest snapshot format this build writes; every version from 1 up to
/// here is readable (v1 payloads lack the facet layout, v1/v2 lack the
/// SQ8 quantization sidecar).
const FORMAT_VERSION: u32 = 3;
const HEADER_LEN: usize = 44;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

/// Whether an append has reached disk or still sits in the batch buffer.
///
/// Only [`Durability::Synced`] counts as *acknowledged*: a crash may
/// legitimately lose `Buffered` records, and the recovery invariant —
/// every acknowledged ingest survives — is stated over synced records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Record and everything before it are fsynced to the journal.
    Synced,
    /// Record is in the in-memory batch buffer; a crash loses it.
    Buffered,
}

/// One write-ahead journal record: the vector that was ingested and the id
/// (`seq`) the index assigned it.
#[derive(Serialize, Deserialize)]
struct JournalRecord {
    seq: u64,
    vector: Vec<f32>,
}

/// Outcome of [`IndexStore::load`]: the recovered index plus what the
/// journal replay saw.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered index (snapshot + replayed journal).
    pub index: AnnIndex,
    /// Journal records inserted on top of the snapshot.
    pub replayed: usize,
    /// Records skipped because the snapshot already contained them
    /// (compaction crashed before the journal was truncated).
    pub skipped: usize,
    /// `true` when a torn (partial, never-acknowledged) tail record was
    /// discarded.
    pub discarded_tail: bool,
}

impl Recovery {
    /// What this recovery found, without the index.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            recovered_len: self.index.len(),
            replayed: self.replayed,
            skipped: self.skipped,
            discarded_tail: self.discarded_tail,
        }
    }
}

/// What recovering one shard from its store found (see
/// [`crate::ShardRouter::open`] and [`crate::ShardRouter::recover_shard`]).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RecoveryStats {
    /// Vectors in the recovered index.
    pub recovered_len: usize,
    /// Journal records replayed on top of the snapshot.
    pub replayed: usize,
    /// Records skipped as already compacted.
    pub skipped: usize,
    /// Whether a torn (unacknowledged) journal tail was discarded.
    pub discarded_tail: bool,
}

/// Snapshot half of a [`VerifyReport`].
#[derive(Debug, Serialize)]
pub struct SnapshotReport {
    /// Snapshot file path.
    pub path: String,
    /// `"v3"`, `"v2"`, `"v1"`, `"legacy-json"`, `"missing"` or `"corrupt"`.
    pub format: String,
    /// Format version from the header (headered snapshots only).
    pub version: u32,
    /// Vector width from the header.
    pub dim: usize,
    /// IVF cell count from the header (0 = flat).
    pub nlist: usize,
    /// Vector count from the header.
    pub count: u64,
    /// Header checksum verdict.
    pub header_ok: bool,
    /// Payload checksum verdict.
    pub payload_ok: bool,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Per-facet segment checksums from the decoded payload (empty until
    /// every integrity check passes). Fused/v1 stores report the single
    /// `fused` segment.
    pub facets: Vec<crate::facet::FacetChecksum>,
    /// Per-segment checksums over the SQ8 code matrix (empty for
    /// unquantized stores or until every integrity check passes).
    pub quant: Vec<crate::facet::FacetChecksum>,
    /// First failed check, when any.
    pub error: Option<String>,
}

/// Journal half of a [`VerifyReport`].
#[derive(Debug, Serialize)]
pub struct JournalReport {
    /// Journal file path.
    pub path: String,
    /// Whether the journal file exists.
    pub present: bool,
    /// Frame-complete, checksum-valid records.
    pub valid_records: usize,
    /// Journal size in bytes.
    pub bytes: u64,
    /// A partial final record was found (tolerated on recovery).
    pub torn_tail: bool,
    /// Corruption *before* valid records (fatal on recovery), when any.
    pub error: Option<String>,
}

/// Operator-facing integrity report (`sem index verify`).
#[derive(Debug, Serialize)]
pub struct VerifyReport {
    /// Snapshot checks.
    pub snapshot: SnapshotReport,
    /// Journal checks.
    pub journal: JournalReport,
    /// Side-journal checks (present only while an online compaction is in
    /// flight or was interrupted by a crash; normally absent).
    pub side_journal: JournalReport,
    /// Journal tail length: records across both journals whose `seq` is
    /// at or past the snapshot's vector count — i.e. entries since the
    /// last snapshot, the work a compaction would fold in. This is the
    /// signal the maintenance layer's compaction scheduler (and `index
    /// probe --max-journal-entries`) keys off.
    pub tail_records: usize,
    /// `true` when the trio would recover cleanly.
    pub ok: bool,
}

/// Pre-registered handles for the store's observability: journal traffic,
/// fsync latency, snapshot writes and recovery behaviour. `None` until a
/// registry is attached — instrumentation must cost nothing when unused.
struct StoreMetrics {
    journal_appends: Arc<Counter>,
    journal_flushes: Arc<Counter>,
    fsync_ns: Arc<Histogram>,
    snapshot_saves: Arc<Counter>,
    snapshot_save_ns: Arc<Histogram>,
    compactions: Arc<Counter>,
    loads: Arc<Counter>,
    replayed: Arc<Counter>,
    skipped: Arc<Counter>,
    discarded_tails: Arc<Counter>,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        StoreMetrics {
            journal_appends: registry.counter("store.journal.appends"),
            journal_flushes: registry.counter("store.journal.flushes"),
            fsync_ns: registry.histogram("store.journal.fsync.ns"),
            snapshot_saves: registry.counter("store.snapshot.saves"),
            snapshot_save_ns: registry.histogram("store.snapshot.save.ns"),
            compactions: registry.counter("store.journal.compactions"),
            loads: registry.counter("store.loads"),
            replayed: registry.counter("store.replay.replayed"),
            skipped: registry.counter("store.replay.skipped"),
            discarded_tails: registry.counter("store.replay.discarded_tails"),
        }
    }
}

/// Durable home of one index: a snapshot file plus its write-ahead journal
/// (`<snapshot>.journal`), with an optional [`FaultPlan`] driving
/// deterministic crash tests.
pub struct IndexStore {
    snapshot_path: PathBuf,
    journal_path: PathBuf,
    side_path: PathBuf,
    /// `true` while an online compaction is in flight: appends land in the
    /// side journal instead of the main one.
    side_mode: bool,
    flush_every: usize,
    buffer: Vec<u8>,
    buffered: usize,
    plan: FaultPlan,
    crashed: bool,
    retry: RetryPolicy,
    metrics: Option<StoreMetrics>,
}

impl IndexStore {
    /// A store over `snapshot_path`; the journal lives alongside it.
    pub fn open(snapshot_path: impl Into<PathBuf>) -> Self {
        let snapshot_path = snapshot_path.into();
        let journal_path = journal_path_for(&snapshot_path);
        let side_path = side_journal_path_for(&snapshot_path);
        IndexStore {
            snapshot_path,
            journal_path,
            side_path,
            side_mode: false,
            flush_every: 1,
            buffer: Vec::new(),
            buffered: 0,
            plan: FaultPlan::none(),
            crashed: false,
            retry: RetryPolicy::default(),
            metrics: None,
        }
    }

    /// Points the store's instrumentation (journal appends, fsync latency,
    /// snapshot writes, replay counters) at `registry`.
    /// [`crate::ShardRouter::open`] and [`crate::ShardRouter::attach_stores`]
    /// do this automatically with the router's registry.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>) {
        self.metrics = Some(StoreMetrics::new(registry));
    }

    /// Batches journal appends: fsync once every `n` records instead of
    /// per record. Records in a partial batch report
    /// [`Durability::Buffered`] and are *not* crash-durable until
    /// [`IndexStore::sync`].
    pub fn with_flush_every(mut self, n: usize) -> Self {
        self.flush_every = n.max(1);
        self
    }

    /// Arms a [`FaultPlan`] (tests only; the default plan never fires).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Overrides the retry policy snapshot writes and journal flushes use
    /// for transient I/O errors (default: [`RetryPolicy::default`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }

    /// Path of the side journal used while an online compaction runs.
    pub fn side_journal_path(&self) -> &Path {
        &self.side_path
    }

    /// `true` while an online compaction is in flight (appends are landing
    /// in the side journal).
    pub fn compacting(&self) -> bool {
        self.side_mode
    }

    /// Overrides the journal batch size in place (the owning shard uses
    /// this when streaming ingest switches to buffered durability).
    pub fn set_flush_every(&mut self, n: usize) {
        self.flush_every = n.max(1);
    }

    /// Number of records currently buffered (not yet crash-durable).
    pub fn buffered_records(&self) -> usize {
        self.buffered
    }

    fn check_alive(&self) -> Result<(), ServeError> {
        if self.crashed {
            return Err(ServeError::Invalid(
                "store hit an injected crash; open a fresh store to recover".into(),
            ));
        }
        Ok(())
    }

    /// Atomically persists `index` and compacts the journal.
    ///
    /// # Errors
    /// IO failures, serialisation failures, or an armed fault firing.
    pub fn save_snapshot(&mut self, index: &AnnIndex) -> Result<(), ServeError> {
        self.check_alive()?;
        let t0 = Instant::now();
        let bytes = encode_snapshot(index)?;
        if let Some(survives) = self.plan.torn_write_survives(bytes.len()) {
            // a real torn write: only a prefix of the temp file reaches
            // disk and the rename never happens
            let tmp = tmp_path(&self.snapshot_path);
            std::fs::write(&tmp, &bytes[..survives]).map_err(|e| ServeError::io(&tmp, e))?;
            self.crashed = true;
            return Err(ServeError::InjectedCrash(CrashPoint::SnapshotTempWrite.name()));
        }
        write_atomic_retry(&self.snapshot_path, &bytes, &self.retry)
            .map_err(|e| ServeError::io(&self.snapshot_path, e))?;
        if self.plan.crash_before_journal_truncate {
            self.crashed = true;
            return Err(ServeError::InjectedCrash(CrashPoint::BeforeJournalTruncate.name()));
        }
        // the snapshot now contains everything: compact the journal (and
        // any side journal a crashed online compaction left behind)
        self.buffer.clear();
        self.buffered = 0;
        self.side_mode = false;
        let mut compacted = false;
        for path in [&self.journal_path, &self.side_path] {
            if path.exists() {
                compacted = true;
                std::fs::remove_file(path).map_err(|e| ServeError::io(path, e))?;
                fsync_parent_dir(path);
            }
        }
        if let Some(m) = &self.metrics {
            m.snapshot_saves.inc();
            m.snapshot_save_ns.record(t0.elapsed().as_nanos() as u64);
            if compacted {
                m.compactions.inc();
            }
        }
        Ok(())
    }

    /// Enters side-journal mode: the batch buffer is flushed to the main
    /// journal, and every subsequent append lands in the side journal
    /// while the caller compacts a point-in-time clone off-lock. Nothing
    /// on disk is modified beyond the flush, so a crash here costs
    /// nothing — recovery sees the old snapshot plus the main journal.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when an online compaction is already in
    /// flight; IO failures; an armed fault firing.
    pub fn begin_online_compaction(&mut self) -> Result<(), ServeError> {
        self.check_alive()?;
        if self.side_mode {
            return Err(ServeError::Invalid("online compaction already in progress".into()));
        }
        self.flush_buffer()?;
        self.side_mode = true;
        if self.plan.crash_on_side_install {
            self.crashed = true;
            return Err(ServeError::InjectedCrash(CrashPoint::SideJournalInstall.name()));
        }
        Ok(())
    }

    /// Flushes and reads back every record the side journal accumulated
    /// while the compaction ran, as `(seq, raw_vector)` pairs for the
    /// caller to replay into its clone before the commit.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when no online compaction is in flight; IO
    /// or parse failures (the process is alive, so unlike recovery a torn
    /// or corrupt side record is an error, never tolerated).
    pub fn side_records(&mut self) -> Result<Vec<(usize, Vec<f32>)>, ServeError> {
        self.check_alive()?;
        if !self.side_mode {
            return Err(ServeError::Invalid("no online compaction in progress".into()));
        }
        self.flush_buffer()?;
        let journal = match std::fs::read(&self.side_path) {
            Ok(j) => j,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(ServeError::io(&self.side_path, e)),
        };
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < journal.len() {
            let Some((payload, next)) = frame_at(&journal, pos) else {
                return Err(ServeError::JournalReplay {
                    record: records.len(),
                    detail: "partial side-journal frame while the store is live".into(),
                });
            };
            if crc32(payload) != read_u32(&journal, pos + 4) {
                return Err(ServeError::JournalReplay {
                    record: records.len(),
                    detail: "side-journal checksum mismatch while the store is live".into(),
                });
            }
            let rec: JournalRecord = std::str::from_utf8(payload)
                .ok()
                .and_then(|t| serde_json::from_str(t).ok())
                .ok_or_else(|| ServeError::JournalReplay {
                    record: records.len(),
                    detail: "bad side-journal payload".into(),
                })?;
            records.push((rec.seq as usize, rec.vector));
            pos = next;
        }
        Ok(records)
    }

    /// Commits an online compaction: atomically renames the pre-encoded
    /// snapshot (which must already contain every side record — see
    /// [`IndexStore::side_records`]) over the live one, then deletes the
    /// main journal and the side journal, in that order. Each step has a
    /// crash point; all are recoverable because replay skips records the
    /// snapshot already holds.
    ///
    /// The caller holds whatever lock blocks new appends for the duration
    /// of this call — it is the only "pause" the protocol takes, and it
    /// does no encoding work.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when no online compaction is in flight; IO
    /// failures; an armed fault firing.
    pub fn commit_online_compaction(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.check_alive()?;
        if !self.side_mode {
            return Err(ServeError::Invalid("no online compaction in progress".into()));
        }
        if self.buffered > 0 {
            // the caller must read side_records() and block appends until
            // the commit lands — a buffered record here would be absent
            // from the snapshot it is about to delete the journals of
            return Err(ServeError::Invalid(
                "records appended between side_records() and commit".into(),
            ));
        }
        let t0 = Instant::now();
        if let Some(survives) = self.plan.torn_write_survives(bytes.len()) {
            let tmp = tmp_path(&self.snapshot_path);
            std::fs::write(&tmp, &bytes[..survives]).map_err(|e| ServeError::io(&tmp, e))?;
            self.crashed = true;
            return Err(ServeError::InjectedCrash(CrashPoint::SnapshotTempWrite.name()));
        }
        write_atomic_retry(&self.snapshot_path, bytes, &self.retry)
            .map_err(|e| ServeError::io(&self.snapshot_path, e))?;
        if self.plan.crash_before_journal_truncate {
            self.crashed = true;
            return Err(ServeError::InjectedCrash(CrashPoint::BeforeJournalTruncate.name()));
        }
        if self.journal_path.exists() {
            std::fs::remove_file(&self.journal_path)
                .map_err(|e| ServeError::io(&self.journal_path, e))?;
            fsync_parent_dir(&self.journal_path);
        }
        if self.plan.crash_before_side_truncate {
            self.crashed = true;
            return Err(ServeError::InjectedCrash(CrashPoint::BeforeSideJournalTruncate.name()));
        }
        if self.side_path.exists() {
            std::fs::remove_file(&self.side_path)
                .map_err(|e| ServeError::io(&self.side_path, e))?;
            fsync_parent_dir(&self.side_path);
        }
        self.side_mode = false;
        self.buffer.clear();
        self.buffered = 0;
        if let Some(m) = &self.metrics {
            m.snapshot_saves.inc();
            m.snapshot_save_ns.record(t0.elapsed().as_nanos() as u64);
            m.compactions.inc();
        }
        Ok(())
    }

    /// Appends one ingest record (`seq` = the id the index assigned,
    /// `vector` = the raw pre-normalisation vector). Returns whether the
    /// record is already crash-durable.
    ///
    /// # Errors
    /// IO failures or an armed fault firing — in both cases the record is
    /// **not** acknowledged.
    pub fn append_journal(&mut self, seq: usize, vector: &[f32]) -> Result<Durability, ServeError> {
        self.check_alive()?;
        let payload =
            serde_json::to_string(&JournalRecord { seq: seq as u64, vector: vector.to_vec() })
                .map_err(|e| ServeError::Invalid(format!("journal record serialisation: {e}")))?
                .into_bytes();
        self.buffer.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buffer.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buffer.extend_from_slice(&payload);
        self.buffered += 1;
        if let Some(m) = &self.metrics {
            m.journal_appends.inc();
        }
        if self.buffered < self.flush_every {
            if let Err(e) = self.plan.on_buffered(self.buffered) {
                // crash with the buffer unflushed: the buffered records
                // are gone, exactly like a lost page cache
                self.buffer.clear();
                self.buffered = 0;
                self.crashed = true;
                return Err(e);
            }
            return Ok(Durability::Buffered);
        }
        self.flush_buffer()?;
        if let Err(e) = self.plan.on_append() {
            self.crashed = true;
            return Err(e);
        }
        Ok(Durability::Synced)
    }

    /// Forces any buffered journal records to disk.
    ///
    /// # Errors
    /// IO failures; afterwards every previously buffered record is synced.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.check_alive()?;
        self.flush_buffer()
    }

    fn flush_buffer(&mut self) -> Result<(), ServeError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let path = if self.side_mode { &self.side_path } else { &self.journal_path };
        let plan = &self.plan;
        let buffer = &self.buffer;
        // Journal length before this flush. A failed attempt may have
        // appended a partial frame; each retry truncates back to this
        // length first, so retries can never leave garbage mid-journal
        // (and a re-appended full batch stays replay-idempotent).
        let start_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let fsync_ns = retry(&self.retry, ServeError::is_retryable_io, |_attempt| {
            plan.on_flush_attempt().map_err(|e| ServeError::io(path, e))?;
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| ServeError::io(path, e))?;
            let len = f.metadata().map_err(|e| ServeError::io(path, e))?.len();
            if len > start_len {
                f.set_len(start_len).map_err(|e| ServeError::io(path, e))?;
            }
            f.write_all(buffer).map_err(|e| ServeError::io(path, e))?;
            let t0 = Instant::now();
            f.sync_all().map_err(|e| ServeError::io(path, e))?;
            Ok(t0.elapsed().as_nanos() as u64)
        })?;
        if let Some(m) = &self.metrics {
            m.journal_flushes.inc();
            m.fsync_ns.record(fsync_ns);
        }
        self.buffer.clear();
        self.buffered = 0;
        Ok(())
    }

    /// Recovers the index to the last durable state: snapshot, then main
    /// journal replay, then side journal replay (in the order records
    /// were written — the side journal only ever holds records appended
    /// *after* everything in the main journal). A torn tail record is
    /// discarded (it was never acknowledged); corruption anywhere else is
    /// an error.
    ///
    /// # Errors
    /// Missing/corrupt snapshot or a journal that cannot be replayed.
    pub fn load(&self) -> Result<Recovery, ServeError> {
        let bytes = std::fs::read(&self.snapshot_path)
            .map_err(|e| ServeError::io(&self.snapshot_path, e))?;
        let mut index = decode_snapshot(&bytes, &self.snapshot_path)?;
        let (mut replayed, mut skipped, mut discarded_tail) = (0usize, 0usize, false);
        for path in [&self.journal_path, &self.side_path] {
            let journal = match std::fs::read(path) {
                Ok(j) => j,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(ServeError::io(path, e)),
            };
            let mut pos = 0usize;
            let mut record_no = 0usize;
            while pos < journal.len() {
                let Some((payload, next)) = frame_at(&journal, pos) else {
                    // partial frame at EOF: torn tail, never acknowledged
                    discarded_tail = true;
                    break;
                };
                let stored_crc = read_u32(&journal, pos + 4);
                if crc32(payload) != stored_crc {
                    if next == journal.len() {
                        // final record, bad checksum: a torn write of the
                        // last (unacknowledged) record
                        discarded_tail = true;
                        break;
                    }
                    // corruption with acknowledged records after it —
                    // losing them silently would break the durability
                    // contract
                    return Err(ServeError::JournalReplay {
                        record: record_no,
                        detail: "checksum mismatch before end of journal".into(),
                    });
                }
                let text = std::str::from_utf8(payload).map_err(|_| ServeError::JournalReplay {
                    record: record_no,
                    detail: "payload is not UTF-8".into(),
                })?;
                let rec: JournalRecord =
                    serde_json::from_str(text).map_err(|e| ServeError::JournalReplay {
                        record: record_no,
                        detail: format!("bad payload: {e}"),
                    })?;
                let n = index.len() as u64;
                if rec.seq < n {
                    skipped += 1; // already compacted into the snapshot
                } else if rec.seq == n {
                    index.try_insert(rec.vector).map_err(|e| ServeError::JournalReplay {
                        record: record_no,
                        detail: e.to_string(),
                    })?;
                    replayed += 1;
                } else {
                    return Err(ServeError::JournalReplay {
                        record: record_no,
                        detail: format!("sequence gap: record {} onto {} vectors", rec.seq, n),
                    });
                }
                pos = next;
                record_no += 1;
            }
        }
        self.record_load(replayed, skipped, discarded_tail);
        Ok(Recovery { index, replayed, skipped, discarded_tail })
    }

    /// Counts one completed [`IndexStore::load`] and what its replay saw.
    fn record_load(&self, replayed: usize, skipped: usize, discarded_tail: bool) {
        if let Some(m) = &self.metrics {
            m.loads.inc();
            m.replayed.add(replayed as u64);
            m.skipped.add(skipped as u64);
            if discarded_tail {
                m.discarded_tails.inc();
            }
        }
    }

    /// Integrity check without mutating anything: header + checksum of the
    /// snapshot, frame scan of the main and side journals, and the journal
    /// tail length (records not yet folded into a snapshot).
    pub fn verify(&self) -> VerifyReport {
        let snapshot = self.verify_snapshot();
        let journal = self.verify_journal_at(&self.journal_path);
        let side_journal = self.verify_journal_at(&self.side_path);
        let tail_records = if snapshot.error.is_none() && snapshot.format != "missing" {
            count_tail_records(&self.journal_path, snapshot.count)
                + count_tail_records(&self.side_path, snapshot.count)
        } else {
            0
        };
        let ok = snapshot.error.is_none()
            && snapshot.format != "missing"
            && journal.error.is_none()
            && side_journal.error.is_none();
        VerifyReport { snapshot, journal, side_journal, tail_records, ok }
    }

    fn verify_snapshot(&self) -> SnapshotReport {
        let path = self.snapshot_path.display().to_string();
        let mut r = SnapshotReport {
            path,
            format: "corrupt".into(),
            version: 0,
            dim: 0,
            nlist: 0,
            count: 0,
            header_ok: false,
            payload_ok: false,
            bytes: 0,
            facets: Vec::new(),
            quant: Vec::new(),
            error: None,
        };
        let bytes = match std::fs::read(&self.snapshot_path) {
            Ok(b) => b,
            Err(e) => {
                r.format = "missing".into();
                r.error = Some(e.to_string());
                return r;
            }
        };
        r.bytes = bytes.len() as u64;
        if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
            // pre-v1 snapshots were bare JSON
            match AnnIndex::from_json(std::str::from_utf8(&bytes).unwrap_or("")) {
                Ok(idx) => {
                    r.format = "legacy-json".into();
                    r.dim = idx.dim();
                    r.nlist = idx.nlist();
                    r.count = idx.len() as u64;
                    r.header_ok = true;
                    r.payload_ok = true;
                    r.facets = idx.facet_checksums();
                    r.quant = idx.quant_checksums();
                }
                Err(e) => r.error = Some(format!("not a v1 snapshot and not legacy JSON: {e}")),
            }
            return r;
        }
        if crc32(&bytes[..HEADER_LEN - 4]) != read_u32(&bytes, HEADER_LEN - 4) {
            r.error = Some("header checksum mismatch".into());
            return r;
        }
        r.header_ok = true;
        r.version = read_u32(&bytes, 8);
        r.dim = read_u32(&bytes, 12) as usize;
        r.nlist = read_u32(&bytes, 16) as usize;
        r.count = read_u64(&bytes, 20);
        if r.version == 0 || r.version > FORMAT_VERSION {
            r.error = Some(format!("unsupported format version {}", r.version));
            return r;
        }
        let payload_len = read_u64(&bytes, 28) as usize;
        if bytes.len() != HEADER_LEN + payload_len {
            r.error = Some(format!(
                "payload length mismatch: header says {payload_len}, file holds {}",
                bytes.len() - HEADER_LEN
            ));
            return r;
        }
        if crc32(&bytes[HEADER_LEN..]) != read_u32(&bytes, 36) {
            r.error = Some("payload checksum mismatch".into());
            return r;
        }
        r.payload_ok = true;
        r.format = format!("v{}", r.version);
        // decode the payload to report per-facet segment checksums; a
        // payload the checksums accepted but the parser rejects is still
        // an integrity failure worth surfacing
        match std::str::from_utf8(&bytes[HEADER_LEN..])
            .ok()
            .and_then(|t| AnnIndex::from_json(t).ok())
        {
            Some(idx) => {
                r.facets = idx.facet_checksums();
                r.quant = idx.quant_checksums();
            }
            None => r.error = Some("payload checksums pass but JSON is rejected".into()),
        }
        r
    }

    fn verify_journal_at(&self, journal_path: &Path) -> JournalReport {
        let path = journal_path.display().to_string();
        let mut r = JournalReport {
            path,
            present: false,
            valid_records: 0,
            bytes: 0,
            torn_tail: false,
            error: None,
        };
        let journal = match std::fs::read(journal_path) {
            Ok(j) => j,
            Err(_) => return r,
        };
        r.present = true;
        r.bytes = journal.len() as u64;
        let mut pos = 0usize;
        while pos < journal.len() {
            let Some((payload, next)) = frame_at(&journal, pos) else {
                r.torn_tail = true;
                break;
            };
            if crc32(payload) != read_u32(&journal, pos + 4) {
                if next == journal.len() {
                    r.torn_tail = true;
                } else {
                    r.error = Some(format!(
                        "record {} checksum mismatch before end of journal",
                        r.valid_records
                    ));
                }
                break;
            }
            r.valid_records += 1;
            pos = next;
        }
        r
    }
}

/// `<snapshot>.journal`, preserving the original extension as part of the
/// file name (`index.json` → `index.json.journal`).
pub fn journal_path_for(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".journal");
    PathBuf::from(name)
}

/// `<snapshot>.journal.side` — where appends land while an online
/// compaction is in flight.
pub fn side_journal_path_for(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".journal.side");
    PathBuf::from(name)
}

/// Counts checksum-valid records in `path` whose `seq` is at or past
/// `snapshot_count` — the journal tail a compaction would fold in.
/// Unreadable frames and records stop the count (verification reports
/// them separately); a missing file counts zero.
fn count_tail_records(path: &Path, snapshot_count: u64) -> usize {
    let Ok(journal) = std::fs::read(path) else { return 0 };
    let mut tail = 0usize;
    let mut pos = 0usize;
    while pos < journal.len() {
        let Some((payload, next)) = frame_at(&journal, pos) else { break };
        if crc32(payload) != read_u32(&journal, pos + 4) {
            break;
        }
        let Some(rec) = std::str::from_utf8(payload)
            .ok()
            .and_then(|t| serde_json::from_str::<JournalRecord>(t).ok())
        else {
            break;
        };
        if rec.seq >= snapshot_count {
            tail += 1;
        }
        pos = next;
    }
    tail
}

/// Returns `(payload, next_offset)` for the frame at `pos`, or `None` when
/// the remaining bytes cannot hold a complete frame.
fn frame_at(journal: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if journal.len() - pos < 8 {
        return None;
    }
    let len = read_u32(journal, pos) as usize;
    let next = pos.checked_add(8)?.checked_add(len)?;
    if next > journal.len() {
        return None;
    }
    Some((&journal[pos + 8..next], next))
}

/// Encodes `index` as a headered v3 snapshot byte blob. `pub(crate)` so
/// the shard's online compaction can do the expensive encode off-lock and
/// hand the finished bytes to [`IndexStore::commit_online_compaction`].
pub(crate) fn encode_snapshot(index: &AnnIndex) -> Result<Vec<u8>, ServeError> {
    let payload = index.to_json_bytes()?;
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(index.dim() as u32).to_le_bytes());
    bytes.extend_from_slice(&(index.nlist() as u32).to_le_bytes());
    bytes.extend_from_slice(&(index.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    let header_crc = crc32(&bytes);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes)
}

fn decode_snapshot(bytes: &[u8], path: &Path) -> Result<AnnIndex, ServeError> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        // fall back to the pre-v1 bare-JSON format
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ServeError::corrupt(path, "neither a v1 snapshot nor UTF-8 JSON"))?;
        return AnnIndex::from_json(text)
            .map_err(|e| ServeError::corrupt(path, format!("legacy JSON rejected: {e}")));
    }
    if crc32(&bytes[..HEADER_LEN - 4]) != read_u32(bytes, HEADER_LEN - 4) {
        return Err(ServeError::corrupt(path, "header checksum mismatch"));
    }
    // v1 payloads decode through the same path: the facet layout they
    // lack deserialises as "no layout", i.e. the fused single-segment
    // view — that *is* the migration. The next save rewrites as v2.
    let version = read_u32(bytes, 8);
    if version == 0 || version > FORMAT_VERSION {
        return Err(ServeError::corrupt(path, format!("unsupported format version {version}")));
    }
    let payload_len = read_u64(bytes, 28) as usize;
    if bytes.len() != HEADER_LEN + payload_len {
        return Err(ServeError::corrupt(
            path,
            format!(
                "payload length mismatch: header says {payload_len}, file holds {}",
                bytes.len() - HEADER_LEN
            ),
        ));
    }
    let payload = &bytes[HEADER_LEN..];
    if crc32(payload) != read_u32(bytes, 36) {
        return Err(ServeError::corrupt(path, "payload checksum mismatch"));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| ServeError::corrupt(path, "payload is not UTF-8"))?;
    let index = AnnIndex::from_json(text)
        .map_err(|e| ServeError::corrupt(path, format!("payload rejected: {e}")))?;
    let (dim, nlist, count) =
        (read_u32(bytes, 12) as usize, read_u32(bytes, 16) as usize, read_u64(bytes, 20));
    if index.dim() != dim || index.nlist() != nlist || index.len() as u64 != count {
        return Err(ServeError::corrupt(
            path,
            format!(
                "header/payload disagreement: header ({dim}, {nlist}, {count}) vs payload ({}, {}, {})",
                index.dim(),
                index.nlist(),
                index.len()
            ),
        ));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sem-store-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard test vector for CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_roundtrip_and_verify() {
        let dir = tmp_dir("roundtrip");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(300, 8, 1), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let rec = store.load().unwrap();
        assert_eq!(rec.replayed, 0);
        assert!(!rec.discarded_tail);
        let q = random_vectors(1, 8, 2).pop().unwrap();
        assert_eq!(rec.index.search(&q, 5), idx.search(&q, 5));
        let report = store.verify();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.snapshot.format, "v3");
        assert_eq!(report.snapshot.version, 3);
        assert_eq!(report.snapshot.count, 300);
        // an un-faceted index reports the single fused segment checksum
        assert_eq!(report.snapshot.facets.len(), 1);
        assert_eq!(report.snapshot.facets[0].name, "fused");
        assert_eq!(report.snapshot.facets[0].dim, 8);
        // unquantized stores carry no code checksums
        assert!(report.snapshot.quant.is_empty());
        assert!(!report.journal.present);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_snapshot_survives_roundtrip_and_verify_reports_codes() {
        let dir = tmp_dir("quantized");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(200, 9, 60), IndexConfig::default())
            .with_layout(crate::facet::FacetLayout::sem(3))
            .unwrap()
            .with_sq8()
            .unwrap();
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let rec = store.load().unwrap();
        assert!(rec.index.is_quantized());
        let q = random_vectors(1, 9, 61).pop().unwrap();
        assert_eq!(rec.index.search(&q, 5), idx.search(&q, 5));
        let report = store.verify();
        assert!(report.ok, "{report:?}");
        let names: Vec<&str> = report.snapshot.quant.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["bg", "method", "result"]);
        assert_eq!(report.snapshot.quant, idx.quant_checksums());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faceted_layout_survives_snapshot_and_verify_reports_segments() {
        let dir = tmp_dir("faceted");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(120, 9, 40), IndexConfig::default())
            .with_layout(crate::facet::FacetLayout::sem(3))
            .unwrap();
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let rec = store.load().unwrap();
        assert!(rec.index.has_facets());
        assert_eq!(rec.index.layout(), idx.layout());
        let report = store.verify();
        assert!(report.ok, "{report:?}");
        let names: Vec<&str> = report.snapshot.facets.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["bg", "method", "result"]);
        assert_eq!(report.snapshot.facets, idx.facet_checksums());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_restores_every_synced_append() {
        let dir = tmp_dir("replay");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(50, 6, 3), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let extra = random_vectors(7, 6, 4);
        let mut reference = idx.clone();
        for v in &extra {
            let seq = reference.len();
            assert_eq!(store.append_journal(seq, v).unwrap(), Durability::Synced);
            reference.try_insert(v.clone()).unwrap();
        }
        // "crash": drop the store, recover from disk
        drop(store);
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.replayed, 7);
        assert_eq!(rec.index.len(), 57);
        let q = random_vectors(1, 6, 5).pop().unwrap();
        assert_eq!(rec.index.search(&q, 10), reference.search(&q, 10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_appends_are_buffered_until_sync() {
        let dir = tmp_dir("batch");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(40, 4, 6), IndexConfig::default());
        let mut store = IndexStore::open(&snap).with_flush_every(3);
        store.save_snapshot(&idx).unwrap();
        let vs = random_vectors(4, 4, 7);
        assert_eq!(store.append_journal(40, &vs[0]).unwrap(), Durability::Buffered);
        assert_eq!(store.append_journal(41, &vs[1]).unwrap(), Durability::Buffered);
        assert_eq!(store.append_journal(42, &vs[2]).unwrap(), Durability::Synced);
        assert_eq!(store.append_journal(43, &vs[3]).unwrap(), Durability::Buffered);
        assert_eq!(store.buffered_records(), 1);
        // a crash here may lose the buffered record 43 — it was never
        // acknowledged as durable
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 43);
        // sync makes it durable
        store.sync().unwrap();
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 44);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_flush_failures_are_absorbed_by_retry() {
        let dir = tmp_dir("transient-flush");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 10), IndexConfig::default());
        let policy = RetryPolicy { base_delay_ms: 0, ..RetryPolicy::with_attempts(3) };
        let mut store = IndexStore::open(&snap)
            .with_fault_plan(FaultPlan::transient_flush(2))
            .with_retry(policy);
        store.save_snapshot(&idx).unwrap();
        // Two injected transient failures fit inside the three-attempt
        // budget: the append still acknowledges durable.
        let v = random_vectors(1, 4, 11).pop().unwrap();
        assert_eq!(store.append_journal(30, &v).unwrap(), Durability::Synced);
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.index.len(), 31);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_flush_retries_fail_without_poisoning_the_store() {
        let dir = tmp_dir("flush-exhausted");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 12), IndexConfig::default());
        let policy = RetryPolicy { base_delay_ms: 0, ..RetryPolicy::with_attempts(2) };
        let mut store = IndexStore::open(&snap)
            .with_fault_plan(FaultPlan::transient_flush(3))
            .with_retry(policy);
        store.save_snapshot(&idx).unwrap();
        let v = random_vectors(1, 4, 13).pop().unwrap();
        let err = store.append_journal(30, &v).unwrap_err();
        assert!(!err.is_injected(), "transient exhaustion is an Io error, not a crash");
        assert!(err.is_retryable_io());
        // Unlike a crash fault, a transient failure does not poison the
        // store: the record is still buffered and the next sync (third
        // injected failure consumed, budget refreshed) lands it.
        store.sync().unwrap();
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 31);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_snapshot_compacts_the_journal() {
        let dir = tmp_dir("compact");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 8), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let v = random_vectors(1, 4, 9).pop().unwrap();
        store.append_journal(30, &v).unwrap();
        assert!(store.journal_path().exists());
        let rec = store.load().unwrap();
        store.save_snapshot(&rec.index).unwrap();
        assert!(!store.journal_path().exists());
        let rec2 = store.load().unwrap();
        assert_eq!(rec2.index.len(), 31);
        assert_eq!(rec2.replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_bare_json_snapshots_still_load() {
        let dir = tmp_dir("legacy");
        let snap = dir.join("index.json");
        let idx = AnnIndex::build(random_vectors(20, 4, 10), IndexConfig::default());
        std::fs::write(&snap, idx.to_json().unwrap()).unwrap();
        let store = IndexStore::open(&snap);
        let rec = store.load().unwrap();
        assert_eq!(rec.index.len(), 20);
        let report = store.verify();
        assert!(report.ok);
        assert_eq!(report.snapshot.format, "legacy-json");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Drives one full online compaction: 3 records already in the main
    /// journal, 4 more appended into the side journal while the compaction
    /// "runs". Returns the in-memory reference index over every
    /// *acknowledged* operation, plus the injected crash when `plan` fired
    /// — the recovery contract is stated over acknowledged records only.
    fn online_compaction_roundtrip(dir: &Path, plan: FaultPlan) -> (AnnIndex, Option<ServeError>) {
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(60, 6, 70), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        let mut live = idx;
        // records already in the main journal before compaction starts
        for v in random_vectors(3, 6, 71) {
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
        }
        drop(store);
        let mut store = IndexStore::open(&snap).with_fault_plan(plan);
        let mut clone = store.load().unwrap().index;
        if let Err(e) = store.begin_online_compaction() {
            return (live, Some(e));
        }
        // ingest continues while the encode runs: these land in the side
        // journal (acknowledged one by one)
        for v in random_vectors(4, 6, 72) {
            if let Err(e) = store.append_journal(live.len(), &v) {
                return (live, Some(e));
            }
            live.try_insert(v).unwrap();
        }
        let records = match store.side_records() {
            Ok(r) => r,
            Err(e) => return (live, Some(e)),
        };
        for (seq, v) in records {
            assert_eq!(seq, clone.len());
            clone.try_insert(v).unwrap();
        }
        let bytes = encode_snapshot(&clone).unwrap();
        if let Err(e) = store.commit_online_compaction(&bytes) {
            return (live, Some(e));
        }
        assert!(!store.compacting());
        assert!(!store.journal_path().exists());
        assert!(!store.side_journal_path().exists());
        (live, None)
    }

    #[test]
    fn online_compaction_folds_main_and_side_journals() {
        let dir = tmp_dir("online-compact");
        let (live, err) = online_compaction_roundtrip(&dir, FaultPlan::none());
        assert!(err.is_none());
        let rec = IndexStore::open(dir.join("index.bin")).load().unwrap();
        assert_eq!(rec.replayed, 0, "everything is inside the snapshot");
        assert_eq!(rec.index.len(), live.len());
        // the compacted store is byte-identical to the never-compacted
        // in-memory run
        assert_eq!(rec.index.to_json().unwrap(), live.to_json().unwrap());
        let q = random_vectors(1, 6, 73).pop().unwrap();
        assert_eq!(rec.index.search(&q, 10), live.search(&q, 10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_every_online_compaction_step_recovers_identically() {
        for (name, plan) in [
            ("side-install", FaultPlan::crash_on_side_install()),
            ("torn-temp", FaultPlan::torn_snapshot(20)),
            ("before-main-truncate", FaultPlan::crash_mid_compaction()),
            ("before-side-truncate", FaultPlan::crash_before_side_truncate()),
        ] {
            let dir = tmp_dir(&format!("online-crash-{name}"));
            let (live, err) = online_compaction_roundtrip(&dir, plan);
            let err = err.expect(name);
            assert!(err.is_injected(), "{name}: {err}");
            // reboot: a fresh store over the same wreckage must recover
            // exactly the acknowledged state, byte for byte
            let rec = IndexStore::open(dir.join("index.bin")).load().unwrap();
            assert_eq!(rec.index.len(), live.len(), "{name} lost acknowledged records");
            assert_eq!(
                rec.index.to_json().unwrap(),
                live.to_json().unwrap(),
                "{name}: recovery must be byte-identical to the never-crashed reference"
            );
            // and the wreckage itself verifies as recoverable
            assert!(IndexStore::open(dir.join("index.bin")).verify().ok, "{name}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn verify_reports_journal_tail_and_side_journal() {
        let dir = tmp_dir("tail");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(40, 4, 75), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        assert_eq!(store.verify().tail_records, 0);
        let mut live = idx;
        for v in random_vectors(5, 4, 76) {
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
        }
        let report = store.verify();
        assert_eq!(report.tail_records, 5, "five entries since the last snapshot");
        assert!(!report.side_journal.present);
        // mid-compaction, side records count toward the tail too
        store.begin_online_compaction().unwrap();
        for v in random_vectors(2, 4, 77) {
            store.append_journal(live.len(), &v).unwrap();
            live.try_insert(v).unwrap();
        }
        let report = store.verify();
        assert!(report.side_journal.present);
        assert_eq!(report.side_journal.valid_records, 2);
        assert_eq!(report.tail_records, 7);
        assert!(report.ok);
        // a blocking save folds everything and clears both journals
        store.save_snapshot(&live).unwrap();
        let report = store.verify();
        assert_eq!(report.tail_records, 0);
        assert!(!report.journal.present);
        assert!(!report.side_journal.present);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn online_compaction_misuse_is_typed() {
        let dir = tmp_dir("online-misuse");
        let snap = dir.join("index.bin");
        let idx = AnnIndex::build(random_vectors(30, 4, 78), IndexConfig::default());
        let mut store = IndexStore::open(&snap);
        store.save_snapshot(&idx).unwrap();
        // commit/side_records without begin
        assert!(matches!(store.side_records(), Err(ServeError::Invalid(_))));
        assert!(matches!(store.commit_online_compaction(&[]), Err(ServeError::Invalid(_))));
        store.begin_online_compaction().unwrap();
        // double begin
        assert!(matches!(store.begin_online_compaction(), Err(ServeError::Invalid(_))));
        let mut clone = idx.clone();
        store.append_journal(30, &random_vectors(1, 4, 79)[0]).unwrap();
        for (seq, vec) in store.side_records().unwrap() {
            assert_eq!(seq, clone.len());
            clone.try_insert(vec).unwrap();
        }
        let bytes = encode_snapshot(&clone).unwrap();
        // a record still buffered between side_records() and commit is
        // refused — the snapshot about to land would not contain it
        let mut batched = IndexStore::open(dir.join("other.bin")).with_flush_every(8);
        batched.save_snapshot(&idx).unwrap();
        batched.begin_online_compaction().unwrap();
        batched.append_journal(30, &random_vectors(1, 4, 80)[0]).unwrap();
        assert!(matches!(batched.commit_online_compaction(&bytes), Err(ServeError::Invalid(_))));
        // the well-behaved store commits fine
        store.commit_online_compaction(&bytes).unwrap();
        let rec = IndexStore::open(&snap).load().unwrap();
        assert_eq!(rec.index.len(), 31);
        assert_eq!(rec.replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_a_typed_io_error() {
        let store = IndexStore::open("/nonexistent/dir/index.bin");
        match store.load() {
            Err(ServeError::Io { path, .. }) => {
                assert!(path.to_string_lossy().contains("index.bin"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(!store.verify().ok);
    }
}
