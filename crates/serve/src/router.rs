//! The scatter-gather router: one query fans out across every shard on the
//! rayon pool, per-shard top-K lists come back globally addressed, and a
//! bounded binary-heap merge produces the final ranking. A plain,
//! unsharded index is the same router with one shard.
//!
//! **Routing.** Ingestion is routed to the shard owning the next global id
//! (see [`crate::shard`] for the arithmetic): the router picks the
//! smallest unassigned id among *healthy* shards — `min over s of
//! len_s · N + s` — which keeps the positional id invariant intact even
//! after a shard recovers shorter than its peers (lost never-acknowledged
//! tail records are simply re-assignable ids) and naturally rebalances a
//! healed shard by steering ingests at it until it catches up.
//!
//! **Failure model.** A shard whose store dies goes down alone: queries
//! keep being answered from the remaining shards, honestly flagged
//! [`DegradeReason::ShardsDown`], and [`ShardRouter::recover_shard`] heals
//! exactly the dead shard from its own snapshot+journal pair while the
//! rest keep serving warm caches. Ingests whose owning shard is down fail
//! with a typed [`ServeError::ShardDown`].
//!
//! **Persistence layout.** A family of N > 1 shards keeps shard `i` of
//! `base` at `base.shard<i>` (its journal alongside, as always), and
//! `base.manifest` records the shard count and vector width so `open` and
//! `verify` can walk the family without guessing. A one-shard family is a
//! plain snapshot at `base` itself, with no manifest.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rayon::prelude::*;
use sem_obs::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::facet::{FacetLayout, RerankParams};
use crate::index::{normalized, AnnIndex, Hit, ReclusterReport};
use crate::shard::{
    merge_top_k, shard_of, CompactionReport, LocalHits, MaintenanceStatus, Shard, ShardConfig,
    ShardStatsSnapshot,
};
use crate::store::{Durability, IndexStore, RecoveryStats, VerifyReport};

/// One top-K query.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Query vector (any scale; similarity is cosine).
    pub vector: Vec<f32>,
    /// Number of results wanted.
    pub k: usize,
    /// Wall-clock budget for this request, measured from
    /// [`QueryRequest::arrival`]. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// When the request actually arrived (e.g. its scheduled arrival in an
    /// open-loop load test). Deadlines are measured from here, so time
    /// spent queueing upstream counts against the budget and an
    /// already-expired request can be shed at admission. `None` means
    /// "arrived now".
    pub arrival: Option<Instant>,
    /// Stage-2 rerank parameters (facet weights + MMR λ). `None` — the
    /// canonical form of uniform weights with λ=0 — is the plain fused
    /// scan.
    pub rerank: Option<RerankParams>,
}

impl QueryRequest {
    /// A request with no deadline and no rerank.
    pub fn new(vector: Vec<f32>, k: usize) -> Self {
        QueryRequest { vector, k, deadline: None, arrival: None, rerank: None }
    }

    /// Sets a wall-clock budget for this request.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Backdates the request's arrival; its deadline budget is measured
    /// from this instant rather than from entry into the router.
    pub fn with_arrival(mut self, arrival: Instant) -> Self {
        self.arrival = Some(arrival);
        self
    }

    /// Attaches stage-2 rerank parameters. Default parameters (uniform
    /// weights, λ=0) canonicalise to `None` so they share cache entries —
    /// and results, bit for bit — with plain queries.
    pub fn with_rerank(mut self, params: RerankParams) -> Self {
        self.rerank = params.canonical();
        self
    }
}

/// Why a response is degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DegradeReason {
    /// The deadline budget ran out: the hits are a partial (possibly
    /// empty) result from a shrunk probe count or truncated scan.
    Deadline,
    /// One or more shards were down: the hits are a correct merge over
    /// the shards that answered, but papers owned by the dead shards are
    /// missing.
    ShardsDown,
    /// One or more shards straggled past the hedge budget and neither the
    /// original attempt nor the hedged retry answered in time: the hits
    /// are a correct merge over the shards that did answer.
    ShardSlow,
}

/// A served result: the hits plus an honest account of their quality.
#[derive(Clone, Debug, Serialize)]
pub struct QueryResponse {
    /// Top-K hits, best first (may be partial when `degraded`).
    pub hits: Vec<Hit>,
    /// `false` = full-fidelity search within budget.
    pub degraded: bool,
    /// Set exactly when `degraded`.
    pub reason: Option<DegradeReason>,
}

/// Acknowledgement of one ingest.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IngestAck {
    /// Global id the router assigned.
    pub id: usize,
    /// `true` when the ingest is journaled and fsynced (crash-durable).
    /// `false` without an attached store, or while a journal batch is
    /// still buffered.
    pub durable: bool,
}

/// Latency distribution of one pipeline stage, extracted from its
/// log-bucketed [`sem_obs::Histogram`]. Percentiles are lifetime
/// approximations (≤ 25% relative error from the bucket width), monotone
/// by construction.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencySummary {
    /// Lifetime number of samples.
    pub count: u64,
    /// Lifetime mean, nanoseconds.
    pub mean_ns: u64,
    /// Approximate median, nanoseconds.
    pub p50_ns: u64,
    /// Approximate 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

impl LatencySummary {
    pub(crate) fn of(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p99_ns: h.quantile(0.99),
        }
    }
}

/// Snapshot path of shard `i`: `base.shard<i>`.
pub fn shard_snapshot_path(base: &Path, shard: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{shard}"));
    PathBuf::from(name)
}

/// Manifest path for a sharded index family: `base.manifest`.
pub fn manifest_path(base: &Path) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".manifest");
    PathBuf::from(name)
}

/// On-disk description of a sharded index family.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest format version (1).
    pub version: u32,
    /// Number of shards.
    pub shards: usize,
    /// Vector width every shard serves.
    pub dim: usize,
}

impl ShardManifest {
    /// Reads and validates `base.manifest`.
    ///
    /// # Errors
    /// Missing file, malformed JSON, or an unsupported version.
    pub fn load(base: &Path) -> Result<Self, ServeError> {
        let path = manifest_path(base);
        let text = std::fs::read_to_string(&path).map_err(|e| ServeError::io(&path, e))?;
        let m: ShardManifest = serde_json::from_str(&text)
            .map_err(|e| ServeError::corrupt(&path, format!("manifest rejected: {e}")))?;
        if m.version != 1 {
            return Err(ServeError::corrupt(
                &path,
                format!("unsupported manifest version {}", m.version),
            ));
        }
        if m.shards == 0 {
            return Err(ServeError::corrupt(&path, "manifest declares zero shards"));
        }
        Ok(m)
    }

    /// Atomically writes `base.manifest`.
    ///
    /// # Errors
    /// Serialisation or IO failures.
    pub fn save(&self, base: &Path) -> Result<(), ServeError> {
        let path = manifest_path(base);
        let bytes = serde_json::to_string_pretty(self)
            .map_err(|e| ServeError::Invalid(format!("manifest serialisation: {e}")))?
            .into_bytes();
        sem_train::atomic::write_atomic_retry(
            &path,
            &bytes,
            &sem_train::retry::RetryPolicy::default(),
        )
        .map_err(|e| ServeError::io(&path, e))
    }

    /// `true` when `base` names a sharded family (manifest file present).
    pub fn exists(base: &Path) -> bool {
        manifest_path(base).exists()
    }
}

/// Where the stores of the family at `base` live — the one place the
/// on-disk layout rule is written down. With a manifest, shard `i` lives
/// at `base.shard<i>`; without one, `base` is a plain snapshot served as
/// a one-shard family. Also returns the manifest's declared width (`None`
/// for a plain snapshot, whose width is its own).
fn family_stores(base: &Path) -> Result<(Vec<PathBuf>, Option<usize>), ServeError> {
    if !ShardManifest::exists(base) {
        return Ok((vec![base.to_path_buf()], None));
    }
    let manifest = ShardManifest::load(base)?;
    let paths = (0..manifest.shards).map(|i| shard_snapshot_path(base, i)).collect();
    Ok((paths, Some(manifest.dim)))
}

/// Router-level metric handles.
struct RouterMetrics {
    registry: Arc<Registry>,
    queries: Arc<Counter>,
    fanouts: Arc<Counter>,
    merge_ns: Arc<Histogram>,
    degraded: Arc<Counter>,
    shards_down_serves: Arc<Counter>,
    ingested: Arc<Counter>,
    hedges: Arc<Counter>,
    hedge_wins: Arc<Counter>,
    slow_omits: Arc<Counter>,
    shed_overload: Arc<Counter>,
    shed_expired: Arc<Counter>,
    inflight: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        RouterMetrics {
            queries: registry.counter("serve.router.queries"),
            fanouts: registry.counter("serve.router.fanouts"),
            merge_ns: registry.histogram("serve.router.merge.ns"),
            degraded: registry.counter("serve.router.degraded"),
            shards_down_serves: registry.counter("serve.router.shards_down_serves"),
            ingested: registry.counter("serve.router.ingested"),
            hedges: registry.counter("serve.router.hedges"),
            hedge_wins: registry.counter("serve.router.hedge.wins"),
            slow_omits: registry.counter("serve.router.slow_omits"),
            shed_overload: registry.counter("serve.shed.overload"),
            shed_expired: registry.counter("serve.shed.expired"),
            inflight: registry.gauge("serve.router.inflight"),
            registry,
        }
    }
}

/// Hedged scatter-gather knobs (see [`ShardRouter::set_hedge`]).
///
/// **Invariant:** hedging never changes *what* a shard would answer, only
/// *whether the router keeps waiting* — whenever every shard beats the
/// soft timeout (no hedge fires), the merged result is bit-identical to
/// the plain rayon fan-out's.
#[derive(Clone, Copy, Debug)]
pub struct HedgeConfig {
    /// How long the router waits for a shard's first attempt before
    /// launching a hedged retry against the same shard.
    pub soft_timeout: Duration,
    /// Additional grace granted to hedged retries; a shard that answers
    /// with neither attempt inside it is omitted from the merge and the
    /// response degrades with [`DegradeReason::ShardSlow`].
    pub hedge_wait: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            soft_timeout: Duration::from_millis(25),
            hedge_wait: Duration::from_millis(25),
        }
    }
}

/// Admission state: a bounded budget of concurrently-served queries.
/// `max_inflight == 0` disables shedding (the default).
struct Admission {
    max_inflight: AtomicUsize,
    retry_after_ms: AtomicU64,
    inflight: AtomicUsize,
}

/// RAII inflight slot: decrements on drop, so every exit path (including
/// errors and panicking shard scans) releases its budget.
struct AdmissionPermit<'a> {
    admission: &'a Admission,
    gauge: &'a Gauge,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
        self.gauge.add(-1.0);
    }
}

impl Admission {
    fn unbounded() -> Self {
        Admission {
            max_inflight: AtomicUsize::new(0),
            retry_after_ms: AtomicU64::new(100),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Takes an inflight slot or sheds with [`ServeError::Overloaded`].
    fn acquire<'a>(&'a self, gauge: &'a Gauge) -> Result<AdmissionPermit<'a>, ServeError> {
        let max = self.max_inflight.load(Ordering::Acquire);
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if max > 0 && prev >= max {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Overloaded {
                retry_after_ms: self.retry_after_ms.load(Ordering::Acquire),
            });
        }
        gauge.add(1.0);
        Ok(AdmissionPermit { admission: self, gauge })
    }
}

/// What one scatter produced, before merge + degradation accounting.
struct Gather {
    lists: Vec<Vec<Hit>>,
    shards_down: usize,
    slow_omits: usize,
    deadline_degraded: bool,
    fanouts: u64,
    hedges: u64,
    hedge_wins: u64,
}

/// Point-in-time router counters plus every shard's snapshot.
#[derive(Clone, Debug, Serialize)]
pub struct RouterStatsSnapshot {
    /// Total vectors across shards.
    pub len: usize,
    /// Number of shards.
    pub shards: usize,
    /// Shards currently down.
    pub shards_down: usize,
    /// Queries answered.
    pub queries: u64,
    /// Shard searches fanned out (≤ queries × shards).
    pub fanouts: u64,
    /// Responses flagged degraded (any reason).
    pub degraded: u64,
    /// Responses served with at least one shard missing.
    pub shards_down_serves: u64,
    /// Papers ingested through the router.
    pub ingested: u64,
    /// Hedged retries launched against straggling shards.
    pub hedges: u64,
    /// Hedged retries that answered before the original attempt.
    pub hedge_wins: u64,
    /// Shard results omitted from a merge because neither attempt beat
    /// the hedge budget.
    pub slow_omits: u64,
    /// Queries shed at admission ([`ServeError::Overloaded`]).
    pub shed_overload: u64,
    /// Queries shed because their deadline had already expired on
    /// arrival (no shard was scanned).
    pub shed_expired: u64,
    /// Queries currently being served.
    pub inflight: u64,
    /// Per-query merge latency.
    pub merge: LatencySummary,
    /// Per-shard counters.
    pub per_shard: Vec<ShardStatsSnapshot>,
}

/// Integrity report for one shard of a family.
#[derive(Debug, Serialize)]
pub struct ShardVerifyEntry {
    /// Shard ordinal.
    pub shard: usize,
    /// `true` when this shard's pair would recover cleanly.
    pub ok: bool,
    /// The shard store's full report.
    pub report: VerifyReport,
}

/// Operator-facing integrity report over a whole index family
/// (`sem index verify`); a plain snapshot reports as one shard.
#[derive(Debug, Serialize)]
pub struct ShardedVerifyReport {
    /// Declared shard count.
    pub shards: usize,
    /// Vector width from the manifest (a plain snapshot's own header).
    pub dim: usize,
    /// Per-shard verdicts.
    pub per_shard: Vec<ShardVerifyEntry>,
    /// `true` only when every shard verifies clean.
    pub ok: bool,
}

/// Verifies every shard store of the family at `base` without mutating
/// anything: manifest first (when there is one), then each shard's
/// snapshot+journal pair.
///
/// # Errors
/// Only a corrupt manifest errors; per-shard failures (a missing plain
/// snapshot included) land in the report with `ok: false`.
pub fn verify_sharded(base: &Path) -> Result<ShardedVerifyReport, ServeError> {
    let (paths, declared_dim) = family_stores(base)?;
    let per_shard: Vec<ShardVerifyEntry> = paths
        .into_iter()
        .enumerate()
        .map(|(i, path)| {
            let report = IndexStore::open(path).verify();
            ShardVerifyEntry { shard: i, ok: report.ok, report }
        })
        .collect();
    let ok = per_shard.iter().all(|e| e.ok);
    let dim = declared_dim.unwrap_or(per_shard[0].report.snapshot.dim);
    Ok(ShardedVerifyReport { shards: per_shard.len(), dim, per_shard, ok })
}

/// The serving stack: N [`Shard`]s behind one scatter-gather front end
/// (N = 1 for a plain snapshot).
pub struct ShardRouter {
    /// `Arc` so hedged fan-out can hand a straggling shard to a detached
    /// thread without borrowing from the router's lifetime.
    shards: Vec<Arc<Shard>>,
    dim: usize,
    config: ShardConfig,
    /// Serialises global-id assignment across concurrent ingests.
    ingest_lock: Mutex<()>,
    admission: Admission,
    hedge: Mutex<Option<HedgeConfig>>,
    metrics: RouterMetrics,
}

impl ShardRouter {
    /// Builds a sharded index over `vectors` (global ids are assigned in
    /// order, round-robin across shards), recording metrics into a private
    /// registry.
    ///
    /// # Errors
    /// Empty input, fewer vectors than shards, inconsistent widths, or a
    /// zero shard count.
    pub fn try_build(vectors: Vec<Vec<f32>>, config: ShardConfig) -> Result<Self, ServeError> {
        Self::try_build_with_metrics(vectors, config, Arc::new(Registry::new()))
    }

    /// [`ShardRouter::try_build`] recording into a shared registry.
    ///
    /// # Errors
    /// Same as [`ShardRouter::try_build`].
    pub fn try_build_with_metrics(
        vectors: Vec<Vec<f32>>,
        config: ShardConfig,
        registry: Arc<Registry>,
    ) -> Result<Self, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::Invalid("shard count must be at least 1".into()));
        }
        if vectors.is_empty() {
            return Err(ServeError::EmptyIndex);
        }
        if vectors.len() < config.shards {
            return Err(ServeError::Invalid(format!(
                "cannot split {} vectors across {} shards (every shard needs at least one)",
                vectors.len(),
                config.shards
            )));
        }
        let dim = vectors[0].len();
        let n = config.shards;
        // round-robin partition: global i → shard i % n, local i / n
        let mut parts: Vec<Vec<Vec<f32>>> = (0..n).map(|_| Vec::new()).collect();
        for (i, v) in vectors.into_iter().enumerate() {
            parts[i % n].push(v);
        }
        // shard-parallel k-means builds; Mutex<Option<…>> lets each worker
        // take its partition by value without cloning the vectors
        let parts: Vec<Mutex<Option<Vec<Vec<f32>>>>> =
            parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let indexes: Vec<Result<AnnIndex, ServeError>> = (0..n)
            .into_par_iter()
            .map(|i| {
                let part = parts[i].lock().take().expect("each partition is built exactly once");
                AnnIndex::try_build(part, config.index)
            })
            .collect();
        let mut shards = Vec::with_capacity(n);
        for (i, built) in indexes.into_iter().enumerate() {
            let index = built?;
            if index.dim() != dim {
                return Err(ServeError::DimensionMismatch { expected: dim, got: index.dim() });
            }
            shards.push(Arc::new(Shard::new(i, n, index, config.cache_capacity, &registry)));
        }
        Ok(ShardRouter {
            shards,
            dim,
            config,
            ingest_lock: Mutex::new(()),
            admission: Admission::unbounded(),
            hedge: Mutex::new(None),
            metrics: RouterMetrics::new(registry),
        })
    }

    /// Opens the index family at `base` — a sharded family when
    /// `base.manifest` exists, else the plain snapshot at `base` as one
    /// shard — recovers every shard from its snapshot+journal pair and
    /// attaches the stores, so later ingests journal to the owning shard.
    ///
    /// # Errors
    /// Manifest problems, or any shard failing to recover (opening is an
    /// all-or-nothing operation — partial families are what
    /// [`verify_sharded`] diagnoses).
    pub fn open(
        base: &Path,
        config: ShardConfig,
    ) -> Result<(Self, Vec<RecoveryStats>), ServeError> {
        Self::open_with_metrics(base, config, Arc::new(Registry::new()))
    }

    /// [`ShardRouter::open`] recording into a shared registry.
    ///
    /// # Errors
    /// Same as [`ShardRouter::open`].
    pub fn open_with_metrics(
        base: &Path,
        config: ShardConfig,
        registry: Arc<Registry>,
    ) -> Result<(Self, Vec<RecoveryStats>), ServeError> {
        let (paths, mut dim) = family_stores(base)?;
        let n = paths.len();
        let mut shards = Vec::with_capacity(n);
        let mut recoveries = Vec::with_capacity(n);
        for (i, path) in paths.into_iter().enumerate() {
            let mut store = IndexStore::open(path);
            store.set_metrics(&registry);
            let recovery = store.load()?;
            let expected = *dim.get_or_insert(recovery.index.dim());
            if recovery.index.dim() != expected {
                return Err(ServeError::DimensionMismatch { expected, got: recovery.index.dim() });
            }
            recoveries.push(recovery.stats());
            let shard = Shard::new(i, n, recovery.index, config.cache_capacity, &registry);
            shard.attach_store(store);
            shards.push(Arc::new(shard));
        }
        let router = ShardRouter {
            shards,
            dim: dim.expect("a family has at least one shard"),
            config: ShardConfig { shards: n, ..config },
            ingest_lock: Mutex::new(()),
            admission: Admission::unbounded(),
            hedge: Mutex::new(None),
            metrics: RouterMetrics::new(registry),
        };
        Ok((router, recoveries))
    }

    /// Attaches a fresh store (at the family layout under `base`) to every
    /// shard — after this, [`ShardRouter::persist_all`] and per-shard
    /// journaling work. N > 1 shards write the manifest; one shard is a
    /// plain snapshot at `base`, so a manifest left there by an earlier
    /// sharded build is removed.
    ///
    /// # Errors
    /// Manifest write or removal failures.
    pub fn attach_stores(&self, base: &Path) -> Result<(), ServeError> {
        if self.shards.len() > 1 {
            ShardManifest { version: 1, shards: self.shards.len(), dim: self.dim }.save(base)?;
        } else {
            let path = manifest_path(base);
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(ServeError::io(&path, e))
                }
                _ => {}
            }
        }
        let (paths, _) = family_stores(base)?;
        for (shard, path) in self.shards.iter().zip(paths) {
            let mut store = IndexStore::open(path);
            store.set_metrics(&self.metrics.registry);
            shard.attach_store(store);
        }
        Ok(())
    }

    /// Snapshots every shard through its store (compacting each journal).
    ///
    /// # Errors
    /// The first shard that fails to persist (stores must be attached).
    pub fn persist_all(&self) -> Result<(), ServeError> {
        for shard in &self.shards {
            shard.persist()?;
        }
        Ok(())
    }

    /// The registry this router (and its shards) record into.
    pub fn metrics(&self) -> Arc<Registry> {
        self.metrics.registry.clone()
    }

    /// Vector width the router serves.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total vectors across all shards (last-known lengths for down
    /// shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the router holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct access to shard `i` (tests, diagnostics, targeted healing).
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// The facet layout the family serves: the first healthy shard's (all
    /// shards carry the same layout), or the single-fused-segment fallback
    /// when none is attached / every shard is down.
    pub fn layout(&self) -> FacetLayout {
        self.shards
            .iter()
            .find_map(|s| s.with_index(|i| i.layout()).ok())
            .unwrap_or_else(|| FacetLayout::fused(self.dim))
    }

    /// Attaches `layout` to every shard's index (pure metadata — stage-1
    /// results are unchanged; persisted with each shard's next snapshot).
    ///
    /// # Errors
    /// A width mismatch, or any shard being down (layouts must stay
    /// family-uniform, so a partial attach is refused).
    pub fn set_layout(&self, layout: FacetLayout) -> Result<(), ServeError> {
        for shard in &self.shards {
            shard.set_layout(layout.clone())?;
        }
        Ok(())
    }

    /// Switches every shard to SQ8 quantized scan mode (stage-0 candidate
    /// generation over u8 codes, exact f32 rescore of the top candidates
    /// before the merge — see [`AnnIndex::enable_sq8`]). Persisted with
    /// each shard's next snapshot.
    ///
    /// # Errors
    /// Any shard being down (scan modes must stay family-uniform, so a
    /// partial switch is refused), or non-finite vectors.
    pub fn enable_sq8(&self) -> Result<(), ServeError> {
        for shard in &self.shards {
            shard.enable_sq8()?;
        }
        Ok(())
    }

    /// `true` when every healthy shard scans quantized codes.
    pub fn is_quantized(&self) -> bool {
        let mut any = false;
        for shard in &self.shards {
            match shard.with_index(|i| i.is_quantized()) {
                Ok(true) => any = true,
                Ok(false) => return false,
                Err(_) => {}
            }
        }
        any
    }

    /// Bytes held by SQ8 codes+scales over bytes held by f32 vectors,
    /// summed across healthy shards (`None` when unquantized). ~0.25 for
    /// the expected 4x memory cut.
    pub fn quant_memory_ratio(&self) -> Option<f64> {
        let mut quant = 0usize;
        let mut full = 0usize;
        for shard in &self.shards {
            let (q, f) = shard.with_index(|i| (i.quant_bytes(), i.vector_bytes())).ok()?;
            quant += q?;
            full += f;
        }
        (full > 0).then(|| quant as f64 / full as f64)
    }

    /// Top-`k` across all shards for `vector`.
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] on a width mismatch.
    pub fn query(&self, vector: Vec<f32>, k: usize) -> Result<QueryResponse, ServeError> {
        self.query_request(QueryRequest::new(vector, k))
    }

    /// Bounds concurrent queries: once `max_inflight` are being served,
    /// further [`ShardRouter::query_request`] calls shed with
    /// [`ServeError::Overloaded`] carrying `retry_after_ms` as the backoff
    /// hint. `max_inflight == 0` disables shedding (the default).
    pub fn set_admission(&self, max_inflight: usize, retry_after_ms: u64) {
        self.admission.max_inflight.store(max_inflight, Ordering::Release);
        self.admission.retry_after_ms.store(retry_after_ms, Ordering::Release);
    }

    /// Enables (`Some`) or disables (`None`) hedged scatter-gather. With
    /// hedging on, each shard's first attempt gets
    /// [`HedgeConfig::soft_timeout`] to answer; stragglers get a hedged
    /// retry and [`HedgeConfig::hedge_wait`] more, after which they are
    /// omitted and the response degrades with
    /// [`DegradeReason::ShardSlow`].
    pub fn set_hedge(&self, hedge: Option<HedgeConfig>) {
        *self.hedge.lock() = hedge;
    }

    /// Top-`k` across all shards, honouring the request's deadline: the
    /// query is normalised once, fanned out shard-parallel, and the
    /// per-shard top-K lists are heap-merged. Down shards degrade the
    /// response ([`DegradeReason::ShardsDown`]) instead of failing it;
    /// straggling shards past the hedge budget degrade it with
    /// [`DegradeReason::ShardSlow`]; deadline-truncated shard scans
    /// degrade it with [`DegradeReason::Deadline`]. A request carrying
    /// [`QueryRequest::with_rerank`] parameters widens the fan-out to the
    /// candidate pool and rescores the merged pool with facet weights +
    /// MMR diversity (see [`crate::rerank`]).
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] on a width mismatch;
    /// [`ServeError::InvalidFacets`] when rerank parameters do not fit
    /// the family's layout;
    /// [`ServeError::DeadlineExceeded`] when the deadline (measured from
    /// [`QueryRequest::arrival`]) had already expired on entry — the
    /// request is shed before any shard is scanned;
    /// [`ServeError::Overloaded`] when the admission budget (see
    /// [`ShardRouter::set_admission`]) is exhausted.
    pub fn query_request(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        if request.vector.len() != self.dim {
            return Err(ServeError::DimensionMismatch {
                expected: self.dim,
                got: request.vector.len(),
            });
        }
        if let Some(params) = &request.rerank {
            params.validate(&self.layout())?;
        }
        let now = Instant::now();
        let arrival = request.arrival.unwrap_or(now);
        let deadline = request.deadline.map(|b| arrival + b);
        if let Some(d) = deadline {
            if d <= now {
                // expired while queued upstream: scanning would produce a
                // result nobody can use — shed without touching any shard
                self.metrics.shed_expired.inc();
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let _permit = match self.admission.acquire(&self.metrics.inflight) {
            Ok(p) => p,
            Err(e) => {
                self.metrics.shed_overload.inc();
                return Err(e);
            }
        };
        // the raw query goes to every shard: each shard normalises
        // internally, the very arithmetic a single index would run, so
        // per-shard scores are bit-identical to the unsharded scan's
        let q = request.vector;
        let k = request.k;
        // stage 1: a rerank request widens every shard's fetch to the
        // candidate pool; with no rerank, fetch == k and the whole path
        // is bit-identical to before
        let fetch = request.rerank.as_ref().map_or(k, |r| r.candidates.max(k));
        let hedge = *self.hedge.lock();
        let gather = match hedge {
            Some(h) => self.scatter_hedged(&q, fetch, deadline, h)?,
            None => self.scatter_rayon(&q, fetch, deadline)?,
        };
        let t0 = Instant::now();
        let mut hits = merge_top_k(&gather.lists, fetch);
        self.metrics.merge_ns.record(t0.elapsed().as_nanos() as u64);
        // stage 2: rescore the merged pool with facet weights + MMR.
        // Candidate vectors live on their owning shards; one that died (or
        // recovered shorter) mid-query simply contributes no candidates —
        // the response is already flagged degraded for that.
        if let Some(params) = &request.rerank {
            let n = self.shards.len();
            let layout = self.layout();
            let qn = normalized(&q);
            let owned: Vec<(Hit, Vec<f32>)> = hits
                .iter()
                .filter_map(|h| {
                    let local = h.id / n;
                    self.shards[shard_of(h.id, n)]
                        .with_index(|i| (local < i.len()).then(|| i.vector(local).to_vec()))
                        .ok()
                        .flatten()
                        .map(|v| (*h, v))
                })
                .collect();
            let pool: Vec<(Hit, &[f32])> = owned.iter().map(|(h, v)| (*h, v.as_slice())).collect();
            hits = crate::rerank::rerank(&qn, &layout, params, &pool, k);
        } else {
            hits.truncate(k);
        }
        self.metrics.queries.inc();
        self.metrics.fanouts.add(gather.fanouts);
        self.metrics.hedges.add(gather.hedges);
        self.metrics.hedge_wins.add(gather.hedge_wins);
        self.metrics.slow_omits.add(gather.slow_omits as u64);
        let response = if gather.shards_down > 0 {
            self.metrics.degraded.inc();
            self.metrics.shards_down_serves.inc();
            QueryResponse { hits, degraded: true, reason: Some(DegradeReason::ShardsDown) }
        } else if gather.slow_omits > 0 {
            self.metrics.degraded.inc();
            QueryResponse { hits, degraded: true, reason: Some(DegradeReason::ShardSlow) }
        } else if gather.deadline_degraded {
            self.metrics.degraded.inc();
            QueryResponse { hits, degraded: true, reason: Some(DegradeReason::Deadline) }
        } else {
            QueryResponse { hits, degraded: false, reason: None }
        };
        Ok(response)
    }

    /// Plain shard-parallel fan-out on the rayon pool — the default path,
    /// and the reference hedged scatter must stay bit-identical to.
    fn scatter_rayon(
        &self,
        q: &[f32],
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<Gather, ServeError> {
        let results: Vec<Result<LocalHits, ServeError>> =
            self.shards.par_iter().map(|s| s.search_local(q, k, deadline)).collect();
        let mut gather = Gather {
            lists: Vec::with_capacity(results.len()),
            shards_down: 0,
            slow_omits: 0,
            deadline_degraded: false,
            fanouts: 0,
            hedges: 0,
            hedge_wins: 0,
        };
        for r in results {
            Self::fold_local(&mut gather, r)?;
        }
        Ok(gather)
    }

    /// Hedged fan-out: one detached thread per shard, answers collected
    /// over a channel. Shards that miss the soft timeout get a hedged
    /// retry (first answer wins); shards that also miss the hedge grace
    /// are omitted. Straggler threads are left to finish on their own —
    /// their sends land in a channel nobody reads, and their scan still
    /// warms the shard cache for the next query.
    fn scatter_hedged(
        &self,
        q: &[f32],
        k: usize,
        deadline: Option<Instant>,
        h: HedgeConfig,
    ) -> Result<Gather, ServeError> {
        type Answer = (usize, u8, Result<LocalHits, ServeError>);
        let n = self.shards.len();
        let (tx, rx) = mpsc::channel::<Answer>();
        let spawn_attempt = |i: usize, attempt: u8| {
            let shard = Arc::clone(&self.shards[i]);
            let q = q.to_vec();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let r = shard.search_local(&q, k, deadline);
                // the receiver may be gone (request already answered
                // without us) — that is the expected straggler fate
                let _ = tx.send((i, attempt, r));
            });
        };
        for i in 0..n {
            spawn_attempt(i, 0);
        }
        let mut slots: Vec<Option<Result<LocalHits, ServeError>>> = (0..n).map(|_| None).collect();
        let mut answered = 0usize;
        let mut hedge_wins = 0u64;
        let drain = |until: Instant,
                     slots: &mut Vec<Option<Result<LocalHits, ServeError>>>,
                     answered: &mut usize,
                     hedge_wins: &mut u64| {
            while *answered < n {
                let timeout = until.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok((i, attempt, r)) => {
                        if slots[i].is_none() {
                            if attempt == 1 {
                                *hedge_wins += 1;
                            }
                            slots[i] = Some(r);
                            *answered += 1;
                        }
                    }
                    Err(_) => break, // timeout (or every sender finished)
                }
            }
        };
        drain(Instant::now() + h.soft_timeout, &mut slots, &mut answered, &mut hedge_wins);
        let mut hedges = 0u64;
        if answered < n {
            for (i, slot) in slots.iter().enumerate() {
                if slot.is_none() {
                    spawn_attempt(i, 1);
                    hedges += 1;
                }
            }
            drain(Instant::now() + h.hedge_wait, &mut slots, &mut answered, &mut hedge_wins);
        }
        drop(tx);
        let mut gather = Gather {
            lists: Vec::with_capacity(n),
            shards_down: 0,
            slow_omits: 0,
            deadline_degraded: false,
            fanouts: 0,
            hedges,
            hedge_wins,
        };
        for slot in slots {
            match slot {
                Some(r) => Self::fold_local(&mut gather, r)?,
                None => gather.slow_omits += 1,
            }
        }
        Ok(gather)
    }

    /// Folds one shard answer into the gather (shared by both scatter
    /// paths so their accounting cannot drift).
    fn fold_local(gather: &mut Gather, r: Result<LocalHits, ServeError>) -> Result<(), ServeError> {
        match r {
            Ok(local) => {
                if !local.cached {
                    gather.fanouts += 1;
                }
                gather.deadline_degraded |= local.deadline_degraded;
                gather.lists.push(local.hits);
                Ok(())
            }
            Err(ServeError::ShardDown { .. }) => {
                gather.shards_down += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Answers a whole batch in request order (each request fans out
    /// shard-parallel in turn).
    ///
    /// # Errors
    /// [`ServeError::DimensionMismatch`] when any request's width is
    /// wrong.
    pub fn query_batch(
        &self,
        requests: Vec<QueryRequest>,
    ) -> Result<Vec<QueryResponse>, ServeError> {
        requests.into_iter().map(|r| self.query_request(r)).collect()
    }

    /// Ingests one paper: assigns the smallest unassigned global id among
    /// healthy shards, journals to the owning shard (fsync before ack when
    /// a store is attached) and inserts — other shards' caches are never
    /// touched.
    ///
    /// # Errors
    /// Width mismatch, every shard down, or the owning shard's journal
    /// failing (in which case that shard goes down and nothing is acked).
    pub fn ingest_vector(&self, vector: Vec<f32>) -> Result<IngestAck, ServeError> {
        if vector.len() != self.dim {
            return Err(ServeError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        let _route = self.ingest_lock.lock();
        let n = self.shards.len();
        let target = self
            .shards
            .iter()
            .filter(|s| !s.is_down())
            .min_by_key(|s| s.len() * n + s.ordinal())
            .ok_or_else(|| ServeError::ShardDown {
                shard: 0,
                detail: "every shard is down".into(),
            })?;
        let global = target.len() * n + target.ordinal();
        debug_assert_eq!(shard_of(global, n), target.ordinal());
        let durability = target.ingest_local(global, vector)?;
        self.metrics.ingested.inc();
        Ok(IngestAck { id: global, durable: matches!(durability, Some(Durability::Synced)) })
    }

    /// Heals shard `i` — and only shard `i` — from its own store.
    ///
    /// # Errors
    /// Out-of-range ordinal, no store attached, or recovery failing (the
    /// shard stays down).
    pub fn recover_shard(&self, i: usize) -> Result<RecoveryStats, ServeError> {
        let Some(shard) = self.shards.get(i) else {
            return Err(ServeError::Invalid(format!(
                "shard {i} out of range (router has {})",
                self.shards.len()
            )));
        };
        shard.recover_from_store()
    }

    /// Online-compacts shard `i`'s journal: queries keep serving the whole
    /// time, ingest pauses only for the final catch-up and commit (see
    /// [`Shard::compact_online`]).
    ///
    /// # Errors
    /// Out-of-range ordinal, no store attached, shard down, or the store's
    /// own failures.
    pub fn compact_shard_online(&self, i: usize) -> Result<CompactionReport, ServeError> {
        self.checked_shard(i)?.compact_online()
    }

    /// Re-trains shard `i`'s centroid table against its live corpus and
    /// swaps it in with epoch handover (see [`Shard::recluster`]). A
    /// zero-drift re-train swaps nothing.
    ///
    /// # Errors
    /// Out-of-range ordinal or the shard being down.
    pub fn recluster_shard(&self, i: usize) -> Result<ReclusterReport, ServeError> {
        self.checked_shard(i)?.recluster()
    }

    /// Point-in-time maintenance view of every shard (drift, handover
    /// epochs, journal tails).
    pub fn maintenance_status(&self) -> Vec<MaintenanceStatus> {
        self.shards.iter().map(|s| s.maintenance_status()).collect()
    }

    /// Switches every shard's journal batching: `1` fsyncs per append,
    /// larger values batch `n` appends per fsync — the streaming-ingest
    /// mode (acks come back [`Durability::Buffered`]).
    pub fn set_journal_batch(&self, flush_every: usize) {
        for shard in &self.shards {
            shard.set_journal_batch(flush_every);
        }
    }

    /// Flushes buffered journal records on every shard (makes every
    /// previously buffered ack durable). The first failure aborts the
    /// sweep.
    ///
    /// # Errors
    /// Any shard's store failing to flush.
    pub fn sync_stores(&self) -> Result<(), ServeError> {
        for shard in &self.shards {
            shard.sync_store()?;
        }
        Ok(())
    }

    fn checked_shard(&self, i: usize) -> Result<&Shard, ServeError> {
        self.shards.get(i).map(Arc::as_ref).ok_or_else(|| {
            ServeError::Invalid(format!(
                "shard {i} out of range (router has {})",
                self.shards.len()
            ))
        })
    }

    /// Current router counters plus each shard's snapshot.
    pub fn stats(&self) -> RouterStatsSnapshot {
        let per_shard: Vec<ShardStatsSnapshot> = self.shards.iter().map(|s| s.stats()).collect();
        RouterStatsSnapshot {
            len: self.len(),
            shards: self.shards.len(),
            shards_down: per_shard.iter().filter(|s| s.down).count(),
            queries: self.metrics.queries.get(),
            fanouts: self.metrics.fanouts.get(),
            degraded: self.metrics.degraded.get(),
            shards_down_serves: self.metrics.shards_down_serves.get(),
            ingested: self.metrics.ingested.get(),
            hedges: self.metrics.hedges.get(),
            hedge_wins: self.metrics.hedge_wins.get(),
            slow_omits: self.metrics.slow_omits.get(),
            shed_overload: self.metrics.shed_overload.get(),
            shed_expired: self.metrics.shed_expired.get(),
            inflight: self.admission.inflight.load(Ordering::Acquire) as u64,
            merge: LatencySummary::of(&self.metrics.merge_ns),
            per_shard,
        }
    }

    /// The configuration the router was built with.
    pub fn config(&self) -> ShardConfig {
        self.config
    }
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

    fn flat_config(shards: usize) -> ShardConfig {
        // exact per-shard scans so results are reference-comparable
        ShardConfig {
            shards,
            index: IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
            cache_capacity: 64,
        }
    }

    #[test]
    fn sharded_results_match_single_flat_scan() {
        let vectors = random_vectors(240, 10, 1);
        let single = AnnIndex::build(
            vectors.clone(),
            IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
        );
        for n in [1usize, 2, 4, 8] {
            let router = ShardRouter::try_build(vectors.clone(), flat_config(n)).unwrap();
            for (qi, q) in random_vectors(6, 10, 2).into_iter().enumerate() {
                let merged = router.query(q.clone(), 12).unwrap();
                assert!(!merged.degraded);
                assert_eq!(merged.hits, single.search(&q, 12), "n={n} q={qi}");
            }
        }
    }

    #[test]
    fn faceted_default_weights_stay_bit_identical_across_shard_counts() {
        use crate::facet::RerankParams;
        let vectors = random_vectors(240, 10, 21);
        let single = AnnIndex::build(
            vectors.clone(),
            IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
        );
        let layout =
            FacetLayout::new(vec!["bg".into(), "method".into(), "result".into()], vec![3, 4, 3])
                .unwrap();
        for n in [1usize, 2, 4, 8] {
            let router = ShardRouter::try_build(vectors.clone(), flat_config(n)).unwrap();
            router.set_layout(layout.clone()).unwrap();
            assert_eq!(router.layout(), layout);
            for (qi, q) in random_vectors(5, 10, 22).into_iter().enumerate() {
                let req = QueryRequest::new(q.clone(), 12).with_rerank(RerankParams::uniform(3));
                let merged = router.query_request(req).unwrap();
                assert!(!merged.degraded);
                assert_eq!(merged.hits, single.search(&q, 12), "n={n} q={qi}");
            }
        }
    }

    #[test]
    fn rerank_redirects_relevance_across_shards_and_rejects_bad_params() {
        use crate::facet::RerankParams;
        // facet a is dims 0..2, facet b is dims 2..4; papers 0..6 align
        // with a, papers 6..8 with b — round-robin places them on
        // different shards
        let mut vectors: Vec<Vec<f32>> =
            (0..6).map(|i| vec![1.0, 0.01 * i as f32, 0.0, 0.0]).collect();
        vectors.push(vec![0.0, 0.0, 1.0, 0.0]);
        vectors.push(vec![0.0, 0.0, 0.9, 0.1]);
        let router = ShardRouter::try_build(vectors, flat_config(4)).unwrap();
        let layout = FacetLayout::new(vec!["a".into(), "b".into()], vec![2, 2]).unwrap();
        router.set_layout(layout).unwrap();
        let q = vec![1.0, 0.0, 0.5, 0.0];
        // plain top-2 is a-aligned; weighting facet b alone must surface
        // the b-aligned papers from whichever shards own them
        let plain = router.query(q.clone(), 2).unwrap();
        assert!(plain.hits.iter().all(|h| h.id < 6), "{:?}", plain.hits);
        let only_b = RerankParams { weights: vec![0.0, 1.0], lambda: 0.0, candidates: 8 };
        let out =
            router.query_request(QueryRequest::new(q.clone(), 2).with_rerank(only_b)).unwrap();
        assert_eq!(
            out.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![6, 7],
            "facet-b weighting must rank the b-aligned papers first"
        );
        // wrong arity and out-of-range λ are typed errors at the door
        // (all-1.0 weights would canonicalise to the default path, so use
        // a weight that survives canonicalisation)
        let bad = RerankParams { weights: vec![0.5], lambda: 0.0, candidates: 8 };
        assert!(matches!(
            router.query_request(QueryRequest::new(q.clone(), 2).with_rerank(bad)),
            Err(ServeError::InvalidFacets { .. })
        ));
        let bad_lambda = RerankParams { weights: vec![1.0, 1.0], lambda: 1.5, candidates: 8 };
        assert!(matches!(
            router.query_request(QueryRequest::new(q, 2).with_rerank(bad_lambda)),
            Err(ServeError::InvalidFacets { .. })
        ));
    }

    #[test]
    fn quantized_scatter_gather_keeps_recall_and_exact_scores() {
        let vectors = random_vectors(2000, 16, 70);
        let single = AnnIndex::build(
            vectors.clone(),
            IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
        );
        let router = ShardRouter::try_build(vectors, flat_config(2)).unwrap();
        assert!(!router.is_quantized());
        router.enable_sq8().unwrap();
        assert!(router.is_quantized());
        let ratio = router.quant_memory_ratio().unwrap();
        assert!(ratio < 0.3, "codes/vectors byte ratio {ratio}");
        let queries = random_vectors(20, 16, 71);
        let mut overlap = 0usize;
        for q in &queries {
            let merged = router.query(q.clone(), 10).unwrap();
            assert!(!merged.degraded);
            let exact = single.search_exact(q, 10);
            overlap += exact.iter().filter(|e| merged.hits.iter().any(|h| h.id == e.id)).count();
            // merged scores are f32-rescore-backed: any id shared with the
            // exact scan carries the identical exact score
            for h in &merged.hits {
                if let Some(e) = exact.iter().find(|e| e.id == h.id) {
                    assert!((h.score - e.score).abs() < 1e-5);
                }
            }
        }
        let recall = overlap as f64 / (10 * queries.len()) as f64;
        assert!(recall >= 0.95, "sharded quantized recall@10 {recall}");
    }

    #[test]
    fn quantized_family_roundtrips_through_stores() {
        let dir = std::env::temp_dir().join(format!("sem-router-quant-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("family.snap");
        let vectors = random_vectors(80, 8, 72);
        let router = ShardRouter::try_build(vectors, flat_config(2)).unwrap();
        router.enable_sq8().unwrap();
        router.attach_stores(&base).unwrap();
        router.persist_all().unwrap();
        let (reopened, _) = ShardRouter::open(&base, flat_config(2)).unwrap();
        assert!(reopened.is_quantized(), "quantization must survive snapshot + reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn family_layout_roundtrips_through_stores() {
        let dir = std::env::temp_dir().join(format!("sem-router-facet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("family.snap");
        let vectors = random_vectors(60, 9, 23);
        let router = ShardRouter::try_build(vectors, flat_config(3)).unwrap();
        let layout = FacetLayout::sem(3);
        router.set_layout(layout.clone()).unwrap();
        router.attach_stores(&base).unwrap();
        router.persist_all().unwrap();
        let (reopened, _) = ShardRouter::open(&base, flat_config(3)).unwrap();
        assert_eq!(reopened.layout(), layout, "layout must survive snapshot + reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_routes_round_robin_and_matches_reference() {
        let vectors = random_vectors(40, 6, 3);
        let router = ShardRouter::try_build(vectors.clone(), flat_config(4)).unwrap();
        let mut reference = AnnIndex::build(
            vectors,
            IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
        );
        for v in random_vectors(13, 6, 4) {
            let ack = router.ingest_vector(v.clone()).unwrap();
            assert_eq!(ack.id, reference.insert(v));
        }
        assert_eq!(router.len(), 53);
        let q = random_vectors(1, 6, 5).pop().unwrap();
        assert_eq!(router.query(q.clone(), 9).unwrap().hits, reference.search(&q, 9));
        // ingests spread across shards: lengths differ by at most one
        let lens: Vec<usize> = (0..4).map(|i| router.shard(i).len()).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 1, "{lens:?}");
    }

    #[test]
    fn width_mismatches_are_typed_errors() {
        let router = ShardRouter::try_build(random_vectors(20, 5, 6), flat_config(2)).unwrap();
        assert!(matches!(
            router.query(vec![0.0; 3], 4),
            Err(ServeError::DimensionMismatch { expected: 5, got: 3 })
        ));
        assert!(matches!(
            router.ingest_vector(vec![0.0; 9]),
            Err(ServeError::DimensionMismatch { expected: 5, got: 9 })
        ));
    }

    #[test]
    fn build_rejects_degenerate_shapes() {
        assert!(matches!(
            ShardRouter::try_build(Vec::new(), flat_config(2)),
            Err(ServeError::EmptyIndex)
        ));
        assert!(ShardRouter::try_build(random_vectors(3, 4, 7), flat_config(8)).is_err());
        assert!(ShardRouter::try_build(random_vectors(3, 4, 7), flat_config(0)).is_err());
    }

    #[test]
    fn persist_open_roundtrip_preserves_results() {
        let dir = std::env::temp_dir().join(format!("sem-router-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("family.snap");
        let vectors = random_vectors(90, 8, 8);
        let router = ShardRouter::try_build(vectors, flat_config(3)).unwrap();
        router.attach_stores(&base).unwrap();
        router.persist_all().unwrap();
        let ack = router.ingest_vector(random_vectors(1, 8, 9).pop().unwrap()).unwrap();
        assert!(ack.durable, "journaled + fsynced through the owning shard's store");
        let (reopened, recoveries) = ShardRouter::open(&base, flat_config(3)).unwrap();
        assert_eq!(reopened.len(), 91);
        assert_eq!(recoveries.iter().map(|r| r.replayed).sum::<usize>(), 1);
        let q = random_vectors(1, 8, 10).pop().unwrap();
        assert_eq!(reopened.query(q.clone(), 7).unwrap().hits, router.query(q, 7).unwrap().hits);
        let report = verify_sharded(&base).unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.per_shard.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_expose_per_shard_counters() {
        for n in [1, 3] {
            let router = ShardRouter::try_build(random_vectors(60, 6, 11), flat_config(n)).unwrap();
            let q = random_vectors(1, 6, 12).pop().unwrap();
            let first = router.query(q.clone(), 5).unwrap();
            let second = router.query(q, 5).unwrap(); // every shard hits its cache
            assert_eq!(first.hits, second.hits);
            let s = router.stats();
            assert_eq!(s.queries, 2);
            assert_eq!(s.fanouts, n as u64, "second round was all cache hits");
            assert_eq!(s.per_shard.len(), n);
            assert!(s.per_shard.iter().all(|p| p.cache_hits == 1 && p.cache_misses == 1));
            assert_eq!((s.shards_down, s.degraded), (0, 0));
        }
    }

    // A plain snapshot is served as a one-shard router; the tests below
    // pin that configuration's contract on its own.

    fn one_shard(n: usize, seed: u64) -> ShardRouter {
        let config = ShardConfig { shards: 1, ..Default::default() };
        ShardRouter::try_build(random_vectors(n, 8, seed), config).unwrap()
    }

    #[test]
    fn one_shard_query_batch_preserves_order() {
        let r = one_shard(150, 5);
        let qs = random_vectors(4, 8, 6);
        let reqs: Vec<QueryRequest> = qs.iter().map(|q| QueryRequest::new(q.clone(), 2)).collect();
        let batch = r.query_batch(reqs).unwrap();
        for (q, response) in qs.iter().zip(&batch) {
            assert_eq!(response.hits, r.shard(0).with_index(|i| i.search(q, 2)).unwrap());
        }
    }

    #[test]
    fn one_shard_ingest_appears_in_results_and_invalidates_precisely() {
        let r = one_shard(100, 7);
        // two cached queries pointing in (near-)opposite directions
        let q_hot = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let q_cold = vec![-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        r.query(q_hot.clone(), 3).unwrap();
        r.query(q_cold.clone(), 3).unwrap();
        assert_eq!(r.stats().per_shard[0].cache_len, 2);
        // the ingested vector aligns with q_hot, so only that entry dies
        let ack = r.ingest_vector(vec![10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(!ack.durable, "no store attached");
        let s = r.stats();
        assert_eq!(s.ingested, 1);
        assert_eq!(s.per_shard[0].invalidated, 1);
        assert_eq!(s.per_shard[0].cache_len, 1);
        // re-query: fresh search must now rank the newcomer first
        let hits = r.query(q_hot, 3).unwrap().hits;
        assert_eq!(hits[0].id, ack.id);
        // the untouched cold entry still serves from cache
        let before = r.stats().per_shard[0].cache_hits;
        r.query(q_cold, 3).unwrap();
        assert_eq!(r.stats().per_shard[0].cache_hits, before + 1);
    }

    #[test]
    fn one_shard_stats_latencies_populate() {
        let r = one_shard(300, 9);
        for q in random_vectors(10, 8, 10) {
            r.query(q, 4).unwrap();
        }
        r.ingest_vector(random_vectors(1, 8, 11).pop().unwrap()).unwrap();
        let s = r.stats();
        let scan = s.per_shard[0].scan;
        assert_eq!(scan.count, 10);
        assert!(scan.p99_ns >= scan.p50_ns);
        assert!(scan.mean_ns > 0);
        assert_eq!(s.merge.count, 10);
        assert_eq!(s.per_shard[0].ingested, 1);
    }

    #[test]
    fn one_shard_exhausted_deadline_returns_degraded_partial() {
        let r = one_shard(2000, 16);
        let q = random_vectors(1, 8, 17).pop().unwrap();
        // a budget gone before the scan starts (a zero budget is shed at
        // the door instead, see `query_request`)
        let response = r
            .query_request(QueryRequest::new(q, 10).with_deadline(Duration::from_nanos(1)))
            .unwrap();
        assert!(response.degraded);
        assert_eq!(response.reason, Some(DegradeReason::Deadline));
        assert_eq!(r.stats().degraded, 1);
        // degraded (partial) results must not poison the cache
        assert_eq!(r.stats().per_shard[0].cache_len, 0);
    }

    #[test]
    fn one_shard_generous_deadline_is_full_fidelity() {
        let r = one_shard(500, 18);
        let q = random_vectors(1, 8, 19).pop().unwrap();
        let response =
            r.query_request(QueryRequest::new(q.clone(), 5).with_deadline(Duration::from_secs(60)));
        let response = response.unwrap();
        assert!(!response.degraded);
        assert_eq!(response.hits, r.shard(0).with_index(|i| i.search(&q, 5)).unwrap());
    }

    #[test]
    fn one_shard_default_rerank_params_share_cache_with_plain_queries() {
        use crate::facet::RerankParams;
        let r = one_shard(150, 30);
        let q = random_vectors(1, 8, 31).pop().unwrap();
        let plain = r.query(q.clone(), 5).unwrap();
        // uniform weights + λ=0 canonicalise to None: same cache entry,
        // same results, bit for bit
        let req = QueryRequest::new(q, 5).with_rerank(RerankParams::uniform(r.layout().len()));
        assert!(req.rerank.is_none(), "default params must canonicalise away");
        let again = r.query_request(req).unwrap();
        assert_eq!(again.hits, plain.hits);
        assert_eq!(r.stats().per_shard[0].cache_hits, 1);
    }

    #[test]
    fn one_shard_reranked_queries_cache_their_candidate_pool() {
        use crate::facet::RerankParams;
        let r = one_shard(200, 32);
        let layout = FacetLayout::new(vec!["a".into(), "b".into()], vec![4, 4]).unwrap();
        r.set_layout(layout).unwrap();
        let q = random_vectors(1, 8, 33).pop().unwrap();
        r.query(q.clone(), 5).unwrap();
        let params = RerankParams { weights: vec![1.0, 0.0], lambda: 0.0, candidates: 50 };
        let faceted = r.query_request(QueryRequest::new(q.clone(), 5).with_rerank(params.clone()));
        let faceted = faceted.unwrap();
        assert!(!faceted.degraded);
        // two cache entries: the top-5 and the 50-candidate pool
        let s = r.stats().per_shard[0].clone();
        assert_eq!((s.cache_len, s.cache_misses), (2, 2));
        // repeating the faceted query reranks the cached pool
        let again = r.query_request(QueryRequest::new(q.clone(), 5).with_rerank(params)).unwrap();
        assert_eq!(again.hits, faceted.hits);
        assert_eq!(r.stats().per_shard[0].cache_hits, 1);
        // the pool is a plain top-50 scan, so an ingest that provably
        // cannot enter it leaves both entries valid
        let away: Vec<f32> = normalized(&q).iter().map(|x| -x).collect();
        r.ingest_vector(away).unwrap();
        assert_eq!(r.stats().per_shard[0].cache_len, 2);
    }

    #[test]
    fn one_shard_stores_replace_a_stale_manifest() {
        let dir = std::env::temp_dir().join(format!("sem-router-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("index.snap");
        let sharded = ShardRouter::try_build(random_vectors(30, 6, 24), flat_config(3)).unwrap();
        sharded.attach_stores(&base).unwrap();
        sharded.persist_all().unwrap();
        // rebuilding unsharded at the same path must not leave the old
        // family's manifest redirecting `open`
        let plain = ShardRouter::try_build(random_vectors(40, 6, 25), flat_config(1)).unwrap();
        plain.attach_stores(&base).unwrap();
        plain.persist_all().unwrap();
        assert!(!manifest_path(&base).exists());
        assert_eq!(plain.shard(0).store_path().unwrap(), base);
        let (reopened, _) = ShardRouter::open(&base, flat_config(1)).unwrap();
        assert_eq!((reopened.num_shards(), reopened.len()), (1, 40));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_shard_down_serves_nothing_refuses_ingest_and_heals() {
        let dir = std::env::temp_dir().join(format!("sem-router-down-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("plain.snap");
        let r = one_shard(100, 20);
        r.attach_stores(&base).unwrap();
        r.persist_all().unwrap();
        assert!(!manifest_path(&base).exists(), "one shard is a plain snapshot");
        let q = random_vectors(1, 8, 21).pop().unwrap();
        let warm = r.query(q.clone(), 4).unwrap();
        r.shard(0).force_down("test kill");
        // the warm cache entry is not served: a down shard answers nothing
        let down = r.query(q.clone(), 4).unwrap();
        assert!(down.degraded);
        assert_eq!(down.reason, Some(DegradeReason::ShardsDown));
        assert!(down.hits.is_empty());
        // ingest refused with a typed error
        assert!(matches!(
            r.ingest_vector(random_vectors(1, 8, 23).pop().unwrap()),
            Err(ServeError::ShardDown { .. })
        ));
        assert!(matches!(r.shard(0).with_index(|i| i.len()), Err(ServeError::ShardDown { .. })));
        // heal from the plain snapshot: fresh searches resume
        assert_eq!(r.recover_shard(0).unwrap().recovered_len, 100);
        let back = r.query(q, 4).unwrap();
        assert!(!back.degraded);
        assert_eq!(back.hits, warm.hits);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_shard_repeat_queries_hit_the_cache() {
        let r = one_shard(120, 1);
        let q = random_vectors(1, 8, 2).pop().unwrap();
        let first = r.query(q.clone(), 5).unwrap();
        let second = r.query(q, 5).unwrap();
        assert_eq!(first.hits, second.hits);
        assert!(!first.degraded && !second.degraded);
        let s = r.stats();
        assert_eq!((s.queries, s.fanouts, s.degraded), (2, 1, 0));
        assert_eq!((s.per_shard[0].cache_hits, s.per_shard[0].cache_misses), (1, 1));
    }

    #[test]
    fn one_shard_query_batch_answers_every_request() {
        let r = one_shard(200, 3);
        let reqs: Vec<QueryRequest> =
            random_vectors(6, 8, 4).into_iter().map(|v| QueryRequest::new(v, 3)).collect();
        let batch = r.query_batch(reqs).unwrap();
        assert_eq!(batch.len(), 6);
        assert!(batch.iter().all(|resp| resp.hits.len() == 3 && !resp.degraded));
        let s = r.stats();
        assert_eq!((s.queries, s.merge.count), (6, 6));
    }

    #[test]
    fn one_shard_empty_batch_is_a_noop() {
        let r = one_shard(50, 12);
        assert!(r.query_batch(Vec::new()).unwrap().is_empty());
        let s = r.stats();
        assert_eq!((s.queries, s.fanouts, s.merge.count), (0, 0, 0));
    }

    #[test]
    fn one_shard_ingest_grows_the_served_index_under_plain_ids() {
        let r = one_shard(60, 13);
        let ack = r.ingest_vector(random_vectors(1, 8, 14).pop().unwrap()).unwrap();
        // with one shard the global id is the index's own id
        assert_eq!(ack.id, 60);
        assert_eq!(r.len(), 61);
        assert_eq!(r.shard(0).with_index(|i| i.len()).unwrap(), 61);
    }

    #[test]
    fn one_shard_width_mismatches_are_typed_errors_not_panics() {
        let r = one_shard(80, 15);
        assert!(matches!(
            r.query(vec![1.0; 3], 5),
            Err(ServeError::DimensionMismatch { expected: 8, got: 3 })
        ));
        assert!(matches!(
            r.ingest_vector(vec![1.0; 9]),
            Err(ServeError::DimensionMismatch { expected: 8, got: 9 })
        ));
        assert_eq!(r.len(), 80, "a rejected ingest must not grow the index");
    }

    #[test]
    fn one_shard_rerank_weights_restrict_scoring_to_a_facet() {
        use crate::facet::RerankParams;
        // facet a = first 4 dims, facet b = last 4; corpus has one paper
        // aligned with each half
        let mut vectors = random_vectors(60, 8, 34);
        vectors[0] = vec![0.9, 0.1, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0];
        vectors[1] = vec![0.0, 0.0, 0.0, 0.0, 0.9, 0.2, 0.1, 0.1];
        // damp the rest so the planted pair dominates
        for v in vectors.iter_mut().skip(2) {
            for x in v.iter_mut() {
                *x *= 0.05;
            }
        }
        let config = ShardConfig { shards: 1, ..Default::default() };
        let r = ShardRouter::try_build(vectors, config).unwrap();
        r.set_layout(FacetLayout::new(vec!["a".into(), "b".into()], vec![4, 4]).unwrap()).unwrap();
        let q = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let only_b = RerankParams { weights: vec![0.0, 1.0], lambda: 0.0, candidates: 60 };
        let hits =
            r.query_request(QueryRequest::new(q.clone(), 1).with_rerank(only_b)).unwrap().hits;
        assert_eq!(hits[0].id, 1, "weighting facet b must surface the b-aligned paper");
        let only_a = RerankParams { weights: vec![1.0, 0.0], lambda: 0.0, candidates: 60 };
        let hits = r.query_request(QueryRequest::new(q, 1).with_rerank(only_a)).unwrap().hits;
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn one_shard_invalid_rerank_params_are_rejected_at_the_door() {
        use crate::facet::RerankParams;
        let r = one_shard(80, 35);
        // a router without facets has a 1-segment layout: 3 weights is a
        // typed usage error, not a panic or a silent truncation
        assert_eq!(r.layout().len(), 1);
        let bad = RerankParams { weights: vec![1.0, 0.5, 0.1], lambda: 0.0, candidates: 10 };
        let q = random_vectors(1, 8, 36).pop().unwrap();
        assert!(matches!(
            r.query_request(QueryRequest::new(q.clone(), 5).with_rerank(bad)),
            Err(ServeError::InvalidFacets { .. })
        ));
        let bad_lambda = RerankParams { weights: vec![1.0], lambda: 2.0, candidates: 10 };
        assert!(matches!(
            r.query_request(QueryRequest::new(q, 5).with_rerank(bad_lambda)),
            Err(ServeError::InvalidFacets { .. })
        ));
        assert_eq!(r.stats().fanouts, 0, "rejected requests scan nothing");
    }
}
