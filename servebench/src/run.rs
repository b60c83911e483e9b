//! One pass of a workload: set-up, the open-loop query/ingest phase, the
//! closed-loop capacity phase, and the quiescent checks that follow.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sem_obs::{Registry, Snapshot, Value};
use sem_serve::shard::global_id;
use sem_serve::{
    merge_top_k, rerank, shard_of, AnnIndex, Hit, IndexConfig, QueryRequest, QueryResponse,
    RerankParams, ServeError, ShardConfig, ShardRouter, DEFAULT_CANDIDATES,
};

use crate::exact::{recall, Exact};
use crate::fixture::{embeddings_hash, Papers};
use crate::host;
use crate::schedule::{
    self, open_loop, permutation, query_stream, uniform_corpus, Fingerprint, Op, Plan, Queries,
    QueryOp, Scheduled, Target,
};
use crate::stats::{median, percentile};
use crate::trace::{durations, Span, Tracer};

/// Shards every workload serves from.
pub const SHARDS: usize = 2;
/// Results per query.
pub const K: usize = 10;
/// Set-ups per pass of an untraced run (`setup_s` is their median).
pub const SETUP_REPEATS: usize = 3;
const HEALS: usize = 3;
const RECALL_QUERIES: usize = 500;
const DECOMPOSE_QUERIES: usize = 200;
/// Length of the closed-loop query stream (it wraps only past this many).
const CLOSED_QUERIES: usize = 1 << 15;
const SCAN_N: usize = 100_000;
const SCAN_DIM: usize = 24;
const ZIPF_S: f64 = 1.0;
const FACET_SHARE: f64 = 0.25;
/// Shares of the measured seconds spent in the closed-loop query phase and
/// (on workloads without arrivals in the open loop) the closed-loop
/// new-paper phase; the open-loop phase gets the rest.
const CLOSED_SHARE: f64 = 0.2;
const INGEST_SHARE: f64 = 0.2;
/// New papers the closed-loop ingest phase takes at most (each is
/// self-queried after the heal drills).
const CLOSED_ARRIVALS: usize = 500;

// seed salts of the independent random streams a pass draws
const SALT_CLOSED: u64 = 0xc105_ed00;
const SALT_RECALL: u64 = 0x4eca_1100;
const SALT_DECOMPOSE: u64 = 0xdec0_3900;
const SALT_ARRIVALS: u64 = 0xa771_7a10;
const SALT_WARMUP: u64 = 0x3a7e_0900;
/// Unmeasured closed-loop warm-up before the open loop.
const WARMUP_S: f64 = 0.5;
const SALT_PROBE: u64 = 0x94ab_e000;

/// The measured workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform-random vectors, default IVF, no cache/rerank traffic.
    Scan,
    /// SEM paper embeddings, SQ8, Zipf "more like p" queries with facets.
    Papers,
    /// The paper index with new papers arriving as text, maintenance and a
    /// shard heal.
    Churn,
}

/// Fixed load shape of one workload.
struct Settings {
    query_rate: f64,
    ingest_rate: f64,
    maintain_every: usize,
    sq8: bool,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "scan-100k" => Some(Workload::Scan),
            "papers-faceted" => Some(Workload::Papers),
            "ingest-churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan-100k",
            Workload::Papers => "papers-faceted",
            Workload::Churn => "ingest-churn",
        }
    }

    /// Whether the workload serves the paper fixture.
    pub fn needs_papers(self) -> bool {
        self != Workload::Scan
    }

    fn settings(self) -> Settings {
        match self {
            Workload::Scan => {
                Settings { query_rate: 150.0, ingest_rate: 0.0, maintain_every: 0, sq8: false }
            }
            Workload::Papers => {
                Settings { query_rate: 500.0, ingest_rate: 0.0, maintain_every: 0, sq8: true }
            }
            Workload::Churn => {
                Settings { query_rate: 300.0, ingest_rate: 100.0, maintain_every: 500, sq8: false }
            }
        }
    }
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered in full.
    Ok,
    /// Answered, flagged degraded.
    Degraded,
    /// Refused by admission control or an expired deadline.
    Shed,
    /// Any other error.
    Failed,
}

fn classify(r: &Result<QueryResponse, ServeError>) -> Outcome {
    match r {
        Ok(resp) if resp.degraded => Outcome::Degraded,
        Ok(_) => Outcome::Ok,
        Err(ServeError::Overloaded { .. } | ServeError::DeadlineExceeded) => Outcome::Shed,
        Err(_) => Outcome::Failed,
    }
}

/// Operation outcomes over everything a pass attempted.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Answered in full.
    pub ok: u64,
    /// Answered degraded.
    pub degraded: u64,
    /// Shed.
    pub shed: u64,
    /// Failed.
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, o: Outcome) {
        self.attempted += 1;
        match o {
            Outcome::Ok => self.ok += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.failed += other.failed;
    }

    /// `(failed + shed + degraded) / attempted`.
    pub fn failed_share(&self) -> f64 {
        (self.failed + self.shed + self.degraded) as f64 / self.attempted.max(1) as f64
    }
}

/// Correctness checks: how often each ran and what failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// `name → (runs, failures)`.
    pub counts: BTreeMap<&'static str, (u64, u64)>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let entry = self.counts.entry(name).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{name}: {}", detail()));
            }
        }
    }

    fn merge(&mut self, other: Checks) {
        for (name, (runs, fails)) in other.counts {
            let entry = self.counts.entry(name).or_default();
            entry.0 += runs;
            entry.1 += fails;
        }
        self.failures.extend(other.failures);
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.counts.values().all(|&(_, fails)| fails == 0)
    }
}

/// Everything one pass measured.
pub struct Pass {
    /// Per-repeat set-up times.
    pub setup_s: Vec<f64>,
    /// Open-loop query latencies from scheduled arrival.
    pub query_ms: Vec<f64>,
    /// How late the generator started each open-loop operation.
    pub lateness_ms: Vec<f64>,
    /// New-paper latencies (text → durable ack) in the open loop.
    pub open_ingest_ms: Vec<f64>,
    /// New-paper latencies in the closed loop.
    pub closed_ingest_ms: Vec<f64>,
    /// Closed-loop new papers acknowledged per second.
    pub ingest_per_s: f64,
    /// Closed-loop query latencies.
    pub closed_query_ms: Vec<f64>,
    /// Closed-loop throughput.
    pub peak_qps: f64,
    /// Mean recall@10 against the exact reference.
    pub recall: f64,
    /// Per-drill heal times.
    pub heal_s: Vec<f64>,
    /// Store bytes on disk over raw f32 vector bytes.
    pub store_bytes_ratio: f64,
    /// Peak resident memory above the resident memory before set-up.
    pub peak_rss_mb: f64,
    /// Resident memory before set-up, and its peak until then.
    pub rss_baseline_mb: (f64, f64),
    /// Operation outcomes.
    pub tally: Tally,
    /// Correctness checks.
    pub checks: Checks,
    /// New-paper self-queries on an SQ8 stack that missed rank 1, and
    /// all of them (`(0, 0)` on an f32 stack, where a miss fails a check).
    pub sq8_self_misses: (u64, u64),
    /// Hash of the generated vectors and schedule.
    pub fingerprint: String,
    /// Spans (traced passes only).
    pub spans: Vec<Span>,
    /// Per-layer metrics taken from counters and reports.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Median set-up time.
    pub fn setup(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Open-loop query latency percentile.
    pub fn query(&self, p: f64) -> f64 {
        percentile(&self.query_ms, p).value
    }
}

/// What a pass runs on.
pub struct Inputs<'a> {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (open + closed loop).
    pub seconds: f64,
    /// The paper fixture (paper workloads).
    pub papers: Option<&'a Papers>,
    /// Load-generating worker threads.
    pub workers: usize,
    /// Set-ups per pass: [`SETUP_REPEATS`] for the end-to-end run, one
    /// for the two passes of a traced run, which report no `setup_s`.
    pub setups: usize,
    /// Directory the stores live in (emptied per set-up).
    pub dir: PathBuf,
}

/// A new paper the stack acknowledged.
#[derive(Clone)]
struct Acked {
    id: usize,
    vector: Vec<f32>,
}

/// State shared by the load workers.
struct Shared<'a> {
    router: &'a ShardRouter,
    inputs: &'a Inputs<'a>,
    /// The benchmark's own copy of the indexed (pre-split) vectors.
    vectors: &'a [Vec<f32>],
    dim: usize,
    acked: Mutex<Vec<Acked>>,
    /// Whether the stack scans SQ8 codes.
    quantized: bool,
    /// Self-queries on an SQ8 stack that missed rank 1, and all of them.
    sq8_self: Mutex<(u64, u64)>,
    checks: Mutex<Checks>,
    maintenance: Mutex<Vec<Maintained>>,
}

/// One finished maintenance operation.
#[derive(Clone)]
struct Maintained {
    compaction: bool,
    secs: f64,
    /// Ingest pause of a compaction.
    pause_us: u64,
    /// Whether a re-cluster swapped the centroid table.
    changed: bool,
}

impl Shared<'_> {
    fn request(&self, q: &QueryOp) -> QueryRequest {
        let vector = match &q.target {
            Target::Vector(v) => v.clone(),
            Target::Paper(p) => self.vectors[*p].clone(),
        };
        let mut request = QueryRequest::new(vector, K);
        if let Some(f) = q.facets {
            request = request.with_rerank(RerankParams {
                weights: f.weights.to_vec(),
                lambda: f.lambda,
                candidates: DEFAULT_CANDIDATES,
            });
        }
        request
    }

    fn query(&self, t: &mut Tracer, q: &QueryOp, request_id: Option<u64>) -> Outcome {
        let request = self.request(q);
        let r = t.scope("router.query_request", request_id, |_| self.router.query_request(request));
        let outcome = classify(&r);
        if let Err(e) = r {
            self.checks.lock().unwrap().check("query_succeeds", false, || e.to_string());
        }
        outcome
    }

    /// New paper `paper` arrives, text → `embed_new` → `ingest_vector` →
    /// durable ack (fresh vector `paper` on workloads without text).
    fn ingest(&self, t: &mut Tracer, paper: usize, request_id: Option<u64>) -> Outcome {
        let vector = match self.inputs.papers {
            Some(papers) => t.scope("embed.embed_new", request_id, |_| {
                papers.embedder().embed_new(&papers.corpus.papers[paper])
            }),
            None => indexed_vector(self.inputs.seed ^ SALT_ARRIVALS, paper, self.dim),
        };
        let copy = vector.clone();
        let r = t.scope("router.ingest_vector", request_id, |_| self.router.ingest_vector(vector));
        match r {
            Ok(ack) => {
                self.checks.lock().unwrap().check("ingest_acks_durable", ack.durable, || {
                    format!("ack {} came back buffered under journal batch 1", ack.id)
                });
                self.acked.lock().unwrap().push(Acked { id: ack.id, vector: copy });
                Outcome::Ok
            }
            Err(e) => {
                self.checks.lock().unwrap().check("ingest_succeeds", false, || e.to_string());
                Outcome::Failed
            }
        }
    }

    /// Every acknowledged new paper must come back first for its own
    /// vector. `sem-serve` promises that of its exact f32 scan only: an
    /// SQ8 stage-0 scan can leave a paper out of the candidates it
    /// rescores (recall, not score fidelity, is what SQ8 trades), so on a
    /// quantized stack a miss is counted and reported, not failed.
    fn self_queries(&self, t: &mut Tracer, after: &'static str) {
        let acked = self.acked.lock().unwrap().clone();
        t.scope("check.self_query", None, |_| {
            let mut checks = Checks::default();
            let mut missed = 0;
            for a in &acked {
                let top =
                    self.router.query(a.vector.clone(), 1).map(|r| r.hits.first().map(|h| h.id));
                let first = matches!(top, Ok(Some(id)) if id == a.id);
                if self.quantized && top.is_ok() {
                    missed += u64::from(!first);
                } else {
                    checks.check("new_paper_self_rank_1", first, || {
                        format!("paper {} after {after}: rank 1 was {top:?}", a.id)
                    });
                }
            }
            if self.quantized {
                let mut sq8 = self.sq8_self.lock().unwrap();
                sq8.0 += missed;
                sq8.1 += acked.len() as u64;
            }
            self.checks.lock().unwrap().merge(checks);
        });
    }

    fn maintain(&self, t: &mut Tracer, op: &Op, request_id: Option<u64>) -> Outcome {
        let started = Instant::now();
        let result = match *op {
            Op::Compact { shard } => t.scope("router.compact_shard_online", request_id, |_| {
                self.router.compact_shard_online(shard).map(|r| (r.pause_us, false))
            }),
            Op::Recluster { shard } => t.scope("router.recluster_shard", request_id, |_| {
                self.router.recluster_shard(shard).map(|r| (0, r.changed))
            }),
            _ => unreachable!("only maintenance operations"),
        };
        let secs = started.elapsed().as_secs_f64();
        match result {
            Ok((pause_us, changed)) => {
                let compaction = matches!(op, Op::Compact { .. });
                self.maintenance.lock().unwrap().push(Maintained {
                    compaction,
                    secs,
                    pause_us,
                    changed,
                });
                Outcome::Ok
            }
            Err(e) => {
                self.checks.lock().unwrap().check("maintenance_succeeds", false, || e.to_string());
                Outcome::Failed
            }
        }
    }
}

/// One open-loop record.
struct Record {
    /// Schedule position.
    at: usize,
    latency_ms: f64,
    late_ms: f64,
    outcome: Outcome,
}

/// Uniform vector `i` of the random stream `stream` — drawn on demand, so
/// a closed loop never runs out of fresh queries or arrivals.
fn indexed_vector(stream: u64, i: usize, dim: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(stream ^ (i as u64) << 20);
    schedule::uniform_vector(&mut rng, dim)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Where an open-loop segment stopped.
struct Segment {
    records: Vec<Record>,
    /// Schedule position of the first operation not started.
    next: usize,
    /// When a maintenance operation finished, and which one, if the
    /// segment ended on one.
    paused: Option<(Instant, &'static str)>,
}

/// Cursor over the schedule shared by the workers of one segment.
struct Cursor {
    next: usize,
    paused: Option<(Instant, &'static str)>,
}

/// Runs `ops[from..]` open loop on the workers until the schedule ends or
/// a maintenance operation finishes. Operation `j` starts no earlier than
/// `start + ops[j].at_ns`, and its latency counts from then, so a generator
/// that falls behind shows up as latency, not as lost load. Operations
/// already started when maintenance finishes run to completion.
fn run_open_loop(
    shared: &Shared<'_>,
    ops: &[Scheduled],
    from: usize,
    start: Instant,
    tracers: &mut [Tracer],
) -> Segment {
    let cursor = Mutex::new(Cursor { next: from, paused: None });
    let take = || {
        let mut c = cursor.lock().unwrap();
        if c.paused.is_some() || c.next >= ops.len() {
            return None;
        }
        c.next += 1;
        Some(c.next - 1)
    };
    let per_worker: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|t| {
                let (take, cursor) = (&take, &cursor);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while let Some(j) = take() {
                        let s = &ops[j];
                        let due = start + Duration::from_nanos(s.at_ns);
                        sleep_until(due);
                        let begun = Instant::now();
                        let id = Some(j as u64);
                        let outcome = match &s.op {
                            Op::Query(q) => t.scope("op.query", id, |t| shared.query(t, q, id)),
                            Op::Ingest { paper } => {
                                t.scope("op.ingest", id, |t| shared.ingest(t, *paper, id))
                            }
                            op => {
                                let outcome =
                                    t.scope("op.maintain", id, |t| shared.maintain(t, op, id));
                                let name = match op {
                                    Op::Compact { .. } => "compaction",
                                    _ => "recluster",
                                };
                                cursor.lock().unwrap().paused = Some((Instant::now(), name));
                                outcome
                            }
                        };
                        let done = Instant::now();
                        records.push(Record {
                            at: j,
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            late_ms: begun.saturating_duration_since(due).as_secs_f64() * 1e3,
                            outcome,
                        });
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load worker panicked")).collect()
    });
    let c = cursor.into_inner().unwrap();
    Segment { records: per_worker.into_iter().flatten().collect(), next: c.next, paused: c.paused }
}

/// Closed loop: every worker runs operations back to back, in `op_at`
/// order, until `secs` pass or `op_at` runs dry. Returns each operation's
/// latency, the completed operations per second, and the outcomes.
fn run_closed_loop(
    shared: &Shared<'_>,
    op_at: &(dyn Fn(usize) -> Option<Op> + Sync),
    secs: f64,
    tracers: &mut [Tracer],
) -> (Vec<f64>, f64, Tally) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let per_worker: Vec<(Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|t| {
                let next = &next;
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < end {
                        let Some(op) = op_at(next.fetch_add(1, Ordering::Relaxed)) else { break };
                        let started = Instant::now();
                        let outcome = match &op {
                            Op::Query(q) => {
                                t.scope("op.closed_query", None, |t| shared.query(t, q, None))
                            }
                            Op::Ingest { paper } => t.scope("op.closed_ingest", None, |t| {
                                shared.ingest(t, *paper, None)
                            }),
                            _ => unreachable!("the closed loop runs queries and arrivals"),
                        };
                        latencies.push(started.elapsed().as_secs_f64() * 1e3);
                        tally.add(outcome);
                    }
                    (latencies, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load worker panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    for (l, t) in per_worker {
        latencies.extend(l);
        tally.merge(t);
    }
    (latencies, tally.attempted as f64 / elapsed, tally)
}

/// Sums the sizes of files in `dir` whose names satisfy `keep`.
fn bytes_on_disk(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Forces every file in `dir` to disk.
fn sync_dir(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        std::fs::File::open(entry.path())
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("syncing {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    counter(after, name) - counter(before, name)
}

fn histogram_us(s: &Snapshot, name: &str, q: fn(&sem_obs::HistogramSummary) -> u64) -> f64 {
    match s.get(name) {
        Some(Value::Histogram(h)) => q(h) as f64 / 1e3,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// L2-normalises like the serving stack does before it scans (the
/// decomposition must hand rerank the very buffer the router would).
fn normalized(v: &[f32]) -> Vec<f32> {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        v.iter().map(|x| x / norm).collect()
    } else {
        v.to_vec()
    }
}

/// Re-runs `request` layer by layer — per-shard search, merge, candidate
/// fetch, rerank — and returns the composed answer.
fn decompose(router: &ShardRouter, t: &mut Tracer, request: &QueryRequest) -> Vec<Hit> {
    let n = router.num_shards();
    let fetch = request.rerank.as_ref().map_or(request.k, |r| r.candidates.max(request.k));
    let lists: Vec<Vec<Hit>> = (0..n)
        .map(|s| {
            t.scope("index.search_deadline", None, |_| {
                router
                    .shard(s)
                    .with_index(|i| i.search_deadline(&request.vector, fetch, None))
                    .ok()
                    .and_then(Result::ok)
                    .map(|(hits, _)| {
                        hits.into_iter()
                            .map(|h| Hit { id: global_id(s, h.id, n), score: h.score })
                            .collect()
                    })
                    .unwrap_or_default()
            })
        })
        .collect();
    let mut hits = t.scope("shard.merge_top_k", None, |_| merge_top_k(&lists, fetch));
    match &request.rerank {
        Some(params) => {
            let layout = router.layout();
            let q = normalized(&request.vector);
            let owned: Vec<(Hit, Vec<f32>)> = t.scope("rerank.fetch", None, |_| {
                hits.iter()
                    .filter_map(|h| {
                        let local = h.id / n;
                        router
                            .shard(shard_of(h.id, n))
                            .with_index(|i| (local < i.len()).then(|| i.vector(local).to_vec()))
                            .ok()
                            .flatten()
                            .map(|v| (*h, v))
                    })
                    .collect()
            });
            let pool: Vec<(Hit, &[f32])> = owned.iter().map(|(h, v)| (*h, v.as_slice())).collect();
            t.scope("rerank.rerank", None, |_| {
                rerank::rerank(&q, &layout, params, &pool, request.k)
            })
        }
        None => {
            hits.truncate(request.k);
            hits
        }
    }
}

fn same_bits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

/// Builds (and, for paper workloads, embeds) the serving stack from
/// scratch, persists it and reopens it from disk; returns the reopened
/// router and the seconds from vectors-in-hand to the first answered
/// query. `own` is the benchmark's own copy of the indexed vectors; the
/// router is handed vectors of its own.
fn setup(
    inputs: &Inputs<'_>,
    own: &[Vec<f32>],
    t: &mut Tracer,
    checks: &mut Checks,
) -> Result<(ShardRouter, f64), String> {
    let settings = inputs.workload.settings();
    let _ = std::fs::remove_dir_all(&inputs.dir);
    std::fs::create_dir_all(&inputs.dir).map_err(|e| format!("creating store dir: {e}"))?;
    let base = inputs.dir.join("index");
    let config =
        ShardConfig { shards: SHARDS, index: IndexConfig::default(), ..Default::default() };
    let mut elapsed = Duration::ZERO;
    // uniform vectors are in hand from the start: the router's copy is
    // made off the clock
    let uniform = if inputs.papers.is_none() { own.to_vec() } else { Vec::new() };
    let mut clock = Instant::now();
    let for_router: Vec<Vec<f32>> = match inputs.papers {
        Some(papers) => {
            let mut all = t.scope("embed.embed_corpus", None, |_| {
                papers.embedder().embed_corpus(&papers.corpus)
            });
            elapsed += clock.elapsed();
            check_embeddings(checks, papers, &all);
            all.truncate(papers.split);
            clock = Instant::now();
            all
        }
        None => uniform,
    };
    let registry = Arc::new(Registry::new());
    let router = t
        .scope("router.try_build", None, |_| {
            ShardRouter::try_build_with_metrics(for_router, config, registry.clone())
        })
        .map_err(|e| format!("build: {e}"))?;
    if let Some(papers) = inputs.papers {
        let layout = papers.embedder().layout();
        t.scope("router.set_layout", None, |_| router.set_layout(layout))
            .map_err(|e| format!("layout: {e}"))?;
    }
    if settings.sq8 {
        t.scope("router.enable_sq8", None, |_| router.enable_sq8())
            .map_err(|e| format!("sq8: {e}"))?;
    }
    t.scope("router.attach_stores", None, |_| router.attach_stores(&base))
        .map_err(|e| format!("attach: {e}"))?;
    t.scope("router.persist_all", None, |_| router.persist_all())
        .map_err(|e| format!("persist: {e}"))?;
    drop(router);
    let (router, _) = t
        .scope("router.open", None, |_| ShardRouter::open_with_metrics(&base, config, registry))
        .map_err(|e| format!("open: {e}"))?;
    // the flush policy under test: fsync before every ack
    router.set_journal_batch(1);
    let first = t
        .scope("router.query_request", None, |_| router.query(own[0].clone(), K))
        .map_err(|e| format!("first query: {e}"))?;
    elapsed += clock.elapsed();
    checks.check("first_query_answers", !first.degraded && first.hits.len() == K, || {
        format!("degraded={} hits={}", first.degraded, first.hits.len())
    });
    Ok((router, elapsed.as_secs_f64()))
}

fn check_embeddings(checks: &mut Checks, papers: &Papers, all: &[Vec<f32>]) {
    checks.check(
        "embeddings_match_training",
        embeddings_hash(all) == papers.trained_embeddings,
        || "corpus embeddings differ from the ones the fixture was trained with".into(),
    );
}

/// Runs one full pass of the workload. `traced` records spans and the
/// per-layer metrics.
pub fn execute(inputs: &Inputs<'_>, traced: bool) -> Result<Pass, String> {
    let workload = inputs.workload;
    let settings = workload.settings();
    let epoch = Instant::now();
    let mut main_t = Tracer::new(traced, epoch, 0);
    let mut tracers: Vec<Tracer> =
        (0..inputs.workers).map(|w| Tracer::new(traced, epoch, w as u32 + 1)).collect();
    let mut checks = Checks::default();
    let mut fingerprint = Fingerprint::default();
    fingerprint.bytes(workload.name().as_bytes());
    fingerprint.u64(inputs.seed);

    // the benchmark's own copy of the indexed vectors and its exact
    // reference over them exist before the first set-up, so the memory
    // baseline below holds them
    let vectors: Vec<Vec<f32>> = match inputs.papers {
        Some(papers) => {
            let mut all = papers.embedder().embed_corpus(&papers.corpus);
            check_embeddings(&mut checks, papers, &all);
            all.truncate(papers.split);
            all
        }
        None => uniform_corpus(inputs.seed, SCAN_N, SCAN_DIM),
    };
    let mut exact = Exact::new(&vectors);
    let rss_baseline_mb = host::status_mb("VmRSS").unwrap_or(0.0);
    let hwm_baseline_mb = host::status_mb("VmHWM").unwrap_or(0.0);

    // the first set-up's stack is the one measured; the repeats that
    // `setup_s` takes its median over run after the measured phases, since
    // memory the allocator keeps from one set-up raises the next one's peak
    let (router, secs) =
        main_t.scope("setup", None, |t| setup(inputs, &vectors, t, &mut checks))?;
    let mut setup_s = vec![secs];
    fingerprint.vectors(&vectors);
    let dim = vectors[0].len();

    let source = match inputs.papers {
        Some(_) => {
            Queries::Papers { papers: vectors.len(), zipf_s: ZIPF_S, facet_share: FACET_SHARE }
        }
        None => Queries::Uniform { dim },
    };
    // new papers: the later-year corpus papers (fresh vectors on
    // workloads without text, drawn per arrival from the seed)
    let ingest_pool = match inputs.papers {
        Some(p) => vectors.len()..p.corpus.papers.len(),
        None => 0..0,
    };
    let closed_s = inputs.seconds * CLOSED_SHARE;
    // workloads whose new papers arrive in the open loop need no phase
    // of their own for them
    let ingest_s = if settings.ingest_rate > 0.0 { 0.0 } else { inputs.seconds * INGEST_SHARE };
    let plan = Plan {
        seed: inputs.seed,
        open_s: inputs.seconds - closed_s - ingest_s,
        query_rate: settings.query_rate,
        queries: source.clone(),
        ingest_rate: settings.ingest_rate,
        ingest_pool: ingest_pool.clone(),
        maintain_every: settings.maintain_every,
        shards: SHARDS,
    };
    let ops = open_loop(&plan);
    fingerprint.schedule(&ops);
    // the closed-loop arrivals: pool papers the open loop did not take,
    // in a seeded order
    let closed_arrivals: Vec<usize> = match inputs.papers {
        Some(_) => {
            let taken: std::collections::HashSet<usize> = ops
                .iter()
                .filter_map(|s| match s.op {
                    Op::Ingest { paper } => Some(paper),
                    _ => None,
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(inputs.seed ^ SALT_ARRIVALS);
            permutation(&mut rng, ingest_pool.len())
                .into_iter()
                .map(|i| ingest_pool.start + i)
                .filter(|p| !taken.contains(p))
                .collect()
        }
        None => Vec::new(),
    };
    for &p in &closed_arrivals {
        fingerprint.u64(p as u64);
    }

    let shared = Shared {
        router: &router,
        inputs,
        vectors: &vectors,
        dim,
        acked: Mutex::new(Vec::new()),
        quantized: settings.sq8,
        sq8_self: Mutex::new((0, 0)),
        checks: Mutex::new(Checks::default()),
        maintenance: Mutex::new(Vec::new()),
    };
    // settle before measuring: flush what set-up wrote, so its writeback
    // does not land inside the measured phases, and warm the stack up on
    // queries of its own
    main_t.scope("settle", None, |_| sync_dir(&inputs.dir))?;
    let warm_stream = query_stream(&source, inputs.seed ^ SALT_WARMUP, CLOSED_QUERIES);
    let (_, _, warm_tally) = main_t.scope("phase.warmup", None, |_| {
        let warm_at = |i: usize| Some(Op::Query(warm_stream[i % warm_stream.len()].clone()));
        run_closed_loop(&shared, &warm_at, WARMUP_S, &mut tracers)
    });
    checks.check("warmup_answers", warm_tally.ok == warm_tally.attempted, || {
        format!("{warm_tally:?}")
    });
    let before = router.metrics().snapshot();

    // open loop, in segments that end where a maintenance operation
    // finishes: the self-query check of the new papers runs between
    // segments with the schedule's clock stopped, and its registry counts
    // (`check_counts`) are taken out of the load phases' counts
    let mut records = Vec::with_capacity(ops.len());
    let mut check_counts: Vec<(Snapshot, Snapshot)> = Vec::new();
    main_t.scope("phase.open_loop", None, |t| {
        let mut from = 0;
        let mut start = Instant::now() + Duration::from_millis(5);
        loop {
            let segment = run_open_loop(&shared, &ops, from, start, &mut tracers);
            records.extend(segment.records);
            from = segment.next;
            let Some((paused_at, after)) = segment.paused else { break };
            let counted = router.metrics().snapshot();
            shared.self_queries(t, after);
            check_counts.push((counted, router.metrics().snapshot()));
            start += paused_at.elapsed();
        }
    });
    records.sort_by_key(|r| r.at);
    let mut tally = Tally::default();
    for r in &records {
        tally.add(r.outcome);
    }
    let latencies_of = |kind: fn(&Op) -> bool| -> Vec<f64> {
        records.iter().filter(|r| kind(&ops[r.at].op)).map(|r| r.latency_ms).collect()
    };
    let query_ms = latencies_of(|op| matches!(op, Op::Query(_)));
    let open_ingest_ms = latencies_of(|op| matches!(op, Op::Ingest { .. }));
    let lateness_ms: Vec<f64> = records.iter().map(|r| r.late_ms).collect();

    // closed loop
    let closed_stream = match source {
        Queries::Papers { .. } => query_stream(&source, inputs.seed ^ SALT_CLOSED, CLOSED_QUERIES),
        Queries::Uniform { .. } => Vec::new(),
    };
    let closed_query = |i: usize| -> QueryOp {
        match closed_stream.get(i % CLOSED_QUERIES) {
            Some(q) => q.clone(),
            None => QueryOp {
                target: Target::Vector(indexed_vector(inputs.seed ^ SALT_CLOSED, i, dim)),
                facets: None,
            },
        }
    };
    for i in 0..CLOSED_QUERIES {
        fingerprint.query(&closed_query(i));
    }
    let (closed_query_ms, peak_qps, closed_tally) = main_t.scope("phase.closed_loop", None, |_| {
        run_closed_loop(&shared, &|i| Some(Op::Query(closed_query(i))), closed_s, &mut tracers)
    });
    tally.merge(closed_tally);
    let after_queries = router.metrics().snapshot();

    // closed-loop new papers from one writer: ingests serialise on the
    // router's id lock, so more writers would only time each other's fsyncs
    let arrival_at = |i: usize| -> Option<Op> {
        match inputs.papers {
            _ if i >= CLOSED_ARRIVALS => None,
            Some(_) => closed_arrivals.get(i).map(|&paper| Op::Ingest { paper }),
            None => Some(Op::Ingest { paper: i }),
        }
    };
    let (closed_ingest_ms, ingest_per_s, ingest_tally) =
        main_t.scope("phase.closed_ingest", None, |_| {
            run_closed_loop(&shared, &arrival_at, ingest_s, &mut tracers[..1])
        });
    tally.merge(ingest_tally);
    let arrivals_scheduled = open_ingest_ms.len() + ingest_tally.attempted as usize;

    // recall against the exact reference, at quiescence
    for a in shared.acked.lock().unwrap().iter() {
        exact.insert(a.id, &a.vector);
    }
    let mut recall_queries: Vec<Vec<f32>> =
        query_stream(&source, inputs.seed ^ SALT_RECALL, RECALL_QUERIES)
            .iter()
            .map(|q| shared.request(&QueryOp { target: q.target.clone(), facets: None }).vector)
            .collect();
    {
        // after churn, half the sample asks about the new papers
        let acked = shared.acked.lock().unwrap();
        for (i, a) in acked.iter().step_by((acked.len() / (RECALL_QUERIES / 2)).max(1)).enumerate()
        {
            if i < recall_queries.len() / 2 {
                recall_queries[2 * i] = a.vector.clone();
            }
        }
    }
    let recall = main_t.scope("check.recall", None, |_| {
        let chunk = recall_queries.len().div_ceil(inputs.workers);
        let per_query: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = recall_queries
                .chunks(chunk)
                .map(|queries| {
                    let (router, exact) = (&router, &exact);
                    scope.spawn(move || {
                        queries
                            .iter()
                            .map(|q| {
                                let served: Vec<usize> = router
                                    .query(q.clone(), K)
                                    .map(|r| r.hits.iter().map(|h| h.id).collect())
                                    .unwrap_or_default();
                                recall(&served, &exact.top_k(q, K))
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("recall worker panicked")).collect()
        });
        per_query.iter().sum::<f64>() / per_query.len() as f64
    });

    // layer-by-layer decomposition of a sample, bit-identical to the router
    if traced {
        let sample = query_stream(&source, inputs.seed ^ SALT_DECOMPOSE, DECOMPOSE_QUERIES);
        for q in &sample {
            let request = shared.request(q);
            let composed = main_t.scope("decompose", None, |t| decompose(&router, t, &request));
            let served = main_t
                .scope("router.query_request", None, |_| router.query_request(request))
                .map(|r| r.hits)
                .unwrap_or_default();
            checks.check("decomposition_bit_identical", same_bits(&composed, &served), || {
                format!("composed {composed:?} vs served {served:?}")
            });
        }
    }

    let journal_records: usize =
        router.maintenance_status().iter().filter_map(|s| s.journal_tail).sum();
    let journal_bytes = bytes_on_disk(&inputs.dir, |n| n.contains(".journal"));

    // heal drills: force a shard down, recover it, time to a whole answer
    let mut probe_rng = StdRng::seed_from_u64(inputs.seed ^ SALT_PROBE);
    let mut heal_s = Vec::with_capacity(HEALS);
    let mut replayed = 0usize;
    for h in 0..HEALS {
        let s = h % SHARDS;
        let mut probe = || schedule::uniform_vector(&mut probe_rng, dim);
        let started = Instant::now();
        let healed = main_t.scope("heal", None, |t| -> Result<(), String> {
            t.scope("shard.force_down", None, |_| router.shard(s).force_down("heal drill"));
            let down = t.scope("router.query_request", None, |_| router.query(probe(), K));
            checks.check("down_shard_degrades", matches!(&down, Ok(r) if r.degraded), || {
                format!("shard {s} down but answer was {down:?}")
            });
            let stats = t
                .scope("router.recover_shard", None, |_| router.recover_shard(s))
                .map_err(|e| format!("recover shard {s}: {e}"))?;
            replayed += stats.replayed;
            for _ in 0..100 {
                let r = t.scope("router.query_request", None, |_| router.query(probe(), K));
                if matches!(r, Ok(ref r) if !r.degraded) {
                    return Ok(());
                }
            }
            Err(format!("shard {s} still degraded after recovery"))
        });
        heal_s.push(started.elapsed().as_secs_f64());
        checks.check("heal_restores_whole_answers", healed.is_ok(), || format!("{healed:?}"));
    }
    shared.self_queries(&mut main_t, "heal");

    // what the store holds, against the raw vectors it serves
    let store_bytes = bytes_on_disk(&inputs.dir, |_| true);
    let snapshot_bytes = bytes_on_disk(&inputs.dir, |n| {
        n.ends_with(|c: char| c.is_ascii_digit()) && n.contains(".shard")
    });
    let raw_bytes = (router.len() * dim * 4) as f64;
    let end = router.metrics().snapshot();
    let peak_rss_mb = host::status_mb("VmHWM").unwrap_or(0.0) - rss_baseline_mb;

    // tally accounting must close
    checks.check(
        "outcomes_add_up",
        tally.ok + tally.degraded + tally.shed + tally.failed == tally.attempted,
        || format!("{tally:?}"),
    );
    checks.merge(shared.checks.into_inner().unwrap());
    let sq8_self_misses = shared.sq8_self.into_inner().unwrap();
    let acked_n = shared.acked.lock().map(|a| a.len()).unwrap_or(0);
    checks
        .check("every_arrival_acked", acked_n == arrivals_scheduled, || format!("{acked_n} acks"));

    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        // store encode/decode, per shard, on the final indexes
        let (mut encode, mut decode) = (0.0, 0.0);
        for s in 0..SHARDS {
            let started = Instant::now();
            let bytes = main_t
                .scope("index.to_json_bytes", None, |_| {
                    router.shard(s).with_index(|i| i.to_json_bytes())
                })
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            encode += started.elapsed().as_secs_f64();
            let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            let started = Instant::now();
            let decoded = main_t.scope("index.from_json", None, |_| AnnIndex::from_json(&text));
            decode += started.elapsed().as_secs_f64();
            checks.check(
                "snapshot_round_trips",
                decoded.map(|i| i.len()).ok() == router.shard(s).with_index(|i| i.len()).ok(),
                || format!("shard {s}"),
            );
        }
        let maintenance = shared.maintenance.lock().unwrap().clone();
        let per_shard = |suffix: &str| -> Vec<String> {
            (0..SHARDS).map(|i| format!("serve.shard{i}.{suffix}")).collect()
        };
        let delta_sum = |a: &Snapshot, b: &Snapshot, names: &[String]| -> f64 {
            names.iter().map(|n| counter_delta(a, b, n)).sum()
        };
        // counts over the load phases, without the checks run between them
        let load = |names: &[String]| -> f64 {
            delta_sum(&before, &after_queries, names)
                - check_counts.iter().map(|(a, b)| delta_sum(a, b, names)).sum::<f64>()
        };
        let load_one = |name: &str| load(&[name.to_string()]);
        let hits = load(&per_shard("cache.hits"));
        let misses = load(&per_shard("cache.misses"));
        let skew = router
            .maintenance_status()
            .iter()
            .filter_map(|s| s.drift.map(|d| f64::from(d.skew)))
            .fold(0.0, f64::max);
        let scan_p99 = per_shard("scan.ns")
            .iter()
            .map(|n| histogram_us(&end, n, |h| h.p99))
            .fold(0.0, f64::max);
        let secs_of = |compaction: bool| -> Vec<f64> {
            maintenance.iter().filter(|m| m.compaction == compaction).map(|m| m.secs).collect()
        };
        layer.insert("index.skew", skew);
        layer.insert("index.scan_us.p99", scan_p99);
        layer.insert(
            "index.rescored_per_query",
            ratio(load_one("serve.quant.rescored"), load_one("serve.quant.scans")),
        );
        layer.insert("shard.cache_hit_ratio", ratio(hits, hits + misses));
        layer.insert(
            "shard.invalidated_per_ingest",
            ratio(
                delta_sum(&before, &end, &per_shard("cache.invalidated")),
                counter_delta(&before, &end, "serve.router.ingested"),
            ),
        );
        layer.insert(
            "router.fanouts_per_query",
            ratio(load_one("serve.router.fanouts"), load_one("serve.router.queries")),
        );
        layer.insert("router.failed", tally.failed as f64);
        layer.insert("router.shed", tally.shed as f64);
        layer.insert("router.degraded", tally.degraded as f64);
        layer.insert("store.encode_s", encode);
        layer.insert("store.decode_s", decode);
        layer.insert("store.snapshot_bytes", snapshot_bytes as f64);
        layer.insert(
            "store.journal_bytes_per_record",
            ratio(journal_bytes as f64, journal_records as f64),
        );
        layer.insert("store.fsync_us.p50", histogram_us(&end, "store.journal.fsync.ns", |h| h.p50));
        layer.insert("store.fsync_us.p99", histogram_us(&end, "store.journal.fsync.ns", |h| h.p99));
        layer.insert("store.replayed", replayed as f64);
        layer.insert("maintenance.compact_s", median(&secs_of(true)));
        layer.insert(
            "maintenance.compact_pause_ms",
            maintenance.iter().map(|m| m.pause_us).max().unwrap_or(0) as f64 / 1e3,
        );
        layer.insert("maintenance.recluster_s", median(&secs_of(false)));
        layer.insert(
            "maintenance.reclusters_changed",
            maintenance.iter().filter(|m| m.changed).count() as f64,
        );
        layer.insert("load.lateness_ms.p99", percentile(&lateness_ms, 99.0).value);
    }

    drop(router);
    for _ in 1..inputs.setups {
        let (router, secs) =
            main_t.scope("setup", None, |t| setup(inputs, &vectors, t, &mut checks))?;
        setup_s.push(secs);
        drop(router);
    }

    let mut spans = main_t.into_spans();
    for t in tracers {
        spans.extend(t.into_spans());
    }
    if traced {
        let p = |name: &str, unit_ns: f64, q: f64| {
            percentile(&durations(&spans, name, unit_ns), q).value
        };
        let med = |name: &str| median(&durations(&spans, name, 1e9));
        layer.insert("index.build_s", med("router.try_build"));
        layer.insert("index.sq8_fit_s", med("router.enable_sq8"));
        layer.insert("index.search_us.p50", p("index.search_deadline", 1e3, 50.0));
        layer.insert("index.search_us.p99", p("index.search_deadline", 1e3, 99.0));
        layer.insert("router.merge_us.p99", p("shard.merge_top_k", 1e3, 99.0));
        layer.insert("rerank.fetch_us.p99", p("rerank.fetch", 1e3, 99.0));
        layer.insert("rerank.us.p99", p("rerank.rerank", 1e3, 99.0));
        layer.insert("embed.corpus_s", med("embed.embed_corpus"));
        layer.insert("embed.new_paper_us.p99", p("embed.embed_new", 1e3, 99.0));
        layer.insert("store.save_s", med("router.persist_all"));
        layer.insert("store.open_s", med("router.open"));
        layer.insert("trace.spans", spans.len() as f64);
    }

    Ok(Pass {
        setup_s,
        query_ms,
        lateness_ms,
        open_ingest_ms,
        closed_ingest_ms,
        ingest_per_s,
        closed_query_ms,
        peak_qps,
        recall,
        heal_s,
        store_bytes_ratio: store_bytes as f64 / raw_bytes,
        peak_rss_mb,
        rss_baseline_mb: (rss_baseline_mb, hwm_baseline_mb),
        tally,
        checks,
        sq8_self_misses,
        fingerprint: fingerprint.hex(),
        spans,
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_queries_bypass_the_cache_and_rerank() {
        let dir = std::env::temp_dir().join(format!("servebench-scan-{}", std::process::id()));
        let inputs = Inputs {
            workload: Workload::Scan,
            seed: 5,
            seconds: 1.0,
            papers: None,
            workers: 2,
            setups: 1,
            dir: dir.clone(),
        };
        let pass = execute(&inputs, true);
        let _ = std::fs::remove_dir_all(&dir);
        let pass = pass.expect("a scan pass runs");
        assert!(pass.checks.passed(), "{:?}", pass.checks.failures);
        assert!(pass.tally.attempted > 0);
        for name in ["shard.cache_hit_ratio", "rerank.fetch_us.p99", "rerank.us.p99"] {
            assert_eq!(pass.layer[name], 0.0, "{name}");
        }
    }

    #[test]
    fn self_query_misses_fail_on_f32_and_count_on_sq8() {
        let vectors = uniform_corpus(3, 600, 8);
        let inputs = Inputs {
            workload: Workload::Scan,
            seed: 3,
            seconds: 1.0,
            papers: None,
            workers: 1,
            setups: 1,
            dir: PathBuf::new(),
        };
        for quantized in [false, true] {
            let config = ShardConfig { shards: SHARDS, ..Default::default() };
            let router = ShardRouter::try_build(vectors.clone(), config).unwrap();
            if quantized {
                router.enable_sq8().unwrap();
            }
            let shared = Shared {
                router: &router,
                inputs: &inputs,
                vectors: &vectors,
                dim: 8,
                // a paper found first, and one whose vector belongs to another
                acked: Mutex::new(vec![
                    Acked { id: 7, vector: vectors[7].clone() },
                    Acked { id: 8, vector: vectors[9].clone() },
                ]),
                quantized,
                sq8_self: Mutex::new((0, 0)),
                checks: Mutex::new(Checks::default()),
                maintenance: Mutex::new(Vec::new()),
            };
            shared.self_queries(&mut Tracer::new(false, Instant::now(), 0), "test");
            let checks = shared.checks.into_inner().unwrap();
            let sq8_self = shared.sq8_self.into_inner().unwrap();
            if quantized {
                assert!(checks.passed());
                assert_eq!(sq8_self, (1, 2));
            } else {
                assert_eq!(checks.counts["new_paper_self_rank_1"], (2, 1));
                assert_eq!(sq8_self, (0, 0));
            }
        }
    }
}
