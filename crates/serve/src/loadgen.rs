//! Open-loop load generation against a [`ShardRouter`].
//!
//! A closed-loop driver (issue, wait, issue) hides queueing: when the
//! server slows down the driver slows down with it, and the measured
//! latency stays flattering. This generator is **open-loop**: arrivals are
//! scheduled on a fixed clock derived solely from the target QPS, and
//! each operation's latency is measured from its *scheduled* arrival time
//! — so time spent waiting behind a backed-up queue counts against the
//! percentiles (no coordinated omission).
//!
//! The run is fully deterministic for a given seed: the operation
//! schedule (query vs ingest, batch size, query vectors) is derived from
//! a seeded RNG before the clock starts, so two runs differ only in
//! measured timing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::ServeError;
use crate::facet::{RerankParams, DEFAULT_CANDIDATES};
use crate::maintenance::{Maintainer, MaintainerStatus, MaintenanceConfig};
use crate::router::{DegradeReason, HedgeConfig, QueryRequest, ShardRouter};
use crate::supervisor::{ShardSupervisor, SupervisorConfig, SupervisorEvent, SupervisorSnapshot};

/// Parameters of one open-loop run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Target arrival rate, operations per second.
    pub qps: f64,
    /// Wall-clock length of the run.
    pub duration: Duration,
    /// Batch sizes to cycle through for query operations, sampled
    /// uniformly (e.g. `[1, 1, 4, 16]` biases towards singletons).
    pub batch_mix: Vec<usize>,
    /// Fraction of operations that are ingests instead of queries, in
    /// `[0, 1]`.
    pub ingest_ratio: f64,
    /// Fraction of *query* operations that carry facet-rerank parameters
    /// (seeded random per-facet weights and diversity λ), in `[0, 1]`.
    /// `0.0` keeps every query on the plain fused path.
    pub facet_mix: f64,
    /// Top-K requested per query.
    pub k: usize,
    /// Worker threads draining the arrival queue.
    pub workers: usize,
    /// RNG seed: fixes the operation schedule and every query vector.
    pub seed: u64,
    /// Per-operation deadline budget, measured from the operation's
    /// *scheduled* arrival (so queueing delay counts against it and a
    /// backed-up request is shed instead of scanned). `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            qps: 200.0,
            duration: Duration::from_secs(2),
            batch_mix: vec![1, 1, 1, 4],
            ingest_ratio: 0.05,
            facet_mix: 0.0,
            k: 10,
            workers: 4,
            seed: 42,
            deadline: None,
        }
    }
}

/// Degraded responses broken out by [`DegradeReason`] — counted per
/// response (one batched operation can contribute several), so chaos
/// runs are diagnosable instead of lumping everything into one number.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DegradeBreakdown {
    /// Deadline budget ran out mid-scan.
    pub deadline: u64,
    /// One or more shards were down during the merge.
    pub shards_down: u64,
    /// One or more shards straggled past the hedge budget.
    pub shard_slow: u64,
}

/// Thread-shared atomic tallies behind [`DegradeBreakdown`].
#[derive(Default)]
struct ReasonCounts {
    deadline: AtomicU64,
    shards_down: AtomicU64,
    shard_slow: AtomicU64,
}

impl ReasonCounts {
    fn count(&self, reason: DegradeReason) {
        let c = match reason {
            DegradeReason::Deadline => &self.deadline,
            DegradeReason::ShardsDown => &self.shards_down,
            DegradeReason::ShardSlow => &self.shard_slow,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> DegradeBreakdown {
        DegradeBreakdown {
            deadline: self.deadline.load(Ordering::Relaxed),
            shards_down: self.shards_down.load(Ordering::Relaxed),
            shard_slow: self.shard_slow.load(Ordering::Relaxed),
        }
    }
}

/// `true` when the error is a typed refusal (backpressure) rather than a
/// hard failure: the server *chose* not to serve, and said so honestly.
fn is_shed(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Overloaded { .. }
            | ServeError::IngestBackpressure { .. }
            | ServeError::DeadlineExceeded
            | ServeError::ShardDown { .. }
    )
}

/// What the run measured, JSON-serialisable for CI artifacts and the
/// bench gate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadReport {
    /// Operations completed (queries + ingests).
    pub ops: u64,
    /// Query operations completed (a batch counts once).
    pub queries: u64,
    /// Query operations that carried facet-rerank parameters (subset of
    /// `queries`, scheduled by [`LoadgenConfig::facet_mix`]).
    pub faceted: u64,
    /// Ingest operations completed.
    pub ingests: u64,
    /// Operations with at least one degraded response.
    pub degraded: u64,
    /// Degraded responses by reason (per response, not per operation).
    pub degraded_by_reason: DegradeBreakdown,
    /// Operations shed with a typed refusal — [`ServeError::Overloaded`],
    /// [`ServeError::IngestBackpressure`], an expired deadline, a down
    /// shard. Backpressure, not failure.
    pub shed: u64,
    /// Of `shed`, query-path admission refusals
    /// ([`ServeError::Overloaded`]) — bounds the query plane alone.
    pub shed_overloaded: u64,
    /// Of `shed`, streaming-ingest refusals
    /// ([`ServeError::IngestBackpressure`]) — bounds the ingest plane
    /// alone. Always 0 outside churn mode (inline ingest never
    /// backpressures).
    pub shed_backpressure: u64,
    /// Operations that failed hard (I/O, corruption, anything untyped).
    pub failed: u64,
    /// Total errored operations, `shed + failed` (kept as one number for
    /// existing tooling).
    pub errors: u64,
    /// Arrival rate the schedule offered.
    pub offered_qps: f64,
    /// Completion rate actually achieved.
    pub achieved_qps: f64,
    /// Median latency, microseconds, scheduled-arrival → completion.
    pub p50_us: u64,
    /// 90th percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// 99th percentile of **query** operations alone, microseconds —
    /// the SLO number, undiluted by the (cheaper or queued) ingest path.
    pub p99_query_us: u64,
    /// 99th percentile of **ingest** operations alone, microseconds (0
    /// when the run scheduled no ingests). In churn mode this measures
    /// submit-to-queue latency; the apply happens asynchronously.
    pub p99_ingest_us: u64,
    /// Corpus size when the run ended.
    pub corpus_len: usize,
    /// Which distance path served the run: `"sq8"` (quantized stage-0
    /// scan + exact rescore) or `"f32"` (plain exact scan).
    pub scan_mode: String,
    /// p99 attributable to the SQ8 path, microseconds (0 when the run
    /// served f32). A run is mode-uniform, so this is `p99_us` under
    /// SQ8 — kept as its own field so CI can assert both paths across
    /// two runs of the same job.
    pub p99_sq8_us: u64,
    /// p99 attributable to the f32 path, microseconds (0 under SQ8).
    pub p99_f32_us: u64,
}

impl LoadReport {
    /// `true` when the run kept up with the offered load (within
    /// `tolerance`, e.g. 0.9 for "achieved ≥ 90% of offered") and nothing
    /// errored or degraded.
    pub fn sustained(&self, tolerance: f64) -> bool {
        self.errors == 0 && self.degraded == 0 && self.achieved_qps >= self.offered_qps * tolerance
    }
}

/// One scheduled operation, fully determined before the clock starts.
enum Op {
    Query { batch: Vec<Vec<f32>>, k: usize, rerank: Option<RerankParams> },
    Ingest { vector: Vec<f32> },
}

struct Work {
    op: Op,
    /// When the open-loop schedule says this operation arrived.
    arrival: Instant,
}

struct Queue {
    jobs: Mutex<VecDeque<Work>>,
    ready: Condvar,
    closed: AtomicBool,
}

impl Queue {
    fn push(&self, w: Work) {
        self.jobs.lock().push_back(w);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Work> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(w) = jobs.pop_front() {
                return Some(w);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            self.ready.wait(&mut jobs);
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.jobs.lock().len()
    }
}

/// Runs one open-loop session against `router`.
///
/// # Errors
/// Only configuration problems error the run itself (zero QPS, empty
/// batch mix, zero workers, out-of-range ingest ratio); per-operation
/// failures are counted in the report instead.
pub fn run(router: &ShardRouter, config: &LoadgenConfig) -> Result<LoadReport, ServeError> {
    run_with_ingest(router, config, 0.0, &|v| router.ingest_vector(v).map(|_| ()))
}

/// [`run`] with a pluggable ingest sink and an optional distribution
/// shift on the ingested vectors (component 0 offset by
/// `ingest_offset`) — churn mode routes ingests through a
/// [`Maintainer`]'s backpressured queues and streams a drifted
/// distribution so the drift detector has something to detect.
fn run_with_ingest(
    router: &ShardRouter,
    config: &LoadgenConfig,
    ingest_offset: f32,
    ingest: &(dyn Fn(Vec<f32>) -> Result<(), ServeError> + Sync),
) -> Result<LoadReport, ServeError> {
    if !config.qps.is_finite() || config.qps <= 0.0 {
        return Err(ServeError::Invalid("loadgen qps must be positive and finite".into()));
    }
    if config.batch_mix.is_empty() || config.batch_mix.contains(&0) {
        return Err(ServeError::Invalid(
            "loadgen batch mix must be non-empty, all sizes ≥ 1".into(),
        ));
    }
    if config.workers == 0 {
        return Err(ServeError::Invalid("loadgen needs at least one worker".into()));
    }
    if !(0.0..=1.0).contains(&config.ingest_ratio) {
        return Err(ServeError::Invalid("loadgen ingest ratio must be within [0, 1]".into()));
    }
    if !(0.0..=1.0).contains(&config.facet_mix) {
        return Err(ServeError::Invalid("loadgen facet mix must be within [0, 1]".into()));
    }

    let dim = router.dim();
    let total_ops = (config.qps * config.duration.as_secs_f64()).ceil().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / config.qps);

    // Pre-generate the whole schedule so the hot loop only moves clock and
    // queue — and so the run is reproducible from the seed alone.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let random_vector =
        |rng: &mut StdRng| -> Vec<f32> { (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let layout = router.layout();
    let mut schedule = Vec::with_capacity(total_ops);
    for _ in 0..total_ops {
        if rng.gen_bool(config.ingest_ratio) {
            let mut vector = random_vector(&mut rng);
            if let Some(first) = vector.first_mut() {
                *first += ingest_offset;
            }
            schedule.push(Op::Ingest { vector });
        } else {
            let batch = config.batch_mix[rng.gen_range(0..config.batch_mix.len())];
            // a facet-mix query exercises the two-stage path with seeded
            // random weights and a moderate diversity λ; everything about
            // the schedule stays reproducible from the seed alone
            let rerank =
                (config.facet_mix > 0.0 && rng.gen_bool(config.facet_mix)).then(|| RerankParams {
                    weights: (0..layout.len()).map(|_| rng.gen_range(0.05f32..1.0)).collect(),
                    lambda: rng.gen_range(0.0f32..0.5),
                    candidates: DEFAULT_CANDIDATES,
                });
            schedule.push(Op::Query {
                batch: (0..batch).map(|_| random_vector(&mut rng)).collect(),
                k: config.k,
                rerank,
            });
        }
    }

    let queue = Arc::new(Queue {
        jobs: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        closed: AtomicBool::new(false),
    });
    let queries = AtomicU64::new(0);
    let faceted = AtomicU64::new(0);
    let ingests = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let shed_overloaded = AtomicU64::new(0);
    let shed_backpressure = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let reasons = ReasonCounts::default();
    // query and ingest latencies recorded apart so the report can bound
    // the two planes independently
    let query_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(total_ops));
    let ingest_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let depth_gauge = router.metrics().gauge("loadgen.queue.depth");
    let deadline_budget = config.deadline;

    let t_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.workers {
            let queue = Arc::clone(&queue);
            let queries = &queries;
            let faceted = &faceted;
            let ingests = &ingests;
            let degraded = &degraded;
            let shed = &shed;
            let shed_overloaded = &shed_overloaded;
            let shed_backpressure = &shed_backpressure;
            let failed = &failed;
            let reasons = &reasons;
            let query_latencies = &query_latencies;
            let ingest_latencies = &ingest_latencies;
            scope.spawn(move || {
                while let Some(work) = queue.pop() {
                    let is_ingest = matches!(work.op, Op::Ingest { .. });
                    let outcome = match work.op {
                        Op::Query { batch, k, rerank } => {
                            if rerank.is_some() {
                                faceted.fetch_add(1, Ordering::Relaxed);
                            }
                            // the scheduled arrival rides on the request:
                            // deadlines are measured from it, so a request
                            // that sat out its whole budget in this queue
                            // is shed by the router, not scanned
                            let requests = batch
                                .into_iter()
                                .map(|v| {
                                    let mut r = QueryRequest::new(v, k).with_arrival(work.arrival);
                                    if let Some(b) = deadline_budget {
                                        r = r.with_deadline(b);
                                    }
                                    if let Some(params) = &rerank {
                                        r = r.with_rerank(params.clone());
                                    }
                                    r
                                })
                                .collect();
                            match router.query_batch(requests) {
                                Ok(responses) => {
                                    queries.fetch_add(1, Ordering::Relaxed);
                                    if responses.iter().any(|r| r.degraded) {
                                        degraded.fetch_add(1, Ordering::Relaxed);
                                    }
                                    for r in &responses {
                                        if let Some(reason) = r.reason {
                                            reasons.count(reason);
                                        }
                                    }
                                    Ok(())
                                }
                                Err(e) => Err(e),
                            }
                        }
                        Op::Ingest { vector } => match ingest(vector) {
                            Ok(()) => {
                                ingests.fetch_add(1, Ordering::Relaxed);
                                Ok(())
                            }
                            Err(e) => Err(e),
                        },
                    };
                    if let Err(e) = outcome {
                        if is_shed(&e) {
                            shed.fetch_add(1, Ordering::Relaxed);
                            match e {
                                ServeError::Overloaded { .. } => {
                                    shed_overloaded.fetch_add(1, Ordering::Relaxed);
                                }
                                ServeError::IngestBackpressure { .. } => {
                                    shed_backpressure.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {}
                            }
                        } else {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // open-loop latency: from scheduled arrival, queueing included
                    let us = work.arrival.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    if is_ingest {
                        ingest_latencies.lock().push(us);
                    } else {
                        query_latencies.lock().push(us);
                    }
                }
            });
        }

        // The arrival clock: operation i arrives at t_start + i·interval,
        // whether or not the workers have kept up.
        for (i, op) in schedule.into_iter().enumerate() {
            let arrival = t_start + interval.mul_f64(i as f64);
            if let Some(wait) = arrival.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            queue.push(Work { op, arrival });
            depth_gauge.set_max(queue.depth() as f64);
        }
        queue.close();
    });
    let elapsed = t_start.elapsed();

    let mut query_samples = query_latencies.into_inner();
    query_samples.sort_unstable();
    let mut ingest_samples = ingest_latencies.into_inner();
    ingest_samples.sort_unstable();
    let mut samples = Vec::with_capacity(query_samples.len() + ingest_samples.len());
    samples.extend_from_slice(&query_samples);
    samples.extend_from_slice(&ingest_samples);
    samples.sort_unstable();
    let pct_of = |samples: &[u64], q: f64| -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
        samples[idx.min(samples.len() - 1)]
    };
    let pct = |q: f64| pct_of(&samples, q);
    let ops = samples.len() as u64;
    let (shed, failed) = (shed.into_inner(), failed.into_inner());
    let quantized = router.is_quantized();
    Ok(LoadReport {
        ops,
        queries: queries.into_inner(),
        faceted: faceted.into_inner(),
        ingests: ingests.into_inner(),
        degraded: degraded.into_inner(),
        degraded_by_reason: reasons.snapshot(),
        shed,
        shed_overloaded: shed_overloaded.into_inner(),
        shed_backpressure: shed_backpressure.into_inner(),
        failed,
        errors: shed + failed,
        offered_qps: config.qps,
        achieved_qps: ops as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: samples.last().copied().unwrap_or(0),
        p99_query_us: pct_of(&query_samples, 0.99),
        p99_ingest_us: pct_of(&ingest_samples, 0.99),
        corpus_len: router.len(),
        scan_mode: if quantized { "sq8".into() } else { "f32".into() },
        p99_sq8_us: if quantized { pct(0.99) } else { 0 },
        p99_f32_us: if quantized { 0 } else { pct(0.99) },
    })
}

/// Deterministic synthetic corpus for loadgen and benches: `n` vectors of
/// width `dim` from the given seed.
pub fn synthetic_corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

/// One kind of injected fault.
#[derive(Clone, Copy, Debug)]
pub enum ChaosKind {
    /// The shard's process "dies": it is forced down and must be healed
    /// by the supervisor from its own store.
    Kill {
        /// Target shard.
        shard: usize,
    },
    /// Garbage bytes are appended to the shard's on-disk journal — a torn
    /// tail the next recovery must discard (and then compact away).
    TornJournal {
        /// Target shard.
        shard: usize,
    },
    /// The shard's next `scans` searches sleep `delay_ms` before
    /// scanning — a straggler the hedged fan-out should absorb.
    LatencySpike {
        /// Target shard.
        shard: usize,
        /// Injected per-scan delay, milliseconds.
        delay_ms: u64,
        /// Number of delayed scans.
        scans: usize,
    },
}

// Struct-variant enums are beyond the vendored serde derive; serialize by
// hand as tagged objects (Duration flattens to `at_ms`).
impl Serialize for ChaosKind {
    fn ser(&self) -> serde::Value {
        use serde::Value;
        let fault = |s: &str| ("fault".to_string(), Value::Str(s.to_string()));
        let int = |name: &str, n: i128| (name.to_string(), Value::Int(n));
        match self {
            ChaosKind::Kill { shard } => {
                Value::Obj(vec![fault("kill"), int("shard", *shard as i128)])
            }
            ChaosKind::TornJournal { shard } => {
                Value::Obj(vec![fault("torn_journal"), int("shard", *shard as i128)])
            }
            ChaosKind::LatencySpike { shard, delay_ms, scans } => Value::Obj(vec![
                fault("latency_spike"),
                int("shard", *shard as i128),
                int("delay_ms", i128::from(*delay_ms)),
                int("scans", *scans as i128),
            ]),
        }
    }
}

/// One fault on the chaos schedule.
#[derive(Clone, Copy, Debug)]
pub struct ChaosEvent {
    /// Offset from the start of the load run.
    pub at: Duration,
    /// What to inject.
    pub kind: ChaosKind,
}

impl Serialize for ChaosEvent {
    fn ser(&self) -> serde::Value {
        use serde::Value;
        let mut fields = vec![(
            "at_ms".to_string(),
            Value::Int(self.at.as_millis().min(i128::MAX as u128) as i128),
        )];
        if let Value::Obj(kind_fields) = self.kind.ser() {
            fields.extend(kind_fields);
        }
        Value::Obj(fields)
    }
}

/// Parameters of a chaos soak: a seeded fault schedule injected while the
/// open-loop load runs, a supervisor healing in the background, and
/// recovery/recall assertions afterwards.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Faults to inject, each at its offset into the run.
    pub events: Vec<ChaosEvent>,
    /// How long after the load ends every shard must be healthy again.
    pub heal_bound: Duration,
    /// Supervisor settings for the run.
    pub supervisor: SupervisorConfig,
    /// Hedging settings for the run (`None` = hedging off).
    pub hedge: Option<HedgeConfig>,
    /// How many original corpus vectors to re-query for the post-run
    /// self-recall check.
    pub recall_probes: usize,
}

impl ChaosConfig {
    /// The canonical seeded schedule over a `duration`-long run: a kill
    /// at 25%, a latency spike at 50% and a torn journal + kill at
    /// 65%/80% (same shard, so the heal must discard the torn tail).
    /// Which shards are hit is derived from `seed`; events never all
    /// target the same shard when `shards > 1`.
    pub fn seeded(seed: u64, shards: usize, duration: Duration) -> Self {
        let a = (seed as usize) % shards;
        let b = (a + 1) % shards;
        ChaosConfig {
            events: vec![
                ChaosEvent { at: duration.mul_f64(0.25), kind: ChaosKind::Kill { shard: a } },
                ChaosEvent {
                    at: duration.mul_f64(0.50),
                    kind: ChaosKind::LatencySpike { shard: a, delay_ms: 40, scans: 24 },
                },
                ChaosEvent {
                    at: duration.mul_f64(0.65),
                    kind: ChaosKind::TornJournal { shard: b },
                },
                ChaosEvent { at: duration.mul_f64(0.80), kind: ChaosKind::Kill { shard: b } },
            ],
            heal_bound: Duration::from_secs(5),
            supervisor: SupervisorConfig {
                probe_interval: Duration::from_millis(25),
                trip_after: 2,
                check_store: false,
                max_journal_tail: None,
                heal_backoff: sem_train::retry::RetryPolicy {
                    max_attempts: 8,
                    base_delay_ms: 20,
                    max_delay_ms: 500,
                    seed,
                },
            },
            hedge: Some(HedgeConfig {
                soft_timeout: Duration::from_millis(25),
                hedge_wait: Duration::from_millis(25),
            }),
            recall_probes: 64,
        }
    }
}

/// What a chaos soak produced.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosRunReport {
    /// The underlying open-loop load report.
    pub load: LoadReport,
    /// Supervisor counters and final per-shard health.
    pub supervisor: SupervisorSnapshot,
    /// Structured supervisor events (probe failures, trips, heals).
    pub events: Vec<SupervisorEvent>,
    /// The schedule that was injected.
    pub injected: Vec<ChaosEvent>,
    /// `true` when every shard was healthy within
    /// [`ChaosConfig::heal_bound`] of the load ending.
    pub healed_within_bound: bool,
    /// How long after the load ended the last shard came back,
    /// milliseconds (0 when everything had already healed mid-run).
    pub heal_wait_ms: u64,
    /// Fraction of probed original-corpus vectors whose self-query
    /// returned themselves as the top hit after the run (1.0 = no
    /// acknowledged data went missing).
    pub self_recall: f64,
    /// Fault injections that themselves failed (should be empty).
    pub injection_errors: Vec<String>,
}

/// Appends a torn (garbage) tail to the shard's journal: a `u32::MAX`
/// length prefix plus junk, which replay classifies as an
/// unacknowledged torn tail and discards.
fn inject_torn_journal(router: &ShardRouter, shard: usize) -> Result<(), ServeError> {
    use std::io::Write;
    let Some(snapshot) = router.shard(shard).store_path() else {
        return Err(ServeError::Invalid(format!("shard {shard} has no store to corrupt")));
    };
    let journal = crate::store::journal_path_for(&snapshot);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&journal)
        .map_err(|e| ServeError::io(&journal, e))?;
    f.write_all(&[0xFF; 16]).map_err(|e| ServeError::io(&journal, e))?;
    f.sync_all().map_err(|e| ServeError::io(&journal, e))?;
    Ok(())
}

/// Runs a chaos soak: starts a [`ShardSupervisor`] over `router`, injects
/// `chaos.events` on schedule while [`run`] drives the load, then checks
/// that every shard healed within bound and that the original corpus
/// (`recall_corpus`, the vectors the router was built from) is still
/// fully retrievable.
///
/// # Errors
/// Configuration problems (invalid load config, out-of-range shard in the
/// schedule). Injected faults and their fallout are *reported*, never
/// errors.
pub fn run_chaos(
    router: &Arc<ShardRouter>,
    config: &LoadgenConfig,
    chaos: &ChaosConfig,
    recall_corpus: &[Vec<f32>],
) -> Result<ChaosRunReport, ServeError> {
    for e in &chaos.events {
        let shard = match e.kind {
            ChaosKind::Kill { shard }
            | ChaosKind::TornJournal { shard }
            | ChaosKind::LatencySpike { shard, .. } => shard,
        };
        if shard >= router.num_shards() {
            return Err(ServeError::Invalid(format!(
                "chaos event targets shard {shard} but the router has {}",
                router.num_shards()
            )));
        }
    }
    router.set_hedge(chaos.hedge);
    let supervisor = Arc::new(ShardSupervisor::new(Arc::clone(router), chaos.supervisor.clone()));
    let sup_handle = supervisor.start();

    let mut events = chaos.events.clone();
    events.sort_by_key(|e| e.at);
    let injection_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let t_start = Instant::now();
    let load = std::thread::scope(|scope| {
        let injector_router = Arc::clone(router);
        let injection_errors = &injection_errors;
        let events = &events;
        scope.spawn(move || {
            for e in events {
                if let Some(wait) = (t_start + e.at).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let outcome = match e.kind {
                    ChaosKind::Kill { shard } => {
                        injector_router.shard(shard).force_down("chaos: injected kill");
                        Ok(())
                    }
                    ChaosKind::TornJournal { shard } => {
                        inject_torn_journal(&injector_router, shard)
                    }
                    ChaosKind::LatencySpike { shard, delay_ms, scans } => {
                        injector_router
                            .shard(shard)
                            .inject_scan_delay(Duration::from_millis(delay_ms), scans);
                        Ok(())
                    }
                };
                if let Err(err) = outcome {
                    injection_errors.lock().push(format!("{:?}: {err}", e.kind));
                }
            }
        });
        run(router, config)
    })?;

    // post-run: every shard must come back within the heal bound
    let t_end = Instant::now();
    let all_healthy = |r: &ShardRouter| (0..r.num_shards()).all(|i| !r.shard(i).is_down());
    while !all_healthy(router) && t_end.elapsed() < chaos.heal_bound {
        std::thread::sleep(Duration::from_millis(10));
    }
    let healed_within_bound = all_healthy(router);
    let heal_wait_ms = t_end.elapsed().as_millis().min(u64::MAX as u128) as u64;
    supervisor.shutdown();
    sup_handle.join().ok();

    // self-recall over the *original* corpus: ingested-under-chaos
    // vectors may be legitimately lost to injected corruption, but the
    // corpus the router was built from (and persisted before the run)
    // must survive every heal bit for bit
    let self_recall = strided_self_recall(router, recall_corpus, chaos.recall_probes);

    Ok(ChaosRunReport {
        load,
        supervisor: supervisor.snapshot(),
        events: supervisor.drain_events(),
        injected: chaos.events.clone(),
        healed_within_bound,
        heal_wait_ms: if healed_within_bound { heal_wait_ms } else { u64::MAX },
        self_recall,
        injection_errors: injection_errors.into_inner(),
    })
}

/// Fraction of `probes` strided samples of `corpus` whose self-query
/// returns themselves as the top hit. `corpus` must be the vectors the
/// router was built from, in insertion (= global id) order.
pub fn strided_self_recall(router: &ShardRouter, corpus: &[Vec<f32>], probes: usize) -> f64 {
    let probes = probes.min(corpus.len());
    let mut found = 0usize;
    if let Some(stride) = corpus.len().checked_div(probes) {
        let stride = stride.max(1);
        for (expected_id, v) in corpus.iter().enumerate().step_by(stride).take(probes) {
            if let Ok(r) = router.query(v.clone(), 1) {
                if r.hits.first().map(|h| h.id) == Some(expected_id) {
                    found += 1;
                }
            }
        }
    }
    if probes == 0 {
        1.0
    } else {
        found as f64 / probes as f64
    }
}

/// Parameters of a churn soak: a mixed query/ingest load where ingest
/// flows through the backpressured maintenance plane, the corpus drifts
/// on purpose, and online compaction + re-clustering must happen *while*
/// the load runs.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Maintenance-plane settings for the run (queue bounds, journal
    /// batching, compaction budget, drift thresholds).
    pub maintenance: MaintenanceConfig,
    /// Distribution shift applied to every streamed vector (component 0
    /// offset) so residual growth gives the drift detector something
    /// real to detect. `0.0` streams the stationary distribution.
    pub drift_offset: f32,
    /// How many original-corpus vectors to self-query after the run.
    pub recall_probes: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            maintenance: MaintenanceConfig::default(),
            drift_offset: 2.0,
            recall_probes: 64,
        }
    }
}

/// What a churn soak produced.
#[derive(Clone, Debug, Serialize)]
pub struct ChurnRunReport {
    /// The underlying open-loop load report (ingest latency and
    /// backpressure shed split out).
    pub load: LoadReport,
    /// Final state of the maintenance plane: lifetime compaction and
    /// re-cluster counts, queue depths, per-shard drift and epochs.
    pub maintenance: MaintainerStatus,
    /// Fraction of probed original-corpus vectors whose self-query
    /// returned themselves as the top hit after all the churn (1.0 = no
    /// acknowledged data went missing through compactions + handovers).
    pub self_recall: f64,
}

/// Runs a churn soak: wires a [`Maintainer`] onto `router`, streams the
/// configured query/ingest mix with every ingest routed through the
/// bounded queues (shed with typed backpressure, never blocking), lets
/// the background maintenance thread compact and re-cluster mid-load,
/// then drains cleanly and checks the original corpus is still fully
/// retrievable.
///
/// # Errors
/// Configuration problems only; per-operation failures, shed and
/// maintenance outcomes are all *reported*.
pub fn run_churn(
    router: &Arc<ShardRouter>,
    config: &LoadgenConfig,
    churn: &ChurnConfig,
    recall_corpus: &[Vec<f32>],
) -> Result<ChurnRunReport, ServeError> {
    let maintainer = Arc::new(Maintainer::new(Arc::clone(router), churn.maintenance));
    maintainer.start();
    let load = run_with_ingest(router, config, churn.drift_offset, &|v| maintainer.submit(v));
    maintainer.shutdown();
    let load = load?;
    let self_recall = strided_self_recall(router, recall_corpus, churn.recall_probes);
    Ok(ChurnRunReport { load, maintenance: maintainer.status(), self_recall })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::shard::ShardConfig;

    fn small_router() -> ShardRouter {
        let config = ShardConfig {
            shards: 2,
            index: IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
            cache_capacity: 64,
        };
        ShardRouter::try_build(synthetic_corpus(64, 8, 7), config).unwrap()
    }

    #[test]
    fn short_run_completes_every_scheduled_op() {
        let router = small_router();
        let config = LoadgenConfig {
            qps: 400.0,
            duration: Duration::from_millis(250),
            ingest_ratio: 0.1,
            workers: 2,
            ..Default::default()
        };
        let report = run(&router, &config).unwrap();
        assert_eq!(report.ops, 100, "400 qps × 0.25 s");
        assert_eq!(report.ops, report.queries + report.ingests);
        assert_eq!(report.errors, 0);
        assert_eq!(report.degraded, 0);
        assert!(report.p50_us <= report.p90_us && report.p90_us <= report.p99_us);
        assert!(report.max_us >= report.p99_us);
        assert!(report.sustained(0.5), "{report:?}");
        assert_eq!(report.corpus_len, 64 + report.ingests as usize);
        assert_eq!(report.scan_mode, "f32");
        assert_eq!(report.p99_f32_us, report.p99_us);
        assert_eq!(report.p99_sq8_us, 0);
    }

    #[test]
    fn report_splits_ingest_latency_and_shed_reasons() {
        let router = small_router();
        let config = LoadgenConfig {
            qps: 400.0,
            duration: Duration::from_millis(300),
            ingest_ratio: 0.3,
            workers: 2,
            ..Default::default()
        };
        let report = run(&router, &config).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.ingests > 0 && report.queries > 0);
        assert!(report.p99_query_us > 0);
        assert!(report.p99_ingest_us > 0);
        assert_eq!(report.shed_overloaded, 0);
        assert_eq!(report.shed_backpressure, 0, "inline ingest never backpressures");
        // the two shed planes are part of the JSON artifact
        let json = serde_json::to_string(&report).unwrap();
        for key in ["\"p99_ingest_us\"", "\"p99_query_us\"", "\"shed_backpressure\""] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn churn_run_compacts_reclusters_and_keeps_recall() {
        let dir = TempDir::new("churn");
        let corpus = synthetic_corpus(120, 8, 13);
        let config = crate::shard::ShardConfig {
            shards: 2,
            index: IndexConfig { nlist: 4, nprobe: 4, flat_threshold: 1, kmeans_iters: 4, seed: 5 },
            cache_capacity: 64,
        };
        let router = Arc::new(ShardRouter::try_build(corpus.clone(), config).unwrap());
        router.attach_stores(&dir.0.join("idx")).unwrap();
        router.persist_all().unwrap();
        let load = LoadgenConfig {
            qps: 600.0,
            duration: Duration::from_millis(800),
            ingest_ratio: 0.5,
            workers: 2,
            ..Default::default()
        };
        let churn = ChurnConfig {
            maintenance: MaintenanceConfig {
                compact_after: 32,
                journal_batch: 8,
                drift_len_factor: 1.5,
                tick_interval: Duration::from_millis(10),
                ..MaintenanceConfig::default()
            },
            drift_offset: 2.0,
            recall_probes: 48,
        };
        let report = run_churn(&router, &load, &churn, &corpus).unwrap();
        assert_eq!(report.load.failed, 0, "churn must never produce hard failures: {report:?}");
        assert!(report.maintenance.compactions >= 1, "{:?}", report.maintenance);
        assert!(report.maintenance.reclusters >= 1, "{:?}", report.maintenance);
        assert!(
            report.maintenance.queue_depths.iter().all(|&d| d == 0),
            "clean shutdown leaves nothing queued: {report:?}"
        );
        assert!(
            (report.self_recall - 1.0).abs() < f64::EPSILON,
            "original corpus must survive compaction + handover: {report:?}"
        );
        // the report is a JSON artifact for CI — it must serialize with
        // the fields the soak asserts on
        let json = serde_json::to_string(&report).unwrap();
        for key in ["\"compactions\"", "\"reclusters\"", "\"self_recall\"", "\"p99_query_us\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        std::fs::remove_dir_all(&dir.0).ok();
    }

    #[test]
    fn quantized_run_reports_its_scan_mode() {
        let router = small_router();
        router.enable_sq8().unwrap();
        let config = LoadgenConfig {
            qps: 400.0,
            duration: Duration::from_millis(250),
            ingest_ratio: 0.1,
            workers: 2,
            ..Default::default()
        };
        let report = run(&router, &config).unwrap();
        assert_eq!(report.errors, 0);
        assert_eq!(report.scan_mode, "sq8");
        assert_eq!(report.p99_sq8_us, report.p99_us);
        assert_eq!(report.p99_f32_us, 0);
    }

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let config = LoadgenConfig {
            qps: 300.0,
            duration: Duration::from_millis(200),
            ingest_ratio: 0.2,
            workers: 2,
            ..Default::default()
        };
        let a = run(&small_router(), &config).unwrap();
        let b = run(&small_router(), &config).unwrap();
        assert_eq!(a.queries, b.queries, "same seed → same query/ingest split");
        assert_eq!(a.ingests, b.ingests);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let router = small_router();
        for bad in [
            LoadgenConfig { qps: 0.0, ..Default::default() },
            LoadgenConfig { batch_mix: vec![], ..Default::default() },
            LoadgenConfig { batch_mix: vec![0], ..Default::default() },
            LoadgenConfig { workers: 0, ..Default::default() },
            LoadgenConfig { ingest_ratio: 1.5, ..Default::default() },
            LoadgenConfig { facet_mix: -0.1, ..Default::default() },
            LoadgenConfig { facet_mix: 1.5, ..Default::default() },
        ] {
            assert!(run(&router, &bad).is_err());
        }
    }

    #[test]
    fn facet_mix_routes_queries_through_the_rerank_path() {
        let router = small_router();
        router
            .set_layout(
                crate::facet::FacetLayout::new(
                    vec!["bg".into(), "method".into(), "result".into()],
                    vec![3, 3, 2],
                )
                .unwrap(),
            )
            .unwrap();
        let config = LoadgenConfig {
            qps: 400.0,
            duration: Duration::from_millis(250),
            ingest_ratio: 0.1,
            facet_mix: 1.0,
            workers: 2,
            ..Default::default()
        };
        let report = run(&router, &config).unwrap();
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.faceted, report.queries, "every query carries rerank params");
        assert!(report.queries > 0);

        // and a zero mix keeps the plain path untouched
        let plain = run(&router, &LoadgenConfig { facet_mix: 0.0, ..config }).unwrap();
        assert_eq!(plain.faceted, 0);
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("sem-chaos-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stored_router(dir: &std::path::Path, corpus: &[Vec<f32>]) -> Arc<ShardRouter> {
        let config = crate::shard::ShardConfig {
            shards: 2,
            index: IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
            cache_capacity: 64,
        };
        let router = Arc::new(ShardRouter::try_build(corpus.to_vec(), config).unwrap());
        router.attach_stores(&dir.join("idx")).unwrap();
        router.persist_all().unwrap();
        router
    }

    #[test]
    fn seeded_schedule_targets_valid_shards_within_duration() {
        let duration = Duration::from_secs(10);
        let chaos = ChaosConfig::seeded(42, 2, duration);
        assert!(!chaos.events.is_empty());
        for e in &chaos.events {
            assert!(e.at < duration);
            let shard = match e.kind {
                ChaosKind::Kill { shard }
                | ChaosKind::TornJournal { shard }
                | ChaosKind::LatencySpike { shard, .. } => shard,
            };
            assert!(shard < 2);
        }
        // both kinds of victim get hit when there is more than one shard
        let kills: Vec<usize> = chaos
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ChaosKind::Kill { shard } => Some(shard),
                _ => None,
            })
            .collect();
        assert_eq!(kills.len(), 2);
        assert_ne!(kills[0], kills[1]);
    }

    #[test]
    fn chaos_run_heals_and_keeps_the_original_corpus() {
        let dir = TempDir::new("mini");
        let corpus = synthetic_corpus(96, 8, 11);
        let router = stored_router(&dir.0, &corpus);
        let load = LoadgenConfig {
            qps: 300.0,
            duration: Duration::from_millis(700),
            ingest_ratio: 0.05,
            workers: 2,
            ..Default::default()
        };
        let chaos = ChaosConfig::seeded(7, 2, load.duration);
        let report = run_chaos(&router, &load, &chaos, &corpus).unwrap();

        assert!(report.injection_errors.is_empty(), "{:?}", report.injection_errors);
        assert_eq!(report.load.failed, 0, "chaos must never produce hard failures: {report:?}");
        assert!(report.supervisor.heals >= 1, "both kills should heal: {:?}", report.supervisor);
        assert!(report.healed_within_bound, "{report:?}");
        assert!(
            (report.self_recall - 1.0).abs() < f64::EPSILON,
            "original corpus must survive every heal: {report:?}"
        );
        // the report is a JSON artifact for CI — it must serialize
        let json = serde_json::to_string(&report).unwrap();
        for key in ["\"heals\"", "\"failed\"", "\"self_recall\"", "\"fault\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn chaos_rejects_out_of_range_shard() {
        let dir = TempDir::new("range");
        let corpus = synthetic_corpus(32, 8, 3);
        let router = stored_router(&dir.0, &corpus);
        let chaos = ChaosConfig {
            events: vec![ChaosEvent {
                at: Duration::from_millis(1),
                kind: ChaosKind::Kill { shard: 9 },
            }],
            ..ChaosConfig::seeded(0, 2, Duration::from_millis(100))
        };
        let load = LoadgenConfig { duration: Duration::from_millis(100), ..Default::default() };
        assert!(run_chaos(&router, &load, &chaos, &corpus).is_err());
    }
}
