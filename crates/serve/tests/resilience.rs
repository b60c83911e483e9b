//! The self-healing serving loop end to end: supervisor trip/heal with
//! bit-identical post-heal results, admission-control shedding, deadline
//! expiry in the queue, hedged scatter-gather equivalence, and the
//! `recover_shard` idempotency regression.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::{
    AnnIndex, DegradeReason, HedgeConfig, IndexConfig, QueryRequest, ServeError, ShardConfig,
    ShardRouter, ShardSupervisor, SupervisorConfig,
};

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

fn flat_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        index: IndexConfig { flat_threshold: usize::MAX, ..Default::default() },
        cache_capacity: 128,
    }
}

fn flat_single(vectors: Vec<Vec<f32>>) -> AnnIndex {
    AnnIndex::build(vectors, IndexConfig { flat_threshold: usize::MAX, ..Default::default() })
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sem-resil-{tag}-{}", std::process::id()));
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

/// A killed shard heals automatically under the background supervisor, and
/// the healed router's answers are bit-identical to an unfaulted single
/// flat index — the heal restores the exact partition, not an approximation.
#[test]
fn supervisor_heal_restores_bit_identical_results() {
    let dir = TempDir::new("heal-exact");
    let vectors = random_vectors(90, 8, 71);
    let single = flat_single(vectors.clone());
    let router = Arc::new(ShardRouter::try_build(vectors, flat_config(3)).unwrap());
    router.attach_stores(&dir.0.join("fam.snap")).unwrap();
    router.persist_all().unwrap();

    let sup = Arc::new(ShardSupervisor::new(
        Arc::clone(&router),
        SupervisorConfig {
            probe_interval: Duration::from_millis(10),
            trip_after: 1,
            ..Default::default()
        },
    ));
    let handle = sup.start();

    router.shard(1).force_down("test kill");
    let t0 = Instant::now();
    while router.shard(1).is_down() && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    sup.shutdown();
    handle.join().unwrap();
    assert!(!router.shard(1).is_down(), "supervisor should have healed shard 1");
    assert!(sup.snapshot().heals >= 1);

    for q in random_vectors(5, 8, 72) {
        let response = router.query(q.clone(), 9).unwrap();
        assert!(!response.degraded);
        let expected = single.search(&q, 9);
        assert_eq!(response.hits, expected);
        for (a, b) in response.hits.iter().zip(&expected) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

/// Admission control on the router: with a budget of one inflight query
/// and one query parked inside a shard scan, the next arrival is shed with
/// the typed `Overloaded` refusal carrying the configured backoff hint.
#[test]
fn router_sheds_overload_with_typed_refusal() {
    let router =
        Arc::new(ShardRouter::try_build(random_vectors(40, 8, 81), flat_config(2)).unwrap());
    router.set_admission(1, 750);

    // park one query inside shard 0's scan so its permit stays held
    router.shard(0).inject_scan_delay(Duration::from_millis(300), 1);
    let parked = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.query(random_vectors(1, 8, 82).pop().unwrap(), 5))
    };
    // wait until the parked query actually holds the permit
    let t0 = Instant::now();
    while router.stats().inflight == 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(router.stats().inflight, 1, "the parked query must hold the only permit");

    let err = router.query(random_vectors(1, 8, 83).pop().unwrap(), 5).unwrap_err();
    match err {
        ServeError::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 750),
        other => panic!("expected Overloaded, got {other}"),
    }
    assert_eq!(router.stats().shed_overload, 1);

    // the parked query itself completes fine and releases the permit
    assert!(parked.join().unwrap().is_ok());
    assert_eq!(router.stats().inflight, 0, "permit released");
    assert!(router.query(random_vectors(1, 8, 84).pop().unwrap(), 5).is_ok());
}

/// Admission control on a one-shard router: the inflight budget bounds
/// concurrently served queries; once they complete, admission re-opens.
#[test]
fn one_shard_router_bounds_inflight_work() {
    let router =
        Arc::new(ShardRouter::try_build(random_vectors(30, 6, 91), flat_config(1)).unwrap());
    router.set_admission(2, 40);
    let q = |seed| random_vectors(1, 6, seed).pop().unwrap();

    // park two queries inside the shard's scan so both permits stay held
    router.shard(0).inject_scan_delay(Duration::from_millis(300), 2);
    let parked: Vec<_> = [92, 93]
        .into_iter()
        .map(|seed| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || router.query(q(seed), 3))
        })
        .collect();
    let t0 = Instant::now();
    while router.stats().inflight < 2 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = router.query(q(94), 3).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { retry_after_ms: 40 }), "{err}");
    assert_eq!(router.stats().shed_overload, 1);

    for handle in parked {
        assert!(handle.join().unwrap().is_ok());
    }
    // budget is free again
    assert!(router.query(q(95), 3).is_ok());
}

/// A request whose deadline expired upstream is refused by a one-shard
/// router — typed `DeadlineExceeded` — without ever touching the cache or
/// the index, and counted by `serve.shed.expired`.
#[test]
fn one_shard_router_sheds_queue_expired_requests_without_searching() {
    let router = ShardRouter::try_build(random_vectors(30, 6, 101), flat_config(1)).unwrap();
    let stale_arrival = Instant::now() - Duration::from_millis(50);
    let err = router
        .query_request(
            QueryRequest::new(random_vectors(1, 6, 102).pop().unwrap(), 3)
                .with_deadline(Duration::from_millis(1))
                .with_arrival(stale_arrival),
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");

    let stats = router.stats();
    assert_eq!(stats.shed_expired, 1);
    let shard = &stats.per_shard[0];
    assert_eq!(shard.cache_hits + shard.cache_misses, 0, "shed before the cache lookup");
    assert_eq!(shard.scan.count, 0, "shed before the scan");
}

/// The router refuses an already-expired request outright — typed
/// `DeadlineExceeded`, no shard is scanned.
#[test]
fn router_sheds_queue_expired_requests_without_searching() {
    let router = ShardRouter::try_build(random_vectors(40, 8, 111), flat_config(2)).unwrap();
    let request = QueryRequest::new(random_vectors(1, 8, 112).pop().unwrap(), 5)
        .with_deadline(Duration::from_millis(1))
        .with_arrival(Instant::now() - Duration::from_millis(40));
    let err = router.query_request(request).unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
    let stats = router.stats();
    assert_eq!(stats.shed_expired, 1);
    for s in &stats.per_shard {
        assert_eq!(s.cache_hits + s.cache_misses, 0, "shard {} was touched", s.shard);
    }
}

/// A straggling shard loses to its own hedged retry: with one delayed scan
/// armed, the hedge attempt finds the delay slot already consumed, answers
/// fast, and the merged result stays full fidelity.
#[test]
fn hedge_retry_beats_a_single_straggler() {
    let vectors = random_vectors(60, 8, 121);
    let single = flat_single(vectors.clone());
    let router = ShardRouter::try_build(vectors, flat_config(2)).unwrap();
    router.set_hedge(Some(HedgeConfig {
        soft_timeout: Duration::from_millis(20),
        hedge_wait: Duration::from_millis(2_000),
    }));
    router.shard(0).inject_scan_delay(Duration::from_millis(250), 1);

    let q = random_vectors(1, 8, 122).pop().unwrap();
    let response = router.query(q.clone(), 7).unwrap();
    assert!(!response.degraded, "hedge win keeps full fidelity: {response:?}");
    assert_eq!(response.hits, single.search(&q, 7));
    let stats = router.stats();
    assert!(stats.hedges >= 1, "a hedge must have fired: {stats:?}");
    assert!(stats.hedge_wins >= 1, "and won: {stats:?}");
    assert_eq!(stats.slow_omits, 0);
}

/// When the hedge attempt is *also* slow (two delayed scans armed), the
/// straggler is omitted from the merge and the response is honestly
/// flagged `ShardSlow` — graceful degradation, not a stall.
#[test]
fn persistent_straggler_is_omitted_as_shard_slow() {
    let router = ShardRouter::try_build(random_vectors(60, 8, 131), flat_config(2)).unwrap();
    router.set_hedge(Some(HedgeConfig {
        soft_timeout: Duration::from_millis(15),
        hedge_wait: Duration::from_millis(15),
    }));
    router.shard(0).inject_scan_delay(Duration::from_millis(400), 2);

    let q = random_vectors(1, 8, 132).pop().unwrap();
    let response = router.query(q.clone(), 7).unwrap();
    assert!(response.degraded);
    assert_eq!(response.reason, Some(DegradeReason::ShardSlow));
    assert!(
        response.hits.iter().all(|h| h.id % 2 == 1),
        "every hit must come from the healthy shard: {response:?}"
    );
    let stats = router.stats();
    assert!(stats.slow_omits >= 1, "{stats:?}");
    // the router itself never went degraded-by-death
    assert_eq!(stats.shards_down, 0);
}

/// Satellite regression: `recover_shard` on a *healthy* shard is a cheap
/// idempotent no-op — no journal double-replay, no cache wipe.
#[test]
fn recover_shard_is_idempotent_on_a_healthy_shard() {
    let dir = TempDir::new("idem");
    let router = ShardRouter::try_build(random_vectors(60, 8, 141), flat_config(3)).unwrap();
    router.attach_stores(&dir.0.join("fam.snap")).unwrap();
    router.persist_all().unwrap();

    // journal one ingest and warm shard 1's cache
    router.ingest_vector(random_vectors(1, 8, 142).pop().unwrap()).unwrap();
    let q = random_vectors(1, 8, 143).pop().unwrap();
    router.query(q.clone(), 5).unwrap();
    let warm = router.stats().per_shard[1].clone();
    assert_eq!(warm.cache_len, 1);

    let stats = router.recover_shard(1).unwrap();
    assert_eq!(stats.replayed, 0, "no journal replay on a healthy shard");
    assert_eq!(stats.skipped, 0);
    assert_eq!(stats.recovered_len, router.shard(1).len());

    // the warm cache survived: the same query hits it
    router.query(q, 5).unwrap();
    let after = router.stats().per_shard[1].clone();
    assert_eq!(after.cache_len, warm.cache_len, "cache wiped by a no-op recover");
    assert_eq!(after.cache_hits, warm.cache_hits + 1, "replay should hit the warm cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The hedging invariant: when no shard straggles (no injected delay,
    /// generous soft timeout), the hedged scatter-gather merge is
    /// bit-identical to the plain rayon fan-out — hedging changes *when*
    /// the router stops waiting, never *what* a shard answers.
    #[test]
    fn hedged_merge_equals_plain_merge_when_no_hedge_fires(
        n in 24usize..200,
        dim in 4usize..12,
        k in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let vectors = random_vectors(n, dim, seed);
        let plain = ShardRouter::try_build(vectors.clone(), flat_config(4.min(n))).unwrap();
        let hedged = ShardRouter::try_build(vectors, flat_config(4.min(n))).unwrap();
        hedged.set_hedge(Some(HedgeConfig {
            soft_timeout: Duration::from_secs(30),
            hedge_wait: Duration::from_secs(30),
        }));
        for q in random_vectors(3, dim, seed ^ 0x9ed9) {
            let a = plain.query(q.clone(), k).unwrap();
            let b = hedged.query(q, k).unwrap();
            prop_assert_eq!(&a.hits, &b.hits);
            prop_assert_eq!(a.degraded, b.degraded);
            for (x, y) in a.hits.iter().zip(&b.hits) {
                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        // no hedge may fire under a generous timeout
        prop_assert_eq!(hedged.stats().hedges, 0);
    }
}
