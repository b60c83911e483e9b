//! Observability round trip through the serve stack: queries, injected
//! deadline faults and store persistence must all land in the router's
//! shared metrics registry, and the snapshot must export through both the
//! JSON and Prometheus formats with per-stage latency histograms intact.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_obs::Registry;
use sem_serve::{
    AnnIndex, DegradeReason, IndexConfig, IndexStore, QueryRequest, ShardConfig, ShardRouter,
};

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

fn one_shard() -> ShardConfig {
    ShardConfig { shards: 1, ..Default::default() }
}

fn router(n: usize, seed: u64, registry: Arc<Registry>) -> ShardRouter {
    ShardRouter::try_build_with_metrics(random_vectors(n, 8, seed), one_shard(), registry).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sem-obs-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The satellite round trip: a healthy query populates the stage
/// histograms and cache counters; an injected zero deadline drives the
/// degraded-mode counters up by exactly the faulted queries.
#[test]
fn deadline_fault_increments_degraded_counters() {
    let registry = Arc::new(Registry::new());
    let r = router(2000, 41, registry.clone());
    let q = random_vectors(2, 8, 42);

    // healthy query, then a repeat that must hit the cache
    let ok = r.query(q[0].clone(), 5).unwrap();
    assert!(!ok.degraded);
    r.query(q[0].clone(), 5).unwrap();

    // injected fault: a budget that is gone before the scan starts (a
    // zero budget would be shed at the door, never scanned)
    for _ in 0..3 {
        let degraded = r
            .query_request(
                QueryRequest::new(q[1].clone(), 10).with_deadline(Duration::from_nanos(1)),
            )
            .unwrap();
        assert!(degraded.degraded);
        assert_eq!(degraded.reason, Some(DegradeReason::Deadline));
    }

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.router.queries"), Some(5));
    assert_eq!(snap.counter("serve.shard0.cache.hits"), Some(1));
    assert_eq!(snap.counter("serve.router.degraded"), Some(3));
    assert_eq!(snap.counter("serve.router.shards_down_serves"), Some(0));
    let scan = snap.histogram("serve.shard0.scan.ns").unwrap();
    assert!(scan.count >= 1, "scan stage histogram must be populated");
    assert!(scan.p99 >= scan.p50);

    // both exporters carry the per-stage latency histogram
    let json = snap.to_json();
    assert!(json.contains("\"serve.shard0.scan.ns\""), "{json}");
    assert!(json.contains("\"p99\""), "{json}");
    let prom = snap.to_prometheus();
    assert!(prom.contains("serve_router_degraded 3"), "{prom}");
    assert!(prom.contains("serve_shard0_scan_ns{quantile=\"0.99\"}"), "{prom}");
}

/// Store operations of a plain snapshot served by the router report
/// through the same registry: journal appends, fsync latency, and
/// compaction into a fresh snapshot.
#[test]
fn store_persistence_reports_through_router_registry() {
    let dir = scratch("store");
    let path = dir.join("index.snap");
    IndexStore::open(&path)
        .save_snapshot(&AnnIndex::build(random_vectors(40, 8, 43), IndexConfig::default()))
        .unwrap();

    let registry = Arc::new(Registry::new());
    let (r, _recoveries) =
        ShardRouter::open_with_metrics(&path, one_shard(), registry.clone()).unwrap();
    for v in random_vectors(3, 8, 44) {
        assert!(r.ingest_vector(v).unwrap().durable);
    }
    r.persist_all().unwrap();

    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.journal.appends"), Some(3));
    assert_eq!(snap.counter("serve.router.ingested"), Some(3));
    assert!(snap.counter("store.snapshot.saves").unwrap() >= 1);
    assert!(snap.counter("store.journal.compactions").unwrap() >= 1);
    let fsync = snap.histogram("store.journal.fsync.ns").unwrap();
    assert!(fsync.count >= 3, "every durable append fsyncs: {fsync:?}");
    let save = snap.histogram("store.snapshot.save.ns").unwrap();
    assert!(save.count >= 1 && save.max > 0);

    std::fs::remove_dir_all(&dir).ok();
}
