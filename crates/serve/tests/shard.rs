//! Sharded scatter-gather correctness: the equivalence property (N-shard
//! results bit-identical to a single flat scan), cache-invalidation
//! granularity, and shard fault injection with targeted recovery.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::fault::flip_bit;
use sem_serve::{
    verify_sharded, AnnIndex, DegradeReason, IndexConfig, ServeError, ShardConfig, ShardRouter,
};

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

/// Exact (flat) per-shard scans: equivalence must hold bit for bit, so the
/// probabilistic IVF pruning is disabled on both sides of the comparison.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ISSUE's acceptance property: for N ∈ {1, 2, 4, 8}, sharded
    /// scatter-gather top-k returns exactly the single-index flat scan's
    /// results — same ids, same scores (bitwise), same tie-break order.
    #[test]
    fn sharded_topk_equals_single_index_scan(
        n in 24usize..400,
        dim in 4usize..20,
        k in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let vectors = random_vectors(n, dim, seed);
        let single = flat_single(vectors.clone());
        let queries = random_vectors(4, dim, seed ^ xq_u64_marker());
        for shards in [1usize, 2, 4, 8] {
            if n < shards {
                continue;
            }
            let router = ShardRouter::try_build(vectors.clone(), flat_config(shards)).unwrap();
            for q in &queries {
                let response = router.query(q.clone(), k).unwrap();
                prop_assert!(!response.degraded);
                let expected = single.search(q, k);
                // ids AND scores, bit for bit — not approximate equality
                prop_assert_eq!(&response.hits, &expected);
                for (a, b) in response.hits.iter().zip(&expected) {
                    prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    /// Equivalence survives interleaved ingestion: after routing extra
    /// papers through the scatter-gather path, results still match a
    /// single index that inserted the same vectors in the same order.
    #[test]
    fn sharded_topk_equals_single_index_after_ingest(
        n in 16usize..200,
        dim in 4usize..16,
        extra in 1usize..32,
        seed in 0u64..1_000,
    ) {
        let vectors = random_vectors(n, dim, seed);
        let mut single = flat_single(vectors.clone());
        let router = ShardRouter::try_build(vectors, flat_config(4.min(n))).unwrap();
        for v in random_vectors(extra, dim, seed ^ 0xfeed) {
            let ack = router.ingest_vector(v.clone()).unwrap();
            prop_assert_eq!(ack.id, single.insert(v));
        }
        let q = random_vectors(1, dim, seed ^ xq_u64_marker()).pop().unwrap();
        let response = router.query(q.clone(), 10).unwrap();
        prop_assert_eq!(&response.hits, &single.search(&q, 10));
    }
}

// a seed-mixing constant kept out of the strategy expressions
fn xq_u64_marker() -> u64 {
    0x51ed
}

/// The cache-granularity regression the ISSUE names: an ingest routed to
/// shard i must leave the other shards' hot cache entries intact, so the
/// aggregate hit rate survives cross-shard ingestion.
#[test]
fn cross_shard_ingest_preserves_other_shards_hit_rate() {
    let vectors = random_vectors(80, 8, 21);
    let router = ShardRouter::try_build(vectors, flat_config(4)).unwrap();
    // warm every shard's cache with the same query set
    let queries = random_vectors(6, 8, 22);
    for q in &queries {
        router.query(q.clone(), 5).unwrap();
    }
    let warm = router.stats();
    assert_eq!(warm.per_shard.iter().map(|s| s.cache_len).sum::<u64>(), 24, "6 entries × 4 shards");

    // len=80, 4 shards → next global id is 80, owned by shard 0; an
    // orthogonal-ish vector keeps invalidation minimal but the guarantee
    // under test is structural: shards 1–3 are untouched *whatever* the
    // vector is, because the write routes to shard 0 alone.
    let ack = router.ingest_vector(random_vectors(1, 8, 23).pop().unwrap()).unwrap();
    assert_eq!(ack.id % 4, 0, "routed to shard 0");
    let after = router.stats();
    for s in &after.per_shard[1..] {
        assert_eq!(s.invalidated, 0, "shard {} lost entries to a foreign ingest", s.shard);
        assert_eq!(s.cache_len, 6, "shard {} cache shrank", s.shard);
    }

    // replaying the same queries hits shards 1–3's caches every time
    for q in &queries {
        router.query(q.clone(), 5).unwrap();
    }
    let replay = router.stats();
    for s in &replay.per_shard[1..] {
        assert_eq!(s.cache_hits, 6, "shard {} should have served all replays from cache", s.shard);
    }
    // and correctness is untouched: the merged result set is well-formed
    let q = queries[0].clone();
    let r = router.query(q, 5).unwrap();
    assert_eq!(r.hits.len(), 5);
    assert!(!r.degraded);
}

/// Fault injection per the ISSUE: corrupt one shard's journal mid-ingest,
/// assert the router serves the remaining shards with `degraded` +
/// [`DegradeReason::ShardsDown`], and heal exactly that shard with
/// `recover_from_store`.
#[test]
fn shard_journal_corruption_degrades_then_heals_only_that_shard() {
    let dir = std::env::temp_dir().join(format!("sem-shard-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("family.snap");
    let vectors = random_vectors(60, 8, 31);
    let router = ShardRouter::try_build(vectors, flat_config(3)).unwrap();
    router.attach_stores(&base).unwrap();
    router.persist_all().unwrap();
    // warm every shard's cache with the query asked while the victim is
    // down: a dead shard must not answer from its cache either
    let q = random_vectors(1, 8, 40).pop().unwrap();
    assert!(!router.query(q.clone(), 8).unwrap().degraded);

    // ingest until the victim shard (owner of the next id) journals, then
    // wreck that shard's journal backing file and ingest into it again
    let victim_ack = router.ingest_vector(random_vectors(1, 8, 32).pop().unwrap()).unwrap();
    let victim = victim_ack.id % 3;
    assert_eq!(victim, 0, "len 60 → next id 60 → shard 0");
    let journal = format!("{}.shard{victim}.journal", base.display());
    // simulate the disk dying under the journal: replace it with a
    // directory so every append errors
    std::fs::remove_file(&journal).unwrap();
    std::fs::create_dir(&journal).unwrap();

    // shard 0 owns id 61? 61 % 3 == 1 — keep ingesting until the routing
    // picks shard 0 again, which errors and takes it down, unacked
    let mut down_err = None;
    for s in 0..3u64 {
        match router.ingest_vector(random_vectors(1, 8, 33 + s).pop().unwrap()) {
            Ok(_) => {}
            Err(e) => {
                down_err = Some(e);
                break;
            }
        }
    }
    let down_err = down_err.expect("the ingest routed at the wrecked journal must fail");
    assert!(
        matches!(down_err, ServeError::Io { .. }),
        "journal failure surfaces as the underlying IO error: {down_err}"
    );
    assert!(router.shard(victim).is_down());
    assert!(router.shard(victim).down_reason().unwrap().contains("journal append failed"));

    // scatter-gather keeps serving: remaining shards answer, honestly
    // flagged degraded with the shards-down reason
    let response = router.query(q.clone(), 8).unwrap();
    assert!(response.degraded);
    assert_eq!(response.reason, Some(DegradeReason::ShardsDown));
    assert!(!response.hits.is_empty(), "two healthy shards still answer");
    assert!(
        response.hits.iter().all(|h| h.id % 3 != victim),
        "no hit can come from the dead shard"
    );
    let stats = router.stats();
    assert_eq!(stats.shards_down, 1);
    assert!(stats.shards_down_serves >= 1);

    // ingestion keeps flowing to the healthy shards meanwhile
    let ack = router.ingest_vector(random_vectors(1, 8, 41).pop().unwrap()).unwrap();
    assert_ne!(ack.id % 3, victim);

    // heal: put the journal back, recover exactly the victim shard
    std::fs::remove_dir(&journal).unwrap();
    let recovered = router.recover_shard(victim).unwrap();
    // the snapshot held the original partition; the acknowledged ingest
    // before the corruption replays from... the journal we deleted, so
    // only the snapshot length is guaranteed
    assert!(recovered.recovered_len >= 20, "shard 0 held ⌈60/3⌉ = 20 papers at snapshot");
    assert!(!router.shard(victim).is_down());
    let healed = router.query(q, 8).unwrap();
    assert!(!healed.degraded, "all shards back → full-fidelity serving");
    assert_eq!(router.stats().shards_down, 0);

    // the other shards never went down across the whole episode
    let final_stats = router.stats();
    for s in final_stats.per_shard.iter().filter(|s| s.shard != victim) {
        assert!(!s.down);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit-flip corruption in a shard snapshot: `verify_sharded` pins the
/// failure to exactly that shard, and the healthy shards still verify.
#[test]
fn verify_sharded_isolates_a_corrupt_shard() {
    let dir = std::env::temp_dir().join(format!("sem-shard-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("family.snap");
    let router = ShardRouter::try_build(random_vectors(45, 6, 51), flat_config(3)).unwrap();
    router.attach_stores(&base).unwrap();
    router.persist_all().unwrap();

    let clean = verify_sharded(&base).unwrap();
    assert!(clean.ok);
    assert_eq!(clean.per_shard.len(), 3);

    // flip one payload bit in shard 1's snapshot
    let victim = format!("{}.shard1", base.display());
    flip_bit(std::path::Path::new(&victim), 60, 3).unwrap();
    let report = verify_sharded(&base).unwrap();
    assert!(!report.ok);
    assert!(!report.per_shard[1].ok, "the corrupt shard is named");
    assert!(report.per_shard[0].ok && report.per_shard[2].ok, "healthy shards stay clean");
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent open-loop traffic against the router stays correct: many
/// threads querying and ingesting at once never see a malformed merge.
#[test]
fn concurrent_queries_and_ingests_stay_well_formed() {
    let router = ShardRouter::try_build(random_vectors(120, 8, 61), flat_config(4)).unwrap();
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let router = &router;
            let errors = &errors;
            scope.spawn(move || {
                for i in 0..50u64 {
                    if i % 10 == 0 {
                        if router
                            .ingest_vector(random_vectors(1, 8, 62 + t * 100 + i).pop().unwrap())
                            .is_err()
                        {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        let q = random_vectors(1, 8, 63 + t * 100 + i).pop().unwrap();
                        match router.query(q, 7) {
                            Ok(r) => {
                                // merged list is sorted by (score desc, id asc)
                                let sorted = r.hits.windows(2).all(|w| {
                                    w[0].score > w[1].score
                                        || (w[0].score == w[1].score && w[0].id < w[1].id)
                                });
                                if !sorted || r.hits.len() != 7 || r.degraded {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    assert_eq!(router.len(), 120 + 4 * 5);
}
