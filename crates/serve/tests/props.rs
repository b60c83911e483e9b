//! Property tests for the ANN index: recall against the exact scan, the
//! insert-then-find guarantee, and the faceted-retrieval exactness
//! invariants — fused-view scans over a faceted layout are bit-identical
//! to the flat scan at every shard count, and a uniform-weight λ=0 rerank
//! never reorders its candidate pool.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sem_serve::{AnnIndex, FacetLayout, Hit, IndexConfig, RerankParams, ShardConfig, ShardRouter};

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// recall@10 of the IVF search stays at 0.9+ of the exact scan on
    /// uniformly random corpora (the least clusterable input).
    #[test]
    fn ann_recall_at_10_beats_point_nine(
        n in 400usize..1400,
        dim in 6usize..24,
        seed in 0u64..1_000,
    ) {
        let idx = AnnIndex::build(random_vectors(n, dim, seed), IndexConfig::default());
        let queries = random_vectors(25, dim, seed ^ xq_u64_marker());
        let mut overlap = 0usize;
        for q in &queries {
            let ann: Vec<usize> = idx.search(q, 10).iter().map(|h| h.id).collect();
            let exact: Vec<usize> = idx.search_exact(q, 10).iter().map(|h| h.id).collect();
            overlap += exact.iter().filter(|id| ann.contains(id)).count();
        }
        let recall = overlap as f64 / (10 * queries.len()) as f64;
        prop_assert!(recall >= 0.9, "recall@10 {} on n={} dim={}", recall, n, dim);
    }

    /// A freshly ingested paper is always retrievable: querying with its
    /// own vector returns it (top-ranked — nothing scores above the
    /// self-match), in flat and IVF mode alike.
    #[test]
    fn insert_then_query_finds_the_paper(
        n in 50usize..900,
        dim in 4usize..20,
        seed in 0u64..1_000,
    ) {
        let router = ShardRouter::try_build(
            random_vectors(n, dim, seed),
            ShardConfig { shards: 1, ..Default::default() },
        ).unwrap();
        let fresh = random_vectors(1, dim, seed ^ 0xbeef).pop().unwrap();
        let id = router.ingest_vector(fresh.clone()).unwrap().id;
        let response = router.query(fresh, 10).unwrap();
        // self-query must rank the ingested paper first
        prop_assert!(!response.degraded);
        prop_assert_eq!(response.hits[0].id, id);
    }
    /// The fused-view scan over a faceted layout is bit-identical to the
    /// old flat scan at every shard count — attaching facet metadata (and
    /// requesting the default uniform weights) must never change a single
    /// bit of the stage-1 ranking.
    #[test]
    fn faceted_fused_view_is_bit_identical_across_shard_counts(
        n in 60usize..240,
        d1 in 1usize..8,
        d2 in 1usize..8,
        d3 in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let dim = d1 + d2 + d3;
        let vectors = random_vectors(n, dim, seed);
        let flat_cfg = IndexConfig { flat_threshold: usize::MAX, ..Default::default() };
        let single = AnnIndex::build(vectors.clone(), flat_cfg);
        let layout = FacetLayout::new(
            vec!["bg".into(), "method".into(), "result".into()],
            vec![d1, d2, d3],
        ).unwrap();
        let queries = random_vectors(4, dim, seed ^ xq_u64_marker());
        for shards in [1usize, 2, 4, 8] {
            let router = ShardRouter::try_build(
                vectors.clone(),
                ShardConfig { shards, index: flat_cfg, cache_capacity: 16 },
            ).unwrap();
            router.set_layout(layout.clone()).unwrap();
            for q in &queries {
                let expected = single.search(q, 10);
                let plain = router.query(q.clone(), 10).unwrap();
                prop_assert_eq!(&plain.hits, &expected);
                // uniform weights + λ=0 canonicalise to the plain path
                let req = sem_serve::QueryRequest::new(q.clone(), 10)
                    .with_rerank(RerankParams::uniform(3));
                let faceted = router.query_request(req).unwrap();
                prop_assert_eq!(&faceted.hits, &expected);
            }
        }
    }

    /// Rerank with uniform weights and λ=0 is a no-op on its candidate
    /// pool: same order, same scores, bit for bit.
    #[test]
    fn uniform_rerank_is_a_no_op_on_candidate_order(
        n in 5usize..60,
        d1 in 1usize..6,
        d2 in 1usize..6,
        d3 in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let dim = d1 + d2 + d3;
        let layout = FacetLayout::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![d1, d2, d3],
        ).unwrap();
        let normalize = |v: &[f32]| -> Vec<f32> {
            let s: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter().map(|x| x / s).collect()
        };
        let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let pool: Vec<Vec<f32>> =
            random_vectors(n, dim, seed).iter().map(|v| normalize(v)).collect();
        let q = normalize(&random_vectors(1, dim, seed ^ 0x51de).pop().unwrap());
        // stage-1 order: score desc, id asc
        let mut hits: Vec<Hit> =
            pool.iter().enumerate().map(|(id, v)| Hit { id, score: dot(v, &q) }).collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        let cands: Vec<(Hit, &[f32])> =
            hits.iter().map(|h| (*h, pool[h.id].as_slice())).collect();
        let out = sem_serve::rerank::rerank(&q, &layout, &RerankParams::uniform(3), &cands, n);
        prop_assert_eq!(out, hits);
    }
}

// a seed-mixing constant kept out of the strategy expressions
fn xq_u64_marker() -> u64 {
    0x9e37
}
