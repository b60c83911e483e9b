//! Seeded load schedules: what arrives, and when.
//!
//! A schedule is a pure function of its [`Plan`]: the same plan (seed
//! included) always yields the same operations at the same offsets, so two
//! runs can be shown to have measured the same inputs by their
//! [`Fingerprint`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Facet-weight menu for faceted queries, in `bg / method / result` order.
const FACET_WEIGHTS: [[f32; 3]; 4] =
    [[0.2, 0.7, 0.1], [0.6, 0.2, 0.2], [0.1, 0.3, 0.6], [0.5, 0.5, 0.0]];
/// MMR diversity settings for faceted queries.
const FACET_LAMBDAS: [f32; 2] = [0.0, 0.3];
/// Seed salts: the open-loop queries and arrivals are streams of their
/// own, so no query repeats an indexed vector drawn from the bare seed.
const SALT_OPEN: u64 = 0x09e1_1000;
const SALT_OPEN_ARRIVALS: u64 = 0x1a6e_57c0;

/// Zipf sampler over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Where query vectors come from.
#[derive(Clone, Debug)]
pub enum Queries {
    /// Fresh uniform-random vectors in `[-1, 1)^dim`.
    Uniform {
        /// Vector width.
        dim: usize,
    },
    /// "More like paper p": p drawn Zipf over `0..papers` through a seeded
    /// rank permutation; a fixed share of queries carries facet weights.
    Papers {
        /// Indexed corpus papers.
        papers: usize,
        /// Zipf exponent.
        zipf_s: f64,
        /// Share of queries that carry facet weights + MMR λ.
        facet_share: f64,
    },
}

/// Everything a schedule is a function of.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Length of the open-loop phase.
    pub open_s: f64,
    /// Query arrivals per second (evenly spaced).
    pub query_rate: f64,
    /// Query source.
    pub queries: Queries,
    /// New-paper arrivals per second during the open loop (0 = none).
    pub ingest_rate: f64,
    /// Papers that may arrive as new papers (corpus positions).
    pub ingest_pool: std::ops::Range<usize>,
    /// Acks between maintenance points (0 = no maintenance).
    pub maintain_every: usize,
    /// Shard count (maintenance rotates over shards).
    pub shards: usize,
}

/// Facet weights + MMR λ carried by a faceted query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Facets {
    /// Per-facet weights, layout order.
    pub weights: [f32; 3],
    /// MMR diversity λ.
    pub lambda: f32,
}

/// What a query asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// An explicit vector.
    Vector(Vec<f32>),
    /// "More like" corpus paper `p`.
    Paper(usize),
}

/// One top-10 query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOp {
    /// The query vector's source.
    pub target: Target,
    /// Stage-2 parameters, if faceted.
    pub facets: Option<Facets>,
}

/// One scheduled operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A top-10 query.
    Query(QueryOp),
    /// Corpus paper `paper` arrives as a brand-new paper.
    Ingest {
        /// Corpus position of the arriving paper.
        paper: usize,
    },
    /// Online journal compaction of one shard.
    Compact {
        /// Shard ordinal.
        shard: usize,
    },
    /// Centroid re-clustering of one shard.
    Recluster {
        /// Shard ordinal.
        shard: usize,
    },
}

/// An operation and its arrival offset from the start of the phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Scheduled {
    /// Arrival offset in nanoseconds.
    pub at_ns: u64,
    /// The operation.
    pub op: Op,
}

/// Draws `n` queries from `source`.
pub fn query_stream(source: &Queries, seed: u64, n: usize) -> Vec<QueryOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    match *source {
        Queries::Uniform { dim } => (0..n)
            .map(|_| QueryOp {
                target: Target::Vector(uniform_vector(&mut rng, dim)),
                facets: None,
            })
            .collect(),
        Queries::Papers { papers, zipf_s, facet_share } => {
            let zipf = Zipf::new(papers, zipf_s);
            let by_rank = permutation(&mut rng, papers);
            (0..n)
                .map(|_| {
                    let p = by_rank[zipf.sample(&mut rng)];
                    let facets = (rng.gen_range(0.0..1.0) < facet_share).then(|| Facets {
                        weights: FACET_WEIGHTS[rng.gen_range(0..FACET_WEIGHTS.len())],
                        lambda: FACET_LAMBDAS[rng.gen_range(0..FACET_LAMBDAS.len())],
                    });
                    QueryOp { target: Target::Paper(p), facets }
                })
                .collect()
        }
    }
}

/// The `n` indexed vectors of a uniform workload, drawn from the bare seed.
pub fn uniform_corpus(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| uniform_vector(&mut rng, dim)).collect()
}

/// A uniform-random vector in `[-1, 1)^dim`.
pub fn uniform_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// The open-loop schedule of `plan`: evenly spaced queries, evenly spaced
/// new-paper arrivals (a seeded draw from the ingest pool without
/// repeats), and a maintenance operation right after every
/// `maintain_every`-th arrival, cycling compact → recluster per shard.
pub fn open_loop(plan: &Plan) -> Vec<Scheduled> {
    let n_queries = (plan.open_s * plan.query_rate).round() as usize;
    let queries = query_stream(&plan.queries, plan.seed ^ SALT_OPEN, n_queries);
    let query_gap = 1e9 / plan.query_rate;
    let mut ops: Vec<Scheduled> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| Scheduled { at_ns: (i as f64 * query_gap) as u64, op: Op::Query(q) })
        .collect();
    if plan.ingest_rate > 0.0 {
        let mut rng = StdRng::seed_from_u64(plan.seed ^ SALT_OPEN_ARRIVALS);
        let pool = plan.ingest_pool.clone();
        let n_ingest = ((plan.open_s * plan.ingest_rate).round() as usize).min(pool.len());
        let order = permutation(&mut rng, pool.len());
        let ingest_gap = 1e9 / plan.ingest_rate;
        for (j, &pos) in order[..n_ingest].iter().enumerate() {
            let at_ns = ((j as f64 + 0.5) * ingest_gap) as u64;
            ops.push(Scheduled { at_ns, op: Op::Ingest { paper: pool.start + pos } });
            if plan.maintain_every > 0 && (j + 1) % plan.maintain_every == 0 {
                let m = (j + 1) / plan.maintain_every - 1;
                let shard = (m / 2) % plan.shards;
                let op = if m.is_multiple_of(2) {
                    Op::Compact { shard }
                } else {
                    Op::Recluster { shard }
                };
                ops.push(Scheduled { at_ns, op });
            }
        }
    }
    // stable: at equal offsets queries keep their order ahead of arrivals,
    // and a maintenance point stays right behind the arrival that set it
    ops.sort_by_key(|s| s.at_ns);
    ops
}

/// FNV-1a (64-bit) over everything a run consumed.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds vectors in, bit-exactly.
    pub fn vectors(&mut self, vectors: &[Vec<f32>]) {
        for v in vectors {
            self.u64(v.len() as u64);
            for x in v {
                self.bytes(&x.to_bits().to_le_bytes());
            }
        }
    }

    /// Folds a schedule in.
    pub fn schedule(&mut self, ops: &[Scheduled]) {
        for s in ops {
            self.u64(s.at_ns);
            match &s.op {
                Op::Query(q) => self.query(q),
                Op::Ingest { paper } => {
                    self.u64(1);
                    self.u64(*paper as u64);
                }
                Op::Compact { shard } => {
                    self.u64(2);
                    self.u64(*shard as u64);
                }
                Op::Recluster { shard } => {
                    self.u64(3);
                    self.u64(*shard as u64);
                }
            }
        }
    }

    /// Folds one query in.
    pub fn query(&mut self, q: &QueryOp) {
        match &q.target {
            Target::Vector(v) => self.vectors(std::slice::from_ref(v)),
            Target::Paper(p) => self.u64(*p as u64),
        }
        if let Some(f) = q.facets {
            for w in f.weights {
                self.bytes(&w.to_bits().to_le_bytes());
            }
            self.bytes(&f.lambda.to_bits().to_le_bytes());
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_plan(seed: u64) -> Plan {
        Plan {
            seed,
            open_s: 2.0,
            query_rate: 50.0,
            queries: Queries::Papers { papers: 500, zipf_s: 1.0, facet_share: 0.25 },
            ingest_rate: 10.0,
            ingest_pool: 500..600,
            maintain_every: 4,
            shards: 2,
        }
    }

    fn hash(ops: &[Scheduled]) -> String {
        let mut f = Fingerprint::default();
        f.schedule(ops);
        f.hex()
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = open_loop(&churn_plan(7));
        assert_eq!(a, open_loop(&churn_plan(7)));
        assert_eq!(hash(&a), hash(&open_loop(&churn_plan(7))));
        let b = open_loop(&churn_plan(8));
        assert_ne!(a, b);
        assert_ne!(hash(&a), hash(&b));
        let uniform = Plan { queries: Queries::Uniform { dim: 4 }, ..churn_plan(3) };
        assert_eq!(open_loop(&uniform), open_loop(&uniform));
    }

    #[test]
    fn schedule_shape_follows_the_plan() {
        let ops = open_loop(&churn_plan(11));
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|s| f(&s.op)).count();
        assert_eq!(count(|o| matches!(o, Op::Query(_))), 100);
        assert_eq!(count(|o| matches!(o, Op::Ingest { .. })), 20);
        assert_eq!(count(|o| matches!(o, Op::Compact { .. })), 3);
        assert_eq!(count(|o| matches!(o, Op::Recluster { .. })), 2);
        assert!(ops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // arrivals are distinct pool papers; maintenance follows every 4th
        let mut papers: Vec<usize> = ops
            .iter()
            .filter_map(|s| match s.op {
                Op::Ingest { paper } => Some(paper),
                _ => None,
            })
            .collect();
        papers.sort_unstable();
        papers.dedup();
        assert_eq!(papers.len(), 20);
        assert!(papers.iter().all(|p| (500..600).contains(p)));
        let mut acks = 0;
        for s in &ops {
            match s.op {
                Op::Ingest { .. } => acks += 1,
                Op::Compact { .. } | Op::Recluster { .. } => assert_eq!(acks % 4, 0),
                Op::Query(_) => {}
            }
        }
    }

    #[test]
    fn open_loop_queries_are_fresh_vectors() {
        let dim = 24;
        let plan = Plan { queries: Queries::Uniform { dim }, ingest_rate: 0.0, ..churn_plan(9) };
        let corpus = uniform_corpus(plan.seed, 2000, dim);
        let ops = open_loop(&plan);
        assert_eq!(ops.len(), 100);
        for s in &ops {
            let Op::Query(QueryOp { target: Target::Vector(v), .. }) = &s.op else {
                panic!("a uniform plan without arrivals schedules only vector queries")
            };
            assert!(!corpus.contains(v), "query {s:?} repeats an indexed vector");
        }
    }

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 100];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=100).map(|r| 1.0 / r as f64).sum();
        for r in [0usize, 1, 4, 9, 49] {
            let expected = draws as f64 / ((r + 1) as f64 * h);
            let got = counts[r] as f64;
            assert!(
                (got - expected).abs() < 0.05 * expected + 30.0,
                "rank {r}: {got} vs {expected}"
            );
        }
        // monotone in expectation: the head dominates the tail
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform_and_single_rank_is_constant() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| (9_000..11_000).contains(&c)), "{counts:?}");
        let one = Zipf::new(1, 1.2);
        assert!((0..100).all(|_| one.sample(&mut rng) == 0));
    }

    #[test]
    fn faceted_share_is_respected() {
        let source = Queries::Papers { papers: 50, zipf_s: 1.0, facet_share: 0.25 };
        let qs = query_stream(&source, 5, 4000);
        let faceted = qs.iter().filter(|q| q.facets.is_some()).count();
        assert!((900..1100).contains(&faceted), "{faceted}");
        assert!(qs.iter().all(|q| matches!(q.target, Target::Paper(p) if p < 50)));
    }
}
