//! The paper fixture: a seeded `sem-corpus` corpus with its fitted text
//! pipeline and trained SEM model.
//!
//! Training is offline work that belongs to no metric, so it runs once per
//! build of the benchmark, in a child process (its memory must not reach
//! the measured process's peak RSS), and is cached under the work
//! directory keyed by a hash of the benchmark executable. The child also
//! stores a fingerprint of the corpus embeddings it saw, and every run
//! checks its own embeddings against it.

use std::path::{Path, PathBuf};
use std::process::Command;

use sem_core::{PipelineConfig, SemConfig, SemModel, TextPipeline};
use sem_corpus::{presets, Corpus};
use sem_rules::RuleScorer;
use sem_serve::PaperEmbedder;

use crate::schedule::Fingerprint;

/// ACM-like preset scale: 3000 papers per unit.
pub const CORPUS_SCALE: usize = 7;
/// Papers from this year on arrive as new papers; earlier ones are indexed.
pub const SPLIT_YEAR: u16 = 2018;

/// Corpus + fitted pipeline + trained SEM model.
pub struct Papers {
    /// The generated corpus (sorted by year).
    pub corpus: Corpus,
    /// Fitted text pipeline.
    pub pipeline: TextPipeline,
    /// Trained SEM model.
    pub sem: SemModel,
    /// First corpus position at or after [`SPLIT_YEAR`].
    pub split: usize,
    /// Fingerprint of `embed_corpus` output at training time.
    pub trained_embeddings: String,
}

impl Papers {
    /// The embedder the serving stack is fed by.
    pub fn embedder(&self) -> PaperEmbedder<'_> {
        PaperEmbedder::new(&self.pipeline, &self.sem)
    }
}

fn corpus() -> Corpus {
    Corpus::generate(presets::acm_like(CORPUS_SCALE))
}

/// Fingerprint of a set of embeddings.
pub fn embeddings_hash(vectors: &[Vec<f32>]) -> String {
    let mut f = Fingerprint::default();
    f.vectors(vectors);
    f.hex()
}

/// Trains the fixture and writes it to `dir` (atomically, via a sibling
/// temporary directory). Runs in the child process.
pub fn build_into(dir: &Path) -> Result<(), String> {
    let corpus = corpus();
    let pipeline = TextPipeline::fit(&corpus, PipelineConfig::default());
    let labels = pipeline.label_corpus(&corpus);
    let scorer =
        RuleScorer::new(&corpus, &pipeline.vocab, &pipeline.embeddings, &pipeline.encoder, &labels);
    let mut sem = SemModel::new(SemConfig::default());
    sem.train(&pipeline, &corpus, &scorer, &labels);
    let vectors = PaperEmbedder::new(&pipeline, &sem).embed_corpus(&corpus);
    let tmp = dir.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let write = |name: &str, body: &str| {
        std::fs::write(tmp.join(name), body).map_err(|e| format!("writing fixture {name}: {e}"))
    };
    write("pipeline.json", &pipeline.to_json())?;
    write("sem.json", &sem.weights_to_json())?;
    write("embeddings.hash", &embeddings_hash(&vectors))?;
    std::fs::rename(&tmp, dir).map_err(|e| format!("publishing fixture: {e}"))
}

/// Loads the fixture from `dir`, training it first (in a child process)
/// when this build has not yet done so.
pub fn load_or_build(work: &Path) -> Result<Papers, String> {
    let dir = cache_dir(work)?;
    if !dir.join("embeddings.hash").exists() {
        let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
        eprintln!("servebench: training the paper fixture (once per build) ...");
        let status = Command::new(exe)
            .arg("--build-fixture")
            .arg(&dir)
            .status()
            .map_err(|e| format!("starting fixture build: {e}"))?;
        if !status.success() {
            return Err(format!("fixture build failed: {status}"));
        }
    }
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("reading fixture {name}: {e}"))
    };
    let pipeline = TextPipeline::from_json(&read("pipeline.json")?)?;
    let sem = SemModel::from_json(SemConfig::default(), &read("sem.json")?)?;
    let corpus = corpus();
    let split = corpus.papers.partition_point(|p| p.year < SPLIT_YEAR);
    Ok(Papers { corpus, pipeline, sem, split, trained_embeddings: read("embeddings.hash")? })
}

/// `<work>/fixture-<hash of the running executable>`.
fn cache_dir(work: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut f = Fingerprint::default();
    f.bytes(&bytes);
    f.u64(CORPUS_SCALE as u64);
    Ok(work.join(format!("fixture-{}", f.hex())))
}
