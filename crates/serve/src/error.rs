//! Typed errors for the serving subsystem.
//!
//! Every fallible serve-layer operation returns a [`ServeError`] instead of
//! panicking: a corrupt snapshot is *detected* (checksum/shape validation),
//! a width mismatch is *reported*, an exhausted deadline *degrades*, and an
//! injected fault (see [`crate::fault`]) surfaces as
//! [`ServeError::InjectedCrash`] so recovery tests can observe the exact
//! crash point.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong between a request and a served result.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem-level failure, annotated with the path involved.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// A snapshot failed validation (bad magic, version, checksum or
    /// internal shape) and was rejected rather than loaded.
    CorruptSnapshot {
        /// Snapshot file.
        path: PathBuf,
        /// What check failed.
        detail: String,
    },
    /// A vector's width does not match the index.
    DimensionMismatch {
        /// Width the index holds.
        expected: usize,
        /// Width that was offered.
        got: usize,
    },
    /// A request's deadline expired before any work could be done.
    DeadlineExceeded,
    /// The write-ahead journal could not be replayed onto the snapshot.
    JournalReplay {
        /// Zero-based record number that failed.
        record: usize,
        /// What went wrong.
        detail: String,
    },
    /// An operation needs vectors but none exist.
    EmptyIndex,
    /// A structurally invalid configuration or payload.
    Invalid(String),
    /// A shard of a [`crate::ShardRouter`] is down (crashed store, failed
    /// recovery) and the operation needed exactly that shard.
    ShardDown {
        /// Ordinal of the unavailable shard.
        shard: usize,
        /// Why the shard went down.
        detail: String,
    },
    /// Admission control shed the request: the pending-work budget is
    /// exhausted and queueing it would only grow the backlog. The caller
    /// should back off for roughly `retry_after_ms` and retry.
    Overloaded {
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The streaming-ingest queue is full: ingest is arriving faster than
    /// the maintenance drainer applies it, and accepting more would grow
    /// memory without bound. Distinct from [`ServeError::Overloaded`]
    /// (query admission) so load reports can bound the two paths
    /// independently. The producer should back off for roughly
    /// `retry_after_ms` and retry.
    IngestBackpressure {
        /// Suggested producer backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// A [`crate::fault::FaultPlan`] fired: the simulated machine died at
    /// the named crash point. On-disk state is exactly what a real crash
    /// would leave behind.
    InjectedCrash(&'static str),
    /// A malformed facet-weight spec or rerank parameter set (unknown
    /// facet name, negative weight, λ outside [0, 1], …) — a usage error,
    /// reported before any work is done.
    InvalidFacets {
        /// What was wrong with the spec, including the valid facet names
        /// where relevant.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            ServeError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            ServeError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: index holds {expected}-wide vectors, got {got}")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before any work was done"),
            ServeError::JournalReplay { record, detail } => {
                write!(f, "journal replay failed at record {record}: {detail}")
            }
            ServeError::EmptyIndex => write!(f, "index holds no vectors"),
            ServeError::Invalid(msg) => write!(f, "invalid: {msg}"),
            ServeError::ShardDown { shard, detail } => {
                write!(f, "shard {shard} is down: {detail}")
            }
            ServeError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "overloaded: pending-work budget exhausted, retry after {retry_after_ms}ms"
                )
            }
            ServeError::IngestBackpressure { retry_after_ms } => {
                write!(f, "ingest backpressure: queue full, retry after {retry_after_ms}ms")
            }
            ServeError::InjectedCrash(site) => write!(f, "injected crash at {site}"),
            ServeError::InvalidFacets { detail } => write!(f, "invalid facet spec: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ServeError {
    /// Wraps an IO error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        ServeError::Io { path: path.into(), source }
    }

    /// Shorthand for a snapshot-validation failure.
    pub fn corrupt(path: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        ServeError::CorruptSnapshot { path: path.into(), detail: detail.into() }
    }

    /// `true` when this error came from an injected fault rather than a
    /// genuine failure (tests use this to tell the two apart).
    pub fn is_injected(&self) -> bool {
        matches!(self, ServeError::InjectedCrash(_))
    }

    /// `true` when this is transient I/O worth retrying (classification
    /// shared with the training runtime via [`sem_train::retry`]).
    /// Injected crashes are never retryable — they model a dead machine,
    /// not a hiccup.
    pub fn is_retryable_io(&self) -> bool {
        match self {
            ServeError::Io { source, .. } => sem_train::retry::io_retryable(source.kind()),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = ServeError::corrupt("/x/snap.bin", "payload checksum mismatch");
        assert!(e.to_string().contains("snap.bin"));
        assert!(e.to_string().contains("checksum"));
        let e = ServeError::DimensionMismatch { expected: 8, got: 3 };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('3'));
        assert!(ServeError::InjectedCrash("torn write").is_injected());
        assert!(!ServeError::DeadlineExceeded.is_injected());
        let e = ServeError::Overloaded { retry_after_ms: 250 };
        assert!(e.to_string().contains("250ms"));
        assert!(!e.is_retryable_io());
        let e = ServeError::IngestBackpressure { retry_after_ms: 40 };
        assert!(e.to_string().contains("40ms"));
        assert!(e.to_string().contains("backpressure"));
        assert!(!e.is_retryable_io());
    }

    #[test]
    fn io_errors_carry_their_source() {
        use std::error::Error;
        let e = ServeError::io("/y", std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/y"));
    }
}
