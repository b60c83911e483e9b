//! Host fingerprint and process memory.

use std::path::Path;

/// Where a record was measured.
#[derive(Clone, Debug)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name (`unknown` when not exposed).
    pub cpu: String,
    /// Commit of the checkout (`unknown` outside a git checkout).
    pub sha: String,
}

impl Host {
    /// Fingerprints this host and the checkout in the working directory.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let sha = git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".into());
        Host { nproc, cpu, sha }
    }
}

/// Resolves `HEAD` by reading the git directory (no `git` process).
fn git_sha(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// A memory figure of this process from `/proc/self/status` (`VmRSS`,
/// `VmHWM`, ...), in MiB.
pub fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.strip_prefix(key).is_some_and(|rest| rest.starts_with(':')))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
