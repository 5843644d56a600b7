//! Where a report came from: host, source revision, inputs.
//!
//! The benchmark may run from a source tree that is not a git checkout,
//! so the revision is read from `.git` when present and a digest of the
//! workspace sources is always recorded beside it.

use std::fs;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a, the hash used for every digest in reports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Host and input fingerprint printed with every report.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Worker threads the host offers.
    pub nproc: usize,
    /// CPU model string (`unknown` when unreadable).
    pub cpu_model: String,
    /// Git revision, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest over the workspace manifests and `.rs` sources.
    pub source_digest: u64,
    /// Workload seed.
    pub seed: u64,
    /// FNV-1a digest of `scenarios/paper.json`.
    pub scenario_hash: u64,
}

impl Provenance {
    /// Collects the fingerprint for a run rooted at `root`.
    pub fn collect(root: &Path, seed: u64, scenario_text: &str) -> Provenance {
        Provenance {
            nproc: nproc(),
            cpu_model: cpu_model(),
            git_rev: git_rev(root).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(root),
            seed,
            scenario_hash: fnv1a(scenario_text.as_bytes()),
        }
    }

    /// One report line.
    pub fn line(&self) -> String {
        format!(
            "provenance: nproc={} cpu=\"{}\" git_rev={} source_digest={:016x} seed={} scenario_hash={:016x}",
            self.nproc,
            self.cpu_model,
            self.git_rev,
            self.source_digest,
            self.seed,
            self.scenario_hash
        )
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Digest of every workspace manifest and Rust source under `crates/`,
/// `src/` and the root, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect_sources(&root.join(top), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut acc = Vec::with_capacity(files.len() * 16);
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            let rel = f.strip_prefix(root).unwrap_or(f);
            acc.extend_from_slice(&fnv1a(rel.to_string_lossy().as_bytes()).to_le_bytes());
            acc.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
        }
    }
    fnv1a(&acc)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// CPU time (user + system) this process and all its threads have used,
/// in seconds. `NaN` when unreadable.
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU time (user + system) the calling thread has used, in seconds.
/// `NaN` when unreadable.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// utime + stime of a proc `stat` file, in clock ticks of 1/100 s (the
/// fixed `USER_HZ` of the proc interface).
fn stat_cpu_seconds(path: &str) -> f64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself hold spaces; utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 2..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn cpu_seconds_grow_with_work() {
        let (process, thread) = (cpu_seconds(), thread_cpu_seconds());
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 150 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (process, thread) = (cpu_seconds() - process, thread_cpu_seconds() - thread);
        assert!((0.05..0.5).contains(&thread), "{thread}");
        // One tick of slack: the two counters are read at different times.
        assert!(
            process + 0.011 >= thread && process < 10.0,
            "{process} vs {thread}"
        );
    }
}
