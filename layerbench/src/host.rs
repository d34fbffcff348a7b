//! Host metadata stamped into every record: core count, CPU model,
//! source revision, peak memory and the guest steal time that shows
//! host contention next to the numbers.

use std::path::Path;

use cmp_common::hash::Fnv64;
use cmp_common::journal::Json;

/// Peak resident set (`VmHWM`) of `/proc/<pid>` in MB; `pid` may be
/// `self`. NaN when unreadable, which the metric audit reports.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate guest steal time from `/proc/stat`, in clock ticks.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision when the checkout is a repository, else a digest of
/// the program's sources (`src-<fnv>`), so records from copies of the
/// same tree still match.
fn source_revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "layerbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv64::new();
    for f in files {
        h.write_str(&f.to_string_lossy());
        h.write_bytes(&std::fs::read(&f).unwrap_or_default());
    }
    format!("src-{:016x}", h.finish())
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        for e in std::fs::read_dir(path).into_iter().flatten().flatten() {
            collect(&e.path(), out);
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// The metadata line printed before the result.
pub fn record(steal_before: Option<u64>, wall_s: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    // USER_HZ is 100 on every Linux the benchmark targets.
    let steal = match (steal_before, steal_ticks()) {
        (Some(a), Some(b)) => Json::f64(b.saturating_sub(a) as f64 / 100.0),
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("nproc".into(), Json::u64(nproc)),
        ("cpu_model".into(), Json::str(cpu_model())),
        ("source".into(), Json::str(source_revision())),
        ("steal_s".into(), steal),
        ("wall_s".into(), Json::f64(wall_s)),
    ])
}
