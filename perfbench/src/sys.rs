//! Process and host facts: peak memory, CPU time, and the metadata each
//! result records.

use std::fs;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU seconds this process has used so far, over all
/// of its threads (including finished worker threads).
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; Linux fixes
    // USER_HZ at 100 on every architecture it reports through /proc.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// Host and build facts recorded with every result.
pub struct HostInfo {
    pub nproc: usize,
    pub threads: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl HostInfo {
    pub fn collect() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: ps_topology::parallel::configured_threads(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (the benchmark may run in a plain source tree).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}
