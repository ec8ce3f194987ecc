//! Run metadata and process measurements.
//!
//! Results from machines with different core counts are not comparable,
//! so every result records the core count, the `NEMO_THREADS` setting,
//! the worker counts actually used, the profile, the seed and the commit.

use std::path::Path;
use std::thread;

use crate::Plan;

/// Cores available to this process.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `NEMO_THREADS` setting, or `unset`.
pub fn nemo_threads() -> String {
    std::env::var("NEMO_THREADS").unwrap_or_else(|_| "unset".to_string())
}

/// Run `f` with `NEMO_THREADS=1`, so every parallel kernel runs serially,
/// then restore the previous setting. Call only while no other thread of
/// this process runs.
pub fn with_serial_threads<R>(f: impl FnOnce() -> R) -> R {
    let previous = std::env::var_os("NEMO_THREADS");
    std::env::set_var("NEMO_THREADS", "1");
    let out = f();
    match previous {
        Some(v) => std::env::set_var("NEMO_THREADS", v),
        None => std::env::remove_var("NEMO_THREADS"),
    }
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The machine's CPU time so far, in clock ticks, from `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Time the CPUs ran code: user, nice, system, irq and softirq.
    pub busy: u64,
    /// Time the hypervisor ran other guests while a CPU had work.
    pub stolen: u64,
}

impl CpuTicks {
    /// Read the counters; `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        Self::parse(stat.lines().next()?)
    }

    /// Parse the aggregate `cpu` line of `/proc/stat`.
    pub fn parse(line: &str) -> Option<CpuTicks> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let ticks: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal ...
        let at = |i: usize| ticks.get(i).copied();
        Some(CpuTicks { busy: at(0)? + at(1)? + at(2)? + at(5)? + at(6)?, stolen: at(7)? })
    }
}

/// The share of the CPU time the machine's work wanted between two
/// readings that the hypervisor granted it: busy ÷ (busy + stolen). The
/// benchmark is the only work on the machine, so a serial stretch that
/// lost a third of its wall time to other guests reads 2/3, and so do two
/// parallel workers that each lost a third. 1 where the counters are
/// unavailable or nothing ran.
pub fn granted_share(before: Option<CpuTicks>, after: Option<CpuTicks>) -> f64 {
    let (Some(a), Some(b)) = (before, after) else {
        return 1.0;
    };
    let busy = b.busy.saturating_sub(a.busy) as f64;
    let stolen = b.stolen.saturating_sub(a.stolen) as f64;
    if busy + stolen > 0.0 {
        busy / (busy + stolen)
    } else {
        1.0
    }
}

/// The commit of the checkout the benchmark was built from, read from
/// `.git` beside this package; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            let packed = read(&git.join("packed-refs"))?;
            packed.lines().find(|l| l.ends_with(reference))?.split(' ').next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metadata every result carries.
pub fn run_metadata(plan: &Plan, seed: u64) -> Vec<(String, String)> {
    let workers = if plan.is_pool() { nproc() } else { 1 };
    [
        ("workload", plan.workload.name().to_string()),
        ("seed", seed.to_string()),
        ("profile", plan.profile.name().to_string()),
        ("dataset", plan.workload.dataset().as_str().to_string()),
        ("nproc", nproc().to_string()),
        ("nemo_threads", nemo_threads()),
        ("kernel_threads", nemo_sparse::parallel::num_threads().to_string()),
        ("pool_workers", workers.to_string()),
        ("commit", git_commit()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granted_share_is_busy_over_busy_and_stolen() {
        let a = CpuTicks::parse("cpu  100 5 20 900 3 1 4 10 0 0");
        assert_eq!(a, Some(CpuTicks { busy: 130, stolen: 10 }));
        let b = CpuTicks::parse("cpu  160 5 30 950 3 1 4 40 0 0");
        assert_eq!(granted_share(a, b), 0.7);
        assert_eq!(granted_share(a, a), 1.0);
        assert_eq!(granted_share(None, b), 1.0);
        assert_eq!(CpuTicks::parse("cpu0 1 2 3 4 5 6 7 8"), None);
    }
}
