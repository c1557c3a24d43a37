//! Host facts recorded with every run, and the disturbance readings the
//! suite uses to mark a run `disturbed`. Everything comes from `/proc`;
//! where a file is missing the reading is 0 / "unknown", never an error.

use std::fs;

/// Cores the process may use (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `/proc/loadavg` line.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg").map_or("unknown".into(), |s| s.trim().to_string())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    parse_cpu_line(&fs::read_to_string("/proc/stat").unwrap_or_default()).unwrap_or((0, 0))
}

fn parse_cpu_line(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of all CPU time between two [`cpu_jiffies`] readings that the
/// hypervisor gave to someone else.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Commit and compiler the entry script exports (`run.sh` asks git and
/// rustc once; the binary itself starts no process for them).
pub fn build_facts() -> (String, String) {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    (var("SEACMA_BENCH_COMMIT"), var("SEACMA_BENCH_RUSTC"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  627464 kB\n"),
            Some(627464)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n";
        assert_eq!(parse_cpu_line(stat), Some((35, 1000)));
        assert_eq!(steal_share((35, 1000), (45, 1200)), 0.05);
        assert_eq!(steal_share((35, 1000), (35, 1000)), 0.0);
    }
}
