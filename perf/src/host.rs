//! The host a result was measured on, and this process's memory peak.

use std::process::Command;

use crate::json::{obj, Value};

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

/// `VmHWM` of this process in KiB: the most memory it has held resident.
pub fn peak_rss_kb() -> u64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A run started on a busy host is not comparable with a quiet one.
pub fn is_noisy(loadavg_start: f64, nproc: usize) -> bool {
    loadavg_start > 0.5 * nproc as f64
}

/// Everything needed to tell whether two result files are comparable.
pub fn fingerprint(loadavg_start: f64, kernel_flags: (bool, bool)) -> Value {
    let nproc = nproc();
    obj(vec![
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("nproc", nproc.into()),
        ("loadavg_start", loadavg_start.into()),
        ("loadavg_end", loadavg().into()),
        ("noisy", is_noisy(loadavg_start, nproc).into()),
        ("fma_kernel_active", kernel_flags.0.into()),
        ("simd_kernels_active", kernel_flags.1.into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_means_load_over_half_the_cores() {
        assert!(!is_noisy(1.0, 2));
        assert!(is_noisy(1.01, 2));
        assert!(!is_noisy(0.4, 1));
    }

    #[test]
    fn this_process_has_a_memory_peak() {
        assert!(peak_rss_kb() > 0);
        assert!(nproc() >= 1);
    }
}
