//! Process plumbing: `/proc` readers for the per-process metrics, the
//! re-exec of one workload in a child of its own (so peak RSS, set-up time
//! and a panic belong to that workload alone), and the noise guards.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A workload child that has not exited after this long is killed and
/// counted as failed; the contract allows one run 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, fixed at
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU seconds consumed by this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command: utime and stime are the
    // 12th and 13th of them.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// Involuntary context switches summed over this process's live threads.
pub fn involuntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "nonvoluntary_ctxt_switches"))
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn loadavg_1min() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The report header: everything a reader needs to judge whether two
/// reports are comparable.
pub fn header(seed: u64, threads: usize) -> String {
    format!(
        "host: {} | nproc {} | usable cores {} | avx2 {}\n\
         build: {} | git {}\n\
         run: seed {} | engine threads {}",
        cpu_model(),
        nproc(),
        iawj_exec::affinity_core_count(),
        avx2_detected(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        seed,
        threads
    )
}

/// Refuse to measure on fewer cores than the engines have threads; warn
/// when the host is already busy.
pub fn noise_guards(threads: usize) -> Result<(), String> {
    let usable = iawj_exec::affinity_core_count();
    if usable < threads {
        return Err(format!(
            "{usable} usable core(s): the workloads run {threads} engine threads and need as many"
        ));
    }
    if let Some(load) = loadavg_1min() {
        if load > 1.0 {
            eprintln!("warning: 1-min load average is {load:.2}; timings will be noisy");
        }
    }
    Ok(())
}

/// What one workload child left behind.
pub struct ChildOutput {
    pub stdout: String,
    /// Why the child counts as failed, when it does.
    pub error: Option<String>,
}

/// Re-exec this binary with `args`, wait for it (bounded), and return its
/// standard output. Standard error passes through.
pub fn run_child(args: &[String]) -> ChildOutput {
    let failed = |error: String| ChildOutput {
        stdout: String::new(),
        error: Some(error),
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let mut child = match Command::new(exe).args(args).stdout(Stdio::piped()).spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot start child: {e}")),
    };
    let mut pipe = child.stdout.take().expect("stdout was piped");
    // Drain on a thread so a chatty child never blocks on a full pipe
    // while we poll for its exit.
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = pipe.read_to_string(&mut out);
        out
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("wait failed: {e}")),
        }
    };
    let stdout = reader.join().unwrap_or_default();
    let error = match status {
        Ok(s) => (!s.success()).then(|| format!("exited with {s}")),
        Err(e) => Some(e),
    };
    ChildOutput { stdout, error }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  123456 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(123456));
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "VmPeak"), None);
    }

    #[test]
    fn own_process_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
