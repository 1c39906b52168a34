//! The environment header every result starts with, and process memory.

use std::process::{Command, Stdio};

/// `nproc`, CPU model, last-level cache, compiler and commit, one line.
pub fn header() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "# env nproc={nproc} cpu=\"{cpu}\" llc=\"{}\" rustc=\"{rustc}\" commit=\"{commit}\"",
        llc().unwrap_or_else(|| "unknown".into())
    )
}

/// Size and level of the largest cache of CPU 0, as sysfs reports it.
pub fn llc() -> Option<String> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |file: &str| std::fs::read_to_string(entry.path().join(file)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue; // not a cache index directory
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map(|(level, size)| format!("L{level} {size}"))
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Time the hypervisor has taken from this machine's CPUs since boot, in
/// clock ticks (the `steal` column of `/proc/stat`). Printed per round, so
/// a slow round can be told apart from a slow program.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}
