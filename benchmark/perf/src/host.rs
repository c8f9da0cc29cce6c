//! Host facts and `/proc` readers.
//!
//! Every result records where it was measured, because the numbers mean
//! nothing without it: a 2-cpu container and a 16-core workstation give
//! different throughput from the same commit.

use crate::json::Json;
use std::path::Path;

/// Kernel clock ticks per second in `/proc/self/stat`. Linux has
/// reported 100 to user space on every architecture for decades; it is
/// recorded with the host facts rather than queried, because querying it
/// needs libc.
pub const CLK_TCK: f64 = 100.0;

/// Process CPU time so far as `(user, system)` seconds, all threads,
/// ended threads included.
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime = fields.nth(11).and_then(|v| v.parse::<f64>().ok());
    let stime = fields.next().and_then(|v| v.parse::<f64>().ok());
    (
        utime.unwrap_or(0.0) / CLK_TCK,
        stime.unwrap_or(0.0) / CLK_TCK,
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restarts the kernel's peak-RSS mark of this process, so that `VmHWM`
/// afterwards is the peak since this call. Where the kernel refuses
/// (the write is not permitted in every sandbox) the mark keeps running
/// from process start and later readings are cumulative maxima.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// File-system type of the mount holding `dir`, from `/proc/mounts`.
pub fn fs_type_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts recorded with every result.
pub fn facts(seed: u64, data_dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel)),
        ("data_dir_fs", Json::str(fs_type_of(data_dir))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("clk_tck_assumed", Json::Num(CLK_TCK)),
        (
            "injected_delay",
            Json::str("none (loopback; latency is processor time plus thread hand-offs)"),
        ),
        (
            "load",
            Json::str("one driver thread, one multi-identity transport, in this process"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so the counters are not both zero forever.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (user, sys) = cpu_times();
        assert!(user >= 0.0 && sys >= 0.0 && user + sys < 1e6);
        assert!(peak_rss_mb() > 0.5, "a running process has resident pages");
        reset_peak_rss();
        assert!(
            peak_rss_mb() > 0.5,
            "the mark restarts at the current size, not at zero"
        );
        assert_ne!(fs_type_of(Path::new("/proc")), "unknown");
        let facts = facts(3, Path::new("."));
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "data_dir_fs",
            "rustc",
            "seed",
        ] {
            assert!(facts.get(key).is_some(), "{key}");
        }
    }
}
