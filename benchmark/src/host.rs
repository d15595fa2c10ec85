//! Host tags printed with every result, and the process's peak memory.
//! A timing without them cannot be compared with anything.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// CPUs the kernel lists, whatever this process may use of them.
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the repo root, if the root is a git work tree.
/// The benchmark also runs from exported trees that are not; asking git
/// there would have it search the directories above the tree.
fn commit() -> Option<String> {
    let root = [".", ".."]
        .into_iter()
        .find(|dir| Path::new(dir).join("BENCHMARK.json").exists())?;
    Path::new(root)
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", root, "rev-parse", "--short", "HEAD"]))
        .flatten()
}

/// `nproc`, `available_parallelism`, compiler and commit (`unknown`
/// outside a git work tree).
pub fn tags() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("available_parallelism", Json::from(available_parallelism())),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("commit", Json::str(commit().unwrap_or_else(unknown))),
    ])
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
