//! A tiny self-contained wall-clock benchmark harness: the one timer
//! behind every row the `bench_*` binaries write through
//! [`crate::report::Report`].
//!
//! The workspace builds with no external crates (the registry is
//! unreachable in the environments it targets), so this module provides
//! the small subset of criterion we need: warm-up, batch-size calibration
//! to a target batch duration, a fixed number of measured batches, and
//! median/mean/min per-iteration times.
//!
//! Timings are written to **stderr** by [`print_samples`] so benchmark
//! binaries can keep stdout byte-stable for any machine-readable output.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark: per-iteration statistics over all batches.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label.
    pub name: String,
    /// Iterations per measured batch (after calibration).
    pub batch_iters: u32,
    /// Number of measured batches.
    pub batches: u32,
    /// Median per-iteration time across batches, in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time across batches, in nanoseconds.
    pub mean_ns: f64,
    /// Fastest batch's per-iteration time, in nanoseconds.
    pub min_ns: f64,
}

fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Target duration of one measured batch. `BA_BENCH_BATCH_MS` overrides
/// the default (20 ms); smaller values make the whole suite faster and
/// noisier.
fn batch_target() -> Duration {
    let ms = std::env::var("BA_BENCH_BATCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(20);
    Duration::from_millis(ms.max(1))
}

const MEASURED_BATCHES: u32 = 7;

/// Times `f`, returning per-iteration statistics.
///
/// The closure's return value is passed through [`black_box`] so the work
/// cannot be optimized away. Calibration doubles the batch size until one
/// batch reaches the target duration, then `MEASURED_BATCHES` batches are
/// measured.
pub fn bench<R, F: FnMut() -> R>(name: impl Into<String>, mut f: F) -> Sample {
    // Warm-up and calibration in one: grow the batch until it is slow
    // enough to time reliably.
    let target = batch_target();
    let mut iters: u32 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let took = start.elapsed();
        if took >= target || iters >= 1 << 20 {
            break;
        }
        // Jump close to the target when we already have a signal.
        iters = if took.as_nanos() == 0 {
            iters * 8
        } else {
            let scale = target.as_nanos() as f64 / took.as_nanos() as f64;
            ((iters as f64 * scale * 1.2) as u32).clamp(iters + 1, iters.saturating_mul(8))
        };
    }

    let mut per_iter: Vec<f64> = (0..MEASURED_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    Sample {
        name: name.into(),
        batch_iters: iters,
        batches: MEASURED_BATCHES,
        median_ns: median,
        mean_ns: mean,
        min_ns: per_iter[0],
    }
}

/// Prints samples as an aligned table on **stderr**.
pub fn print_samples(title: &str, samples: &[Sample]) {
    let width = samples
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    eprintln!("\n== {title} ==");
    eprintln!(
        "{:w$}  {:>12}  {:>12}  {:>12}  {:>10}",
        "name",
        "median",
        "mean",
        "min",
        "iters/batch",
        w = width
    );
    for s in samples {
        eprintln!(
            "{:w$}  {:>12}  {:>12}  {:>12}  {:>10}",
            s.name,
            human_ns(s.median_ns),
            human_ns(s.mean_ns),
            human_ns(s.min_ns),
            s.batch_iters,
            w = width
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        // Keep the batch target tiny so the test is fast.
        std::env::set_var("BA_BENCH_BATCH_MS", "1");
        let s = bench("noop-ish", || std::hint::black_box(3u64).wrapping_mul(7));
        assert!(s.batch_iters >= 1);
        assert!(s.median_ns >= 0.0);
        assert!(s.min_ns <= s.median_ns);
        std::env::remove_var("BA_BENCH_BATCH_MS");
    }

    #[test]
    fn human_formatting_scales() {
        assert!(human_ns(12.0).ends_with("ns"));
        assert!(human_ns(12_000.0).ends_with("µs"));
        assert!(human_ns(12_000_000.0).ends_with("ms"));
        assert!(human_ns(12_000_000_000.0).ends_with('s'));
    }
}
