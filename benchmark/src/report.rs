//! The parent side: spawns the cold repetitions, holds them to the
//! exact-count rule, and reduces them to the named metrics.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rep::{BlockSummary, Repetition};
use crate::stats::{block_spread, percentile, quiet_decile, Better};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where traces go: `benchmark/out/` when run from the repo root (the way
/// `BENCHMARK.json`'s command runs it), `out/` when run from `benchmark/`.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Runs one cold repetition in a fresh child process and waits for it.
fn spawn_repetition(
    workload: &str,
    seed: u64,
    blocks: usize,
    trace_out: Option<&Path>,
) -> Result<Repetition, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "run-one",
            workload,
            "--seed",
            &seed.to_string(),
            "--blocks",
            &blocks.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning a repetition of {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "a repetition of {workload} failed ({})",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("a repetition of {workload} printed nothing"))?;
    Repetition::from_json(&Json::parse(line)?)
}

/// `repetitions` cold repetitions of every named workload, interleaved
/// round-robin (w1r1, w2r1, …, w1r2, …) so that a slow stretch of the host
/// lands on every workload alike instead of on one.
pub fn run_interleaved(
    workloads: &[&str],
    seed: u64,
    blocks: usize,
    repetitions: usize,
) -> Result<BTreeMap<String, Vec<Repetition>>, String> {
    let mut out: BTreeMap<String, Vec<Repetition>> = BTreeMap::new();
    for _ in 0..repetitions {
        for name in workloads {
            let rep = spawn_repetition(name, seed, blocks, None)?;
            out.entry(name.to_string()).or_default().push(rep);
        }
    }
    for (name, reps) in &out {
        same_counts(name, reps)?;
    }
    Ok(out)
}

/// The traced pair of one workload: an untraced repetition, then a traced
/// one that writes `trace-<workload>.json`.
pub fn run_traced(
    workload: &str,
    seed: u64,
    blocks: usize,
) -> Result<(Repetition, Repetition), String> {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let plain = spawn_repetition(workload, seed, blocks, None)?;
    let traced = spawn_repetition(workload, seed, blocks, Some(&path))?;
    same_counts(workload, [&plain, &traced])?;
    Ok((plain, traced))
}

/// Same seed, same inputs, same counts: every repetition must report the
/// identical counter map, or something in the program is not the
/// deterministic function of its inputs the exact metrics assume.
fn same_counts<'a>(
    workload: &str,
    reps: impl IntoIterator<Item = &'a Repetition>,
) -> Result<(), String> {
    let mut reps = reps.into_iter();
    let first = &reps.next().expect("at least one repetition").counters;
    for (r, rep) in reps.enumerate() {
        if rep.counters != *first {
            let differing: Vec<&String> = first
                .keys()
                .chain(rep.counters.keys())
                .filter(|k| first.get(*k) != rep.counters.get(*k))
                .collect();
            return Err(format!(
                "{workload}: exact counts differ between repetition 1 and {}: {differing:?}",
                r + 2
            ));
        }
    }
    Ok(())
}

/// The last line of a run: whether every check held, operations attempted
/// and failed, and the metrics by name.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::from(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

fn per_block(reps: &[Repetition], f: impl Fn(&BlockSummary) -> f64) -> Vec<f64> {
    reps.iter().flat_map(|r| r.blocks.iter()).map(f).collect()
}

fn totals<'a>(reps: impl IntoIterator<Item = &'a Repetition>) -> (u64, u64) {
    reps.into_iter()
        .flat_map(|r| r.blocks.iter())
        .fold((0, 0), |(attempted, failed), b| {
            (attempted + b.attempted, failed + b.failed)
        })
}

fn ratio(counters: &BTreeMap<String, u64>, num: &str, den: &str) -> f64 {
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    match get(den) {
        0 => 0.0,
        d => get(num) as f64 / d as f64,
    }
}

/// Reduces the cold repetitions of one workload to the end-to-end metrics.
/// Timing metrics take the quiet decile of all blocks of all repetitions;
/// counts come from the (identical) counter maps; `setup_s` is the fastest
/// of the cold set-ups and `peak_rss_mb` the largest of the peaks.
pub fn end_to_end(reps: &[Repetition]) -> Outcome {
    let counters = &reps[0].counters;
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "decisions_per_s" => {
                    quiet_decile(&per_block(reps, BlockSummary::decisions_per_s), m.better)
                }
                "latency_p50_ms" => quiet_decile(&per_block(reps, BlockSummary::p50_ms), m.better),
                "latency_p99_ms" => quiet_decile(&per_block(reps, BlockSummary::p99_ms), m.better),
                "peak_rss_mb" => reps.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
                "messages_per_decision" => ratio(counters, "messages", "decided"),
                "signatures_per_decision" => ratio(counters, "signatures", "decided"),
                "wire_bytes_per_decision" => ratio(counters, "wire_bytes", "decided"),
                "goodput_share" => ratio(counters, "decided", "attempted"),
                "setup_s" => reps.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (m.name, value, m.unit)
        })
        .collect();
    let (attempted, failed) = totals(reps);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer metrics of one workload's traced pair. Exact ones come
/// from the counters, timed ones from the traced repetition's spans and
/// probes, the `bench.*` ones from comparing the two repetitions. A layer
/// the workload does not execute reads 0.
pub fn per_layer(plain: &Repetition, traced: &Repetition) -> Outcome {
    let c = &traced.counters;
    let count = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let plain_rates = per_block(std::slice::from_ref(plain), BlockSummary::decisions_per_s);
    let traced_rates = per_block(std::slice::from_ref(traced), BlockSummary::decisions_per_s);
    let plain_median = percentile(&plain_rates, 50.0);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("bench.block_spread", block_spread(&plain_rates));
    values.insert("bench.decisions_per_s_median", plain_median);
    values.insert(
        "bench.decisions_per_s_raw",
        quiet_decile(
            &per_block(
                std::slice::from_ref(plain),
                BlockSummary::raw_decisions_per_s,
            ),
            Better::Higher,
        ),
    );
    values.insert(
        "bench.host_speed",
        percentile(
            &per_block(std::slice::from_ref(plain), |b| b.host_speed),
            50.0,
        ),
    );
    values.insert(
        "bench.trace_overhead_ratio",
        plain_median / percentile(&traced_rates, 50.0),
    );
    values.insert(
        "bench.latency_samples_per_block",
        plain.blocks.iter().map(|b| b.samples).min().unwrap_or(0) as f64,
    );
    // The generator ticks the session it feeds: it cannot run late.
    values.insert("bench.generator_lag_ticks", 0.0);

    values.insert("crypto.hashes_per_decision", ratio(c, "hashes", "decided"));
    values.insert(
        "crypto.tag_ops_per_decision",
        ratio(c, "tag_ops", "decided"),
    );
    values.insert(
        "crypto.sig_verifications_per_decision",
        ratio(c, "sig_verifications", "decided"),
    );
    let lookups = count("cache_hits") + count("cache_misses");
    if lookups > 0.0 {
        values.insert("crypto.cache_hit_ratio", count("cache_hits") / lookups);
    }

    values.insert(
        "svc.queue_depth_mean",
        ratio(c, "queue_depth_sum", "queue_depth_samples"),
    );
    values.insert("svc.queue_depth_peak", count("queue_depth_peak"));
    values.insert("svc.peak_inflight", count("peak_inflight"));
    values.insert("svc.shed_share", ratio(c, "shed", "attempted"));
    values.insert("svc.degraded_share", ratio(c, "degraded", "attempted"));
    values.insert("svc.rejected_share", ratio(c, "refused", "attempted"));
    values.insert("svc.frames_per_flush", ratio(c, "flush_frames", "flushes"));
    values.insert("svc.flushes_per_decision", ratio(c, "flushes", "decided"));

    values.insert(
        "wire.transmissions_per_decision",
        ratio(c, "transmissions", "decided"),
    );
    values.insert(
        "wire.retransmit_share",
        ratio(c, "retransmissions", "transmissions"),
    );
    values.insert(
        "wire.duplicates_suppressed_per_decision",
        ratio(c, "duplicates_suppressed", "decided"),
    );
    values.insert(
        "wire.acks_lost_per_decision",
        ratio(c, "acks_lost", "decided"),
    );
    values.insert("wire.failed_links", count("failed_links"));
    values.insert("wire.max_ticks_in_phase", count("max_ticks_in_phase"));

    values.insert("ext.inner_bytes", ratio(c, "ext_inner_bytes", "decided"));
    values.insert(
        "ext.dissemination_bytes",
        ratio(c, "ext_dissemination_bytes", "decided"),
    );
    values.insert("ext.vote_bytes", ratio(c, "ext_vote_bytes", "decided"));
    values.insert("ext.fetch_bytes", ratio(c, "ext_fetch_bytes", "decided"));
    values.insert(
        "ext.control_bytes",
        ratio(c, "ext_control_bytes", "decided"),
    );
    values.insert(
        "ext.overhead_ratio",
        ratio(c, "wire_bytes", "ext_floor_bytes"),
    );
    values.insert(
        "ext.repair_requests",
        ratio(c, "ext_repair_requests", "decided"),
    );
    values.insert(
        "ext.repair_response_bytes",
        ratio(c, "ext_repair_response_bytes", "decided"),
    );
    values.insert(
        "ext.payload_mb_per_s",
        plain_median * ratio(c, "ext_payload_len", "decided") / 1e6,
    );

    for (name, value) in &traced.layer {
        if let Some(metric) = PER_LAYER.iter().find(|m| m.name == name) {
            values.insert(metric.name, *value);
        }
    }

    let (attempted, failed) = totals([plain, traced]);
    Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
    }
}

/// Prints one workload's metrics as a table, with the noise figures the
/// quiet decile must be read beside.
pub fn print_table(workload: &str, outcome: &Outcome, reps: &[Repetition]) {
    let rates = per_block(reps, BlockSummary::decisions_per_s);
    let speeds = per_block(reps, |b| b.host_speed);
    // Every load generator runs on the thread that consumes its load — the
    // open loops tick the session they feed — so none can run late.
    println!(
        "{workload}: {} blocks, median-of-blocks {:.4} 1/s, block_spread {:.4}, \
         host_speed {:.3} ({:.3}..{:.3}), attempted {}, failed {}, generator_lag_ticks 0",
        rates.len(),
        percentile(&rates, 50.0),
        block_spread(&rates),
        percentile(&speeds, 50.0),
        percentile(&speeds, 0.0),
        percentile(&speeds, 100.0),
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {workload:<20} {name:<40} {value:>16.4} {unit}");
    }
}

/// `|b − a| / a` against the metric's bound, for `selfcheck`.
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    pub bound: f64,
}

impl Comparison {
    pub fn difference(&self) -> f64 {
        if self.first == 0.0 {
            return if self.second == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.second - self.first).abs() / self.first.abs()
    }

    pub fn within_bound(&self) -> bool {
        self.difference() <= self.bound
    }
}

/// Pairs two sets of end-to-end outcomes, metric by metric.
pub fn compare(
    first: &BTreeMap<String, Outcome>,
    second: &BTreeMap<String, Outcome>,
) -> Vec<Comparison> {
    let mut out = Vec::new();
    for (workload, a) in first {
        let b = &second[workload];
        for m in &END_TO_END {
            out.push(Comparison {
                workload: workload.clone(),
                metric: m.name,
                first: a.value(m.name),
                second: b.value(m.name),
                bound: m.bound,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(decided: u64, wall_ns: u64, p50_ns: u64, p99_ns: u64) -> BlockSummary {
        BlockSummary {
            attempted: decided,
            decided,
            failed: 0,
            wall_ns,
            p50_ns,
            p99_ns,
            samples: decided,
            host_speed: 1.0,
        }
    }

    fn rep(setup_s: f64, rss: f64, blocks: Vec<BlockSummary>) -> Repetition {
        let decided: u64 = blocks.iter().map(|b| b.decided).sum();
        Repetition {
            setup_s,
            peak_rss_mb: rss,
            blocks,
            counters: [
                ("attempted".to_string(), decided * 2),
                ("decided".to_string(), decided),
                ("messages".to_string(), decided * 240),
                ("signatures".to_string(), decided * 255),
                ("wire_bytes".to_string(), decided * 9885),
            ]
            .into(),
            layer: BTreeMap::new(),
        }
    }

    #[test]
    fn end_to_end_takes_the_quiet_side() {
        // Ten blocks at 100/s..1000/s; latencies fall as rates rise.
        let blocks: Vec<BlockSummary> = (1..=10)
            .map(|i| {
                block(
                    100 * i,
                    1_000_000_000,
                    11_000_000 - i * 1_000_000,
                    50_000_000 / i,
                )
            })
            .collect();
        let reps = [rep(0.9, 120.0, blocks.clone()), rep(0.7, 125.0, blocks)];
        let outcome = end_to_end(&reps);
        // 20 blocks: nearest-rank p90 is the 18th ascending, p10 the 2nd.
        assert_eq!(outcome.value("decisions_per_s"), 900.0);
        assert_eq!(outcome.value("latency_p50_ms"), 1.0);
        assert_eq!(outcome.value("latency_p99_ms"), 5.0);
        assert_eq!(outcome.value("setup_s"), 0.7);
        assert_eq!(outcome.value("peak_rss_mb"), 125.0);
        assert_eq!(outcome.value("messages_per_decision"), 240.0);
        assert_eq!(outcome.value("goodput_share"), 0.5);
        assert_eq!(outcome.attempted, 2 * 5500);
        assert_eq!(outcome.metrics.len(), END_TO_END.len());
        assert!(outcome.metrics.iter().all(|(_, v, _)| *v != 0.0));
    }

    #[test]
    fn differing_counts_are_refused() {
        let a = rep(1.0, 1.0, vec![block(10, 1, 1, 1)]);
        let mut b = a.clone();
        assert!(same_counts("w", &[a.clone(), b.clone()]).is_ok());
        b.counters.insert("messages".into(), 1);
        let err = same_counts("w", &[a, b]).unwrap_err();
        assert!(err.contains("messages"), "{err}");
    }

    #[test]
    fn per_layer_reports_every_metric_and_zero_for_idle_layers() {
        let plain = rep(
            1.0,
            1.0,
            vec![
                block(100, 1_000_000_000, 1, 1),
                block(100, 2_000_000_000, 1, 1),
            ],
        );
        let mut traced = rep(
            1.0,
            1.0,
            vec![
                block(100, 2_000_000_000, 1, 1),
                block(100, 4_000_000_000, 1, 1),
            ],
        );
        traced.layer.insert("sim.run_ms".into(), 170.5);
        traced.layer.insert("not.a.metric".into(), 1.0);
        let outcome = per_layer(&plain, &traced);
        assert_eq!(outcome.metrics.len(), PER_LAYER.len());
        assert_eq!(outcome.value("sim.run_ms"), 170.5);
        assert_eq!(outcome.value("bench.trace_overhead_ratio"), 2.0);
        assert_eq!(outcome.value("bench.decisions_per_s_median"), 50.0);
        assert_eq!(outcome.value("svc.shed_share"), 0.0);
        assert_eq!(outcome.value("ext.vote_bytes"), 0.0);
    }

    #[test]
    fn comparison_is_relative_to_the_first_set() {
        let c = Comparison {
            workload: "w".into(),
            metric: "decisions_per_s",
            first: 100.0,
            second: 109.0,
            bound: 0.10,
        };
        assert!((c.difference() - 0.09).abs() < 1e-12);
        assert!(c.within_bound());
        let worse = Comparison { second: 89.0, ..c };
        assert!(!worse.within_bound());
    }
}
