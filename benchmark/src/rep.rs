//! One cold repetition: what the child process `bench run-one` does, and
//! the record it hands back to its parent on the last line of its stdout.

use crate::calib::{host_speed, Calibrator};
use crate::host;
use crate::json::Json;
use crate::stats::percentile_u64;
use crate::trace::{SpanStats, Tracer, BLOCK_SPAN};
use crate::workload::{self, Block, Counters, LayerValues, WARM_UP};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The traced run fails when this share of the blocks' wall time is
/// covered by no layer span.
const UNACCOUNTED_LIMIT: f64 = 0.05;

/// A measured block, reduced to what the estimator needs.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockSummary {
    pub attempted: u64,
    pub decided: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// Nearest-rank percentiles of this block's per-operation latencies.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub samples: u64,
    /// Host speed while the block ran, from the calibration samples on
    /// either side of it (see [`crate::calib`]).
    pub host_speed: f64,
}

impl BlockSummary {
    fn of(mut block: Block, speed: f64) -> Result<BlockSummary, String> {
        if block.latencies_ns.is_empty() {
            return Err("a block decided nothing".into());
        }
        Ok(BlockSummary {
            attempted: block.attempted,
            decided: block.decided,
            failed: block.failed,
            wall_ns: block.wall_ns,
            p50_ns: percentile_u64(&mut block.latencies_ns, 50.0),
            p99_ns: percentile_u64(&mut block.latencies_ns, 99.0),
            samples: block.latencies_ns.len() as u64,
            host_speed: speed,
        })
    }

    /// Throughput against the wall clock.
    pub fn raw_decisions_per_s(&self) -> f64 {
        self.decided as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Throughput at reference host speed.
    pub fn decisions_per_s(&self) -> f64 {
        self.raw_decisions_per_s() / self.host_speed
    }

    /// Latency percentiles at reference host speed.
    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6 * self.host_speed
    }

    pub fn p99_ms(&self) -> f64 {
        self.p99_ns as f64 / 1e6 * self.host_speed
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Repetition {
    /// Process start to the first measured block: inputs generated from
    /// the seed, everything built, one warm-up block run. At reference host
    /// speed, like every other time.
    pub setup_s: f64,
    /// `VmHWM` when the last measured block ended.
    pub peak_rss_mb: f64,
    pub blocks: Vec<BlockSummary>,
    /// Exact counts, summed over the measured blocks.
    pub counters: BTreeMap<String, u64>,
    /// Timed per-layer values; empty unless the repetition was traced.
    pub layer: BTreeMap<String, f64>,
}

/// Runs one repetition of `name` in this process. `started` is when the
/// process began; `trace_out`, when given, turns the span recorder on and
/// names the file the trace is written to.
pub fn run(
    name: &str,
    seed: u64,
    blocks: usize,
    trace_out: Option<&Path>,
    started: Instant,
) -> Result<Repetition, String> {
    let mut workload =
        workload::build(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
    workload.run_block(WARM_UP, &mut Tracer::new(false), &mut Counters::new())?;
    let setup_raw_s = started.elapsed().as_secs_f64();
    let calibrator = Calibrator::new();
    let mut before_ns = calibrator.sample();
    let setup_s = setup_raw_s * host_speed(before_ns, before_ns);

    let mut tracer = Tracer::new(trace_out.is_some());
    let mut counters = Counters::new();
    let mut summaries = Vec::with_capacity(blocks);
    for index in 0..blocks as u64 {
        let block = workload.run_block(index, &mut tracer, &mut counters)?;
        let after_ns = calibrator.sample();
        summaries.push(BlockSummary::of(block, host_speed(before_ns, after_ns))?);
        before_ns = after_ns;
    }
    let peak_rss_mb = host::peak_rss_mb()?;

    let mut layer = LayerValues::new();
    if let Some(path) = trace_out {
        layer = workload.probes()?;
        span_values(&tracer, &counters, &mut layer)?;
        let doc = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::from(seed)),
            ("blocks", Json::from(blocks)),
            ("host", host::tags()),
            (
                "layer",
                Json::obj(layer.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            ("trace", tracer.to_json()),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Repetition {
        setup_s,
        peak_rss_mb,
        blocks: summaries,
        counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        layer: layer.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    })
}

/// The per-layer values read off the spans: per-call times, and each
/// layer's share of the measured blocks' wall time.
fn span_values(tracer: &Tracer, counters: &Counters, out: &mut LayerValues) -> Result<(), String> {
    let unaccounted = tracer.unaccounted_share();
    if unaccounted >= UNACCOUNTED_LIMIT {
        return Err(format!(
            "{:.1} % of the blocks' wall time is covered by no layer span (limit {:.0} %)",
            unaccounted * 100.0,
            UNACCOUNTED_LIMIT * 100.0
        ));
    }
    out.insert("bench.unaccounted_share", unaccounted);

    let agg = tracer.aggregate();
    let none = SpanStats::default();
    let of = |name: &str| agg.get(name).unwrap_or(&none);
    let block_ns = of(BLOCK_SPAN).total_ns as f64;
    let share = |name: &str| of(name).total_ns as f64 / block_ns;
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;

    out.insert("algos.build_us", us(of("algos.build").p50_ns));
    out.insert("algos.build_share", share("algos.build"));
    out.insert("sim.run_ms", ms(of("sim.run").p50_ns));
    if of("sim.run").count > 0 {
        let messages = counters.get("messages").copied().unwrap_or(0).max(1);
        out.insert(
            "sim.ns_per_message",
            of("sim.run").total_ns as f64 / messages as f64,
        );
    }
    out.insert("svc.submit_us_p50", us(of("svc.submit").p50_ns));
    out.insert("svc.tick_us_p50", us(of("svc.tick").p50_ns));
    out.insert("svc.tick_us_p99", us(of("svc.tick").p99_ns));
    if of("svc.tick").count > 0 {
        out.insert("svc.build_share", share("algos.build"));
        out.insert("svc.submit_share", share("svc.submit"));
        out.insert("svc.tick_share", share("svc.tick"));
        out.insert("svc.drain_share", share("svc.drain"));
    }
    if of("ext.run").count > 0 {
        let whole = ms(of("ext.run").p50_ns);
        let part = |name: &str| out.get(name).copied().unwrap_or(0.0);
        let stages = part("ext.digest_ms")
            + part("ext.encode_ms")
            + part("ext.inner_ba_ms")
            + part("ext.vote_ms");
        out.insert("ext.run_ms", whole);
        // What is left is dissemination and fetch stepping.
        out.insert("ext.residual_ms", whole - stages);
    }
    Ok(())
}

impl Repetition {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::from(self.setup_s)),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            (
                "blocks",
                Json::Arr(
                    self.blocks
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("attempted", Json::from(b.attempted)),
                                ("decided", Json::from(b.decided)),
                                ("failed", Json::from(b.failed)),
                                ("wall_ns", Json::from(b.wall_ns)),
                                ("p50_ns", Json::from(b.p50_ns)),
                                ("p99_ns", Json::from(b.p99_ns)),
                                ("samples", Json::from(b.samples)),
                                ("host_speed", Json::from(b.host_speed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v))),
                ),
            ),
            (
                "layer",
                Json::obj(self.layer.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
        ])
    }

    /// Reads back what [`to_json`](Self::to_json) wrote.
    pub fn from_json(doc: &Json) -> Result<Repetition, String> {
        let missing = |key: &str| format!("repetition record lacks {key:?}");
        let num = |doc: &Json, key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| missing(key))
        };
        let int = |doc: &Json, key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| missing(key))
        };
        let blocks = doc
            .get("blocks")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("blocks"))?
            .iter()
            .map(|b| {
                Ok(BlockSummary {
                    attempted: int(b, "attempted")?,
                    decided: int(b, "decided")?,
                    failed: int(b, "failed")?,
                    wall_ns: int(b, "wall_ns")?,
                    p50_ns: int(b, "p50_ns")?,
                    p99_ns: int(b, "p99_ns")?,
                    samples: int(b, "samples")?,
                    host_speed: num(b, "host_speed")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = doc
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| missing("counters"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or_else(|| missing(k))?)))
            .collect::<Result<_, String>>()?;
        let layer = doc
            .get("layer")
            .and_then(Json::as_obj)
            .ok_or_else(|| missing("layer"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or_else(|| missing(k))?)))
            .collect::<Result<_, String>>()?;
        Ok(Repetition {
            setup_s: num(doc, "setup_s")?,
            peak_rss_mb: num(doc, "peak_rss_mb")?,
            blocks,
            counters,
            layer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_round_trips_through_its_record() {
        let rep = Repetition {
            setup_s: 0.8127,
            peak_rss_mb: 133.97,
            blocks: vec![BlockSummary {
                attempted: 4512,
                decided: 4512,
                failed: 0,
                wall_ns: 456_789_012,
                p50_ns: 412_345,
                p99_ns: 901_234,
                samples: 4512,
                host_speed: 1.0625,
            }],
            counters: [
                ("messages".to_string(), 1_047_552u64),
                ("decided".to_string(), 3),
            ]
            .into(),
            layer: [("svc.tick_us_p50".to_string(), 101.25)].into(),
        };
        let line = rep.to_json().render();
        assert_eq!(
            Repetition::from_json(&Json::parse(&line).unwrap()).unwrap(),
            rep
        );
        assert!(Repetition::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn block_summary_takes_nearest_rank_percentiles() {
        let block = Block {
            attempted: 5,
            decided: 4,
            failed: 1,
            wall_ns: 2_000_000_000,
            latencies_ns: vec![40, 10, 30, 20],
        };
        // The host ran at 1.25 × reference speed: at reference speed the
        // same work would have taken 1.25 × as long.
        let summary = BlockSummary::of(block, 1.25).unwrap();
        assert_eq!(
            (summary.p50_ns, summary.p99_ns, summary.samples),
            (20, 40, 4)
        );
        assert_eq!(summary.raw_decisions_per_s(), 2.0);
        assert_eq!(summary.decisions_per_s(), 1.6);
        assert_eq!(summary.p50_ms(), 25e-6);
        assert_eq!(summary.p99_ms(), 50e-6);
        assert!(BlockSummary::of(Block::default(), 1.0).is_err());
    }
}
