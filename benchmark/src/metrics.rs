//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! states the same tables; a unit test holds the two together.

use crate::stats::Better;

/// Cold repetitions per workload run, each a fresh child process.
pub const REPETITIONS: usize = 3;
/// Measured blocks per repetition at the nominal `--seconds`.
pub const NOMINAL_BLOCKS: usize = 10;
/// The `run_seconds` of `BENCHMARK.json`: `REPETITIONS × NOMINAL_BLOCKS`
/// blocks of ≈ 0.5 s.
pub const NOMINAL_SECONDS: u64 = 15;
/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Blocks per repetition for a `--seconds` budget. A function of the
/// argument alone — never of how fast the host turned out to be — so the
/// operation count, and with it every exact count, repeats.
pub fn blocks_for_seconds(seconds: u64) -> usize {
    ((seconds as usize * NOMINAL_BLOCKS) / NOMINAL_SECONDS as usize).max(2)
}

/// The workload names, in the order `BENCHMARK.json` lists them (where
/// each also carries its one-line rationale).
pub const WORKLOADS: [&str; 5] = [
    "svc_steady",
    "svc_overload_lossy",
    "engine_wide",
    "ext_bulk",
    "ext_small",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every end-to-end metric is reported on every workload and is never 0.
/// The counts repeat exactly for one seed; their small bounds only absorb
/// the seed-to-seed variation of the two open-loop workloads.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "messages_per_decision",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "signatures_per_decision",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "wire_bytes_per_decision",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "goodput_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// Per-layer metrics, from the traced run. A metric of a layer the
/// workload does not execute reads 0.
pub const PER_LAYER: [PerLayer; 68] = [
    // The benchmark itself: how noisy the host was, what tracing cost.
    layer("bench.block_spread", "ratio"),
    layer("bench.decisions_per_s_median", "1/s"),
    layer("bench.decisions_per_s_raw", "1/s"),
    layer("bench.host_speed", "ratio"),
    layer("bench.trace_overhead_ratio", "ratio"),
    layer("bench.unaccounted_share", "ratio"),
    layer("bench.latency_samples_per_block", "count"),
    layer("bench.generator_lag_ticks", "count"),
    // ba-crypto.
    layer("crypto.hashes_per_decision", "count"),
    layer("crypto.tag_ops_per_decision", "count"),
    layer("crypto.sig_verifications_per_decision", "count"),
    layer("crypto.cache_hit_ratio", "ratio"),
    layer("crypto.registry_build_us", "us"),
    layer("crypto.digest_mb_per_s", "MB/s"),
    layer("crypto.chain_verify_cold_ns", "ns"),
    layer("crypto.chain_verify_cached_ns", "ns"),
    // ba-algos.
    layer("algos.build_us", "us"),
    layer("algos.build_share", "ratio"),
    // ba-sim.
    layer("sim.run_ms", "ms"),
    layer("sim.phase_ms_p50", "ms"),
    layer("sim.phase_ms_max", "ms"),
    layer("sim.ns_per_message", "ns"),
    layer("sim.threads2_speedup", "ratio"),
    // ba-net::svc.
    layer("svc.submit_us_p50", "us"),
    layer("svc.tick_us_p50", "us"),
    layer("svc.tick_us_p99", "us"),
    layer("svc.build_share", "ratio"),
    layer("svc.submit_share", "ratio"),
    layer("svc.tick_share", "ratio"),
    layer("svc.drain_share", "ratio"),
    layer("svc.queue_wait_p50_ms", "ms"),
    layer("svc.queue_wait_p99_ms", "ms"),
    layer("svc.service_p50_ms", "ms"),
    layer("svc.latency_p50_ticks", "count"),
    layer("svc.latency_p99_ticks", "count"),
    layer("svc.queue_depth_mean", "count"),
    layer("svc.queue_depth_peak", "count"),
    layer("svc.peak_inflight", "count"),
    layer("svc.shed_share", "ratio"),
    layer("svc.degraded_share", "ratio"),
    layer("svc.rejected_share", "ratio"),
    layer("svc.frames_per_flush", "count"),
    layer("svc.flushes_per_decision", "count"),
    layer("svc.threads2_ratio", "ratio"),
    // ba-net::wire / chaos.
    layer("wire.transmissions_per_decision", "count"),
    layer("wire.retransmit_share", "ratio"),
    layer("wire.duplicates_suppressed_per_decision", "count"),
    layer("wire.acks_lost_per_decision", "count"),
    layer("wire.failed_links", "count"),
    layer("wire.max_ticks_in_phase", "count"),
    // ba-net::runtime, traced run only.
    layer("net.runtime_ms_per_decision", "ms"),
    layer("net.runtime_overhead_ratio", "ratio"),
    // ba-ext.
    layer("ext.inner_bytes", "B"),
    layer("ext.dissemination_bytes", "B"),
    layer("ext.vote_bytes", "B"),
    layer("ext.fetch_bytes", "B"),
    layer("ext.control_bytes", "B"),
    layer("ext.overhead_ratio", "ratio"),
    layer("ext.repair_requests", "count"),
    layer("ext.repair_response_bytes", "B"),
    layer("ext.run_ms", "ms"),
    layer("ext.digest_ms", "ms"),
    layer("ext.encode_ms", "ms"),
    layer("ext.reconstruct_ms", "ms"),
    layer("ext.inner_ba_ms", "ms"),
    layer("ext.vote_ms", "ms"),
    layer("ext.residual_ms", "ms"),
    layer("ext.payload_mb_per_s", "MB/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// Whether `name` is a valid benchmark identifier: starts with a letter or
    /// digit, at most 64 of letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn blocks_scale_with_the_seconds_argument_only() {
        assert_eq!(blocks_for_seconds(NOMINAL_SECONDS), NOMINAL_BLOCKS);
        assert_eq!(blocks_for_seconds(12), 8);
        assert_eq!(blocks_for_seconds(1), 2);
        assert_eq!(blocks_for_seconds(60), 40);
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .into_iter()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("λ"));
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(NOMINAL_SECONDS)
        );

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, name) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(entry, "name"), name);
            let why = field(entry, "why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }

        let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            let better = match metric.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(field(entry, "better"), better, "{}", metric.name);
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(bound, metric.bound, "{}", metric.name);
            assert!(bound <= 0.25);
        }

        let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
            assert!(matches!(field(entry, "better"), "higher" | "lower"));
        }
    }
}
