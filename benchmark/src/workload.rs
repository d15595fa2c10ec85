//! What a workload is: seeded inputs, fixed-size measured blocks, exact
//! counters, and — in the traced run — probes of the layers underneath.

use crate::trace::Tracer;
use std::collections::BTreeMap;

pub mod engine;
pub mod ext;
pub mod svc;

/// Exact, deterministic counts. Summed over all blocks of a repetition;
/// the three repetitions of one seed must produce identical maps.
pub type Counters = BTreeMap<&'static str, u64>;

pub fn bump(counters: &mut Counters, key: &'static str, by: u64) {
    *counters.entry(key).or_insert(0) += by;
}

pub fn raise(counters: &mut Counters, key: &'static str, to: u64) {
    let slot = counters.entry(key).or_insert(0);
    *slot = (*slot).max(to);
}

/// Folds one run's [`ba_sim::Metrics`] into the counters every workload
/// reports: the paper's currency and the crypto work underneath it.
pub fn bump_run_metrics(counters: &mut Counters, m: &ba_sim::Metrics) {
    bump(counters, "messages", m.messages_by_correct);
    bump(counters, "signatures", m.signatures_by_correct);
    bump(counters, "hashes", m.crypto.hash_invocations);
    bump(counters, "tag_ops", m.crypto.tag_ops);
    bump(counters, "sig_verifications", m.crypto.sig_verifications);
    bump(counters, "cache_hits", m.crypto.cache_hits);
    bump(counters, "cache_misses", m.crypto.cache_misses);
}

/// The warm-up block's index. Its operations take numbers of their own, so
/// warming up never replays a measured input.
pub const WARM_UP: u64 = u64::MAX;

/// The operation numbers of closed-loop block `index`: fixed-size,
/// contiguous, disjoint from every other block's. Operation numbers seed
/// the inputs, so a block's work is a function of `(seed, index)` alone.
pub fn block_ops(index: u64, per_block: u64) -> std::ops::Range<u64> {
    if index == WARM_UP {
        return u64::MAX - per_block..u64::MAX;
    }
    index * per_block..(index + 1) * per_block
}

/// One measured block: a fixed operation count, timed as a whole, with the
/// per-operation latencies of the operations that decided.
#[derive(Debug, Default)]
pub struct Block {
    /// Operations offered to the system.
    pub attempted: u64,
    /// Operations that ended in a checked-correct decision.
    pub decided: u64,
    /// Operations the workload's own policy does not allow to end the way
    /// they did: refused submissions under `Reject`, aborted agreements.
    /// Shed and degraded instances of the overload workload are policy
    /// outcomes, not failures; `goodput_share` prices them.
    pub failed: u64,
    pub wall_ns: u64,
    /// Submission-to-decision wall time per decided operation.
    pub latencies_ns: Vec<u64>,
}

/// Timed per-layer values of one traced repetition, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Runs measured block `index` (the warm-up block is [`WARM_UP`]).
    /// Every operation's outcome is checked — outside the timed window —
    /// and any breach of agreement, validity, accounting or payload
    /// equality is an error that ends the run non-zero.
    fn run_block(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<Block, String>;

    /// Traced run only: measures the layers underneath with standalone
    /// probes (microbenchmarks of the same public functions at this
    /// workload's sizes, multi-thread and `NetRuntime` comparison rows)
    /// and returns them beside what the workload accumulated from its
    /// outcomes.
    fn probes(&mut self) -> Result<LayerValues, String>;
}

/// Worker threads of every gated measurement. Only the traced run's
/// `*.threads2_*` probes ask the layers for more.
pub const THREADS: usize = 1;

/// Builds the named workload from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "svc_steady" => Box::new(svc::SvcWorkload::new(svc::STEADY, seed)),
        "svc_overload_lossy" => Box::new(svc::SvcWorkload::new(svc::OVERLOAD_LOSSY, seed)),
        "engine_wide" => Box::new(engine::EngineWorkload::new(seed)),
        "ext_bulk" => Box::new(ext::ExtWorkload::new(ext::BULK, seed)),
        "ext_small" => Box::new(ext::ExtWorkload::new(ext::SMALL, seed)),
        _ => return None,
    })
}

/// Median of a handful of timed calls, in nanoseconds per call.
pub fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..samples)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    crate::stats::percentile_u64(&mut ns, 50.0) as f64
}

/// The `ba-crypto` probes every workload shares, at the workload's own
/// `(n, t)`: building a key registry, and verifying a chain of `t + 1`
/// signatures (the longest a run at this `t` relays) with and without the
/// verifier cache.
pub fn crypto_probes(n: usize, t: usize, seed: u64) -> LayerValues {
    use ba_crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Value};
    use std::hint::black_box;

    let registry_seed = ba_crypto::rng::derive_seed(seed, 0xC1A5);
    let mut out = LayerValues::new();
    out.insert(
        "crypto.registry_build_us",
        median_ns(9, || {
            black_box(KeyRegistry::new(
                n,
                black_box(registry_seed),
                SchemeKind::Fast,
            ));
        }) / 1e3,
    );
    let registry = KeyRegistry::new(n, registry_seed, SchemeKind::Fast);
    let mut chain = Chain::new(ba_algos::common::domains::DOLEV_STRONG, Value::ONE);
    for p in 0..=t {
        chain.sign_and_append(&registry.signer(ProcessId(p as u32)));
    }
    let verifier = registry.verifier();
    // One call is tens of nanoseconds; time batches of 1 000.
    const BATCH: usize = 1000;
    out.insert(
        "crypto.chain_verify_cold_ns",
        median_ns(9, || {
            for _ in 0..BATCH {
                black_box(&chain)
                    .verify_uncached(&verifier)
                    .expect("valid chain");
            }
        }) / BATCH as f64,
    );
    chain.verify(&verifier).expect("valid chain");
    out.insert(
        "crypto.chain_verify_cached_ns",
        median_ns(9, || {
            for _ in 0..BATCH {
                black_box(&chain).verify(&verifier).expect("valid chain");
            }
        }) / BATCH as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_split_the_operation_numbers_exactly() {
        let blocks: Vec<_> = (0..24).map(|i| block_ops(i, 250)).collect();
        assert!(blocks.iter().all(|b| b.end - b.start == 250));
        assert_eq!(blocks[0].start, 0);
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "contiguous and disjoint");
        }
        let warm = block_ops(WARM_UP, 250);
        assert_eq!(warm.end - warm.start, 250);
        assert!(
            warm.start > blocks[23].end,
            "warm-up replays no measured input"
        );
    }

    #[test]
    fn counters_sum_and_max() {
        let mut c = Counters::new();
        bump(&mut c, "messages", 3);
        bump(&mut c, "messages", 4);
        raise(&mut c, "peak", 5);
        raise(&mut c, "peak", 2);
        assert_eq!(c["messages"], 7);
        assert_eq!(c["peak"], 5);
    }
}
