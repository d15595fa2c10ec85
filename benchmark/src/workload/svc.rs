//! The two `ba-net::svc` workloads: open-loop sessions in the tick domain.
//!
//! The service has no clock but [`SvcSession::tick`], so arrivals are
//! open-loop *in ticks*: a seeded Poisson process offers λ instances per
//! tick regardless of completions, and the queue is free to grow. The
//! generator lives on the thread that ticks, so it cannot run late —
//! `generator_lag_ticks` is 0 by construction. Latency is
//! [`InstanceOutcome::latency`]: wall time from submission to decision,
//! queue wait included. Message delay is zero virtual ticks on a reliable
//! link, so all latency is processor time.

use super::{
    bump, bump_run_metrics, crypto_probes, raise, Block, Counters, LayerValues, Workload, THREADS,
};
use crate::stats::percentile_u64;
use crate::trace::{Tracer, BLOCK_SPAN};
use ba_algos::checkable::{find_target, CheckConfig, CheckTarget};
use ba_crypto::rng::{derive_seed, SimRng};
use ba_crypto::{Chain, Value, VerifierCache};
use ba_net::{
    AdmissionPolicy, BaService, ChaosProfile, InstanceOutcome, InstanceSpec, PoissonArrivals,
    SvcConfig, SvcReport,
};
use ba_sim::schedule::ScheduleSpec;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 16;
const T: usize = 1;
/// `ds-broadcast` at t = 1 settles in 4 service ticks, so 8 in flight
/// saturate at 2 instances per tick.
const MAX_INFLIGHT: usize = 8;

#[derive(Clone, Copy, Debug)]
pub struct SvcParams {
    /// Binary transmitter values (every instance signs one of two chains:
    /// maximal sharing through the fleet's verifier cache) or a distinct
    /// value per instance (none).
    pub binary_values: bool,
    /// Offered load λ, instances per tick.
    pub rate: f64,
    pub queue_capacity: usize,
    pub admission: AdmissionPolicy,
    /// Per-link frame loss in 1/1000; `None` is the reliable wire.
    pub drop_per_mille: Option<u16>,
    /// Instances offered per block — the block's fixed operation count.
    /// Arrivals stop once it is reached; the session then drains.
    pub offered_per_block: u64,
}

/// 0.75 × saturation, nothing shared, nothing lost: 4 500 instances over
/// ≈ 3 000 ticks, all decided.
pub const STEADY: SvcParams = SvcParams {
    binary_values: false,
    rate: 1.5,
    queue_capacity: 64,
    admission: AdmissionPolicy::Reject,
    drop_per_mille: None,
    offered_per_block: 4500,
};

/// 2 × saturation into a queue of 8 under shed-oldest, 15 % frame loss:
/// 8 000 instances over ≈ 2 000 ticks, a third shed, a handful degraded.
pub const OVERLOAD_LOSSY: SvcParams = SvcParams {
    binary_values: true,
    rate: 4.0,
    queue_capacity: 8,
    admission: AdmissionPolicy::ShedOldest,
    drop_per_mille: Some(150),
    offered_per_block: 8000,
};

pub struct SvcWorkload {
    params: SvcParams,
    seed: u64,
    target: &'static CheckTarget,
    /// Tick-domain latencies of every decided instance (exact).
    latency_ticks: Vec<u64>,
    queue_wait_ns: Vec<u64>,
    service_ns: Vec<u64>,
}

/// One driven session, before its outcomes are checked.
struct Driven {
    report: SvcReport,
    /// The value submitted under each ticket, by ticket number.
    values: Vec<Value>,
    refused: u64,
    wall_ns: u64,
}

impl SvcWorkload {
    pub fn new(params: SvcParams, seed: u64) -> SvcWorkload {
        SvcWorkload {
            params,
            seed,
            target: find_target("ds-broadcast").expect("ds-broadcast is a registered target"),
            latency_ticks: Vec::new(),
            queue_wait_ns: Vec::new(),
            service_ns: Vec::new(),
        }
    }

    /// One session: Poisson arrivals tick by tick until the block's
    /// operation count has been offered, then drain.
    /// Spec building is inside the timed window — a caller of the service
    /// pays it on every submission.
    fn drive(&self, index: u64, threads: usize, tracer: &mut Tracer) -> Result<Driven, String> {
        let p = &self.params;
        let block_seed = derive_seed(self.seed, index);
        // One cluster identity per seed: every instance of every block
        // signs under the same registry seed, which is what makes the
        // fleet-shared verifier cache sound.
        let registry_seed = derive_seed(self.seed, 0xC1A5);
        let chaos = match p.drop_per_mille {
            Some(drop) => ChaosProfile::lossy(derive_seed(block_seed, 1), drop),
            None => ChaosProfile::reliable(),
        };
        let mut arrivals = PoissonArrivals::new(derive_seed(block_seed, 2), p.rate);
        let mut coin = SimRng::new(derive_seed(block_seed, 3));
        let config = SvcConfig::new()
            .with_threads(threads)
            .with_max_inflight(MAX_INFLIGHT)
            .with_queue_capacity(p.queue_capacity)
            .with_admission(p.admission);
        let mut values: Vec<Value> = Vec::new();
        let mut offered = 0u64;
        let mut refused = 0u64;

        let start = Instant::now();
        let block = tracer.begin(BLOCK_SPAN);
        let open = tracer.begin("svc.session");
        let cache = Arc::new(VerifierCache::new());
        let service = BaService::new(config)
            .with_chaos(chaos)
            .with_shared_cache(Arc::clone(&cache));
        let mut session = service.session::<Chain>();
        tracer.end(open);
        while offered < p.offered_per_block {
            let due = (arrivals.next_arrivals() as u64).min(p.offered_per_block - offered);
            for _ in 0..due {
                let value = if p.binary_values {
                    Value(u64::from(coin.next_bool()))
                } else {
                    Value(offered + 1)
                };
                tracer.set_op(offered);
                offered += 1;
                let cfg =
                    CheckConfig::new(N, T, value, registry_seed, threads, ScheduleSpec::default());
                let setup = tracer
                    .span("algos.build", || self.target.build_shared(&cfg, &cache))
                    .map_err(|e| format!("spec {offered}: {e}"))?;
                let spec = InstanceSpec {
                    actors: setup.actors,
                    phases: setup.phases,
                    fault_budget: T,
                    link_drops: vec![],
                    registry: Some(setup.registry),
                };
                match tracer.span("svc.submit", || session.submit(spec)) {
                    Ok(ticket) => {
                        debug_assert_eq!(ticket.0 as usize, values.len());
                        values.push(value);
                    }
                    Err(_) => refused += 1,
                }
            }
            tracer.span("svc.tick", || session.tick());
        }
        let report = tracer.span("svc.drain", || session.drain());
        tracer.end(block);
        let wall_ns = start.elapsed().as_nanos() as u64;
        Ok(Driven {
            report,
            values,
            refused,
            wall_ns,
        })
    }

    /// Checks every outcome of a drained session and folds its exact
    /// counts into `counters`.
    fn check_and_count(
        &mut self,
        driven: &Driven,
        counters: &mut Counters,
    ) -> Result<Block, String> {
        let report = &driven.report;
        if !report.accounting_balanced() {
            return Err(
                "session accounting unbalanced: submitted != decided + degraded + shed".into(),
            );
        }
        if report.submitted() != driven.values.len() || report.queue.rejected != driven.refused {
            return Err(format!(
                "session lost submissions: {} tickets issued, report says {}; {} refusals seen, report says {}",
                driven.values.len(),
                report.submitted(),
                driven.refused,
                report.queue.rejected
            ));
        }
        let mut block = Block {
            attempted: driven.values.len() as u64 + driven.refused,
            failed: driven.refused,
            wall_ns: driven.wall_ns,
            ..Block::default()
        };
        for outcome in &report.outcomes {
            let Ok(run) = &outcome.result else { continue };
            check_instance(outcome, driven.values[outcome.id as usize])?;
            block.decided += 1;
            block.latencies_ns.push(outcome.latency().as_nanos() as u64);
            self.latency_ticks
                .push(outcome.settled_tick - outcome.submitted_tick);
            self.queue_wait_ns
                .push(outcome.queue_wait().as_nanos() as u64);
            self.service_ns
                .push(outcome.service_time().as_nanos() as u64);
            let m = &run.metrics;
            bump_run_metrics(counters, m);
            bump(counters, "wire_bytes", m.wire_bytes());
        }
        bump(counters, "attempted", block.attempted);
        bump(counters, "decided", block.decided);
        bump(counters, "refused", driven.refused);
        bump(counters, "shed", report.shed_count() as u64);
        bump(counters, "degraded", report.degraded() as u64);
        bump(counters, "ticks", report.ticks);
        bump(counters, "queue_depth_sum", report.queue.depth_sum);
        bump(counters, "queue_depth_samples", report.queue.depth_samples);
        raise(counters, "queue_depth_peak", report.queue.peak_depth as u64);
        raise(counters, "peak_inflight", report.peak_inflight as u64);
        let wire = &report.stats;
        bump(counters, "flushes", wire.flushes);
        bump(counters, "flush_frames", wire.coalesced_frames);
        bump(counters, "transmissions", wire.physical_transmissions);
        bump(counters, "retransmissions", wire.retransmissions);
        bump(
            counters,
            "duplicates_suppressed",
            wire.duplicates_suppressed,
        );
        bump(counters, "acks_lost", wire.acks_lost);
        bump(counters, "failed_links", wire.failed_links.len() as u64);
        raise(counters, "max_ticks_in_phase", wire.max_ticks_in_phase);
        Ok(block)
    }
}

/// Agreement and validity of one decided instance: every correct processor
/// decided, all on the same value, and — the transmitter being correct —
/// on the value submitted.
fn check_instance(outcome: &InstanceOutcome, sent: Value) -> Result<(), String> {
    let run = outcome.result.as_ref().expect("caller filtered on Ok");
    let mut agreed: Option<Value> = None;
    for (p, decision) in run.decisions.iter().enumerate() {
        if !run.correct[p] {
            continue;
        }
        let Some(value) = decision else {
            return Err(format!(
                "instance {}: correct p{p} did not decide",
                outcome.id
            ));
        };
        if *agreed.get_or_insert(*value) != *value {
            return Err(format!(
                "instance {}: correct processors disagree",
                outcome.id
            ));
        }
    }
    if run.correct[0] && agreed.is_some_and(|v| v != sent) {
        return Err(format!(
            "instance {}: decided {:?}, transmitter sent {sent:?}",
            outcome.id, agreed
        ));
    }
    Ok(())
}

impl Workload for SvcWorkload {
    fn run_block(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<Block, String> {
        let driven = self.drive(index, THREADS, tracer)?;
        self.check_and_count(&driven, counters)
    }

    fn probes(&mut self) -> Result<LayerValues, String> {
        let mut out = crypto_probes(N, T, self.seed);
        let ms = |ns: u64| ns as f64 / 1e6;
        out.insert(
            "svc.queue_wait_p50_ms",
            ms(percentile_u64(&mut self.queue_wait_ns, 50.0)),
        );
        out.insert(
            "svc.queue_wait_p99_ms",
            ms(percentile_u64(&mut self.queue_wait_ns, 99.0)),
        );
        out.insert(
            "svc.service_p50_ms",
            ms(percentile_u64(&mut self.service_ns, 50.0)),
        );
        out.insert(
            "svc.latency_p50_ticks",
            percentile_u64(&mut self.latency_ticks, 50.0) as f64,
        );
        out.insert(
            "svc.latency_p99_ticks",
            percentile_u64(&mut self.latency_ticks, 99.0) as f64,
        );

        // The multi-core row: the same block at the host's parallelism
        // against the same block on one thread, both untraced. Reported,
        // never gated.
        let wide = crate::host::available_parallelism();
        let mut rate = |threads: usize| -> Result<f64, String> {
            let driven = self.drive(0, threads, &mut Tracer::new(false))?;
            let block = self.check_and_count(&driven, &mut Counters::new())?;
            Ok(block.decided as f64 / (block.wall_ns as f64 / 1e9))
        };
        let narrow_rate = rate(1)?;
        out.insert("svc.threads2_ratio", rate(wide)? / narrow_rate);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DEFAULT_SEED;

    /// Block 0 of `svc_overload_lossy` at the default seed, in the tick
    /// domain: what was offered, decided, shed and degraded. These are
    /// functions of the seed alone — not of the host, not of the worker
    /// count — so a change that moves them changed the service's
    /// admission, wire or protocol behaviour, not its speed.
    const OFFERED: u64 = 8000;
    const DECIDED: u64 = 5299;
    const SHED: u64 = 2701;
    const DEGRADED: u64 = 0;

    #[test]
    fn overload_lossy_counts_are_exact_in_the_tick_domain() {
        for threads in [1, 2] {
            let mut workload = SvcWorkload::new(OVERLOAD_LOSSY, DEFAULT_SEED);
            let mut counters = Counters::new();
            let driven = workload
                .drive(0, threads, &mut Tracer::new(false))
                .expect("the session runs");
            let block = workload
                .check_and_count(&driven, &mut counters)
                .expect("every check holds");
            assert_eq!(
                (
                    counters["attempted"],
                    counters["decided"],
                    counters["shed"],
                    counters["degraded"]
                ),
                (OFFERED, DECIDED, SHED, DEGRADED),
                "threads = {threads}"
            );
            assert_eq!(block.attempted, OFFERED);
            assert_eq!(block.failed, 0, "shed-oldest never refuses");
            assert_eq!(OFFERED, DECIDED + SHED + DEGRADED);
            assert!(
                block.latencies_ns.len() >= 1100,
                "p99 needs >= 1 100 samples"
            );
        }
    }
}
