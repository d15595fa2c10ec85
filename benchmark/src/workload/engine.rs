//! `engine_wide`: the lock-step engine at n = 1024, closed loop.
//!
//! One client calls [`dolev_strong::run`] back to back: 1 047 552 messages
//! per run through `ba-sim`'s arena scatter, phase barrier and batched
//! verification, with `ba-crypto` chain work underneath. The service and
//! extension layers do nothing here.

use super::{
    block_ops, bump, bump_run_metrics, crypto_probes, median_ns, Block, Counters, LayerValues,
    Workload, THREADS,
};
use crate::stats::percentile;
use crate::trace::{Tracer, BLOCK_SPAN};
use ba_algos::checkable::{find_target, CheckConfig, CheckSetup};
use ba_algos::dolev_strong::{self, DsOptions, Variant};
use ba_crypto::rng::derive_seed;
use ba_crypto::{Chain, ProcessId, SchemeKind, Value};
use ba_sim::schedule::ScheduleSpec;
use ba_sim::{check_byzantine_agreement, Metrics, RunVerdict, Simulation};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const N: usize = 1024;
const T: usize = 1;
/// Runs per measured block (≈ 0.18 s each on the sizing host).
const RUNS_PER_BLOCK: u64 = 3;

pub struct EngineWorkload {
    seed: u64,
}

impl EngineWorkload {
    pub fn new(seed: u64) -> EngineWorkload {
        EngineWorkload { seed }
    }

    /// The transmitter's (binary) value and the registry seed of run `op`.
    fn inputs(&self, op: u64) -> (Value, u64) {
        let op_seed = derive_seed(self.seed, op);
        (Value(op_seed & 1), op_seed)
    }

    fn options(&self, registry_seed: u64, threads: usize) -> DsOptions {
        DsOptions::new()
            .with_variant(Variant::Broadcast)
            .with_scheme(SchemeKind::Fast)
            .with_threads(threads)
            .with_batch_verify(true)
            .with_seed(registry_seed)
    }

    /// One run through the public entry point, timed as its caller sees it.
    fn run_plain(&self, op: u64) -> Result<Ran, String> {
        let (value, registry_seed) = self.inputs(op);
        let began = Instant::now();
        let report = dolev_strong::run(N, T, value, self.options(registry_seed, THREADS))
            .map_err(|e| format!("run {op}: {e}"))?;
        let took_ns = began.elapsed().as_nanos() as u64;
        Ok(Ran {
            metrics: report.outcome.metrics,
            verdict: report.verdict,
            took_ns,
        })
    }

    /// The same run taken apart at its two layer boundaries, for the
    /// traced repetition: `CheckTarget::build` (registry, keys, actors)
    /// then `Simulation::run`.
    fn run_traced(&self, op: u64, tracer: &mut Tracer) -> Result<Ran, String> {
        let (value, registry_seed) = self.inputs(op);
        let target = find_target("ds-broadcast").expect("ds-broadcast is a registered target");
        let cfg = CheckConfig::new(N, T, value, registry_seed, THREADS, ScheduleSpec::default());
        let began = Instant::now();
        let CheckSetup {
            registry,
            actors,
            phases,
            ..
        } = tracer
            .span("algos.build", || target.build(&cfg))
            .map_err(|e| format!("run {op}: {e}"))?;
        let outcome = tracer.span("sim.run", || {
            Simulation::<Chain>::new(actors)
                .with_threads(THREADS)
                .with_registry(&registry)
                .with_batched_verification(true)
                .run(phases)
        });
        let verdict = tracer
            .span("sim.check", || {
                check_byzantine_agreement(&outcome, ProcessId(0), value)
            })
            .map_err(|e| format!("run {op}: {e}"))?;
        let took_ns = began.elapsed().as_nanos() as u64;
        Ok(Ran {
            metrics: outcome.metrics,
            verdict,
            took_ns,
        })
    }
}

/// What one run produced, however it was driven.
struct Ran {
    metrics: Metrics,
    verdict: RunVerdict,
    took_ns: u64,
}

impl Workload for EngineWorkload {
    fn run_block(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<Block, String> {
        let mut block = Block::default();
        let start = Instant::now();
        let span = tracer.begin(BLOCK_SPAN);
        for op in block_ops(index, RUNS_PER_BLOCK) {
            tracer.set_op(op);
            let ran = if tracer.enabled() {
                self.run_traced(op, tracer)?
            } else {
                self.run_plain(op)?
            };
            let sent = self.inputs(op).0;
            if ran.verdict.agreed != Some(sent) || ran.verdict.correct_count != N {
                return Err(format!(
                    "run {op}: {} correct processors agreed on {:?}, transmitter sent {sent:?}",
                    ran.verdict.correct_count, ran.verdict.agreed
                ));
            }
            block.latencies_ns.push(ran.took_ns);
            let metrics = ran.metrics;
            block.attempted += 1;
            block.decided += 1;
            bump_run_metrics(counters, &metrics);
            bump(counters, "wire_bytes", metrics.wire_bytes());
        }
        tracer.end(span);
        block.wall_ns = start.elapsed().as_nanos() as u64;
        bump(counters, "attempted", block.attempted);
        bump(counters, "decided", block.decided);
        Ok(block)
    }

    fn probes(&mut self) -> Result<LayerValues, String> {
        let mut out = crypto_probes(N, T, self.seed);

        // Per-phase time, from an observer's timestamps. The observer makes
        // the engine keep a copy of every envelope, so it runs here, once,
        // and not inside the traced blocks.
        let (value, registry_seed) = self.inputs(0);
        let target = find_target("ds-broadcast").expect("ds-broadcast is a registered target");
        let cfg = CheckConfig::new(N, T, value, registry_seed, THREADS, ScheduleSpec::default());
        let setup = target.build(&cfg).map_err(|e| e.to_string())?;
        let stamps: Rc<RefCell<Vec<Instant>>> = Rc::new(RefCell::new(vec![Instant::now()]));
        let sink = Rc::clone(&stamps);
        let mut sim = Simulation::<Chain>::new(setup.actors)
            .with_registry(&setup.registry)
            .with_batched_verification(true)
            .with_observer(Box::new(move |_, _| sink.borrow_mut().push(Instant::now())));
        stamps.borrow_mut()[0] = Instant::now();
        let outcome = sim.run(setup.phases);
        check_byzantine_agreement(&outcome, ProcessId(0), value).map_err(|e| e.to_string())?;
        let phase_ms: Vec<f64> = stamps
            .borrow()
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        out.insert("sim.phase_ms_p50", percentile(&phase_ms, 50.0));
        out.insert("sim.phase_ms_max", percentile(&phase_ms, 100.0));

        // The multi-core row: the same run at the host's parallelism
        // against one thread, both untraced. Reported, never gated.
        let wide = crate::host::available_parallelism();
        let run_ns = |threads: usize| {
            median_ns(3, || {
                dolev_strong::run(N, T, value, self.options(registry_seed, threads))
                    .expect("fault-free run agrees");
            })
        };
        let narrow = run_ns(1);
        out.insert("sim.threads2_speedup", narrow / run_ns(wide));
        Ok(out)
    }
}
