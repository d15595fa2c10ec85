//! Binding between the runtime and the `ba-algos` checkable registry: run
//! any [`CheckTarget`] over the message-passing runtime, and prove
//! byte-identical equivalence with the lock-step engine under a reliable
//! wire.

use crate::chaos::ChaosProfile;
use crate::runtime::{NetConfig, NetRuntime};
use crate::svc::{BaService, InstanceRun, SvcConfig};
use crate::verdict::{DegradationVerdict, NetStats};
use ba_algos::checkable::{CheckConfig, CheckTarget};
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::schedule::ScheduleError;
use ba_sim::trace::Trace;
use ba_sim::{
    check_byzantine_agreement, AgreementViolation, InstanceSpec, Metrics, RunOutcome, RunVerdict,
};
use std::time::Duration;

/// Why a net-driven check run produced no decisions.
#[derive(Clone, Debug)]
pub enum NetRunError {
    /// The schedule could not be compiled onto the target's actors.
    Schedule(ScheduleError),
    /// The runtime aborted with a graceful-degradation verdict.
    Degraded(Box<DegradationVerdict>),
}

impl std::fmt::Display for NetRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetRunError::Schedule(err) => write!(f, "schedule error: {err}"),
            NetRunError::Degraded(verdict) => write!(f, "{verdict}"),
        }
    }
}

impl std::error::Error for NetRunError {}

/// One completed net-driven run of a checkable target.
#[derive(Clone, Debug)]
pub struct NetRun {
    /// Each processor's decision.
    pub decisions: Vec<Option<Value>>,
    /// Correctness flags after suspicion (see [`InstanceRun::correct`]).
    pub correct: Vec<bool>,
    /// Logical traffic accounting.
    pub metrics: Metrics,
    /// Physical wire statistics.
    pub stats: NetStats,
    /// Suspected senders, in id order.
    pub suspected: Vec<ProcessId>,
    /// The Byzantine Agreement verdict over the post-suspicion correct
    /// set.
    pub agreement: Result<RunVerdict, AgreementViolation>,
}

impl NetRun {
    /// Whether the run violated Byzantine Agreement — on a sound target
    /// under within-budget chaos this must never be true.
    pub fn violated(&self) -> bool {
        self.agreement.is_err()
    }

    /// Judges a completed instance of `cfg` — standalone or multiplexed,
    /// the driver hands back the same type.
    fn judge(run: InstanceRun, cfg: &CheckConfig) -> NetRun {
        // The checker only reads decisions and correctness flags; metrics
        // and trace in the shim outcome are irrelevant to the verdict.
        let shim: RunOutcome<Chain> = RunOutcome {
            decisions: run.decisions.clone(),
            correct: run.correct.clone(),
            metrics: Metrics::default(),
            trace: Trace::default(),
        };
        NetRun {
            agreement: check_byzantine_agreement(&shim, cfg.transmitter, cfg.value),
            decisions: run.decisions,
            correct: run.correct,
            metrics: run.metrics,
            stats: run.stats,
            suspected: run.suspected,
        }
    }
}

/// Runs `target` under `cfg`'s schedule through the message-passing
/// runtime: the built setup, link drops and budget `cfg.t` included, is the
/// runtime's [`InstanceSpec`], stepped on `net.threads` workers.
///
/// # Errors
/// [`NetRunError::Schedule`] when the schedule does not compile,
/// [`NetRunError::Degraded`] when the runtime aborted.
pub fn run_target(
    target: &CheckTarget,
    cfg: &CheckConfig,
    net: &NetConfig,
    chaos: &ChaosProfile,
) -> Result<NetRun, NetRunError> {
    let setup = target.build(cfg).map_err(NetRunError::Schedule)?;
    let outcome = NetRuntime::new(setup.into(), *net)
        .with_chaos(chaos.clone())
        .run()
        .map_err(NetRunError::Degraded)?;
    Ok(NetRun::judge(outcome, cfg))
}

/// One multiplexed service run over a fleet of checkable-target instances.
#[derive(Debug)]
pub struct MultiplexRun {
    /// Per instance, in admission order: the completed run (with its own
    /// agreement verdict) or that instance's degradation verdict.
    pub runs: Vec<Result<NetRun, Box<DegradationVerdict>>>,
    /// Per instance, in submission order: wall-clock
    /// submission-to-decision latency (queue wait included).
    pub latencies: Vec<Duration>,
    /// Fleet-wide wire statistics, including the flush-coalescing
    /// counters.
    pub stats: NetStats,
    /// Service ticks executed.
    pub ticks: u64,
    /// Wall-clock duration of the whole service run.
    pub elapsed: Duration,
}

/// Runs one instance of `target` per entry of `cfgs` through the
/// multiplexing service ([`BaService`]): pipelined phases, shared-wire
/// batched flushes.
///
/// Instance `i` draws chaos fates from
/// [`instance_seed`](crate::svc::instance_seed)`(chaos.seed, i)`, so its
/// outcome is byte-identical to [`run_target`] under
/// `chaos.reseeded(instance_seed(chaos.seed, i))`.
///
/// # Errors
/// [`NetRunError::Schedule`] when any instance's schedule does not
/// compile. Per-instance degradation is *not* an error: it lands in that
/// instance's slot of [`MultiplexRun::runs`].
pub fn run_target_multiplexed(
    target: &CheckTarget,
    cfgs: &[CheckConfig],
    svc: &SvcConfig,
    chaos: &ChaosProfile,
) -> Result<MultiplexRun, NetRunError> {
    let mut specs = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        specs.push(target.build(cfg).map_err(NetRunError::Schedule)?.into());
    }
    let mut cfg_svc = svc.clone();
    cfg_svc.queue_capacity = cfg_svc.queue_capacity.max(specs.len());
    let service = BaService::new(cfg_svc).with_chaos(chaos.clone());
    let mut session = service.session();
    for spec in specs {
        session
            .submit(spec)
            .expect("queue widened to hold the whole fleet");
    }
    let report = session.drain();

    let mut runs = Vec::with_capacity(report.outcomes.len());
    let mut latencies = Vec::with_capacity(report.outcomes.len());
    for (outcome, cfg) in report.outcomes.into_iter().zip(cfgs) {
        latencies.push(outcome.latency());
        runs.push(outcome.result.map(|run| NetRun::judge(run, cfg)));
    }
    Ok(MultiplexRun {
        runs,
        latencies,
        stats: report.stats,
        ticks: report.ticks,
        elapsed: report.elapsed,
    })
}

/// Proves the runtime and the lock-step engine agree byte-for-byte on
/// `target` under `cfg` with a reliable wire and `threads` workers.
///
/// # Errors
/// A description of the first divergence: decisions, correctness flags, or
/// any [`Metrics`] field.
pub fn check_equivalence(
    target: &CheckTarget,
    cfg: &CheckConfig,
    threads: usize,
) -> Result<(), String> {
    let setup = target
        .build(cfg)
        .map_err(|e| format!("schedule error: {e}"))?;
    let engine = InstanceSpec::from(setup).run_lockstep(cfg.threads);
    let netcfg = NetConfig::new().with_threads(threads);
    let net = run_target(target, cfg, &netcfg, &ChaosProfile::reliable())
        .map_err(|e| format!("net run under reliable wire: {e}"))?;

    if net.decisions != engine.decisions {
        return Err(format!(
            "decisions diverge: engine {:?}, net {:?}",
            engine.decisions, net.decisions
        ));
    }
    if net.correct != engine.correct {
        return Err(format!(
            "correct flags diverge: engine {:?}, net {:?}",
            engine.correct, net.correct
        ));
    }
    if net.metrics != engine.metrics {
        return Err(format!(
            "metrics diverge:\n  engine: {:?}\n  net:    {:?}",
            engine.metrics, net.metrics
        ));
    }
    if !net.suspected.is_empty() {
        return Err(format!(
            "reliable wire suspected {:?} — nothing should fail",
            net.suspected
        ));
    }
    Ok(())
}
