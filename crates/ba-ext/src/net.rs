//! The extension protocol over the `ba-net` chaos runtime.
//!
//! [`run_extension`](crate::run_extension) realizes the synchronous model
//! directly: every message sent in phase `k` arrives at phase `k + 1`.
//! This module earns that abstraction on an unreliable wire instead. It is
//! the same stage sequence (the crate-private `pipeline`, written once)
//! with a different runner: each of its `n + 6` stages — four digest
//! words, the dissemination grid, `n` one-word votes, the fetch grid — is
//! one standalone [`NetRuntime`] run, one after another, riding the
//! runtime's bounded retransmission, backoff, dedup and phase watchdog
//! under a seeded [`ChaosProfile`] (loss, duplication, delay, reordering).
//! Two contracts:
//!
//! * **Reliable wire ⇒ byte identity.** Under [`ChaosProfile::reliable`]
//!   the whole [`ExtReport`] — decisions and every stage's
//!   [`Metrics`](ba_sim::Metrics) — equals the lock-step report at any
//!   worker count (`tests/net.rs` pins it at 1 and 4 workers, along with
//!   the stage order).
//! * **Chaos ⇒ decide right or degrade loudly.** When a stage's observable
//!   fault set exceeds the budget, the runtime aborts that stage with a
//!   structured [`DegradationVerdict`] and the run surfaces it as
//!   [`ExtNetError::Degraded`] with the failing [`ExtStage`] attached —
//!   the protocol never decides a wrong payload and never splits the
//!   outcome between correct nodes.
//!
//! Each stage draws chaos fates from its own reseeded profile
//! ([`instance_seed`] over a stable per-stage index), so a single profile
//! seed yields independent wire weather per stage, and any stage's run is
//! individually reproducible.

use crate::pipeline::{self, StageRunner};
use crate::{payload_digest, ExtDecision, ExtError, ExtMsg, ExtOptions, ExtReport};
use ba_crypto::{Bytes, ProcessId};
use ba_net::svc::instance_seed;
use ba_net::verdict::{DegradationVerdict, NetStats};
use ba_net::{ChaosProfile, NetConfig, NetRuntime};
use ba_sim::schedule::{ScheduleError, ScheduleSpec};
use ba_sim::trace::Trace;
use ba_sim::{Actor, InstanceSpec, Payload, RunOutcome};

/// Which stage of the extension protocol a wire event belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExtStage {
    /// Digest-word inner-BA run `w` (0..4).
    DigestWord(usize),
    /// The chunk-dissemination grid exchange.
    Dissemination,
    /// Availability-vote inner-BA instance `v` (0..n).
    Vote(usize),
    /// The post-vote payload-fetch round.
    Fetch,
}

impl ExtStage {
    /// A stable per-stage index (words, then dissemination, then the `n`
    /// votes, then fetch) feeding [`instance_seed`], so every stage draws
    /// independent chaos fates from one profile seed.
    fn chaos_index(self, n: usize) -> u64 {
        match self {
            ExtStage::DigestWord(w) => w as u64,
            ExtStage::Dissemination => 4,
            ExtStage::Vote(v) => 5 + v as u64,
            ExtStage::Fetch => 5 + n as u64,
        }
    }
}

impl std::fmt::Display for ExtStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtStage::DigestWord(w) => write!(f, "digest word {w}"),
            ExtStage::Dissemination => write!(f, "dissemination"),
            ExtStage::Vote(v) => write!(f, "vote instance {v}"),
            ExtStage::Fetch => write!(f, "payload fetch"),
        }
    }
}

/// Errors from [`run_extension_net`].
#[derive(Debug)]
pub enum ExtNetError {
    /// The options or schedule failed validation.
    BadOptions(String),
    /// The schedule could not be compiled onto some stage's actors.
    Schedule(ScheduleError),
    /// A stage's observable fault set exceeded the budget: the runtime
    /// aborted with a structured verdict instead of risking a wrong or
    /// split outcome.
    Degraded {
        /// The stage that degraded.
        stage: ExtStage,
        /// The runtime's structured abort.
        verdict: Box<DegradationVerdict>,
    },
}

impl std::fmt::Display for ExtNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtNetError::BadOptions(msg) => write!(f, "bad options: {msg}"),
            ExtNetError::Schedule(err) => write!(f, "schedule error: {err}"),
            ExtNetError::Degraded { stage, verdict } => {
                write!(f, "degraded during {stage}: {verdict}")
            }
        }
    }
}

impl std::error::Error for ExtNetError {}

impl From<ExtError> for ExtNetError {
    fn from(err: ExtError) -> Self {
        match err {
            ExtError::BadOptions(msg) => ExtNetError::BadOptions(msg),
            ExtError::Schedule(err) => ExtNetError::Schedule(err),
        }
    }
}

/// Per-stage physical wire accounting of a net-driven run.
#[derive(Clone, Debug)]
pub struct StageWire {
    /// Which stage this row covers.
    pub stage: ExtStage,
    /// Physical wire statistics (attempts, retransmissions, dedup, acks).
    pub stats: NetStats,
    /// Senders this stage suspected from permanently failed links.
    pub suspected: Vec<ProcessId>,
}

/// One completed net-driven extension run.
#[derive(Debug)]
pub struct ExtNetRun {
    /// The protocol report — byte-identical to the lock-step
    /// [`run_extension`](crate::run_extension) report under a reliable
    /// wire.
    pub report: ExtReport,
    /// Physical wire statistics per stage, in execution order.
    pub wire: Vec<StageWire>,
}

impl ExtNetRun {
    /// Union of all stages' suspected senders, in id order.
    pub fn suspected(&self) -> Vec<ProcessId> {
        let mut all: Vec<ProcessId> = self
            .wire
            .iter()
            .flat_map(|w| w.suspected.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Total physical transmission attempts across all stages.
    pub fn physical_transmissions(&self) -> u64 {
        self.wire
            .iter()
            .map(|w| w.stats.physical_transmissions)
            .sum()
    }
}

/// What every stage of one net-driven run shares — the pipeline's
/// chaos-runtime runner: [`run`](StageRunner::run) is the one place a stage
/// becomes a standalone runtime run.
struct Stages<'a> {
    net: NetConfig,
    chaos: &'a ChaosProfile,
    wire: Vec<StageWire>,
}

impl StageRunner for Stages<'_> {
    type Error = ExtNetError;

    fn threads(&self) -> usize {
        self.net.threads
    }

    /// Runs one stage under its own reseeded chaos profile and records its
    /// wire accounting.
    fn run<P: Payload + 'static>(
        &mut self,
        stage: ExtStage,
        spec: InstanceSpec<P>,
    ) -> Result<RunOutcome<P>, ExtNetError> {
        let seed = instance_seed(self.chaos.seed, stage.chaos_index(spec.actors.len()));
        let run = NetRuntime::new(spec, self.net)
            .with_chaos(self.chaos.clone().reseeded(seed))
            .run()
            .map_err(|verdict| ExtNetError::Degraded { stage, verdict })?;
        self.wire.push(StageWire {
            stage,
            stats: run.stats,
            suspected: run.suspected,
        });
        Ok(RunOutcome {
            decisions: run.decisions,
            correct: run.correct,
            metrics: run.metrics,
            trace: Trace::default(),
        })
    }
}

/// Drives the full extension protocol through the message-passing runtime
/// under `chaos`, with the fault schedule compiled onto every stage and
/// the `rewrite` hook splicing extension-specific adversaries into the
/// dissemination and fetch stages, exactly as in
/// [`run_extension`](crate::run_extension).
///
/// `net.threads` sets the worker count; each stage's fault budget is the
/// schedule's own `t` (`opts.t`, or `t.max(1)` for the inner-BA stages,
/// matching the lock-step configs).
///
/// # Errors
/// [`ExtNetError::BadOptions`] / [`ExtNetError::Schedule`] mirror the
/// lock-step errors; [`ExtNetError::Degraded`] carries the failing stage
/// and the runtime's structured verdict.
pub fn run_extension_net(
    payload: &Bytes,
    opts: &ExtOptions,
    net: &NetConfig,
    chaos: &ChaosProfile,
    spec: &ScheduleSpec,
    rewrite: impl Fn(Vec<Box<dyn Actor<ExtMsg>>>) -> Vec<Box<dyn Actor<ExtMsg>>>,
) -> Result<ExtNetRun, ExtNetError> {
    let mut stages = Stages {
        net: *net,
        chaos,
        wire: Vec::new(),
    };
    let report = pipeline::run(&mut stages, payload, opts, spec, rewrite)?;
    Ok(ExtNetRun {
        report,
        wire: stages.wire,
    })
}

/// Checks that no two correct nodes in `report` disagree on the outcome —
/// same variant, same payload bytes, same abort reason — and that no
/// decided payload mismatches the agreed digest. This is the invariant the
/// `ext` check family gates on, explored and under `check --chaos`.
///
/// # Errors
/// A human-readable description of the first disagreement found.
pub fn outcome_agreement(report: &ExtReport) -> Result<(), String> {
    let mut agreed: Option<(ProcessId, &ExtDecision)> = None;
    for (id, decision) in report.correct_decisions() {
        let Some(decision) = decision else {
            return Err(format!("correct {id} finalized no outcome"));
        };
        if let ExtDecision::Decide(bytes) = decision {
            if payload_digest(report.data_chunks, bytes) != report.digest {
                return Err(format!("correct {id} decided a wrong payload"));
            }
        }
        match &agreed {
            None => agreed = Some((id, decision)),
            Some((first, other)) if *other != decision => {
                return Err(format!(
                    "correct {first} and {id} disagree on the outcome: {} vs {}",
                    describe(other),
                    describe(decision)
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn describe(decision: &ExtDecision) -> String {
    match decision {
        ExtDecision::Decide(payload) => format!("Decide({} bytes)", payload.len()),
        ExtDecision::Abort(reason) => format!("Abort({reason})"),
    }
}
