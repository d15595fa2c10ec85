//! The extension protocol over the `ba-net` chaos runtime.
//!
//! [`run_extension`](crate::run_extension) realizes the synchronous model
//! directly: every message sent in phase `k` arrives at phase `k + 1`.
//! This module earns that abstraction on an unreliable wire instead: all
//! four stages — digest-word agreement, grid dissemination, the
//! availability vote and the payload fetch — run as standalone
//! [`NetRuntime`] runs, one after another (four digest words, the
//! dissemination grid, `n` one-word votes, the fetch grid), each riding
//! the runtime's bounded retransmission, backoff, dedup and phase
//! watchdog under a seeded [`ChaosProfile`] (loss, duplication, delay,
//! reordering). Two contracts:
//!
//! * **Reliable wire ⇒ byte identity.** Under [`ChaosProfile::reliable`]
//!   every stage's decisions and [`Metrics`] are byte-identical to the
//!   lock-step run at any worker count (`tests/net.rs` proves it at 1 and
//!   4 workers).
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
//!
//! The availability vote's `n` one-word instances all share one cluster
//! identity (crate-internal `vote_seed`), which is exactly the service
//! layer's soundness invariant. [`run_extension_net`] does not use that:
//! it runs the votes serially. [`multiplex_votes`] is the separate entry
//! point that pipelines them over one wire through `ba-svc` with a
//! fleet-shared verifier cache and returns the same per-node vote views
//! as the serial path (`tests/net.rs` checks both agree).

use crate::{
    apply_spec_faults, assemble_digest_views, count_repair_requests, count_repair_response_bytes,
    vote_cfg, vote_inputs, word_seed, ExtDecision, ExtMsg, ExtOptions, ExtReport, ExtSetup,
    DISSEMINATION_PHASES, FETCH_PHASES,
};
use ba_algos::checkable::{CheckConfig, CheckTarget};
use ba_algos::common::Board;
use ba_crypto::keys::KeyRegistry;
use ba_crypto::sha256::Sha256;
use ba_crypto::{Bytes, ProcessId, Value};
use ba_net::harness::NetRunError;
use ba_net::svc::instance_seed;
use ba_net::verdict::{DegradationVerdict, NetStats};
use ba_net::{run_target_multiplexed, ChaosProfile, NetConfig, NetOutcome, NetRuntime, SvcConfig};
use ba_sim::schedule::{ScheduleError, ScheduleSpec};
use ba_sim::{Actor, Metrics, Payload};

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

/// What every stage of one net-driven run shares; [`run`](Stages::run) is
/// the one place a stage becomes a standalone runtime run.
struct Stages<'a> {
    net: &'a NetConfig,
    chaos: &'a ChaosProfile,
    spec: &'a ScheduleSpec,
    wire: Vec<StageWire>,
}

impl Stages<'_> {
    /// Runs one stage under its own reseeded chaos profile and records its
    /// wire accounting. The stages differ only in their actors, registry
    /// and fault budget.
    fn run<P: Payload + 'static>(
        &mut self,
        stage: ExtStage,
        actors: Vec<Box<dyn Actor<P>>>,
        phases: usize,
        registry: &KeyRegistry,
        fault_budget: usize,
    ) -> Result<NetOutcome, ExtNetError> {
        let seed = instance_seed(self.chaos.seed, stage.chaos_index(actors.len()));
        let net = self.net.clone().with_fault_budget(fault_budget);
        let outcome = NetRuntime::new(actors, net)
            .with_registry(registry)
            .with_link_drops(self.spec.link_drops.iter().copied())
            .with_chaos(self.chaos.clone().reseeded(seed))
            .run(phases)
            .map_err(|verdict| ExtNetError::Degraded { stage, verdict })?;
        self.wire.push(StageWire {
            stage,
            stats: outcome.stats.clone(),
            suspected: outcome.suspected.clone(),
        });
        Ok(outcome)
    }

    /// Builds `cfg`'s inner-BA instance of `target` and runs it as `stage`.
    fn run_inner(
        &mut self,
        stage: ExtStage,
        target: &CheckTarget,
        cfg: &CheckConfig,
    ) -> Result<NetOutcome, ExtNetError> {
        let built = target.build(cfg).map_err(ExtNetError::Schedule)?;
        self.run(stage, built.actors, built.phases, &built.registry, cfg.t)
    }
}

/// Drives the full extension protocol through the message-passing runtime
/// under `chaos`, with the fault schedule compiled onto every stage and
/// the `rewrite` hook splicing extension-specific adversaries into the
/// dissemination and fetch stages, exactly as in
/// [`run_extension`](crate::run_extension).
///
/// `net.threads` sets the worker count; each stage's fault budget is
/// forced to the schedule's own `t` (`opts.t`, or `t.max(1)` for the
/// inner-BA stages, matching the lock-step configs).
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
    opts.validate().map_err(ExtNetError::BadOptions)?;
    spec.validate(opts.n, opts.t)
        .map_err(ExtNetError::BadOptions)?;
    let digest = Sha256::digest(payload);
    let words: Vec<u64> = digest
        .chunks_exact(8)
        .map(|w| u64::from_be_bytes(w.try_into().expect("8-byte digest word")))
        .collect();
    let mut stages = Stages {
        net,
        chaos,
        spec,
        wire: Vec::new(),
    };

    // Stage 1 — digest agreement.
    let target = opts.inner_target();
    let mut inner_metrics = Metrics::default();
    let mut word_views: Vec<Vec<Option<u64>>> = Vec::with_capacity(words.len());
    for (w, &word) in words.iter().enumerate() {
        let cfg = CheckConfig::new(
            opts.n,
            opts.t.max(1),
            Value(word),
            word_seed(opts.seed, w),
            net.threads,
            spec.clone(),
        );
        let outcome = stages.run_inner(ExtStage::DigestWord(w), target, &cfg)?;
        inner_metrics.merge(&outcome.metrics);
        word_views.push(outcome.decisions.iter().map(|d| d.map(|v| v.0)).collect());
    }
    let digest_views = assemble_digest_views(&word_views, opts.n);

    let setup = ExtSetup::new(opts);

    // Stage 2 — dissemination into provisional decisions.
    let outgoing = setup.sign_chunks(payload);
    let provisional_board = Board::new(opts.n);
    let mut actors =
        setup.dissemination_actors(opts, payload, &digest_views, &outgoing, &provisional_board);
    apply_spec_faults(&mut actors, spec).map_err(ExtNetError::Schedule)?;
    let actors = rewrite(actors);
    let dissemination_outcome = stages.run(
        ExtStage::Dissemination,
        actors,
        DISSEMINATION_PHASES,
        &setup.registry,
        opts.t,
    )?;
    let provisional = provisional_board.snapshot();

    // Stage 3 — availability vote.
    let votes = vote_inputs(&provisional);
    let vote_target = opts.vote_target();
    let mut vote_metrics = Metrics::default();
    let mut vote_views: Vec<Vec<Option<Value>>> = Vec::with_capacity(opts.n);
    for (v, &vote) in votes.iter().enumerate() {
        let cfg = vote_cfg(opts, spec, v, vote);
        let outcome = stages.run_inner(ExtStage::Vote(v), vote_target, &cfg)?;
        vote_metrics.merge(&outcome.metrics);
        vote_views.push(outcome.decisions);
    }

    // Stage 4 — payload fetch and final decisions.
    let board = Board::new(opts.n);
    let mut actors = setup.fetch_actors(opts, &digest_views, &provisional, &vote_views, &board);
    apply_spec_faults(&mut actors, spec).map_err(ExtNetError::Schedule)?;
    let actors = rewrite(actors);
    let fetch_outcome = stages.run(
        ExtStage::Fetch,
        actors,
        FETCH_PHASES,
        &setup.registry,
        opts.t,
    )?;

    let correct = fetch_outcome.correct;
    let availability: Vec<ProcessId> = correct
        .iter()
        .position(|&c| c)
        .map(|i| {
            (0..opts.n)
                .filter(|&v| vote_views[v][i] == Some(Value::ONE))
                .map(|v| ProcessId(v as u32))
                .collect()
        })
        .unwrap_or_default();

    let report = ExtReport {
        payload_len: payload.len(),
        digest,
        decisions: board.snapshot(),
        correct,
        availability,
        repair_requests: count_repair_requests(
            &dissemination_outcome.metrics,
            &fetch_outcome.metrics,
        ),
        repair_response_bytes: count_repair_response_bytes(
            &dissemination_outcome.metrics,
            &fetch_outcome.metrics,
        ),
        inner_metrics,
        dissemination: dissemination_outcome.metrics,
        vote: vote_metrics,
        fetch: fetch_outcome.metrics,
    };
    Ok(ExtNetRun {
        report,
        wire: stages.wire,
    })
}

/// Checks that no two correct nodes in `report` disagree on the outcome —
/// same variant, same payload bytes, same abort reason — and that no
/// decided payload mismatches the agreed digest. This is the invariant the
/// chaos soak and the `ext` check family gate on.
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
            if Sha256::digest(bytes) != report.digest {
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

/// Runs the `n` availability-vote instances through the multiplexing
/// service layer (`ba-svc`): one wire, pipelined phases, per-link batched
/// flushes, one fleet-shared verifier cache. The instances share one
/// cluster identity by construction (crate-internal `vote_seed`), which
/// is exactly the service's cache-sharing soundness invariant; instance
/// `v` differs only by transmitter and vote value.
///
/// `votes[v]` is node `v`'s availability vote, as
/// [`vote_inputs`](crate::vote_inputs) derives it from a provisional
/// board snapshot. Returns `vote_views[instance][node]` — the same shape
/// the serial paths produce, with decisions byte-identical to standalone
/// runs under per-instance reseeded chaos.
///
/// # Errors
/// [`ExtNetError::Schedule`] when the schedule does not compile;
/// [`ExtNetError::Degraded`] with the failing [`ExtStage::Vote`] when an
/// instance degrades.
pub fn multiplex_votes(
    opts: &ExtOptions,
    spec: &ScheduleSpec,
    votes: &[Value],
    svc: &SvcConfig,
    chaos: &ChaosProfile,
) -> Result<Vec<Vec<Option<Value>>>, ExtNetError> {
    opts.validate().map_err(ExtNetError::BadOptions)?;
    let cfgs: Vec<CheckConfig> = votes
        .iter()
        .enumerate()
        .map(|(v, &vote)| vote_cfg(opts, spec, v, vote))
        .collect();
    let run =
        run_target_multiplexed(opts.vote_target(), &cfgs, svc, chaos).map_err(|err| match err {
            NetRunError::Schedule(e) => ExtNetError::Schedule(e),
            NetRunError::Degraded(verdict) => ExtNetError::Degraded {
                stage: ExtStage::Vote(0),
                verdict,
            },
        })?;
    let mut views = Vec::with_capacity(run.runs.len());
    for (v, result) in run.runs.into_iter().enumerate() {
        match result {
            Ok(net_run) => views.push(net_run.decisions),
            Err(verdict) => {
                return Err(ExtNetError::Degraded {
                    stage: ExtStage::Vote(v),
                    verdict,
                })
            }
        }
    }
    Ok(views)
}
