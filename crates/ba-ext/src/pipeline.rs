//! The extension protocol's stage sequence, written once.
//!
//! [`run`] is the whole protocol — validate, digest words, dissemination,
//! availability vote, fetch, report — and never touches a phase driver:
//! every stage meets one through [`StageRunner::run`]. The public entry
//! points are its two configurations — [`LockStep`] behind
//! [`run_extension`](crate::run_extension), `net`'s `Stages` behind
//! [`run_extension_net`](crate::net::run_extension_net) — and [`run`] is
//! monomorphised per runner, so neither pays for the seam.

use crate::net::ExtStage;
use crate::{
    apply_spec_faults, assemble_digest_views, available_at, count_repair_requests,
    count_repair_response_bytes, vote_cfg, vote_inputs, word_seed, ExtError, ExtMsg, ExtOptions,
    ExtReport, ExtSetup, DISSEMINATION_PHASES, FETCH_PHASES,
};
use ba_algos::checkable::{CheckConfig, CheckTarget};
use ba_algos::common::Board;
use ba_crypto::{Bytes, Value};
use ba_sim::schedule::ScheduleSpec;
use ba_sim::{Actor, InstanceSpec, Metrics, Payload, RunOutcome};

/// The seam between the stage sequence and a phase driver.
pub(crate) trait StageRunner {
    /// What a stage can fail with; [`run`]'s own validation and
    /// schedule-compile errors convert into it.
    type Error: From<ExtError>;

    /// Worker threads the runner steps with — the one source of every
    /// inner-BA `CheckConfig::threads`.
    fn threads(&self) -> usize;

    /// Runs `spec` to completion as `stage`. The pipeline reads back each
    /// processor's decision (the inner-BA stages' word and vote views; the
    /// grid stages post to a board instead), the correct set and the
    /// metrics.
    fn run<P: Payload + 'static>(
        &mut self,
        stage: ExtStage,
        spec: InstanceSpec<P>,
    ) -> Result<RunOutcome<P>, Self::Error>;
}

/// The synchronous model realized directly: every stage is one lock-step
/// run ([`InstanceSpec::run_lockstep`]). Nothing is observed on a perfect
/// wire, so the stage label and the fault budget go unused and a stage
/// cannot fail.
pub(crate) struct LockStep {
    pub(crate) threads: usize,
}

impl StageRunner for LockStep {
    type Error = ExtError;

    fn threads(&self) -> usize {
        self.threads
    }

    fn run<P: Payload + 'static>(
        &mut self,
        _stage: ExtStage,
        spec: InstanceSpec<P>,
    ) -> Result<RunOutcome<P>, ExtError> {
        Ok(spec.run_lockstep(self.threads))
    }
}

/// The tests' reference: every stage one lock-step run with barrier
/// verification off, so every recipient verifies every delivery in full.
/// Its reports equal [`LockStep`]'s in everything but the `crypto`
/// counters.
#[cfg(test)]
pub(crate) struct Reference;

#[cfg(test)]
impl StageRunner for Reference {
    type Error = ExtError;

    fn threads(&self) -> usize {
        1
    }

    fn run<P: Payload + 'static>(
        &mut self,
        _stage: ExtStage,
        spec: InstanceSpec<P>,
    ) -> Result<RunOutcome<P>, ExtError> {
        let phases = spec.phases;
        Ok(ba_sim::Simulation::from(spec)
            .with_batched_verification(false)
            .run(phases))
    }
}

/// Per-node decisions of consecutive inner-BA instances:
/// `views[instance][node]`.
type Views = Vec<Vec<Option<Value>>>;

/// Runs one `target` inner-BA instance per config, one stage each, in
/// order. Returns their merged metrics and views.
fn run_instances<R: StageRunner>(
    runner: &mut R,
    target: &CheckTarget,
    cfgs: impl Iterator<Item = (ExtStage, CheckConfig)>,
) -> Result<(Metrics, Views), R::Error> {
    let mut metrics = Metrics::default();
    let mut views = Vec::new();
    for (stage, cfg) in cfgs {
        let built = target.build(&cfg).map_err(ExtError::Schedule)?;
        let outcome = runner.run(stage, built.into())?;
        metrics.merge(&outcome.metrics);
        views.push(outcome.decisions);
    }
    Ok((metrics, views))
}

/// Agrees on `payload` through `runner`: `spec`'s faulty processors are
/// faulty in every stage, and `rewrite` splices extension-specific
/// adversaries into the two grid stages (once each).
pub(crate) fn run<R: StageRunner>(
    runner: &mut R,
    payload: &Bytes,
    opts: &ExtOptions,
    spec: &ScheduleSpec,
    rewrite: impl Fn(Vec<Box<dyn Actor<ExtMsg>>>) -> Vec<Box<dyn Actor<ExtMsg>>>,
) -> Result<ExtReport, R::Error> {
    opts.validate().map_err(ExtError::BadOptions)?;
    spec.validate(opts.n, opts.t)
        .map_err(ExtError::BadOptions)?;
    let threads = runner.threads();
    // The sender encodes and signs first: its data-chunk digests are what
    // the payload digest is taken over.
    let setup = ExtSetup::new(opts);
    let outgoing = setup.sign_chunks(payload);
    let digest = outgoing.payload_digest;

    // Stage 1 — digest agreement: one inner-BA run per 64-bit digest word.
    let word_cfgs = digest.chunks_exact(8).enumerate().map(|(w, word)| {
        let word = Value(u64::from_be_bytes(word.try_into().expect("8-byte word")));
        let seed = word_seed(opts.seed, w);
        let cfg = CheckConfig::new(opts.n, opts.t.max(1), word, seed, threads, spec.clone());
        (ExtStage::DigestWord(w), cfg)
    });
    let (inner_metrics, word_views) = run_instances(runner, opts.inner_target(), word_cfgs)?;
    let digest_views = assemble_digest_views(&word_views, opts.n);

    // The two grid stages: schedule faults, then the caller's adversaries,
    // compiled onto the honest actors.
    let run_grid = |runner: &mut R,
                    stage: ExtStage,
                    actors: Vec<Box<dyn Actor<ExtMsg>>>,
                    phases: usize|
     -> Result<RunOutcome<ExtMsg>, R::Error> {
        let actors = apply_spec_faults(actors, spec).map_err(ExtError::Schedule)?;
        let instance = InstanceSpec {
            actors: rewrite(actors),
            phases,
            fault_budget: opts.t,
            link_drops: spec.link_drops.clone(),
            registry: Some(setup.registry.clone()),
        };
        runner.run(stage, instance)
    };

    // Stage 2 — dissemination: run the grid exchange over the signed
    // chunks into provisional decisions.
    let provisional_board = Board::new(opts.n);
    let actors =
        setup.dissemination_actors(opts, payload, &digest_views, &outgoing, &provisional_board);
    let dissemination = run_grid(
        runner,
        ExtStage::Dissemination,
        actors,
        DISSEMINATION_PHASES,
    )?;
    let provisional = provisional_board.snapshot();

    // Stage 3 — availability vote: n one-word inner-BA instances, instance
    // v transmitted by node v.
    let vote_cfgs = vote_inputs(&provisional)
        .into_iter()
        .enumerate()
        .map(|(v, vote)| (ExtStage::Vote(v), vote_cfg(opts, spec, threads, v, vote)));
    let (vote, vote_views) = run_instances(runner, opts.vote_target(), vote_cfgs)?;

    // Stage 4 — payload fetch: nodes lacking the payload pull it from
    // available voters; everyone finalizes the agreed decision.
    let board = Board::new(opts.n);
    let actors = setup.fetch_actors(opts, &digest_views, &provisional, &vote_views, &board);
    let fetch = run_grid(runner, ExtStage::Fetch, actors, FETCH_PHASES)?;

    let availability = fetch
        .correct
        .iter()
        .position(|&c| c)
        .map(|i| available_at(&vote_views, i))
        .unwrap_or_default();
    Ok(ExtReport {
        payload_len: payload.len(),
        data_chunks: opts.data_chunks(),
        digest,
        decisions: board.snapshot(),
        correct: fetch.correct,
        availability,
        repair_requests: count_repair_requests(&dissemination.metrics, &fetch.metrics),
        repair_response_bytes: count_repair_response_bytes(&dissemination.metrics, &fetch.metrics),
        inner_metrics,
        dissemination: dissemination.metrics,
        vote,
        fetch: fetch.metrics,
    })
}
