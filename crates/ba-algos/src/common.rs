//! Shared vocabulary for the algorithm implementations.
//!
//! Every `run` takes one [`RunOptions`], builds its instance with
//! `instance` — schedule in, one [`InstanceSpec`] out — and ends in
//! `run_instance`, which honours the options' threads and trace; a BA run
//! checks the outcome through `run_report`. A module
//! the checker registers exposes that build as its public `build`, so its
//! `run` and its check targets construct the same actors the same way.

use crate::fuzz::ChainFuzzer;
use ba_crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Signer, Value};
use ba_sim::engine::{InstanceSpec, RunOutcome};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use ba_sim::{Actor, AgreementViolation, Envelope, Inbox, Outbox, Payload, RunVerdict, Simulation};
use std::collections::BTreeMap;

/// Chain/signature domain tags, one per protocol message space, so a
/// signature produced inside one algorithm can never be replayed into
/// another (see [`ba_crypto::Chain`]).
pub mod domains {
    /// Algorithm 1 "correct 1-message" chains.
    pub const ALG1: u32 = 1;
    /// Algorithm 2 increasing messages; also Algorithm 5's *valid
    /// messages*, which are exactly Algorithm 2 outputs extended by passive
    /// signatures.
    pub const ALG2: u32 = 2;
    /// Dolev–Strong relay chains.
    pub const DOLEV_STRONG: u32 = 3;
    /// Algorithm 4 grid items (per-item signatures).
    pub const GRID: u32 = 4;
    /// Algorithm 5 strings (`[F(p, x), x]` lists signed by one active).
    pub const ALG5_STRING: u32 = 5;
    /// `OM(t)` oral messages (relay paths signed under `SchemeKind::Oral`).
    pub const OM: u32 = 6;
    /// Base for Algorithm 3 per-group collection chains; group `g` uses
    /// `ALG3_GROUP_BASE + g`.
    pub const ALG3_GROUP_BASE: u32 = 1_000;
    /// The deliberately under-communicating broadcasts `ba-model`'s
    /// lower-bound attacks break.
    pub const FRUGAL: u32 = 7_777;
}

/// A shared, post-run-readable slot per processor.
///
/// Actors deposit artifacts that are not decisions — Algorithm 2's
/// transferable proofs, Algorithm 5's valid messages — and runners read
/// them after the simulation finishes.
///
/// The board is write-only during a run: actors [`post`](Self::post),
/// and only the caller reads, through [`snapshot`](Self::snapshot), once
/// the run is over. An actor that read another processor's slot mid-run
/// would learn something outside its own subhistory, which Section 2's
/// correct processor cannot; `ba_model::locality` catches it.
#[derive(Debug)]
pub struct Board<T> {
    slots: std::sync::Mutex<Vec<Option<T>>>,
}

impl<T: Clone> Board<T> {
    /// Creates a board with `n` empty slots.
    pub fn new(n: usize) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Board {
            slots: std::sync::Mutex::new(vec![None; n]),
        })
    }

    /// Deposits `value` into `id`'s slot (replacing any previous deposit).
    pub fn post(&self, id: ProcessId, value: T) {
        self.slots.lock().expect("board lock")[id.index()] = Some(value);
    }

    /// Snapshot of all slots.
    pub fn snapshot(&self) -> Vec<Option<T>> {
        self.slots.lock().expect("board lock").clone()
    }
}

/// The settings of one run, taken by every single-instance `run`:
/// `algorithm1`, `algorithm1_multi`, `algorithm2`, `algorithm3`,
/// `algorithm4` (and its `relay_exchange`), `algorithm5`,
/// [`agree`](crate::agree()), `dolev_strong`, `ic` and `om`. Construct
/// with [`new`](RunOptions::new)/[`default`](RunOptions::default) and the
/// `with_*` builders (the same convention as `SvcConfig`, `NetConfig` and
/// `ExtOptions`).
///
/// `M` is a module's own setting; only Dolev–Strong has one, its
/// [`Variant`](crate::dolev_strong::Variant)
/// ([`DsOptions`](crate::dolev_strong::DsOptions)).
///
/// Defaults: no fault, seed 0, the HMAC scheme, sequential stepping, no
/// trace, and `M`'s default — for Dolev–Strong the broadcast variant.
/// The default for `M` does not guide inference, so a value bound before
/// any `run` sees it needs its type spelled, as below.
///
/// ```
/// use ba_algos::common::RunOptions;
/// use ba_algos::dolev_strong::{DsOptions, Variant};
/// use ba_crypto::SchemeKind;
///
/// let o: RunOptions = RunOptions::new();
/// assert!(o.schedule.faults.is_empty() && o.schedule.link_drops.is_empty());
/// assert_eq!((o.seed, o.scheme, o.threads, o.trace), (0, SchemeKind::Hmac, 0, false));
/// assert_eq!(DsOptions::new().variant, Variant::Broadcast);
/// ```
#[derive(Debug, Default)]
pub struct RunOptions<M = ()> {
    /// Fault schedule, compiled with the module's adversary hook (each
    /// `run` documents the behaviours it maps).
    pub schedule: ScheduleSpec,
    /// Key-registry seed.
    pub seed: u64,
    /// Signature scheme.
    pub scheme: SchemeKind,
    /// Worker threads for intra-phase stepping (`0`/`1` = sequential).
    /// Results are byte-identical for any value — see
    /// [`Simulation::with_threads`].
    pub threads: usize,
    /// Record a full message trace on the outcome.
    pub trace: bool,
    /// The module's own setting (`()` for all but Dolev–Strong).
    pub variant: M,
}

impl<M: Default> RunOptions<M> {
    /// The default options; chain `with_*` builders to customize.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M> RunOptions<M> {
    /// Sets the fault schedule.
    pub fn with_schedule(mut self, schedule: ScheduleSpec) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the key-registry seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the signature scheme.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the worker-thread count for intra-phase stepping.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets whether the outcome carries a message trace.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Outcome of running one algorithm scenario: the raw simulation outcome
/// plus the checked Byzantine Agreement verdict.
#[derive(Debug)]
pub struct AlgoReport<P> {
    /// Raw engine outcome (decisions, metrics, optional trace).
    pub outcome: RunOutcome<P>,
    /// The checked agreement verdict.
    pub verdict: RunVerdict,
}

/// Convenience: checks the outcome and wraps it into an [`AlgoReport`].
///
/// # Errors
/// Propagates the [`AgreementViolation`] when the run broke agreement —
/// which legitimate scenarios never do; the lower-bound attack experiments
/// in `ba-model` intentionally trigger violations and handle the error.
pub fn into_report<P: Payload>(
    outcome: RunOutcome<P>,
    transmitter: ProcessId,
    sent: Value,
) -> Result<AlgoReport<P>, AgreementViolation> {
    let verdict = ba_sim::check_byzantine_agreement(&outcome, transmitter, sent)?;
    Ok(AlgoReport { outcome, verdict })
}

/// What every algorithm's build does with its schedule: validate it
/// against `(n, t)`, [`compile`](ScheduleSpec::compile) it with the
/// algorithm's `adversary` hook, and pack the actors with the schedule's
/// link drops, the fault budget `t`, the phase count and the keys into one
/// [`InstanceSpec`]. With the keys in the spec, every chain a payload
/// hands over is verified once at the phase barrier (DESIGN §10.3).
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a behaviour the hook does not map.
///
/// # Panics
/// On a malformed schedule — like every other bad parameter of a run.
pub(crate) fn instance<P: Payload + 'static>(
    schedule: &ScheduleSpec,
    (n, t, phases): (usize, usize, usize),
    registry: &KeyRegistry,
    honest: impl FnMut(ProcessId) -> Box<dyn Actor<P>>,
    adversary: impl FnMut(ProcessId, &FaultBehavior) -> Option<Box<dyn Actor<P>>>,
) -> Result<InstanceSpec<P>, ScheduleError> {
    if let Err(err) = schedule.validate(n, t) {
        panic!("invalid schedule: {err}");
    }
    Ok(InstanceSpec {
        actors: schedule.compile(n, honest, adversary)?,
        phases,
        fault_budget: t,
        link_drops: schedule.link_drops.clone(),
        registry: Some(registry.clone()),
    })
}

/// Runs a standalone [`instance`] lock-step across `options.threads`
/// worker chunks, recording a trace when `options.trace` asks for one.
///
/// # Panics
/// If the build failed on a behaviour the algorithm's hook does not map —
/// like every other bad parameter of a standalone run.
pub(crate) fn run_instance<P: Payload, M>(
    built: Result<InstanceSpec<P>, ScheduleError>,
    options: &RunOptions<M>,
) -> RunOutcome<P> {
    let spec = built.unwrap_or_else(|err| panic!("{err}"));
    if options.trace {
        let phases = spec.phases;
        let sim = Simulation::from(spec).with_threads(options.threads);
        sim.with_trace().run(phases)
    } else {
        spec.run_lockstep(options.threads)
    }
}

/// [`run_instance`], then checks the outcome with `p0` as the transmitter
/// of `sent`.
///
/// # Errors
/// Propagates the [`AgreementViolation`], as [`into_report`] does.
///
/// # Panics
/// As [`run_instance`] does.
pub(crate) fn run_report<P: Payload, M>(
    built: Result<InstanceSpec<P>, ScheduleError>,
    options: &RunOptions<M>,
    sent: Value,
) -> Result<AlgoReport<P>, AgreementViolation> {
    into_report(run_instance(built, options), ProcessId(0), sent)
}

/// The faulty transmitter of a signature-chain protocol, the defining
/// Byzantine move of the signed-message model: in phase 1 it signs each
/// distinct value once under its domain and sends every other processor
/// `q` the chain for `values[q]`; then it stays silent.
#[derive(Debug)]
pub struct SplitTransmitter {
    signer: Signer,
    domain: u32,
    values: Vec<Value>,
}

impl SplitTransmitter {
    /// Creates the transmitter signing as `signer` under `domain`; the
    /// `q`-th of `values` is what processor `q` is sent (the signer's own
    /// entry is ignored).
    pub fn new(signer: Signer, domain: u32, values: impl IntoIterator<Item = Value>) -> Self {
        let values = values.into_iter().collect();
        SplitTransmitter {
            signer,
            domain,
            values,
        }
    }
}

impl Actor<Chain> for SplitTransmitter {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        if phase != 1 {
            return;
        }
        let mut signed: BTreeMap<Value, Chain> = BTreeMap::new();
        for (q, &value) in self.values.iter().enumerate() {
            let q = ProcessId(q as u32);
            if q == self.signer.id() {
                continue;
            }
            let chain = signed.entry(value).or_insert_with(|| {
                let mut chain = Chain::new(self.domain, value);
                chain.sign_and_append(&self.signer);
                chain
            });
            out.send(q, chain.clone());
        }
    }
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// The adversary hook every signature-chain protocol's own hook falls
/// through to, with the domain its transmitter signs in:
/// `Equivocate { ones }` is a [`SplitTransmitter`] signing `1` for `ones`
/// and `0` for everyone else, `Forge` a [`ChainFuzzer`] spammer, and
/// every other behaviour is unmapped.
pub(crate) fn chain_adversary(
    registry: &KeyRegistry,
    domain: u32,
    p: ProcessId,
    behavior: &FaultBehavior,
) -> Option<Box<dyn Actor<Chain>>> {
    match behavior {
        FaultBehavior::Equivocate { ones } => {
            let values =
                (0..registry.len() as u32).map(|q| match ones.binary_search(&ProcessId(q)) {
                    Ok(_) => Value::ONE,
                    Err(_) => Value::ZERO,
                });
            Some(Box::new(SplitTransmitter::new(
                registry.signer(p),
                domain,
                values,
            )))
        }
        FaultBehavior::Forge { seed, per_phase } => {
            Some(ChainFuzzer::spammer(registry, p, *seed, *per_phase))
        }
        _ => None,
    }
}

/// A nested protocol's share of `inbox`: each message `pick` maps to a
/// `Q`, as an owned envelope `Inbox::of` can view. Only what is picked is
/// cloned.
pub(crate) fn project<P, Q: Clone>(
    inbox: Inbox<'_, P>,
    pick: impl Fn(&P) -> Option<&Q>,
) -> Vec<Envelope<Q>> {
    inbox
        .iter()
        .filter_map(|e| {
            pick(e.payload).map(|q| Envelope {
                from: e.from,
                to: e.to,
                payload: q.clone(),
            })
        })
        .collect()
}

/// Sends what a nested protocol staged in `scratch` through `out`, each
/// payload wrapped by `wrap`, in staging order.
pub(crate) fn lift<Q: Payload, P: Payload>(
    scratch: Outbox<Q>,
    out: &mut Outbox<P>,
    wrap: impl Fn(Q) -> P,
) {
    for env in scratch.into_staged() {
        out.send(env.to, wrap(env.payload));
    }
}

/// A faulty processor that broadcasts `payload` to everyone in `phase`
/// and does nothing else: the forger of the barrier soundness tests.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct OneShot<P> {
    pub(crate) n: usize,
    pub(crate) phase: usize,
    pub(crate) payload: P,
}

#[cfg(test)]
impl<P: Payload> Actor<P> for OneShot<P> {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        if phase == self.phase {
            out.broadcast_all(self.n, self.payload.clone());
        }
    }
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// Runs `spec()` verifying at the phase barrier and on the per-recipient
/// reference (`with_batched_verification(false)`), asserts that the two
/// agree on decisions, the correct set and [`Metrics`](ba_sim::Metrics)
/// without crypto, and returns the barrier run.
#[cfg(test)]
pub(crate) fn barrier_matches_reference<P: Payload>(
    spec: impl Fn() -> InstanceSpec<P>,
) -> RunOutcome<P> {
    let run = |barrier: bool| {
        let spec = spec();
        let phases = spec.phases;
        Simulation::from(spec)
            .with_batched_verification(barrier)
            .run(phases)
    };
    // The reference runs first, so no stamp the barrier run wrote (were
    // one ever written in error) can answer its checks.
    let reference = run(false);
    let barrier = run(true);
    assert_eq!(barrier.decisions, reference.decisions);
    assert_eq!(barrier.correct, reference.correct);
    assert_eq!(
        barrier.metrics.without_crypto(),
        reference.metrics.without_crypto()
    );
    barrier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_are_pairwise_distinct() {
        let all = [
            domains::ALG1,
            domains::ALG2,
            domains::DOLEV_STRONG,
            domains::GRID,
            domains::ALG5_STRING,
            domains::OM,
            domains::ALG3_GROUP_BASE,
            domains::FRUGAL,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
