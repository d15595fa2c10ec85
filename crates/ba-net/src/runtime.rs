//! The standalone message-passing runtime: one BA instance over the
//! unreliable wire, run to completion.
//!
//! # Architecture
//!
//! [`NetRuntime::run`] is a thin loop over one phase driver (the
//! crate-private `driver` module) — the very code a
//! [`SvcSession`](crate::svc::SvcSession) runs per ticket, configured as a
//! fleet of one: chaos fates seeded with the profile's own seed, every
//! frame its own wire flush. The driver in turn is the unreliable-wire
//! loop around [`ba_sim::PhaseCore`], the phase implementation the
//! lock-step engine shares. Each phase proceeds as:
//!
//! 1. **step** — the core steps the actors in up to
//!    [`NetConfig::threads`] contiguous ascending chunks on the shared
//!    worker pool (one chunk runs inline), each chunk returning its
//!    thread-local `CryptoStats` delta;
//! 2. **watchdog** — an actor that panics while being stepped, or a step
//!    that returns after more than 5 s (`PHASE_WATCHDOG`), aborts
//!    the run with a [`WorkerStalled`] verdict instead of a panic. A step
//!    that *never* returns is not contained: that needed actors on a
//!    leaked detached thread, and no actor in the workspace blocks;
//! 3. **wire** — the core routes what was staged (suppressed sends,
//!    nonexistent receivers and the spec's scheduled link drops accounted
//!    in actor-id order) and the surviving frames' links are played over
//!    the wire: chaos-rolled loss, delay, duplication, acks, at most four
//!    retransmissions with exponential backoff, 128 virtual ticks a phase.
//!    A reliable profile's wire is not played: every frame would arrive
//!    on its first attempt in staging order, so the driver records that
//!    answer's statistics and the phase is delivered in lock step;
//! 4. **budget** — permanently failed links make their *senders* suspected
//!    (an omission-faulty sender explains every lost frame). While the
//!    union of scheduled-faulty and suspected processors stays within the
//!    spec's budget `t` the run degrades gracefully — suspects are reported
//!    `correct = false` so the agreement checker holds them to nothing.
//!    The moment the union exceeds `t` the model is broken and the run
//!    aborts with a [`FaultBudgetExceeded`] verdict: no decisions are
//!    produced, because none could be trusted;
//! 5. **fill** — the core indexes the messages into next phase's inboxes
//!    in the order the wire says they arrived (a broadcast's payload is
//!    held once, however many of its links made it), records them in
//!    `Metrics`, and verifies the delivered chains at the barrier.
//!
//! # Equivalence with the lock-step engine
//!
//! Under [`ChaosProfile::reliable`] every frame arrives on its first
//! attempt in staging order — the driver delivers the phase in lock step,
//! as [`ba_sim::Simulation`] does — so inbox contents, metrics and
//! decisions are byte-identical to it at any worker-thread count —
//! the `harness` module checks this for every checkable target. It is one
//! implementation under two loops, not two that agree: stepping, routing,
//! `Metrics` recording, the inbox fill and barrier verification
//! ([`ba_crypto::stamp`], against the spec's registry) are the core's, and the wire is the only
//! variable: [`NetRuntime::new`] takes the very [`InstanceSpec`] that
//! [`InstanceSpec::run_lockstep`] runs.
//!
//! [`WorkerStalled`]: crate::verdict::DegradationReason::WorkerStalled
//! [`FaultBudgetExceeded`]: crate::verdict::DegradationReason::FaultBudgetExceeded
//! [`ChaosProfile::reliable`]: crate::chaos::ChaosProfile::reliable

use crate::chaos::ChaosProfile;
use crate::driver::{InstanceRun, PhaseDriver};
use crate::verdict::DegradationVerdict;
use crate::wire::WireScratch;
use ba_sim::{InstanceSpec, Payload};
use std::time::Duration;

/// The wall-clock watchdog on each phase of a standalone run: a step
/// fan-out that takes longer than this is declared stalled once it
/// returns.
const PHASE_WATCHDOG: Duration = Duration::from_secs(5);

/// The runtime's one knob. Construct with
/// [`NetConfig::new`]/[`default`](NetConfig::default) and
/// [`with_threads`](NetConfig::with_threads) (the same convention as
/// `SvcConfig`, `RunOptions` and `ExtOptions`). The wire's
/// retry policy (4 retransmissions, 128 ticks per phase) and the 5 s phase
/// watchdog are constants; the fault budget is the instance's own
/// ([`InstanceSpec::fault_budget`]).
///
/// Default: `threads = 1`.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Worker chunks the actors are stepped in (clamped to at least 1 and
    /// at most the actor count).
    pub threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { threads: 1 }
    }
}

impl NetConfig {
    /// The default configuration; chain `with_*` builders to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A message-passing run of one [`InstanceSpec`]. Build with
/// [`NetRuntime::new`], pick a chaos profile, then [`run`](NetRuntime::run)
/// — the runtime is consumed because the actors move into the run's phase
/// driver.
pub struct NetRuntime<P: Payload> {
    spec: InstanceSpec<P>,
    config: NetConfig,
    chaos: ChaosProfile,
}

impl<P: Payload> std::fmt::Debug for NetRuntime<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("spec", &self.spec)
            .field("config", &self.config)
            .field("chaos", &self.chaos)
            .finish()
    }
}

impl<P: Payload + 'static> NetRuntime<P> {
    /// Creates a runtime over `spec`: its actors (actor `i` is processor
    /// `i`), phases, fault budget, link drops and keys.
    pub fn new(spec: InstanceSpec<P>, config: NetConfig) -> Self {
        NetRuntime {
            spec,
            config,
            chaos: ChaosProfile::reliable(),
        }
    }

    /// Injects the chaos profile the wire rolls against (default:
    /// [`ChaosProfile::reliable`]).
    pub fn with_chaos(mut self, chaos: ChaosProfile) -> Self {
        self.chaos = chaos;
        self
    }

    /// Runs the instance's phases, then finalizes.
    ///
    /// # Errors
    /// A [`DegradationVerdict`] (boxed — the verdict carries full wire
    /// statistics) when the observable fault set exceeds the budget, a
    /// phase's delivery deadline is blown, an actor panics while being
    /// stepped, or a step fan-out overruns the watchdog. The runtime never
    /// panics on wire failures and never returns decisions from a run
    /// whose fault assumptions broke.
    pub fn run(self) -> Result<InstanceRun, Box<DegradationVerdict>> {
        let NetRuntime {
            spec,
            config,
            chaos,
        } = self;
        let mut driver = PhaseDriver::new(spec, &chaos, chaos.seed, Some(PHASE_WATCHDOG));
        let mut scratch = WireScratch::default();
        loop {
            driver.step(config.threads);
            // A standalone runtime flushes each frame as its own wire
            // send; only the service layer coalesces.
            driver.note_solo_flushes();
            if let Some(result) = driver.deliver(&chaos, &mut scratch).transpose() {
                return result;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_algos::checkable::{find_target, CheckConfig};
    use ba_algos::domains;
    use ba_crypto::keys::{KeyRegistry, SchemeKind};
    use ba_crypto::{Chain, ProcessId, Value};
    use ba_sim::schedule::ScheduleSpec;
    use ba_sim::{Actor, Inbox, Outbox, Simulation};

    /// Faulty relay: broadcasts `forged` in `phase` and nothing else.
    #[derive(Debug)]
    struct Forger {
        n: usize,
        phase: usize,
        forged: Chain,
    }

    impl Actor<Chain> for Forger {
        fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            if phase == self.phase {
                out.broadcast_all(self.n, self.forged.clone());
            }
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn is_correct(&self) -> bool {
            false
        }
    }

    /// `ds-broadcast` at `cfg` with `forged`'s last signer replaced by a
    /// [`Forger`] of it in `phase`, on the lock-step per-delivery reference
    /// and on the runtime: both agree, every other processor decides
    /// `cfg`'s value, and `forged` is never stamped.
    fn every_recipient_rejects(cfg: &CheckConfig, phase: usize, forged: &Chain) {
        let target = find_target("ds-broadcast").expect("registered target");
        let n = cfg.n;
        let forger = forged.last_signer().expect("a signed chain").index();
        let build = || {
            let mut setup = target.build(cfg).expect("fault-free schedule");
            setup.actors[forger] = Box::new(Forger {
                n,
                phase,
                forged: forged.clone(),
            });
            setup
        };

        let setup = build();
        let phases = setup.phases;
        let reference = Simulation::from(InstanceSpec::from(setup))
            .with_batched_verification(false)
            .run(phases);

        let setup = build();
        let verifier = setup.registry.verifier();
        let net = NetRuntime::new(setup.into(), NetConfig::new())
            .run()
            .expect("reliable wire, one scheduled fault");
        // `forged` shares its buffer with every delivered copy: had the
        // flush-boundary pass stamped it, this would be a stamp hit.
        assert!(forged.verify(&verifier).is_err());

        let mut expected = vec![Some(cfg.value); n];
        expected[forger] = None;
        assert_eq!(net.decisions, expected);
        assert_eq!(net.decisions, reference.decisions);
        assert_eq!(net.correct, reference.correct);
        assert_eq!(
            net.metrics.without_crypto(),
            reference.metrics.without_crypto()
        );
    }

    #[test]
    fn chain_failing_barrier_verification_is_rejected_by_every_recipient() {
        // p1 relays a well-formed length-2 Dolev–Strong chain for value 9
        // whose signatures come from a *different* registry seed. A
        // recipient waved through by a stamp would extract a second value
        // and fall back to the default decision.
        let cfg = CheckConfig::new(6, 2, Value::ONE, 11, 1, ScheduleSpec::default());
        let foreign = KeyRegistry::new(cfg.n, 12, SchemeKind::Fast);
        let mut forged = Chain::new(domains::DOLEV_STRONG, Value(9));
        forged
            .sign_and_append(&foreign.signer(ProcessId(0)))
            .sign_and_append(&foreign.signer(ProcessId(1)));
        every_recipient_rejects(&cfg, 2, &forged);
    }

    #[test]
    fn a_copy_claiming_another_value_is_rejected_beside_the_honest_chain() {
        // p5 relays, in phase 2, the chain [p0, p5] for 0 with its value
        // field rewritten to 1: the same signatures, its own buffer. The
        // flush-boundary pass meets the honest relays of 0 by p1..p4
        // first; the copy must not ride the d_0 computed for them.
        let cfg = CheckConfig::new(6, 2, Value::ZERO, 11, 1, ScheduleSpec::default());
        let target = find_target("ds-broadcast").expect("registered target");
        let registry = target.build(&cfg).expect("fault-free schedule").registry;
        let mut honest = Chain::new(domains::DOLEV_STRONG, Value::ZERO);
        honest
            .sign_and_append(&registry.signer(ProcessId(0)))
            .sign_and_append(&registry.signer(ProcessId(5)));
        let mut enc = ba_crypto::wire::Encoder::new();
        honest.encode(&mut enc);
        let mut bytes = enc.finish().to_vec();
        bytes[4..12].copy_from_slice(&Value::ONE.0.to_be_bytes()); // the value field
        let tampered = Chain::decode(&mut ba_crypto::wire::Decoder::new(&bytes)).unwrap();
        assert_eq!(tampered.signatures(), honest.signatures());
        every_recipient_rejects(&cfg, 2, &tampered);
    }
}
