//! Algorithm 1 — the bipartite signature-chain algorithm (Theorem 3).
//!
//! Setting: `n = 2t + 1` processors; the transmitter `q` is processor `0`;
//! the remaining `2t` processors are partitioned into sides `A`
//! (`1..=t`) and `B` (`t+1..=2t`). Let `G` be the complete bipartite graph
//! on `A × B` plus edges from `q` to everyone.
//!
//! * **Phase 1** — the transmitter signs and sends its value to everyone.
//! * **Phases 2..=t+2** — when a processor in `A` (resp. `B`) receives a
//!   *correct 1-message* for the first time, it signs it and sends it to
//!   everybody in `B` (resp. `A`).
//! * **Decision** — value `1` iff a correct 1-message arrived by phase
//!   `t + 2`, else `0`.
//!
//! A message received by `p` at phase `k` is a *correct 1-message* if it is
//! the value `1` with signatures forming a simple path of length `k` from
//! `q` to `p` in `G` (so: signed first by `q`, alternating sides afterward,
//! no repeats, `p` itself not on the path, ending at a neighbour of `p`).
//!
//! Bounds (Theorem 3): `t + 2` phases and at most `2t² + 2t` messages.
//!
//! The module also ships the adversary that drives the algorithm's tail
//! phases: a chain-withholding coalition that releases a correct 1-message
//! as late as possible. An equivocating transmitter is the shared
//! [`SplitTransmitter`](crate::common::SplitTransmitter).

use crate::common::{chain_adversary, domains, instance, run_report, AlgoReport, RunOptions};
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use ba_sim::{AgreementViolation, InstanceSpec};
use std::sync::Arc;

/// Which side of the bipartite graph a processor belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The transmitter `q` (processor 0).
    Transmitter,
    /// Side `A`: processors `1..=t`.
    A,
    /// Side `B`: processors `t+1..=2t`.
    B,
}

/// Returns the side of `p` in the `n = 2t + 1` layout.
pub fn side(p: ProcessId, t: usize) -> Side {
    let i = p.index();
    if i == 0 {
        Side::Transmitter
    } else if i <= t {
        Side::A
    } else {
        Side::B
    }
}

/// Static parameters shared by all actors of one Algorithm 1 run.
#[derive(Debug)]
pub struct Algo1Params {
    /// Fault tolerance; `n = 2t + 1`.
    pub t: usize,
    /// Verifier over the run's key registry.
    pub verifier: Verifier,
}

impl Algo1Params {
    /// Number of processors (`2t + 1`).
    pub fn n(&self) -> usize {
        2 * self.t + 1
    }

    /// All processors on the opposite side of `p` (for the transmitter:
    /// everyone else).
    pub fn relay_targets(&self, p: ProcessId) -> Vec<ProcessId> {
        match side(p, self.t) {
            Side::Transmitter => (1..self.n() as u32).map(ProcessId).collect(),
            Side::A => (self.t as u32 + 1..self.n() as u32)
                .map(ProcessId)
                .collect(),
            Side::B => (1..=self.t as u32).map(ProcessId).collect(),
        }
    }

    /// Whether `chain`, received by `me` as a phase-`k` message, is a
    /// correct 1-message per the definition above. The value is tested
    /// first, so a 0-chain is never verified.
    pub fn is_correct_one_message(&self, chain: &Chain, k: usize, me: ProcessId) -> bool {
        chain.value() == Value::ONE && self.correct_message(chain, k, me).is_some()
    }

    /// The value `v` when `chain`, received by `me` as a phase-`k` message,
    /// is a correct `v`-message: the definition above for any value (the
    /// multi-valued variant's validator), `None` otherwise.
    pub fn correct_message(&self, chain: &Chain, k: usize, me: ProcessId) -> Option<Value> {
        if chain.domain() != domains::ALG1
            || chain.len() != k
            || chain.verify_simple_path(&self.verifier).is_err()
        {
            return None;
        }
        let signers: Vec<ProcessId> = chain.signers().collect();
        if signers[0] != ProcessId(0) {
            return None;
        }
        // No signer may be out of range, be the transmitter again, or be me.
        for &s in &signers[1..] {
            if s.index() >= self.n() || s == ProcessId(0) || s == me {
                return None;
            }
        }
        if signers.contains(&me) {
            return None;
        }
        // Consecutive non-transmitter signers must alternate sides.
        for w in signers[1..].windows(2) {
            if side(w[0], self.t) == side(w[1], self.t) {
                return None;
            }
        }
        // The last signer must be adjacent to me in G.
        let last = *signers.last().expect("chain verified non-empty");
        let adjacent = last == ProcessId(0) || side(last, self.t) != side(me, self.t);
        adjacent.then(|| chain.value())
    }
}

/// An honest Algorithm 1 processor (transmitter or relay).
#[derive(Debug)]
pub struct Algo1Actor {
    params: Arc<Algo1Params>,
    me: ProcessId,
    signer: Signer,
    /// `Some` iff this actor is the transmitter.
    own_value: Option<Value>,
    /// First correct 1-message received, if any.
    got_one: Option<Chain>,
    /// Last phase this actor stepped (finalize validates against it).
    phase: usize,
}

impl Algo1Actor {
    /// Creates the actor for `me`; `own_value` is `Some` for the
    /// transmitter only.
    pub fn new(
        params: Arc<Algo1Params>,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
    ) -> Self {
        debug_assert_eq!(signer.id(), me);
        Algo1Actor {
            params,
            me,
            signer,
            own_value,
            got_one: None,
            phase: 0,
        }
    }

    /// Scans `inbox` (phase `k` receipts) for a first correct 1-message.
    fn absorb(&mut self, inbox: Inbox<'_, Chain>, k: usize) {
        if self.got_one.is_some() {
            return;
        }
        for env in inbox {
            // The path must actually have been relayed by the sender: the
            // chain's last signer is the sender itself.
            if env.payload.last_signer() == Some(env.from)
                && self.params.is_correct_one_message(env.payload, k, self.me)
            {
                self.got_one = Some(env.payload.clone());
                return;
            }
        }
    }
}

impl Actor<Chain> for Algo1Actor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        self.phase = phase;
        let t = self.params.t;

        if phase == 1 {
            if let Some(v) = self.own_value {
                // Transmitter: sign and send the value to everyone.
                let mut chain = Chain::new(domains::ALG1, v);
                chain.sign_and_append(&self.signer);
                out.broadcast(self.params.relay_targets(self.me), chain);
            }
            return;
        }

        if self.own_value.is_some() {
            return; // The transmitter only acts in phase 1.
        }

        // Inbox holds phase-(k-1) messages: correct 1-message chains of
        // length k-1.
        let had_one = self.got_one.is_some();
        self.absorb(inbox, phase - 1);

        // Relay on first receipt, during phases 2..=t+2.
        if !had_one && self.got_one.is_some() && phase <= t + 2 {
            let mut relay = self.got_one.clone().expect("just set");
            relay.sign_and_append(&self.signer);
            out.broadcast(self.params.relay_targets(self.me), relay);
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        if self.own_value.is_none() {
            self.absorb(inbox, self.phase);
        }
    }

    fn decision(&self) -> Option<Value> {
        if let Some(v) = self.own_value {
            return Some(v);
        }
        Some(if self.got_one.is_some() {
            Value::ONE
        } else {
            Value::ZERO
        })
    }
}

/// Algorithm 1's own adversary.
pub mod adversaries {
    use super::*;

    /// A coalition member in the chain-withholding attack: the faulty
    /// transmitter starts a 1-chain that crawls through the coalition
    /// (one private hop per phase) and is released to all correct
    /// processors of the appropriate side only at `release_phase` — the
    /// latest-possible honest-looking delivery, exercising the algorithm's
    /// tail phases.
    #[derive(Debug)]
    pub struct WithholdingMember {
        params: Arc<Algo1Params>,
        signer: Signer,
        /// Coalition in release order; `coalition[0]` is the transmitter.
        coalition: Vec<ProcessId>,
        /// My position in the coalition.
        position: usize,
        release_phase: usize,
        chain: Option<Chain>,
    }

    impl WithholdingMember {
        /// Creates coalition member `position` (0 = transmitter). The
        /// coalition must alternate sides so the private chain stays a
        /// valid path in `G`.
        pub fn new(
            params: Arc<Algo1Params>,
            signer: Signer,
            coalition: Vec<ProcessId>,
            position: usize,
            release_phase: usize,
        ) -> Self {
            WithholdingMember {
                params,
                signer,
                coalition,
                position,
                release_phase,
                chain: None,
            }
        }
    }

    impl Actor<Chain> for WithholdingMember {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            // Receive the private chain from the previous coalition member.
            for env in inbox {
                if self.chain.is_none() && env.payload.value() == Value::ONE {
                    self.chain = Some(env.payload.clone());
                }
            }

            if self.position == 0 && phase == 1 {
                // Transmitter: start the chain, sending only to the next
                // coalition member (or release immediately if alone).
                let mut chain = Chain::new(domains::ALG1, Value::ONE);
                chain.sign_and_append(&self.signer);
                if self.coalition.len() > 1 {
                    out.send(self.coalition[1], chain);
                } else {
                    out.broadcast(self.params.relay_targets(self.signer.id()), chain);
                }
                return;
            }

            if self.position > 0 && phase == self.position + 1 {
                // My turn: extend the chain and pass it on (or hold it).
                if let Some(chain) = &self.chain {
                    let mut extended = chain.clone();
                    extended.sign_and_append(&self.signer);
                    if self.position + 1 < self.coalition.len() {
                        out.send(self.coalition[self.position + 1], extended.clone());
                    }
                    self.chain = Some(extended);
                }
            }

            // The last member releases the (now long) chain to all correct
            // processors of the opposite side at the release phase.
            if self.position + 1 == self.coalition.len() && phase == self.release_phase {
                if let Some(chain) = &self.chain {
                    // The stored chain already carries my signature (added
                    // at my turn); release as-is.
                    out.broadcast(self.params.relay_targets(self.signer.id()), chain.clone());
                }
            }
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn is_correct(&self) -> bool {
            false
        }
    }
}

/// Builds and runs an Algorithm 1 scenario with `n = 2t + 1` processors.
/// The schedule's `Withhold` is a chain-withholding coalition (see
/// [`withholding`]), `Equivocate { ones }` a
/// [`SplitTransmitter`](crate::common::SplitTransmitter) signing `1` for
/// `ones` and `0` for the rest, `Forge` a
/// [`ChainFuzzer`](crate::fuzz::ChainFuzzer) spammer.
///
/// # Errors
/// Returns the [`AgreementViolation`] if the run broke agreement (which
/// indicates a bug: Algorithm 1 tolerates every scenario constructible
/// here).
///
/// # Panics
/// Panics if `t == 0`, if the schedule is malformed, or
/// if `value` is not binary (Algorithm 1 is specified for `V = {0, 1}`).
pub fn run(
    t: usize,
    value: Value,
    options: RunOptions,
) -> Result<AlgoReport<Chain>, AgreementViolation> {
    assert!(t >= 1, "algorithm 1 needs t >= 1");
    assert!(
        value == Value::ZERO || value == Value::ONE,
        "algorithm 1 is binary"
    );
    let registry = KeyRegistry::new(2 * t + 1, options.seed, options.scheme);
    let spec = build(t, value, &registry, &options.schedule);
    run_report(spec, &options, value)
}

/// Builds one Algorithm 1 instance over `n = 2t + 1` processors signing
/// under `registry`: the transmitter `p0` sends `value`, `schedule`'s
/// faults are applied, and delivered chains are verified at the phase
/// barrier against `registry`. [`run`] and the `algorithm1` check target
/// both build through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a `lie` fault.
///
/// # Panics
/// On a schedule malformed for `n = 2t + 1` and `t`.
pub fn build(
    t: usize,
    value: Value,
    registry: &KeyRegistry,
    schedule: &ScheduleSpec,
) -> Result<InstanceSpec<Chain>, ScheduleError> {
    let params = Arc::new(Algo1Params {
        t,
        verifier: registry.verifier(),
    });
    let honest = |p: ProcessId| -> Box<dyn Actor<Chain>> {
        let own = (p == ProcessId(0)).then_some(value);
        Box::new(Algo1Actor::new(params.clone(), p, registry.signer(p), own))
    };
    let hook = adversary(&params, registry, schedule);
    instance(schedule, (params.n(), t, t + 2), registry, honest, hook)
}

/// The chain-withholding scenario: the transmitter and `extra` more
/// processors, alternating sides (`1, t+1, 2, t+2, …`), carry a private
/// 1-chain and release it at phase `release`.
pub fn withholding(t: usize, extra: usize, release: usize) -> ScheduleSpec {
    let members = (0..extra).map(|i| if i % 2 == 0 { 1 + i / 2 } else { t + 1 + i / 2 });
    let carriers = std::iter::once(0)
        .chain(members)
        .map(|p| ProcessId(p as u32));
    ScheduleSpec::each(carriers, FaultBehavior::Withhold { release })
}

/// Algorithm 1's adversary hook for [`ScheduleSpec::compile`]:
/// `Withhold { release }` is a [`WithholdingMember`] of the coalition of
/// every `Withhold` carrier in `schedule`, ordered transmitter first and
/// then alternating sides (`p0, 1, t+1, 2, t+2, …`) so the private chain
/// stays a path in `G`; every other behaviour goes to the shared chain
/// adversary, signing in [`domains::ALG1`].
///
/// [`WithholdingMember`]: adversaries::WithholdingMember
fn adversary<'a>(
    params: &'a Arc<Algo1Params>,
    registry: &'a KeyRegistry,
    schedule: &ScheduleSpec,
) -> impl FnMut(ProcessId, &FaultBehavior) -> Option<Box<dyn Actor<Chain>>> + 'a {
    let t = params.t;
    let mut coalition: Vec<ProcessId> = schedule
        .faults
        .iter()
        .filter(|(_, b)| matches!(b, FaultBehavior::Withhold { .. }))
        .map(|&(p, _)| p)
        .collect();
    coalition.sort_by_key(|&p| match side(p, t) {
        Side::Transmitter => (0, 0),
        Side::A => (p.index(), 0),
        Side::B => (p.index() - t, 1),
    });
    move |p, behavior| -> Option<Box<dyn Actor<Chain>>> {
        let FaultBehavior::Withhold { release } = *behavior else {
            return chain_adversary(registry, domains::ALG1, p, behavior);
        };
        Some(Box::new(adversaries::WithholdingMember::new(
            params.clone(),
            registry.signer(p),
            coalition.clone(),
            coalition.iter().position(|&q| q == p)?,
            release,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_crypto::SchemeKind;

    #[test]
    fn fault_free_value_one_agrees_within_bounds() {
        for t in 1..=6 {
            let report = run(t, Value::ONE, RunOptions::default()).unwrap();
            assert_eq!(report.verdict.agreed, Some(Value::ONE), "t={t}");
            let msgs = report.outcome.metrics.messages_by_correct;
            assert_eq!(
                msgs,
                bounds::alg1_max_messages(t as u64),
                "t={t}: worst case is exact"
            );
            assert!(report.outcome.metrics.phases as u64 <= bounds::alg1_phases(t as u64));
        }
    }

    #[test]
    fn fault_free_value_zero_agrees_with_minimal_traffic() {
        for t in 1..=6 {
            let report = run(t, Value::ZERO, RunOptions::default()).unwrap();
            assert_eq!(report.verdict.agreed, Some(Value::ZERO));
            // Only the transmitter's 2t messages: 0-chains are never relayed.
            assert_eq!(report.outcome.metrics.messages_by_correct, 2 * t as u64);
        }
    }

    #[test]
    fn silent_transmitter_agrees_on_zero() {
        let report = run(
            3,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each([ProcessId(0)], FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.verdict.agreed, Some(Value::ZERO));
        assert!(!report.verdict.transmitter_correct);
        assert_eq!(report.outcome.metrics.messages_by_correct, 0);
    }

    #[test]
    fn equivocating_transmitter_still_agrees() {
        for t in 1..=5 {
            let n = 2 * t + 1;
            for ones_count in 1..n - 1 {
                let ones: Vec<ProcessId> = (1..=ones_count as u32).map(ProcessId).collect();
                let report = run(
                    t,
                    Value::ONE,
                    RunOptions {
                        schedule: ScheduleSpec::each(
                            [ProcessId(0)],
                            FaultBehavior::Equivocate { ones },
                        ),
                        ..Default::default()
                    },
                )
                .unwrap();
                // Whatever the agreed value, it must be common (checked by
                // into_report); with at least one 1-receipt it will be ONE.
                assert_eq!(
                    report.verdict.agreed,
                    Some(Value::ONE),
                    "t={t} ones={ones_count}"
                );
            }
        }
    }

    #[test]
    fn withholding_coalition_cannot_break_agreement() {
        for t in 2..=5 {
            for extra in 1..t {
                let release = extra + 1; // earliest honest-looking release
                let report = run(
                    t,
                    Value::ONE,
                    RunOptions {
                        schedule: withholding(t, extra, release),
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    report.verdict.agreed,
                    Some(Value::ONE),
                    "t={t} extra={extra}"
                );
            }
        }
    }

    #[test]
    fn late_release_still_converges_by_t_plus_2() {
        // Coalition of t (transmitter + t-1) releases at the last phase the
        // chain can still be extended by correct relays.
        let t = 4;
        let report = run(
            t,
            Value::ONE,
            RunOptions {
                schedule: withholding(t, t - 1, t),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.verdict.agreed, Some(Value::ONE));
        assert_eq!(report.outcome.metrics.phases, t + 2);
    }

    #[test]
    fn crashed_relays_tolerated() {
        let t = 3;
        let report = run(
            t,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    [ProcessId(1), ProcessId(4), ProcessId(6)],
                    FaultBehavior::Silent,
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.verdict.agreed, Some(Value::ONE));
        assert!(report.verdict.transmitter_correct);
    }

    #[test]
    fn one_message_validation_rejects_bad_chains() {
        let t = 2;
        let registry = KeyRegistry::new(5, 0, SchemeKind::Hmac);
        let params = Algo1Params {
            t,
            verifier: registry.verifier(),
        };
        let sign = |ids: &[u32], v: Value| {
            let mut c = Chain::new(domains::ALG1, v);
            for &i in ids {
                c.sign_and_append(&registry.signer(ProcessId(i)));
            }
            c
        };

        // Good: q -> p1(A) received by p3(B) at phase 2.
        assert!(params.is_correct_one_message(&sign(&[0, 1], Value::ONE), 2, ProcessId(3)));
        // Wrong value.
        assert!(!params.is_correct_one_message(&sign(&[0, 1], Value::ZERO), 2, ProcessId(3)));
        // Wrong length for the phase.
        assert!(!params.is_correct_one_message(&sign(&[0, 1], Value::ONE), 3, ProcessId(3)));
        // Does not start at the transmitter.
        assert!(!params.is_correct_one_message(&sign(&[1, 3], Value::ONE), 2, ProcessId(2)));
        // Same-side consecutive signers (p1,p2 both in A).
        assert!(!params.is_correct_one_message(&sign(&[0, 1, 2], Value::ONE), 3, ProcessId(3)));
        // Receiver on the path.
        assert!(!params.is_correct_one_message(&sign(&[0, 3], Value::ONE), 2, ProcessId(3)));
        // Last signer not adjacent to receiver (p1 in A, receiver p2 in A).
        assert!(!params.is_correct_one_message(&sign(&[0, 1], Value::ONE), 2, ProcessId(2)));
        // Wrong domain.
        let mut wrong = Chain::new(domains::ALG2, Value::ONE);
        wrong.sign_and_append(&registry.signer(ProcessId(0)));
        assert!(!params.is_correct_one_message(&wrong, 1, ProcessId(1)));
        // Direct from transmitter is fine for anyone.
        assert!(params.is_correct_one_message(&sign(&[0], Value::ONE), 1, ProcessId(2)));
    }

    #[test]
    fn sides_partition_processors() {
        let t = 3;
        assert_eq!(side(ProcessId(0), t), Side::Transmitter);
        for p in 1..=3u32 {
            assert_eq!(side(ProcessId(p), t), Side::A);
        }
        for p in 4..=6u32 {
            assert_eq!(side(ProcessId(p), t), Side::B);
        }
    }

    #[test]
    fn trace_option_records_envelopes() {
        let report = run(
            2,
            Value::ONE,
            RunOptions {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.outcome.trace.message_count() as u64,
            report.outcome.metrics.messages_total()
        );
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_value_rejected() {
        let _ = run(2, Value(7), RunOptions::default());
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        /// Agreement and validity hold for random equivocation patterns.
        #[test]
        fn prop_equivocation_never_breaks_agreement() {
            run_cases(24, 0x66, |gen| {
                let t = gen.usize_in(1, 5);
                let mask = gen.u32();
                let seed = gen.u64();
                let n = 2 * t + 1;
                let ones: Vec<ProcessId> = (1..n as u32)
                    .filter(|p| mask & (1 << (p % 31)) != 0)
                    .map(ProcessId)
                    .collect();
                let behavior = if ones.is_empty() {
                    FaultBehavior::Silent
                } else {
                    FaultBehavior::Equivocate { ones }
                };
                let report = run(
                    t,
                    Value::ONE,
                    RunOptions {
                        schedule: ScheduleSpec::each([ProcessId(0)], behavior),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(report.verdict.agreed.is_some());
            });
        }

        /// The message bound of Theorem 3 holds for every scenario.
        #[test]
        fn prop_message_bound_holds() {
            run_cases(24, 0x67, |gen| {
                let t = gen.usize_in(1, 5);
                let value = gen.u64_in(0, 2);
                let crash_mask = gen.u32() as u16;
                let seed = gen.u64();
                let n = 2 * t + 1;
                let relays: Vec<ProcessId> = (1..n as u32)
                    .filter(|p| crash_mask & (1 << (p % 16)) != 0)
                    .take(t)
                    .map(ProcessId)
                    .collect();
                let report = run(
                    t,
                    Value(value),
                    RunOptions {
                        schedule: ScheduleSpec::each(relays, FaultBehavior::Silent),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(
                    report.outcome.metrics.messages_by_correct
                        <= crate::bounds::alg1_max_messages(t as u64)
                );
            });
        }
    }
}
