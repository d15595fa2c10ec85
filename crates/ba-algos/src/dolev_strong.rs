//! The Dolev–Strong authenticated baseline (reference 9 of the paper).
//!
//! The paper cites Dolev & Strong's *Authenticated algorithms for Byzantine
//! Agreement* as the best previous solution: `t + 1` phases and `O(nt + t²)`
//! messages. Two variants are implemented:
//!
//! * [`Variant::Broadcast`] — the classic `t + 1`-phase protocol where every
//!   processor relays each newly-extracted value (at most two) to everyone:
//!   `O(n²)` messages. The textbook form, used as the "naive authenticated"
//!   comparison point.
//! * [`Variant::Relay`] — the message-thrifty form with a committee of
//!   `t + 1` relays: non-committee processors report newly-extracted values
//!   only to the committee, committee members relay to everyone. `O(nt)`
//!   messages, `t + 3` phases.
//!
//! Extraction rule (both variants): a chain received at phase `k` is
//! accepted if it carries the transmitter's signature first, `k` signatures
//! total from distinct processors not including the receiver, and a value
//! not yet extracted. A processor relays at most its first two extracted
//! values — two distinct values already prove the transmitter faulty.
//! Decision: the unique extracted value, or the default `0` when zero or
//! several values were extracted.

use crate::common::{chain_adversary, domains, instance, run_report, AlgoReport, RunOptions};
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::schedule::{ScheduleError, ScheduleSpec};
use ba_sim::{AgreementViolation, InstanceSpec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which message pattern the run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Variant {
    /// Everyone relays to everyone: `t + 1` phases, `O(n²)` messages.
    #[default]
    Broadcast,
    /// Only a committee of `t + 1` relays broadcasts: `t + 3` phases,
    /// `O(nt)` messages.
    Relay,
}

/// Static parameters of a Dolev–Strong run.
#[derive(Debug)]
pub struct DsParams {
    /// Number of processors.
    pub n: usize,
    /// Fault tolerance (any `t < n - 1`).
    pub t: usize,
    /// Message pattern.
    pub variant: Variant,
    /// Verifier over the run registry.
    pub verifier: Verifier,
    /// The distinguished sender (processor 0 in the standalone runner;
    /// arbitrary when embedded, e.g. by interactive consistency).
    pub transmitter: ProcessId,
    /// Chain domain (instance separation for parallel embeddings).
    pub domain: u32,
    /// **Deliberately broken variant for checker validation.** When set,
    /// the acceptance rule additionally requires `chain.len() <= t` — an
    /// off-by-one behind the correct `t + 1` relay threshold, so a chain
    /// completing at the final phase is wrongly rejected. A faulty
    /// transmitter that omits one processor then splits the correct set:
    /// the omitted processor rejects the length-`t + 1` relays everyone
    /// else extracted from. Exists so `ba-check` can prove its explorer
    /// finds a real agreement violation; never enable it elsewhere.
    pub weaken_relay_threshold: bool,
}

impl DsParams {
    /// Conventional parameters: transmitter 0, the standard domain.
    pub fn standard(n: usize, t: usize, variant: Variant, verifier: Verifier) -> Self {
        DsParams {
            n,
            t,
            variant,
            verifier,
            transmitter: ProcessId(0),
            domain: domains::DOLEV_STRONG,
            weaken_relay_threshold: false,
        }
    }

    /// Phases the variant needs.
    pub fn phases(&self) -> usize {
        match self.variant {
            Variant::Broadcast => self.t + 1,
            Variant::Relay => self.t + 3,
        }
    }

    /// The relay committee: the first `t + 1` processors other than the
    /// transmitter, used by [`Variant::Relay`].
    pub fn committee(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n as u32)
            .map(ProcessId)
            .filter(|&p| p != self.transmitter)
            .take(self.t + 1)
    }

    /// Whether `p` is a committee member.
    pub fn in_committee(&self, p: ProcessId) -> bool {
        self.committee().any(|q| q == p)
    }

    /// Acceptance check for a chain received at phase `k` by `me`.
    pub fn is_acceptable(&self, chain: &Chain, k: usize, me: ProcessId) -> bool {
        chain.domain() == self.domain
            && chain.len() == k
            && (!self.weaken_relay_threshold || chain.len() <= self.t)
            && chain.verify_simple_path(&self.verifier).is_ok()
            && chain.first_signer() == Some(self.transmitter)
            && !chain.contains_signer(me)
            && chain.signers().all(|s| s.index() < self.n)
    }
}

/// An honest Dolev–Strong processor.
#[derive(Debug)]
pub struct DsActor {
    params: Arc<DsParams>,
    me: ProcessId,
    signer: Signer,
    own_value: Option<Value>,
    extracted: BTreeSet<Value>,
    /// The first value extracted, kept beside the set: a relay of it is
    /// what nearly every delivery carries, and one compare turns it away.
    first: Option<Value>,
    phase: usize,
}

impl DsActor {
    /// Creates the actor; `own_value` is `Some` for the transmitter.
    pub fn new(
        params: Arc<DsParams>,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
    ) -> Self {
        DsActor {
            params,
            me,
            signer,
            own_value,
            extracted: BTreeSet::new(),
            first: None,
            phase: 0,
        }
    }

    fn extract(&mut self, value: Value) {
        self.first.get_or_insert(value);
        self.extracted.insert(value);
    }

    fn absorb_and_relay(
        &mut self,
        inbox: Inbox<'_, Chain>,
        k: usize,
        out: Option<&mut Outbox<Chain>>,
    ) {
        // After an all-to-all phase the engine lists the values the inbox's
        // chains carry. When each is already extracted, the loop below
        // would turn every message away at its first check.
        let listed = inbox.chain_values();
        if listed.is_some_and(|vs| vs.iter().all(|v| self.extracted.contains(v))) {
            return;
        }
        let mut fresh: Vec<Chain> = Vec::new();
        for env in inbox {
            // An already-extracted value is ignored whatever its chain, so
            // it is turned away before the chain is even looked at — by one
            // compare when it is the first (`first` is in the set) — and
            // the O(L²) acceptance check runs for exactly the rest.
            let value = env.payload.value();
            if self.first == Some(value) || self.extracted.contains(&value) {
                continue;
            }
            if env.payload.last_signer() == Some(env.from)
                && self.params.is_acceptable(env.payload, k, self.me)
            {
                // Relay only the first two distinct values ever extracted.
                if self.extracted.len() < 2 {
                    fresh.push(env.payload.clone());
                }
                self.extract(value);
            }
        }
        if let Some(out) = out {
            for chain in fresh {
                let mut relay = chain;
                relay.sign_and_append(&self.signer);
                match self.params.variant {
                    Variant::Broadcast => out.broadcast_all(self.params.n, relay),
                    Variant::Relay => {
                        if self.params.in_committee(self.me) {
                            out.broadcast_all(self.params.n, relay);
                        } else {
                            out.broadcast(self.params.committee(), relay);
                        }
                    }
                }
            }
        }
    }
}

impl Actor<Chain> for DsActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        self.phase = phase;
        if phase == 1 {
            if let Some(v) = self.own_value {
                self.extract(v);
                let mut chain = Chain::new(self.params.domain, v);
                chain.sign_and_append(&self.signer);
                out.broadcast_all(self.params.n, chain);
            }
            return;
        }
        if self.own_value.is_some() {
            return; // The transmitter is done after phase 1.
        }
        self.absorb_and_relay(inbox, phase - 1, Some(out));
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        if self.own_value.is_none() {
            let k = self.phase;
            self.absorb_and_relay(inbox, k, None);
        }
    }

    fn decision(&self) -> Option<Value> {
        if let Some(v) = self.own_value {
            return Some(v);
        }
        Some(if self.extracted.len() == 1 {
            *self.extracted.iter().next().expect("len checked")
        } else {
            Value::ZERO
        })
    }
}

/// Options for [`run`]: the shared [`RunOptions`] with the message pattern
/// as its `variant`. The schedule's `Equivocate { ones }` is a
/// [`SplitTransmitter`](crate::common::SplitTransmitter) signing `1` for
/// `ones` and `0` for the rest, `Forge` a
/// [`ChainFuzzer`](crate::fuzz::ChainFuzzer) spammer.
pub type DsOptions = RunOptions<Variant>;

impl DsOptions {
    /// Sets the message pattern.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Does nothing: every run verifies at the phase barrier (see
    /// [`Simulation::with_batched_verification`](ba_sim::Simulation::with_batched_verification)). Kept only because
    /// `benchmark/src/workload/engine.rs:49` calls it and `benchmark/` is
    /// frozen for this change; the `benchmark` PR that drops that call
    /// deletes this method.
    #[deprecated(note = "barrier verification is not optional; remove the call")]
    pub fn with_batch_verify(self, _batch_verify: bool) -> Self {
        self
    }
}

/// Builds and runs a Dolev–Strong scenario with `n` processors and up to
/// `t` faults.
///
/// ```
/// use ba_algos::dolev_strong::{run, DsOptions};
/// use ba_crypto::Value;
///
/// let r = run(7, 2, Value::ONE, DsOptions::default())?;
/// assert_eq!(r.verdict.agreed, Some(Value::ONE));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics unless `1 <= t` and `t + 2 <= n`, or on a malformed schedule.
pub fn run(
    n: usize,
    t: usize,
    value: Value,
    options: DsOptions,
) -> Result<AlgoReport<Chain>, AgreementViolation> {
    assert!(t >= 1 && n >= t + 2, "dolev-strong needs 1 <= t <= n - 2");
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let params = DsParams::standard(n, t, options.variant, registry.verifier());
    let spec = build(params, &registry, value, &options.schedule);
    run_report(spec, &options, value)
}

/// Builds one Dolev–Strong instance over `params`: the transmitter sends
/// `value`, `schedule`'s faults are applied, and delivered chains are
/// verified at the phase barrier against `registry`. [`run`] and the
/// `ds-*` check targets both build through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a `lie` or `withhold` fault.
///
/// # Panics
/// On a schedule malformed for `params.n` and `params.t`.
pub fn build(
    params: DsParams,
    registry: &KeyRegistry,
    value: Value,
    schedule: &ScheduleSpec,
) -> Result<InstanceSpec<Chain>, ScheduleError> {
    let params = Arc::new(params);
    instance(
        schedule,
        (params.n, params.t, params.phases()),
        registry,
        |p| honest(&params, registry, p, value),
        |p, b| chain_adversary(registry, params.domain, p, b),
    )
}

/// `p`'s honest Dolev–Strong actor; the transmitter sends `value`.
fn honest(
    params: &Arc<DsParams>,
    registry: &KeyRegistry,
    p: ProcessId,
    value: Value,
) -> Box<dyn Actor<Chain>> {
    let own = (p == params.transmitter).then_some(value);
    Box::new(DsActor::new(params.clone(), p, registry.signer(p), own))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_crypto::SchemeKind;
    use ba_sim::schedule::FaultBehavior;

    #[test]
    fn fault_free_agrees_both_variants() {
        for variant in [Variant::Broadcast, Variant::Relay] {
            for (n, t) in [(4, 1), (7, 2), (9, 3), (12, 4)] {
                let r = run(
                    n,
                    t,
                    Value::ONE,
                    DsOptions {
                        variant,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    r.verdict.agreed,
                    Some(Value::ONE),
                    "{variant:?} n={n} t={t}"
                );
                assert!(
                    r.outcome.metrics.messages_by_correct
                        <= bounds::dolev_strong_max_messages(n as u64),
                    "{variant:?}"
                );
            }
        }
    }

    #[test]
    fn relay_variant_uses_fewer_messages_for_large_n() {
        let (n, t) = (60, 3);
        let broadcast = run(n, t, Value::ONE, DsOptions::default()).unwrap();
        let relay = run(
            n,
            t,
            Value::ONE,
            DsOptions {
                variant: Variant::Relay,
                ..Default::default()
            },
        )
        .unwrap();
        let mb = broadcast.outcome.metrics.messages_by_correct;
        let mr = relay.outcome.metrics.messages_by_correct;
        assert!(mr < mb, "relay {mr} should beat broadcast {mb}");
    }

    #[test]
    fn equivocation_forces_default_but_agrees() {
        for variant in [Variant::Broadcast, Variant::Relay] {
            let (n, t) = (9, 3);
            let ones: Vec<ProcessId> = (1..=4).map(ProcessId).collect();
            let r = run(
                n,
                t,
                Value::ONE,
                DsOptions {
                    variant,
                    schedule: ScheduleSpec::each(
                        [ProcessId(0)],
                        FaultBehavior::Equivocate { ones },
                    ),
                    ..Default::default()
                },
            )
            .unwrap();
            // Everyone extracts both values and falls to the default.
            assert_eq!(r.verdict.agreed, Some(Value::ZERO), "{variant:?}");
        }
    }

    #[test]
    fn equivocator_signs_in_the_instance_domain() {
        // An embedding runs Dolev–Strong under its own domain; a
        // transmitter signing 1 for everyone else is then heard in it.
        let (n, t) = (7, 2);
        let registry = KeyRegistry::new(n, 0, SchemeKind::Fast);
        let mut params = DsParams::standard(n, t, Variant::Broadcast, registry.verifier());
        params.domain = domains::DOLEV_STRONG + 100;
        let ones = (1..n as u32).map(ProcessId).collect();
        let schedule = ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones });
        let spec = build(params, &registry, Value::ZERO, &schedule).unwrap();
        let outcome = spec.run_lockstep(1);
        for (p, decision) in outcome.correct_decisions() {
            assert_eq!(decision, Some(Value::ONE), "{p}");
        }
        assert_eq!(outcome.correct_decisions().count(), n - 1);
    }

    #[test]
    fn silent_transmitter_defaults() {
        let r = run(
            7,
            2,
            Value::ONE,
            DsOptions {
                schedule: ScheduleSpec::each([ProcessId(0)], FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ZERO));
    }

    #[test]
    fn silent_relays_tolerated_in_relay_variant() {
        // Silence t committee members: one correct member remains.
        let (n, t) = (12, 3);
        let r = run(
            n,
            t,
            Value::ONE,
            DsOptions {
                variant: Variant::Relay,
                schedule: ScheduleSpec::each((1..=3).map(ProcessId), FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn acceptance_rules() {
        let n = 6;
        let registry = KeyRegistry::new(n, 0, SchemeKind::Hmac);
        let params = DsParams::standard(n, 2, Variant::Broadcast, registry.verifier());
        let chain = |ids: &[u32]| {
            let mut c = Chain::new(domains::DOLEV_STRONG, Value::ONE);
            for &i in ids {
                c.sign_and_append(&registry.signer(ProcessId(i)));
            }
            c
        };
        // Phase-length match required.
        assert!(params.is_acceptable(&chain(&[0]), 1, ProcessId(3)));
        assert!(!params.is_acceptable(&chain(&[0]), 2, ProcessId(3)));
        assert!(params.is_acceptable(&chain(&[0, 1]), 2, ProcessId(3)));
        // Must start at the transmitter.
        assert!(!params.is_acceptable(&chain(&[1, 2]), 2, ProcessId(3)));
        // Receiver must not be on the chain.
        assert!(!params.is_acceptable(&chain(&[0, 3]), 2, ProcessId(3)));
        // Duplicate signers rejected.
        assert!(!params.is_acceptable(&chain(&[0, 1, 1]), 3, ProcessId(3)));
    }

    #[test]
    fn weakened_threshold_rejects_final_phase_chains() {
        let n = 6;
        let registry = KeyRegistry::new(n, 0, SchemeKind::Hmac);
        let mut params = DsParams::standard(n, 2, Variant::Broadcast, registry.verifier());
        params.weaken_relay_threshold = true;
        let chain = |ids: &[u32]| {
            let mut c = Chain::new(domains::DOLEV_STRONG, Value::ONE);
            for &i in ids {
                c.sign_and_append(&registry.signer(ProcessId(i)));
            }
            c
        };
        // Chains up to length t still accepted...
        assert!(params.is_acceptable(&chain(&[0]), 1, ProcessId(3)));
        assert!(params.is_acceptable(&chain(&[0, 1]), 2, ProcessId(3)));
        // ...but a length-(t + 1) chain arriving at phase t + 1 — legal in
        // the correct protocol — is wrongly rejected.
        assert!(!params.is_acceptable(&chain(&[0, 1, 2]), 3, ProcessId(3)));
    }

    #[test]
    fn committee_is_t_plus_one() {
        let registry = KeyRegistry::new(9, 0, SchemeKind::Fast);
        let params = DsParams::standard(9, 3, Variant::Relay, registry.verifier());
        let committee: Vec<ProcessId> = params.committee().collect();
        assert_eq!(committee.len(), 4);
        assert!(params.in_committee(ProcessId(1)));
        assert!(params.in_committee(ProcessId(4)));
        assert!(!params.in_committee(ProcessId(0)));
        assert!(!params.in_committee(ProcessId(5)));
    }

    #[test]
    fn a_copy_claiming_another_value_is_rejected_beside_the_honest_chain() {
        // Faulty p5 relays, in phase 2, the chain [p0, p5] for 0 — the
        // transmitter's signature, then its own — with its value field
        // rewritten to 1: the same signatures, its own buffer. The barrier
        // pass meets the honest relays of 0 by p1..p4 first, then the
        // copy; the copy must not ride their d_0. A recipient that took it
        // would extract 1 and relay it in phase 3.
        use crate::common::{barrier_matches_reference, OneShot};
        let (n, t) = (6, 2);
        let registry = KeyRegistry::new(n, 11, SchemeKind::Fast);
        let mut honest = Chain::new(domains::DOLEV_STRONG, Value::ZERO);
        honest
            .sign_and_append(&registry.signer(ProcessId(0)))
            .sign_and_append(&registry.signer(ProcessId(n as u32 - 1)));
        let mut enc = ba_crypto::wire::Encoder::new();
        honest.encode(&mut enc);
        let mut bytes = enc.finish().to_vec();
        bytes[4..12].copy_from_slice(&Value::ONE.0.to_be_bytes()); // the value field
        let tampered = Chain::decode(&mut ba_crypto::wire::Decoder::new(&bytes)).unwrap();
        assert_eq!(tampered.signatures(), honest.signatures());
        let outcome = barrier_matches_reference(|| {
            let params = DsParams::standard(n, t, Variant::Broadcast, registry.verifier());
            let schedule = ScheduleSpec::default();
            let mut spec = build(params, &registry, Value::ZERO, &schedule).expect("fault-free");
            spec.actors[n - 1] = Box::new(OneShot {
                n,
                phase: 2,
                payload: tampered.clone(),
            });
            spec
        });
        let mut expected = vec![Some(Value::ZERO); n];
        expected[n - 1] = None;
        assert_eq!(outcome.decisions, expected);
        // Every delivered copy shares `tampered`'s buffer: had the pass
        // stamped it, this would be a stamp hit.
        assert!(tampered.verify(&registry.verifier()).is_err());
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_equivocation_always_agrees() {
            run_cases(16, 0x6A, |gen| {
                let t = gen.usize_in(1, 4);
                let extra = gen.usize_in(0, 8);
                let mask = gen.u32();
                let seed = gen.u64();
                let variant_pick = gen.bool();
                let n = 2 * t + 2 + extra;
                let ones: Vec<ProcessId> = (1..n as u32)
                    .filter(|p| mask & (1 << (p % 31)) != 0)
                    .map(ProcessId)
                    .collect();
                let variant = if variant_pick {
                    Variant::Relay
                } else {
                    Variant::Broadcast
                };
                let r = run(
                    n,
                    t,
                    Value::ONE,
                    DsOptions {
                        variant,
                        schedule: ScheduleSpec::each(
                            [ProcessId(0)],
                            FaultBehavior::Equivocate { ones },
                        ),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(r.verdict.agreed.is_some());
            });
        }
    }
}
