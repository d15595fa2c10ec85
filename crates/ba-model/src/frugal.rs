//! Deliberately under-communicating protocols.
//!
//! The lower-bound theorems say every correct algorithm must exchange a
//! minimum amount of information; to *demonstrate* the bounds we need
//! algorithms that exchange less and are therefore attackable. Two are
//! provided:
//!
//! * [`FrugalBroadcast`] — a `k`-relay signed broadcast (`k < t + 1`
//!   relays makes it violate the Theorem 1 prerequisite: some processor
//!   exchanges signatures with at most `k + 1 ≤ t` others);
//! * [`QuietBroadcast`] — the transmitter sends its value once to each
//!   processor and nothing else (`n − 1` messages, below the Theorem 2
//!   bound for `t ≥ 2`, and each victim has a sender set of size 1).
//!
//! Both decide on the first authenticated value received (default `0`),
//! which is sound when nothing goes wrong — the attacks in
//! [`theorem1`](crate::theorem1) and [`theorem2`](crate::theorem2) show
//! how it breaks. Each has a `build` that returns the fault-free
//! [`InstanceSpec`] the attacks take, as every `ba-algos` module does.

use ba_algos::domains::FRUGAL;
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::InstanceSpec;

/// The fault-free instance of `actor(p, own value)` over `n` processors,
/// `p0` transmitting `value`, chains verified at the phase barrier
/// against `registry`, and no fault budget — the toys tolerate none.
fn instance(
    n: usize,
    phases: usize,
    value: Value,
    registry: &KeyRegistry,
    actor: impl Fn(ProcessId, Option<Value>) -> Box<dyn Actor<Chain>>,
) -> InstanceSpec<Chain> {
    InstanceSpec {
        actors: (0..n as u32)
            .map(|p| actor(ProcessId(p), (p == 0).then_some(value)))
            .collect(),
        phases,
        fault_budget: 0,
        link_drops: Vec::new(),
        registry: Some(registry.clone()),
    }
}

/// A `k`-relay signed broadcast.
///
/// Phase 1: the transmitter signs its value and sends it to relays
/// `1..=k`. Phase 2: each relay countersigns and forwards to everyone
/// else. Decision: the value of the first verifying chain rooted at the
/// transmitter (default `0`).
#[derive(Debug)]
pub struct FrugalBroadcast {
    n: usize,
    k: usize,
    me: ProcessId,
    signer: Signer,
    verifier: Verifier,
    own_value: Option<Value>,
    heard: Option<Value>,
    phase: usize,
}

impl FrugalBroadcast {
    /// Creates the actor; `own_value` is `Some` for the transmitter.
    pub fn new(
        n: usize,
        k: usize,
        me: ProcessId,
        signer: Signer,
        verifier: Verifier,
        own_value: Option<Value>,
    ) -> Self {
        assert!(
            k >= 1 && k < n - 1,
            "need at least one relay and one listener"
        );
        FrugalBroadcast {
            n,
            k,
            me,
            signer,
            verifier,
            own_value,
            heard: None,
            phase: 0,
        }
    }

    /// The fault-free two-phase instance over `n` processors signing
    /// under `registry`, `p0` transmitting `value` through relays
    /// `1..=k`.
    ///
    /// # Panics
    /// Unless `1 ≤ k < n − 1`.
    pub fn build(n: usize, k: usize, value: Value, registry: &KeyRegistry) -> InstanceSpec<Chain> {
        instance(n, 2, value, registry, |p, own| {
            let verifier = registry.verifier();
            Box::new(Self::new(n, k, p, registry.signer(p), verifier, own))
        })
    }

    fn accepts(&self, chain: &Chain) -> bool {
        chain.domain() == FRUGAL
            && chain.first_signer() == Some(ProcessId(0))
            && chain.verify_simple_path(&self.verifier).is_ok()
    }

    fn absorb(&mut self, inbox: Inbox<'_, Chain>) {
        for env in inbox {
            if self.heard.is_none() && self.accepts(env.payload) {
                self.heard = Some(env.payload.value());
            }
        }
    }

    fn is_relay(&self) -> bool {
        (1..=self.k).contains(&self.me.index())
    }
}

impl Actor<Chain> for FrugalBroadcast {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        self.phase = phase;
        match phase {
            1 => {
                if let Some(v) = self.own_value {
                    let mut chain = Chain::new(FRUGAL, v);
                    chain.sign_and_append(&self.signer);
                    for relay in 1..=self.k as u32 {
                        out.send(ProcessId(relay), chain.clone());
                    }
                }
            }
            2 => {
                self.absorb(inbox);
                if self.is_relay() {
                    if let Some(env) = inbox.iter().find(|e| self.accepts(e.payload)) {
                        let mut relay = env.payload.clone();
                        relay.sign_and_append(&self.signer);
                        out.broadcast((1..self.n as u32).map(ProcessId), relay);
                    }
                }
            }
            _ => {}
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        self.absorb(inbox);
    }

    fn decision(&self) -> Option<Value> {
        if let Some(v) = self.own_value {
            return Some(v);
        }
        Some(self.heard.unwrap_or(Value::ZERO))
    }
}

/// The one-shot broadcast: the transmitter signs and sends its value to
/// everyone in phase 1; receivers decide on it (default `0`).
#[derive(Debug)]
pub struct QuietBroadcast {
    n: usize,
    signer: Signer,
    verifier: Verifier,
    own_value: Option<Value>,
    heard: Option<Value>,
}

impl QuietBroadcast {
    /// Creates the actor; `own_value` is `Some` for the transmitter.
    pub fn new(n: usize, signer: Signer, verifier: Verifier, own_value: Option<Value>) -> Self {
        QuietBroadcast {
            n,
            signer,
            verifier,
            own_value,
            heard: None,
        }
    }

    /// The fault-free one-phase instance over `n` processors signing
    /// under `registry`, `p0` transmitting `value`.
    pub fn build(n: usize, value: Value, registry: &KeyRegistry) -> InstanceSpec<Chain> {
        instance(n, 1, value, registry, |p, own| {
            Box::new(Self::new(n, registry.signer(p), registry.verifier(), own))
        })
    }
}

impl Actor<Chain> for QuietBroadcast {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        if phase == 1 {
            if let Some(v) = self.own_value {
                let mut chain = Chain::new(FRUGAL, v);
                chain.sign_and_append(&self.signer);
                out.broadcast_all(self.n, chain);
            }
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        for env in inbox {
            if env.payload.domain() == FRUGAL
                && env.payload.first_signer() == Some(ProcessId(0))
                && env.payload.verify(&self.verifier).is_ok()
            {
                self.heard.get_or_insert(env.payload.value());
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        if let Some(v) = self.own_value {
            return Some(v);
        }
        Some(self.heard.unwrap_or(Value::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::SchemeKind;
    use ba_sim::Envelope;

    fn fast(n: usize, seed: u64) -> KeyRegistry {
        KeyRegistry::new(n, seed, SchemeKind::Fast)
    }

    #[test]
    fn frugal_works_when_nothing_goes_wrong() {
        for v in [Value::ZERO, Value::ONE] {
            let outcome = FrugalBroadcast::build(7, 2, v, &fast(7, 1)).run_lockstep(1);
            let verdict = ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), v).unwrap();
            assert_eq!(verdict.agreed, Some(v));
        }
    }

    #[test]
    fn frugal_message_count_is_low() {
        let outcome = FrugalBroadcast::build(10, 2, Value::ONE, &fast(10, 1)).run_lockstep(1);
        // k + k(n-2) messages: far below n(t+1)/4 for t near n/2.
        assert_eq!(outcome.metrics.messages_by_correct, 2 + 2 * 8);
    }

    #[test]
    fn quiet_works_when_nothing_goes_wrong() {
        let n = 6;
        let outcome = QuietBroadcast::build(n, Value::ONE, &fast(n, 2)).run_lockstep(1);
        let verdict =
            ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE).unwrap();
        assert_eq!(verdict.agreed, Some(Value::ONE));
        assert_eq!(outcome.metrics.messages_by_correct, (n - 1) as u64);
    }

    #[test]
    fn forged_chains_are_ignored() {
        let n = 5;
        let registry = KeyRegistry::new(n, 3, SchemeKind::Hmac);
        let mut actor = FrugalBroadcast::new(
            n,
            2,
            ProcessId(4),
            registry.signer(ProcessId(4)),
            registry.verifier(),
            None,
        );
        // A chain "signed" by the transmitter with a forged tag.
        let mut forged = Chain::new(FRUGAL, Value::ONE);
        forged.sign_and_append(&registry.signer(ProcessId(3))); // wrong signer
        let env = Envelope {
            from: ProcessId(3),
            to: ProcessId(4),
            payload: forged,
        };
        actor.finalize(Inbox::of(&[env]));
        assert_eq!(actor.decision(), Some(Value::ZERO));
    }
}
