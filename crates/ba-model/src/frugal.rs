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
//! how it breaks.

use ba_algos::domains;
use ba_crypto::{Chain, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox};

/// Chain domain for the frugal protocols.
pub const FRUGAL_DOMAIN: u32 = 7_777;

const _: () = assert!(FRUGAL_DOMAIN != domains::ALG1 && FRUGAL_DOMAIN != domains::ALG2);

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

    /// Number of phases the protocol runs.
    pub fn phases() -> usize {
        2
    }

    fn accepts(&self, chain: &Chain) -> bool {
        chain.domain() == FRUGAL_DOMAIN
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
                    let mut chain = Chain::new(FRUGAL_DOMAIN, v);
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

    /// Number of phases the protocol runs.
    pub fn phases() -> usize {
        1
    }
}

impl Actor<Chain> for QuietBroadcast {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        if phase == 1 {
            if let Some(v) = self.own_value {
                let mut chain = Chain::new(FRUGAL_DOMAIN, v);
                chain.sign_and_append(&self.signer);
                out.broadcast_all(self.n, chain);
            }
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        for env in inbox {
            if env.payload.domain() == FRUGAL_DOMAIN
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
    use ba_crypto::{KeyRegistry, SchemeKind};
    use ba_sim::engine::Simulation;
    use ba_sim::Envelope;

    fn frugal_actors(n: usize, k: usize, value: Value, seed: u64) -> Vec<Box<dyn Actor<Chain>>> {
        let registry = KeyRegistry::new(n, seed, SchemeKind::Fast);
        (0..n as u32)
            .map(|p| {
                Box::new(FrugalBroadcast::new(
                    n,
                    k,
                    ProcessId(p),
                    registry.signer(ProcessId(p)),
                    registry.verifier(),
                    (p == 0).then_some(value),
                )) as Box<dyn Actor<Chain>>
            })
            .collect()
    }

    #[test]
    fn frugal_works_when_nothing_goes_wrong() {
        for v in [Value::ZERO, Value::ONE] {
            let mut sim = Simulation::new(frugal_actors(7, 2, v, 1));
            let outcome = sim.run(FrugalBroadcast::phases());
            let verdict = ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), v).unwrap();
            assert_eq!(verdict.agreed, Some(v));
        }
    }

    #[test]
    fn frugal_message_count_is_low() {
        let mut sim = Simulation::new(frugal_actors(10, 2, Value::ONE, 1));
        let outcome = sim.run(2);
        // k + k(n-2) messages: far below n(t+1)/4 for t near n/2.
        assert_eq!(outcome.metrics.messages_by_correct, 2 + 2 * 8);
    }

    #[test]
    fn quiet_works_when_nothing_goes_wrong() {
        let n = 6;
        let registry = KeyRegistry::new(n, 2, SchemeKind::Fast);
        let actors: Vec<Box<dyn Actor<Chain>>> = (0..n as u32)
            .map(|p| {
                Box::new(QuietBroadcast::new(
                    n,
                    registry.signer(ProcessId(p)),
                    registry.verifier(),
                    (p == 0).then_some(Value::ONE),
                )) as Box<dyn Actor<Chain>>
            })
            .collect();
        let mut sim = Simulation::new(actors);
        let outcome = sim.run(QuietBroadcast::phases());
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
        let mut forged = Chain::new(FRUGAL_DOMAIN, Value::ONE);
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
