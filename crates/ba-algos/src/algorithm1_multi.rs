//! The multi-valued modification of Algorithm 1.
//!
//! Section 5 notes that the algorithms are stated for `V = {0, 1}` and
//! that "if the transmitter can send more than two values, one has to
//! modify the algorithms slightly". This module implements the standard
//! modification for Algorithm 1:
//!
//! * a *correct `v`-message* is defined exactly like a correct 1-message
//!   but for any value `v` (a signed simple path from the transmitter in
//!   the bipartite graph `G`);
//! * a processor relays the **first** correct `v`-message it receives for
//!   each of the first **two** distinct values (two distinct signed values
//!   already prove the transmitter faulty, so further values add nothing);
//! * decision: the unique value for which a correct message arrived, or
//!   the default `0` when zero or several values arrived.
//!
//! Correctness mirrors the binary case: a correct transmitter's signature
//! exists on exactly one value, so only that value can ever have a correct
//! message; and the propagation argument of Theorem 3 applies to each
//! value independently, so all correct processors end with the same value
//! *set*. Messages at most double: `2 · (2t² + 2t)`.

use crate::algorithm1::Algo1Params;
use crate::common::{
    chain_adversary, domains, instance, run_report, AlgoReport, RunOptions, SplitTransmitter,
};
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::schedule::FaultBehavior;
use ba_sim::AgreementViolation;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An honest multi-valued Algorithm 1 processor.
#[derive(Debug)]
pub struct Algo1MultiActor {
    params: Arc<Algo1Params>,
    me: ProcessId,
    signer: Signer,
    own_value: Option<Value>,
    /// Values for which a correct message has been accepted.
    seen: BTreeSet<Value>,
    phase: usize,
}

impl Algo1MultiActor {
    /// Creates the actor; `own_value` is `Some` for the transmitter.
    pub fn new(
        params: Arc<Algo1Params>,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
    ) -> Self {
        Algo1MultiActor {
            params,
            me,
            signer,
            own_value,
            seen: BTreeSet::new(),
            phase: 0,
        }
    }

    fn absorb(&mut self, inbox: Inbox<'_, Chain>, k: usize, out: Option<&mut Outbox<Chain>>) {
        let mut fresh: Vec<Chain> = Vec::new();
        for env in inbox {
            if env.payload.last_signer() != Some(env.from) {
                continue;
            }
            if let Some(v) = self.params.correct_message(env.payload, k, self.me) {
                if !self.seen.contains(&v) {
                    // Relay only the first two distinct values.
                    if self.seen.len() < 2 {
                        fresh.push(env.payload.clone());
                    }
                    self.seen.insert(v);
                }
            }
        }
        if let Some(out) = out {
            for chain in fresh {
                let mut relay = chain;
                relay.sign_and_append(&self.signer);
                out.broadcast(self.params.relay_targets(self.me), relay);
            }
        }
    }
}

impl Actor<Chain> for Algo1MultiActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        self.phase = phase;
        if phase == 1 {
            if let Some(v) = self.own_value {
                let mut chain = Chain::new(domains::ALG1, v);
                chain.sign_and_append(&self.signer);
                out.broadcast(self.params.relay_targets(self.me), chain);
            }
            return;
        }
        if self.own_value.is_some() {
            return;
        }
        if phase <= self.params.t + 2 {
            self.absorb(inbox, phase - 1, Some(out));
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        if self.own_value.is_none() {
            let k = self.phase;
            self.absorb(inbox, k, None);
        }
    }

    fn decision(&self) -> Option<Value> {
        if let Some(v) = self.own_value {
            return Some(v);
        }
        Some(if self.seen.len() == 1 {
            *self.seen.iter().next().expect("len checked")
        } else {
            Value::ZERO
        })
    }
}

/// Runs the multi-valued Algorithm 1 with any `value` (not just binary).
/// The schedule's `Equivocate { ones }` on the transmitter is a
/// [`SplitTransmitter`] giving each `p` of `ones` its own value `100 + p`
/// and `0` to the rest — with every receiver in `ones`, the strongest
/// equivocation the multi-valued setting allows. `Forge` is a
/// [`ChainFuzzer`](crate::fuzz::ChainFuzzer) spammer.
///
/// ```
/// use ba_algos::algorithm1_multi::run;
/// use ba_algos::common::RunOptions;
/// use ba_crypto::{SchemeKind, Value};
///
/// let options = RunOptions::new().with_seed(1).with_scheme(SchemeKind::Fast);
/// let r = run(2, Value(42), options)?;
/// assert_eq!(r.verdict.agreed, Some(Value(42)));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics if `t == 0` or the schedule is malformed.
pub fn run(
    t: usize,
    value: Value,
    options: RunOptions,
) -> Result<AlgoReport<Chain>, AgreementViolation> {
    assert!(t >= 1);
    let n = 2 * t + 1;
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let params = Arc::new(Algo1Params {
        t,
        verifier: registry.verifier(),
    });
    let honest = |p: ProcessId| -> Box<dyn Actor<Chain>> {
        let own = (p == ProcessId(0)).then_some(value);
        Box::new(Algo1MultiActor::new(
            params.clone(),
            p,
            registry.signer(p),
            own,
        ))
    };
    let adversary = |p, behavior: &FaultBehavior| -> Option<Box<dyn Actor<Chain>>> {
        let FaultBehavior::Equivocate { ones } = behavior else {
            return chain_adversary(&registry, domains::ALG1, p, behavior);
        };
        let values = (0..n as u32).map(|q| match ones.binary_search(&ProcessId(q)) {
            Ok(_) => Value(100 + u64::from(q)),
            Err(_) => Value::ZERO,
        });
        let split = SplitTransmitter::new(registry.signer(p), domains::ALG1, values);
        Some(Box::new(split))
    };
    let spec = instance(
        &options.schedule,
        (n, t, t + 2),
        &registry,
        honest,
        adversary,
    );
    run_report(spec, &options, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_crypto::SchemeKind;
    use ba_sim::ScheduleSpec;

    fn options(schedule: ScheduleSpec, seed: u64) -> RunOptions {
        let options = RunOptions::new().with_schedule(schedule).with_seed(seed);
        options.with_scheme(SchemeKind::Fast)
    }

    /// The transmitter signs a distinct value for every receiver.
    fn rainbow(t: usize) -> ScheduleSpec {
        let ones = (1..=2 * t as u32).map(ProcessId).collect();
        ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones })
    }

    #[test]
    fn arbitrary_values_agree_fault_free() {
        for t in 1..=4 {
            for v in [Value(0), Value(7), Value(1_000_000), Value(u64::MAX)] {
                let r = run(t, v, options(ScheduleSpec::default(), 1)).unwrap();
                assert_eq!(r.verdict.agreed, Some(v), "t={t} v={v}");
            }
        }
    }

    #[test]
    fn rainbow_transmitter_forces_default_but_agrees() {
        for t in 2..=5 {
            let r = run(t, Value(42), options(rainbow(t), 3)).unwrap();
            // Every correct processor sees >= 2 distinct values (its own
            // direct one plus relayed ones) and defaults.
            assert_eq!(r.verdict.agreed, Some(Value::ZERO), "t={t}");
        }
    }

    #[test]
    fn message_count_at_most_doubles() {
        for t in 1..=5 {
            let r = run(t, Value(9), options(rainbow(t), 1)).unwrap();
            assert!(
                r.outcome.metrics.messages_by_correct <= 2 * bounds::alg1_max_messages(t as u64),
                "t={t}"
            );
        }
    }

    #[test]
    fn silent_relays_tolerated_with_nonbinary_value() {
        let t = 3;
        let r = run(
            t,
            Value(555),
            options(
                ScheduleSpec::each([ProcessId(2), ProcessId(5)], FaultBehavior::Silent),
                9,
            ),
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value(555)));
    }

    #[test]
    fn value_message_validator_accepts_any_value() {
        let t = 2;
        let registry = KeyRegistry::new(5, 0, SchemeKind::Hmac);
        let params = Algo1Params {
            t,
            verifier: registry.verifier(),
        };
        let mut chain = Chain::new(domains::ALG1, Value(77));
        chain.sign_and_append(&registry.signer(ProcessId(0)));
        assert_eq!(
            params.correct_message(&chain, 1, ProcessId(3)),
            Some(Value(77))
        );
        // Structural rules still enforced: wrong length.
        assert_eq!(params.correct_message(&chain, 2, ProcessId(3)), None);
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_multivalue_agreement() {
            run_cases(16, 0x6B, |gen| {
                let t = gen.usize_in(1, 5);
                let v = gen.u64();
                let seed = gen.u64();
                let rainbow = gen.bool();
                let schedule = if rainbow {
                    super::rainbow(t)
                } else {
                    ScheduleSpec::default()
                };
                let r = run(t, Value(v), options(schedule, seed)).unwrap();
                assert!(r.verdict.agreed.is_some());
            });
        }
    }
}
