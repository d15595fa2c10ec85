//! Randomized Byzantine behaviours for fuzz-style robustness testing.
//!
//! The scripted adversaries in [`adversary`](crate::adversary) replay the
//! paper's proof constructions; the actors here instead probe the *parsing
//! and validation* surface of a protocol: a [`Spammer`] floods random
//! targets with arbitrary payloads every phase, and [`RandomOmit`] drops
//! each outgoing message of an honest actor with a configured probability.
//! Both are deterministic in their seed ([`SimRng`]).
//!
//! A correct protocol must tolerate any number of spammed bytes from its
//! `t` faulty processors: every algorithm crate runs fuzz suites built on
//! these actors.

use crate::actor::{Actor, Inbox, Outbox, Payload};
use ba_crypto::rng::SimRng;
use ba_crypto::{ProcessId, Value};

/// Generates one adversarial payload per call.
///
/// `Send` because fuzzers live inside actors, which the engine may step on
/// worker threads ([`Actor`]'s supertrait).
pub trait PayloadFuzzer<P>: std::fmt::Debug + Send {
    /// Produces the next payload aimed at `target` during `phase`.
    fn next(&mut self, rng: &mut SimRng, phase: usize, target: ProcessId) -> P;
}

/// A faulty processor that sends `per_phase` random payloads to random
/// targets every phase, decides nothing, and ignores its inbox.
#[derive(Debug)]
pub struct Spammer<P, F> {
    rng: SimRng,
    n: usize,
    per_phase: usize,
    fuzzer: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> Spammer<P, F> {
    /// Creates the spammer over `n` targets.
    pub fn new(n: usize, per_phase: usize, seed: u64, fuzzer: F) -> Self {
        Spammer {
            rng: SimRng::new(seed),
            n,
            per_phase,
            fuzzer,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P: Payload, F: PayloadFuzzer<P>> Actor<P> for Spammer<P, F> {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        for _ in 0..self.per_phase {
            let target = ProcessId(self.rng.range_u32(0, self.n as u32));
            let payload = self.fuzzer.next(&mut self.rng, phase, target);
            out.send(target, payload);
        }
    }
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// Wraps an honest actor, dropping each outgoing message independently
/// with probability `drop_per_mille / 1000` — randomized omission faults.
#[derive(Debug)]
pub struct RandomOmit<A> {
    inner: A,
    rng: SimRng,
    drop_per_mille: u32,
}

impl<A> RandomOmit<A> {
    /// Creates the wrapper; `drop_per_mille` of 1000 drops everything.
    pub fn new(inner: A, drop_per_mille: u32, seed: u64) -> Self {
        RandomOmit {
            inner,
            rng: SimRng::new(seed),
            drop_per_mille,
        }
    }
}

impl<P: Payload, A: Actor<P>> Actor<P> for RandomOmit<A> {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        let mut scratch = Outbox::new(out.sender());
        self.inner.step(phase, inbox, &mut scratch);
        out.note_omitted(scratch.omitted_count());
        for env in scratch.into_staged() {
            if self.rng.range_u32(0, 1000) >= self.drop_per_mille {
                out.send(env.to, env.payload);
            } else {
                out.note_omitted(1);
            }
        }
    }
    fn finalize(&mut self, inbox: Inbox<'_, P>) {
        self.inner.finalize(inbox);
    }
    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// A trivial fuzzer emitting random [`Value`]s (useful for engine tests;
/// protocol crates provide chain-aware fuzzers).
#[derive(Debug, Default)]
pub struct ValueFuzzer;

impl PayloadFuzzer<Value> for ValueFuzzer {
    fn next(&mut self, rng: &mut SimRng, _phase: usize, _target: ProcessId) -> Value {
        Value(rng.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;

    #[derive(Debug, Default)]
    struct Counter {
        heard: usize,
    }
    impl Actor<Value> for Counter {
        fn step(&mut self, _p: usize, inbox: Inbox<'_, Value>, _o: &mut Outbox<Value>) {
            self.heard += inbox.len();
        }
        fn finalize(&mut self, inbox: Inbox<'_, Value>) {
            self.heard += inbox.len();
        }
        fn decision(&self) -> Option<Value> {
            Some(Value(self.heard as u64))
        }
    }

    #[test]
    fn spammer_floods_deterministically() {
        let run = || {
            let mut sim = Simulation::new(vec![
                Box::new(Spammer::new(2, 5, 42, ValueFuzzer)) as Box<dyn Actor<Value>>,
                Box::new(Counter::default()),
            ]);
            sim.run(4)
        };
        let a = run();
        let b = run();
        assert_eq!(a.decisions, b.decisions, "seeded determinism");
        assert_eq!(a.metrics.messages_by_faulty, b.metrics.messages_by_faulty);
        assert!(a.metrics.messages_by_faulty > 0);
        assert_eq!(a.metrics.messages_by_correct, 0);
    }

    #[test]
    fn spammer_self_sends_are_dropped_by_outbox() {
        let mut sim = Simulation::new(vec![
            Box::new(Spammer::new(1, 10, 1, ValueFuzzer)) as Box<dyn Actor<Value>>
        ]);
        let outcome = sim.run(3);
        assert_eq!(
            outcome.metrics.messages_total(),
            0,
            "only self-targets exist"
        );
    }

    #[test]
    fn random_omit_zero_keeps_everything_and_1000_drops_everything() {
        #[derive(Debug)]
        struct Chatty;
        impl Actor<Value> for Chatty {
            fn step(&mut self, _p: usize, _i: Inbox<'_, Value>, out: &mut Outbox<Value>) {
                out.send(ProcessId(1), Value::ONE);
            }
            fn decision(&self) -> Option<Value> {
                Some(Value::ONE)
            }
        }
        for (per_mille, expect) in [(0u32, 3u64), (1000, 0)] {
            let mut sim = Simulation::new(vec![
                Box::new(RandomOmit::new(Chatty, per_mille, 7)) as Box<dyn Actor<Value>>,
                Box::new(Counter::default()),
            ]);
            let outcome = sim.run(3);
            assert_eq!(
                outcome.metrics.messages_by_faulty, expect,
                "per_mille={per_mille}"
            );
            // Suppressed sends surface as omitted_messages — a "censored"
            // run is distinguishable from a quiet one.
            assert_eq!(
                outcome.metrics.omitted_messages,
                3 - expect,
                "per_mille={per_mille}"
            );
        }
    }

    #[test]
    fn random_omit_partial_drops_some() {
        #[derive(Debug)]
        struct Chatty;
        impl Actor<Value> for Chatty {
            fn step(&mut self, _p: usize, _i: Inbox<'_, Value>, out: &mut Outbox<Value>) {
                for _ in 0..20 {
                    out.send(ProcessId(1), Value::ONE);
                }
            }
            fn decision(&self) -> Option<Value> {
                Some(Value::ONE)
            }
        }
        let mut sim = Simulation::new(vec![
            Box::new(RandomOmit::new(Chatty, 500, 3)) as Box<dyn Actor<Value>>,
            Box::new(Counter::default()),
        ]);
        let outcome = sim.run(5);
        let sent = outcome.metrics.messages_by_faulty;
        assert!(sent > 10 && sent < 90, "~50% of 100: {sent}");
    }
}
