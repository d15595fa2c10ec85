//! Generic Byzantine behaviours.
//!
//! The paper's lower bounds only need adversaries that are *restrictions* of
//! correct behaviour — staying silent, omitting messages to chosen targets,
//! ignoring a prefix of received messages (Theorem 2 explicitly notes it
//! "only uses the ability of a faulty processor to send to some and not to
//! others"). These combinators wrap an honest [`Actor`] and apply such
//! restrictions; protocol-specific attacks (equivocating transmitters,
//! chain-withholding relays, corrupt tree roots) live next to each
//! algorithm in `ba-algos`. The one generic attack that is *not* a
//! restriction is the [`Spammer`]: it floods random targets with whatever
//! a protocol's [`PayloadFuzzer`] forges, which is how
//! [`FaultBehavior::Forge`](crate::schedule::FaultBehavior::Forge)
//! probes a protocol's parsing and validation surface.
//!
//! Every wrapper reports [`is_correct`](Actor::is_correct) as `false`, so
//! metrics and the checker treat the processor as faulty.

use crate::actor::{Actor, Envelope, Inbox, Outbox, Payload};
use ba_crypto::rng::SimRng;
use ba_crypto::{ProcessId, Value};
use std::collections::BTreeSet;

/// A processor that never sends and never decides (a crash before phase 1,
/// or the paper's "never sends a message" faulty behaviour).
#[derive(Clone, Copy, Debug, Default)]
pub struct Silent;

impl<P: Payload> Actor<P> for Silent {
    fn step(&mut self, _phase: usize, _inbox: Inbox<'_, P>, _out: &mut Outbox<P>) {}
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// Behaves exactly like the wrapped honest actor until (and excluding)
/// `crash_phase`, then goes permanently silent.
#[derive(Debug)]
pub struct Crash<A> {
    inner: A,
    crash_phase: usize,
}

impl<A> Crash<A> {
    /// Wraps `inner`; it stops participating at `crash_phase`.
    pub fn new(inner: A, crash_phase: usize) -> Self {
        Crash { inner, crash_phase }
    }
}

impl<P: Payload, A: Actor<P>> Actor<P> for Crash<A> {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        if phase < self.crash_phase {
            self.inner.step(phase, inbox, out);
        }
    }
    fn finalize(&mut self, _inbox: Inbox<'_, P>) {}
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// Behaves like the wrapped honest actor except that messages to the given
/// targets are suppressed — the faulty behaviour used to build history `H″`
/// in the proof of Theorem 2 ("they behave like correct processors except
/// that they do not send any messages to `p`").
#[derive(Debug)]
pub struct OmitTo<A> {
    inner: A,
    suppressed: BTreeSet<ProcessId>,
}

impl<A> OmitTo<A> {
    /// Wraps `inner`, suppressing all sends to `suppressed`.
    pub fn new(inner: A, suppressed: impl IntoIterator<Item = ProcessId>) -> Self {
        OmitTo {
            inner,
            suppressed: suppressed.into_iter().collect(),
        }
    }
}

impl<P: Payload, A: Actor<P>> Actor<P> for OmitTo<A> {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        // Run the honest actor into a scratch outbox, then forward only the
        // permitted envelopes, counting every suppression.
        let mut scratch = Outbox::new(out.sender());
        self.inner.step(phase, inbox, &mut scratch);
        out.note_omitted(scratch.omitted_count());
        for env in scratch.into_staged() {
            if self.suppressed.contains(&env.to) {
                out.note_omitted(1);
            } else {
                out.send(env.to, env.payload);
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

/// Behaves like the wrapped honest actor except that it ignores the first
/// `k` messages it receives — the faulty behaviour of the set `B` in the
/// proof of Theorem 2 ("it ignores the first ⌈t/2⌉ messages received").
#[derive(Debug)]
pub struct IgnoreFirst<A> {
    inner: A,
    remaining: usize,
}

impl<A> IgnoreFirst<A> {
    /// Wraps `inner`, discarding the first `k` messages received.
    pub fn new(inner: A, k: usize) -> Self {
        IgnoreFirst {
            inner,
            remaining: k,
        }
    }

    /// How many messages are still to be discarded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn filter<P: Clone>(&mut self, inbox: Inbox<'_, P>) -> Vec<Envelope<P>> {
        let skip = self.remaining.min(inbox.len());
        self.remaining -= skip;
        inbox
            .iter()
            .skip(skip)
            .map(|env| env.to_envelope())
            .collect()
    }
}

impl<P: Payload, A: Actor<P>> Actor<P> for IgnoreFirst<A> {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        let kept = self.filter(inbox);
        self.inner.step(phase, Inbox::of(&kept), out);
    }
    fn finalize(&mut self, inbox: Inbox<'_, P>) {
        let kept = self.filter(inbox);
        self.inner.finalize(Inbox::of(&kept));
    }
    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// Generates one adversarial payload per call.
///
/// `Send` because fuzzers live inside actors, which the engine may step on
/// worker threads ([`Actor`]'s supertrait).
pub trait PayloadFuzzer<P>: std::fmt::Debug + Send {
    /// Produces the next payload aimed at `target` during `phase`.
    fn next(&mut self, rng: &mut SimRng, phase: usize, target: ProcessId) -> P;
}

/// A faulty processor that sends `per_phase` fuzzer payloads to random
/// targets every phase, decides nothing, and ignores its inbox.
/// Deterministic in its seed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;

    /// Echoes every received payload back to its sender and to p0; decides
    /// on the first value heard.
    #[derive(Debug, Default)]
    struct Echo {
        first: Option<Value>,
    }

    impl Actor<Value> for Echo {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
            if phase == 1 {
                out.send(ProcessId(0), Value(42));
            }
            for env in inbox {
                self.first.get_or_insert(*env.payload);
                out.send(env.from, *env.payload);
            }
        }
        fn decision(&self) -> Option<Value> {
            self.first
        }
    }

    fn env(from: u32, v: u64) -> Envelope<Value> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(1),
            payload: Value(v),
        }
    }

    #[test]
    fn silent_never_sends_or_decides() {
        let mut s = Silent;
        let mut out: Outbox<Value> = Outbox::new(ProcessId(1));
        Actor::<Value>::step(&mut s, 1, Inbox::of(&[env(0, 1)]), &mut out);
        assert_eq!(out.staged_len(), 0);
        assert_eq!(Actor::<Value>::decision(&s), None);
        assert!(!Actor::<Value>::is_correct(&s));
    }

    #[test]
    fn crash_stops_at_phase() {
        let mut c = Crash::new(Echo::default(), 2);
        let mut out = Outbox::new(ProcessId(1));
        c.step(1, Inbox::of(&[]), &mut out);
        assert_eq!(out.staged_len(), 1, "phase 1 still active");
        let mut out = Outbox::new(ProcessId(1));
        c.step(2, Inbox::of(&[env(0, 5)]), &mut out);
        assert_eq!(out.staged_len(), 0, "crashed at phase 2");
        assert_eq!(c.decision(), None);
    }

    #[test]
    fn omit_to_filters_targets_only() {
        let mut o = OmitTo::new(Echo::default(), [ProcessId(0)]);
        let mut out = Outbox::new(ProcessId(1));
        o.step(2, Inbox::of(&[env(0, 5), env(2, 6)]), &mut out);
        assert_eq!(out.omitted_count(), 1, "the suppressed p0 echo is counted");
        let staged = out.into_staged();
        // Echo would send to p0 (twice: echo of env(0) and p0-copy is the
        // phase-1 only send) and p2; only the p2 echo survives.
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].to, ProcessId(2));
        assert_eq!(o.decision(), Some(Value(5)), "inbox untouched");
    }

    #[test]
    fn ignore_first_discards_prefix() {
        let mut i = IgnoreFirst::new(Echo::default(), 2);
        let mut out = Outbox::new(ProcessId(1));
        i.step(2, Inbox::of(&[env(0, 5), env(2, 6), env(3, 7)]), &mut out);
        // First two discarded; only env(3,7) reaches the inner actor.
        assert_eq!(i.decision(), Some(Value(7)));
        assert_eq!(i.remaining(), 0);
        let staged = out.into_staged();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].to, ProcessId(3));
    }

    /// Forges uniformly random values.
    #[derive(Debug)]
    struct RandomValues;
    impl PayloadFuzzer<Value> for RandomValues {
        fn next(&mut self, rng: &mut SimRng, _phase: usize, _target: ProcessId) -> Value {
            Value(rng.next_u64())
        }
    }

    /// Counts every message it hears; sends nothing.
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
                Box::new(Spammer::new(2, 5, 42, RandomValues)) as Box<dyn Actor<Value>>,
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
            Box::new(Spammer::new(1, 10, 1, RandomValues)) as Box<dyn Actor<Value>>
        ]);
        let outcome = sim.run(3);
        assert_eq!(
            outcome.metrics.messages_total(),
            0,
            "only self-targets exist"
        );
    }

    mod props {
        use super::*;
        use crate::engine::{RunOutcome, Simulation};
        use ba_crypto::rng::{derive_seed, SimRng};
        use ba_crypto::testkit::run_cases;

        /// A deterministic pseudo-random gossiper: folds its inbox into a
        /// running digest and sends a seed-dependent number of messages to
        /// seed-dependent targets every phase. Rich enough that any
        /// behavioural difference between an honest actor and its `Crash`
        /// wrapper before the crash phase would show up in the trace.
        #[derive(Debug)]
        struct Gossip {
            rng: SimRng,
            n: u32,
            sum: u64,
        }

        impl Actor<Value> for Gossip {
            fn step(&mut self, _phase: usize, inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
                for env in inbox {
                    self.sum = self
                        .sum
                        .wrapping_mul(31)
                        .wrapping_add(env.payload.0 ^ env.from.index() as u64);
                }
                let sends = self.rng.range_u32(1, self.n + 1);
                for _ in 0..sends {
                    let to = ProcessId(self.rng.range_u32(0, self.n));
                    out.send(to, Value(self.sum ^ self.rng.next_u64()));
                }
            }
            fn decision(&self) -> Option<Value> {
                Some(Value(self.sum))
            }
        }

        fn gossip_run(
            n: usize,
            seed: u64,
            crash: Option<(usize, usize)>,
            phases: usize,
        ) -> RunOutcome<Value> {
            let actors: Vec<Box<dyn Actor<Value>>> = (0..n)
                .map(|i| {
                    let honest = Box::new(Gossip {
                        rng: SimRng::new(derive_seed(seed, i as u64)),
                        n: n as u32,
                        sum: i as u64,
                    }) as Box<dyn Actor<Value>>;
                    match crash {
                        Some((j, cp)) if j == i => {
                            Box::new(Crash::new(honest, cp)) as Box<dyn Actor<Value>>
                        }
                        _ => honest,
                    }
                })
                .collect();
            Simulation::new(actors).with_trace().run(phases)
        }

        /// The doc comment on [`Crash`] claims it "behaves exactly like the
        /// wrapped honest actor until (and excluding) `crash_phase`". Pin
        /// that equivalence: for every phase before the crash, the traced
        /// envelopes are byte-identical and the per-phase message totals
        /// match; at the crash phase itself exactly the crashed processor's
        /// sends disappear.
        #[test]
        fn prop_crash_prefix_is_byte_identical_to_honest() {
            let phases = 6;
            run_cases(24, 0xC5A5, |gen| {
                let n = gen.usize_in(2, 6);
                let j = gen.usize_in(0, n);
                let cp = gen.usize_in(1, phases + 2);
                let seed = gen.u64();
                let baseline = gossip_run(n, seed, None, phases);
                let crashed = gossip_run(n, seed, Some((j, cp)), phases);

                for k in 0..cp.saturating_sub(1).min(phases) {
                    assert_eq!(
                        baseline.trace.phases[k],
                        crashed.trace.phases[k],
                        "phase {} trace diverged before the crash (n={n} j={j} cp={cp})",
                        k + 1
                    );
                    let b = baseline
                        .metrics
                        .per_phase
                        .get(k)
                        .copied()
                        .unwrap_or_default();
                    let c = crashed
                        .metrics
                        .per_phase
                        .get(k)
                        .copied()
                        .unwrap_or_default();
                    assert_eq!(
                        b.messages_by_correct + b.messages_by_faulty,
                        c.messages_by_correct + c.messages_by_faulty,
                        "phase {} message totals diverged before the crash",
                        k + 1
                    );
                }
                if cp <= phases {
                    let k = cp - 1;
                    let expect: Vec<Envelope<Value>> = baseline.trace.phases[k]
                        .iter()
                        .filter(|e| e.from.index() != j)
                        .cloned()
                        .collect();
                    assert_eq!(
                        crashed.trace.phases[k], expect,
                        "at the crash phase only processor {j}'s sends may vanish"
                    );
                }
            });
        }
    }

    #[test]
    fn wrappers_report_faulty() {
        assert!(!Actor::<Value>::is_correct(&Crash::new(Echo::default(), 1)));
        assert!(!Actor::<Value>::is_correct(&OmitTo::new(
            Echo::default(),
            []
        )));
        assert!(!Actor::<Value>::is_correct(&IgnoreFirst::new(
            Echo::default(),
            0
        )));
    }
}
