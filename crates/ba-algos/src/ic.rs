//! Interactive consistency — every processor ends with the *vector* of all
//! private values — built from `n` parallel Byzantine Agreement instances.
//!
//! The paper frames Byzantine Agreement as the single-source primitive
//! behind coordination problems such as interactive consistency (its
//! reference 15, Pease–Shostak–Lamport). This module demonstrates the
//! reduction this library's users would actually perform: run one
//! [`dolev_strong`](crate::dolev_strong) instance per source, with
//! per-instance chain domains so signatures cannot leak between instances,
//! and read off the agreed vector.
//!
//! Guarantees (with `n > t + 1` and at most `t` faults):
//!
//! * all correct processors obtain the same vector;
//! * entry `i` equals processor `i`'s private value whenever `i` is
//!   correct.

use crate::common::{chain_adversary, instance, lift, run_instance, Board, RunOptions};
use crate::dolev_strong::{DsActor, DsParams, Variant};
use ba_crypto::{Barrier, Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Envelope, Inbox, Outbox, Payload};
use ba_sim::engine::{InstanceSpec, RunOutcome};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use std::sync::Arc;

/// Base chain domain for instance separation: instance `i` signs under
/// `IC_DOMAIN_BASE + i`.
pub const IC_DOMAIN_BASE: u32 = 20_000;

/// A message of one inner agreement instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcMsg {
    /// Which instance (the source processor's index).
    pub instance: u32,
    /// The instance's Dolev–Strong chain.
    pub chain: Chain,
}

impl Payload for IcMsg {
    fn signature_count(&self) -> usize {
        self.chain.len()
    }
    /// A 4-byte instance tag, then the chain as [`Chain`] weighs it.
    fn weight_bytes(&self) -> usize {
        4 + self.chain.weight_bytes()
    }
    fn kind(&self) -> &'static str {
        "ic-chain"
    }
    fn verify_at_barrier(&self, barrier: &mut Barrier<'_>) {
        barrier.chain(&self.chain);
    }
}

/// Builds the per-instance parameter block.
fn instance_params(n: usize, t: usize, instance: u32, verifier: Verifier) -> Arc<DsParams> {
    Arc::new(DsParams {
        n,
        t,
        variant: Variant::Broadcast,
        verifier,
        transmitter: ProcessId(instance),
        domain: IC_DOMAIN_BASE + instance,
        weaken_relay_threshold: false,
    })
}

/// An interactive-consistency processor: one [`DsActor`] per instance,
/// demultiplexed by the `instance` tag. A faulty one runs an adversary in
/// its own instance instead and reports itself faulty.
#[derive(Debug)]
pub struct IcActor {
    me: ProcessId,
    subs: Vec<Box<dyn Actor<Chain>>>,
    /// Per instance, its share of the current inbox (kept across phases
    /// so the buffers are reused).
    inboxes: Vec<Vec<Envelope<Chain>>>,
    vectors: Arc<Board<Vec<Value>>>,
}

impl IcActor {
    /// Creates the actor holding private value `own_value`.
    pub fn new(
        n: usize,
        t: usize,
        me: ProcessId,
        own_value: Value,
        signer: Signer,
        verifier: Verifier,
        vectors: Arc<Board<Vec<Value>>>,
    ) -> Self {
        let subs = (0..n as u32)
            .map(|i| {
                Box::new(DsActor::new(
                    instance_params(n, t, i, verifier.clone()),
                    me,
                    signer.clone(),
                    (ProcessId(i) == me).then_some(own_value),
                )) as Box<dyn Actor<Chain>>
            })
            .collect();
        IcActor {
            me,
            subs,
            inboxes: vec![Vec::new(); n],
            vectors,
        }
    }

    /// Sorts `inbox` into the per-instance buffers in one pass, keeping
    /// inbox order within each; a message tagged with no instance of this
    /// run is dropped.
    fn demux(&mut self, inbox: Inbox<'_, IcMsg>) {
        self.inboxes.iter_mut().for_each(Vec::clear);
        for m in inbox {
            if let Some(bucket) = self.inboxes.get_mut(m.payload.instance as usize) {
                bucket.push(Envelope {
                    from: m.from,
                    to: m.to,
                    payload: m.payload.chain.clone(),
                });
            }
        }
    }

    /// This processor with `adversary` in place of its own instance's
    /// transmitter.
    fn with_own(mut self, adversary: Box<dyn Actor<Chain>>) -> Self {
        self.subs[self.me.index()] = adversary;
        self
    }

    /// The agreed vector (after the run); `None` on a faulty processor,
    /// whose own instance decides nothing.
    pub fn vector(&self) -> Option<Vec<Value>> {
        self.subs.iter().map(|s| s.decision()).collect()
    }
}

impl Actor<IcMsg> for IcActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, IcMsg>, out: &mut Outbox<IcMsg>) {
        self.demux(inbox);
        for ((instance, sub), sub_inbox) in (0..).zip(&mut self.subs).zip(&self.inboxes) {
            let mut scratch = Outbox::new(self.me);
            sub.step(phase, Inbox::of(sub_inbox), &mut scratch);
            lift(scratch, out, |chain| IcMsg { instance, chain });
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, IcMsg>) {
        self.demux(inbox);
        for (sub, sub_inbox) in self.subs.iter_mut().zip(&self.inboxes) {
            sub.finalize(Inbox::of(sub_inbox));
        }
        if let Some(vector) = self.vector() {
            self.vectors.post(self.me, vector);
        }
    }

    fn decision(&self) -> Option<Value> {
        // Scalar projection for the generic checker: fold the vector so
        // scalar agreement implies vector agreement (exact vectors are
        // compared via the board by the runner's callers).
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for v in self.vector()? {
            acc ^= v.0.wrapping_add(0x9e37_79b9);
            acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Some(Value(acc))
    }

    fn is_correct(&self) -> bool {
        self.subs[self.me.index()].is_correct()
    }
}

/// Outcome of an interactive-consistency run.
#[derive(Debug)]
pub struct IcReport {
    /// Raw engine outcome.
    pub outcome: RunOutcome<IcMsg>,
    /// Per-processor agreed vectors (by processor index).
    pub vectors: Vec<Option<Vec<Value>>>,
}

impl IcReport {
    /// The common vector of the correct processors.
    ///
    /// # Panics
    /// Panics if correct processors hold different vectors (a bug —
    /// covered by the tests).
    pub fn common_vector(&self) -> Option<Vec<Value>> {
        let mut common: Option<Vec<Value>> = None;
        for (i, correct) in self.outcome.correct.iter().enumerate() {
            if !correct {
                continue;
            }
            let v = self.vectors[i]
                .as_ref()
                .expect("correct processor posted a vector");
            match &common {
                None => common = Some(v.clone()),
                Some(c) => assert_eq!(c, v, "correct processors disagree on the vector"),
            }
        }
        common
    }
}

/// Runs interactive consistency among `n` processors with private
/// `values` and up to `t` faults.
///
/// ```
/// use ba_algos::common::RunOptions;
/// use ba_algos::ic::run;
/// use ba_crypto::Value;
///
/// let values = vec![Value(5), Value(6), Value(7), Value(8)];
/// let report = run(4, 1, &values, RunOptions::new().with_seed(1));
/// assert_eq!(report.common_vector(), Some(values));
/// ```
///
/// The schedule's `Equivocate { ones }` and `Forge` are a processor
/// honest in every instance but its own, where it runs the adversary
/// Dolev–Strong maps them to: a
/// [`SplitTransmitter`](crate::common::SplitTransmitter) signing `1` for
/// `ones` and `0` for the rest, each value once, or a
/// [`ChainFuzzer`](crate::fuzz::ChainFuzzer) spammer.
///
/// # Panics
/// Panics unless `values.len() == n` and `1 ≤ t ≤ n − 2`, or on a
/// malformed schedule.
pub fn run(n: usize, t: usize, values: &[Value], options: RunOptions) -> IcReport {
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let vectors = Board::new(n);
    let built = build(n, t, values, &options.schedule, &registry, &vectors);
    IcReport {
        outcome: run_instance(built, &options),
        vectors: vectors.snapshot(),
    }
}

/// Builds one interactive-consistency instance over `n` processors
/// signing under `registry`: processor `i` holds `values[i]`,
/// `schedule`'s faults are applied, every processor posts its vector on
/// `vectors`, and delivered chains are verified at the phase barrier.
/// [`run`] builds through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a protocol-specific behaviour other
/// than `equivocate` and `forge`.
///
/// # Panics
/// As [`run`] does.
pub fn build(
    n: usize,
    t: usize,
    values: &[Value],
    schedule: &ScheduleSpec,
    registry: &KeyRegistry,
    vectors: &Arc<Board<Vec<Value>>>,
) -> Result<InstanceSpec<IcMsg>, ScheduleError> {
    assert_eq!(values.len(), n, "one private value per processor");
    assert!(t >= 1 && n >= t + 2);
    let honest = |p: ProcessId| {
        let (signer, verifier) = (registry.signer(p), registry.verifier());
        IcActor::new(
            n,
            t,
            p,
            values[p.index()],
            signer,
            verifier,
            vectors.clone(),
        )
    };
    let adversary = |p: ProcessId, behavior: &FaultBehavior| -> Option<Box<dyn Actor<IcMsg>>> {
        let own = chain_adversary(registry, IC_DOMAIN_BASE + p.0, p, behavior)?;
        Some(Box::new(honest(p).with_own(own)))
    };
    let boxed = |p| Box::new(honest(p)) as Box<dyn Actor<IcMsg>>;
    instance(schedule, (n, t, t + 1), registry, boxed, adversary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::SchemeKind;

    fn values(n: usize) -> Vec<Value> {
        (0..n as u64).map(|i| Value(i * 10 + 1)).collect()
    }

    fn options(schedule: ScheduleSpec, seed: u64) -> RunOptions {
        let options = RunOptions::new().with_schedule(schedule).with_seed(seed);
        options.with_scheme(SchemeKind::Fast)
    }

    /// `set` each sign `1` for odd receivers and `0` for even ones in
    /// their own instance.
    fn equivocating(n: usize, set: &[u32]) -> ScheduleSpec {
        let ones = (1..n as u32).step_by(2).map(ProcessId).collect();
        ScheduleSpec::each(
            set.iter().copied().map(ProcessId),
            FaultBehavior::Equivocate { ones },
        )
    }

    #[test]
    fn demux_keeps_inbox_order_and_drops_unknown_instances() {
        let registry = KeyRegistry::new(3, 1, SchemeKind::Fast);
        let me = ProcessId(0);
        let mut actor = IcActor::new(
            3,
            1,
            me,
            Value::ONE,
            registry.signer(me),
            registry.verifier(),
            Board::new(3),
        );
        let msg = |from: u32, instance: u32, v: u64| Envelope {
            from: ProcessId(from),
            to: me,
            payload: IcMsg {
                instance,
                chain: Chain::new(IC_DOMAIN_BASE, Value(v)),
            },
        };
        let inbox = [
            msg(1, 2, 10),
            msg(2, 0, 11),
            msg(1, 7, 12),
            msg(2, 2, 13),
            msg(1, u32::MAX, 14),
        ];
        actor.demux(Inbox::of(&inbox));
        let seen = |bucket: &[Envelope<Chain>]| -> Vec<(u32, u64)> {
            bucket
                .iter()
                .map(|e| (e.from.0, e.payload.value().0))
                .collect()
        };
        assert_eq!(seen(&actor.inboxes[0]), [(2, 11)]);
        assert!(actor.inboxes[1].is_empty());
        assert_eq!(seen(&actor.inboxes[2]), [(1, 10), (2, 13)]);
        // The buffers are refilled, not appended to, at the next phase.
        actor.demux(Inbox::of(&inbox[..1]));
        assert_eq!(seen(&actor.inboxes[2]), [(1, 10)]);
        assert!(actor.inboxes[0].is_empty());
    }

    #[test]
    fn fault_free_everyone_gets_the_exact_vector() {
        for (n, t) in [(4usize, 1usize), (6, 2), (8, 3)] {
            let vals = values(n);
            let r = run(n, t, &vals, options(ScheduleSpec::default(), 1));
            let common = r.common_vector().unwrap();
            assert_eq!(common, vals, "n={n} t={t}");
        }
    }

    #[test]
    fn silent_processors_default_to_zero_in_their_slot() {
        let n = 6;
        let t = 2;
        let vals = values(n);
        let silent = ScheduleSpec::each([ProcessId(2), ProcessId(4)], FaultBehavior::Silent);
        let r = run(n, t, &vals, options(silent, 3));
        let common = r.common_vector().unwrap();
        assert_eq!(common.len(), n);
        for i in 0..n {
            if i == 2 || i == 4 {
                assert_eq!(common[i], Value::ZERO, "silent slot defaults");
            } else {
                assert_eq!(common[i], vals[i], "correct slot preserved");
            }
        }
    }

    #[test]
    fn equivocators_cannot_split_the_vector() {
        let n = 7;
        let t = 2;
        let vals = values(n);
        let r = run(n, t, &vals, options(equivocating(n, &[1, 5]), 7));
        // common_vector asserts all correct processors agree.
        let common = r.common_vector().unwrap();
        for i in [0usize, 2, 3, 4, 6] {
            assert_eq!(common[i], vals[i], "correct slot {i} preserved");
        }
    }

    #[test]
    fn instance_domains_are_separated() {
        // A chain signed in instance 3 must not be acceptable in instance 4.
        let registry = KeyRegistry::new(5, 1, SchemeKind::Fast);
        let p3 = instance_params(5, 1, 3, registry.verifier());
        let p4 = instance_params(5, 1, 4, registry.verifier());
        let mut chain = Chain::new(IC_DOMAIN_BASE + 3, Value(9));
        chain.sign_and_append(&registry.signer(ProcessId(3)));
        assert!(p3.is_acceptable(&chain, 1, ProcessId(0)));
        assert!(!p4.is_acceptable(&chain, 1, ProcessId(0)));
    }

    #[test]
    fn vector_agreement_implies_scalar_projection_agreement() {
        let n = 5;
        let r = run(n, 1, &values(n), options(ScheduleSpec::default(), 9));
        let decisions: Vec<_> = r
            .outcome
            .decisions
            .iter()
            .zip(&r.outcome.correct)
            .filter(|(_, c)| **c)
            .map(|(d, _)| d.unwrap())
            .collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_ic_holds_for_random_values_and_faults() {
            run_cases(10, 0x6C, |gen| {
                let n = gen.usize_in(4, 8);
                let seed = gen.u64();
                let raw: Vec<u64> = (0..8).map(|_| gen.u64()).collect();
                let victim = gen.u32();
                let behavior = gen.usize_in(0, 3);
                let t = 1;
                let vals: Vec<Value> = (0..n).map(|i| Value(raw[i])).collect();
                let bad = ProcessId(victim % n as u32);
                let schedule = match behavior {
                    0 => equivocating(n, &[bad.0]),
                    1 => ScheduleSpec::each([bad], FaultBehavior::Forge { seed, per_phase: 4 }),
                    _ => ScheduleSpec::each([bad], FaultBehavior::Silent),
                };
                let r = run(n, t, &vals, options(schedule, seed));
                let common = r.common_vector().unwrap();
                for i in 0..n {
                    if ProcessId(i as u32) != bad {
                        assert_eq!(common[i], vals[i]);
                    }
                }
            });
        }
    }

    #[test]
    fn chain_failing_barrier_verification_is_rejected_by_every_recipient() {
        // The last processor relays, in phase 2, a well-formed length-2
        // chain for 9 in p0's instance whose signatures come from a
        // *different* registry seed. A recipient waved through by a stamp
        // would extract a second value there, and its vector's first entry
        // would fall back to the default.
        use crate::common::{barrier_matches_reference, OneShot};
        let (n, t) = (6, 2);
        let registry = KeyRegistry::new(n, 1, SchemeKind::Fast);
        let foreign = KeyRegistry::new(n, 2, SchemeKind::Fast);
        let mut chain = Chain::new(IC_DOMAIN_BASE, Value(9));
        chain
            .sign_and_append(&foreign.signer(ProcessId(0)))
            .sign_and_append(&foreign.signer(ProcessId(n as u32 - 1)));
        let forged = IcMsg {
            instance: 0,
            chain: chain.clone(),
        };
        let vectors = Board::new(n);
        barrier_matches_reference(|| {
            let schedule = ScheduleSpec::default();
            let spec = build(n, t, &values(n), &schedule, &registry, &vectors);
            let mut spec = spec.expect("fault-free schedule");
            spec.actors[n - 1] = Box::new(OneShot {
                n,
                phase: 2,
                payload: forged.clone(),
            });
            spec
        });
        // Both runs post the same vectors, as their decisions (which fold
        // the vectors) are equal; the forger posts none.
        let mut expected = values(n);
        expected[n - 1] = Value::ZERO;
        for (p, vector) in vectors.snapshot().iter().enumerate().take(n - 1) {
            assert_eq!(vector.as_ref(), Some(&expected), "p{p}");
        }
        assert!(chain.verify(&registry.verifier()).is_err());
    }
}
