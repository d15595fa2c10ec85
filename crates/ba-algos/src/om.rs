//! The unauthenticated oral-messages baseline `OM(t)` of Lamport, Shostak
//! and Pease (reference 14 of the paper).
//!
//! Corollary 1 states that *without* authentication, `n(t+1)/4` is a lower
//! bound on the number of **messages**. `OM(t)` is the classic
//! unauthenticated algorithm (requiring `n > 3t`), implemented here over
//! the exponential-information-gathering (EIG) tree:
//!
//! * **Phase 1** — the transmitter sends its value to everyone (path
//!   `[q]`).
//! * **Phase `k`** (`2 ≤ k ≤ t + 1`) — each processor relays every value it
//!   received at phase `k − 1` with path `π` to every processor not on
//!   `π`, extending the path with itself.
//! * **Decision** — recursive majority over the EIG tree with default `0`.
//!
//! The exact message count `(n−1) + (n−1)(n−2) + … + (n−1)⋯(n−t−1)` (see
//! [`bounds::om_messages`](crate::bounds::om_messages)) is what experiment
//! E2 compares against the Corollary 1 lower bound — and its explosion for
//! growing `t` is why the paper's authenticated algorithms matter.

use crate::common::{instance, run_report, AlgoReport, RunOptions};
use ba_crypto::{ProcessId, Value};
use ba_sim::actor::{Actor, Inbox, Outbox, Payload, Received};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};
use ba_sim::AgreementViolation;
use std::collections::BTreeMap;

/// An oral (unauthenticated, source-stamped) message: the relay path and
/// the claimed value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OmMsg {
    /// Relay path, starting at the transmitter; the last entry is the
    /// claimed sender of this hop.
    pub path: Vec<ProcessId>,
    /// The relayed value.
    pub value: Value,
}

impl Payload for OmMsg {
    fn weight_bytes(&self) -> usize {
        8 + 4 * self.path.len()
    }
    fn kind(&self) -> &'static str {
        "oral"
    }
}

/// An honest `OM(t)` processor.
#[derive(Debug)]
pub struct OmActor {
    n: usize,
    t: usize,
    me: ProcessId,
    own_value: Option<Value>,
    /// EIG tree: received value per path.
    tree: BTreeMap<Vec<ProcessId>, Value>,
    phase: usize,
}

impl OmActor {
    /// Creates the actor; `own_value` is `Some` for the transmitter.
    pub fn new(n: usize, t: usize, me: ProcessId, own_value: Option<Value>) -> Self {
        OmActor {
            n,
            t,
            me,
            own_value,
            tree: BTreeMap::new(),
            phase: 0,
        }
    }

    fn is_valid(&self, env: Received<'_, OmMsg>, k: usize) -> bool {
        let path = &env.payload.path;
        path.len() == k
            && path[0] == ProcessId(0)
            && *path.last().expect("nonempty") == env.from
            && !path.contains(&self.me)
            && path.iter().all(|p| p.index() < self.n)
            && {
                let mut seen = path.clone();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            }
    }

    fn absorb(&mut self, inbox: Inbox<'_, OmMsg>, k: usize, out: Option<&mut Outbox<OmMsg>>) {
        let mut relays: Vec<OmMsg> = Vec::new();
        for env in inbox {
            if !self.is_valid(env, k) {
                continue;
            }
            let msg = &env.payload;
            if self.tree.contains_key(&msg.path) {
                continue; // first writer wins, duplicates dropped
            }
            self.tree.insert(msg.path.clone(), msg.value);
            if msg.path.len() <= self.t {
                let mut path = msg.path.clone();
                path.push(self.me);
                relays.push(OmMsg {
                    path,
                    value: msg.value,
                });
            }
        }
        if let Some(out) = out {
            for relay in relays {
                for p in 0..self.n as u32 {
                    let id = ProcessId(p);
                    if !relay.path.contains(&id) {
                        out.send(id, relay.clone());
                    }
                }
            }
        }
    }

    /// Recursive EIG majority resolution for `path`.
    ///
    /// Per `OM(m)`: an internal node resolves to the majority over its
    /// children's resolutions *plus* the directly-stored value (the
    /// receiver's own `v_i` in Lamport–Shostak–Pease's
    /// `majority(v_1, …, v_{n−1})`), defaulting to `0` on a tie.
    fn resolve(&self, path: &[ProcessId]) -> Value {
        let stored = self.tree.get(path).copied().unwrap_or(Value::ZERO);
        if path.len() > self.t {
            return stored;
        }
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        let mut votes = 1usize; // the stored value is my own vote
        *counts.entry(stored).or_insert(0) += 1;
        for p in 0..self.n as u32 {
            let id = ProcessId(p);
            if id == self.me || path.contains(&id) {
                continue;
            }
            let mut child = path.to_vec();
            child.push(id);
            *counts.entry(self.resolve(&child)).or_insert(0) += 1;
            votes += 1;
        }
        // Strict majority, else the default value.
        counts
            .into_iter()
            .find(|(_, c)| 2 * c > votes)
            .map(|(v, _)| v)
            .unwrap_or(Value::ZERO)
    }
}

impl Actor<OmMsg> for OmActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, OmMsg>, out: &mut Outbox<OmMsg>) {
        self.phase = phase;
        if phase == 1 {
            if let Some(v) = self.own_value {
                let msg = OmMsg {
                    path: vec![self.me],
                    value: v,
                };
                out.broadcast_all(self.n, msg);
            }
            return;
        }
        if self.own_value.is_some() {
            return;
        }
        self.absorb(inbox, phase - 1, Some(out));
    }

    fn finalize(&mut self, inbox: Inbox<'_, OmMsg>) {
        if self.own_value.is_none() {
            let k = self.phase;
            self.absorb(inbox, k, None);
        }
    }

    fn decision(&self) -> Option<Value> {
        if let Some(v) = self.own_value {
            return Some(v);
        }
        Some(self.resolve(&[ProcessId(0)]))
    }
}

/// Adversaries for `OM(t)`.
pub mod adversaries {
    use super::*;

    /// An equivocating transmitter: value `1` to the given set, `0` to the
    /// rest.
    #[derive(Debug)]
    pub struct OmEquivocator {
        n: usize,
        ones: Vec<ProcessId>,
    }

    impl OmEquivocator {
        /// Creates the adversary.
        pub fn new(n: usize, ones: Vec<ProcessId>) -> Self {
            OmEquivocator { n, ones }
        }
    }

    impl Actor<OmMsg> for OmEquivocator {
        fn step(&mut self, phase: usize, _inbox: Inbox<'_, OmMsg>, out: &mut Outbox<OmMsg>) {
            if phase != 1 {
                return;
            }
            for p in 1..self.n as u32 {
                let id = ProcessId(p);
                let v = if self.ones.contains(&id) {
                    Value::ONE
                } else {
                    Value::ZERO
                };
                out.send(
                    id,
                    OmMsg {
                        path: vec![ProcessId(0)],
                        value: v,
                    },
                );
            }
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn is_correct(&self) -> bool {
            false
        }
    }

    /// A relay that flips every value it forwards to the targets in
    /// `flip` — unauthenticated messages cannot be caught by signature
    /// checks, so only the majority logic protects the run.
    #[derive(Debug)]
    pub struct FlippingRelay {
        inner: OmActor,
        flip: Vec<ProcessId>,
    }

    impl FlippingRelay {
        /// Creates the adversary from an honest actor's parameters.
        pub fn new(n: usize, t: usize, me: ProcessId, flip: Vec<ProcessId>) -> Self {
            FlippingRelay {
                inner: OmActor::new(n, t, me, None),
                flip,
            }
        }
    }

    impl Actor<OmMsg> for FlippingRelay {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, OmMsg>, out: &mut Outbox<OmMsg>) {
            // Run the honest logic into a scratch outbox, then corrupt.
            let mut scratch = Outbox::new(out.sender());
            self.inner.step(phase, inbox, &mut scratch);
            for env in scratch.into_staged() {
                let mut msg = env.payload;
                if self.flip.contains(&env.to) {
                    msg.value = Value(1 - msg.value.0 % 2);
                }
                out.send(env.to, msg);
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

/// Builds and runs an `OM(t)` scenario under `schedule`, sequentially.
/// `OM(t)` signs nothing, so it takes no key seed or scheme.
/// `Equivocate { ones }` on the transmitter is an
/// [`OmEquivocator`](adversaries::OmEquivocator) sending `1` to `ones`, on
/// a relay a [`FlippingRelay`](adversaries::FlippingRelay) flipping what it
/// forwards to `ones`.
///
/// ```
/// use ba_algos::om::run;
/// use ba_crypto::Value;
/// use ba_sim::ScheduleSpec;
///
/// let r = run(4, 1, Value::ONE, &ScheduleSpec::default())?;
/// assert_eq!(r.verdict.agreed, Some(Value::ONE));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`].
///
/// # Panics
/// Panics unless `n > 3t` and `t ≥ 1` (the oral-messages requirement),
/// or on a malformed schedule.
pub fn run(
    n: usize,
    t: usize,
    value: Value,
    schedule: &ScheduleSpec,
) -> Result<AlgoReport<OmMsg>, AgreementViolation> {
    assert!(t >= 1 && n > 3 * t, "OM(t) needs n > 3t");

    let honest = |p: ProcessId| -> Box<dyn Actor<OmMsg>> {
        Box::new(OmActor::new(n, t, p, (p == ProcessId(0)).then_some(value)))
    };
    let adversary = |p: ProcessId, behavior: &FaultBehavior| -> Option<Box<dyn Actor<OmMsg>>> {
        let FaultBehavior::Equivocate { ones } = behavior else {
            return None;
        };
        Some(if p == ProcessId(0) {
            Box::new(adversaries::OmEquivocator::new(n, ones.clone()))
        } else {
            Box::new(adversaries::FlippingRelay::new(n, t, p, ones.clone()))
        })
    };
    let spec = instance(schedule, (n, t, t + 1), None, honest, adversary);
    run_report(spec, &RunOptions::<()>::new(), value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_sim::Envelope;

    fn odd(n: usize) -> Vec<ProcessId> {
        (1..n as u32).step_by(2).map(ProcessId).collect()
    }

    /// `relays` flip what they forward to odd-numbered targets.
    fn flipping(n: usize, relays: &[u32]) -> ScheduleSpec {
        let ones = odd(n);
        ScheduleSpec::each(
            relays.iter().copied().map(ProcessId),
            FaultBehavior::Equivocate { ones },
        )
    }

    #[test]
    fn fault_free_agrees_with_exact_message_count() {
        for (n, t) in [(4, 1), (5, 1), (7, 2), (10, 3)] {
            let r = run(n, t, Value::ONE, &ScheduleSpec::default()).unwrap();
            assert_eq!(r.verdict.agreed, Some(Value::ONE), "n={n} t={t}");
            assert_eq!(
                r.outcome.metrics.messages_by_correct,
                bounds::om_messages(n as u64, t as u64),
                "n={n} t={t}"
            );
        }
    }

    #[test]
    fn fault_free_value_zero() {
        let r = run(7, 2, Value::ZERO, &ScheduleSpec::default()).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ZERO));
    }

    #[test]
    fn equivocating_transmitter_still_agrees() {
        for split in 1..6 {
            let (n, t) = (7, 2);
            let ones: Vec<ProcessId> = (1..=split).map(ProcessId).collect();
            let r = run(
                n,
                t,
                Value::ONE,
                &ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones }),
            )
            .unwrap();
            assert!(r.verdict.agreed.is_some(), "split={split}");
        }
    }

    #[test]
    fn flipping_relays_defeated_by_majority() {
        let (n, t) = (7, 2);
        let r = run(n, t, Value::ONE, &flipping(n, &[2, 5])).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn silent_relays_tolerated() {
        let (n, t) = (10, 3);
        let r = run(
            n,
            t,
            Value::ONE,
            &ScheduleSpec::each(
                [ProcessId(3), ProcessId(6), ProcessId(9)],
                FaultBehavior::Silent,
            ),
        )
        .unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn message_validation_rejects_malformed_paths() {
        let actor = OmActor::new(5, 1, ProcessId(3), None);
        let is_valid = |from: u32, path: Vec<u32>, k: usize| {
            let env = Envelope {
                from: ProcessId(from),
                to: ProcessId(3),
                payload: OmMsg {
                    path: path.into_iter().map(ProcessId).collect(),
                    value: Value::ONE,
                },
            };
            let received = Inbox::of(std::slice::from_ref(&env)).first();
            actor.is_valid(received.expect("one message"), k)
        };
        // Valid: phase-2 message from p1 with path [q, p1].
        assert!(is_valid(1, vec![0, 1], 2));
        // Path must end at the actual sender.
        assert!(!is_valid(2, vec![0, 1], 2));
        // Path must start at the transmitter.
        assert!(!is_valid(1, vec![1, 1], 2));
        // Receiver must not appear on the path.
        assert!(!is_valid(3, vec![0, 3], 2));
        // Length must match the phase.
        assert!(!is_valid(1, vec![0, 1], 3));
        // Duplicates rejected.
        assert!(!is_valid(1, vec![0, 2, 2, 1], 4));
    }

    #[test]
    fn om_needs_n_greater_than_3t() {
        // n = 3t fails at the boundary by construction; the classic
        // counterexample (n=3, t=1) is excluded by the assertion.
        let result = std::panic::catch_unwind(|| run(6, 2, Value::ONE, &ScheduleSpec::default()));
        assert!(result.is_err());
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_om_agrees_under_random_faults() {
            run_cases(12, 0x68, |gen| {
                let t = gen.usize_in(1, 3);
                let extra = gen.usize_in(1, 4);
                let mask = gen.u32() as u16;
                let flip = gen.bool();
                let n = 3 * t + extra;
                let set: Vec<ProcessId> = (1..n as u32)
                    .filter(|p| mask & (1 << (p % 16)) != 0)
                    .take(t)
                    .map(ProcessId)
                    .collect();
                let behavior = if flip {
                    FaultBehavior::Equivocate { ones: odd(n) }
                } else {
                    FaultBehavior::Silent
                };
                let schedule = ScheduleSpec::each(set, behavior);
                let r = run(n, t, Value::ONE, &schedule).unwrap();
                assert_eq!(r.verdict.agreed, Some(Value::ONE));
            });
        }
    }
}
