//! The unauthenticated oral-messages baseline `OM(t)` of Lamport, Shostak
//! and Pease (reference 14 of the paper).
//!
//! Corollary 1 states that *without* authentication, `n(t+1)/4` is a lower
//! bound on the number of **messages**. `OM(t)` is the classic
//! unauthenticated algorithm (requiring `n > 3t`), implemented here over
//! the exponential-information-gathering (EIG) tree. An oral message is a
//! signature chain under [`SchemeKind::Oral`], whose signatures carry no
//! tag: its signers are the relay path, and anyone could have written it.
//!
//! * **Phase 1** — the transmitter sends its value to everyone (path
//!   `[q]`).
//! * **Phase `k`** (`2 ≤ k ≤ t + 1`) — each processor relays every value it
//!   received at phase `k − 1` with path `π` to every processor not on
//!   `π`, extending the path with itself (appending its signature).
//! * **Decision** — recursive majority over the EIG tree with default `0`.
//!
//! The exact message count `(n−1) + (n−1)(n−2) + … + (n−1)⋯(n−t−1)` (see
//! [`bounds::om_messages`](crate::bounds::om_messages)) is what experiment
//! E2 compares against the Corollary 1 lower bound — and its explosion for
//! growing `t` is why the paper's authenticated algorithms matter.

use crate::common::{chain_adversary, domains, instance, run_report, AlgoReport, RunOptions};
use ba_crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox, Received};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use ba_sim::{AgreementViolation, InstanceSpec};
use std::collections::BTreeMap;

/// An honest `OM(t)` processor. Of a chain's signer path it trusts only
/// the last hop, which must be the engine-stamped sender.
#[derive(Debug)]
pub struct OmActor {
    n: usize,
    t: usize,
    signer: Signer,
    verifier: Verifier,
    own_value: Option<Value>,
    /// EIG tree: received value per signer path.
    tree: BTreeMap<Vec<ProcessId>, Value>,
    phase: usize,
}

impl OmActor {
    /// Creates `me`'s actor over `registry`'s identities; `own_value` is
    /// `Some` for the transmitter.
    pub fn new(t: usize, registry: &KeyRegistry, me: ProcessId, own_value: Option<Value>) -> Self {
        OmActor {
            n: registry.len(),
            t,
            signer: registry.signer(me),
            verifier: registry.verifier(),
            own_value,
            tree: BTreeMap::new(),
            phase: 0,
        }
    }

    fn is_valid(&self, env: Received<'_, Chain>, k: usize) -> bool {
        let chain = env.payload;
        chain.domain() == domains::OM
            && chain.len() == k
            && chain.first_signer() == Some(ProcessId(0))
            && chain.last_signer() == Some(env.from)
            && !chain.contains_signer(self.signer.id())
            && chain.verify_simple_path(&self.verifier).is_ok()
    }

    fn absorb(&mut self, inbox: Inbox<'_, Chain>, k: usize, out: Option<&mut Outbox<Chain>>) {
        let mut relays: Vec<Chain> = Vec::new();
        for env in inbox {
            if !self.is_valid(env, k) {
                continue;
            }
            let chain = env.payload;
            let path: Vec<ProcessId> = chain.signers().collect();
            if self.tree.contains_key(&path) {
                continue; // first writer wins, duplicates dropped
            }
            self.tree.insert(path, chain.value());
            if chain.len() <= self.t {
                let mut relay = chain.clone();
                relay.sign_and_append(&self.signer);
                relays.push(relay);
            }
        }
        if let Some(out) = out {
            for relay in relays {
                for p in 0..self.n as u32 {
                    let id = ProcessId(p);
                    if !relay.contains_signer(id) {
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
            if id == self.signer.id() || path.contains(&id) {
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

impl Actor<Chain> for OmActor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        self.phase = phase;
        if phase == 1 {
            if let Some(v) = self.own_value {
                let mut chain = Chain::new(domains::OM, v);
                chain.sign_and_append(&self.signer);
                out.broadcast_all(self.n, chain);
            }
            return;
        }
        if self.own_value.is_some() {
            return;
        }
        self.absorb(inbox, phase - 1, Some(out));
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
        Some(self.resolve(&[ProcessId(0)]))
    }
}

/// Adversaries for `OM(t)`.
pub mod adversaries {
    use super::*;

    /// A relay that flips every value it forwards to the targets in
    /// `flip`, re-signing the flipped value along the same path — which
    /// anyone can under [`SchemeKind::Oral`], so only the majority logic
    /// protects the run.
    #[derive(Debug)]
    pub struct FlippingRelay {
        inner: OmActor,
        registry: KeyRegistry,
        flip: Vec<ProcessId>,
    }

    impl FlippingRelay {
        /// Creates the adversary from an honest actor's parameters.
        pub fn new(t: usize, registry: &KeyRegistry, me: ProcessId, flip: Vec<ProcessId>) -> Self {
            FlippingRelay {
                inner: OmActor::new(t, registry, me, None),
                registry: registry.clone(),
                flip,
            }
        }

        fn flipped(&self, chain: &Chain) -> Chain {
            let mut flipped = Chain::new(chain.domain(), Value(1 - chain.value().0 % 2));
            for p in chain.signers() {
                flipped.sign_and_append(&self.registry.signer(p));
            }
            flipped
        }
    }

    impl Actor<Chain> for FlippingRelay {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            // Run the honest logic into a scratch outbox, then corrupt.
            let mut scratch = Outbox::new(out.sender());
            self.inner.step(phase, inbox, &mut scratch);
            for env in scratch.into_staged() {
                let chain = if self.flip.contains(&env.to) {
                    self.flipped(&env.payload)
                } else {
                    env.payload
                };
                out.send(env.to, chain);
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

/// Builds and runs an `OM(t)` scenario under `options`. `OM(t)` is
/// unauthenticated, so it always signs under [`SchemeKind::Oral`] with
/// `options.seed` and ignores `options.scheme`; see [`build`] for the
/// behaviours its schedule maps.
///
/// ```
/// use ba_algos::om::run;
/// use ba_algos::RunOptions;
/// use ba_crypto::Value;
///
/// let r = run(4, 1, Value::ONE, RunOptions::new())?;
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
    options: RunOptions,
) -> Result<AlgoReport<Chain>, AgreementViolation> {
    assert!(t >= 1 && n > 3 * t, "OM(t) needs n > 3t");
    let registry = KeyRegistry::new(n, options.seed, SchemeKind::Oral);
    let spec = build(n, t, value, &registry, &options.schedule);
    run_report(spec, &options, value)
}

/// Builds one `OM(t)` instance over `n` processors signing under the
/// [`SchemeKind::Oral`] `registry`: the transmitter `p0` sends `value`,
/// `schedule`'s faults are applied, and delivered chains are verified at
/// the phase barrier. [`run`] and the `om` / `om-n3t` check targets both
/// build through it; only `run` insists on `n > 3t`.
///
/// `Equivocate { ones }` on the transmitter and `Forge` go to the shared
/// chain adversary; `Equivocate` on a relay is a
/// [`FlippingRelay`](adversaries::FlippingRelay) flipping what it forwards
/// to `ones`.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a `lie` or `withhold` fault.
///
/// # Panics
/// On a keyed registry (oral messages carry no tags), or a schedule
/// malformed for `n` and `t`.
pub fn build(
    n: usize,
    t: usize,
    value: Value,
    registry: &KeyRegistry,
    schedule: &ScheduleSpec,
) -> Result<InstanceSpec<Chain>, ScheduleError> {
    assert_eq!(
        registry.kind(),
        SchemeKind::Oral,
        "OM(t) is unauthenticated"
    );
    let honest = |p: ProcessId| -> Box<dyn Actor<Chain>> {
        Box::new(OmActor::new(
            t,
            registry,
            p,
            (p == ProcessId(0)).then_some(value),
        ))
    };
    let adversary = |p: ProcessId, behavior: &FaultBehavior| match behavior {
        FaultBehavior::Equivocate { ones } if p != ProcessId(0) => Some(Box::new(
            adversaries::FlippingRelay::new(t, registry, p, ones.clone()),
        )
            as Box<dyn Actor<Chain>>),
        _ => chain_adversary(registry, domains::OM, p, behavior),
    };
    instance(schedule, (n, t, t + 1), registry, honest, adversary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_sim::Envelope;

    fn run(n: usize, t: usize, value: Value, schedule: &ScheduleSpec) -> AlgoReport<Chain> {
        let options = RunOptions::new().with_schedule(schedule.clone());
        super::run(n, t, value, options).unwrap()
    }

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
            let r = run(n, t, Value::ONE, &ScheduleSpec::default());
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
        let r = run(7, 2, Value::ZERO, &ScheduleSpec::default());
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
            );
            assert!(r.verdict.agreed.is_some(), "split={split}");
        }
    }

    #[test]
    fn flipping_relays_defeated_by_majority() {
        let (n, t) = (7, 2);
        let r = run(n, t, Value::ONE, &flipping(n, &[2, 5]));
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
        );
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }

    #[test]
    fn message_validation_rejects_malformed_paths() {
        let registry = KeyRegistry::new(5, 0, SchemeKind::Oral);
        let actor = OmActor::new(1, &registry, ProcessId(3), None);
        let signed = |registry: &KeyRegistry, domain: u32, path: &[u32]| {
            let mut chain = Chain::new(domain, Value::ONE);
            for &p in path {
                chain.sign_and_append(&registry.signer(ProcessId(p)));
            }
            chain
        };
        let is_valid = |from: u32, payload: Chain, k: usize| {
            let env = Envelope {
                from: ProcessId(from),
                to: ProcessId(3),
                payload,
            };
            let received = Inbox::of(std::slice::from_ref(&env)).first();
            actor.is_valid(received.expect("one message"), k)
        };
        let path = |path: &[u32]| signed(&registry, domains::OM, path);
        // Valid: phase-2 message from p1 with path [q, p1].
        assert!(is_valid(1, path(&[0, 1]), 2));
        // Path must end at the actual sender.
        assert!(!is_valid(2, path(&[0, 1]), 2));
        // Path must start at the transmitter.
        assert!(!is_valid(1, path(&[1, 1]), 2));
        // Receiver must not appear on the path.
        assert!(!is_valid(3, path(&[0, 3]), 2));
        // Length must match the phase.
        assert!(!is_valid(1, path(&[0, 1]), 3));
        // Duplicates rejected.
        assert!(!is_valid(1, path(&[0, 2, 2, 1]), 4));
        // Another protocol's chain is not an oral message.
        assert!(!is_valid(
            1,
            signed(&registry, domains::DOLEV_STRONG, &[0, 1]),
            2
        ));
        // Nor is a keyed signature an oral one.
        let keyed = KeyRegistry::new(5, 0, SchemeKind::Fast);
        assert!(!is_valid(1, signed(&keyed, domains::OM, &[0, 1]), 2));
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
                let r = run(n, t, Value::ONE, &schedule);
                assert_eq!(r.verdict.agreed, Some(Value::ONE));
            });
        }
    }
}
