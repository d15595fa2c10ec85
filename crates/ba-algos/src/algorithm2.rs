//! Algorithm 2 — Algorithm 1 plus a transferable proof (Theorem 4).
//!
//! After the `t + 2` phases of Algorithm 1, the `2t + 1` processors —
//! written `p(1), …, p(2t+1)` in label order, label `j` being processor
//! `j − 1` — run `2t + 1` accumulation phases. A message received by `p(j)`
//! after phase `t + 2` is *increasing* if it carries the value `p(j)`
//! committed to in phase `t + 2` together with signatures of processors
//! with labels less than `j`, in increasing label order.
//!
//! * **Phase `t + 2 + j`** (`1 ≤ j ≤ 2t + 1`) — `p(j)` takes `m(j)`, an
//!   increasing message it has received with the maximum number of
//!   signatures (or the bare committed value if none), signs it, and sends
//!   it to everyone if `m(j)` carried at least `t` signatures, otherwise
//!   only to labels `j + 1 … j + t + 1`.
//!
//! Theorem 4: after `3t + 3` phases every correct processor possesses the
//! common value with at least `t` signatures of *other* processors — a
//! one-message proof for the outside world — no processor can hold such a
//! proof for any other value, and at most `5t² + 5t` messages are sent.
//!
//! The proof each processor ends with is deposited on a
//! [`Board`] in [`common`](crate::common) so callers can inspect it after the run.

use crate::algorithm1::{Algo1Actor, Algo1Params};
use crate::common::{
    chain_adversary, domains, instance, run_report, AlgoReport, Board, RunOptions,
};
use ba_crypto::{Chain, KeyRegistry, ProcessId, Signer, Value, Verifier};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::schedule::{FaultBehavior, ScheduleError, ScheduleSpec};
use ba_sim::{AgreementViolation, InstanceSpec};
use std::ops::Range;
use std::sync::Arc;

/// Checks that `chain` is a well-formed increasing message for a receiver
/// with label `upper_label` (all signer labels strictly below it, strictly
/// increasing) carrying `value`.
///
/// Labels are `id + 1`; `upper_label` is exclusive. Pass `usize::MAX` to
/// accept any strictly-increasing chain (used when harvesting proofs).
pub fn is_increasing_message(
    chain: &Chain,
    value: Value,
    upper_label: usize,
    verifier: &Verifier,
) -> bool {
    increasing_shape(chain, value, upper_label) && chain.verify(verifier).is_ok()
}

/// [`is_increasing_message`] short of the signature check.
fn increasing_shape(chain: &Chain, value: Value, upper_label: usize) -> bool {
    if chain.domain() != domains::ALG2 || chain.value() != value || chain.is_empty() {
        return false;
    }
    let mut prev = 0usize; // labels start at 1
    for signer in chain.signers() {
        let label = signer.index() + 1;
        if label <= prev || label >= upper_label {
            return false;
        }
        prev = label;
    }
    true
}

/// Whether `chain` proves `value` to the outside world: it verifies and
/// carries at least `t` distinct signatures of processors other than
/// `owner`.
pub fn is_transferable_proof(
    chain: &Chain,
    value: Value,
    owner: ProcessId,
    t: usize,
    verifier: &Verifier,
) -> bool {
    proof_shape(chain, value, owner, t) && chain.verify(verifier).is_ok()
}

/// [`is_transferable_proof`] short of the signature check.
fn proof_shape(chain: &Chain, value: Value, owner: ProcessId, t: usize) -> bool {
    if chain.value() != value {
        return false;
    }
    let mut others: Vec<ProcessId> = chain.signers().filter(|&s| s != owner).collect();
    others.sort_unstable();
    others.dedup();
    others.len() >= t
}

/// An honest Algorithm 2 processor.
#[derive(Debug)]
pub struct Algo2Actor {
    algo1: Algo1Actor,
    params: Arc<Algo1Params>,
    me: ProcessId,
    signer: Signer,
    committed: Option<Value>,
    /// Best increasing message received so far (most signatures).
    best: Option<Chain>,
    /// Best proof candidate seen (own signed m(j) or received chain).
    proof: Option<Chain>,
    proofs: Arc<Board<Chain>>,
}

impl Algo2Actor {
    /// Creates the actor for `me`; `own_value` is `Some` for the
    /// transmitter only.
    pub fn new(
        params: Arc<Algo1Params>,
        me: ProcessId,
        signer: Signer,
        own_value: Option<Value>,
        proofs: Arc<Board<Chain>>,
    ) -> Self {
        let algo1 = Algo1Actor::new(params.clone(), me, signer.clone(), own_value);
        Algo2Actor {
            algo1,
            params,
            me,
            signer,
            committed: None,
            best: None,
            proof: None,
            proofs,
        }
    }

    /// My 1-based label.
    fn label(&self) -> usize {
        self.me.index() + 1
    }

    /// Keeps the best increasing message and the best proof among
    /// `inbox`'s chains, verifying each chain that could be either once.
    fn absorb_increasing(&mut self, inbox: Inbox<'_, Chain>) {
        let Some(committed) = self.committed else {
            return;
        };
        for env in inbox {
            let chain = env.payload;
            let increasing = increasing_shape(chain, committed, self.label());
            let proof = chain.domain() == domains::ALG2
                && proof_shape(chain, committed, self.me, self.params.t);
            if !(increasing || proof) || chain.verify(&self.params.verifier).is_err() {
                continue;
            }
            if increasing && self.best.as_ref().is_none_or(|b| chain.len() > b.len()) {
                self.best = Some(chain.clone());
            }
            if proof && self.proof.as_ref().is_none_or(|p| chain.len() > p.len()) {
                self.proof = Some(chain.clone());
            }
        }
    }

    /// The transferable proof held so far, if any.
    pub fn proof(&self) -> Option<&Chain> {
        self.proof.as_ref()
    }

    /// Phase `3t + 4` of Algorithm 5 and of the small-`n` extension:
    /// finishes Algorithm 2 on `inbox`; one of the first `t + 1` then
    /// sends its [valid message](Self::valid_message) to each id in `to`
    /// and returns it.
    pub(crate) fn hand_off(
        &mut self,
        inbox: Inbox<'_, Chain>,
        to: Range<usize>,
        mut send: impl FnMut(ProcessId, Chain),
    ) -> Option<Chain> {
        self.finalize(inbox);
        (self.me.index() < self.params.t + 1).then(|| {
            let valid = self.valid_message();
            for p in to {
                send(ProcessId(p as u32), valid.clone());
            }
            valid
        })
    }

    /// Algorithm 5's *valid message*: the transferable proof, signed by
    /// this processor if it has not signed it yet.
    pub(crate) fn valid_message(&self) -> Chain {
        let mut valid = self
            .proof
            .clone()
            .expect("Theorem 4: every correct core processor holds a proof");
        if !valid.contains_signer(self.me) {
            valid.sign_and_append(&self.signer);
        }
        valid
    }
}

impl Actor<Chain> for Algo2Actor {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        let t = self.params.t;
        let n = self.params.n();

        if phase <= t + 2 {
            self.algo1.step(phase, inbox, out);
            return;
        }

        if phase == t + 3 {
            // The inbox still holds phase-(t+2) Algorithm 1 traffic.
            self.algo1.finalize(inbox);
            self.committed = self.algo1.decision();
        } else {
            self.absorb_increasing(inbox);
        }

        let j = phase - (t + 2);
        if j == self.label() {
            let committed = self.committed.expect("committed at phase t+3");
            let (mut m, received_sigs) = match &self.best {
                Some(b) => (b.clone(), b.len()),
                None => (Chain::new(domains::ALG2, committed), 0),
            };
            // `m` is a verified chain (or a fresh one) plus this
            // processor's own signature: it verifies by construction.
            m.sign_and_append(&self.signer);
            if proof_shape(&m, committed, self.me, t) {
                let better = self.proof.as_ref().is_none_or(|p| m.len() > p.len());
                if better {
                    self.proof = Some(m.clone());
                }
            }
            if received_sigs >= t {
                out.broadcast_all(n, m);
            } else {
                let targets = (self.label() + 1..=(self.label() + t + 1).min(n))
                    .map(|label| ProcessId(label as u32 - 1));
                out.broadcast(targets, m);
            }
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
        self.absorb_increasing(inbox);
        if let Some(proof) = &self.proof {
            self.proofs.post(self.me, proof.clone());
        }
    }

    fn decision(&self) -> Option<Value> {
        self.committed.or_else(|| self.algo1.decision())
    }
}

/// Adversaries specific to Algorithm 2's accumulation stage.
pub mod adversaries {
    use super::*;

    /// A faulty processor that runs Algorithm 1 honestly (so the prefix
    /// still commits) but gossips a *wrong value* chain signed only by
    /// itself during its accumulation slot — correct receivers must reject
    /// it as not increasing for their committed value.
    #[derive(Debug)]
    pub struct WrongValueGossip {
        inner: Algo2Actor,
        signer: Signer,
        params: Arc<Algo1Params>,
        wrong: Value,
    }

    impl WrongValueGossip {
        /// Creates the adversary gossiping `wrong` from `me`'s slot.
        pub fn new(
            params: Arc<Algo1Params>,
            me: ProcessId,
            signer: Signer,
            proofs: Arc<Board<Chain>>,
            wrong: Value,
        ) -> Self {
            let inner = Algo2Actor::new(params.clone(), me, signer.clone(), None, proofs);
            WrongValueGossip {
                inner,
                signer,
                params,
                wrong,
            }
        }
    }

    impl Actor<Chain> for WrongValueGossip {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            let t = self.params.t;
            let n = self.params.n();
            if phase <= t + 2 {
                self.inner.step(phase, inbox, out);
                return;
            }
            let j = phase - (t + 2);
            if j == self.inner.label() {
                // Broadcast a self-signed wrong-value chain to everyone.
                let mut m = Chain::new(domains::ALG2, self.wrong);
                m.sign_and_append(&self.signer);
                out.broadcast_all(n, m);
            } else {
                self.inner.step(phase, inbox, out);
            }
        }
        fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
            self.inner.finalize(inbox);
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn is_correct(&self) -> bool {
            false
        }
    }
}

/// Report from an Algorithm 2 run: the base report plus each processor's
/// deposited transferable proof.
#[derive(Debug)]
pub struct Algo2Report {
    /// Agreement report.
    pub report: AlgoReport<Chain>,
    /// Per-processor proofs (index = processor id).
    pub proofs: Vec<Option<Chain>>,
    /// Verifier for inspecting the proofs.
    pub verifier: Verifier,
}

/// Builds and runs an Algorithm 2 scenario with `n = 2t + 1` processors.
/// The schedule's `Lie { value }` is a [`WrongValueGossip`] pushing
/// `value`; `Equivocate` and `Forge` are Algorithm 1's (see
/// [`algorithm1::run`](crate::algorithm1::run)), since the transmitter
/// signs only in the Algorithm 1 prefix.
///
/// [`WrongValueGossip`]: adversaries::WrongValueGossip
///
/// ```
/// use ba_algos::algorithm2::run;
/// use ba_algos::common::RunOptions;
/// use ba_crypto::Value;
///
/// let r = run(2, Value::ONE, RunOptions::default())?;
/// assert_eq!(r.report.verdict.agreed, Some(Value::ONE));
/// assert!(r.proofs.iter().all(Option::is_some));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
///
/// # Errors
/// Propagates any [`AgreementViolation`] (a bug if it happens).
///
/// # Panics
/// Panics if `t == 0`, the schedule is malformed, or `value` is not
/// binary.
pub fn run(t: usize, value: Value, options: RunOptions) -> Result<Algo2Report, AgreementViolation> {
    assert!(t >= 1, "algorithm 2 needs t >= 1");
    assert!(
        value == Value::ZERO || value == Value::ONE,
        "algorithm 2 is binary"
    );
    let n = 2 * t + 1;
    let registry = KeyRegistry::new(n, options.seed, options.scheme);
    let proofs = Board::new(n);
    let spec = build(t, value, &registry, &options.schedule, &proofs);
    let report = run_report(spec, &options, value)?;
    Ok(Algo2Report {
        report,
        proofs: proofs.snapshot(),
        verifier: registry.verifier(),
    })
}

/// Builds one Algorithm 2 instance over `n = 2t + 1` processors signing
/// under `registry`: the transmitter `p0` sends `value`, `schedule`'s
/// faults are applied, every processor deposits its transferable proof on
/// `proofs`, and delivered chains are verified at the phase barrier
/// against `registry`. [`run`] and the `algorithm2` check target both
/// build through it.
///
/// # Errors
/// [`ScheduleError::Unmapped`] for a `withhold` fault.
///
/// # Panics
/// On a schedule malformed for `n = 2t + 1` and `t`.
pub fn build(
    t: usize,
    value: Value,
    registry: &KeyRegistry,
    schedule: &ScheduleSpec,
    proofs: &Arc<Board<Chain>>,
) -> Result<InstanceSpec<Chain>, ScheduleError> {
    let params = Arc::new(Algo1Params {
        t,
        verifier: registry.verifier(),
    });
    let honest = |p: ProcessId| -> Box<dyn Actor<Chain>> {
        let own = (p == ProcessId(0)).then_some(value);
        Box::new(Algo2Actor::new(
            params.clone(),
            p,
            registry.signer(p),
            own,
            proofs.clone(),
        ))
    };
    let adversary = |p, behavior: &FaultBehavior| -> Option<Box<dyn Actor<Chain>>> {
        let FaultBehavior::Lie { value } = *behavior else {
            return chain_adversary(registry, domains::ALG1, p, behavior);
        };
        Some(Box::new(adversaries::WrongValueGossip::new(
            params.clone(),
            p,
            registry.signer(p),
            proofs.clone(),
            value,
        )))
    };
    let dims = (params.n(), t, 3 * t + 3);
    instance(schedule, dims, registry, honest, adversary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use ba_crypto::SchemeKind;
    use ba_sim::ScheduleSpec;

    fn assert_all_correct_hold_proofs(r: &Algo2Report, t: usize) {
        let common = r.report.verdict.agreed.expect("agreed");
        for (i, correct) in r.report.outcome.correct.iter().enumerate() {
            if !correct {
                continue;
            }
            let owner = ProcessId(i as u32);
            let proof = r.proofs[i]
                .as_ref()
                .unwrap_or_else(|| panic!("p{i} holds no proof"));
            assert!(
                is_transferable_proof(proof, common, owner, t, &r.verifier),
                "p{i} proof invalid: {proof}"
            );
        }
    }

    #[test]
    fn fault_free_gives_everyone_proofs_within_bounds() {
        for t in 1..=5 {
            let r = run(t, Value::ONE, RunOptions::default()).unwrap();
            assert_eq!(r.report.verdict.agreed, Some(Value::ONE));
            assert_all_correct_hold_proofs(&r, t);
            let msgs = r.report.outcome.metrics.messages_by_correct;
            assert!(
                msgs <= bounds::alg2_max_messages(t as u64),
                "t={t}: {msgs} > {}",
                bounds::alg2_max_messages(t as u64)
            );
            assert_eq!(
                r.report.outcome.metrics.phases as u64,
                bounds::alg2_phases(t as u64)
            );
        }
    }

    #[test]
    fn fault_free_value_zero_also_proves() {
        let t = 3;
        let r = run(t, Value::ZERO, RunOptions::default()).unwrap();
        assert_eq!(r.report.verdict.agreed, Some(Value::ZERO));
        assert_all_correct_hold_proofs(&r, t);
    }

    #[test]
    fn silent_minority_cannot_block_proofs() {
        let t = 3;
        let r = run(
            t,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    [ProcessId(1), ProcessId(3), ProcessId(5)],
                    FaultBehavior::Silent,
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.report.verdict.agreed, Some(Value::ONE));
        assert_all_correct_hold_proofs(&r, t);
    }

    #[test]
    fn crash_after_commit_tolerated() {
        let t = 4;
        let r = run(
            t,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    [ProcessId(2), ProcessId(4), ProcessId(7)],
                    FaultBehavior::CrashAt { phase: t + 4 },
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.report.verdict.agreed, Some(Value::ONE));
        assert_all_correct_hold_proofs(&r, t);
    }

    #[test]
    fn consecutive_silent_run_is_bridged() {
        // The proof of Theorem 4 relies on gaps of up to t faulty labels
        // being bridged by the (t+1)-wide send window; make the gap maximal.
        let t = 3;
        let r = run(
            t,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each((2..=4).map(ProcessId), FaultBehavior::Silent),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.report.verdict.agreed, Some(Value::ONE));
        assert_all_correct_hold_proofs(&r, t);
    }

    #[test]
    fn wrong_value_gossip_is_rejected() {
        let t = 3;
        let r = run(
            t,
            Value::ONE,
            RunOptions {
                schedule: ScheduleSpec::each(
                    [ProcessId(2), ProcessId(5)],
                    FaultBehavior::Lie { value: Value::ZERO },
                ),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.report.verdict.agreed, Some(Value::ONE));
        assert_all_correct_hold_proofs(&r, t);
        // No correct processor may hold a proof of the wrong value
        // (Theorem 4's second claim).
        for (i, proof) in r.proofs.iter().enumerate() {
            if let Some(p) = proof {
                if r.report.outcome.correct[i] {
                    assert_eq!(p.value(), Value::ONE, "p{i} holds wrong-value proof");
                }
            }
        }
    }

    #[test]
    fn equivocating_transmitter_agrees_within_bounds() {
        for t in 1..=4 {
            let n = 2 * t as u32 + 1;
            for ones in [vec![], (1..n).step_by(2).collect(), (1..n).collect()] {
                let ones: Vec<ProcessId> = ones.into_iter().map(ProcessId).collect();
                let at = format!("t={t} ones={ones:?}");
                let behavior = FaultBehavior::Equivocate { ones };
                let schedule = ScheduleSpec::each([ProcessId(0)], behavior);
                let r = run(t, Value::ONE, RunOptions::new().with_schedule(schedule));
                let r = r.unwrap_or_else(|v| panic!("{at}: {v}"));
                assert!(r.report.verdict.agreed.is_some(), "{at}");
                assert_all_correct_hold_proofs(&r, t);
                let msgs = r.report.outcome.metrics.messages_by_correct;
                assert!(msgs <= bounds::alg2_max_messages(t as u64), "{at}: {msgs}");
            }
        }
    }

    #[test]
    fn no_proof_of_uncommon_value_is_constructible() {
        // Even pooling every faulty signature, a t-coalition cannot reach
        // t distinct *other* signatures on a wrong value.
        let t = 2;
        let n = 2 * t + 1;
        let registry = KeyRegistry::new(n, 7, SchemeKind::Hmac);
        let mut forged = Chain::new(domains::ALG2, Value::ZERO);
        forged.sign_and_append(&registry.signer(ProcessId(3)));
        forged.sign_and_append(&registry.signer(ProcessId(4)));
        assert!(forged.verify(&registry.verifier()).is_ok());
        assert!(!is_transferable_proof(
            &forged,
            Value::ZERO,
            ProcessId(3),
            t,
            &registry.verifier()
        ));
    }

    #[test]
    fn increasing_message_validation() {
        let n = 5;
        let registry = KeyRegistry::new(n, 3, SchemeKind::Hmac);
        let v = registry.verifier();
        let chain = |ids: &[u32], value: Value, domain: u32| {
            let mut c = Chain::new(domain, value);
            for &i in ids {
                c.sign_and_append(&registry.signer(ProcessId(i)));
            }
            c
        };

        // Labels are id+1: ids [0,2,4] = labels [1,3,5], increasing.
        let good = chain(&[0, 2, 4], Value::ONE, domains::ALG2);
        assert!(is_increasing_message(&good, Value::ONE, 7, &v));
        // Receiver label 5 must reject label-5 signature.
        assert!(!is_increasing_message(&good, Value::ONE, 5, &v));
        // Wrong value.
        assert!(!is_increasing_message(&good, Value::ZERO, 7, &v));
        // Not increasing.
        let bad = chain(&[2, 0], Value::ONE, domains::ALG2);
        assert!(!is_increasing_message(&bad, Value::ONE, 7, &v));
        // Duplicate label.
        let dup = chain(&[1, 1], Value::ONE, domains::ALG2);
        assert!(!is_increasing_message(&dup, Value::ONE, 7, &v));
        // Wrong domain.
        let dom = chain(&[0, 2], Value::ONE, domains::ALG1);
        assert!(!is_increasing_message(&dom, Value::ONE, 7, &v));
        // Empty chain.
        assert!(!is_increasing_message(
            &Chain::new(domains::ALG2, Value::ONE),
            Value::ONE,
            7,
            &v
        ));
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        /// Theorem 4 holds under random silent-fault sets.
        #[test]
        fn prop_proofs_survive_random_silence() {
            run_cases(16, 0x6E, |gen| {
                let t = gen.usize_in(1, 5);
                let mask = gen.u32();
                let seed = gen.u64();
                let n = 2 * t + 1;
                let set: Vec<ProcessId> = (1..n as u32)
                    .filter(|p| mask & (1 << (p % 31)) != 0)
                    .take(t)
                    .map(ProcessId)
                    .collect();
                let r = run(
                    t,
                    Value::ONE,
                    RunOptions {
                        schedule: ScheduleSpec::each(set, FaultBehavior::Silent),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_all_correct_hold_proofs(&r, t);
                assert!(
                    r.report.outcome.metrics.messages_by_correct
                        <= crate::bounds::alg2_max_messages(t as u64)
                );
            });
        }
    }
}
