//! Theorem 1 as a runnable attack: any authenticated algorithm in which
//! some processor `p` exchanges signatures with at most `t` others (the
//! set `A(p)`) can be driven into disagreement — hence every correct
//! algorithm forces `|A(p)| ≥ t + 1` for all `p`, i.e. at least
//! `n(t + 1)/4` signatures in a fault-free history.
//!
//! The attack follows the proof verbatim: record the fault-free histories
//! `H` (value 0) and `G` (value 1), corrupt exactly `A(p)`, and have the
//! coalition replay its `H`-traffic toward `p` and its `G`-traffic toward
//! everyone else. Processor `p` then observes precisely `pH` — checked
//! bit-for-bit via [`Trace::individually_equal`] — so it decides 0 while
//! every other correct processor decides 1.

use crate::frugal::FrugalBroadcast;
use crate::replay::{split_script, ReplayActor};
use ba_crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Value};
use ba_sim::actor::Actor;
use ba_sim::engine::Simulation;
use ba_sim::trace::Trace;
use ba_sim::AgreementViolation;
use std::collections::{BTreeMap, BTreeSet};

/// Computes `A(p)` for every processor over the given chain histories:
/// `q ∈ A(p)` iff `q`'s signature reached `p` or `p`'s signature reached
/// `q` in at least one history.
pub fn a_sets(histories: &[&Trace<Chain>]) -> BTreeMap<ProcessId, BTreeSet<ProcessId>> {
    let mut a: BTreeMap<ProcessId, BTreeSet<ProcessId>> = BTreeMap::new();
    for e in histories.iter().flat_map(|h| h.envelopes()) {
        for signer in e.payload.signers().filter(|&s| s != e.to) {
            a.entry(e.to).or_default().insert(signer);
            a.entry(signer).or_default().insert(e.to);
        }
    }
    a
}

/// Result of a Theorem 1 attack attempt.
#[derive(Debug)]
pub struct Theorem1Attack {
    /// The victim `p`.
    pub victim: ProcessId,
    /// The corrupted coalition `A(p)`.
    pub a_set: BTreeSet<ProcessId>,
    /// Whether the coalition fits the fault budget (`|A(p)| ≤ t`) — the
    /// prerequisite the theorem shows correct algorithms deny.
    pub feasible: bool,
    /// The agreement violation the spliced history produced, if any.
    pub violation: Option<AgreementViolation>,
    /// Whether the victim's individual subhistory in the spliced run is
    /// identical to its subhistory in `H` (the indistinguishability the
    /// proof relies on).
    pub victim_view_preserved: bool,
    /// Signatures sent by correct processors in the fault-free history
    /// `H` (compared against `n(t+1)/4` by the experiments).
    pub signatures_in_h: u64,
}

fn frugal_actors(
    registry: &KeyRegistry,
    n: usize,
    k: usize,
    value: Value,
) -> Vec<Box<dyn Actor<Chain>>> {
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

/// Runs the Theorem 1 splicing attack against the `k`-relay frugal
/// broadcast over `n` processors with fault budget `t`.
///
/// ```
/// let attack = ba_model::theorem1::attack_frugal(9, 3, 2, 42);
/// assert!(attack.feasible && attack.violation.is_some());
/// ```
///
/// With `k ≤ t − 1` the victim's `A(p)` has at most `t` members and the
/// attack succeeds; with `k ≥ t + 1` it is reported infeasible.
///
/// # Panics
/// Panics if the parameters violate the frugal protocol's own
/// requirements (`1 ≤ k < n − 1`) or `t ≥ n − 1`.
pub fn attack_frugal(n: usize, t: usize, k: usize, seed: u64) -> Theorem1Attack {
    assert!(t < n - 1, "the theorem requires t < n - 1");
    let registry = KeyRegistry::new(n, seed, SchemeKind::Hmac);
    let victim = ProcessId(n as u32 - 1);

    // Record the two fault-free histories with the same keys.
    let run_traced = |value: Value| -> Trace<Chain> {
        let mut sim = Simulation::new(frugal_actors(&registry, n, k, value)).with_trace();
        sim.run(FrugalBroadcast::phases()).trace
    };
    let h = run_traced(Value::ZERO);
    let g = run_traced(Value::ONE);

    let all_a = a_sets(&[&h, &g]);
    let a_set = all_a.get(&victim).cloned().unwrap_or_default();
    let feasible = a_set.len() <= t && !a_set.contains(&victim);

    let signatures_in_h = h.envelopes().map(|e| e.payload.len() as u64).sum();

    if !feasible {
        return Theorem1Attack {
            victim,
            a_set,
            feasible,
            violation: None,
            victim_view_preserved: false,
            signatures_in_h,
        };
    }

    // Build H′: the coalition replays H toward the victim, G elsewhere.
    let mut actors = frugal_actors(&registry, n, k, Value::ZERO);
    for &member in &a_set {
        actors[member.index()] = Box::new(ReplayActor::new(split_script(&h, &g, member, victim)));
    }
    let mut sim = Simulation::new(actors).with_trace();
    let outcome = sim.run(FrugalBroadcast::phases());
    let violation = ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ZERO).err();
    let victim_view_preserved = h.individually_equal(&outcome.trace, victim);

    Theorem1Attack {
        victim,
        a_set,
        feasible,
        violation,
        victim_view_preserved,
        signatures_in_h,
    }
}

/// Audits Algorithm 1's fault-free histories: the minimum `|A(p)|` over
/// all processors. Theorem 1 predicts at least `t + 1` — which is why the
/// splicing attack cannot be mounted against it within the fault budget.
pub fn audit_algorithm1(t: usize, seed: u64) -> usize {
    use ba_algos::{algorithm1::run, RunOptions};
    let traced = |value: Value| {
        let report = run(
            t,
            value,
            RunOptions {
                seed,
                trace: true,
                ..Default::default()
            },
        )
        .expect("fault-free algorithm 1 cannot fail");
        report.outcome.trace
    };
    let h = traced(Value::ZERO);
    let g = traced(Value::ONE);
    let sets = a_sets(&[&h, &g]);
    (0..(2 * t + 1) as u32)
        .map(|p| sets.get(&ProcessId(p)).map(BTreeSet::len).unwrap_or(0))
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::checker::AgreementViolation;

    #[test]
    fn splicing_breaks_the_frugal_broadcast() {
        // n = 9, t = 3, k = 2 relays: |A(victim)| = 3 <= t.
        let attack = attack_frugal(9, 3, 2, 42);
        assert!(attack.feasible, "A(p) = {:?}", attack.a_set);
        assert_eq!(attack.a_set.len(), 3); // transmitter + 2 relays
        assert!(attack.victim_view_preserved, "p must observe exactly pH");
        match attack.violation {
            Some(AgreementViolation::Disagreement { .. }) => {}
            other => panic!("expected disagreement, got {other:?}"),
        }
    }

    #[test]
    fn attack_is_infeasible_when_enough_signatures_flow() {
        // k = t + 1 relays: |A(p)| = t + 2 > t.
        let attack = attack_frugal(9, 2, 3, 42);
        assert!(!attack.feasible);
        assert!(attack.violation.is_none());
    }

    #[test]
    fn victim_sees_h_exactly() {
        let attack = attack_frugal(11, 4, 3, 7);
        assert!(attack.feasible);
        assert!(attack.victim_view_preserved);
        assert!(attack.violation.is_some());
    }

    #[test]
    fn algorithm1_denies_the_prerequisite() {
        for t in 1..=4 {
            let min_a = audit_algorithm1(t, 5);
            assert!(min_a > t, "t={t}: min |A(p)| = {min_a}");
        }
    }

    #[test]
    fn a_set_symmetry() {
        let attack = attack_frugal(9, 3, 2, 1);
        // Recompute and check symmetry: q in A(p) iff p in A(q).
        let registry = KeyRegistry::new(9, 1, SchemeKind::Hmac);
        let run_traced = |value: Value| {
            let mut sim = Simulation::new(frugal_actors(&registry, 9, 2, value)).with_trace();
            sim.run(2).trace
        };
        let h = run_traced(Value::ZERO);
        let g = run_traced(Value::ONE);
        let sets = a_sets(&[&h, &g]);
        for (p, a) in &sets {
            for q in a {
                assert!(sets[q].contains(p), "{q} in A({p}) but not vice versa");
            }
        }
        let _ = attack;
    }

    #[test]
    fn frugal_h_sits_below_the_signature_bound() {
        // The frugal broadcast's total signatures in H stay below
        // n(t+1)/4 for suitable parameters — the bound it violates.
        // k relays send k(2n-3) signatures; with t = 14 the bound is 60.
        let attack = attack_frugal(16, 14, 2, 3);
        let bound = ba_algos::bounds::thm1_signature_lower_bound(16, 14);
        assert!(
            attack.signatures_in_h < bound,
            "{} >= {bound}",
            attack.signatures_in_h
        );
        assert!(attack.feasible);
        assert!(attack.violation.is_some());
    }
}
