//! Theorem 1 as a runnable attack: any authenticated algorithm in which
//! some processor `p` exchanges signatures with at most `t` others (the
//! set `A(p)`) can be driven into disagreement — hence every correct
//! algorithm forces `|A(p)| ≥ t + 1` for all `p`, i.e. a fault-free
//! history with at least `n(t + 1)/4` signatures.
//!
//! The attack follows the proof verbatim: record the fault-free histories
//! `H` (value 0) and `G` (value 1), corrupt exactly `A(p)`, and have the
//! coalition replay its `H`-traffic toward `p` and its `G`-traffic toward
//! everyone else. Processor `p` then observes precisely `pH` — checked
//! bit-for-bit via [`Trace::individually_equal`] — so it decides 0 while
//! every other correct processor decides 1.

use crate::replay::{split_script, ReplayActor};
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::trace::Trace;
use ba_sim::{AgreementViolation, InstanceSpec};
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
    /// The victim `p`: the non-transmitter with the smallest `A(p)`, ties
    /// going to the highest id.
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
    /// Signatures sent by correct processors in the larger of the
    /// fault-free histories `H` and `G` — the quantity the theorem bounds
    /// below by `n(t+1)/4`.
    pub max_signatures_h_g: u64,
}

/// Runs the Theorem 1 splicing attack with fault budget `t` against the
/// algorithm whose fault-free instances `build` returns (`p0` transmits
/// the value it is given; every call must sign with the same keys).
///
/// ```
/// use ba_crypto::{KeyRegistry, SchemeKind};
/// use ba_model::{frugal::FrugalBroadcast, theorem1};
///
/// let registry = KeyRegistry::new(9, 42, SchemeKind::Hmac);
/// let attack = theorem1::attack(|v| FrugalBroadcast::build(9, 2, v, &registry), 3);
/// assert!(attack.feasible && attack.violation.is_some());
/// ```
///
/// Against the 2-relay broadcast the victim's `A(p)` has 3 ≤ t members
/// and the attack succeeds; against a correct algorithm it is reported
/// infeasible.
pub fn attack(build: impl Fn(Value) -> InstanceSpec<Chain>, t: usize) -> Theorem1Attack {
    // Record the two fault-free histories with the same keys.
    let h = crate::record(build(Value::ZERO));
    let g = crate::record(build(Value::ONE));
    let n = h.decisions.len();
    let mut all_a = a_sets(&[&h.trace, &g.trace]);
    let victim = crate::victim(n, |p| all_a.get(&p).map_or(0, BTreeSet::len));
    let a_set = all_a.remove(&victim).unwrap_or_default();
    let feasible = a_set.len() <= t;
    let max_signatures_h_g = h
        .metrics
        .signatures_by_correct
        .max(g.metrics.signatures_by_correct);

    let mut attack = Theorem1Attack {
        victim,
        a_set,
        feasible,
        violation: None,
        victim_view_preserved: false,
        max_signatures_h_g,
    };
    if feasible {
        // H′: the coalition replays H toward the victim, G elsewhere.
        let mut spliced = build(Value::ZERO);
        for &member in &attack.a_set {
            let script = split_script(&h.trace, &g.trace, member, victim);
            spliced.actors[member.index()] = Box::new(ReplayActor::new(script));
        }
        let outcome = crate::record(spliced);
        attack.violation =
            ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ZERO).err();
        attack.victim_view_preserved = h.trace.individually_equal(&outcome.trace, victim);
    }
    attack
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frugal::FrugalBroadcast;
    use ba_crypto::{KeyRegistry, SchemeKind};
    use ba_sim::checker::AgreementViolation;

    /// The `k`-relay broadcast over `n` processors, keyed by `seed`.
    fn frugal(n: usize, k: usize, seed: u64) -> impl Fn(Value) -> InstanceSpec<Chain> {
        let registry = KeyRegistry::new(n, seed, SchemeKind::Hmac);
        move |v| FrugalBroadcast::build(n, k, v, &registry)
    }

    #[test]
    fn splicing_breaks_the_frugal_broadcast() {
        // n = 9, t = 3, k = 2 relays: |A(victim)| = 3 <= t.
        let attack = attack(frugal(9, 2, 42), 3);
        assert!(attack.feasible, "A(p) = {:?}", attack.a_set);
        assert_eq!(attack.victim, ProcessId(8));
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
        let attack = attack(frugal(9, 3, 42), 2);
        assert!(!attack.feasible);
        assert!(attack.violation.is_none());
    }

    #[test]
    fn victim_sees_h_exactly() {
        let attack = attack(frugal(11, 3, 7), 4);
        assert!(attack.feasible);
        assert!(attack.victim_view_preserved);
        assert!(attack.violation.is_some());
    }

    #[test]
    fn algorithm1_denies_the_prerequisite() {
        let alg1 = *ba_algos::checkable::find_target("algorithm1").unwrap();
        for t in 1..=4 {
            let attack = attack(crate::fault_free(alg1, 2 * t + 1, t, 5), t);
            assert!(!attack.feasible, "t={t}: A(p) = {:?}", attack.a_set);
            assert!(attack.a_set.len() > t);
        }
    }

    #[test]
    fn a_set_symmetry() {
        // q in A(p) iff p in A(q).
        let build = frugal(9, 2, 1);
        let h = crate::record(build(Value::ZERO)).trace;
        let g = crate::record(build(Value::ONE)).trace;
        let sets = a_sets(&[&h, &g]);
        for (p, a) in &sets {
            for q in a {
                assert!(sets[q].contains(p), "{q} in A({p}) but not vice versa");
            }
        }
    }

    #[test]
    fn frugal_h_sits_below_the_signature_bound() {
        // The frugal broadcast's fault-free signatures stay below
        // n(t+1)/4 for suitable parameters — the bound it violates.
        // k relays send k(2n-3) signatures; with t = 14 the bound is 60.
        let attack = attack(frugal(16, 2, 3), 14);
        let bound = ba_algos::bounds::thm1_signature_lower_bound(16, 14);
        assert!(
            attack.max_signatures_h_g < bound,
            "{} >= {bound}",
            attack.max_signatures_h_g
        );
        assert!(attack.feasible);
        assert!(attack.violation.is_some());
    }
}
