//! Theorem 2 as runnable experiments: any algorithm has a history with at
//! least `max{⌈(n−1)/2⌉, (1 + t/2)²}` messages from correct processors.
//!
//! Two constructions from the proof are reproduced, each over the
//! fault-free instances of any algorithm (the builder
//! [`theorem1::attack`](crate::theorem1::attack) takes), with the faulty
//! coalition wrapped around the built actors:
//!
//! 1. **Starvation** ([`starve`]) — if some processor `p` would not
//!    decide the transmitted value on silence, and the set of processors
//!    that ever send to `p` has at most `t` members, corrupting exactly
//!    that set (silently omitting their messages to `p`) starves `p` into
//!    the default while everyone else proceeds — disagreement. This is
//!    the `H″` step of the proof. A correct algorithm may meet the
//!    prerequisite in its fault-free history and still survive the
//!    starved one, because the starved history is a different history:
//!    in Algorithm 3 a passive member hears only from its group root, but
//!    when the root omits to it the member never signs, the root's report
//!    lacks its signature, and the actives send it the value directly.
//!    To act toward the others as in the fault-free history, the
//!    coalition would need the victim's unforgeable signature.
//! 2. **Extraction** ([`extract`]) — the `B`-set argument: put
//!    `⌊1 + t/2⌋` faulty processors in `B`, each ignoring the first
//!    `⌈t/2⌉` messages it receives and never talking to other `B`
//!    members; any correct algorithm is then *forced* to send each of
//!    them at least `⌈1 + t/2⌉` messages.

use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::adversary::{IgnoreFirst, OmitTo, Silent};
use ba_sim::{Actor, AgreementViolation, InstanceSpec};
use std::collections::BTreeMap;

/// Result of a starvation attack attempt.
#[derive(Debug)]
pub struct Theorem2Attack {
    /// The starved processor: the non-transmitter with the fewest senders
    /// in the fault-free history, ties going to the highest id.
    pub victim: ProcessId,
    /// The processors that sent to the victim in the fault-free history.
    pub senders: Vec<ProcessId>,
    /// Whether `|senders| ≤ t`: the prerequisite for starving the victim.
    /// A correct algorithm can meet it and still reach the victim in the
    /// starved history (Algorithm 3's passive members).
    pub feasible: bool,
    /// The violation produced by the starved history, if any.
    pub violation: Option<AgreementViolation>,
    /// Whether the victim indeed received nothing in the starved history.
    pub victim_starved: bool,
    /// Messages sent by correct processors in the fault-free history.
    pub messages_in_h: u64,
}

/// Replaces `p`'s actor in `spec` with `wrap` applied to it.
fn corrupt(
    spec: &mut InstanceSpec<Chain>,
    p: ProcessId,
    wrap: impl FnOnce(Box<dyn Actor<Chain>>) -> Box<dyn Actor<Chain>>,
) {
    let slot = &mut spec.actors[p.index()];
    *slot = wrap(std::mem::replace(slot, Box::new(Silent)));
}

/// Runs the starvation attack with fault budget `t` against the
/// algorithm whose fault-free instances `build` returns, in its value-1
/// history (the value the victim would not reach on silence).
///
/// ```
/// use ba_crypto::{KeyRegistry, SchemeKind};
/// use ba_model::{frugal::QuietBroadcast, theorem2};
///
/// let registry = KeyRegistry::new(6, 7, SchemeKind::Hmac);
/// let attack = theorem2::starve(|v| QuietBroadcast::build(6, v, &registry), 1);
/// assert!(attack.feasible && attack.victim_starved);
/// ```
pub fn starve(build: impl Fn(Value) -> InstanceSpec<Chain>, t: usize) -> Theorem2Attack {
    let h = crate::record(build(Value::ONE));
    let victim = crate::victim(h.decisions.len(), |p| h.trace.senders_to(p).len());
    let senders = h.trace.senders_to(victim);
    let feasible = senders.len() <= t;
    let mut attack = Theorem2Attack {
        victim,
        feasible,
        violation: None,
        victim_starved: false,
        messages_in_h: h.metrics.messages_by_correct,
        senders,
    };
    if feasible {
        // H″: the victim's senders behave correctly except toward it.
        let mut starved = build(Value::ONE);
        for &member in &attack.senders {
            corrupt(&mut starved, member, |a| Box::new(OmitTo::new(a, [victim])));
        }
        let outcome = crate::record(starved);
        attack.violation =
            ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE).err();
        attack.victim_starved = outcome.trace.senders_to(victim).is_empty();
    }
    attack
}

/// Result of the `B`-set extraction experiment.
#[derive(Debug)]
pub struct ExtractionReport {
    /// The faulty "ignorer" set `B` (size `⌊1 + t/2⌋`).
    pub b_set: Vec<ProcessId>,
    /// Messages each `B` member received from correct processors.
    pub received_from_correct: BTreeMap<ProcessId, usize>,
    /// The proof's per-member demand `⌈1 + t/2⌉`.
    pub demand: usize,
    /// Whether the remaining correct processors still agreed.
    pub agreement_held: bool,
}

impl ExtractionReport {
    /// Whether every `B` member extracted at least the demanded number of
    /// messages — the inequality whose product over `|B|` members yields
    /// the `(1 + t/2)²` bound.
    pub fn demand_met(&self) -> bool {
        self.b_set
            .iter()
            .all(|b| self.received_from_correct.get(b).copied().unwrap_or(0) >= self.demand)
    }
}

/// Runs the extraction experiment with fault budget `t` against the
/// algorithm whose fault-free instances `build` returns, in its value-1
/// history: `B = {p1, …, p⌊1+t/2⌋}` ignore their first `⌈t/2⌉` messages
/// and never talk to each other; count what correct processors are forced
/// to send them.
///
/// # Panics
/// If the instance has fewer than `⌊1 + t/2⌋ + 1` processors.
pub fn extract(build: impl Fn(Value) -> InstanceSpec<Chain>, t: usize) -> ExtractionReport {
    let b_set: Vec<ProcessId> = (1..=(1 + t / 2) as u32).map(ProcessId).collect();
    let mut spec = build(Value::ONE);
    for &b in &b_set {
        let others: Vec<ProcessId> = b_set.iter().copied().filter(|&q| q != b).collect();
        corrupt(&mut spec, b, |a| {
            Box::new(OmitTo::new(IgnoreFirst::new(a, t.div_ceil(2)), others))
        });
    }
    let outcome = crate::record(spec);
    let agreement_held =
        ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE).is_ok();
    let mut received = outcome
        .trace
        .received_counts(|q| outcome.correct[q.index()]);
    received.retain(|p, _| b_set.contains(p));
    ExtractionReport {
        b_set,
        received_from_correct: received,
        demand: 1 + t.div_ceil(2),
        agreement_held,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frugal::QuietBroadcast;
    use ba_crypto::{KeyRegistry, SchemeKind};
    use ba_sim::checker::AgreementViolation;

    /// The one-shot broadcast over `n` processors, keyed by `seed`.
    fn quiet(n: usize, seed: u64) -> impl Fn(Value) -> InstanceSpec<Chain> {
        let registry = KeyRegistry::new(n, seed, SchemeKind::Hmac);
        move |v| QuietBroadcast::build(n, v, &registry)
    }

    /// Algorithm 1 at fault budget `t`, keyed by `seed`.
    fn algorithm1(t: usize, seed: u64) -> impl Fn(Value) -> InstanceSpec<Chain> {
        let target = *ba_algos::checkable::find_target("algorithm1").unwrap();
        crate::fault_free(target, 2 * t + 1, t, seed)
    }

    #[test]
    fn starvation_breaks_the_quiet_broadcast() {
        let attack = starve(quiet(8, 11), 2);
        assert!(attack.feasible);
        assert_eq!(attack.victim, ProcessId(7));
        assert_eq!(attack.senders, vec![ProcessId(0)]);
        assert!(attack.victim_starved);
        match attack.violation {
            Some(AgreementViolation::Disagreement { .. }) => {}
            other => panic!("expected disagreement, got {other:?}"),
        }
    }

    #[test]
    fn quiet_broadcast_sits_below_the_message_bound() {
        // n - 1 messages < (1 + t/2)² for large enough t.
        let attack = starve(quiet(10, 3), 8);
        let bound = ba_algos::bounds::thm2_message_lower_bound(10, 8);
        assert!(attack.messages_in_h < bound);
    }

    #[test]
    fn extraction_meets_the_demand_on_algorithm1() {
        for t in 1..=6 {
            let report = extract(algorithm1(t, 9), t);
            assert!(report.agreement_held, "t={t}");
            assert!(
                report.demand_met(),
                "t={t}: demand {} not met: {:?}",
                report.demand,
                report.received_from_correct
            );
        }
    }

    #[test]
    fn extraction_product_witnesses_the_squared_bound() {
        // |B| * demand ≈ (1 + t/2)²; the witnessed traffic must reach it.
        let t = 6;
        let report = extract(algorithm1(t, 4), t);
        let witnessed: usize = report
            .b_set
            .iter()
            .map(|b| report.received_from_correct.get(b).copied().unwrap_or(0))
            .sum();
        let bound = (1 + t / 2) * (1 + t.div_ceil(2));
        assert!(witnessed >= bound, "{witnessed} < {bound}");
    }

    #[test]
    fn algorithm3_meets_the_prerequisite_and_still_reaches_the_victim() {
        // Algorithm 3 with s = 2 at n = 5, t = 1: actives p0..p2, one group
        // {p3, p4}. Fault-free, member p4 hears only from its root p3, so
        // the prerequisite holds — but when p3 omits to p4, p4 never signs,
        // p3's report lacks p4's signature, and the actives send p4 the
        // value directly in the last phase.
        let target = *ba_algos::checkable::find_target("algorithm3-s2").unwrap();
        let attack = starve(crate::fault_free(target, 5, 1, 0), 1);
        assert!(attack.feasible);
        assert_eq!(attack.victim, ProcessId(4));
        assert_eq!(attack.senders, vec![ProcessId(3)]);
        assert!(!attack.victim_starved);
        assert!(attack.violation.is_none(), "{:?}", attack.violation);
    }

    #[test]
    fn starvation_is_infeasible_against_algorithm1() {
        // In Algorithm 1's value-1 history every processor hears from
        // t + 1 senders (the transmitter plus the opposite side), so the
        // sender set exceeds the fault budget.
        let t = 3;
        let attack = starve(algorithm1(t, 0), t);
        assert!(!attack.feasible);
        assert_eq!(attack.senders.len(), t + 1, "{:?}", attack.senders);
        assert!(attack.violation.is_none());
    }

    mod props {
        use super::*;
        use ba_crypto::testkit::run_cases;

        #[test]
        fn prop_starvation_always_works_below_budget() {
            run_cases(12, 0x71, |gen| {
                let n = gen.usize_in(4, 12);
                let seed = gen.u64();
                let t = 1; // one fault suffices: the only sender is the transmitter
                let attack = starve(quiet(n, seed), t);
                assert!(attack.feasible);
                assert!(attack.violation.is_some());
                assert!(attack.victim_starved);
            });
        }

        #[test]
        fn prop_extraction_always_meets_demand() {
            run_cases(12, 0x72, |gen| {
                let t = gen.usize_in(1, 6);
                let seed = gen.u64();
                let report = extract(algorithm1(t, seed), t);
                assert!(report.agreement_held);
                assert!(report.demand_met());
            });
        }
    }
}
