//! Theorem 2 as runnable experiments: any algorithm has a history with at
//! least `max{⌈(n−1)/2⌉, (1 + t/2)²}` messages from correct processors.
//!
//! Two constructions from the proof are reproduced:
//!
//! 1. **Starvation** ([`attack_quiet`]) — if some processor `p` would not
//!    decide the transmitted value on silence, and the set of processors
//!    that ever send to `p` has at most `t` members, corrupting exactly
//!    that set (silently omitting their messages to `p`) starves `p` into
//!    the default while everyone else proceeds — disagreement. This is
//!    the `H″` step of the proof, demonstrated against the one-shot
//!    `QuietBroadcast` one-shot protocol in [`frugal`](crate::frugal).
//! 2. **Extraction** ([`extract_algorithm1`]) — the `B`-set argument: put
//!    `⌊1 + t/2⌋` faulty processors in `B`, each ignoring the first
//!    `⌈t/2⌉` messages it receives and never talking to other `B`
//!    members; any correct algorithm is then *forced* to send each of
//!    them at least `⌈1 + t/2⌉` messages — measured here on Algorithm 1.

use crate::frugal::QuietBroadcast;
use ba_crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Value};
use ba_sim::actor::Actor;
use ba_sim::adversary::OmitTo;
use ba_sim::engine::Simulation;
use ba_sim::AgreementViolation;
use std::collections::BTreeMap;

/// Result of a starvation attack attempt.
#[derive(Debug)]
pub struct Theorem2Attack {
    /// The starved processor.
    pub victim: ProcessId,
    /// The processors that sent to the victim in the fault-free history.
    pub senders: Vec<ProcessId>,
    /// Whether `|senders| ≤ t` (the prerequisite correct algorithms deny).
    pub feasible: bool,
    /// The violation produced by the starved history, if any.
    pub violation: Option<AgreementViolation>,
    /// Whether the victim indeed received nothing in the starved history.
    pub victim_starved: bool,
    /// Messages sent by correct processors in the fault-free history.
    pub messages_in_h: u64,
}

fn quiet_actors(registry: &KeyRegistry, n: usize, value: Value) -> Vec<Box<dyn Actor<Chain>>> {
    (0..n as u32)
        .map(|p| {
            Box::new(QuietBroadcast::new(
                n,
                registry.signer(ProcessId(p)),
                registry.verifier(),
                (p == 0).then_some(value),
            )) as Box<dyn Actor<Chain>>
        })
        .collect()
}

/// Runs the starvation attack against the one-shot quiet broadcast.
///
/// ```
/// let attack = ba_model::theorem2::attack_quiet(6, 1, 7);
/// assert!(attack.feasible && attack.victim_starved);
/// ```
///
/// # Panics
/// Panics if `t == 0` or `t ≥ n − 1`.
pub fn attack_quiet(n: usize, t: usize, seed: u64) -> Theorem2Attack {
    assert!(t >= 1 && t < n - 1);
    let registry = KeyRegistry::new(n, seed, SchemeKind::Hmac);
    let victim = ProcessId(n as u32 - 1);

    // Fault-free history with value 1 (the value the victim would not
    // reach on silence — its default is 0).
    let mut sim = Simulation::new(quiet_actors(&registry, n, Value::ONE)).with_trace();
    let outcome = sim.run(QuietBroadcast::phases());
    let senders = outcome.trace.senders_to(victim);
    let feasible = senders.len() <= t;
    let messages_in_h = outcome.metrics.messages_by_correct;

    if !feasible {
        return Theorem2Attack {
            victim,
            senders,
            feasible,
            violation: None,
            victim_starved: false,
            messages_in_h,
        };
    }

    // H″: the victim's senders behave correctly except toward the victim.
    let mut actors = quiet_actors(&registry, n, Value::ONE);
    for &member in &senders {
        let honest = QuietBroadcast::new(
            n,
            registry.signer(member),
            registry.verifier(),
            (member == ProcessId(0)).then_some(Value::ONE),
        );
        actors[member.index()] = Box::new(OmitTo::new(honest, [victim]));
    }
    let mut sim = Simulation::new(actors).with_trace();
    let outcome = sim.run(QuietBroadcast::phases());
    let violation = ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE).err();
    let victim_starved = outcome.trace.senders_to(victim).is_empty();

    Theorem2Attack {
        victim,
        senders,
        feasible,
        violation,
        victim_starved,
        messages_in_h,
    }
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

/// Runs the extraction experiment against Algorithm 1 (`n = 2t + 1`):
/// `B = ⌊1 + t/2⌋` faulty processors on side `A` ignore their first
/// `⌈t/2⌉` messages and never talk to each other; count what correct
/// processors are forced to send them.
///
/// # Panics
/// Panics if `t == 0`.
pub fn extract_algorithm1(t: usize, seed: u64) -> ExtractionReport {
    use ba_algos::algorithm1::{Algo1Actor, Algo1Params};
    use ba_sim::adversary::IgnoreFirst;
    use std::sync::Arc;

    assert!(t >= 1);
    let n = 2 * t + 1;
    let registry = KeyRegistry::new(n, seed, SchemeKind::Hmac);
    let params = Arc::new(Algo1Params {
        t,
        verifier: registry.verifier(),
    });

    let b_size = 1 + t / 2; // ⌊1 + t/2⌋
    let demand = 1 + t.div_ceil(2); // ⌈1 + t/2⌉
    let b_set: Vec<ProcessId> = (1..=b_size as u32).map(ProcessId).collect();

    let mut actors: Vec<Box<dyn Actor<Chain>>> = Vec::with_capacity(n);
    for p in 0..n as u32 {
        let id = ProcessId(p);
        let honest = Algo1Actor::new(
            params.clone(),
            id,
            registry.signer(id),
            (p == 0).then_some(Value::ONE),
        );
        if b_set.contains(&id) {
            // Ignore the first ⌈t/2⌉ messages; never message other B
            // members.
            let ignorer = IgnoreFirst::new(honest, t.div_ceil(2), []);
            let others: Vec<ProcessId> = b_set.iter().copied().filter(|&q| q != id).collect();
            actors.push(Box::new(OmitTo::new(ignorer, others)));
        } else {
            actors.push(Box::new(honest));
        }
    }

    let mut sim = Simulation::new(actors).with_trace();
    let outcome = sim.run(t + 2);
    let agreement_held =
        ba_sim::check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE).is_ok();

    let mut received = outcome
        .trace
        .received_counts(|q| outcome.correct[q.index()]);
    received.retain(|p, _| b_set.contains(p));

    ExtractionReport {
        b_set,
        received_from_correct: received,
        demand,
        agreement_held,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::checker::AgreementViolation;

    #[test]
    fn starvation_breaks_the_quiet_broadcast() {
        let attack = attack_quiet(8, 2, 11);
        assert!(attack.feasible);
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
        let attack = attack_quiet(10, 8, 3);
        let bound = ba_algos::bounds::thm2_message_lower_bound(10, 8);
        assert!(attack.messages_in_h < bound);
    }

    #[test]
    fn extraction_meets_the_demand_on_algorithm1() {
        for t in 1..=6 {
            let report = extract_algorithm1(t, 9);
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
        let report = extract_algorithm1(t, 4);
        let witnessed: usize = report
            .b_set
            .iter()
            .map(|b| report.received_from_correct.get(b).copied().unwrap_or(0))
            .sum();
        let bound = (1 + t / 2) * (1 + t.div_ceil(2));
        assert!(witnessed >= bound, "{witnessed} < {bound}");
    }

    #[test]
    fn starvation_is_infeasible_against_algorithm1() {
        // In Algorithm 1's value-1 history every processor hears from
        // t + 1 senders (the transmitter plus the opposite side), so the
        // sender set exceeds the fault budget.
        use ba_algos::{algorithm1::run, RunOptions};
        let t = 3;
        let report = run(
            t,
            Value::ONE,
            RunOptions {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        for p in 1..(2 * t + 1) as u32 {
            let senders = report.outcome.trace.senders_to(ProcessId(p));
            assert!(senders.len() > t, "p{p} has only {} senders", senders.len());
        }
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
                let attack = attack_quiet(n, t, seed);
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
                let report = extract_algorithm1(t, seed);
                assert!(report.agreement_held);
                assert!(report.demand_met());
            });
        }
    }
}
