//! Integration: the lower-bound attacks of `ba-model` end-to-end —
//! splicing and starvation break frugal protocols, and every sound
//! registered target survives both constructions.

use byzantine_agreement::algos::bounds::thm1_signature_lower_bound;
use byzantine_agreement::algos::checkable::{find_target, targets, CheckConfig, CheckTarget};
use byzantine_agreement::crypto::{Chain, KeyRegistry, SchemeKind, Value};
use byzantine_agreement::model::frugal::{FrugalBroadcast, QuietBroadcast};
use byzantine_agreement::model::{fault_free, theorem1, theorem2};
use byzantine_agreement::sim::{AgreementViolation, InstanceSpec, ScheduleSpec};

/// The `k`-relay broadcast over `n` processors, keyed by `seed`.
fn frugal(n: usize, k: usize, seed: u64) -> impl Fn(Value) -> InstanceSpec<Chain> {
    let registry = KeyRegistry::new(n, seed, SchemeKind::Hmac);
    move |v| FrugalBroadcast::build(n, k, v, &registry)
}

/// Algorithm 1 at fault budget `t`, keyed by `seed`.
fn algorithm1(t: usize, seed: u64) -> impl Fn(Value) -> InstanceSpec<Chain> {
    let target = *find_target("algorithm1").unwrap();
    fault_free(target, 2 * t + 1, t, seed)
}

#[test]
fn theorem1_attack_succeeds_exactly_when_a_set_fits_the_budget() {
    // k relays => |A(victim)| = k + 1.
    for (n, t, k) in [(9usize, 3usize, 2usize), (11, 4, 3), (13, 5, 4)] {
        let a = theorem1::attack(frugal(n, k, 99), t);
        assert!(a.feasible, "n={n} t={t} k={k}");
        assert!(a.victim_view_preserved);
        assert!(matches!(
            a.violation,
            Some(AgreementViolation::Disagreement { .. })
        ));
    }
    for (n, t, k) in [(9usize, 2usize, 3usize), (11, 3, 4)] {
        let a = theorem1::attack(frugal(n, k, 99), t);
        assert!(!a.feasible, "n={n} t={t} k={k}");
        assert!(a.violation.is_none());
    }
}

#[test]
fn theorem1_prerequisite_denied_by_algorithm1_for_all_t() {
    for t in 1..=5 {
        assert!(theorem1::attack(algorithm1(t, 123), t).a_set.len() > t);
    }
}

#[test]
fn theorem2_starvation_succeeds_against_quiet_broadcast() {
    for (n, t) in [(5usize, 1usize), (9, 3), (14, 5)] {
        let registry = KeyRegistry::new(n, 5, SchemeKind::Hmac);
        let a = theorem2::starve(|v| QuietBroadcast::build(n, v, &registry), t);
        assert!(a.feasible);
        assert!(a.victim_starved);
        assert!(a.violation.is_some(), "n={n} t={t}");
    }
}

#[test]
fn theorem2_extraction_never_falls_short() {
    for t in 1..=8 {
        for seed in [0u64, 17, 991] {
            let r = theorem2::extract(algorithm1(t, seed), t);
            assert!(r.agreement_held, "t={t} seed={seed}");
            assert!(
                r.demand_met(),
                "t={t} seed={seed}: {:?}",
                r.received_from_correct
            );
        }
    }
}

/// The most messages a fault-free history of an audited cell may cost:
/// `OM(t)`'s exponential count passes it from (20, 4) on.
const MAX_AUDITED_MESSAGES: u64 = 100_000;

/// The cells the audits probe: each `(n, t)` of `n ∈ {2t + 1, 2t + 3,
/// 4t + 4}`, `t ∈ 1..=6`, that `target` supports and whose fault-free
/// message bound is at most [`MAX_AUDITED_MESSAGES`].
fn cells(target: &CheckTarget) -> impl Iterator<Item = (usize, usize)> + '_ {
    (1..=6)
        .flat_map(|t| [2 * t + 1, 2 * t + 3, 4 * t + 4].map(|n| (n, t)))
        .filter(|&(n, t)| target.supports(n, t))
        .filter(|&(n, t)| {
            let config = CheckConfig::new(n, t, Value::ONE, 0, 1, ScheduleSpec::default());
            let setup = target
                .build(&config)
                .expect("a fault-free schedule compiles");
            setup.message_bound <= MAX_AUDITED_MESSAGES
        })
}

/// The cost cap drops only `OM(t)`'s cells at t ≥ 4: every other target
/// keeps each cell it supports.
#[test]
fn the_audits_cost_cap_drops_no_cell_of_the_polynomial_targets() {
    let audited = [
        ("ds-broadcast", 18),
        ("ds-relay", 18),
        ("ds-weak-relay-threshold", 18),
        ("algorithm1", 6),
        ("algorithm2", 6),
        ("algorithm3-s2", 12),
        ("om", 5),
    ];
    for (name, count) in audited {
        assert_eq!(cells(find_target(name).unwrap()).count(), count, "{name}");
    }
}

/// Theorems 1 and 2 hold for every correct algorithm, so every sound
/// registered target must survive both proofs' constructions: no splice
/// fits the budget, the starved history breaks nothing — where the
/// victim's senders fit the budget, the victim is still reached — every
/// `B`-set ignorer is still sent its due, and some fault-free history
/// carries the theorem's `n(t+1)/4` signatures.
#[test]
fn every_sound_target_denies_the_lower_bound_attacks() {
    let mut audited = 0;
    for target in targets().iter().filter(|target| target.sound) {
        for (n, t) in cells(target) {
            let at = format!("{} n={n} t={t}", target.name);
            let build = fault_free(*target, n, t, 0);

            let splice = theorem1::attack(&build, t);
            assert!(!splice.feasible, "{at}: A(p) = {:?}", splice.a_set);
            assert!(splice.a_set.len() > t, "{at}");
            let bound = thm1_signature_lower_bound(n as u64, t as u64);
            assert!(
                splice.max_signatures_h_g >= bound,
                "{at}: {} < {bound}",
                splice.max_signatures_h_g
            );

            let starved = theorem2::starve(&build, t);
            assert!(starved.violation.is_none(), "{at}: {:?}", starved.violation);
            assert!(
                !starved.feasible || !starved.victim_starved,
                "{at}: senders {:?}",
                starved.senders
            );

            let extracted = theorem2::extract(&build, t);
            assert!(extracted.agreement_held, "{at}");
            assert!(
                extracted.demand_met(),
                "{at}: {:?}",
                extracted.received_from_correct
            );
            audited += 1;
        }
    }
    assert!(audited > 0);
}

/// Where every processor hears from more than `t` senders in the
/// fault-free history, Theorem 2's starvation has no coalition to corrupt:
/// Dolev–Strong relays to everyone, and in Algorithms 1 and 2 each
/// processor hears from the transmitter and the whole opposite side.
/// Algorithm 3 is not among them: a passive member hears only from its
/// root, yet survives the starvation (see `ba_model::theorem2`).
#[test]
fn the_starvation_prerequisite_is_denied_where_every_processor_hears_t_plus_1() {
    let denying = [
        "ds-broadcast",
        "ds-relay",
        "ds-weak-relay-threshold",
        "algorithm1",
        "algorithm2",
    ];
    for name in denying {
        let target = find_target(name).unwrap();
        for (n, t) in cells(target) {
            let starved = theorem2::starve(fault_free(*target, n, t, 0), t);
            assert!(
                !starved.feasible,
                "{name} n={n} t={t}: {:?}",
                starved.senders
            );
        }
    }
}

#[test]
fn attacks_are_deterministic_per_seed() {
    let a = theorem1::attack(frugal(9, 2, 7), 3);
    let b = theorem1::attack(frugal(9, 2, 7), 3);
    assert_eq!(a.a_set, b.a_set);
    assert_eq!(a.violation.is_some(), b.violation.is_some());
    assert_eq!(a.max_signatures_h_g, b.max_signatures_h_g);
}
