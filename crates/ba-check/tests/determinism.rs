//! The checker's determinism contract: the same schedule space — classic
//! `(target, n, t, value, seed, budget, strategy)` or ext `(n, t, payload,
//! seed, inner targets, extra_random)` — must yield an identical report,
//! violation list and minimized counterexamples included, at any
//! worker-thread count.

use ba_check::{
    assert_minimal, explore, find_target, targets, Case, ExploreOptions, ExtSchedule, Strategy,
};

fn options(target: &'static str, strategy: Strategy) -> ExploreOptions {
    ExploreOptions {
        target: find_target(target).expect("registered target"),
        n: 4,
        t: 1,
        value: 1,
        seed: 0xBA5E,
        budget: 120,
        strategy,
    }
}

#[test]
fn exhaustive_reports_are_identical_at_one_and_four_threads() {
    let weak = options("ds-weak-relay-threshold", Strategy::Exhaustive);
    let weak_1 = explore(weak.cases(), 1);
    let weak_4 = explore(weak.cases(), 4);
    assert_eq!(weak_1, weak_4);
    assert!(
        !weak_1.violations.is_empty(),
        "the weakened target must yield violations for the comparison to mean anything"
    );
    for violation in &weak_1.violations {
        assert!(!violation.minimized.spec.faults.is_empty());
    }
}

/// The ext family is one more input to the same explorer: a weakened
/// inner target must split outcomes, and the report — minimized cases
/// included — must not depend on the thread count.
#[test]
fn ext_reports_are_identical_at_one_and_four_threads() {
    let weak = ExtSchedule {
        n: 4,
        t: 1,
        payload_len: 2_048,
        payload_seed: 1,
        seed: 0,
        inner: "ds-weak-relay-threshold".to_string(),
        vote_inner: "ds-relay".to_string(),
        spec: Default::default(),
        garble: Vec::new(),
    };
    let weak_1 = explore(weak.family(8), 1);
    let weak_4 = explore(weak.family(8), 4);
    assert_eq!(weak_1, weak_4);
    assert!(
        !weak_1.violations.is_empty(),
        "the weakened inner must yield violations for the comparison to mean anything"
    );
    for violation in &weak_1.violations {
        assert_eq!(
            violation.minimized.failure(1),
            Some(violation.minimized_failure.clone()),
            "the minimized case still fails with the recorded string"
        );
        assert_minimal(&violation.minimized).unwrap();
    }
}

#[test]
fn random_reports_are_identical_at_one_and_four_threads() {
    for target in targets() {
        let (n, t) = target.dims_from(4, 1);
        let opts = ExploreOptions {
            n,
            t,
            ..options(target.name, Strategy::Random)
        };
        let name = target.name;
        let one = explore(opts.cases(), 1);
        let four = explore(opts.cases(), 4);
        assert_eq!(one, four, "{name} diverged across thread counts");
        assert!(one.explored > 0, "{name} sampled nothing");
        assert!(
            !target.sound || one.violations.is_empty(),
            "{name} is sound but violated: {:?}",
            one.violations[0].failure
        );
    }
}

#[test]
fn reports_depend_on_the_seed_only_through_sampling() {
    let base = options("ds-weak-relay-threshold", Strategy::Exhaustive);
    let reseeded = ExploreOptions {
        seed: 0xF00D,
        ..base
    };
    let base = explore(base.cases(), 2);
    let reseeded = explore(reseeded.cases(), 2);
    // Exhaustive enumeration explores the same spec sequence regardless of
    // seed; only the bound key-registry seed differs.
    assert_eq!(base.explored, reseeded.explored);
    assert_eq!(base.violations.len(), reseeded.violations.len());
}
