//! Integration: runs are bit-for-bit reproducible from the seed, and the
//! agreement outcome is independent of the signature scheme chosen.

use byzantine_agreement::algos::{algorithm1, algorithm2, algorithm3, algorithm5};
use byzantine_agreement::crypto::{ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

#[test]
fn same_seed_same_everything() {
    let run = || {
        algorithm3::run(
            50,
            2,
            5,
            Value::ONE,
            algorithm3::Alg3Options {
                schedule: ScheduleSpec::each(
                    [algorithm3::group_root(2, 5, 1)],
                    FaultBehavior::Lie { value: Value::ZERO },
                ),
                seed: 42,
                scheme: SchemeKind::Hmac,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcome.decisions, b.outcome.decisions);
    assert_eq!(a.outcome.metrics, b.outcome.metrics);
}

#[test]
fn scheme_choice_does_not_change_outcomes() {
    for t in [1usize, 3] {
        let mut per_scheme = Vec::new();
        for scheme in [SchemeKind::Hmac, SchemeKind::Fast] {
            let r = algorithm1::run(
                t,
                Value::ONE,
                algorithm1::Algo1Options {
                    schedule: ScheduleSpec::each(
                        [ProcessId(0)],
                        FaultBehavior::Equivocate {
                            ones: vec![ProcessId(1)],
                        },
                    ),
                    seed: 3,
                    scheme,
                    ..Default::default()
                },
            )
            .unwrap();
            per_scheme.push((
                r.verdict.agreed,
                r.outcome.metrics.messages_by_correct,
                r.outcome.metrics.signatures_by_correct,
            ));
        }
        assert_eq!(per_scheme[0], per_scheme[1], "t={t}");
    }
}

#[test]
fn seed_changes_keys_but_not_decisions() {
    for seed in [0u64, 1, 2, 3, 4] {
        let r = algorithm2::run(
            3,
            Value::ONE,
            algorithm2::Algo2Options {
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.report.verdict.agreed, Some(Value::ONE), "seed={seed}");
    }
}

#[test]
fn algorithm5_metrics_reproducible() {
    let run = |seed| {
        algorithm5::run(
            60,
            1,
            3,
            Value::ONE,
            algorithm5::Alg5Options {
                seed,
                ..Default::default()
            },
        )
        .unwrap()
        .outcome
        .metrics
    };
    assert_eq!(run(9), run(9));
    // Different seeds change signatures (keys) but not the message
    // pattern of a fault-free run.
    assert_eq!(run(9).messages_by_correct, run(10).messages_by_correct);
}
