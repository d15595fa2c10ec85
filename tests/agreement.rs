//! Cross-crate integration: every algorithm reaches Byzantine Agreement
//! under every adversary scenario its module exposes, across seeds and
//! both signature schemes.

use byzantine_agreement::algos::{
    algorithm1, algorithm2, algorithm3, algorithm5, bounds, dolev_strong, om, RunOptions,
};
use byzantine_agreement::crypto::{ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

fn each(ids: &[u32], behavior: FaultBehavior) -> ScheduleSpec {
    ScheduleSpec::each(ids.iter().copied().map(ProcessId), behavior)
}

const SEEDS: [u64; 3] = [1, 0xDEADBEEF, u64::MAX / 7];

#[test]
fn algorithm1_agreement_matrix() {
    for &seed in &SEEDS {
        for scheme in [SchemeKind::Hmac, SchemeKind::Fast] {
            for t in [1usize, 3, 5] {
                for value in [Value::ZERO, Value::ONE] {
                    let ones = vec![ProcessId(1), ProcessId(t as u32 + 1)];
                    let schedules = [
                        ScheduleSpec::default(),
                        each(&[0], FaultBehavior::Silent),
                        each(&[0], FaultBehavior::Equivocate { ones }),
                        each(&[t as u32], FaultBehavior::Silent),
                    ];
                    for schedule in schedules {
                        let r = algorithm1::run(
                            t,
                            value,
                            RunOptions {
                                schedule,
                                seed,
                                scheme,
                                ..Default::default()
                            },
                        )
                        .expect("agreement must hold");
                        assert!(r.verdict.agreed.is_some());
                    }
                }
            }
        }
    }
}

#[test]
fn algorithm2_agreement_and_proofs_matrix() {
    for &seed in &SEEDS {
        for t in [2usize, 4] {
            let schedules = [
                ScheduleSpec::default(),
                each(&[1, 2 * t as u32], FaultBehavior::Silent),
                each(&[2], FaultBehavior::CrashAt { phase: t + 4 }),
                each(&[3], FaultBehavior::Lie { value: Value::ZERO }),
            ];
            for schedule in schedules {
                let r = algorithm2::run(
                    t,
                    Value::ONE,
                    RunOptions {
                        schedule,
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .expect("agreement must hold");
                let common = r.report.verdict.agreed.unwrap();
                for (i, correct) in r.report.outcome.correct.iter().enumerate() {
                    if *correct {
                        let proof = r.proofs[i].as_ref().expect("correct processor holds proof");
                        assert!(algorithm2::is_transferable_proof(
                            proof,
                            common,
                            ProcessId(i as u32),
                            t,
                            &r.verifier
                        ));
                    }
                }
            }
        }
    }
}

#[test]
fn algorithm3_agreement_matrix() {
    for &seed in &SEEDS {
        let (n, t, s) = (40usize, 2usize, 5usize);
        let root = |g| algorithm3::group_root(t, s, g);
        // Group 2's root omits its even-position members.
        let skipped = (root(2).0 + 1..root(2).0 + s as u32).step_by(2);
        let schedules = [
            ScheduleSpec::default(),
            ScheduleSpec::each([root(0), root(3)], FaultBehavior::Silent),
            ScheduleSpec::each([root(1)], FaultBehavior::Lie { value: Value::ZERO }),
            ScheduleSpec::each(
                [root(2)],
                FaultBehavior::OmitTo {
                    targets: skipped.map(ProcessId).collect(),
                },
            ),
            each(&[7, 12], FaultBehavior::Silent),
            each(&[1], FaultBehavior::Silent),
        ];
        for schedule in schedules {
            for value in [Value::ZERO, Value::ONE] {
                let r = algorithm3::run(
                    n,
                    t,
                    s,
                    value,
                    RunOptions {
                        schedule: schedule.clone(),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .expect("agreement must hold");
                assert_eq!(r.verdict.agreed, Some(value));
            }
        }
    }
}

#[test]
fn algorithm5_agreement_matrix() {
    for &seed in &SEEDS[..2] {
        let (n, t, s) = (40usize, 1usize, 3usize);
        let root = |tree| algorithm5::tree_root(n, t, s, tree);
        let actives = (0..bounds::alpha(t as u64) as u32).map(ProcessId);
        let schedules = [
            ScheduleSpec::default(),
            each(&[15], FaultBehavior::Silent),
            ScheduleSpec::each(root(0), FaultBehavior::Silent),
            ScheduleSpec::each(
                root(1),
                FaultBehavior::OmitTo {
                    targets: actives.collect(),
                },
            ),
            each(&[1], FaultBehavior::Silent),
        ];
        for schedule in schedules {
            let r = algorithm5::run(
                n,
                t,
                s,
                Value::ONE,
                RunOptions {
                    schedule,
                    seed,
                    scheme: SchemeKind::Fast,
                    ..Default::default()
                },
            )
            .expect("agreement must hold");
            assert_eq!(r.verdict.agreed, Some(Value::ONE));
        }
    }
}

#[test]
fn baselines_agreement_matrix() {
    for &seed in &SEEDS {
        for (n, t) in [(7usize, 2usize), (12, 3)] {
            for variant in [
                dolev_strong::Variant::Broadcast,
                dolev_strong::Variant::Relay,
            ] {
                let r = dolev_strong::run(
                    n,
                    t,
                    Value::ONE,
                    dolev_strong::DsOptions {
                        variant,
                        schedule: each(
                            &[0],
                            FaultBehavior::Equivocate {
                                ones: vec![ProcessId(1), ProcessId(2)],
                            },
                        ),
                        seed,
                        scheme: SchemeKind::Fast,
                        ..Default::default()
                    },
                )
                .expect("agreement must hold");
                assert!(r.verdict.agreed.is_some());
            }
        }
        let r = om::run(
            7,
            2,
            Value::ONE,
            // The relays flip what they forward to odd-numbered targets.
            RunOptions::new().with_schedule(each(
                &[2, 4],
                FaultBehavior::Equivocate {
                    ones: vec![ProcessId(1), ProcessId(3), ProcessId(5)],
                },
            )),
        )
        .expect("agreement must hold");
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
    }
}

#[test]
fn cross_algorithm_consistency_on_shared_settings() {
    // Same (n, t, value): every algorithm must land on the transmitted
    // value in the fault-free case.
    let t = 3;
    let v = Value::ONE;
    let a1 = algorithm1::run(t, v, Default::default()).unwrap();
    let a2 = algorithm2::run(t, v, Default::default()).unwrap();
    let a3 = algorithm3::run(40, t, 6, v, Default::default()).unwrap();
    let a5 = algorithm5::run(60, t, 3, v, Default::default()).unwrap();
    let ds = dolev_strong::run(2 * t + 1, t, v, Default::default()).unwrap();
    let omr = om::run(10, t, v, Default::default()).unwrap();
    for agreed in [
        a1.verdict.agreed,
        a2.report.verdict.agreed,
        a3.verdict.agreed,
        a5.verdict.agreed,
        ds.verdict.agreed,
        omr.verdict.agreed,
    ] {
        assert_eq!(agreed, Some(v));
    }
}
