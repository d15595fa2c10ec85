//! Integration: runs are bit-for-bit reproducible from the seed, the
//! agreement outcome is independent of the signature scheme chosen, and a
//! run's thread count and trace switch move nothing but the trace.

use byzantine_agreement::algos::dolev_strong::{self, Variant};
use byzantine_agreement::algos::{
    agree, algorithm1, algorithm1_multi, algorithm2, algorithm3, algorithm4, algorithm5, ic, om,
    RunOptions, Selected,
};
use byzantine_agreement::crypto::{ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::{
    FaultBehavior, Metrics, RunOutcome, RunVerdict, ScheduleSpec, Trace,
};
use std::any::Any;
use std::fmt;

#[test]
fn same_seed_same_everything() {
    let run = || {
        algorithm3::run(
            50,
            2,
            5,
            Value::ONE,
            RunOptions {
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
                RunOptions {
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
            RunOptions {
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
            RunOptions {
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

/// What a run reports: each processor's decision and correct flag (for
/// `agree`, with its selection and verdict), the whole metrics, and the
/// trace (`agree` reports none).
#[derive(PartialEq, Debug)]
struct Observed {
    decided: Decided,
    metrics: Metrics,
    trace: Option<Traced>,
}

/// A run's [`Trace`], whatever its payload type, compared with
/// `Trace: PartialEq` (two traces of different payload types differ).
struct Traced {
    trace: Box<dyn Any>,
    messages: usize,
    eq: fn(&dyn Any, &dyn Any) -> bool,
}

impl Traced {
    fn new<P: PartialEq + 'static>(trace: Trace<P>) -> Self {
        fn eq<P: PartialEq + 'static>(a: &dyn Any, b: &dyn Any) -> bool {
            let (a, b) = (a.downcast_ref::<Trace<P>>(), b.downcast_ref::<Trace<P>>());
            a.is_some() && a == b
        }
        Traced {
            messages: trace.message_count(),
            trace: Box::new(trace),
            eq: eq::<P>,
        }
    }
}

impl PartialEq for Traced {
    fn eq(&self, other: &Self) -> bool {
        (self.eq)(&*self.trace, &*other.trace)
    }
}

impl fmt::Debug for Traced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace of {} messages", self.messages)
    }
}

#[derive(PartialEq, Debug)]
enum Decided {
    Each(Vec<Option<Value>>, Vec<bool>),
    Verdict(Selected, RunVerdict, Vec<Option<Value>>, Vec<bool>),
}

fn observed<P: PartialEq + 'static>(outcome: RunOutcome<P>) -> Observed {
    Observed {
        trace: Some(Traced::new(outcome.trace)),
        decided: Decided::Each(outcome.decisions, outcome.correct),
        metrics: outcome.metrics,
    }
}

/// Every single-instance run — each BA run, Dolev–Strong in both variants,
/// `agree` in each of its three regimes, Algorithm 4's grid exchange, its
/// relay baseline and interactive consistency — under one non-empty
/// schedule, with `threads` workers and the trace switch at `trace`.
fn every_run(threads: usize, trace: bool) -> Vec<(&'static str, Observed)> {
    fn options<M: Default>(
        (threads, trace): (usize, bool),
        faulty: &[u32],
        behavior: FaultBehavior,
    ) -> RunOptions<M> {
        RunOptions {
            schedule: ScheduleSpec::each(faulty.iter().copied().map(ProcessId), behavior),
            seed: 7,
            scheme: SchemeKind::Fast,
            threads,
            trace,
            ..Default::default()
        }
    }
    let o = |faulty: &[u32], behavior| options::<()>((threads, trace), faulty, behavior);
    let ones = |ids: &[u32]| FaultBehavior::Equivocate {
        ones: ids.iter().copied().map(ProcessId).collect(),
    };
    let lie = FaultBehavior::Lie { value: Value::ZERO };
    let ds = |variant| {
        let options = options((threads, trace), &[0], ones(&[1, 2, 3, 4])).with_variant(variant);
        let r = dolev_strong::run(9, 2, Value::ONE, options);
        observed(r.unwrap().outcome)
    };
    let agreed = |n: usize, t: usize| {
        let r = agree(n, t, Value::ONE, o(&[n as u32 - 1], FaultBehavior::Silent)).unwrap();
        Observed {
            decided: Decided::Verdict(r.selected, r.verdict, r.decisions, r.correct),
            metrics: r.metrics,
            trace: None,
        }
    };
    let root3 = algorithm3::group_root(1, 4, 0).0;
    let root5 = algorithm5::tree_root(30, 1, 3, 0)
        .expect("tree 0 has a root")
        .0;
    vec![
        ("algorithm1", {
            let r = algorithm1::run(2, Value::ONE, o(&[0], ones(&[1, 3])));
            observed(r.unwrap().outcome)
        }),
        ("algorithm1_multi", {
            let r = algorithm1_multi::run(2, Value(42), o(&[0], ones(&[1, 2, 3, 4])));
            observed(r.unwrap().outcome)
        }),
        ("algorithm2", {
            let r = algorithm2::run(2, Value::ONE, o(&[3], lie.clone()));
            observed(r.unwrap().report.outcome)
        }),
        ("algorithm3", {
            let r = algorithm3::run(20, 1, 4, Value::ONE, o(&[root3], lie));
            observed(r.unwrap().outcome)
        }),
        ("algorithm5", {
            let r = algorithm5::run(30, 1, 3, Value::ONE, o(&[root5], FaultBehavior::Silent));
            observed(r.unwrap().outcome)
        }),
        ("algorithm4", {
            let r = algorithm4::run(3, 1, o(&[4], FaultBehavior::Silent));
            observed(r.outcome)
        }),
        ("relay_exchange", {
            let r = algorithm4::relay_exchange(9, 2, o(&[1, 6], FaultBehavior::Silent));
            observed(r.outcome)
        }),
        ("ic", {
            let values: Vec<Value> = (10..15).map(Value).collect();
            observed(ic::run(5, 1, &values, o(&[2], ones(&[1, 3]))).outcome)
        }),
        ("om", {
            let r = om::run(7, 2, Value::ONE, o(&[0], ones(&[1, 2, 3])));
            observed(r.unwrap().outcome)
        }),
        ("ds-broadcast", ds(Variant::Broadcast)),
        ("ds-relay", ds(Variant::Relay)),
        ("agree algorithm 1", agreed(5, 2)),
        ("agree small n", agreed(7, 1)),
        ("agree algorithm 5", agreed(12, 1)),
    ]
}

#[test]
fn threads_and_trace_move_only_the_trace() {
    let base = every_run(1, false);
    let selected: Vec<_> = base
        .iter()
        .filter_map(|(_, seen)| match seen.decided {
            Decided::Verdict(selected, ..) => Some(selected),
            Decided::Each(..) => None,
        })
        .collect();
    let regimes = [Selected::Algorithm1, Selected::SmallN, Selected::Algorithm5];
    assert_eq!(selected, regimes);
    // Traced at one thread: what every traced run must record exactly.
    let traced = every_run(1, true);
    for (threads, trace) in [(1, false), (4, false), (1, true), (4, true)] {
        let reference = if trace { &traced } else { &base };
        let runs = every_run(threads, trace);
        for (((name, a), (_, b)), (_, r)) in base.iter().zip(&runs).zip(reference) {
            let at = format!("{name} threads={threads} trace={trace}");
            assert_eq!((&a.decided, &a.metrics), (&b.decided, &b.metrics), "{at}");
            assert_eq!(b.trace, r.trace, "{at}");
            if let Some(recorded) = &b.trace {
                assert_eq!(recorded.messages > 0, trace, "{at}");
            }
        }
    }
}
