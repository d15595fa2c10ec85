//! The tentpole acceptance tests: under a reliable wire the runtime is
//! byte-identical to the lock-step engine for every checkable target at
//! worker-thread counts 1 and 4; under chaos it degrades gracefully —
//! structured verdicts, never a panic, never an untrustworthy decision.

use ba_algos::checkable::{targets, CheckConfig, CheckTarget};
use ba_crypto::{ProcessId, Value};
use ba_net::{
    check_equivalence, run_target, ChaosProfile, DegradationReason, InstanceSpec, LinkChaos,
    NetConfig, NetRunError, NetRuntime,
};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};
use ba_sim::{Actor, Inbox, Outbox};

fn cfg_for(target: &CheckTarget, spec: ScheduleSpec) -> CheckConfig {
    let (n, t) = target.dims_from(4, 1);
    CheckConfig::new(n, t, Value::ONE, 11, 1, spec)
}

fn splitting_spec() -> ScheduleSpec {
    ScheduleSpec {
        faults: vec![(
            ProcessId(0),
            FaultBehavior::OmitTo {
                targets: vec![ProcessId(2)],
            },
        )],
        link_drops: vec![],
    }
}

/// A passive transmitter whose links to p2 in phase 1 and to p3 in phase
/// 2 are scheduled to drop: the drops travel inside the setup to every
/// loop.
fn dropping_spec() -> ScheduleSpec {
    let drop = |phase, to| LinkDrop {
        phase,
        from: ProcessId(0),
        to: ProcessId(to),
    };
    ScheduleSpec {
        faults: vec![(ProcessId(0), FaultBehavior::Passive)],
        link_drops: vec![drop(1, 2), drop(2, 3)],
    }
}

#[test]
fn every_target_is_equivalent_at_one_and_four_workers() {
    for target in targets() {
        for spec in [ScheduleSpec::default(), splitting_spec(), dropping_spec()] {
            let cfg = cfg_for(target, spec.clone());
            if !spec.link_drops.is_empty() {
                // `check_equivalence` compares every `Metrics` field; the
                // drops must have fired for that to say anything.
                assert!(target.run(&cfg).omitted_messages > 0, "{}", target.name);
            }
            for threads in [1usize, 4] {
                check_equivalence(target, &cfg, threads).unwrap_or_else(|err| {
                    panic!("{} threads={threads} {spec:?}: {err}", target.name)
                });
            }
        }
    }
}

#[test]
fn equivalence_holds_with_byzantine_schedules() {
    // Equivocation and crashes exercise the faulty-sender accounting path.
    let specs = [
        ScheduleSpec {
            faults: vec![(
                ProcessId(0),
                FaultBehavior::Equivocate {
                    ones: vec![ProcessId(1)],
                },
            )],
            link_drops: vec![],
        },
        ScheduleSpec {
            faults: vec![(ProcessId(1), FaultBehavior::CrashAt { phase: 2 })],
            link_drops: vec![],
        },
    ];
    for target in targets() {
        for spec in &specs {
            let cfg = cfg_for(target, spec.clone());
            check_equivalence(target, &cfg, 4)
                .unwrap_or_else(|err| panic!("{} {spec:?}: {err}", target.name));
        }
    }
}

#[test]
fn equivocation_at_n_64_is_equivalent_where_relays_carry_both_values() {
    // At n = 4 a relay phase holds a handful of frames. At n = 64 every
    // phase-2 inbox carries both values, and the lock-step engine delivers
    // those relays all-to-all, listing the values so Dolev–Strong can turn
    // an inbox away unread; the reliable wire never lists them. At t = 2
    // the phase-3 inboxes, both values already extracted, are turned away.
    let target = ba_algos::checkable::find_target("ds-broadcast").unwrap();
    let ones = (1..32).map(ProcessId).collect();
    let spec = ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones });
    for t in [1, 2] {
        for threads in [1usize, 4] {
            let cfg = CheckConfig::new(64, t, Value::ONE, 11, threads, spec.clone());
            check_equivalence(target, &cfg, threads)
                .unwrap_or_else(|err| panic!("t={t} threads={threads}: {err}"));
        }
    }
}

#[test]
fn sound_targets_survive_recoverable_noise() {
    // Jitter (no loss) and mild loss are masked by retransmission: runs
    // complete, nobody is suspected under jitter, and the agreement
    // verdict holds for every sound target.
    let net = NetConfig::new().with_threads(2);
    for target in targets().iter().filter(|t| t.sound) {
        let cfg = cfg_for(target, ScheduleSpec::default());
        for (label, chaos) in [
            ("jitter", ChaosProfile::jitter(21)),
            ("lossy", ChaosProfile::lossy(22, 200)),
        ] {
            let run = run_target(target, &cfg, &net, &chaos)
                .unwrap_or_else(|e| panic!("{} under {label}: {e}", target.name));
            assert!(
                !run.violated(),
                "{} violated agreement under {label}: {:?}",
                target.name,
                run.agreement
            );
            if label == "jitter" {
                assert!(run.suspected.is_empty(), "jitter loses nothing");
                assert_eq!(run.stats.frames_failed, 0);
            }
        }
    }
}

#[test]
fn unsound_target_is_still_caught_through_the_net_runtime() {
    let weak = ba_algos::checkable::find_target("ds-weak-relay-threshold").unwrap();
    let cfg = cfg_for(weak, splitting_spec());
    let run = run_target(weak, &cfg, &NetConfig::default(), &ChaosProfile::reliable()).unwrap();
    assert!(
        run.violated(),
        "the splitting schedule must break the weakened target over the net runtime too"
    );
}

#[test]
fn dead_link_within_budget_degrades_gracefully() {
    // No scheduled faults, budget t = 1: one permanently dead link makes
    // its sender suspected, the run completes, and the remaining correct
    // processors still agree.
    let target = ba_algos::checkable::find_target("ds-broadcast").unwrap();
    let cfg = cfg_for(target, ScheduleSpec::default());
    let chaos = ChaosProfile::reliable().with_link(ProcessId(1), ProcessId(3), LinkChaos::dead());
    let run = run_target(target, &cfg, &NetConfig::default(), &chaos).unwrap();
    assert_eq!(run.suspected, vec![ProcessId(1)]);
    assert!(!run.correct[1], "suspected sender is not held correct");
    assert!(!run.violated(), "{:?}", run.agreement);
    assert!(run.stats.frames_failed > 0);
    assert!(!run.stats.failed_links.is_empty());
}

#[test]
fn fault_budget_exceeded_aborts_with_structured_verdict() {
    // The splitting schedule already spends the whole budget (t = 1) on
    // the transmitter; killing a correct sender's link on top pushes the
    // observable fault set to 2 and the runtime must refuse to decide.
    let target = ba_algos::checkable::find_target("ds-broadcast").unwrap();
    let cfg = cfg_for(target, splitting_spec());
    let chaos = ChaosProfile::reliable().with_link(ProcessId(1), ProcessId(3), LinkChaos::dead());
    let err = run_target(target, &cfg, &NetConfig::default(), &chaos).unwrap_err();
    let NetRunError::Degraded(verdict) = err else {
        panic!("expected a degradation verdict, got {err}");
    };
    assert!(
        matches!(
            verdict.reason,
            DegradationReason::FaultBudgetExceeded {
                observed: 2,
                budget: 1
            }
        ),
        "{verdict}"
    );
    assert_eq!(verdict.suspected, vec![ProcessId(1)]);
    assert!(verdict
        .stats
        .failed_links
        .iter()
        .all(|l| l.from == ProcessId(1) && l.to == ProcessId(3)));
    assert!(verdict.phase >= 1);
}

#[test]
fn chaos_runs_are_reproducible_at_any_worker_count() {
    let target = ba_algos::checkable::find_target("ds-relay").unwrap();
    let cfg = cfg_for(target, ScheduleSpec::default());
    let chaos = ChaosProfile::stress(33);
    let run = |threads: usize| {
        let net = NetConfig::new().with_threads(threads);
        match run_target(target, &cfg, &net, &chaos) {
            Ok(run) => (run.decisions, run.suspected, run.stats),
            Err(NetRunError::Degraded(v)) => (vec![], v.suspected, v.stats),
            Err(e) => panic!("{e}"),
        }
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "chaos outcome depends only on the seed");
}

#[test]
fn a_panicking_actor_yields_a_structured_verdict_not_a_process_panic() {
    #[derive(Debug)]
    struct PanicsAt(Option<usize>);
    impl Actor<Value> for PanicsAt {
        fn step(&mut self, phase: usize, _inbox: Inbox<'_, Value>, _out: &mut Outbox<Value>) {
            assert!(Some(phase) != self.0, "actor bug at phase {phase}");
        }
        fn decision(&self) -> Option<Value> {
            Some(Value::ONE)
        }
    }
    // Four actors in four chunks; only processor 2's chunk is lost.
    let spec = InstanceSpec {
        actors: (0..4)
            .map(|i| Box::new(PanicsAt((i == 2).then_some(2))) as Box<dyn Actor<Value>>)
            .collect(),
        phases: 3,
        fault_budget: 0,
        link_drops: vec![],
        registry: None,
    };
    let verdict = NetRuntime::new(spec, NetConfig::new().with_threads(4))
        .run()
        .expect_err("a lost chunk cannot decide");
    assert!(
        matches!(verdict.reason, DegradationReason::WorkerStalled { .. }),
        "{verdict}"
    );
    assert_eq!(verdict.phase, 2);
    assert_eq!(verdict.stalled_workers, vec![2]);
}
