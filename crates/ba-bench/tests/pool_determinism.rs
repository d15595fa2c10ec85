//! Regression net for the persistent worker pool's determinism contract.
//!
//! Two guarantees the data-plane rebuild must never lose:
//!
//! * every checkable target produces byte-identical outcomes (verdict,
//!   message counts, crypto counters) at any intra-phase thread count,
//!   including under fault schedules with silent / crashing / omitting
//!   processors and link drops;
//! * barrier verification is an *accounting* optimisation: against the
//!   per-delivery reference, decisions, message counts and phase counts
//!   are unchanged, signature verifications can only shrink wherever
//!   every recipient verifies every delivery, and both sides stay
//!   thread-count invariant on their own.

use ba_algos::checkable::{targets, CheckConfig, CheckOutcome};
use ba_crypto::{ProcessId, Value};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};
use ba_sim::{check_byzantine_agreement, InstanceSpec, Simulation};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The Dolev–Strong targets and Algorithm 1: fault-free, the transmitter
/// signs once and every other processor relays one chain one signature
/// longer.
const ONE_RELAY_PER_PROCESSOR: [&str; 4] = [
    "ds-broadcast",
    "ds-relay",
    "ds-weak-relay-threshold",
    "algorithm1",
];

/// A deterministic fingerprint of everything a checked run reports. The
/// `Debug` rendering covers the verdict (including violation details) and
/// the full metrics are summarised by the count fields the bound
/// predicates consume.
fn fingerprint(outcome: &CheckOutcome) -> String {
    format!(
        "verdict={:?} msgs={} bound={} omitted={} phases={} err={:?}",
        outcome.verdict,
        outcome.messages_by_correct,
        outcome.message_bound,
        outcome.omitted_messages,
        outcome.phases,
        outcome.schedule_error,
    )
}

/// A non-trivial schedule for an `(n, t)` target: one silent relay, one
/// that crashes mid-run, and a link drop from the silent one (link drops
/// must name a faulty sender). Processor 0 stays honest so the ds targets
/// keep their transmitter.
fn schedule_for(n: usize, t: usize) -> ScheduleSpec {
    let mut faults = vec![(ProcessId(1), FaultBehavior::Silent)];
    if t >= 2 && n >= 4 {
        faults.push((ProcessId(2), FaultBehavior::CrashAt { phase: 2 }));
    }
    ScheduleSpec {
        faults,
        link_drops: vec![LinkDrop {
            phase: 1,
            from: ProcessId(1),
            to: ProcessId(0),
        }],
    }
}

#[test]
fn every_checkable_target_is_thread_count_invariant() {
    for target in targets() {
        let (n, t) = target.dims_from(7, 3);
        let spec = schedule_for(n, t);
        spec.validate(n, t).expect("schedule is well-formed");
        let run = |threads: usize| {
            target.run(&CheckConfig::new(
                n,
                t,
                Value::ONE,
                11,
                threads,
                spec.clone(),
            ))
        };
        let baseline = fingerprint(&run(1));
        for threads in THREAD_COUNTS {
            assert_eq!(
                fingerprint(&run(threads)),
                baseline,
                "{}: outcome diverged at threads={threads}",
                target.name
            );
        }
    }
}

#[test]
fn fault_free_targets_are_thread_count_invariant() {
    for target in targets() {
        let (n, t) = target.dims_from(9, 4);
        let run = |threads: usize| {
            target.run(&CheckConfig::new(
                n,
                t,
                Value::ZERO,
                3,
                threads,
                ScheduleSpec::default(),
            ))
        };
        let baseline = fingerprint(&run(1));
        for threads in THREAD_COUNTS {
            assert_eq!(
                fingerprint(&run(threads)),
                baseline,
                "{}: fault-free outcome diverged at threads={threads}",
                target.name
            );
        }
    }
}

/// Barrier verification (the default) versus the per-delivery reference
/// (`with_batched_verification(false)`), on every target, fault-free and
/// under the file's fault schedule, both swept across thread counts: the
/// protocol-visible outcome is a property of neither knob; only the crypto
/// work counters move.
#[test]
fn batched_verification_is_pure_accounting() {
    for target in targets() {
        let (n, t) = target.dims_from(7, 3);
        for spec in [ScheduleSpec::default(), schedule_for(n, t)] {
            let run = |threads: usize, barrier: bool| {
                let cfg = CheckConfig::new(n, t, Value::ONE, 11, threads, spec.clone());
                let setup = target.build(&cfg).expect("schedule is well-formed");
                let spec = InstanceSpec::from(setup);
                let phases = spec.phases;
                let outcome = Simulation::from(spec)
                    .with_threads(threads)
                    .with_batched_verification(barrier)
                    .run(phases);
                let verdict = check_byzantine_agreement(&outcome, cfg.transmitter, cfg.value);
                (format!("{verdict:?}"), outcome.decisions, outcome.metrics)
            };
            let case = format!("{} faults={}", target.name, spec.faults.len());

            let (ref_verdict, ref_decisions, rm) = run(1, false);
            let (verdict, decisions, dm) = run(1, true);

            // Protocol-visible outcome identical.
            assert_eq!(verdict, ref_verdict, "{case}");
            assert_eq!(decisions, ref_decisions, "{case}");
            assert_eq!(dm.messages_by_correct, rm.messages_by_correct, "{case}");
            assert_eq!(dm.signatures_by_correct, rm.signatures_by_correct, "{case}");
            assert_eq!(dm.omitted_messages, rm.omitted_messages, "{case}");
            assert_eq!(dm.phases, rm.phases, "{case}");
            let per_phase_messages = |m: &ba_sim::Metrics| -> Vec<u64> {
                m.per_phase.iter().map(|p| p.messages_by_correct).collect()
            };
            assert_eq!(per_phase_messages(&dm), per_phase_messages(&rm), "{case}");

            // Neither discipline bounds the other. In Dolev–Strong and
            // Algorithm 1 the barrier checks every unique chain delivered
            // in full: fault-free, the transmitter's one signature and both
            // signatures of each of its n − 1 relays, 1 + 2(n − 1). A
            // receiver checks only a chain that could still teach it a
            // value — the Dolev–Strong actors look the value up before
            // they verify, Algorithm 1's stop at their first accepted
            // chain — so per delivery it is the n − 1 receivers' one check
            // of the transmitter's chain, and the relays nobody needed go
            // unverified. (Algorithm 2's accumulation chains and
            // Algorithm 3's group chains have shapes of their own.)
            if spec.faults.is_empty() && ONE_RELAY_PER_PROCESSOR.contains(&target.name) {
                assert_eq!(
                    (dm.crypto.sig_verifications, rm.crypto.sig_verifications),
                    (2 * n as u64 - 1, n as u64 - 1),
                    "{case}: (barrier, per-delivery) signature checks"
                );
            }

            // Each side is thread-count invariant on its own, crypto
            // counters included.
            for (barrier, baseline) in [(false, &rm), (true, &dm)] {
                for threads in THREAD_COUNTS {
                    assert_eq!(
                        &run(threads, barrier).2,
                        baseline,
                        "{case}: barrier={barrier} diverged at threads={threads}"
                    );
                }
            }
        }
    }
}
