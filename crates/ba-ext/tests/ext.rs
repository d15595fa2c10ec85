//! End-to-end properties of the extension protocol:
//!
//! * reassembled payloads are byte-identical — to the input and across
//!   worker counts {1, 4, 8};
//! * any `t` chunk-withholding or chunk-garbling Byzantine processors
//!   either reconstruct (correct sender ⇒ always) or abort with a
//!   structured reason — **never** a wrong payload;
//! * the fault-free wire volume stays inside the gated constant of the
//!   `ℓ·n` lower-bound regime.

use ba_crypto::rng::SimRng;
use ba_crypto::{Bytes, ProcessId};
use ba_ext::check::{run_scenario, sweep, ExtScenario};
use ba_ext::{agree_on_payload, AbortReason, ExtDecision, ExtOptions};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};

fn payload(len: usize, seed: u64) -> Bytes {
    let mut rng = SimRng::new(seed);
    Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
}

/// Reassembly is byte-identical to the input payload and across worker
/// counts on several geometries.
#[test]
fn reassembly_is_byte_identical_across_worker_counts() {
    for (n, t, len) in [(4, 1, 3_000), (16, 3, 65_536), (25, 4, 10_007)] {
        let p = payload(len, n as u64 * 31 + t as u64);
        let base_opts = ExtOptions {
            n,
            t,
            seed: 77,
            ..ExtOptions::default()
        };
        let base = agree_on_payload(&p, &base_opts).expect("baseline runs");
        for (id, decision) in base.correct_decisions() {
            let got = decision.and_then(|d| d.payload()).expect("decides");
            assert_eq!(got, &p, "node {id} (n={n})");
        }
        for threads in [4, 8] {
            let opts = ExtOptions {
                threads,
                ..base_opts.clone()
            };
            let report = agree_on_payload(&p, &opts).expect("threaded run");
            assert_eq!(report, base, "report diverges at threads={threads} n={n}");
        }
    }
}

/// Exactly `t` silent chunk owners (their chunks never enter the grid):
/// every correct node must still reconstruct the exact payload via the
/// parity chunks and grid repair.
#[test]
fn t_withheld_chunks_still_reconstruct() {
    let opts = ExtOptions {
        n: 16,
        t: 3,
        seed: 5,
        ..ExtOptions::default()
    };
    let p = payload(50_000, 99);
    for faulty in [[1usize, 2, 3], [5, 10, 15], [4, 8, 12]] {
        let scenario = ExtScenario {
            spec: ScheduleSpec {
                faults: faulty
                    .iter()
                    .map(|&i| (ProcessId(i as u32), FaultBehavior::Silent))
                    .collect(),
                link_drops: Vec::new(),
            },
            garble: Vec::new(),
            label: format!("withhold {faulty:?}"),
        };
        let outcome = run_scenario(&p, &opts, &scenario);
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        let report = outcome.report.expect("ran");
        for (id, decision) in report.correct_decisions() {
            assert_eq!(
                decision.and_then(|d| d.payload()),
                Some(&p),
                "{id} must reconstruct despite withheld chunks {faulty:?}"
            );
        }
    }
}

/// Exactly `t` garbling relays (corrupt bytes under a stale signature):
/// garbled chunks die at verification, so this degrades to withholding
/// and every correct node still reconstructs the exact payload.
#[test]
fn t_garbled_chunks_still_reconstruct() {
    let opts = ExtOptions {
        n: 16,
        t: 3,
        seed: 6,
        ..ExtOptions::default()
    };
    let p = payload(30_000, 13);
    for garblers in [[1usize, 6, 11], [13, 14, 15]] {
        let scenario = ExtScenario {
            spec: ScheduleSpec::default(),
            garble: garblers.iter().map(|&i| ProcessId(i as u32)).collect(),
            label: format!("garble {garblers:?}"),
        };
        let outcome = run_scenario(&p, &opts, &scenario);
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        let report = outcome.report.expect("ran");
        for (id, decision) in report.correct_decisions() {
            assert_eq!(
                decision.and_then(|d| d.payload()),
                Some(&p),
                "{id} must reconstruct despite garblers {garblers:?}"
            );
        }
    }
}

/// The full standard scenario family (withholding, crashing, omitting,
/// garbling, random mixes at full budget) never produces a wrong payload
/// and never aborts under a correct sender.
#[test]
fn scenario_sweep_never_yields_wrong_payload() {
    let opts = ExtOptions {
        n: 16,
        t: 3,
        seed: 404,
        ..ExtOptions::default()
    };
    let p = payload(8_192, 1_234);
    let report = sweep(&p, &opts, 6);
    let failures: Vec<_> = report
        .iter()
        .filter(|o| o.failure.is_some())
        .map(|o| (o.label.clone(), o.failure.clone()))
        .collect();
    assert!(failures.is_empty(), "property violations: {failures:?}");
}

/// A Byzantine sender that stays silent forces the *same* structured
/// abort at every correct node — the availability vote falls short of
/// `t + 1`, so everyone lands on the identical attributed
/// `InsufficientAvailability` reason, never a fabricated payload and
/// never a split outcome.
#[test]
fn silent_sender_aborts_everywhere_with_identical_reason() {
    let opts = ExtOptions {
        n: 9,
        t: 2,
        seed: 3,
        ..ExtOptions::default()
    };
    let p = payload(4_000, 8);
    let scenario = ExtScenario {
        spec: ScheduleSpec {
            faults: vec![(ProcessId(0), FaultBehavior::Silent)],
            link_drops: Vec::new(),
        },
        garble: Vec::new(),
        label: "silent sender".into(),
    };
    let outcome = run_scenario(&p, &opts, &scenario);
    assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
    let report = outcome.report.expect("ran");
    for (id, decision) in report.correct_decisions() {
        match decision {
            Some(ExtDecision::Abort(AbortReason::InsufficientAvailability {
                available,
                needed,
            })) => {
                assert_eq!(*available, 0, "{id}: nobody reconstructs without chunks");
                assert_eq!(*needed, opts.t + 1, "{id}");
            }
            other => panic!("{id}: expected the agreed abort, got {other:?}"),
        }
    }
    ba_ext::net::outcome_agreement(&report).expect("identical outcome everywhere");
}

/// The acceptance invariant: across ≥200 seeded random within-budget
/// schedules (Byzantine sender included — position 0 is a candidate fault
/// slot), no run leaves two correct nodes with differing `ExtDecision`
/// variants or payloads. The strict judge inside the sweep enforces full
/// outcome equality including abort reasons.
#[test]
fn outcome_agreement_holds_across_200_random_schedules() {
    let opts = ExtOptions {
        n: 9,
        t: 2,
        seed: 2_026,
        ..ExtOptions::default()
    };
    let p = payload(2_048, 55);
    let report = sweep(&p, &opts, 200);
    assert!(report.len() >= 200, "family too small: {}", report.len());
    let failures: Vec<_> = report
        .iter()
        .filter(|o| o.failure.is_some())
        .map(|o| (o.label.clone(), o.failure.clone()))
        .collect();
    assert!(failures.is_empty(), "outcome disagreements: {failures:?}");
}

/// Fault-free wire volume stays within the gated constant (4×) of ℓ·n
/// as the payload grows, and the payload/control split is accounted.
#[test]
fn fault_free_overhead_is_gated() {
    let opts = ExtOptions {
        n: 16,
        t: 2,
        seed: 1,
        ..ExtOptions::default()
    };
    for len in [16 * 1024, 256 * 1024] {
        let p = payload(len, len as u64);
        let report = agree_on_payload(&p, &opts).expect("runs");
        let ratio = report.overhead_ratio();
        assert!(ratio < 4.0, "overhead {ratio} at ℓ = {len}");
        assert!(
            report.dissemination.payload_bytes_by_correct <= report.dissemination.bytes_by_correct,
            "payload accounting exceeds wire accounting"
        );
        assert!(
            report.dissemination.payload_bytes_by_correct as usize >= len,
            "payload traffic below ℓ is impossible when everyone reconstructs"
        );
    }
}
