//! Integration: measured traffic respects every closed-form bound of the
//! paper — upper bounds are never exceeded, lower bounds are always
//! cleared by complete algorithms.

use byzantine_agreement::algos::{
    algorithm1, algorithm2, algorithm3, algorithm4, algorithm5, bounds, dolev_strong, om,
    RunOptions,
};
use byzantine_agreement::crypto::{ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

#[test]
fn upper_bounds_hold_across_sweep() {
    for t in 1..=8usize {
        let a1 = algorithm1::run(t, Value::ONE, Default::default()).unwrap();
        assert!(
            a1.outcome.metrics.messages_by_correct <= bounds::alg1_max_messages(t as u64),
            "alg1 t={t}"
        );
        assert!(a1.outcome.metrics.phases as u64 <= bounds::alg1_phases(t as u64));

        let a2 = algorithm2::run(t, Value::ONE, Default::default()).unwrap();
        assert!(
            a2.report.outcome.metrics.messages_by_correct <= bounds::alg2_max_messages(t as u64),
            "alg2 t={t}"
        );
        assert_eq!(
            a2.report.outcome.metrics.phases as u64,
            bounds::alg2_phases(t as u64)
        );
    }

    for (n, t, s) in [(30usize, 2usize, 4usize), (80, 3, 12), (200, 4, 16)] {
        let a3 = algorithm3::run(n, t, s, Value::ONE, Default::default()).unwrap();
        assert!(
            a3.outcome.metrics.messages_by_correct
                <= bounds::alg3_max_messages(n as u64, t as u64, s as u64),
            "alg3 n={n} t={t} s={s}"
        );
        assert_eq!(
            a3.outcome.metrics.phases as u64,
            bounds::alg3_phases(t as u64, s as u64)
        );
    }

    for m in 2..=6usize {
        let options = RunOptions::new().with_seed(1).with_scheme(SchemeKind::Fast);
        let r = algorithm4::run(m, 0, options);
        assert_eq!(
            r.outcome.metrics.messages_by_correct,
            bounds::alg4_max_messages(m as u64),
            "alg4 m={m}: fault-free count is exactly the bound"
        );
    }

    for (n, t, s) in [(60usize, 1usize, 3usize), (100, 3, 3), (150, 3, 7)] {
        let a5 = algorithm5::run(n, t, s, Value::ONE, Default::default()).unwrap();
        assert!(
            a5.outcome.metrics.messages_by_correct
                <= bounds::alg5_message_envelope(n as u64, t as u64, s as u64),
            "alg5 n={n} t={t} s={s}"
        );
        assert_eq!(
            a5.outcome.metrics.phases as u64,
            bounds::alg5_phases_schedule(t as u64, s as u64)
        );
    }
}

#[test]
fn lower_bounds_cleared_by_all_algorithms() {
    // Theorem 2: worst-case message counts of complete algorithms sit at
    // or above max{⌈(n-1)/2⌉, (1+t/2)²}.
    for t in [2usize, 4, 6] {
        let n = 2 * t + 1;
        let bound = bounds::thm2_message_lower_bound(n as u64, t as u64);
        let a1 = algorithm1::run(t, Value::ONE, Default::default()).unwrap();
        assert!(
            a1.outcome.metrics.messages_by_correct >= bound,
            "alg1 t={t}"
        );
    }
    // Theorem 1 / Corollary 1: unauthenticated OM(t) clears n(t+1)/4 in
    // messages; authenticated algorithms clear it in signatures.
    for (n, t) in [(7usize, 2usize), (10, 3)] {
        let r = om::run(n, t, Value::ONE, Default::default()).unwrap();
        assert!(
            r.outcome.metrics.messages_by_correct
                >= bounds::cor1_message_lower_bound(n as u64, t as u64)
        );
    }
    for t in [2usize, 4] {
        let n = 2 * t + 1;
        let a1 = algorithm1::run(t, Value::ONE, Default::default()).unwrap();
        assert!(
            a1.outcome.metrics.signatures_by_correct
                >= bounds::thm1_signature_lower_bound(n as u64, t as u64),
            "alg1 signatures t={t}"
        );
    }
}

#[test]
fn algorithm5_message_growth_is_linear_in_n() {
    // Fix t, s; double n twice: messages must grow sub-quadratically
    // (close to linearly) — the O(n + t²) shape of Theorem 7.
    let (t, s) = (3usize, 3usize);
    let m100 = algorithm5::run(100, t, s, Value::ONE, Default::default())
        .unwrap()
        .outcome
        .metrics
        .messages_by_correct as f64;
    let m400 = algorithm5::run(400, t, s, Value::ONE, Default::default())
        .unwrap()
        .outcome
        .metrics
        .messages_by_correct as f64;
    let growth = m400 / m100;
    assert!(
        growth < 4.8,
        "4x n should give ~4x messages, got {growth:.2}x ({m100} -> {m400})"
    );
}

#[test]
fn algorithm5_beats_dolev_strong_broadcast_for_large_n() {
    // O(n + t²) vs the O(n²) broadcast form: an order of magnitude apart
    // already at n = 400.
    let (n, t) = (400usize, 3usize);
    let a5 = algorithm5::run(n, t, 7, Value::ONE, Default::default()).unwrap();
    let dsb = dolev_strong::run(n, t, Value::ONE, Default::default()).unwrap();
    let a5m = a5.outcome.metrics.messages_by_correct;
    assert!(
        a5m < dsb.outcome.metrics.messages_by_correct / 5,
        "vs broadcast"
    );
}

#[test]
fn algorithm5_crosses_over_dolev_strong_relay_at_large_t() {
    // Against the O(nt) relay form the advantage is the n-coefficient:
    // ~2α/s + 2 for Algorithm 5 versus 2(t+1); with t = 10, s = 15 the
    // crossover has happened by n = 2000.
    let (n, t, s) = (2000usize, 10usize, 15usize);
    let a5 = algorithm5::run(n, t, s, Value::ONE, Default::default()).unwrap();
    let dsr = dolev_strong::run(
        n,
        t,
        Value::ONE,
        dolev_strong::DsOptions {
            variant: dolev_strong::Variant::Relay,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(a5.verdict.agreed, Some(Value::ONE));
    let a5m = a5.outcome.metrics.messages_by_correct;
    let dsm = dsr.outcome.metrics.messages_by_correct;
    assert!(
        a5m < dsm,
        "alg5 {a5m} should beat ds-relay {dsm} at n={n}, t={t}"
    );
}

#[test]
fn worst_case_fault_injection_stays_within_bounds() {
    // Adversaries may only add bounded extra traffic from correct nodes.
    let (n, t, s) = (60usize, 3usize, 6usize);
    let r = algorithm3::run(
        n,
        t,
        s,
        Value::ONE,
        RunOptions {
            schedule: ScheduleSpec::each(
                (0..3).map(|g| algorithm3::group_root(t, s, g)),
                FaultBehavior::Lie { value: Value::ZERO },
            ),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        r.outcome.metrics.messages_by_correct
            <= bounds::alg3_max_messages(n as u64, t as u64, s as u64)
    );

    let ones: Vec<ProcessId> = (1..=3u32).map(ProcessId).collect();
    let r = algorithm1::run(
        3,
        Value::ONE,
        RunOptions {
            schedule: ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones }),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.outcome.metrics.messages_by_correct <= bounds::alg1_max_messages(3));
}
