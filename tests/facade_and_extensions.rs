//! Integration: the `agree` facade, interactive consistency, the
//! multi-valued Algorithm 1 and forged-traffic schedules, exercised
//! together.

use byzantine_agreement::algos::{
    agree, algorithm1, algorithm1_multi, algorithm5, bounds, fuzz, ic, AlgoReport, RunOptions,
    Selected,
};
use byzantine_agreement::crypto::{Chain, ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

#[test]
fn facade_covers_the_whole_regime_map() {
    // Sweep n across all three regimes for several t.
    for t in 1..=3usize {
        let alpha = bounds::alpha(t as u64) as usize;
        for n in [2 * t + 1, 2 * t + 2, alpha - 1, alpha, alpha + 13] {
            let r = agree(n, t, Value::ONE, RunOptions::default()).unwrap();
            assert_eq!(r.verdict.agreed, Some(Value::ONE), "n={n} t={t}");
            let expected = if n == 2 * t + 1 {
                Selected::Algorithm1
            } else if n < alpha {
                Selected::SmallN
            } else {
                Selected::Algorithm5
            };
            assert_eq!(r.selected, expected, "n={n} t={t}");
        }
    }
}

#[test]
fn interactive_consistency_composes_with_faults() {
    let n = 8;
    let t = 2;
    let vals: Vec<Value> = (0..n as u64).map(|i| Value(i * i + 3)).collect();
    // p3 and p6 each sign 1 for odd and 0 for even receivers in their own
    // instance.
    let schedule = ScheduleSpec::each(
        [ProcessId(3), ProcessId(6)],
        FaultBehavior::Equivocate {
            ones: (1..n as u32).step_by(2).map(ProcessId).collect(),
        },
    );
    let options = RunOptions::new().with_schedule(schedule).with_seed(5);
    let r = ic::run(n, t, &vals, options.with_scheme(SchemeKind::Fast));
    let census = r.common_vector().unwrap();
    for i in 0..n {
        if i != 3 && i != 6 {
            assert_eq!(census[i], vals[i]);
        }
    }
}

#[test]
fn multivalued_agreement_interops_with_binary_bounds() {
    for t in 1..=4 {
        let r = algorithm1_multi::run(t, Value(0xCAFE), RunOptions::new().with_seed(7)).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value(0xCAFE)));
        // Single-value fault-free run costs exactly the binary worst case.
        assert_eq!(
            r.outcome.metrics.messages_by_correct,
            bounds::alg1_max_messages(t as u64)
        );
    }
}

/// Algorithm 1 (`n = 7`) with its top `count` processors forging.
fn algorithm1_spam(count: usize, per_phase: usize, seed: u64) -> AlgoReport<Chain> {
    let options = RunOptions {
        schedule: fuzz::spammers(7, count, per_phase, seed),
        seed,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    algorithm1::run(3, Value::ONE, options).unwrap()
}

#[test]
fn fuzzed_runs_never_break_agreement_or_panic() {
    for seed in [1u64, 99, 4096] {
        let r = algorithm1_spam(2, 12, seed);
        assert_eq!(r.verdict.agreed, Some(Value::ONE), "seed={seed}");
        let options = RunOptions {
            schedule: fuzz::spammers(30, 1, 8, seed),
            seed,
            scheme: SchemeKind::Fast,
            ..Default::default()
        };
        let r = algorithm5::run(30, 1, 3, Value::ZERO, options).unwrap();
        assert_eq!(r.verdict.agreed, Some(Value::ZERO), "seed={seed}");
    }
}

#[test]
fn spam_is_not_billed_to_correct_processors() {
    let clean = algorithm1_spam(0, 0, 5);
    let spammy = algorithm1_spam(2, 20, 5);
    // Spam shows up as faulty traffic only; the correct-sender count can
    // only go down (spammers replaced two relays).
    assert!(spammy.outcome.metrics.messages_by_faulty > 0);
    assert!(
        spammy.outcome.metrics.messages_by_correct <= clean.outcome.metrics.messages_by_correct
    );
}
