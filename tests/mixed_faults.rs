//! Integration: heterogeneous fault mixes within a single run — the
//! strongest scenarios the fault budget allows, combining silence,
//! forged traffic, selective omission and lossy links.

use byzantine_agreement::algos::algorithm1::{self, Algo1Actor, Algo1Params};
use byzantine_agreement::algos::{algorithm5, bounds, RunOptions};
use byzantine_agreement::crypto::rng::SimRng;
use byzantine_agreement::crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::adversary::{IgnoreFirst, OmitTo};
use byzantine_agreement::sim::{check_byzantine_agreement, Actor, InstanceSpec};
use byzantine_agreement::sim::{FaultBehavior, LinkDrop, ScheduleSpec};
use std::sync::Arc;

/// `from`'s links in phases `1..=phases`, each dropped with probability
/// `per_mille / 1000` — a lossy relay as a seeded schedule.
fn lossy_links(from: u32, n: usize, phases: usize, per_mille: u32, seed: u64) -> Vec<LinkDrop> {
    let mut rng = SimRng::new(seed);
    let links = (1..=phases).flat_map(|phase| (0..n as u32).map(move |to| (phase, to)));
    links
        .filter(|&(_, to)| to != from)
        .filter(|_| rng.range_u32(0, 1000) < per_mille)
        .map(|(phase, to)| LinkDrop {
            phase,
            from: ProcessId(from),
            to: ProcessId(to),
        })
        .collect()
}

/// Algorithm 1 with three different fault classes at once: a silent
/// relay, a spamming relay, and a lossy relay.
#[test]
fn algorithm1_with_silent_spamming_and_lossy_relays() {
    let t = 3;
    let n = 2 * t + 1;
    for seed in [1u64, 77, 991] {
        // p1: silent. p2: spammer. p3: drops ~half its sends. Rest honest.
        let schedule = ScheduleSpec {
            faults: vec![
                (ProcessId(1), FaultBehavior::Silent),
                (ProcessId(2), FaultBehavior::Forge { seed, per_phase: 6 }),
                (ProcessId(3), FaultBehavior::Passive),
            ],
            link_drops: lossy_links(3, n, t + 2, 500, seed),
        };
        let options = RunOptions {
            schedule,
            seed,
            scheme: SchemeKind::Fast,
            ..Default::default()
        };
        let r =
            algorithm1::run(t, Value::ONE, options).expect("mixed faults must not break agreement");
        assert_eq!(r.verdict.agreed, Some(Value::ONE), "seed={seed}");
        assert_eq!(r.verdict.correct_count, n - 3);
    }
}

/// Algorithm 1 where the adversaries cooperate: one relay starves a
/// victim of its first messages while another omits toward the same
/// victim — the Theorem 2 flavor of faultiness, inside a real algorithm.
#[test]
fn algorithm1_with_coordinated_starvation_attempt() {
    let t = 3;
    let n = 2 * t + 1;
    let registry = KeyRegistry::new(n, 5, SchemeKind::Fast);
    let params = Arc::new(Algo1Params {
        t,
        verifier: registry.verifier(),
    });
    let victim = ProcessId(6);
    let honest = |p: u32, own: Option<Value>| {
        Algo1Actor::new(
            params.clone(),
            ProcessId(p),
            registry.signer(ProcessId(p)),
            own,
        )
    };

    let mut actors: Vec<Box<dyn Actor<Chain>>> = vec![
        Box::new(honest(0, Some(Value::ONE))),
        Box::new(OmitTo::new(honest(1, None), [victim])),
        Box::new(OmitTo::new(honest(2, None), [victim])),
        Box::new(IgnoreFirst::new(honest(3, None), 2)),
    ];
    for p in 4..n as u32 {
        actors.push(Box::new(honest(p, None)));
    }

    let spec = InstanceSpec {
        actors,
        phases: t + 2,
        fault_budget: t,
        link_drops: Vec::new(),
        registry: Some(registry.clone()),
    };
    let outcome = spec.run_lockstep(1);
    let verdict = check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE).unwrap();
    // The victim still hears from the transmitter and the remaining
    // correct B-side relays: starvation needs more traitors than t allows.
    assert_eq!(verdict.agreed, Some(Value::ONE));
}

/// Algorithm 5 with a silent core active, a spamming passive and a
/// report-withholding tree root, all in one run (t = 3).
#[test]
fn algorithm5_with_three_fault_classes() {
    let (n, t, s) = (60usize, 3usize, 3usize);
    // The faulty trio: core active p2; the root of tree 1, which never
    // reports to the actives; a leaf passive as spammer.
    let tree1_root = algorithm5::tree_root(n, t, s, 1).expect("tree 1 has a real root");
    let actives = (0..bounds::alpha(t as u64) as u32).map(ProcessId).collect();
    let schedule = ScheduleSpec {
        faults: vec![
            (ProcessId(2), FaultBehavior::Silent),
            (tree1_root, FaultBehavior::OmitTo { targets: actives }),
            (
                ProcessId(n as u32 - 1),
                FaultBehavior::Forge {
                    seed: 13,
                    per_phase: 5,
                },
            ),
        ],
        link_drops: vec![],
    };
    let options = RunOptions {
        schedule,
        seed: 9,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    let r = algorithm5::run(n, t, s, Value::ONE, options)
        .expect("mixed faults must not break agreement");
    assert_eq!(r.verdict.agreed, Some(Value::ONE));
    assert_eq!(r.verdict.correct_count, n - 3);
}

/// The fault budget boundary: exactly t mixed faults pass, and the same
/// scenario is the worst the checker ever has to absorb.
#[test]
fn exactly_t_mixed_faults_is_survivable() {
    let t = 4;
    let n = 2 * t + 1;
    let schedule = ScheduleSpec {
        faults: vec![
            (ProcessId(1), FaultBehavior::Silent),
            (
                ProcessId(2),
                FaultBehavior::Forge {
                    seed: 3,
                    per_phase: 10,
                },
            ),
            (ProcessId(3), FaultBehavior::Passive),
            (
                ProcessId(4),
                FaultBehavior::OmitTo {
                    targets: vec![ProcessId(7), ProcessId(8)],
                },
            ),
        ],
        link_drops: lossy_links(3, n, t + 2, 900, 3),
    };
    let options = RunOptions {
        schedule,
        seed: 21,
        scheme: SchemeKind::Fast,
        ..Default::default()
    };
    let r = algorithm1::run(t, Value::ZERO, options).unwrap();
    assert_eq!(r.verdict.agreed, Some(Value::ZERO));
}
