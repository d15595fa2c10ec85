//! Integration: every correct processor in the repo is a Section-2
//! processor. [`locality::audit`] replays everyone else's recorded sends
//! to each correct processor and requires it to send and decide as it
//! did, so what it sends depends on its own subhistory alone — for every
//! registered target under a spread of fault schedules, for the modules
//! no target covers, and for `ba-model`'s frugal toys. A toy that reads
//! shared memory mid-run fails it.

use byzantine_agreement::algos::algorithm5::{self, Alg5Config};
use byzantine_agreement::algos::checkable::{targets, CheckConfig};
use byzantine_agreement::algos::common::Board;
use byzantine_agreement::algos::{algorithm4, ic};
use byzantine_agreement::crypto::{Chain, KeyRegistry, ProcessId, SchemeKind, Value};
use byzantine_agreement::model::frugal::{FrugalBroadcast, QuietBroadcast};
use byzantine_agreement::model::locality::{audit, LocalityBreach};
use byzantine_agreement::sim::{Actor, FaultBehavior, Inbox, InstanceSpec, Outbox, ScheduleSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn keys(n: usize) -> KeyRegistry {
    KeyRegistry::new(n, 1, SchemeKind::Fast)
}

/// The fault-free schedule, each generic and protocol-specific behaviour
/// on `p1`, and the transmitter-only ones on `p0`.
fn schedules() -> Vec<ScheduleSpec> {
    let on = |p, behavior| ScheduleSpec::each([ProcessId(p)], behavior);
    vec![
        ScheduleSpec::default(),
        on(1, FaultBehavior::Silent),
        on(1, FaultBehavior::CrashAt { phase: 2 }),
        on(1, FaultBehavior::Passive),
        on(
            1,
            FaultBehavior::OmitTo {
                targets: vec![ProcessId(2)],
            },
        ),
        on(
            1,
            FaultBehavior::Forge {
                seed: 3,
                per_phase: 2,
            },
        ),
        on(1, FaultBehavior::Lie { value: Value::ZERO }),
        on(0, FaultBehavior::Withhold { release: 2 }),
        on(
            0,
            FaultBehavior::Equivocate {
                ones: vec![ProcessId(1)],
            },
        ),
    ]
}

/// The fault-free schedule and a silent `p1`.
fn fault_free_and_silent() -> [ScheduleSpec; 2] {
    let silent = ScheduleSpec::each([ProcessId(1)], FaultBehavior::Silent);
    [ScheduleSpec::default(), silent]
}

#[test]
fn every_target_follows_its_rule_under_every_schedule() {
    let mut audited = 0;
    for target in targets() {
        for (n, t) in [target.dims_from(3, 1), target.dims_from(5, 2)] {
            for spec in schedules() {
                let cfg = CheckConfig::new(n, t, Value::ONE, 1, 1, spec);
                if target.validate(&cfg).is_err() || target.build(&cfg).is_err() {
                    continue;
                }
                let build = || -> InstanceSpec<Chain> { target.build(&cfg).unwrap().into() };
                let name = target.name;
                assert_eq!(audit(build), Ok(()), "{name} n = {n}, t = {t}: {cfg:?}");
                audited += 1;
            }
        }
    }
    assert!(audited >= 130, "only {audited} target cells audited");
}

#[test]
fn algorithm4_follows_its_rule() {
    for (m, t) in [(3, 1), (4, 2)] {
        for schedule in fault_free_and_silent() {
            let n = m * m;
            let build = || algorithm4::build(m, t, &keys(n), &schedule, &Board::new(n)).unwrap();
            assert_eq!(audit(build), Ok(()), "m = {m}: {schedule:?}");
        }
    }
}

#[test]
fn algorithm5_follows_its_rule() {
    for (n, t, s) in [(60, 1, 1), (120, 3, 3)] {
        for schedule in fault_free_and_silent() {
            let build = || {
                let registry = keys(n);
                let cfg = Alg5Config::new(n, t, s, registry.verifier());
                algorithm5::build(cfg, &registry, Value::ONE, &schedule, &Board::new(n)).unwrap()
            };
            assert_eq!(audit(build), Ok(()), "({n}, {t}, {s}): {schedule:?}");
        }
    }
}

#[test]
fn interactive_consistency_follows_its_rule() {
    for (n, t) in [(4, 1), (6, 2)] {
        let values: Vec<Value> = (0..n as u64).map(|i| Value(i * 10 + 1)).collect();
        for schedule in fault_free_and_silent() {
            let build = || ic::build(n, t, &values, &schedule, &keys(n), &Board::new(n)).unwrap();
            assert_eq!(audit(build), Ok(()), "n = {n}: {schedule:?}");
        }
    }
}

#[test]
fn frugal_toys_follow_their_rules() {
    assert_eq!(
        audit(|| FrugalBroadcast::build(7, 2, Value::ONE, &keys(7))),
        Ok(())
    );
    assert_eq!(
        audit(|| QuietBroadcast::build(5, Value::ONE, &keys(5))),
        Ok(())
    );
}

/// A processor that breaks Section 2, kept so the audit is seen to fail:
/// in phase 1 `p1` tells `p0` a value and also writes it into memory every
/// processor shares; in phase 2 `p2` relays it to `p0`, though `p1` never
/// sent it to `p2`.
#[derive(Debug)]
struct Leak {
    me: u32,
    shared: Arc<AtomicU64>,
}

impl Actor<Value> for Leak {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
        match (phase, self.me) {
            (1, 1) => {
                self.shared.store(7, Ordering::Relaxed);
                out.send(ProcessId(0), Value(7));
            }
            (2, 2) => out.send(ProcessId(0), Value(self.shared.load(Ordering::Relaxed))),
            _ => {}
        }
    }

    fn decision(&self) -> Option<Value> {
        Some(Value::ZERO)
    }
}

#[test]
fn a_send_read_from_shared_memory_is_a_breach() {
    let build = || {
        let shared = Arc::new(AtomicU64::new(0));
        InstanceSpec {
            actors: (0..3)
                .map(|me| {
                    let shared = Arc::clone(&shared);
                    Box::new(Leak { me, shared }) as Box<dyn Actor<Value>>
                })
                .collect(),
            phases: 2,
            fault_budget: 0,
            link_drops: Vec::new(),
            registry: None,
        }
    };
    assert_eq!(
        audit(build),
        Err(LocalityBreach {
            processor: ProcessId(2),
            phase: Some(2),
        })
    );
}
