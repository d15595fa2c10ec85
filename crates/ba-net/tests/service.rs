//! Acceptance tests for the `ba-svc` service layer: K concurrent instances
//! decide byte-identically to K standalone runs — at 1 and 4 workers, with
//! and without chaos, `Metrics` included — degradation verdicts stay
//! per-instance, flush coalescing is visible in the counters, and the
//! open-loop session API (Poisson arrivals, bounded admission queue,
//! backpressure) is deterministic with exact accounting.

use ba_algos::checkable::{find_target, targets, CheckConfig, CheckTarget};
use ba_crypto::{Chain, ProcessId, Value};
use ba_net::{
    instance_seed, run_target, run_target_multiplexed, AdmissionError, AdmissionPolicy,
    AdmissionVerdict, BaService, ChaosProfile, DegradationReason, FailedLink, InstanceSpec,
    LinkChaos, MultiplexRun, NetConfig, NetRunError, NetStats, PoissonArrivals, SvcConfig,
    SvcReport, TicketOutcome, TicketStatus,
};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};
use ba_sim::{Actor, Inbox, Outbox};

fn cfg_for(target: &CheckTarget, value: Value, spec: ScheduleSpec) -> CheckConfig {
    let (n, t) = target.dims_from(4, 1);
    CheckConfig::new(n, t, value, 11, 1, spec)
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

/// The wire-level fields both execution paths populate identically. The
/// flush counters are deliberately excluded: a standalone runtime records
/// its own solo flushes while a multiplexed instance's flushes are
/// accounted fleet-wide.
fn wire_fields(stats: &NetStats) -> (u64, u64, u64, u64, u64, u64, u64, Vec<FailedLink>) {
    (
        stats.frames_delivered,
        stats.frames_failed,
        stats.physical_transmissions,
        stats.retransmissions,
        stats.duplicates_suppressed,
        stats.acks_lost,
        stats.max_ticks_in_phase,
        stats.failed_links.clone(),
    )
}

/// A passive transmitter whose links to p2 in phase 1 and to p3 in phase
/// 2 are scheduled to drop.
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

/// A fleet of 4 instances per target: mixed values, one instance carrying
/// the splitting schedule so the faulty-sender path is exercised too, and
/// one carrying scheduled link drops.
fn fleet_cfgs(target: &CheckTarget) -> Vec<CheckConfig> {
    vec![
        cfg_for(target, Value::ONE, ScheduleSpec::default()),
        cfg_for(target, Value::ZERO, ScheduleSpec::default()),
        cfg_for(target, Value::ONE, splitting_spec()),
        cfg_for(target, Value::ONE, dropping_spec()),
    ]
}

#[test]
fn multiplexed_instances_match_standalone_runs_for_every_target() {
    for target in targets() {
        let cfgs = fleet_cfgs(target);
        for chaos in [ChaosProfile::reliable(), ChaosProfile::lossy(77, 150)] {
            for threads in [1usize, 4] {
                // Stagger admissions so phases pipeline.
                let svc = SvcConfig::new()
                    .with_threads(threads)
                    .with_admit_per_tick(1);
                let mux = run_target_multiplexed(target, &cfgs, &svc, &chaos)
                    .unwrap_or_else(|e| panic!("{} threads={threads}: {e}", target.name));
                assert_eq!(mux.runs.len(), cfgs.len());
                for (i, (mux_run, cfg)) in mux.runs.iter().zip(&cfgs).enumerate() {
                    let ctx = format!("{} instance={i} threads={threads}", target.name);
                    let solo_chaos = chaos.clone().reseeded(instance_seed(chaos.seed, i as u64));
                    let solo = run_target(target, cfg, &NetConfig::default(), &solo_chaos);
                    match (mux_run, solo) {
                        (Ok(m), Ok(s)) => {
                            assert_eq!(m.decisions, s.decisions, "{ctx}");
                            assert_eq!(m.correct, s.correct, "{ctx}");
                            assert_eq!(m.suspected, s.suspected, "{ctx}");
                            assert_eq!(m.agreement, s.agreement, "{ctx}");
                            // Every counter, crypto included: an instance
                            // shares nothing with its fleet.
                            assert_eq!(m.metrics, s.metrics, "{ctx}");
                            assert_eq!(wire_fields(&m.stats), wire_fields(&s.stats), "{ctx}");
                            if m.stats.frames_failed == 0 {
                                // Scheduled drops are the only omissions.
                                assert_eq!(
                                    m.metrics.omitted_messages,
                                    target.run(cfg).omitted_messages,
                                    "{ctx}"
                                );
                            }
                        }
                        (Err(m), Err(NetRunError::Degraded(s))) => {
                            assert_eq!(m.phase, s.phase, "{ctx}");
                            assert_eq!(m.reason, s.reason, "{ctx}");
                            assert_eq!(m.suspected, s.suspected, "{ctx}");
                            assert_eq!(m.stats.failed_links, s.stats.failed_links, "{ctx}");
                        }
                        (m, s) => panic!("{ctx}: multiplexed {m:?} but standalone {s:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn multiplexed_runs_are_worker_count_independent() {
    // Not just decisions: metrics (crypto counters included), wire stats,
    // tick count and the fleet flush counters must be byte-identical at
    // any worker count.
    let summarize = |mux: &MultiplexRun| {
        let per_instance: Vec<_> = mux
            .runs
            .iter()
            .map(|r| match r {
                Ok(run) => (
                    Some((
                        run.decisions.clone(),
                        run.correct.clone(),
                        run.metrics.clone(),
                        run.stats.clone(),
                    )),
                    None,
                ),
                Err(v) => (None, Some((*v).clone())),
            })
            .collect();
        (per_instance, mux.stats.clone(), mux.ticks)
    };
    for target in targets() {
        let cfgs = fleet_cfgs(target);
        for chaos in [ChaosProfile::reliable(), ChaosProfile::stress(91)] {
            let run = |threads: usize| {
                let svc = SvcConfig::new()
                    .with_threads(threads)
                    .with_admit_per_tick(2);
                run_target_multiplexed(target, &cfgs, &svc, &chaos)
                    .unwrap_or_else(|e| panic!("{}: {e}", target.name))
            };
            let one = run(1);
            let four = run(4);
            assert_eq!(
                summarize(&one),
                summarize(&four),
                "{} diverges across worker counts",
                target.name
            );
        }
    }
}

#[test]
fn coalesced_flushes_are_batched_across_instances() {
    let target = find_target("ds-broadcast").unwrap();
    let cfg = cfg_for(target, Value::ONE, ScheduleSpec::default());
    let cfgs = vec![cfg.clone(), cfg.clone(), cfg.clone(), cfg.clone()];

    // All four instances admitted in one tick march phases in lockstep, so
    // every directed link's flush carries four instances' frames.
    let svc = SvcConfig::new().with_admit_per_tick(8);
    let mux = run_target_multiplexed(target, &cfgs, &svc, &ChaosProfile::reliable()).unwrap();
    assert!(
        mux.stats.batched_flushes > 0,
        "concurrent instances must share flushes: {}",
        mux.stats
    );
    assert!(mux.stats.max_frames_per_flush >= 4, "{}", mux.stats);
    // Under a reliable wire every coalesced frame is delivered exactly once.
    assert_eq!(mux.stats.coalesced_frames, mux.stats.frames_delivered);
    assert!(
        mux.stats.flushes < mux.stats.coalesced_frames,
        "fewer wire sends than frames is the whole point: {}",
        mux.stats
    );

    // One instance at a time (no multiplexing) has nothing to coalesce:
    // ds-broadcast stages at most one frame per link per phase.
    let serial = SvcConfig::new().with_max_inflight(1).with_admit_per_tick(1);
    let solo = run_target_multiplexed(target, &cfgs, &serial, &ChaosProfile::reliable()).unwrap();
    assert_eq!(solo.stats.batched_flushes, 0, "{}", solo.stats);
    assert_eq!(solo.stats.frames_delivered, mux.stats.frames_delivered);
}

#[test]
fn degradation_verdicts_stay_per_instance() {
    // A fleet-wide dead link 1 -> 3 under budget t = 1: instances with no
    // scheduled faults suspect p1 and still decide; the instance whose
    // schedule already spends the budget on the transmitter degrades with
    // its own FaultBudgetExceeded verdict. The service settles them all.
    let target = find_target("ds-broadcast").unwrap();
    let cfgs = vec![
        cfg_for(target, Value::ONE, ScheduleSpec::default()),
        cfg_for(target, Value::ONE, splitting_spec()),
        cfg_for(target, Value::ZERO, ScheduleSpec::default()),
    ];
    let chaos = ChaosProfile::reliable().with_link(ProcessId(1), ProcessId(3), LinkChaos::dead());
    let svc = SvcConfig::default();
    let mux = run_target_multiplexed(target, &cfgs, &svc, &chaos).unwrap();
    assert_eq!(mux.runs.len(), 3);

    let healthy = mux.runs[0].as_ref().expect("within budget: decides");
    assert_eq!(healthy.suspected, vec![ProcessId(1)]);
    assert!(!healthy.violated(), "{:?}", healthy.agreement);

    let degraded = mux.runs[1].as_ref().expect_err("budget blown: degrades");
    assert!(
        matches!(
            degraded.reason,
            DegradationReason::FaultBudgetExceeded {
                observed: 2,
                budget: 1
            }
        ),
        "{degraded}"
    );
    assert_eq!(degraded.suspected, vec![ProcessId(1)]);

    let other = mux.runs[2].as_ref().expect("unaffected by neighbour");
    assert!(!other.violated(), "{:?}", other.agreement);
    assert_eq!(
        other.decisions.iter().flatten().count(),
        4,
        "every processor of the healthy instance decides"
    );
}

#[test]
fn latencies_and_ticks_reflect_pipelining() {
    // K staggered instances over a (phases + 1)-tick protocol: pipelining
    // must finish in far fewer ticks than K serial protocol runs, and
    // every decided instance reports a latency.
    let target = find_target("ds-broadcast").unwrap();
    let cfg = cfg_for(target, Value::ONE, ScheduleSpec::default());
    let k = 8usize;
    let cfgs = vec![cfg; k];
    let pipelined = SvcConfig::new().with_admit_per_tick(1);
    let mux = run_target_multiplexed(target, &cfgs, &pipelined, &ChaosProfile::reliable()).unwrap();
    assert_eq!(mux.latencies.len(), k);
    // ds-broadcast t=1: 2 phases + finalize = 3 steps; +1 settle tick.
    // Pipelined: ~K + phases ticks instead of K * (phases + 2).
    assert!(
        mux.ticks <= (k as u64) + 6,
        "pipelining should overlap instances: {} ticks",
        mux.ticks
    );

    let serial = SvcConfig::new().with_max_inflight(1).with_admit_per_tick(1);
    let solo = run_target_multiplexed(target, &cfgs, &serial, &ChaosProfile::reliable()).unwrap();
    assert!(
        solo.ticks > mux.ticks,
        "serial ({}) must need more ticks than pipelined ({})",
        solo.ticks,
        mux.ticks
    );
}

// ---------------------------------------------------------------------------
// Open-loop session API
// ---------------------------------------------------------------------------

/// Builds the `i`-th open-loop spec (alternating values).
fn open_loop_spec(target: &CheckTarget, i: u64) -> InstanceSpec<Chain> {
    let value = if i.is_multiple_of(2) {
        Value::ONE
    } else {
        Value::ZERO
    };
    let cfg = cfg_for(target, value, ScheduleSpec::default());
    target.build(&cfg).expect("valid schedule").into()
}

/// Drives one seeded open-loop schedule — `arrival_seed` fixes the Poisson
/// draw, `threads` the worker count — and drains to the report.
fn open_loop_run(
    target: &CheckTarget,
    threads: usize,
    chaos: &ChaosProfile,
    arrival_seed: u64,
) -> SvcReport {
    let service = BaService::new(
        SvcConfig::new()
            .with_threads(threads)
            .with_max_inflight(4)
            .with_admit_per_tick(2)
            .with_queue_capacity(4)
            .with_admission(AdmissionPolicy::ShedOldest),
    )
    .with_chaos(chaos.clone());
    let mut session = service.session();
    let mut arrivals = PoissonArrivals::new(arrival_seed, 1.5);
    let mut submitted = 0u64;
    for _ in 0..24 {
        for _ in 0..arrivals.next_arrivals() {
            session
                .submit(open_loop_spec(target, submitted))
                .expect("shed-oldest never refuses");
            submitted += 1;
        }
        session.tick();
    }
    session.drain()
}

/// Everything deterministic about a report: tick-domain timestamps,
/// results, admission log, shed set, queue and wire statistics — no
/// wall-clock fields.
fn report_fingerprint(report: &SvcReport) -> String {
    let outcomes: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.submitted_tick,
                o.admitted_tick,
                o.settled_tick,
                &o.result,
            )
        })
        .collect();
    format!(
        "{outcomes:?} | shed={:?} | log={:?} | queue={:?} | {:?} | ticks={} peak={}",
        report.shed,
        report.admission_log,
        report.queue,
        report.stats,
        report.ticks,
        report.peak_inflight
    )
}

#[test]
fn open_loop_schedule_is_deterministic_across_workers_and_chaos() {
    // Same arrival schedule + seeds => byte-identical per-instance
    // outcomes AND admission verdicts, at 1 and 4 workers, with and
    // without chaos. Only wall-clock durations may differ.
    let target = find_target("ds-broadcast").unwrap();
    for chaos in [ChaosProfile::reliable(), ChaosProfile::lossy(77, 150)] {
        let reference = open_loop_run(target, 1, &chaos, 42);
        assert!(reference.accounting_balanced(), "{:?}", reference.queue);
        assert!(
            reference.submitted() > 0 && reference.decided() > 0,
            "the schedule must offer and decide real load"
        );
        let want = report_fingerprint(&reference);
        for threads in [1usize, 4] {
            let got = report_fingerprint(&open_loop_run(target, threads, &chaos, 42));
            assert_eq!(got, want, "threads={threads} diverges under {chaos:?}");
        }
        // A different arrival seed is a genuinely different schedule.
        let other = report_fingerprint(&open_loop_run(target, 1, &chaos, 43));
        assert_ne!(other, want, "arrival seed must matter");
    }
}

#[test]
fn shed_oldest_keeps_exact_accounting_under_overload() {
    // Offer load far beyond saturation into a tiny queue: sheds must
    // occur, every shed must leave a structured record, and
    // submitted = decided + degraded + shed must hold exactly.
    let target = find_target("ds-broadcast").unwrap();
    let service = BaService::new(
        SvcConfig::new()
            .with_max_inflight(2)
            .with_admit_per_tick(1)
            .with_queue_capacity(2)
            .with_admission(AdmissionPolicy::ShedOldest),
    );
    let mut session = service.session();
    let mut tickets = Vec::new();
    for i in 0..12u64 {
        tickets.push(session.submit(open_loop_spec(target, i)).unwrap());
        // No ticks between submits: the queue must overflow.
    }
    let shed_in_log = session
        .admission_log()
        .iter()
        .filter(|v| matches!(v, AdmissionVerdict::EnqueuedAfterShed { .. }))
        .count();
    assert!(shed_in_log > 0, "overload must shed");
    let report = session.drain();
    assert!(report.accounting_balanced(), "{:?}", report.queue);
    assert_eq!(report.submitted(), 12);
    assert_eq!(report.shed_count(), shed_in_log);
    assert_eq!(report.queue.shed, shed_in_log as u64);
    // Every shed record is coherent: the victim was submitted before it
    // was shed, and the displacing ticket is younger than the victim.
    for shed in &report.shed {
        assert!(shed.submitted_tick <= shed.shed_tick, "{shed}");
        assert!(shed.displaced_by > shed.ticket, "{shed}");
    }
    // Every ticket is accounted for exactly once: settled or shed.
    let settled: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
    let shed: Vec<u64> = report.shed.iter().map(|s| s.ticket.0).collect();
    let mut all: Vec<u64> = settled.iter().chain(&shed).copied().collect();
    all.sort_unstable();
    assert_eq!(all, (0..12).collect::<Vec<u64>>());
}

#[test]
fn reject_policy_refuses_with_structured_error() {
    let target = find_target("ds-broadcast").unwrap();
    let service = BaService::new(
        SvcConfig::new()
            .with_max_inflight(1)
            .with_admit_per_tick(1)
            .with_queue_capacity(2)
            .with_admission(AdmissionPolicy::Reject),
    );
    let mut session = service.session();
    for i in 0..2u64 {
        session.submit(open_loop_spec(target, i)).unwrap();
    }
    let err = session
        .submit(open_loop_spec(target, 2))
        .expect_err("third submit must refuse");
    assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
    assert!(matches!(
        session.admission_log().last(),
        Some(AdmissionVerdict::Refused { .. })
    ));
    let report = session.drain();
    assert_eq!(report.submitted(), 2, "the refusal never got a ticket");
    assert_eq!(report.queue.rejected, 1);
    assert!(report.accounting_balanced());
}

#[test]
fn block_with_deadline_waits_for_space_and_never_deadlocks() {
    let target = find_target("ds-broadcast").unwrap();
    let service = BaService::new(
        SvcConfig::new()
            .with_max_inflight(1)
            .with_admit_per_tick(1)
            .with_queue_capacity(1)
            .with_admission(AdmissionPolicy::BlockWithDeadline { deadline_ticks: 32 }),
    );
    let mut session = service.session();
    for i in 0..6u64 {
        session
            .submit(open_loop_spec(target, i))
            .expect("instances settle within the deadline, so waiting succeeds");
    }
    assert!(
        session
            .admission_log()
            .iter()
            .any(|v| matches!(v, AdmissionVerdict::EnqueuedAfterWait { .. })),
        "a saturated queue must actually block"
    );
    assert!(session.queue_stats().blocked_ticks > 0);
    let report = session.drain();
    assert_eq!(report.submitted(), 6);
    assert_eq!(report.decided(), 6, "nothing is lost by waiting");
    assert!(report.accounting_balanced());

    // A zero-tick deadline can never free space: the refusal must be the
    // structured DeadlineExpired error, not a hang or a panic.
    let service = BaService::new(
        SvcConfig::new()
            .with_max_inflight(1)
            .with_admit_per_tick(1)
            .with_queue_capacity(1)
            .with_admission(AdmissionPolicy::BlockWithDeadline { deadline_ticks: 0 }),
    );
    let mut session = service.session();
    session.submit(open_loop_spec(target, 0)).unwrap();
    let err = session
        .submit(open_loop_spec(target, 1))
        .expect_err("deadline 0 cannot wait");
    assert!(matches!(err, AdmissionError::DeadlineExpired { .. }));
    assert!(session.drain().accounting_balanced());
}

#[test]
fn tickets_report_status_and_outcomes_while_streaming() {
    let target = find_target("ds-broadcast").unwrap();
    let service = BaService::new(
        SvcConfig::new()
            .with_max_inflight(1)
            .with_admit_per_tick(1)
            .with_queue_capacity(8),
    );
    let mut session = service.session();
    let first = session.submit(open_loop_spec(target, 0)).unwrap();
    let second = session.submit(open_loop_spec(target, 1)).unwrap();
    assert_eq!(session.status(first), TicketStatus::Queued { position: 0 });
    assert!(session.try_outcome(first).is_none(), "nothing settled yet");

    session.tick();
    assert!(matches!(
        session.status(first),
        TicketStatus::InFlight { .. }
    ));
    assert_eq!(session.status(second), TicketStatus::Queued { position: 0 });

    // Tick until the first instance settles; the second must still be
    // pending (max_inflight = 1 serializes them).
    while session.try_outcome(first).is_none() {
        session.tick();
    }
    let Some(TicketOutcome::Settled(outcome)) = session.try_outcome(first) else {
        panic!("first ticket must settle");
    };
    assert_eq!(outcome.ticket(), first);
    assert!(outcome.result.is_ok());
    assert!(outcome.submitted_at <= outcome.admitted_at);
    assert!(outcome.admitted_at <= outcome.decided_at);
    assert_eq!(
        outcome.latency(),
        outcome.queue_wait() + outcome.service_time()
    );
    assert!(session.try_outcome(second).is_none());

    // Drain still reports the peeked outcome: try_outcome is a poll, not
    // a take.
    let report = session.drain();
    assert_eq!(report.outcomes.len(), 2);
    assert_eq!(report.decided(), 2);
    let streamed: Vec<u64> = report.outcomes_iter().map(|o| o.id).collect();
    assert_eq!(streamed, vec![0, 1]);
    // Per-outcome timestamps reconstruct the latencies without
    // batch-level context.
    assert_eq!(
        report.submission_to_decision_latencies(),
        report
            .outcomes_iter()
            .map(|o| o.decided_at.saturating_sub(o.submitted_at))
            .collect::<Vec<_>>()
    );
}

/// Relays nothing and panics when stepped at `phase` (`usize::MAX`:
/// never) — a bug in one instance's actor, not a wire fault.
#[derive(Debug)]
struct PanicsAt {
    phase: usize,
}

impl Actor<Chain> for PanicsAt {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, _out: &mut Outbox<Chain>) {
        assert!(phase != self.phase, "actor bug at phase {phase}");
    }
    fn decision(&self) -> Option<Value> {
        Some(Value::ONE)
    }
}

#[test]
fn a_panicking_actor_settles_only_its_own_instance() {
    // Three instances in flight together; the middle one has an actor
    // that panics at phase 2. The panic must not unwind through tick():
    // the neighbours decide, the middle settles with its own
    // WorkerStalled verdict, accounting balances — identically at 1 and 4
    // workers.
    let run = |threads: usize| {
        let service = BaService::new(SvcConfig::new().with_threads(threads));
        let mut session = service.session::<Chain>();
        for panics_at in [usize::MAX, 2, usize::MAX] {
            let actors = (0..4)
                .map(|_| Box::new(PanicsAt { phase: panics_at }) as Box<dyn Actor<Chain>>)
                .collect();
            session
                .submit(InstanceSpec {
                    actors,
                    phases: 3,
                    fault_budget: 1,
                    link_drops: vec![],
                    registry: None,
                })
                .unwrap();
        }
        session.drain()
    };
    let report = run(1);
    assert!(report.accounting_balanced(), "{:?}", report.queue);
    assert_eq!((report.decided(), report.degraded()), (2, 1));
    for healthy in [0, 2] {
        let run = report.outcomes[healthy].result.as_ref().unwrap();
        assert_eq!(run.decisions, vec![Some(Value::ONE); 4]);
    }
    let verdict = report.outcomes[1].result.as_ref().unwrap_err();
    assert!(
        matches!(verdict.reason, DegradationReason::WorkerStalled { .. }),
        "{verdict}"
    );
    assert_eq!(verdict.phase, 2);
    assert_eq!(verdict.stalled_workers, vec![0]);
    assert_eq!(report_fingerprint(&report), report_fingerprint(&run(4)));
}

#[test]
fn instance_seeds_isolate_chaos_streams_within_one_fleet() {
    // The collision guarantee, observed end to end: two instances of one
    // fleet under a lossy profile must roll *different* fate streams —
    // identical specs, different wire histories. (Seed-level injectivity
    // is unit-tested in ba-net::svc; this is the service-level effect.)
    let target = find_target("ds-broadcast").unwrap();
    let cfg = cfg_for(target, Value::ONE, ScheduleSpec::default());
    let cfgs = vec![cfg.clone(), cfg];
    let svc = SvcConfig::new().with_admit_per_tick(1);
    let chaos = ChaosProfile::lossy(77, 300);
    let mux = run_target_multiplexed(target, &cfgs, &svc, &chaos).unwrap();
    let wire: Vec<_> = mux
        .runs
        .iter()
        .map(|r| match r {
            Ok(run) => wire_fields(&run.stats),
            Err(v) => wire_fields(&v.stats),
        })
        .collect();
    assert_ne!(
        wire[0], wire[1],
        "identical specs with distinct instance seeds must see distinct fates"
    );
}
