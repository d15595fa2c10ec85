//! The wire loop around the phase core: how a single BA instance
//! advances one phase when its frames have to cross the [`wire`].
//!
//! The phase itself — actors stepped, sends routed, [`Metrics`] recorded,
//! inboxes filled, chains verified at the barrier — is
//! [`ba_sim::PhaseCore`], the same code the lock-step
//! [`Simulation`](ba_sim::Simulation) loops over. [`PhaseDriver`] adds
//! what only a wire needs, and both public entry points run
//! it: a standalone [`NetRuntime`](crate::runtime::NetRuntime) drives one
//! to completion, a [`SvcSession`](crate::svc::SvcSession) drives one per
//! in-flight ticket. One phase is two calls:
//!
//! 1. [`step`](PhaseDriver::step) — the core steps (or, after the last
//!    phase, finalizes) the actors; the driver times the call for the
//!    watchdog and remembers lost chunks. Over a wire that can misbehave
//!    it also routes, building the list of links the wire will play.
//! 2. [`deliver`](PhaseDriver::deliver) — the surviving frames' links are
//!    played over the [`wire`]; then deadline, sender suspicion and the
//!    fault budget; then the core fills the inboxes in the order the wire
//!    says they arrived. After the finalize step it returns the finished
//!    [`InstanceRun`] instead.
//!
//! Under a reliable [`ChaosProfile`] the wire's answer is known in
//! advance — every frame arrives on its first attempt, in staging order —
//! so step 1 builds no link list and step 2 does not play the wire: it
//! writes that answer's statistics ([`wire::deliver_reliable`]), checks
//! the fault budget, and delivers the phase in lock step, the
//! all-to-all fill included. The profile picks the path when the driver
//! is built.
//!
//! No frame ever leaves the core: the wire reads the core's links, and
//! the caller visits them, `(from, to)` per frame, through
//! [`for_each_link`](PhaseDriver::for_each_link). The caller owns
//! what happens *between* the two calls (a session counts every
//! instance's links into per-link flushes) and around them (tickets,
//! timestamps).
//!
//! # Fault containment
//!
//! An actor that panics while being stepped does not unwind into the
//! caller: the core catches the panic inside its chunk, the other chunks
//! finish, and the next `deliver` settles *this instance* with a
//! [`WorkerStalled`](DegradationReason::WorkerStalled) verdict naming the
//! chunk indices that panicked. A driver built with a watchdog yields the
//! same verdict when a step returns after more than the watchdog
//! duration. A step that never returns is not contained — see DESIGN §9.

use crate::chaos::ChaosProfile;
use crate::verdict::{DegradationReason, DegradationVerdict, NetStats};
use crate::wire::{self, WirePolicy, WireScratch};
use ba_crypto::rng::SimRng;
use ba_crypto::{ProcessId, Value};
use ba_sim::engine::chunk_geometry;
use ba_sim::{InstanceSpec, Metrics, Payload, PhaseCore};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What a completed (possibly degraded-but-sound) instance produced —
/// standalone or multiplexed, the same type.
#[derive(Clone, Debug)]
pub struct InstanceRun {
    /// Each processor's decision, indexed by processor id.
    pub decisions: Vec<Option<Value>>,
    /// Which processors the run stands behind as correct: the actors'
    /// own flags, minus any sender suspected via failed links.
    pub correct: Vec<bool>,
    /// Logical traffic accounting for this instance alone —
    /// byte-identical to the lock-step engine's under a reliable profile.
    pub metrics: Metrics,
    /// This instance's physical wire statistics (attempts,
    /// retransmissions, dedup, acks). A session accounts flush coalescing
    /// fleet-wide in [`SvcReport::stats`](crate::svc::SvcReport::stats).
    pub stats: NetStats,
    /// Senders suspected faulty from permanently failed links, in id
    /// order. Non-empty means the run degraded but stayed within budget.
    pub suspected: Vec<ProcessId>,
}

/// One instance over the wire: its [`PhaseCore`] plus what is
/// about the wire — chaos rng, wire statistics, suspicion, fault budget,
/// watchdog — privately owned so fates and verdicts never leak across
/// instances.
pub(crate) struct PhaseDriver<P> {
    core: PhaseCore<P>,
    phases: usize,
    fault_budget: usize,
    scheduled_faulty: BTreeSet<ProcessId>,
    suspected: BTreeSet<ProcessId>,
    rng: SimRng,
    stats: NetStats,
    watchdog: Option<Duration>,
    /// Whether the profile is reliable: then the wire's answer is known
    /// in advance and the phase is delivered in lock step.
    lockstep: bool,
    /// Chunk indices the last step lost to a panic or the watchdog.
    stalled: Vec<usize>,
    /// Set once the finalize step ran.
    finalized: bool,
}

impl<P: Payload> PhaseDriver<P> {
    /// Builds the driver for `spec` over a wire that misbehaves as `chaos`
    /// says, drawing its fates from a private rng seeded `seed`.
    /// `watchdog` bounds the wall-clock duration of one step.
    pub(crate) fn new(
        spec: InstanceSpec<P>,
        chaos: &ChaosProfile,
        seed: u64,
        watchdog: Option<Duration>,
    ) -> Self {
        let core = PhaseCore::new(spec.actors, spec.link_drops, spec.registry);
        let scheduled_faulty = (0..core.n())
            .filter(|&i| !core.correct()[i])
            .map(|i| ProcessId(i as u32))
            .collect();
        PhaseDriver {
            core,
            phases: spec.phases,
            fault_budget: spec.fault_budget,
            scheduled_faulty,
            suspected: BTreeSet::new(),
            rng: SimRng::new(seed),
            stats: NetStats::default(),
            watchdog,
            lockstep: chaos.is_reliable(),
            stalled: Vec::new(),
            finalized: false,
        }
    }

    /// Next phase to execute, 1-based (`phases + 1` = finalize pending).
    pub(crate) fn phase(&self) -> usize {
        self.core.phase()
    }

    /// Number of processors.
    pub(crate) fn n(&self) -> usize {
        self.core.n()
    }

    /// Advances every actor by one phase — or, past the last one,
    /// finalizes them — across up to `threads` contiguous chunks
    /// ([`PhaseCore::step`]). A lost chunk or an overrun watchdog is
    /// remembered for [`deliver`](Self::deliver).
    pub(crate) fn step(&mut self, threads: usize) {
        let started = Instant::now();
        self.finalized = self.core.phase() > self.phases;
        self.stalled = if self.finalized {
            self.core.finalize(threads)
        } else {
            self.core.step(threads)
        };
        if self.stalled.is_empty() && self.watchdog.is_some_and(|limit| started.elapsed() > limit) {
            self.stalled = (0..chunk_geometry(self.core.n(), threads).1).collect();
        }
        // Route now, on whichever worker steps this instance: the wire
        // will want the links, and a session's serial section between the
        // fleet's steps and deliveries should not pay for the pass. A
        // lock-step delivery routes without them.
        if !self.lockstep && self.stalled.is_empty() {
            self.core.links();
        }
    }

    /// Calls `visit(from, to)` for every frame the last step left bound
    /// for the wire, in staging order ([`PhaseCore::for_each_link`]); for
    /// none when the step stalled.
    pub(crate) fn for_each_link(&self, visit: impl FnMut(ProcessId, ProcessId)) {
        if self.stalled.is_empty() {
            self.core.for_each_link(visit);
        }
    }

    /// The number of frames the last step left bound for the wire.
    fn frames(&self) -> usize {
        let mut frames = 0;
        self.for_each_link(|_, _| frames += 1);
        frames
    }

    /// Records that this instance's frames each went out as their own
    /// wire send (no coalescing layer above this driver).
    pub(crate) fn note_solo_flushes(&mut self) {
        let frames = self.frames();
        self.stats.note_solo_flushes(frames as u64);
    }

    /// Plays the last step's frames over the wire under
    /// [`WirePolicy::STANDARD`] — on `scratch`, the caller's to keep
    /// between calls and instances — and applies the
    /// post-wire pipeline: deadline, suspicion, fault budget, then the
    /// core's fill in arrival order ([`PhaseCore::deliver`]). Under a
    /// reliable profile the wire is not played: its answer is
    /// [`wire::deliver_reliable`]'s, and the core fills in lock step
    /// after the same budget check. `Ok(None)` means the phase completed
    /// and the instance keeps going; `Ok(Some(run))` is the finished run,
    /// returned by the call that follows the finalize step.
    ///
    /// # Errors
    /// This instance's own [`DegradationVerdict`]: the last step lost a
    /// chunk, the delivery deadline was blown, or the observable fault set
    /// outgrew the budget. The driver is spent afterwards.
    pub(crate) fn deliver(
        &mut self,
        chaos: &ChaosProfile,
        scratch: &mut WireScratch,
    ) -> Result<Option<InstanceRun>, Box<DegradationVerdict>> {
        if !self.stalled.is_empty() {
            return Err(self.verdict(DegradationReason::WorkerStalled {
                waited_ms: self.watchdog.map_or(0, |w| w.as_millis() as u64),
            }));
        }
        if self.finalized {
            return Ok(Some(self.finish()));
        }
        let arrivals = if self.lockstep {
            wire::deliver_reliable(self.frames(), &mut self.stats);
            None
        } else {
            let report = wire::deliver(
                self.core.phase(),
                self.core.links(),
                chaos,
                &mut self.rng,
                WirePolicy::STANDARD,
                &mut self.stats,
                scratch,
            );
            if report.pending > 0 {
                return Err(self.verdict(DegradationReason::DeadlineBlown {
                    pending_frames: report.pending,
                    deadline_ticks: WirePolicy::STANDARD.deadline_ticks,
                }));
            }
            // Permanently failed links make their *senders* suspected (an
            // omission-faulty sender explains every lost frame).
            self.suspected
                .extend(report.failed.iter().map(|link| link.from));
            self.stats.failed_links.extend(report.failed);
            Some(report.order)
        };

        // Fault budget: scheduled faults plus suspected senders. Within it
        // the run degrades gracefully; past it no decision could be
        // trusted, so none is produced.
        let observed = self.scheduled_faulty.union(&self.suspected).count();
        if observed > self.fault_budget {
            return Err(self.verdict(DegradationReason::FaultBudgetExceeded {
                observed,
                budget: self.fault_budget,
            }));
        }
        self.core.deliver(arrivals);
        Ok(None)
    }

    fn verdict(&self, reason: DegradationReason) -> Box<DegradationVerdict> {
        Box::new(DegradationVerdict {
            phase: self.core.phase(),
            reason,
            suspected: self.suspected.iter().copied().collect(),
            stalled_workers: self.stalled.clone(),
            stats: self.stats.clone(),
        })
    }

    fn finish(&mut self) -> InstanceRun {
        let outcome = self.core.finish();
        let mut correct = outcome.correct;
        for p in &self.suspected {
            correct[p.index()] = false;
        }
        InstanceRun {
            decisions: outcome.decisions,
            correct,
            metrics: outcome.metrics,
            stats: std::mem::take(&mut self.stats),
            suspected: self.suspected.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::LinkChaos;
    use ba_algos::checkable::{find_target, CheckConfig};
    use ba_crypto::Chain;
    use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};

    /// Everything a finished run shows — decisions, the correct set, the
    /// whole `Metrics` and `NetStats`, the suspects — or its verdict.
    type Shown = Result<
        (
            Vec<Option<Value>>,
            Vec<bool>,
            Metrics,
            NetStats,
            Vec<ProcessId>,
        ),
        Box<DegradationVerdict>,
    >;

    /// Runs `spec` to the end over a reliable wire, every frame its own
    /// flush; `play_wire` makes the driver play the wire anyway.
    fn drive(spec: InstanceSpec<Chain>, threads: usize, play_wire: bool) -> Shown {
        let chaos = ChaosProfile::reliable();
        let mut driver = PhaseDriver::new(spec, &chaos, 5, None);
        assert!(driver.lockstep, "a reliable profile delivers in lock step");
        driver.lockstep = !play_wire;
        let mut scratch = WireScratch::default();
        loop {
            driver.step(threads);
            driver.note_solo_flushes();
            if let Some(result) = driver.deliver(&chaos, &mut scratch).transpose() {
                return result.map(|run| {
                    let InstanceRun {
                        decisions,
                        correct,
                        metrics,
                        stats,
                        suspected,
                    } = run;
                    (decisions, correct, metrics, stats, suspected)
                });
            }
        }
    }

    fn spec(target: &str, schedule: &ScheduleSpec, over_budget: bool) -> InstanceSpec<Chain> {
        let target = find_target(target).expect("registered target");
        let (n, t) = target.dims_from(5, 1);
        let cfg = CheckConfig::new(n, t, Value::ONE, 11, 1, schedule.clone());
        let mut spec: InstanceSpec<Chain> = target.build(&cfg).expect("valid schedule").into();
        if over_budget {
            spec.fault_budget = schedule.faults.len() - 1;
        }
        spec
    }

    #[test]
    fn a_reliable_wire_is_delivered_in_lock_step() {
        let drop = LinkDrop {
            phase: 1,
            from: ProcessId(0),
            to: ProcessId(2),
        };
        // (schedule, whether the instance's fault budget is one short of
        // its scheduled faults)
        let schedules = [
            (ScheduleSpec::default(), false),
            (
                ScheduleSpec {
                    faults: vec![(ProcessId(0), FaultBehavior::Passive)],
                    link_drops: vec![drop],
                },
                false,
            ),
            (
                ScheduleSpec::each([ProcessId(2)], FaultBehavior::Silent),
                false,
            ),
            (
                ScheduleSpec::each([ProcessId(1)], FaultBehavior::Silent),
                true,
            ),
        ];
        for target in ["ds-broadcast", "ds-relay"] {
            for (schedule, over_budget) in &schedules {
                for threads in [1, 4] {
                    let at = format!("{target} {schedule:?} over={over_budget} threads={threads}");
                    let lockstep = drive(spec(target, schedule, *over_budget), threads, false);
                    let played = drive(spec(target, schedule, *over_budget), threads, true);
                    assert_eq!(lockstep, played, "{at}");
                    match lockstep {
                        Err(verdict) => assert!(
                            *over_budget
                                && matches!(
                                    verdict.reason,
                                    DegradationReason::FaultBudgetExceeded { .. }
                                ),
                            "{at}: {verdict:?}"
                        ),
                        Ok((_, _, metrics, stats, _)) => {
                            assert!(!over_budget, "{at}: decided past its budget");
                            assert!(stats.frames_delivered > 0, "{at}");
                            assert_eq!(stats.max_ticks_in_phase, 3, "{at}");
                            let dropped = !schedule.link_drops.is_empty();
                            assert_eq!(metrics.omitted_messages > 0, dropped, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_wire_that_can_misbehave_is_played() {
        let schedule = ScheduleSpec::default();
        let slow = LinkChaos {
            max_delay_ticks: 1,
            ..LinkChaos::RELIABLE
        };
        let mut reordering = ChaosProfile::reliable();
        reordering.reorder = true;
        for chaos in [
            ChaosProfile::jitter(3),
            ChaosProfile::lossy(3, 0),
            reordering,
            ChaosProfile::reliable().with_link(ProcessId(1), ProcessId(2), slow),
        ] {
            let driver = PhaseDriver::new(spec("ds-broadcast", &schedule, false), &chaos, 3, None);
            assert!(!driver.lockstep, "{chaos:?}");
        }
    }
}
