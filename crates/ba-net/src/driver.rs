//! The unreliable-wire loop around the phase core: how a single BA
//! instance advances one phase when its frames have to cross the
//! [`wire`].
//!
//! The phase itself — actors stepped, sends routed, [`Metrics`] recorded,
//! inboxes filled, chains verified at the barrier — is
//! [`ba_sim::PhaseCore`], the same code the lock-step
//! [`Simulation`](ba_sim::Simulation) loops over. [`PhaseDriver`] adds
//! what only an unreliable wire needs, and both public entry points run
//! it: a standalone [`NetRuntime`](crate::runtime::NetRuntime) drives one
//! to completion, a [`SvcSession`](crate::svc::SvcSession) drives one per
//! in-flight ticket. One phase is two calls:
//!
//! 1. [`step`](PhaseDriver::step) — the core steps (or, after the last
//!    phase, finalizes) the actors; the driver times the call for the
//!    watchdog and remembers lost chunks.
//! 2. [`deliver`](PhaseDriver::deliver) — the core routes what was staged
//!    and the surviving frames' links are played over the [`wire`]; then
//!    deadline, sender suspicion and the fault budget; then the core
//!    fills the inboxes in the order the wire says they arrived. After
//!    the finalize step it returns the finished [`InstanceRun`] instead.
//!
//! No frame ever leaves the core: the wire and the caller read
//! [`links`](PhaseDriver::links), `(from, to)` per frame. The caller owns
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

/// One instance over the unreliable wire: its [`PhaseCore`] plus what is
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
    /// Chunk indices the last step lost to a panic or the watchdog.
    stalled: Vec<usize>,
    /// Set once the finalize step ran.
    finalized: bool,
}

impl<P: Payload> PhaseDriver<P> {
    /// Builds the driver for `spec`, drawing chaos fates from a private
    /// rng seeded `seed`. `watchdog` bounds the wall-clock duration of one
    /// step.
    pub(crate) fn new(spec: InstanceSpec<P>, seed: u64, watchdog: Option<Duration>) -> Self {
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
        // fleet's steps and deliveries should not pay for the pass.
        self.links();
    }

    /// The `(from, to)` of every frame the last step left bound for the
    /// wire, in staging order; none when the step stalled.
    pub(crate) fn links(&mut self) -> &[(ProcessId, ProcessId)] {
        if self.stalled.is_empty() {
            self.core.links()
        } else {
            &[]
        }
    }

    /// Records that this instance's frames each went out as their own
    /// wire send (no coalescing layer above this driver).
    pub(crate) fn note_solo_flushes(&mut self) {
        let frames = self.links().len();
        self.stats.note_solo_flushes(frames as u64);
    }

    /// Plays the last step's frames over the wire under
    /// [`WirePolicy::STANDARD`] — on `scratch`, the caller's to keep
    /// between calls and instances — and applies the
    /// post-wire pipeline: deadline, suspicion, fault budget, then the
    /// core's fill in arrival order ([`PhaseCore::deliver`]). `Ok(None)`
    /// means the phase completed and the instance keeps going;
    /// `Ok(Some(run))` is the finished run, returned by the call that
    /// follows the finalize step.
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
        self.core.deliver(Some(report.order));
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
