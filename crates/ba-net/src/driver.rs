//! The one phase driver: how a single BA instance advances one phase over
//! the unreliable wire.
//!
//! Both public entry points run this code — a standalone
//! [`NetRuntime`](crate::runtime::NetRuntime) drives one [`PhaseDriver`]
//! to completion, a [`SvcSession`](crate::svc::SvcSession) drives one per
//! in-flight ticket — so "actors stepped" turns into "frames on the wire,
//! faults attributed, [`Metrics`] recorded" in exactly one place. One
//! phase is two calls:
//!
//! 1. [`step`](PhaseDriver::step) — every actor steps (or, after the last
//!    phase, finalizes) in contiguous ascending chunks on the shared
//!    [`WorkerPool`](ba_sim::WorkerPool) through [`ba_sim::engine::step_chunks`],
//!    the same fan-out the lock-step engine uses; a single chunk runs
//!    inline. Then, on the calling thread in actor-id order: suppressed
//!    sends, sends to nonexistent receivers and scheduled link drops are
//!    accounted, and the surviving frames are staged for the wire.
//! 2. [`deliver`](PhaseDriver::deliver) — the staged frames are played
//!    over the [`wire`]; then deadline, sender suspicion, the fault
//!    budget, barrier verification of what the flush delivered,
//!    `record_send` + inbox push, and per-phase crypto attribution. After
//!    the finalize step it returns the finished [`InstanceRun`] instead.
//!
//! The caller owns what happens *between* the two calls (a session
//! coalesces every instance's frames into per-link flushes) and around
//! them (tickets, timestamps, the verifier cache's flush cadence).
//!
//! # Fault containment
//!
//! An actor that panics while being stepped does not unwind into the
//! caller: the panic is caught inside its chunk, the other chunks finish,
//! and the next `deliver` settles *this instance* with a
//! [`WorkerStalled`](DegradationReason::WorkerStalled) verdict naming the
//! chunk indices that panicked. A driver built with a watchdog yields the
//! same verdict when a step fan-out returns after more than the watchdog
//! duration. A step that never returns is not contained — see DESIGN §9.

use crate::chaos::ChaosProfile;
use crate::verdict::{DegradationReason, DegradationVerdict, NetStats};
use crate::wire::{self, WirePolicy};
use ba_crypto::keys::KeyRegistry;
use ba_crypto::rng::SimRng;
use ba_crypto::stats::CryptoStats;
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::engine::{chunk_geometry, step_chunks};
use ba_sim::schedule::LinkDrop;
use ba_sim::transport::{Fate, ScheduledDrops, Transport};
use ba_sim::{Actor, Envelope, Metrics, Outbox, Payload};
use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One BA instance handed to the driver: its actors (faults already
/// applied), phase count, fault budget and scheduled link drops.
pub struct InstanceSpec<P> {
    /// One actor per processor; actor `i` is processor `i`.
    pub actors: Vec<Box<dyn Actor<P>>>,
    /// Phases the algorithm needs before finalization.
    pub phases: usize,
    /// The fault budget `t` for this instance.
    pub fault_budget: usize,
    /// Scheduled link drops, with exactly the semantics of
    /// [`Simulation::with_link_drops`](ba_sim::Simulation::with_link_drops):
    /// a matching frame is suppressed before it ever reaches the wire and
    /// accounted under `omitted_messages`.
    pub link_drops: Vec<LinkDrop>,
    /// The instance's keys, absent for key-less payloads. Each distinct
    /// signature chain a flush delivers is verified against them *once*
    /// and its shared buffer stamped
    /// ([`Chain::verify_at_barrier`] — the lock-step engine's barrier
    /// pass, at the flush boundary), so every recipient's own `verify` is
    /// an O(1) stamp hit instead of a full hash-and-check pass.
    pub registry: Option<KeyRegistry>,
}

impl<P> std::fmt::Debug for InstanceSpec<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceSpec")
            .field("n", &self.actors.len())
            .field("phases", &self.phases)
            .field("fault_budget", &self.fault_budget)
            .finish()
    }
}

/// What a completed (possibly degraded-but-sound) instance produced —
/// standalone or multiplexed, the same type
/// ([`NetOutcome`](crate::runtime::NetOutcome) is an alias).
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

/// One chunk's staging for one step: per actor, in ascending id order,
/// its sends in send-seq order and its suppressed-send count.
struct ChunkStage<P> {
    per_actor: Vec<(Vec<Envelope<P>>, u64)>,
    panicked: bool,
}

/// One instance's entire per-run state, privately owned so fates and
/// verdicts never leak across instances.
pub(crate) struct PhaseDriver<P> {
    actors: Vec<Box<dyn Actor<P>>>,
    n: usize,
    phases: usize,
    fault_budget: usize,
    /// Next phase to step, 1-based; `phases + 1` means finalize.
    phase: usize,
    inboxes: Vec<Vec<Envelope<P>>>,
    scheduled: ScheduledDrops,
    scheduled_faulty: BTreeSet<ProcessId>,
    correct: Vec<bool>,
    suspected: BTreeSet<ProcessId>,
    rng: SimRng,
    metrics: Metrics,
    stats: NetStats,
    /// Per-chunk staging, recycled across phases.
    staged: Vec<ChunkStage<P>>,
    /// Post-schedule frames staged by the last step, awaiting the wire.
    wire_frames: Vec<Envelope<P>>,
    /// Thread-local crypto delta of the last step.
    step_crypto: CryptoStats,
    /// Crypto spent by the last flush's barrier-verification pass,
    /// attributed to the phase that consumes the stamped frames (the
    /// engine's carry-forward rule).
    carry_crypto: CryptoStats,
    registry: Option<KeyRegistry>,
    /// Barrier-verification scratch, recycled across phases.
    seen_chains: HashSet<(usize, u32, u64)>,
    watchdog: Option<Duration>,
    /// Chunk indices the last step lost to a panic or the watchdog.
    stalled: Vec<usize>,
    /// Set once finalize ran.
    decisions: Option<Vec<Option<Value>>>,
}

impl<P: Payload> PhaseDriver<P> {
    /// Builds the driver for `spec`, drawing chaos fates from a private
    /// rng seeded `seed`. `watchdog` bounds the wall-clock duration of one
    /// step fan-out.
    pub(crate) fn new(spec: InstanceSpec<P>, seed: u64, watchdog: Option<Duration>) -> Self {
        let n = spec.actors.len();
        let correct: Vec<bool> = spec.actors.iter().map(|a| a.is_correct()).collect();
        let scheduled_faulty: BTreeSet<ProcessId> = correct
            .iter()
            .enumerate()
            .filter(|(_, ok)| !**ok)
            .map(|(i, _)| ProcessId(i as u32))
            .collect();
        PhaseDriver {
            n,
            phases: spec.phases,
            fault_budget: spec.fault_budget,
            phase: 1,
            inboxes: vec![Vec::new(); n],
            scheduled: ScheduledDrops::new(spec.link_drops.iter().copied()),
            scheduled_faulty,
            correct,
            suspected: BTreeSet::new(),
            rng: SimRng::new(seed),
            metrics: Metrics::default(),
            stats: NetStats::default(),
            staged: Vec::new(),
            wire_frames: Vec::new(),
            step_crypto: CryptoStats::default(),
            carry_crypto: CryptoStats::default(),
            registry: spec.registry,
            seen_chains: HashSet::new(),
            watchdog,
            stalled: Vec::new(),
            actors: spec.actors,
            decisions: None,
        }
    }

    /// Next phase to execute, 1-based (`phases + 1` = finalize pending).
    pub(crate) fn phase(&self) -> usize {
        self.phase
    }

    /// Advances every actor by one phase — or finalizes them — across up
    /// to `threads` contiguous chunks, then accounts the staged sends in
    /// actor-id order and leaves the frames bound for the wire in
    /// [`take_frames`](Self::take_frames).
    pub(crate) fn step(&mut self, threads: usize) {
        let (chunk_size, chunks) = chunk_geometry(self.n, threads);
        self.staged.resize_with(chunks, || ChunkStage {
            per_actor: Vec::new(),
            panicked: false,
        });
        let (phase, inboxes) = (self.phase, &self.inboxes);
        let finalize = phase > self.phases;
        let started = Instant::now();
        self.step_crypto = step_chunks(
            &mut self.actors,
            chunk_size,
            &mut self.staged,
            |base, actors, stage| {
                stage.per_actor.clear();
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    for (j, actor) in actors.iter_mut().enumerate() {
                        let i = base + j;
                        if finalize {
                            actor.finalize(&inboxes[i]);
                            continue;
                        }
                        let mut out = Outbox::new(ProcessId(i as u32));
                        actor.step(phase, &inboxes[i], &mut out);
                        let omitted = out.omitted_count();
                        stage.per_actor.push((out.into_staged(), omitted));
                    }
                }));
                stage.panicked = stepped.is_err();
            },
        );
        self.stalled = (0..chunks).filter(|&w| self.staged[w].panicked).collect();
        if self.stalled.is_empty() && self.watchdog.is_some_and(|limit| started.elapsed() > limit) {
            self.stalled = (0..chunks).collect();
        }
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        if !self.stalled.is_empty() {
            return;
        }
        if finalize {
            self.decisions = Some(self.actors.iter().map(|a| a.decision()).collect());
            return;
        }
        for stage in &mut self.staged {
            for (sent, omitted) in stage.per_actor.drain(..) {
                self.metrics.record_omitted(phase, omitted);
                for env in sent {
                    // Sends to nonexistent processors are dropped; a
                    // correct protocol never does this, an adversary may.
                    if env.to.index() >= self.n {
                        continue;
                    }
                    if self.scheduled.admit(phase, env.from, env.to) == Fate::Omit {
                        self.metrics.record_omitted(phase, 1);
                        continue;
                    }
                    self.wire_frames.push(env);
                }
            }
        }
    }

    /// Hands over the frames the last step staged for the wire, in
    /// staging order.
    pub(crate) fn take_frames(&mut self) -> Vec<Envelope<P>> {
        std::mem::take(&mut self.wire_frames)
    }

    /// Records that `frames` of this instance each went out as their own
    /// wire send (no coalescing layer above this driver).
    pub(crate) fn note_solo_flushes(&mut self, frames: usize) {
        self.stats.note_solo_flushes(frames as u64);
    }

    /// Plays `frames` — this instance's staged frames, in staging order —
    /// over the wire and applies the post-wire pipeline: deadline,
    /// suspicion, fault budget, barrier verification, deliveries, per-phase
    /// crypto. `Ok(None)` means the phase completed and the instance keeps
    /// going; `Ok(Some(run))` is the finished run, returned by the call
    /// that follows the finalize step.
    ///
    /// # Errors
    /// This instance's own [`DegradationVerdict`]: the last step lost a
    /// chunk, the delivery deadline was blown, or the observable fault set
    /// outgrew the budget. The driver is spent afterwards.
    pub(crate) fn deliver(
        &mut self,
        frames: Vec<Envelope<P>>,
        chaos: &ChaosProfile,
        policy: WirePolicy,
    ) -> Result<Option<InstanceRun>, Box<DegradationVerdict>> {
        if !self.stalled.is_empty() {
            return Err(self.verdict(DegradationReason::WorkerStalled {
                waited_ms: self.watchdog.map_or(0, |w| w.as_millis() as u64),
            }));
        }
        if let Some(decisions) = self.decisions.take() {
            return Ok(Some(self.finish(decisions)));
        }
        let phase = self.phase;
        let report = wire::deliver(phase, frames, chaos, &mut self.rng, policy, &mut self.stats);
        if report.pending > 0 {
            return Err(self.verdict(DegradationReason::DeadlineBlown {
                pending_frames: report.pending,
                deadline_ticks: policy.deadline_ticks,
            }));
        }
        // Permanently failed links make their *senders* suspected (an
        // omission-faulty sender explains every lost frame). A frame that
        // never made it is suppressed traffic, same bucket as a scheduled
        // drop: sent but never on the wire.
        for link in &report.failed {
            self.suspected.insert(link.from);
            self.metrics.record_omitted(phase, 1);
        }
        self.stats
            .failed_links
            .extend(report.failed.iter().copied());

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

        // Barrier verification at the flush boundary, on the calling
        // thread in delivery order — deterministic at any worker count.
        let barrier_crypto = match &self.registry {
            Some(registry) => Chain::verify_at_barrier(
                report
                    .delivered
                    .iter()
                    .filter_map(|env| env.payload.batch_chain()),
                &registry.verifier(),
                &mut self.seen_chains,
            ),
            None => CryptoStats::default(),
        };

        // Deliveries, in arrival order.
        for env in report.delivered {
            self.metrics.record_send(
                phase,
                self.correct[env.from.index()],
                env.payload.signature_count(),
                env.payload.weight_bytes(),
                env.payload.payload_bytes(),
                env.payload.kind(),
            );
            self.inboxes[env.to.index()].push(env);
        }
        let phase_crypto =
            std::mem::take(&mut self.step_crypto).add(&std::mem::take(&mut self.carry_crypto));
        self.metrics.record_phase_crypto(phase, phase_crypto);
        // The barrier pass verified frames the *next* phase consumes;
        // carry its cost there, the engine's attribution rule.
        self.carry_crypto = barrier_crypto;
        self.phase += 1;
        Ok(None)
    }

    fn verdict(&self, reason: DegradationReason) -> Box<DegradationVerdict> {
        Box::new(DegradationVerdict {
            phase: self.phase,
            reason,
            suspected: self.suspected.iter().copied().collect(),
            failed_links: self.stats.failed_links.clone(),
            stalled_workers: self.stalled.clone(),
            stats: self.stats.clone(),
        })
    }

    fn finish(&mut self, decisions: Vec<Option<Value>>) -> InstanceRun {
        let mut metrics = std::mem::take(&mut self.metrics);
        let tail =
            std::mem::take(&mut self.step_crypto).add(&std::mem::take(&mut self.carry_crypto));
        metrics.absorb_crypto(tail);
        metrics.phases = self.phases;
        let mut correct = std::mem::take(&mut self.correct);
        for p in &self.suspected {
            correct[p.index()] = false;
        }
        InstanceRun {
            decisions,
            correct,
            metrics,
            stats: std::mem::take(&mut self.stats),
            suspected: self.suspected.iter().copied().collect(),
        }
    }
}
