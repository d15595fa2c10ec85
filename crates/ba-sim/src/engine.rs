//! The phase core and the lock-step loop around it.
//!
//! # One core, two loops
//!
//! [`PhaseCore`] is the only code in the workspace that steps actors,
//! routes their sends, records [`Metrics`] and fills inboxes. A phase is
//! [`step`](PhaseCore::step) (fan the actors out; they stage their sends,
//! one frame per `send`/`broadcast` call) followed by
//! [`deliver`](PhaseCore::deliver) (route what was staged, message by
//! message; move the frames that reach anyone into next phase's inboxes
//! and index them per recipient; attribute the phase's crypto; verify at
//! the barrier; swap). Between the two calls exactly one thing can leave
//! the core: the surviving messages' `(from, to)` in staging order, as a
//! list ([`links`](PhaseCore::links)) or visited on the staged frames
//! ([`for_each_link`](PhaseCore::for_each_link)). [`Simulation`] is the
//! lock-step loop — every survivor arrives, in staging order — and keeps
//! what is about *watching* a run: trace and observer. `ba_net`'s phase
//! driver is the other loop: over a wire that can misbehave it plays
//! `links()` and tells `deliver` in what order the messages arrived and
//! which never did; over a reliable one it delivers in lock step too.
//! Payloads themselves never leave the arena, and never multiply in it: an
//! owned [`Envelope`] per message exists only in a trace, in front of an
//! observer, or in an adversary wrapper's scratch outbox.
//!
//! Every loop starts from one value, an [`InstanceSpec`]: the actors, the
//! phase count, the fault budget, the scheduled link drops and the keys.
//! A lock-step run is [`InstanceSpec::run_lockstep`], or a
//! [`Simulation::from`] the spec when a trace or an observer is wanted;
//! `ba_net`'s `NetRuntime` and `SvcSession` take the spec whole.
//!
//! # Data plane
//!
//! A broadcast counts as one message per recipient and is stored as one
//! frame (see [`crate::arena`]): each worker stages its actors' frames
//! into one [`Segment`] in (actor, send-seq) order, explicit targets in a
//! side buffer and a [`broadcast_all`](Outbox::broadcast_all) as its `n`
//! alone; each phase's deliveries are an [`Inboxes`] — the delivered
//! frames, once each, plus a flat array of four-byte frame indices
//! partitioned per recipient by an offsets table — double-buffered and
//! swapped at the phase barrier. An actor reads its slice of indices
//! through a borrowed [`Inbox`](crate::actor::Inbox) view. A frame is
//! staged, routed (per target), recorded (with its multiplicity),
//! barrier-verified and dropped once, however many inboxes index it. Every
//! buffer retains its capacity across phases, so a steady-state phase
//! allocates nothing (`tests/alloc_budget.rs` counts).
//!
//! A lock-step phase in which every frame is a `broadcast_all` over the
//! run's `n`, with no link drop scheduled, is *all-to-all* — Dolev–Strong's
//! relay rounds are. The frames say so themselves, so the route pass looks
//! at each frame once and writes nothing per message; the frames move into
//! the arena once, and each actor's inbox is every frame but its own (see
//! [`crate::arena`]). From `step` to the inbox nothing is written per
//! message. Metrics, the phase log and barrier verification see exactly
//! what the indexed fill would show them. Every other phase, and every
//! wire delivery, walks a `broadcast_all`'s range as a run of targets.
//!
//! # Intra-phase parallelism
//!
//! In the lock-step model actors are independent *within* a phase — every
//! actor only reads its own inbox (frozen at the barrier) and writes its
//! own outbox. [`PhaseCore::step`] exploits this by stepping contiguous
//! actor chunks on the persistent [`WorkerPool`] — long-lived threads
//! parked between phases, replacing the seed engine's spawn-per-phase
//! `std::thread::scope` (whose thread churn made parallel stepping *lose*
//! to sequential). Everything order-sensitive stays on the calling thread:
//! staged messages are routed, recorded and indexed strictly in
//! actor-id order once the chunks have quiesced — worker segments cover
//! ascending actor ranges, so walking segments in order reproduces the
//! sequential send order exactly — making `Metrics`, the trace and every
//! decision byte-identical for any thread count, and for a chunk count
//! that changes from one phase to the next. Per-phase crypto counters stay
//! identical too: each chunk measures its own thread-local [`CryptoStats`]
//! delta (the sum over chunks is schedule-independent), and what a
//! [`Chain::verify`](ba_crypto::Chain::verify) (or a chunk's check) costs
//! depends only on what is checked and on the stamps the previous barrier
//! wrote — never on which actor verified what first.
//!
//! # Barrier verification
//!
//! A core given a [`KeyRegistry`] verifies signed payloads at the
//! barrier, not at the receivers: once the next phase's inbox arena is
//! filled, `deliver` makes one [`Barrier`] pass over its frames — each
//! once, and only those that reached a recipient — and asks each payload
//! to hand over what it carries ([`Payload::verify_at_barrier`]). The pass
//! verifies each *unique* signed object once: a chain (deduplicated by
//! shared signature storage, so a loop of sends of one chain is one entry
//! like the broadcast it spells out), or a signed byte window such as
//! `ba-ext`'s coded chunks (deduplicated by the stamp its clones share).
//! It stamps each object that passes as verified under this run's
//! registry. When recipients call
//! [`Chain::verify`](ba_crypto::Chain::verify) (or a window's check)
//! during the next phase, the stamp short-circuits to an
//! O(1) comparison — so a Dolev–Strong phase delivering O(n²) messages pays
//! crypto for O(unique chains) instead of O(n²) full verifications. An
//! object that fails at the barrier is left unstamped and every
//! recipient's own check rejects it. The barrier's work is attributed to
//! the phase in which the messages are consumed, and the counters are
//! byte-identical across thread counts — the pass runs on the calling
//! thread over the filled arena.
//!
//! [`Simulation::with_batched_verification`]`(false)` switches the pass off
//! so every recipient verifies every delivery in full: the reference the
//! tests compare against. Accept/reject outcomes, decisions, message counts
//! and traces are the same on both sides; only the `crypto` work counters
//! differ.

use crate::actor::{Actor, Envelope, Outbox, Payload};
use crate::arena::{Frame, Inboxes, Link, Segment};
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::schedule::LinkDrop;
use crate::trace::Trace;
use crate::transport::{Fate, ScheduledDrops};
use ba_crypto::keys::KeyRegistry;
use ba_crypto::stamp::{Barrier, BarrierSeen};
use ba_crypto::stats::CryptoStats;
use ba_crypto::{ProcessId, Value};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Result of driving a [`Simulation`] to completion.
#[derive(Debug)]
pub struct RunOutcome<P> {
    /// Each processor's decision, indexed by processor id.
    pub decisions: Vec<Option<Value>>,
    /// Which processors were modeled as correct.
    pub correct: Vec<bool>,
    /// Traffic accounting.
    pub metrics: Metrics,
    /// Full message trace when tracing was enabled, otherwise empty.
    pub trace: Trace<P>,
}

impl<P> RunOutcome<P> {
    /// Decisions of correct processors only, with their ids.
    pub fn correct_decisions(&self) -> impl Iterator<Item = (ProcessId, Option<Value>)> + '_ {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(i, _)| self.correct[*i])
            .map(|(i, d)| (ProcessId(i as u32), *d))
    }
}

/// One BA instance, ready for any loop: its actors (faults already
/// applied), phase count, fault budget, scheduled link drops and keys.
/// [`run_lockstep`](Self::run_lockstep) runs it here; `ba_net`'s
/// `NetRuntime` and `SvcSession` take the same value whole.
pub struct InstanceSpec<P> {
    /// One actor per processor; actor `i` is processor `i`.
    pub actors: Vec<Box<dyn Actor<P>>>,
    /// Phases the algorithm needs before finalization.
    pub phases: usize,
    /// The fault budget `t`. A lock-step run observes no faults beyond the
    /// scheduled ones and ignores it; over an unreliable wire the instance
    /// degrades once scheduled-faulty plus suspected processors exceed it.
    pub fault_budget: usize,
    /// Scheduled link drops: a message sent from `drop.from` to `drop.to`
    /// during `drop.phase` is suppressed at the route pass, before any wire
    /// sees it — never delivered, traced or counted as sent, only
    /// accounted under [`Metrics::omitted_messages`]. The pass runs on the
    /// calling thread in actor-id order, so results stay byte-identical for
    /// any thread count.
    pub link_drops: Vec<LinkDrop>,
    /// The instance's keys, absent for key-less payloads: what delivered
    /// chains are verified against at the barrier (see the
    /// [module docs](self)).
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

impl<P: Payload> InstanceSpec<P> {
    /// Runs the instance on the lock-step loop, stepping across `threads`
    /// worker chunks: [`Simulation::from`] the spec, run for
    /// [`phases`](Self::phases) phases.
    pub fn run_lockstep(self, threads: usize) -> RunOutcome<P> {
        let phases = self.phases;
        Simulation::from(self).with_threads(threads).run(phases)
    }
}

impl<P: Payload> From<InstanceSpec<P>> for Simulation<P> {
    /// A sequential lock-step simulation over the spec's actors, with its
    /// link drops and keys installed; the phase count is
    /// [`run`](Simulation::run)'s argument.
    fn from(spec: InstanceSpec<P>) -> Self {
        Simulation {
            core: PhaseCore::new(spec.actors, spec.link_drops, spec.registry),
            record_trace: false,
            observer: None,
            threads: 1,
        }
    }
}

/// One run's whole per-phase state: the actors, their double-buffered
/// inboxes, the staging segments, the scheduled link drops and the
/// [`Metrics`] — advanced one phase at a time by whichever loop owns it
/// (see the [module docs](self)). `Send`, so a service can step a fleet of
/// cores on the worker pool.
///
/// A phase is `step` → (`links` or `for_each_link`, for a caller with a
/// wire) → `deliver`; after the last one, `finalize` → `finish`.
pub struct PhaseCore<P> {
    actors: Vec<Box<dyn Actor<P>>>,
    correct: Vec<bool>,
    /// Next phase to step, 1-based.
    phase: usize,
    /// `cur` holds the messages delivered to actors this phase, `nxt`
    /// collects deliveries for the next; the pair swaps at the barrier.
    cur: Inboxes<P>,
    nxt: Inboxes<P>,
    /// One staging segment per worker chunk of the last step.
    segments: Vec<Segment<P>>,
    scheduled: ScheduledDrops,
    metrics: Metrics,
    registry: Option<KeyRegistry>,
    batch_verify: bool,
    /// Barrier-verification working set: unique objects seen this barrier.
    seen: BarrierSeen,
    /// Summed thread-local crypto delta of the last step's chunks.
    step_crypto: CryptoStats,
    /// Barrier crypto work, carried into the phase that consumes the
    /// verified messages.
    carry_crypto: CryptoStats,
    /// Whether the last step's staging has been through the route pass.
    routed: bool,
    /// Whether the route pass found the phase all-to-all (see
    /// [`route`](Self::route)): then no fate or count was written, and the
    /// fill writes nothing per message.
    dense: bool,
    /// Routing scratch, recycled across phases: per staged message (in
    /// deterministic merge order) whether it survived the route pass — and,
    /// once filled, whether it was delivered — and per recipient how many
    /// survivors are addressed to it.
    fates: Vec<bool>,
    counts: Vec<usize>,
    /// The survivors' `(from, to)` in staging order — collected only by a
    /// route pass that [`links`](Self::links) asked for, and then `listed`.
    links: Vec<Link>,
    listed: bool,
    /// When kept, every delivered message is also cloned into it, as an
    /// owned envelope.
    phase_log: Option<Vec<Envelope<P>>>,
    /// The first payload among the chunks the last step lost to a panic.
    panic: Option<Box<dyn Any + Send>>,
}

impl<P: Payload> PhaseCore<P> {
    /// A core over `actors` (actor `i` is processor `i`) at phase 1.
    /// `link_drops` are suppressed at the route pass (see
    /// [`InstanceSpec::link_drops`]); `registry`, when the payloads
    /// carry keys, is what delivered chains are verified against at the
    /// barrier (see the [module docs](self)).
    pub fn new(
        actors: Vec<Box<dyn Actor<P>>>,
        link_drops: impl IntoIterator<Item = LinkDrop>,
        registry: Option<KeyRegistry>,
    ) -> Self {
        let n = actors.len();
        PhaseCore {
            correct: actors.iter().map(|a| a.is_correct()).collect(),
            actors,
            phase: 1,
            cur: Inboxes::new(n),
            nxt: Inboxes::new(n),
            segments: Vec::new(),
            scheduled: ScheduledDrops::new(link_drops),
            metrics: Metrics::default(),
            registry,
            batch_verify: true,
            seen: BarrierSeen::new(),
            step_crypto: CryptoStats::default(),
            carry_crypto: CryptoStats::default(),
            routed: true,
            dense: false,
            fates: Vec::new(),
            counts: vec![0; n],
            links: Vec::new(),
            listed: false,
            phase_log: None,
            panic: None,
        }
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// Next phase to step, 1-based: `k + 1` once phase `k` was delivered.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Which processors are modeled as correct (the actors' own flags).
    pub fn correct(&self) -> &[bool] {
        &self.correct
    }

    /// Steps every actor through the current phase across up to `threads`
    /// contiguous chunks (see [`step_chunks`]), each staging its actors'
    /// sends into its segment. The chunk count may differ from one phase
    /// to the next.
    ///
    /// Returns the indices of the chunks lost to a panicking actor, in
    /// ascending order — empty when the step completed. A panic is caught
    /// inside its chunk and the other chunks finish; the staging is
    /// discarded then, and the core must not be advanced further.
    pub fn step(&mut self, threads: usize) -> Vec<usize> {
        self.fan_out(threads, false)
    }

    /// Hands every actor its final inbox (the last delivered phase's
    /// messages) through the same fan-out as [`step`](Self::step), with
    /// the same panic containment and return value.
    pub fn finalize(&mut self, threads: usize) -> Vec<usize> {
        self.fan_out(threads, true)
    }

    fn fan_out(&mut self, threads: usize, finalize: bool) -> Vec<usize> {
        let (chunk_size, chunks) = chunk_geometry(self.actors.len(), threads);
        self.segments.resize_with(chunks, Segment::new);
        self.routed = false;
        self.listed = false;
        let (phase, cur) = (self.phase, &self.cur);
        self.step_crypto = step_chunks(
            &mut self.actors,
            chunk_size,
            &mut self.segments,
            |base, actors, segment| {
                segment.begin_phase();
                segment.panic = catch_unwind(AssertUnwindSafe(|| {
                    if finalize {
                        for (j, actor) in actors.iter_mut().enumerate() {
                            actor.finalize(cur.of(base + j));
                        }
                    } else {
                        step_chunk(actors, base, phase, cur, segment);
                    }
                }))
                .err();
            },
        );
        let lost: Vec<usize> = (0..chunks)
            .filter(|&w| self.segments[w].panic.is_some())
            .collect();
        if let Some(&first) = lost.first() {
            self.panic = self.segments[first].panic.take();
            // A lost chunk's staging is incomplete: route nothing.
            self.segments.iter_mut().for_each(Segment::begin_phase);
        }
        lost
    }

    /// The route pass over the last step's staging, on the calling thread
    /// in `(actor, seq)` message order — the single point where ordering
    /// matters, so metrics, trace and delivery order are independent of
    /// how the stepping was scheduled. Fate is per message, not per frame:
    /// suppressed sends and scheduled link drops are accounted as omitted,
    /// sends to nonexistent processors are dropped, every other message
    /// survives and is counted for its recipient — so one target of a
    /// broadcast can be fated out while the rest go through.
    ///
    /// It runs once per step, when its result is first needed. A wire
    /// wants the survivors' links (`want_links`) and will say later which
    /// arrived; a lock-step loop never asks, and then no list is built.
    ///
    /// A lock-step phase with no link drop scheduled is *all-to-all* when
    /// every frame says so itself: a
    /// [`broadcast_all`](Outbox::broadcast_all) over this run's `n`. Every
    /// message of such a phase survives and every recipient hears every
    /// frame but its own, so the pass looks at each frame once and writes
    /// no fate and no count, and the fill none of its per-message index.
    /// Any other phase walks each frame's targets, a `broadcast_all`'s
    /// range included.
    fn route(&mut self, want_links: bool) {
        let (phase, n) = (self.phase, self.actors.len());
        self.routed = true;
        self.listed = want_links;
        self.fates.clear();
        self.links.clear();
        self.counts.fill(0);
        self.dense = !want_links
            && !self.scheduled.any_at(phase)
            && self
                .segments
                .iter()
                .all(|seg| seg.staged.iter().all(|(_, to)| to.is_all(n)));
        let fate = route_fate(&self.scheduled, phase, n);
        for seg in &self.segments {
            self.metrics.record_omitted(phase, seg.omitted);
            if self.dense {
                continue;
            }
            for (frame, targets) in seg.staged.iter() {
                targets.for_each(|to| {
                    let survives = match fate(frame.from, to) {
                        None => false,
                        Some(Fate::Omit) => {
                            // A scheduled drop: the processor still "sent",
                            // but nothing reaches the wire.
                            self.metrics.record_omitted(phase, 1);
                            false
                        }
                        Some(Fate::Deliver) => {
                            self.counts[to.index()] += 1;
                            if want_links {
                                self.links.push((frame.from, to));
                            }
                            true
                        }
                    };
                    self.fates.push(survives);
                });
            }
        }
    }

    /// The `(from, to)` of every message of the last [`step`](Self::step)
    /// that survives routing, in staging order — all a wire needs to know
    /// about a phase's traffic, and the index space
    /// [`deliver`](Self::deliver)'s arrival order speaks. A lock-step loop
    /// never asks, and then no list is built.
    pub fn links(&mut self) -> &[(ProcessId, ProcessId)] {
        if !self.routed {
            self.route(true);
        }
        &self.links
    }

    /// Calls `visit(from, to)` for every message of the last
    /// [`step`](Self::step) that survives routing, in staging order — the
    /// entries [`links`](Self::links) lists. Unless that list was already
    /// built, they are read off the staged frames with the route pass's
    /// own survival rule, so no list is built and the route pass is
    /// neither run nor told a wire is listening: a lock-step delivery after
    /// the visit may still fill all-to-all.
    pub fn for_each_link(&self, mut visit: impl FnMut(ProcessId, ProcessId)) {
        if self.listed {
            for &(from, to) in &self.links {
                visit(from, to);
            }
            return;
        }
        let fate = route_fate(&self.scheduled, self.phase, self.actors.len());
        for seg in &self.segments {
            for (frame, targets) in seg.staged.iter() {
                targets.for_each(|to| {
                    if fate(frame.from, to) == Some(Fate::Deliver) {
                        visit(frame.from, to);
                    }
                });
            }
        }
    }

    /// Completes the phase: moves the frames of the last
    /// [`step`](Self::step) that reach anyone into the next phase's arena
    /// and indexes them into their recipients' inboxes, each frame recorded
    /// in [`Metrics`] once, times the messages it delivered; attributes the
    /// phase's crypto (stepping plus the previous barrier's carry);
    /// verifies the delivered chains at the barrier; swaps the arenas.
    ///
    /// `arrivals == None` is the lock-step model: every survivor arrives,
    /// in staging order. `Some(order)` is a wire's verdict: the sequence in
    /// which messages arrived, as indices into [`links`](Self::links) — each
    /// recipient's inbox ends up in that order — and a link absent from it
    /// permanently failed: sent but never on the wire, the same
    /// [`omitted`](Metrics::omitted_messages) bucket as a scheduled drop.
    ///
    /// # Panics
    /// If an arrival index is out of range or appears twice — before any
    /// frame is moved.
    pub fn deliver(&mut self, arrivals: Option<&[usize]>) {
        let phase = self.phase;
        if !self.routed {
            self.route(arrivals.is_some());
        }
        if let Some(order) = arrivals {
            let failed = self.links.len().saturating_sub(order.len());
            self.metrics.record_omitted(phase, failed as u64);
        }
        let (metrics, correct, log) = (&mut self.metrics, &self.correct, &mut self.phase_log);
        // The one place a send enters `Metrics` (and the phase log, when one
        // is kept): once per frame, times the recipients it reached.
        let on_delivered =
            |frame: &Frame<P>, reached: usize, recipients: &mut dyn Iterator<Item = ProcessId>| {
                let sender_correct = correct[frame.from.index()];
                metrics.record_send(phase, sender_correct, reached as u64, &frame.payload);
                if let Some(log) = log {
                    log.extend(recipients.map(|to| Envelope {
                        from: frame.from,
                        to,
                        payload: frame.payload.clone(),
                    }));
                }
            };
        if self.dense {
            self.nxt.fill_dense(&mut self.segments, on_delivered);
        } else {
            self.nxt.fill(
                &mut self.segments,
                &mut self.fates,
                &mut self.counts,
                arrivals.map(|order| (&self.links[..], order)),
                on_delivered,
            );
        }
        let phase_crypto =
            std::mem::take(&mut self.step_crypto).add(&std::mem::take(&mut self.carry_crypto));
        self.metrics.record_phase_crypto(phase, phase_crypto);
        if let (true, Some(registry)) = (self.batch_verify, &self.registry) {
            // The pass verifies what the *next* phase consumes; its cost is
            // carried there.
            let verifier = registry.verifier();
            let mut barrier = Barrier::new(&verifier, &mut self.seen);
            for payload in self.nxt.payloads() {
                payload.verify_at_barrier(&mut barrier);
            }
            self.carry_crypto = barrier.finish();
        }
        // Phase barrier: consumed inboxes become next phase's collection
        // arena, every buffer keeping its capacity.
        std::mem::swap(&mut self.cur, &mut self.nxt);
        self.nxt.clear();
        self.phase += 1;
    }

    /// Reads the decisions and hands over the run's accounting, with the
    /// finalize step's crypto and the last barrier's carry absorbed. Call
    /// after [`finalize`](Self::finalize); the core is back at phase 1
    /// with empty inboxes afterwards. The outcome's trace is empty — a
    /// trace belongs to the loop that kept one.
    pub fn finish(&mut self) -> RunOutcome<P> {
        let mut metrics = std::mem::take(&mut self.metrics);
        let tail =
            std::mem::take(&mut self.step_crypto).add(&std::mem::take(&mut self.carry_crypto));
        metrics.absorb_crypto(tail);
        metrics.phases = self.phase - 1;
        self.phase = 1;
        self.cur.clear();
        RunOutcome {
            decisions: self.actors.iter().map(|a| a.decision()).collect(),
            correct: self.correct.clone(),
            metrics,
            trace: Trace::default(),
        }
    }
}

/// The route pass's survival rule for the messages staged during `phase`
/// of an `n`-processor run, as the fate of `from → to`: `None` when `to`
/// does not exist (a correct protocol never sends there, an adversary
/// may), else what the scheduled link drops say — looked up per message
/// only in a phase that has any.
fn route_fate(
    scheduled: &ScheduledDrops,
    phase: usize,
    n: usize,
) -> impl Fn(ProcessId, ProcessId) -> Option<Fate> + '_ {
    let drops = scheduled.any_at(phase);
    move |from, to| {
        let exists = to.index() < n;
        exists.then(|| {
            if drops {
                scheduled.admit(phase, from, to)
            } else {
                Fate::Deliver
            }
        })
    }
}

/// A per-phase observer: called with the phase number and that phase's
/// sent envelopes (see [`Simulation::with_observer`]).
pub type PhaseObserver<P> = Box<dyn FnMut(usize, &[Envelope<P>])>;

/// A synchronous simulation of `n` processors: the lock-step loop around a
/// [`PhaseCore`].
///
/// Phases execute in lock step: at phase `k` every actor is stepped (in id
/// order) with the messages addressed to it during phase `k − 1`; the
/// messages it stages are delivered at phase `k + 1`. After the last phase,
/// [`Actor::finalize`] delivers the final inbox and decisions are read.
///
/// See the [crate docs](crate) for a complete example.
pub struct Simulation<P: Payload> {
    core: PhaseCore<P>,
    record_trace: bool,
    observer: Option<PhaseObserver<P>>,
    threads: usize,
}

impl<P: Payload> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.core.n())
            .field("record_trace", &self.record_trace)
            .field("threads", &self.threads)
            .field("batch_verify", &self.core.batch_verify)
            .finish()
    }
}

impl<P: Payload> Simulation<P> {
    /// Creates a simulation over `actors`; actor `i` is processor `i`.
    pub fn new(actors: Vec<Box<dyn Actor<P>>>) -> Self {
        Simulation {
            core: PhaseCore::new(actors, [], None),
            record_trace: false,
            observer: None,
            threads: 1,
        }
    }

    /// Enables full message tracing (see [`Trace`]).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Steps actors across `threads` worker chunks within each phase (see
    /// the [module docs](self) for the determinism contract). `0` and `1`
    /// both mean sequential, the default. Chunks run on the process-shared
    /// persistent [`WorkerPool`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Declares the [`KeyRegistry`] this run's actors sign and verify
    /// under. The core verifies every delivered chain against it at the
    /// phase barrier (see the [module docs](self)); runs whose payloads
    /// carry no keys don't need it.
    pub fn with_registry(mut self, registry: &KeyRegistry) -> Self {
        self.core.registry = Some(registry.clone());
        self
    }

    /// The one verification switch in the workspace. `true`, the default,
    /// is barrier verification (see the [module docs](self)) and is what
    /// every driver runs; it needs [`with_registry`](Self::with_registry)
    /// and does nothing without one. `false` is the test reference: no
    /// barrier pass, every recipient verifies every delivery in full, same
    /// outcomes and larger `crypto` counters. No product path passes
    /// `false`.
    pub fn with_batched_verification(mut self, batch: bool) -> Self {
        self.core.batch_verify = batch;
        self
    }

    /// Registers an observer called after every phase with that phase's
    /// sent envelopes (before delivery) — live invariant checks, progress
    /// displays, per-phase assertions in tests.
    pub fn with_observer(mut self, observer: PhaseObserver<P>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs exactly `phases` phases and returns the outcome.
    pub fn run(&mut self, phases: usize) -> RunOutcome<P> {
        let mut trace = Trace::default();
        let keep_phase_log = self.record_trace || self.observer.is_some();
        self.core.phase_log = keep_phase_log.then(Vec::new);
        for phase in 1..=phases {
            let lost = self.core.step(self.threads);
            self.reraise(&lost);
            self.core.deliver(None);
            let envelopes = self.core.phase_log.as_mut().map(std::mem::take);
            let envelopes = envelopes.unwrap_or_default();
            if let Some(observer) = &mut self.observer {
                observer(phase, &envelopes);
            }
            if self.record_trace {
                trace.phases.push(envelopes);
            }
        }
        let lost = self.core.finalize(self.threads);
        self.reraise(&lost);
        RunOutcome {
            trace,
            ..self.core.finish()
        }
    }

    /// An actor's panic is the caller's: re-raised with its own payload
    /// once every chunk has quiesced.
    fn reraise(&mut self, lost: &[usize]) {
        if !lost.is_empty() {
            resume_unwind(
                self.core
                    .panic
                    .take()
                    .expect("a lost chunk keeps its payload"),
            );
        }
    }
}

/// Worker geometry for [`step_chunks`]: `n` actors stepped by up to
/// `threads` workers are cut into contiguous ascending chunks of the
/// returned `chunk_size`, and the returned chunk count says how many sinks
/// to provide — it can be smaller than `threads` when `n` is small
/// (matching `slice::chunks_mut`), and is never zero.
pub fn chunk_geometry(n: usize, threads: usize) -> (usize, usize) {
    let workers = threads.clamp(1, n.max(1));
    let chunk_size = n.div_ceil(workers).max(1);
    (chunk_size, n.div_ceil(chunk_size).max(1))
}

/// The intra-phase fan-out [`PhaseCore`] steps and finalizes its actors
/// through: `actors` is cut into contiguous ascending chunks of
/// `chunk_size` (see [`chunk_geometry`]; one sink per chunk), and
/// `step(base, chunk, sink)` runs once per chunk with `base` the id of the
/// chunk's first actor. A single chunk runs inline — no pool, no lock;
/// otherwise chunks are dispatched onto the process-shared [`WorkerPool`],
/// each chunk measuring its own thread-local [`CryptoStats`] delta. Returns
/// the summed delta, which is schedule-independent: the per-chunk work is
/// deterministic and the sum is order-free. A panic in `step` resumes on the
/// caller after every chunk has quiesced; the core contains actor panics by
/// catching them inside `step`.
pub fn step_chunks<P, S, F>(
    actors: &mut [Box<dyn Actor<P>>],
    chunk_size: usize,
    sinks: &mut [S],
    step: F,
) -> CryptoStats
where
    P: Payload,
    S: Send,
    F: Fn(usize, &mut [Box<dyn Actor<P>>], &mut S) + Sync,
{
    if sinks.len() <= 1 {
        let before = CryptoStats::snapshot();
        if let Some(sink) = sinks.first_mut() {
            step(0, actors, sink);
        }
        return CryptoStats::snapshot().since(&before);
    }

    struct ChunkJob<'a, P: Payload, S> {
        base: usize,
        actors: &'a mut [Box<dyn Actor<P>>],
        sink: &'a mut S,
        delta: CryptoStats,
    }

    let jobs: Vec<Mutex<ChunkJob<'_, P, S>>> = actors
        .chunks_mut(chunk_size)
        .zip(sinks.iter_mut())
        .enumerate()
        .map(|(w, (actors, sink))| {
            Mutex::new(ChunkJob {
                base: w * chunk_size,
                actors,
                sink,
                delta: CryptoStats::default(),
            })
        })
        .collect();

    WorkerPool::shared().run_chunks(jobs.len(), |w| {
        let mut guard = jobs[w].lock().expect("chunk job poisoned");
        let job = &mut *guard;
        let before = CryptoStats::snapshot();
        step(job.base, job.actors, job.sink);
        job.delta = CryptoStats::snapshot().since(&before);
    });

    jobs.into_iter()
        .map(|job| job.into_inner().expect("chunk job poisoned").delta)
        .fold(CryptoStats::default(), |acc, d| acc.add(&d))
}

/// Steps one contiguous actor chunk (ids `base..base + actors.len()`),
/// staging every actor's frames into `segment` in (actor, send-seq) order.
fn step_chunk<P: Payload>(
    actors: &mut [Box<dyn Actor<P>>],
    base: usize,
    phase: usize,
    cur: &Inboxes<P>,
    segment: &mut Segment<P>,
) {
    let mut out = Outbox::resume(ProcessId(base as u32), std::mem::take(&mut segment.staged));
    for (j, actor) in actors.iter_mut().enumerate() {
        let i = base + j;
        out.pass_to(ProcessId(i as u32));
        actor.step(phase, cur.of(i), &mut out);
    }
    segment.omitted = out.omitted_count();
    segment.staged = out.into_staging();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Inbox, Outbox};
    use ba_crypto::Chain;

    /// Floods `Value` to everyone each phase until `stop_after`.
    #[derive(Debug)]
    struct Flooder {
        n: usize,
        value: Value,
        stop_after: usize,
    }

    impl Actor<Value> for Flooder {
        fn step(&mut self, phase: usize, _inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
            if phase <= self.stop_after {
                out.broadcast_all(self.n, self.value);
            }
        }
        fn decision(&self) -> Option<Value> {
            Some(self.value)
        }
    }

    /// Records everything it hears; decides on the first payload seen.
    #[derive(Debug, Default)]
    struct Listener {
        heard: Vec<(usize, Value)>,
        phase: usize,
        decided: Option<Value>,
    }

    impl Actor<Value> for Listener {
        fn step(&mut self, phase: usize, inbox: Inbox<'_, Value>, _out: &mut Outbox<Value>) {
            self.phase = phase;
            for env in inbox {
                self.heard.push((phase, *env.payload));
                self.decided.get_or_insert(*env.payload);
            }
        }
        fn finalize(&mut self, inbox: Inbox<'_, Value>) {
            for env in inbox {
                self.heard.push((self.phase + 1, *env.payload));
                self.decided.get_or_insert(*env.payload);
            }
        }
        fn decision(&self) -> Option<Value> {
            self.decided
        }
    }

    #[test]
    fn messages_arrive_next_phase() {
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 2,
                value: Value(5),
                stop_after: 1,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
        ]);
        let outcome = sim.run(2);
        // Flooder sends in phase 1 -> listener hears it while stepping phase 2.
        assert_eq!(outcome.decisions[1], Some(Value(5)));
        assert_eq!(outcome.metrics.messages_by_correct, 1);
        assert_eq!(outcome.metrics.phases, 2);
    }

    #[test]
    fn final_phase_messages_delivered_via_finalize() {
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 2,
                value: Value(9),
                stop_after: 1,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
        ]);
        // Only one phase executes; the send happens in phase 1 and must be
        // seen via finalize.
        let outcome = sim.run(1);
        assert_eq!(outcome.decisions[1], Some(Value(9)));
    }

    /// A spec over `actors` with `link_drops` scheduled, for the lock-step
    /// loop: no keys, no fault budget.
    fn spec<P: Payload>(
        actors: Vec<Box<dyn Actor<P>>>,
        phases: usize,
        link_drops: Vec<LinkDrop>,
    ) -> InstanceSpec<P> {
        InstanceSpec {
            actors,
            phases,
            fault_budget: 0,
            link_drops,
            registry: None,
        }
    }

    #[test]
    fn quiescence_stops_early() {
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 3,
                value: Value(1),
                stop_after: 2,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
            Box::new(Listener::default()),
        ]);
        let outcome = sim.run(3);
        // Phases 1,2 send; phase 3 sends nothing.
        assert_eq!(outcome.metrics.phases, 3);
        assert_eq!(outcome.metrics.last_active_phase, 2);
        assert_eq!(outcome.metrics.messages_by_correct, 4);
    }

    #[test]
    fn trace_records_all_envelopes() {
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 2,
                value: Value(3),
                stop_after: 2,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
        ])
        .with_trace();
        let outcome = sim.run(3);
        assert_eq!(outcome.trace.len(), 3);
        assert_eq!(outcome.trace.message_count(), 2);
        let ish = outcome.trace.individual_subhistory(ProcessId(1));
        assert_eq!(ish[0].len(), 1);
        assert_eq!(ish[1].len(), 1);
        assert_eq!(ish[2].len(), 0);
    }

    #[test]
    fn observer_sees_every_phase() {
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 2,
                value: Value(1),
                stop_after: 2,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
        ])
        .with_observer(Box::new(move |phase, sent| {
            log2.lock().unwrap().push((phase, sent.len()));
        }));
        sim.run(3);
        assert_eq!(*log.lock().unwrap(), vec![(1, 1), (2, 1), (3, 0)]);
    }

    #[test]
    fn sends_to_nonexistent_ids_are_dropped() {
        #[derive(Debug)]
        struct Wild;
        impl Actor<Value> for Wild {
            fn step(&mut self, _p: usize, _i: Inbox<'_, Value>, out: &mut Outbox<Value>) {
                out.send(ProcessId(99), Value::ONE);
            }
            fn decision(&self) -> Option<Value> {
                Some(Value::ZERO)
            }
        }
        let mut sim = Simulation::new(vec![Box::new(Wild) as Box<dyn Actor<Value>>]);
        let outcome = sim.run(1);
        assert_eq!(outcome.metrics.messages_total(), 0);
    }

    /// Dolev-Strong-style chain relay: actor 0 starts a signed chain in
    /// phase 1; every actor verifies incoming chains against the shared
    /// registry (stamp hits and full checks), endorses the longest one
    /// once, and rebroadcasts. Heavy enough to make scheduling effects
    /// visible if the engine had any.
    #[derive(Debug)]
    struct ChainRelay {
        signer: ba_crypto::keys::Signer,
        verifier: ba_crypto::keys::Verifier,
        n: usize,
        relayed: bool,
        accepted: Option<Value>,
    }

    impl Actor<ba_crypto::Chain> for ChainRelay {
        fn step(
            &mut self,
            phase: usize,
            inbox: Inbox<'_, ba_crypto::Chain>,
            out: &mut Outbox<ba_crypto::Chain>,
        ) {
            if phase == 1 && out.sender() == ProcessId(0) && !self.relayed {
                self.relayed = true;
                let mut chain = ba_crypto::Chain::new(7, Value::ONE);
                chain.sign_and_append(&self.signer);
                self.accepted = Some(chain.value());
                out.broadcast_all(self.n, chain);
                return;
            }
            for env in inbox {
                if env.payload.verify(&self.verifier).is_err() {
                    continue;
                }
                self.accepted.get_or_insert(env.payload.value());
                if !self.relayed {
                    self.relayed = true;
                    let mut chain = env.payload.clone();
                    chain.sign_and_append(&self.signer);
                    out.broadcast_all(self.n, chain);
                }
            }
        }
        fn decision(&self) -> Option<Value> {
            self.accepted
        }
    }

    fn chain_relay(registry: &KeyRegistry, i: usize, n: usize) -> Box<dyn Actor<Chain>> {
        Box::new(ChainRelay {
            signer: registry.signer(ProcessId(i as u32)),
            verifier: registry.verifier(),
            n,
            relayed: false,
            accepted: None,
        })
    }

    fn chain_relay_sim(
        n: usize,
        threads: usize,
    ) -> (Simulation<ba_crypto::Chain>, ba_crypto::keys::KeyRegistry) {
        use ba_crypto::keys::{KeyRegistry, SchemeKind};
        // Fresh registry per run: its token is new, so no stamp from an
        // earlier run answers for this one.
        let registry = KeyRegistry::new(n, 99, SchemeKind::Fast);
        let actors = (0..n).map(|i| chain_relay(&registry, i, n)).collect();
        let sim = Simulation::new(actors)
            .with_trace()
            .with_threads(threads)
            .with_registry(&registry);
        (sim, registry)
    }

    fn chain_relay_run(n: usize, threads: usize) -> RunOutcome<ba_crypto::Chain> {
        chain_relay_sim(n, threads).0.run(3)
    }

    #[test]
    fn parallel_stepping_matches_sequential_byte_for_byte() {
        let baseline = chain_relay_run(8, 1);
        for threads in [2, 4, 8] {
            let run = chain_relay_run(8, threads);
            assert_eq!(run.decisions, baseline.decisions, "threads={threads}");
            assert_eq!(run.correct, baseline.correct, "threads={threads}");
            assert_eq!(run.metrics, baseline.metrics, "threads={threads}");
            assert_eq!(run.trace, baseline.trace, "threads={threads}");
        }
    }

    #[test]
    fn per_phase_crypto_totals_equal_across_thread_counts() {
        // Satellite: pin the CryptoStats accounting specifically — every
        // phase's hash and signature-check totals under multi-threaded
        // stepping equal the sequential run's exactly.
        let sequential = chain_relay_run(8, 1);
        let parallel = chain_relay_run(8, 4);
        assert_eq!(
            sequential.metrics.per_phase.len(),
            parallel.metrics.per_phase.len()
        );
        for (k, (seq, par)) in sequential
            .metrics
            .per_phase
            .iter()
            .zip(parallel.metrics.per_phase.iter())
            .enumerate()
        {
            assert_eq!(
                seq.hash_invocations,
                par.hash_invocations,
                "phase {} hash totals",
                k + 1
            );
            assert_eq!(
                seq.sig_verifications,
                par.sig_verifications,
                "phase {} signature-check totals",
                k + 1
            );
        }
        assert_eq!(sequential.metrics.crypto, parallel.metrics.crypto);
        assert!(sequential.metrics.crypto.hash_invocations > 0);
        assert!(sequential.metrics.crypto.sig_verifications > 0);
    }

    #[test]
    fn batched_verification_preserves_outcomes_and_cuts_sig_checks() {
        // Same workload, the per-delivery reference vs the default
        // barrier pass: decisions, message counts and traces are
        // byte-identical; signature-check work drops (each unique chain
        // verified once per barrier instead of once per recipient).
        let per_delivery = chain_relay_sim(8, 1)
            .0
            .with_batched_verification(false)
            .run(3);
        let batched = chain_relay_run(8, 1);
        assert_eq!(batched.decisions, per_delivery.decisions);
        assert_eq!(batched.correct, per_delivery.correct);
        assert_eq!(
            batched.metrics.messages_by_correct,
            per_delivery.metrics.messages_by_correct
        );
        assert_eq!(
            batched.metrics.signatures_by_correct,
            per_delivery.metrics.signatures_by_correct
        );
        assert_eq!(batched.trace, per_delivery.trace);
        assert!(
            batched.metrics.crypto.sig_verifications
                < per_delivery.metrics.crypto.sig_verifications,
            "batched {} < per-delivery {}",
            batched.metrics.crypto.sig_verifications,
            per_delivery.metrics.crypto.sig_verifications
        );
        // And the batched counters are themselves thread-count
        // independent.
        for threads in [2, 4, 8] {
            let par = chain_relay_run(8, threads);
            assert_eq!(par.metrics, batched.metrics, "threads={threads}");
            assert_eq!(par.decisions, batched.decisions, "threads={threads}");
        }
    }

    /// Faulty p0: broadcasts `forged` in phase 1 and `genuine` in phase 2.
    #[derive(Debug)]
    struct Forger {
        n: usize,
        forged: Chain,
        genuine: Chain,
    }

    impl Actor<Chain> for Forger {
        fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            let chain = match phase {
                1 => &self.forged,
                2 => &self.genuine,
                _ => return,
            };
            out.broadcast((1..self.n as u32).map(ProcessId), chain.clone());
        }
        fn decision(&self) -> Option<Value> {
            None
        }
        fn is_correct(&self) -> bool {
            false
        }
    }

    #[test]
    fn chain_failing_barrier_verification_is_rejected_by_every_recipient() {
        use ba_crypto::keys::SchemeKind;
        // p0's first chain is signed under a *different* registry seed, its
        // second under this run's. A relay adopts the first chain its own
        // `verify` accepts, so one recipient waved through by a stamp would
        // decide 9 — the forged chain arrives a phase earlier.
        let n = 6;
        let run = |barrier: bool| {
            let registry = KeyRegistry::new(n, 99, SchemeKind::Fast);
            let foreign = KeyRegistry::new(n, 100, SchemeKind::Fast);
            let mut forged = Chain::new(7, Value(9));
            forged.sign_and_append(&foreign.signer(ProcessId(0)));
            let mut genuine = Chain::new(7, Value::ONE);
            genuine.sign_and_append(&registry.signer(ProcessId(0)));
            let mut actors: Vec<Box<dyn Actor<Chain>>> = vec![Box::new(Forger {
                n,
                forged: forged.clone(),
                genuine,
            })];
            actors.extend((1..n).map(|i| chain_relay(&registry, i, n)));
            let outcome = Simulation::new(actors)
                .with_trace()
                .with_registry(&registry)
                .with_batched_verification(barrier)
                .run(4);
            // `forged` shares its buffer with every delivered copy: had the
            // barrier stamped it, this would be a stamp hit.
            assert!(forged.verify(&registry.verifier()).is_err());
            outcome
        };

        let reference = run(false);
        let barrier = run(true);
        let mut expected = vec![Some(Value::ONE); n];
        expected[0] = None;
        assert_eq!(barrier.decisions, expected);
        assert_eq!(barrier.decisions, reference.decisions);
        assert_eq!(barrier.correct, reference.correct);
        assert_eq!(
            barrier.metrics.without_crypto(),
            reference.metrics.without_crypto()
        );
        assert_eq!(barrier.trace, reference.trace);
        // Phase 2 is where the forged copies are consumed: one failed
        // check per recipient on both sides (nothing to short-circuit),
        // plus the barrier's own failed attempt carried into that phase.
        assert_eq!(reference.metrics.per_phase[1].sig_verifications, 5);
        assert_eq!(barrier.metrics.per_phase[1].sig_verifications, 6);
    }

    #[test]
    fn zero_threads_is_treated_as_sequential() {
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 2,
                value: Value(5),
                stop_after: 1,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
        ])
        .with_threads(0);
        let outcome = sim.run(2);
        assert_eq!(outcome.decisions[1], Some(Value(5)));
    }

    #[test]
    fn empty_simulation_runs() {
        let mut sim: Simulation<Value> = Simulation::new(Vec::new()).with_threads(4);
        let outcome = sim.run(3);
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.metrics.phases, 3);
    }

    #[test]
    fn parallel_run_preserves_quiescence_and_finalize_semantics() {
        let run = |threads: usize| {
            let mut sim = Simulation::new(vec![
                Box::new(Flooder {
                    n: 3,
                    value: Value(1),
                    stop_after: 2,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ])
            .with_threads(threads);
            sim.run(3)
        };
        let seq = run(1);
        let par = run(3);
        assert_eq!(par.metrics.phases, 3);
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.decisions, seq.decisions);
    }

    #[test]
    fn link_drops_suppress_deliver_and_count() {
        let run = |drops: Vec<LinkDrop>| {
            let actors = vec![
                Box::new(Flooder {
                    n: 3,
                    value: Value(5),
                    stop_after: 2,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ];
            Simulation::from(spec(actors, 2, drops)).with_trace().run(2)
        };
        let clean = run(vec![]);
        assert_eq!(clean.metrics.omitted_messages, 0);
        assert_eq!(clean.decisions[1], Some(Value(5)));
        assert_eq!(clean.decisions[2], Some(Value(5)));

        // Drop only the phase-1 send to p1: p1 still hears phase 2's flood,
        // but the dropped envelope is neither traced nor counted as sent.
        let partial = run(vec![LinkDrop {
            phase: 1,
            from: ProcessId(0),
            to: ProcessId(1),
        }]);
        assert_eq!(partial.metrics.omitted_messages, 1);
        assert_eq!(
            partial.metrics.messages_by_correct,
            clean.metrics.messages_by_correct - 1
        );
        assert_eq!(
            partial.trace.message_count(),
            clean.trace.message_count() - 1
        );
        assert_eq!(partial.decisions[1], Some(Value(5)));

        // Drop both phases to p1: p1 never hears anything and stays
        // undecided while p2 is untouched.
        let censored = run(vec![
            LinkDrop {
                phase: 1,
                from: ProcessId(0),
                to: ProcessId(1),
            },
            LinkDrop {
                phase: 2,
                from: ProcessId(0),
                to: ProcessId(1),
            },
        ]);
        assert_eq!(censored.metrics.omitted_messages, 2);
        assert_eq!(censored.decisions[1], None);
        assert_eq!(censored.decisions[2], Some(Value(5)));
    }

    #[test]
    fn link_drops_are_thread_count_independent() {
        let run = |threads: usize| {
            let actors = vec![
                Box::new(Flooder {
                    n: 4,
                    value: Value(3),
                    stop_after: 2,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ];
            let drops = vec![
                LinkDrop {
                    phase: 1,
                    from: ProcessId(0),
                    to: ProcessId(2),
                },
                LinkDrop {
                    phase: 2,
                    from: ProcessId(0),
                    to: ProcessId(3),
                },
            ];
            Simulation::from(spec(actors, 2, drops))
                .with_trace()
                .with_threads(threads)
                .run(2)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.metrics.omitted_messages, 2);
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.decisions, seq.decisions);
        assert_eq!(par.trace, seq.trace);
    }

    /// Scheduled link drops in every phase the flooder sends, then a quiet
    /// phase: the `sent + omitted` totals are identical for any
    /// worker-thread count.
    #[test]
    fn quiescence_under_link_drops_is_reached_and_thread_independent() {
        let run = |threads: usize| {
            let actors = vec![
                Box::new(Flooder {
                    n: 4,
                    value: Value(2),
                    stop_after: 3,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ];
            let drops = vec![
                LinkDrop {
                    phase: 1,
                    from: ProcessId(0),
                    to: ProcessId(1),
                },
                LinkDrop {
                    phase: 2,
                    from: ProcessId(0),
                    to: ProcessId(3),
                },
                LinkDrop {
                    phase: 3,
                    from: ProcessId(0),
                    to: ProcessId(2),
                },
            ];
            spec(actors, 4, drops).run_lockstep(threads)
        };
        let baseline = run(1);
        // The flooder stops after phase 3; phase 4 is quiet.
        assert_eq!(baseline.metrics.phases, 4);
        assert_eq!(baseline.metrics.last_active_phase, 3);
        assert_eq!(baseline.metrics.omitted_messages, 3);
        assert_eq!(
            baseline.metrics.messages_by_correct + baseline.metrics.omitted_messages,
            9,
            "3 phases × 3 peers, split between delivered and dropped"
        );
        for threads in [2, 4, 8] {
            let run = run(threads);
            assert_eq!(run.metrics.phases, baseline.metrics.phases, "{threads}");
            assert_eq!(
                run.metrics.messages_by_correct + run.metrics.omitted_messages,
                baseline.metrics.messages_by_correct + baseline.metrics.omitted_messages,
                "sent + omitted at threads={threads}"
            );
            assert_eq!(run.metrics, baseline.metrics, "threads={threads}");
            assert_eq!(run.decisions, baseline.decisions, "threads={threads}");
        }
    }

    /// A core over `n` flooders (payload = sender id, so inbox order is
    /// visible), stepped through phase 1 with the phase log kept.
    fn stepped_flooders(n: usize) -> PhaseCore<Value> {
        let actors = (0..n)
            .map(|i| {
                Box::new(Flooder {
                    n,
                    value: Value(i as u64),
                    stop_after: 1,
                }) as Box<dyn Actor<Value>>
            })
            .collect();
        let mut core = PhaseCore::new(actors, [], None);
        core.phase_log = Some(Vec::new());
        assert!(core.step(2).is_empty());
        core
    }

    fn envelopes_of<P: Payload>(core: &PhaseCore<P>, i: usize) -> Vec<Envelope<P>> {
        core.cur.of(i).iter().map(|m| m.to_envelope()).collect()
    }

    fn inboxes_of(core: &PhaseCore<Value>) -> Vec<Vec<Envelope<Value>>> {
        (0..core.n()).map(|i| envelopes_of(core, i)).collect()
    }

    #[test]
    fn identity_wire_order_is_staging_order() {
        let mut lock_step = stepped_flooders(4);
        lock_step.deliver(None);
        let mut wire = stepped_flooders(4);
        let identity: Vec<usize> = (0..wire.links().len()).collect();
        assert_eq!(identity.len(), 12);
        wire.deliver(Some(&identity));
        assert_eq!(inboxes_of(&wire), inboxes_of(&lock_step));
        assert_eq!(wire.metrics, lock_step.metrics);
        assert_eq!(wire.phase_log, lock_step.phase_log);
        assert_eq!(wire.phase(), 2);
        assert_eq!(wire.phase_log.map(|log| log.len()), Some(12));
    }

    #[test]
    fn reversed_wire_order_reverses_inboxes_and_moves_no_metric() {
        let mut lock_step = stepped_flooders(4);
        lock_step.deliver(None);
        let mut wire = stepped_flooders(4);
        let reversed: Vec<usize> = (0..wire.links().len()).rev().collect();
        wire.deliver(Some(&reversed));
        let mut expected = inboxes_of(&lock_step);
        expected.iter_mut().for_each(|inbox| inbox.reverse());
        assert_ne!(expected, inboxes_of(&lock_step), "order is observable");
        assert_eq!(inboxes_of(&wire), expected);
        assert_eq!(wire.metrics, lock_step.metrics);
        assert_eq!(wire.phase_log, lock_step.phase_log, "logged as sent");
    }

    #[test]
    fn a_link_missing_from_the_wire_order_is_omitted_not_sent() {
        let mut lock_step = stepped_flooders(4);
        lock_step.deliver(None);
        let mut wire = stepped_flooders(4);
        // Link 4 is p1 → p2 (p1's sends are links 3, 4, 5: to p0, p2, p3).
        assert_eq!(wire.links()[4], (ProcessId(1), ProcessId(2)));
        let order: Vec<usize> = (0..12).filter(|&k| k != 4).collect();
        wire.deliver(Some(&order));
        assert_eq!(wire.metrics.omitted_messages, 1);
        assert_eq!(wire.metrics.per_phase[0].omitted, 1);
        assert_eq!(
            wire.metrics.messages_by_correct,
            lock_step.metrics.messages_by_correct - 1
        );
        let senders = |core: &PhaseCore<Value>| -> Vec<u64> {
            core.cur.of(2).iter().map(|env| env.payload.0).collect()
        };
        assert_eq!(senders(&lock_step), vec![0, 1, 3]);
        assert_eq!(senders(&wire), vec![0, 3]);
        let logged = wire.phase_log.expect("kept").len();
        assert_eq!(logged, 11, "never on the wire, never logged");
    }

    #[test]
    fn chunk_count_may_change_every_phase() {
        // One instance stepped in 1, then 4, then 2 chunks — what a
        // session does as its fleet grows and shrinks — against the same
        // instance at a fixed chunk count: same inboxes after every
        // barrier, same Metrics (crypto included), same decisions.
        let drive = |threads: [usize; 3]| {
            let n = 8;
            let registry = KeyRegistry::new(n, 99, ba_crypto::keys::SchemeKind::Fast);
            let actors = (0..n).map(|i| chain_relay(&registry, i, n)).collect();
            let mut core = PhaseCore::new(actors, [], Some(registry));
            let mut inboxes = Vec::new();
            for threads in threads {
                assert!(core.step(threads).is_empty());
                core.deliver(None);
                inboxes.push((0..n).map(|i| envelopes_of(&core, i)).collect::<Vec<_>>());
            }
            assert!(core.finalize(3).is_empty());
            (inboxes, core.finish())
        };
        let (fixed_inboxes, fixed) = drive([2, 2, 2]);
        let (inboxes, varied) = drive([1, 4, 2]);
        assert_eq!(inboxes, fixed_inboxes);
        assert_eq!(varied.metrics, fixed.metrics);
        assert_eq!(varied.decisions, fixed.decisions);
        assert!(fixed.metrics.crypto.sig_verifications > 0);
        assert_eq!(fixed.metrics.phases, 3);
    }

    #[test]
    fn run_re_raises_an_actors_panic_with_its_own_message() {
        #[derive(Debug)]
        struct PanicsAt(Option<usize>);
        impl Actor<Value> for PanicsAt {
            fn step(&mut self, phase: usize, _i: Inbox<'_, Value>, _o: &mut Outbox<Value>) {
                assert!(Some(phase) != self.0, "actor bug at phase {phase}");
            }
            fn decision(&self) -> Option<Value> {
                Some(Value::ONE)
            }
        }
        for threads in [1, 4] {
            let actors = (0..4)
                .map(|i| Box::new(PanicsAt((i == 2).then_some(2))) as Box<dyn Actor<Value>>)
                .collect();
            let mut sim = Simulation::new(actors).with_threads(threads);
            let payload = catch_unwind(AssertUnwindSafe(|| sim.run(3)))
                .expect_err("a panicking actor fails the run");
            let message = payload
                .downcast_ref::<String>()
                .expect("the actor's own formatted message");
            assert_eq!(message, "actor bug at phase 2", "threads={threads}");
        }
    }

    #[test]
    fn correct_flags_flow_to_outcome() {
        #[derive(Debug)]
        struct Faulty;
        impl Actor<Value> for Faulty {
            fn step(&mut self, _p: usize, _i: Inbox<'_, Value>, out: &mut Outbox<Value>) {
                out.send(ProcessId(1), Value(7));
            }
            fn decision(&self) -> Option<Value> {
                None
            }
            fn is_correct(&self) -> bool {
                false
            }
        }
        let mut sim = Simulation::new(vec![
            Box::new(Faulty) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
        ]);
        let outcome = sim.run(2);
        assert_eq!(outcome.correct, vec![false, true]);
        assert_eq!(outcome.metrics.messages_by_faulty, 2);
        assert_eq!(outcome.metrics.messages_by_correct, 0);
        let correct: Vec<_> = outcome.correct_decisions().collect();
        assert_eq!(correct, vec![(ProcessId(1), Some(Value(7)))]);
    }

    #[test]
    fn a_frame_that_reaches_no_one_is_neither_recorded_nor_verified() {
        // p0 broadcasts one signed chain to p1 and p2. Fated out on both
        // links, or failed on both by the wire, the frame is dropped at the
        // fill: nothing recorded, nothing for the barrier to verify.
        let run = |drops: Vec<LinkDrop>, arrivals: Option<&[usize]>| {
            let n = 3;
            let registry = KeyRegistry::new(n, 99, ba_crypto::keys::SchemeKind::Fast);
            let actors = (0..n).map(|i| chain_relay(&registry, i, n)).collect();
            let mut core = PhaseCore::new(actors, drops, Some(registry));
            assert!(core.step(1).is_empty());
            if arrivals.is_some() {
                core.links();
            }
            core.deliver(arrivals);
            assert!(core.finalize(1).is_empty());
            core.finish().metrics
        };
        let link = |to: u32| LinkDrop {
            phase: 1,
            from: ProcessId(0),
            to: ProcessId(to),
        };
        let delivered = run(vec![], None);
        assert_eq!(delivered.messages_total(), 2);
        assert_eq!(
            delivered.crypto.sig_verifications, 1,
            "once, at the barrier"
        );
        for lost in [run(vec![link(1), link(2)], None), run(vec![], Some(&[]))] {
            assert_eq!(lost.messages_total(), 0);
            assert_eq!(lost.omitted_messages, 2);
            assert_eq!(lost.crypto.sig_verifications, 0);
        }
        let half = run(vec![link(1)], Some(&[0]));
        assert_eq!((half.messages_total(), half.omitted_messages), (1, 1));
        assert_eq!(half.crypto.sig_verifications, 1);
    }

    /// Processor `i` broadcasts an unsigned chain of each of its values to
    /// everyone at phase 1.
    #[derive(Debug)]
    struct Says {
        n: usize,
        values: Vec<u64>,
    }

    impl Actor<Chain> for Says {
        fn step(&mut self, phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
            if phase == 1 {
                for &v in &self.values {
                    out.broadcast_all(self.n, Chain::new(7, Value(v)));
                }
            }
        }
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    /// A core over one [`Says`] per entry of `says`, with `drops`
    /// scheduled, stepped through phase 1.
    fn said(says: &[&[u64]], drops: Vec<LinkDrop>) -> PhaseCore<Chain> {
        let n = says.len();
        let actors = says.iter().map(|values| {
            let values = values.to_vec();
            Box::new(Says { n, values }) as Box<dyn Actor<Chain>>
        });
        let mut core = PhaseCore::new(actors.collect(), drops, None);
        assert!(core.step(1).is_empty());
        core
    }

    /// Every recipient's [`Inbox::chain_values`] for the delivered phase.
    fn listed<P: Payload>(core: &PhaseCore<P>) -> Vec<Option<Vec<u64>>> {
        let values = |i| Some(core.cur.of(i).chain_values()?.iter().map(|v| v.0).collect());
        (0..core.n()).map(values).collect()
    }

    #[test]
    fn an_all_to_all_phase_lists_its_chains_values() {
        let mut agreed = said(&[&[1], &[1], &[1], &[1]], vec![]);
        agreed.deliver(None);
        assert!(agreed.dense);
        assert_eq!(listed(&agreed), vec![Some(vec![1]); 4]);
        // p1 and p3 relay 1, p2 relays 0 after it: every recipient is told
        // both, sorted — p2 too, which hears only 1s.
        let mut split = said(&[&[], &[1], &[1, 0], &[1]], vec![]);
        split.deliver(None);
        assert!(split.dense);
        assert_eq!(listed(&split), vec![Some(vec![0, 1]); 4]);
        let heard: Vec<_> = split
            .cur
            .of(2)
            .iter()
            .map(|m| m.payload.value().0)
            .collect();
        assert_eq!(heard, vec![1, 1]);
    }

    #[test]
    fn every_other_view_lists_no_values() {
        let says: [&[u64]; 3] = [&[1], &[1], &[0]];
        let drop = LinkDrop {
            phase: 1,
            from: ProcessId(0),
            to: ProcessId(2),
        };
        let mut indexed = said(&says, vec![drop]);
        indexed.deliver(None);
        let mut wire = said(&says, vec![]);
        let order: Vec<usize> = (0..wire.links().len()).collect();
        wire.deliver(Some(&order));
        for core in [&indexed, &wire] {
            assert!(!core.dense);
            assert_eq!(listed(core), vec![None; 3]);
        }
        let envelopes = envelopes_of(&wire, 1);
        assert_eq!(Inbox::of(&envelopes).chain_values(), None);
        let mut values = stepped_flooders(3);
        values.deliver(None);
        assert!(values.dense, "all-to-all, but no payload carries a chain");
        assert_eq!(listed(&values), vec![None; 3]);
        let mut cleared = said(&says, vec![]);
        cleared.deliver(None);
        cleared.cur.clear();
        assert_eq!(listed(&cleared), vec![None; 3]);
    }

    /// `broadcast_all` ≡ `broadcast` of its id list ≡ the loop of `send`s
    /// they abbreviate.
    mod props {
        use super::*;
        use crate::arena::Link;
        use ba_crypto::keys::{SchemeKind, Signer, Verifier};
        use ba_crypto::rng::SimRng;
        use ba_crypto::testkit::{run_cases, Gen};
        use std::sync::{Arc, Mutex};

        /// One `send`/`broadcast` call an actor is scripted to make.
        #[derive(Clone, Debug)]
        struct Call {
            targets: Vec<ProcessId>,
            /// `Some(m)`: the call says "everyone", `targets` being `0..m`.
            all: Option<usize>,
            value: Value,
            /// Signed under a foreign registry: fails every verification.
            forged: bool,
        }

        /// What one processor heard: `(phase, from, value, verified)`.
        type Heard = Vec<(usize, u32, u64, bool)>;

        /// How a scripted call is spelled.
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Spelling {
            /// One `send` per target.
            Sends,
            /// One `broadcast` of the target list.
            List,
            /// `broadcast_all` where the call says "everyone", else `List`.
            All,
        }

        /// Plays its script in one spelling. Verifies and logs whatever it
        /// receives.
        #[derive(Debug)]
        struct Scripted {
            script: Vec<Vec<Call>>,
            spelling: Spelling,
            signer: Signer,
            forger: Signer,
            verifier: Verifier,
            heard: Arc<Mutex<Heard>>,
        }

        impl Scripted {
            fn hear(&mut self, phase: usize, inbox: Inbox<'_, Chain>) {
                // `iter` yields exactly `get(0..len)`, then nothing: over the
                // arena's view (indexed or all-but-own) and over an owned
                // copy of it.
                let owned: Vec<_> = (0..inbox.len())
                    .map(|k| inbox.get(k).expect("k < len").to_envelope())
                    .collect();
                for view in [inbox, Inbox::of(&owned)] {
                    let got: Vec<_> = (0..=view.len()).map(|k| view.get(k)).collect();
                    let walked: Vec<_> = view.iter().map(Some).chain([None]).collect();
                    assert_eq!(walked, got);
                    assert_eq!(view.iter().len(), view.len());
                }
                // The superset contract: every message's value is listed.
                if let Some(vs) = inbox.chain_values() {
                    assert!(vs.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
                    assert!(inbox.iter().all(|m| vs.contains(&m.payload.value())));
                }
                let mut heard = self.heard.lock().unwrap();
                for m in inbox {
                    assert_eq!(m.to, self.signer.id());
                    let ok = m.payload.verify(&self.verifier).is_ok();
                    heard.push((phase, m.from.0, m.payload.value().0, ok));
                }
            }
        }

        impl Actor<Chain> for Scripted {
            fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
                self.hear(phase, inbox);
                for call in self.script.get(phase - 1).into_iter().flatten() {
                    let mut chain = Chain::new(11, call.value);
                    chain.sign_and_append(if call.forged {
                        &self.forger
                    } else {
                        &self.signer
                    });
                    match (self.spelling, call.all, &call.targets[..]) {
                        (Spelling::Sends, ..) => {
                            for &to in &call.targets {
                                out.send(to, chain.clone());
                            }
                        }
                        (Spelling::All, Some(m), _) => out.broadcast_all(m, chain),
                        (_, _, &[to]) => out.send(to, chain),
                        (_, _, targets) => out.broadcast(targets.iter().copied(), chain),
                    }
                }
            }
            fn finalize(&mut self, inbox: Inbox<'_, Chain>) {
                self.hear(usize::MAX, inbox);
            }
            fn decision(&self) -> Option<Value> {
                None
            }
            fn is_correct(&self) -> bool {
                self.signer.id().0 % 3 != 2
            }
        }

        /// A random target list: mostly real ids, now and then the sender,
        /// a duplicate, a nonexistent id; sometimes empty.
        fn targets(gen: &mut Gen, n: usize) -> Vec<ProcessId> {
            let len = match gen.usize_in(0, 8) {
                0 => 0,
                1 | 2 => 1,
                _ => gen.usize_in(2, n + 3),
            };
            (0..len)
                .map(|_| ProcessId(gen.u32_in(0, n as u32 + 2)))
                .collect()
        }

        struct Case {
            n: usize,
            phases: usize,
            /// `scripts[i][phase − 1]`: processor `i`'s calls that phase.
            scripts: Vec<Vec<Vec<Call>>>,
            drops: Vec<LinkDrop>,
            seed: u64,
        }

        fn case(gen: &mut Gen) -> Case {
            let n = gen.usize_in(2, 7);
            let phases = gen.usize_in(1, 4);
            // Per phase: 0 — every call is to everyone (all-to-all); 1 —
            // the same, with drops scheduled in it; else random target
            // lists, now and then "everyone" of a run of the wrong size.
            let kinds: Vec<usize> = (0..phases).map(|_| gen.usize_in(0, 4)).collect();
            let mut drops = Vec::new();
            let scripts = (0..n)
                .map(|i| {
                    (1..=phases)
                        .map(|phase| {
                            let kind = kinds[phase - 1];
                            // An all-to-all caller broadcasts 0, 1 or 2 times.
                            (0..gen.usize_in(0, if kind <= 1 { 3 } else { 4 }))
                                .map(|_| {
                                    let all = match kind {
                                        0 | 1 => Some(n),
                                        _ => (gen.usize_in(0, 6) == 0)
                                            .then(|| gen.usize_in(0, n + 3)),
                                    };
                                    let call = Call {
                                        targets: match all {
                                            Some(m) => (0..m as u32).map(ProcessId).collect(),
                                            None => targets(gen, n),
                                        },
                                        all,
                                        value: Value(gen.u64_in(0, 5)),
                                        forged: gen.usize_in(0, 5) == 0,
                                    };
                                    if kind == 0 {
                                        return call;
                                    }
                                    // Drop one target out of the middle of
                                    // a call, now and then a whole call.
                                    let whole = gen.usize_in(0, 6) == 0;
                                    for (k, &to) in call.targets.iter().enumerate() {
                                        if whole || (k == 1 && gen.bool()) {
                                            let from = ProcessId(i as u32);
                                            drops.push(LinkDrop { phase, from, to });
                                        }
                                    }
                                    call
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            Case {
                n,
                phases,
                scripts,
                drops,
                seed: gen.u64(),
            }
        }

        /// Everything a run lets anyone observe.
        #[derive(PartialEq, Debug)]
        struct Observed {
            metrics: Metrics,
            trace: Vec<Vec<Envelope<Chain>>>,
            heard: Vec<Heard>,
            links: Vec<Vec<Link>>,
        }

        /// Runs `case` on a fresh registry. `lossy_wire` plays every phase
        /// over a wire that delivers back to front and loses some links
        /// (the same ones for the same seed). Also returns how many phases
        /// that sent anything the core delivered all-to-all.
        fn observe(
            case: &Case,
            spelling: Spelling,
            threads: usize,
            lossy_wire: bool,
        ) -> (Observed, usize) {
            let registry = KeyRegistry::new(case.n, 5, SchemeKind::Fast);
            let foreign = KeyRegistry::new(case.n, 6, SchemeKind::Fast);
            let heard: Vec<Arc<Mutex<Heard>>> = (0..case.n).map(|_| Arc::default()).collect();
            let actors = (0..case.n)
                .map(|i| {
                    let id = ProcessId(i as u32);
                    Box::new(Scripted {
                        script: case.scripts[i].clone(),
                        spelling,
                        signer: registry.signer(id),
                        forger: foreign.signer(id),
                        verifier: registry.verifier(),
                        heard: heard[i].clone(),
                    }) as Box<dyn Actor<Chain>>
                })
                .collect();
            let mut core = PhaseCore::new(actors, case.drops.clone(), Some(registry));
            let mut wire = SimRng::new(case.seed);
            let (mut trace, mut links, mut dense) = (Vec::new(), Vec::new(), 0);
            for _ in 0..case.phases {
                core.phase_log = Some(Vec::new());
                assert!(core.step(threads).is_empty());
                // The visitor lists the survivors before the route pass
                // (off the staged frames) and after it (off its list).
                let visit = |core: &PhaseCore<Chain>| {
                    let mut visited = Vec::new();
                    core.for_each_link(|from, to| visited.push((from, to)));
                    visited
                };
                links.push(visit(&core));
                if lossy_wire {
                    let survivors = core.links().len();
                    assert_eq!(core.links(), links.last().expect("pushed"));
                    assert_eq!(&visit(&core), links.last().expect("pushed"));
                    let order: Vec<usize> = (0..survivors)
                        .rev()
                        .filter(|_| wire.range_u32(0, 4) != 0)
                        .collect();
                    core.deliver(Some(&order));
                } else {
                    core.deliver(None);
                }
                let log = core.phase_log.take().expect("kept");
                // Values are listed exactly after an all-to-all phase.
                for i in 0..case.n {
                    assert_eq!(core.cur.of(i).chain_values().is_some(), core.dense);
                }
                dense += usize::from(core.dense && !log.is_empty());
                trace.push(log);
            }
            assert!(core.finalize(threads).is_empty());
            let observed = Observed {
                metrics: core.finish().metrics,
                trace,
                heard: heard.iter().map(|h| h.lock().unwrap().clone()).collect(),
                links,
            };
            (observed, dense)
        }

        #[test]
        fn prop_broadcast_is_its_loop_of_sends() {
            let (mut multi, mut lost_inside, mut unheard) = (0usize, 0usize, 0usize);
            let (mut all_to_all, mut odd_sized) = (0usize, 0usize);
            // Half the phases are all-to-all, so twice the cases keep the
            // random-target phases as many as before those were added.
            run_cases(96, 0xB40A_DCA5, |gen| {
                let case = case(gen);
                for lossy_wire in [false, true] {
                    let (reference, indexed) = observe(&case, Spelling::Sends, 1, lossy_wire);
                    assert_eq!(indexed, 0, "the loop of sends is the indexed fill");
                    for threads in [1, 4] {
                        for spelling in [Spelling::List, Spelling::All] {
                            let (framed, dense) = observe(&case, spelling, threads, lossy_wire);
                            let at = format!("{spelling:?} threads={threads} wire={lossy_wire}");
                            assert_eq!(framed, reference, "{at}");
                            if lossy_wire || spelling == Spelling::List {
                                assert_eq!(dense, 0, "only `broadcast_all` is dense: {at}");
                            } else if threads == 1 {
                                all_to_all += dense;
                            }
                        }
                    }
                    unheard += usize::from(reference.metrics.omitted_messages > 0);
                }
                let calls = case.scripts.iter().flatten().flatten();
                let calls: Vec<_> = calls.collect();
                multi += calls.iter().filter(|call| call.targets.len() > 1).count();
                odd_sized += calls
                    .iter()
                    .filter(|c| c.all.is_some_and(|m| m != case.n))
                    .count();
                lost_inside += case.drops.len();
            });
            // The generator really does exercise what the property is about.
            assert!(multi > 200, "{multi} multi-target calls");
            assert!(lost_inside > 100, "{lost_inside} scheduled drops");
            assert!(unheard > 80, "{unheard} runs with omissions");
            assert!(all_to_all > 30, "{all_to_all} phases delivered all-to-all");
            assert!(
                odd_sized > 50,
                "{odd_sized} `broadcast_all`s not of the run's n"
            );
        }
    }
}
