//! The lock-step phase engine.
//!
//! # Data plane
//!
//! Mailboxes live in flat struct-of-arrays arenas (see [`crate::arena`]):
//! each phase's deliveries occupy one contiguous [`Inboxes`] buffer
//! partitioned by an offsets table, double-buffered and swapped at the
//! phase barrier; each worker stages its actors' sends into one
//! [`Segment`] buffer in (actor, send-seq) order. Every arena retains its
//! capacity across phases, so a steady-state phase allocates nothing.
//!
//! # Intra-phase parallelism
//!
//! In the lock-step model actors are independent *within* a phase — every
//! actor only reads its own inbox (frozen at the barrier) and writes its
//! own outbox. [`Simulation::with_threads`] exploits this by stepping
//! contiguous actor chunks on the persistent [`WorkerPool`] — long-lived
//! threads parked between phases, replacing the seed engine's
//! spawn-per-phase `std::thread::scope` (whose thread churn made parallel
//! stepping *lose* to sequential). Everything order-sensitive stays on the
//! calling thread: staged envelopes are routed (and metrics/trace
//! recorded) strictly in actor-id order after the barrier — worker
//! segments cover ascending actor ranges, so walking segments in order
//! reproduces the sequential send order exactly — making `Metrics`, the
//! trace and every decision byte-identical for any thread count. Per-phase
//! crypto counters stay identical too: each chunk measures its own
//! thread-local [`CryptoStats`] delta (the sum over chunks is
//! schedule-independent), and a run wired to a [`KeyRegistry`] via
//! [`Simulation::with_registry`] puts the shared verifier cache into
//! deferred phase-snapshot mode, so intra-phase cache lookups see only the
//! state frozen at the previous barrier regardless of scheduling.
//!
//! # Barrier verification
//!
//! A run wired to a [`KeyRegistry`] verifies signature chains at the
//! barrier, not at the receivers: after routing, the engine hands the next
//! phase's inbox arena to [`Chain::verify_at_barrier`], which verifies each
//! *unique* chain once (deduplicated by shared signature storage — a
//! broadcast fan-out is one entry) and stamps the chain's buffer as
//! verified under this run's registry. When recipients call
//! [`Chain::verify`] during the next phase, the stamp short-circuits to a
//! cache hit — so a Dolev–Strong phase delivering O(n²) envelopes pays
//! crypto for O(unique chains) instead of O(n²) full verifications. A chain
//! that fails at the barrier is left unstamped and every recipient's own
//! `verify` rejects it. The barrier's work is attributed to the phase in
//! which the messages are delivered, and the counters are byte-identical
//! across thread counts — the pass runs on the calling thread in delivery
//! order. `ba_net`'s phase driver runs the same pass at its flush boundary.
//!
//! [`Simulation::with_batched_verification`]`(false)` switches the pass off
//! so every recipient verifies every delivery in full: the reference the
//! tests compare against. Accept/reject outcomes, decisions, message counts
//! and traces are the same on both sides; only the `crypto` work counters
//! differ.

use crate::actor::{Actor, Envelope, Outbox, Payload};
use crate::arena::{Inboxes, Segment};
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::schedule::LinkDrop;
use crate::trace::{PhaseTrace, Trace};
use crate::transport::{Fate, ScheduledDrops, Transport};
use ba_crypto::keys::KeyRegistry;
use ba_crypto::stats::CryptoStats;
use ba_crypto::{Chain, ProcessId, Value};
use std::collections::{BTreeSet, HashSet};
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

/// A per-phase observer: called with the phase number and that phase's
/// sent envelopes (see [`Simulation::with_observer`]).
pub type PhaseObserver<P> = Box<dyn FnMut(usize, &[Envelope<P>])>;

/// A synchronous simulation of `n` processors.
///
/// Phases execute in lock step: at phase `k` every actor is stepped (in id
/// order) with the messages addressed to it during phase `k − 1`; the
/// messages it stages are delivered at phase `k + 1`. After the last phase,
/// [`Actor::finalize`] delivers the final inbox and decisions are read.
///
/// See the [crate docs](crate) for a complete example.
pub struct Simulation<P: Payload> {
    actors: Vec<Box<dyn Actor<P>>>,
    record_trace: bool,
    observer: Option<PhaseObserver<P>>,
    threads: usize,
    registry: Option<KeyRegistry>,
    link_drops: BTreeSet<LinkDrop>,
    transport: Option<Box<dyn Transport>>,
    batch_verify: bool,
}

impl<P: Payload> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.actors.len())
            .field("record_trace", &self.record_trace)
            .field("threads", &self.threads)
            .field("batch_verify", &self.batch_verify)
            .finish()
    }
}

impl<P: Payload> Simulation<P> {
    /// Creates a simulation over `actors`; actor `i` is processor `i`.
    pub fn new(actors: Vec<Box<dyn Actor<P>>>) -> Self {
        Simulation {
            actors,
            record_trace: false,
            observer: None,
            threads: 1,
            registry: None,
            link_drops: BTreeSet::new(),
            transport: None,
            batch_verify: true,
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
    /// under. The engine verifies every delivered chain against it at the
    /// phase barrier (see the [module docs](self)), and for the duration
    /// of the run its verifier cache operates in deferred phase-snapshot
    /// mode (flushed at every phase barrier), which makes the per-phase
    /// cache hit/miss counters independent of how actors are scheduled
    /// within a phase. Required for byte-identical `Metrics` across thread
    /// counts when actors verify chains; runs whose payloads carry no keys
    /// don't need it.
    pub fn with_registry(mut self, registry: &KeyRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Declares scheduled link drops: an envelope sent from `drop.from` to
    /// `drop.to` during phase `drop.phase` is suppressed at the routing
    /// barrier — it is never delivered, traced or counted as sent, only
    /// accounted under [`Metrics::omitted_messages`]. Dropping happens on
    /// the calling thread in actor-id order, so results stay byte-identical
    /// for any thread count. Fault schedules use this to model a faulty
    /// sender omitting specific links in specific phases without touching
    /// the actor itself.
    ///
    /// [`Metrics::omitted_messages`]: crate::metrics::Metrics::omitted_messages
    pub fn with_link_drops(mut self, drops: impl IntoIterator<Item = LinkDrop>) -> Self {
        self.link_drops.extend(drops);
        self
    }

    /// Injects a [`Transport`] consulted for every staged envelope that
    /// survives the scheduled link drops. An [`Fate::Omit`] verdict is
    /// accounted exactly like a scheduled drop: the send happened (the
    /// system is not quiescent) but nothing is delivered, traced or
    /// counted as sent — only [`Metrics::omitted_messages`] grows.
    ///
    /// The transport runs on the calling thread in actor-id order (see the
    /// [`transport`](crate::transport) module docs), so stateful policies
    /// such as [`Flaky`](crate::transport::Flaky) stay byte-identical for
    /// any worker-thread count. Defaults to
    /// [`Reliable`](crate::transport::Reliable).
    ///
    /// [`Metrics::omitted_messages`]: crate::metrics::Metrics::omitted_messages
    pub fn with_transport(mut self, transport: impl Transport + 'static) -> Self {
        self.transport = Some(Box::new(transport));
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
        self.batch_verify = batch;
        self
    }

    /// Registers an observer called after every phase with that phase's
    /// sent envelopes (before delivery) — live invariant checks, progress
    /// displays, per-phase assertions in tests.
    pub fn with_observer(mut self, observer: PhaseObserver<P>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// Runs exactly `phases` phases and returns the outcome.
    pub fn run(&mut self, phases: usize) -> RunOutcome<P> {
        self.run_inner(phases, false)
    }

    /// Runs at most `max_phases` phases, stopping early once a phase
    /// produces no messages at all (the system is quiescent). Useful for
    /// measuring how many phases a protocol actually uses.
    pub fn run_until_quiescent(&mut self, max_phases: usize) -> RunOutcome<P> {
        self.run_inner(max_phases, true)
    }

    fn run_inner(&mut self, phases: usize, stop_when_quiet: bool) -> RunOutcome<P> {
        let n = self.actors.len();
        let correct: Vec<bool> = self.actors.iter().map(|a| a.is_correct()).collect();
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();

        let (chunk_size, chunks) = chunk_geometry(n, self.threads);
        // Double-buffered inbox arenas: `cur` holds messages delivered to
        // actors this phase, `nxt` collects deliveries for phase k + 1;
        // the pair swaps at the barrier. One staging segment per worker
        // chunk.
        let mut cur: Inboxes<P> = Inboxes::new(n);
        let mut nxt: Inboxes<P> = Inboxes::new(n);
        let mut segments: Vec<Segment<P>> = (0..chunks).map(|_| Segment::new()).collect();
        // Routing scratch, recycled across phases: per-envelope delivery
        // fates (in deterministic merge order), per-recipient delivery
        // counts, and the scatter cursors.
        let mut fates: Vec<bool> = Vec::new();
        let mut counts: Vec<usize> = vec![0; n];
        let mut cursors: Vec<usize> = Vec::new();
        // Barrier-verification scratch: unique chains seen this barrier.
        let mut seen_chains = HashSet::new();
        // Barrier crypto work carried into the phase where the verified
        // messages are delivered.
        let mut carry_crypto = CryptoStats::default();
        let mut executed = 0usize;

        if let Some(registry) = &self.registry {
            registry.cache().set_deferred(true);
        }

        // The routing policy: scheduled link drops are checked first, then
        // the injected transport (default: deliver everything). Both run
        // on this thread in actor-id order, keeping results byte-identical
        // for any worker-thread count.
        let mut scheduled = ScheduledDrops::new(self.link_drops.iter().copied());

        let keep_phase_log = self.record_trace || self.observer.is_some();
        for phase in 1..=phases {
            executed = phase;
            let mut phase_trace = PhaseTrace::default();
            let mut any_sent = false;

            let mut phase_crypto = self.step_phase(phase, chunk_size, &cur, &mut segments);
            phase_crypto = phase_crypto.add(&std::mem::take(&mut carry_crypto));

            // Route strictly in actor-id order on this thread — the single
            // point where ordering matters, so metrics, trace and delivery
            // order are independent of how the stepping was scheduled.
            // Pass A: decide fates, account, count per recipient.
            fates.clear();
            counts.fill(0);
            for (w, seg) in segments.iter().enumerate() {
                let base = w * chunk_size;
                for (j, staged_run, omitted) in seg.per_actor_runs() {
                    let i = base + j;
                    metrics.record_omitted(phase, omitted);
                    for env in staged_run {
                        let to = env.to.index();
                        if to >= n {
                            // Sends to nonexistent processors are dropped;
                            // a correct protocol never does this, an
                            // adversary may.
                            fates.push(false);
                            continue;
                        }
                        let fate = if scheduled.admit(phase, env.from, env.to) == Fate::Omit {
                            Fate::Omit
                        } else if let Some(transport) = self.transport.as_mut() {
                            transport.admit(phase, env.from, env.to)
                        } else {
                            Fate::Deliver
                        };
                        if fate == Fate::Omit {
                            // The transport suppresses this link this
                            // phase: the processor still "sent" (the
                            // system is not quiet), but nothing reaches
                            // the wire.
                            any_sent = true;
                            metrics.record_omitted(phase, 1);
                            fates.push(false);
                            continue;
                        }
                        any_sent = true;
                        metrics.record_send(
                            phase,
                            correct[i],
                            env.payload.signature_count(),
                            env.payload.weight_bytes(),
                            env.payload.payload_bytes(),
                            env.payload.kind(),
                        );
                        if keep_phase_log {
                            phase_trace.envelopes.push(env.clone());
                        }
                        counts[to] += 1;
                        fates.push(true);
                    }
                }
            }
            // Passes B + C: prefix-sum the offsets and scatter every
            // delivered envelope into the next phase's contiguous arena.
            nxt.fill_from(&mut segments, &fates, &counts, &mut cursors);

            metrics.record_phase_crypto(phase, phase_crypto);
            if let Some(observer) = &mut self.observer {
                observer(phase, &phase_trace.envelopes);
            }
            if self.record_trace {
                trace.phases.push(phase_trace);
            }
            if let Some(registry) = &self.registry {
                registry.cache().flush_pending();
                // Barrier verification, then publish its digests so next
                // phase's lookups (for anything unstamped) still benefit.
                if self.batch_verify {
                    carry_crypto = Chain::verify_at_barrier(
                        nxt.iter().filter_map(|env| env.payload.batch_chain()),
                        &registry.verifier(),
                        &mut seen_chains,
                    );
                    registry.cache().flush_pending();
                }
            }

            // Phase barrier: consumed inboxes become next phase's
            // collection arena, every buffer keeping its capacity.
            std::mem::swap(&mut cur, &mut nxt);
            nxt.clear();

            if stop_when_quiet && !any_sent {
                break;
            }
        }

        // Deliver the last phase's messages (sequentially: finalize is
        // cheap and order-stable accounting matters more than speed here).
        // Barrier work for these deliveries is absorbed with it.
        let crypto_before = CryptoStats::snapshot();
        for (i, actor) in self.actors.iter_mut().enumerate() {
            actor.finalize(cur.of(i));
        }
        let finalize_crypto = CryptoStats::snapshot().since(&crypto_before);
        metrics.absorb_crypto(finalize_crypto.add(&carry_crypto));

        if let Some(registry) = &self.registry {
            registry.cache().set_deferred(false);
        }

        metrics.phases = executed;
        RunOutcome {
            decisions: self.actors.iter().map(|a| a.decision()).collect(),
            correct,
            metrics,
            trace,
        }
    }

    /// Steps every actor once for `phase`, staging each worker chunk's
    /// sends into its segment; returns the phase's total stepping crypto
    /// delta (see [`step_chunks`]).
    fn step_phase(
        &mut self,
        phase: usize,
        chunk_size: usize,
        cur: &Inboxes<P>,
        segments: &mut [Segment<P>],
    ) -> CryptoStats {
        step_chunks(
            &mut self.actors,
            chunk_size,
            segments,
            |base, actors, segment| step_chunk(actors, base, phase, cur, segment),
        )
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

/// The intra-phase fan-out every phase driver in the workspace steps its
/// actors through: `actors` is cut into contiguous ascending chunks of
/// `chunk_size` (see [`chunk_geometry`]; one sink per chunk), and
/// `step(base, chunk, sink)` runs once per chunk with `base` the id of the
/// chunk's first actor. A single chunk runs inline — no pool, no lock;
/// otherwise chunks are dispatched onto the process-shared [`WorkerPool`],
/// each chunk measuring its own thread-local [`CryptoStats`] delta. Returns
/// the summed delta, which is schedule-independent: the per-chunk work is
/// deterministic and the sum is order-free. A panic in `step` resumes on the
/// caller after every chunk has quiesced; callers that contain actor panics
/// catch them inside `step`.
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
/// staging every actor's sends into `segment` in (actor, send-seq) order.
fn step_chunk<P: Payload>(
    actors: &mut [Box<dyn Actor<P>>],
    base: usize,
    phase: usize,
    cur: &Inboxes<P>,
    segment: &mut Segment<P>,
) {
    segment.begin_phase();
    let mut buf = std::mem::take(&mut segment.staged);
    for (j, actor) in actors.iter_mut().enumerate() {
        let i = base + j;
        let mut out = Outbox::resume(ProcessId(i as u32), buf);
        actor.step(phase, cur.of(i), &mut out);
        let omitted = out.omitted_count();
        buf = out.into_staged();
        segment.per_actor.push((buf.len(), omitted));
    }
    segment.staged = buf;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Outbox;

    /// Floods `Value` to everyone each phase until `stop_after`.
    #[derive(Debug)]
    struct Flooder {
        n: usize,
        value: Value,
        stop_after: usize,
    }

    impl Actor<Value> for Flooder {
        fn step(&mut self, phase: usize, _inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
            if phase <= self.stop_after {
                out.broadcast((0..self.n as u32).map(ProcessId), self.value);
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
        fn step(&mut self, phase: usize, inbox: &[Envelope<Value>], _out: &mut Outbox<Value>) {
            self.phase = phase;
            for env in inbox {
                self.heard.push((phase, env.payload));
                self.decided.get_or_insert(env.payload);
            }
        }
        fn finalize(&mut self, inbox: &[Envelope<Value>]) {
            for env in inbox {
                self.heard.push((self.phase + 1, env.payload));
                self.decided.get_or_insert(env.payload);
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
        let outcome = sim.run_until_quiescent(100);
        // Phases 1,2 send; phase 3 sends nothing and stops the run.
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
            fn step(&mut self, _p: usize, _i: &[Envelope<Value>], out: &mut Outbox<Value>) {
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
    /// registry (exercising the verifier cache), endorses the longest one
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
            inbox: &[Envelope<ba_crypto::Chain>],
            out: &mut Outbox<ba_crypto::Chain>,
        ) {
            if phase == 1 && out.sender() == ProcessId(0) && !self.relayed {
                self.relayed = true;
                let mut chain = ba_crypto::Chain::new(7, Value::ONE);
                chain.sign_and_append(&self.signer);
                self.accepted = Some(chain.value());
                out.broadcast((0..self.n as u32).map(ProcessId), chain);
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
                    out.broadcast((0..self.n as u32).map(ProcessId), chain);
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
        // Fresh registry per run: the shared verifier cache starts cold, so
        // cache counters are comparable across runs.
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
            assert_eq!(run.trace.len(), baseline.trace.len(), "threads={threads}");
            for (k, (a, b)) in run
                .trace
                .phases
                .iter()
                .zip(baseline.trace.phases.iter())
                .enumerate()
            {
                assert_eq!(a.envelopes, b.envelopes, "threads={threads} phase={k}");
            }
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
        // verified once per barrier instead of once per recipient —
        // deferred-mode recipients can't see each other's intra-phase
        // verifications, so per-delivery pays per recipient).
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
        for (a, b) in batched
            .trace
            .phases
            .iter()
            .zip(per_delivery.trace.phases.iter())
        {
            assert_eq!(a.envelopes, b.envelopes);
        }
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
        fn step(&mut self, phase: usize, _inbox: &[Envelope<Chain>], out: &mut Outbox<Chain>) {
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
        let sans_crypto = |metrics: &Metrics| {
            let mut m = metrics.clone();
            m.crypto = CryptoStats::default();
            for phase in &mut m.per_phase {
                (phase.hash_invocations, phase.sig_verifications) = (0, 0);
            }
            m
        };

        let reference = run(false);
        let barrier = run(true);
        let mut expected = vec![Some(Value::ONE); n];
        expected[0] = None;
        assert_eq!(barrier.decisions, expected);
        assert_eq!(barrier.decisions, reference.decisions);
        assert_eq!(barrier.correct, reference.correct);
        assert_eq!(
            sans_crypto(&barrier.metrics),
            sans_crypto(&reference.metrics)
        );
        for (a, b) in barrier.trace.phases.iter().zip(&reference.trace.phases) {
            assert_eq!(a.envelopes, b.envelopes);
        }
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
            sim.run_until_quiescent(100)
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
            let mut sim = Simulation::new(vec![
                Box::new(Flooder {
                    n: 3,
                    value: Value(5),
                    stop_after: 2,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ])
            .with_trace()
            .with_link_drops(drops);
            sim.run(2)
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
            let mut sim = Simulation::new(vec![
                Box::new(Flooder {
                    n: 4,
                    value: Value(3),
                    stop_after: 2,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ])
            .with_trace()
            .with_threads(threads)
            .with_link_drops([
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
            ]);
            sim.run(2)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.metrics.omitted_messages, 2);
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.decisions, seq.decisions);
        for (a, b) in par.trace.phases.iter().zip(seq.trace.phases.iter()) {
            assert_eq!(a.envelopes, b.envelopes);
        }
    }

    #[test]
    fn injected_transport_composes_with_link_drops() {
        use crate::transport::{Fate, Transport};
        // A transport that censors everything addressed to p2.
        #[derive(Debug)]
        struct CensorP2;
        impl Transport for CensorP2 {
            fn admit(&mut self, _phase: usize, _from: ProcessId, to: ProcessId) -> Fate {
                if to == ProcessId(2) {
                    Fate::Omit
                } else {
                    Fate::Deliver
                }
            }
        }
        let mut sim = Simulation::new(vec![
            Box::new(Flooder {
                n: 3,
                value: Value(5),
                stop_after: 2,
            }) as Box<dyn Actor<Value>>,
            Box::new(Listener::default()),
            Box::new(Listener::default()),
        ])
        .with_trace()
        .with_transport(CensorP2)
        .with_link_drops([LinkDrop {
            phase: 1,
            from: ProcessId(0),
            to: ProcessId(1),
        }]);
        let outcome = sim.run(2);
        // Phase 1: sends to p1 (scheduled drop) and p2 (transport omit);
        // phase 2: p1 delivered, p2 omitted again — 3 omissions, 1 send.
        assert_eq!(outcome.metrics.omitted_messages, 3);
        assert_eq!(outcome.metrics.messages_by_correct, 1);
        assert_eq!(outcome.decisions[1], Some(Value(5)));
        assert_eq!(outcome.decisions[2], None, "p2 never hears anything");
        assert_eq!(outcome.trace.message_count(), 1);
    }

    #[test]
    fn flaky_transport_is_seed_deterministic_across_thread_counts() {
        use crate::transport::Flaky;
        let run = |threads: usize, seed: u64| {
            let mut sim = Simulation::new(vec![
                Box::new(Flooder {
                    n: 4,
                    value: Value(9),
                    stop_after: 3,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ])
            .with_threads(threads)
            .with_transport(Flaky::new(seed, 400));
            sim.run(3)
        };
        let seq = run(1, 7);
        let par = run(4, 7);
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.decisions, par.decisions);
        assert!(seq.metrics.omitted_messages > 0, "40% loss drops something");
        assert!(
            seq.metrics.messages_by_correct > 0,
            "and delivers something"
        );
        assert_eq!(
            seq.metrics.messages_by_correct + seq.metrics.omitted_messages,
            9,
            "every staged envelope is either sent or omitted"
        );
    }

    /// Satellite: `run_until_quiescent` under scheduled link drops — the
    /// run still quiesces (drops must not make the engine think traffic is
    /// pending), and the `sent + omitted` totals are identical for any
    /// worker-thread count.
    #[test]
    fn quiescence_under_link_drops_is_reached_and_thread_independent() {
        let run = |threads: usize| {
            let mut sim = Simulation::new(vec![
                Box::new(Flooder {
                    n: 4,
                    value: Value(2),
                    stop_after: 3,
                }) as Box<dyn Actor<Value>>,
                Box::new(Listener::default()),
                Box::new(Listener::default()),
                Box::new(Listener::default()),
            ])
            .with_threads(threads)
            .with_link_drops([
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
            ]);
            sim.run_until_quiescent(100)
        };
        let baseline = run(1);
        // The flooder stops after phase 3; phase 4 is quiet and ends the
        // run well before the 100-phase cap.
        assert_eq!(baseline.metrics.phases, 4);
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

    #[test]
    fn correct_flags_flow_to_outcome() {
        #[derive(Debug)]
        struct Faulty;
        impl Actor<Value> for Faulty {
            fn step(&mut self, _p: usize, _i: &[Envelope<Value>], out: &mut Outbox<Value>) {
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
}
