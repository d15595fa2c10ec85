//! `ba-svc`: the multi-instance BA service — many concurrent agreement
//! instances over one wire and one worker pool, behind an open-loop
//! session API with explicit admission control.
//!
//! The paper bounds the information exchange of a *single* agreement; a
//! serving system runs one instance per client request, amortizes the
//! fixed machinery across all of them, and — crucially — keeps accepting
//! requests while earlier ones are still deciding. This module is that
//! layer:
//!
//! * **Session API** — [`BaService::session`] opens a long-lived
//!   [`SvcSession`]: [`submit`](SvcSession::submit) offers one
//!   [`InstanceSpec`] and returns a [`Ticket`] (or a structured
//!   [`AdmissionError`]), [`tick`](SvcSession::tick) advances every
//!   in-flight instance one phase, [`try_outcome`](SvcSession::try_outcome)
//!   polls a ticket for settlement, and [`drain`](SvcSession::drain) runs
//!   the session to quiescence and produces the [`SvcReport`].
//! * **Admission control & backpressure** — a bounded queue
//!   ([`SvcConfig::queue_capacity`]) guards [`SvcConfig::max_inflight`].
//!   When the queue is full the session applies its [`AdmissionPolicy`] —
//!   reject, shed-oldest, or block-with-deadline — and every submission,
//!   accepted or refused, is recorded as a structured [`AdmissionVerdict`]
//!   in the session's admission log. Backpressure never panics and never
//!   drops silently: a shed instance leaves a [`ShedOutcome`], and the
//!   report's accounting is exact (`submitted = decided + degraded +
//!   shed`).
//! * **Open-loop arrivals** — [`PoissonArrivals`] is a seeded Poisson
//!   process over service ticks, so benchmarks and tests can offer
//!   sustained load (λ instances per tick) instead of a fixed batch, and
//!   measure steady-state agreements/sec plus submission-to-decision
//!   latency (queue wait included) rather than batch-relative figures.
//! * **Pipelined phases** — each [`tick`](SvcSession::tick) admits up to
//!   [`SvcConfig::admit_per_tick`] queued instances and advances *every*
//!   in-flight instance by one phase, so instance `k + 1`'s phase 1
//!   overlaps instance `k`'s phase 2: the coordination cost of a tick (one
//!   pool fan-out) is paid once for the whole fleet.
//! * **Shared-wire batching** — all instances' frames for one directed
//!   link share a single flush per tick. The session *counts* them — each
//!   driver's links, visited through
//!   [`PhaseCore::for_each_link`](ba_sim::PhaseCore::for_each_link) (a
//!   reliable instance builds no list of them), summed per directed link,
//!   one
//!   [`NetStats::note_flush`] per link ([`NetStats::flushes`]; the
//!   standalone runtime's one-send-per-frame behaviour shows up as
//!   `solo_flushes`) — and never holds a frame: frames stay in their
//!   instance's arena from staging to inbox.
//! * **Barrier verification at the flush boundary** — like every driver,
//!   the service verifies each distinct signed object (a chain, a coded
//!   chunk) a flush delivers *once* against the instance's
//!   [`InstanceSpec::registry`] and stamps its shared storage
//!   ([`ba_crypto::stamp`]), so all `n` recipients' own checks are O(1)
//!   stamp hits. On a reliable wire the flush is the lock-step phase: the
//!   driver plays no wire, and a phase of `broadcast_all`s takes the
//!   engine's all-to-all fill.
//! * **Per-instance verdicts** — chaos fates, retransmission state, fault
//!   budgets and degradation are all tracked per instance: one instance
//!   blowing its budget — or one whose actor panics mid-step — yields
//!   *its own* [`DegradationVerdict`] while the rest of the fleet keeps
//!   deciding.
//!
//! # One driver
//!
//! Every in-flight ticket owns one phase driver (the crate-private
//! `driver` module: [`ba_sim::PhaseCore`] plus the wire, or its known
//! answer when the profile is reliable) — the same code a
//! standalone [`NetRuntime`](crate::runtime::NetRuntime) runs as its single
//! instance. The session adds only what is fleet-level: tickets and
//! timestamps, admission, and the per-link flush count between a driver's
//! step and its wire delivery.
//!
//! # Determinism
//!
//! Each instance draws its chaos fates from a private rng seeded
//! [`instance_seed`]`(profile.seed, ticket)`; a standalone run seeds the
//! same driver with its profile's seed directly. A multiplexed instance
//! is therefore byte-identical — decisions, suspicion, wire statistics —
//! to a standalone run under
//! [`ChaosProfile::reseeded`]`(instance_seed(seed, ticket))`, at any
//! worker count: batching changes *when* frames share a physical flush,
//! never which frames exist or what fate each one rolls. Each instance
//! verifies against its own [`InstanceSpec::registry`] and shares nothing
//! with its neighbours, so its `Metrics`, crypto counters included, are
//! the standalone run's too. Admission is
//! deterministic too: the same submission schedule (which `submit`/`tick`
//! calls in which order) yields the same tickets, the same admission
//! verdicts and the same shed set, at any worker count — only wall-clock
//! durations vary.
//!
//! # Example
//!
//! ```
//! use ba_net::{AdmissionPolicy, BaService, InstanceSpec, SvcConfig};
//! use ba_crypto::{ProcessId, Value};
//! use ba_sim::actor::{Actor, Inbox, Outbox};
//!
//! #[derive(Debug)]
//! struct Echo(Value);
//! impl Actor<Value> for Echo {
//!     fn step(&mut self, _phase: usize, _inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
//!         out.send(ProcessId(0), self.0);
//!     }
//!     fn decision(&self) -> Option<Value> { Some(self.0) }
//! }
//!
//! let service = BaService::new(SvcConfig::new().with_admission(AdmissionPolicy::Reject));
//! let mut session = service.session::<Value>();
//! let ticket = session
//!     .submit(InstanceSpec {
//!         actors: vec![Box::new(Echo(Value::ONE))],
//!         phases: 1,
//!         fault_budget: 0,
//!         link_drops: vec![],
//!         registry: None,
//!     })
//!     .expect("queue has room");
//! let report = session.drain();
//! assert_eq!(report.outcomes[0].ticket(), ticket);
//! assert!(report.accounting_balanced());
//! ```

use crate::chaos::ChaosProfile;
pub use crate::driver::InstanceRun;
use crate::driver::PhaseDriver;
use crate::verdict::{
    AdmissionError, AdmissionVerdict, DegradationVerdict, NetStats, ShedOutcome, Ticket,
};
use crate::wire::WireScratch;
use ba_crypto::rng::{splitmix64, SimRng};
use ba_sim::{InstanceSpec, Payload, QueueStats, WorkerPool};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Derives one BA instance's private chaos seed from the fleet profile's
/// base seed. `instance` is the instance's ticket number — dense from 0 in
/// *submission* order, so a ticket that is later shed still consumed its
/// seed slot and the surviving instances' streams are unaffected by the
/// shed.
///
/// For one fixed `base` the map `instance → seed` is injective: the
/// multiplier is odd (so `instance * M` never collides modulo 2⁶⁴), the
/// XOR with `base` preserves distinctness, and [`splitmix64`] is a
/// bijection on `u64`. Two instances under one base seed therefore *never*
/// share a chaos rng stream — the property the per-instance determinism
/// contract rests on (see the collision test in this module). Distinct
/// `base` values may collide with each other's instance seeds; only the
/// within-fleet guarantee is load-bearing.
///
/// A standalone run under
/// [`ChaosProfile::reseeded`]`(instance_seed(base, instance))` sees the
/// exact fate stream the multiplexed instance sees.
pub fn instance_seed(base: u64, instance: u64) -> u64 {
    let mut state = base ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// A seeded Poisson arrival process over service ticks: call
/// [`next`](PoissonArrivals::next) once per tick to learn how many
/// instances arrive during that tick. Drives open-loop load generation —
/// arrivals are independent of service state, which is exactly what makes
/// saturation (and the backpressure policy's reaction to it) observable.
///
/// The generator is deterministic for a given `(seed, rate)`: the same
/// schedule replays byte-identically, so open-loop runs can be asserted
/// deterministic across worker counts. Sampling uses Knuth's product
/// method, which is exact and costs O(λ) uniforms per tick — fine for the
/// per-tick rates a service tick loop meters (λ ≲ 64).
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    rng: SimRng,
    rate: f64,
    /// `e^{-λ}`, precomputed.
    threshold: f64,
}

impl PoissonArrivals {
    /// Creates a process with mean `rate` arrivals per tick.
    ///
    /// # Panics
    /// Panics when `rate` is negative or not finite.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "arrival rate must be finite and non-negative, got {rate}"
        );
        PoissonArrivals {
            rng: SimRng::new(seed),
            rate,
            threshold: (-rate).exp(),
        }
    }

    /// The configured mean arrivals per tick.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples the number of arrivals in the next tick.
    pub fn next_arrivals(&mut self) -> usize {
        if self.rate == 0.0 {
            return 0;
        }
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            // Uniform in [0, 1) with the full 53 bits of double precision.
            p *= (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if p <= self.threshold {
                return k;
            }
            k += 1;
        }
    }
}

impl Iterator for PoissonArrivals {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(self.next_arrivals())
    }
}

/// What a session does when a submission finds the admission queue full.
/// Whatever the policy, the outcome is a structured value — an
/// [`AdmissionVerdict`] in the log, an [`AdmissionError`] to the caller, a
/// [`ShedOutcome`] for an evicted ticket — never a panic, never a silent
/// drop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Refuse the new submission with [`AdmissionError::QueueFull`]. The
    /// default: the caller owns the retry policy.
    #[default]
    Reject,
    /// Evict the *oldest queued* (never in-flight) ticket to make room,
    /// recording its [`ShedOutcome`], and accept the new submission —
    /// freshest-work-wins load shedding.
    ShedOldest,
    /// Tick the session from inside `submit` until a queue slot frees or
    /// `deadline_ticks` service ticks elapse, then refuse with
    /// [`AdmissionError::DeadlineExpired`]. Because every tick advances
    /// all in-flight instances one phase (and instances settle within
    /// their phase count), waiting always makes progress — the deadline
    /// bounds the wait, it does not paper over a deadlock.
    BlockWithDeadline {
        /// Maximum service ticks one submission may wait.
        deadline_ticks: u64,
    },
}

/// Tuning knobs for the service layer. Construct with
/// [`SvcConfig::new`]/[`default`](SvcConfig::default) and the `with_*`
/// builders — the struct is `#[non_exhaustive]` because its surface keeps
/// growing with the service layer.
///
/// Defaults: `threads = 1`, `max_inflight = 64`, `admit_per_tick = 8`,
/// `queue_capacity = 64`, `admission = AdmissionPolicy::Reject`. Every
/// instance's wire plays the standalone runtime's retry policy (4
/// retransmissions, 128 ticks per phase).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SvcConfig {
    /// Worker threads (pool participants) stepping instances each tick;
    /// instances are the unit of parallelism.
    pub threads: usize,
    /// Maximum instances in flight at once; arrivals beyond this queue.
    pub max_inflight: usize,
    /// Instances admitted from the queue per service tick.
    pub admit_per_tick: usize,
    /// Bound on the admission queue (submitted but not yet in flight);
    /// submissions past it trigger the [`AdmissionPolicy`].
    pub queue_capacity: usize,
    /// What to do when the admission queue is full.
    pub admission: AdmissionPolicy,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            threads: 1,
            max_inflight: 64,
            admit_per_tick: 8,
            queue_capacity: 64,
            admission: AdmissionPolicy::Reject,
        }
    }
}

impl SvcConfig {
    /// The default configuration; chain `with_*` builders to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count for per-tick instance stepping.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the in-flight instance cap.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Sets how many queued instances each tick may admit.
    pub fn with_admit_per_tick(mut self, admit_per_tick: usize) -> Self {
        self.admit_per_tick = admit_per_tick;
        self
    }

    /// Sets the admission-queue bound.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the backpressure policy applied when the queue is full.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// One instance's journey through the service: tick-precise and
/// wall-clock-precise timestamps for submission, admission and settlement,
/// plus the result. Wall-clock timestamps are offsets from the session's
/// start, so a streaming consumer can order and subtract them without
/// holding the session.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    /// The instance id (submission order, dense from 0).
    pub id: u64,
    /// Service tick at which the instance was submitted (entered the
    /// queue).
    pub submitted_tick: u64,
    /// Service tick at which it was admitted into flight.
    pub admitted_tick: u64,
    /// Service tick at which it decided or degraded.
    pub settled_tick: u64,
    /// Wall-clock submission time, as an offset from session start.
    pub submitted_at: Duration,
    /// Wall-clock admission time, as an offset from session start.
    pub admitted_at: Duration,
    /// Wall-clock settlement time, as an offset from session start.
    pub decided_at: Duration,
    /// The decisions, or this instance's own degradation verdict — other
    /// instances are unaffected either way.
    pub result: Result<InstanceRun, Box<DegradationVerdict>>,
}

impl InstanceOutcome {
    /// The ticket this outcome settles.
    pub fn ticket(&self) -> Ticket {
        Ticket(self.id)
    }

    /// Submission-to-decision latency — the figure an open-loop client
    /// experiences, queue wait included.
    pub fn latency(&self) -> Duration {
        self.decided_at.saturating_sub(self.submitted_at)
    }

    /// Time spent waiting in the admission queue.
    pub fn queue_wait(&self) -> Duration {
        self.admitted_at.saturating_sub(self.submitted_at)
    }

    /// Admission-to-decision service time (the pre-session notion of
    /// latency, which ignored queueing).
    pub fn service_time(&self) -> Duration {
        self.decided_at.saturating_sub(self.admitted_at)
    }
}

/// What one service session produced.
#[derive(Debug)]
pub struct SvcReport {
    /// Every settled instance's outcome, in submission order. Shed tickets
    /// are *not* here — they are in [`shed`](SvcReport::shed).
    pub outcomes: Vec<InstanceOutcome>,
    /// Every ticket evicted by shed-oldest backpressure, in ticket order.
    pub shed: Vec<ShedOutcome>,
    /// One verdict per `submit` call, in call order — the complete
    /// admission audit trail, refusals included.
    pub admission_log: Vec<AdmissionVerdict>,
    /// Queue-side accounting: submissions, admissions, sheds, rejections,
    /// blocking waits and depth statistics.
    pub queue: QueueStats,
    /// Fleet-wide wire statistics: per-instance stats absorbed together,
    /// plus the flush-coalescing counters only the service can observe.
    pub stats: NetStats,
    /// Service ticks executed.
    pub ticks: u64,
    /// Wall-clock duration of the whole session.
    pub elapsed: Duration,
    /// The most instances ever in flight at once.
    pub peak_inflight: usize,
}

impl SvcReport {
    /// Instances that decided.
    pub fn decided(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Instances that degraded with their own verdict.
    pub fn degraded(&self) -> usize {
        self.outcomes.len() - self.decided()
    }

    /// Tickets shed by backpressure.
    pub fn shed_count(&self) -> usize {
        self.shed.len()
    }

    /// Tickets issued over the session's lifetime (shed ones included;
    /// refused submissions are not, because they never got a ticket).
    pub fn submitted(&self) -> usize {
        self.outcomes.len() + self.shed.len()
    }

    /// The exact-accounting invariant every drained session must satisfy:
    /// `submitted = decided + degraded + shed`. Nothing a session accepted
    /// may vanish without a structured record.
    pub fn accounting_balanced(&self) -> bool {
        self.submitted() == self.decided() + self.degraded() + self.shed_count()
            && self.queue.submitted == self.submitted() as u64
            && self.queue.shed == self.shed.len() as u64
    }

    /// Iterates settled outcomes in submission order — the
    /// streaming-friendly accessor: each item carries its own
    /// `submitted_at`/`decided_at` timestamps, so consumers need no
    /// batch-level context.
    pub fn outcomes_iter(&self) -> impl Iterator<Item = &InstanceOutcome> {
        self.outcomes.iter()
    }

    /// Submission-to-decision latencies of the instances that decided, in
    /// submission order. Queue wait is included: this is what an open-loop
    /// client observes, not the batch-relative figure.
    pub fn submission_to_decision_latencies(&self) -> Vec<Duration> {
        self.outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(|o| o.latency())
            .collect()
    }
}

/// The service front door. Configure once, then open any number of
/// [`session`](Self::session)s; each session owns its tick loop, admission
/// queue and report.
#[derive(Clone, Debug)]
pub struct BaService {
    config: SvcConfig,
    chaos: ChaosProfile,
}

impl BaService {
    /// Creates a service with a reliable wire.
    pub fn new(config: SvcConfig) -> Self {
        BaService {
            config,
            chaos: ChaosProfile::reliable(),
        }
    }

    /// Installs the fleet chaos profile. Each instance rolls its own fates
    /// from [`instance_seed`]`(profile.seed, ticket)`.
    pub fn with_chaos(mut self, chaos: ChaosProfile) -> Self {
        self.chaos = chaos;
        self
    }

    /// Returns the service unchanged: there is no verifier cache to share.
    /// `benchmark/` still calls it; the `benchmark` PR that drops the call
    /// deletes it.
    #[deprecated(note = "there is no verifier cache; remove the call")]
    #[allow(deprecated)]
    pub fn with_shared_cache(self, _cache: Arc<ba_crypto::VerifierCache>) -> Self {
        self
    }

    /// Opens a long-lived session: submit instances over time, tick the
    /// service, poll tickets, drain for the report.
    pub fn session<P: Payload + 'static>(&self) -> SvcSession<P> {
        SvcSession::new(self.config.clone(), self.chaos.clone())
    }
}

/// How far along one ticket is, as reported by [`SvcSession::status`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum TicketStatus {
    /// Waiting in the admission queue at this position (0 = next in).
    Queued {
        /// Position from the head of the queue.
        position: usize,
    },
    /// Admitted and mid-protocol at this 1-based phase.
    InFlight {
        /// Next phase to execute (`phases + 1` = finalize pending).
        phase: usize,
    },
    /// Settled — [`SvcSession::try_outcome`] will return it.
    Settled,
    /// Shed by backpressure — [`SvcSession::try_outcome`] will return the
    /// [`ShedOutcome`].
    Shed,
    /// Never issued by this session.
    Unknown,
}

/// What polling a ticket yields once the session is done with it.
#[derive(Clone, Debug)]
pub enum TicketOutcome {
    /// The instance ran to settlement (decision or degradation).
    Settled(Box<InstanceOutcome>),
    /// The ticket was evicted from the queue by shed-oldest backpressure.
    Shed(ShedOutcome),
}

/// A long-lived, open-loop service session. See the [module
/// docs](self) for the lifecycle and the determinism contract.
pub struct SvcSession<P> {
    config: SvcConfig,
    chaos: ChaosProfile,
    started: Instant,
    queue: VecDeque<Instance<P>>,
    active: Vec<Instance<P>>,
    settled: BTreeMap<u64, InstanceOutcome>,
    shed: BTreeMap<u64, ShedOutcome>,
    admission_log: Vec<AdmissionVerdict>,
    queue_stats: QueueStats,
    stats: NetStats,
    tick: u64,
    next_id: u64,
    peak_inflight: usize,
    /// Frames staged this tick per directed link, at `from · stride + to`
    /// for that tick's stride (the widest in-flight instance); all zero
    /// between ticks.
    flush_counts: Vec<u32>,
    /// The cells of `flush_counts` this tick has made non-zero.
    flush_touched: Vec<usize>,
    /// The buffers every instance's wire delivery plays out on, in turn.
    wire: WireScratch,
}

impl<P: Payload + 'static> SvcSession<P> {
    fn new(config: SvcConfig, chaos: ChaosProfile) -> Self {
        SvcSession {
            config,
            chaos,
            started: Instant::now(),
            queue: VecDeque::new(),
            active: Vec::new(),
            settled: BTreeMap::new(),
            shed: BTreeMap::new(),
            admission_log: Vec::new(),
            queue_stats: QueueStats::default(),
            stats: NetStats::default(),
            tick: 0,
            next_id: 0,
            peak_inflight: 0,
            flush_counts: Vec::new(),
            flush_touched: Vec::new(),
            wire: WireScratch::default(),
        }
    }

    /// Offers one instance to the session — a checkable target's build is
    /// `setup.into()`. On success the returned
    /// [`Ticket`] identifies the instance for [`try_outcome`](Self::try_outcome) polling; on
    /// refusal the structured [`AdmissionError`] says why. Either way the
    /// decision is appended to the [admission log](Self::admission_log).
    ///
    /// Under [`AdmissionPolicy::BlockWithDeadline`] this call may execute
    /// service ticks (advancing the whole fleet) while it waits for queue
    /// space — bounded by the policy's deadline, so it always returns.
    ///
    /// # Errors
    /// [`AdmissionError::QueueFull`] under [`AdmissionPolicy::Reject`],
    /// [`AdmissionError::DeadlineExpired`] under
    /// [`AdmissionPolicy::BlockWithDeadline`] when no slot freed in time.
    pub fn submit(&mut self, spec: InstanceSpec<P>) -> Result<Ticket, AdmissionError> {
        let capacity = self.config.queue_capacity.max(1);
        let mut waited = 0u64;
        if self.queue.len() >= capacity {
            match self.config.admission {
                AdmissionPolicy::Reject => {
                    let error = AdmissionError::QueueFull { capacity };
                    self.queue_stats.rejected += 1;
                    self.admission_log.push(AdmissionVerdict::Refused {
                        error,
                        depth: self.queue.len(),
                    });
                    return Err(error);
                }
                AdmissionPolicy::ShedOldest => {
                    let victim = self
                        .queue
                        .pop_front()
                        .expect("full queue has a head (capacity >= 1)");
                    let ticket = self.issue(spec);
                    let outcome = ShedOutcome {
                        ticket: Ticket(victim.id),
                        submitted_tick: victim.submitted_tick,
                        shed_tick: self.tick,
                        displaced_by: ticket,
                    };
                    self.shed.insert(victim.id, outcome);
                    self.queue_stats.shed += 1;
                    self.admission_log
                        .push(AdmissionVerdict::EnqueuedAfterShed {
                            ticket,
                            victim: outcome.ticket,
                        });
                    return Ok(ticket);
                }
                AdmissionPolicy::BlockWithDeadline { deadline_ticks } => {
                    self.queue_stats.blocked_submits += 1;
                    while self.queue.len() >= capacity && waited < deadline_ticks {
                        self.tick();
                        waited += 1;
                        self.queue_stats.blocked_ticks += 1;
                    }
                    if self.queue.len() >= capacity {
                        let error = AdmissionError::DeadlineExpired {
                            waited_ticks: waited,
                            capacity,
                        };
                        self.queue_stats.rejected += 1;
                        self.admission_log.push(AdmissionVerdict::Refused {
                            error,
                            depth: self.queue.len(),
                        });
                        return Err(error);
                    }
                }
            }
        }
        let ticket = self.issue(spec);
        let verdict = if waited > 0 {
            AdmissionVerdict::EnqueuedAfterWait {
                ticket,
                waited_ticks: waited,
            }
        } else {
            AdmissionVerdict::Enqueued {
                ticket,
                depth: self.queue.len(),
            }
        };
        self.admission_log.push(verdict);
        Ok(ticket)
    }

    /// Assigns the next ticket, builds the instance and enqueues it.
    fn issue(&mut self, spec: InstanceSpec<P>) -> Ticket {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Instance {
            id,
            driver: PhaseDriver::new(spec, &self.chaos, instance_seed(self.chaos.seed, id), None),
            submitted_tick: self.tick,
            submitted_at: self.started.elapsed(),
            admitted_tick: 0,
            admitted_at: Duration::ZERO,
        });
        self.queue_stats.submitted += 1;
        Ticket(id)
    }

    /// Advances the session by one service tick: admit up to
    /// `admit_per_tick` queued instances (bounded by `max_inflight`), step
    /// every in-flight instance one phase on the shared pool, count all
    /// staged frames into one flush per directed link, play each
    /// instance's frames over the wire, and settle the finished. A
    /// no-op-ish tick on an idle session still counts (the tick counter is
    /// the session's clock).
    pub fn tick(&mut self) {
        // Admission: drain the queue into flight, bounded by the caps.
        let mut admitted = 0usize;
        let max_inflight = self.config.max_inflight.max(1);
        let admit_per_tick = self.config.admit_per_tick.max(1);
        while admitted < admit_per_tick && self.active.len() < max_inflight {
            match self.queue.pop_front() {
                Some(mut inst) => {
                    inst.admitted_tick = self.tick;
                    inst.admitted_at = self.started.elapsed();
                    self.queue_stats.admitted += 1;
                    self.active.push(inst);
                    admitted += 1;
                }
                None => break,
            }
        }
        self.peak_inflight = self.peak_inflight.max(self.active.len());
        self.queue_stats.record_depth(self.queue.len());

        // Step: every in-flight instance advances one phase (or
        // finalizes) concurrently on the shared pool, the session's
        // `threads` split between instances first and, when fewer
        // instances than threads are in flight, between each instance's
        // actor chunks (nested pool use is deadlock-free). One worker runs
        // everything inline.
        let threads = self.config.threads.max(1);
        let chunk_threads = (threads / self.active.len().max(1)).max(1);
        if threads == 1 || self.active.len() <= 1 {
            for inst in &mut self.active {
                inst.driver.step(chunk_threads);
            }
        } else {
            let cells: Vec<Mutex<&mut Instance<P>>> =
                self.active.iter_mut().map(Mutex::new).collect();
            WorkerPool::shared().run_chunks_capped(cells.len(), threads, |i| {
                let mut inst = cells[i].lock().expect("instance cell poisoned");
                inst.driver.step(chunk_threads);
            });
        }

        // Coalesce: every in-flight instance's frames for one directed
        // link share one flush this tick. Only the count is fleet-level —
        // the frames themselves never leave their instance — and a count
        // per cell and what `note_flush` keeps (sums and a maximum) need
        // no order among the links.
        let widths = self.active.iter().map(|inst| inst.driver.n());
        let stride = widths.max().unwrap_or(0);
        if self.flush_counts.len() < stride * stride {
            self.flush_counts.resize(stride * stride, 0);
        }
        let (counts, touched) = (&mut self.flush_counts, &mut self.flush_touched);
        for inst in &self.active {
            inst.driver.for_each_link(|from, to| {
                let cell = from.index() * stride + to.index();
                if counts[cell] == 0 {
                    touched.push(cell);
                }
                counts[cell] += 1;
            });
        }
        for cell in self.flush_touched.drain(..) {
            let frames = std::mem::take(&mut self.flush_counts[cell]);
            self.stats.note_flush(u64::from(frames));
        }

        // Deliver and settle, in submission order. Each instance plays
        // the wire with its own rng — fates are per-instance even though
        // the physical flushes were shared.
        let now = self.started.elapsed();
        self.active.retain_mut(|inst| {
            let delivered = inst.driver.deliver(&self.chaos, &mut self.wire);
            let Some(result) = delivered.transpose() else {
                return true;
            };
            self.stats.absorb(match &result {
                Ok(run) => &run.stats,
                Err(verdict) => &verdict.stats,
            });
            self.settled
                .insert(inst.id, inst.settle(self.tick, now, result));
            false
        });
        self.tick += 1;
    }

    /// Polls one ticket. Returns `None` while the ticket is queued or in
    /// flight (or was never issued); once the session settles or sheds it,
    /// returns the structured outcome. Non-destructive: the outcome also
    /// appears in the drained [`SvcReport`].
    pub fn try_outcome(&self, ticket: Ticket) -> Option<TicketOutcome> {
        if let Some(outcome) = self.settled.get(&ticket.0) {
            return Some(TicketOutcome::Settled(Box::new(outcome.clone())));
        }
        self.shed.get(&ticket.0).copied().map(TicketOutcome::Shed)
    }

    /// Where one ticket currently is in the pipeline.
    pub fn status(&self, ticket: Ticket) -> TicketStatus {
        if self.settled.contains_key(&ticket.0) {
            return TicketStatus::Settled;
        }
        if self.shed.contains_key(&ticket.0) {
            return TicketStatus::Shed;
        }
        if let Some(position) = self.queue.iter().position(|i| i.id == ticket.0) {
            return TicketStatus::Queued { position };
        }
        if let Some(inst) = self.active.iter().find(|i| i.id == ticket.0) {
            return TicketStatus::InFlight {
                phase: inst.driver.phase(),
            };
        }
        TicketStatus::Unknown
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// Instances currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Instances currently in flight.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Service ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The admission audit trail so far, one verdict per `submit` call.
    pub fn admission_log(&self) -> &[AdmissionVerdict] {
        &self.admission_log
    }

    /// Queue-side accounting so far.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue_stats
    }

    /// Runs the session to quiescence (every accepted ticket settled) and
    /// produces the report.
    pub fn drain(mut self) -> SvcReport {
        while !self.is_idle() {
            self.tick();
        }
        SvcReport {
            outcomes: std::mem::take(&mut self.settled).into_values().collect(),
            shed: std::mem::take(&mut self.shed).into_values().collect(),
            admission_log: std::mem::take(&mut self.admission_log),
            queue: self.queue_stats,
            stats: std::mem::take(&mut self.stats),
            ticks: self.tick,
            elapsed: self.started.elapsed(),
            peak_inflight: self.peak_inflight,
        }
    }
}

impl<P> std::fmt::Debug for SvcSession<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvcSession")
            .field("tick", &self.tick)
            .field("queued", &self.queue.len())
            .field("in_flight", &self.active.len())
            .field("settled", &self.settled.len())
            .field("shed", &self.shed.len())
            .finish()
    }
}

/// One ticket's journey bookkeeping around its phase driver.
struct Instance<P> {
    id: u64,
    driver: PhaseDriver<P>,
    submitted_tick: u64,
    submitted_at: Duration,
    admitted_tick: u64,
    admitted_at: Duration,
}

impl<P> Instance<P> {
    fn settle(
        &self,
        tick: u64,
        now: Duration,
        result: Result<InstanceRun, Box<DegradationVerdict>>,
    ) -> InstanceOutcome {
        InstanceOutcome {
            id: self.id,
            submitted_tick: self.submitted_tick,
            admitted_tick: self.admitted_tick,
            settled_tick: tick,
            submitted_at: self.submitted_at,
            admitted_at: self.admitted_at,
            decided_at: now,
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_algos::checkable::{find_target, CheckConfig};
    use ba_crypto::Value;
    use ba_sim::schedule::ScheduleSpec;

    #[test]
    fn instance_seeds_are_distinct_and_stable() {
        let a = instance_seed(7, 0);
        let b = instance_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, instance_seed(7, 0));
        assert_ne!(a, instance_seed(8, 0), "base seed matters");
    }

    #[test]
    fn instance_seeds_never_collide_within_a_fleet() {
        // The documented injectivity guarantee: under one base seed, no
        // two instances may ever share a chaos rng stream. Exercise a
        // fleet far larger than any real session, several bases, plus the
        // adversarial-looking base 0 and base = multiplier.
        for base in [0u64, 7, 11, 77, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut seen = std::collections::HashSet::with_capacity(4096);
            for instance in 0..4096u64 {
                assert!(
                    seen.insert(instance_seed(base, instance)),
                    "seed collision under base {base} at instance {instance}"
                );
            }
        }
        // And the first rng draws differ too — the streams themselves,
        // not just the seeds, are distinct for neighbouring tickets.
        let mut a = SimRng::new(instance_seed(77, 0));
        let mut b = SimRng::new(instance_seed(77, 1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_plausible() {
        let schedule: Vec<usize> = PoissonArrivals::new(42, 2.0).take(256).collect();
        let replay: Vec<usize> = PoissonArrivals::new(42, 2.0).take(256).collect();
        assert_eq!(schedule, replay, "same seed must replay byte-identically");
        let other: Vec<usize> = PoissonArrivals::new(43, 2.0).take(256).collect();
        assert_ne!(schedule, other, "different seeds must differ");
        let mean = schedule.iter().sum::<usize>() as f64 / schedule.len() as f64;
        assert!(
            (1.5..2.5).contains(&mean),
            "sample mean {mean} implausible for rate 2.0"
        );
        let mut zero = PoissonArrivals::new(1, 0.0);
        assert_eq!(zero.next_arrivals(), 0, "rate 0 never arrives");
    }

    #[test]
    fn empty_session_drains_immediately() {
        let service = BaService::new(SvcConfig::default());
        let report = service.session::<ba_crypto::Value>().drain();
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.decided(), 0);
        assert_eq!(report.degraded(), 0);
        assert_eq!(report.shed_count(), 0);
        assert!(report.accounting_balanced());
    }

    #[test]
    fn flush_counts_survive_a_changing_stride() {
        // Instances of two widths share ticks: the stride of the flush
        // table is 4, then 7, then 4 again as the wide instances come and
        // go, while its cells are warm. The constants are what the ordered
        // map this table replaced counted on the same sessions.
        let target = find_target("ds-broadcast").expect("registered target");
        let expected = [
            (ChaosProfile::reliable(), (222, 282, 60, 162, 2)),
            (ChaosProfile::lossy(77, 500), (213, 279, 66, 147, 2)),
        ];
        for (chaos, counts) in expected {
            let config = SvcConfig::new().with_admit_per_tick(2).with_max_inflight(4);
            let mut session = BaService::new(config).with_chaos(chaos).session();
            for i in 0..16u64 {
                let (n, t) = if i % 6 == 1 { (7, 2) } else { (4, 1) };
                let cfg = CheckConfig::new(n, t, Value(i % 2), 11, 1, ScheduleSpec::default());
                let setup = target.build(&cfg).expect("fault-free schedule");
                session.submit(setup.into()).expect("queue has room");
                if i % 3 != 0 {
                    session.tick();
                }
            }
            let stats = session.drain().stats;
            assert_eq!(
                (
                    stats.flushes,
                    stats.coalesced_frames,
                    stats.batched_flushes,
                    stats.solo_flushes,
                    stats.max_frames_per_flush
                ),
                counts
            );
        }
    }

    #[test]
    fn svc_config_builders_cover_every_knob() {
        let cfg = SvcConfig::new()
            .with_threads(3)
            .with_max_inflight(5)
            .with_admit_per_tick(2)
            .with_queue_capacity(7)
            .with_admission(AdmissionPolicy::ShedOldest);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.max_inflight, 5);
        assert_eq!(cfg.admit_per_tick, 2);
        assert_eq!(cfg.queue_capacity, 7);
        assert_eq!(cfg.admission, AdmissionPolicy::ShedOldest);
    }
}
