//! A multi-threaded message-passing runtime for the Byzantine Agreement
//! actors, with an *unreliable* wire underneath.
//!
//! The lock-step engine in `ba-sim` realizes the paper's synchronous
//! model: every message sent in phase `k` arrives at phase `k + 1`,
//! unconditionally. This crate asks what it takes to *earn* that
//! abstraction on an unreliable substrate — and what to do when it cannot
//! be earned:
//!
//! * [`chaos`] — seeded per-link unreliability profiles (loss, ack loss,
//!   duplication, delay, reordering), the runtime's counterpart of the
//!   fault-schedule vocabulary in [`ba_sim::schedule`];
//! * [`wire`](crate::runtime) — virtual-tick delivery with bounded
//!   retransmission, exponential backoff, acks and receiver-side dedup,
//!   over links: it is told `(from, to)` per frame and answers with
//!   arrival order, never touching a payload;
//! * the phase driver (private `driver` module) — the unreliable-wire
//!   loop around [`ba_sim::PhaseCore`], the phase implementation shared
//!   with the lock-step engine. The core steps actors, routes and records
//!   their sends and fills inboxes; the driver plays the links over the
//!   wire in between, attributes faults, and degrades gracefully:
//!   suspected senders are tolerated while the observable fault set fits
//!   the budget `t`, and the instance settles with a structured
//!   [`DegradationVerdict`] the moment it doesn't — or when an actor
//!   panics or overruns the phase watchdog — never a panic, never
//!   untrustworthy decisions;
//! * [`runtime`] — the standalone entry point: [`NetRuntime`] runs one
//!   driver to completion over an [`InstanceSpec`], the instance value
//!   every loop takes (`ba_sim`'s, re-exported here);
//! * [`verdict`] — the structured failure vocabulary ([`NetStats`],
//!   [`FailedLink`], [`DegradationVerdict`]);
//! * [`harness`] — drives any `ba-algos` checkable target through the
//!   runtime and proves that, under a reliable wire, decisions and
//!   [`Metrics`](ba_sim::Metrics) are byte-identical to
//!   [`ba_sim::Simulation`] at any worker-thread count;
//! * [`svc`] — the multi-instance service (`ba-svc`): a session-based
//!   open-loop API (`session`/`submit`/`tick`/`try_outcome`/`drain`) over
//!   many concurrent BA instances — one driver per ticket, the same code
//!   the standalone runtime runs — with pipelined phases on one wire,
//!   per-link flush accounting, per-instance
//!   degradation verdicts, and explicit admission control — a bounded
//!   queue with reject / shed-oldest / block-with-deadline backpressure,
//!   every decision recorded as a structured [`AdmissionVerdict`].
//!
//! # Example
//!
//! ```
//! use ba_crypto::{ProcessId, Value};
//! use ba_net::{ChaosProfile, InstanceSpec, NetConfig, NetRuntime};
//! use ba_sim::actor::{Actor, Inbox, Outbox};
//!
//! #[derive(Debug)]
//! struct Sender(Value);
//! #[derive(Debug)]
//! struct Receiver(Option<Value>);
//!
//! impl Actor<Value> for Sender {
//!     fn step(&mut self, phase: usize, _inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
//!         if phase == 1 {
//!             out.send(ProcessId(1), self.0);
//!         }
//!     }
//!     fn decision(&self) -> Option<Value> { Some(self.0) }
//! }
//!
//! impl Actor<Value> for Receiver {
//!     fn step(&mut self, _phase: usize, inbox: Inbox<'_, Value>, _out: &mut Outbox<Value>) {
//!         if let Some(env) = inbox.first() {
//!             self.0 = Some(*env.payload);
//!         }
//!     }
//!     fn decision(&self) -> Option<Value> { self.0 }
//! }
//!
//! let spec = InstanceSpec {
//!     actors: vec![
//!         Box::new(Sender(Value::ONE)) as Box<dyn Actor<Value>>,
//!         Box::new(Receiver(None)),
//!     ],
//!     phases: 2,
//!     fault_budget: 0,
//!     link_drops: vec![],
//!     registry: None,
//! };
//! let runtime = NetRuntime::new(spec, NetConfig::new().with_threads(2))
//!     .with_chaos(ChaosProfile::jitter(7));
//! let outcome = runtime.run().expect("jitter never exceeds the budget");
//! assert_eq!(outcome.decisions, vec![Some(Value::ONE), Some(Value::ONE)]);
//! assert_eq!(outcome.metrics.messages_by_correct, 1);
//! ```

pub mod chaos;
mod driver;
pub mod harness;
pub mod runtime;
pub mod svc;
pub mod verdict;
mod wire;

pub use ba_sim::InstanceSpec;
pub use chaos::{ChaosProfile, LinkChaos};
pub use harness::{
    check_equivalence, run_target, run_target_multiplexed, MultiplexRun, NetRun, NetRunError,
};
pub use runtime::{NetConfig, NetRuntime};
pub use svc::{
    instance_seed, AdmissionPolicy, BaService, InstanceOutcome, InstanceRun, PoissonArrivals,
    SvcConfig, SvcReport, SvcSession, TicketOutcome, TicketStatus,
};
pub use verdict::{
    AdmissionError, AdmissionVerdict, DegradationReason, DegradationVerdict, FailedLink, NetStats,
    ShedOutcome, Ticket,
};
