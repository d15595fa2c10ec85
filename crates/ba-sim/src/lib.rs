//! Deterministic synchronous-round simulator for Byzantine Agreement
//! protocols.
//!
//! The Dolev–Reischuk paper models computation as a sequence of *phases*:
//! at the beginning of phase `k` a processor knows exactly its individual
//! subhistory of the first `k − 1` phases and nothing else; during phase `k`
//! it sends labeled messages chosen by its correctness rule. This crate is
//! that model as an executable substrate:
//!
//! * [`actor`] — the [`Actor`] trait (one implementation per
//!   protocol role), the borrowed [`Inbox`] it reads, the [`Outbox`] it
//!   sends through and owned [`Envelope`]s;
//! * [`engine`] — the phase core ([`PhaseCore`]: step → route → fill
//!   on the arena, the one place a phase advances), the lock-step
//!   [`Simulation`] loop around it, and [`InstanceSpec`], the one instance
//!   value every loop takes; the `ba-net` crate's unreliable-wire driver
//!   is the other loop around the same core;
//! * [`metrics`] — message/signature/phase accounting with the paper's
//!   convention (count traffic *sent by correct processors*);
//! * [`adversary`] — generic Byzantine behaviours (silence, crashing,
//!   selective omission, inbox starvation) that wrap honest actors, and the
//!   seeded [`Spammer`](adversary::Spammer); richer, protocol-specific
//!   attacks live next to each algorithm;
//! * [`checker`] — post-run verification of the two Byzantine Agreement
//!   conditions;
//! * [`schedule`] — the one fault vocabulary ([`FaultBehavior`],
//!   [`LinkDrop`], [`ScheduleSpec`]) and [`ScheduleSpec::compile`], which
//!   every algorithm run and every `ba-check` target calls to turn a
//!   schedule into actors;
//! * [`transport`] — the routing [`Fate`] of a staged envelope and the
//!   one policy that decides it, [`ScheduledDrops`]; anything less
//!   reliable is a wire's business (`ba-net`);
//! * [`trace`] — the optional full message trace, [`Trace`]: the paper's
//!   Section-2 history, with the audits the lower-bound proofs make over
//!   it;
//! * [`pool`] — the persistent [`WorkerPool`] shared by the core's
//!   intra-phase stepping, the sweep fan-out and `ba-net`'s service tick:
//!   long-lived threads parked between dispatches instead of
//!   spawn-per-phase;
//! * [`arena`] — flat mailbox storage: a `send`/`broadcast` call staged
//!   once as a frame in a per-worker segment, a phase's inboxes as slices
//!   of four-byte indices into its shared frames, merged in deterministic
//!   `(sender, seq)` order at the barrier, with one safe fill for
//!   staging-order and wire-order arrival;
//! * [`sweep`] — deterministic fan-out of independent experiment cells
//!   across the shared worker pool, with per-cell seed derivation and
//!   metrics merging.
//!
//! # Example
//!
//! A two-processor "echo" protocol where the transmitter sends its value
//! once and the receiver decides on whatever it hears:
//!
//! ```
//! use ba_crypto::{ProcessId, Value};
//! use ba_sim::actor::{Actor, Inbox, Outbox};
//! use ba_sim::engine::Simulation;
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
//! let mut sim = Simulation::new(vec![
//!     Box::new(Sender(Value::ONE)),
//!     Box::new(Receiver(None)),
//! ]);
//! let outcome = sim.run(2);
//! assert_eq!(outcome.decisions, vec![Some(Value::ONE), Some(Value::ONE)]);
//! assert_eq!(outcome.metrics.messages_by_correct, 1);
//! ```

pub mod actor;
pub mod adversary;
pub mod arena;
pub mod checker;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod schedule;
pub mod sweep;
pub mod trace;
pub mod transport;

pub use actor::{Actor, Envelope, Inbox, Outbox, Payload, Received};
pub use checker::{check_byzantine_agreement, AgreementViolation, RunVerdict};
pub use engine::{InstanceSpec, PhaseCore, RunOutcome, Simulation};
pub use metrics::{Metrics, QueueStats};
pub use pool::WorkerPool;
pub use schedule::{FaultBehavior, LinkDrop, ScheduleError, ScheduleSpec};
pub use trace::Trace;
pub use transport::{Fate, ScheduledDrops};
