//! # ba-check — deterministic fault-schedule model checking
//!
//! A bounded model checker for the Byzantine Agreement algorithms in
//! `ba-algos`. It drives each registered [`CheckTarget`] (see
//! [`ba_algos::checkable`]) through explicit fault schedules and checks
//! agreement, validity, and the paper's message-count bounds after every
//! run.
//!
//! * [`case`] — the [`Case`] contract: what a family of check cases owes
//!   the checker (validate, run-and-judge, its embedded `ScheduleSpec`,
//!   the shrink steps outside it, a JSON form). Everything below the two
//!   families is written once against it;
//! * [`schedule`] — [`FaultSchedule`], the classic family: a target name,
//!   `(n, t)`, value, seed and a [`ba_sim::schedule::ScheduleSpec`];
//! * [`ext`] — [`ExtSchedule`], the extension-layer family: a seeded
//!   payload, inner-BA target names and the garbling adversary beside the
//!   same `ScheduleSpec`, judged by strict outcome agreement;
//! * [`mod@explore`] — the classic schedule space (bounded exhaustive
//!   enumeration for small `(n, t)`, `SimRng`-driven random sampling for
//!   large) and the one [`explore()`] pipeline, fanned out with
//!   `run_sweep` so reports are byte-identical at any thread count;
//! * [`mod@shrink`] — greedy deterministic shrinking of violating cases to
//!   1-minimal counterexamples;
//! * [`corpus`] — the committed JSON regression corpus (both families,
//!   discriminated by `"family"`), replayed strictly (exact failure-string
//!   match) by tests and CI;
//! * [`json`] — the dependency-free JSON codec the corpus uses
//!   (unsigned-integer-only numbers, so 64-bit seeds round-trip exactly).
//!
//! The determinism contract mirrors the simulator's: every decision the
//! checker makes flows from `(target, n, t, value, seed, budget,
//! strategy)` — never from thread scheduling, iteration order of hash
//! containers, or wall-clock time.

pub mod case;
pub mod corpus;
pub mod explore;
pub mod ext;
pub mod json;
pub mod schedule;
pub mod shrink;

pub use ba_algos::checkable::{find_target, targets, CheckTarget};
pub use case::Case;
pub use corpus::{replay, replay_minimal, CorpusCase, CorpusEntry};
pub use explore::{explore, ExploreOptions, ExploreReport, Strategy, Violation};
pub use ext::ExtSchedule;
pub use schedule::FaultSchedule;
pub use shrink::{assert_minimal, shrink};
