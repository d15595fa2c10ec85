//! Executable version of the paper's formal model (Section 2) and its
//! lower-bound proofs (Theorems 1 and 2).
//!
//! The Dolev–Reischuk lower bounds are proved by *history splicing*: take
//! the fault-free histories `H` (transmitter sends 0) and `G` (transmitter
//! sends 1), then build a hybrid in which a faulty coalition behaves toward
//! a victim `p` exactly as in one history and toward everyone else as in
//! the other. If the coalition is small enough — which is exactly what an
//! algorithm exchanging too few signatures (Theorem 1) or too few messages
//! (Theorem 2) permits — the victim cannot distinguish the hybrid from the
//! fault-free history and disagrees with the rest.
//!
//! This crate makes those proofs *runnable* against any algorithm: each
//! proof takes a fault-free instance builder, `Fn(Value) ->
//! InstanceSpec<Chain>` — the transmitter's value in, the instance every
//! loop runs out — records `H` and `G` from it, and splices its faulty
//! coalition into a third build. A registered [`CheckTarget`] enters
//! through [`fault_free`], a toy through its own `build`.
//!
//! The paper's *history* is [`ba_sim::Trace`], the type the
//! simulator records: a sequence of labeled phase graphs whose audits
//! (individual subhistories and their equality, sender sets, receipt
//! counts) are its methods, so every module here reads a run's trace as
//! it stands.
//!
//! * [`rules`] — Section 2's correctness rules `R_p` and decision
//!   functions `F_p`, and a generator that grows a history from them;
//! * [`replay`] — [`ReplayActor`](replay::ReplayActor), a faulty processor
//!   that replays scripted traffic, plus the split-world script
//!   construction of Theorem 1;
//! * [`frugal`] — deliberately under-communicating protocols (a
//!   `k`-relay signed broadcast and a one-shot "quiet" broadcast) that sit
//!   below the bounds and are therefore attackable;
//! * [`theorem1`] — the signature-bound attack: audit `A(p)` (the set of
//!   processors `p` exchanged signatures with), corrupt it, splice `H`
//!   into `G`, and watch agreement break — or find `|A(p)| > t`, the
//!   prerequisite every correct algorithm denies;
//! * [`theorem2`] — the message-bound attack: starve a victim of all its
//!   incoming messages when its sender set is at most `t`, plus the
//!   `B`-set extraction experiment showing every faulty "ignorer" is owed
//!   `⌈1 + t/2⌉` messages by any correct algorithm.

use ba_algos::checkable::{CheckConfig, CheckTarget};
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::schedule::ScheduleSpec;
use ba_sim::{InstanceSpec, RunOutcome, Simulation};
use std::cmp::Reverse;

pub mod frugal;
pub mod replay;
pub mod rules;
pub mod theorem1;
pub mod theorem2;

/// The fault-free instance builder of a registered target at `(n, t)`:
/// [`CheckTarget::build`] under the empty schedule, keyed by `seed`.
///
/// # Panics
/// If the target does not support `(n, t)`.
pub fn fault_free(
    target: CheckTarget,
    n: usize,
    t: usize,
    seed: u64,
) -> impl Fn(Value) -> InstanceSpec<Chain> {
    assert!(target.supports(n, t), "{} at n = {n}, t = {t}", target.name);
    move |value| {
        let cfg = CheckConfig::new(n, t, value, seed, 1, ScheduleSpec::default());
        let setup = target.build(&cfg).expect("the empty schedule compiles");
        setup.into()
    }
}

/// Runs `spec` lock-step on one thread, recording its history.
fn record(spec: InstanceSpec<Chain>) -> RunOutcome<Chain> {
    let phases = spec.phases;
    Simulation::from(spec).with_trace().run(phases)
}

/// The processor a proof isolates: the non-transmitter (`p0` transmits)
/// with the smallest `size`, ties going to the highest id.
fn victim(n: usize, size: impl Fn(ProcessId) -> usize) -> ProcessId {
    (1..n as u32)
        .map(ProcessId)
        .min_by_key(|&p| (size(p), Reverse(p)))
        .expect("a proof needs a processor besides the transmitter")
}
