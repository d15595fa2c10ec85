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
//! * [`locality`] — Section 2's correct processor checked on the engine:
//!   [`audit`](locality::audit) replays every other processor's recorded
//!   sends to each correct one and requires it to send and decide as
//!   recorded, so its rule `R_p` reads its own subhistory and nothing
//!   else;
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
use ba_sim::{InstanceSpec, Payload, RunOutcome, Simulation};
use std::cmp::Reverse;

pub mod frugal;
pub mod locality;
pub mod replay;
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
fn record<P: Payload>(spec: InstanceSpec<P>) -> RunOutcome<P> {
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

/// Section 2's quiet broadcast on the engine: its fault-free history
/// follows the rule `R_p` and decides the sent value, and starving its
/// victim is the proof of Theorem 2 in miniature.
#[cfg(test)]
mod rules {
    mod tests {
        use crate::frugal::QuietBroadcast;
        use crate::{locality, theorem2};
        use ba_crypto::{KeyRegistry, ProcessId, SchemeKind, Value};
        use ba_sim::AgreementViolation;

        #[test]
        fn fault_free_quiet_generates_and_decides() {
            let keys = || KeyRegistry::new(5, 1, SchemeKind::Fast);
            let run = crate::record(QuietBroadcast::build(5, Value::ONE, &keys()));
            assert_eq!(run.trace.phases[0].len(), 4, "n-1 labeled edges");
            let verdict =
                ba_sim::check_byzantine_agreement(&run, ProcessId(0), Value::ONE).unwrap();
            assert_eq!(verdict.agreed, Some(Value::ONE));
            assert!(run.decisions.iter().all(|&d| d == Some(Value::ONE)));
            assert_eq!(
                locality::audit(|| QuietBroadcast::build(5, Value::ONE, &keys())),
                Ok(())
            );
        }

        #[test]
        fn formal_theorem2_starvation() {
            // The transmitter is faulty: it follows R_p except toward the
            // victim (the exact H'' of the proof).
            let registry = KeyRegistry::new(5, 1, SchemeKind::Fast);
            let attack = theorem2::starve(|v| QuietBroadcast::build(5, v, &registry), 1);
            let victim = ProcessId(4);
            assert_eq!(attack.victim, victim);
            assert_eq!(attack.senders, [ProcessId(0)]);
            assert!(attack.feasible && attack.victim_starved);
            assert!(matches!(
                attack.violation,
                Some(AgreementViolation::Disagreement {
                    a: ProcessId(1),
                    a_value: Value::ONE,
                    b,
                    b_value: Value::ZERO,
                }) if b == victim
            ));
        }
    }
}
