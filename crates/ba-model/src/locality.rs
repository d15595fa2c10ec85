//! Section 2's correct processor, checked on the engine: the locality
//! audit.
//!
//! Section 2 defines a correct processor `p` by its rule
//! `R_p : ISH × PR → MSG`: what `p` sends in phase `k` is a function of
//! `p`'s own individual subhistory — its input and what it received in
//! phases `1..k` — and of nothing else. Theorems 1 and 2 rest on it: the
//! victim cannot tell a spliced history from `H` because its subhistory
//! is equal ([`Trace::individually_equal`](ba_sim::Trace::individually_equal)).
//! The engine's actors share memory by design (boards, barrier stamps,
//! `Arc`'d chains and payload windows), so a leak through it would pass
//! every comparison of two runs that share it.
//!
//! [`audit`] holds every correct processor of an instance to `R_p`. It
//! records one run; then, for each correct `p`, it builds the instance
//! again, replaces every other processor by a
//! [`ReplayActor`] of what it sent in the recorded run, and runs it with
//! every delivery verified in full by its recipient. `p` now has the
//! recorded subhistory and nothing else: no other actor posts, writes or
//! stamps anything. So `p` must send, phase by phase, and decide exactly
//! as it did.

use crate::replay::ReplayActor;
use ba_crypto::ProcessId;
use ba_sim::{InstanceSpec, Payload, Simulation};

/// The first correct processor whose replayed run differs from the
/// recorded one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalityBreach {
    /// The processor.
    pub processor: ProcessId,
    /// The first phase whose sends differ, or `None` when only the
    /// decision does.
    pub phase: Option<usize>,
}

/// Audits the instance `build` returns: every correct processor's sends
/// and decision must follow from its own individual subhistory.
///
/// `build` is called once for the recorded run and once per correct
/// processor; each call must build the instance afresh, keys included, as
/// every module's `build` does from a seed.
///
/// ```
/// use ba_crypto::{KeyRegistry, SchemeKind, Value};
/// use ba_model::{frugal::QuietBroadcast, locality};
///
/// let keys = || KeyRegistry::new(5, 1, SchemeKind::Fast);
/// assert_eq!(locality::audit(|| QuietBroadcast::build(5, Value::ONE, &keys())), Ok(()));
/// ```
///
/// # Errors
/// The first [`LocalityBreach`], in processor order.
pub fn audit<P: Payload + PartialEq + 'static>(
    build: impl Fn() -> InstanceSpec<P>,
) -> Result<(), LocalityBreach> {
    let recorded = crate::record(build());
    let n = recorded.correct.len();
    let scripts: Vec<_> = (0..n as u32)
        .map(|q| recorded.trace.filter(|e| e.from == ProcessId(q)))
        .collect();
    for p in (0..n).filter(|&p| recorded.correct[p]) {
        let mut spec = build();
        for (q, actor) in spec.actors.iter_mut().enumerate() {
            if q != p {
                *actor = Box::new(ReplayActor::new(scripts[q].clone()));
            }
        }
        let phases = spec.phases;
        let replayed = Simulation::from(spec)
            .with_batched_verification(false)
            .with_trace()
            .run(phases);
        let processor = ProcessId(p as u32);
        let sent = replayed.trace.filter(|e| e.from == processor);
        if let Some(k) = (0..phases).find(|&k| sent.phases[k] != scripts[p].phases[k]) {
            return Err(LocalityBreach {
                processor,
                phase: Some(k + 1),
            });
        }
        if replayed.decisions[p] != recorded.decisions[p] {
            return Err(LocalityBreach {
                processor,
                phase: None,
            });
        }
    }
    Ok(())
}
