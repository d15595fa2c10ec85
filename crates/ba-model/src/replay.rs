//! Scripted faulty processors that replay traffic recorded in other
//! histories — the constructive device behind both lower-bound proofs.

use ba_crypto::{ProcessId, Value};
use ba_sim::actor::{Actor, Inbox, Outbox, Payload};
use ba_sim::trace::Trace;

/// A faulty processor that sends a fixed script of messages, ignoring
/// everything it receives.
///
/// The script is a [`Trace`]: at phase `k` the actor sends what phase `k`
/// of the script lists, to the same targets, in the same order. The
/// coalition of Theorem 1 is a set of `ReplayActor`s built by
/// [`split_script`]: each replays its history-`H` traffic toward the
/// victim and its history-`G` traffic toward everyone else. The replayed
/// signatures are genuine (they were recorded from real runs under the
/// same key registry), which is exactly what the paper's adversary is
/// allowed: reusing signatures it has seen, never forging new ones.
#[derive(Debug)]
pub struct ReplayActor<P> {
    script: Trace<P>,
}

impl<P: Payload> ReplayActor<P> {
    /// Creates the actor replaying `script` (only targets and payloads are
    /// read; the engine stamps the sender).
    pub fn new(script: Trace<P>) -> Self {
        ReplayActor { script }
    }
}

impl<P: Payload> Actor<P> for ReplayActor<P> {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        for env in self.script.phases.get(phase - 1).into_iter().flatten() {
            out.send(env.to, env.payload.clone());
        }
    }
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// The Theorem 1 split-world script for coalition member `member`: per
/// phase, its sends to `victim` in the `toward_victim` history, then its
/// sends to everyone else in the `toward_rest` history.
pub fn split_script<P: Clone>(
    toward_victim: &Trace<P>,
    toward_rest: &Trace<P>,
    member: ProcessId,
    victim: ProcessId,
) -> Trace<P> {
    let mut script = toward_victim.filter(|e| e.from == member && e.to == victim);
    let rest = toward_rest.filter(|e| e.from == member && e.to != victim);
    script
        .phases
        .resize_with(script.len().max(rest.len()), Vec::new);
    for (phase, sends) in script.phases.iter_mut().zip(rest.phases) {
        phase.extend(sends);
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::Envelope;

    fn env(from: u32, to: u32, v: u64) -> Envelope<Value> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            payload: Value(v),
        }
    }

    fn trace(h: bool) -> Trace<Value> {
        let v = if h { 0 } else { 100 };
        Trace {
            phases: vec![
                vec![env(1, 2, v), env(1, 3, v + 1), env(0, 2, v + 2)],
                vec![env(1, 2, v + 3)],
            ],
        }
    }

    #[test]
    fn script_extraction() {
        // A member's own script is its outgoing traffic, phase by phase.
        let script = trace(true).filter(|e| e.from == ProcessId(1));
        assert_eq!(
            script.phases,
            vec![vec![env(1, 2, 0), env(1, 3, 1)], vec![env(1, 2, 3)]]
        );
        let silent = trace(true).filter(|e| e.from == ProcessId(9));
        assert_eq!(silent.message_count(), 0);
    }

    #[test]
    fn split_mixes_worlds() {
        // Victim p2 sees world H; p3 sees world G.
        let script = split_script(&trace(true), &trace(false), ProcessId(1), ProcessId(2));
        assert_eq!(
            script.phases,
            vec![vec![env(1, 2, 0), env(1, 3, 101)], vec![env(1, 2, 3)]]
        );
        // A phase only one history has still enters the script.
        let mut longer = trace(false);
        longer.phases.push(vec![env(1, 3, 104)]);
        let script = split_script(&trace(true), &longer, ProcessId(1), ProcessId(2));
        assert_eq!(script.phases[2], [env(1, 3, 104)]);
    }

    #[test]
    fn replay_actor_sends_script() {
        let mut actor = ReplayActor::new(trace(true).filter(|e| e.from == ProcessId(1)));
        let mut out = Outbox::new(ProcessId(1));
        actor.step(1, Inbox::of(&[]), &mut out);
        assert_eq!(out.staged_len(), 2);
        let mut out = Outbox::new(ProcessId(1));
        actor.step(2, Inbox::of(&[]), &mut out);
        assert_eq!(out.staged_len(), 1);
        let mut out = Outbox::new(ProcessId(1));
        actor.step(3, Inbox::of(&[]), &mut out);
        assert_eq!(out.staged_len(), 0);
        assert_eq!(Actor::<Value>::decision(&actor), None);
        assert!(!Actor::<Value>::is_correct(&actor));
    }
}
