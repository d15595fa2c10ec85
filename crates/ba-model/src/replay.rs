//! Scripted faulty processors that replay traffic recorded in other
//! histories — the constructive device behind both lower-bound proofs.

use ba_crypto::{ProcessId, Value};
use ba_sim::actor::{Actor, Inbox, Outbox, Payload};
use ba_sim::trace::Trace;
use std::collections::BTreeMap;

/// A faulty processor that sends a fixed script of messages, ignoring
/// everything it receives.
///
/// The coalition of Theorem 1 is a set of `ReplayActor`s built by
/// [`split_script`]: each replays its history-`H` traffic toward the
/// victim and its history-`G` traffic toward everyone else. The replayed
/// signatures are genuine (they were recorded from real runs under the
/// same key registry), which is exactly what the paper's adversary is
/// allowed: reusing signatures it has seen, never forging new ones.
#[derive(Debug)]
pub struct ReplayActor<P> {
    /// phase → list of (target, payload).
    script: BTreeMap<usize, Vec<(ProcessId, P)>>,
}

impl<P: Payload> ReplayActor<P> {
    /// Creates the actor from an explicit script.
    pub fn new(script: BTreeMap<usize, Vec<(ProcessId, P)>>) -> Self {
        ReplayActor { script }
    }

    /// Total scripted sends (diagnostics).
    pub fn scripted_sends(&self) -> usize {
        self.script.values().map(Vec::len).sum()
    }
}

impl<P: Payload> Actor<P> for ReplayActor<P> {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, P>, out: &mut Outbox<P>) {
        if let Some(sends) = self.script.get(&phase) {
            for (to, payload) in sends {
                out.send(*to, payload.clone());
            }
        }
    }
    fn decision(&self) -> Option<Value> {
        None
    }
    fn is_correct(&self) -> bool {
        false
    }
}

/// Extracts `sender`'s outgoing traffic from a trace as a replay script.
pub fn script_from_trace<P: Clone>(
    trace: &Trace<P>,
    sender: ProcessId,
) -> BTreeMap<usize, Vec<(ProcessId, P)>> {
    let mut script: BTreeMap<usize, Vec<(ProcessId, P)>> = BTreeMap::new();
    for (i, phase) in trace.phases.iter().enumerate() {
        for env in &phase.envelopes {
            if env.from == sender {
                script
                    .entry(i + 1)
                    .or_default()
                    .push((env.to, env.payload.clone()));
            }
        }
    }
    script
}

/// The Theorem 1 split-world script for coalition member `member`:
/// toward `victim` replay the `toward_victim` history, toward everyone
/// else replay the `toward_rest` history.
pub fn split_script<P: Clone>(
    toward_victim: &Trace<P>,
    toward_rest: &Trace<P>,
    member: ProcessId,
    victim: ProcessId,
) -> BTreeMap<usize, Vec<(ProcessId, P)>> {
    let mut script: BTreeMap<usize, Vec<(ProcessId, P)>> = BTreeMap::new();
    for (i, phase) in toward_victim.phases.iter().enumerate() {
        for env in &phase.envelopes {
            if env.from == member && env.to == victim {
                script
                    .entry(i + 1)
                    .or_default()
                    .push((env.to, env.payload.clone()));
            }
        }
    }
    for (i, phase) in toward_rest.phases.iter().enumerate() {
        for env in &phase.envelopes {
            if env.from == member && env.to != victim {
                script
                    .entry(i + 1)
                    .or_default()
                    .push((env.to, env.payload.clone()));
            }
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::trace::PhaseTrace;
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
                PhaseTrace {
                    envelopes: vec![env(1, 2, v), env(1, 3, v + 1), env(0, 2, v + 2)],
                },
                PhaseTrace {
                    envelopes: vec![env(1, 2, v + 3)],
                },
            ],
        }
    }

    #[test]
    fn script_extraction() {
        let script = script_from_trace(&trace(true), ProcessId(1));
        assert_eq!(
            script[&1],
            vec![(ProcessId(2), Value(0)), (ProcessId(3), Value(1))]
        );
        assert_eq!(script[&2], vec![(ProcessId(2), Value(3))]);
        assert!(script_from_trace(&trace(true), ProcessId(9)).is_empty());
    }

    #[test]
    fn split_mixes_worlds() {
        // Victim p2 sees world H; p3 sees world G.
        let script = split_script(&trace(true), &trace(false), ProcessId(1), ProcessId(2));
        assert_eq!(
            script[&1],
            vec![(ProcessId(2), Value(0)), (ProcessId(3), Value(101))]
        );
        assert_eq!(script[&2], vec![(ProcessId(2), Value(3))]);
    }

    #[test]
    fn replay_actor_sends_script() {
        let mut actor = ReplayActor::new(script_from_trace(&trace(true), ProcessId(1)));
        assert_eq!(actor.scripted_sends(), 3);
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
