//! The paper's *history*, recorded by the engine.
//!
//! Section 2 defines a history as a sequence of labeled phase graphs and a
//! processor's *individual subhistory* `pH` as the edges into it — "at the
//! beginning of phase k \[it\] is all that processor p has to work with".
//! When enabled on the [`Simulation`](crate::engine::Simulation), a
//! [`Trace`] records every envelope of every phase: it *is* that history,
//! one edge per envelope (the payload is the edge's label). The audits the
//! lower-bound proofs make over histories — individual subhistories and
//! their equality, sender sets, receipt counts — are its methods, so any
//! driver's trace can be audited as it stands.

use crate::actor::Envelope;
use ba_crypto::ProcessId;
use std::collections::BTreeMap;

/// A history: per phase, phase 1 first, the envelopes sent in send order
/// (deterministic: actors are stepped in id order and each actor's sends
/// keep their staging order).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace<P> {
    /// Per-phase message logs, phase 1 first.
    pub phases: Vec<Vec<Envelope<P>>>,
}

impl<P> Default for Trace<P> {
    fn default() -> Self {
        Trace { phases: Vec::new() }
    }
}

impl<P> Trace<P> {
    /// Every envelope, phase by phase.
    pub fn envelopes(&self) -> impl Iterator<Item = &Envelope<P>> {
        self.phases.iter().flatten()
    }

    /// Total number of messages in the trace.
    pub fn message_count(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Number of traced phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether no phases were traced.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The processors that sent at least one message to `p`, ascending.
    pub fn senders_to(&self, p: ProcessId) -> Vec<ProcessId> {
        let mut senders: Vec<ProcessId> = self
            .envelopes()
            .filter(|e| e.to == p)
            .map(|e| e.from)
            .collect();
        senders.sort_unstable();
        senders.dedup();
        senders
    }

    /// For each processor, the number of messages it received from a
    /// sender that `from` accepts, across all phases. A processor that
    /// received none has no entry.
    pub fn received_counts(&self, from: impl Fn(ProcessId) -> bool) -> BTreeMap<ProcessId, usize> {
        let mut counts = BTreeMap::new();
        for e in self.envelopes().filter(|e| from(e.from)) {
            *counts.entry(e.to).or_insert(0) += 1;
        }
        counts
    }

    /// The phase (1-based) of the first message to `p` whose payload
    /// `accept` takes at that phase, if any.
    pub fn first_receipt(&self, p: ProcessId, accept: impl Fn(usize, &P) -> bool) -> Option<usize> {
        (1..).zip(&self.phases).find_map(|(phase, envelopes)| {
            envelopes
                .iter()
                .any(|e| e.to == p && accept(phase, &e.payload))
                .then_some(phase)
        })
    }

    /// Whether `p` observes the same individual subhistory in both traces
    /// — the indistinguishability at the heart of the splicing proofs.
    /// Trailing phases in which `p` receives nothing are irrelevant to what
    /// it observed.
    pub fn individually_equal(&self, other: &Trace<P>, p: ProcessId) -> bool
    where
        P: PartialEq,
    {
        (0..self.len().max(other.len())).all(|k| {
            let a = self.phases.get(k).map_or(&[][..], Vec::as_slice);
            let b = other.phases.get(k).map_or(&[][..], Vec::as_slice);
            a.iter()
                .filter(|e| e.to == p)
                .eq(b.iter().filter(|e| e.to == p))
        })
    }

    /// The envelopes `keep` accepts, each phase kept (possibly empty).
    pub fn filter(&self, keep: impl Fn(&Envelope<P>) -> bool) -> Trace<P>
    where
        P: Clone,
    {
        Trace {
            phases: self
                .phases
                .iter()
                .map(|envelopes| envelopes.iter().filter(|e| keep(e)).cloned().collect())
                .collect(),
        }
    }

    /// The messages delivered *to* processor `p` at each phase — the
    /// paper's individual subhistory `pH` (excluding phase 0).
    pub fn individual_subhistory(&self, p: ProcessId) -> Vec<Vec<Envelope<P>>>
    where
        P: Clone,
    {
        self.filter(|e| e.to == p).phases
    }

    /// Renders the trace as a Graphviz `dot` digraph: one cluster per
    /// phase, edges labeled with the payload's `Debug` form (truncated).
    /// Useful for teaching and for eyeballing small adversarial runs.
    pub fn to_dot(&self, title: &str) -> String
    where
        P: std::fmt::Debug,
    {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=LR; node [shape=circle];");
        for (k, phase) in self.phases.iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_phase{} {{", k + 1);
            let _ = writeln!(out, "    label=\"phase {}\";", k + 1);
            for env in phase {
                let mut label = format!("{:?}", env.payload);
                if label.len() > 24 {
                    // Truncate on a char boundary to stay panic-free for
                    // any Debug output.
                    let cut = label
                        .char_indices()
                        .take_while(|(i, _)| *i <= 24)
                        .last()
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    label.truncate(cut);
                    label.push('…');
                }
                let label = label.replace('"', "'");
                let _ = writeln!(
                    out,
                    "    p{}_{k} -> p{}_{k} [label=\"{label}\"];",
                    env.from.0, env.to.0
                );
            }
            let _ = writeln!(out, "  }}");
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::Value;

    fn env(from: u32, to: u32, v: u64) -> Envelope<Value> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            payload: Value(v),
        }
    }

    /// Three phases, the last silent.
    fn trace() -> Trace<Value> {
        Trace {
            phases: vec![vec![env(0, 1, 5), env(0, 2, 6)], vec![env(1, 2, 7)], vec![]],
        }
    }

    #[test]
    fn individual_subhistory_filters_by_target() {
        let trace = trace();
        assert_eq!(trace.individual_subhistory(ProcessId(1))[0], [env(0, 1, 5)]);
        assert_eq!(trace.message_count(), 3);
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
    }

    #[test]
    fn individual_subhistory() {
        // One entry per phase, each holding only the in-edges of the
        // processor, with a silent phase kept as an empty entry.
        let ish = trace().individual_subhistory(ProcessId(2));
        assert_eq!(ish[0], vec![env(0, 2, 6)]);
        assert_eq!(ish[1], vec![env(1, 2, 7)]);
        assert!(ish[2].is_empty());
        assert_eq!(ish.len(), 3);
    }

    #[test]
    fn individual_equality_ignores_trailing_silence() {
        let a = trace();
        let mut b = trace();
        b.phases.pop();
        assert!(a.individually_equal(&b, ProcessId(2)));
        assert!(a.individually_equal(&b, ProcessId(1)));
        // Different traffic breaks equality...
        let mut c = trace();
        c.phases[1][0].payload = Value(9);
        assert!(!a.individually_equal(&c, ProcessId(2)));
        // ...but only for the affected processor.
        assert!(a.individually_equal(&c, ProcessId(1)));
    }

    #[test]
    fn counting_helpers() {
        let trace = trace();
        let counts = trace.received_counts(|_| true);
        assert_eq!(counts[&ProcessId(1)], 1);
        assert_eq!(counts[&ProcessId(2)], 2);
        assert!(!counts.contains_key(&ProcessId(0)));
        let from_p0 = trace.received_counts(|q| q == ProcessId(0));
        assert_eq!(from_p0[&ProcessId(2)], 1);
        assert_eq!(
            trace.senders_to(ProcessId(2)),
            vec![ProcessId(0), ProcessId(1)]
        );
        assert_eq!(trace.senders_to(ProcessId(0)), vec![]);
    }

    #[test]
    fn first_receipt_finds_the_earliest_accepted_phase() {
        let trace = trace();
        assert_eq!(trace.first_receipt(ProcessId(2), |_, _| true), Some(1));
        assert_eq!(
            trace.first_receipt(ProcessId(2), |_, v| *v == Value(7)),
            Some(2)
        );
        assert_eq!(
            trace.first_receipt(ProcessId(2), |phase, _| phase > 2),
            None
        );
        assert_eq!(trace.first_receipt(ProcessId(0), |_, _| true), None);
    }

    #[test]
    fn dot_rendering_contains_edges_and_phases() {
        let trace = Trace {
            phases: vec![vec![env(0, 1, 7)]],
        };
        let dot = trace.to_dot("demo");
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("cluster_phase1"));
        assert!(dot.contains("p0_0 -> p1_0"));
        assert!(dot.contains("Value(7)"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_labels_are_cut_on_a_char_boundary() {
        for payload in ["a".repeat(40), "é".repeat(30)] {
            let full = format!("{payload:?}").replace('"', "'");
            let trace = Trace {
                phases: vec![vec![Envelope {
                    from: ProcessId(0),
                    to: ProcessId(1),
                    payload,
                }]],
            };
            let dot = trace.to_dot("long");
            let label = dot
                .split("[label=\"")
                .nth(1)
                .and_then(|rest| rest.split("\"]").next())
                .expect("one labeled edge");
            let kept = label.strip_suffix('…').expect("a cut label ends in …");
            assert!(kept.len() <= 24 && kept.len() > 20, "{label}");
            assert!(full.is_char_boundary(kept.len()), "{label}");
            assert!(full.starts_with(kept), "{label}");
        }
    }

    #[test]
    fn empty_trace() {
        let trace: Trace<Value> = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.message_count(), 0);
        assert!(trace.individual_subhistory(ProcessId(0)).is_empty());
    }
}
