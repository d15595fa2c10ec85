//! Schedule-driven fault vocabulary: the bridge between a declarative
//! fault schedule and the [`adversary`](crate::adversary) wrappers.
//!
//! The model checker (`ba-check`) explores the space of adversarial
//! *schedules*: who is faulty, how each faulty processor deviates, and
//! which links drop in which phases. This module defines the in-memory
//! vocabulary for that space — [`FaultBehavior`], [`LinkDrop`] and
//! [`ScheduleSpec`] — and the adapter ([`FaultBehavior::apply`]) that
//! compiles a behaviour into the existing actor wrappers. The serializable
//! `FaultSchedule` (JSON corpus format, target binding) lives in
//! `ba-check`; algorithm crates consume `ScheduleSpec` to build checkable
//! runs without depending on the checker.
//!
//! Every behaviour here is a *restriction* of correct behaviour (silence,
//! crashing, selective omission) except [`FaultBehavior::Equivocate`],
//! which is protocol-specific: the adapter cannot fabricate signed
//! equivocations generically, so check targets must map it to their own
//! equivocating adversary before calling [`FaultBehavior::apply`].

use crate::actor::{Actor, Payload};
use crate::adversary::{Crash, OmitTo, Silent};
use ba_crypto::ProcessId;
use core::fmt;

/// Why a [`FaultBehavior`] could not be compiled onto an honest actor.
///
/// Returned (not panicked) so callers that drive many schedules — the
/// `ba-check` explorer, the `ba-net` soak harness — can surface the
/// problem as a per-schedule report instead of aborting the whole
/// exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ScheduleError {
    /// [`FaultBehavior::Equivocate`] reached the generic adapter: the
    /// check target must map equivocation to its own signed-message
    /// adversary before falling through to [`FaultBehavior::apply`].
    UnmappedEquivocation,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnmappedEquivocation => write!(
                f,
                "equivocation is protocol-specific: the check target must map it \
                 to its own adversary before applying the generic adapter"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// How one faulty processor deviates from its correctness rule.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultBehavior {
    /// Never sends, never decides (the paper's "never sends a message").
    Silent,
    /// Honest until (and excluding) `phase`, then permanently silent.
    CrashAt {
        /// First phase in which the processor no longer participates.
        phase: usize,
    },
    /// Honest except that all sends to `targets` are suppressed.
    OmitTo {
        /// The censored recipients, sorted and deduplicated.
        targets: Vec<ProcessId>,
    },
    /// Behaves exactly like the honest actor but is *modeled* as faulty —
    /// the carrier for schedules whose only deviation is engine-level link
    /// drops (a link may only drop if its sender is faulty, otherwise the
    /// schedule would exceed the fault model).
    Passive,
    /// Protocol-specific equivocation: send value `1` to `ones` and `0`
    /// to the rest. Only meaningful for processors the target algorithm
    /// exposes an equivocating adversary for (typically the transmitter);
    /// [`FaultBehavior::apply`] panics on it by design.
    Equivocate {
        /// Recipients of value `1`.
        ones: Vec<ProcessId>,
    },
}

impl FaultBehavior {
    /// Compiles this behaviour into an actor by wrapping `honest`.
    ///
    /// # Errors
    /// [`ScheduleError::UnmappedEquivocation`] on
    /// [`FaultBehavior::Equivocate`]: equivocation needs the target
    /// algorithm's own signed-message adversary; callers must intercept it
    /// before falling through to this adapter.
    pub fn apply<P: Payload + 'static>(
        &self,
        honest: Box<dyn Actor<P>>,
    ) -> Result<Box<dyn Actor<P>>, ScheduleError> {
        match self {
            FaultBehavior::Silent => Ok(Box::new(Silent)),
            FaultBehavior::CrashAt { phase } => Ok(Box::new(Crash::new(honest, *phase))),
            FaultBehavior::OmitTo { targets } => {
                Ok(Box::new(OmitTo::new(honest, targets.iter().copied())))
            }
            // An `OmitTo` with no targets forwards everything unchanged
            // while reporting `is_correct() == false`.
            FaultBehavior::Passive => Ok(Box::new(OmitTo::new(honest, []))),
            FaultBehavior::Equivocate { .. } => Err(ScheduleError::UnmappedEquivocation),
        }
    }

    /// Short stable tag used by the JSON schedule format and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultBehavior::Silent => "silent",
            FaultBehavior::CrashAt { .. } => "crash-at",
            FaultBehavior::OmitTo { .. } => "omit-to",
            FaultBehavior::Passive => "passive",
            FaultBehavior::Equivocate { .. } => "equivocate",
        }
    }
}

/// One suppressed link: the envelope from `from` to `to` sent during
/// `phase` never reaches the wire (see
/// [`Simulation::with_link_drops`](crate::engine::Simulation::with_link_drops)).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LinkDrop {
    /// The phase whose send is suppressed (1-based, exact match).
    pub phase: usize,
    /// The sending processor (must be faulty in a well-formed schedule).
    pub from: ProcessId,
    /// The receiving processor.
    pub to: ProcessId,
}

/// A complete in-memory fault schedule: per-processor behaviours plus
/// engine-level link drops.
///
/// Invariants a *well-formed* schedule maintains (checked by
/// [`validate`](ScheduleSpec::validate)):
///
/// * `faults` is sorted by processor id with no duplicates;
/// * every [`LinkDrop::from`] names a faulty processor — otherwise the
///   schedule would model message loss on a correct sender, which the
///   paper's fault model (and hence the checker) excludes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScheduleSpec {
    /// The faulty processors and their behaviours, sorted by id.
    pub faults: Vec<(ProcessId, FaultBehavior)>,
    /// Scheduled per-phase link drops.
    pub link_drops: Vec<LinkDrop>,
}

impl ScheduleSpec {
    /// The behaviour assigned to `p`, if `p` is faulty.
    pub fn behavior_of(&self, p: ProcessId) -> Option<&FaultBehavior> {
        self.faults.iter().find(|(q, _)| *q == p).map(|(_, b)| b)
    }

    /// Whether `p` is scheduled as faulty.
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.behavior_of(p).is_some()
    }

    /// Number of faulty processors.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Checks well-formedness against `n` processors and fault budget `t`.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self, n: usize, t: usize) -> Result<(), String> {
        if self.faults.len() > t {
            return Err(format!(
                "{} faulty processors exceed the budget t = {t}",
                self.faults.len()
            ));
        }
        for w in self.faults.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("faults not sorted/unique at {}", w[1].0));
            }
        }
        for (p, behavior) in &self.faults {
            if p.index() >= n {
                return Err(format!("faulty {p} out of range for n = {n}"));
            }
            if let FaultBehavior::OmitTo { targets } = behavior {
                for q in targets {
                    if q.index() >= n {
                        return Err(format!("omission target {q} out of range for n = {n}"));
                    }
                }
            }
            if let FaultBehavior::Equivocate { ones } = behavior {
                for q in ones {
                    if q.index() >= n {
                        return Err(format!("equivocation target {q} out of range for n = {n}"));
                    }
                }
            }
        }
        for drop in &self.link_drops {
            if drop.from.index() >= n || drop.to.index() >= n {
                return Err(format!(
                    "link drop {}->{} out of range for n = {n}",
                    drop.from, drop.to
                ));
            }
            if !self.is_faulty(drop.from) {
                return Err(format!(
                    "link drop from correct {} — only faulty senders may omit",
                    drop.from
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Envelope, Inbox, Outbox};
    use ba_crypto::Value;

    #[derive(Debug, Default)]
    struct Echo;
    impl Actor<Value> for Echo {
        fn step(&mut self, _phase: usize, inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
            for env in inbox {
                out.send(env.from, *env.payload);
            }
        }
        fn decision(&self) -> Option<Value> {
            Some(Value::ONE)
        }
    }

    fn env(from: u32) -> Envelope<Value> {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(1),
            payload: Value(9),
        }
    }

    #[test]
    fn apply_compiles_each_restriction() {
        let behaviors = [
            FaultBehavior::Silent,
            FaultBehavior::CrashAt { phase: 1 },
            FaultBehavior::OmitTo {
                targets: vec![ProcessId(0)],
            },
            FaultBehavior::Passive,
        ];
        for b in &behaviors {
            let mut actor = b.apply(Box::new(Echo) as Box<dyn Actor<Value>>).unwrap();
            assert!(!actor.is_correct(), "{}", b.tag());
            let mut out = Outbox::new(ProcessId(1));
            actor.step(2, Inbox::of(&[env(0), env(2)]), &mut out);
            let sent = out.staged_len();
            match b {
                FaultBehavior::Silent | FaultBehavior::CrashAt { .. } => assert_eq!(sent, 0),
                FaultBehavior::OmitTo { .. } => assert_eq!(sent, 1, "p0 echo censored"),
                FaultBehavior::Passive => assert_eq!(sent, 2, "passive forwards everything"),
                FaultBehavior::Equivocate { .. } => unreachable!(),
            }
        }
    }

    #[test]
    fn apply_rejects_equivocation_with_typed_error() {
        let err = FaultBehavior::Equivocate { ones: vec![] }
            .apply(Box::new(Echo) as Box<dyn Actor<Value>>)
            .unwrap_err();
        assert_eq!(err, ScheduleError::UnmappedEquivocation);
        assert!(err.to_string().contains("protocol-specific"), "{err}");
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ScheduleError>();
    }

    #[test]
    fn validate_enforces_the_fault_model() {
        let spec = ScheduleSpec {
            faults: vec![(ProcessId(1), FaultBehavior::Silent)],
            link_drops: vec![LinkDrop {
                phase: 1,
                from: ProcessId(0),
                to: ProcessId(2),
            }],
        };
        let err = spec.validate(4, 2).unwrap_err();
        assert!(err.contains("only faulty senders"), "{err}");

        let ok = ScheduleSpec {
            faults: vec![(ProcessId(0), FaultBehavior::Passive)],
            link_drops: vec![LinkDrop {
                phase: 1,
                from: ProcessId(0),
                to: ProcessId(2),
            }],
        };
        assert!(ok.validate(4, 1).is_ok());
        assert!(ok.validate(4, 0).is_err(), "budget exceeded");
        assert!(ok.is_faulty(ProcessId(0)));
        assert!(!ok.is_faulty(ProcessId(2)));
        assert_eq!(ok.fault_count(), 1);
    }

    #[test]
    fn validate_rejects_unsorted_or_out_of_range() {
        let dup = ScheduleSpec {
            faults: vec![
                (ProcessId(2), FaultBehavior::Silent),
                (ProcessId(1), FaultBehavior::Silent),
            ],
            link_drops: vec![],
        };
        assert!(dup.validate(4, 3).unwrap_err().contains("sorted"));

        let oob = ScheduleSpec {
            faults: vec![(
                ProcessId(1),
                FaultBehavior::OmitTo {
                    targets: vec![ProcessId(9)],
                },
            )],
            link_drops: vec![],
        };
        assert!(oob.validate(4, 3).unwrap_err().contains("out of range"));
    }
}
