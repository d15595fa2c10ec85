//! The one fault vocabulary: a declarative schedule of what the paper's
//! adversary does, and the one loop that turns it into actors.
//!
//! The model checker (`ba-check`) explores the space of adversarial
//! *schedules*: who is faulty, how each faulty processor deviates, and
//! which links drop in which phases. This module defines that vocabulary —
//! [`FaultBehavior`], [`LinkDrop`] and [`ScheduleSpec`] — and
//! [`ScheduleSpec::compile`], which every algorithm run and every check
//! target calls to build its actors. The serializable `FaultSchedule`
//! (JSON corpus format, target binding) lives in `ba-check`; algorithm
//! crates consume `ScheduleSpec` without depending on the checker.
//!
//! Four behaviours are *restrictions* of correct behaviour (silence,
//! crashing, selective omission, passivity) and compile generically
//! through [`FaultBehavior::apply`]. The other four — [`Equivocate`],
//! [`Lie`], [`Withhold`] and [`Forge`] — are protocol-specific: the
//! generic adapter cannot fabricate a protocol's signed messages, so
//! `compile` hands them to the caller's adversary hook.
//!
//! [`Equivocate`]: FaultBehavior::Equivocate
//! [`Lie`]: FaultBehavior::Lie
//! [`Withhold`]: FaultBehavior::Withhold
//! [`Forge`]: FaultBehavior::Forge

use crate::actor::{Actor, Payload};
use crate::adversary::{Crash, OmitTo, Silent};
use ba_crypto::{ProcessId, Value};
use core::fmt;

/// Why a [`ScheduleSpec`] could not be compiled onto an algorithm's actors.
///
/// Returned (not panicked) so callers that drive many schedules — the
/// `ba-check` explorer, the `check --chaos` campaigns over `ba-net` — can surface the
/// problem as a per-schedule report instead of aborting the whole
/// exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A protocol-specific behaviour (named by its [`FaultBehavior::tag`])
    /// that the caller's adversary hook does not map.
    Unmapped(&'static str),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Unmapped(tag) => write!(
                f,
                "{tag:?} is protocol-specific and this algorithm has no adversary for it"
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
    /// Protocol-specific equivocation: value `1` (or, where the protocol
    /// is multi-valued, a value of the recipient's own) to `ones` and `0`
    /// to the rest. On a transmitter it splits what it signs; on a relay
    /// it corrupts what it forwards to `ones`.
    Equivocate {
        /// The recipients singled out, sorted and deduplicated.
        ones: Vec<ProcessId>,
    },
    /// Protocol-specific lie: play the processor's role but push `value`
    /// instead of the value the protocol gave it (a lying group root, a
    /// wrong-value gossiper).
    Lie {
        /// The value pushed.
        value: Value,
    },
    /// Protocol-specific withholding: every carrier, transmitter first,
    /// joins one coalition that extends a chain privately and releases it
    /// at phase `release`.
    Withhold {
        /// Phase at which the coalition releases its chain.
        release: usize,
    },
    /// Ignores the protocol and sends `per_phase` of the protocol's fuzzer
    /// payloads every phase to random targets, through a
    /// [`Spammer`](crate::adversary::Spammer) seeded with `seed`.
    Forge {
        /// The spammer's seed.
        seed: u64,
        /// Payloads sent per phase.
        per_phase: usize,
    },
}

impl FaultBehavior {
    /// Compiles a restriction by wrapping `honest`.
    ///
    /// # Errors
    /// [`ScheduleError::Unmapped`] on the protocol-specific behaviours,
    /// which need the algorithm's own adversary (see
    /// [`ScheduleSpec::compile`]).
    pub fn apply<P: Payload + 'static>(
        &self,
        honest: Box<dyn Actor<P>>,
    ) -> Result<Box<dyn Actor<P>>, ScheduleError> {
        Ok(match self {
            FaultBehavior::Silent => Box::new(Silent),
            FaultBehavior::CrashAt { phase } => Box::new(Crash::new(honest, *phase)),
            FaultBehavior::OmitTo { targets } => {
                Box::new(OmitTo::new(honest, targets.iter().copied()))
            }
            // An `OmitTo` with no targets forwards everything unchanged
            // while reporting `is_correct() == false`.
            FaultBehavior::Passive => Box::new(OmitTo::new(honest, [])),
            FaultBehavior::Equivocate { .. }
            | FaultBehavior::Lie { .. }
            | FaultBehavior::Withhold { .. }
            | FaultBehavior::Forge { .. } => return Err(ScheduleError::Unmapped(self.tag())),
        })
    }

    /// Short stable tag used by the JSON schedule format and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultBehavior::Silent => "silent",
            FaultBehavior::CrashAt { .. } => "crash-at",
            FaultBehavior::OmitTo { .. } => "omit-to",
            FaultBehavior::Passive => "passive",
            FaultBehavior::Equivocate { .. } => "equivocate",
            FaultBehavior::Lie { .. } => "lie",
            FaultBehavior::Withhold { .. } => "withhold",
            FaultBehavior::Forge { .. } => "forge",
        }
    }
}

/// One suppressed link: the envelope from `from` to `to` sent during
/// `phase` never reaches the wire (see
/// [`InstanceSpec::link_drops`](crate::engine::InstanceSpec::link_drops)).
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
/// * `faults` is sorted by processor id with no duplicates, and so is
///   every [`OmitTo::targets`](FaultBehavior::OmitTo) and
///   [`Equivocate::ones`](FaultBehavior::Equivocate) list;
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
    /// `behavior` on each of `ids`, with no link drops.
    pub fn each(ids: impl IntoIterator<Item = ProcessId>, behavior: FaultBehavior) -> Self {
        let mut faults: Vec<_> = ids.into_iter().map(|p| (p, behavior.clone())).collect();
        faults.sort();
        ScheduleSpec {
            faults,
            link_drops: Vec::new(),
        }
    }

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

    /// Builds one actor per processor `0..n`: a correct processor gets
    /// `honest(p)`, a restriction wraps it through
    /// [`FaultBehavior::apply`], and a protocol-specific behaviour gets
    /// whatever `adversary(p, behavior)` builds. Every algorithm run and
    /// every check target builds its actors here, each with its own hook.
    ///
    /// # Errors
    /// [`ScheduleError::Unmapped`] when `adversary` returns `None`.
    pub fn compile<P: Payload + 'static>(
        &self,
        n: usize,
        mut honest: impl FnMut(ProcessId) -> Box<dyn Actor<P>>,
        mut adversary: impl FnMut(ProcessId, &FaultBehavior) -> Option<Box<dyn Actor<P>>>,
    ) -> Result<Vec<Box<dyn Actor<P>>>, ScheduleError> {
        (0..n as u32)
            .map(ProcessId)
            .map(|p| {
                let actor = honest(p);
                match self.behavior_of(p) {
                    None => Ok(actor),
                    Some(behavior) => behavior
                        .apply(actor)
                        .or_else(|err| adversary(p, behavior).ok_or(err)),
                }
            })
            .collect()
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
            let (ids, role) = match behavior {
                FaultBehavior::OmitTo { targets } => (targets, "omission target"),
                FaultBehavior::Equivocate { ones } => (ones, "equivocation target"),
                _ => continue,
            };
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("{role}s of {p} are not sorted and deduplicated"));
            }
            if let Some(q) = ids.iter().find(|q| q.index() >= n) {
                return Err(format!("{role} {q} out of range for n = {n}"));
            }
        }
        for drop in &self.link_drops {
            if drop.from.index() >= n || drop.to.index() >= n {
                return Err(format!(
                    "link drop {}->{} out of range for n = {n}",
                    drop.from, drop.to
                ));
            }
            // Phases are 1-based and no send to oneself is ever staged, so
            // either drop would never fire.
            if drop.phase == 0 || drop.from == drop.to {
                return Err(format!(
                    "link drop {}->{} at phase {} can never fire",
                    drop.from, drop.to, drop.phase
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
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn apply_rejects_equivocation_with_typed_error() {
        let specific = [
            FaultBehavior::Equivocate { ones: vec![] },
            FaultBehavior::Lie { value: Value::ZERO },
            FaultBehavior::Withhold { release: 2 },
            FaultBehavior::Forge {
                seed: 1,
                per_phase: 3,
            },
        ];
        for b in &specific {
            let err = b
                .apply(Box::new(Echo) as Box<dyn Actor<Value>>)
                .unwrap_err();
            assert_eq!(err, ScheduleError::Unmapped(b.tag()));
            assert!(err.to_string().contains("protocol-specific"), "{err}");
        }
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ScheduleError>();
    }

    #[test]
    fn compile_routes_each_behavior_through_one_loop() {
        let spec = ScheduleSpec {
            faults: vec![
                (ProcessId(1), FaultBehavior::Silent),
                (ProcessId(2), FaultBehavior::Lie { value: Value(7) }),
            ],
            link_drops: vec![],
        };
        let mut hooked = Vec::new();
        let actors = spec
            .compile(
                4,
                |_| Box::new(Echo) as Box<dyn Actor<Value>>,
                |p, b| {
                    hooked.push((p, b.tag()));
                    Some(Box::new(crate::adversary::Silent) as Box<dyn Actor<Value>>)
                },
            )
            .unwrap();
        let correct: Vec<bool> = actors.iter().map(|a| a.is_correct()).collect();
        assert_eq!(correct, [true, false, false, true]);
        assert_eq!(
            hooked,
            [(ProcessId(2), "lie")],
            "restrictions skip the hook"
        );

        let err = spec
            .compile(4, |_| Box::new(Echo) as Box<dyn Actor<Value>>, |_, _| None)
            .unwrap_err();
        assert_eq!(err, ScheduleError::Unmapped("lie"));
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
    fn validate_rejects_link_drops_that_can_never_fire() {
        for (phase, to, named) in [(0, 2, "p0->p2 at phase 0"), (1, 0, "p0->p0 at phase 1")] {
            let spec = ScheduleSpec {
                faults: vec![(ProcessId(0), FaultBehavior::Passive)],
                link_drops: vec![LinkDrop {
                    phase,
                    from: ProcessId(0),
                    to: ProcessId(to),
                }],
            };
            let err = spec.validate(4, 1).unwrap_err();
            assert!(err.contains(named) && err.contains("never fire"), "{err}");
        }
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
        assert_eq!(
            ScheduleSpec::each([ProcessId(2), ProcessId(1)], FaultBehavior::Silent).faults,
            [
                (ProcessId(1), FaultBehavior::Silent),
                (ProcessId(2), FaultBehavior::Silent)
            ]
        );

        let oob = ScheduleSpec::each(
            [ProcessId(1)],
            FaultBehavior::OmitTo {
                targets: vec![ProcessId(9)],
            },
        );
        assert!(oob.validate(4, 3).unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_rejects_repeated_or_unsorted_recipients() {
        for behavior in [
            FaultBehavior::OmitTo {
                targets: vec![ProcessId(3), ProcessId(3)],
            },
            FaultBehavior::Equivocate {
                ones: vec![ProcessId(3), ProcessId(2)],
            },
        ] {
            let spec = ScheduleSpec::each([ProcessId(1)], behavior);
            let err = spec.validate(4, 1).unwrap_err();
            assert!(
                err.contains("of p1 are not sorted and deduplicated"),
                "{err}"
            );
        }
    }
}
