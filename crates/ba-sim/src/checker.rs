//! Post-run verification of the Byzantine Agreement conditions.
//!
//! The paper (Section 1) defines Byzantine Agreement as achieved when
//!
//! 1. all correctly operating processors agree on the same value, and
//! 2. if the transmitter is correct, they agree on *its* value.
//!
//! [`check_byzantine_agreement`] verifies both conditions on a
//! [`RunOutcome`], treating an undecided correct processor as a violation.

use crate::actor::Payload;
use crate::engine::RunOutcome;
use ba_crypto::{ProcessId, Value};
use core::fmt;

/// Why a run failed the Byzantine Agreement conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum AgreementViolation {
    /// A correct processor reached no decision.
    Undecided {
        /// The undecided processor.
        process: ProcessId,
    },
    /// Two correct processors decided differently (condition (i)).
    Disagreement {
        /// First processor and its decision.
        a: ProcessId,
        /// First decision.
        a_value: Value,
        /// Second processor.
        b: ProcessId,
        /// Second decision.
        b_value: Value,
    },
    /// The transmitter was correct but some correct processor decided on a
    /// different value (condition (ii)).
    ValidityBroken {
        /// The deviating processor.
        process: ProcessId,
        /// What it decided.
        decided: Value,
        /// What the correct transmitter sent.
        sent: Value,
    },
}

impl fmt::Display for AgreementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgreementViolation::Undecided { process } => {
                write!(f, "correct processor {process} reached no decision")
            }
            AgreementViolation::Disagreement {
                a,
                a_value,
                b,
                b_value,
            } => write!(
                f,
                "correct processors disagree: {a} decided {a_value}, {b} decided {b_value}"
            ),
            AgreementViolation::ValidityBroken {
                process,
                decided,
                sent,
            } => write!(
                f,
                "{process} decided {decided} but the correct transmitter sent {sent}"
            ),
        }
    }
}

impl std::error::Error for AgreementViolation {}

/// A successful verification: the common value and context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunVerdict {
    /// The value all correct processors agreed on (`None` only when the run
    /// had no correct processors at all).
    pub agreed: Option<Value>,
    /// Number of correct processors.
    pub correct_count: usize,
    /// Whether the transmitter was correct.
    pub transmitter_correct: bool,
}

/// Checks both Byzantine Agreement conditions on `outcome`.
///
/// `transmitter` is the distinguished sender and `sent` the value it was
/// given at phase 0; condition (ii) is only enforced when the transmitter
/// is modeled as correct in the outcome.
///
/// # Errors
/// The first [`AgreementViolation`] found, scanning processors in id order.
///
/// ```
/// # use ba_sim::engine::Simulation;
/// # use ba_sim::actor::{Actor, Inbox, Outbox};
/// # use ba_crypto::{ProcessId, Value};
/// use ba_sim::check_byzantine_agreement;
/// # #[derive(Debug)] struct Fixed(Value);
/// # impl Actor<Value> for Fixed {
/// #     fn step(&mut self, _: usize, _: Inbox<'_, Value>, _: &mut Outbox<Value>) {}
/// #     fn decision(&self) -> Option<Value> { Some(self.0) }
/// # }
/// let mut sim = Simulation::new(vec![
///     Box::new(Fixed(Value::ONE)) as Box<dyn Actor<Value>>,
///     Box::new(Fixed(Value::ONE)),
/// ]);
/// let outcome = sim.run(1);
/// let verdict = check_byzantine_agreement(&outcome, ProcessId(0), Value::ONE)?;
/// assert_eq!(verdict.agreed, Some(Value::ONE));
/// # Ok::<(), ba_sim::AgreementViolation>(())
/// ```
pub fn check_byzantine_agreement<P: Payload>(
    outcome: &RunOutcome<P>,
    transmitter: ProcessId,
    sent: Value,
) -> Result<RunVerdict, AgreementViolation> {
    let transmitter_correct = outcome
        .correct
        .get(transmitter.index())
        .copied()
        .unwrap_or(false);

    let mut first: Option<(ProcessId, Value)> = None;
    let mut correct_count = 0usize;

    for (p, decision) in outcome.correct_decisions() {
        correct_count += 1;
        let v = decision.ok_or(AgreementViolation::Undecided { process: p })?;
        match first {
            None => first = Some((p, v)),
            Some((q, w)) if w != v => {
                return Err(AgreementViolation::Disagreement {
                    a: q,
                    a_value: w,
                    b: p,
                    b_value: v,
                });
            }
            _ => {}
        }
        if transmitter_correct && v != sent {
            return Err(AgreementViolation::ValidityBroken {
                process: p,
                decided: v,
                sent,
            });
        }
    }

    Ok(RunVerdict {
        agreed: first.map(|(_, v)| v),
        correct_count,
        transmitter_correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::trace::Trace;

    fn outcome(decisions: Vec<Option<Value>>, correct: Vec<bool>) -> RunOutcome<Value> {
        RunOutcome {
            decisions,
            correct,
            metrics: Metrics::default(),
            trace: Trace::default(),
        }
    }

    #[test]
    fn unanimous_correct_passes() {
        let o = outcome(
            vec![Some(Value::ONE), Some(Value::ONE), Some(Value(9))],
            vec![true, true, false],
        );
        let verdict = check_byzantine_agreement(&o, ProcessId(0), Value::ONE).unwrap();
        assert_eq!(verdict.agreed, Some(Value::ONE));
        assert_eq!(verdict.correct_count, 2);
        assert!(verdict.transmitter_correct);
    }

    #[test]
    fn disagreement_detected() {
        let o = outcome(vec![Some(Value::ONE), Some(Value::ZERO)], vec![true, true]);
        let err = check_byzantine_agreement(&o, ProcessId(0), Value::ONE).unwrap_err();
        assert!(matches!(err, AgreementViolation::Disagreement { .. }));
        assert!(err.to_string().contains("disagree"));
    }

    #[test]
    fn undecided_correct_processor_detected() {
        let o = outcome(vec![Some(Value::ONE), None], vec![true, true]);
        let err = check_byzantine_agreement(&o, ProcessId(0), Value::ONE).unwrap_err();
        assert_eq!(
            err,
            AgreementViolation::Undecided {
                process: ProcessId(1)
            }
        );
    }

    #[test]
    fn faulty_processors_are_ignored() {
        let o = outcome(vec![None, Some(Value::ZERO)], vec![false, true]);
        // Transmitter p0 is faulty: validity is not enforced, p1 alone agrees.
        let verdict = check_byzantine_agreement(&o, ProcessId(0), Value::ONE).unwrap();
        assert_eq!(verdict.agreed, Some(Value::ZERO));
        assert!(!verdict.transmitter_correct);
    }

    #[test]
    fn validity_enforced_for_correct_transmitter() {
        let o = outcome(vec![Some(Value::ZERO), Some(Value::ZERO)], vec![true, true]);
        let err = check_byzantine_agreement(&o, ProcessId(0), Value::ONE).unwrap_err();
        assert!(matches!(err, AgreementViolation::ValidityBroken { .. }));
    }

    #[test]
    fn empty_run_vacuously_agrees() {
        let o = outcome(vec![None], vec![false]);
        let verdict = check_byzantine_agreement(&o, ProcessId(0), Value::ONE).unwrap();
        assert_eq!(verdict.agreed, None);
        assert_eq!(verdict.correct_count, 0);
    }

    #[test]
    fn violation_is_error_trait() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<AgreementViolation>();
    }
}
