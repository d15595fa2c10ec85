//! Greedy counterexample shrinking, written once for every [`Case`]
//! family.
//!
//! Given a failing case, [`shrink`] repeatedly tries the smallest
//! structural reductions — in a fixed order, accepting the first one that
//! still fails — until no reduction keeps the failure alive:
//!
//! 1. drop a whole faulty processor (and its link drops);
//! 2. the family's own removals ([`Case::removals`]);
//! 3. remove a single link drop;
//! 4. remove a single omission target (an emptied `OmitTo` becomes
//!    `Passive`) or equivocation recipient;
//! 5. delay a crash by one phase (capped at [`Case::crash_phase_cap`]);
//! 6. the family's own simplifications ([`Case::simplifications`]).
//!
//! Every accepted step strictly decreases the lexicographic measure
//! (fault count, restriction count, total crash headroom, family
//! simplification measure), so the loop terminates; the fixpoint is
//! *1-minimal*: removing any single faulty processor or omission from the
//! result (steps 1–4) makes the violation disappear. The process is fully
//! deterministic — same input case, same output.

use crate::case::Case;
use ba_sim::schedule::FaultBehavior;

/// The first well-formed candidate that still fails, with its failure.
fn first_failing<C: Case>(candidates: Vec<C>) -> Option<(C, String)> {
    candidates
        .into_iter()
        .filter(|candidate| candidate.validate().is_ok())
        .find_map(|candidate| candidate.failure(1).map(|f| (candidate, f)))
}

/// Shrinks a failing case to a 1-minimal counterexample and returns it
/// with its failure description.
///
/// # Panics
/// Panics if `case` does not actually fail.
pub fn shrink<C: Case + Clone>(case: &C) -> (C, String) {
    let failure = case.failure(1).expect("shrink requires a case that fails");
    let mut current = (case.clone(), failure);
    while let Some(smaller) = first_failing(candidates(&current.0)) {
        current = smaller;
    }
    current
}

/// Checks that `case` (which must fail) is 1-minimal: no single removal —
/// faulty processor, family removal, link drop, or omission — still
/// fails. Simplifications (crash delay, [`Case::simplifications`]) do not
/// count against minimality.
///
/// # Errors
/// Describes the first reduction that still violates, or reports that the
/// case does not fail at all.
pub fn assert_minimal<C: Case + Clone>(case: &C) -> Result<(), String> {
    if case.failure(1).is_none() {
        return Err("schedule does not fail, so minimality is vacuous".to_string());
    }
    match first_failing(removal_candidates(case)) {
        Some((reduced, f)) => Err(format!(
            "not minimal: a reduced schedule still fails ({f}): {}",
            reduced.to_json().render()
        )),
        None => Ok(()),
    }
}

/// Strict removals only (steps 1–4): the reductions whose failure would
/// contradict 1-minimality.
fn removal_candidates<C: Case + Clone>(case: &C) -> Vec<C> {
    let spec = case.spec();
    let mut out = Vec::new();

    // 1. Drop a whole faulty processor, taking its link drops with it.
    for i in 0..spec.faults.len() {
        let mut c = case.clone();
        let (pid, _) = c.spec_mut().faults.remove(i);
        c.spec_mut().link_drops.retain(|d| d.from != pid);
        out.push(c);
    }

    // 2. Whatever else the family can remove.
    out.extend(case.removals());

    // 3. Remove a single link drop.
    for j in 0..spec.link_drops.len() {
        let mut c = case.clone();
        c.spec_mut().link_drops.remove(j);
        out.push(c);
    }

    // 4. Remove a single omission target or equivocation recipient.
    for (i, (_, behavior)) in spec.faults.iter().enumerate() {
        let reduced: Vec<FaultBehavior> = match behavior {
            FaultBehavior::OmitTo { targets } => (0..targets.len())
                .map(|k| {
                    let mut targets = targets.clone();
                    targets.remove(k);
                    if targets.is_empty() {
                        FaultBehavior::Passive
                    } else {
                        FaultBehavior::OmitTo { targets }
                    }
                })
                .collect(),
            FaultBehavior::Equivocate { ones } => (0..ones.len())
                .map(|k| {
                    let mut ones = ones.clone();
                    ones.remove(k);
                    FaultBehavior::Equivocate { ones }
                })
                .collect(),
            _ => Vec::new(),
        };
        for behavior in reduced {
            let mut c = case.clone();
            c.spec_mut().faults[i].1 = behavior;
            out.push(c);
        }
    }
    out
}

fn candidates<C: Case + Clone>(case: &C) -> Vec<C> {
    let mut out = removal_candidates(case);

    // 5. Delay a crash by one phase — a processor that crashes later is
    // "less faulty". Capped so the measure (total headroom to the cap)
    // strictly decreases and the loop terminates.
    let phase_cap = case.crash_phase_cap();
    for (i, (_, behavior)) in case.spec().faults.iter().enumerate() {
        if let FaultBehavior::CrashAt { phase } = behavior {
            if *phase < phase_cap {
                let mut c = case.clone();
                c.spec_mut().faults[i].1 = FaultBehavior::CrashAt { phase: phase + 1 };
                out.push(c);
            }
        }
    }

    // 6. Whatever else the family can simplify.
    out.extend(case.simplifications());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{default_corpus_path, load, CorpusCase};
    use crate::schedule::FaultSchedule;
    use ba_crypto::ProcessId;
    use ba_sim::schedule::{LinkDrop, ScheduleSpec};
    use std::path::Path;

    /// A deliberately bloated failing schedule: the splitting omission plus
    /// an extra omission target and a link drop in a phase where the
    /// transmitter sends nothing anyway.
    fn bloated() -> FaultSchedule {
        FaultSchedule {
            target: "ds-weak-relay-threshold".to_string(),
            n: 4,
            t: 1,
            value: 1,
            seed: 0,
            spec: ScheduleSpec {
                faults: vec![(
                    ProcessId(0),
                    FaultBehavior::OmitTo {
                        targets: vec![ProcessId(2), ProcessId(3)],
                    },
                )],
                link_drops: vec![LinkDrop {
                    phase: 2,
                    from: ProcessId(0),
                    to: ProcessId(1),
                }],
            },
        }
    }

    #[test]
    fn shrinks_bloated_schedule_to_one_minimal_core() {
        assert!(
            bloated().failure(1).is_some(),
            "precondition: the bloated schedule fails"
        );
        let (minimal, failure) = shrink(&bloated());
        assert!(!failure.is_empty());
        assert_eq!(minimal.spec.fault_count(), 1, "one faulty processor");
        assert!(minimal.spec.link_drops.is_empty(), "drop was irrelevant");
        assert_minimal(&minimal).unwrap();
        // Shrinking is deterministic.
        assert_eq!(shrink(&bloated()), (minimal, failure));
    }

    #[test]
    fn forge_padding_shrinks_back_to_the_committed_schedule() {
        let (committed, failure) = load(Path::new(default_corpus_path()))
            .unwrap()
            .into_iter()
            .find_map(|entry| match entry.case {
                CorpusCase::Target(schedule) => Some((schedule, entry.failure)),
                CorpusCase::Ext(_) => None,
            })
            .expect("the committed corpus has a target entry");
        let mut padded = committed.clone();
        padded.spec.faults.push((
            ProcessId(3),
            FaultBehavior::Forge {
                seed: 9,
                per_phase: 4,
            },
        ));
        // Padded past the t = 1 budget the case reports as invalid without
        // running; dropping the spammer is the first reduction that still
        // fails, and what is left is already 1-minimal.
        let invalid = padded.failure(1).unwrap();
        assert!(invalid.contains("exceed the budget"), "{invalid}");
        assert_eq!(shrink(&padded), (committed, failure));
    }

    #[test]
    fn assert_minimal_flags_reducible_schedules() {
        let err = assert_minimal(&bloated()).unwrap_err();
        assert!(err.contains("not minimal"), "got: {err}");
    }

    #[test]
    fn assert_minimal_rejects_passing_schedules() {
        let mut passing = bloated();
        passing.target = "ds-broadcast".to_string();
        let err = assert_minimal(&passing).unwrap_err();
        assert!(err.contains("does not fail"), "got: {err}");
    }
}
