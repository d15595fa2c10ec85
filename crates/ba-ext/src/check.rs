//! Fault-schedule exploration for the extension protocol, mirroring the
//! `ba-algos` [`CheckTarget`](ba_algos::checkable::CheckTarget) contract:
//! a scenario runs to an outcome whose `failure` is `None` exactly when
//! every guaranteed property held.
//!
//! A scenario is a generic [`ScheduleSpec`] (applied to *every* stage —
//! a processor faulty for digest agreement is faulty for dissemination,
//! the availability vote and the fetch round) plus an extension-specific
//! adversary the generic vocabulary cannot express: **garbling**, where a
//! Byzantine relay corrupts the chunk bytes it forwards while leaving the
//! sender's signature attached, and corrupts the payload in any `Full`
//! fetch response it serves. Garbled chunks must die at the first correct
//! hop (the signature binds the bytes) and garbled fetch responses at the
//! requester's digest check, so garbling degrades to withholding — which
//! repair and fetch escalation then absorb.
//!
//! Checked properties, over correct processors only:
//!
//! * **No wrong payload** (safety): every decided payload is byte-for-byte
//!   the sender's payload. This holds even for a *faulty* sender here,
//!   because [`run_extension`] always signs the real
//!   payload — fault wrappers suppress or corrupt traffic, they cannot
//!   re-sign. (A sender signing inconsistent chunks is exercised
//!   separately in the crate tests; it forces aborts, never a wrong
//!   payload, because reconstruction is digest-checked.)
//! * **Outcome agreement** (strict): no two correct processors land on
//!   different [`ExtDecision`]s — not different payloads, not different
//!   variants, not different [`AbortReason`](crate::AbortReason)s. This is
//!   the agreement-on-abort guarantee the availability vote buys; any
//!   split outcome is a violation regardless of the sender's faultiness.
//! * **Totality** (liveness): when the sender is correct, every correct
//!   processor decides — the grid-repair argument: a chunk with a correct
//!   owner reaches processor `v` through one of `√n` column-disjoint
//!   relay pairs, and `t ≤ √n − 1` faults cannot cut all of them, so `v`
//!   holds at least `n − t ≥ k` chunks, and `n − t ≥ t + 1` available
//!   votes carry the collective decide.

use crate::net::{run_extension_net, ExtNetError, ExtNetRun};
use crate::{run_extension, ExtDecision, ExtError, ExtMsg, ExtOptions, ExtReport};
use ba_algos::algorithm4::GridLayout;
use ba_crypto::rng::SimRng;
use ba_crypto::{Bytes, ProcessId, Value};
use ba_net::{ChaosProfile, NetConfig};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};
use ba_sim::{Actor, Inbox, Outbox};

/// One adversarial scenario for the extension protocol.
#[derive(Clone, Debug, Default)]
pub struct ExtScenario {
    /// Generic fault schedule, applied to digest agreement and
    /// dissemination alike.
    pub spec: ScheduleSpec,
    /// Processors that garble every chunk they send during dissemination
    /// (extension-specific Byzantine behaviour; disjoint from
    /// `spec.faults`, honest during digest agreement).
    pub garble: Vec<ProcessId>,
    /// Short label for reports.
    pub label: String,
}

impl ExtScenario {
    /// Total Byzantine processors this scenario models.
    pub fn fault_count(&self) -> usize {
        self.spec.fault_count() + self.garble.len()
    }

    /// Whether processor 0 (the sender) is modeled faulty.
    pub fn sender_faulty(&self) -> bool {
        self.spec.is_faulty(ProcessId(0)) || self.garble.contains(&ProcessId(0))
    }

    /// Well-formedness against the run geometry.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self, n: usize, t: usize) -> Result<(), String> {
        if self.fault_count() > t {
            return Err(format!(
                "{} faults exceed the budget t = {t}",
                self.fault_count()
            ));
        }
        // The garblers occupy fault slots the spec doesn't know about, so
        // validate the spec against the residual budget.
        self.spec.validate(n, t - self.garble.len())?;
        for p in &self.garble {
            if p.index() >= n {
                return Err(format!("garbler {p} out of range for n = {n}"));
            }
            if self.spec.is_faulty(*p) {
                return Err(format!("{p} is both garbling and schedule-faulty"));
            }
        }
        Ok(())
    }
}

/// Wraps an honest dissemination actor and corrupts the first byte of
/// every chunk it sends, leaving the (now invalid) signature attached.
#[derive(Debug)]
struct Garbler {
    honest: Box<dyn Actor<ExtMsg>>,
    id: ProcessId,
}

impl Garbler {
    fn garble(msg: ExtMsg) -> ExtMsg {
        let corrupt = |mut chunk: crate::SignedChunk| {
            let mut data = chunk.data.to_vec();
            match data.first_mut() {
                Some(b) => *b ^= 0xFF,
                // An empty chunk has no bytes to flip; lie about the
                // index instead so the signature still fails.
                None => chunk.index ^= 1,
            }
            chunk.data = Bytes::from(data);
            chunk
        };
        match msg {
            ExtMsg::Chunk(c) => ExtMsg::Chunk(corrupt(c)),
            ExtMsg::Bundle(chunks) => ExtMsg::Bundle(chunks.into_iter().map(corrupt).collect()),
            ExtMsg::Full(payload) => {
                // Corrupt the served payload; the requester's digest check
                // must reject it.
                let mut data = payload.to_vec();
                match data.first_mut() {
                    Some(b) => *b ^= 0xFF,
                    None => data.push(0xFF),
                }
                ExtMsg::Full(Bytes::from(data))
            }
            passthrough @ (ExtMsg::Repair(_) | ExtMsg::Fetch) => passthrough,
        }
    }
}

impl Actor<ExtMsg> for Garbler {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, ExtMsg>, out: &mut Outbox<ExtMsg>) {
        let mut scratch = Outbox::new(self.id);
        self.honest.step(phase, inbox, &mut scratch);
        for env in scratch.into_staged() {
            out.send(env.to, Self::garble(env.payload));
        }
    }

    fn finalize(&mut self, inbox: Inbox<'_, ExtMsg>) {
        self.honest.finalize(inbox);
    }

    fn decision(&self) -> Option<Value> {
        None
    }

    fn is_correct(&self) -> bool {
        false
    }
}

/// Wraps every garbling processor's honest dissemination actor in a
/// [`Garbler`] — the actor rewrite [`run_judged`] hands to the extension.
fn install_garblers(
    garble: &[ProcessId],
    mut actors: Vec<Box<dyn Actor<ExtMsg>>>,
) -> Vec<Box<dyn Actor<ExtMsg>>> {
    for p in garble {
        let honest = std::mem::replace(
            &mut actors[p.index()],
            Box::new(crate::NullActor) as Box<dyn Actor<ExtMsg>>,
        );
        actors[p.index()] = Box::new(Garbler { honest, id: *p });
    }
    actors
}

/// What one checked scenario produced.
#[derive(Debug)]
pub struct ExtCheckOutcome {
    /// The scenario's label.
    pub label: String,
    /// The run report (`None` when the scenario failed to compile).
    pub report: Option<ExtReport>,
    /// `Some(description)` when a guaranteed property was violated.
    pub failure: Option<String>,
}

/// The body both runners share: validates `scenario`, hands `run` the
/// garbler-installing rewrite, and judges the report it produced. Returns
/// the run plus `Some(description)` when a guaranteed property was violated.
fn run_judged<T, E: From<ExtError>>(
    payload: &Bytes,
    opts: &ExtOptions,
    scenario: &ExtScenario,
    run: impl FnOnce(
        &dyn Fn(Vec<Box<dyn Actor<ExtMsg>>>) -> Vec<Box<dyn Actor<ExtMsg>>>,
    ) -> Result<T, E>,
    report: impl FnOnce(&T) -> &ExtReport,
) -> Result<(T, Option<String>), E> {
    scenario
        .validate(opts.n, opts.t)
        .map_err(|msg| ExtError::BadOptions(format!("invalid scenario: {msg}")))?;
    let run = run(&|actors| install_garblers(&scenario.garble, actors))?;
    let failure = judge(payload, report(&run), scenario);
    Ok((run, failure))
}

/// Runs one scenario and judges the outcome.
pub fn run_scenario(payload: &Bytes, opts: &ExtOptions, scenario: &ExtScenario) -> ExtCheckOutcome {
    let judged = run_judged(
        payload,
        opts,
        scenario,
        |install| run_extension(payload, opts, &scenario.spec, install),
        |report| report,
    );
    let (report, failure) = match judged {
        Ok((report, failure)) => (Some(report), failure),
        Err(ExtError::Schedule(err)) => (None, Some(format!("schedule did not compile: {err}"))),
        Err(err) => (None, Some(err.to_string())),
    };
    ExtCheckOutcome {
        label: scenario.label.clone(),
        report,
        failure,
    }
}

/// Runs one scenario through the chaos runtime (see [`crate::net`]) and
/// judges a completed run with the same strict properties as
/// [`run_scenario`]: returns the run plus `Some(description)` when a
/// guaranteed property was violated. A structured degradation is the
/// loud, *non*-violating outcome and surfaces as the error.
///
/// # Errors
/// Invalid scenarios (as [`ExtNetError::BadOptions`]), schedule-compile
/// errors, or a [`DegradationVerdict`](ba_net::verdict::DegradationVerdict)
/// attributed to the failing stage.
pub fn run_scenario_net(
    payload: &Bytes,
    opts: &ExtOptions,
    scenario: &ExtScenario,
    net: &NetConfig,
    chaos: &ChaosProfile,
) -> Result<(ExtNetRun, Option<String>), ExtNetError> {
    run_judged(
        payload,
        opts,
        scenario,
        |install| run_extension_net(payload, opts, net, chaos, &scenario.spec, install),
        |run| &run.report,
    )
}

/// Judges a report against the guaranteed properties. `None` = all held.
fn judge(payload: &Bytes, report: &ExtReport, scenario: &ExtScenario) -> Option<String> {
    // Strict outcome agreement first: any two correct nodes with differing
    // variants, payloads or abort reasons is a violation — even under a
    // Byzantine sender.
    if let Err(msg) = crate::net::outcome_agreement(report) {
        return Some(msg);
    }
    for (id, decision) in report.correct_decisions() {
        match decision.expect("outcome agreement rejects missing outcomes") {
            ExtDecision::Decide(bytes) => {
                // Safety: only the sender's actual payload is decidable
                // (the digest check in `outcome_agreement` implies this
                // modulo collisions; assert the bytes directly).
                if bytes != payload {
                    return Some(format!("correct {id} decided a WRONG payload"));
                }
            }
            ExtDecision::Abort(reason) => {
                // Totality: a correct sender leaves no excuse to abort.
                if !scenario.sender_faulty() {
                    return Some(format!(
                        "correct {id} aborted ({reason}) despite a correct sender"
                    ));
                }
            }
        }
    }
    None
}

/// A bounded scenario family for `(n, t)`: every single-fault behaviour
/// on structurally distinct grid positions, withholding/garbling at full
/// budget `t`, mixed-behaviour budget-`t` schedules, and `extra_random`
/// seeded random schedules. Scenario count is O(t + extra_random); none
/// with `t > 0` for a non-square `n`, which has no grid.
pub fn standard_scenarios(n: usize, t: usize, seed: u64, extra_random: usize) -> Vec<ExtScenario> {
    let mut out = Vec::new();
    if t == 0 {
        out.push(ExtScenario {
            label: "fault-free".into(),
            ..ExtScenario::default()
        });
        return out;
    }
    let Some(grid) = GridLayout::new(n) else {
        return out;
    };

    // Structurally distinct single positions: the sender, the sender's row
    // mate, the sender's column mate, and the far corner.
    let m = grid.m();
    let positions = [0usize, 1, m, n - 1];
    for &p in positions.iter().filter(|&&p| p < n) {
        let pid = ProcessId(p as u32);
        for (tag, behavior) in [
            ("silent", FaultBehavior::Silent),
            ("crash@3", FaultBehavior::CrashAt { phase: 3 }),
            (
                "omit-row",
                FaultBehavior::OmitTo {
                    targets: grid.row_mates(pid).collect(),
                },
            ),
        ] {
            out.push(ExtScenario {
                spec: ScheduleSpec {
                    faults: vec![(pid, behavior.clone())],
                    link_drops: Vec::new(),
                },
                garble: Vec::new(),
                label: format!("{tag}:{p}"),
            });
        }
        out.push(ExtScenario {
            spec: ScheduleSpec::default(),
            garble: vec![pid],
            label: format!("garble:{p}"),
        });
    }

    // Full-budget withholding: the first t non-sender chunk owners go
    // silent — t chunks never enter the grid.
    out.push(ExtScenario {
        spec: ScheduleSpec {
            faults: (1..=t)
                .map(|p| (ProcessId(p as u32), FaultBehavior::Silent))
                .collect(),
            link_drops: Vec::new(),
        },
        garble: Vec::new(),
        label: format!("withhold-{t}-chunks"),
    });
    // Full-budget garbling: t relays corrupt everything they touch.
    out.push(ExtScenario {
        spec: ScheduleSpec::default(),
        garble: (1..=t).map(|p| ProcessId(p as u32)).collect(),
        label: format!("garble-{t}-relays"),
    });
    // A whole-row-minus-one attack: faults packed into one row to stress
    // the column-disjoint repair argument.
    if t >= 2 {
        out.push(ExtScenario {
            spec: ScheduleSpec {
                faults: (m..m + t)
                    .map(|p| (ProcessId(p as u32), FaultBehavior::Silent))
                    .collect(),
                link_drops: Vec::new(),
            },
            garble: Vec::new(),
            label: "silent-row-prefix".into(),
        });
    }

    // Seeded random budget-t schedules mixing behaviours.
    let mut rng = SimRng::new(seed ^ 0xC4EC);
    for round in 0..extra_random {
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < t {
            let p = (rng.next_u64() as usize) % n;
            if !picked.contains(&p) {
                picked.push(p);
            }
        }
        picked.sort_unstable();
        let mut faults = Vec::new();
        let mut garble = Vec::new();
        for &p in &picked {
            let pid = ProcessId(p as u32);
            match rng.next_u64() % 4 {
                0 => faults.push((pid, FaultBehavior::Silent)),
                1 => faults.push((
                    pid,
                    FaultBehavior::CrashAt {
                        phase: 1 + (rng.next_u64() as usize) % crate::DISSEMINATION_PHASES,
                    },
                )),
                2 => {
                    let target = ProcessId((rng.next_u64() % n as u64) as u32);
                    faults.push((
                        pid,
                        FaultBehavior::OmitTo {
                            targets: vec![target],
                        },
                    ));
                }
                _ => garble.push(pid),
            }
        }
        out.push(ExtScenario {
            spec: ScheduleSpec {
                faults,
                link_drops: Vec::new(),
            },
            garble,
            label: format!("random:{round}"),
        });
    }
    out
}

/// Runs the [`standard_scenarios`] family against `payload` and `opts`:
/// one outcome per scenario, in order.
pub fn sweep(payload: &Bytes, opts: &ExtOptions, extra_random: usize) -> Vec<ExtCheckOutcome> {
    standard_scenarios(opts.n, opts.t, opts.seed, extra_random)
        .iter()
        .map(|scenario| run_scenario(payload, opts, scenario))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize, seed: u64) -> Bytes {
        let mut rng = SimRng::new(seed);
        Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn scenario_validation_enforces_budget_and_disjointness() {
        let over = ExtScenario {
            spec: ScheduleSpec {
                faults: vec![
                    (ProcessId(1), FaultBehavior::Silent),
                    (ProcessId(2), FaultBehavior::Silent),
                ],
                link_drops: Vec::new(),
            },
            garble: vec![ProcessId(3)],
            label: "over".into(),
        };
        assert!(over.validate(16, 2).is_err(), "3 faults > t = 2");
        assert!(over.validate(16, 3).is_ok());
        let overlap = ExtScenario {
            spec: ScheduleSpec {
                faults: vec![(ProcessId(1), FaultBehavior::Silent)],
                link_drops: Vec::new(),
            },
            garble: vec![ProcessId(1)],
            label: "dup".into(),
        };
        assert!(overlap.validate(16, 2).is_err(), "overlapping fault roles");
    }

    #[test]
    fn garbled_chunks_never_verify() {
        use ba_crypto::{KeyRegistry, SchemeKind};
        let reg = KeyRegistry::new(4, 3, SchemeKind::Fast);
        let chunk =
            crate::SignedChunk::sign(&reg.signer(ProcessId(0)), 1, 9, Bytes::from(vec![5; 9]));
        let ExtMsg::Chunk(garbled) = Garbler::garble(ExtMsg::Chunk(chunk.clone())) else {
            panic!("chunk stays a chunk");
        };
        assert_ne!(garbled.data, chunk.data);
        assert!(garbled.verify(&reg.verifier(), ProcessId(0)).is_none());
        // Empty chunks are garbled through the index instead.
        let empty =
            crate::SignedChunk::sign(&reg.signer(ProcessId(0)), 1, 0, Bytes::from(Vec::new()));
        let ExtMsg::Chunk(garbled) = Garbler::garble(ExtMsg::Chunk(empty)) else {
            panic!("chunk stays a chunk");
        };
        assert!(garbled.verify(&reg.verifier(), ProcessId(0)).is_none());
    }

    #[test]
    fn standard_family_covers_garbling_and_withholding() {
        let scenarios = standard_scenarios(16, 2, 11, 3);
        assert!(scenarios.iter().any(|s| !s.garble.is_empty()));
        assert!(scenarios
            .iter()
            .any(|s| s.spec.fault_count() == 2 && s.garble.is_empty()));
        assert!(
            scenarios
                .iter()
                .filter(|s| s.label.starts_with("random"))
                .count()
                == 3
        );
        for s in &scenarios {
            s.validate(16, 2)
                .unwrap_or_else(|e| panic!("{}: {e}", s.label));
        }
    }

    #[test]
    fn sweep_finds_no_violations_at_full_budget() {
        let p = payload(4_096, 21);
        let opts = ExtOptions {
            t: 3,
            ..ExtOptions::default()
        };
        let report = sweep(&p, &opts, 4);
        let failures: Vec<&ExtCheckOutcome> =
            report.iter().filter(|o| o.failure.is_some()).collect();
        assert!(
            failures.is_empty(),
            "violations: {:?}",
            failures
                .iter()
                .map(|o| (&o.label, &o.failure))
                .collect::<Vec<_>>()
        );
        assert!(report.len() > 15, "family too small: {}", report.len());
    }

    /// `report` with every crypto work counter of every stage zeroed.
    fn sans_crypto(mut report: ExtReport) -> ExtReport {
        for metrics in [
            &mut report.inner_metrics,
            &mut report.dissemination,
            &mut report.vote,
            &mut report.fetch,
        ] {
            *metrics = metrics.without_crypto();
        }
        report
    }

    #[test]
    fn barrier_verification_reports_what_every_recipient_verifying_reports() {
        // The reference verifies every delivery at its recipient; every
        // stage of the barrier run checks each unique chain and chunk once.
        // Fault-free, withholding at full budget and garbling at full
        // budget: the reports agree in everything but the crypto work.
        let p = payload(4_096, 17);
        let opts = ExtOptions::new().with_t(3);
        let family = standard_scenarios(opts.n, opts.t, opts.seed, 0);
        let scenarios = std::iter::once(ExtScenario::default()).chain(
            family
                .into_iter()
                .filter(|s| s.label == "withhold-3-chunks" || s.label == "garble-3-relays"),
        );
        let mut ran = 0;
        for scenario in scenarios {
            let install = |actors| install_garblers(&scenario.garble, actors);
            let barrier = run_extension(&p, &opts, &scenario.spec, install).expect("runs");
            let reference = crate::pipeline::run(
                &mut crate::pipeline::Reference,
                &p,
                &opts,
                &scenario.spec,
                install,
            )
            .expect("runs");
            assert!(
                barrier.dissemination.crypto.sig_verifications
                    < reference.dissemination.crypto.sig_verifications,
                "{}: the barrier checks each chunk once",
                scenario.label
            );
            assert_eq!(judge(&p, &barrier, &scenario), None, "{}", scenario.label);
            assert_eq!(
                sans_crypto(barrier),
                sans_crypto(reference),
                "{}",
                scenario.label
            );
            ran += 1;
        }
        assert_eq!(ran, 3);
    }

    #[test]
    fn faulty_sender_forces_aborts_not_wrong_payloads() {
        let p = payload(2_048, 5);
        let scenario = ExtScenario {
            spec: ScheduleSpec {
                faults: vec![(ProcessId(0), FaultBehavior::Silent)],
                link_drops: Vec::new(),
            },
            garble: Vec::new(),
            label: "silent-sender".into(),
        };
        let outcome = run_scenario(&p, &ExtOptions::default(), &scenario);
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        let report = outcome.report.expect("ran");
        for (id, decision) in report.correct_decisions() {
            assert!(
                matches!(decision, Some(ExtDecision::Abort(_))),
                "{id} should abort with a silent sender: {decision:?}"
            );
        }
    }
}
