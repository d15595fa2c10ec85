//! The serializable fault schedule: a [`ScheduleSpec`] bound to a named
//! check target and its run parameters, with a JSON form stable enough to
//! commit as a regression corpus.

use crate::case::Case;
use crate::json::Json;
use ba_algos::checkable::{CheckConfig, CheckTarget};
use ba_crypto::{ProcessId, Value};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};

/// A complete, replayable check case: the target, its parameters, and the
/// fault schedule to drive it with.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSchedule {
    /// Name of the [`CheckTarget`] this schedule runs against.
    pub target: String,
    /// Number of processors.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// The transmitter's input value (binary).
    pub value: u64,
    /// Key-registry seed the run uses.
    pub seed: u64,
    /// The fault schedule itself.
    pub spec: ScheduleSpec,
}

impl FaultSchedule {
    /// The [`CheckConfig`] replaying this schedule with `threads` worker
    /// threads (results are identical for any value).
    pub fn config(&self, threads: usize) -> CheckConfig {
        CheckConfig::new(
            self.n,
            self.t,
            Value(self.value),
            self.seed,
            threads,
            self.spec.clone(),
        )
    }

    /// Resolves and validates this schedule's target.
    ///
    /// # Errors
    /// Unknown target name, or a schedule the target rejects.
    pub fn resolve(&self) -> Result<&'static CheckTarget, String> {
        let target = ba_algos::checkable::find_target(&self.target)
            .ok_or_else(|| format!("unknown check target {:?}", self.target))?;
        target.validate(&self.config(1))?;
        Ok(target)
    }
}

impl Case for FaultSchedule {
    fn validate(&self) -> Result<(), String> {
        self.resolve().map(|_| ())
    }

    fn failure(&self, threads: usize) -> Option<String> {
        match self.resolve() {
            Ok(target) => target.run(&self.config(threads)).failure(),
            Err(msg) => Some(format!("invalid schedule: {msg}")),
        }
    }

    fn spec(&self) -> &ScheduleSpec {
        &self.spec
    }

    fn spec_mut(&mut self) -> &mut ScheduleSpec {
        &mut self.spec
    }

    /// Every registered target finishes within `t + 4` phases.
    fn crash_phase_cap(&self) -> usize {
        self.t + 4
    }

    fn to_json(&self) -> Json {
        let (faults, drops) = spec_to_json(&self.spec);
        Json::Obj(vec![
            ("target".to_string(), Json::Str(self.target.clone())),
            ("n".to_string(), Json::Int(self.n as u64)),
            ("t".to_string(), Json::Int(self.t as u64)),
            ("value".to_string(), Json::Int(self.value)),
            ("seed".to_string(), Json::Int(self.seed)),
            ("faults".to_string(), faults),
            ("link_drops".to_string(), drops),
        ])
    }

    fn describe(&self) -> String {
        self.target.clone()
    }

    fn from_json(value: &Json) -> Result<FaultSchedule, String> {
        let target = field_str(value, "target")?;
        let n = field_u64(value, "n")? as usize;
        let t = field_u64(value, "t")? as usize;
        let val = field_u64(value, "value")?;
        let seed = field_u64(value, "seed")?;
        Ok(FaultSchedule {
            target,
            n,
            t,
            value: val,
            seed,
            spec: spec_from_json(value)?,
        })
    }
}

/// Serializes a bare [`ScheduleSpec`] into its `"faults"` and
/// `"link_drops"` JSON arrays — shared between the classic target family
/// and the extension family (see [`crate::ext`]).
pub(crate) fn spec_to_json(spec: &ScheduleSpec) -> (Json, Json) {
    let faults = spec
        .faults
        .iter()
        .map(|(p, behavior)| {
            let mut pairs = vec![
                ("process".to_string(), Json::Int(u64::from(p.0))),
                (
                    "behavior".to_string(),
                    Json::Str(behavior.tag().to_string()),
                ),
            ];
            match behavior {
                FaultBehavior::Silent | FaultBehavior::Passive => {}
                FaultBehavior::CrashAt { phase } => {
                    pairs.push(("phase".to_string(), Json::Int(*phase as u64)));
                }
                FaultBehavior::OmitTo { targets } => {
                    pairs.push(("targets".to_string(), ids_to_json(targets)));
                }
                FaultBehavior::Equivocate { ones } => {
                    pairs.push(("ones".to_string(), ids_to_json(ones)));
                }
                FaultBehavior::Lie { value } => {
                    pairs.push(("value".to_string(), Json::Int(value.0)));
                }
                FaultBehavior::Withhold { release } => {
                    pairs.push(("release".to_string(), Json::Int(*release as u64)));
                }
                FaultBehavior::Forge { seed, per_phase } => {
                    pairs.push(("seed".to_string(), Json::Int(*seed)));
                    pairs.push(("per_phase".to_string(), Json::Int(*per_phase as u64)));
                }
            }
            Json::Obj(pairs)
        })
        .collect();
    let drops = spec
        .link_drops
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("phase".to_string(), Json::Int(d.phase as u64)),
                ("from".to_string(), Json::Int(u64::from(d.from.0))),
                ("to".to_string(), Json::Int(u64::from(d.to.0))),
            ])
        })
        .collect();
    (Json::Arr(faults), Json::Arr(drops))
}

/// Parses the `"faults"` / `"link_drops"` arrays back out of a schedule
/// object (inverse of [`spec_to_json`]).
pub(crate) fn spec_from_json(value: &Json) -> Result<ScheduleSpec, String> {
    let mut faults = Vec::new();
    for entry in value
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or("schedule missing array field \"faults\"")?
    {
        let process = field_id(entry, "process")?;
        let tag = entry
            .get("behavior")
            .and_then(Json::as_str)
            .ok_or("fault missing string field \"behavior\"")?;
        let behavior = match tag {
            "silent" => FaultBehavior::Silent,
            "passive" => FaultBehavior::Passive,
            "crash-at" => FaultBehavior::CrashAt {
                phase: field_u64(entry, "phase")? as usize,
            },
            "omit-to" => FaultBehavior::OmitTo {
                targets: ids_from_json(entry, "targets")?,
            },
            "equivocate" => FaultBehavior::Equivocate {
                ones: ids_from_json(entry, "ones")?,
            },
            "lie" => FaultBehavior::Lie {
                value: Value(field_u64(entry, "value")?),
            },
            "withhold" => FaultBehavior::Withhold {
                release: field_u64(entry, "release")? as usize,
            },
            "forge" => FaultBehavior::Forge {
                seed: field_u64(entry, "seed")?,
                per_phase: field_u64(entry, "per_phase")? as usize,
            },
            other => return Err(format!("unknown fault behavior {other:?}")),
        };
        faults.push((process, behavior));
    }
    let mut link_drops = Vec::new();
    for entry in value
        .get("link_drops")
        .and_then(Json::as_arr)
        .ok_or("schedule missing array field \"link_drops\"")?
    {
        link_drops.push(LinkDrop {
            phase: field_u64(entry, "phase")? as usize,
            from: field_id(entry, "from")?,
            to: field_id(entry, "to")?,
        });
    }
    Ok(ScheduleSpec { faults, link_drops })
}

pub(crate) fn field_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

pub(crate) fn field_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn id_from_u64(raw: u64, key: &str) -> Result<ProcessId, String> {
    u32::try_from(raw)
        .map(ProcessId)
        .map_err(|_| format!("processor id {raw} in {key:?} is out of range"))
}

fn field_id(value: &Json, key: &str) -> Result<ProcessId, String> {
    id_from_u64(field_u64(value, key)?, key)
}

pub(crate) fn ids_to_json(ids: &[ProcessId]) -> Json {
    Json::Arr(ids.iter().map(|p| Json::Int(u64::from(p.0))).collect())
}

pub(crate) fn ids_from_json(entry: &Json, key: &str) -> Result<Vec<ProcessId>, String> {
    entry
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("fault missing array field {key:?}"))?
        .iter()
        .map(|item| {
            let raw = item
                .as_u64()
                .ok_or_else(|| format!("non-integer id in {key:?}"))?;
            id_from_u64(raw, key)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::testkit::run_cases;

    fn sample() -> FaultSchedule {
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
                        targets: vec![ProcessId(2)],
                    },
                )],
                link_drops: vec![],
            },
        }
    }

    #[test]
    fn sample_roundtrips_and_resolves() {
        let schedule = sample();
        let text = schedule.to_json().pretty();
        let back = FaultSchedule::from_text(&text).unwrap();
        assert_eq!(back, schedule);
        let target = back.resolve().unwrap();
        assert_eq!(target.name, "ds-weak-relay-threshold");
        assert!(!target.sound);
    }

    #[test]
    fn every_behavior_roundtrips() {
        run_cases(24, 0x5EED, |gen| {
            let n = gen.usize_in(3, 8);
            let behaviors = [
                FaultBehavior::Silent,
                FaultBehavior::Passive,
                FaultBehavior::CrashAt {
                    phase: gen.usize_in(1, 6),
                },
                FaultBehavior::OmitTo {
                    targets: vec![ProcessId(gen.u32_in(1, n as u32))],
                },
                FaultBehavior::Equivocate {
                    ones: vec![ProcessId(gen.u32_in(1, n as u32))],
                },
                FaultBehavior::Lie {
                    value: Value(gen.u64()),
                },
                FaultBehavior::Withhold {
                    release: gen.usize_in(1, 6),
                },
                FaultBehavior::Forge {
                    seed: gen.u64(),
                    per_phase: gen.usize_in(0, 9),
                },
            ];
            let pick = gen.usize_in(0, behaviors.len());
            let schedule = FaultSchedule {
                target: "ds-broadcast".to_string(),
                n,
                t: gen.usize_in(1, n.saturating_sub(2).max(2)),
                value: u64::from(gen.bool()),
                seed: gen.u64(),
                spec: ScheduleSpec {
                    faults: vec![(ProcessId(0), behaviors[pick].clone())],
                    link_drops: vec![LinkDrop {
                        phase: gen.usize_in(1, 5),
                        from: ProcessId(0),
                        to: ProcessId(gen.u32_in(1, n as u32)),
                    }],
                },
            };
            let compact = FaultSchedule::from_text(&schedule.to_json().render()).unwrap();
            assert_eq!(compact, schedule);
        });
    }

    #[test]
    fn protocol_specific_tags_roundtrip_as_integer_fields() {
        for (behavior, rendered) in [
            (
                FaultBehavior::Lie { value: Value(7) },
                r#""behavior":"lie","value":7"#,
            ),
            (
                FaultBehavior::Withhold { release: 3 },
                r#""behavior":"withhold","release":3"#,
            ),
            (
                FaultBehavior::Forge {
                    seed: 11,
                    per_phase: 4,
                },
                r#""behavior":"forge","seed":11,"per_phase":4"#,
            ),
        ] {
            let mut schedule = sample();
            schedule.spec.faults = vec![(ProcessId(0), behavior)];
            let text = schedule.to_json().render();
            assert!(text.contains(rendered), "{text}");
            assert_eq!(FaultSchedule::from_text(&text).unwrap(), schedule);
            let missing = text.replace(&rendered[rendered.rfind(',').unwrap()..], "");
            assert!(FaultSchedule::from_text(&missing).is_err(), "{missing}");
        }
    }

    #[test]
    fn resolve_rejects_unknown_target_and_bad_spec() {
        let mut schedule = sample();
        schedule.target = "no-such-target".to_string();
        assert!(schedule.resolve().unwrap_err().contains("unknown"));

        let mut overbudget = sample();
        overbudget.spec.faults = vec![
            (ProcessId(0), FaultBehavior::Silent),
            (ProcessId(1), FaultBehavior::Silent),
        ];
        assert!(overbudget.resolve().is_err(), "t = 1 allows one fault");

        // Corpus JSON is outside input: a repeated omission target is
        // rejected, naming the processor, rather than parsed and run.
        let repeated = sample().to_json().render().replace("[2]", "[3,3]");
        let err = FaultSchedule::from_text(&repeated)
            .unwrap()
            .resolve()
            .unwrap_err();
        assert!(err.contains("targets of p0"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(FaultSchedule::from_text("{}")
            .unwrap_err()
            .contains("target"));
        let missing_faults = "{\"target\":\"ds-broadcast\",\"n\":4,\"t\":1,\"value\":1,\"seed\":0}";
        assert!(FaultSchedule::from_text(missing_faults)
            .unwrap_err()
            .contains("faults"));
        let bad_behavior = sample().to_json().render().replace("omit-to", "explode");
        assert!(FaultSchedule::from_text(&bad_behavior)
            .unwrap_err()
            .contains("explode"));
        // Ids are 32-bit: a wider one is an error, not p0 after truncation.
        let rendered = sample().to_json().render();
        for (field, narrow, wide) in [
            ("process", "\"process\":0", "\"process\":4294967296"),
            ("targets", "\"targets\":[2]", "\"targets\":[4294967298]"),
        ] {
            assert!(rendered.contains(narrow));
            let err = FaultSchedule::from_text(&rendered.replace(narrow, wide)).unwrap_err();
            assert!(
                err.contains(field) && err.contains("out of range"),
                "got: {err}"
            );
        }
    }
}
