//! The extension-layer check family for [`ba_ext`]'s payload-agreement
//! protocol: the case type, its JSON form and its schedule space
//! ([`ExtSchedule::family`]). Exploring, shrinking and replaying are the
//! generic [`crate::explore()`], [`crate::shrink()`] and [`crate::corpus`].
//!
//! An [`ExtSchedule`] is the extension analogue of
//! [`FaultSchedule`](crate::schedule::FaultSchedule): instead of a target
//! name and a one-word input it carries the grid geometry, a seeded
//! payload (serialized as `(payload_len, payload_seed)` so the corpus
//! stays integer-only), the inner-BA target names for digest agreement
//! and the availability vote, a generic [`ScheduleSpec`] applied to every
//! stage, and the extension-specific **garble** set (relays that corrupt
//! chunk bytes and `Full` fetch responses). Running a schedule delegates
//! to [`ba_ext::check::run_scenario`], whose judge enforces strict
//! outcome agreement — so a corpus entry in this family certifies a
//! reproducible *split outcome*, wrong payload, or unexcused abort.
//!
//! The family adds two shrink steps to the generic ones: dropping a
//! garbler (a removal that counts against 1-minimality) and halving the
//! payload (a simplification that does not).

use crate::case::Case;
use crate::json::Json;
use crate::schedule::{
    field_str, field_u64, ids_from_json, ids_to_json, spec_from_json, spec_to_json,
};
use ba_crypto::rng::SimRng;
use ba_crypto::{Bytes, ProcessId};
use ba_ext::check::{run_scenario, standard_scenarios, ExtScenario};
use ba_ext::{ExtOptions, DISSEMINATION_PHASES};
use ba_sim::schedule::ScheduleSpec;

/// A complete, replayable extension check case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtSchedule {
    /// Number of processors (a perfect square `m² ≥ 4`).
    pub n: usize,
    /// Fault budget (`t ≤ m − 1`, shared by schedule faults and garblers).
    pub t: usize,
    /// Length of the seeded payload in bytes.
    pub payload_len: usize,
    /// Seed of the payload byte stream.
    pub payload_seed: u64,
    /// Run seed (keys, inner-BA seeds).
    pub seed: u64,
    /// Inner-BA target for digest agreement.
    pub inner: String,
    /// Inner-BA target for the availability vote.
    pub vote_inner: String,
    /// Generic fault schedule, applied to every stage.
    pub spec: ScheduleSpec,
    /// Garbling relays (disjoint from `spec.faults`).
    pub garble: Vec<ProcessId>,
}

impl ExtSchedule {
    /// The deterministic payload this schedule runs on.
    pub fn payload(&self) -> Bytes {
        let mut rng = SimRng::new(self.payload_seed);
        Bytes::from(
            (0..self.payload_len)
                .map(|_| rng.next_u64() as u8)
                .collect::<Vec<u8>>(),
        )
    }

    /// The [`ExtOptions`] replaying this schedule with `threads` workers
    /// (results are identical for any value).
    ///
    /// # Errors
    /// Unknown inner-target names (the options hold `&'static` names, so
    /// they must resolve through the registry).
    pub fn options(&self, threads: usize) -> Result<ExtOptions, String> {
        let inner = ba_algos::checkable::find_target(&self.inner)
            .ok_or_else(|| format!("unknown inner target {:?}", self.inner))?;
        let vote = ba_algos::checkable::find_target(&self.vote_inner)
            .ok_or_else(|| format!("unknown vote target {:?}", self.vote_inner))?;
        Ok(ExtOptions::new()
            .with_n(self.n)
            .with_t(self.t)
            .with_seed(self.seed)
            .with_threads(threads)
            .with_inner(inner.name)
            .with_vote_inner(vote.name))
    }

    /// The family's schedule space at this schedule's coordinates: every
    /// [`standard_scenarios`] member plus `extra_random` seeded random
    /// ones, each in place of `self`'s own `spec` and `garble`.
    pub fn family(&self, extra_random: usize) -> Vec<ExtSchedule> {
        standard_scenarios(self.n, self.t, self.seed, extra_random)
            .into_iter()
            .map(|scenario| ExtSchedule {
                spec: scenario.spec,
                garble: scenario.garble,
                ..self.clone()
            })
            .collect()
    }

    /// The scenario form [`ba_ext::check`] runs.
    pub fn scenario(&self) -> ExtScenario {
        ExtScenario {
            spec: self.spec.clone(),
            garble: self.garble.clone(),
            label: self.describe(),
        }
    }
}

impl Case for ExtSchedule {
    /// Geometry, inner targets and the scenario.
    fn validate(&self) -> Result<(), String> {
        let opts = self.options(1)?;
        opts.validate()?;
        self.scenario().validate(self.n, self.t)
    }

    /// Delegates to [`run_scenario`] and its strict judge.
    fn failure(&self, threads: usize) -> Option<String> {
        match self.options(threads) {
            Ok(opts) => run_scenario(&self.payload(), &opts, &self.scenario()).failure,
            Err(msg) => Some(format!("invalid schedule: {msg}")),
        }
    }

    fn spec(&self) -> &ScheduleSpec {
        &self.spec
    }

    fn spec_mut(&mut self) -> &mut ScheduleSpec {
        &mut self.spec
    }

    /// The dissemination stage is the longest one.
    fn crash_phase_cap(&self) -> usize {
        DISSEMINATION_PHASES
    }

    /// Drop a garbler.
    fn removals(&self) -> Vec<Self> {
        (0..self.garble.len())
            .map(|i| {
                let mut c = self.clone();
                c.garble.remove(i);
                c
            })
            .collect()
    }

    /// Halve the payload — smaller counterexamples replay faster and often
    /// expose that the fault pattern, not the payload, is the trigger.
    fn simplifications(&self) -> Vec<Self> {
        if self.payload_len < 2 {
            return Vec::new();
        }
        vec![ExtSchedule {
            payload_len: self.payload_len / 2,
            ..self.clone()
        }]
    }

    /// A `"family": "ext"` discriminator plus the integer-only parameters.
    fn to_json(&self) -> Json {
        let (faults, drops) = spec_to_json(&self.spec);
        Json::Obj(vec![
            ("family".to_string(), Json::Str("ext".to_string())),
            ("n".to_string(), Json::Int(self.n as u64)),
            ("t".to_string(), Json::Int(self.t as u64)),
            (
                "payload_len".to_string(),
                Json::Int(self.payload_len as u64),
            ),
            ("payload_seed".to_string(), Json::Int(self.payload_seed)),
            ("seed".to_string(), Json::Int(self.seed)),
            ("inner".to_string(), Json::Str(self.inner.clone())),
            ("vote_inner".to_string(), Json::Str(self.vote_inner.clone())),
            ("faults".to_string(), faults),
            ("link_drops".to_string(), drops),
            ("garble".to_string(), ids_to_json(&self.garble)),
        ])
    }

    fn describe(&self) -> String {
        format!("ext[{} / {}]", self.inner, self.vote_inner)
    }

    fn from_json(value: &Json) -> Result<ExtSchedule, String> {
        match value.get("family").and_then(Json::as_str) {
            Some("ext") => {}
            other => return Err(format!("expected \"family\": \"ext\", got {other:?}")),
        }
        Ok(ExtSchedule {
            n: field_u64(value, "n")? as usize,
            t: field_u64(value, "t")? as usize,
            payload_len: field_u64(value, "payload_len")? as usize,
            payload_seed: field_u64(value, "payload_seed")?,
            seed: field_u64(value, "seed")?,
            inner: field_str(value, "inner")?,
            vote_inner: field_str(value, "vote_inner")?,
            spec: spec_from_json(value)?,
            garble: ids_from_json(value, "garble")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::shrink::{assert_minimal, shrink};
    use ba_sim::schedule::{FaultBehavior, LinkDrop};

    fn sample() -> ExtSchedule {
        ExtSchedule {
            n: 4,
            t: 1,
            payload_len: 96,
            payload_seed: 9,
            seed: 0,
            inner: "ds-weak-relay-threshold".to_string(),
            vote_inner: "ds-relay".to_string(),
            spec: ScheduleSpec {
                faults: vec![(
                    ProcessId(0),
                    FaultBehavior::OmitTo {
                        targets: vec![ProcessId(2)],
                    },
                )],
                link_drops: vec![],
            },
            garble: vec![],
        }
    }

    #[test]
    fn schedule_roundtrips_compact_and_pretty() {
        let mut schedule = sample();
        schedule.garble = vec![ProcessId(3)];
        schedule.spec.faults.clear();
        schedule.spec.link_drops = vec![LinkDrop {
            phase: 2,
            from: ProcessId(3),
            to: ProcessId(1),
        }];
        let compact = ExtSchedule::from_text(&schedule.to_json().render()).unwrap();
        assert_eq!(compact, schedule);
        let pretty = ExtSchedule::from_text(&schedule.to_json().pretty()).unwrap();
        assert_eq!(pretty, schedule);
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(ExtSchedule::from_text("{}").unwrap_err().contains("family"));
        let no_garble = sample()
            .to_json()
            .render()
            .replace("\"garble\":[]", "\"x\":[]");
        assert!(ExtSchedule::from_text(&no_garble)
            .unwrap_err()
            .contains("garble"));
        // Ids are 32-bit: a wider one is an error, not p0 after truncation.
        let wide_garble = sample()
            .to_json()
            .render()
            .replace("\"garble\":[]", "\"garble\":[4294967296]");
        let err = ExtSchedule::from_text(&wide_garble).unwrap_err();
        assert!(
            err.contains("garble") && err.contains("out of range"),
            "got: {err}"
        );
        let bad_inner = sample();
        let mut unknown = bad_inner.clone();
        unknown.inner = "no-such-target".to_string();
        assert!(unknown.validate().unwrap_err().contains("unknown"));
    }

    #[test]
    fn payload_is_seed_deterministic() {
        let schedule = sample();
        assert_eq!(schedule.payload(), schedule.payload());
        assert_eq!(schedule.payload().len(), 96);
        let mut other = schedule.clone();
        other.payload_seed ^= 1;
        assert_ne!(schedule.payload(), other.payload());
    }

    #[test]
    fn splitting_schedule_fails_and_is_minimal() {
        let schedule = sample();
        let failure = schedule.failure(1).expect("the weak inner splits outcomes");
        assert!(
            failure.contains("disagree on the outcome"),
            "got: {failure}"
        );
        assert_minimal(&schedule).unwrap();
    }

    #[test]
    fn shrink_removes_bloat_and_is_deterministic() {
        // Bloat the splitting core with an irrelevant link drop and an
        // extra omission target; shrinking must strip both and may halve
        // the payload — but never lose the failure.
        let mut bloated = sample();
        bloated.spec.faults[0].1 = FaultBehavior::OmitTo {
            targets: vec![ProcessId(2), ProcessId(3)],
        };
        bloated.spec.link_drops = vec![LinkDrop {
            phase: 6,
            from: ProcessId(0),
            to: ProcessId(1),
        }];
        assert!(bloated.failure(1).is_some(), "precondition: bloated fails");
        let (minimal, failure) = shrink(&bloated);
        assert!(!failure.is_empty());
        assert_eq!(minimal.spec.fault_count(), 1);
        assert!(minimal.spec.link_drops.is_empty(), "drop was irrelevant");
        assert!(minimal.payload_len <= bloated.payload_len);
        assert_minimal(&minimal).unwrap();
        assert_eq!(shrink(&bloated), (minimal, failure), "deterministic");
    }

    #[test]
    fn sound_inner_explores_clean_at_any_thread_count() {
        let sound = ExtSchedule {
            payload_len: 64,
            payload_seed: 1,
            inner: "ds-broadcast".to_string(),
            ..sample()
        };
        let report = explore(sound.family(4), 1);
        assert!(
            report.explored > 10,
            "family too small: {}",
            report.explored
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let threaded = explore(sound.family(4), 4);
        assert_eq!(report, threaded, "exploration is thread-count invariant");
    }

    #[test]
    fn weak_inner_yields_minimized_violations() {
        let report = explore(sample().family(2), 1);
        assert!(
            !report.violations.is_empty(),
            "the weak inner target must split some ext outcome"
        );
        for violation in &report.violations {
            assert!(
                violation.minimized.spec.fault_count() + violation.minimized.garble.len()
                    <= violation.schedule.spec.fault_count() + violation.schedule.garble.len(),
                "shrinking never grows the schedule"
            );
            assert_eq!(
                violation.minimized.failure(1),
                Some(violation.minimized_failure.clone()),
                "the minimized schedule still fails with the recorded string"
            );
        }
    }
}
