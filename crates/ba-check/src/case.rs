//! The contract between the checker and a family of check cases: what a
//! family supplies so that exploration, shrinking, corpus replay and the
//! `check` front end's two modes (lock-step exploration and `--chaos`
//! campaigns) can be written once (DESIGN.md §8). Its
//! *schedule space* is a function listing the cases to run
//! (`ExploreOptions::cases`, `ExtSchedule::family`); *run*, *judge*
//! and *shrink candidates* are the methods below.

use crate::json::{self, Json};
use ba_sim::schedule::ScheduleSpec;

/// One replayable check input of some family (see the module docs).
pub trait Case: Send + Sync {
    /// Checks well-formedness without running anything.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;

    /// Runs the case on the lock-step engine with `threads` workers
    /// (results are identical for any value); `Some(description)` when a
    /// guaranteed property is violated. Callers validate first.
    fn failure(&self, threads: usize) -> Option<String>;

    /// The generic fault schedule the case embeds.
    fn spec(&self) -> &ScheduleSpec;

    /// Mutable access to the embedded schedule, for the shrinker's edits.
    fn spec_mut(&mut self) -> &mut ScheduleSpec;

    /// The last phase the shrinker may delay a crash to (the cap makes the
    /// crash-headroom measure finite, so shrinking terminates).
    fn crash_phase_cap(&self) -> usize;

    /// Family-specific strict removals outside the spec (none by
    /// default). A removal that still fails contradicts 1-minimality.
    fn removals(&self) -> Vec<Self>
    where
        Self: Sized,
    {
        Vec::new()
    }

    /// Family-specific simplifications that keep every fault in place
    /// (none by default); they shrink the case but do not count against
    /// 1-minimality.
    fn simplifications(&self) -> Vec<Self>
    where
        Self: Sized,
    {
        Vec::new()
    }

    /// The JSON object form (see the corpus format in `DESIGN.md`).
    fn to_json(&self) -> Json;

    /// Parses the object form produced by [`Case::to_json`].
    ///
    /// # Errors
    /// A description of the first missing, ill-typed or out-of-range field.
    fn from_json(value: &Json) -> Result<Self, String>
    where
        Self: Sized;

    /// Parses a case from JSON text.
    ///
    /// # Errors
    /// Syntax errors from the parser or structural errors from
    /// [`Case::from_json`].
    fn from_text(text: &str) -> Result<Self, String>
    where
        Self: Sized,
    {
        Self::from_json(&json::parse(text)?)
    }

    /// A short human-readable label for reports and error messages.
    fn describe(&self) -> String;
}
