//! The committed regression corpus: the explorer must rediscover the
//! known-bad schedule for the weakened Dolev–Strong variant, every
//! committed entry must replay with its exact failure string, and every
//! committed counterexample must be 1-minimal. Besides the weakened
//! variant's entries it pins `om-n3t`'s: `OM(t)` at n = 3t, where one
//! silent relay splits the correct processors.

use ba_check::corpus::{self, default_corpus_path};
use ba_check::{explore, find_target, Case, CorpusCase, ExploreOptions, Strategy};
use std::path::Path;

#[test]
fn explorer_rediscovers_the_weakened_relay_bug() {
    let space = ExploreOptions {
        target: find_target("ds-weak-relay-threshold").unwrap(),
        n: 4,
        t: 1,
        value: 1,
        seed: 0,
        budget: 200,
        strategy: Strategy::Exhaustive,
    };
    let report = explore(space.cases(), 2);
    assert!(
        !report.violations.is_empty(),
        "bounded enumeration must expose the off-by-one relay threshold"
    );
    // At least one violation shrinks to the canonical splitting core: a
    // single faulty transmitter omitting to a single processor.
    assert!(
        report.violations.iter().any(|v| {
            v.minimized.spec.fault_count() == 1 && v.minimized.spec.link_drops.is_empty()
        }),
        "no violation shrank to a single-fault core"
    );
}

#[test]
fn committed_corpus_covers_both_families() {
    let entries = corpus::load(Path::new(default_corpus_path())).unwrap();
    assert!(
        entries
            .iter()
            .any(|e| matches!(e.case, CorpusCase::Target(_))),
        "the corpus ships a classic target-family entry"
    );
    assert!(
        entries.iter().any(|e| matches!(e.case, CorpusCase::Ext(_))),
        "the corpus ships an extension-family entry"
    );
    assert!(
        entries
            .iter()
            .any(|e| matches!(&e.case, CorpusCase::Target(s) if s.target == "om-n3t")),
        "the corpus ships the oral-messages impossibility"
    );
}

#[test]
fn committed_corpus_replays_with_exact_failures() {
    let entries = corpus::load(Path::new(default_corpus_path())).unwrap();
    assert!(!entries.is_empty(), "the corpus ships at least one entry");
    for entry in &entries {
        corpus::replay(entry, 1).unwrap();
        // Replay is thread-count independent like everything else.
        corpus::replay(entry, 4).unwrap();
    }
}

#[test]
fn committed_counterexamples_are_one_minimal() {
    let entries = corpus::load(Path::new(default_corpus_path())).unwrap();
    for entry in &entries {
        // Removing any single faulty processor or omission target from the
        // minimized schedule removes the violation.
        corpus::replay_minimal(entry, 1).unwrap();
    }
}

#[test]
fn corpus_schedules_are_harmless_on_the_sound_variant() {
    let entries = corpus::load(Path::new(default_corpus_path())).unwrap();
    for entry in &entries {
        // Every committed failure is a bug in the weakened variant (or the
        // missing signatures of `om-n3t`), not in the schedule: swapping in
        // the sound signed target must clear it, in both families.
        match &entry.case {
            CorpusCase::Target(schedule) => {
                let mut on_sound = schedule.clone();
                on_sound.target = "ds-broadcast".to_string();
                let target = on_sound.resolve().unwrap();
                assert_eq!(
                    target.run(&on_sound.config(1)).failure(),
                    None,
                    "the same schedule must not break the correct relay threshold"
                );
            }
            CorpusCase::Ext(schedule) => {
                let mut on_sound = schedule.clone();
                on_sound.inner = "ds-broadcast".to_string();
                assert_eq!(
                    on_sound.failure(1),
                    None,
                    "the same ext schedule must not split outcomes under a sound inner target"
                );
            }
        }
    }
}
