//! Command-line front end for the `ba-check` model checker: lock-step
//! exploration of fault schedules, and seeded chaos campaigns over the
//! `ba-net` runtime (`--chaos PROFILE`).
//!
//! ```text
//! cargo run -p ba-bench --bin check --release
//!     # smoke mode: explore every sound target with a small exhaustive
//!     # budget, then replay the committed regression corpus
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --target ds-weak-relay-threshold --n 4 --t 1 --budget 200
//!     # explore one target; violations print as corpus-format JSON
//!     # (with neither --n nor --t, at the family's default dimensions)
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --target ds-broadcast --n 7 --t 3 --random --budget 500 --seed 7
//!     # seeded random sampling for dimensions too large to enumerate
//!
//! cargo run -p ba-bench --bin check --release -- --replay-corpus
//!     # replay the committed corpus only
//!
//! cargo run -p ba-bench --bin check --release -- --json
//!     # same smoke run, but one machine-readable JSON document on stdout
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --chaos stress --budget 40 --seed 7
//!     # every registered target, 40 chaos campaigns each
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --target ds-weak-relay-threshold --chaos lossy --expect-violation
//!     # CI guard: the weakened target must still be caught under chaos
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --chaos stress --budget 100 --corpus-out /tmp/chaos-corpus.json
//!     # persist newly minimized counterexamples for triage
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --target ext --n 9 --t 2 --chaos lossy --budget 20
//!     # chaos campaigns on the extension layer: completed runs must judge
//!     # clean (strict outcome agreement), degradation verdicts are acceptable
//! ```
//!
//! Exit status: 2 on usage errors, including a flag that means nothing in
//! the chosen mode (`--json`, `--replay-corpus`, `--corpus` or `--random`
//! under `--chaos`; `--corpus-out` or `--expect-violation` without it);
//! otherwise nonzero when a *sound* target violates, when corpus replay
//! fails, or when `--expect-violation` saw none. Violations of targets
//! registered as unsound (e.g. `ds-weak-relay-threshold`) are the expected
//! outcome and print without failing the run.
//!
//! With `--json` all human-readable report text moves off stdout and the
//! run emits a single JSON document instead:
//!
//! ```json
//! { "mode": "smoke",
//!   "reports": [ { "target": "...", "n": 4, "t": 1, "sound": true,
//!                  "explored": 150, "violations": [ ... ] } ],
//!   "corpus": { "path": "...", "replayed": 3 },
//!   "unexpected_violations": 0 }
//! ```
//!
//! Each violation carries the found and minimized schedules in the same
//! object format the corpus uses, so a pipeline can feed them straight
//! back into `ba-check` (`Case::from_json`).
//!
//! Under `--chaos` each case of the family's schedule space is one
//! campaign: it runs through the real message-passing runtime under the
//! named chaos profile and is classified as
//!
//! * **clean** — the run completed and Byzantine Agreement held;
//! * **degraded** — the runtime aborted with a structured
//!   [`DegradationVerdict`](ba_net::DegradationVerdict) (fault budget
//!   exceeded, deadline blown, worker stalled) instead of deciding;
//! * **violation** — the run completed but agreement broke. Expected on
//!   targets registered unsound; a soundness breach (and a nonzero exit)
//!   on sound ones, because the runtime must abort rather than decide
//!   wrongly when the wire misbehaves past the budget.
//!
//! Every campaign violation is fed back to the model checker: chaos-induced
//! permanently-failed links become `Passive`-sender [`LinkDrop`]s on the
//! lock-step schedule, the augmented schedule is replayed on the
//! deterministic engine, and — when it reproduces — shrunk to a 1-minimal
//! counterexample and appended to the regression corpus (`--corpus-out`).
//!
//! One family table ([`Family`]) resolves names, default dimensions and
//! soundness for both modes; the mode only decides whether the family's
//! cases run through `explore` or as campaigns, both written once over
//! `ba_check::Case`.
//!
//! Determinism: reports are byte-identical at any `--threads`. Campaign
//! `i` of a target uses the schedule sampler seeded from `--seed` and a
//! chaos profile seeded with `derive_seed(seed, i)`, and all chaos
//! randomness runs on the coordinator thread — reruns with the same flags
//! reproduce byte-identical campaign outcomes; only the elapsed time on
//! the final `soak:` line differs.

use ba_algos::checkable::CheckConfig;
use ba_bench::cli::parse_num;
use ba_check::corpus::{self, default_corpus_path, CorpusCase, CorpusEntry};
use ba_check::json::Json;
use ba_check::{
    explore, find_target, shrink, targets, Case, CheckTarget, ExploreOptions, ExtSchedule,
    Strategy, Violation,
};
use ba_crypto::rng::derive_seed;
use ba_crypto::Value;
use ba_ext::check::run_scenario_net;
use ba_ext::net::ExtNetError;
use ba_net::{run_target, ChaosProfile, FailedLink, NetConfig, NetRunError};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};
use ba_sim::sweep::default_threads;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

struct Cli {
    target: Option<String>,
    /// `--n` and `--t`; with neither, a target runs at its family's
    /// default dimensions, and a missing one reads n = 4 or t = 1.
    n: Option<usize>,
    t: Option<usize>,
    value: u64,
    seed: u64,
    /// Schedules to explore, or campaigns per target under `--chaos`.
    budget: usize,
    threads: usize,
    strategy: Strategy,
    inner: String,
    replay_only: bool,
    corpus_path: Option<String>,
    json: bool,
    /// The chaos profile; `None` explores on the lock-step engine.
    chaos: Option<String>,
    corpus_out: Option<String>,
    expect_violation: bool,
}

/// Flags that only lock-step exploration reads, and only `--chaos`.
const EXPLORE_ONLY: &[&str] = &["--random", "--replay-corpus", "--corpus", "--json"];
const CHAOS_ONLY: &[&str] = &["--corpus-out", "--expect-violation"];

/// What a run accumulates: the `--json` document's parts, and under
/// `--chaos` the campaign tally and the newly minimized corpus entries.
#[derive(Default)]
struct Out {
    reports: Vec<Json>,
    corpus: Option<Json>,
    tally: Tally,
    corpus_new: Vec<CorpusEntry>,
}

#[derive(Clone, Copy, Default)]
struct Tally {
    clean: usize,
    degraded: usize,
    skipped: usize,
    violations: usize,
    unexpected: usize,
    reproduced: usize,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.clean += other.clean;
        self.degraded += other.degraded;
        self.skipped += other.skipped;
        self.violations += other.violations;
        self.unexpected += other.unexpected;
        self.reproduced += other.reproduced;
    }

    fn summary(&self) -> String {
        format!(
            "{} clean, {} degraded, {} violation(s) ({} unexpected), {} reproduced, {} skipped",
            self.clean,
            self.degraded,
            self.violations,
            self.unexpected,
            self.reproduced,
            self.skipped
        )
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: check [--target NAME|ext] [--n N] [--t T] [--value 0|1] [--seed S] \
         [--budget B] [--threads K] [--inner NAME]\n             \
         [--random] [--replay-corpus] [--corpus PATH] [--json]\n             \
         [--chaos {}] [--corpus-out PATH] [--expect-violation]\n\
         --budget counts explored schedules (default 150) or, under --chaos, \
         campaigns per target (default 40)\n\
         registered targets (plus \"ext\": the extension-layer family, whose \
         digest agreement runs --inner):",
        ChaosProfile::NAMES.join("|")
    );
    for target in targets() {
        eprintln!("  {:<26} {}", target.name, target.summary);
    }
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        target: None,
        n: None,
        t: None,
        value: 1,
        seed: 0,
        budget: 150,
        threads: default_threads().max(1),
        strategy: Strategy::Exhaustive,
        inner: "ds-broadcast".to_string(),
        replay_only: false,
        corpus_path: None,
        json: false,
        chaos: None,
        corpus_out: None,
        expect_violation: false,
    };
    let mut given = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| ba_bench::cli::value_of(&mut args, flag);
        match flag.as_str() {
            "--target" => cli.target = Some(value_of("--target")),
            "--n" => cli.n = Some(parse_num(&value_of("--n"), "--n")),
            "--t" => cli.t = Some(parse_num(&value_of("--t"), "--t")),
            "--value" => cli.value = parse_num(&value_of("--value"), "--value") as u64,
            "--seed" => cli.seed = parse_num(&value_of("--seed"), "--seed") as u64,
            "--budget" => cli.budget = parse_num(&value_of("--budget"), "--budget"),
            "--threads" => cli.threads = parse_num(&value_of("--threads"), "--threads").max(1),
            "--random" => cli.strategy = Strategy::Random,
            "--inner" => cli.inner = value_of("--inner"),
            "--replay-corpus" => cli.replay_only = true,
            "--corpus" => cli.corpus_path = Some(value_of("--corpus")),
            "--json" => cli.json = true,
            "--chaos" => cli.chaos = Some(value_of("--chaos")),
            "--corpus-out" => cli.corpus_out = Some(value_of("--corpus-out")),
            "--expect-violation" => cli.expect_violation = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
        given.push(flag);
    }
    let (idle, mode) = match &cli.chaos {
        Some(profile) => {
            if ChaosProfile::from_name(profile, 0).is_none() {
                eprintln!("unknown chaos profile {profile:?}");
                usage();
            }
            // Campaigns always sample their schedules.
            cli.strategy = Strategy::Random;
            if !given.iter().any(|flag| flag == "--budget") {
                cli.budget = 40;
            }
            (EXPLORE_ONLY, "under --chaos")
        }
        None => (CHAOS_ONLY, "without --chaos"),
    };
    if let Some(flag) = given.iter().find(|flag| idle.contains(&flag.as_str())) {
        eprintln!("{flag} means nothing {mode}");
        usage();
    }
    // The ext schedule space has no strategy and no input value: refuse
    // rather than run something other than what was asked.
    if cli.target.as_deref() == Some("ext")
        && given
            .iter()
            .any(|flag| flag == "--random" || flag == "--value")
    {
        eprintln!("--target ext takes neither --random nor --value");
        usage();
    }
    cli
}

/// A check family, resolved once for both modes.
enum Family {
    /// A registered lock-step target.
    Target(&'static CheckTarget),
    /// The extension layer; its digest agreement runs `inner`, its
    /// availability vote the sound committee relay.
    Ext { inner: &'static CheckTarget },
}

impl Family {
    fn resolve(name: &str, inner: &str) -> Result<Family, String> {
        if name == "ext" {
            let inner =
                find_target(inner).ok_or_else(|| format!("unknown inner target {inner:?}"))?;
            return Ok(Family::Ext { inner });
        }
        let target = find_target(name).ok_or_else(|| format!("unknown check target {name:?}"))?;
        Ok(Family::Target(target))
    }

    /// Whether a violation is unexpected: the target's own registration,
    /// or the inner digest target's.
    fn sound(&self) -> bool {
        match self {
            Family::Target(target) => target.sound,
            Family::Ext { inner } => inner.sound,
        }
    }

    /// The family's default dimensions: (4, 1) where it supports them,
    /// else (3, 1).
    fn default_dims(&self) -> (usize, usize) {
        match self {
            Family::Target(target) if !target.supports(4, 1) => (3, 1),
            _ => (4, 1),
        }
    }
}

/// Runs `family` at `(n, t)` with `extra` sampled schedules (the
/// extension family adds them to its standard scenario set): explored on
/// the lock-step engine, or one chaos campaign per case under `--chaos`.
/// Returns the number of unexpected violations; fails, before building a
/// case, when the family rejects `(n, t)` or `--value`.
fn run_family(
    cli: &Cli,
    out: &mut Out,
    family: &Family,
    (n, t): (usize, usize),
    extra: usize,
) -> Result<usize, String> {
    // Campaign `i` reseeds its case apart from the explorer's seeds.
    let campaign_seed = |base: u64, i: usize| derive_seed(cli.seed, base + i as u64);
    let sound = family.sound();
    Ok(match *family {
        Family::Target(target) => {
            let fault_free = ScheduleSpec::default();
            let cfg = CheckConfig::new(n, t, Value(cli.value), cli.seed, 1, fault_free);
            target.validate(&cfg)?;
            let mut cases = ExploreOptions {
                target,
                n,
                t,
                value: cli.value,
                seed: cli.seed,
                budget: extra,
                strategy: cli.strategy,
            }
            .cases();
            if cli.chaos.is_some() {
                for (i, case) in cases.iter_mut().enumerate() {
                    case.seed = campaign_seed(1_000_000, i);
                }
            }
            let identity = vec![("target".to_string(), Json::Str(target.name.to_string()))];
            let head = (target.name.to_string(), identity, "");
            run_cases(
                cli,
                out,
                head,
                (n, t),
                sound,
                cases,
                |schedule, net, chaos| match run_target(target, &schedule.config(1), net, chaos) {
                    Err(NetRunError::Schedule(_)) => Campaign::Skipped,
                    Err(NetRunError::Degraded(_)) => Campaign::Degraded,
                    Ok(run) => match run.agreement {
                        Ok(_) => Campaign::Clean,
                        Err(violation) => Campaign::Violation {
                            failure: violation.to_string(),
                            failed_links: run.stats.failed_links,
                        },
                    },
                },
            )
        }
        Family::Ext { inner } => {
            let fault_free = ExtSchedule {
                n,
                t,
                payload_len: 2_048,
                payload_seed: 1,
                seed: cli.seed,
                inner: inner.name.to_string(),
                vote_inner: "ds-relay".to_string(),
                spec: ScheduleSpec::default(),
                garble: Vec::new(),
            };
            fault_free.validate()?;
            let mut cases = fault_free.family(extra);
            let label = match cli.chaos {
                Some(_) => {
                    for (i, case) in cases.iter_mut().enumerate() {
                        case.payload_seed = campaign_seed(2_000_000, i);
                        case.seed = campaign_seed(1_000_000, i);
                    }
                    "ext".to_string()
                }
                None => format!("ext[{}]", inner.name),
            };
            let identity = vec![
                ("target".to_string(), Json::Str("ext".to_string())),
                ("inner".to_string(), Json::Str(inner.name.to_string())),
            ];
            let head = (label, identity, " inner");
            run_cases(
                cli,
                out,
                head,
                (n, t),
                sound,
                cases,
                |schedule, net, chaos| {
                    let opts = match schedule.options(1) {
                        Ok(opts) if schedule.validate().is_ok() => opts,
                        _ => return Campaign::Skipped,
                    };
                    let (payload, scenario) = (schedule.payload(), schedule.scenario());
                    match run_scenario_net(&payload, &opts, &scenario, net, chaos) {
                        Err(ExtNetError::BadOptions(_)) | Err(ExtNetError::Schedule(_)) => {
                            Campaign::Skipped
                        }
                        Err(ExtNetError::Degraded { .. }) => Campaign::Degraded,
                        Ok((_, None)) => Campaign::Clean,
                        Ok((run, Some(failure))) => Campaign::Violation {
                            failure,
                            failed_links: run
                                .wire
                                .iter()
                                .flat_map(|stage| stage.stats.failed_links.iter().cloned())
                                .collect(),
                        },
                    }
                },
            )
        }
    })
}

/// A family's report head: its text label, its JSON identity fields, and
/// what its soundness qualifies in text mode.
type Head = (String, Vec<(String, Json)>, &'static str);

fn print_violation<C: Case>(violation: &Violation<C>) {
    println!("  found:     {}", violation.schedule.to_json().render());
    println!("  failure:   {}", violation.failure);
    println!("  minimized: {}", violation.minimized.to_json().render());
    println!("  failure:   {}", violation.minimized_failure);
}

fn violation_json<C: Case>(violation: &Violation<C>) -> Json {
    Json::Obj(vec![
        ("found".to_string(), violation.schedule.to_json()),
        ("failure".to_string(), Json::Str(violation.failure.clone())),
        ("minimized".to_string(), violation.minimized.to_json()),
        (
            "minimized_failure".to_string(),
            Json::Str(violation.minimized_failure.clone()),
        ),
    ])
}

/// Explores `cases` and emits the report block: a JSON object under
/// `--json` (the family's identity fields first), text otherwise.
/// Returns the number of violations when `sound`, else 0.
fn explore_cases<C: Case + Clone>(
    cli: &Cli,
    out: &mut Out,
    (label, mut identity, sound_of): Head,
    (n, t): (usize, usize),
    sound: bool,
    cases: Vec<C>,
) -> usize {
    let report = explore(cases, cli.threads);
    if cli.json {
        identity.extend([
            ("n".to_string(), Json::Int(n as u64)),
            ("t".to_string(), Json::Int(t as u64)),
            ("sound".to_string(), Json::Bool(sound)),
            ("explored".to_string(), Json::Int(report.explored as u64)),
            (
                "violations".to_string(),
                Json::Arr(report.violations.iter().map(violation_json).collect()),
            ),
        ]);
        out.reports.push(Json::Obj(identity));
    } else {
        let kind = if sound { "sound" } else { "unsound" };
        println!(
            "{label}: explored {} schedule(s) at n = {n}, t = {t} ({kind}{sound_of}) — {} violation(s)",
            report.explored,
            report.violations.len()
        );
        report.violations.iter().for_each(print_violation);
    }
    if sound {
        report.violations.len()
    } else {
        0
    }
}

/// How one campaign ended on the `ba-net` runtime.
enum Campaign {
    /// The case did not validate or compile; nothing ran.
    Skipped,
    /// The runtime aborted with a structured degradation verdict.
    Degraded,
    /// The run completed and every guaranteed property held.
    Clean,
    /// The run completed and the family's judge failed it.
    Violation {
        failure: String,
        failed_links: Vec<FailedLink>,
    },
}

/// Runs a family's `cases` in the chosen mode: explored on the lock-step
/// engine, or one chaos campaign each through `run_net`. Campaign `i` runs
/// `cases[i]` under the profile seeded `derive_seed(seed, i)`; every
/// violation is replayed on the lock-step engine with the chaos run's
/// failed links absorbed into its schedule and, when it reproduces,
/// shrunk into a new corpus entry. Violations are unexpected exactly when
/// `sound`; returns their number.
fn run_cases<C>(
    cli: &Cli,
    out: &mut Out,
    head: Head,
    (n, t): (usize, usize),
    sound: bool,
    cases: Vec<C>,
    run_net: impl Fn(&C, &NetConfig, &ChaosProfile) -> Campaign,
) -> usize
where
    C: Case + Clone + Into<CorpusCase>,
{
    let Some(profile) = &cli.chaos else {
        return explore_cases(cli, out, head, (n, t), sound, cases);
    };
    let label = head.0;
    let net = NetConfig::new().with_threads(cli.threads);
    let mut tally = Tally::default();
    for (i, case) in cases.iter().enumerate() {
        let chaos = ChaosProfile::from_name(profile, derive_seed(cli.seed, i as u64))
            .expect("profile validated at parse time");
        match run_net(case, &net, &chaos) {
            Campaign::Skipped => tally.skipped += 1,
            Campaign::Degraded => tally.degraded += 1,
            Campaign::Clean => tally.clean += 1,
            Campaign::Violation {
                failure,
                failed_links,
            } => {
                tally.violations += 1;
                if sound {
                    tally.unexpected += 1;
                    eprintln!(
                        "  SOUNDNESS BREACH: {label} decided wrongly under {profile} chaos \
                         (campaign {i}): {failure} — {}",
                        case.to_json().render()
                    );
                }
                let mut augmented = case.clone();
                absorb_failed_links(augmented.spec_mut(), &failed_links);
                if let Some(entry) = reproduce_and_shrink(&augmented) {
                    tally.reproduced += 1;
                    if !out.corpus_new.iter().any(|e| e.case == entry.case) {
                        println!(
                            "  minimized: {} — {}",
                            entry.case.as_case().to_json().render(),
                            entry.failure
                        );
                        out.corpus_new.push(entry);
                    }
                } else {
                    println!(
                        "  campaign {i}: violation did not reproduce on the lock-step engine \
                         (chaos-order dependent): {}",
                        augmented.to_json().render()
                    );
                }
            }
        }
    }
    println!(
        "{label}: {} campaign(s) under {profile:?} at n = {n}, t = {t} — {}",
        cases.len(),
        tally.summary()
    );
    out.tally.add(tally);
    tally.unexpected
}

/// Maps a chaos run's permanently failed links onto the lock-step
/// vocabulary: the sender becomes a `Passive` fault (honest behaviour,
/// counted against the budget — exactly how the runtime suspected it) and
/// each failed frame becomes a scheduled [`LinkDrop`].
fn absorb_failed_links(spec: &mut ScheduleSpec, failed: &[FailedLink]) {
    for link in failed {
        if !spec.is_faulty(link.from) {
            spec.faults.push((link.from, FaultBehavior::Passive));
        }
        spec.link_drops.push(LinkDrop {
            phase: link.phase,
            from: link.from,
            to: link.to,
        });
    }
    spec.faults.sort_by_key(|(p, _)| *p);
    spec.link_drops.sort();
    spec.link_drops.dedup();
}

/// Replays a chaos-found violation on the deterministic engine; returns
/// the shrunk corpus entry when the failure reproduces.
fn reproduce_and_shrink<C>(case: &C) -> Option<CorpusEntry>
where
    C: Case + Clone + Into<CorpusCase>,
{
    if case.validate().is_err() {
        // Absorbing failed links can push the schedule past the fault
        // budget; an over-budget schedule has no lock-step reproduction.
        return None;
    }
    match catch_unwind(AssertUnwindSafe(|| case.failure(1).map(|_| shrink(case)))) {
        Ok(shrunk) => shrunk.map(|(minimized, failure)| CorpusEntry::new(minimized, failure)),
        Err(_) => {
            eprintln!(
                "  lock-step replay panicked for {} — schedule kept un-shrunk: {}",
                case.describe(),
                case.to_json().render()
            );
            None
        }
    }
}

fn replay_corpus(cli: &Cli, out: &mut Out) -> Result<(), String> {
    let path: &str = cli
        .corpus_path
        .as_deref()
        .unwrap_or_else(|| default_corpus_path());
    let entries: Vec<CorpusEntry> = corpus::load(Path::new(path))?;
    for (i, entry) in entries.iter().enumerate() {
        corpus::replay_minimal(entry, cli.threads).map_err(|e| {
            format!(
                "corpus entry {i} ({}): {e}",
                entry.case.as_case().describe()
            )
        })?;
    }
    if cli.json {
        out.corpus = Some(Json::Obj(vec![
            ("path".to_string(), Json::Str(path.to_string())),
            ("replayed".to_string(), Json::Int(entries.len() as u64)),
        ]));
    } else {
        println!(
            "corpus: replayed {} minimized counterexample(s) from {path}",
            entries.len()
        );
    }
    Ok(())
}

/// Appends the entries not already in the corpus at `path` (created when
/// missing); returns how many were added.
fn save_corpus(path: &str, new_entries: &[CorpusEntry]) -> Result<usize, String> {
    let path = Path::new(path);
    let mut entries = if path.exists() {
        corpus::load(path)?
    } else {
        Vec::new()
    };
    let mut added = 0;
    for entry in new_entries {
        if !entries.iter().any(|e| e.case == entry.case) {
            entries.push(entry.clone());
            added += 1;
        }
    }
    corpus::save(path, &entries)?;
    Ok(added)
}

/// No `--target`: every sound target at its default dimensions, a short
/// extension-family sweep, then the committed corpus — or, under
/// `--chaos`, campaigns on every registered target. A target that refuses
/// `--value` gets one `skipped` line on stderr and the rest still run.
fn run_all(cli: &Cli, out: &mut Out) -> Result<usize, String> {
    let chaos = cli.chaos.is_some();
    let mut unexpected = 0;
    for target in targets().iter().filter(|target| chaos || target.sound) {
        let family = Family::Target(target);
        match run_family(cli, out, &family, family.default_dims(), cli.budget) {
            Ok(found) => unexpected += found,
            Err(reason) => eprintln!("{}: skipped: {reason}", target.name),
        }
    }
    if !chaos {
        let ext = Family::resolve("ext", &cli.inner)?;
        unexpected += run_family(cli, out, &ext, ext.default_dims(), 8)?;
        replay_corpus(cli, out)?;
    }
    Ok(unexpected)
}

/// Chaos mode's epilogue: saves `--corpus-out`, prints the `soak:`
/// summary line and holds `--expect-violation`.
fn finish_campaigns(cli: &Cli, out: &Out, started: std::time::Instant) -> Result<(), String> {
    if let Some(path) = &cli.corpus_out {
        let added = save_corpus(path, &out.corpus_new)?;
        println!("corpus: {added} new minimized counterexample(s) → {path}");
    }
    println!("soak: {} in {:.2?}", out.tally.summary(), started.elapsed());
    if cli.expect_violation && out.tally.violations == 0 {
        return Err("--expect-violation: no violation surfaced".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let started = std::time::Instant::now();
    let mut out = Out::default();
    let (mode, mut outcome) = if cli.replay_only {
        ("replay", replay_corpus(&cli, &mut out).map(|()| 0))
    } else if let Some(name) = &cli.target {
        let outcome = Family::resolve(name, &cli.inner).and_then(|family| {
            let dims = match (cli.n, cli.t) {
                (None, None) => family.default_dims(),
                (n, t) => (n.unwrap_or(4), t.unwrap_or(1)),
            };
            run_family(&cli, &mut out, &family, dims, cli.budget)
        });
        ("explore", outcome)
    } else {
        ("smoke", run_all(&cli, &mut out))
    };
    if cli.chaos.is_some() {
        outcome = outcome
            .and_then(|unexpected| finish_campaigns(&cli, &out, started).map(|()| unexpected));
    } else if cli.json {
        let mut doc = vec![
            ("mode".to_string(), Json::Str(mode.to_string())),
            ("reports".to_string(), Json::Arr(out.reports)),
        ];
        if let Some(corpus) = out.corpus {
            doc.push(("corpus".to_string(), corpus));
        }
        match &outcome {
            Ok(unexpected) => doc.push((
                "unexpected_violations".to_string(),
                Json::Int(*unexpected as u64),
            )),
            Err(e) => doc.push(("error".to_string(), Json::Str(e.clone()))),
        }
        println!("{}", Json::Obj(doc).pretty());
    }
    eprintln!(
        "check finished on {} thread(s) in {:.2?}",
        cli.threads,
        started.elapsed()
    );
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(violations) => {
            eprintln!("{violations} unexpected violation(s) on sound target(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_crypto::ProcessId;

    fn link(phase: usize, from: u32, to: u32) -> FailedLink {
        FailedLink {
            phase,
            from: ProcessId(from),
            to: ProcessId(to),
            attempts: 5,
        }
    }

    fn scheduled(phase: usize, from: u32, to: u32) -> LinkDrop {
        LinkDrop {
            phase,
            from: ProcessId(from),
            to: ProcessId(to),
        }
    }

    #[test]
    fn failed_link_sender_turns_passive_only_when_correct() {
        let mut spec = ScheduleSpec::each([ProcessId(2)], FaultBehavior::Silent);
        absorb_failed_links(&mut spec, &[link(1, 2, 0), link(1, 1, 0), link(2, 1, 3)]);
        assert_eq!(
            spec.faults,
            vec![
                (ProcessId(1), FaultBehavior::Passive),
                (ProcessId(2), FaultBehavior::Silent),
            ]
        );
    }

    #[test]
    fn absorbed_faults_come_out_sorted_by_id() {
        let mut spec = ScheduleSpec::each([ProcessId(1)], FaultBehavior::Silent);
        absorb_failed_links(&mut spec, &[link(1, 3, 0), link(1, 0, 2)]);
        let ids: Vec<_> = spec.faults.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn absorbed_drops_come_out_sorted_and_deduplicated() {
        let mut spec = ScheduleSpec::default();
        spec.link_drops.push(scheduled(2, 1, 0));
        let failed = [link(3, 1, 2), link(1, 1, 3), link(2, 1, 0), link(3, 1, 2)];
        absorb_failed_links(&mut spec, &failed);
        assert_eq!(
            spec.link_drops,
            vec![scheduled(1, 1, 3), scheduled(2, 1, 0), scheduled(3, 1, 2)]
        );
    }
}
