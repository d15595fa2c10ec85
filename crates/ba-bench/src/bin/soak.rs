//! Seeded chaos-soak campaigns for the `ba-net` runtime.
//!
//! Each campaign draws a fault schedule from `ba-check`'s sampler and a
//! chaos profile from `ba-net`, runs the target through the real
//! message-passing runtime, and classifies the outcome:
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
//! Every violation is fed back to the model checker: chaos-induced
//! permanently-failed links become `Passive`-sender [`LinkDrop`]s on the
//! lock-step schedule, the augmented schedule is replayed on the
//! deterministic engine, and — when it reproduces — shrunk to a 1-minimal
//! counterexample and appended to the regression corpus (`--corpus-out`).
//!
//! ```text
//! cargo run -p ba-bench --bin soak --release -- \
//!     --profile stress --campaigns 40 --seed 7
//!     # every registered target, 40 campaigns each
//!
//! cargo run -p ba-bench --bin soak --release -- \
//!     --target ds-weak-relay-threshold --profile lossy --expect-violation
//!     # CI guard: the weakened target must still be caught under chaos
//!
//! cargo run -p ba-bench --bin soak --release -- \
//!     --campaigns 100 --corpus-out /tmp/soak-corpus.json
//!     # persist newly minimized counterexamples for triage
//!
//! cargo run -p ba-bench --bin soak --release -- \
//!     --target ext --n 9 --t 2 --profile lossy --campaigns 20
//!     # chaos-soak the extension layer: completed runs must judge clean
//!     # (strict outcome agreement), degradation verdicts are acceptable
//! ```
//!
//! Both families run the same campaign loop ([`soak`]): a family supplies
//! only its campaign cases and how to run one through `ba-net`; the rest
//! is generic over `ba_check::Case`.
//!
//! Determinism: campaign `i` of a target uses the schedule sampler seeded
//! from `--seed` and a chaos profile seeded with `derive_seed(seed, i)`,
//! and all chaos randomness runs on the coordinator thread — reruns with
//! the same flags reproduce byte-identical campaign outcomes at any
//! `--threads`.

use ba_bench::cli::parse_num;
use ba_check::corpus::{self, CorpusCase, CorpusEntry};
use ba_check::{shrink, Case, ExploreOptions, ExtSchedule, Strategy};
use ba_crypto::rng::derive_seed;
use ba_ext::check::run_scenario_net;
use ba_ext::net::ExtNetError;
use ba_net::{run_target, ChaosProfile, FailedLink, NetConfig, NetRunError};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

struct Cli {
    target: Option<String>,
    profile: String,
    campaigns: usize,
    n: usize,
    t: usize,
    value: u64,
    seed: u64,
    threads: usize,
    inner: String,
    corpus_out: Option<String>,
    expect_violation: bool,
}

#[derive(Default)]
struct Tally {
    clean: usize,
    degraded: usize,
    skipped: usize,
    violations: usize,
    unexpected: usize,
    reproduced: usize,
    corpus_new: Vec<CorpusEntry>,
}

fn usage() -> ! {
    eprintln!(
        "usage: soak [--target NAME|ext] [--profile {}] [--campaigns N] \
         [--n N] [--t T] [--value 0|1] [--seed S] [--threads K] \
         [--inner NAME] [--corpus-out PATH] [--expect-violation]",
        ChaosProfile::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        target: None,
        profile: "stress".to_string(),
        campaigns: 40,
        n: 4,
        t: 1,
        value: 1,
        seed: 0,
        threads: 2,
        inner: "ds-broadcast".to_string(),
        corpus_out: None,
        expect_violation: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| ba_bench::cli::value_of(&mut args, flag);
        match flag.as_str() {
            "--target" => cli.target = Some(value_of("--target")),
            "--profile" => cli.profile = value_of("--profile"),
            "--campaigns" => cli.campaigns = parse_num(&value_of("--campaigns"), "--campaigns"),
            "--n" => cli.n = parse_num(&value_of("--n"), "--n"),
            "--t" => cli.t = parse_num(&value_of("--t"), "--t"),
            "--value" => cli.value = parse_num(&value_of("--value"), "--value") as u64,
            "--seed" => cli.seed = parse_num(&value_of("--seed"), "--seed") as u64,
            "--threads" => cli.threads = parse_num(&value_of("--threads"), "--threads").max(1),
            "--inner" => cli.inner = value_of("--inner"),
            "--corpus-out" => cli.corpus_out = Some(value_of("--corpus-out")),
            "--expect-violation" => cli.expect_violation = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if ChaosProfile::from_name(&cli.profile, 0).is_none() {
        eprintln!("unknown chaos profile {:?}", cli.profile);
        usage();
    }
    cli
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

/// The campaign loop, written once: campaign `i` runs `cases[i]` under the
/// chosen profile seeded `derive_seed(seed, i)`; every violation is
/// replayed on the lock-step engine with the chaos run's failed links
/// absorbed into its schedule and, when it reproduces, shrunk into a new
/// corpus entry. Violations are unexpected exactly when `sound`.
fn soak<C>(
    cli: &Cli,
    tally: &mut Tally,
    label: &str,
    sound: bool,
    (n, t): (usize, usize),
    cases: &[C],
    run: impl Fn(&C, &NetConfig, &ChaosProfile) -> Campaign,
) where
    C: Case + Clone + Into<CorpusCase>,
{
    let net = NetConfig::new().with_threads(cli.threads);
    let mut local = Tally::default();
    for (i, case) in cases.iter().enumerate() {
        let chaos = ChaosProfile::from_name(&cli.profile, derive_seed(cli.seed, i as u64))
            .expect("profile validated at parse time");
        match run(case, &net, &chaos) {
            Campaign::Skipped => local.skipped += 1,
            Campaign::Degraded => local.degraded += 1,
            Campaign::Clean => local.clean += 1,
            Campaign::Violation {
                failure,
                failed_links,
            } => {
                local.violations += 1;
                if sound {
                    local.unexpected += 1;
                    eprintln!(
                        "  SOUNDNESS BREACH: {label} decided wrongly under {} chaos \
                         (campaign {i}): {failure} — {}",
                        cli.profile,
                        case.to_json().render()
                    );
                }
                let mut augmented = case.clone();
                absorb_failed_links(augmented.spec_mut(), &failed_links);
                if let Some(entry) = reproduce_and_shrink(&augmented) {
                    local.reproduced += 1;
                    if !local.corpus_new.iter().any(|e| e.case == entry.case)
                        && !tally.corpus_new.iter().any(|e| e.case == entry.case)
                    {
                        println!(
                            "  minimized: {} — {}",
                            entry.case.as_case().to_json().render(),
                            entry.failure
                        );
                        local.corpus_new.push(entry);
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
        "{label}: {} campaign(s) under {:?} at n = {n}, t = {t} — {} clean, {} degraded, \
         {} violation(s) ({} unexpected), {} reproduced, {} skipped",
        cases.len(),
        cli.profile,
        local.clean,
        local.degraded,
        local.violations,
        local.unexpected,
        local.reproduced,
        local.skipped
    );
    tally.clean += local.clean;
    tally.degraded += local.degraded;
    tally.skipped += local.skipped;
    tally.violations += local.violations;
    tally.unexpected += local.unexpected;
    tally.reproduced += local.reproduced;
    tally.corpus_new.extend(local.corpus_new);
}

/// The classic family: fault schedules drawn from the model checker's own
/// sampler (chaos rides on top as wire-level noise), each run through
/// [`run_target`] and judged for Byzantine Agreement.
fn soak_target(cli: &Cli, target: &'static ba_check::CheckTarget, tally: &mut Tally) {
    let (n, t) = if cli.target.is_some() {
        (cli.n, cli.t)
    } else if target.supports(4, 1) {
        (4, 1)
    } else {
        (3, 1)
    };
    if !target.supports(n, t) {
        eprintln!("{}: skipping, n = {n}, t = {t} unsupported", target.name);
        return;
    }
    let mut cases = ExploreOptions {
        target,
        n,
        t,
        value: cli.value,
        seed: cli.seed,
        budget: cli.campaigns,
        strategy: Strategy::Random,
    }
    .cases();
    for (i, case) in cases.iter_mut().enumerate() {
        case.seed = derive_seed(cli.seed, 1_000_000 + i as u64);
    }
    soak(
        cli,
        tally,
        target.name,
        target.sound,
        (n, t),
        &cases,
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
    );
}

/// The extension family: the standard scenario family plus seeded random
/// schedules, each run through [`run_scenario_net`] and its strict judge
/// (outcome agreement, no wrong payload). With a sound inner target (the
/// default) a degradation verdict is the only acceptable alternative to a
/// clean run; `--inner` swaps in a weakened digest-agreement target whose
/// violations are expected.
fn soak_ext(cli: &Cli, tally: &mut Tally) {
    let Some(inner) = ba_check::find_target(&cli.inner) else {
        eprintln!("unknown inner target {:?}", cli.inner);
        std::process::exit(2);
    };
    let (n, t) = (cli.n, cli.t);
    let template = ExtSchedule {
        n,
        t,
        payload_len: 2_048,
        payload_seed: 0, // every campaign gets its own below
        seed: cli.seed,
        inner: inner.name.to_string(),
        vote_inner: "ds-relay".to_string(),
        spec: ScheduleSpec::default(),
        garble: Vec::new(),
    };
    let mut cases = template.family(cli.campaigns);
    for (i, case) in cases.iter_mut().enumerate() {
        case.payload_seed = derive_seed(cli.seed, 2_000_000 + i as u64);
        case.seed = derive_seed(cli.seed, 1_000_000 + i as u64);
    }
    soak(
        cli,
        tally,
        "ext",
        inner.sound,
        (n, t),
        &cases,
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
    );
}

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

fn main() -> ExitCode {
    let cli = parse_cli();
    let started = std::time::Instant::now();
    let mut tally = Tally::default();
    match &cli.target {
        Some(name) if name == "ext" => soak_ext(&cli, &mut tally),
        Some(name) => match ba_check::find_target(name) {
            Some(target) => soak_target(&cli, target, &mut tally),
            None => {
                eprintln!("unknown check target {name:?}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            for target in ba_check::targets() {
                soak_target(&cli, target, &mut tally);
            }
        }
    }
    if let Some(path) = &cli.corpus_out {
        match save_corpus(path, &tally.corpus_new) {
            Ok(added) => println!("corpus: {added} new minimized counterexample(s) → {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "soak: {} clean, {} degraded, {} violation(s) ({} unexpected), {} reproduced, \
         {} skipped in {:.2?}",
        tally.clean,
        tally.degraded,
        tally.violations,
        tally.unexpected,
        tally.reproduced,
        tally.skipped,
        started.elapsed()
    );
    if tally.unexpected > 0 {
        eprintln!("sound target(s) decided wrongly under chaos — the runtime must abort instead");
        return ExitCode::FAILURE;
    }
    if cli.expect_violation && tally.violations == 0 {
        eprintln!("--expect-violation: no violation surfaced");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
