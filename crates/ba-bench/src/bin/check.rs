//! Command-line front end for the `ba-check` model checker.
//!
//! ```text
//! cargo run -p ba-bench --bin check --release
//!     # smoke mode: explore every sound target with a small exhaustive
//!     # budget, then replay the committed regression corpus
//!
//! cargo run -p ba-bench --bin check --release -- \
//!     --target ds-weak-relay-threshold --n 4 --t 1 --budget 200
//!     # explore one target; violations print as corpus-format JSON
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
//! ```
//!
//! Exit status: nonzero when a *sound* target violates, when corpus replay
//! fails, or on usage errors. Violations of targets registered as unsound
//! (e.g. `ds-weak-relay-threshold`) are the expected outcome and print
//! without failing the run. Reports are byte-identical at any `--threads`.
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
//! back into `ba-check` (`Case::from_json`). A family contributes its
//! schedule space and the identity fields of its report block; exploring,
//! printing and JSON emission are written once over `ba_check::Case`.

use ba_bench::cli::parse_num;
use ba_check::corpus::{self, default_corpus_path, CorpusEntry};
use ba_check::json::Json;
use ba_check::{
    explore, find_target, targets, Case, ExploreOptions, ExtSchedule, Strategy, Violation,
};
use ba_sim::schedule::ScheduleSpec;
use ba_sim::sweep::default_threads;
use std::path::Path;
use std::process::ExitCode;

struct Cli {
    target: Option<String>,
    n: usize,
    t: usize,
    /// `None` until `--value` is given (explorations default to 1).
    value: Option<u64>,
    seed: u64,
    budget: usize,
    threads: usize,
    strategy: Strategy,
    inner: String,
    replay_only: bool,
    corpus_path: Option<String>,
    json: bool,
}

/// Accumulates the machine-readable document when `--json` is active.
#[derive(Default)]
struct JsonOut {
    reports: Vec<Json>,
    corpus: Option<Json>,
}

fn usage() -> ! {
    eprintln!(
        "usage: check [--target NAME|ext] [--n N] [--t T] [--value 0|1] [--seed S] \
         [--budget B] [--random] [--threads K] [--inner NAME] [--replay-corpus] \
         [--corpus PATH] [--json]\n\
         registered targets (plus \"ext\": the extension-layer family, whose \
         digest agreement runs --inner):"
    );
    for target in targets() {
        eprintln!("  {:<26} {}", target.name, target.summary);
    }
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        target: None,
        n: 4,
        t: 1,
        value: None,
        seed: 0,
        budget: 150,
        threads: default_threads().max(1),
        strategy: Strategy::Exhaustive,
        inner: "ds-broadcast".to_string(),
        replay_only: false,
        corpus_path: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| ba_bench::cli::value_of(&mut args, flag);
        match flag.as_str() {
            "--target" => cli.target = Some(value_of("--target")),
            "--n" => cli.n = parse_num(&value_of("--n"), "--n"),
            "--t" => cli.t = parse_num(&value_of("--t"), "--t"),
            "--value" => cli.value = Some(parse_num(&value_of("--value"), "--value") as u64),
            "--seed" => cli.seed = parse_num(&value_of("--seed"), "--seed") as u64,
            "--budget" => cli.budget = parse_num(&value_of("--budget"), "--budget"),
            "--threads" => cli.threads = parse_num(&value_of("--threads"), "--threads").max(1),
            "--random" => cli.strategy = Strategy::Random,
            "--inner" => cli.inner = value_of("--inner"),
            "--replay-corpus" => cli.replay_only = true,
            "--corpus" => cli.corpus_path = Some(value_of("--corpus")),
            "--json" => cli.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    // The ext schedule space has no strategy and no input value: refuse
    // rather than explore something other than what was asked.
    if cli.target.as_deref() == Some("ext")
        && (cli.strategy == Strategy::Random || cli.value.is_some())
    {
        eprintln!("--target ext takes neither --random nor --value");
        usage();
    }
    cli
}

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
/// `--json` (the family's `identity` fields first), text under `label`
/// otherwise. `sound` says whether violations are unexpected (returned as
/// a count) and `sound_of` what it qualifies in text mode.
fn run_cases<C: Case + Clone>(
    cli: &Cli,
    out: &mut JsonOut,
    (label, mut identity): (String, Vec<(String, Json)>),
    (n, t): (usize, usize),
    (sound, sound_of): (bool, &str),
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

/// Explores one target; returns the number of unexpected violations.
fn run_target(
    cli: &Cli,
    out: &mut JsonOut,
    name: &str,
    n: usize,
    t: usize,
) -> Result<usize, String> {
    let target = find_target(name).ok_or_else(|| format!("unknown check target {name:?}"))?;
    if !target.supports(n, t) {
        return Err(format!("{name} does not support n = {n}, t = {t}"));
    }
    let space = ExploreOptions {
        target,
        n,
        t,
        value: cli.value.unwrap_or(1),
        seed: cli.seed,
        budget: cli.budget,
        strategy: cli.strategy,
    };
    let name = target.name.to_string();
    let identity = vec![("target".to_string(), Json::Str(name.clone()))];
    let sound = (target.sound, "");
    Ok(run_cases(
        cli,
        out,
        (name, identity),
        (n, t),
        sound,
        space.cases(),
    ))
}

/// Explores the extension-layer family: the standard scenario set plus
/// `--budget` seeded random schedules. Violations are unexpected exactly
/// when the `--inner` digest target is sound (the vote target is the
/// sound committee relay).
fn run_ext(
    cli: &Cli,
    out: &mut JsonOut,
    n: usize,
    t: usize,
    extra_random: usize,
) -> Result<usize, String> {
    let inner =
        find_target(&cli.inner).ok_or_else(|| format!("unknown inner target {:?}", cli.inner))?;
    let space = ExtSchedule {
        n,
        t,
        payload_len: 2_048,
        payload_seed: 1,
        seed: cli.seed,
        inner: inner.name.to_string(),
        vote_inner: "ds-relay".to_string(),
        spec: ScheduleSpec::default(),
        garble: Vec::new(),
    }
    .family(extra_random);
    let identity = vec![
        ("target".to_string(), Json::Str("ext".to_string())),
        ("inner".to_string(), Json::Str(inner.name.to_string())),
    ];
    let head = (format!("ext[{}]", inner.name), identity);
    let sound = (inner.sound, " inner");
    Ok(run_cases(cli, out, head, (n, t), sound, space))
}

fn replay_corpus(cli: &Cli, out: &mut JsonOut) -> Result<(), String> {
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

/// Smoke mode: every sound target at its smallest supported dimensions,
/// a short extension-family sweep, then the committed corpus.
fn run_smoke(cli: &Cli, out: &mut JsonOut) -> Result<usize, String> {
    let mut unexpected = 0;
    for target in targets().iter().filter(|target| target.sound) {
        // Smallest dimensions each algorithm family supports.
        let (n, t) = if target.supports(4, 1) {
            (4, 1)
        } else {
            (3, 1)
        };
        unexpected += run_target(cli, out, target.name, n, t)?;
    }
    unexpected += run_ext(cli, out, 4, 1, 8)?;
    replay_corpus(cli, out)?;
    Ok(unexpected)
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let started = std::time::Instant::now();
    let mut out = JsonOut::default();
    let (mode, outcome) = if cli.replay_only {
        ("replay", replay_corpus(&cli, &mut out).map(|()| 0))
    } else if cli.target.as_deref() == Some("ext") {
        ("explore", run_ext(&cli, &mut out, cli.n, cli.t, cli.budget))
    } else if cli.target.is_some() {
        let name = cli.target.clone().expect("checked above");
        ("explore", run_target(&cli, &mut out, &name, cli.n, cli.t))
    } else {
        ("smoke", run_smoke(&cli, &mut out))
    };
    if cli.json {
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
