//! The repo benchmark. See `README.md` beside `Cargo.toml` for the design;
//! `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! bench [all]     [--seed N] [--seconds S]    every workload, end to end
//! bench trace     [--seed N] [--seconds S]    every workload, per layer
//! bench selfcheck [--quick]  [--seed N]       two sets against the bounds
//! bench --workload W --seed N --seconds S --trace 0|1
//!                                             one workload, result on the
//!                                             last line (BENCHMARK.json)
//! bench run-one W --seed N --blocks B [--trace-out FILE]
//!                                             one cold repetition (internal)
//! ```
//!
//! Every gated measurement runs on one thread: the load generator ticks
//! the session it feeds, the closed loops have one client, and a workload
//! run is a parent waiting on one child at a time.

mod calib;
mod host;
mod json;
mod metrics;
mod rep;
mod report;
mod stats;
mod trace;
mod workload;

use metrics::{blocks_for_seconds, DEFAULT_SEED, NOMINAL_SECONDS, REPETITIONS, WORKLOADS};
use report::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Default)]
struct Args {
    command: Option<String>,
    positional: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    blocks: Option<usize>,
    trace: Option<u64>,
    trace_out: Option<PathBuf>,
    quick: bool,
}

impl Args {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Blocks per repetition, from `--seconds`.
    fn blocks(&self) -> usize {
        blocks_for_seconds(self.seconds.unwrap_or(NOMINAL_SECONDS))
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: bad number {text:?}"))
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => args.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => args.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--blocks" => args.blocks = Some(number("--blocks", value("--blocks")?)?),
            "--trace" => args.trace = Some(number("--trace", value("--trace")?)?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--quick" => args.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() => args.command = Some(word.to_string()),
            word if args.positional.is_none() => args.positional = Some(word.to_string()),
            word => return Err(format!("unexpected argument {word:?}")),
        }
    }
    if matches!(args.seconds, Some(0)) || matches!(args.blocks, Some(0)) {
        return Err("--seconds and --blocks must be positive".into());
    }
    Ok(args)
}

fn print_header(seed: u64, blocks: usize, repetitions: usize) {
    println!(
        "host {} | threads 1 | R {repetitions} x B {blocks} blocks | seed {seed} | \
         quiet decile of blocks | times at reference host speed | message delay 0 ticks",
        host::tags().render()
    );
}

/// One workload under the `BENCHMARK.json` contract: the result is the
/// last line of stdout.
fn run_contract(args: &Args, workload: &str) -> Result<(), String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let (seed, blocks) = (args.seed(), args.blocks());
    let outcome = match args.trace.unwrap_or(0) {
        0 => {
            print_header(seed, blocks, REPETITIONS);
            let sets = report::run_interleaved(&[workload], seed, blocks, REPETITIONS)?;
            let outcome = report::end_to_end(&sets[workload]);
            report::print_table(workload, &outcome, &sets[workload]);
            outcome
        }
        1 => {
            print_header(seed, blocks, 2);
            let (plain, traced) = report::run_traced(workload, seed, blocks)?;
            let outcome = report::per_layer(&plain, &traced);
            report::print_table(workload, &outcome, &[plain]);
            println!(
                "trace written to {}",
                report::out_dir()
                    .join(format!("trace-{workload}.json"))
                    .display()
            );
            outcome
        }
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    println!("{}", outcome.to_json().render());
    Ok(())
}

/// Every workload, end to end, repetitions interleaved across workloads.
fn run_set(
    seed: u64,
    blocks: usize,
    repetitions: usize,
) -> Result<BTreeMap<String, Outcome>, String> {
    let sets = report::run_interleaved(&WORKLOADS, seed, blocks, repetitions)?;
    let mut outcomes = BTreeMap::new();
    for name in WORKLOADS {
        let outcome = report::end_to_end(&sets[name]);
        report::print_table(name, &outcome, &sets[name]);
        outcomes.insert(name.to_string(), outcome);
    }
    Ok(outcomes)
}

fn run_all(args: &Args) -> Result<(), String> {
    let (seed, blocks) = (args.seed(), args.blocks());
    print_header(seed, blocks, REPETITIONS);
    run_set(seed, blocks, REPETITIONS).map(|_| ())
}

fn run_trace_all(args: &Args) -> Result<(), String> {
    let (seed, blocks) = (args.seed(), args.blocks());
    print_header(seed, blocks, 2);
    for name in WORKLOADS {
        let (plain, traced) = report::run_traced(name, seed, blocks)?;
        report::print_table(name, &report::per_layer(&plain, &traced), &[plain]);
    }
    println!("traces written to {}", report::out_dir().display());
    Ok(())
}

/// Runs the whole benchmark twice and holds the two sets to the
/// benchmark's own bounds. `--quick` is the smoke: one short set, every
/// correctness check on, no bounds.
fn run_selfcheck(args: &Args) -> Result<(), String> {
    let seed = args.seed();
    if args.quick {
        print_header(seed, 2, 1);
        run_set(seed, 2, 1)?;
        println!("selfcheck --quick: every correctness check held");
        return Ok(());
    }
    let blocks = args.blocks();
    print_header(seed, blocks, REPETITIONS);
    println!("set 1");
    let first = run_set(seed, blocks, REPETITIONS)?;
    println!("set 2");
    let second = run_set(seed, blocks, REPETITIONS)?;
    println!(
        "{:<20} {:<26} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    let comparisons = report::compare(&first, &second);
    for c in &comparisons {
        println!(
            "{:<20} {:<26} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}% {}",
            c.workload,
            c.metric,
            c.first,
            c.second,
            c.difference() * 100.0,
            c.bound * 100.0,
            if c.within_bound() { "" } else { "EXCEEDS" }
        );
    }
    let excess = comparisons.iter().filter(|c| !c.within_bound()).count();
    if excess > 0 {
        return Err(format!("selfcheck: {excess} metric(s) differ between two runs of the same code by more than their bound"));
    }
    println!("selfcheck: two sets of the same code agree within every bound");
    Ok(())
}

fn run_one(args: &Args, started: Instant) -> Result<(), String> {
    let workload = args
        .positional
        .as_deref()
        .ok_or("run-one needs a workload name")?;
    let blocks = args.blocks.ok_or("run-one needs --blocks")?;
    let rep = rep::run(
        workload,
        args.seed(),
        blocks,
        args.trace_out.as_deref(),
        started,
    )?;
    println!("{}", rep.to_json().render());
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| {
        if let Some(workload) = args.workload.clone() {
            return run_contract(&args, &workload);
        }
        match args.command.as_deref() {
            None | Some("all") => run_all(&args),
            Some("trace") => run_trace_all(&args),
            Some("selfcheck") => run_selfcheck(&args),
            Some("run-one") => run_one(&args, started),
            Some(other) => Err(format!("unknown command {other:?}")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::FAILURE
        }
    }
}
