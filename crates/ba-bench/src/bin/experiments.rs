//! Regenerates the paper's quantitative claims as markdown tables.
//!
//! ```text
//! cargo run -p ba-bench --bin experiments --release -- all
//! cargo run -p ba-bench --bin experiments --release -- e4 e8
//! cargo run -p ba-bench --bin experiments --release -- --csv e8   # CSV for plotting
//! cargo run -p ba-bench --bin experiments --release -- --seq all  # single-threaded
//! cargo run -p ba-bench --bin experiments --release -- --threads 4 all
//! ```
//!
//! Experiments run across worker threads by default (one cell per id; see
//! `ba_sim::sweep`). The tables on stdout are byte-identical for any
//! thread count — `--seq` / `--threads N` only change wall-clock, which is
//! reported on stderr so redirected output stays stable. An unknown id or
//! flag is a usage error (exit 2), caught before anything runs.

use ba_bench::cli::usage_error;
use ba_bench::experiments::{run_experiments, ALL_IDS};
use ba_sim::sweep::default_threads;

fn main() {
    let mut csv = false;
    let mut threads = default_threads();
    let mut expect_threads = false;
    let mut args: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        if expect_threads {
            threads = a.parse().unwrap_or_else(|_| {
                eprintln!("--threads expects a positive integer, got {a:?}");
                std::process::exit(2);
            });
            expect_threads = false;
        } else if a == "--csv" {
            csv = true;
        } else if a == "--seq" {
            threads = 1;
        } else if a == "--threads" {
            expect_threads = true;
        } else if a == "all" || ALL_IDS.contains(&a.as_str()) {
            args.push(a);
        } else {
            let usage = "usage: experiments [--csv] [--seq | --threads N] [all | e1..e16 ...]";
            usage_error("experiments", &format!("unknown argument {a:?}\n{usage}"));
        }
    }
    if expect_threads {
        eprintln!("--threads expects a value");
        std::process::exit(2);
    }
    let threads = threads.max(1);
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();

    let started = std::time::Instant::now();
    let batch = run_experiments(&id_refs, threads);
    let elapsed = started.elapsed();

    // Write through a fallible handle so a closed pipe (e.g. `| head`)
    // terminates quietly instead of panicking.
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (id, tables) in &batch {
        let result = if csv {
            tables
                .iter()
                .try_for_each(|table| writeln!(out, "{}", table.to_csv()))
        } else {
            writeln!(out, "## Experiment {}\n", id.to_uppercase()).and_then(|()| {
                tables
                    .iter()
                    .try_for_each(|table| writeln!(out, "{}", table.render()))
            })
        };
        if result.is_err() {
            return; // downstream closed the pipe
        }
    }
    eprintln!(
        "ran {} experiment(s) on {} thread(s) in {:.2?}",
        batch.len(),
        threads,
        elapsed
    );
}
