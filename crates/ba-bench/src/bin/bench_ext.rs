//! Benchmark and budget gate for the `ba-ext` extension protocol.
//!
//! For each `(payload ℓ, grid n)` cell the binary runs the full protocol —
//! digest agreement through the inner Dolev–Strong target plus
//! erasure-coded grid dissemination — and records the schedule-independent
//! bits-exchanged breakdown next to the timing:
//!
//! * `total_bytes` — wire bytes sent by correct processors across both
//!   layers (`Metrics::bytes_by_correct`);
//! * `payload_bytes` / `control_bytes` — the user-data vs framing split;
//! * `overhead_ratio` — `total_bytes / (ℓ·n)`, the figure the
//!   extension-protocol literature's `Ω(ℓn)` lower bound normalizes;
//! * `inner_bytes` / `dissemination_bytes` / `vote_bytes` / `fetch_bytes` —
//!   the same total by stage (the last two are the control plane ROADMAP
//!   wants cut: the `n`-instance availability vote and the fetch round);
//! * `repair_requests` / `repair_response_bytes` — how much of the grid's
//!   column repair machinery each cell exercised;
//! * `dissemination_hashes` — SHA-256 invocations of the dissemination
//!   stage. The phase barrier checks each distinct coded chunk once per
//!   agreement and every recipient's check is a stamp hit, so fault-free
//!   this is exactly `2n`: `n` chunk checks plus one payload root per
//!   node (CI asserts it at 16 KiB and 256 KiB);
//! * `zero_copy_decisions` — correct nodes whose decided payload shares
//!   the sender's allocation: their `k` data chunks arrived as the
//!   adjacent windows `encode` cut, so reconstruction returned that window
//!   and copied nothing. Fault-free this is every node (CI asserts `n` at
//!   n = 16).
//!
//! The report's `host` object names the SHA-256 backend the timings ran
//! on. Each payload byte is hashed once per agreement at the barrier,
//! plus the sender's signing pass — the agreed digest is a root over the
//! data chunks' digests, which those checks already computed — so past
//! that a cell pays for signing, coding (a decode only where a data chunk
//! is missing or is no window of the payload) and the inner-BA stages.
//!
//! Each `(ℓ, n)` cell appears three times: fault-free (`"none"`), with the
//! last `t` grid nodes silent (`"withhold-t"` — their chunks must be
//! recovered through repair), and with the last `t` nodes garbling every
//! chunk and bundle they relay (`"garble-t"` — digest checks reject the
//! forgeries and repair routes around them). Faulty rows must still reach
//! unanimous decision among correct nodes; only fault-free rows feed the
//! overhead gate.
//!
//! Sections (select with `--section`, default `small`):
//!
//! * `small` — ℓ ∈ {1 KiB, 16 KiB, 256 KiB} on the 4×4 grid (CI);
//! * `full` — adds ℓ ∈ {1 MiB, 4 MiB} and the 7×7 grid.
//!
//! `--check-overhead` makes `overhead_gate` a gate: every fault-free cell
//! with ℓ ≥ 256 KiB must satisfy `total_bytes ≤ 4·ℓ·n` (at small ℓ the
//! inner-BA signature chains dominate and the ratio is meaningless — the
//! bound is asymptotic in ℓ); without the switch it is a reported value.
//! Two gates are always on: `determinism` (a threads = 4 rerun of every
//! cell has byte-identical decisions and metrics) and
//! `every_correct_node_decides` (the judge finds no violation and every
//! correct node decides — the faulty families stay within the `t` budget,
//! so repair must recover the payload). A failed gate exits 1 after the
//! report (DESIGN §7.6) is written to the positional argument (default
//! `BENCH_ext.json`).
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_ext -- --section small --check-overhead
//! ```

use ba_bench::cli::BenchArgs;
use ba_bench::microbench::bench;
use ba_bench::report::Report;
use ba_check::json::Json;
use ba_crypto::rng::SimRng;
use ba_crypto::{Bytes, ProcessId};
use ba_ext::check::{run_scenario, ExtScenario};
use ba_ext::{ExtDecision, ExtOptions, ExtReport};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};
use std::process::ExitCode;

const KIB: usize = 1024;
const SMALL_PAYLOADS: [usize; 3] = [KIB, 16 * KIB, 256 * KIB];
const FULL_PAYLOADS: [usize; 2] = [1024 * KIB, 4096 * KIB];
/// Grids: (n, t). `t` is the full grid bound √n − 1 on the small grid and
/// a mid-range budget on the large one.
const SMALL_GRIDS: [(usize, usize); 1] = [(16, 3)];
const FULL_GRIDS: [(usize, usize); 1] = [(49, 4)];
/// The gated fault-free overhead constant: `total_bytes ≤ GATE · ℓ · n`.
const GATE: f64 = 4.0;
/// Payloads below this are exempt from the gate (control traffic
/// amortizes only asymptotically in ℓ).
const GATE_MIN_PAYLOAD: usize = 256 * KIB;

/// The benchmarked fault families: each cell runs fault-free, with the
/// last `t` grid nodes silent, and with the last `t` nodes garbling.
const FAULT_FAMILIES: [&str; 3] = ["none", "withhold-t", "garble-t"];

fn family_scenario(family: &str, n: usize, t: usize) -> ExtScenario {
    let tail: Vec<ProcessId> = (n - t..n).map(|p| ProcessId(p as u32)).collect();
    let (faults, garble) = match family {
        "none" => (Vec::new(), Vec::new()),
        "withhold-t" => (
            tail.iter().map(|p| (*p, FaultBehavior::Silent)).collect(),
            Vec::new(),
        ),
        "garble-t" => (Vec::new(), tail),
        other => unreachable!("unknown fault family {other:?}"),
    };
    ExtScenario {
        spec: ScheduleSpec {
            faults,
            link_drops: Vec::new(),
        },
        garble,
        label: family.to_string(),
    }
}

fn payload(len: usize, seed: u64) -> Bytes {
    let mut rng = SimRng::new(seed);
    Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
}

fn decided_count(report: &ExtReport) -> usize {
    report
        .correct_decisions()
        .filter(|(_, d)| matches!(d, Some(ExtDecision::Decide(_))))
        .count()
}

/// Correct nodes that decided on a window of `p`'s own allocation.
fn zero_copy_count(report: &ExtReport, p: &Bytes) -> usize {
    report
        .correct_decisions()
        .filter_map(|(_, d)| d.and_then(ExtDecision::payload))
        .filter(|decided| decided.shares_allocation(p))
        .count()
}

/// Runs one cell and checks its two contracts: totality (the judge finds
/// no violation and every correct node decides) and determinism (a
/// threads = 4 rerun is byte-identical). Returns the report and whether
/// each held.
fn probe(p: &Bytes, opts: &ExtOptions, scenario: &ExtScenario) -> (ExtReport, bool, bool) {
    let cell = format!("n={} ℓ={} [{}]", opts.n, p.len(), scenario.label);
    let base = run_scenario(p, opts, scenario);
    if let Some(failure) = &base.failure {
        eprintln!("bench_ext: cell {cell} violated the judge: {failure}");
    }
    let report = base.report.expect("every benchmarked scenario compiles");
    let correct_total = report.correct.iter().filter(|c| **c).count();
    let decides = base.failure.is_none() && decided_count(&report) == correct_total;
    let threaded = run_scenario(
        p,
        &ExtOptions {
            threads: 4,
            ..opts.clone()
        },
        scenario,
    );
    let deterministic = threaded.report.as_ref() == Some(&report);
    if !deterministic {
        eprintln!("bench_ext: DETERMINISM BROKEN at {cell}: threads=4 diverges from threads=1");
    }
    (report, decides, deterministic)
}

fn main() -> ExitCode {
    let args = BenchArgs::from_env(
        "bench_ext",
        "BENCH_ext.json",
        &["small", "full"],
        &[],
        &["--check-overhead"],
    );
    let mut payloads: Vec<usize> = SMALL_PAYLOADS.to_vec();
    let mut grids: Vec<(usize, usize)> = SMALL_GRIDS.to_vec();
    if args.named_sections().iter().any(|s| s == "full") {
        payloads.extend(FULL_PAYLOADS);
        grids.extend(FULL_GRIDS);
    }

    let mut report = Report::new("ext");
    let (mut deterministic, mut decides) = (true, true);
    let mut over_budget: Vec<String> = Vec::new();
    for &(n, t) in &grids {
        for &len in &payloads {
            let opts = ExtOptions {
                n,
                t,
                seed: 0xE87,
                ..ExtOptions::default()
            };
            let p = payload(len, len as u64 ^ 0xBA5E);
            for family in FAULT_FAMILIES {
                let scenario = family_scenario(family, n, t);
                let (cell, cell_decides, cell_deterministic) = probe(&p, &opts, &scenario);
                decides &= cell_decides;
                deterministic &= cell_deterministic;
                let sample = bench(
                    format!("ext ℓ={len:>8} n={n:>2} t={t} {family:<10}"),
                    || {
                        decided_count(
                            run_scenario(&p, &opts, &scenario)
                                .report
                                .as_ref()
                                .expect("bench run"),
                        )
                    },
                );
                let total = cell.total_wire_bytes();
                let payload_bytes = cell.payload_wire_bytes();
                let ratio = cell.overhead_ratio();
                let gated = family == "none" && len >= GATE_MIN_PAYLOAD;
                if gated && ratio > GATE {
                    over_budget.push(format!(
                        "ℓ={len} n={n}: {total} bytes = {ratio:.2} x ℓn (gate {GATE})"
                    ));
                }
                let fields = vec![
                    ("payload_len", len.into()),
                    ("n", n.into()),
                    ("t", t.into()),
                    ("fault", family.into()),
                    ("bytes_sent", total.into()),
                    ("payload_bytes", payload_bytes.into()),
                    ("control_bytes", (total - payload_bytes).into()),
                    ("inner_bytes", cell.inner_metrics.wire_bytes().into()),
                    (
                        "dissemination_bytes",
                        cell.dissemination.wire_bytes().into(),
                    ),
                    (
                        "dissemination_hashes",
                        cell.dissemination.crypto.hash_invocations.into(),
                    ),
                    ("vote_bytes", cell.vote.wire_bytes().into()),
                    ("fetch_bytes", cell.fetch.wire_bytes().into()),
                    ("overhead_ratio", Json::dec(ratio, 4)),
                    ("repair_requests", cell.repair_requests.into()),
                    ("repair_response_bytes", cell.repair_response_bytes.into()),
                    ("gated", gated.into()),
                    ("decided", decided_count(&cell).into()),
                    ("zero_copy_decisions", zero_copy_count(&cell, &p).into()),
                ];
                report.row("rows", fields, Some(&sample));
            }
        }
    }

    for cell in &over_budget {
        eprintln!("bench_ext: over the overhead budget: {cell}");
    }
    if args.switch("--check-overhead") {
        report.gate("overhead_gate", over_budget.is_empty());
    } else {
        report.check("overhead_gate", over_budget.is_empty());
    }
    report.check("gate_constant", Json::Dec(GATE.to_string()));
    report.check("gate_min_payload", GATE_MIN_PAYLOAD);
    report.gate("determinism", deterministic);
    report.gate("every_correct_node_decides", decides);
    report.finish(&args.out)
}
