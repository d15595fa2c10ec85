//! Benchmark for the `ba-svc` multi-instance multiplexer: sustained
//! agreements/sec, decision latency, and graceful degradation under loss.
//!
//! Sections (select with `--section`, default all):
//!
//! * `throughput` — K instances of `ds-broadcast` (n = 16, t = 1) on a
//!   reliable wire, three execution strategies:
//!   - `serial-runtime`: K back-to-back [`NetRuntime`] runs — the
//!     pre-service baseline: the same phase driver and the same barrier
//!     verification one instance at a time, one wire flush per frame;
//!   - `svc-serial`: the multiplexer with `max_inflight = 1` — same
//!     admission order, one instance at a time (isolates the service's
//!     fixed overhead from its wins);
//!   - `svc-pipelined`: staggered admission (`admit_per_tick = 1`) with a
//!     deep in-flight window — phases overlap across instances, and per-link
//!     flushes coalesce frames from every in-flight instance.
//!
//!   Each row reports agreements/sec (`k × 10⁹ / median_ns`). The ratio
//!   pipelined vs serial-runtime at the widest thread count is recorded in
//!   the JSON `checks` object as a reported number, not a gate: both sides
//!   run one driver and one verification discipline, so it reads what the
//!   multiplexer's per-tick machinery costs (DESIGN §11.3).
//! * `latency` — p50/p99 admission-to-decision latency of the pipelined
//!   fleet, merged over several runs;
//! * `degradation` — agreements/sec and decided/degraded split for the
//!   pipelined fleet as per-link loss sweeps 0 → 350 ‰: the curve must
//!   degrade gracefully (fewer decisions, never an agreement violation);
//! * `open_loop` — the session API under sustained offered load: seeded
//!   [`PoissonArrivals`] submit instances over `session()`/`submit()`
//!   while the tick loop drains completions, with a bounded admission
//!   queue and shed-oldest backpressure. Rows sweep λ across 0.5×, 1× and
//!   2× saturation and report steady-state agreements/sec, p50/p99
//!   submission-to-decision latency, shed rate and queue depth. The
//!   section also gates exact admission accounting
//!   (`submitted = decided + degraded + shed`) and no-deadlock under
//!   block-with-deadline admission.
//!
//! The determinism check always runs first: the pipelined fleet must be
//! byte-identical across worker counts, and every multiplexed instance
//! must match its standalone [`NetRuntime`] run under
//! `chaos.reseeded(instance_seed(seed, i))` — decisions, suspicion and the
//! whole `Metrics`, with and without chaos.
//!
//! Writes the report (DESIGN §7.6; default `BENCH_service.json`) with the
//! host's `available_parallelism` in its `host` object. Beside `median_ns`
//! every row carries `build_ns`: the part of it spent building the
//! instances the timed call runs (`CheckTarget::build`), timed on its own
//! around the same build calls; 0 on the latency rows, whose clock starts
//! at admission. On a single-core host thread-scaling rows measure
//! coordination overhead only, and the binary says so on stderr.
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_service
//! cargo run -p ba-bench --release --bin bench_service -- \
//!     --k 8 --threads 1,4 --assert-scaling 1.25
//! ```
//!
//! Gates — `determinism`, and for the sections that ran
//! `no_agreement_violations`, `open_loop_accounting`,
//! `open_loop_determinism` and `no_admission_deadlock` — fail the run with
//! exit 1 after the report is written. So does `--assert-scaling <ratio>`
//! if the widest thread count's pipelined median exceeds ratio × the
//! narrowest's; it is skipped on single-core hosts, where extra workers
//! can only add coordination overhead, and a usage error (exit 2) without
//! the `throughput` section or with fewer than two distinct `--threads`.
//! CI uses it as the `service-smoke` job.
//!
//! [`NetRuntime`]: ba_net::NetRuntime

use ba_algos::checkable::{find_target, CheckConfig, CheckTarget};
use ba_bench::cli::BenchArgs;
use ba_bench::microbench::{bench, Sample};
use ba_bench::report::{Report, ScalingCell};
use ba_check::json::Json;
use ba_crypto::{Chain, Value};
use ba_net::{
    instance_seed, run_target, run_target_multiplexed, AdmissionPolicy, BaService, ChaosProfile,
    InstanceSpec, MultiplexRun, NetConfig, NetRunError, PoissonArrivals, SvcConfig, SvcReport,
};
use ba_sim::schedule::ScheduleSpec;
use std::process::ExitCode;

const TARGET: &str = "ds-broadcast";
const N: usize = 16;
const T: usize = 1;
const CHAOS_SEED: u64 = 77;
/// Per-link loss sweep for the degradation curve, in 1/1000.
const LOSS_SWEEP: [u16; 5] = [0, 75, 150, 250, 350];
/// Runs merged for the latency percentiles.
const LATENCY_RUNS: usize = 5;
/// Offered-load sweep for the open-loop section, in instances per tick.
/// `ds-broadcast` (n = 16, t = 1) settles in 4 service ticks, so with
/// `max_inflight = 8` the service completes ~2 instances/tick: the sweep
/// spans 0.5×, 1× and 2× saturation.
const OPEN_LOOP_RATES: [f64; 3] = [1.0, 2.0, 4.0];
/// Ticks over which the Poisson process offers load (the session then
/// drains to quiescence).
const OPEN_LOOP_ARRIVAL_TICKS: u64 = 64;
const OPEN_LOOP_INFLIGHT: usize = 8;
const OPEN_LOOP_QUEUE: usize = 8;

/// The fleet under test: K `ds-broadcast` instances of one (n, seed),
/// transmitter values alternating so neighbouring instances are not
/// trivially identical.
fn fleet_cfgs(k: usize) -> Vec<CheckConfig> {
    (0..k)
        .map(|i| {
            let value = if i % 2 == 0 { Value::ONE } else { Value::ZERO };
            CheckConfig::new(N, T, value, 11, 1, ScheduleSpec::default())
        })
        .collect()
}

/// K back-to-back standalone runtime runs — the pre-service baseline.
/// Instance `i` uses the same derived chaos seed as the multiplexer would,
/// so both strategies do identical protocol work. Returns the number of
/// instances whose correct processors reached agreement.
fn run_serial(
    target: &CheckTarget,
    cfgs: &[CheckConfig],
    chaos: &ChaosProfile,
    threads: usize,
) -> usize {
    let net = NetConfig::new().with_threads(threads);
    cfgs.iter()
        .enumerate()
        .filter(|(i, cfg)| {
            let solo = chaos.clone().reseeded(instance_seed(chaos.seed, *i as u64));
            match run_target(target, cfg, &net, &solo) {
                Ok(run) => !run.violated(),
                Err(NetRunError::Degraded(_)) => false,
                Err(e) => panic!("serial baseline: {e}"),
            }
        })
        .count()
}

fn run_svc(
    target: &CheckTarget,
    cfgs: &[CheckConfig],
    chaos: &ChaosProfile,
    threads: usize,
    pipelined: bool,
) -> MultiplexRun {
    let svc = if pipelined {
        SvcConfig::new()
            .with_threads(threads)
            .with_admit_per_tick(1)
    } else {
        SvcConfig::new()
            .with_threads(threads)
            .with_max_inflight(1)
            .with_admit_per_tick(1)
    };
    run_target_multiplexed(target, cfgs, &svc, chaos)
        .unwrap_or_else(|e| panic!("multiplexed run: {e}"))
}

/// What building one fleet costs, timed apart from running it: the median
/// time of the build calls a timed row makes before anything is stepped.
fn fleet_build_ns(target: &CheckTarget, cfgs: &[CheckConfig]) -> f64 {
    bench(format!("build k={} n={N}", cfgs.len()), || {
        cfgs.iter()
            .map(|cfg| {
                target
                    .build(cfg)
                    .unwrap_or_else(|e| panic!("build: {e}"))
                    .phases
            })
            .sum::<usize>()
    })
    .median_ns
}

/// Instances whose correct processors reached agreement.
fn agreements(mux: &MultiplexRun) -> usize {
    mux.runs
        .iter()
        .filter(|r| matches!(r, Ok(run) if !run.violated()))
        .count()
}

/// Fleet-wide wire bytes sent by correct processors (degraded instances
/// contribute nothing — their runs carry no metrics).
fn fleet_bytes(mux: &MultiplexRun) -> u64 {
    mux.runs
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|run| run.metrics.bytes_by_correct)
        .sum()
}

fn degraded(mux: &MultiplexRun) -> usize {
    mux.runs.iter().filter(|r| r.is_err()).count()
}

/// Everything deterministic about a multiplexed run — per-instance
/// decisions, metrics and verdicts, fleet wire stats and tick count.
/// Wall-clock fields are excluded.
fn fingerprint(mux: &MultiplexRun) -> String {
    format!("{:?} | {:?} | ticks={}", mux.runs, mux.stats, mux.ticks)
}

/// The service determinism contract, gated before any timing runs:
/// worker-count independence of the whole fleet, and per-instance
/// byte-identity with the standalone runtime — with and without chaos.
fn determinism_check(target: &CheckTarget, cfgs: &[CheckConfig], threads: &[usize]) -> bool {
    let mut ok = true;
    for chaos in [
        ChaosProfile::reliable(),
        ChaosProfile::lossy(CHAOS_SEED, 150),
    ] {
        let reference = run_svc(target, cfgs, &chaos, threads[0], true);
        let want = fingerprint(&reference);
        for &th in &threads[1..] {
            let got = fingerprint(&run_svc(target, cfgs, &chaos, th, true));
            if got != want {
                eprintln!(
                    "bench_service: DETERMINISM BROKEN: threads={th} diverges from threads={}",
                    threads[0]
                );
                ok = false;
            }
        }
        for (i, cfg) in cfgs.iter().enumerate() {
            let solo_chaos = chaos.clone().reseeded(instance_seed(chaos.seed, i as u64));
            let solo = run_target(target, cfg, &NetConfig::default(), &solo_chaos);
            let matched = match (&reference.runs[i], &solo) {
                (Ok(m), Ok(s)) => {
                    m.decisions == s.decisions
                        && m.correct == s.correct
                        && m.suspected == s.suspected
                        && m.metrics == s.metrics
                }
                (Err(m), Err(NetRunError::Degraded(s))) => {
                    m.phase == s.phase && m.reason == s.reason && m.suspected == s.suspected
                }
                _ => false,
            };
            if !matched {
                eprintln!(
                    "bench_service: DETERMINISM BROKEN: instance {i} diverges from its \
                     standalone run"
                );
                ok = false;
            }
        }
    }
    ok
}

/// Builds the spec for open-loop arrival number `i` (alternating values).
fn build_spec(target: &CheckTarget, i: u64) -> InstanceSpec<Chain> {
    let value = if i.is_multiple_of(2) {
        Value::ONE
    } else {
        Value::ZERO
    };
    let cfg = CheckConfig::new(N, T, value, 11, 1, ScheduleSpec::default());
    target
        .build(&cfg)
        .unwrap_or_else(|e| panic!("open-loop spec {i}: {e}"))
        .into()
}

/// Drives one open-loop run: Poisson arrivals at `rate` instances/tick
/// over [`OPEN_LOOP_ARRIVAL_TICKS`] ticks against a bounded queue with
/// shed-oldest backpressure, then drains to quiescence.
fn run_open_loop(target: &CheckTarget, threads: usize, rate: f64) -> SvcReport {
    let svc = SvcConfig::new()
        .with_threads(threads)
        .with_max_inflight(OPEN_LOOP_INFLIGHT)
        .with_queue_capacity(OPEN_LOOP_QUEUE)
        .with_admission(AdmissionPolicy::ShedOldest);
    let mut session = BaService::new(svc).session();
    let mut arrivals = PoissonArrivals::new(CHAOS_SEED, rate);
    let mut submitted = 0u64;
    for _ in 0..OPEN_LOOP_ARRIVAL_TICKS {
        for _ in 0..arrivals.next_arrivals() {
            session
                .submit(build_spec(target, submitted))
                .expect("shed-oldest admission never refuses");
            submitted += 1;
        }
        session.tick();
    }
    session.drain()
}

/// Everything deterministic about a session report — timestamps in ticks,
/// outcomes, admission log, shed set, queue and wire statistics.
/// Wall-clock fields are excluded.
fn svc_fingerprint(report: &SvcReport) -> String {
    let outcomes: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.submitted_tick,
                o.admitted_tick,
                o.settled_tick,
                &o.result,
            )
        })
        .collect();
    format!(
        "{outcomes:?} | shed={:?} | log={:?} | queue={:?} | {:?} | ticks={} peak={}",
        report.shed,
        report.admission_log,
        report.queue,
        report.stats,
        report.ticks,
        report.peak_inflight
    )
}

/// Saturates a tiny session under block-with-deadline admission and
/// proves every submit returns (accepted or refused — never wedged) and
/// the drained report still accounts exactly.
fn no_admission_deadlock(target: &CheckTarget, threads: usize) -> bool {
    let svc = SvcConfig::new()
        .with_threads(threads)
        .with_max_inflight(2)
        .with_admit_per_tick(1)
        .with_queue_capacity(2)
        .with_admission(AdmissionPolicy::BlockWithDeadline { deadline_ticks: 64 });
    let mut session = BaService::new(svc).session();
    let mut accepted = 0usize;
    for i in 0..16u64 {
        if session.submit(build_spec(target, i)).is_ok() {
            accepted += 1;
        }
    }
    let report = session.drain();
    accepted == report.outcomes.len() && report.accounting_balanced()
}

/// A row's leading fields; `build_ns` is the share of its median spent
/// building instances.
fn fields(
    section: &str,
    label: String,
    threads: usize,
    build_ns: f64,
) -> Vec<(&'static str, Json)> {
    vec![
        ("section", section.into()),
        ("label", label.into()),
        ("n", N.into()),
        ("threads", threads.into()),
        ("build_ns", Json::dec(build_ns, 1)),
    ]
}

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn main() -> ExitCode {
    let args = BenchArgs::from_env(
        "bench_service",
        "BENCH_service.json",
        &["throughput", "latency", "degradation", "open_loop"],
        &["--k", "--threads", "--assert-scaling"],
        &[],
    );
    let k = args.num("--k").unwrap_or(8);
    if k < 2 {
        args.usage_error(&format!("--k: need an instance count >= 2, got {k}"));
    }
    let thread_counts = args.list("--threads").unwrap_or(vec![1, 4]);
    let th_hi = *thread_counts
        .iter()
        .max()
        .expect("a parsed list is non-empty");
    let mut report = Report::new("service");

    let target = find_target(TARGET).expect("the service target is registered");
    let cfgs = fleet_cfgs(k);

    // -- determinism gate (always on; timings are meaningless without it) --
    report.gate(
        "determinism",
        determinism_check(target, &cfgs, &thread_counts),
    );

    let reliable = ChaosProfile::reliable();

    // -- throughput: serial runtime vs the multiplexer ---------------------
    let mut cells: Vec<ScalingCell> = Vec::new();
    if args.section("throughput") {
        let build_ns = fleet_build_ns(target, &cfgs);
        for &threads in &thread_counts {
            let serial_decided = run_serial(target, &cfgs, &reliable, threads);
            // The svc-serial probe doubles as the wire-volume source for
            // the serial-runtime row: per-instance byte-identity with the
            // standalone runtime is the gated determinism contract.
            let serial_probe = run_svc(target, &cfgs, &reliable, threads, false);
            let pipe_probe = run_svc(target, &cfgs, &reliable, threads, true);
            let pipe_decided = agreements(&pipe_probe);
            assert_eq!(
                serial_decided, k,
                "reliable wire: every serial instance must decide"
            );
            assert_eq!(
                pipe_decided, k,
                "reliable wire: every pipelined instance must decide"
            );

            let strategies = ["serial-runtime", "svc-serial", "svc-pipelined"];
            let mut medians = [0.0f64; 3];
            for (si, label) in strategies.into_iter().enumerate() {
                let sample = bench(
                    format!("{label} k={k} n={N} threads={threads}"),
                    || match label {
                        "serial-runtime" => run_serial(target, &cfgs, &reliable, threads),
                        "svc-serial" => {
                            agreements(&run_svc(target, &cfgs, &reliable, threads, false))
                        }
                        _ => agreements(&run_svc(target, &cfgs, &reliable, threads, true)),
                    },
                );
                medians[si] = sample.median_ns;
                let agreements_per_sec = k as f64 * 1e9 / sample.median_ns;
                let bytes_sent = if label == "svc-pipelined" {
                    fleet_bytes(&pipe_probe)
                } else {
                    fleet_bytes(&serial_probe)
                };
                let mut row = fields("throughput", format!("{label} k={k}"), threads, build_ns);
                row.push(("agreements_per_sec", Json::dec(agreements_per_sec, 1)));
                row.push(("bytes_sent", bytes_sent.into()));
                report.row("rows", row, Some(&sample));
            }
            let speedup = medians[0] / medians[2];
            eprintln!(
                "bench_service: threads={threads}: pipelined multiplexer is {speedup:.2}x \
                 serial-runtime agreements/sec ({:.0} vs {:.0} agr/s)",
                k as f64 * 1e9 / medians[2],
                k as f64 * 1e9 / medians[0],
            );
            cells.push(ScalingCell {
                workload: format!("svc-pipelined k={k}"),
                threads,
                median_ns: medians[2],
            });
            if threads == th_hi {
                report.check("pipelined_speedup_vs_serial", Json::dec(speedup, 3));
            }
        }
    }

    // -- latency: p50/p99 admission-to-decision, pipelined fleet -----------
    if args.section("latency") {
        let mut merged_ns: Vec<f64> = Vec::new();
        let mut fleet_wire: u64 = 0;
        for i in 0..LATENCY_RUNS {
            let mux = run_svc(target, &cfgs, &reliable, th_hi, true);
            if i == 0 {
                fleet_wire = fleet_bytes(&mux);
            }
            merged_ns.extend(mux.latencies.iter().map(|d| d.as_nanos() as f64));
        }
        merged_ns.sort_by(|a, b| a.total_cmp(b));
        for (label, p) in [("p50", 0.50), ("p99", 0.99)] {
            let sample = Sample {
                name: format!("decision latency {label} (pipelined, k={k})"),
                batch_iters: 1,
                batches: merged_ns.len() as u32,
                median_ns: percentile(&merged_ns, p),
                mean_ns: merged_ns.iter().sum::<f64>() / merged_ns.len() as f64,
                min_ns: merged_ns[0],
            };
            let mut row = fields("latency", format!("decision {label} k={k}"), th_hi, 0.0);
            row.push(("bytes_sent", fleet_wire.into()));
            report.row("rows", row, Some(&sample));
        }
    }

    // -- degradation: agreements/sec vs per-link loss ----------------------
    if args.section("degradation") {
        let build_ns = fleet_build_ns(target, &cfgs);
        let mut no_violations = true;
        for drop in LOSS_SWEEP {
            let chaos = if drop == 0 {
                ChaosProfile::reliable()
            } else {
                ChaosProfile::lossy(CHAOS_SEED, drop)
            };
            let probe = run_svc(target, &cfgs, &chaos, th_hi, true);
            let decided = agreements(&probe);
            no_violations &= probe
                .runs
                .iter()
                .all(|r| !matches!(r, Ok(run) if run.violated()));
            let sample = bench(
                format!("degradation d={drop:>3} k={k} threads={th_hi}"),
                || agreements(&run_svc(target, &cfgs, &chaos, th_hi, true)),
            );
            let agreements_per_sec = decided as f64 * 1e9 / sample.median_ns;
            let mut row = fields(
                "degradation",
                format!("lossy d={drop} k={k}"),
                th_hi,
                build_ns,
            );
            row.extend([
                ("drop_per_mille", u64::from(drop).into()),
                ("decided", decided.into()),
                ("degraded", degraded(&probe).into()),
                ("agreements_per_sec", Json::dec(agreements_per_sec, 1)),
                ("bytes_sent", fleet_bytes(&probe).into()),
            ]);
            report.row("rows", row, Some(&sample));
        }
        report.gate("no_agreement_violations", no_violations);
    }

    // -- open_loop: Poisson arrivals against the session API ---------------
    if args.section("open_loop") {
        let mut accounting = true;
        for rate in OPEN_LOOP_RATES {
            let probe = run_open_loop(target, th_hi, rate);
            accounting &= probe.accounting_balanced();
            let submitted = probe.submitted();
            let decided = probe.decided();
            let failed = probe.degraded();
            let shed = probe.shed_count();
            let shed_rate = shed as f64 / submitted.max(1) as f64;
            let mut lat_ns: Vec<f64> = probe
                .submission_to_decision_latencies()
                .iter()
                .map(|d| d.as_nanos() as f64)
                .collect();
            lat_ns.sort_by(|a, b| a.total_cmp(b));
            let sample = bench(
                format!("open-loop λ={rate} k={submitted} threads={th_hi}"),
                || run_open_loop(target, th_hi, rate).decided(),
            );
            let agreements_per_sec = decided as f64 * 1e9 / sample.median_ns;
            // `build_spec` builds exactly the configs `fleet_cfgs` lists.
            let build_ns = fleet_build_ns(target, &fleet_cfgs(submitted));
            eprintln!(
                "bench_service: open-loop λ={rate}: {submitted} submitted → {decided} decided, \
                 {failed} degraded, {shed} shed ({:.0}% shed) at {agreements_per_sec:.0} agr/s",
                shed_rate * 100.0
            );
            let mut row = fields("open_loop", format!("poisson λ={rate}"), th_hi, build_ns);
            row.extend([
                ("offered_per_tick", Json::Dec(rate.to_string())),
                ("submitted", submitted.into()),
                ("decided", decided.into()),
                ("degraded", failed.into()),
                ("shed", shed.into()),
                ("shed_rate", Json::dec(shed_rate, 3)),
                ("agreements_per_sec", Json::dec(agreements_per_sec, 1)),
                ("latency_p50_ns", Json::dec(percentile(&lat_ns, 0.50), 1)),
                ("latency_p99_ns", Json::dec(percentile(&lat_ns, 0.99), 1)),
                ("mean_queue_depth", Json::dec(probe.queue.mean_depth(), 2)),
                ("peak_queue_depth", probe.queue.peak_depth.into()),
                ("peak_inflight", probe.peak_inflight.into()),
                ("ticks", probe.ticks.into()),
            ]);
            report.row("rows", row, Some(&sample));
        }
        report.gate("open_loop_accounting", accounting);
        // The open-loop analogue of the fleet determinism gate: the same
        // arrival schedule must replay byte-identically at every thread
        // count (wall clock aside).
        let fingerprint = |th| svc_fingerprint(&run_open_loop(target, th, OPEN_LOOP_RATES[1]));
        let want = fingerprint(thread_counts[0]);
        let replayed = thread_counts[1..].iter().all(|&th| fingerprint(th) == want);
        report.gate("open_loop_determinism", replayed);
        report.gate(
            "no_admission_deadlock",
            no_admission_deadlock(target, th_hi),
        );
    }

    report.scaling_gate(args.ratio("--assert-scaling"), &cells);
    report.finish(&args.out)
}
