//! Benchmark for the simulation engine's data plane.
//!
//! Sections (select with `--section`, default all):
//!
//! * `chain_fanout` — is a broadcast staged, routed, verified and dropped
//!   once? One processor broadcasts a length-L chain to k peers through
//!   `PhaseCore::step` → `deliver`, k ∈ {63, 1023}, L ∈ {8, 32, 128}; the
//!   rows report `ns_per_message` (a phase's time over its k delivered
//!   messages), which must be flat in L — nothing copies or re-verifies
//!   the chain per recipient — and in k — a message costs a staged
//!   target id (the phase is all-to-all, so no routing fate or inbox
//!   index is written), a frame's fixed cost is paid once;
//! * `flood` — what does parallel intra-phase stepping buy on a
//!   broadcast-heavy chain-relay workload (every actor endorses once and
//!   rebroadcasts every phase, n² messages per phase)? Strategies:
//!   sequential and 4 worker threads;
//! * `dolev_strong` / `algorithm3` — the same comparison on the two real
//!   protocol workloads the experiments scale up;
//! * `algorithms` — the paper's other protocols, one sequential row per
//!   run at seed 1 with `Fast` keys: Algorithm 1 at t ∈ {2, 4, 8, 16},
//!   Algorithm 2 at t ∈ {2, 4, 8}, Algorithm 4 at m ∈ {3, 5, 8} with p0
//!   faulty, Algorithm 5 at (n, t, s) ∈ {(60, 1, 1), (120, 3, 3),
//!   (240, 7, 7), (4096, 15, 15)} and OM(2) at n = 10 — how simulator
//!   wall-clock scales beside the message counts the experiments report.
//!   Each row carries `ns_per_message`: its median over the run's
//!   messages sent by correct processors;
//! * `pool_scaling` — the persistent-pool grid: Dolev–Strong and
//!   Algorithm 3 at n ∈ {1024, 10240, 51200} × threads ∈ {1, 2, 4, 8}.
//!   Dolev–Strong uses the relay variant (O(nt) traffic) at every n and
//!   additionally the broadcast variant at n = 1024 only — O(n²)
//!   messages per phase is 10⁸ staged target ids (~0.4 GB) per phase at
//!   n = 10 240 and 25× that at n = 51 200 even though no payload is
//!   copied, and is deliberately omitted.
//!   Algorithm 3 runs with fixed s = 32 so the phase count (t + 2s + 3)
//!   stays constant across n and the rows measure data-plane scaling, not
//!   phase-count growth. Override the grid with `--n 1024,4096` /
//!   `--threads 1,4`.
//!
//! The `dolev_strong`, `algorithm3` and `pool_scaling` rows carry
//! `build_ns` beside `median_ns`: the median of a separate, equivalent
//! build of the row's instance (keys, parameters, actors), timed on its
//! own. It is not a share of `median_ns`, which times the protocol's own
//! `run` — that builds the instance its own way and then steps it.
//!
//! Every section runs the engine the way every driver does, with barrier
//! verification (`ba_sim::engine` module docs). Every strategy of every
//! workload that ran must produce identical `Metrics`: each section that
//! compares strategies (`flood`, `dolev_strong`, `algorithm3`,
//! `pool_scaling`) has a `*_metrics_identical` gate, so a divergence still
//! writes the report and then exits 1. Writes the report (DESIGN §7.6) to
//! the positional argument, default `BENCH_engine.json`; its `host` object
//! carries `available_parallelism` — on a single-core container the
//! parallel rows can only show the pool's (small) coordination overhead,
//! never a speedup, and the binary says so on stderr.
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_engine
//! cargo run -p ba-bench --release --bin bench_engine -- \
//!     --section pool_scaling --n 1024 --threads 1,4 --assert-scaling 1.25
//! ```
//!
//! `--assert-scaling <ratio>` makes the binary exit 1 (after writing the
//! report) if, on a multi-core host, the widest thread count's median
//! exceeds `ratio` × the narrowest's for any `pool_scaling` cell; on a
//! single-core host the gate is skipped — there is nothing to win. It is a
//! usage error (exit 2) without `pool_scaling` or with fewer than two
//! distinct `--threads`. CI uses this as the `pool-scaling-smoke` job.
//!
//! `--dump-trace <threads>` instead prints two traced deterministic runs
//! (decisions, metrics, every envelope) to stdout — the n = 16 chain flood,
//! then `ds-broadcast` at n = 16, t = 2 under an equivocating transmitter;
//! CI compares the output of `--dump-trace 1` and `--dump-trace 4`
//! byte-for-byte.

use ba_algos::checkable::{find_target, CheckConfig};
use ba_algos::RunOptions;
use ba_algos::{algorithm1, algorithm2, algorithm3, algorithm4, algorithm5, dolev_strong, om};
use ba_bench::cli::BenchArgs;
use ba_bench::microbench::bench;
use ba_bench::report::{Report, ScalingCell};
use ba_check::json::Json;
use ba_crypto::keys::{KeyRegistry, SchemeKind, Signer, Verifier};
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::adversary::Silent;
use ba_sim::{
    Actor, FaultBehavior, Inbox, InstanceSpec, Metrics, Outbox, Payload, PhaseCore, RunOutcome,
    ScheduleSpec, Simulation,
};
use std::process::ExitCode;

const FANOUT_PEERS: [usize; 2] = [63, 1023];
const FANOUT_LENGTHS: [usize; 3] = [8, 32, 128];
/// Phases a `chain_fanout` core runs before its accounting is reset.
const FANOUT_PHASES: usize = 256;
const FLOOD_SIZES: [usize; 2] = [16, 64];
const FLOOD_PHASES: usize = 4;

/// Default `pool_scaling` grid. Dolev–Strong broadcast only runs at n up
/// to [`BROADCAST_MAX_N`].
const POOL_NS: [usize; 3] = [1024, 10_240, 51_200];
const POOL_THREADS: [usize; 4] = [1, 2, 4, 8];
const POOL_T: usize = 4;
const POOL_S: usize = 32;
const BROADCAST_MAX_N: usize = 2048;

/// Broadcasts its chain to every other processor, every phase.
#[derive(Debug)]
struct Broadcaster {
    n: usize,
    chain: Chain,
}

impl Actor<Chain> for Broadcaster {
    fn step(&mut self, _phase: usize, _inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        out.broadcast_all(self.n, self.chain.clone());
    }
    fn decision(&self) -> Option<Value> {
        Some(self.chain.value())
    }
}

/// Broadcast-heavy chain relay: actor 0 starts a signed chain; every actor
/// verifies what it hears, endorses the longest chain once, and
/// rebroadcasts its best chain every phase — n² messages per phase, all of
/// them `Chain` payloads, all verified against the shared registry.
#[derive(Debug)]
struct FloodRelay {
    signer: Signer,
    verifier: Verifier,
    n: usize,
    endorsed: bool,
    best: Option<Chain>,
}

impl Actor<Chain> for FloodRelay {
    fn step(&mut self, phase: usize, inbox: Inbox<'_, Chain>, out: &mut Outbox<Chain>) {
        if phase == 1 && out.sender() == ProcessId(0) {
            let mut chain = Chain::new(3, Value::ONE);
            chain.sign_and_append(&self.signer);
            self.endorsed = true;
            self.best = Some(chain);
        }
        for env in inbox {
            if env.payload.verify(&self.verifier).is_err() {
                continue;
            }
            let longer = self
                .best
                .as_ref()
                .is_none_or(|b| env.payload.len() > b.len());
            if longer {
                self.best = Some(env.payload.clone());
            }
        }
        if let Some(best) = &mut self.best {
            if !self.endorsed {
                self.endorsed = true;
                best.sign_and_append(&self.signer);
            }
            let chain = best.clone();
            out.broadcast_all(self.n, chain);
        }
    }
    fn decision(&self) -> Option<Value> {
        self.best.as_ref().map(|c| c.value())
    }
}

fn run_flood(n: usize, threads: usize, traced: bool) -> RunOutcome<Chain> {
    let registry = KeyRegistry::new(n, 7, SchemeKind::Fast);
    let actors: Vec<Box<dyn Actor<Chain>>> = (0..n)
        .map(|i| {
            Box::new(FloodRelay {
                signer: registry.signer(ProcessId(i as u32)),
                verifier: registry.verifier(),
                n,
                endorsed: false,
                best: None,
            }) as Box<dyn Actor<Chain>>
        })
        .collect();
    let spec = InstanceSpec {
        actors,
        phases: FLOOD_PHASES,
        fault_budget: 0,
        link_drops: Vec::new(),
        registry: Some(registry),
    };
    let mut sim = Simulation::from(spec).with_threads(threads);
    if traced {
        sim = sim.with_trace();
    }
    sim.run(FLOOD_PHASES)
}

fn dump_trace(threads: usize) {
    print_trace(&run_flood(16, threads, true));
    // Dolev–Strong under an equivocating transmitter: its relay phases are
    // all-to-all chains of both values, the inboxes whose values a
    // recipient has all extracted are turned away unread, and the run
    // still has to print the same bytes at any thread count.
    let ones = (1..8).map(ProcessId).collect();
    let spec = ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones });
    let cfg = CheckConfig::new(16, 2, Value::ONE, 7, threads, spec);
    let setup = find_target("ds-broadcast").expect("registered").build(&cfg);
    let instance = InstanceSpec::from(setup.expect("an equivocation schedule compiles"));
    let phases = instance.phases;
    let mut sim = Simulation::from(instance)
        .with_threads(threads)
        .with_trace();
    println!("ds-broadcast n=16 t=2, transmitter equivocating");
    print_trace(&sim.run(phases));
}

/// Prints a traced run: decisions, metrics, then every envelope.
fn print_trace(outcome: &RunOutcome<Chain>) {
    println!("decisions: {:?}", outcome.decisions);
    println!("metrics: {:#?}", outcome.metrics);
    for (k, phase) in outcome.trace.phases.iter().enumerate() {
        for env in phase {
            println!(
                "phase {} | {:>3} -> {:>3} | {:?}",
                k + 1,
                env.from.index(),
                env.to.index(),
                env.payload
            );
        }
    }
}

/// A protocol run the `dolev_strong`, `algorithm3` and `pool_scaling`
/// sections time: everything but the thread count.
#[derive(Clone, Copy)]
struct Workload {
    protocol: Protocol,
    n: usize,
    t: usize,
}

#[derive(Clone, Copy)]
enum Protocol {
    DsRelay,
    DsBroadcast,
    Alg3 { s: usize },
}

impl Workload {
    /// The protocol's name and its parameters besides n, e.g.
    /// `("alg3", "t=4 s=32")`.
    fn describe(&self) -> (&'static str, String) {
        let t = self.t;
        match self.protocol {
            Protocol::DsRelay => ("ds-relay", format!("t={t}")),
            Protocol::DsBroadcast => ("ds-broadcast", format!("t={t}")),
            Protocol::Alg3 { s } => ("alg3", format!("t={t} s={s}")),
        }
    }

    /// Builds an instance equivalent to the one [`run`](Self::run) builds —
    /// keys, parameters, one actor per processor — without running it, and
    /// returns its actor count: what `build_ns` times. Dolev–Strong goes
    /// through its check target, Algorithm 3 through the `build` its `run`
    /// calls.
    fn build(&self) -> usize {
        let (n, t) = (self.n, self.t);
        let target = match self.protocol {
            Protocol::DsRelay => "ds-relay",
            Protocol::DsBroadcast => "ds-broadcast",
            Protocol::Alg3 { s } => {
                let registry = KeyRegistry::new(n, 0, SchemeKind::Fast);
                let params = algorithm3::Alg3Params::new(n, t, s, registry.verifier());
                let spec = algorithm3::build(params, &registry, Value::ONE, &Default::default());
                return spec.expect("a fault-free schedule compiles").actors.len();
            }
        };
        let cfg = CheckConfig::new(n, t, Value::ONE, 0, 1, ScheduleSpec::default());
        let setup = find_target(target).expect("registered").build(&cfg);
        setup.expect("a fault-free schedule compiles").actors.len()
    }

    /// The median time [`build`](Self::build) takes, measured apart from
    /// the row's runs.
    fn build_ns(&self) -> Json {
        let (name, _) = self.describe();
        let sample = bench(format!("build {name} n={}", self.n), || self.build());
        Json::dec(sample.median_ns, 1)
    }

    /// Runs the workload once.
    fn run(&self, threads: usize) -> Metrics {
        let (n, t, scheme) = (self.n, self.t, SchemeKind::Fast);
        let variant = match self.protocol {
            Protocol::DsRelay => dolev_strong::Variant::Relay,
            Protocol::DsBroadcast => dolev_strong::Variant::Broadcast,
            Protocol::Alg3 { s } => {
                let opts = RunOptions {
                    scheme,
                    threads,
                    ..Default::default()
                };
                let run = algorithm3::run(n, t, s, Value::ONE, opts).unwrap();
                return run.outcome.metrics;
            }
        };
        let opts = dolev_strong::DsOptions {
            variant,
            scheme,
            threads,
            ..Default::default()
        };
        dolev_strong::run(n, t, Value::ONE, opts)
            .unwrap()
            .outcome
            .metrics
    }
}

/// An `algorithms` row: its label, n, and one run of it.
type AlgorithmRun = (String, usize, Box<dyn Fn() -> Metrics>);

fn algorithm_runs() -> Vec<AlgorithmRun> {
    let opts = || RunOptions::new().with_seed(1).with_scheme(SchemeKind::Fast);
    let mut runs: Vec<AlgorithmRun> = Vec::new();
    for t in [2, 4, 8, 16] {
        let run = move || {
            algorithm1::run(t, Value::ONE, opts())
                .unwrap()
                .outcome
                .metrics
        };
        runs.push((format!("alg1 t={t}"), 2 * t + 1, Box::new(run)));
    }
    for t in [2, 4, 8] {
        let run = move || {
            algorithm2::run(t, Value::ONE, opts())
                .unwrap()
                .report
                .outcome
                .metrics
        };
        runs.push((format!("alg2 t={t}"), 2 * t + 1, Box::new(run)));
    }
    for m in [3, 5, 8] {
        let run = move || {
            let silent = ScheduleSpec::each([ProcessId(0)], FaultBehavior::Silent);
            algorithm4::run(m, 1, opts().with_schedule(silent))
                .outcome
                .metrics
        };
        runs.push((format!("alg4 m={m} faulty=p0"), m * m, Box::new(run)));
    }
    for (n, t, s) in [(60, 1, 1), (120, 3, 3), (240, 7, 7), (4096, 15, 15)] {
        let run = move || {
            algorithm5::run(n, t, s, Value::ONE, opts())
                .unwrap()
                .outcome
                .metrics
        };
        runs.push((format!("alg5 t={t} s={s}"), n, Box::new(run)));
    }
    let run = move || om::run(10, 2, Value::ONE, opts()).unwrap().outcome.metrics;
    runs.push(("om t=2".into(), 10, Box::new(run)));
    runs
}

/// A row's leading fields; `bytes_sent` is the wire bytes sent by correct
/// processors in one run of the cell (`Metrics::bytes_by_correct`; for
/// `chain_fanout`, one phase's broadcast).
fn fields(
    section: &str,
    label: String,
    n: usize,
    threads: usize,
    bytes_sent: u64,
) -> Vec<(&'static str, Json)> {
    vec![
        ("section", section.into()),
        ("label", label.into()),
        ("n", n.into()),
        ("threads", threads.into()),
        ("bytes_sent", bytes_sent.into()),
    ]
}

fn main() -> ExitCode {
    let args = BenchArgs::from_env(
        "bench_engine",
        "BENCH_engine.json",
        &[
            "chain_fanout",
            "flood",
            "dolev_strong",
            "algorithm3",
            "algorithms",
            "pool_scaling",
        ],
        &["--n", "--threads", "--assert-scaling", "--dump-trace"],
        &[],
    );
    if let Some(threads) = args.num("--dump-trace") {
        dump_trace(threads);
        return ExitCode::SUCCESS;
    }
    let pool_ns = args.list("--n").unwrap_or(POOL_NS.to_vec());
    let pool_threads = args.list("--threads").unwrap_or(POOL_THREADS.to_vec());
    let mut report = Report::new("engine");

    // -- chain_fanout: a delivered message costs the same at any L and k --
    if args.section("chain_fanout") {
        let mut per_message: Vec<f64> = Vec::new();
        for peers in FANOUT_PEERS {
            for len in FANOUT_LENGTHS {
                let n = peers + 1;
                let registry = KeyRegistry::new(len.max(n), 42, SchemeKind::Fast);
                let mut chain = Chain::new(3, Value::ONE);
                for i in 0..len {
                    chain.sign_and_append(&registry.signer(ProcessId(i as u32)));
                }
                let bytes_sent = (chain.weight_bytes() * peers) as u64;
                let mut actors: Vec<Box<dyn Actor<Chain>>> =
                    vec![Box::new(Broadcaster { n, chain })];
                actors.resize_with(n, || Box::new(Silent));
                let mut core = PhaseCore::new(actors, [], Some(registry));
                let sample = bench(format!("fanout L={len:>3} to {peers} peers"), || {
                    assert!(core.step(1).is_empty());
                    core.deliver(None);
                    if core.phase() > FANOUT_PHASES {
                        let metrics = core.finish().metrics;
                        assert_eq!(metrics.messages_total(), (FANOUT_PHASES * peers) as u64);
                    }
                });
                let ns_per_message = sample.median_ns / peers as f64;
                per_message.push(ns_per_message);
                let label = format!("L={len} k={peers}");
                let mut row = fields("chain_fanout", label, n, 1, bytes_sent);
                row.push(("ns_per_message", Json::dec(ns_per_message, 2)));
                report.row("rows", row, Some(&sample));
            }
        }
        let cheapest = per_message.iter().copied().fold(f64::INFINITY, f64::min);
        let dearest = per_message.iter().copied().fold(0.0, f64::max);
        // Copying or verifying per recipient would scale ~16× from L = 8
        // to L = 128, and a per-frame cost paid per message would not
        // amortise from k = 63 to k = 1023. Allow generous noise.
        report.check("chain_fanout_flat", dearest < cheapest * 4.0);
    }

    // -- flood: engine strategies on the synthetic broadcast workload -----
    if args.section("flood") {
        let mut identical = true;
        for n in FLOOD_SIZES {
            let baseline: Metrics = run_flood(n, 1, false).metrics;
            for (label, threads) in [("seq", 1usize), ("par4", 4)] {
                let outcome = run_flood(n, threads, false);
                identical &= outcome.metrics == baseline;
                let sample = bench(format!("flood n={n:>3} {label}"), || {
                    run_flood(n, threads, false).metrics.messages_total()
                });
                let bytes = outcome.metrics.bytes_by_correct;
                let row = fields("flood", label.to_string(), n, threads, bytes);
                report.row("rows", row, Some(&sample));
            }
        }
        report.gate("flood_metrics_identical", identical);
    }

    // -- real protocol workloads: sequential vs 4 workers ----------------
    let broadcast = |n| Workload {
        protocol: Protocol::DsBroadcast,
        n,
        t: 4,
    };
    let alg3 = Workload {
        protocol: Protocol::Alg3 { s: 12 },
        n: 64,
        t: 3,
    };
    let protocols = [
        ("dolev_strong", vec![broadcast(32), broadcast(64)]),
        ("algorithm3", vec![alg3]),
    ];
    for (section, workloads) in protocols {
        if !args.section(section) {
            continue;
        }
        let mut identical = true;
        for w in workloads {
            let (name, params) = w.describe();
            let build_ns = w.build_ns();
            let baseline = w.run(1);
            for threads in [1usize, 4] {
                let probe = w.run(threads);
                identical &= probe == baseline;
                let sample = bench(format!("{name} n={:>3} threads={threads}", w.n), || {
                    w.run(threads).messages_by_correct
                });
                let label = format!("{params} threads={threads}");
                let mut row = fields(section, label, w.n, threads, probe.bytes_by_correct);
                row.push(("build_ns", build_ns.clone()));
                report.row("rows", row, Some(&sample));
            }
        }
        report.gate(&format!("{section}_metrics_identical"), identical);
    }

    // -- algorithms: the paper's other protocols, sequential --------------
    if args.section("algorithms") {
        for (label, n, run) in algorithm_runs() {
            let probe = run();
            let sample = bench(format!("{label} n={n}"), || run().messages_by_correct);
            let ns_per_message = sample.median_ns / probe.messages_by_correct as f64;
            let mut row = fields("algorithms", label, n, 1, probe.bytes_by_correct);
            row.push(("ns_per_message", Json::dec(ns_per_message, 2)));
            report.row("rows", row, Some(&sample));
        }
    }

    // -- pool_scaling: the persistent-pool grid ---------------------------
    let mut cells: Vec<ScalingCell> = Vec::new();
    if args.section("pool_scaling") {
        let mut identical = true;
        for &n in &pool_ns {
            let mut protocols = vec![Protocol::DsRelay];
            if n <= BROADCAST_MAX_N {
                protocols.push(Protocol::DsBroadcast);
            } else {
                eprintln!(
                    "bench_engine: skipping ds-broadcast at n={n} \
                     (O(n^2) traffic per phase; relay covers large n)"
                );
            }
            protocols.push(Protocol::Alg3 { s: POOL_S });
            for protocol in protocols {
                let w = Workload {
                    protocol,
                    n,
                    t: POOL_T,
                };
                let (name, params) = w.describe();
                let label = format!("{name} {params}");
                let build_ns = w.build_ns();
                // The determinism check rides on the measured runs: every
                // bench iteration compares its metrics to the first run's.
                let mut baseline: Option<Metrics> = None;
                for &threads in &pool_threads {
                    let sample = bench(format!("pool {label} n={n} threads={threads}"), || {
                        let m = w.run(threads);
                        match &baseline {
                            Some(b) => identical &= m == *b,
                            None => baseline = Some(m.clone()),
                        }
                        m.messages_by_correct
                    });
                    cells.push(ScalingCell {
                        workload: format!("{label} n={n}"),
                        threads,
                        median_ns: sample.median_ns,
                    });
                    let label = format!("{label} threads={threads}");
                    let bytes = baseline.as_ref().map_or(0, |m| m.bytes_by_correct);
                    let mut row = fields("pool_scaling", label, n, threads, bytes);
                    row.push(("build_ns", build_ns.clone()));
                    report.row("rows", row, Some(&sample));
                }
            }
        }
        report.gate("pool_scaling_metrics_identical", identical);
    }

    report.scaling_gate(args.ratio("--assert-scaling"), &cells);
    report.finish(&args.out)
}
