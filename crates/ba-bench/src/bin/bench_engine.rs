//! Benchmark for the simulation engine's data plane.
//!
//! Sections (select with `--section`, default all):
//!
//! * `chain_fanout` — is a broadcast staged, routed, verified and dropped
//!   once? One processor broadcasts a length-L chain to k peers through
//!   `PhaseCore::step` → `deliver`, k ∈ {63, 1023}, L ∈ {8, 32, 128}; the
//!   rows report `ns_per_message` (a phase's time over its k delivered
//!   messages), which must be flat in L — nothing copies or re-verifies
//!   the chain per recipient — and in k — a message costs a routing fate
//!   and a four-byte inbox index, a frame's fixed cost is paid once;
//! * `flood` — what does parallel intra-phase stepping buy on a
//!   broadcast-heavy chain-relay workload (every actor endorses once and
//!   rebroadcasts every phase, n² messages per phase)? Strategies:
//!   sequential and 4 worker threads;
//! * `dolev_strong` / `algorithm3` — the same comparison on the two real
//!   protocol workloads the experiments scale up;
//! * `pool_scaling` — the persistent-pool grid: Dolev–Strong and
//!   Algorithm 3 at n ∈ {1024, 10240, 51200} × threads ∈ {1, 2, 4, 8}.
//!   Dolev–Strong uses the relay variant (O(nt) traffic) at every n and
//!   additionally the broadcast variant at n = 1024 only — O(n²)
//!   messages per phase is 10⁸ routing fates and inbox indices (~0.5 GB,
//!   about a second) per phase at n = 10 240 and 25× that at n = 51 200
//!   even though no payload is copied, and is deliberately omitted.
//!   Algorithm 3 runs with fixed s = 32 so the phase count (t + 2s + 3)
//!   stays constant across n and the rows measure data-plane scaling, not
//!   phase-count growth. Override the grid with `--n 1024,4096` /
//!   `--threads 1,4`.
//!
//! Every section runs the engine the way every driver does, with barrier
//! verification (`ba_sim::engine` module docs). Every strategy of every
//! workload must produce identical `Metrics` — the run aborts otherwise.
//! Emits a JSON report to the path given as the first positional argument
//! (default `BENCH_engine.json`). Each row is tagged with the host's
//! `available_parallelism`: on a single-core container the parallel rows
//! can only show the pool's (small) coordination overhead, never a
//! speedup, and the binary says so on stderr.
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_engine
//! cargo run -p ba-bench --release --bin bench_engine -- \
//!     --section pool_scaling --n 1024 --threads 1,4 --assert-scaling 1.25
//! ```
//!
//! `--assert-scaling <ratio>` makes the binary exit non-zero if, on a
//! multi-core host, the widest thread count's median exceeds `ratio` × the
//! single-thread median for any `pool_scaling` cell (on a single-core host
//! the gate is skipped — there is nothing to win). CI uses this as the
//! `pool-scaling-smoke` job.
//!
//! `--dump-trace <threads>` instead prints a traced deterministic run
//! (decisions, metrics, every envelope) to stdout; CI compares the output
//! of `--dump-trace 1` and `--dump-trace 4` byte-for-byte.

use ba_algos::{algorithm3, dolev_strong};
use ba_bench::microbench::{bench, print_samples, Sample};
use ba_crypto::keys::{KeyRegistry, SchemeKind, Signer, Verifier};
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::adversary::Silent;
use ba_sim::{Actor, Inbox, Metrics, Outbox, Payload, PhaseCore, RunOutcome, Simulation};
use std::fmt::Write as _;

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
        out.broadcast((0..self.n as u32).map(ProcessId), self.chain.clone());
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
            out.broadcast((0..self.n as u32).map(ProcessId), chain);
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
    let mut sim = Simulation::new(actors)
        .with_threads(threads)
        .with_registry(&registry);
    if traced {
        sim = sim.with_trace();
    }
    sim.run(FLOOD_PHASES)
}

fn dump_trace(threads: usize) {
    let outcome = run_flood(16, threads, true);
    println!("decisions: {:?}", outcome.decisions);
    println!("metrics: {:#?}", outcome.metrics);
    for (k, phase) in outcome.trace.phases.iter().enumerate() {
        for env in &phase.envelopes {
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

/// One `pool_scaling` workload cell (everything but the thread count).
#[derive(Clone, Copy)]
enum PoolWorkload {
    DsRelay { n: usize, t: usize },
    DsBroadcast { n: usize, t: usize },
    Alg3 { n: usize, t: usize, s: usize },
}

impl PoolWorkload {
    fn label(&self) -> String {
        match *self {
            PoolWorkload::DsRelay { t, .. } => format!("ds-relay t={t}"),
            PoolWorkload::DsBroadcast { t, .. } => format!("ds-broadcast t={t}"),
            PoolWorkload::Alg3 { t, s, .. } => format!("alg3 t={t} s={s}"),
        }
    }

    /// Runs the workload once.
    fn run(&self, threads: usize) -> Metrics {
        match *self {
            PoolWorkload::DsRelay { n, t } | PoolWorkload::DsBroadcast { n, t } => {
                let variant = if matches!(self, PoolWorkload::DsRelay { .. }) {
                    dolev_strong::Variant::Relay
                } else {
                    dolev_strong::Variant::Broadcast
                };
                dolev_strong::run(
                    n,
                    t,
                    Value::ONE,
                    dolev_strong::DsOptions {
                        variant,
                        scheme: SchemeKind::Fast,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap()
                .outcome
                .metrics
            }
            PoolWorkload::Alg3 { n, t, s } => {
                algorithm3::run(
                    n,
                    t,
                    s,
                    Value::ONE,
                    algorithm3::Alg3Options {
                        scheme: SchemeKind::Fast,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap()
                .outcome
                .metrics
            }
        }
    }
}

struct Row {
    section: &'static str,
    label: String,
    n: usize,
    threads: usize,
    /// Wire bytes sent by correct processors in one run of this cell
    /// (`Metrics::bytes_by_correct`; for the `chain_fanout` microbench,
    /// one phase's broadcast).
    bytes_sent: u64,
    /// `chain_fanout` rows only: the phase's median time over the messages
    /// it delivered.
    ns_per_message: Option<f64>,
    sample: Sample,
}

fn json_rows(rows: &[Row], parallelism: usize) -> String {
    let single_core = parallelism == 1;
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"section\": \"{}\", \"label\": \"{}\", \"n\": {}, \"threads\": {}, \"parallelism\": {}, \"single_core\": {single_core}, \"bytes_sent\": {}, {}\"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}}}{}",
            r.section,
            r.label,
            r.n,
            r.threads,
            parallelism,
            r.bytes_sent,
            r.ns_per_message
                .map_or(String::new(), |ns| format!("\"ns_per_message\": {ns:.2}, ")),
            r.sample.median_ns,
            r.sample.mean_ns,
            r.sample.min_ns,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out
}

struct Config {
    out_path: String,
    /// Sections to run; empty = all.
    sections: Vec<String>,
    pool_ns: Vec<usize>,
    pool_threads: Vec<usize>,
    assert_scaling: Option<f64>,
}

impl Config {
    fn section(&self, name: &str) -> bool {
        self.sections.is_empty() || self.sections.iter().any(|s| s == name)
    }
}

fn parse_list(flag: &str, value: &str) -> Vec<usize> {
    let list: Vec<usize> = value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| die(&format!("{flag}: bad entry {v:?} in {value:?}")))
        })
        .collect();
    if list.is_empty() {
        die(&format!("{flag} needs a non-empty comma-separated list"));
    }
    list
}

fn die(msg: &str) -> ! {
    eprintln!("bench_engine: {msg}");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Config {
    let mut cfg = Config {
        out_path: "BENCH_engine.json".to_string(),
        sections: Vec::new(),
        pool_ns: POOL_NS.to_vec(),
        pool_threads: POOL_THREADS.to_vec(),
        assert_scaling: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--section" => cfg.sections.push(value("--section")),
            "--n" => cfg.pool_ns = parse_list("--n", &value("--n")),
            "--threads" => cfg.pool_threads = parse_list("--threads", &value("--threads")),
            "--assert-scaling" => {
                let v = value("--assert-scaling");
                cfg.assert_scaling = Some(
                    v.parse()
                        .unwrap_or_else(|_| die(&format!("--assert-scaling: bad ratio {v:?}"))),
                );
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            path => cfg.out_path = path.to_string(),
        }
    }
    let known = [
        "chain_fanout",
        "flood",
        "dolev_strong",
        "algorithm3",
        "pool_scaling",
    ];
    for s in &cfg.sections {
        if !known.contains(&s.as_str()) {
            die(&format!(
                "unknown section {s:?} (known: {})",
                known.join(", ")
            ));
        }
    }
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--dump-trace") {
        let threads: usize = args
            .get(1)
            .and_then(|v| v.parse().ok())
            .expect("--dump-trace needs a thread count");
        dump_trace(threads);
        return;
    }
    let cfg = parse_args(&args);

    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    if parallelism == 1 {
        eprintln!(
            "bench_engine: warning: single-core host (available_parallelism = 1); \
             parallel rows measure pool coordination overhead only, never speedup"
        );
    }
    let mut rows: Vec<Row> = Vec::new();

    // -- chain_fanout: a delivered message costs the same at any L and k --
    let mut fanout_flat = true;
    if cfg.section("chain_fanout") {
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
                per_message.push(sample.median_ns / peers as f64);
                rows.push(Row {
                    section: "chain_fanout",
                    label: format!("L={len} k={peers}"),
                    n,
                    threads: 1,
                    bytes_sent,
                    ns_per_message: per_message.last().copied(),
                    sample,
                });
            }
        }
        let cheapest = per_message.iter().copied().fold(f64::INFINITY, f64::min);
        let dearest = per_message.iter().copied().fold(0.0, f64::max);
        // Copying or verifying per recipient would scale ~16× from L = 8
        // to L = 128, and a per-frame cost paid per message would not
        // amortise from k = 63 to k = 1023. Allow generous noise.
        fanout_flat = dearest < cheapest * 4.0;
    }

    // -- flood: engine strategies on the synthetic broadcast workload -----
    let mut flood_identical = true;
    if cfg.section("flood") {
        for n in FLOOD_SIZES {
            let baseline: Metrics = run_flood(n, 1, false).metrics;
            for (label, threads) in [("seq", 1usize), ("par4", 4)] {
                let outcome = run_flood(n, threads, false);
                flood_identical &= outcome.metrics == baseline;
                rows.push(Row {
                    section: "flood",
                    label: label.to_string(),
                    n,
                    threads,
                    bytes_sent: outcome.metrics.bytes_by_correct,
                    ns_per_message: None,
                    sample: bench(format!("flood n={n:>3} {label}"), || {
                        run_flood(n, threads, false).metrics.messages_total()
                    }),
                });
            }
        }
    }

    // -- real protocol workloads ------------------------------------------
    let mut ds_identical = true;
    if cfg.section("dolev_strong") {
        for n in [32usize, 64] {
            let t = 4;
            let run_ds = |threads: usize| {
                dolev_strong::run(
                    n,
                    t,
                    Value::ONE,
                    dolev_strong::DsOptions {
                        variant: dolev_strong::Variant::Broadcast,
                        scheme: SchemeKind::Fast,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let baseline = run_ds(1).outcome.metrics;
            for threads in [1usize, 4] {
                let probe = run_ds(threads).outcome.metrics;
                ds_identical &= probe == baseline;
                rows.push(Row {
                    section: "dolev_strong",
                    label: format!("t={t} threads={threads}"),
                    n,
                    threads,
                    bytes_sent: probe.bytes_by_correct,
                    ns_per_message: None,
                    sample: bench(format!("dolev-strong n={n:>3} threads={threads}"), || {
                        run_ds(threads).outcome.metrics.messages_by_correct
                    }),
                });
            }
        }
    }

    let mut alg3_identical = true;
    if cfg.section("algorithm3") {
        let (n, t, s) = (64usize, 3usize, 12usize);
        let run_a3 = |threads: usize| {
            algorithm3::run(
                n,
                t,
                s,
                Value::ONE,
                algorithm3::Alg3Options {
                    scheme: SchemeKind::Fast,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let baseline = run_a3(1).outcome.metrics;
        for threads in [1usize, 4] {
            let probe = run_a3(threads).outcome.metrics;
            alg3_identical &= probe == baseline;
            rows.push(Row {
                section: "algorithm3",
                label: format!("t={t} s={s} threads={threads}"),
                n,
                threads,
                bytes_sent: probe.bytes_by_correct,
                ns_per_message: None,
                sample: bench(format!("algorithm3 n={n:>3} threads={threads}"), || {
                    run_a3(threads).outcome.metrics.messages_by_correct
                }),
            });
        }
    }

    // -- pool_scaling: the persistent-pool grid ---------------------------
    let mut pool_identical = true;
    // (label, n, threads, median_ns) for the --assert-scaling gate.
    let mut pool_cells: Vec<(String, usize, usize, f64)> = Vec::new();
    if cfg.section("pool_scaling") {
        for &n in &cfg.pool_ns {
            let mut workloads = vec![PoolWorkload::DsRelay { n, t: POOL_T }];
            if n <= BROADCAST_MAX_N {
                workloads.push(PoolWorkload::DsBroadcast { n, t: POOL_T });
            } else {
                eprintln!(
                    "bench_engine: skipping ds-broadcast at n={n} \
                     (O(n^2) traffic per phase; relay covers large n)"
                );
            }
            workloads.push(PoolWorkload::Alg3 {
                n,
                t: POOL_T,
                s: POOL_S,
            });
            for w in workloads {
                let label = w.label();
                // The determinism check rides on the measured runs: every
                // bench iteration compares its metrics to the first run's.
                let mut baseline: Option<Metrics> = None;
                for &threads in &cfg.pool_threads {
                    let sample = bench(format!("pool {label} n={n} threads={threads}"), || {
                        let m = w.run(threads);
                        match &baseline {
                            Some(b) => pool_identical &= m == *b,
                            None => baseline = Some(m.clone()),
                        }
                        m.messages_by_correct
                    });
                    pool_cells.push((label.clone(), n, threads, sample.median_ns));
                    rows.push(Row {
                        section: "pool_scaling",
                        label: format!("{label} threads={threads}"),
                        n,
                        threads,
                        bytes_sent: baseline.as_ref().map_or(0, |m| m.bytes_by_correct),
                        ns_per_message: None,
                        sample,
                    });
                }
            }
        }
    }

    assert!(
        flood_identical && ds_identical && alg3_identical && pool_identical,
        "metrics diverged across engine strategies — determinism contract broken"
    );

    let samples: Vec<Sample> = rows.iter().map(|r| r.sample.clone()).collect();
    print_samples("engine data plane", &samples);

    let mut json = String::from("{\n  \"bench\": \"engine\",\n");
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    let _ = writeln!(
        json,
        "  \"checks\": {{\"chain_fanout_flat\": {fanout_flat}, \"flood_metrics_identical\": {flood_identical}, \"dolev_strong_metrics_identical\": {ds_identical}, \"algorithm3_metrics_identical\": {alg3_identical}, \"pool_scaling_metrics_identical\": {pool_identical}}},"
    );
    json.push_str("  \"rows\": [\n");
    json.push_str(&json_rows(&rows, parallelism));
    json.push_str("  ]\n}\n");
    std::fs::write(&cfg.out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", cfg.out_path);
        std::process::exit(1);
    });
    eprintln!("wrote {}", cfg.out_path);

    // -- scaling gate (after the JSON, so failures still leave a report) --
    if let Some(ratio) = cfg.assert_scaling {
        if parallelism == 1 {
            eprintln!("bench_engine: --assert-scaling skipped: single-core host");
            return;
        }
        let lo = *cfg.pool_threads.iter().min().expect("non-empty");
        let hi = *cfg.pool_threads.iter().max().expect("non-empty");
        let mut failed = false;
        for (label, n, threads, med) in &pool_cells {
            if *threads != hi {
                continue;
            }
            let base = pool_cells
                .iter()
                .find(|(l, bn, bt, _)| l == label && bn == n && *bt == lo)
                .map(|(_, _, _, m)| *m)
                .expect("lo-thread cell exists for every workload");
            if *med > base * ratio {
                eprintln!(
                    "bench_engine: scaling gate FAILED: {label} n={n}: \
                     threads={hi} median {med:.0} ns > {ratio} x threads={lo} median {base:.0} ns"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "bench_engine: scaling gate passed (threads={hi} <= {ratio} x threads={lo} everywhere)"
        );
    }
}
