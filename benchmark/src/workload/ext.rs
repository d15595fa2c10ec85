//! The two `ba-ext` workloads: payload agreement, closed loop.
//!
//! `ext_bulk` agrees on 256 KiB payloads fault-free — Reed–Solomon coding,
//! SHA-256 over the payload and grid dissemination dominate, control
//! traffic is ≈ 2 % of the bytes. `ext_small` agrees on 1 KiB payloads with
//! the last `t` nodes silent, so repair and fetch run — coding is
//! negligible and the four digest inner-BAs plus the `n`-instance
//! availability vote carry the cost.
//!
//! The extension entry points themselves are timed; the checker's judge
//! (`check::run_scenario`) is not on the path, and every report is
//! verified outside the timed span.

use super::{
    block_ops, bump, bump_run_metrics, crypto_probes, median_ns, Block, Counters, LayerValues,
    Workload, THREADS,
};
use crate::trace::{Tracer, BLOCK_SPAN};
use ba_algos::checkable::{find_target, CheckConfig, CheckTarget};
use ba_crypto::rng::{derive_seed, SimRng};
use ba_crypto::sha256::Sha256;
use ba_crypto::{Bytes, Chain, ProcessId, Value};
use ba_ext::check::{run_scenario_net, ExtScenario};
use ba_ext::coding::Coder;
use ba_ext::net::outcome_agreement;
use ba_ext::{agree_on_payload, run_extension, ExtDecision, ExtOptions, ExtReport};
use ba_net::{ChaosProfile, NetConfig};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};
use ba_sim::Simulation;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 16;
const T: usize = 3;
/// Distinct seeded payloads the operations rotate through.
const PAYLOADS: usize = 4;

#[derive(Clone, Copy, Debug)]
pub struct ExtParams {
    pub payload_len: usize,
    /// Whether the last `t` nodes are silent (withhold-t: their chunks
    /// must be repaired and the payload fetched).
    pub withhold: bool,
    pub agreements_per_block: u64,
}

pub const BULK: ExtParams = ExtParams {
    payload_len: 256 * 1024,
    withhold: false,
    agreements_per_block: 8,
};

pub const SMALL: ExtParams = ExtParams {
    payload_len: 1024,
    withhold: true,
    agreements_per_block: 200,
};

pub struct ExtWorkload {
    params: ExtParams,
    seed: u64,
    payloads: Vec<Bytes>,
    spec: ScheduleSpec,
}

impl ExtWorkload {
    pub fn new(params: ExtParams, seed: u64) -> ExtWorkload {
        let payloads = (0..PAYLOADS as u64)
            .map(|i| {
                let mut rng = SimRng::new(derive_seed(seed, 0xB17E_0000 + i));
                Bytes::from(rng.bytes(params.payload_len))
            })
            .collect();
        let faults = if params.withhold {
            (N - T..N)
                .map(|p| (ProcessId(p as u32), FaultBehavior::Silent))
                .collect()
        } else {
            Vec::new()
        };
        ExtWorkload {
            params,
            seed,
            payloads,
            spec: ScheduleSpec {
                faults,
                link_drops: Vec::new(),
            },
        }
    }

    fn options(&self, op: u64) -> ExtOptions {
        ExtOptions::new()
            .with_n(N)
            .with_t(T)
            .with_threads(THREADS)
            .with_seed(derive_seed(self.seed, op))
    }

    fn payload(&self, op: u64) -> &Bytes {
        &self.payloads[(op % PAYLOADS as u64) as usize]
    }

    /// One agreement through the lock-step entry point this workload
    /// measures.
    fn agree(&self, op: u64) -> Result<ExtReport, String> {
        let opts = self.options(op);
        let result = if self.params.withhold {
            run_extension(self.payload(op), &opts, &self.spec, |actors| actors)
        } else {
            agree_on_payload(self.payload(op), &opts)
        };
        result.map_err(|e| format!("agreement {op}: {e}"))
    }

    /// Payload equality on every correct node, and no split outcome.
    /// Returns whether the agreement decided (the sender is correct here,
    /// so an abort is never the right answer).
    fn check(&self, op: u64, report: &ExtReport) -> Result<bool, String> {
        outcome_agreement(report).map_err(|e| format!("agreement {op}: {e}"))?;
        let mut decided = true;
        for (id, decision) in report.correct_decisions() {
            match decision {
                Some(ExtDecision::Decide(bytes)) if bytes == self.payload(op) => {}
                Some(ExtDecision::Decide(_)) => {
                    return Err(format!(
                        "agreement {op}: correct {id} decided a wrong payload"
                    ));
                }
                Some(ExtDecision::Abort(_)) | None => decided = false,
            }
        }
        Ok(decided)
    }
}

impl Workload for ExtWorkload {
    fn run_block(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<Block, String> {
        let mut block = Block::default();
        let mut reports = Vec::with_capacity(self.params.agreements_per_block as usize);
        let start = Instant::now();
        let span = tracer.begin(BLOCK_SPAN);
        for op in block_ops(index, self.params.agreements_per_block) {
            tracer.set_op(op);
            let began = Instant::now();
            let report = tracer.span("ext.run", || self.agree(op))?;
            reports.push((op, began.elapsed().as_nanos() as u64, report));
        }
        tracer.end(span);
        block.wall_ns = start.elapsed().as_nanos() as u64;

        for (op, took_ns, report) in &reports {
            block.attempted += 1;
            if !self.check(*op, report)? {
                block.failed += 1;
                continue;
            }
            block.decided += 1;
            block.latencies_ns.push(*took_ns);
            let stages = [
                ("ext_inner_bytes", &report.inner_metrics),
                ("ext_dissemination_bytes", &report.dissemination),
                ("ext_vote_bytes", &report.vote),
                ("ext_fetch_bytes", &report.fetch),
            ];
            for (bytes_key, m) in stages {
                bump(counters, bytes_key, m.wire_bytes());
                bump(counters, "ext_control_bytes", m.control_bytes_by_correct());
                bump_run_metrics(counters, m);
            }
            bump(counters, "wire_bytes", report.total_wire_bytes());
            bump(counters, "ext_payload_len", report.payload_len as u64);
            bump(counters, "ext_floor_bytes", (report.payload_len * N) as u64);
            bump(counters, "ext_repair_requests", report.repair_requests);
            bump(
                counters,
                "ext_repair_response_bytes",
                report.repair_response_bytes,
            );
        }
        bump(counters, "attempted", block.attempted);
        bump(counters, "decided", block.decided);
        Ok(block)
    }

    fn probes(&mut self) -> Result<LayerValues, String> {
        let mut out = crypto_probes(N, T, self.seed);
        let payload = self.payload(0).clone();
        let len = payload.len();
        let ms = |ns: f64| ns / 1e6;

        // SHA-256 over ℓ: once per agreement by the sender, once per
        // deciding node to check the reconstruction.
        let digest_ns = median_ns(15, || {
            black_box(Sha256::digest(black_box(&payload)));
        });
        out.insert("ext.digest_ms", ms(digest_ns));
        out.insert(
            "crypto.digest_mb_per_s",
            len as f64 / 1e6 / (digest_ns / 1e9),
        );

        // Reed–Solomon at k = n − 2t, the geometry every agreement uses.
        let coder = Coder::new(N - 2 * T, N);
        out.insert(
            "ext.encode_ms",
            ms(median_ns(15, || {
                black_box(coder.encode(black_box(&payload)));
            })),
        );
        let mut chunks: Vec<Option<Bytes>> = coder.encode(&payload).into_iter().map(Some).collect();
        if self.params.withhold {
            // What a node holds when the last t nodes never forward.
            chunks[N - T..].fill(None);
        }
        out.insert(
            "ext.reconstruct_ms",
            ms(median_ns(15, || {
                black_box(coder.reconstruct(black_box(&chunks), len)).expect("k chunks suffice");
            })),
        );

        // Stage replicas: `run_extension` exposes no stage boundary, so the
        // same four digest-word configs and n vote configs run standalone,
        // the way the extension drives them.
        let opts = self.options(0);
        let inner = find_target(opts.inner).expect("default inner target");
        let vote = find_target(opts.vote_inner).expect("default vote target");
        let digest = Sha256::digest(&payload);
        let words: Vec<CheckConfig> = digest
            .chunks_exact(8)
            .enumerate()
            .map(|(w, word)| {
                let word = u64::from_be_bytes(word.try_into().expect("8-byte digest word"));
                CheckConfig::new(
                    N,
                    T,
                    Value(word),
                    opts.seed ^ w as u64,
                    THREADS,
                    self.spec.clone(),
                )
            })
            .collect();
        let votes: Vec<CheckConfig> = (0..N)
            .map(|v| {
                let holds = !self.spec.is_faulty(ProcessId(v as u32));
                let mut cfg = CheckConfig::new(
                    N,
                    T,
                    Value(u64::from(holds)),
                    !opts.seed,
                    THREADS,
                    self.spec.clone(),
                );
                cfg.transmitter = ProcessId(v as u32);
                cfg
            })
            .collect();
        let run_all = |target: &CheckTarget, cfgs: &[CheckConfig]| {
            for cfg in cfgs {
                let setup = target.build(cfg).expect("replica config compiles");
                let mut sim = Simulation::<Chain>::new(setup.actors)
                    .with_threads(THREADS)
                    .with_registry(&setup.registry);
                black_box(sim.run(setup.phases));
            }
        };
        out.insert(
            "ext.inner_ba_ms",
            ms(median_ns(15, || run_all(inner, &words))),
        );
        out.insert("ext.vote_ms", ms(median_ns(15, || run_all(vote, &votes))));

        if self.params.withhold {
            // The same inputs through `NetRuntime` on a reliable wire,
            // against the lock-step entry point, both untraced. Traced run
            // only: no gated workload drives the mpsc worker path.
            let scenario = ExtScenario {
                spec: self.spec.clone(),
                garble: Vec::new(),
                label: "withhold-t".into(),
            };
            let net = NetConfig::new().with_threads(THREADS);
            const OPS: u64 = 20;
            let mut failure = None;
            let net_ns = median_ns(3, || {
                for op in 0..OPS {
                    match run_scenario_net(
                        self.payload(op),
                        &self.options(op),
                        &scenario,
                        &net,
                        &ChaosProfile::reliable(),
                    ) {
                        Ok((_, None)) => {}
                        Ok((_, Some(violation))) => failure = Some(violation),
                        Err(e) => failure = Some(e.to_string()),
                    }
                }
            }) / OPS as f64;
            if let Some(failure) = failure {
                return Err(format!("net probe: {failure}"));
            }
            let lockstep_ns = median_ns(3, || {
                for op in 0..OPS {
                    black_box(self.agree(op)).expect("lock-step agreement");
                }
            }) / OPS as f64;
            out.insert("net.runtime_ms_per_decision", ms(net_ns));
            out.insert("net.runtime_overhead_ratio", net_ns / lockstep_ns);
        }
        Ok(out)
    }
}
