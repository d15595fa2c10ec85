//! Benches for the substrates — the from-scratch crypto and the
//! synchronous engine itself — timed with the in-tree
//! `ba_bench::microbench` harness.
//!
//! ```text
//! cargo bench -p ba-bench --bench substrates
//! ```

use ba_bench::microbench::{bench, print_samples, Sample};
use ba_crypto::keys::{KeyRegistry, SchemeKind};
use ba_crypto::sha256::{self, Sha256};
use ba_crypto::{Chain, ProcessId, Value};
use ba_sim::actor::{Actor, Inbox, Outbox};
use ba_sim::engine::Simulation;
use std::hint::black_box;

fn bench_sha256() -> Vec<Sample> {
    [64usize, 1024, 16 * 1024]
        .iter()
        .map(|&size| {
            let data = vec![0xABu8; size];
            bench(format!("{size} bytes"), move || Sha256::digest(&data))
        })
        .collect()
}

fn bench_signing() -> Vec<Sample> {
    let mut samples = Vec::new();
    for kind in [SchemeKind::Hmac, SchemeKind::Fast] {
        let registry = KeyRegistry::new(8, 1, kind);
        let signer = registry.signer(ProcessId(0));
        let verifier = registry.verifier();
        let msg = vec![7u8; 128];
        samples.push(bench(format!("sign {kind:?}"), {
            let signer = signer.clone();
            let msg = msg.clone();
            move || signer.sign(&msg)
        }));
        let sig = signer.sign(&msg);
        samples.push(bench(format!("verify {kind:?}"), move || {
            verifier.verify(&sig, &msg)
        }));
    }
    samples
}

fn bench_chains() -> Vec<Sample> {
    let mut samples = Vec::new();
    for len in [2usize, 8, 32] {
        let registry = KeyRegistry::new(64, 1, SchemeKind::Hmac);
        let mut chain = Chain::new(1, Value::ONE);
        for i in 0..len {
            chain.sign_and_append(&registry.signer(ProcessId(i as u32)));
        }
        let verifier = registry.verifier();
        samples.push(bench(format!("verify len={len}"), move || {
            chain.verify(&verifier).is_ok()
        }));
    }
    samples
}

/// A flood actor for measuring raw engine dispatch overhead.
#[derive(Debug)]
struct Flood {
    n: usize,
}

impl Actor<Value> for Flood {
    fn step(&mut self, _phase: usize, inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
        black_box(inbox.len());
        out.broadcast_all(self.n, Value::ONE);
    }
    fn decision(&self) -> Option<Value> {
        Some(Value::ONE)
    }
}

fn bench_engine() -> Vec<Sample> {
    [16usize, 64]
        .iter()
        .map(|&n| {
            bench(format!("flood n={n} (5 phases)"), move || {
                let actors: Vec<Box<dyn Actor<Value>>> = (0..n)
                    .map(|_| Box::new(Flood { n }) as Box<dyn Actor<Value>>)
                    .collect();
                let mut sim = Simulation::new(actors);
                sim.run(5).metrics.messages_by_correct
            })
        })
        .collect()
}

fn main() {
    print_samples(&format!("sha256 ({})", sha256::backend()), &bench_sha256());
    print_samples("signing", &bench_signing());
    print_samples("chains", &bench_chains());
    print_samples("engine flood", &bench_engine());
}
