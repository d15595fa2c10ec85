//! Microbenchmark for signature-chain verification strategies.
//!
//! Compares, for chains of length 8 / 32 / 128:
//!
//! * `reference` — the retained naive verifier (`Chain::verify_reference`),
//!   which re-derives every prefix digest from scratch: O(L²) hashing;
//! * `incremental` — the full check, rolling the prefix digest forward
//!   (`Chain::verify_uncached`): L + 1 hashes, L signature checks — what
//!   the phase barrier pays once per unique delivered chain;
//! * `stamped` — `Chain::verify` of a clone of a chain the barrier stamped
//!   (`Chain::verify_at_barrier`), as every recipient of a broadcast sees
//!   it: no hash, no signature check.
//!
//! Below the chains sits the hash itself, so the report also carries
//! `sha256` rows: one digest of 64 B, 1 KiB and 256 KiB per compression
//! backend this host can run (`scalar` always, `sha-ni` when
//! `ba_crypto::sha256::backend()` reports it), in MB/s, each with its
//! digest so the backends can be checked against each other — and a `host`
//! object naming the backend every other number in the file ran on.
//!
//! Emits a JSON report (timings plus exact per-verify hash / signature-check
//! counts) to the path given as the first argument, default
//! `BENCH_chain_verify.json`, and prints the human-readable table on
//! stderr.
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_chain_verify
//! ```

use ba_bench::microbench::{bench, host_json, print_samples, Sample};
use ba_crypto::keys::{KeyRegistry, SchemeKind};
use ba_crypto::sha256::{self, Sha256, DIGEST_LEN};
use ba_crypto::{Chain, CryptoStats, ProcessId, Value};
use std::collections::HashSet;
use std::fmt::Write as _;

const LENGTHS: [usize; 3] = [8, 32, 128];
/// Message sizes of the `sha256` rows: one block, a small message, the
/// `ext_bulk` payload.
const SHA_SIZES: [usize; 3] = [64, 1024, 256 * 1024];

struct ShaRow {
    backend: &'static str,
    bytes: usize,
    sample: Sample,
    digest: [u8; DIGEST_LEN],
}

/// One row per size for every compressor this host can run.
fn sha_rows() -> Vec<ShaRow> {
    type Digest = fn(&[u8]) -> [u8; DIGEST_LEN];
    let mut backends: Vec<(&'static str, Digest)> = vec![("scalar", sha256::scalar_digest)];
    if sha256::backend() != "scalar" {
        backends.push((sha256::backend(), Sha256::digest));
    }
    let mut rows = Vec::new();
    for bytes in SHA_SIZES {
        let data: Vec<u8> = (0..bytes).map(|i| (i * 131 % 251) as u8).collect();
        for &(backend, digest) in &backends {
            rows.push(ShaRow {
                backend,
                bytes,
                sample: bench(format!("sha256 {bytes:>6} B {backend}"), || digest(&data)),
                digest: digest(&data),
            });
        }
    }
    rows
}

struct Row {
    length: usize,
    strategy: &'static str,
    sample: Sample,
    hashes_per_verify: u64,
    sig_checks_per_verify: u64,
}

fn build_chain(registry: &KeyRegistry, len: usize) -> Chain {
    let mut chain = Chain::new(7, Value::ONE);
    for i in 0..len {
        chain.sign_and_append(&registry.signer(ProcessId(i as u32)));
    }
    chain
}

/// Exact crypto work of one invocation of `f`, via the thread-local
/// counters (measured outside the timing loop so instrumentation and
/// timing never mix).
fn work_of(f: impl Fn()) -> (u64, u64) {
    let before = CryptoStats::snapshot();
    f();
    let d = CryptoStats::snapshot().since(&before);
    (d.hash_invocations, d.sig_verifications)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_chain_verify.json".to_string());

    let mut rows: Vec<Row> = Vec::new();
    for len in LENGTHS {
        // Fast scheme so counter deltas are pure chain-structure cost.
        let registry = KeyRegistry::new(len + 1, 42, SchemeKind::Fast);
        let chain = build_chain(&registry, len);
        let verifier = registry.verifier();
        assert!(chain.verify_reference(&verifier).is_ok());

        let (h, s) = work_of(|| {
            chain.verify_reference(&verifier).unwrap();
        });
        rows.push(Row {
            length: len,
            strategy: "reference",
            sample: bench(format!("L={len:>3} reference"), || {
                chain.verify_reference(&verifier).unwrap()
            }),
            hashes_per_verify: h,
            sig_checks_per_verify: s,
        });

        let (h, s) = work_of(|| {
            chain.verify_uncached(&verifier).unwrap();
        });
        rows.push(Row {
            length: len,
            strategy: "incremental",
            sample: bench(format!("L={len:>3} incremental"), || {
                chain.verify_uncached(&verifier).unwrap()
            }),
            hashes_per_verify: h,
            sig_checks_per_verify: s,
        });

        // Stamp the chain at a barrier, then measure a recipient's clone.
        Chain::verify_at_barrier([&chain], &verifier, &mut HashSet::new());
        let received = chain.clone();
        let (h, s) = work_of(|| {
            received.verify(&verifier).unwrap();
        });
        rows.push(Row {
            length: len,
            strategy: "stamped",
            sample: bench(format!("L={len:>3} stamped"), || {
                received.verify(&verifier).unwrap()
            }),
            hashes_per_verify: h,
            sig_checks_per_verify: s,
        });
    }

    let samples: Vec<Sample> = rows.iter().map(|r| r.sample.clone()).collect();
    print_samples("chain verification", &samples);
    let sha = sha_rows();
    let samples: Vec<Sample> = sha.iter().map(|r| r.sample.clone()).collect();
    print_samples("sha256", &samples);

    let mut json = String::from("{\n  \"bench\": \"chain_verify\",\n  \"scheme\": \"Fast\",\n");
    let _ = writeln!(json, "  \"host\": {},", host_json());
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"length\": {}, \"strategy\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"hashes_per_verify\": {}, \"sig_checks_per_verify\": {}}}{}",
            r.length,
            r.strategy,
            r.sample.median_ns,
            r.sample.mean_ns,
            r.sample.min_ns,
            r.hashes_per_verify,
            r.sig_checks_per_verify,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"sha256\": [\n");
    for (i, r) in sha.iter().enumerate() {
        let hex: String = r.digest.iter().map(|b| format!("{b:02x}")).collect();
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"bytes\": {}, \"median_ns\": {:.1}, \"mb_per_s\": {:.1}, \"digest\": \"{}\"}}{}",
            r.backend,
            r.bytes,
            r.sample.median_ns,
            r.bytes as f64 * 1e3 / r.sample.median_ns,
            hex,
            if i + 1 == sha.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
