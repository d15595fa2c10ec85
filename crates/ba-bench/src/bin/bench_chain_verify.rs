//! Microbenchmark for signature-chain verification strategies.
//!
//! Compares, for chains of length 8 / 32 / 128:
//!
//! * `reference` — the retained naive verifier (`Chain::verify_reference`),
//!   which re-derives every prefix digest from scratch: O(L²) hashing;
//! * `incremental` — the full check, rolling the prefix digest forward
//!   (`Chain::verify_uncached`): L hashes, L signature checks — what
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
//! Beside the hash sit the signatures: `signing` rows sign and verify one
//! 128-byte message under each scheme, `Hmac` and `Fast`.
//!
//! Writes the report (timings plus exact per-verify hash / signature-check
//! counts; DESIGN §7.6) to the one positional argument, default
//! `BENCH_chain_verify.json`, and prints the human-readable tables on
//! stderr. Any other argument is a usage error (exit 2).
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_chain_verify
//! ```

use ba_bench::cli::BenchArgs;
use ba_bench::microbench::bench;
use ba_bench::report::Report;
use ba_check::json::Json;
use ba_crypto::keys::{KeyRegistry, SchemeKind, Verifier};
use ba_crypto::sha256::{self, Sha256, DIGEST_LEN};
use ba_crypto::{Chain, CryptoError, CryptoStats, ProcessId, Value};
use std::collections::HashSet;
use std::process::ExitCode;

const LENGTHS: [usize; 3] = [8, 32, 128];
/// Message sizes of the `sha256` rows: one block, a small message, the
/// `ext_bulk` payload.
const SHA_SIZES: [usize; 3] = [64, 1024, 256 * 1024];

/// One row per size for every compressor this host can run.
fn sha_rows(report: &mut Report) {
    type Digest = fn(&[u8]) -> [u8; DIGEST_LEN];
    let mut backends: Vec<(&'static str, Digest)> = vec![("scalar", sha256::scalar_digest)];
    if sha256::backend() != "scalar" {
        backends.push((sha256::backend(), Sha256::digest));
    }
    for bytes in SHA_SIZES {
        let data: Vec<u8> = (0..bytes).map(|i| (i * 131 % 251) as u8).collect();
        for &(backend, digest) in &backends {
            let sample = bench(format!("sha256 {bytes:>6} B {backend}"), || digest(&data));
            let hex: String = digest(&data).iter().map(|b| format!("{b:02x}")).collect();
            let fields = vec![
                ("backend", backend.into()),
                ("bytes", bytes.into()),
                (
                    "mb_per_s",
                    Json::dec(bytes as f64 * 1e3 / sample.median_ns, 1),
                ),
                ("digest", hex.into()),
            ];
            report.row("sha256", fields, Some(&sample));
        }
    }
}

/// A `sign` and a `verify` row per scheme, over one 128-byte message.
fn signing_rows(report: &mut Report) {
    let msg = [7u8; 128];
    for scheme in [SchemeKind::Hmac, SchemeKind::Fast] {
        let registry = KeyRegistry::new(8, 1, scheme);
        let (signer, verifier) = (registry.signer(ProcessId(0)), registry.verifier());
        let sig = signer.sign(&msg);
        let sign = bench(format!("sign {scheme:?}"), || signer.sign(&msg));
        let verify = bench(format!("verify {scheme:?}"), || verifier.verify(&sig, &msg));
        for (op, sample) in [("sign", sign), ("verify", verify)] {
            let fields = vec![
                ("op", op.into()),
                ("scheme", format!("{scheme:?}").into()),
                ("bytes", msg.len().into()),
            ];
            report.row("signing", fields, Some(&sample));
        }
    }
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

fn main() -> ExitCode {
    let args = BenchArgs::from_env(
        "bench_chain_verify",
        "BENCH_chain_verify.json",
        &[],
        &[],
        &[],
    );
    let mut report = Report::new("chain_verify");
    report.field("scheme", "Fast");

    type Verify = fn(&Chain, &Verifier) -> Result<(), CryptoError>;
    let strategies: [(&str, Verify); 3] = [
        ("reference", Chain::verify_reference),
        ("incremental", Chain::verify_uncached),
        ("stamped", Chain::verify),
    ];
    for len in LENGTHS {
        // Fast scheme so counter deltas are pure chain-structure cost.
        let registry = KeyRegistry::new(len + 1, 42, SchemeKind::Fast);
        let chain = build_chain(&registry, len);
        let verifier = registry.verifier();
        assert!(chain.verify_reference(&verifier).is_ok());

        for (strategy, verify) in strategies {
            if strategy == "stamped" {
                // Stamp the chain at a barrier; the clone below is what a
                // broadcast's recipient verifies.
                Chain::verify_at_barrier([&chain], &verifier, &mut HashSet::new());
            }
            let subject = chain.clone();
            let (hashes, sig_checks) = work_of(|| verify(&subject, &verifier).unwrap());
            let sample = bench(format!("L={len:>3} {strategy}"), || {
                verify(&subject, &verifier).unwrap()
            });
            let fields = vec![
                ("length", len.into()),
                ("strategy", strategy.into()),
                ("hashes_per_verify", hashes.into()),
                ("sig_checks_per_verify", sig_checks.into()),
            ];
            report.row("rows", fields, Some(&sample));
        }
    }
    sha_rows(&mut report);
    signing_rows(&mut report);
    report.finish(&args.out)
}
