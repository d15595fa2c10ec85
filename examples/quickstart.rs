//! Quickstart: reach Byzantine Agreement two ways and read the meters.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use byzantine_agreement::algos::{algorithm1, algorithm5, bounds, RunOptions};
use byzantine_agreement::crypto::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The minimal setting: n = 2t + 1, Algorithm 1 (Theorem 3) -------
    let t = 4;
    let report = algorithm1::run(t, Value::ONE, RunOptions::default())?;
    println!("Algorithm 1 (n = {}, t = {t}):", 2 * t + 1);
    println!("  agreed value : {:?}", report.verdict.agreed);
    println!(
        "  phases       : {} (bound {})",
        report.outcome.metrics.phases,
        bounds::alg1_phases(t as u64)
    );
    println!(
        "  messages     : {} (bound 2t²+2t = {})",
        report.outcome.metrics.messages_by_correct,
        bounds::alg1_max_messages(t as u64)
    );
    println!(
        "  signatures   : {}",
        report.outcome.metrics.signatures_by_correct
    );

    // --- The headline: Algorithm 5 with s = t gives O(n + t²) ----------
    let (n, t, s) = (120, 3, 3);
    let report = algorithm5::run(n, t, s, Value::ONE, RunOptions::default())?;
    println!("\nAlgorithm 5 (n = {n}, t = {t}, s = {s}):");
    println!("  agreed value : {:?}", report.verdict.agreed);
    println!("  phases       : {}", report.outcome.metrics.phases);
    println!(
        "  messages     : {} (O(n + t²) reference point: n + t² = {})",
        report.outcome.metrics.messages_by_correct,
        n + t * t
    );
    Ok(())
}
