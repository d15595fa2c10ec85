//! Fleet-scale alarm propagation: a large sensor fleet agrees on an alarm
//! flag raised by one gateway, with message budgets that stay near-linear
//! in the fleet size.
//!
//! This is the paper's `n ≫ t` regime: Algorithm 3 (simple, `O(n + t³)`
//! messages) versus Algorithm 5 (`O(n + t²)`), both surviving corrupt
//! group/tree roots that try to suppress or rewrite the alarm.
//!
//! ```text
//! cargo run --example sensor_consensus
//! ```

use byzantine_agreement::algos::{algorithm3, algorithm5, bounds, dolev_strong, RunOptions};
use byzantine_agreement::crypto::Value;
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

const ALARM: Value = Value::ONE;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 400; // sensors
    let t = 3; // tolerated Byzantine sensors

    // Algorithm 3 with the Theorem 5 group size, two group roots lying.
    let s3 = 4 * t;
    let r3 = algorithm3::run(
        n,
        t,
        s3,
        ALARM,
        RunOptions {
            schedule: ScheduleSpec::each(
                [0, 5].map(|g| algorithm3::group_root(t, s3, g)),
                FaultBehavior::Lie { value: Value::ZERO },
            ),
            ..Default::default()
        },
    )?;
    println!("Algorithm 3 (groups of {s3}, 2 lying group roots):");
    println!("  fleet agreed on : {:?} (ALARM)", r3.verdict.agreed);
    println!(
        "  messages        : {} (Lemma 1 bound {})",
        r3.outcome.metrics.messages_by_correct,
        bounds::alg3_max_messages(n as u64, t as u64, s3 as u64)
    );
    println!("  phases          : {}", r3.outcome.metrics.phases);

    // Algorithm 5 with s = t (Theorem 7), one silent tree root.
    let s5 = t; // t = 3 = 2² - 1, a valid tree size
    let r5 = algorithm5::run(
        n,
        t,
        s5,
        ALARM,
        RunOptions {
            schedule: ScheduleSpec::each(algorithm5::tree_root(n, t, s5, 0), FaultBehavior::Silent),
            ..Default::default()
        },
    )?;
    println!("\nAlgorithm 5 (trees of {s5}, 1 silent tree root):");
    println!("  fleet agreed on : {:?} (ALARM)", r5.verdict.agreed);
    println!(
        "  messages        : {} (n + t² = {})",
        r5.outcome.metrics.messages_by_correct,
        n + t * t
    );
    println!("  phases          : {}", r5.outcome.metrics.phases);

    // The pre-Dolev-Reischuk baseline for reference.
    let ds = dolev_strong::run(n, t, ALARM, dolev_strong::DsOptions::default())?;
    println!(
        "\nDolev-Strong broadcast baseline: {} messages — {}x Algorithm 5",
        ds.outcome.metrics.messages_by_correct,
        ds.outcome.metrics.messages_by_correct / r5.outcome.metrics.messages_by_correct.max(1)
    );
    Ok(())
}
