//! Distributed commit: a replicated database decides whether to commit a
//! transaction even though the coordinator equivocates.
//!
//! The coordinator (transmitter) tells half the replicas "commit" (1) and
//! the other half "abort" (0). Algorithm 2 drives all correct replicas to
//! the *same* outcome and leaves each holding a transferable proof — the
//! artifact a recovering replica or an auditor can check offline.
//!
//! ```text
//! cargo run --example distributed_commit
//! ```

use byzantine_agreement::algos::algorithm2::{self, is_transferable_proof};
use byzantine_agreement::algos::{algorithm1, RunOptions};
use byzantine_agreement::crypto::{ProcessId, Value};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

const COMMIT: Value = Value::ONE;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t = 4; // up to 4 Byzantine replicas
    let n = 2 * t + 1;

    // First, watch plain Algorithm 1 handle the equivocation: the split
    // brain is healed, every correct replica lands on the same outcome.
    let ones: Vec<ProcessId> = (1..=t as u32).map(ProcessId).collect();
    let split = algorithm1::run(
        t,
        COMMIT,
        RunOptions {
            schedule: ScheduleSpec::each([ProcessId(0)], FaultBehavior::Equivocate { ones }),
            ..Default::default()
        },
    )?;
    println!("9-replica cluster, coordinator equivocates commit/abort:");
    println!(
        "  all correct replicas decided: {:?} (coordinator faulty: {})",
        split.verdict.agreed, !split.verdict.transmitter_correct
    );

    // Now the full commit protocol: Algorithm 2 adds the audit trail.
    let r = algorithm2::run(
        t,
        COMMIT,
        RunOptions {
            // They run Algorithm 1, then crash as accumulation starts.
            schedule: ScheduleSpec::each(
                [ProcessId(3), ProcessId(6)],
                FaultBehavior::CrashAt { phase: t + 4 },
            ),
            ..Default::default()
        },
    )?;
    let outcome = r.report.verdict.agreed.expect("cluster decided");
    println!("\nWith 2 replicas crashing mid-protocol:");
    println!(
        "  outcome: {}",
        if outcome == COMMIT { "COMMIT" } else { "ABORT" }
    );

    // Every surviving replica can hand its proof to an auditor.
    let mut audited = 0;
    for (i, proof) in r.proofs.iter().enumerate() {
        if let Some(proof) = proof {
            let ok = is_transferable_proof(proof, outcome, ProcessId(i as u32), t, &r.verifier);
            assert!(ok, "replica {i} holds an invalid proof");
            audited += 1;
        }
    }
    println!("  replicas holding an auditor-checkable proof: {audited}/{n}");
    println!(
        "  messages spent: {} (bound 5t²+5t = {})",
        r.report.outcome.metrics.messages_by_correct,
        5 * t * t + 5 * t
    );
    Ok(())
}
