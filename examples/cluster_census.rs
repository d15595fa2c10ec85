//! Cluster census via interactive consistency: every node learns every
//! other node's locally-measured load, *identically*, despite Byzantine
//! members — the vector-valued coordination problem (Pease–Shostak–
//! Lamport) that single-source Byzantine Agreement underpins.
//!
//! ```text
//! cargo run --example cluster_census
//! ```

use byzantine_agreement::algos::{agree, ic, RunOptions};
use byzantine_agreement::crypto::{ProcessId, SchemeKind, Value};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

fn main() {
    let n = 7;
    let t = 2;
    // Each node's private measurement (requests/sec, say).
    let loads: Vec<Value> = vec![
        Value(120),
        Value(98),
        Value(143),
        Value(77),
        Value(101),
        Value(88),
        Value(134),
    ];

    // Node 1 lies differently to odd and even nodes about its own load.
    // The census must still come out identical at every correct node.
    let ones = (1..n as u32).step_by(2).map(ProcessId).collect();
    let schedule = ScheduleSpec::each([ProcessId(1)], FaultBehavior::Equivocate { ones });
    let options = RunOptions::new().with_schedule(schedule).with_seed(42);
    let report = ic::run(n, t, &loads, options.with_scheme(SchemeKind::Fast));
    let census = report.common_vector().expect("cluster reached a census");

    println!(
        "agreed cluster census ({} messages exchanged):",
        report.outcome.metrics.messages_total()
    );
    for (i, v) in census.iter().enumerate() {
        let note = if i == 1 {
            "  <- equivocator, slot collapsed deterministically"
        } else {
            ""
        };
        println!("  node {i}: load {}{note}", v.0);
    }
    let total: u64 = census.iter().map(|v| v.0).sum();
    println!("aggregate load (identical at every correct node): {total}");

    // And the one-call facade for scalar agreement, for comparison.
    let r = agree(n, t, Value::ONE, RunOptions::default()).expect("agreement");
    println!(
        "\nscalar agree() on the same cluster picked {:?} via {:?} in {} phases",
        r.verdict.agreed, r.selected, r.metrics.phases
    );
}
