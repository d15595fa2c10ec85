//! The paper's Section-2 formal model, hands on: generate a history from
//! correctness rules, corrupt a processor's rule, check the decision
//! functions, and render the phase graphs as Graphviz.
//!
//! ```text
//! cargo run --example formal_model          # prints the analysis
//! cargo run --example formal_model | sed -n '/^digraph/,$p' > run.dot && dot -Tsvg run.dot
//! ```

use byzantine_agreement::algos::{algorithm1, RunOptions};
use byzantine_agreement::crypto::{ProcessId, Value};
use byzantine_agreement::model::rules::{formal_agreement_holds, generate, Behavior, FormalQuiet};
use byzantine_agreement::sim::{FaultBehavior, ScheduleSpec};

fn main() {
    // --- 1. A fault-free history from correctness rules alone ----------
    let run = generate(5, 1, &FormalQuiet, Value::ONE, Vec::new());
    println!(
        "fault-free quiet broadcast: {} edges in phase 1",
        run.history.phases[0].len()
    );
    println!(
        "  agreement holds: {}",
        formal_agreement_holds(&run, &[], Value::ONE)
    );

    // --- 2. The same history with a corrupted rule ---------------------
    let victim = ProcessId(4);
    let starve: Behavior<Value> = Box::new(move |ish, phase, q| {
        if q == victim {
            None // R_p says "send"; the faulty transmitter omits
        } else if phase == 1 {
            ish.phase0
        } else {
            None
        }
    });
    let attacked = generate(5, 1, &FormalQuiet, Value::ONE, vec![(ProcessId(0), starve)]);
    println!("\nstarved victim p4:");
    println!("  victim decision set : {:?}", attacked.decisions[4]);
    println!("  bystander p1 decides: {:?}", attacked.decisions[1]);
    println!(
        "  agreement holds     : {}",
        formal_agreement_holds(&attacked, &[ProcessId(0)], Value::ONE)
    );

    // --- 3. A real algorithm's history as Graphviz ---------------------
    let report = algorithm1::run(
        2,
        Value::ONE,
        RunOptions {
            schedule: ScheduleSpec::each(
                [ProcessId(0)],
                FaultBehavior::Equivocate {
                    ones: vec![ProcessId(1)],
                },
            ),
            trace: true,
            ..Default::default()
        },
    )
    .expect("agreement");
    println!(
        "\nAlgorithm 1 under an equivocating transmitter agreed on {:?};",
        report.verdict.agreed
    );
    println!("its full history as a dot graph follows:\n");
    println!("{}", report.outcome.trace.to_dot("algorithm1_equivocation"));
}
