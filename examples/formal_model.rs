//! The paper's Section-2 formal model, hands on: record a history on the
//! engine, starve a processor of it, audit that every correct processor
//! follows its rule `R_p` (its sends depend on its own subhistory alone),
//! and render the phase graphs as Graphviz.
//!
//! ```text
//! cargo run --example formal_model          # prints the analysis
//! cargo run --example formal_model | sed -n '/^digraph/,$p' > run.dot && dot -Tsvg run.dot
//! ```

use byzantine_agreement::algos::checkable::targets;
use byzantine_agreement::algos::{algorithm1, RunOptions};
use byzantine_agreement::crypto::{KeyRegistry, ProcessId, SchemeKind, Value};
use byzantine_agreement::model::frugal::QuietBroadcast;
use byzantine_agreement::model::{fault_free, locality, theorem2};
use byzantine_agreement::sim::{
    check_byzantine_agreement, Actor, FaultBehavior, Inbox, InstanceSpec, Outbox, ScheduleSpec,
    Simulation,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A processor that breaks Section 2: in phase 1 `p1` tells `p0` a
/// value and also writes it into memory every processor shares; in
/// phase 2 `p2` relays it to `p0`, though `p1` never sent it to `p2`.
#[derive(Debug)]
struct Leak {
    me: u32,
    shared: Arc<AtomicU64>,
}

impl Actor<Value> for Leak {
    fn step(&mut self, phase: usize, _inbox: Inbox<'_, Value>, out: &mut Outbox<Value>) {
        match (phase, self.me) {
            (1, 1) => {
                self.shared.store(7, Ordering::Relaxed);
                out.send(ProcessId(0), Value(7));
            }
            (2, 2) => out.send(ProcessId(0), Value(self.shared.load(Ordering::Relaxed))),
            _ => {}
        }
    }

    fn decision(&self) -> Option<Value> {
        Some(Value::ZERO)
    }
}

fn main() {
    let n = 5;
    let keys = || KeyRegistry::new(n, 1, SchemeKind::Fast);

    // --- 1. A fault-free history, recorded on the engine ---------------
    let spec = QuietBroadcast::build(n, Value::ONE, &keys());
    let run = Simulation::from(spec).with_trace().run(1);
    println!(
        "fault-free quiet broadcast: {} edges in phase 1",
        run.trace.phases[0].len()
    );
    let verdict = check_byzantine_agreement(&run, ProcessId(0), Value::ONE);
    println!("  agreement: {:?}", verdict.map(|v| v.agreed));

    // --- 2. The same algorithm, its victim starved (Theorem 2) ---------
    let registry = keys();
    let attack = theorem2::starve(|v| QuietBroadcast::build(n, v, &registry), 1);
    println!("\nstarved victim {}:", attack.victim);
    println!("  its senders in H    : {:?}", attack.senders);
    println!("  starved of all input: {}", attack.victim_starved);
    match &attack.violation {
        Some(violation) => println!("  agreement broken    : {violation}"),
        None => println!("  agreement held"),
    }

    // --- 3. Every correct processor follows R_p: the locality audit ----
    println!("\nlocality audit (sends and decision from the own subhistory alone):");
    let target = &targets()[0];
    let (tn, tt) = target.dims_from(4, 1);
    let build = fault_free(*target, tn, tt, 0);
    let verdict = locality::audit(|| build(Value::ONE));
    println!("  {} at n = {tn}, t = {tt}: {verdict:?}", target.name);
    let verdict = locality::audit(|| QuietBroadcast::build(n, Value::ONE, &keys()));
    println!("  quiet broadcast at n = {n}: {verdict:?}");
    let leak = || {
        let shared = Arc::new(AtomicU64::new(0));
        InstanceSpec {
            actors: (0..3)
                .map(|me| {
                    let shared = Arc::clone(&shared);
                    Box::new(Leak { me, shared }) as Box<dyn Actor<Value>>
                })
                .collect(),
            phases: 2,
            fault_budget: 0,
            link_drops: Vec::new(),
            registry: None,
        }
    };
    println!("  planted leak: {:?}", locality::audit(leak));

    // --- 4. A real algorithm's history as Graphviz ---------------------
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
