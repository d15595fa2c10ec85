//! The lower-bound proofs as live attacks.
//!
//! Theorem 1 and Theorem 2 are proved by exhibiting adversaries that break
//! any algorithm exchanging too little information. Each proof takes an
//! algorithm's fault-free instances; this example mounts both against
//! deliberately frugal protocols — and shows the same attacks bouncing off
//! Algorithm 1.
//!
//! ```text
//! cargo run --example lower_bound_attacks
//! ```

use byzantine_agreement::algos::checkable::find_target;
use byzantine_agreement::crypto::{KeyRegistry, SchemeKind};
use byzantine_agreement::model::frugal::{FrugalBroadcast, QuietBroadcast};
use byzantine_agreement::model::{fault_free, theorem1, theorem2};

fn main() {
    // --- Theorem 1: the splicing attack ---------------------------------
    println!("Theorem 1 — signature splicing attack");
    println!("target: 2-relay signed broadcast, n = 9, t = 3\n");
    let registry = KeyRegistry::new(9, 42, SchemeKind::Hmac);
    let a = theorem1::attack(|v| FrugalBroadcast::build(9, 2, v, &registry), 3);
    println!("  victim          : {}", a.victim);
    println!("  corrupted A(p)  : {:?}", a.a_set);
    println!("  |A(p)| <= t     : {}", a.feasible);
    println!("  victim sees pH  : {}", a.victim_view_preserved);
    match &a.violation {
        Some(v) => println!("  result          : AGREEMENT BROKEN — {v}"),
        None => println!("  result          : attack failed"),
    }

    println!("\nsame attack vs Algorithm 1 (every A(p) is too big to corrupt):");
    let alg1 = *find_target("algorithm1").expect("algorithm1 is registered");
    for t in 1..=4 {
        let min_a = theorem1::attack(fault_free(alg1, 2 * t + 1, t, 7), t)
            .a_set
            .len();
        println!("  t = {t}: min |A(p)| = {min_a} > t — infeasible");
    }

    // --- Theorem 2: starvation + extraction -----------------------------
    println!("\nTheorem 2 — message starvation attack");
    println!("target: one-shot broadcast, n = 8, t = 2\n");
    let registry = KeyRegistry::new(8, 7, SchemeKind::Hmac);
    let b = theorem2::starve(|v| QuietBroadcast::build(8, v, &registry), 2);
    println!("  victim's senders: {:?}", b.senders);
    println!("  victim starved  : {}", b.victim_starved);
    match &b.violation {
        Some(v) => println!("  result          : AGREEMENT BROKEN — {v}"),
        None => println!("  result          : attack failed"),
    }

    println!("\nthe B-set extraction against Algorithm 1 (faulty ignorers");
    println!("force correct processors to keep sending — the (1+t/2)² term):");
    for t in [2usize, 4, 6] {
        let r = theorem2::extract(fault_free(alg1, 2 * t + 1, t, 3), t);
        let min = r
            .b_set
            .iter()
            .map(|p| r.received_from_correct.get(p).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        println!(
            "  t = {t}: |B| = {}, demanded {} msgs each, observed min {min}, agreement held: {}",
            r.b_set.len(),
            r.demand,
            r.agreement_held
        );
    }
}
