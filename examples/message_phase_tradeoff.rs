//! The intro's trade-off, live: spend more phases, send fewer messages.
//!
//! For `n ≥ t³`, Algorithm 3 with group size `s = ⌈t/a⌉` runs in about
//! `t + 3 + 2⌈t/a⌉` phases while sending `O(a·n)` messages — `a` is the
//! knob. This example sweeps it and prints the frontier.
//!
//! ```text
//! cargo run --example message_phase_tradeoff
//! ```

use byzantine_agreement::algos::{algorithm3, bounds, RunOptions};
use byzantine_agreement::crypto::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (600, 8); // n >= t³ = 512
    println!("Algorithm 3 trade-off at n = {n}, t = {t}:\n");
    println!(
        "{:>4} {:>6} {:>8} {:>10} {:>12}",
        "a", "s", "phases", "messages", "msgs/n"
    );
    for a in [1u64, 2, 4, 8] {
        let s = bounds::tradeoff_group_size(t as u64, a) as usize;
        let r = algorithm3::run(n, t, s, Value::ONE, RunOptions::default())?;
        assert_eq!(r.verdict.agreed, Some(Value::ONE));
        let msgs = r.outcome.metrics.messages_by_correct;
        println!(
            "{:>4} {:>6} {:>8} {:>10} {:>12.2}",
            a,
            s,
            r.outcome.metrics.phases,
            msgs,
            msgs as f64 / n as f64
        );
    }
    println!("\nFewer phases (small a, big groups) cost more messages and");
    println!("vice versa — the knob the paper exposes for deployments that");
    println!("price rounds and bandwidth differently.");
    Ok(())
}
