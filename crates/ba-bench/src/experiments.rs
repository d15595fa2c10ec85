//! The per-claim experiment generators (see the crate docs for the index).

use crate::cells;
use crate::table::Table;
use ba_algos::checkable::find_target;
use ba_algos::{
    algorithm1, algorithm2, algorithm3, algorithm4, algorithm5, bounds, dolev_strong, om,
    RunOptions,
};
use ba_crypto::{KeyRegistry, ProcessId, SchemeKind, Value};
use ba_model::frugal::{FrugalBroadcast, QuietBroadcast};
use ba_model::{fault_free, theorem1, theorem2};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};

/// Runs one experiment by id (`"e1"`..`"e16"`).
///
/// # Panics
/// Panics on an unknown id.
pub fn run_experiment(id: &str) -> Vec<Table> {
    match id {
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(),
        "e9" => e9(),
        "e10" => e10(),
        "e11" => e11(),
        "e12" => e12(),
        "e13" => e13(),
        "e14" => e14(),
        "e15" => e15(),
        "e16" => e16(),
        other => panic!("unknown experiment {other} (use e1..e16)"),
    }
}

/// All experiment ids in order.
pub const ALL_IDS: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16",
];

/// Runs a batch of experiments, fanning the independent ids across up to
/// `threads` worker threads (see [`ba_sim::sweep`]).
///
/// Each experiment builds its own key registries and simulations and
/// shares no mutable state with the others, so the output is byte-for-byte
/// identical for any thread count — results come back in input order.
///
/// # Panics
/// Panics on an unknown id (like [`run_experiment`]).
pub fn run_experiments(ids: &[&str], threads: usize) -> Vec<(String, Vec<Table>)> {
    ba_sim::sweep::run_sweep(ids, threads, |_, id| (id.to_string(), run_experiment(id)))
}

/// The options every table runs with: `Fast` keys, seed 0, sequential
/// stepping, no fault until a `with_*` builder says otherwise.
fn fast<M: Default>() -> RunOptions<M> {
    RunOptions::new().with_scheme(SchemeKind::Fast)
}

fn check(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// E1 — Theorem 1: `Ω(nt)` signatures in the authenticated case.
pub fn e1() -> Vec<Table> {
    let mut attack = Table::new(
        "E1a — Theorem 1 splicing attack on the k-relay frugal broadcast (k+1 <= t makes it attackable; the last row is the k+1 > t counterexample where the attack must fail)",
        &["n", "t", "relays k", "|A(p)|", "feasible (|A(p)|<=t)", "p's view = pH", "agreement broken", "outcome as expected"],
    );
    for (n, t, k) in [(9, 3, 2), (11, 4, 3), (16, 14, 2), (9, 2, 3)] {
        let registry = KeyRegistry::new(n, 42, SchemeKind::Hmac);
        let a = theorem1::attack(|v| FrugalBroadcast::build(n, k, v, &registry), t);
        let expect_attackable = k < t;
        let as_expected = a.feasible == expect_attackable
            && a.violation.is_some() == expect_attackable
            && a.victim_view_preserved == expect_attackable;
        attack.row(cells![
            n,
            t,
            k,
            a.a_set.len(),
            if a.feasible { "yes" } else { "no" },
            if a.victim_view_preserved { "yes" } else { "no" },
            if a.violation.is_some() { "yes" } else { "no" },
            check(as_expected)
        ]);
    }

    let mut counts = Table::new(
        "E1b — signatures sent by correct processors (fault-free, value 1) vs the n(t+1)/4 bound",
        &[
            "t",
            "n",
            "bound n(t+1)/4",
            "Algorithm 1",
            "Algorithm 2",
            "Dolev-Strong",
            "min |A(p)| in Alg 1 (must be > t)",
        ],
    );
    let alg1 = *find_target("algorithm1").expect("algorithm1 is registered");
    for t in 1..=6usize {
        let n = 2 * t + 1;
        let bound = bounds::thm1_signature_lower_bound(n as u64, t as u64);
        let a1 = algorithm1::run(t, Value::ONE, fast()).unwrap();
        let a2 = algorithm2::run(t, Value::ONE, fast()).unwrap();
        let ds = dolev_strong::run(n, t, Value::ONE, fast()).unwrap();
        let min_a = theorem1::attack(fault_free(alg1, n, t, 1), t).a_set.len();
        counts.row(cells![
            t,
            n,
            bound,
            a1.outcome.metrics.signatures_by_correct,
            a2.report.outcome.metrics.signatures_by_correct,
            ds.outcome.metrics.signatures_by_correct,
            min_a
        ]);
    }
    vec![attack, counts]
}

/// E2 — Corollary 1: `Ω(nt)` messages without authentication (OM(t)).
pub fn e2() -> Vec<Table> {
    let mut t_out = Table::new(
        "E2 — unauthenticated OM(t) message counts vs the n(t+1)/4 bound",
        &[
            "n",
            "t",
            "bound n(t+1)/4",
            "measured",
            "closed form",
            "measured >= bound",
        ],
    );
    for (n, t) in [(4, 1), (7, 1), (7, 2), (10, 2), (10, 3), (13, 3)] {
        let r = om::run(n, t, Value::ONE, RunOptions::new()).unwrap();
        let measured = r.outcome.metrics.messages_by_correct;
        let formula = bounds::om_messages(n as u64, t as u64);
        let bound = bounds::cor1_message_lower_bound(n as u64, t as u64);
        t_out.row(cells![
            n,
            t,
            bound,
            measured,
            formula,
            check(measured >= bound)
        ]);
    }
    vec![t_out]
}

/// E3 — Theorem 2: `Ω(n + t²)` messages.
pub fn e3() -> Vec<Table> {
    let mut attack = Table::new(
        "E3a — Theorem 2 starvation attack on the one-shot quiet broadcast",
        &[
            "n",
            "t",
            "victim's senders",
            "feasible",
            "victim starved",
            "agreement broken",
        ],
    );
    for (n, t) in [(6, 1), (8, 2), (12, 4)] {
        let registry = KeyRegistry::new(n, 7, SchemeKind::Hmac);
        let a = theorem2::starve(|v| QuietBroadcast::build(n, v, &registry), t);
        attack.row(cells![
            n,
            t,
            a.senders.len(),
            check(a.feasible),
            check(a.victim_starved),
            check(a.violation.is_some())
        ]);
    }

    let mut extraction = Table::new(
        "E3b — B-set extraction against Algorithm 1: each of the ⌊1+t/2⌋ ignorers is owed ⌈1+t/2⌉ messages",
        &["t", "|B|", "demand ⌈1+t/2⌉", "min received from correct", "agreement held"],
    );
    let alg1 = *find_target("algorithm1").expect("algorithm1 is registered");
    for t in 1..=8usize {
        let r = theorem2::extract(fault_free(alg1, 2 * t + 1, t, 3), t);
        let min_recv = r
            .b_set
            .iter()
            .map(|b| r.received_from_correct.get(b).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        extraction.row(cells![
            t,
            r.b_set.len(),
            r.demand,
            min_recv,
            check(r.agreement_held)
        ]);
    }

    let mut conformance = Table::new(
        "E3c — every algorithm's worst-case traffic clears the Theorem 2 bound",
        &[
            "algorithm",
            "n",
            "t",
            "bound max{⌈(n-1)/2⌉,(1+t/2)²}",
            "measured",
            "measured >= bound",
        ],
    );
    for t in [2usize, 4] {
        let n = 2 * t + 1;
        let bound = bounds::thm2_message_lower_bound(n as u64, t as u64);
        let a1 = algorithm1::run(t, Value::ONE, fast()).unwrap();
        let m = a1.outcome.metrics.messages_by_correct;
        conformance.row(cells!["Algorithm 1", n, t, bound, m, check(m >= bound)]);
        let a2 = algorithm2::run(t, Value::ONE, fast()).unwrap();
        let m = a2.report.outcome.metrics.messages_by_correct;
        conformance.row(cells!["Algorithm 2", n, t, bound, m, check(m >= bound)]);
    }
    for (n, t, s) in [(40usize, 2usize, 8usize), (60, 3, 12)] {
        let bound = bounds::thm2_message_lower_bound(n as u64, t as u64);
        let a3 = algorithm3::run(n, t, s, Value::ONE, fast()).unwrap();
        let m = a3.outcome.metrics.messages_by_correct;
        conformance.row(cells!["Algorithm 3", n, t, bound, m, check(m >= bound)]);
    }
    for (n, t, s) in [(60usize, 1usize, 3usize), (80, 3, 7)] {
        let bound = bounds::thm2_message_lower_bound(n as u64, t as u64);
        let a5 = algorithm5::run(n, t, s, Value::ONE, fast()).unwrap();
        let m = a5.outcome.metrics.messages_by_correct;
        conformance.row(cells!["Algorithm 5", n, t, bound, m, check(m >= bound)]);
    }
    vec![attack, extraction, conformance]
}

/// The roots of Algorithm 3's `groups` push the wrong value `0`.
fn lying_roots(t: usize, s: usize, groups: std::ops::Range<usize>) -> ScheduleSpec {
    let roots = groups.map(|g| algorithm3::group_root(t, s, g));
    ScheduleSpec::each(roots, FaultBehavior::Lie { value: Value::ZERO })
}

/// E4 — Theorem 3: Algorithm 1 phase and message bounds.
pub fn e4() -> Vec<Table> {
    let mut t_out = Table::new(
        "E4 — Algorithm 1 (n = 2t+1): phases <= t+2, messages <= 2t²+2t",
        &[
            "t",
            "n",
            "phase bound",
            "phases",
            "msg bound 2t²+2t",
            "fault-free v=1",
            "equivocating q",
            "withholding coalition",
            "within bound",
        ],
    );
    for t in 1..=12usize {
        let n = 2 * t + 1;
        let clean = algorithm1::run(t, Value::ONE, fast()).unwrap();
        let ones: Vec<ProcessId> = (1..=t.max(1) as u32).map(ProcessId).collect();
        let equiv = algorithm1::run(
            t,
            Value::ONE,
            fast().with_schedule(ScheduleSpec::each(
                [ProcessId(0)],
                FaultBehavior::Equivocate { ones },
            )),
        )
        .unwrap();
        let withhold = if t >= 2 {
            algorithm1::run(
                t,
                Value::ONE,
                fast().with_schedule(algorithm1::withholding(t, t - 1, t)),
            )
            .unwrap()
            .outcome
            .metrics
            .messages_by_correct
        } else {
            0
        };
        let bound = bounds::alg1_max_messages(t as u64);
        let clean_m = clean.outcome.metrics.messages_by_correct;
        let equiv_m = equiv.outcome.metrics.messages_by_correct;
        t_out.row(cells![
            t,
            n,
            bounds::alg1_phases(t as u64),
            clean.outcome.metrics.phases,
            bound,
            clean_m,
            equiv_m,
            withhold,
            check(clean_m <= bound && equiv_m <= bound && withhold <= bound)
        ]);
    }
    vec![t_out]
}

/// E5 — Theorem 4: Algorithm 2 bounds and transferable proofs.
pub fn e5() -> Vec<Table> {
    let mut t_out = Table::new(
        "E5 — Algorithm 2: phases = 3t+3, messages <= 5t²+5t, every correct processor holds a >=t-signature proof",
        &["t", "n", "phases", "phase bound", "messages", "msg bound", "correct with proof", "all proofs valid"],
    );
    for t in 1..=10usize {
        let n = 2 * t + 1;
        let r = algorithm2::run(t, Value::ONE, fast()).unwrap();
        let common = r.report.verdict.agreed.unwrap();
        let mut holders = 0usize;
        let mut all_valid = true;
        for (i, correct) in r.report.outcome.correct.iter().enumerate() {
            if !correct {
                continue;
            }
            match &r.proofs[i] {
                Some(p) => {
                    holders += 1;
                    all_valid &= algorithm2::is_transferable_proof(
                        p,
                        common,
                        ProcessId(i as u32),
                        t,
                        &r.verifier,
                    );
                }
                None => all_valid = false,
            }
        }
        t_out.row(cells![
            t,
            n,
            r.report.outcome.metrics.phases,
            bounds::alg2_phases(t as u64),
            r.report.outcome.metrics.messages_by_correct,
            bounds::alg2_max_messages(t as u64),
            holders,
            check(all_valid && holders == n)
        ]);
    }
    vec![t_out]
}

/// E6 — Lemma 1 / Theorem 5: Algorithm 3 sweep.
pub fn e6() -> Vec<Table> {
    let mut t_out = Table::new(
        "E6 — Algorithm 3: phases = t+2s+3, messages <= 2n + 4tn/s + 3t²s (s = 4t rows give Theorem 5's O(n+t³))",
        &["n", "t", "s", "phases", "phase bound", "messages", "lemma 1 bound", "faulty-root messages", "within bound"],
    );
    let cases = [
        (20usize, 1usize, 2usize),
        (20, 1, 4),
        (50, 2, 4),
        (50, 2, 8),
        (120, 3, 6),
        (120, 3, 12),
        (300, 4, 16),
        (600, 4, 16),
        (1000, 5, 20),
    ];
    for (n, t, s) in cases {
        let clean = algorithm3::run(n, t, s, Value::ONE, fast()).unwrap();
        let faulty = algorithm3::run(
            n,
            t,
            s,
            Value::ONE,
            fast().with_schedule(lying_roots(t, s, 0..t.min(3))),
        )
        .unwrap();
        let bound = bounds::alg3_max_messages(n as u64, t as u64, s as u64);
        let clean_m = clean.outcome.metrics.messages_by_correct;
        let faulty_m = faulty.outcome.metrics.messages_by_correct;
        t_out.row(cells![
            n,
            t,
            s,
            clean.outcome.metrics.phases,
            bounds::alg3_phases(t as u64, s as u64),
            clean_m,
            bound,
            faulty_m,
            check(clean_m <= bound && faulty_m <= bound)
        ]);
    }
    vec![t_out]
}

/// E7 — Theorem 6: Algorithm 4 grid exchange.
pub fn e7() -> Vec<Table> {
    let mut t_out = Table::new(
        "E7 — Algorithm 4 (N = m² grid): 3 phases, <= 3(m-1)m² messages, >= N-2t processors exchange",
        &["m", "N", "t (faults)", "messages", "bound 3(m-1)m²", "|P| (exchanged)", "guarantee N-2t", "lemma 2 holds"],
    );
    for m in 2..=8usize {
        let n_grid = m * m;
        let t = m - 1;
        // Scatter t silent faults across distinct rows.
        let faulty = (0..t).map(|i| ProcessId((i * m + i) as u32));
        let silent = ScheduleSpec::each(faulty, FaultBehavior::Silent);
        let r = algorithm4::run(m, t, fast().with_schedule(silent).with_seed(5));
        let p_len = r.lemma2_set().len();
        t_out.row(cells![
            m,
            n_grid,
            t,
            r.outcome.metrics.messages_by_correct,
            bounds::alg4_max_messages(m as u64),
            p_len,
            bounds::alg4_min_successful(n_grid as u64, t as u64),
            check(
                r.mutual_exchange_holds()
                    && p_len as u64 >= bounds::alg4_min_successful(n_grid as u64, t as u64)
            )
        ]);
    }

    // The Section-6 intro baseline: two-phase (t+1)-relay full exchange
    // at ~2N(t+1) messages. Algorithm 4 wins once t+1 > 1.5(m−1) — at the
    // price of guaranteeing only N − 2t exchangers.
    let mut baseline = Table::new(
        "E7b — Algorithm 4 vs the (t+1)-relay full-exchange baseline: the O(N^1.5) grid undercuts O(Nt) once t is large",
        &["m", "N", "t", "grid messages", "relay messages", "grid guarantee", "relay guarantee", "winner"],
    );
    for (m, t) in [(4usize, 2usize), (4, 5), (5, 3), (5, 7), (8, 4), (8, 12)] {
        let n_grid = m * m;
        let grid = algorithm4::run(m, t, fast().with_seed(6));
        let relay = algorithm4::relay_exchange(n_grid, t, fast().with_seed(6));
        assert!(grid.mutual_exchange_holds() && relay.full_exchange_holds());
        let g = grid.outcome.metrics.messages_by_correct;
        let r = relay.outcome.metrics.messages_by_correct;
        baseline.row(cells![
            m,
            n_grid,
            t,
            g,
            r,
            format!(
                "N-2t = {}",
                bounds::alg4_min_successful(n_grid as u64, t as u64)
            ),
            "all correct",
            if g < r { "grid" } else { "relay" }
        ]);
    }
    vec![t_out, baseline]
}

/// E8 — Lemma 5 / Theorem 7: Algorithm 5 sweep.
pub fn e8() -> Vec<Table> {
    let mut t_out = Table::new(
        "E8 — Algorithm 5: messages = O(t² + nt/s); rows with s = t realize Theorem 7's O(n + t²); kind columns break down where the messages go",
        &["n", "t", "s", "alpha", "phases", "paper 3t+4s+2 (+O(log s))", "messages", "chains", "activates", "grids", "envelope", "msgs/(n+t²)", "within envelope"],
    );
    let cases = [
        (30usize, 1usize, 1usize),
        (60, 1, 1),
        (120, 1, 1),
        (60, 3, 3),
        (120, 3, 3),
        (240, 3, 3),
        (120, 7, 7),
        (240, 7, 7),
        (480, 7, 7),
        (240, 3, 7),
        (480, 7, 15),
    ];
    for (n, t, s) in cases {
        let r = algorithm5::run(n, t, s, Value::ONE, fast()).unwrap();
        let msgs = r.outcome.metrics.messages_by_correct;
        let kind = |k: &str| {
            r.outcome
                .metrics
                .by_kind_correct
                .get(k)
                .copied()
                .unwrap_or(0)
        };
        let envelope = bounds::alg5_message_envelope(n as u64, t as u64, s as u64);
        let norm = msgs as f64 / (n as f64 + (t * t) as f64);
        t_out.row(cells![
            n,
            t,
            s,
            bounds::alpha(t as u64),
            r.outcome.metrics.phases,
            bounds::alg5_phases_paper(t as u64, s as u64),
            msgs,
            kind("chain"),
            kind("activate"),
            kind("grid"),
            envelope,
            format!("{norm:.1}"),
            check(msgs <= envelope)
        ]);
    }
    vec![t_out]
}

/// E9 — the intro's phases/messages trade-off via Algorithm 3.
pub fn e9() -> Vec<Table> {
    let mut t_out = Table::new(
        "E9 — trade-off: Algorithm 3 with s = ⌈t/a⌉ gives ~t+3+2t/a phases and O(a·n) messages (t = 8, n = 600 >= t³)",
        &["a", "s = ⌈t/a⌉", "phases", "intro phases t+3+t/a (collection doubled)", "messages", "messages / n"],
    );
    let (n, t) = (600usize, 8usize);
    for a in [1usize, 2, 4, 8] {
        let s = bounds::tradeoff_group_size(t as u64, a as u64) as usize;
        let r = algorithm3::run(n, t, s, Value::ONE, fast()).unwrap();
        let msgs = r.outcome.metrics.messages_by_correct;
        t_out.row(cells![
            a,
            s,
            r.outcome.metrics.phases,
            t + 3 + 2 * s,
            msgs,
            format!("{:.1}", msgs as f64 / n as f64)
        ]);
    }
    vec![t_out]
}

/// E10 — who wins: message comparison across algorithms.
pub fn e10() -> Vec<Table> {
    let mut t_out = Table::new(
        "E10 — messages by correct processors across algorithms ('-' = precondition not met; OM explodes, Algorithm 5 flattens to O(n+t²))",
        &["n", "t", "OM(t)", "DS broadcast", "DS relay", "Alg 3 (s=4t)", "Alg 5 (s~t)", "winner"],
    );
    for (n, t) in [
        (10usize, 1usize),
        (25, 1),
        (100, 1),
        (25, 3),
        (100, 3),
        (400, 3),
        (100, 7),
        (400, 7),
        (1000, 7),
    ] {
        let om_msgs = if n > 3 * t && bounds::om_messages(n as u64, t as u64) < 2_000_000 && t <= 2
        {
            let r = om::run(n, t, Value::ONE, RunOptions::new()).unwrap();
            Some(r.outcome.metrics.messages_by_correct)
        } else {
            None
        };
        let ds_b = dolev_strong::run(n, t, Value::ONE, fast())
            .unwrap()
            .outcome
            .metrics
            .messages_by_correct;
        let ds_r = dolev_strong::run(
            n,
            t,
            Value::ONE,
            fast().with_variant(dolev_strong::Variant::Relay),
        )
        .unwrap()
        .outcome
        .metrics
        .messages_by_correct;
        let a3 = if n >= 2 * t + 2 {
            Some(
                algorithm3::run(n, t, 4 * t, Value::ONE, fast())
                    .unwrap()
                    .outcome
                    .metrics
                    .messages_by_correct,
            )
        } else {
            None
        };
        let a5 = if n >= bounds::alpha(t as u64) as usize {
            Some(
                algorithm5::run(
                    n,
                    t,
                    bounds::alg5_tree_size(t as u64) as usize,
                    Value::ONE,
                    fast(),
                )
                .unwrap()
                .outcome
                .metrics
                .messages_by_correct,
            )
        } else {
            None
        };
        let fmt = |o: Option<u64>| o.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
        let named = [
            ("OM", om_msgs),
            ("DS-bcast", Some(ds_b)),
            ("DS-relay", Some(ds_r)),
            ("Alg3", a3),
            ("Alg5", a5),
        ];
        let winner = named
            .iter()
            .filter_map(|(name, v)| v.map(|v| (v, *name)))
            .min()
            .map(|(_, name)| name)
            .unwrap_or("-");
        t_out.row(cells![
            n,
            t,
            fmt(om_msgs),
            ds_b,
            ds_r,
            fmt(a3),
            fmt(a5),
            winner
        ]);
    }

    // Worst-case comparison: the paper's claims are worst-case counts, and
    // Algorithm 3's Achilles heel is faulty group roots (the 3t²s term)
    // while Algorithm 5's proof-of-work activation caps the damage
    // (Lemma 4). The crossover — Algorithm 5 winning for n below ~t³ —
    // appears once t is large enough for the root-coverage traffic to
    // dominate.
    let mut worst = Table::new(
        "E10b — worst-case messages under corrupt roots: Algorithm 3 (t lying group roots, s=4t) vs Algorithm 5 (silent tree roots, s~t); the paper's crossover (Alg 5 wins for n below ~t³) appears at large t",
        &["n", "t", "t³", "Alg 3 worst", "Alg 5 worst", "winner"],
    );
    for (n, t) in [
        (400usize, 4usize),
        (400, 8),
        (1000, 8),
        (1000, 16),
        (2000, 16),
    ] {
        let s3 = 4 * t;
        let r_groups = (n - (2 * t + 1)).div_ceil(s3);
        let a3 = algorithm3::run(
            n,
            t,
            s3,
            Value::ONE,
            fast().with_schedule(lying_roots(t, s3, 0..t.min(r_groups))),
        )
        .unwrap()
        .outcome
        .metrics
        .messages_by_correct;
        let s5 = bounds::alg5_tree_size(t as u64) as usize;
        let r_trees = (n - bounds::alpha(t as u64) as usize).div_ceil(s5);
        let roots = (0..t.min(r_trees)).filter_map(|tree| algorithm5::tree_root(n, t, s5, tree));
        let a5 = algorithm5::run(
            n,
            t,
            s5,
            Value::ONE,
            fast().with_schedule(ScheduleSpec::each(roots, FaultBehavior::Silent)),
        )
        .unwrap()
        .outcome
        .metrics
        .messages_by_correct;
        worst.row(cells![
            n,
            t,
            t * t * t,
            a3,
            a5,
            if a5 < a3 { "Alg5" } else { "Alg3" }
        ]);
    }
    vec![t_out, worst]
}

/// E11 — Lemma 4: per tree `C` with `b(C)` faults, at most `2b(C) + 1`
/// processors get activated or are faulty (the amortization that keeps
/// Algorithm 5's activation traffic bounded).
pub fn e11() -> Vec<Table> {
    use ba_algos::algorithm5::{run_audited, Activation};
    let mut t_out = Table::new(
        "E11 — Lemma 4 activation audit for Algorithm 5: max per-tree (activated or faulty) vs 2b(C)+1",
        &["n", "t", "s", "fault", "total activated", "max per-tree activated+faulty", "max 2b(C)+1", "within bound"],
    );
    // The faulty processors are silent: tree roots (p9; p25, p32, p39 at
    // alpha = 25) or plain passives.
    type Scenario = (usize, usize, usize, &'static str, Vec<ProcessId>);
    let scenarios: Vec<Scenario> = vec![
        (30, 1, 7, "none", vec![]),
        (30, 1, 7, "silent tree root", vec![ProcessId(9)]),
        (
            46,
            2,
            7,
            "2 silent passives",
            vec![ProcessId(17), ProcessId(30)],
        ),
        (
            120,
            3,
            7,
            "3 silent tree roots",
            vec![ProcessId(25), ProcessId(32), ProcessId(39)],
        ),
    ];
    for (n, t, s, label, faulty_ids) in scenarios {
        let (report, activated) = run_audited(
            n,
            t,
            s,
            Value::ONE,
            Activation::Gated,
            fast().with_schedule(ScheduleSpec::each(
                faulty_ids.iter().copied(),
                FaultBehavior::Silent,
            )),
        )
        .unwrap();
        assert_eq!(report.verdict.agreed, Some(Value::ONE));
        let registry = ba_crypto::KeyRegistry::new(n, 0, SchemeKind::Fast);
        let cfg = ba_algos::algorithm5::Alg5Config::new(n, t, s, registry.verifier());
        let total: usize = activated.iter().filter(|&&a| a).count();
        let mut worst_seen = 0usize;
        let mut worst_bound = 1usize;
        let mut ok = true;
        for tree in 0..cfg.forest.tree_count() {
            let members = cfg.forest.subtree_members(tree, 1);
            let b = members.iter().filter(|m| faulty_ids.contains(m)).count();
            let seen = members
                .iter()
                .filter(|m| activated[m.index()] || faulty_ids.contains(m))
                .count();
            if seen > worst_seen {
                worst_seen = seen;
                worst_bound = 2 * b + 1;
            }
            ok &= seen <= 2 * b + 1;
        }
        t_out.row(cells![
            n,
            t,
            s,
            label,
            total,
            worst_seen,
            worst_bound,
            check(ok)
        ]);
    }
    vec![t_out]
}

/// E12 — ablation: Algorithm 5 with proof-of-work activation disabled
/// (every subtree activated in every block). Agreement still holds, but
/// the activation traffic the certificates suppress comes back.
pub fn e12() -> Vec<Table> {
    use ba_algos::algorithm5::{run_audited, tree_root, Activation};
    let mut t_out = Table::new(
        "E12 — ablation: proof-of-work activation gating vs naive always-activate (silent tree-root fault)",
        &["n", "t", "s", "gated messages", "naive messages", "overhead", "both agree"],
    );
    for (n, t, s) in [
        (60usize, 1usize, 3usize),
        (120, 3, 7),
        (240, 3, 7),
        (240, 7, 7),
    ] {
        let run = |activation| {
            let options = fast().with_schedule(ScheduleSpec::each(
                tree_root(n, t, s, 0),
                FaultBehavior::Silent,
            ));
            run_audited(n, t, s, Value::ONE, activation, options)
                .unwrap()
                .0
        };
        let (gated, naive) = (run(Activation::Gated), run(Activation::Naive));
        let g = gated.outcome.metrics.messages_by_correct;
        let na = naive.outcome.metrics.messages_by_correct;
        let both =
            gated.verdict.agreed == Some(Value::ONE) && naive.verdict.agreed == Some(Value::ONE);
        t_out.row(cells![
            n,
            t,
            s,
            g,
            na,
            format!("{:.2}x", na as f64 / g as f64),
            check(both)
        ]);
    }
    vec![t_out]
}

/// E13 — decision latency: the phase by which the *last* correct
/// processor first holds a deciding message in Algorithm 1, fault-free vs
/// under the chain-withholding coalition. The `t + 2` phase bound is the
/// worst case; typical runs decide immediately.
pub fn e13() -> Vec<Table> {
    use ba_algos::algorithm1::{run, withholding};

    let mut t_out = Table::new(
        "E13 — Algorithm 1 decision latency (phase of last first-receipt of a correct 1-message) vs the t+2 bound",
        &["t", "n", "fault-free latency", "withholding latency", "phase bound t+2", "within bound"],
    );
    let latency = |t: usize, schedule: ScheduleSpec| -> usize {
        let r = run(
            t,
            Value::ONE,
            fast().with_schedule(schedule).with_trace(true),
        )
        .unwrap();
        // For each correct non-transmitter processor, the phase of the
        // first structurally-correct 1-message addressed to it.
        (1..2 * t + 1)
            .filter(|&p| r.outcome.correct[p])
            .map(|p| {
                let first = r
                    .outcome
                    .trace
                    .first_receipt(ProcessId(p as u32), |phase, chain| {
                        chain.value() == Value::ONE && chain.len() == phase
                    });
                first.unwrap_or(usize::MAX)
            })
            .max()
            .unwrap_or(0)
    };

    for t in [2usize, 4, 6, 8] {
        let clean = latency(t, ScheduleSpec::default());
        let withheld = latency(t, withholding(t, t - 1, t));
        t_out.row(cells![
            t,
            2 * t + 1,
            clean,
            withheld,
            t + 2,
            check(clean <= t + 2 && withheld <= t + 2)
        ]);
    }
    vec![t_out]
}

/// E14 — crypto cost: hash invocations, signature checks and how each
/// chain verification went, per algorithm run.
///
/// A run whose instance carries keys — Dolev–Strong and Algorithm 3 —
/// verifies each unique delivered chain once at the phase barrier and
/// stamps it (`ba_crypto::stamp::Barrier`); a recipient's own `verify` of a
/// stamped chain is O(1). Algorithms 1, 2 and 5 build their instances
/// without keys (DESIGN §10.3), so every recipient checks what it reads in
/// full and their rows show no stamp hits; `Msg5` exposes no chain to a
/// barrier either. `stamp hits` counts the stamp hits, `full checks` the
/// full O(L) checks (the barrier's, and any of an unstamped chain), and
/// `stamp share` is the share of verifications the stamp answered.
pub fn e14() -> Vec<Table> {
    let mut t_out = Table::new(
        "E14 — crypto work per run (Fast scheme): hashes and signature checks actually performed, and how each chain verification went: an O(1) barrier-stamp hit or a full O(L) check",
        &[
            "algorithm",
            "n",
            "t",
            "messages",
            "hashes",
            "sig checks",
            "stamp hits",
            "full checks",
            "stamp share",
            "chains verified",
        ],
    );
    let mut push = |name: &str, n: usize, t: usize, m: &ba_sim::Metrics| {
        let c = &m.crypto;
        t_out.row(cells![
            name,
            n,
            t,
            m.messages_by_correct,
            c.hash_invocations,
            c.sig_verifications,
            c.cache_hits,
            c.cache_misses,
            format!("{:.2}", c.cache_hit_rate()),
            check(c.hash_invocations > 0 && c.cache_hits + c.cache_misses > 0)
        ]);
    };
    for t in [2usize, 4, 6] {
        let r = algorithm1::run(t, Value::ONE, fast()).unwrap();
        push("Algorithm 1", 2 * t + 1, t, &r.outcome.metrics);
    }
    for t in [2usize, 4] {
        let r = algorithm2::run(t, Value::ONE, fast()).unwrap();
        push("Algorithm 2", 2 * t + 1, t, &r.report.outcome.metrics);
    }
    for (n, t) in [(15usize, 3usize), (25, 3)] {
        let r = dolev_strong::run(
            n,
            t,
            Value::ONE,
            fast().with_variant(dolev_strong::Variant::Relay),
        )
        .unwrap();
        push("Dolev-Strong relay", n, t, &r.outcome.metrics);
    }
    for (n, t, s) in [(50usize, 2usize, 8usize), (120, 3, 12)] {
        let r = algorithm3::run(n, t, s, Value::ONE, fast()).unwrap();
        push("Algorithm 3", n, t, &r.outcome.metrics);
    }
    for (n, t, s) in [(60usize, 1usize, 3usize), (120, 3, 7)] {
        let r = algorithm5::run(n, t, s, Value::ONE, fast()).unwrap();
        push("Algorithm 5", n, t, &r.outcome.metrics);
    }
    vec![t_out]
}

/// E15 — engine scaling: parallel intra-phase stepping is observationally
/// equivalent to the sequential engine.
///
/// Each workload runs twice, sequentially and across 4 worker threads, and
/// every accounting column must match exactly: the engine routes staged
/// messages in actor-id order on the calling thread and verifies at the
/// barrier on it too, so `Metrics`, decisions and traces are byte-identical
/// for any thread count. Wall-clock numbers live in the
/// engine benchmark (`bench_engine` → `BENCH_engine.json`); this table pins
/// the determinism contract the parallelism rests on.
pub fn e15() -> Vec<Table> {
    let mut t_out = Table::new(
        "E15 — engine scaling across worker threads (Fast scheme): all accounting byte-identical between sequential and parallel intra-phase stepping",
        &[
            "workload",
            "n",
            "t",
            "threads",
            "messages",
            "signatures",
            "hashes",
            "sig checks",
            "identical across threads",
        ],
    );
    for (n, t) in [(16usize, 3usize), (64, 3)] {
        let run_with = |threads: usize| {
            dolev_strong::run(
                n,
                t,
                Value::ONE,
                fast()
                    .with_variant(dolev_strong::Variant::Broadcast)
                    .with_threads(threads),
            )
            .unwrap()
        };
        let seq = run_with(1);
        let par = run_with(4);
        let same = seq.outcome.metrics == par.outcome.metrics
            && seq.outcome.decisions == par.outcome.decisions;
        for (threads, r) in [(1usize, &seq), (4, &par)] {
            let m = &r.outcome.metrics;
            t_out.row(cells![
                "Dolev-Strong broadcast",
                n,
                t,
                threads,
                m.messages_by_correct,
                m.signatures_by_correct,
                m.crypto.hash_invocations,
                m.crypto.sig_verifications,
                check(same)
            ]);
        }
    }
    for (n, t, s) in [(64usize, 3usize, 12usize)] {
        let run_with = |threads: usize| {
            algorithm3::run(n, t, s, Value::ONE, fast().with_threads(threads)).unwrap()
        };
        let seq = run_with(1);
        let par = run_with(4);
        let same = seq.outcome.metrics == par.outcome.metrics
            && seq.outcome.decisions == par.outcome.decisions;
        for (threads, r) in [(1usize, &seq), (4, &par)] {
            let m = &r.outcome.metrics;
            t_out.row(cells![
                "Algorithm 3",
                n,
                t,
                threads,
                m.messages_by_correct,
                m.signatures_by_correct,
                m.crypto.hash_invocations,
                m.crypto.sig_verifications,
                check(same)
            ]);
        }
    }
    vec![t_out]
}

/// E16 — decisions under chaos vs the lock-step baseline.
///
/// The `ba-net` runtime replaces the engine's perfect synchronous wire
/// with seeded per-link unreliability (loss, ack loss, duplication, delay,
/// reordering) masked by retransmission with exponential backoff. The
/// contract this table pins: under a reliable profile the runtime is
/// byte-identical to the lock-step engine (decisions *and* `Metrics`);
/// under recoverable chaos a sound target still reaches the same
/// decisions, paying only physical retransmissions; and when the wire
/// misbehaves past the fault budget the runtime aborts with a structured
/// degradation verdict instead of deciding wrongly.
pub fn e16() -> Vec<Table> {
    use ba_algos::checkable::{find_target, CheckConfig};
    use ba_net::{run_target, ChaosProfile, LinkChaos, NetConfig, NetRunError};
    use ba_sim::schedule::ScheduleSpec;

    let mut t_out = Table::new(
        "E16 — ba-net runtime vs lock-step engine (ds-broadcast n = 4, t = 1, fault-free): decisions must match the baseline whenever the run completes",
        &[
            "profile",
            "completed",
            "decisions = baseline",
            "metrics = baseline",
            "retransmissions",
            "frames failed",
            "suspected",
            "as expected",
        ],
    );
    let target = find_target("ds-broadcast").expect("registered");
    let cfg = CheckConfig::new(4, 1, Value::ONE, 3, 1, ScheduleSpec::default());
    let baseline = target.run(&cfg);
    let base_verdict = baseline.verdict.as_ref().expect("sound fault-free run");
    let net = NetConfig::new().with_threads(2);
    for name in ChaosProfile::NAMES {
        let chaos = ChaosProfile::from_name(name, 41).expect("registry name");
        // Lossless profiles must reproduce the baseline exactly; lossy ones
        // may degrade, but a completed run must never decide differently.
        let lossless = matches!(*name, "reliable" | "jitter");
        match run_target(target, &cfg, &net, &chaos) {
            Ok(run) => {
                let decisions_match =
                    run.agreement.as_ref().ok().map(|v| v.agreed) == Some(base_verdict.agreed);
                let metrics_match = run.metrics.messages_by_correct == baseline.messages_by_correct;
                let as_expected = decisions_match
                    && (!lossless
                        || (metrics_match
                            && run.stats.frames_failed == 0
                            && run.suspected.is_empty()))
                    && (*name != "reliable" || run.stats.retransmissions == 0);
                t_out.row(cells![
                    *name,
                    "yes",
                    if decisions_match { "yes" } else { "no" },
                    if metrics_match { "yes" } else { "no" },
                    run.stats.retransmissions,
                    run.stats.frames_failed,
                    run.suspected.len(),
                    check(as_expected)
                ]);
            }
            Err(NetRunError::Degraded(verdict)) => {
                t_out.row(cells![
                    *name,
                    "no (degraded)",
                    "-",
                    "-",
                    verdict.stats.retransmissions,
                    verdict.stats.frames_failed,
                    verdict.suspected.len(),
                    check(!lossless)
                ]);
            }
            Err(e) => panic!("e16 {name}: {e}"),
        }
    }

    let mut t_degrade = Table::new(
        "E16b — graceful degradation: a permanently dead link is tolerated while the observable fault set fits the budget t, and the run aborts with a structured verdict the moment it does not",
        &[
            "scenario",
            "scheduled faults",
            "dead links",
            "outcome",
            "suspected",
            "agreement",
            "as expected",
        ],
    );
    let dead_link = |from: u32, to: u32| {
        ChaosProfile::reliable().with_link(ProcessId(from), ProcessId(to), LinkChaos::dead())
    };
    // Within budget: no scheduled faults, one dead sender, t = 1.
    let run = run_target(target, &cfg, &net, &dead_link(1, 3)).expect("within budget");
    t_degrade.row(cells![
        "one dead link, budget free",
        0,
        1,
        "completed",
        run.suspected.len(),
        if run.violated() { "VIOLATED" } else { "holds" },
        check(!run.violated() && run.suspected.len() == 1)
    ]);
    // Over budget: the schedule already spends t on the transmitter.
    let split_cfg = CheckConfig {
        spec: ScheduleSpec {
            faults: vec![(
                ProcessId(0),
                ba_sim::schedule::FaultBehavior::OmitTo {
                    targets: vec![ProcessId(2)],
                },
            )],
            link_drops: vec![],
        },
        ..cfg.clone()
    };
    let err =
        run_target(target, &split_cfg, &net, &dead_link(1, 3)).expect_err("over budget must abort");
    let aborted = matches!(err, NetRunError::Degraded(_));
    t_degrade.row(cells![
        "dead link + scheduled omission",
        1,
        1,
        "aborted with verdict",
        "-",
        "no decision",
        check(aborted)
    ]);
    vec![t_out, t_degrade]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_tables() {
        for id in ALL_IDS {
            let tables = run_experiment(id);
            assert!(!tables.is_empty(), "{id}");
            for t in &tables {
                assert!(!t.is_empty(), "{id} produced an empty table");
                let rendered = t.render();
                assert!(
                    !rendered.contains("| NO"),
                    "{id} has a failing row:\n{rendered}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("e99");
    }

    #[test]
    fn parallel_batch_matches_sequential_render() {
        // Cheap subset: the rendered tables must be byte-identical for any
        // thread count.
        let ids = ["e2", "e4", "e14"];
        let render = |batch: &[(String, Vec<Table>)]| -> String {
            batch
                .iter()
                .flat_map(|(id, tables)| {
                    std::iter::once(id.clone()).chain(tables.iter().map(|t| t.render()))
                })
                .collect()
        };
        let seq = run_experiments(&ids, 1);
        let par = run_experiments(&ids, 3);
        assert_eq!(render(&seq), render(&par));
        assert_eq!(seq.len(), ids.len());
        assert_eq!(seq[2].0, "e14");
    }
}
