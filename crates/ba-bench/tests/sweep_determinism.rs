//! `ba_sim::sweep` on real experiment cells (not the doc example): the
//! sweep output must be byte-identical for any worker-thread count, even
//! when the cells themselves use the engine's parallel stepping.

use ba_algos::{algorithm3, dolev_strong, RunOptions};
use ba_crypto::{SchemeKind, Value};
use ba_sim::sweep::run_sweep;

/// One sweep cell: a real protocol run, returning the full accounting a
/// sweep consumer would aggregate.
type CellResult = (String, Option<Value>, ba_sim::Metrics);

fn run_cells(threads: usize) -> Vec<CellResult> {
    // A mixed grid like the experiment binaries build: Dolev-Strong
    // broadcast cells across n, plus Algorithm 3 cells across (n, s). Each
    // cell builds its own registry, so cells are independent.
    let cells: Vec<(&str, usize, usize, usize)> = vec![
        ("ds", 8, 2, 0),
        ("ds", 16, 3, 0),
        ("ds", 25, 3, 0),
        ("alg3", 50, 2, 8),
        ("alg3", 64, 3, 12),
    ];
    run_sweep(&cells, threads, |idx, (kind, n, t, s)| match *kind {
        "ds" => {
            let r = dolev_strong::run(
                *n,
                *t,
                Value::ONE,
                dolev_strong::DsOptions {
                    variant: dolev_strong::Variant::Broadcast,
                    seed: idx as u64,
                    scheme: SchemeKind::Fast,
                    // Cells use parallel intra-phase stepping too: the
                    // engine contract keeps results thread-count-invariant.
                    threads: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            (
                format!("ds n={n} t={t}"),
                r.verdict.agreed,
                r.outcome.metrics,
            )
        }
        "alg3" => {
            let r = algorithm3::run(
                *n,
                *t,
                *s,
                Value::ONE,
                RunOptions {
                    seed: idx as u64,
                    scheme: SchemeKind::Fast,
                    threads: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            (
                format!("alg3 n={n} s={s}"),
                r.verdict.agreed,
                r.outcome.metrics,
            )
        }
        other => panic!("unknown cell kind {other}"),
    })
}

#[test]
fn sweep_output_identical_for_1_2_and_8_threads() {
    let baseline = run_cells(1);
    assert_eq!(baseline.len(), 5);
    for (label, agreed, _) in &baseline {
        assert_eq!(*agreed, Some(Value::ONE), "{label}");
    }
    for threads in [2usize, 8] {
        let got = run_cells(threads);
        assert_eq!(got, baseline, "threads={threads}");
    }
}
