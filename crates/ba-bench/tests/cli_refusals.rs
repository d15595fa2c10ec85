//! The binaries refuse what they cannot run before running anything: a
//! nonzero exit and a message on stderr, never an empty report that exits
//! 0 or a panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

#[test]
fn check_refuses_a_case_its_family_rejects() {
    let refusals = [
        (
            "--target algorithm1 --n 3 --t 1 --value 2",
            "value v2 is not binary",
        ),
        ("--target ext --n 3 --t 1", "n = 3 is not a perfect square"),
    ];
    for (args, message) in refusals {
        let explore: Vec<&str> = args.split(' ').collect();
        let chaos = [&explore[..], &["--chaos", "jitter"]].concat();
        for args in [&explore[..], &chaos] {
            let out = run(env!("CARGO_BIN_EXE_check"), args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(message), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} ran something");
        }
    }
}

/// Without `--n` and `--t`, a named target runs at its family's default
/// dimensions — n = 2t + 1 for the bipartite algorithms — instead of
/// refusing a fixed (4, 1).
#[test]
fn check_runs_a_target_at_its_default_dimensions() {
    for (target, dims) in [
        ("algorithm1", "n = 3, t = 1"),
        ("algorithm2", "n = 3, t = 1"),
        ("algorithm3-s2", "n = 4, t = 1"),
        ("ds-relay", "n = 4, t = 1"),
    ] {
        let out = run(
            env!("CARGO_BIN_EXE_check"),
            &["--target", target, "--budget", "5"],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{target}: {stdout}");
        assert!(
            stdout.starts_with(&format!("{target}: explored")),
            "{stdout}"
        );
        assert!(stdout.contains(dims), "{target}: {stdout}");
    }
}

/// In smoke mode `--value` reaches every target: each one that refuses it
/// gets one stderr line naming it and why, and the rest — the ext sweep
/// and the corpus replay included — still run.
#[test]
fn smoke_mode_names_each_target_that_refuses_the_value_and_runs_the_rest() {
    let out = run(
        env!("CARGO_BIN_EXE_check"),
        &["--value", "2", "--budget", "5"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    for target in ["algorithm1", "algorithm2", "algorithm3-s2"] {
        let line = format!("{target}: skipped: value v2 is not binary\n");
        assert!(stderr.contains(&line), "{target}: {stderr}");
        assert!(!stdout.contains(target), "{target}: {stdout}");
    }
    assert!(
        stdout.contains("ds-relay: explored 5 schedule(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("ext[ds-broadcast]: explored"), "{stdout}");
    assert!(stdout.contains("corpus: replayed"), "{stdout}");
}

#[test]
fn experiments_refuses_an_unknown_id_or_flag() {
    for args in [&["--help"][..], &["e99"], &["E4"], &["e1", "--nosuch"]] {
        let out = run(env!("CARGO_BIN_EXE_experiments"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
