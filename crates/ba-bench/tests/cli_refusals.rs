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
