//! The `repro` runner's command-line contract, driven through the built
//! binary.

use std::process::{Command, Output};

use pom_bench::CLAIMS;

fn repro(args: &[&str]) -> Output {
    // Keep the claims' artifacts out of the source tree.
    let target = std::env::temp_dir().join(format!("pom-repro-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("spawn repro");
    std::fs::remove_dir_all(&target).ok();
    out
}

#[test]
fn unknown_id_exits_2_runs_nothing_and_lists_valid_ids() {
    let out = repro(&["C4", "C9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a claim ran");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("C9"), "{err}");
    for claim in &CLAIMS {
        assert!(err.contains(claim.id), "{} not listed: {err}", claim.id);
    }
}

#[test]
fn named_ids_run_exactly_those_claims_in_the_order_given() {
    let out = repro(&["C4", "F1a"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let experiments: Vec<_> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("experiment "))
        .collect();
    assert_eq!(experiments, ["C4", "F1a"]);
    assert_eq!(stdout.matches("VERDICT: REPRODUCED").count(), 2);
}
