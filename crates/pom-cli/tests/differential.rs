//! Differential fuzz of the CLI front end against the registry.
//!
//! Every command is driven with the same classes of malformed input the
//! daemon's query validation sees — typo'd keys, duplicates, type
//! mismatches — and the error the CLI surfaces must be exactly the
//! registry's explanation for that input. Together with
//! `pom-serve/tests/schema_parity.rs` (which pins the HTTP side to the
//! same `explain` rendering) this guarantees both front ends describe a
//! given mistake with the same words.
//!
//! `pom simulate` and a one-point `pom sweep` spec of the same keys must
//! also run the same model: both resolve through the sweep's scenario
//! resolver, and the parity test below pins their printed finals.

use pom_cli::{commands, run_cli};
use pom_sweep::registry::CommandSpec;

/// Fuzz word lists per command: each is expected to be rejected by the
/// registry; cases the registry happens to accept are skipped (they
/// would run the command for real).
fn fuzz_cases(spec: &'static CommandSpec) -> Vec<Vec<String>> {
    let mut cases = vec![
        vec!["zzzq=1".to_string()],        // unknown, no near miss
        vec!["not-key-value".to_string()], // malformed / stray positional
    ];
    for arg in spec.args {
        // Near-miss typo: drop the key's last character.
        if arg.name.len() > 2 {
            let typo = &arg.name[..arg.name.len() - 1];
            cases.push(vec![format!("{typo}=@@junk@@")]);
        }
        // Type mismatch (strings admit anything — those parse clean and
        // are skipped below).
        cases.push(vec![format!("{}=@@junk@@", arg.name)]);
        // Duplicate key.
        cases.push(vec![
            format!("{}=@@junk@@", arg.name),
            format!("{}=@@junk@@", arg.name),
        ]);
    }
    cases
}

#[test]
fn cli_errors_are_verbatim_registry_explanations() {
    let mut rejected = 0usize;
    for (spec, _) in commands() {
        for words in fuzz_cases(spec) {
            let Err(e) = spec.parse(words.iter()) else {
                continue; // registry accepts it; nothing to compare
            };
            let expected = format!("configuration error: {}", spec.explain(&e));
            let mut argv = vec![spec.name.to_string()];
            argv.extend(words.iter().cloned());
            let got = run_cli(argv.iter().map(String::as_str))
                .expect_err(&format!("{argv:?} should fail"));
            assert_eq!(
                got.to_string(),
                expected,
                "{argv:?}: CLI wording diverged from registry explanation"
            );
            rejected += 1;
        }
    }
    assert!(
        rejected >= 50,
        "fuzz corpus collapsed: only {rejected} rejecting cases"
    );
}

#[test]
fn alias_spellings_hit_the_same_explanations() {
    // A bad value through an alias is explained under the canonical key.
    let (spec, _) = commands()
        .iter()
        .find(|(s, _)| s.name == "simulate")
        .expect("simulate registered");
    let e = spec.parse(["rhs_threads=lots"]).expect_err("bad value");
    let expected = format!("configuration error: {}", spec.explain(&e));
    let got = run_cli(["simulate", "rhs_threads=lots"]).expect_err("bad value");
    assert_eq!(got.to_string(), expected);
    assert!(
        got.to_string().contains("rhs-threads") || got.to_string().contains("rhs_threads"),
        "{got}"
    );
}

#[test]
fn simulate_matches_a_one_point_sweep_of_the_same_keys() {
    // A delay window away from the resolver's default `inject.at` (2.0),
    // so a dropped `delay_at` mapping changes the finals.
    let spec = r#"
        [campaign]
        observables = ["final_r", "final_spread", "mean_abs_gap"]
        [model]
        n = 12
        coupling = 2.0
        [topology]
        kind = "chain"
        [init]
        kind = "spread"
        amplitude = 0.3
        seed = 11
        [inject]
        rank = 4
        at = 6.5
        len = 2.0
        [sim]
        t_end = 12.0
    "#;
    let path = std::env::temp_dir().join(format!("pom-cli-parity-{}.toml", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let rows = run_cli(["sweep", path.to_str().unwrap(), "format=csv"]).unwrap();
    let _ = std::fs::remove_file(&path);
    let swept: Vec<String> = rows
        .lines()
        .nth(1)
        .expect("one point row")
        .split(',')
        .skip(2)
        .take(3)
        .map(|v| format!("{:.5}", v.parse::<f64>().unwrap()))
        .collect();

    let report = run_cli([
        "simulate",
        "n=12",
        "coupling=2",
        "topology=chain",
        "init=spread",
        "amplitude=0.3",
        "seed=11",
        "delay_rank=4",
        "delay_at=6.5",
        "delay_len=2",
        "t_end=12",
        "observe=1",
    ])
    .unwrap();
    let simulated: Vec<String> = [
        "final order parameter r",
        "final phase spread",
        "mean |adjacent gap|",
    ]
    .iter()
    .map(|label| {
        let line = report.lines().find(|l| l.starts_with(label));
        let value = line.and_then(|l| l.split(':').nth(1)).expect("final line");
        value.split_whitespace().next().unwrap().to_string()
    })
    .collect();
    assert_eq!(simulated, swept, "simulate:\n{report}\nsweep:\n{rows}");
}
