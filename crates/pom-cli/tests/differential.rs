//! Differential fuzz of the CLI front end against the registry.
//!
//! Every command is driven with the same classes of malformed input the
//! daemon's query validation sees — typo'd keys, duplicates, type
//! mismatches — and the error the CLI surfaces must be exactly the
//! registry's explanation for that input. Together with
//! `pom-serve/tests/schema_parity.rs` (which pins the HTTP side to the
//! same `explain` rendering) this guarantees both front ends describe a
//! given mistake with the same words.

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
