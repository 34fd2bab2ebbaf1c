//! CLI behavior tests: dispatch, registry-generated help, per-command
//! parsing and reports. (Byte-exact output pinning lives in
//! `golden.rs`; CLI↔HTTP error parity in `pom-serve`'s
//! `schema_parity` suite.)

use pom_cli::{help, run_cli, CliError};
use pom_sweep::registry::{toolkit, CommandSpec};

// ---------------------------------------------------------------------
// Dispatch and registry structure
// ---------------------------------------------------------------------

#[test]
fn help_lists_all_commands_structurally() {
    // Generated from the registry, so the check iterates the registry —
    // a command added there can never be missing here.
    let h = help();
    for c in toolkit().commands {
        assert!(h.contains(c.name), "help missing `{}`", c.name);
        assert!(
            h.contains(c.summary),
            "help missing summary of `{}`",
            c.name
        );
    }
}

#[test]
fn dispatch_table_matches_registry() {
    // The cmd modules bind run functions to registry specs; the two
    // lists must be the same commands in the same (help) order.
    let bound: Vec<&CommandSpec> = pom_cli::commands().iter().map(|(s, _)| *s).collect();
    let registered: Vec<&CommandSpec> = toolkit().commands.iter().collect();
    assert_eq!(
        bound.iter().map(|c| c.name).collect::<Vec<_>>(),
        registered.iter().map(|c| c.name).collect::<Vec<_>>(),
        "dispatch table and registry disagree"
    );
    for (b, r) in bound.iter().zip(&registered) {
        // `defs` items are consts (no stable address), so pin structure:
        // same arg table, same aliases, same summary.
        let args = |c: &CommandSpec| -> Vec<&str> { c.args.iter().map(|a| a.name).collect() };
        assert_eq!(
            args(b),
            args(r),
            "`{}` bound to a different arg table",
            b.name
        );
        assert_eq!(b.aliases, r.aliases, "`{}` aliases differ", b.name);
        assert_eq!(b.summary, r.summary, "`{}` summary differs", b.name);
    }
}

#[test]
fn every_command_help_page_renders() {
    for c in toolkit().commands {
        let page = run_cli(["help", c.name]).unwrap();
        assert!(page.contains(c.name), "{page}");
        assert!(page.contains("USAGE"), "{page}");
        for a in c.args {
            assert!(
                page.contains(a.name),
                "`{}` page missing arg `{}`",
                c.name,
                a.name
            );
        }
    }
}

#[test]
fn unknown_command_is_reported_with_suggestion() {
    let e = run_cli(["frobnicate"]).unwrap_err();
    assert!(e.to_string().contains("frobnicate"));
    // A near-miss gets a "did you mean".
    let e = run_cli(["sweeep"]).unwrap_err();
    match &e {
        CliError::UnknownCommand { suggestion, .. } => {
            assert_eq!(*suggestion, Some("sweep"));
        }
        other => panic!("{other:?}"),
    }
    assert!(e.to_string().contains("did you mean `sweep`?"), "{e}");
    // help for an unknown command too.
    let e = run_cli(["help", "simulat"]).unwrap_err();
    assert!(e.to_string().contains("did you mean `simulate`?"), "{e}");
}

#[test]
fn unknown_key_names_itself_and_suggests() {
    let e = run_cli(["simulate", "sigm=2"]).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("unknown key `sigm`"), "{msg}");
    assert!(msg.contains("did you mean `sigma`?"), "{msg}");
}

#[test]
fn empty_args_show_help() {
    let out = run_cli(Vec::<String>::new()).unwrap();
    assert!(out.contains("USAGE"));
    assert_eq!(out, help());
    // `pom help` and the aliases print the same text.
    assert_eq!(run_cli(["help"]).unwrap(), out);
    assert_eq!(run_cli(["--help"]).unwrap(), out);
    assert_eq!(run_cli(["-h"]).unwrap(), out);
}

#[test]
fn help_json_is_the_schema_document() {
    let out = run_cli(["help", "format=json"]).unwrap();
    assert_eq!(out, format!("{}\n", toolkit().schema_json()));
    assert!(out.starts_with("{\"commands\":["));
}

#[test]
fn extra_positional_is_a_proper_error() {
    // `sweep` declares one positional; a second bare word errors by name
    // instead of being silently folded into the spec path.
    let e = run_cli(["sweep", "a.toml", "b.toml"]).unwrap_err();
    assert!(
        e.to_string()
            .contains("unexpected positional argument `b.toml`"),
        "{e}"
    );
    // Commands without positionals keep the legacy malformed wording.
    let e = run_cli(["potentials", "oops"]).unwrap_err();
    assert!(
        e.to_string().contains("is not of the form key=value"),
        "{e}"
    );
}

// ---------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------

#[test]
fn sweep_without_spec_reports_missing_key() {
    let e = run_cli(["sweep"]).unwrap_err();
    assert!(e.to_string().contains("missing required key `spec`"), "{e}");
    // The explanation carries the spec's doc line.
    assert!(e.to_string().contains("campaign spec file"), "{e}");
}

#[test]
fn sweep_resume_requires_jsonl_file_output() {
    // Without out= (and with format=csv) there is no spec-hash stream
    // to resume from; silently re-running everything would be worse
    // than an error.
    let spec = std::env::temp_dir().join(format!("pom-cli-rr-{}.toml", std::process::id()));
    std::fs::write(&spec, "[model]\nn = 4\n[sim]\nt_end = 2.0\nsamples = 5\n").unwrap();
    let e = run_cli(["sweep", spec.to_str().unwrap(), "resume=1"]).unwrap_err();
    assert!(e.to_string().contains("resume"), "{e}");
    let e = run_cli([
        "sweep",
        spec.to_str().unwrap(),
        "resume=1",
        "format=csv",
        "out=/tmp/x.csv",
    ])
    .unwrap_err();
    assert!(e.to_string().contains("jsonl"), "{e}");
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn sweep_runs_spec_file_and_streams_jsonl() {
    let spec = r#"
        [campaign]
        name = "cli-smoke"
        seed = 1
        observables = ["final_r"]
        [model]
        n = 4
        coupling = 6.0
        [sim]
        t_end = 5.0
        samples = 10
        [[axes]]
        key = "model.coupling"
        values = [4.0, 8.0]
    "#;
    let path = std::env::temp_dir().join(format!("pom-cli-sweep-{}.toml", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = run_cli(["sweep", path.to_str().unwrap()]).unwrap();
    // Header + 2 rows of JSONL.
    assert_eq!(out.lines().count(), 3, "{out}");
    assert!(out.lines().next().unwrap().contains("cli-smoke"));
    assert!(out.contains("\"final_r\""));
    // Positional and spec= forms agree.
    let keyed = run_cli(["sweep".to_string(), format!("spec={}", path.display())]).unwrap();
    assert_eq!(out, keyed);
    // Without out=, format=csv prints CSV rows rather than JSONL.
    let csv = run_cli(["sweep", path.to_str().unwrap(), "format=csv"]).unwrap();
    assert_eq!(csv.lines().count(), 3, "{csv}");
    assert_eq!(
        csv.lines().next(),
        Some("point,seed,model.coupling,final_r,error")
    );
    assert!(!csv.contains('{'), "{csv}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_writes_and_resumes_file_output() {
    let spec = r#"
        [campaign]
        observables = ["final_spread"]
        [model]
        n = 4
        [sim]
        t_end = 4.0
        samples = 10
        [[axes]]
        key = "model.coupling"
        values = [2.0, 4.0, 6.0]
    "#;
    let dir = std::env::temp_dir();
    let spec_path = dir.join(format!("pom-cli-res-{}.toml", std::process::id()));
    let out_path = dir.join(format!("pom-cli-res-{}.jsonl", std::process::id()));
    std::fs::write(&spec_path, spec).unwrap();
    let _ = std::fs::remove_file(&out_path);

    let report = run_cli([
        "sweep".to_string(),
        spec_path.display().to_string(),
        format!("out={}", out_path.display()),
    ])
    .unwrap();
    assert!(report.contains("executed: 3"), "{report}");

    // Resuming a complete file executes nothing.
    let report = run_cli([
        "sweep".to_string(),
        spec_path.display().to_string(),
        format!("out={}", out_path.display()),
        "resume=1".to_string(),
    ])
    .unwrap();
    assert!(report.contains("executed: 0"), "{report}");
    assert!(report.contains("skipped:  3"), "{report}");
    let _ = std::fs::remove_file(&spec_path);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn sweep_stats_appends_latency_summary() {
    // stats=1 flips the global instrumentation switch on; any other
    // test observing metrics must tolerate that (they only read
    // their own registry entries, so this is safe).
    let spec = r#"
        [campaign]
        observables = ["final_r"]
        [model]
        n = 4
        [sim]
        t_end = 2.0
        samples = 5
        [[axes]]
        key = "model.coupling"
        values = [2.0, 4.0]
    "#;
    let path = std::env::temp_dir().join(format!("pom-cli-stats-{}.toml", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = run_cli(["sweep", path.to_str().unwrap(), "stats=1"]).unwrap();
    assert!(out.contains("# point latency"), "{out}");
    assert!(out.contains("p99:"), "{out}");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// serve / reports
// ---------------------------------------------------------------------

#[test]
fn serve_rejects_bad_log_level() {
    let e = run_cli(["serve", "log-level=chatty"]).unwrap_err();
    assert!(e.to_string().contains("warn"), "{e}");
}

#[test]
fn potentials_reports_first_zero() {
    let out = run_cli(["potentials", "sigma=3"]).unwrap();
    assert!(out.contains("2.0000"), "{out}");
    assert!(out.contains("lockstep stable under tanh: true"));
    assert!(out.contains("lockstep stable under desync: false"));
}

#[test]
fn scaling_shows_saturation_ordering() {
    let out = run_cli(["scaling"]).unwrap();
    assert!(out.contains("STREAM"));
    assert!(out.contains("PISOLVER:        never"));
}

#[test]
fn simulate_tanh_synchronizes() {
    let out = run_cli([
        "simulate",
        "n=12",
        "potential=tanh",
        "coupling=6",
        "t_end=80",
        "init=spread",
        "view=order",
    ])
    .unwrap();
    // r printed with 5 decimals; after resync it is ≈ 1.
    assert!(
        out.contains("final order parameter r: 1.0000") || out.contains("r: 0.9999"),
        "{out}"
    );
}

#[test]
fn simulate_desync_settles_at_two_thirds_sigma() {
    let out = run_cli([
        "simulate",
        "n=12",
        "potential=desync",
        "sigma=1.5",
        "topology=chain",
        "coupling=6",
        "t_end=300",
        "init=spread",
        "amplitude=0.1",
        "view=circle",
    ])
    .unwrap();
    let gap: f64 = out
        .lines()
        .find(|l| l.starts_with("mean |adjacent gap|"))
        .and_then(|l| l.split_whitespace().rev().nth(1).map(str::to_string))
        .and_then(|v| v.parse().ok())
        .expect("gap line present");
    assert!(
        (gap - 1.0).abs() < 0.02,
        "gap {gap} should be ≈ 2σ/3 = 1.0\n{out}"
    );
    assert!(out.contains("circle diagram"));
}

#[test]
fn simulate_heatmap_view() {
    let out = run_cli([
        "simulate",
        "n=8",
        "potential=tanh",
        "coupling=4",
        "t_end=20",
        "delay_rank=3",
        "delay_at=2",
        "delay_len=2",
        "init=sync",
        "view=heatmap",
    ])
    .unwrap();
    assert!(out.contains("heatmap"), "{out}");
    // 8 oscillator rows rendered.
    assert!(out.lines().filter(|l| l.contains('|')).count() >= 8);
    // Noise and the delay both apply: white jitter on top of the same
    // delay leaves a spread the delayed lockstep run has healed.
    let spread = |extra: &[&str]| {
        let mut args = vec![
            "simulate",
            "n=8",
            "coupling=4",
            "t_end=20",
            "init=sync",
            "delay_rank=3",
        ];
        args.extend(extra);
        let out = run_cli(args).unwrap();
        let line = out.lines().find(|l| l.starts_with("final phase spread"));
        line.expect("spread line").to_string()
    };
    assert_ne!(spread(&[]), spread(&["noise=0.2"]));
}

#[test]
fn simulate_replicas_reports_aggregates() {
    let out = run_cli([
        "simulate",
        "n=10",
        "potential=tanh",
        "coupling=4",
        "t_end=20",
        "init=spread",
        "replicas=3",
        "h=0.05",
    ])
    .unwrap();
    assert!(out.contains("R = 3 replicas"), "{out}");
    // One row per replica plus the three aggregate lines.
    for rep in 0..3 {
        assert!(out.contains(&format!("\n{rep:>8}  ")), "{out}");
    }
    assert!(out.contains("aggregates over 3 replicas"), "{out}");
    assert!(out.contains("final r:"), "{out}");
}

#[test]
fn simulate_replicas_validation() {
    let e = run_cli(["simulate", "replicas=0"]).unwrap_err();
    assert!(e.to_string().contains("replicas"), "{e}");
    // Deterministic setup: R identical replicas is an error, not fake
    // statistics.
    let e = run_cli(["simulate", "init=sync", "replicas=2", "t_end=5"]).unwrap_err();
    assert!(e.to_string().contains("identical"), "{e}");
    let e = run_cli(["simulate", "replicas=2", "h=-0.1", "t_end=5"]).unwrap_err();
    assert!(e.to_string().contains("step size"), "{e}");
    // Noise alone is a valid per-replica randomness source.
    let out = run_cli([
        "simulate",
        "n=8",
        "init=sync",
        "noise=0.05",
        "coupling=4",
        "replicas=2",
        "t_end=10",
        "h=0.1",
    ])
    .unwrap();
    assert!(out.contains("R = 2 replicas"), "{out}");
}

#[test]
fn simulate_replica_zero_matches_single_run() {
    // The ensemble's replica 0 row must reproduce the plain run's
    // printed finals exactly (same seed, same solver).
    let singles: Vec<String> = ["7", "evens"]
        .iter()
        .map(|_| {
            run_cli([
                "simulate",
                "n=10",
                "potential=tanh",
                "coupling=4",
                "t_end=20",
                "init=spread",
                "seed=7",
                "replicas=2",
                "h=0.05",
            ])
            .unwrap()
        })
        .collect();
    // Deterministic across invocations.
    assert_eq!(singles[0], singles[1]);
    let row0 = singles[0]
        .lines()
        .find(|l| l.trim_start().starts_with("0 "))
        .unwrap()
        .to_string();
    let r0: f64 = row0.split_whitespace().nth(1).unwrap().parse().unwrap();
    let plain = run_cli([
        "simulate",
        "n=10",
        "potential=tanh",
        "coupling=4",
        "t_end=20",
        "init=spread",
        "seed=7",
    ])
    .unwrap();
    let plain_r: f64 = plain
        .lines()
        .find(|l| l.starts_with("final order parameter r"))
        .and_then(|l| l.split_whitespace().last())
        .unwrap()
        .parse()
        .unwrap();
    // Printed at 5 decimals on both sides; solvers differ (fixed h vs
    // auto), so compare loosely — both runs converge to lockstep.
    assert!(
        (r0 - plain_r).abs() < 5e-3,
        "replica 0 r {r0} vs single-run r {plain_r}"
    );
}

#[test]
fn simulate_rejects_bad_potential() {
    let e = run_cli(["simulate", "potential=quux"]).unwrap_err();
    assert!(e.to_string().contains("tanh"));
    // Keys resolve like a sweep point's: a delayed rank outside the
    // ring and a one-oscillator model are errors, not silent fallbacks,
    // and the errors name the simulate key, not the sweep-spec key.
    for (args, says, spec_key) in [
        (
            ["delay_rank=99", "n=8"],
            "configuration error: delay_rank 99 out of range (n = 8)",
            "inject.rank",
        ),
        (
            ["n=1", "t_end=5"],
            "configuration error: n must be ≥ 2",
            "model.n",
        ),
    ] {
        let e = run_cli(["simulate"].into_iter().chain(args))
            .unwrap_err()
            .to_string();
        assert!(e.contains(says), "{args:?}: {e}");
        assert!(!e.contains(spec_key), "{args:?}: {e}");
    }
}

#[test]
fn simulate_kernel_knobs() {
    // The split kernel reproduces the tanh-free sin dynamics within
    // the printed precision; the header reports the selection.
    let out = run_cli([
        "simulate",
        "n=12",
        "potential=desync",
        "sigma=1.5",
        "topology=chain",
        "coupling=6",
        "t_end=50",
        "init=spread",
        "amplitude=0.1",
        "kernel=sincos",
        "rhs-threads=2",
    ])
    .unwrap();
    assert!(out.contains("kernel = sincos (2 rhs threads)"), "{out}");
    // The sweep-spec spelling must not silently fall back to serial.
    let out = run_cli([
        "simulate",
        "n=8",
        "potential=tanh",
        "coupling=4",
        "t_end=10",
        "rhs_threads=3",
    ])
    .unwrap();
    assert!(out.contains("(3 rhs threads)"), "{out}");
    let e = run_cli(["simulate", "kernel=quux"]).unwrap_err();
    assert!(e.to_string().contains("sincos"), "{e}");
}

#[test]
fn sigma_sweep_tracks_two_thirds_law() {
    let out = run_cli(["sigma-sweep", "n=12", "t_end=200"]).unwrap();
    // Every row's relative error column should be small; spot-check
    // that at least the σ=3 row is within 5%.
    let row = out
        .lines()
        .find(|l| l.trim_start().starts_with("3.0"))
        .unwrap();
    let rel: f64 = row.split_whitespace().last().unwrap().parse().unwrap();
    assert!(rel < 0.05, "σ=3 relative error {rel}: {out}");
}

#[test]
fn wave_sweep_speed_increases_with_coupling() {
    let out = run_cli(["wave-sweep", "n=24", "t_end=60"]).unwrap();
    let speeds: Vec<f64> = out
        .lines()
        .filter_map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            if cols.len() == 3 && cols[0].parse::<f64>().is_ok() {
                cols[1].parse().ok()
            } else {
                None
            }
        })
        .collect();
    assert!(speeds.len() >= 4, "{out}");
    assert!(
        speeds.last().unwrap() > speeds.first().unwrap(),
        "speed should grow with βκ: {speeds:?}"
    );
}
