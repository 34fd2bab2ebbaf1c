//! Integration tests for the campaign engine: grid expansion, cross-thread
//! determinism, streaming order, and resume-after-interrupt.

use std::collections::BTreeSet;
use std::path::PathBuf;

use pom_sweep::{
    run_campaign_with, run_point_ws, Campaign, CsvSink, JsonlSink, MemorySink, ResultSink,
    RunOptions,
};

/// Small, fast model campaign: 3 σ × 2 couplings = 6 points.
const SPEC: &str = r#"
    [campaign]
    name = "itest"
    seed = 42
    observables = ["final_r", "final_spread", "mean_abs_gap"]

    [model]
    n = 6
    potential = "desync"
    coupling = 4.0

    [topology]
    kind = "chain"

    [init]
    kind = "spread"
    amplitude = 0.2

    [sim]
    t_end = 20.0
    samples = 40

    [[axes]]
    key = "model.sigma"
    values = [1.0, 2.0, 3.0]

    [[axes]]
    key = "model.coupling"
    values = [3.0, 6.0]
"#;

fn tmp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pom-sweep-{tag}-{}.jsonl", std::process::id()));
    p
}

#[test]
fn expansion_count_and_row_major_order() {
    let campaign = Campaign::from_str(SPEC).unwrap();
    assert_eq!(campaign.total_points(), 6);
    let rows = campaign.run_collect(2).unwrap();
    assert_eq!(rows.len(), 6);
    // Streaming order is grid order even with 2 threads.
    let indices: Vec<usize> = rows.iter().map(|r| r.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
    // Row-major: last axis (coupling) fastest.
    let expect = [
        (1.0, 3.0),
        (1.0, 6.0),
        (2.0, 3.0),
        (2.0, 6.0),
        (3.0, 3.0),
        (3.0, 6.0),
    ];
    for (row, (sigma, coupling)) in rows.iter().zip(expect) {
        assert_eq!(row.params[0].0, "model.sigma");
        assert_eq!(row.params[0].1.as_f64(), Some(sigma));
        assert_eq!(row.params[1].1.as_f64(), Some(coupling));
        assert!(row.error.is_none(), "{:?}", row.error);
        assert_eq!(row.observables.len(), 3);
    }
}

#[test]
fn jsonl_identical_across_thread_counts() {
    let campaign = Campaign::from_str(SPEC).unwrap();
    let serial = campaign.run_jsonl_string(1).unwrap();
    let parallel = campaign.run_jsonl_string(4).unwrap();
    let oversubscribed = campaign.run_jsonl_string(16).unwrap();
    assert_eq!(
        serial, parallel,
        "1-thread and 4-thread streams must be bitwise identical"
    );
    assert_eq!(serial, oversubscribed);
    // Sanity: 1 header + 6 rows.
    assert_eq!(serial.lines().count(), 7);
    assert!(serial.lines().next().unwrap().contains("\"spec_hash\""));
}

#[test]
fn per_point_seeds_are_index_stable() {
    let campaign = Campaign::from_str(SPEC).unwrap();
    let a = campaign.run_collect(1).unwrap();
    let b = campaign.run_collect(3).unwrap();
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.seed, rb.seed);
        assert_eq!(ra.observables, rb.observables);
    }
    // Distinct points draw distinct seeds.
    let seeds: BTreeSet<u64> = a.iter().map(|r| r.seed).collect();
    assert_eq!(seeds.len(), a.len());
}

#[test]
fn resume_completes_only_missing_points() {
    let campaign = Campaign::from_str(SPEC).unwrap();
    let path = tmp_path("resume");
    let _ = std::fs::remove_file(&path);

    // Fresh full run → reference output.
    campaign.run_jsonl_file(&path, 2, false).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();
    assert_eq!(full.lines().count(), 7);

    // Simulate an interrupt: keep header + first 2 rows + half a row.
    let mut truncated: Vec<&str> = full.lines().take(3).collect();
    truncated.push("{\"point\":2,\"seed\":123,\"par"); // torn write
    std::fs::write(&path, truncated.join("\n")).unwrap();

    let missing = campaign.missing_points(&path).unwrap();
    assert_eq!(missing, vec![2, 3, 4, 5]);

    let summary = campaign.run_jsonl_file(&path, 2, true).unwrap();
    assert_eq!(summary.skipped, 2);
    assert_eq!(summary.executed, 4);

    // Every point present exactly once, values equal to the fresh run.
    let resumed = std::fs::read_to_string(&path).unwrap();
    let mut full_rows: Vec<&str> = full.lines().skip(1).collect();
    let mut resumed_rows: Vec<&str> = resumed
        .lines()
        .skip(1)
        .filter(|l| !l.ends_with("par"))
        .collect();
    full_rows.sort_unstable();
    resumed_rows.sort_unstable();
    assert_eq!(full_rows, resumed_rows);

    assert!(campaign.missing_points(&path).unwrap().is_empty());

    // A header-only file (interrupted before any row) is a valid resume
    // target, and the completed output is bitwise identical to a clean run.
    std::fs::write(&path, format!("{}\n", full.lines().next().unwrap())).unwrap();
    let summary = campaign.run_jsonl_file(&path, 2, true).unwrap();
    assert_eq!(summary.executed, 6);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_spec_change() {
    let campaign = Campaign::from_str(SPEC).unwrap();
    let path = tmp_path("hash");
    let _ = std::fs::remove_file(&path);
    campaign.run_jsonl_file(&path, 2, false).unwrap();

    let edited = Campaign::from_str(&SPEC.replace("t_end = 20.0", "t_end = 30.0")).unwrap();
    let err = edited.run_jsonl_file(&path, 2, true).unwrap_err();
    // The error must identify itself and name BOTH hashes so the user can
    // see which spec the file actually belongs to.
    let msg = err.to_string();
    assert!(msg.contains("spec hash mismatch"), "{msg}");
    let campaign_hash = format!("{:016x}", campaign.spec.spec_hash);
    let edited_hash = format!("{:016x}", edited.spec.spec_hash);
    assert!(msg.contains(&campaign_hash), "file hash missing: {msg}");
    assert!(msg.contains(&edited_hash), "current hash missing: {msg}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_headerless_file_names_current_hash() {
    // A file whose header object lacks `spec_hash` (e.g. hand-edited or
    // foreign JSONL) is a mismatch too, reported as such — not a generic
    // scan failure.
    let campaign = Campaign::from_str(SPEC).unwrap();
    let path = tmp_path("nohash");
    std::fs::write(&path, "{\"campaign\":\"x\"}\n{\"point\":0}\n").unwrap();
    let err = campaign.run_jsonl_file(&path, 2, true).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("spec hash mismatch"), "{msg}");
    assert!(
        msg.contains(&format!("{:016x}", campaign.spec.spec_hash)),
        "{msg}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_tolerates_trailing_blank_lines() {
    // Editors and `echo >>` commonly leave trailing newlines/blank lines;
    // the scanner must treat them as no-ops, not as torn rows.
    let campaign = Campaign::from_str(SPEC).unwrap();
    let path = tmp_path("blank");
    let _ = std::fs::remove_file(&path);
    campaign.run_jsonl_file(&path, 2, false).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();

    // Keep header + 3 rows, then append blank padding.
    let partial: Vec<&str> = full.lines().take(4).collect();
    std::fs::write(&path, format!("{}\n\n   \n\n", partial.join("\n"))).unwrap();
    assert_eq!(campaign.missing_points(&path).unwrap(), vec![3, 4, 5]);

    let summary = campaign.run_jsonl_file(&path, 2, true).unwrap();
    assert_eq!(summary.skipped, 3);
    assert_eq!(summary.executed, 3);
    // All rows present once, equal to the clean pass.
    let resumed = std::fs::read_to_string(&path).unwrap();
    let mut full_rows: Vec<&str> = full.lines().skip(1).collect();
    let mut resumed_rows: Vec<&str> = resumed
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .collect();
    full_rows.sort_unstable();
    resumed_rows.sort_unstable();
    assert_eq!(full_rows, resumed_rows);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn csv_sink_has_stable_columns() {
    let campaign = Campaign::from_str(SPEC).unwrap();
    let mut sink = CsvSink::new(Vec::<u8>::new());
    campaign
        .run(&RunOptions::with_threads(2), &mut sink)
        .unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "point,seed,model.sigma,model.coupling,final_r,final_spread,mean_abs_gap,error"
    );
    assert_eq!(lines.count(), 6);
}

#[test]
fn failed_points_are_reported_not_fatal() {
    // inject.rank out of range for n = 4 at one grid point only.
    let spec = r#"
        [campaign]
        observables = ["final_r"]
        [model]
        n = 4
        [sim]
        t_end = 5.0
        samples = 10
        [[axes]]
        key = "model.n"
        values = [4, 2]
        [[axes]]
        key = "model.coupling"
        values = [1.0]
    "#;
    // model.n = 2 with default ring(distances ±1) is fine; use a bad
    // potential instead to trigger a per-point spec failure.
    let campaign = Campaign::from_str(spec).unwrap();
    let rows = campaign.run_collect(2).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.error.is_none()));

    let bad = Campaign::from_str(
        r#"
        [campaign]
        observables = ["final_r"]
        [model]
        n = 8
        [sim]
        t_end = 5.0
        samples = 10
        [[axes]]
        key = "model.potential"
        values = ["tanh", "quux"]
        "#,
    )
    .unwrap();
    let rows = bad.run_collect(2).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows[0].error.is_none());
    let err = rows[1].error.as_deref().unwrap();
    assert!(err.contains("quux"), "{err}");
}

/// A wave campaign whose middle point panics inside the solver: a
/// 2^62-sample trajectory overflows `Vec` capacity.
const PANIC_SPEC: &str = r#"
    [campaign]
    name = "panicky"
    seed = 3
    observables = ["wave_speed"]
    [model]
    n = 8
    potential = "tanh"
    [topology]
    kind = "ring"
    [inject]
    rank = 0
    [sim]
    t_end = 10.0
    samples = 40
    [[axes]]
    key = "sim.samples"
    values = [40, 4611686018427387904, 40]
"#;

#[test]
fn panicking_point_becomes_an_error_row() {
    let campaign = Campaign::from_str(PANIC_SPEC).unwrap();
    let mut streams = Vec::new();
    for threads in [1, 2] {
        let mut sink = JsonlSink::new(Vec::new());
        let summary = campaign
            .run(&RunOptions::with_threads(threads), &mut sink)
            .unwrap();
        assert_eq!(
            (summary.executed, summary.errors),
            (3, 1),
            "threads={threads}"
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rows:\n{text}");
        for (i, line) in lines[1..].iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"point\":{i},")), "{line}");
            assert_eq!(line.contains("\"error\""), i == 1, "{line}");
        }
        assert!(lines[2].contains("capacity overflow"), "{}", lines[2]);
        streams.push(text);
    }
    assert_eq!(streams[0], streams[1], "1- and 2-thread streams must match");
}

#[test]
fn panicking_runner_propagates_instead_of_hanging() {
    // A runner that does not catch its own panic kills its worker; the
    // executor must re-raise that panic, not wait forever for the row.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let campaign = Campaign::from_str(SPEC).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = MemorySink::default();
            run_campaign_with(
                &campaign.spec,
                &RunOptions::with_threads(2),
                &mut sink,
                |index, _, ws| {
                    assert_ne!(index, 1, "injected runner panic");
                    run_point_ws(&campaign.spec, index, ws)
                },
            )
        }));
        let _ = tx.send(result.is_err());
    });
    let panicked = rx.recv_timeout(std::time::Duration::from_secs(60));
    assert_eq!(
        panicked,
        Ok(true),
        "the executor hung or swallowed the panic"
    );
}

/// Streaming-only observables (`mean_r`, `min_r`, `max_gap`) ride the
/// observer fast path: no trajectory is materialized, values summarize
/// every integrator step.
const STREAMING_SPEC: &str = r#"
    [campaign]
    name = "streamed"
    seed = 11
    observables = ["final_r", "mean_r", "min_r", "max_gap", "final_spread"]

    [model]
    n = 8
    potential = "tanh"
    coupling = 6.0

    [init]
    kind = "spread"
    amplitude = 0.8

    [sim]
    t_end = 40.0

    [[axes]]
    key = "model.coupling"
    values = [3.0, 6.0]

    [[axes]]
    key = "model.n"
    values = [6, 8, 10]
"#;

#[test]
fn streaming_observables_are_consistent() {
    let campaign = Campaign::from_str(STREAMING_SPEC).unwrap();
    let rows = campaign.run_collect(2).unwrap();
    assert_eq!(rows.len(), 6);
    for row in &rows {
        assert!(row.error.is_none(), "{:?}", row.error);
        let get = |name: &str| {
            row.observables
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let (final_r, mean_r, min_r, max_gap) =
            (get("final_r"), get("mean_r"), get("min_r"), get("max_gap"));
        // A tanh-coupled run resynchronizes: r climbs towards 1, so the
        // streamed extremes must bracket the streamed mean and the final.
        assert!(final_r > 0.99, "final_r {final_r}");
        assert!(
            min_r <= mean_r && mean_r <= 1.0 + 1e-12,
            "min {min_r} mean {mean_r}"
        );
        assert!(min_r <= final_r, "min {min_r} vs final {final_r}");
        assert!(min_r < 0.999, "a spread start is not yet synchronized");
        // The peak gap can't be below the (tiny) final gap.
        assert!(max_gap > 0.0 && max_gap.is_finite());
    }
}

#[test]
fn streaming_rows_identical_across_thread_counts() {
    let campaign = Campaign::from_str(STREAMING_SPEC).unwrap();
    let serial = campaign.run_jsonl_string(1).unwrap();
    let parallel = campaign.run_jsonl_string(4).unwrap();
    assert_eq!(serial, parallel);
}

/// Streaming observables cannot share a campaign with wave observables
/// (the latter force the recorded trajectory pair, and the streamed
/// values must not depend on which other columns were requested).
#[test]
fn streaming_plus_wave_is_rejected_at_parse() {
    let err = Campaign::from_str(
        r#"
        [campaign]
        observables = ["mean_r", "wave_speed"]
        [model]
        n = 8
        [inject]
        rank = 2
        "#,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("mean_r") && msg.contains("wave"), "{msg}");
}

/// Satellite regression: a torn JSONL write *of a streamed summary row*
/// must be re-run on resume, and the resumed file must be bitwise
/// identical to a clean single-pass run at any thread count.
#[test]
fn resume_after_torn_summary_row_is_bitwise_clean() {
    let campaign = Campaign::from_str(STREAMING_SPEC).unwrap();
    let path = tmp_path("torn-summary");
    let _ = std::fs::remove_file(&path);

    // Reference: clean single-pass run (single-threaded).
    campaign.run_jsonl_file(&path, 1, false).unwrap();
    let clean = std::fs::read_to_string(&path).unwrap();
    assert_eq!(clean.lines().count(), 7);

    for threads in [1usize, 3, 8] {
        // Interrupt mid-write: header + 3 full rows + a summary row torn
        // in the middle of its observables object.
        let mut torn: Vec<&str> = clean.lines().take(4).collect();
        let row4 = clean.lines().nth(4).unwrap();
        let cut_at = row4.find("\"observables\"").expect("summary row") + 24;
        let cut = &row4[..cut_at.min(row4.len() - 2)];
        torn.push(cut);
        std::fs::write(&path, torn.join("\n")).unwrap();

        // The torn point (index 3) and everything after must re-run.
        assert_eq!(campaign.missing_points(&path).unwrap(), vec![3, 4, 5]);
        let summary = campaign.run_jsonl_file(&path, threads, true).unwrap();
        assert_eq!(summary.skipped, 3);
        assert_eq!(summary.executed, 3);

        // Bitwise identical to the clean pass — modulo row order (resumed
        // rows append after surviving ones) and the torn fragment, which
        // stays in the file but is ignored by every scanner.
        let resumed = std::fs::read_to_string(&path).unwrap();
        let mut clean_lines: Vec<&str> = clean.lines().collect();
        let mut resumed_lines: Vec<&str> = resumed.lines().filter(|l| *l != cut).collect();
        clean_lines.sort_unstable();
        resumed_lines.sort_unstable();
        assert_eq!(
            clean_lines, resumed_lines,
            "threads = {threads}: resumed file must match the clean run bitwise"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wave_speed_campaign_measures_moving_front() {
    let campaign = Campaign::from_str(
        r#"
        [campaign]
        name = "wave"
        observables = ["wave_speed", "wave_r2"]

        [model]
        n = 24
        potential = "tanh"
        tcomp = 0.9
        tcomm = 0.1

        [init]
        kind = "sync"

        [inject]
        rank = 5
        at = 2.0
        len = 3.0
        extra = 1.0

        [sim]
        t_end = 60.0
        samples = 300

        [[axes]]
        key = "model.coupling"
        values = [2.0, 8.0]
        "#,
    )
    .unwrap();
    let rows = campaign.run_collect(0).unwrap();
    assert_eq!(rows.len(), 2);
    let speeds: Vec<f64> = rows.iter().map(|r| r.observables[0].1).collect();
    assert!(
        speeds.iter().all(|s| s.is_finite() && *s > 0.0),
        "{speeds:?}"
    );
    assert!(
        speeds[1] > speeds[0],
        "stiffer coupling must speed the wave: {speeds:?}"
    );
}

#[test]
fn mpisim_campaign_reports_makespan() {
    let campaign = Campaign::from_str(
        r#"
        [campaign]
        workload = "mpisim"
        observables = ["makespan", "total_wait"]
        [mpisim]
        n = 8
        iterations = 6
        work_seconds = 1e-4
        [[axes]]
        key = "mpisim.protocol"
        values = ["eager", "rendezvous"]
        "#,
    )
    .unwrap();
    let rows = campaign.run_collect(2).unwrap();
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(row.error.is_none(), "{:?}", row.error);
        assert!(row.observables[0].1 > 0.0);
    }
}

/// The engine streams rows as soon as the in-order prefix completes — a
/// sink observing rows must see them before `end`.
#[test]
fn rows_stream_before_end() {
    struct OrderProbe {
        got_rows_before_end: bool,
        rows: usize,
        ended: bool,
    }
    impl ResultSink for OrderProbe {
        fn begin(&mut self, _: &pom_sweep::CampaignSpec) -> std::io::Result<()> {
            Ok(())
        }
        fn row(&mut self, _: &pom_sweep::PointRow) -> std::io::Result<()> {
            assert!(!self.ended);
            self.rows += 1;
            self.got_rows_before_end = true;
            Ok(())
        }
        fn end(&mut self, s: &pom_sweep::CampaignSummary) -> std::io::Result<()> {
            self.ended = true;
            assert_eq!(s.executed, self.rows);
            Ok(())
        }
    }
    let campaign = Campaign::from_str(SPEC).unwrap();
    let mut probe = OrderProbe {
        got_rows_before_end: false,
        rows: 0,
        ended: false,
    };
    campaign
        .run(&RunOptions::with_threads(3), &mut probe)
        .unwrap();
    assert!(probe.got_rows_before_end && probe.ended && probe.rows == 6);
}

#[test]
fn example_specs_parse_and_resolve() {
    // Every spec shipped under examples/specs/ must stay loadable and
    // resolve its base scenario (this builds the full topology — for the
    // large-N idle-wave spec that includes the 65536-rank ring and its
    // kernel/thread knobs — without running any point).
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        seen += 1;
        let campaign =
            Campaign::from_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(campaign.total_points() >= 1, "{}", path.display());
    }
    assert!(
        seen >= 2,
        "expected the shipped example specs, found {seen}"
    );
}

#[test]
fn large_n_spec_selects_split_parallel_kernel() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let campaign = Campaign::from_file(dir.join("idle_wave_large.toml")).unwrap();
    let pom_sweep::Scenario::Model(s) = campaign.spec.scenario_at(0).unwrap() else {
        panic!("model scenario expected");
    };
    assert_eq!(s.n, 65536);
    assert_eq!(s.kernel, pom_core::RhsKernel::SinCosSplit);
    assert_eq!(s.rhs_threads, 0, "0 = all cores");
    assert!(s.topology.ring_stencil().is_some(), "stencil fast path");
}

#[test]
fn workspace_reuse_matches_fresh_per_point() {
    // The executor hands every worker one long-lived SimWorkspace; a
    // point's results must not depend on what the workspace was used for
    // before (different σ/coupling, hence different trajectories).
    use pom_core::SimWorkspace;
    use pom_sweep::{run_point, run_point_ws};

    let campaign = Campaign::from_str(SPEC).unwrap();
    let mut ws = SimWorkspace::new();
    for index in 0..campaign.total_points() {
        let fresh = run_point(&campaign.spec, index);
        let reused = run_point_ws(&campaign.spec, index, &mut ws);
        assert_eq!(fresh.index, reused.index);
        assert_eq!(fresh.seed, reused.seed);
        assert_eq!(fresh.error, reused.error);
        for ((name_a, a), (name_b, b)) in fresh.observables.iter().zip(&reused.observables) {
            assert_eq!(name_a, name_b);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "observable {name_a} differs at point {index}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Ensemble campaigns (campaign.replicas ≥ 2)
// ---------------------------------------------------------------------------

/// R = 3 lockstep ensemble per point: explicit fixed-step solver so the
/// batched path (not the sequential adaptive fallback) is exercised.
const ENSEMBLE_SPEC: &str = r#"
    [campaign]
    name = "ens"
    seed = 7
    replicas = 3
    observables = ["final_r", "final_spread"]

    [model]
    n = 8
    potential = "tanh"
    coupling = 4.0

    [init]
    kind = "spread"
    amplitude = 0.8

    [sim]
    t_end = 10.0
    samples = 20
    solver = "rk4"
    h = 0.05

    [[axes]]
    key = "model.coupling"
    values = [2.0, 6.0]
"#;

#[test]
fn ensemble_emits_aggregate_columns() {
    let campaign = Campaign::from_str(ENSEMBLE_SPEC).unwrap();
    assert_eq!(campaign.spec.replicas, 3);
    let text = campaign.run_jsonl_string(2).unwrap();
    let header = text.lines().next().unwrap();
    assert!(header.contains("\"replicas\":3"), "{header}");
    assert!(
        header.contains("\"final_r_mean\",\"final_r_ci95\",\"final_r_min\",\"final_r_max\""),
        "{header}"
    );

    let rows = campaign.run_collect(2).unwrap();
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(row.error.is_none(), "{:?}", row.error);
        // 2 observables × 4 aggregate columns.
        assert_eq!(row.observables.len(), 8);
        let get = |name: &str| {
            row.observables
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        for obs in ["final_r", "final_spread"] {
            let (mean, ci95, min, max) = (
                get(&format!("{obs}_mean")),
                get(&format!("{obs}_ci95")),
                get(&format!("{obs}_min")),
                get(&format!("{obs}_max")),
            );
            assert!(min <= mean && mean <= max, "{obs}: {min} {mean} {max}");
            assert!(ci95 >= 0.0 && ci95.is_finite(), "{obs}_ci95 {ci95}");
            // Replicas draw distinct init seeds — the spread of a
            // 3-member ensemble is never exactly degenerate.
            assert!(max > min, "{obs}: replicas collapsed to one value");
        }
    }
}

#[test]
fn ensemble_rows_identical_across_thread_counts() {
    let campaign = Campaign::from_str(ENSEMBLE_SPEC).unwrap();
    let serial = campaign.run_jsonl_string(1).unwrap();
    let parallel = campaign.run_jsonl_string(4).unwrap();
    assert_eq!(serial, parallel);
}

/// Back-compat pin: a `replicas = 1` campaign takes the plain single-run
/// path and its output — header fields and every row — is byte-identical
/// to the same spec without the key (modulo the spec hash, which covers
/// the raw text).
#[test]
fn replicas_one_output_is_byte_identical_to_unreplicated() {
    let with_key =
        Campaign::from_str(&ENSEMBLE_SPEC.replace("replicas = 3", "replicas = 1")).unwrap();
    let without_key = Campaign::from_str(&ENSEMBLE_SPEC.replace("    replicas = 3\n", "")).unwrap();
    assert_eq!(with_key.spec.replicas, 1);
    assert_eq!(without_key.spec.replicas, 1);

    let a = with_key.run_jsonl_string(2).unwrap();
    let b = without_key.run_jsonl_string(2).unwrap();
    // Rows must match byte for byte.
    let rows_a: Vec<&str> = a.lines().skip(1).collect();
    let rows_b: Vec<&str> = b.lines().skip(1).collect();
    assert_eq!(rows_a, rows_b);
    // Headers differ only in the spec hash: neither carries a
    // `replicas` field.
    assert!(!a.lines().next().unwrap().contains("replicas"));
    assert!(!b.lines().next().unwrap().contains("replicas"));
}

/// Replica 0 of an ensemble IS the single run: `replica_seed(i, 0) ==
/// point_seed(i)`, and the batched integration is bitwise identical to
/// independent runs — so the plain column of an unreplicated campaign
/// must appear bitwise among an R = 2 ensemble's min/max.
#[test]
fn replica_zero_matches_single_run_bitwise() {
    let plain = Campaign::from_str(&ENSEMBLE_SPEC.replace("    replicas = 3\n", "")).unwrap();
    let ens = Campaign::from_str(&ENSEMBLE_SPEC.replace("replicas = 3", "replicas = 2")).unwrap();
    assert_eq!(plain.spec.replica_seed(1, 0), plain.spec.point_seed(1));

    let plain_rows = plain.run_collect(1).unwrap();
    let ens_rows = ens.run_collect(1).unwrap();
    for (p, e) in plain_rows.iter().zip(&ens_rows) {
        for (name, v) in &p.observables {
            let get = |suffix: &str| {
                e.observables
                    .iter()
                    .find(|(k, _)| *k == format!("{name}_{suffix}"))
                    .map(|(_, x)| *x)
                    .unwrap()
            };
            let (min, max) = (get("min"), get("max"));
            // With two replicas every value is the min or the max; the
            // single run is replica 0, bit for bit.
            assert!(
                v.to_bits() == min.to_bits() || v.to_bits() == max.to_bits(),
                "{name}: single-run {v} not among ensemble extremes [{min}, {max}]"
            );
        }
    }
}

#[test]
fn ensemble_spec_validation_rejects_degenerate_campaigns() {
    // replicas must be ≥ 1.
    let err = Campaign::from_str("[campaign]\nreplicas = 0\n[model]\nn = 4").unwrap_err();
    assert!(err.to_string().contains("replicas"), "{err}");

    // Wave observables need the recorded perturbed/baseline pair.
    let err = Campaign::from_str(
        "[campaign]\nreplicas = 2\nobservables = [\"wave_speed\"]\n[model]\nn = 8\n[inject]\nrank = 2",
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("wave_speed") && msg.contains("replicas"),
        "{msg}"
    );

    // The mpisim substrate has no ensemble path.
    let err = Campaign::from_str("[campaign]\nreplicas = 2\n[mpisim]\nn = 4\niterations = 2")
        .unwrap_err();
    assert!(err.to_string().contains("mpisim"), "{err}");

    // Nothing varies per replica: sync init, no noise → R identical runs.
    let err =
        Campaign::from_str("[campaign]\nreplicas = 2\n[model]\nn = 4\n[init]\nkind = \"sync\"")
            .unwrap_err();
    assert!(err.to_string().contains("identical replicas"), "{err}");

    // Pinned init seed AND pinned noise seed: also degenerate.
    let err = Campaign::from_str(
        "[campaign]\nreplicas = 2\n[model]\nn = 4\n[init]\nkind = \"spread\"\nseed = 9\n[noise]\nsigma = 0.05\nseed = 3",
    )
    .unwrap_err();
    assert!(err.to_string().contains("identical replicas"), "{err}");

    // Unpinned noise alone is enough to diversify replicas.
    let ok = Campaign::from_str(
        "[campaign]\nreplicas = 2\n[model]\nn = 4\n[init]\nkind = \"sync\"\n[noise]\nsigma = 0.05",
    );
    assert!(ok.is_ok(), "{:?}", ok.err().map(|e| e.to_string()));
}

#[test]
fn solver_keys_validate_at_parse() {
    // rk4 needs an explicit step.
    let err = Campaign::from_str("[model]\nn = 4\n[sim]\nsolver = \"rk4\"").unwrap_err();
    assert!(err.to_string().contains("sim.h"), "{err}");
    // sim.h without rk4 is a mistake, not silently ignored.
    let err = Campaign::from_str("[model]\nn = 4\n[sim]\nh = 0.05").unwrap_err();
    assert!(err.to_string().contains("sim.h"), "{err}");
    let err =
        Campaign::from_str("[model]\nn = 4\n[sim]\nsolver = \"dopri5\"\nh = 0.05").unwrap_err();
    assert!(err.to_string().contains("sim.h"), "{err}");
    // Unknown solver names fail loudly.
    let err = Campaign::from_str("[model]\nn = 4\n[sim]\nsolver = \"euler\"").unwrap_err();
    assert!(err.to_string().contains("euler"), "{err}");
    // Valid forms parse.
    assert!(Campaign::from_str("[model]\nn = 4\n[sim]\nsolver = \"auto\"").is_ok());
    assert!(Campaign::from_str("[model]\nn = 4\n[sim]\nsolver = \"rk4\"\nh = 0.05").is_ok());
}
