//! The three same-binary A/B ratio gates. Each one times two code paths
//! interleaved on the same host and asserts a floor on their ratio:
//!
//! * `only=obs`: the instrumented RK4 loop and sweep executor with the
//!   obs switch off keep ≥ 0.98× the throughput of their pre-obs
//!   replicas (0.90 in smoke mode).
//! * `only=ensemble`: a shared-delay batched ensemble runs ≥ 1.3× the
//!   replica-steps/s of independent runs at n = 4096 (full mode).
//! * `only=serve_hardening`: the daemon with every hostile-traffic bound
//!   armed keeps ≥ 0.95× plain throughput at the top concurrency (full
//!   mode).
//!
//! Descriptive timings live in `perfbench/`; correctness contracts live
//! in release tests (see docs/ARCHITECTURE.md).
//!
//! ```bash
//! cargo run --release -p pom-bench --bin bench_steps -- only=obs > BENCH_obs.json
//! cargo run --release -p pom-bench --bin bench_steps -- only=serve_hardening > BENCH_serve_hardening.json
//! # All three gates as one JSON document; CI runs the smoke form, whose
//! # tiny iteration counts fire only the obs floor (relaxed to 0.90).
//! cargo run --release -p pom-bench --bin bench_steps -- smoke=1
//! ```

use std::hint::black_box;
use std::time::Instant;

use pom_core::{
    InitialCondition, Normalization, PomBuilder, Potential, RhsKernel, SimOptions, SimWorkspace,
    SolverChoice,
};
use pom_ode::{Rk4, Workspace};
use pom_sweep::Campaign;
use pom_topology::Topology;

/// Best-of-`reps` wall time for `f`, in seconds.
fn time_best(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Open one gate's JSON object: a standalone document under `only=`,
/// else the gate's section of the combined document. Returns the indent
/// of the object's fields.
fn open_gate(section: &str, bench: &str, smoke: bool, standalone: bool) -> &'static str {
    if standalone {
        println!("{{\n  \"bench\": \"{bench}\",\n  \"smoke\": {smoke},");
        ""
    } else {
        println!("  \"{section}\": {{");
        "  "
    }
}

fn close_gate(standalone: bool) {
    println!("{}", if standalone { "}" } else { "  }," });
}

const CAMPAIGN_SPEC: &str = r#"
    [campaign]
    name = "bench-points"
    seed = 5
    observables = ["final_r", "final_spread", "mean_abs_gap"]
    [model]
    n = 8
    potential = "desync"
    [topology]
    kind = "chain"
    [init]
    kind = "spread"
    amplitude = 0.2
    [sim]
    t_end = 15.0
    samples = 30
    [[axes]]
    key = "model.sigma"
    grid = { start = 0.5, stop = 4.0, steps = 8 }
    [[axes]]
    key = "model.coupling"
    values = [2.0, 4.0, 6.0]
"#;

fn main() {
    // `smoke=1` shrinks every loop to a compile-and-run check: the obs
    // floor still fires (at 0.90), the other two floors do not.
    let mut smoke = false;
    let mut only: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.split_once('=') {
            Some(("smoke", v)) => smoke = v != "0",
            Some(("only", v)) => only = Some(v.to_string()),
            _ => {
                eprintln!("usage: bench_steps [smoke=1] [only=obs|ensemble|serve_hardening]");
                std::process::exit(2);
            }
        }
    }
    // `only=obs` / `only=ensemble` / `only=serve_hardening` run just that
    // gate and emit it as a standalone JSON document (→ BENCH_obs.json /
    // BENCH_serve_hardening.json).
    if let Some(section) = only {
        match section.as_str() {
            "obs" => obs_overhead_bench(smoke, true),
            "ensemble" => ensemble_bench(smoke, true),
            "serve_hardening" => serve_hardening_bench(smoke, true),
            other => {
                eprintln!(
                    "unknown only= section `{other}` (try only=obs, only=ensemble or only=serve_hardening)"
                );
                std::process::exit(2);
            }
        }
        return;
    }

    println!("{{");
    println!("  \"bench\": \"ratio_gates\",");
    println!("  \"smoke\": {smoke},");
    ensemble_bench(smoke, false);
    // Runs before serve_hardening, whose daemons flip the global obs
    // switch on.
    obs_overhead_bench(smoke, false);
    serve_hardening_bench(smoke, false);
    // Every gate asserts before its section closes: reaching here passes.
    println!("  \"pass\": true");
    println!("}}");
}

// --- Ensemble batching gate --------------------------------------------------

/// Batched R-replica lockstep integration (`PomEnsemble`, interleaved SoA
/// state) vs R independent `simulate_observed_ws` runs of the same model,
/// on the DDE path with a replica-shared random comm-delay field: the
/// independent runs re-evaluate the same delay field and re-search the
/// same history segments R times. The batch must first equal the R
/// independent runs bit for bit (every mode; the full contract is the
/// `ensemble_bitwise` suite); the ≥1.3× speedup gate fires in full mode.
fn ensemble_bench(smoke: bool, standalone: bool) {
    use pom_core::{NoObserver, PomEnsemble};

    let r = 5usize;
    let n = 4096usize;
    let h = 0.02;
    let reps = if smoke { 1 } else { 5 };
    // Delay steps cost ~100x an ODE step (history sampling per pair per
    // stage), so the row runs few of them.
    let esteps = if smoke { 3 } else { 8 };
    // Eight neighbors per oscillator: enough per-row work that the
    // shared passes have something to amortize.
    let build = || {
        PomBuilder::new(n)
            .topology(Topology::ring(n, &[-4, -3, -2, -1, 1, 2, 3, 4]))
            .potential(Potential::desync(3.0))
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(4.0)
            .normalization(Normalization::ByDegree)
            .kernel(RhsKernel::SinCosSplit)
            .interaction_noise(pom_noise::RandomCommDelay::new(77, n, 0.08, 0.02, 0.5))
            .build()
            .unwrap()
    };

    let opts = SimOptions::new(h * esteps as f64).solver(SolverChoice::FixedRk4 { h });
    let inits: Vec<InitialCondition> = (0..r)
        .map(|rep| InitialCondition::RandomSpread {
            amplitude: 0.3,
            seed: 1000 + rep as u64,
        })
        .collect();
    let single = build();
    let ensemble = PomEnsemble::new((0..r).map(|_| build()).collect());
    let mut ws = SimWorkspace::new();
    let independent = |ws: &mut SimWorkspace| -> Vec<Vec<f64>> {
        inits
            .iter()
            .map(|init| {
                single
                    .simulate_observed_ws(init.clone(), &opts, &mut NoObserver, ws)
                    .expect("independent run")
                    .final_state()
                    .to_vec()
            })
            .collect()
    };
    let batched = |ws: &mut SimWorkspace| -> Vec<Vec<f64>> {
        let mut observers = vec![NoObserver; r];
        ensemble
            .simulate_observed_ws(&inits, &opts, &mut observers, ws)
            .expect("batched run")
            .iter()
            .map(|run| run.final_state().to_vec())
            .collect()
    };

    let (a, b) = (independent(&mut ws), batched(&mut ws));
    for rep in 0..r {
        assert!(
            a[rep]
                .iter()
                .zip(&b[rep])
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "batched replica {rep} diverged from its independent run at n = {n}"
        );
    }

    // Best-of-reps absorbs most scheduler noise; a shared host can still
    // produce one bad attempt, so the gated mode retries.
    let gated = !smoke;
    let (mut speedup, mut indep_sps, mut batched_sps) = (0.0, 0.0, 0.0);
    for _attempt in 0..3 {
        let t_indep = time_best(reps, || independent(&mut ws)[0][0]);
        let t_batched = time_best(reps, || batched(&mut ws)[0][0]);
        // Replica-steps/sec: both columns advance R replicas esteps
        // steps, so the ratio reads directly as amortization.
        let (i_sps, b_sps) = (
            (r * esteps) as f64 / t_indep,
            (r * esteps) as f64 / t_batched,
        );
        if b_sps / i_sps > speedup {
            (speedup, indep_sps, batched_sps) = (b_sps / i_sps, i_sps, b_sps);
        }
        if !gated || speedup >= 1.3 {
            break;
        }
    }
    let pass = !gated || speedup >= 1.3;

    let indent = open_gate("ensemble", "ensemble_batching", smoke, standalone);
    println!("{indent}  \"model\": \"ring ±1..±4, desync sigma=3, coupling 4, sincos kernel, rk4 lockstep h=0.02, R={r} replicas with distinct init seeds, replica-shared random comm-delay field (mean 0.08, spread 0.02)\",");
    println!("{indent}  \"contract\": \"batched final states bitwise equal R independent runs (asserted every mode); shared-delay batched >= 1.3x at n=4096 (full mode)\",");
    println!(
        "{indent}  \"shared_delay\": {{\"n\": {n}, \"steps\": {esteps}, \"replicas\": {r}, \
         \"independent_replica_steps_per_sec\": {indep_sps:.0}, \
         \"batched_replica_steps_per_sec\": {batched_sps:.0}, \"speedup\": {speedup:.3}}},"
    );
    println!("{indent}  \"pass\": {pass}");
    close_gate(standalone);
    assert!(
        pass,
        "ensemble batching gate failed: shared-delay batched {speedup:.3}x < 1.3x over \
         independent at n = {n}"
    );
}

// --- Observability overhead gate --------------------------------------------

/// Swallows rows; the sweep gate measures execution, not serialization.
struct NullSink;

impl pom_sweep::ResultSink for NullSink {
    fn begin(&mut self, _spec: &pom_sweep::CampaignSpec) -> std::io::Result<()> {
        Ok(())
    }
    fn row(&mut self, row: &pom_sweep::PointRow) -> std::io::Result<()> {
        black_box(row.observables.first().map(|o| o.1));
        Ok(())
    }
    fn end(&mut self, _summary: &pom_sweep::CampaignSummary) -> std::io::Result<()> {
        Ok(())
    }
}

/// Interleaved best-of-`reps` measurement of two closures (baseline
/// first, candidate second, alternating) — clock drift between the two
/// cannot bias either column. Returns `(t_baseline, t_candidate)`.
fn time_pair(reps: usize, mut base: impl FnMut(), mut cand: impl FnMut()) -> (f64, f64) {
    let mut t_base = f64::INFINITY;
    let mut t_cand = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        base();
        t_base = t_base.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        cand();
        t_cand = t_cand.min(t0.elapsed().as_secs_f64());
    }
    (t_base, t_cand)
}

/// The ≤2%-disabled-overhead contract (pom-obs crate docs), measured:
///
/// * RK4: the solver's one step loop, `FixedStepSolver::integrate_observed`
///   with a `NoObserver` (obs disabled), vs
///   [`pom_bench::integrate_fixed_rk4_pre_obs`] — that loop replicated
///   without the instrumentation sites.
/// * sweep: the current `run_campaign` (obs disabled) vs
///   [`pom_bench::run_campaign_pre_obs`], same replica treatment.
///
/// Each gate retries up to three times before failing — best-of-reps
/// interleaving removes most scheduler noise, but a shared CI host can
/// still produce one bad attempt; a real regression fails all three.
/// The ratio floor is 0.98 in full mode and 0.90 in smoke mode (tiny
/// iteration counts measure mostly fixed costs).
fn obs_overhead_bench(smoke: bool, standalone: bool) {
    use pom_bench::{integrate_fixed_rk4_pre_obs, run_campaign_pre_obs};
    use pom_ode::{FixedStepSolver, NoObserver};
    use pom_sweep::run_campaign;

    // The gate measures the DISABLED path; enabled-mode numbers are
    // reported for context afterwards.
    pom_obs::set_enabled(false);

    let threshold = if smoke { 0.90 } else { 0.98 };
    let reps = if smoke { 2 } else { 5 };
    let attempts_max = 3;

    // RK4 gate: mid-size model, the bare step loop.
    let n = 64;
    let h = 0.02;
    let rk4_steps = if smoke { 300 } else { 30_000 };
    let t_end = h * rk4_steps as f64;
    let model = PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .build()
        .unwrap();
    let y0 = InitialCondition::RandomSpread {
        amplitude: 0.3,
        seed: 1,
    }
    .phases(n);
    let solver = FixedStepSolver::new(Rk4, h).unwrap();
    // One workspace per path: the timed closures hold their borrows
    // simultaneously.
    let mut ws_pre = Workspace::new();
    let mut ws_cur = Workspace::new();
    let run_cur = |ws: &mut Workspace| {
        solver
            .integrate_observed(&model, 0.0, &y0, t_end, ws, &mut NoObserver)
            .unwrap()
            .y_end
    };

    // Both loops must agree bitwise before either is timed.
    let a = integrate_fixed_rk4_pre_obs(&model, 0.0, &y0, t_end, h, &mut ws_pre);
    let b = run_cur(&mut ws_cur);
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "instrumented RK4 loop diverged from the pre-obs replica"
    );

    let mut rk4_ratio = 0.0f64;
    let mut rk4_pre_sps = 0.0;
    let mut rk4_cur_sps = 0.0;
    let mut rk4_attempts = 0;
    while rk4_attempts < attempts_max && rk4_ratio < threshold {
        rk4_attempts += 1;
        let (t_pre, t_cur) = time_pair(
            reps,
            || {
                black_box(integrate_fixed_rk4_pre_obs(
                    &model,
                    0.0,
                    &y0,
                    t_end,
                    h,
                    &mut ws_pre,
                ));
            },
            || {
                black_box(run_cur(&mut ws_cur));
            },
        );
        let (pre, cur) = (rk4_steps as f64 / t_pre, rk4_steps as f64 / t_cur);
        if cur / pre > rk4_ratio {
            (rk4_ratio, rk4_pre_sps, rk4_cur_sps) = (cur / pre, pre, cur);
        }
    }

    // Enabled-mode context number (not gated).
    pom_obs::set_enabled(true);
    let t_on = time_best(reps, || run_cur(&mut ws_cur)[0]);
    pom_obs::set_enabled(false);
    let rk4_on_sps = rk4_steps as f64 / t_on;

    // Sweep gate: the bench campaign through both executors, one worker
    // (multi-worker wall time is dominated by scheduling jitter, which
    // would swamp a 2% budget without measuring instrumentation at all).
    let campaign = Campaign::from_str(CAMPAIGN_SPEC).expect("bench spec");
    let points = campaign.total_points();
    let opts = pom_sweep::RunOptions::with_threads(1);

    let mut sweep_ratio = 0.0f64;
    let mut sweep_pre_pps = 0.0;
    let mut sweep_cur_pps = 0.0;
    let mut sweep_attempts = 0;
    while sweep_attempts < attempts_max && sweep_ratio < threshold {
        sweep_attempts += 1;
        let (t_pre, t_cur) = time_pair(
            reps,
            || {
                run_campaign_pre_obs(&campaign.spec, &opts, &mut NullSink).unwrap();
            },
            || {
                run_campaign(&campaign.spec, &opts, &mut NullSink).unwrap();
            },
        );
        let (pre, cur) = (points as f64 / t_pre, points as f64 / t_cur);
        if cur / pre > sweep_ratio {
            (sweep_ratio, sweep_pre_pps, sweep_cur_pps) = (cur / pre, pre, cur);
        }
    }

    pom_obs::set_enabled(true);
    let t_on = time_best(reps, || {
        run_campaign(&campaign.spec, &opts, &mut NullSink).unwrap();
        0.0
    });
    pom_obs::set_enabled(false);
    let sweep_on_pps = points as f64 / t_on;

    let pass = rk4_ratio >= threshold && sweep_ratio >= threshold;
    let indent = open_gate("obs_overhead", "obs_overhead_gate", smoke, standalone);
    println!("{indent}  \"contract\": \"instrumented hot paths with the obs switch off stay within threshold of faithful pre-obs replicas (interleaved best-of-{reps}, up to {attempts_max} attempts)\",");
    println!("{indent}  \"threshold\": {threshold},");
    println!(
        "{indent}  \"rk4\": {{\"n\": {n}, \"steps\": {rk4_steps}, \"pre_obs_steps_per_sec\": {rk4_pre_sps:.0}, \"disabled_steps_per_sec\": {rk4_cur_sps:.0}, \"enabled_steps_per_sec\": {rk4_on_sps:.0}, \"disabled_ratio\": {rk4_ratio:.4}, \"attempts\": {rk4_attempts}}},"
    );
    println!(
        "{indent}  \"sweep\": {{\"points\": {points}, \"pre_obs_points_per_sec\": {sweep_pre_pps:.1}, \"disabled_points_per_sec\": {sweep_cur_pps:.1}, \"enabled_points_per_sec\": {sweep_on_pps:.1}, \"disabled_ratio\": {sweep_ratio:.4}, \"attempts\": {sweep_attempts}}},"
    );
    println!("{indent}  \"pass\": {pass}");
    close_gate(standalone);
    assert!(
        pass,
        "obs disabled-mode overhead gate failed: rk4 ratio {rk4_ratio:.4}, \
         sweep ratio {sweep_ratio:.4} (threshold {threshold})"
    );
}

// --- Hardening overhead gate --------------------------------------------------

/// One-point campaign for the daemon gate: cheap enough (~100 µs) that
/// submit-to-first-row latency is daemon overhead, not integration time.
const SERVE_SPEC: &str = r#"
    [campaign]
    name = "serve-bench"
    seed = 9
    observables = ["final_r"]
    [model]
    n = 6
    [sim]
    t_end = 5.0
    samples = 10
    [[axes]]
    key = "model.coupling"
    values = [4.0]
"#;

/// Submit one job to `submit_path` (which may carry priority/deadline
/// query params), with an optional `X-Pom-Token` auth header, and block
/// until its first result row arrives on a `follow=1` stream; returns
/// the submit→first-row latency in seconds.
fn serve_one_job(addr: std::net::SocketAddr, submit_path: &str, token: Option<&str>) -> f64 {
    use std::io::{Read, Write};
    let t0 = Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to daemon");
    let auth = token.map_or(String::new(), |t| format!("X-Pom-Token: {t}\r\n"));
    write!(
        stream,
        "POST {submit_path} HTTP/1.1\r\nHost: bench\r\n{auth}Content-Length: {}\r\n\r\n{SERVE_SPEC}",
        SERVE_SPEC.len()
    )
    .expect("send request");
    let mut created = String::new();
    stream.read_to_string(&mut created).expect("read response");
    assert!(
        created.starts_with("HTTP/1.1 201"),
        "submit failed: {created}"
    );
    let id_tag = "\"job\":\"";
    let start = created.find(id_tag).expect("job id") + id_tag.len();
    let end = created[start..].find('"').unwrap() + start;
    let id = &created[start..end];

    let mut stream = std::net::TcpStream::connect(addr).expect("connect for stream");
    write!(
        stream,
        "GET /jobs/{id}/rows?follow=1 HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"
    )
    .expect("send stream request");
    let mut seen = String::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).expect("read stream");
        assert!(n > 0, "stream closed before the first row: {seen}");
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        // The header line has no "point" key; the first row does.
        if seen.contains("\"point\"") {
            return t0.elapsed().as_secs_f64();
        }
    }
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx] * 1e3
}

/// Submit-to-first-row latency and throughput with the full hardening
/// stack armed (token auth + quotas, priority/deadline parsing, the
/// admission counter, read/write deadlines) vs the plain daemon, at 1, 4
/// and 8 concurrent clients. None of the bounds trigger — this prices
/// the checks, not the rejections — and the full-mode gate asserts the
/// hardened path keeps ≥ 0.95× of plain throughput at the highest
/// concurrency. Emits `"serve_hardening"` (→ BENCH_serve_hardening.json
/// with `only=serve_hardening`).
fn serve_hardening_bench(smoke: bool, standalone: bool) {
    use pom_serve::{ServeConfig, Server, StopMode, TokenBook};

    let clients_list: &[usize] = if smoke { &[1, 2] } else { &[1, 4, 8] };
    let jobs_per_client = if smoke { 2 } else { 25 };
    let reps = if smoke { 1 } else { 3 };
    // Generous bounds: every request passes every check.
    let quota_toml = "[tokens.bench]\nmax_active_jobs = 4096\nmax_total_points = 0\n";

    // One concurrency row under one configuration on a fresh daemon +
    // spool; returns (jobs_per_sec, sorted latencies).
    let measure = |clients: usize, hardened: bool, rep: usize| -> (f64, Vec<f64>) {
        let spool = std::env::temp_dir().join(format!(
            "pom-bench-hard-{}-{hardened}-{clients}-{rep}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&spool);
        let mut cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            spool: spool.clone(),
            threads: 0,
            max_jobs: 8192,
            ..ServeConfig::default()
        };
        if hardened {
            cfg.auth = Some(TokenBook::parse(quota_toml).expect("bench quota book"));
            cfg.max_conns = 4096;
        }
        let (submit_path, token) = if hardened {
            ("/jobs?priority=high&deadline_ms=600000", Some("bench"))
        } else {
            ("/jobs", None)
        };
        let server = Server::start(cfg).expect("start daemon");
        let addr = server.addr();
        let t0 = Instant::now();
        let handles: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..jobs_per_client)
                        .map(|_| serve_one_job(addr, submit_path, token))
                        .collect()
                })
            })
            .collect();
        let mut latencies: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let summary = server.stop(StopMode::Drain);
        assert_eq!(
            summary.done,
            clients * jobs_per_client,
            "hardening bench left jobs unfinished (hardened={hardened})"
        );
        let _ = std::fs::remove_dir_all(&spool);
        latencies.sort_by(f64::total_cmp);
        (latencies.len() as f64 / wall, latencies)
    };

    let indent = open_gate("serve_hardening", "serve_hardening", smoke, standalone);
    println!(
        "{indent}  \"config\": \"hardened = token auth (max_active_jobs=4096), ?priority=high&deadline_ms=600000, max-conns=4096, 10s read/write deadlines; plain = PR 6 defaults; no bound triggers\","
    );
    println!(
        "{indent}  \"contract\": \"hardened throughput >= 0.95x plain at the top concurrency (gated in full mode), {jobs_per_client} jobs/client, best of {reps} reps\","
    );
    println!("{indent}  \"rows\": [");
    let mut top_ratio = 0.0f64;
    for (idx, &clients) in clients_list.iter().enumerate() {
        // Interleave plain/hardened reps so clock drift hits both sides.
        let mut plain = (0.0f64, Vec::new());
        let mut hard = (0.0f64, Vec::new());
        for rep in 0..reps {
            let p = measure(clients, false, rep);
            let h = measure(clients, true, rep);
            if p.0 > plain.0 {
                plain = p;
            }
            if h.0 > hard.0 {
                hard = h;
            }
        }
        let ratio = hard.0 / plain.0;
        top_ratio = ratio; // clients_list is ascending: last row wins
        let comma = if idx + 1 == clients_list.len() {
            ""
        } else {
            ","
        };
        println!(
            "{indent}      {{\"clients\": {clients}, \"plain_jobs_per_sec\": {:.1}, \"hardened_jobs_per_sec\": {:.1}, \
             \"plain_p50_ms\": {:.2}, \"hardened_p50_ms\": {:.2}, \"plain_p99_ms\": {:.2}, \"hardened_p99_ms\": {:.2}, \
             \"throughput_ratio\": {ratio:.3}}}{comma}",
            plain.0,
            hard.0,
            percentile_ms(&plain.1, 50.0),
            percentile_ms(&hard.1, 50.0),
            percentile_ms(&plain.1, 99.0),
            percentile_ms(&hard.1, 99.0),
        );
    }
    println!("{indent}  ],");
    println!("{indent}  \"top_concurrency_ratio\": {top_ratio:.3}");
    close_gate(standalone);
    if !smoke {
        assert!(
            top_ratio >= 0.95,
            "hardening costs too much: {top_ratio:.3}x of plain throughput (gate 0.95x)"
        );
    }
    pom_obs::set_enabled(false);
}
