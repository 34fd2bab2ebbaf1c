//! Steps/sec and campaign points/sec of the allocation-free workspace
//! core and the RHS kernel layer, emitted as JSON.
//!
//! The `rhs_kernels` section compares the `Exact` reference kernel
//! against the `SinCosSplit` fast path, serial and with intra-run
//! parallelism. (The per-step-allocation RK4 baseline the workspace core
//! replaced is recorded in `BENCH_rk4_workspace.json`.)
//!
//! ```bash
//! cargo run --release -p pom-bench --bin bench_steps > BENCH_steps.json
//! # CI smoke mode: tiny iteration counts, correctness asserts only —
//! # breaks the build on kernel regressions, asserts nothing about time.
//! cargo run --release -p pom-bench --bin bench_steps -- smoke=1
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, Normalization, PomBuilder, Potential, RhsKernel, SimOptions, SimWorkspace,
    SolverChoice,
};
use pom_ode::{OdeSystem, Rk4, Workspace};
use pom_sweep::{run_point, run_point_ws, Campaign};
use pom_topology::Topology;

// --- Heap accounting -------------------------------------------------------
// The streaming_observables section *asserts* the observed path's peak
// memory is O(N); that needs real numbers, not reasoning. A counting
// wrapper around the system allocator tracks live bytes and the
// high-water mark; `peak_during` measures the extra peak one closure
// adds. Overhead is two relaxed-ish atomics per (de)allocation — noise
// for the timed sections, whose hot loops don't allocate at all.

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        let live = LIVE_BYTES.fetch_add(size, Ordering::SeqCst) + size;
        PEAK_BYTES.fetch_max(live, Ordering::SeqCst);
    }
    fn on_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        Self::on_dealloc(layout.size());
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both simultaneously, and the peak must see it.
            Self::on_alloc(new_size);
            Self::on_dealloc(layout.size());
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and report the extra heap peak it caused, in bytes, relative
/// to the live heap at entry.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(base, Ordering::SeqCst);
    let out = f();
    let peak = PEAK_BYTES.load(Ordering::SeqCst);
    (out, peak.saturating_sub(base))
}

fn build_model(n: usize) -> pom_core::Pom {
    build_model_kernel(n, RhsKernel::Exact, 1)
}

fn build_model_kernel(n: usize, kernel: RhsKernel, rhs_threads: usize) -> pom_core::Pom {
    PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .kernel(kernel)
        .rhs_threads(rhs_threads)
        .build()
        .unwrap()
}

/// Like [`run_workspace`] but returning the full final state — the
/// correctness gates must compare every component, not a single
/// oscillator: on a ±1 ring a defect near a parallel chunk boundary takes
/// thousands of steps to propagate to `y[0]`.
fn run_workspace_state(
    model: &pom_core::Pom,
    y0: &[f64],
    h: f64,
    steps: usize,
    ws: &mut Workspace,
) -> Vec<f64> {
    use pom_ode::Stepper;
    let (stage, drive) = ws.split();
    let [mut y, mut y_next] = drive.slices::<2>(y0.len());
    y.copy_from_slice(y0);
    let mut t = 0.0;
    for _ in 0..steps {
        Rk4.step(model, t, y, h, y_next, stage);
        std::mem::swap(&mut y, &mut y_next);
        t += h;
    }
    y.to_vec()
}

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

/// Integrate `steps` RK4 steps with the workspace fast path (zero
/// allocations, monomorphized RHS calls, no recording); returns `y[0]`.
fn run_workspace<S: OdeSystem>(
    sys: &S,
    y0: &[f64],
    h: f64,
    steps: usize,
    ws: &mut Workspace,
) -> f64 {
    use pom_ode::Stepper;
    let (stage, drive) = ws.split();
    let [mut y, mut y_next] = drive.slices::<2>(y0.len());
    y.copy_from_slice(y0);
    let mut t = 0.0;
    for _ in 0..steps {
        Rk4.step(sys, t, y, h, y_next, stage);
        std::mem::swap(&mut y, &mut y_next);
        t += h;
    }
    y[0]
}

fn main() {
    // `smoke=1` shrinks every loop to a compile-and-run regression check
    // (the bitwise and accuracy asserts still fire); `steps=` overrides
    // the timed iteration count directly.
    let mut smoke = false;
    let mut steps_override: Option<usize> = None;
    let mut only: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.split_once('=') {
            Some(("smoke", v)) => smoke = v != "0",
            Some(("steps", v)) => steps_override = v.parse().ok(),
            Some(("only", v)) => only = Some(v.to_string()),
            _ => {
                eprintln!(
                    "usage: bench_steps [smoke=1] [steps=N] [only=obs|ensemble|serve_hardening]"
                );
                std::process::exit(2);
            }
        }
    }
    // `only=obs` / `only=ensemble` / `only=serve_hardening` run just that
    // gate and emit it as a standalone JSON document (→ BENCH_obs.json /
    // BENCH_ensemble.json / BENCH_serve_hardening.json).
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
    let h = 0.02;
    let steps = steps_override.unwrap_or(if smoke { 50 } else { 100_000 });
    let reps = if smoke { 1 } else { 7 };

    println!("{{");
    println!("  \"bench\": \"rk4_hot_loop_and_campaign_throughput\",");
    println!("  \"smoke\": {smoke},");
    println!("  \"units\": {{\"steps_per_sec\": \"RK4 steps/s\", \"points_per_sec\": \"campaign points/s (1 worker)\"}},");
    println!("  \"notes\": [");
    println!("    \"workspace = reused Workspace slices, monomorphized RHS, build-time coupling cache, fused intrinsic+coupling row pass; the per-step-allocation baseline it replaced is recorded in BENCH_rk4_workspace.json\",");
    println!("    \"rk4_hot_loop isolates the stepper machinery with a cheap norm-preserving RHS; rk4_pom_model is end-to-end on the oscillator RHS\",");
    println!("    \"campaign compares fresh vs reused workspace per point, interleaving the two measurements rep-by-rep so clock drift cannot bias either column (the historical 0.961x 'reuse regression' was exactly this bias: fresh was always timed first, reused second)\",");
    println!("    \"rhs_kernels: same model family at large N; exact = libm reference (bitwise-stable), sincos = sin/cos-split kernel, parallel = split + rhs_threads=0 (all cores); when the host exposes 1 CPU the parallel column degenerates to the serial split path\"");
    println!("  ],");

    // --- The RK4 hot loop itself -----------------------------------------
    // A coupled-pair rotation RHS (ẏ_{2k} = y_{2k+1}, ẏ_{2k+1} = −y_{2k})
    // keeps the right-hand side at a handful of instructions *and* the
    // state norm constant (a decaying RHS would underflow into denormals
    // over 10⁵ steps and poison the timing). This measures the stepper
    // machinery: reused workspace slices + monomorphized calls.
    println!("  \"rk4_hot_loop\": [");
    let sizes = [16usize, 64, 256];
    for (idx, &n) in sizes.iter().enumerate() {
        let lin = pom_ode::FnSystem::new(n, |_t, y: &[f64], d: &mut [f64]| {
            let mut i = 0;
            while i + 1 < y.len() {
                d[i] = y[i + 1];
                d[i + 1] = -y[i];
                i += 2;
            }
        });
        let y0: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.01).collect();
        let mut ws = Workspace::new();
        let t_ws = time_best(reps, || run_workspace(&lin, &y0, h, steps, &mut ws));
        let ws_sps = steps as f64 / t_ws;
        let comma = if idx + 1 == sizes.len() { "" } else { "," };
        println!("    {{\"n\": {n}, \"workspace_steps_per_sec\": {ws_sps:.0}}}{comma}");
    }
    println!("  ],");

    // --- End-to-end on the oscillator model ------------------------------
    // The same loop driving the POM right-hand side (ring, desync
    // potential), where the RHS cost (one sin per neighbor per stage)
    // dominates.
    println!("  \"rk4_pom_model\": [");
    for (idx, &n) in sizes.iter().enumerate() {
        let model = build_model(n);
        let y0 = InitialCondition::RandomSpread {
            amplitude: 0.3,
            seed: 1,
        }
        .phases(n);
        let mut ws = Workspace::new();
        let t_ws = time_best(reps, || run_workspace(&model, &y0, h, steps, &mut ws));
        let ws_sps = steps as f64 / t_ws;
        let comma = if idx + 1 == sizes.len() { "" } else { "," };
        println!("    {{\"n\": {n}, \"workspace_steps_per_sec\": {ws_sps:.0}}}{comma}");
    }
    println!("  ],");

    // --- RHS kernel layer ------------------------------------------------
    // Exact (libm reference) vs the sin/cos-split kernel, serial and with
    // intra-run parallelism, at continuum-scale N. The model family is the
    // same as rk4_pom_model (ring ±1, desync σ=3, degree normalization);
    // "exact serial" IS the current workspace path, so the speedup columns
    // read directly as "what the kernel layer buys".
    let par_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  \"rhs_kernels\": {{");
    println!("    \"model\": \"ring ±1, desync sigma=3, coupling 4, degree normalization\",");
    println!("    \"parallel_rhs_threads\": {par_threads},");
    println!("    \"rows\": [");
    let kernel_sizes = [16usize, 256, 4096, 65536];
    for (idx, &n) in kernel_sizes.iter().enumerate() {
        // Time-scaled step counts: large N costs more per step.
        let ksteps = if smoke {
            20
        } else {
            steps_override.unwrap_or((4_000_000 / n).max(40))
        };
        let exact = build_model_kernel(n, RhsKernel::Exact, 1);
        let split = build_model_kernel(n, RhsKernel::SinCosSplit, 1);
        let split_par = build_model_kernel(n, RhsKernel::SinCosSplit, 0);
        let y0 = InitialCondition::RandomSpread {
            amplitude: 0.3,
            seed: 1,
        }
        .phases(n);

        // Correctness gates (these are what the CI smoke job exercises):
        // the split kernel tracks the exact one within the documented
        // policy, and intra-run parallelism does not move a single bit.
        let check_steps = 200.min(ksteps.max(50));
        let mut ws = Workspace::new();
        let refv = run_workspace_state(&exact, &y0, h, check_steps, &mut ws);
        let a = run_workspace_state(&split, &y0, h, check_steps, &mut ws);
        let b = run_workspace_state(&split_par, &y0, h, check_steps, &mut ws);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "split kernel diverged across rhs_threads at n = {n}"
        );
        let drift = refv
            .iter()
            .zip(&a)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(
            drift < 1e-9,
            "split kernel drifted {drift:e} from exact after {check_steps} steps at n = {n}"
        );

        let t_exact = time_best(reps, || run_workspace(&exact, &y0, h, ksteps, &mut ws));
        let t_split = time_best(reps, || run_workspace(&split, &y0, h, ksteps, &mut ws));
        let t_par = time_best(reps, || run_workspace(&split_par, &y0, h, ksteps, &mut ws));
        let (e_sps, s_sps, p_sps) = (
            ksteps as f64 / t_exact,
            ksteps as f64 / t_split,
            ksteps as f64 / t_par,
        );
        let comma = if idx + 1 == kernel_sizes.len() {
            ""
        } else {
            ","
        };
        println!(
            "      {{\"n\": {n}, \"steps\": {ksteps}, \"exact_steps_per_sec\": {e_sps:.0}, \"split_steps_per_sec\": {s_sps:.0}, \"split_parallel_steps_per_sec\": {p_sps:.0}, \"split_speedup\": {:.3}, \"split_parallel_speedup\": {:.3}}}{comma}",
            s_sps / e_sps,
            p_sps / e_sps
        );
    }
    println!("    ]");
    println!("  }},");

    // --- Streaming observables: O(1)-memory long-horizon runs ------------
    // The pipeline this PR adds: simulate_observed folds observables
    // online (order parameter, adjacent gaps) and allocates NO per-step
    // trajectory storage. The columns compare, at n ∈ {4096, 65536}:
    //   * observed_peak_bytes — extra heap peak of the full observed run
    //     (workspace + split scratch + probe), ASSERTED to stay O(N)
    //     whatever the step count;
    //   * trajectory_bytes_per_step — what the recording path pays per
    //     retained sample (measured on a short recorded run, asserted
    //     ≥ 8·n·0.9), i.e. what 10⁵ full-resolution steps would cost.
    // Smoke mode shrinks the horizons; the assertions still gate.
    println!("  \"streaming_observables\": {{");
    println!("    \"model\": \"ring ±1, desync sigma=3, coupling 4, sincos kernel, rk4 h=0.02\",");
    println!("    \"rows\": [");
    let obs_sizes = [4096usize, 65536];
    for (idx, &n) in obs_sizes.iter().enumerate() {
        let h = 0.02;
        // Long horizon: 1e5 steps at full scale (the acceptance bar for
        // the n = 65536 regime), tiny in smoke mode.
        let osteps = if smoke {
            200
        } else {
            steps_override.unwrap_or(100_000)
        };
        let t_end = h * osteps as f64;
        let opts = SimOptions::new(t_end).solver(SolverChoice::FixedRk4 { h });
        let model = build_model_kernel(n, RhsKernel::SinCosSplit, 1);
        let init = InitialCondition::RandomSpread {
            amplitude: 0.3,
            seed: 1,
        };

        // Observed run, cold workspace: the measured peak is everything
        // the observable path ever holds at once.
        let mut ws = SimWorkspace::new();
        let mut probe = RunSummaryProbe::new();
        let t0 = Instant::now();
        let (summary, observed_peak) = peak_during(|| {
            model
                .simulate_observed_ws(init.clone(), &opts, &mut probe, &mut ws)
                .expect("observed run")
        });
        let observed_secs = t0.elapsed().as_secs_f64();
        assert_eq!(summary.n_steps(), osteps);
        assert!(summary.final_order_parameter().is_finite());

        // THE assertion: peak observable-path memory is O(N) — a few
        // dozen length-n buffers (integrator workspace, sin/cos scratch,
        // summary state), nothing proportional to the step count.
        let budget = 64 * n * 8 + (1 << 20);
        assert!(
            observed_peak <= budget,
            "observed path peak {observed_peak} B exceeds O(N) budget {budget} B at n = {n}"
        );
        // And it is genuinely step-count independent: doubling a (short)
        // horizon must not move the peak. Short probes keep the full
        // bench's wall time sane — the property is per-step independence,
        // not horizon size.
        let p_steps = osteps.min(500);
        let peak_at = |steps: usize, ws: &mut SimWorkspace| {
            let o = SimOptions::new(h * steps as f64).solver(SolverChoice::FixedRk4 { h });
            let mut probe = RunSummaryProbe::new();
            peak_during(|| {
                model
                    .simulate_observed_ws(init.clone(), &o, &mut probe, ws)
                    .expect("observed probe run")
            })
            .1
        };
        let (p1, p2) = (peak_at(p_steps, &mut ws), peak_at(2 * p_steps, &mut ws));
        // The actual independence assertion: the doubled horizon's peak
        // must not exceed the single horizon's (small slack for allocator
        // rounding). A per-step leak anywhere in the observed path fails
        // here long before it would dent the O(N) budget above.
        assert!(
            p2 <= p1 + (64 << 10),
            "doubled horizon moved the observed peak {p1} → {p2} B at n = {n}"
        );

        // Recording path, full-resolution samples, short horizon: its
        // peak grows with every retained sample — the cost the observed
        // path removes. (Kept short so the bench itself stays sane.)
        let rec_steps = if smoke { 50 } else { 512 };
        let rec_opts = SimOptions::new(h * rec_steps as f64)
            .samples(rec_steps + 1)
            .solver(SolverChoice::FixedRk4 { h });
        let mut ws_rec = SimWorkspace::new();
        let (run, rec_peak) = peak_during(|| {
            model
                .simulate_with_ws(init.clone(), &rec_opts, &mut ws_rec)
                .expect("recorded run")
        });
        assert_eq!(run.trajectory().len(), rec_steps + 1);
        let rec_bytes_per_step = rec_peak as f64 / rec_steps as f64;
        assert!(
            rec_bytes_per_step >= 8.0 * n as f64 * 0.9,
            "recorded path must pay ≥ one state row per sample: {rec_bytes_per_step} B/step at n = {n}"
        );

        let comma = if idx + 1 == obs_sizes.len() { "" } else { "," };
        println!(
            "      {{\"n\": {n}, \"steps\": {osteps}, \"observed_peak_bytes\": {observed_peak}, \
             \"observed_steps_per_sec\": {:.0}, \"trajectory_bytes_per_step\": {rec_bytes_per_step:.0}, \
             \"projected_trajectory_bytes_at_steps\": {:.0}, \"memory_ratio\": {:.1}}}{comma}",
            osteps as f64 / observed_secs,
            rec_bytes_per_step * osteps as f64,
            rec_bytes_per_step * osteps as f64 / observed_peak as f64,
        );
    }
    println!("    ]");
    println!("  }},");

    // --- Ensemble batching -------------------------------------------------
    // Batched R-replica lockstep vs R independent runs, bitwise assert
    // embedded (this is what the CI smoke job gates).
    ensemble_bench(smoke, false);

    // --- Observability overhead gate --------------------------------------
    // Instrumented hot paths with the obs switch OFF vs faithful pre-obs
    // replicas; asserts the disabled-mode cost stays within the documented
    // budget. Runs before serve_bench, which flips the global switch on.
    obs_overhead_bench(smoke, false);

    // --- The campaign daemon ---------------------------------------------
    // Job throughput and submit-to-first-row latency through the full
    // pom-serve stack (socket → HTTP parse → spec parse → spool write →
    // scheduler → worker → flushed row → chunked stream back), at 1, 4
    // and 8 concurrent clients. Each job is a single cheap point, so the
    // columns measure daemon overhead, not integration time.
    serve_bench(smoke);

    // --- Hardening overhead gate ------------------------------------------
    // The same daemon with every hostile-traffic bound armed (none
    // triggering): auth + quota checks, priority/deadline parsing,
    // admission accounting, socket deadlines. Gate: ≥ 0.95× plain
    // throughput in full mode.
    serve_hardening_bench(smoke, false);

    // Campaign throughput: fresh workspace per point vs one reused
    // workspace (what the executor's workers now do). Both already use
    // the allocation-free step loop — the per-step-allocation removal
    // itself is captured by the "rk4" section above — so this isolates
    // the marginal win of per-worker workspace reuse. The two columns are
    // measured interleaved (fresh, reused, fresh, reused, …): the earlier
    // back-to-back arrangement let CPU clock drift between the two blocks
    // masquerade as a reuse regression.
    let campaign = Campaign::from_str(CAMPAIGN_SPEC).expect("bench spec");
    let points = campaign.total_points();
    let campaign_reps = if smoke { 1 } else { 9 };
    let mut t_fresh = f64::INFINITY;
    let mut t_reused = f64::INFINITY;
    for _ in 0..campaign_reps {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for i in 0..points {
            acc += run_point(&campaign.spec, i).observables[0].1;
        }
        black_box(acc);
        t_fresh = t_fresh.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut ws = SimWorkspace::new();
        let mut acc = 0.0;
        for i in 0..points {
            acc += run_point_ws(&campaign.spec, i, &mut ws).observables[0].1;
        }
        black_box(acc);
        t_reused = t_reused.min(t0.elapsed().as_secs_f64());
    }
    let fresh_pps = points as f64 / t_fresh;
    let reused_pps = points as f64 / t_reused;
    println!(
        "  \"campaign\": {{\"points\": {points}, \"fresh_points_per_sec\": {fresh_pps:.2}, \"reused_points_per_sec\": {reused_pps:.2}, \"speedup\": {:.3}}}",
        reused_pps / fresh_pps
    );
    println!("}}");
}

// --- Ensemble batching bench -------------------------------------------------

/// Batched R-replica lockstep integration (`PomEnsemble`, interleaved SoA
/// state) vs R independent `simulate_observed_ws` runs of the same model.
/// The bitwise-identity assert fires in every mode — CI smoke gates
/// correctness even when timing would be meaningless; the ≥1.3× speedup
/// gate at n = 4096 only fires in full mode.
fn ensemble_bench(smoke: bool, standalone: bool) {
    use pom_core::{NoObserver, PomEnsemble};

    let r = 5usize;
    let h = 0.02;
    let reps = if smoke { 1 } else { 5 };
    let sizes = [256usize, 4096, 65536];
    // Eight neighbors per oscillator: enough per-row work that the
    // shared passes have something to amortize. The `delay` variant adds
    // a replica-shared random comm-delay field — deterministic hardware
    // latencies of the one modelled machine, identical across replicas —
    // which puts the run on the DDE path, where independent runs
    // re-evaluate the same delay field and re-search the same history
    // segments R times.
    let build = |n: usize, delay: bool| {
        let mut b = PomBuilder::new(n)
            .topology(Topology::ring(n, &[-4, -3, -2, -1, 1, 2, 3, 4]))
            .potential(Potential::desync(3.0))
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(4.0)
            .normalization(Normalization::ByDegree)
            .kernel(RhsKernel::SinCosSplit);
        if delay {
            b = b.interaction_noise(pom_noise::RandomCommDelay::new(77, n, 0.08, 0.02, 0.5));
        }
        b.build().unwrap()
    };

    let indent = if standalone { "" } else { "  " };
    if standalone {
        println!("{{");
        println!("  \"bench\": \"ensemble_batching\",");
        println!("  \"smoke\": {smoke},");
    } else {
        println!("  \"ensemble\": {{");
    }
    println!("{indent}  \"model\": \"ring ±1..±4, desync sigma=3, coupling 4, sincos kernel, rk4 lockstep h=0.02, R={r} replicas with distinct init seeds; delay_rows add a replica-shared random comm-delay field (mean 0.08, spread 0.02)\",");
    println!("{indent}  \"contract\": \"batched final states bitwise equal R independent runs (asserted every row, every mode); shared-delay batched >= 1.3x at n=4096 (full mode)\",");

    let mut gate_pass = true;
    for (delay, rows_key) in [(false, "ode_rows"), (true, "delay_rows")] {
        println!("{indent}  \"{rows_key}\": [");
        for (idx, &n) in sizes.iter().enumerate() {
            // Delay steps are ~100x an ODE step (history sampling per
            // pair per stage), so the DDE rows run far fewer of them.
            let esteps = match (smoke, delay) {
                (true, false) => 10,
                (true, true) => 3,
                (false, false) => (1_500_000 / n).max(20),
                (false, true) => (32_768 / n).clamp(3, 120),
            };
            let reps_row = if delay && n >= 65_536 {
                reps.min(2)
            } else {
                reps
            };
            let t_end = h * esteps as f64;
            let opts = SimOptions::new(t_end).solver(SolverChoice::FixedRk4 { h });
            let inits: Vec<InitialCondition> = (0..r)
                .map(|rep| InitialCondition::RandomSpread {
                    amplitude: 0.3,
                    seed: 1000 + rep as u64,
                })
                .collect();
            let single = build(n, delay);
            let ensemble = PomEnsemble::new((0..r).map(|_| build(n, delay)).collect());
            let mut ws = SimWorkspace::new();

            // Correctness gate, every mode: the batch IS the R
            // independent runs, bit for bit.
            let independent: Vec<Vec<f64>> = inits
                .iter()
                .map(|init| {
                    single
                        .simulate_observed_ws(init.clone(), &opts, &mut NoObserver, &mut ws)
                        .expect("independent run")
                        .final_state()
                        .to_vec()
                })
                .collect();
            let mut observers = vec![NoObserver; r];
            let batched = ensemble
                .simulate_observed_ws(&inits, &opts, &mut observers, &mut ws)
                .expect("batched run");
            for rep in 0..r {
                assert!(
                    batched[rep]
                        .final_state()
                        .iter()
                        .zip(&independent[rep])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "batched replica {rep} diverged from its independent run \
                     at n = {n} (delay = {delay})"
                );
            }

            // Timing, with retries on the gated row: best-of-reps absorbs
            // most scheduler noise, a shared host can still produce one
            // bad attempt.
            let gated = !smoke && delay && n == 4096;
            let mut speedup = 0.0;
            let mut indep_sps = 0.0;
            let mut batched_sps = 0.0;
            for _attempt in 0..3 {
                let t_indep = time_best(reps_row, || {
                    inits
                        .iter()
                        .map(|init| {
                            single
                                .simulate_observed_ws(init.clone(), &opts, &mut NoObserver, &mut ws)
                                .expect("independent run")
                                .final_state()[0]
                        })
                        .sum()
                });
                let t_batched = time_best(reps_row, || {
                    let mut observers = vec![NoObserver; r];
                    ensemble
                        .simulate_observed_ws(&inits, &opts, &mut observers, &mut ws)
                        .expect("batched run")[0]
                        .final_state()[0]
                });
                // Replica-steps/sec: both columns advance R replicas
                // esteps steps, so the ratio reads directly as
                // amortization.
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
            if gated && speedup < 1.3 {
                gate_pass = false;
            }

            let comma = if idx + 1 == sizes.len() { "" } else { "," };
            println!(
                "{indent}    {{\"n\": {n}, \"steps\": {esteps}, \"replicas\": {r}, \
                 \"independent_replica_steps_per_sec\": {indep_sps:.0}, \
                 \"batched_replica_steps_per_sec\": {batched_sps:.0}, \
                 \"speedup\": {speedup:.3}}}{comma}"
            );
        }
        println!("{indent}  ],");
    }
    println!("{indent}  \"pass\": {gate_pass}");
    if standalone {
        println!("}}");
    } else {
        println!("  }},");
    }
    assert!(
        gate_pass,
        "ensemble batching gate failed: shared-delay batched < 1.3x over \
         independent at n = 4096"
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
    let model = build_model(n);
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
    let indent = if standalone { "" } else { "  " };
    if standalone {
        println!("{{");
        println!("  \"bench\": \"obs_overhead_gate\",");
        println!("  \"smoke\": {smoke},");
    } else {
        println!("  \"obs_overhead\": {{");
    }
    println!("{indent}  \"contract\": \"instrumented hot paths with the obs switch off stay within threshold of faithful pre-obs replicas (interleaved best-of-{reps}, up to {attempts_max} attempts)\",");
    println!("{indent}  \"threshold\": {threshold},");
    println!(
        "{indent}  \"rk4\": {{\"n\": {n}, \"steps\": {rk4_steps}, \"pre_obs_steps_per_sec\": {rk4_pre_sps:.0}, \"disabled_steps_per_sec\": {rk4_cur_sps:.0}, \"enabled_steps_per_sec\": {rk4_on_sps:.0}, \"disabled_ratio\": {rk4_ratio:.4}, \"attempts\": {rk4_attempts}}},"
    );
    println!(
        "{indent}  \"sweep\": {{\"points\": {points}, \"pre_obs_points_per_sec\": {sweep_pre_pps:.1}, \"disabled_points_per_sec\": {sweep_cur_pps:.1}, \"enabled_points_per_sec\": {sweep_on_pps:.1}, \"disabled_ratio\": {sweep_ratio:.4}, \"attempts\": {sweep_attempts}}},"
    );
    println!("{indent}  \"pass\": {pass}");
    if standalone {
        println!("}}");
    } else {
        println!("  }},");
    }

    assert!(
        pass,
        "obs disabled-mode overhead gate failed: rk4 ratio {rk4_ratio:.4}, \
         sweep ratio {sweep_ratio:.4} (threshold {threshold})"
    );
}

// --- pom-serve daemon bench -------------------------------------------------

/// One-point campaign for the daemon bench: cheap enough (~100 µs) that
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

/// Minimal blocking HTTP request against the embedded daemon, with an
/// optional `X-Pom-Token` auth header; returns the raw response (status
/// line, headers, body).
fn serve_http_with(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    token: Option<&str>,
    body: &str,
) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to daemon");
    let auth = token.map_or(String::new(), |t| format!("X-Pom-Token: {t}\r\n"));
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\n{auth}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Submit one job and block until its first result row arrives on a
/// `follow=1` stream; returns the submit→first-row latency in seconds.
fn serve_one_job(addr: std::net::SocketAddr) -> f64 {
    serve_one_job_with(addr, "/jobs", None)
}

/// [`serve_one_job`] with a custom submit path (priority/deadline query
/// params) and auth token — the hardened-daemon request shape.
fn serve_one_job_with(addr: std::net::SocketAddr, submit_path: &str, token: Option<&str>) -> f64 {
    use std::io::{Read, Write};
    let t0 = Instant::now();
    let created = serve_http_with(addr, "POST", submit_path, token, SERVE_SPEC);
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

/// Jobs/sec and submit-to-first-row latency through the daemon at
/// several client concurrencies. Emits the `"serve"` JSON section.
fn serve_bench(smoke: bool) {
    use pom_serve::{ServeConfig, Server, StopMode};

    let spool = std::env::temp_dir().join(format!("pom-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        spool: spool.clone(),
        threads: 0,
        max_jobs: 64,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();

    let clients_list: &[usize] = if smoke { &[1, 2] } else { &[1, 4, 8] };
    let jobs_per_client = if smoke { 2 } else { 25 };

    println!("  \"serve\": {{");
    println!("    \"spec\": \"1-point campaign (n=6, t_end=5): latency is daemon overhead, not integration\",");
    println!("    \"jobs_per_client\": {jobs_per_client},");
    println!("    \"rows\": [");
    let mut expected_jobs = 0usize;
    for (idx, &clients) in clients_list.iter().enumerate() {
        let t0 = Instant::now();
        let handles: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..jobs_per_client).map(|_| serve_one_job(addr)).collect()
                })
            })
            .collect();
        let mut latencies: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        expected_jobs += clients * jobs_per_client;

        latencies.sort_by(f64::total_cmp);
        let jobs = latencies.len();
        let comma = if idx + 1 == clients_list.len() {
            ""
        } else {
            ","
        };
        println!(
            "      {{\"clients\": {clients}, \"jobs\": {jobs}, \"jobs_per_sec\": {:.1}, \
             \"submit_to_first_row_p50_ms\": {:.2}, \"submit_to_first_row_p99_ms\": {:.2}}}{comma}",
            jobs as f64 / wall,
            percentile_ms(&latencies, 50.0),
            percentile_ms(&latencies, 99.0),
        );
    }
    println!("    ]");
    println!("  }},");

    // Correctness gate: every submitted job must have drained to done
    // with exactly its one row durable.
    let summary = server.stop(StopMode::Drain);
    assert_eq!(
        summary.done, expected_jobs,
        "daemon bench left jobs unfinished"
    );
    assert_eq!(summary.rows_written, expected_jobs);
    let _ = std::fs::remove_dir_all(&spool);
    // Server::start flipped the global obs switch on; the campaign
    // section that follows must measure under pre-PR conditions.
    pom_obs::set_enabled(false);
}

/// Submit-to-first-row latency and throughput with the full hardening
/// stack armed (token auth + quotas, priority/deadline parsing, the
/// admission counter, read/write deadlines) vs the plain daemon, at the
/// same client concurrencies as the `serve` section. None of the bounds
/// trigger — this prices the checks, not the rejections — and the full-
/// mode gate asserts the hardened path keeps ≥ 0.95× of plain
/// throughput at the highest concurrency. Emits `"serve_hardening"`
/// (→ BENCH_serve_hardening.json with `only=serve_hardening`).
fn serve_hardening_bench(smoke: bool, standalone: bool) {
    use pom_serve::{ServeConfig, Server, StopMode, TokenBook};

    let clients_list: &[usize] = if smoke { &[1, 2] } else { &[1, 4, 8] };
    let jobs_per_client = if smoke { 2 } else { 25 };
    let reps = if smoke { 1 } else { 3 };
    // Generous bounds: every request passes every check.
    let quota_toml = "[tokens.bench]\nmax_active_jobs = 4096\nmax_total_points = 0\n";
    let submit_path = "/jobs?priority=high&deadline_ms=600000";

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
        let server = Server::start(cfg).expect("start daemon");
        let addr = server.addr();
        let t0 = Instant::now();
        let handles: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..jobs_per_client)
                        .map(|_| {
                            if hardened {
                                serve_one_job_with(addr, submit_path, Some("bench"))
                            } else {
                                serve_one_job(addr)
                            }
                        })
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

    let indent = if standalone { "" } else { "  " };
    if standalone {
        println!("{{");
        println!("  \"bench\": \"serve_hardening\",");
        println!("  \"smoke\": {smoke},");
    } else {
        println!("  \"serve_hardening\": {{");
    }
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
    if standalone {
        println!("}}");
    } else {
        println!("  }},");
    }
    if !smoke {
        assert!(
            top_ratio >= 0.95,
            "hardening costs too much: {top_ratio:.3}x of plain throughput (gate 0.95x)"
        );
    }
    pom_obs::set_enabled(false);
}
