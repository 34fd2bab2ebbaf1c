//! `continuum_65536`: repeated observed integrations of one n = 65536
//! ±1 ring (desync σ = 3, sin/cos-split kernel, `rhs_threads = 2`,
//! fixed-step RK4) with a `RunSummaryProbe` attached. The split kernel,
//! the `ChunkPool` fork-join and the probe pass do nearly all the work;
//! per-integration fixed costs are near zero and the O(n) memory contract
//! is what `peak_heap_mb` watches.

use std::hint::black_box;
use std::io;
use std::time::Instant;

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, Normalization, Pom, PomBuilder, Potential, RhsKernel, SimOptions,
    SimWorkspace, SolverChoice,
};
use pom_kernels::ChunkPool;
use pom_ode::{FixedStepSolver, OdeSystem, Rk4};
use pom_topology::Topology;

use crate::sweep::rhs_cost;
use crate::trace::{aggregate, TimedObs, TimedOde, Tracer};
use crate::util::{self, Clock, Rng};
use crate::{E2e, Layers, Op, Traced};

pub const N: usize = 65536;
const H: f64 = 0.02;
/// RK4 steps per integration.
pub const STEPS: usize = 20;
const THREADS: usize = 2;

const SALT_OPS: u64 = 11;
const SALT_WARM: u64 = 12;

pub fn model(rhs_threads: usize) -> Pom {
    PomBuilder::new(N)
        .topology(Topology::ring(N, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .kernel(RhsKernel::SinCosSplit)
        .rhs_threads(rhs_threads)
        .build()
        .expect("continuum model parameters are valid")
}

fn opts() -> SimOptions {
    SimOptions::new(H * STEPS as f64).solver(SolverChoice::FixedRk4 { h: H })
}

/// The seeded initial condition of operation `op`.
fn init(seed: u64, salt: u64, op: u64) -> InitialCondition {
    let mut rng = Rng::for_op(seed, salt, op);
    InitialCondition::RandomSpread {
        amplitude: rng.real(0.1, 0.6),
        seed: rng.seed(),
    }
}

/// Computed bytes the integration touches per step: the RK4 state and
/// stage buffers (6 n-vectors), the sin/cos scratch (2) and the coupling
/// cache (1). Compared against the last-level cache in the provenance.
pub fn working_set_bytes() -> u64 {
    (9 * 8 * N) as u64
}

/// One observed integration, the way a library user runs it.
fn observe(model: &Pom, init: InitialCondition, ws: &mut SimWorkspace) -> io::Result<Op> {
    let mut probe = RunSummaryProbe::new();
    let t0 = Instant::now();
    let sum = model
        .simulate_observed_ws(init, &opts(), &mut probe, ws)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let secs = t0.elapsed().as_secs_f64();
    // One result row per integration, available when it returns.
    Ok(Op {
        secs,
        points: 1,
        first_row: Some(secs),
        hash: util::fnv_f64(sum.final_state()),
        ok: sum.n_steps() == STEPS
            && probe.r.stats.count() == STEPS as u64 + 1
            && sum.final_order_parameter().is_finite(),
    })
}

/// Program set-up: model build plus workspace allocation (one step warms
/// the integrator buffers in `ws`).
fn setup_once(seed: u64, k: u64, ws: &mut SimWorkspace) -> io::Result<Pom> {
    let m = model(THREADS);
    let one = SimOptions::new(H).solver(SolverChoice::FixedRk4 { h: H });
    m.simulate_observed_ws(
        init(seed, SALT_WARM, k),
        &one,
        &mut RunSummaryProbe::new(),
        ws,
    )
    .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(m)
}

pub fn run(seed: u64, seconds: f64) -> io::Result<E2e> {
    let mut e = E2e::with_capacity(1 << 14);
    let mut ws = SimWorkspace::new();
    let m = setup_once(seed, 0, &mut ws)?;
    let warm = Clock::new(0.3);
    let mut k = 100;
    while warm.running() {
        observe(&m, init(seed, SALT_WARM, k), &mut ws)?;
        k += 1;
    }

    let op = e.closed_loop(
        seconds,
        |k| setup_once(seed, k + 1, &mut SimWorkspace::new()),
        |k| observe(&m, init(seed, SALT_OPS, k), &mut ws),
    )?;

    // Check: the final state is bitwise equal at rhs_threads 1 and 2.
    let serial = model(1);
    for i in [0, op / 2, op.saturating_sub(1)] {
        let one = observe(&serial, init(seed, SALT_OPS, i), &mut SimWorkspace::new())?;
        e.attempted += 1;
        if one.hash != e.hashes[i as usize] {
            e.failed += 1;
            eprintln!(
                "continuum_65536: integration {i} differs between rhs_threads 1 and {THREADS}"
            );
        }
    }
    e.note("integrations", op);
    e.note("steps_per_integration", STEPS);
    e.note(
        "osc_steps_per_s",
        format!("{:.0}", (N * STEPS) as f64 * e.points_per_s()),
    );
    Ok(e)
}

/// Median wall time of an empty fork-join on a two-thread pool, in µs.
pub fn dispatch_us() -> f64 {
    let pool = ChunkPool::new(THREADS);
    let noop = |_slot: usize, range: std::ops::Range<usize>| {
        black_box(range);
    };
    for _ in 0..200 {
        pool.run(THREADS, &noop);
    }
    let mut t = util::time_reps(2000, || pool.run(THREADS, &noop));
    util::median(&mut t) * 1e6
}

pub fn traced(seed: u64, seconds: f64, tr: &Tracer) -> io::Result<Traced> {
    let m = tr.span("core.build", 0, 0, |_| model(THREADS));
    let mut ws = SimWorkspace::new();
    let mut e = E2e::with_capacity(1 << 14);
    let clock = Clock::new(seconds);
    let mut op = 0u64;
    let opts = opts();
    while clock.running() {
        let trace = op + 1;
        let at = clock.fraction();
        let t0 = Instant::now();
        let sum = tr.span("core.simulate", trace, 0, |sid| {
            let y0 = tr.span("core.init", trace, sid, |_| {
                init(seed, SALT_OPS, op).phases(N)
            });
            let sys = TimedOde::new(&m);
            let mut probe = TimedObs::new(RunSummaryProbe::new());
            tr.span_work("ode.integrate", trace, sid, |iid| {
                let out = FixedStepSolver::new(Rk4, H).and_then(|s| {
                    s.integrate_observed(&sys, 0.0, &y0, opts.t_end, ws.ode(), &mut probe)
                });
                tr.record("core.rhs_eval", trace, iid, sys.ns.get(), sys.calls.get());
                tr.record("analysis.probe", trace, iid, probe.ns, probe.calls);
                let steps = out.as_ref().map_or(0, |s| s.n_steps as u64);
                (out, steps)
            })
            .0
        });
        let secs = t0.elapsed().as_secs_f64();
        let sum = sum.map_err(|e| io::Error::other(e.to_string()))?;
        e.op(at, secs, 1, Some(secs), util::fnv_f64(&sum.y_end));
        e.attempted += 1;
        op += 1;
    }

    // The same RHS at rhs_threads 1 and 2 on one state, interleaved.
    let serial = model(1);
    let y = init(seed, SALT_OPS, 0).phases(N);
    let mut d = vec![0.0; N];
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let t1 = util::time_reps(3, || serial.eval(0.0, &y, &mut d));
            let t2 = util::time_reps(3, || m.eval(0.0, &y, &mut d));
            util::mean(&t1) / util::mean(&t2)
        })
        .collect();

    let agg = aggregate(&tr.spans());
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    let mut layers = Layers::new();
    layers.insert("core.build_us", util::mean(&get("core.build").durs_us));
    layers.insert("core.rhs_eval_us", get("core.rhs_eval").per_call_us());
    let (bytes, flops) = rhs_cost(N, 2 * N, true);
    layers.insert("core.rhs_bytes_per_eval", bytes);
    layers.insert("core.rhs_flops_per_eval", flops);
    let integ = get("ode.integrate");
    layers.insert("ode.integrate_us", util::mean(&integ.durs_us));
    layers.insert("ode.steps", integ.work as f64 / integ.calls.max(1) as f64);
    layers.insert(
        "ode.step_self_us",
        integ.self_us.iter().sum::<f64>() / integ.work.max(1) as f64,
    );
    layers.insert("analysis.probe_us", get("analysis.probe").per_call_us());
    layers.insert("kernels.dispatch_us", dispatch_us());
    layers.insert("kernels.rhs_parallel_speedup", util::median(&mut ratios));
    Ok(Traced { layers, e2e: e })
}
