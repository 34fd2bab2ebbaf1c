//! `delay_ensemble`: an R = 5 `PomEnsemble` of an n = 4096 ring sharing
//! one `RandomCommDelay` field, integrated observed with fixed-step DDE
//! RK4. No sweep spec or CLI key reaches this path; it is the only
//! workload that exercises the interaction-noise τ field and the DDE
//! history.

use std::hint::black_box;
use std::io;
use std::time::Instant;

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, Normalization, Pom, PomBuilder, PomEnsemble, Potential, RhsKernel,
    SimOptions, SimWorkspace, SolverChoice,
};
use pom_noise::{InteractionNoise, RandomCommDelay};
use pom_ode::dde::{HistoryBuffer, InitialHistory};
use pom_ode::{DdeRk4, EnsembleObserver, PhaseHistory};
use pom_topology::Topology;

use crate::trace::{aggregate, TimedDde, TimedObs, Tracer};
use crate::util::{self, Clock, Rng};
use crate::{E2e, Layers, Op, Traced};

pub const N: usize = 4096;
pub const R: usize = 5;
const DISTANCES: [i32; 2] = [-1, 1];
const H: f64 = 0.02;
/// DDE steps per integration.
pub const STEPS: usize = 10;
const THREADS: usize = 2;
const DELAY_MEAN: f64 = 0.08;
const DELAY_SPREAD: f64 = 0.02;
const DELAY_CORR: f64 = 0.5;

const SALT_MODEL: u64 = 21;
const SALT_OPS: u64 = 22;
const SALT_WARM: u64 = 23;

fn delay(seed: u64) -> RandomCommDelay {
    let delay_seed = Rng::for_op(seed, SALT_MODEL, 0).seed();
    RandomCommDelay::new(delay_seed, N, DELAY_MEAN, DELAY_SPREAD, DELAY_CORR)
}

fn member(seed: u64) -> Pom {
    PomBuilder::new(N)
        .topology(Topology::ring(N, &DISTANCES))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .kernel(RhsKernel::SinCosSplit)
        .rhs_threads(THREADS)
        .interaction_noise(delay(seed))
        .build()
        .expect("delay model parameters are valid")
}

/// The ensemble: R members built from one seed share the delay field.
fn ensemble(seed: u64) -> PomEnsemble {
    PomEnsemble::new((0..R).map(|_| member(seed)).collect())
}

fn opts() -> SimOptions {
    SimOptions::new(H * STEPS as f64).solver(SolverChoice::FixedRk4 { h: H })
}

/// The seeded per-replica initial conditions of operation `op`.
fn inits(seed: u64, salt: u64, op: u64) -> Vec<InitialCondition> {
    let mut rng = Rng::for_op(seed, salt, op);
    (0..R)
        .map(|_| InitialCondition::RandomSpread {
            amplitude: rng.real(0.1, 0.6),
            seed: rng.seed(),
        })
        .collect()
}

fn state_hash(states: &[&[f64]]) -> u64 {
    let all: Vec<f64> = states.iter().flat_map(|s| s.iter().copied()).collect();
    util::fnv_f64(&all)
}

/// One batched observed integration, the way a library user runs it.
fn observe(ens: &PomEnsemble, inits: &[InitialCondition], ws: &mut SimWorkspace) -> io::Result<Op> {
    let mut probes: Vec<RunSummaryProbe> = (0..R).map(|_| RunSummaryProbe::new()).collect();
    let t0 = Instant::now();
    let sums = ens
        .simulate_observed_ws(inits, &opts(), &mut probes, ws)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let secs = t0.elapsed().as_secs_f64();
    let states: Vec<&[f64]> = sums.iter().map(|s| s.final_state()).collect();
    Ok(Op {
        secs,
        points: 1,
        first_row: Some(secs),
        hash: state_hash(&states),
        ok: sums
            .iter()
            .all(|s| s.n_steps() == STEPS && s.final_order_parameter().is_finite())
            && probes.iter().all(|p| p.r.stats.count() == STEPS as u64 + 1),
    })
}

/// R independent runs of the same replicas; returns (seconds, hash).
fn independent(
    ens: &PomEnsemble,
    inits: &[InitialCondition],
    ws: &mut SimWorkspace,
) -> io::Result<(f64, u64)> {
    let t0 = Instant::now();
    let sums = ens
        .members()
        .iter()
        .zip(inits)
        .map(|(m, init)| {
            m.simulate_observed_ws(init.clone(), &opts(), &mut RunSummaryProbe::new(), ws)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let secs = t0.elapsed().as_secs_f64();
    let states: Vec<&[f64]> = sums.iter().map(|s| s.final_state()).collect();
    Ok((secs, state_hash(&states)))
}

/// Program set-up: R member builds, the ensemble, and workspace
/// allocation (one step warms the integrator and history buffers).
fn setup_once(seed: u64, k: u64, ws: &mut SimWorkspace) -> io::Result<PomEnsemble> {
    let ens = ensemble(seed);
    let one = SimOptions::new(H).solver(SolverChoice::FixedRk4 { h: H });
    let mut probes: Vec<RunSummaryProbe> = (0..R).map(|_| RunSummaryProbe::new()).collect();
    ens.simulate_observed_ws(&inits(seed, SALT_WARM, k), &one, &mut probes, ws)
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(ens)
}

pub fn run(seed: u64, seconds: f64) -> io::Result<E2e> {
    let mut e = E2e::with_capacity(1 << 14);
    let mut ws = SimWorkspace::new();
    let ens = setup_once(seed, 0, &mut ws)?;
    let warm = Clock::new(0.3);
    let mut k = 100;
    while warm.running() {
        observe(&ens, &inits(seed, SALT_WARM, k), &mut ws)?;
        k += 1;
    }

    let op = e.closed_loop(
        seconds,
        |k| setup_once(seed, k + 1, &mut SimWorkspace::new()),
        |k| observe(&ens, &inits(seed, SALT_OPS, k), &mut ws),
    )?;

    // Check: each batched replica is bitwise equal to its independent run.
    for i in [0, op.saturating_sub(1)] {
        let (_, h) = independent(&ens, &inits(seed, SALT_OPS, i), &mut ws)?;
        e.attempted += 1;
        if h != e.hashes[i as usize] {
            e.failed += 1;
            eprintln!("delay_ensemble: integration {i} differs from its independent replica runs");
        }
    }
    e.note("integrations", op);
    e.note("steps_per_integration", STEPS);
    e.note(
        "osc_steps_per_s",
        format!("{:.0}", (N * R * STEPS) as f64 * e.points_per_s()),
    );
    Ok(e)
}

/// Mean time of one `τ_ij(t)` over the ring's pairs, in µs.
fn tau_us(seed: u64) -> f64 {
    let field = delay(seed);
    let mut acc = 0.0;
    let t0 = Instant::now();
    let mut calls = 0u64;
    for k in 0..8 {
        let t = k as f64 * H;
        for i in 0..N {
            for d in DISTANCES {
                let j = (i as i64 + i64::from(d)).rem_euclid(N as i64) as usize;
                acc += field.tau(i, j, t);
                calls += 1;
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Mean time of one `PhaseHistory::sample` on a history shaped like the
/// ensemble's (n·R components, knots every h), in µs.
fn history_sample_us(seed: u64) -> f64 {
    let dim = N * R;
    let mut rng = Rng::for_op(seed, SALT_MODEL, 1);
    let y0: Vec<f64> = (0..dim).map(|_| rng.real(-0.5, 0.5)).collect();
    let f0 = vec![1.0; dim];
    let mut hist = HistoryBuffer::new(0.0, &y0, &f0, InitialHistory::Constant(y0.clone()));
    let mut y = y0.clone();
    for k in 1..=16 {
        for v in y.iter_mut() {
            *v += H;
        }
        hist.push(k as f64 * H, &y, &f0);
    }
    let t_now = 16.0 * H;
    let field = delay(seed);
    let lags: Vec<f64> = (0..dim)
        .map(|i| t_now - field.tau(i % N, (i + 1) % N, t_now))
        .collect();
    let mut acc = 0.0;
    let t0 = Instant::now();
    for (i, &t) in lags.iter().enumerate() {
        acc += hist.sample(t, (i + R) % dim);
    }
    let per_call = t0.elapsed().as_secs_f64() * 1e6 / dim as f64;
    black_box(acc);
    per_call
}

pub fn traced(seed: u64, seconds: f64, tr: &Tracer) -> io::Result<Traced> {
    let ens = tr.span("core.build", 0, 0, |_| ensemble(seed));
    let mut ws = SimWorkspace::new();
    let mut e = E2e::with_capacity(1 << 14);
    let clock = Clock::new(seconds);
    let mut op = 0u64;
    let opts = opts();
    let window = ens.members().iter().map(Pom::max_delay).fold(0.0, f64::max);
    while clock.running() {
        let trace = op + 1;
        let at = clock.fraction();
        let t0 = Instant::now();
        let sum = tr.span("core.simulate", trace, 0, |sid| {
            let y0 = tr.span("core.init", trace, sid, |_| {
                let states: Vec<Vec<f64>> = inits(seed, SALT_OPS, op)
                    .iter()
                    .map(|i| i.phases(N))
                    .collect();
                ens.layout().pack(&states)
            });
            let sys = TimedDde::new(&ens);
            let mut probes: Vec<TimedObs<RunSummaryProbe>> = (0..R)
                .map(|_| TimedObs::new(RunSummaryProbe::new()))
                .collect();
            tr.span_work("ode.integrate", trace, sid, |iid| {
                let out = DdeRk4::new(H).and_then(|s| {
                    s.integrate_observed(
                        &sys,
                        0.0,
                        InitialHistory::Constant(y0),
                        opts.t_end,
                        window,
                        ws.ode(),
                        &mut EnsembleObserver::new(&mut probes, ens.layout()),
                    )
                });
                tr.record(
                    "core.ensemble_eval",
                    trace,
                    iid,
                    sys.ns.get(),
                    sys.calls.get(),
                );
                let (ns, calls) = probes
                    .iter()
                    .fold((0, 0), |a, p| (a.0 + p.ns, a.1 + p.calls));
                tr.record("analysis.probe", trace, iid, ns, calls);
                let steps = out.as_ref().map_or(0, |s| s.n_steps as u64);
                (out, steps)
            })
            .0
        });
        let secs = t0.elapsed().as_secs_f64();
        let sum = sum.map_err(|e| io::Error::other(e.to_string()))?;
        let layout = ens.layout();
        let states: Vec<Vec<f64>> = (0..R).map(|rep| layout.extract(&sum.y_end, rep)).collect();
        let refs: Vec<&[f64]> = states.iter().map(Vec::as_slice).collect();
        e.op(at, secs, 1, Some(secs), state_hash(&refs));
        e.attempted += 1;
        op += 1;
    }

    // Batched against R independent runs of the same replicas.
    let probe_inits = inits(seed, SALT_OPS, 0);
    let mut speedups: Vec<f64> = (0..2)
        .map(|_| -> io::Result<f64> {
            let (t_ind, _) = independent(&ens, &probe_inits, &mut ws)?;
            let t_batch = observe(&ens, &probe_inits, &mut ws)?.secs;
            Ok(t_ind / t_batch)
        })
        .collect::<io::Result<_>>()?;

    let agg = aggregate(&tr.spans());
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    let mut layers = Layers::new();
    layers.insert("core.build_us", util::mean(&get("core.build").durs_us));
    layers.insert(
        "core.ensemble_eval_us",
        get("core.ensemble_eval").per_call_us(),
    );
    layers.insert("core.ensemble_speedup", util::median(&mut speedups));
    let integ = get("ode.integrate");
    layers.insert("ode.integrate_us", util::mean(&integ.durs_us));
    layers.insert("ode.steps", integ.work as f64 / integ.calls.max(1) as f64);
    layers.insert(
        "ode.step_self_us",
        integ.self_us.iter().sum::<f64>() / integ.work.max(1) as f64,
    );
    layers.insert("ode.history_sample_us", history_sample_us(seed));
    layers.insert("noise.tau_us", tau_us(seed));
    layers.insert("analysis.probe_us", get("analysis.probe").per_call_us());
    Ok(Traced { layers, e2e: e })
}
