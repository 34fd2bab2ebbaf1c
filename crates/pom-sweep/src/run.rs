//! Executing one grid point and computing its observables.

use std::panic::{self, AssertUnwindSafe};

use pom_analysis::{
    model_wave_speed_in, sim_wave_speed_in, RunSummaryProbe, WaveGeometry, Welford,
};
use pom_core::{NoObserver, PomRun, SimSummary, SimWorkspace};
use pom_mpisim::{SimTrace, Simulator};
use pom_topology::{ClusterSpec, Placement, TopologyKind};

use crate::spec::{CampaignSpec, ModelScenario, MpiScenario, Observable, Scenario, SweepError};
use crate::value::Value;

/// One completed grid point, ready for a result sink.
#[derive(Debug, Clone)]
pub struct PointRow {
    /// Grid index (row-major over the axes).
    pub index: usize,
    /// The per-point derived seed.
    pub seed: u64,
    /// Axis assignments, in axis order.
    pub params: Vec<(String, Value)>,
    /// Observables, in the campaign's requested order. Non-finite values
    /// mean "not measurable here" (e.g. no wave detected).
    pub observables: Vec<(String, f64)>,
    /// Set when the scenario failed to resolve or run.
    pub error: Option<String>,
}

/// Resolve, run, and measure grid point `index`. Failures land in
/// [`PointRow::error`] instead of aborting the campaign.
///
/// Allocates fresh scratch per call; the executor's workers hold one
/// [`SimWorkspace`] each and call [`run_point_ws`] instead.
pub fn run_point(spec: &CampaignSpec, index: usize) -> PointRow {
    run_point_ws(spec, index, &mut SimWorkspace::new())
}

/// [`run_point`] with caller-provided scratch memory: every integration
/// this point performs (perturbed run, baseline run) borrows `ws`, so a
/// worker thread sweeping thousands of points reuses one set of stage
/// buffers throughout. Workspace reuse never changes results.
///
/// A panic inside the point (e.g. a capacity overflow from an absurd
/// `sim.samples`) is caught and becomes an error row carrying the panic
/// message, so one bad point cannot take down a worker or its campaign.
/// The panic may have left `ws` half-written, so it is replaced with a
/// fresh workspace.
pub fn run_point_ws(spec: &CampaignSpec, index: usize, ws: &mut SimWorkspace) -> PointRow {
    let seed = spec.point_seed(index);
    let (observables, error) =
        match panic::catch_unwind(AssertUnwindSafe(|| execute(spec, index, seed, &mut *ws))) {
            Ok(Ok(observables)) => (observables, None),
            Ok(Err(e)) => (Vec::new(), Some(e.to_string())),
            Err(payload) => {
                *ws = SimWorkspace::new();
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string payload");
                (Vec::new(), Some(format!("point panicked: {msg}")))
            }
        };
    PointRow {
        index,
        seed,
        params: spec.assignments_at(index),
        observables,
        error,
    }
}

fn execute(
    spec: &CampaignSpec,
    index: usize,
    seed: u64,
    ws: &mut SimWorkspace,
) -> Result<Vec<(String, f64)>, SweepError> {
    let scenario = spec.scenario_at(index)?;
    match scenario {
        Scenario::Model(m) if spec.replicas > 1 => model_ensemble_observables(&m, spec, seed, ws),
        Scenario::Model(m) => model_observables(&m, &spec.observables, seed, ws),
        Scenario::MpiSim(m) => mpisim_observables(&m, &spec.observables, seed),
    }
}

/// Wave-fit geometry of a scenario topology: periodic rings use
/// wraparound rank distance so a front crossing the index boundary is
/// binned at its true (short-way) distance.
fn wave_geometry(kind: &TopologyKind) -> WaveGeometry {
    match kind {
        TopologyKind::Ring { .. } => WaveGeometry::Ring,
        _ => WaveGeometry::Chain,
    }
}

fn model_observables(
    s: &ModelScenario,
    wanted: &[Observable],
    seed: u64,
    ws: &mut SimWorkspace,
) -> Result<Vec<(String, f64)>, SweepError> {
    let needs_baseline = wanted.iter().any(Observable::needs_baseline);
    let opts = s.sim_options();
    let init = s.initial_condition(seed);

    // Wave observables need the recorded perturbed/baseline trajectory
    // pair; everything else streams through the observer fast path with
    // no trajectory allocated (spec parsing rejects mixtures of wave and
    // streaming-only columns). Values are bitwise-stable within a
    // campaign — any thread count, any resume — which is the scope the
    // engine guarantees; *across* specs, adding/removing wave columns
    // switches recorded ↔ streamed execution, whose final states differ
    // in the last ULPs under the adaptive solver (resampled dense
    // interpolant vs raw y_end; see `Pom::simulate_observed`).
    let (summary, probe, wave): (
        SimSummary,
        Option<RunSummaryProbe>,
        Option<pom_analysis::MeasuredWave>,
    ) = if needs_baseline {
        if s.inject.is_none() {
            return Err(SweepError::Spec(
                "wave observables need an [inject] delay to launch the wave".to_string(),
            ));
        }
        let run = |with_inject: bool, ws: &mut SimWorkspace| -> Result<PomRun, SweepError> {
            s.build(seed, with_inject)?
                .simulate_with_ws(init.clone(), &opts, ws)
                .map_err(|e| SweepError::Run(e.to_string()))
        };
        let perturbed = run(true, ws)?;
        let baseline = run(false, ws)?;
        let wave = model_wave_speed_in(
            &perturbed,
            &baseline,
            s.wave.threshold,
            s.wave.source_or(s.inject.map(|i| i.rank)),
            s.wave.max_distance_on(s.n),
            wave_geometry(s.topology.kind()),
        );
        let traj = perturbed.trajectory();
        let summary = SimSummary::from_final(
            perturbed.omega(),
            traj.time(traj.len() - 1),
            traj.len().saturating_sub(1),
            traj.last().expect("non-empty run").to_vec(),
        );
        (summary, None, Some(wave))
    } else if wanted.iter().any(Observable::needs_series) {
        let mut probe = RunSummaryProbe::new();
        let summary = s
            .build(seed, true)?
            .simulate_observed_ws(init, &opts, &mut probe, ws)
            .map_err(|e| SweepError::Run(e.to_string()))?;
        (summary, Some(probe), None)
    } else {
        let summary = s
            .build(seed, true)?
            .simulate_observed_ws(init, &opts, &mut NoObserver, ws)
            .map_err(|e| SweepError::Run(e.to_string()))?;
        (summary, None, None)
    };

    wanted
        .iter()
        .map(|o| {
            Ok((
                o.name().to_string(),
                model_scalar(s, *o, &summary, probe.as_ref(), wave.as_ref())?,
            ))
        })
        .collect()
}

/// One model observable's scalar value from a finished run's artifacts.
/// Shared by the single-run path and the per-replica ensemble fold.
fn model_scalar(
    s: &ModelScenario,
    o: Observable,
    summary: &SimSummary,
    probe: Option<&RunSummaryProbe>,
    wave: Option<&pom_analysis::MeasuredWave>,
) -> Result<f64, SweepError> {
    Ok(match o {
        Observable::FinalOrderParameter => summary.final_order_parameter(),
        Observable::FinalPhaseSpread => summary.final_phase_spread(),
        Observable::MeanAbsGap => summary.mean_abs_adjacent_gap(),
        Observable::RelErrTwoThirds => {
            let expect = s.potential.stable_pair_separation();
            if expect > 0.0 {
                (summary.mean_abs_adjacent_gap() - expect).abs() / expect
            } else {
                f64::NAN
            }
        }
        Observable::MeanOrderParameter => probe.map_or(f64::NAN, |p| p.r.stats.mean()),
        Observable::MinOrderParameter => probe.map_or(f64::NAN, |p| p.r.stats.min()),
        Observable::MaxAbsGap => probe.map_or(f64::NAN, |p| p.gaps.max_gap.max()),
        Observable::WaveSpeed => wave.and_then(|w| w.fit.mean_speed()).unwrap_or(f64::NAN),
        Observable::WaveR2 => wave
            .and_then(|w| w.fit.up)
            .map(|f| f.r2)
            .unwrap_or(f64::NAN),
        Observable::Makespan | Observable::TotalWait => {
            return Err(SweepError::Spec(format!(
                "observable `{}` needs the mpisim workload",
                o.name()
            )))
        }
    })
}

/// Run one grid point as an R-replica lockstep ensemble and aggregate each
/// observable across replicas into the four
/// `<obs>_mean`/`<obs>_ci95`/`<obs>_min`/`<obs>_max` columns.
///
/// Replica `rep` uses [`CampaignSpec::replica_seed`]`(index, rep)` for its
/// model build *and* its initial condition ([`ModelScenario::ensemble`]) —
/// replica 0 is bit-for-bit the run a `replicas = 1` campaign would
/// perform. Batched integration is bitwise identical to R independent runs
/// (see `pom_core::PomEnsemble`), so the aggregates are as deterministic as
/// the plain columns: independent of thread count, resume, and execution
/// order.
fn model_ensemble_observables(
    s: &ModelScenario,
    spec: &CampaignSpec,
    seed: u64,
    ws: &mut SimWorkspace,
) -> Result<Vec<(String, f64)>, SweepError> {
    let r = spec.replicas;
    let wanted = &spec.observables;
    let opts = s.sim_options();
    let (ensemble, inits) = s.ensemble(seed, r)?;

    let (summaries, probes) = if wanted.iter().any(Observable::needs_series) {
        let mut probes: Vec<RunSummaryProbe> = (0..r).map(|_| RunSummaryProbe::new()).collect();
        let summaries = ensemble
            .simulate_observed_ws(&inits, &opts, &mut probes, ws)
            .map_err(|e| SweepError::Run(e.to_string()))?;
        (summaries, Some(probes))
    } else {
        let mut observers = vec![NoObserver; r];
        let summaries = ensemble
            .simulate_observed_ws(&inits, &opts, &mut observers, ws)
            .map_err(|e| SweepError::Run(e.to_string()))?;
        (summaries, None)
    };

    let mut out = Vec::with_capacity(wanted.len() * 4);
    for o in wanted {
        let mut stats = Welford::new();
        for rep in 0..r {
            stats.push(model_scalar(
                s,
                *o,
                &summaries[rep],
                probes.as_ref().map(|p| &p[rep]),
                None,
            )?);
        }
        let name = o.name();
        out.push((format!("{name}_mean"), stats.mean()));
        out.push((format!("{name}_ci95"), stats.ci95_half_width()));
        out.push((format!("{name}_min"), stats.min()));
        out.push((format!("{name}_max"), stats.max()));
    }
    Ok(out)
}

fn mpisim_observables(
    s: &MpiScenario,
    wanted: &[Observable],
    seed: u64,
) -> Result<Vec<(String, f64)>, SweepError> {
    let needs_baseline = wanted.iter().any(Observable::needs_baseline);

    let run = |with_inject: bool| -> Result<SimTrace, SweepError> {
        let program = s.program(seed, with_inject);
        Simulator::new(program, Placement::packed(ClusterSpec::meggie(), s.n))
            .map_err(|e| SweepError::Run(e.to_string()))?
            .run()
            .map_err(|e| SweepError::Run(e.to_string()))
    };

    let perturbed = run(true)?;
    let wave = if needs_baseline {
        if s.inject.is_none() {
            return Err(SweepError::Spec(
                "wave observables need an [inject] delay to launch the wave".to_string(),
            ));
        }
        let baseline = run(false)?;
        // The simulator's halo exchange wraps (`i + d mod N`): a ring.
        Some(sim_wave_speed_in(
            &perturbed,
            &baseline,
            s.wave.threshold,
            s.wave.source_or(s.inject.map(|i| i.rank)),
            s.wave.max_distance_on(s.n),
            WaveGeometry::Ring,
        ))
    } else {
        None
    };

    wanted
        .iter()
        .map(|o| {
            let v = match o {
                Observable::Makespan => perturbed.makespan(),
                Observable::TotalWait => perturbed
                    .ranks()
                    .iter()
                    .map(|r| r.total_wait())
                    .sum::<f64>(),
                Observable::WaveSpeed => wave
                    .as_ref()
                    .and_then(|w| w.fit.mean_speed())
                    .unwrap_or(f64::NAN),
                Observable::WaveR2 => wave
                    .as_ref()
                    .and_then(|w| w.fit.up)
                    .map(|f| f.r2)
                    .unwrap_or(f64::NAN),
                Observable::FinalOrderParameter
                | Observable::FinalPhaseSpread
                | Observable::MeanAbsGap
                | Observable::RelErrTwoThirds
                | Observable::MeanOrderParameter
                | Observable::MinOrderParameter
                | Observable::MaxAbsGap => {
                    return Err(SweepError::Spec(format!(
                        "observable `{}` needs the model workload",
                        o.name()
                    )))
                }
            };
            Ok((o.name().to_string(), v))
        })
        .collect()
}
