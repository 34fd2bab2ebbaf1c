//! Simulation driver: integrate a [`Pom`] and expose the paper's
//! observables on the result.

use pom_ode::dde::{DdeRk4, InitialHistory};
use pom_ode::{
    Dopri5, FixedStepSolver, ObserveEvery, OdeError, Record, Rk4, StepObserver, Trajectory,
    Workspace,
};

use crate::initial::InitialCondition;
use crate::model::Pom;
use crate::observables::{
    adjacent_differences, lagger_normalized, mean_abs_adjacent_difference, order_parameter,
    phase_spread,
};

/// Count one completed model run; no-op when instrumentation is off.
/// The underlying solver already flushed its step/eval totals.
fn count_simulation() {
    if !pom_obs::enabled() {
        return;
    }
    static C: std::sync::OnceLock<std::sync::Arc<pom_obs::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        pom_obs::registry().counter(
            "pom_core_simulations_total",
            "Completed model simulations (recording and observed paths).",
        )
    })
    .inc();
}

/// Reusable scratch memory for model runs.
///
/// Wraps the integrator [`Workspace`] so one allocation pool serves every
/// solver path ([`SolverChoice::Dopri5`], [`SolverChoice::FixedRk4`], the
/// DDE driver). Hold one per worker thread and pass it to
/// [`Pom::simulate_with_ws`] / [`Pom::simulate_observed_ws`]; reuse never
/// changes results (trajectories are bitwise identical to the
/// fresh-workspace path).
#[derive(Debug, Clone, Default)]
pub struct SimWorkspace {
    ode: Workspace,
}

impl SimWorkspace {
    /// An empty workspace; buffers are acquired lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the underlying integrator workspace.
    pub fn ode(&mut self) -> &mut Workspace {
        &mut self.ode
    }
}

/// Integrator selection for a model run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverChoice {
    /// Pick automatically: Dormand–Prince 5(4) without interaction delays,
    /// fixed-step DDE-RK4 with them (the paper's MATLAB tool uses ode45;
    /// delays force the method-of-steps path).
    #[default]
    Auto,
    /// Adaptive Dormand–Prince with explicit tolerances.
    Dopri5 {
        /// Relative tolerance.
        rtol: f64,
        /// Absolute tolerance.
        atol: f64,
    },
    /// Fixed-step classical RK4 (also used for ablation benches).
    FixedRk4 {
        /// Step size in seconds.
        h: f64,
    },
}

/// Options for [`Pom::simulate_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// End of the integration span (starts at 0).
    pub t_end: f64,
    /// Number of uniformly spaced output samples (≥ 2).
    pub n_samples: usize,
    /// Integrator selection.
    pub solver: SolverChoice,
}

impl SimOptions {
    /// Default options for a span: 400 output samples, automatic solver.
    pub fn new(t_end: f64) -> Self {
        Self {
            t_end,
            n_samples: 400,
            solver: SolverChoice::Auto,
        }
    }

    /// Set the number of output samples.
    pub fn samples(mut self, n: usize) -> Self {
        self.n_samples = n.max(2);
        self
    }

    /// Set the solver.
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }
}

/// Result of a model run: the phase trajectory on a uniform grid plus the
/// model's natural frequency, with the paper's observables as methods.
#[derive(Debug, Clone)]
pub struct PomRun {
    omega: f64,
    trajectory: Trajectory,
}

impl PomRun {
    /// The sampled phase trajectory (state dimension = N oscillators).
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Natural angular frequency `ω` of the noise-free oscillator.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Sampled time grid.
    #[cfg(test)]
    pub(crate) fn times(&self) -> &[f64] {
        self.trajectory.times()
    }

    /// Kuramoto order parameter `r(t)` over the run.
    pub fn order_parameter_series(&self) -> Vec<(f64, f64)> {
        self.trajectory
            .iter()
            .map(|(t, phases)| (t, order_parameter(phases).0))
            .collect()
    }

    /// `r` at the final sample.
    pub fn final_order_parameter(&self) -> f64 {
        order_parameter(self.trajectory.last().expect("non-empty run")).0
    }

    /// Phase spread `max − min` over time.
    pub fn phase_spread_series(&self) -> Vec<(f64, f64)> {
        self.trajectory
            .iter()
            .map(|(t, phases)| (t, phase_spread(phases)))
            .collect()
    }

    /// Phase spread at the final sample.
    pub fn final_phase_spread(&self) -> f64 {
        phase_spread(self.trajectory.last().expect("non-empty run"))
    }

    /// The paper's standard view at sample `k`: `θ_i − ωt`, lagger at 0.
    pub fn normalized_snapshot(&self, k: usize) -> Vec<f64> {
        lagger_normalized(
            self.trajectory.state(k),
            self.omega,
            self.trajectory.time(k),
        )
    }

    /// Lagger-normalized phases at the last sample.
    pub fn final_normalized(&self) -> Vec<f64> {
        self.normalized_snapshot(self.trajectory.len() - 1)
    }

    /// Adjacent phase differences at the final sample (wavefront slope).
    pub fn final_adjacent_differences(&self) -> Vec<f64> {
        adjacent_differences(self.trajectory.last().expect("non-empty run"))
    }

    /// Mean `|adjacent phase difference|` at the final sample — the
    /// quantity the §5.2.2 sweep compares against `2σ/3` (0 for a single
    /// oscillator).
    pub fn mean_abs_adjacent_gap(&self) -> f64 {
        mean_abs_adjacent_difference(self.trajectory.last().expect("non-empty run"))
    }
}

/// Result of an *observed* model run: O(N) summary data instead of a
/// trajectory — the step count and the final state, with the
/// final-sample observables as methods. Everything
/// time-resolved lives in whatever [`StepObserver`] the caller attached.
#[derive(Debug, Clone)]
pub struct SimSummary {
    n_steps: usize,
    final_state: Vec<f64>,
}

impl SimSummary {
    /// Assemble a summary from externally held parts — for consumers that
    /// already ran a recording path and want the same final-sample
    /// observable methods on it (`n_steps` then counts whatever the
    /// caller's driver counted, e.g. recorded samples). The summary keeps
    /// no frequency or end time: `_omega` and `_t_end` are accepted and
    /// unused.
    pub fn from_final(_omega: f64, _t_end: f64, n_steps: usize, final_state: Vec<f64>) -> Self {
        Self {
            n_steps,
            final_state,
        }
    }

    /// Accepted integrator steps taken (== observer `observe_step`
    /// callbacks delivered).
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// Final phases `θ(t_end)`.
    pub fn final_state(&self) -> &[f64] {
        &self.final_state
    }

    /// Kuramoto order parameter `r` at `t_end`.
    pub fn final_order_parameter(&self) -> f64 {
        order_parameter(&self.final_state).0
    }

    /// Phase spread `max − min` at `t_end`.
    pub fn final_phase_spread(&self) -> f64 {
        phase_spread(&self.final_state)
    }

    /// Mean `|adjacent phase difference|` at `t_end` (0 for a single
    /// oscillator) — matches [`PomRun::mean_abs_adjacent_gap`].
    pub fn mean_abs_adjacent_gap(&self) -> f64 {
        mean_abs_adjacent_difference(&self.final_state)
    }
}

impl Pom {
    /// Integrate the model from an initial condition to `t_end` with
    /// default options (automatic solver, 400 samples).
    pub fn simulate(&self, init: InitialCondition, t_end: f64) -> Result<PomRun, OdeError> {
        self.simulate_with(init, &SimOptions::new(t_end))
    }

    /// Integrate with explicit [`SimOptions`].
    ///
    /// Allocates fresh scratch; loops over many runs should hold a
    /// [`SimWorkspace`] and call [`Pom::simulate_with_ws`] instead.
    pub fn simulate_with(
        &self,
        init: InitialCondition,
        opts: &SimOptions,
    ) -> Result<PomRun, OdeError> {
        self.simulate_with_ws(init, opts, &mut SimWorkspace::new())
    }

    /// Integrate with explicit [`SimOptions`] and caller-provided scratch
    /// memory — the allocation-lean fast path (monomorphized right-hand
    /// side, zero allocation inside the step loop).
    ///
    /// Dopri5 runs are resampled from the dense solution onto
    /// `opts.n_samples` uniform points. Fixed-step and delay runs are
    /// [`Pom::simulate_observed_ws`] with a decimating recorder attached:
    /// every `k`-th step plus the final one, `k = ⌊steps / n_samples⌋`
    /// (at least 1). Delay runs keep only the pruned history window.
    pub fn simulate_with_ws(
        &self,
        init: InitialCondition,
        opts: &SimOptions,
        ws: &mut SimWorkspace,
    ) -> Result<PomRun, OdeError> {
        let trajectory = match self.resolve_solver(opts) {
            (SolverChoice::Dopri5 { rtol, atol }, h_cap) => {
                let mut solver = Dopri5::new().rtol(rtol).atol(atol);
                if let Some(h) = h_cap {
                    solver = solver.h_max(h);
                }
                let y0 = init.phases(self.n());
                let (sol, _) = solver.integrate_with(self, 0.0, &y0, opts.t_end, ws.ode())?;
                let trajectory = sol.resample(opts.n_samples)?;
                count_simulation();
                trajectory
            }
            (SolverChoice::FixedRk4 { h }, _) => {
                let n_steps = (opts.t_end / h).ceil() as usize;
                let every = (n_steps / opts.n_samples).max(1);
                let mut rec = ObserveEvery::new(Record::with_capacity(n_steps / every + 2), every);
                self.simulate_observed_ws(init, opts, &mut rec, ws)?;
                rec.into_inner().into_trajectory()
            }
            (SolverChoice::Auto, _) => unreachable!("resolved above"),
        };
        Ok(PomRun {
            omega: self.omega(),
            trajectory,
        })
    }

    /// Resolve [`SolverChoice::Auto`] and the local-noise step cap shared
    /// by the recording and observed drivers (and, `pub(crate)`, by the
    /// ensemble driver's lockstep-vs-sequential policy).
    pub(crate) fn resolve_solver(&self, opts: &SimOptions) -> (SolverChoice, Option<f64>) {
        let solver = match opts.solver {
            SolverChoice::Auto => {
                if self.has_delays() {
                    // Resolve the cycle and the delay comfortably.
                    let h = (self.params().cycle_time() / 100.0)
                        .min(self.max_delay().max(f64::EPSILON) / 2.0)
                        .min(opts.t_end / 10.0);
                    SolverChoice::FixedRk4 { h }
                } else {
                    SolverChoice::Dopri5 {
                        rtol: 1e-8,
                        atol: 1e-10,
                    }
                }
            }
            other => other,
        };

        // Local noise makes the RHS discontinuous in t (one-off delay
        // windows, daemon bursts). An adaptive solver coasting on a smooth
        // stretch can grow its step far beyond a noise window and jump
        // clean over it (all stage times landing outside), so cap the
        // step at a fraction of the cycle whenever local noise is active.
        let h_cap = if self.has_local_noise() {
            Some(self.params().cycle_time() / 10.0)
        } else {
            None
        };
        (solver, h_cap)
    }

    /// Integrate while streaming every accepted step to `obs`, returning
    /// an O(N) [`SimSummary`] — **no trajectory is allocated**, which is
    /// what makes million-step runs of 10⁵ oscillators memory-feasible.
    ///
    /// Solver selection and step control are exactly those of
    /// [`Pom::simulate_with`] (same [`SolverChoice`] resolution, same
    /// local-noise step cap): the integration takes the identical step
    /// sequence and the returned final state is the integrator's raw
    /// `y(t_end)` — the fixed-step/DDE recording paths run through this
    /// driver, and the state is bitwise identical to the Dopri5 path's
    /// [`pom_ode::DenseSolution::y_end`] (proptested). Note that a
    /// *resampled* Dopri5 trajectory's last sample (what
    /// [`PomRun::trajectory`] holds) evaluates the dense interpolant at
    /// `t_end` instead and can differ from `y_end` in the last ULPs.
    /// `opts.n_samples` is ignored
    /// — the observer sees *every* accepted step, and callers wanting
    /// decimation wrap their observer in [`pom_ode::ObserveEvery`]. With
    /// interaction delays the method-of-steps history is pruned to the
    /// model's maximum delay window, so memory stays O(N · τ_max/h)
    /// instead of O(N · steps). Before integrating, the observer hears the
    /// kernel's `RhsKernel::accuracy`
    /// through [`StepObserver::accuracy`], so its statistics follow the
    /// kernel.
    ///
    /// Allocates fresh scratch; loops should hold a [`SimWorkspace`] and
    /// call [`Pom::simulate_observed_ws`].
    ///
    /// ```
    /// use pom_core::{InitialCondition, NoObserver, PomBuilder, Potential, SimOptions};
    /// use pom_topology::Topology;
    ///
    /// let model = PomBuilder::new(16)
    ///     .topology(Topology::ring(16, &[-1, 1]))
    ///     .potential(Potential::Tanh)
    ///     .compute_time(1.0)
    ///     .comm_time(0.1)
    ///     .coupling(8.0)
    ///     .build()
    ///     .unwrap();
    /// // No trajectory is allocated — only the O(N) summary comes back.
    /// let init = InitialCondition::RandomSpread { amplitude: 1.0, seed: 3 };
    /// let summary = model
    ///     .simulate_observed(init, &SimOptions::new(120.0), &mut NoObserver)
    ///     .unwrap();
    /// assert!(summary.final_order_parameter() > 0.999); // resynchronized
    /// assert_eq!(summary.final_state().len(), 16);
    /// ```
    pub fn simulate_observed<O: StepObserver>(
        &self,
        init: InitialCondition,
        opts: &SimOptions,
        obs: &mut O,
    ) -> Result<SimSummary, OdeError> {
        self.simulate_observed_ws(init, opts, obs, &mut SimWorkspace::new())
    }

    /// [`Pom::simulate_observed`] with caller-provided scratch memory —
    /// the allocation-lean fast path (the step loop allocates nothing;
    /// the workspace and the O(N) summary are the only owned memory).
    pub fn simulate_observed_ws<O: StepObserver>(
        &self,
        init: InitialCondition,
        opts: &SimOptions,
        obs: &mut O,
        ws: &mut SimWorkspace,
    ) -> Result<SimSummary, OdeError> {
        let y0 = init.phases(self.n());
        let (solver, h_cap) = self.resolve_solver(opts);
        obs.accuracy(self.kernel().accuracy());

        let (_, n_steps, final_state) = match solver {
            SolverChoice::Dopri5 { rtol, atol } => {
                let mut solver = Dopri5::new().rtol(rtol).atol(atol);
                if let Some(h) = h_cap {
                    solver = solver.h_max(h);
                }
                let (sum, _) =
                    solver.integrate_observed(self, 0.0, &y0, opts.t_end, ws.ode(), obs)?;
                (sum.t_end, sum.n_steps, sum.y_end)
            }
            SolverChoice::FixedRk4 { h } => {
                if self.has_delays() {
                    let sum = DdeRk4::new(h)?.integrate_observed(
                        self,
                        0.0,
                        InitialHistory::Constant(y0),
                        opts.t_end,
                        self.max_delay(),
                        ws.ode(),
                        obs,
                    )?;
                    (sum.t_end, sum.n_steps, sum.y_end)
                } else {
                    let sum = FixedStepSolver::new(Rk4, h)?.integrate_observed(
                        self,
                        0.0,
                        &y0,
                        opts.t_end,
                        ws.ode(),
                        obs,
                    )?;
                    (sum.t_end, sum.n_steps, sum.y_end)
                }
            }
            SolverChoice::Auto => unreachable!("resolved above"),
        };

        count_simulation();
        Ok(SimSummary {
            n_steps,
            final_state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PomBuilder;
    use crate::kernel::RhsKernel;
    use crate::potential::Potential;
    use crate::PomEnsemble;
    use pom_noise::ConstantDelay;
    use pom_ode::Accuracy;
    use pom_topology::Topology;

    /// Records every accuracy announcement it hears.
    #[derive(Debug, Default)]
    struct Heard(Vec<Accuracy>);

    impl StepObserver for Heard {
        fn observe_step(&mut self, _t: f64, _y: &[f64]) {}
        fn accuracy(&mut self, accuracy: Accuracy) {
            self.0.push(accuracy);
        }
    }

    #[test]
    fn observers_hear_the_kernel_accuracy() {
        let model = |kernel| {
            PomBuilder::new(8)
                .topology(Topology::ring(8, &[-1, 1]))
                .potential(Potential::KuramotoSin)
                .coupling(2.0)
                .kernel(kernel)
                .build()
                .unwrap()
        };
        let init = InitialCondition::RandomSpread {
            amplitude: 0.5,
            seed: 4,
        };
        let fixed = SimOptions::new(0.1).solver(SolverChoice::FixedRk4 { h: 0.02 });
        for (kernel, want) in [
            (RhsKernel::Exact, Accuracy::Exact),
            (RhsKernel::SinCosSplit, Accuracy::Policy),
        ] {
            let m = model(kernel);
            for opts in [&fixed, &SimOptions::new(0.1)] {
                let mut heard = Heard::default();
                m.simulate_observed(init.clone(), opts, &mut heard).unwrap();
                assert_eq!(heard.0, [want], "{kernel:?}");

                // Through the decimating adapter and behind `&mut`.
                let mut heard = Heard::default();
                let mut every = ObserveEvery::new(&mut heard, 3);
                m.simulate_observed(init.clone(), opts, &mut &mut every)
                    .unwrap();
                assert_eq!(heard.0, [want], "{kernel:?} via ObserveEvery");

                // Each replica observer of an ensemble: lockstep batched
                // (fixed step) and the sequential adaptive fallback.
                let ens = PomEnsemble::new(vec![model(kernel), model(kernel)]);
                let mut heard = [Heard::default(), Heard::default()];
                ens.simulate_observed(&[init.clone(), init.clone()], opts, &mut heard)
                    .unwrap();
                for h in &heard {
                    assert_eq!(h.0, [want], "{kernel:?} replica");
                }
            }
        }
    }

    fn scalable_model(n: usize) -> Pom {
        PomBuilder::new(n)
            .topology(Topology::ring(n, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(8.0) // strong coupling → quick resync in tests
            .build()
            .unwrap()
    }

    fn bottlenecked_model(topology: Topology, sigma: f64) -> Pom {
        let n = topology.n();
        PomBuilder::new(n)
            .topology(topology)
            .potential(Potential::desync(sigma))
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(8.0)
            .build()
            .unwrap()
    }

    #[test]
    fn scalable_run_resynchronizes() {
        let run = scalable_model(16)
            .simulate(
                InitialCondition::RandomSpread {
                    amplitude: 1.0,
                    seed: 3,
                },
                120.0,
            )
            .unwrap();
        assert!(
            run.final_order_parameter() > 0.999,
            "r = {}",
            run.final_order_parameter()
        );
        assert!(run.final_phase_spread() < 1e-2);
        // Order parameter increased from start to end.
        let series = run.order_parameter_series();
        assert!(series.first().unwrap().1 < series.last().unwrap().1);
    }

    #[test]
    fn bottlenecked_chain_settles_at_exactly_two_thirds_sigma() {
        // On an open chain the stable broken-symmetry state has every
        // adjacent difference at a zero of V, and stability selects the
        // first zero +-2sigma/3 (the V'=0 point sigma/3 is only marginal).
        let sigma = 1.5;
        let run = bottlenecked_model(Topology::chain(12, &[-1, 1]), sigma)
            .simulate(
                InitialCondition::RandomSpread {
                    amplitude: 0.1,
                    seed: 5,
                },
                400.0,
            )
            .unwrap();
        let diffs = run.final_adjacent_differences();
        let expect = 2.0 * sigma / 3.0;
        for (i, d) in diffs.iter().enumerate() {
            assert!(
                (d.abs() - expect).abs() < 0.02,
                "pair {i}: |delta| = {} (want ~{expect})",
                d.abs()
            );
        }
        assert!(
            run.final_phase_spread() > expect,
            "a wavefront has macroscopic spread"
        );
    }

    #[test]
    fn bottlenecked_ring_desynchronizes_but_cannot_wind_uniformly() {
        // On a ring a uniform 2sigma/3 gradient cannot close around the
        // loop (the wrap pair saturates), so we assert desynchronization
        // without pinning the exact pattern: macroscopic spread, adjacent
        // gaps pushed away from lockstep toward the O(sigma) scale.
        let sigma = 1.5;
        let run = bottlenecked_model(Topology::ring(12, &[-1, 1]), sigma)
            .simulate(
                InitialCondition::RandomSpread {
                    amplitude: 0.1,
                    seed: 5,
                },
                300.0,
            )
            .unwrap();
        let diffs = run.final_adjacent_differences();
        let mean_abs = diffs.iter().map(|d| d.abs()).sum::<f64>() / diffs.len() as f64;
        assert!(
            mean_abs > sigma / 3.0,
            "mean |delta| = {mean_abs} stayed near lockstep"
        );
        assert!(
            run.final_phase_spread() > sigma,
            "spread = {}",
            run.final_phase_spread()
        );
    }

    #[test]
    fn synchronized_start_stays_synchronized_for_scalable() {
        let run = scalable_model(8)
            .simulate(InitialCondition::Synchronized, 20.0)
            .unwrap();
        assert!(run.final_phase_spread() < 1e-9);
        assert!((run.final_order_parameter() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_snapshot_has_zero_lagger() {
        let run = scalable_model(8)
            .simulate(
                InitialCondition::RandomSpread {
                    amplitude: 0.5,
                    seed: 1,
                },
                5.0,
            )
            .unwrap();
        for k in [0, run.trajectory().len() - 1] {
            let norm = run.normalized_snapshot(k);
            let min = norm.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(min.abs() < 1e-12);
        }
    }

    #[test]
    fn sample_count_respected() {
        let run = scalable_model(4)
            .simulate_with(
                InitialCondition::Synchronized,
                &SimOptions::new(10.0).samples(37),
            )
            .unwrap();
        assert_eq!(run.trajectory().len(), 37);
        assert!((run.times().last().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_rk4_agrees_with_dopri5() {
        let model = scalable_model(6);
        let init = InitialCondition::RandomSpread {
            amplitude: 0.8,
            seed: 11,
        };
        let a = model
            .simulate_with(
                init.clone(),
                &SimOptions::new(30.0).solver(SolverChoice::Dopri5 {
                    rtol: 1e-10,
                    atol: 1e-10,
                }),
            )
            .unwrap();
        let b = model
            .simulate_with(
                init,
                &SimOptions::new(30.0).solver(SolverChoice::FixedRk4 { h: 0.005 }),
            )
            .unwrap();
        let fa = a.trajectory().last().unwrap();
        let fb = b.trajectory().last().unwrap();
        for i in 0..6 {
            assert!(
                (fa[i] - fb[i]).abs() < 1e-6,
                "osc {i}: {} vs {}",
                fa[i],
                fb[i]
            );
        }
    }

    #[test]
    fn auto_uses_dde_when_delays_present() {
        let model = PomBuilder::new(4)
            .topology(Topology::ring(4, &[-1, 1]))
            .potential(Potential::Tanh)
            .coupling(4.0)
            .interaction_noise(ConstantDelay::new(0.2))
            .build()
            .unwrap();
        // Just verify the run completes and resynchronizes despite delay.
        let run = model
            .simulate(
                InitialCondition::RandomSpread {
                    amplitude: 0.3,
                    seed: 2,
                },
                80.0,
            )
            .unwrap();
        assert!(run.final_order_parameter() > 0.99);
    }
}
