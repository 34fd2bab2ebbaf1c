//! Lockstep ensembles of [`Pom`] models.
//!
//! A [`PomEnsemble`] advances R replicas of one scenario — identical
//! structure, differing only in their noise realizations — as a single
//! interleaved `n·R`-dimensional system (see [`pom_ode::EnsembleLayout`] for the
//! layout). It has no right-hand side of its own: it evaluates the rows of
//! a single [`Pom`] (`rhs.rs`) at width R instead of width one, so one
//! sin/cos pass, one stencil walk, one delay-node column and one `τ`
//! interpolation per shared-delay pair and one `ChunkPool` fork–join serve
//! the whole batch.
//!
//! ## Bitwise contract
//!
//! `simulate_observed_ws` is bitwise identical to R independent
//! [`Pom::simulate_observed_ws`] calls — per replica: same final state,
//! same observer callback sequence. The rows keep each component's
//! accumulation order at every width, fixed-step RK stage arithmetic is
//! elementwise, and the per-replica observer fan-out de-interleaves
//! states before the probes see them. The property suite
//! (`tests/ensemble_bitwise.rs`) pins this per kernel, per solver, per
//! thread count.
//!
//! Adaptive solvers ([`SolverChoice::Dopri5`], and `Auto` resolving to
//! it) cannot be lockstep-batched without coupling replicas through the
//! shared error norm; the driver transparently falls back to sequential
//! per-replica integration there (trivially bitwise — it *is* the
//! independent path).

use std::sync::Mutex;

use pom_ode::dde::{DdeRk4, DdeSystem, InitialHistory, PhaseHistory};
use pom_ode::{
    EnsembleLayout, EnsembleObserver, FixedStepSolver, OdeError, OdeSystem, Rk4, StepObserver,
};

use crate::initial::InitialCondition;
use crate::kernel::SplitScratch;
use crate::model::Pom;
use crate::rhs::Rhs;
use crate::simulate::{SimOptions, SimSummary, SimWorkspace, SolverChoice};

/// Count one ensemble run and its replica total; no-op when
/// instrumentation is off.
fn count_ensemble(replicas: usize) {
    if !pom_obs::enabled() {
        return;
    }
    use std::sync::{Arc, OnceLock};
    static RUNS: OnceLock<Arc<pom_obs::Counter>> = OnceLock::new();
    static REPS: OnceLock<Arc<pom_obs::Counter>> = OnceLock::new();
    RUNS.get_or_init(|| {
        pom_obs::registry().counter(
            "pom_core_ensemble_runs_total",
            "Batched ensemble simulations started.",
        )
    })
    .inc();
    REPS.get_or_init(|| {
        pom_obs::registry().counter(
            "pom_core_ensemble_replicas_total",
            "Replicas integrated across all ensemble simulations.",
        )
    })
    .add(replicas as u64);
}

/// R replicas of one scenario, integrated in lockstep as a single
/// interleaved system. Construct with [`PomEnsemble::new`]; run with
/// [`PomEnsemble::simulate_observed_ws`].
pub struct PomEnsemble {
    members: Vec<Pom>,
    /// Batched RHS scratch (`2·n·R` for the split kernel; the delay-node
    /// table with one column, or R without shared delays), separate from
    /// the members' own single-run scratch.
    split_scratch: Mutex<SplitScratch>,
    /// Every member's delay field has the same fingerprint (same modelled
    /// machine): the delay rows then evaluate `τ_ij(t)` and the history
    /// lookup once per pair instead of once per replica.
    shared_delays: bool,
}

impl std::fmt::Debug for PomEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PomEnsemble")
            .field("n", &self.n())
            .field("replicas", &self.replicas())
            .field("kernel", &self.members[0].kernel())
            .finish_non_exhaustive()
    }
}

impl PomEnsemble {
    /// Batch `members` into one lockstep ensemble.
    ///
    /// Every member must share the structural configuration — size,
    /// topology, scalar parameters, potential, kernel, coupling
    /// normalization and the presence/absence of delays and local noise.
    /// (They are expected to differ only in noise *realizations*, i.e.
    /// seeds.) Panics on a mismatch: members of one ensemble come from one
    /// scenario by construction, so a mismatch is a caller bug, not input
    /// data.
    pub fn new(members: Vec<Pom>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let m0 = &members[0];
        for (rep, m) in members.iter().enumerate().skip(1) {
            let checks = [
                (m.n() == m0.n(), "oscillator count differs"),
                (m.topology() == m0.topology(), "topology differs"),
                (m.params() == m0.params(), "scalar parameters differ"),
                (m.potential() == m0.potential(), "potential differs"),
                (m.kernel() == m0.kernel(), "kernel differs"),
                (
                    m.coupling_cache == m0.coupling_cache,
                    "coupling normalization differs",
                ),
                (
                    m.has_delays() == m0.has_delays(),
                    "delay-path presence differs",
                ),
                (
                    m.has_local_noise() == m0.has_local_noise(),
                    "local-noise presence differs",
                ),
            ];
            for (same, what) in checks {
                assert!(same, "replica {rep}: {what}");
            }
        }
        let shared_delays = match m0.interaction_noise.fingerprint() {
            Some(fp) => members
                .iter()
                .all(|m| m.interaction_noise.fingerprint() == Some(fp)),
            None => false,
        };
        Self {
            members,
            split_scratch: Mutex::new(SplitScratch::default()),
            shared_delays,
        }
    }

    /// Oscillator count `n` (per replica).
    pub fn n(&self) -> usize {
        self.members[0].n()
    }

    /// Replica count `R`.
    pub(crate) fn replicas(&self) -> usize {
        self.members.len()
    }

    /// The interleaving layout (`n × R`).
    pub fn layout(&self) -> EnsembleLayout {
        EnsembleLayout::new(self.n(), self.replicas())
    }

    /// The member models, in replica order.
    pub fn members(&self) -> &[Pom] {
        &self.members
    }

    /// `true` if the ensemble runs on the delay-equation path.
    pub(crate) fn has_delays(&self) -> bool {
        self.members[0].has_delays()
    }

    /// All members as one view at width `R`.
    fn rhs(&self) -> Rhs<'_, usize> {
        Rhs {
            members: &self.members,
            scratch: &self.split_scratch,
            shared_delays: self.shared_delays,
            width: self.replicas(),
        }
    }

    /// Integrate all replicas while streaming each replica's accepted
    /// steps to its own observer, returning one [`SimSummary`] per
    /// replica (replica order).
    ///
    /// Fixed-step solvers (explicitly selected, or `Auto` resolving to
    /// the DDE path) run **lockstep batched**; adaptive solvers run
    /// sequentially per replica (see the module docs). Either way the
    /// results — summaries and observer callback sequences — are bitwise
    /// identical to R independent [`Pom::simulate_observed_ws`] calls.
    ///
    /// Allocates fresh scratch; loops should hold a [`SimWorkspace`] and
    /// call [`PomEnsemble::simulate_observed_ws`].
    pub fn simulate_observed<O: StepObserver>(
        &self,
        inits: &[InitialCondition],
        opts: &SimOptions,
        observers: &mut [O],
    ) -> Result<Vec<SimSummary>, OdeError> {
        self.simulate_observed_ws(inits, opts, observers, &mut SimWorkspace::new())
    }

    /// [`PomEnsemble::simulate_observed`] with caller-provided scratch.
    pub fn simulate_observed_ws<O: StepObserver>(
        &self,
        inits: &[InitialCondition],
        opts: &SimOptions,
        observers: &mut [O],
        ws: &mut SimWorkspace,
    ) -> Result<Vec<SimSummary>, OdeError> {
        let r = self.replicas();
        assert_eq!(inits.len(), r, "one initial condition per replica");
        assert_eq!(observers.len(), r, "one observer per replica");
        count_ensemble(r);

        let (solver, _h_cap) = self.members[0].resolve_solver(opts);
        match solver {
            SolverChoice::FixedRk4 { h } => {
                let layout = self.layout();
                let states: Vec<Vec<f64>> =
                    inits.iter().map(|init| init.phases(self.n())).collect();
                let y0 = layout.pack(&states);
                let accuracy = self.members[0].kernel().accuracy();
                observers.iter_mut().for_each(|obs| obs.accuracy(accuracy));
                let mut fan = EnsembleObserver::new(observers, layout);
                let sum = if self.has_delays() {
                    // Retention window: the largest delay over all
                    // replicas. Pruning affects only how much history is
                    // *kept*, never the sampled values, so a wider
                    // window cannot change any replica's results.
                    let window = self
                        .members
                        .iter()
                        .map(|m| m.max_delay())
                        .fold(0.0, f64::max);
                    DdeRk4::new(h)?.integrate_observed(
                        self,
                        0.0,
                        InitialHistory::Constant(y0),
                        opts.t_end,
                        window,
                        ws.ode(),
                        &mut fan,
                    )?
                } else {
                    FixedStepSolver::new(Rk4, h)?.integrate_observed(
                        self,
                        0.0,
                        &y0,
                        opts.t_end,
                        ws.ode(),
                        &mut fan,
                    )?
                };
                Ok((0..r)
                    .map(|rep| {
                        SimSummary::from_final(
                            self.members[rep].omega(),
                            sum.t_end,
                            sum.n_steps,
                            layout.extract(&sum.y_end, rep),
                        )
                    })
                    .collect())
            }
            // Adaptive step control folds the whole state into one error
            // norm — lockstep batching would couple replicas. Run them
            // independently instead (bitwise trivially: it IS the
            // independent path).
            _ => self
                .members
                .iter()
                .zip(inits)
                .zip(observers.iter_mut())
                .map(|((m, init), obs)| m.simulate_observed_ws(init.clone(), opts, obs, ws))
                .collect(),
        }
    }
}

impl OdeSystem for PomEnsemble {
    fn dim(&self) -> usize {
        self.n() * self.replicas()
    }

    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.rhs().ode(t, y, dydt);
    }

    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        OdeSystem::for_chunks(&self.members[0], out, f)
    }
}

impl DdeSystem for PomEnsemble {
    fn dim(&self) -> usize {
        self.n() * self.replicas()
    }

    fn eval(&self, t: f64, y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
        self.rhs().dde(t, y, hist, dydt);
    }

    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        OdeSystem::for_chunks(&self.members[0], out, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PomBuilder;
    use crate::potential::Potential;
    use pom_topology::Topology;

    fn member(n: usize, seed: u64) -> Pom {
        PomBuilder::new(n)
            .topology(Topology::ring(n, &[-1, 1]))
            .potential(Potential::KuramotoSin)
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(3.0)
            .local_noise(pom_noise::WhiteJitter::new(seed, 0.05, 0.5))
            .build()
            .unwrap()
    }

    #[test]
    fn batched_fixed_step_matches_independent_runs_bitwise() {
        let n = 24;
        let seeds = [3u64, 11, 42];
        let opts = SimOptions::new(8.0).solver(SolverChoice::FixedRk4 { h: 0.01 });
        let inits: Vec<InitialCondition> = seeds
            .iter()
            .map(|&s| InitialCondition::RandomSpread {
                amplitude: 0.8,
                seed: s,
            })
            .collect();

        // Independent reference runs.
        let mut want = Vec::new();
        for (&s, init) in seeds.iter().zip(&inits) {
            let sum = member(n, s)
                .simulate_observed(init.clone(), &opts, &mut pom_ode::NoObserver)
                .unwrap();
            want.push(sum.final_state().to_vec());
        }

        // Batched run.
        let ens = PomEnsemble::new(seeds.iter().map(|&s| member(n, s)).collect());
        let mut observers = vec![pom_ode::NoObserver; seeds.len()];
        let got = ens
            .simulate_observed(&inits, &opts, &mut observers)
            .unwrap();
        for (rep, sum) in got.iter().enumerate() {
            assert_eq!(sum.final_state(), &want[rep][..], "replica {rep}");
        }
    }
}
