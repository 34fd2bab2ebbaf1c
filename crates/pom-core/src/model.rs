//! The coupled-oscillator system itself: Eq. (2) as an `OdeSystem`/`DdeSystem`.
//!
//! [`Pom`] holds the model — parameters, topology, potential, noise, the
//! build-time coupling cache and the RHS configuration (kernel, pool,
//! scratch). Its right-hand side is the shared one in `rhs.rs`, run on
//! the model as an ensemble of one at compile-time width one.

use std::f64::consts::TAU;
use std::sync::{Arc, Mutex};

use pom_kernels::{ChunkPool, DisjointSliceMut};
use pom_noise::{InteractionNoise, LocalNoise};
use pom_ode::dde::{DdeSystem, PhaseHistory};
use pom_ode::OdeSystem;
use pom_topology::{RingStencil, Topology};

use crate::kernel::{One, RhsKernel, SplitScratch};
use crate::params::PomParams;
use crate::potential::Potential;
use crate::rhs::Rhs;

/// Below this row count the fork–join hand-off costs more than the chunked
/// work saves; the RHS then runs inline even when a pool is configured
/// (and the builder skips spawning pool threads entirely — a sweep
/// building thousands of small models must not churn OS threads).
pub(crate) const MIN_PAR_ROWS: usize = 2048;

/// Normalization of the coupling sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Divide by `N`, exactly as written in paper Eq. (2). Faithful, but
    /// note that for sparse topologies the coupling per oscillator then
    /// shrinks as `1/N`.
    #[default]
    ByN,
    /// Divide by the oscillator's degree — an extension that keeps the
    /// per-neighbor coupling independent of system size (used by the
    /// scaling ablation and the Fig. 2 presets).
    ByDegree,
}

/// The Physical Oscillator Model: `N` coupled oscillators with topology
/// `T_ij`, potential `V`, and the paper's two noise terms.
///
/// Construct via [`crate::builder::PomBuilder`].
pub struct Pom {
    pub(crate) params: PomParams,
    pub(crate) topology: Topology,
    pub(crate) potential: Potential,
    pub(crate) local_noise: Arc<dyn LocalNoise>,
    pub(crate) interaction_noise: Arc<dyn InteractionNoise>,
    pub(crate) normalization: Normalization,
    /// Smallest admissible cycle time, guarding the `2π/(… + ζ)`
    /// denominator against non-physical noise excursions.
    pub(crate) min_cycle: f64,
    /// Per-oscillator coupling prefactor `v_p/N` or `v_p/deg(i)`,
    /// precomputed at build time — the right-hand side is evaluated
    /// millions of times per run and must not re-derive static factors.
    pub(crate) coupling_cache: Vec<f64>,
    /// RHS kernel selection (see [`RhsKernel`] for the accuracy policy).
    pub(crate) kernel: RhsKernel,
    /// Resolved `rhs_threads` configuration (reporting; the pool below is
    /// only spawned when the model is large enough to ever use it).
    pub(crate) rhs_threads: usize,
    /// Index-free ring description, present when the topology is a
    /// periodic ring — the split kernel's neighbor fast path.
    pub(crate) stencil: Option<RingStencil>,
    /// Worker pool splitting one RHS evaluation across cores (absent for
    /// the default serial configuration).
    pub(crate) pool: Option<ChunkPool>,
    /// RHS scratch (`sin`/`cos` arrays for the split kernel; `τ`/phase
    /// windows and the delay-node table for the delay path, the table
    /// kept across evaluations and runs). The ODE contract evaluates the
    /// RHS through `&self`, so the scratch sits behind a mutex; the lock
    /// is uncontended (one integration drives one model at a time) and is
    /// taken once per evaluation, not per oscillator.
    pub(crate) split_scratch: Mutex<SplitScratch>,
}

impl std::fmt::Debug for Pom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pom")
            .field("n", &self.params.n)
            .field("potential", &self.potential)
            .field("coupling", &self.params.coupling())
            .field("topology", &self.topology)
            .field("has_delays", &self.has_delays())
            .field("kernel", &self.kernel)
            .field("rhs_threads", &self.rhs_threads())
            .finish_non_exhaustive()
    }
}

impl Pom {
    /// Scalar parameters.
    pub fn params(&self) -> &PomParams {
        &self.params
    }

    /// The topology matrix `T`.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The interaction potential `V`.
    pub fn potential(&self) -> Potential {
        self.potential
    }

    /// Number of oscillators.
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// Natural angular frequency `ω` (noise-free).
    pub fn omega(&self) -> f64 {
        self.params.omega()
    }

    /// `true` if process-local noise `ζ_i(t)` is active (the RHS is then
    /// potentially discontinuous in `t` — integrators must bound their
    /// step size; see `simulate_with`).
    pub fn has_local_noise(&self) -> bool {
        !self.local_noise.is_null()
    }

    /// `true` if the interaction noise forces the delay-equation path.
    pub fn has_delays(&self) -> bool {
        !self.interaction_noise.is_null()
    }

    /// Largest interaction delay (history depth needed by the DDE solver).
    pub fn max_delay(&self) -> f64 {
        self.interaction_noise.max_delay()
    }

    /// Coupling prefactor for oscillator `i` (`v_p/N` or `v_p/deg(i)`),
    /// served from the build-time cache.
    #[cfg(test)]
    pub(crate) fn coupling_scale(&self, i: usize) -> f64 {
        self.coupling_cache[i]
    }

    /// Compute the coupling prefactor from first principles (used once at
    /// build time to fill the cache).
    pub(crate) fn compute_coupling_scale(&self, i: usize) -> f64 {
        let vp = self.params.coupling();
        match self.normalization {
            Normalization::ByN => vp / self.params.n as f64,
            Normalization::ByDegree => vp / self.topology.degree(i).max(1) as f64,
        }
    }

    /// Selected RHS kernel.
    pub fn kernel(&self) -> RhsKernel {
        self.kernel
    }

    /// Configured thread fan-out for a single RHS evaluation (1 = serial).
    /// Models below the internal ~2k-row threshold always evaluate inline,
    /// whatever this reports.
    pub fn rhs_threads(&self) -> usize {
        self.rhs_threads
    }

    /// Intrinsic term `2π / (t_comp + t_comm + ζ_i(t))`, with the period
    /// clamped below by `min_cycle`. The RHS rows evaluate each replica's
    /// intrinsic through its own member.
    #[inline]
    pub(crate) fn intrinsic(&self, i: usize, t: f64) -> f64 {
        let mut cycle = self.params.cycle_time();
        if !self.local_noise.is_null() {
            cycle += self.local_noise.zeta(i, t);
        }
        TAU / cycle.max(self.min_cycle)
    }

    /// The worker pool of this model's RHS: the configured pool when the
    /// model has at least [`MIN_PAR_ROWS`] rows, else `None` (inline).
    #[inline]
    pub(crate) fn row_pool(&self) -> Option<&ChunkPool> {
        self.pool.as_ref().filter(|_| self.n() >= MIN_PAR_ROWS)
    }

    /// This model as an ensemble of one, at compile-time width one.
    fn rhs(&self) -> Rhs<'_, One> {
        Rhs {
            members: std::slice::from_ref(self),
            scratch: &self.split_scratch,
            shared_delays: true,
            width: One,
        }
    }
}

impl OdeSystem for Pom {
    fn dim(&self) -> usize {
        self.params.n
    }

    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.rhs().ode(t, y, dydt);
    }

    /// Chunks on the RHS worker pool when the rows use it (at least
    /// ~2k oscillators and `rhs_threads > 1`), for a state of any length
    /// (this model's `n`, or `n·R` for an ensemble it leads).
    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        let Some(pool) = self.row_pool() else {
            return f(0, out);
        };
        let len = out.len();
        let shared = DisjointSliceMut::new(out);
        pool.run(len, &|_slot, range| {
            // SAFETY: `run` hands each slot a disjoint range of `0..len`.
            f(range.start, unsafe { shared.range_mut(range) })
        });
    }
}

impl DdeSystem for Pom {
    fn dim(&self) -> usize {
        self.params.n
    }

    fn eval(&self, t: f64, y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
        self.rhs().dde(t, y, hist, dydt);
    }

    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        OdeSystem::for_chunks(self, out, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PomBuilder;
    use crate::params::Protocol;
    use pom_noise::{DelayEvent, OneOffDelays};
    use pom_ode::Dopri5;

    /// Two coupled oscillators with equal frequencies: helper returning the
    /// phase difference trajectory under a given potential and coupling.
    fn pair_difference(potential: Potential, vp: f64, x0: f64, t_end: f64) -> f64 {
        let model = PomBuilder::new(2)
            .topology(Topology::ring(2, &[1]))
            .potential(potential)
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(vp)
            .build()
            .unwrap();
        let sol = Dopri5::new()
            .rtol(1e-10)
            .atol(1e-10)
            .integrate(&model, 0.0, &[0.0, x0], t_end)
            .unwrap();
        sol.y_end()[1] - sol.y_end()[0]
    }

    #[test]
    fn two_oscillator_tanh_matches_closed_form() {
        // With N = 2 and one neighbor each (coupling scale v_p/2):
        // θ̇₀ = ω + (v_p/2)V(x), θ̇₁ = ω + (v_p/2)V(−x), x = θ₁ − θ₀
        // ⇒ ẋ = (v_p/2)(V(−x) − V(x)) = −v_p·tanh(x)
        // ⇒ sinh x(t) = sinh x(0)·e^{−v_p t}.
        let vp = 2.0;
        let x0 = 1.5;
        for &t in &[0.5, 1.0, 2.0] {
            let x = pair_difference(Potential::Tanh, vp, x0, t);
            let exact = (x0.sinh() * (-vp * t).exp()).asinh();
            assert!(
                (x - exact).abs() < 1e-7,
                "t = {t}: x = {x}, exact = {exact}"
            );
        }
    }

    #[test]
    fn two_oscillator_desync_settles_at_two_thirds_sigma() {
        let sigma = 3.0;
        // Start slightly off lockstep; the repulsive core blows the
        // difference up to the stable separation 2σ/3 (§5.2.2).
        let x = pair_difference(Potential::desync(sigma), 2.0, 0.05, 200.0);
        assert!(
            (x.abs() - 2.0 * sigma / 3.0).abs() < 1e-6,
            "settled at {x}, want ±{}",
            2.0 * sigma / 3.0
        );
    }

    #[test]
    fn two_oscillator_desync_lockstep_is_unstable() {
        // Exactly at lockstep the system stays (fixed point)…
        let x = pair_difference(Potential::desync(3.0), 2.0, 0.0, 50.0);
        assert!(x.abs() < 1e-9);
        // …but an infinitesimal kick departs: after the same time a tiny
        // perturbation has grown by orders of magnitude.
        let x = pair_difference(Potential::desync(3.0), 2.0, 1e-6, 50.0);
        assert!(x.abs() > 0.1, "perturbation must grow, got {x}");
    }

    #[test]
    fn free_oscillators_advance_at_natural_frequency() {
        // κ = 0 ⇒ v_p = 0 ⇒ free processes (§5.1.1, βκ ≈ 0 case).
        let model = PomBuilder::new(4)
            .topology(Topology::ring(4, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(0.6)
            .comm_time(0.4)
            .kappa(0.0)
            .build()
            .unwrap();
        let sol = Dopri5::new()
            .rtol(1e-10)
            .atol(1e-10)
            .integrate(&model, 0.0, &[0.0, 1.0, 2.0, 3.0], 5.0)
            .unwrap();
        let omega = model.omega();
        for i in 0..4 {
            let expect = i as f64 + omega * 5.0;
            assert!((sol.y_end()[i] - expect).abs() < 1e-7, "osc {i}");
        }
    }

    #[test]
    fn one_off_delay_slows_target_rank() {
        let injection = OneOffDelays::new(vec![DelayEvent {
            rank: 1,
            t_start: 0.0,
            duration: 5.0,
            extra: 1.0, // doubles the cycle time → halves the frequency
        }]);
        let model = PomBuilder::new(3)
            .topology(Topology::ring(3, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(1.0)
            .comm_time(0.0)
            .kappa(0.0) // uncoupled: isolate the noise effect
            .local_noise(injection)
            .build()
            .unwrap();
        let sol = Dopri5::new()
            .rtol(1e-9)
            .atol(1e-9)
            .integrate(&model, 0.0, &[0.0; 3], 5.0)
            .unwrap();
        let omega = model.omega();
        assert!((sol.y_end()[0] - omega * 5.0).abs() < 1e-6);
        // Rank 1 ran at half frequency for the whole window.
        assert!((sol.y_end()[1] - omega * 5.0 / 2.0).abs() < 1e-6);
        assert!((sol.y_end()[2] - omega * 5.0).abs() < 1e-6);
    }

    #[test]
    fn degree_normalization_strengthens_sparse_coupling() {
        let build = |norm| {
            PomBuilder::new(16)
                .topology(Topology::ring(16, &[-1, 1]))
                .potential(Potential::Tanh)
                .compute_time(1.0)
                .comm_time(0.0)
                .protocol(Protocol::Eager)
                .kappa(2.0)
                .normalization(norm)
                .build()
                .unwrap()
        };
        let by_n = build(Normalization::ByN);
        let by_deg = build(Normalization::ByDegree);
        // v_p = 2; per-neighbor scale: 2/16 vs 2/2.
        assert!((by_n.coupling_scale(0) - 0.125).abs() < 1e-12);
        assert!((by_deg.coupling_scale(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dde_path_with_constant_delay_still_synchronizes() {
        use pom_noise::ConstantDelay;
        use pom_ode::dde::{DdeRk4, InitialHistory};
        let model = PomBuilder::new(4)
            .topology(Topology::ring(4, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(4.0)
            .interaction_noise(ConstantDelay::new(0.05))
            .build()
            .unwrap();
        assert!(model.has_delays());
        let solver = DdeRk4::new(0.01).unwrap();
        let init = InitialHistory::Constant(vec![0.0, 0.4, 0.1, 0.6]);
        let (traj, _) = solver.integrate(&model, 0.0, init, 120.0).unwrap();
        let last = traj.last().unwrap();
        let spread = last.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - last.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 0.02,
            "should resync despite small delay, spread {spread}"
        );
    }

    #[test]
    fn model_reports_shapes() {
        let model = PomBuilder::new(8)
            .topology(Topology::ring(8, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(0.5)
            .comm_time(0.5)
            .build()
            .unwrap();
        assert_eq!(OdeSystem::dim(&model), 8);
        assert_eq!(model.n(), 8);
        assert!(!model.has_delays());
        assert_eq!(model.max_delay(), 0.0);
        assert_eq!(model.potential().name(), "tanh");
    }
}
