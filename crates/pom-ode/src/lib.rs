//! Explicit ODE and delay-DE solvers for the Physical Oscillator Model.
//!
//! The paper (§3.2) integrates the coupled oscillator system, Eq. (2), with
//! MATLAB's `ode45`, i.e. the Dormand–Prince explicit Runge–Kutta 5(4) pair.
//! This crate reimplements that integrator from scratch — together with the
//! simpler fixed-step methods used for cross-validation — and adds the delay
//! differential equation (DDE) machinery needed for the paper's *interaction
//! noise* term `τ_ij(t)`, which makes the right-hand side depend on past
//! states `θ_j(t − τ_ij(t))`.
//!
//! ## Contents
//!
//! * [`OdeSystem`] / [`FnSystem`] — right-hand-side abstraction.
//! * `fixed` — fixed-step steppers: explicit [`fixed::Euler`],
//!   [`fixed::Heun`], classical [`fixed::Rk4`], and the driver
//!   [`fixed::FixedStepSolver`].
//! * `dopri5` — adaptive Dormand–Prince 5(4) with PI step-size control,
//!   FSAL optimization and 5-coefficient dense output
//!   ([`dopri5::Dopri5`]).
//! * `dense` — dense-output segments and the piecewise
//!   [`dense::DenseSolution`] they form.
//! * [`dde`] — delay systems ([`dde::DdeSystem`]), cubic-Hermite history
//!   buffers and the fixed-step DDE integrator [`dde::DdeRk4`].
//! * `trajectory` — flat-storage sampled trajectories shared by all
//!   solvers.
//! * `events` — post-hoc root finding on dense solutions (e.g. "when does
//!   the order parameter cross 0.99?").
//! * `ensemble` — lockstep multi-replica batching: the interleaved
//!   `[n × R]` layout ([`EnsembleLayout`]), the gather/scatter reference
//!   system ([`EnsembleSystem`]) and the per-replica observer fan-out
//!   ([`EnsembleObserver`]).
//! * `observe` — streaming step observers ([`StepObserver`]), the
//!   recording observer [`Record`] and the decimating [`ObserveEvery`]:
//!   online observables over long-horizon runs with **no** per-step
//!   trajectory storage, or a stored trajectory when one is wanted.
//! * `workspace` — reusable scratch memory ([`Workspace`]) for the
//!   allocation-free step loops.
//! * `stage` — the fixed-step stage arithmetic and finiteness scans, run
//!   on the chunks a system lends through [`OdeSystem::for_chunks`].
//!
//! ## Performance model
//!
//! Every solver has exactly one step loop, reached through
//! `integrate_observed`: generic over the system (monomorphized
//! right-hand side, no virtual dispatch) and over the [`StepObserver`],
//! borrowing a caller-held [`Workspace`] so the loop is allocation-free.
//! Recording runs the same loop: the fixed-step and DDE `integrate_with`
//! attach a [`Record`] (the DDE solver also returns its full history),
//! Dopri5's collects its dense-output segments. `integrate` /
//! `integrate_with_stats` accept `&dyn` systems and allocate a fresh
//! workspace per call — convenient for one-off runs. A recorded run and
//! an observed run therefore take the same steps and produce bitwise
//! identical states, whatever the workspace's history.
//!
//! ## Example
//!
//! ```
//! use pom_ode::{Dopri5, FnSystem};
//!
//! // ẏ = −y, y(0) = 1  ⇒  y(t) = e^{−t}
//! let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
//! let sol = Dopri5::new().rtol(1e-9).atol(1e-9)
//!     .integrate(&sys, 0.0, &[1.0], 5.0)
//!     .unwrap();
//! let y5 = sol.sample(5.0)[0];
//! assert!((y5 - (-5.0f64).exp()).abs() < 1e-7);
//! ```

pub mod dde;
mod dense;
mod dopri5;
mod ensemble;
mod error;
mod events;
mod fixed;
pub(crate) mod obs;
mod observe;
mod stage;
mod trajectory;
mod workspace;

pub use dde::{DdeRk4, DdeSystem, PhaseHistory};
pub use dense::DenseSolution;
pub use dopri5::Dopri5;
pub use ensemble::{EnsembleLayout, EnsembleObserver, EnsembleSystem};
pub use error::OdeError;
pub use events::first_zero_crossing;
pub use fixed::{Euler, FixedStepSolver, Heun, Rk4, Stepper};
pub use observe::{Accuracy, CollectObserver, NoObserver, ObserveEvery, Record, StepObserver};
pub use trajectory::Trajectory;
pub use workspace::Workspace;

/// Right-hand side of a first-order ODE system `ẏ = f(t, y)`.
///
/// Implementations must be deterministic for a given `(t, y)`: adaptive
/// solvers re-evaluate rejected steps and dense output assumes the RHS seen
/// during the step is reproducible. (Stochastic forcing in the oscillator
/// model is implemented as *frozen* noise: a deterministic function of `t`
/// drawn once up-front — see `pom-noise`.)
pub trait OdeSystem {
    /// Dimension `n` of the state vector.
    fn dim(&self) -> usize;

    /// Evaluate the derivative: write `f(t, y)` into `dydt`.
    ///
    /// `y` and `dydt` both have length [`OdeSystem::dim`].
    ///
    /// `dydt` is **not** zeroed on entry — solvers hand out reused scratch
    /// buffers ([`Workspace`]) that hold stale values from earlier stages.
    /// Implementations must assign every component (`d[i] = …`, never
    /// `d[i] += …` on unwritten slots) and must not read `dydt`.
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]);

    /// Run `f(offset, chunk)` over a cover of `out` by disjoint contiguous
    /// chunks, `chunk` being `out[offset..offset + chunk.len()]`. The
    /// fixed-step solvers run their elementwise stage arithmetic and
    /// finiteness scans through this hook, so a system whose RHS already
    /// runs on worker threads can lend them; chunks may then run
    /// concurrently. The default runs `f(0, out)` inline.
    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        f(0, out)
    }
}

/// Adapter turning a closure `f(t, y, dydt)` into an [`OdeSystem`].
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnSystem<F> {
    /// Wrap closure `f` as an ODE system of dimension `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        Self { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        debug_assert_eq!(y.len(), self.dim);
        debug_assert_eq!(dydt.len(), self.dim);
        (self.f)(t, y, dydt)
    }
}

impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (**self).eval(t, y, dydt)
    }
    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        (**self).for_chunks(out, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_system_evaluates_closure() {
        let sys = FnSystem::new(2, |t, y, dydt| {
            dydt[0] = y[1];
            dydt[1] = -y[0] + t;
        });
        assert_eq!(sys.dim(), 2);
        let mut out = [0.0; 2];
        sys.eval(2.0, &[3.0, 4.0], &mut out);
        assert_eq!(out, [4.0, -1.0]);
    }

    #[test]
    fn system_usable_through_reference() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = 2.0 * y[0]);
        let r = &sys;
        let mut out = [0.0];
        r.eval(0.0, &[1.5], &mut out);
        assert_eq!(out[0], 3.0);
        assert_eq!(r.dim(), 1);
    }
}
