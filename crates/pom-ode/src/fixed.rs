//! Fixed-step explicit Runge–Kutta steppers and their driver.
//!
//! These methods complement the adaptive [`crate::dopri5::Dopri5`]
//! integrator: they are what the ablation benches compare against, they
//! drive the delay-equation solver (where classical adaptive dense output
//! does not directly apply), and their textbook convergence orders give the
//! test suite hard numerical ground truth.

use crate::error::OdeError;
use crate::observe::{ObservedSummary, Record, StepObserver};
use crate::stage::{combine, first_non_finite, Chunks};
use crate::trajectory::Trajectory;
use crate::workspace::{ScratchPool, Workspace};
use crate::OdeSystem;

/// A single-step method advancing `y(t) → y(t + h)`.
///
/// The method is generic over the system (`S: OdeSystem + ?Sized`), so a
/// concrete system monomorphizes the stage loop (no virtual dispatch on
/// the hot path) while `&dyn OdeSystem` still works where type erasure is
/// convenient. Stage buffers come from the caller's `ScratchPool`; a
/// step performs no heap allocation. The elementwise stage combinations
/// run on the system's [`OdeSystem::for_chunks`].
pub trait Stepper {
    /// Advance the state by one step of size `h`.
    ///
    /// Writes the new state into `y_out` (which must not alias `y`) and
    /// returns the number of RHS evaluations performed. Stage scratch is
    /// borrowed from `scratch`.
    fn step<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        y: &[f64],
        h: f64,
        y_out: &mut [f64],
        scratch: &mut ScratchPool,
    ) -> usize;

    /// Classical convergence order of the method.
    fn order(&self) -> usize;

    /// Short human-readable name.
    fn name(&self) -> &'static str;
}

/// First-order explicit Euler method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euler;

impl Stepper for Euler {
    fn step<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        y: &[f64],
        h: f64,
        y_out: &mut [f64],
        scratch: &mut ScratchPool,
    ) -> usize {
        let chunks: Chunks = &|out, f| sys.for_chunks(out, f);
        let [k] = scratch.slices::<1>(y.len());
        sys.eval(t, y, k);
        combine(chunks, y_out, [y, k], |[y, k]| y + h * k);
        1
    }

    fn order(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "euler"
    }
}

/// Second-order Heun (explicit trapezoidal) method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heun;

impl Stepper for Heun {
    fn step<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        y: &[f64],
        h: f64,
        y_out: &mut [f64],
        scratch: &mut ScratchPool,
    ) -> usize {
        let chunks: Chunks = &|out, f| sys.for_chunks(out, f);
        let [k1, k2, ytmp] = scratch.slices::<3>(y.len());
        sys.eval(t, y, k1);
        combine(chunks, ytmp, [y, k1], |[y, k1]| y + h * k1);
        sys.eval(t + h, ytmp, k2);
        combine(chunks, y_out, [y, k1, k2], |[y, k1, k2]| {
            y + 0.5 * h * (k1 + k2)
        });
        2
    }

    fn order(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "heun"
    }
}

/// Classical fourth-order Runge–Kutta method.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rk4;

impl Stepper for Rk4 {
    fn step<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        y: &[f64],
        h: f64,
        y_out: &mut [f64],
        scratch: &mut ScratchPool,
    ) -> usize {
        let chunks: Chunks = &|out, f| sys.for_chunks(out, f);
        let [k1, k2, k3, k4, ytmp] = scratch.slices::<5>(y.len());

        sys.eval(t, y, k1);
        combine(chunks, ytmp, [y, k1], |[y, k1]| y + 0.5 * h * k1);
        sys.eval(t + 0.5 * h, ytmp, k2);
        combine(chunks, ytmp, [y, k2], |[y, k2]| y + 0.5 * h * k2);
        sys.eval(t + 0.5 * h, ytmp, k3);
        combine(chunks, ytmp, [y, k3], |[y, k3]| y + h * k3);
        sys.eval(t + h, ytmp, k4);
        combine(chunks, y_out, [y, k1, k2, k3, k4], |[y, k1, k2, k3, k4]| {
            y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        });
        4
    }

    fn order(&self) -> usize {
        4
    }

    fn name(&self) -> &'static str {
        "rk4"
    }
}

/// Drives a [`Stepper`] across a time span with a constant step size.
#[derive(Debug, Clone)]
pub struct FixedStepSolver<S> {
    stepper: S,
    h: f64,
}

impl<S: Stepper> FixedStepSolver<S> {
    /// Create a solver with step size `h` (must be positive and finite).
    pub fn new(stepper: S, h: f64) -> Result<Self, OdeError> {
        if !(h.is_finite() && h > 0.0) {
            return Err(OdeError::InvalidParameter {
                name: "h",
                value: h,
            });
        }
        Ok(Self { stepper, h })
    }

    /// Integrate from `t0` to `t_end` (the last step is shortened to land
    /// exactly on `t_end`). Returns the recorded trajectory, whose first
    /// sample is `(t0, y0)` and last sample is `(t_end, y(t_end))`.
    ///
    /// Thin wrapper over [`FixedStepSolver::integrate_with`] that allocates
    /// a fresh [`Workspace`]; hot loops (sweeps, ensembles) should hold one
    /// workspace and call the `_with` variant directly.
    pub fn integrate(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<Trajectory, OdeError> {
        self.integrate_with(sys, t0, y0, t_end, &mut Workspace::new())
    }

    /// Integrate with caller-provided scratch memory, recording every step:
    /// [`FixedStepSolver::integrate_observed`] with a [`Record`] attached.
    /// For a decimated recording, attach `ObserveEvery::new(Record, k)`
    /// to `integrate_observed` directly.
    pub fn integrate_with<Sys: OdeSystem + ?Sized>(
        &self,
        sys: &Sys,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
    ) -> Result<Trajectory, OdeError> {
        let samples = self.n_steps(t_end - t0).saturating_add(1);
        let mut rec = Record::with_capacity(samples);
        self.integrate_observed(sys, t0, y0, t_end, ws, &mut rec)?;
        Ok(rec.into_trajectory())
    }

    /// Number of steps the driver takes over `span`.
    fn n_steps(&self, span: f64) -> usize {
        (span / self.h).ceil().max(1.0) as usize
    }

    /// Integrate, streaming every step to `obs` — the solver's one step
    /// loop, and the O(N)-memory fast path when `obs` keeps no samples.
    ///
    /// After the workspace warms up (first step at this dimension), the
    /// loop performs no heap allocation and results are bitwise
    /// independent of workspace reuse. Non-finite states are reported at
    /// the first step that produces one, naming its lowest non-finite
    /// component (the scan runs on the system's chunks).
    pub fn integrate_observed<Sys: OdeSystem + ?Sized, O: StepObserver>(
        &self,
        sys: &Sys,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> Result<ObservedSummary, OdeError> {
        if y0.len() != sys.dim() {
            return Err(OdeError::DimensionMismatch {
                expected: sys.dim(),
                got: y0.len(),
            });
        }
        // Deliberate negation: also rejects NaN endpoints.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(t_end > t0) {
            return Err(OdeError::EmptySpan { t0, t_end });
        }

        let n = sys.dim();
        let span = t_end - t0;
        let n_steps = self.n_steps(span);

        let chunks: Chunks = &|out, f| sys.for_chunks(out, f);
        let (stage, drive) = ws.split();
        let [mut y, mut y_next] = drive.slices::<2>(n);
        y.copy_from_slice(y0);
        let mut t = t0;
        let mut n_eval = 0;

        obs.begin(t0, y);
        for step_idx in 1..=n_steps {
            // Recompute the target time from the index so that rounding
            // error does not accumulate across millions of steps.
            let t_target = if step_idx == n_steps {
                t_end
            } else {
                t0 + span * (step_idx as f64 / n_steps as f64)
            };
            let h = t_target - t;
            n_eval += self.stepper.step(sys, t, y, h, y_next, stage);
            std::mem::swap(&mut y, &mut y_next);
            t = t_target;
            if let Some(bad) = first_non_finite(chunks, y) {
                return Err(OdeError::NonFiniteDerivative { t, component: bad });
            }
            obs.observe_step(t, y);
        }
        obs.finish(t, y);
        // begin + every step + finish = n_steps + 2 observer callbacks.
        crate::obs::flush_integration(n_steps as u64, 0, n_eval as u64, n_steps as u64 + 2);
        Ok(ObservedSummary {
            t_end: t,
            n_steps,
            n_eval,
            y_end: y.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{CollectObserver, ObserveEvery};
    use crate::FnSystem;

    /// ẏ = −y ⇒ y(t) = y₀ e^{−t}.
    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y, d| d[0] = -y[0])
    }

    /// Harmonic oscillator ÿ = −y as a 2-D first-order system.
    fn harmonic() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    fn global_error<S: Stepper>(stepper: S, h: f64) -> f64 {
        let solver = FixedStepSolver::new(stepper, h).unwrap();
        let traj = solver.integrate(&decay(), 0.0, &[1.0], 2.0).unwrap();
        (traj.last().unwrap()[0] - (-2.0f64).exp()).abs()
    }

    /// Measured convergence slope log2(err(h)/err(h/2)) must be close to the
    /// theoretical order.
    fn check_order<S: Stepper + Copy>(stepper: S, expect: f64, tol: f64) {
        let e1 = global_error(stepper, 0.02);
        let e2 = global_error(stepper, 0.01);
        let slope = (e1 / e2).log2();
        assert!(
            (slope - expect).abs() < tol,
            "{}: slope {slope:.3}, expected ≈ {expect}",
            stepper.name()
        );
    }

    #[test]
    fn euler_is_first_order() {
        check_order(Euler, 1.0, 0.15);
    }

    #[test]
    fn heun_is_second_order() {
        check_order(Heun, 2.0, 0.15);
    }

    #[test]
    fn rk4_is_fourth_order() {
        check_order(Rk4, 4.0, 0.2);
    }

    #[test]
    fn rk4_decay_accuracy() {
        let solver = FixedStepSolver::new(Rk4, 0.01).unwrap();
        let traj = solver.integrate(&decay(), 0.0, &[1.0], 5.0).unwrap();
        let exact = (-5.0f64).exp();
        assert!((traj.last().unwrap()[0] - exact).abs() < 1e-9);
    }

    #[test]
    fn rk4_harmonic_phase_and_energy() {
        let solver = FixedStepSolver::new(Rk4, 0.005).unwrap();
        let t_end = 4.0 * std::f64::consts::PI; // two full periods
        let traj = solver
            .integrate(&harmonic(), 0.0, &[1.0, 0.0], t_end)
            .unwrap();
        let last = traj.last().unwrap();
        assert!(
            (last[0] - 1.0).abs() < 1e-8,
            "cos returned to 1, got {}",
            last[0]
        );
        assert!(last[1].abs() < 1e-8);
        // Energy conservation along the whole run.
        for (_, s) in traj.iter() {
            let energy = s[0] * s[0] + s[1] * s[1];
            assert!((energy - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rk4_exact_for_cubic_quadrature() {
        // For ẏ = f(t) (no state dependence) RK4 reduces to Simpson's rule,
        // which integrates cubics exactly.
        let sys = FnSystem::new(1, |t, _y, d| d[0] = 3.0 * t * t - 4.0 * t + 2.0);
        let solver = FixedStepSolver::new(Rk4, 0.25).unwrap();
        let traj = solver.integrate(&sys, 0.0, &[0.0], 2.0).unwrap();
        let exact = 8.0 - 8.0 + 4.0; // t³ − 2t² + 2t at t = 2
        assert!((traj.last().unwrap()[0] - exact).abs() < 1e-12);
    }

    #[test]
    fn last_sample_lands_exactly_on_t_end() {
        // Span not divisible by h: final step is shortened.
        let solver = FixedStepSolver::new(Rk4, 0.3).unwrap();
        let traj = solver.integrate(&decay(), 0.0, &[1.0], 1.0).unwrap();
        assert_eq!(*traj.times().last().unwrap(), 1.0);
    }

    #[test]
    fn decimated_recording_thins_output_but_keeps_final() {
        let solver = FixedStepSolver::new(Euler, 0.1).unwrap();
        let mut rec = ObserveEvery::new(Record::default(), 4);
        solver
            .integrate_observed(&decay(), 0.0, &[1.0], 1.0, &mut Workspace::new(), &mut rec)
            .unwrap();
        let traj = rec.into_inner().into_trajectory();
        // 10 steps: records t0, steps 4, 8 and the final step 10.
        assert_eq!(traj.len(), 4);
        assert_eq!(*traj.times().last().unwrap(), 1.0);
    }

    #[test]
    fn decimated_recording_reports_blowup_at_first_non_finite_step() {
        // ẏ = y²: Euler overflows to +∞ a few dozen steps past the pole.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0] * y[0]);
        let solver = FixedStepSolver::new(Euler, 0.01).unwrap();
        let (t_end, n_steps) = (5.0, 500);
        let mut all = CollectObserver::default();
        let res =
            solver.integrate_observed(&sys, 0.0, &[1.0], t_end, &mut Workspace::new(), &mut all);
        assert!(res.is_err());
        // Every step before the blow-up was delivered; the next one is it.
        let first_bad = all.samples.len() + 1;
        let t_bad = t_end * (first_bad as f64 / n_steps as f64);
        let k = 64;
        assert_ne!(first_bad % k, 0, "blow-up must fall between record points");

        let mut rec = ObserveEvery::new(Record::default(), k);
        let res =
            solver.integrate_observed(&sys, 0.0, &[1.0], t_end, &mut Workspace::new(), &mut rec);
        match res {
            Err(OdeError::NonFiniteDerivative { t, component: 0 }) => {
                assert_eq!(
                    t.to_bits(),
                    t_bad.to_bits(),
                    "reported at t = {t}, blow-up at {t_bad}"
                )
            }
            other => panic!("expected a non-finite error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(FixedStepSolver::new(Rk4, 0.0).is_err());
        assert!(FixedStepSolver::new(Rk4, f64::NAN).is_err());
        let solver = FixedStepSolver::new(Rk4, 0.1).unwrap();
        assert!(solver.integrate(&decay(), 0.0, &[1.0, 2.0], 1.0).is_err());
        assert!(solver.integrate(&decay(), 1.0, &[1.0], 1.0).is_err());
        assert!(solver.integrate(&decay(), 2.0, &[1.0], 1.0).is_err());
    }

    #[test]
    fn non_finite_state_is_reported() {
        // ẏ = y² blows up in finite time (y₀ = 1 ⇒ pole at t = 1).
        let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0] * y[0]);
        let solver = FixedStepSolver::new(Euler, 0.01).unwrap();
        let res = solver.integrate(&sys, 0.0, &[1.0], 5.0);
        assert!(matches!(res, Err(OdeError::NonFiniteDerivative { .. })));
    }

    #[test]
    fn stepper_metadata() {
        assert_eq!(Euler.order(), 1);
        assert_eq!(Heun.order(), 2);
        assert_eq!(Rk4.order(), 4);
        assert_eq!(Rk4.name(), "rk4");
    }
}
