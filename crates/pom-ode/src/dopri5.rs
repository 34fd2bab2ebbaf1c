//! Dormand–Prince explicit Runge–Kutta 5(4) with adaptive step control.
//!
//! This is the same integrator family as MATLAB's `ode45`, which the paper
//! uses to solve the oscillator model (§3.2: "a robust explicit Runge-Kutta
//! (4,5) method (Dormand-Prince)"). The implementation follows Hairer,
//! Nørsett & Wanner, *Solving Ordinary Differential Equations I* (DOPRI5):
//!
//! * the RK5(4)7M coefficient set with the FSAL ("first same as last")
//!   property — 6 fresh RHS evaluations per accepted step,
//! * embedded 4th-order error estimate with mixed absolute/relative
//!   weighting,
//! * PI (proportional–integral) step-size controller with the standard
//!   safety/clamp constants,
//! * automatic initial step-size selection (Hairer's `hinit`),
//! * fourth-order dense output collected into a [`DenseSolution`].

use crate::dense::{DenseSegment, DenseSolution};
use crate::error::OdeError;
use crate::observe::{NoObserver, ObservedSummary, StepObserver};
use crate::workspace::Workspace;
use crate::OdeSystem;

// --- Butcher tableau (RK5(4)7M, Dormand & Prince 1980) ---

const C2: f64 = 1.0 / 5.0;
const C3: f64 = 3.0 / 10.0;
const C4: f64 = 4.0 / 5.0;
const C5: f64 = 8.0 / 9.0;

const A21: f64 = 1.0 / 5.0;
const A31: f64 = 3.0 / 40.0;
const A32: f64 = 9.0 / 40.0;
const A41: f64 = 44.0 / 45.0;
const A42: f64 = -56.0 / 15.0;
const A43: f64 = 32.0 / 9.0;
const A51: f64 = 19372.0 / 6561.0;
const A52: f64 = -25360.0 / 2187.0;
const A53: f64 = 64448.0 / 6561.0;
const A54: f64 = -212.0 / 729.0;
const A61: f64 = 9017.0 / 3168.0;
const A62: f64 = -355.0 / 33.0;
const A63: f64 = 46732.0 / 5247.0;
const A64: f64 = 49.0 / 176.0;
const A65: f64 = -5103.0 / 18656.0;
// Row 7 doubles as the 5th-order weights b_i (FSAL).
const A71: f64 = 35.0 / 384.0;
const A73: f64 = 500.0 / 1113.0;
const A74: f64 = 125.0 / 192.0;
const A75: f64 = -2187.0 / 6784.0;
const A76: f64 = 11.0 / 84.0;

// Error coefficients e_i = b_i − b̂_i (5th minus embedded 4th order).
const E1: f64 = 71.0 / 57600.0;
const E3: f64 = -71.0 / 16695.0;
const E4: f64 = 71.0 / 1920.0;
const E5: f64 = -17253.0 / 339200.0;
const E6: f64 = 22.0 / 525.0;
const E7: f64 = -1.0 / 40.0;

// Dense-output coefficients (Hairer's D array).
const D1: f64 = -12715105075.0 / 11282082432.0;
const D3: f64 = 87487479700.0 / 32700410799.0;
const D4: f64 = -10690763975.0 / 1880347072.0;
const D5: f64 = 701980252875.0 / 199316789632.0;
const D6: f64 = -1453857185.0 / 822651844.0;
const D7: f64 = 69997945.0 / 29380423.0;

// PI controller constants (Hairer's defaults for DOPRI5).
const BETA: f64 = 0.04;
const EXPO1: f64 = 0.2 - BETA * 0.75;
const SAFETY: f64 = 0.9;
/// Maximum step-decrease factor: h may shrink by at most 1/FAC1_INV.
const FAC1_INV: f64 = 5.0;
/// Maximum step-increase factor.
const FAC2: f64 = 10.0;

/// Counters describing the work an integration performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of RHS evaluations.
    pub n_eval: usize,
    /// Number of accepted steps.
    pub n_accepted: usize,
    /// Number of rejected steps.
    pub n_rejected: usize,
}

/// Adaptive Dormand–Prince 5(4) integrator (builder-style configuration).
///
/// ```
/// use pom_ode::{Dopri5, FnSystem};
/// let sys = FnSystem::new(2, |_t, y, d| { d[0] = y[1]; d[1] = -y[0]; });
/// let sol = Dopri5::new().rtol(1e-8).atol(1e-8)
///     .integrate(&sys, 0.0, &[1.0, 0.0], std::f64::consts::TAU)
///     .unwrap();
/// // One full period of the harmonic oscillator returns to the start.
/// assert!((sol.y_end()[0] - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Dopri5 {
    rtol: f64,
    atol: f64,
    h0: Option<f64>,
    h_max: Option<f64>,
    max_steps: usize,
}

impl Default for Dopri5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Dopri5 {
    /// Integrator with default tolerances `rtol = atol = 1e-6`.
    pub fn new() -> Self {
        Self {
            rtol: 1e-6,
            atol: 1e-6,
            h0: None,
            h_max: None,
            max_steps: 1_000_000,
        }
    }

    /// Relative tolerance (per component).
    pub fn rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Absolute tolerance (per component).
    pub fn atol(mut self, atol: f64) -> Self {
        self.atol = atol;
        self
    }

    /// Fix the initial step size instead of estimating it.
    #[cfg(test)]
    pub(crate) fn h0(mut self, h0: f64) -> Self {
        self.h0 = Some(h0);
        self
    }

    /// Upper bound on the step size (default: the whole span).
    pub fn h_max(mut self, h_max: f64) -> Self {
        self.h_max = Some(h_max);
        self
    }

    /// Step budget before the solver gives up (default 10⁶).
    #[cfg(test)]
    pub(crate) fn max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    fn validate(&self) -> Result<(), OdeError> {
        for (name, v) in [("rtol", self.rtol), ("atol", self.atol)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(OdeError::InvalidParameter { name, value: v });
            }
        }
        if let Some(h0) = self.h0 {
            if !(h0.is_finite() && h0 > 0.0) {
                return Err(OdeError::InvalidParameter {
                    name: "h0",
                    value: h0,
                });
            }
        }
        if let Some(hm) = self.h_max {
            if !(hm.is_finite() && hm > 0.0) {
                return Err(OdeError::InvalidParameter {
                    name: "h_max",
                    value: hm,
                });
            }
        }
        Ok(())
    }

    /// Integrate `sys` from `(t0, y0)` to `t_end`, returning the dense
    /// solution (sampleable anywhere in the span) and work counters.
    ///
    /// Thin wrapper over [`Dopri5::integrate_with`] that allocates a fresh
    /// [`Workspace`] per call.
    pub fn integrate_with_stats(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<(DenseSolution, SolverStats), OdeError> {
        self.integrate_with(sys, t0, y0, t_end, &mut Workspace::new())
    }

    /// Integrate with caller-provided scratch memory and a monomorphized
    /// right-hand side, building the dense solution.
    ///
    /// Runs the same step loop as [`Dopri5::integrate_observed`] (same
    /// accepted steps, bitwise-identical final state) and additionally
    /// keeps one 5×n dense-output segment per accepted step — the product
    /// of the integration, and its only per-step allocation. Results are
    /// bitwise independent of workspace reuse.
    pub fn integrate_with<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
    ) -> Result<(DenseSolution, SolverStats), OdeError> {
        let mut segments = Vec::new();
        let (sum, stats) =
            self.run(sys, t0, y0, t_end, ws, &mut NoObserver, Some(&mut segments))?;
        let sol = DenseSolution::new(sys.dim(), t0, t_end, y0.to_vec(), sum.y_end, segments);
        Ok((sol, stats))
    }

    /// Integrate without building a dense solution, streaming every
    /// *accepted* step to `obs` — the O(N)-memory fast path.
    ///
    /// The dense segments [`Dopri5::integrate_with`] keeps are the memory
    /// bound of long-horizon observable extraction; this entry point runs
    /// the same step loop but keeps nothing per step. Rejected step
    /// attempts are invisible to the observer.
    pub fn integrate_observed<S: OdeSystem + ?Sized, O: StepObserver>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> Result<(ObservedSummary, SolverStats), OdeError> {
        self.run(sys, t0, y0, t_end, ws, obs, None)
    }

    /// The step loop. With `dense` set, every accepted step also appends
    /// its dense-output segment there.
    #[allow(clippy::too_many_arguments)]
    fn run<S: OdeSystem + ?Sized, O: StepObserver>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        ws: &mut Workspace,
        obs: &mut O,
        mut dense: Option<&mut Vec<DenseSegment>>,
    ) -> Result<(ObservedSummary, SolverStats), OdeError> {
        self.validate()?;
        let n = sys.dim();
        if y0.len() != n {
            return Err(OdeError::DimensionMismatch {
                expected: n,
                got: y0.len(),
            });
        }
        // Deliberate negation: also rejects NaN endpoints.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(t_end > t0) {
            return Err(OdeError::EmptySpan { t0, t_end });
        }

        let span = t_end - t0;
        let h_max = self.h_max.unwrap_or(span).min(span);
        let mut stats = SolverStats::default();

        let (stage, drive) = ws.split();
        let [mut k1, k2, k3, k4, k5, k6, mut k7, y_stage, mut y_new] = stage.slices::<9>(n);
        let [mut y, probe_y, probe_f] = drive.slices::<3>(n);

        let mut t = t0;
        y.copy_from_slice(y0);

        sys.eval(t, y, k1);
        stats.n_eval += 1;
        check_finite(t, k1)?;

        let mut h = match self.h0 {
            Some(h0) => h0.min(h_max),
            None => {
                let h = self.hinit(sys, t, y, k1, h_max, probe_y, probe_f, &mut stats)?;
                check_finite(t, k1)?;
                h
            }
        };

        let mut fac_old: f64 = 1e-4;
        let mut last_rejected = false;

        obs.begin(t0, y);
        loop {
            if t >= t_end {
                break;
            }
            if stats.n_accepted + stats.n_rejected >= self.max_steps {
                return Err(OdeError::TooManySteps {
                    t_reached: t,
                    max_steps: self.max_steps,
                });
            }
            // Don't overshoot; also avoid a microscopic final step by
            // stretching slightly when within 1% of the end.
            if t + 1.01 * h >= t_end {
                h = t_end - t;
            }
            if h <= f64::EPSILON * t.abs().max(1.0) {
                return Err(OdeError::StepSizeUnderflow { t, h });
            }

            // --- the 6 fresh stages ---
            for i in 0..n {
                y_stage[i] = y[i] + h * A21 * k1[i];
            }
            sys.eval(t + C2 * h, y_stage, k2);
            for i in 0..n {
                y_stage[i] = y[i] + h * (A31 * k1[i] + A32 * k2[i]);
            }
            sys.eval(t + C3 * h, y_stage, k3);
            for i in 0..n {
                y_stage[i] = y[i] + h * (A41 * k1[i] + A42 * k2[i] + A43 * k3[i]);
            }
            sys.eval(t + C4 * h, y_stage, k4);
            for i in 0..n {
                y_stage[i] = y[i] + h * (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]);
            }
            sys.eval(t + C5 * h, y_stage, k5);
            for i in 0..n {
                y_stage[i] = y[i]
                    + h * (A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i] + A65 * k5[i]);
            }
            sys.eval(t + h, y_stage, k6);
            for i in 0..n {
                y_new[i] = y[i]
                    + h * (A71 * k1[i] + A73 * k3[i] + A74 * k4[i] + A75 * k5[i] + A76 * k6[i]);
            }
            sys.eval(t + h, y_new, k7);
            stats.n_eval += 6;
            check_finite(t, k7)?;

            // --- error norm ---
            let mut err_sq = 0.0;
            for i in 0..n {
                let e = h
                    * (E1 * k1[i] + E3 * k3[i] + E4 * k4[i] + E5 * k5[i] + E6 * k6[i] + E7 * k7[i]);
                let sc = self.atol + self.rtol * y[i].abs().max(y_new[i].abs());
                err_sq += (e / sc) * (e / sc);
            }
            let err = (err_sq / n as f64).sqrt();

            // --- PI controller ---
            let fac11 = err.powf(EXPO1);
            let fac = (fac11 / fac_old.powf(BETA) / SAFETY).clamp(1.0 / FAC2, FAC1_INV);
            let h_new = h / fac;

            if err <= 1.0 {
                fac_old = err.max(1e-4);
                if let Some(segments) = dense.as_deref_mut() {
                    // The dense-output segment for [t, t+h]: one flat 5×n
                    // coefficient vector, the segment's storage.
                    let mut rcont = vec![0.0; 5 * n];
                    for i in 0..n {
                        let ydiff = y_new[i] - y[i];
                        let bspl = h * k1[i] - ydiff;
                        rcont[i] = y[i];
                        rcont[n + i] = ydiff;
                        rcont[2 * n + i] = bspl;
                        rcont[3 * n + i] = ydiff - h * k7[i] - bspl;
                        rcont[4 * n + i] = h
                            * (D1 * k1[i]
                                + D3 * k3[i]
                                + D4 * k4[i]
                                + D5 * k5[i]
                                + D6 * k6[i]
                                + D7 * k7[i]);
                    }
                    segments.push(DenseSegment::from_flat(t, h, n, rcont));
                }
                t += h;
                std::mem::swap(&mut y, &mut y_new);
                std::mem::swap(&mut k1, &mut k7); // FSAL: swap the slice handles
                stats.n_accepted += 1;
                obs.observe_step(t, y);

                h = if last_rejected { h_new.min(h) } else { h_new }.min(h_max);
                last_rejected = false;
            } else {
                stats.n_rejected += 1;
                last_rejected = true;
                h /= (fac11 / SAFETY).min(FAC1_INV);
            }
        }
        obs.finish(t, y);

        // begin + every accepted step + finish observer callbacks.
        crate::obs::flush_integration(
            stats.n_accepted as u64,
            stats.n_rejected as u64,
            stats.n_eval as u64,
            stats.n_accepted as u64 + 2,
        );
        Ok((
            ObservedSummary {
                t_end: t,
                n_steps: stats.n_accepted,
                n_eval: stats.n_eval,
                y_end: y.to_vec(),
            },
            stats,
        ))
    }

    /// Integrate, discarding the statistics.
    pub fn integrate(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<DenseSolution, OdeError> {
        self.integrate_with_stats(sys, t0, y0, t_end)
            .map(|(s, _)| s)
    }

    /// Hairer's automatic initial-step heuristic: pick h so that an Euler
    /// step stays small relative to the solution scale, refined by a
    /// second-derivative estimate. `probe_y`/`probe_f` are scratch for the
    /// Euler probe.
    #[allow(clippy::too_many_arguments)]
    fn hinit<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        f0: &[f64],
        h_max: f64,
        probe_y: &mut [f64],
        probe_f: &mut [f64],
        stats: &mut SolverStats,
    ) -> Result<f64, OdeError> {
        let n = y0.len();
        let mut dnf = 0.0;
        let mut dny = 0.0;
        for i in 0..n {
            let sk = self.atol + self.rtol * y0[i].abs();
            dnf += (f0[i] / sk) * (f0[i] / sk);
            dny += (y0[i] / sk) * (y0[i] / sk);
        }
        let mut h = if dnf <= 1e-10 || dny <= 1e-10 {
            1e-6
        } else {
            (dny / dnf).sqrt() * 0.01
        };
        h = h.min(h_max);

        // Explicit Euler probe for a second-derivative estimate.
        for i in 0..n {
            probe_y[i] = y0[i] + h * f0[i];
        }
        sys.eval(t0 + h, probe_y, probe_f);
        stats.n_eval += 1;
        check_finite(t0 + h, probe_f)?;

        let mut der2 = 0.0;
        for i in 0..n {
            let sk = self.atol + self.rtol * y0[i].abs();
            let d = (probe_f[i] - f0[i]) / sk;
            der2 += d * d;
        }
        let der2 = der2.sqrt() / h;

        let der12 = der2.max(dnf.sqrt());
        let h1 = if der12 <= 1e-15 {
            (1e-6f64).max(h.abs() * 1e-3)
        } else {
            (0.01 / der12).powf(0.2)
        };
        Ok(h1.min(100.0 * h).min(h_max))
    }
}

fn check_finite(t: f64, v: &[f64]) -> Result<(), OdeError> {
    if let Some(bad) = v.iter().position(|x| !x.is_finite()) {
        return Err(OdeError::NonFiniteDerivative { t, component: bad });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSystem;
    use std::f64::consts::TAU;

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y, d| d[0] = -y[0])
    }

    fn harmonic() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    #[test]
    fn exponential_decay_high_accuracy() {
        let (sol, stats) = Dopri5::new()
            .rtol(1e-10)
            .atol(1e-12)
            .integrate_with_stats(&decay(), 0.0, &[1.0], 10.0)
            .unwrap();
        let exact = (-10.0f64).exp();
        assert!((sol.y_end()[0] - exact).abs() < 1e-9);
        assert!(stats.n_accepted > 0);
        // FSAL accounting: ~6 evals per attempted step (+ hinit probe + k1).
        let attempts = stats.n_accepted + stats.n_rejected;
        assert!(stats.n_eval <= 6 * attempts + 2);
    }

    #[test]
    fn harmonic_period_accuracy() {
        let sol = Dopri5::new()
            .rtol(1e-9)
            .atol(1e-9)
            .integrate(&harmonic(), 0.0, &[1.0, 0.0], 10.0 * TAU)
            .unwrap();
        assert!((sol.y_end()[0] - 1.0).abs() < 1e-6);
        assert!(sol.y_end()[1].abs() < 1e-6);
    }

    #[test]
    fn dense_output_matches_analytic_solution_everywhere() {
        let sol = Dopri5::new()
            .rtol(1e-9)
            .atol(1e-9)
            .integrate(&decay(), 0.0, &[1.0], 4.0)
            .unwrap();
        // Probe at many off-grid times.
        for k in 0..=400 {
            let t = 4.0 * k as f64 / 400.0;
            let y = sol.sample_component(t, 0);
            assert!(
                (y - (-t).exp()).abs() < 1e-7,
                "dense output wrong at t={t}: {y} vs {}",
                (-t).exp()
            );
        }
    }

    #[test]
    fn dense_output_continuous_across_segments() {
        let sol = Dopri5::new()
            .rtol(1e-6)
            .atol(1e-6)
            .integrate(&harmonic(), 0.0, &[0.0, 1.0], 20.0)
            .unwrap();
        for w in sol.segments().windows(2) {
            let t_knot = w[0].t1();
            let a = w[0].eval(t_knot);
            let b = w[1].eval(t_knot);
            for i in 0..2 {
                assert!((a[i] - b[i]).abs() < 1e-9, "jump at knot t={t_knot}");
            }
        }
    }

    #[test]
    fn tighter_tolerance_means_more_steps_and_less_error() {
        let loose = Dopri5::new().rtol(1e-4).atol(1e-4);
        let tight = Dopri5::new().rtol(1e-10).atol(1e-10);
        let (s_loose, st_loose) = loose
            .integrate_with_stats(&harmonic(), 0.0, &[1.0, 0.0], 10.0 * TAU)
            .unwrap();
        let (s_tight, st_tight) = tight
            .integrate_with_stats(&harmonic(), 0.0, &[1.0, 0.0], 10.0 * TAU)
            .unwrap();
        assert!(st_tight.n_accepted > st_loose.n_accepted);
        let e_loose = (s_loose.y_end()[0] - 1.0).abs();
        let e_tight = (s_tight.y_end()[0] - 1.0).abs();
        assert!(e_tight < e_loose);
    }

    #[test]
    fn moderately_stiff_problem_is_handled() {
        // λ = −200: explicit methods need small steps but must succeed.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -200.0 * y[0]);
        let sol = Dopri5::new()
            .rtol(1e-7)
            .atol(1e-9)
            .integrate(&sys, 0.0, &[1.0], 1.0)
            .unwrap();
        assert!(sol.y_end()[0].abs() < 1e-8);
    }

    #[test]
    fn forced_oscillator_nonautonomous() {
        // ẏ = cos t, y(0) = 0 ⇒ y = sin t.
        let sys = FnSystem::new(1, |t, _y, d| d[0] = t.cos());
        let sol = Dopri5::new()
            .rtol(1e-10)
            .atol(1e-10)
            .integrate(&sys, 0.0, &[0.0], 7.0)
            .unwrap();
        for k in 0..=70 {
            let t = 7.0 * k as f64 / 70.0;
            assert!((sol.sample_component(t, 0) - t.sin()).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_invalid_configuration() {
        assert!(Dopri5::new()
            .rtol(0.0)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
        assert!(Dopri5::new()
            .atol(-1.0)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
        assert!(Dopri5::new()
            .h0(f64::NAN)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
        assert!(Dopri5::new()
            .integrate(&decay(), 0.0, &[1.0, 2.0], 1.0)
            .is_err());
        assert!(Dopri5::new().integrate(&decay(), 1.0, &[1.0], 0.5).is_err());
    }

    #[test]
    fn step_budget_enforced() {
        let res = Dopri5::new()
            .max_steps(3)
            .integrate(&harmonic(), 0.0, &[1.0, 0.0], 1000.0);
        assert!(matches!(res, Err(OdeError::TooManySteps { .. })));
    }

    #[test]
    fn blowup_is_detected() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = y[0] * y[0]);
        // Pole at t = 1 for y0 = 1.
        let res = Dopri5::new().integrate(&sys, 0.0, &[1.0], 2.0);
        assert!(res.is_err());
    }

    #[test]
    fn explicit_h0_and_hmax_are_respected() {
        let (sol, _) = Dopri5::new()
            .h0(1e-3)
            .h_max(0.05)
            .integrate_with_stats(&harmonic(), 0.0, &[1.0, 0.0], 1.0)
            .unwrap();
        for seg in sol.segments() {
            assert!(seg.h() <= 0.05 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn segments_cover_span_exactly() {
        let sol = Dopri5::new().integrate(&decay(), 0.5, &[1.0], 3.5).unwrap();
        assert_eq!(sol.segments().first().unwrap().t0(), 0.5);
        let t1 = sol.segments().last().unwrap().t1();
        assert!((t1 - 3.5).abs() < 1e-9);
    }
}
