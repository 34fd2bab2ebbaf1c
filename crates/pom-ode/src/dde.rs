//! Delay differential equations (DDEs) for the interaction-noise term.
//!
//! Paper Eq. (2) couples oscillator `i` to the *past* phase of oscillator
//! `j`: `V(θ_j(t − τ_ij(t)) − θ_i(t))`. With any nonzero delay the model is
//! a DDE, solved here by the classical *method of steps*: a fixed-step RK4
//! integrator whose stage evaluations look up past states in a
//! cubic-Hermite-interpolated [`HistoryBuffer`].
//!
//! Accuracy notes:
//! * For delays `τ ≥ h` every history lookup falls inside completed steps
//!   and the scheme retains its full order (the Hermite interpolant is
//!   O(h⁴), matching RK4).
//! * For delays `0 < τ < h` stage lookups may land in the *current*,
//!   not-yet-completed step; the buffer then extrapolates linearly from the
//!   last knot. This is the standard explicit treatment for small delays
//!   and is exact in the limit `τ → 0` (where the DDE degenerates to an
//!   ODE — covered by a regression test).

use crate::error::OdeError;
use crate::observe::{ObservedSummary, Record, StepObserver};
use crate::stage::{combine, first_non_finite, Chunks};
use crate::trajectory::Trajectory;
use crate::workspace::Workspace;

/// Read access to the (interpolated) past of a solution.
///
/// The `Sync` bound lets a right-hand side fan its per-component work out
/// across threads (the model's chunked RHS executor reads history from
/// every worker); all history sources here are immutable-once-written, so
/// the bound costs implementations nothing.
pub trait PhaseHistory: Sync {
    /// Value of component `i` at time `t` (may precede the start of the
    /// integration, in which case the initial history applies).
    fn sample(&self, t: f64, i: usize) -> f64;

    /// Sample the contiguous component run `base..base + out.len()` at one
    /// time. Each `out[q]` is bitwise equal to `sample(t, base + q)`; the
    /// point of the method is that implementations can pay the knot search
    /// and interpolation-coefficient setup once for the whole run. The
    /// batched ensemble RHS leans on this: with the replica-interleaved
    /// layout, "all R replicas of partner `j`" is exactly such a run.
    fn sample_run(&self, t: f64, base: usize, out: &mut [f64]) {
        for (q, o) in out.iter_mut().enumerate() {
            *o = self.sample(t, base + q);
        }
    }

    /// Sample every component at time `t` into `out`.
    fn sample_all(&self, t: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.sample(t, i);
        }
    }
}

/// Right-hand side of a delay system `ẏ = f(t, y, y(·))`.
pub trait DdeSystem {
    /// State dimension.
    fn dim(&self) -> usize;

    /// Evaluate the derivative given the current state and history access.
    ///
    /// As with [`crate::OdeSystem::eval`], `dydt` is not zeroed on entry
    /// (the driver reuses [`crate::Workspace`] scratch): implementations
    /// must assign every component and must not read `dydt`.
    fn eval(&self, t: f64, y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]);

    /// The chunk hook of [`crate::OdeSystem::for_chunks`], for
    /// [`DdeRk4`]'s stage arithmetic. The default runs `f(0, out)`
    /// inline.
    fn for_chunks(&self, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        f(0, out)
    }
}

/// Initial history `y(t)` for `t ≤ t0`.
pub enum InitialHistory {
    /// History frozen at a constant vector (the common case: processes sat
    /// idle in a well-defined state before the program started).
    Constant(Vec<f64>),
    /// Arbitrary function `(t, component) → value`.
    Func(Box<dyn Fn(f64, usize) -> f64 + Send + Sync>),
}

impl InitialHistory {
    fn dim(&self) -> Option<usize> {
        match self {
            InitialHistory::Constant(v) => Some(v.len()),
            InitialHistory::Func(_) => None,
        }
    }

    fn sample(&self, t: f64, i: usize) -> f64 {
        match self {
            InitialHistory::Constant(v) => v[i],
            InitialHistory::Func(f) => f(t, i),
        }
    }
}

/// Growing record of the computed solution with cubic-Hermite interpolation
/// between knots, linear extrapolation beyond the newest knot, and the
/// user-supplied [`InitialHistory`] before `t0`.
pub struct HistoryBuffer {
    dim: usize,
    t0: f64,
    initial: InitialHistory,
    times: Vec<f64>,
    /// Row-major knot states, `times.len() × dim`.
    states: Vec<f64>,
    /// Row-major knot derivatives, same layout.
    derivs: Vec<f64>,
}

impl HistoryBuffer {
    /// Start a buffer at `t0` with the first knot `(t0, y0, f0)`.
    pub fn new(t0: f64, y0: &[f64], f0: &[f64], initial: InitialHistory) -> Self {
        let dim = y0.len();
        debug_assert_eq!(f0.len(), dim);
        Self {
            dim,
            t0,
            initial,
            times: vec![t0],
            states: y0.to_vec(),
            derivs: f0.to_vec(),
        }
    }

    /// Reserve room for `additional` future knots (one per step), so the
    /// integration loop never reallocates the history storage.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.states.reserve(additional * self.dim);
        self.derivs.reserve(additional * self.dim);
    }

    /// Drop knots no lookup can reach anymore: everything strictly before
    /// the last knot at or before `t_keep` (one knot at or before the
    /// horizon is retained so interpolation at `t_keep` itself still
    /// brackets). Used by the observed fast path to hold history memory
    /// at O(delay window) instead of O(whole run).
    ///
    /// The drain is batched (only fires once ≥ 64 prunable knots have
    /// accumulated), so the amortized per-step cost is O(1) and peak
    /// memory is the window plus a constant.
    pub(crate) fn prune_before(&mut self, t_keep: f64) {
        // First knot strictly after the horizon; knots [0, p) are ≤ t_keep.
        let p = self.times.partition_point(|&tk| tk <= t_keep);
        let drop = p.saturating_sub(1);
        if drop >= 64 {
            self.times.drain(..drop);
            self.states.drain(..drop * self.dim);
            self.derivs.drain(..drop * self.dim);
        }
    }

    /// Oldest retained knot time (`t0` unless pruned).
    #[cfg(test)]
    pub(crate) fn t_oldest(&self) -> f64 {
        self.times[0]
    }

    /// Append a knot; `t` must be strictly after the last knot.
    pub fn push(&mut self, t: f64, y: &[f64], f: &[f64]) {
        debug_assert!(t > *self.times.last().unwrap());
        debug_assert_eq!(y.len(), self.dim);
        self.times.push(t);
        self.states.extend_from_slice(y);
        self.derivs.extend_from_slice(f);
    }

    /// Newest recorded time.
    pub(crate) fn t_latest(&self) -> f64 {
        *self.times.last().unwrap()
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the buffer holds only the initial knot.
    pub fn is_empty(&self) -> bool {
        self.times.len() <= 1
    }

    fn knot_state(&self, k: usize, i: usize) -> f64 {
        self.states[k * self.dim + i]
    }

    fn knot_deriv(&self, k: usize, i: usize) -> f64 {
        self.derivs[k * self.dim + i]
    }

    /// Cubic Hermite interpolation of component `i` between knots `k` and
    /// `k+1`.
    fn hermite(&self, k: usize, t: f64, i: usize) -> f64 {
        let t0 = self.times[k];
        let t1 = self.times[k + 1];
        let h = t1 - t0;
        let s = (t - t0) / h;
        let (y0, y1) = (self.knot_state(k, i), self.knot_state(k + 1, i));
        let (f0, f1) = (self.knot_deriv(k, i), self.knot_deriv(k + 1, i));
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let h10 = s3 - 2.0 * s2 + s;
        let h01 = -2.0 * s3 + 3.0 * s2;
        let h11 = s3 - s2;
        h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1
    }
}

impl PhaseHistory for HistoryBuffer {
    fn sample(&self, t: f64, i: usize) -> f64 {
        if t <= self.t0 {
            // After pruning the first retained knot may postdate t0; the
            // (unpruned) t0 knot state then lives only in the initial
            // history, which integrate_observed keeps consistent.
            if t == self.t0 && self.times[0] == self.t0 {
                return self.knot_state(0, i);
            }
            return self.initial.sample(t, i);
        }
        let latest = self.t_latest();
        if t >= latest {
            // Linear extrapolation from the newest knot (used by stage
            // evaluations when the delay is smaller than the step).
            let k = self.times.len() - 1;
            return self.knot_state(k, i) + (t - latest) * self.knot_deriv(k, i);
        }
        if t < self.times[0] {
            // Below the retained window: only reachable when a pruned
            // buffer is queried deeper than the window it was promised
            // (`integrate_observed`'s history_window contract).
            debug_assert!(
                false,
                "history lookup at t = {t} below pruned horizon {}",
                self.times[0]
            );
            return self.knot_state(0, i);
        }
        // Find the knot interval [t_k, t_{k+1}] containing t.
        let hi = self.times.partition_point(|&tk| tk <= t);
        let k = hi - 1;
        if self.times[k] == t {
            return self.knot_state(k, i);
        }
        self.hermite(k, t, i)
    }

    // Mirrors `sample` branch for branch, but pays the knot search and the
    // Hermite coefficients once for the whole run. Per component the
    // arithmetic is identical to `hermite` — `h·h10·f0` associates as
    // `(h·h10)·f0`, so hoisting the products keeps every value bitwise
    // equal to `sample(t, base + q)`.
    fn sample_run(&self, t: f64, base: usize, out: &mut [f64]) {
        let end = base + out.len();
        if t <= self.t0 {
            if t == self.t0 && self.times[0] == self.t0 {
                out.copy_from_slice(&self.states[base..end]);
                return;
            }
            for (q, o) in out.iter_mut().enumerate() {
                *o = self.initial.sample(t, base + q);
            }
            return;
        }
        let latest = self.t_latest();
        if t >= latest {
            let k = self.times.len() - 1;
            let dt = t - latest;
            let y = &self.states[k * self.dim + base..k * self.dim + end];
            let f = &self.derivs[k * self.dim + base..k * self.dim + end];
            for ((o, &y0), &f0) in out.iter_mut().zip(y).zip(f) {
                *o = y0 + dt * f0;
            }
            return;
        }
        if t < self.times[0] {
            debug_assert!(
                false,
                "history lookup at t = {t} below pruned horizon {}",
                self.times[0]
            );
            out.copy_from_slice(&self.states[base..end]);
            return;
        }
        let hi = self.times.partition_point(|&tk| tk <= t);
        let k = hi - 1;
        if self.times[k] == t {
            out.copy_from_slice(&self.states[k * self.dim + base..k * self.dim + end]);
            return;
        }
        let t0 = self.times[k];
        let t1 = self.times[k + 1];
        let h = t1 - t0;
        let s = (t - t0) / h;
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let b10 = h * (s3 - 2.0 * s2 + s);
        let h01 = -2.0 * s3 + 3.0 * s2;
        let b11 = h * (s3 - s2);
        let y0 = &self.states[k * self.dim + base..k * self.dim + end];
        let y1 = &self.states[(k + 1) * self.dim + base..(k + 1) * self.dim + end];
        let f0 = &self.derivs[k * self.dim + base..k * self.dim + end];
        let f1 = &self.derivs[(k + 1) * self.dim + base..(k + 1) * self.dim + end];
        for q in 0..out.len() {
            out[q] = h00 * y0[q] + b10 * f0[q] + h01 * y1[q] + b11 * f1[q];
        }
    }
}

/// Fixed-step RK4 integrator for delay systems (method of steps).
#[derive(Debug, Clone)]
pub struct DdeRk4 {
    h: f64,
}

impl DdeRk4 {
    /// Create an integrator with step size `h`.
    pub fn new(h: f64) -> Result<Self, OdeError> {
        if !(h.is_finite() && h > 0.0) {
            return Err(OdeError::InvalidParameter {
                name: "h",
                value: h,
            });
        }
        Ok(Self { h })
    }

    /// Integrate from `t0` to `t_end`.
    ///
    /// The initial state is the initial history evaluated at `t0` (for
    /// [`InitialHistory::Constant`] simply the stored vector). Returns the
    /// recorded trajectory together with the full history buffer (usable
    /// for post-hoc interpolation at arbitrary times).
    ///
    /// Thin wrapper over [`DdeRk4::integrate_with`] that allocates a fresh
    /// [`Workspace`] per call.
    pub fn integrate(
        &self,
        sys: &dyn DdeSystem,
        t0: f64,
        initial: InitialHistory,
        t_end: f64,
    ) -> Result<(Trajectory, HistoryBuffer), OdeError> {
        self.integrate_with(sys, t0, initial, t_end, &mut Workspace::new())
    }

    /// Integrate with caller-provided scratch memory, recording every step
    /// and keeping the full history: the step loop of
    /// [`DdeRk4::integrate_observed`] with a [`Record`] attached and no
    /// pruning. Bitwise independent of workspace reuse.
    pub fn integrate_with<S: DdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        initial: InitialHistory,
        t_end: f64,
        ws: &mut Workspace,
    ) -> Result<(Trajectory, HistoryBuffer), OdeError> {
        let samples = self.n_steps(t_end - t0).saturating_add(1);
        let mut rec = Record::with_capacity(samples);
        let (_, buffer) = self.run(sys, t0, initial, t_end, None, ws, &mut rec)?;
        Ok((rec.into_trajectory(), buffer))
    }

    /// Integrate without recording a trajectory and with the history
    /// buffer pruned to a sliding window, streaming every step to `obs` —
    /// the O(N · window/h)-memory fast path for long-horizon delay runs.
    ///
    /// `history_window` must be at least the largest delay the system
    /// ever looks back (`τ_max`); lookups reach `t − τ_max` while the
    /// buffer retains `[t − history_window, t]` (plus one bracketing
    /// knot). Too small a window is caught by a debug assertion and
    /// silently clamps to the oldest retained knot in release builds.
    /// Pruning only drops knots, so whenever the window covers every
    /// lookup the states are bitwise identical to the full-history
    /// [`DdeRk4::integrate_with`] (asserted by the property suite).
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_observed<S: DdeSystem + ?Sized, O: StepObserver>(
        &self,
        sys: &S,
        t0: f64,
        initial: InitialHistory,
        t_end: f64,
        history_window: f64,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> Result<ObservedSummary, OdeError> {
        let (summary, _) = self.run(sys, t0, initial, t_end, Some(history_window), ws, obs)?;
        Ok(summary)
    }

    /// Number of steps the driver takes over `span`.
    fn n_steps(&self, span: f64) -> usize {
        (span / self.h).ceil().max(1.0) as usize
    }

    /// The step loop. `history_window: None` keeps the full history.
    #[allow(clippy::too_many_arguments)]
    fn run<S: DdeSystem + ?Sized, O: StepObserver>(
        &self,
        sys: &S,
        t0: f64,
        initial: InitialHistory,
        t_end: f64,
        history_window: Option<f64>,
        ws: &mut Workspace,
        obs: &mut O,
    ) -> Result<(ObservedSummary, HistoryBuffer), OdeError> {
        let n = sys.dim();
        if let Some(d) = initial.dim() {
            if d != n {
                return Err(OdeError::DimensionMismatch {
                    expected: n,
                    got: d,
                });
            }
        }
        if let Some(w) = history_window {
            if !(w.is_finite() && w >= 0.0) {
                return Err(OdeError::InvalidParameter {
                    name: "history_window",
                    value: w,
                });
            }
        }
        // Deliberate negation: also rejects NaN endpoints.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(t_end > t0) {
            return Err(OdeError::EmptySpan { t0, t_end });
        }

        let span = t_end - t0;
        let n_steps = self.n_steps(span);

        let chunks: Chunks = &|out, f| sys.for_chunks(out, f);
        let (stage, drive) = ws.split();
        let [k2, k3, k4, ytmp] = stage.slices::<4>(n);
        let [mut y, mut y_new, mut k1, mut f_new] = drive.slices::<4>(n);

        for (i, yi) in y.iter_mut().enumerate() {
            *yi = initial.sample(t0, i);
        }

        // Bootstrap: f0 uses the (pre-t0) history only.
        let boot = BootstrapHistory {
            initial: &initial,
            t0,
            y0: &*y,
        };
        sys.eval(t0, y, &boot, k1);
        check_finite(chunks, t0, k1)?;
        let mut n_eval = 1;

        let mut buffer = HistoryBuffer::new(t0, y, k1, initial);
        // Reserve one knot per step — only the window's worth when pruning.
        // Saturating: a huge finite window casts to `usize::MAX`.
        buffer.reserve(match history_window {
            Some(w) => ((w / self.h).ceil() as usize)
                .saturating_add(66)
                .min(n_steps.saturating_add(1)),
            None => n_steps,
        });

        let mut t = t0;
        obs.begin(t0, y);

        for step_idx in 1..=n_steps {
            let t_target = if step_idx == n_steps {
                t_end
            } else {
                t0 + span * (step_idx as f64 / n_steps as f64)
            };
            let h = t_target - t;

            // k1 = f(t, y) carried from the previous step's f_new.
            combine(chunks, ytmp, [y, k1], |[y, k1]| y + 0.5 * h * k1);
            sys.eval(t + 0.5 * h, ytmp, &buffer, k2);
            combine(chunks, ytmp, [y, k2], |[y, k2]| y + 0.5 * h * k2);
            sys.eval(t + 0.5 * h, ytmp, &buffer, k3);
            combine(chunks, ytmp, [y, k3], |[y, k3]| y + h * k3);
            sys.eval(t + h, ytmp, &buffer, k4);
            combine(chunks, y_new, [y, k1, k2, k3, k4], |[y, k1, k2, k3, k4]| {
                y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            });
            check_finite(chunks, t, y_new)?;

            t = t_target;
            sys.eval(t, y_new, &buffer, f_new);
            n_eval += 4; // k2, k3, k4, f_new (k1 is carried over)
            check_finite(chunks, t, f_new)?;
            buffer.push(t, y_new, f_new);
            if let Some(w) = history_window {
                // All future lookups reach back at most `w` from the
                // current front; older knots can go.
                buffer.prune_before(t - w);
            }

            std::mem::swap(&mut y, &mut y_new);
            std::mem::swap(&mut k1, &mut f_new);
            obs.observe_step(t, y);
        }
        obs.finish(t, y);

        // begin + every step + finish observer callbacks.
        crate::obs::flush_integration(n_steps as u64, 0, n_eval as u64, n_steps as u64 + 2);
        let summary = ObservedSummary {
            t_end: t,
            n_steps,
            n_eval,
            y_end: y.to_vec(),
        };
        Ok((summary, buffer))
    }
}

/// History view available before the first step: initial history for
/// `t < t0`, the initial state at `t ≥ t0` (constant extrapolation).
struct BootstrapHistory<'a> {
    initial: &'a InitialHistory,
    t0: f64,
    y0: &'a [f64],
}

impl PhaseHistory for BootstrapHistory<'_> {
    fn sample(&self, t: f64, i: usize) -> f64 {
        if t < self.t0 {
            self.initial.sample(t, i)
        } else {
            self.y0[i]
        }
    }
}

fn check_finite(chunks: Chunks<'_>, t: f64, v: &mut [f64]) -> Result<(), OdeError> {
    if let Some(bad) = first_non_finite(chunks, v) {
        return Err(OdeError::NonFiniteDerivative { t, component: bad });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{CollectObserver, NoObserver, ObserveEvery};

    /// ẏ(t) = −y(t − 1), constant history y ≡ 1.
    ///
    /// Piecewise-analytic solution:
    /// * t ∈ [0, 1]: y = 1 − t
    /// * t ∈ [1, 2]: y = t²/2 − 2t + 3/2
    struct LagDecay;

    impl DdeSystem for LagDecay {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&self, t: f64, _y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
            dydt[0] = -hist.sample(t - 1.0, 0);
        }
    }

    #[test]
    fn lag_decay_matches_method_of_steps_analytic() {
        let solver = DdeRk4::new(0.01).unwrap();
        let (traj, _) = solver
            .integrate(&LagDecay, 0.0, InitialHistory::Constant(vec![1.0]), 2.0)
            .unwrap();
        for (t, s) in traj.iter() {
            let exact = if t <= 1.0 {
                1.0 - t
            } else {
                0.5 * t * t - 2.0 * t + 1.5
            };
            assert!(
                (s[0] - exact).abs() < 1e-8,
                "t = {t}: got {}, want {exact}",
                s[0]
            );
        }
    }

    /// Zero-delay DDE must agree with the plain ODE solution.
    struct ZeroDelayDecay;

    impl DdeSystem for ZeroDelayDecay {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&self, t: f64, _y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
            dydt[0] = -hist.sample(t, 0);
        }
    }

    #[test]
    fn zero_delay_reduces_to_ode() {
        let solver = DdeRk4::new(0.01).unwrap();
        let (traj, _) = solver
            .integrate(
                &ZeroDelayDecay,
                0.0,
                InitialHistory::Constant(vec![1.0]),
                3.0,
            )
            .unwrap();
        let exact = (-3.0f64).exp();
        // Extrapolated self-lookup costs some accuracy vs pure RK4 but must
        // converge to the right solution.
        assert!((traj.last().unwrap()[0] - exact).abs() < 1e-4);
    }

    #[test]
    fn zero_delay_converges_under_refinement() {
        let err_for = |h: f64| {
            let solver = DdeRk4::new(h).unwrap();
            let (traj, _) = solver
                .integrate(
                    &ZeroDelayDecay,
                    0.0,
                    InitialHistory::Constant(vec![1.0]),
                    1.0,
                )
                .unwrap();
            (traj.last().unwrap()[0] - (-1.0f64).exp()).abs()
        };
        let e1 = err_for(0.05);
        let e2 = err_for(0.025);
        assert!(e2 < e1 / 1.8, "refinement must reduce error: {e1} vs {e2}");
    }

    #[test]
    fn history_buffer_interpolation_is_exact_for_cubics() {
        // y(t) = t³ with derivative 3t²; Hermite reproduces cubics exactly.
        let y = |t: f64| t * t * t;
        let f = |t: f64| 3.0 * t * t;
        let mut buf = HistoryBuffer::new(
            0.0,
            &[y(0.0)],
            &[f(0.0)],
            InitialHistory::Constant(vec![0.0]),
        );
        buf.push(1.0, &[y(1.0)], &[f(1.0)]);
        buf.push(2.5, &[y(2.5)], &[f(2.5)]);
        for &t in &[0.25, 0.5, 0.99, 1.0, 1.7, 2.49] {
            assert!((buf.sample(t, 0) - y(t)).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn history_buffer_initial_and_extrapolation() {
        let buf = HistoryBuffer::new(
            0.0,
            &[5.0],
            &[2.0],
            InitialHistory::Func(Box::new(|t, _| 10.0 * t)),
        );
        // Before t0: the initial history function.
        assert_eq!(buf.sample(-2.0, 0), -20.0);
        // At t0: the first knot.
        assert_eq!(buf.sample(0.0, 0), 5.0);
        // After the newest knot: linear extrapolation with slope f = 2.
        assert!((buf.sample(0.5, 0) - 6.0).abs() < 1e-12);
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn sample_run_is_bitwise_sample_on_every_branch() {
        // A 6-component buffer with irregular knots; probe times hit every
        // branch of `sample`: initial history, the t0 knot, an exact
        // interior knot, Hermite interior points, and extrapolation.
        let dim = 6;
        let state =
            |t: f64| -> Vec<f64> { (0..dim).map(|i| (t + i as f64 * 0.7).sin() * 2.0).collect() };
        let deriv = |t: f64| -> Vec<f64> { (0..dim).map(|i| (t * 1.3 - i as f64).cos()).collect() };
        let mut buf = HistoryBuffer::new(
            0.0,
            &state(0.0),
            &deriv(0.0),
            InitialHistory::Func(Box::new(|t, i| t * 0.5 - i as f64)),
        );
        for &t in &[0.31, 0.9, 1.47, 2.0] {
            buf.push(t, &state(t), &deriv(t));
        }
        for &t in &[-1.2, 0.0, 0.17, 0.31, 0.5, 1.2, 1.99, 2.0, 2.6] {
            for base in 0..dim {
                for len in 1..=dim - base {
                    let mut run = vec![0.0; len];
                    buf.sample_run(t, base, &mut run);
                    for (q, &got) in run.iter().enumerate() {
                        let want = buf.sample(t, base + q);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "t = {t}, base = {base}, q = {q}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn constant_history_dimension_checked() {
        let solver = DdeRk4::new(0.1).unwrap();
        let res = solver.integrate(
            &LagDecay,
            0.0,
            InitialHistory::Constant(vec![1.0, 2.0]),
            1.0,
        );
        assert!(matches!(res, Err(OdeError::DimensionMismatch { .. })));
    }

    #[test]
    fn empty_span_rejected() {
        let solver = DdeRk4::new(0.1).unwrap();
        let res = solver.integrate(&LagDecay, 1.0, InitialHistory::Constant(vec![1.0]), 1.0);
        assert!(matches!(res, Err(OdeError::EmptySpan { .. })));
    }

    #[test]
    fn decimated_recording_keeps_final_sample() {
        let solver = DdeRk4::new(0.1).unwrap();
        let mut rec = ObserveEvery::new(Record::default(), 7);
        solver
            .integrate_observed(
                &LagDecay,
                0.0,
                InitialHistory::Constant(vec![1.0]),
                1.0,
                1.0,
                &mut Workspace::new(),
                &mut rec,
            )
            .unwrap();
        let traj = rec.into_inner().into_trajectory();
        // 10 steps: t0, step 7 and the final step 10.
        assert_eq!(traj.len(), 3);
        assert!((traj.times().last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huge_history_window_keeps_everything() {
        let solver = DdeRk4::new(0.05).unwrap();
        let init = || InitialHistory::Constant(vec![1.0]);
        let (traj, _) = solver.integrate(&LagDecay, 0.0, init(), 3.0).unwrap();
        let sum = solver
            .integrate_observed(
                &LagDecay,
                0.0,
                init(),
                3.0,
                f64::MAX,
                &mut Workspace::new(),
                &mut NoObserver,
            )
            .unwrap();
        assert_eq!(sum.y_end[0].to_bits(), traj.last().unwrap()[0].to_bits());
    }

    /// ẏ = y² (no delay term): RK4 overflows shortly past the pole at t = 1.
    struct Blowup;

    impl DdeSystem for Blowup {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&self, _t: f64, y: &[f64], _hist: &dyn PhaseHistory, dydt: &mut [f64]) {
            dydt[0] = y[0] * y[0];
        }
    }

    /// Run [`Blowup`] from y = 1 over [0, 5] with h = 0.01 (500 steps).
    fn blowup_error(obs: &mut impl StepObserver) -> OdeError {
        let init = InitialHistory::Constant(vec![1.0]);
        DdeRk4::new(0.01)
            .unwrap()
            .integrate_observed(&Blowup, 0.0, init, 5.0, 0.0, &mut Workspace::new(), obs)
            .unwrap_err()
    }

    #[test]
    fn decimated_recording_reports_blowup_at_first_non_finite_step() {
        let k = 64;
        let mut all = CollectObserver::default();
        let err_all = blowup_error(&mut all);
        let err_rec = blowup_error(&mut ObserveEvery::new(Record::default(), k));
        assert_eq!(err_rec, err_all);
        // The failing step is the first one not delivered; the error names
        // its start or its end, before the next record point.
        let first_bad = all.samples.len() + 1;
        assert_ne!(first_bad % k, 0, "blow-up must fall between record points");
        let t_bad_end = 5.0 * (first_bad as f64 / 500.0);
        match err_rec {
            OdeError::NonFiniteDerivative { t, component: 0 } => {
                assert!(
                    t <= t_bad_end,
                    "reported at t = {t}, blow-up by {t_bad_end}"
                )
            }
            other => panic!("expected a non-finite error, got {other:?}"),
        }
    }

    #[test]
    fn prune_drops_old_knots_and_keeps_a_bracket() {
        let mut buf = HistoryBuffer::new(0.0, &[0.0], &[1.0], InitialHistory::Constant(vec![0.0]));
        // y(t) = t with ẏ = 1: Hermite reproduces it exactly everywhere.
        for k in 1..=300 {
            let t = k as f64 * 0.1;
            buf.push(t, &[t], &[1.0]);
        }
        assert_eq!(buf.t_oldest(), 0.0);
        buf.prune_before(20.0);
        // The batched drain fired (well past the 64-knot hysteresis):
        // old knots are gone, one bracketing knot at or before the
        // horizon survives.
        assert!(buf.t_oldest() > 0.0);
        assert!(buf.t_oldest() <= 20.0);
        assert!(buf.len() < 301);
        // Samples inside the retained window are untouched.
        for &t in &[20.0, 20.05, 25.3, 29.99] {
            assert!((buf.sample(t, 0) - t).abs() < 1e-12, "t = {t}");
        }
        // Before t0 the initial history still answers (knot 0 is gone).
        assert_eq!(buf.sample(-1.0, 0), 0.0);
        // Pruning below the hysteresis threshold is a no-op.
        let len = buf.len();
        buf.prune_before(20.5);
        assert_eq!(buf.len(), len);
    }

    #[test]
    fn buffer_usable_for_posthoc_sampling() {
        let solver = DdeRk4::new(0.05).unwrap();
        let (_, buf) = solver
            .integrate(&LagDecay, 0.0, InitialHistory::Constant(vec![1.0]), 2.0)
            .unwrap();
        // Off-grid sample in the first analytic piece.
        let t = 0.333;
        assert!((buf.sample(t, 0) - (1.0 - t)).abs() < 1e-8);
    }
}
