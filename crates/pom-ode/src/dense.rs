//! Dense output: continuous extensions of discrete solver steps.
//!
//! The Dormand–Prince pair carries a fourth-order-accurate interpolating
//! polynomial for every accepted step ("dense output" in Hairer, Nørsett &
//! Wanner). A [`DenseSolution`] is the piecewise collection of those
//! polynomials: it can be sampled at *any* time in the integration span,
//! which the analysis layer uses to evaluate observables on uniform grids
//! regardless of the adaptive step sequence.

use crate::error::OdeError;
use crate::trajectory::Trajectory;

/// The quintic Hermite-style interpolant of one accepted Dormand–Prince
/// step over `[t0, t0 + h]`.
///
/// Evaluation uses the nested form from Hairer's `contd5`:
/// with `θ = (t − t0)/h` and `θ̄ = 1 − θ`,
///
/// ```text
/// y(t) = c1 + θ·(c2 + θ̄·(c3 + θ·(c4 + θ̄·c5)))
/// ```
#[derive(Debug, Clone)]
pub struct DenseSegment {
    t0: f64,
    h: f64,
    dim: usize,
    /// The five interpolation coefficient vectors `c1..c5`, stored
    /// coefficient-major in one flat allocation of length `5 * dim`
    /// (`c_k[i]` lives at `k * dim + i`). One allocation per accepted
    /// step instead of five, and contiguous for evaluation.
    rcont: Vec<f64>,
}

impl DenseSegment {
    /// Build a segment from precomputed interpolation coefficients.
    #[cfg(test)]
    pub(crate) fn new(t0: f64, h: f64, rcont: [Vec<f64>; 5]) -> Self {
        debug_assert!(rcont.iter().all(|c| c.len() == rcont[0].len()));
        let dim = rcont[0].len();
        let mut flat = Vec::with_capacity(5 * dim);
        for c in &rcont {
            flat.extend_from_slice(c);
        }
        Self::from_flat(t0, h, dim, flat)
    }

    /// Build a segment from coefficient-major flat storage (`c_k[i]` at
    /// `k * dim + i`, `k = 0..5`) — the allocation-lean constructor the
    /// solver hot path uses.
    ///
    /// # Panics
    /// Panics if `rcont.len() != 5 * dim`.
    pub(crate) fn from_flat(t0: f64, h: f64, dim: usize, rcont: Vec<f64>) -> Self {
        assert_eq!(rcont.len(), 5 * dim, "need 5 coefficient rows of {dim}");
        debug_assert!(h > 0.0);
        Self { t0, h, dim, rcont }
    }

    /// Start of the covered interval.
    pub(crate) fn t0(&self) -> f64 {
        self.t0
    }

    /// End of the covered interval.
    pub fn t1(&self) -> f64 {
        self.t0 + self.h
    }

    /// Step size of the underlying solver step.
    #[cfg(test)]
    pub(crate) fn h(&self) -> f64 {
        self.h
    }

    /// State dimension.
    #[cfg(test)]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Evaluate the interpolant at `t`, writing into `out`.
    ///
    /// `t` may lie slightly outside `[t0, t1]`; the polynomial extrapolates
    /// smoothly, which the DDE layer exploits for sub-step history lookups.
    pub(crate) fn eval_into(&self, t: f64, out: &mut [f64]) {
        let theta = (t - self.t0) / self.h;
        let theta1 = 1.0 - theta;
        let n = self.dim;
        let c = &self.rcont;
        for (i, o) in out.iter_mut().enumerate().take(n) {
            *o = c[i]
                + theta
                    * (c[n + i]
                        + theta1 * (c[2 * n + i] + theta * (c[3 * n + i] + theta1 * c[4 * n + i])));
        }
    }

    /// Evaluate the interpolant at `t` into a fresh vector.
    #[cfg(test)]
    pub(crate) fn eval(&self, t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.eval_into(t, &mut out);
        out
    }

    /// Evaluate a single component at `t`.
    pub(crate) fn eval_component(&self, t: f64, i: usize) -> f64 {
        let theta = (t - self.t0) / self.h;
        let theta1 = 1.0 - theta;
        let n = self.dim;
        let c = &self.rcont;
        c[i] + theta
            * (c[n + i] + theta1 * (c[2 * n + i] + theta * (c[3 * n + i] + theta1 * c[4 * n + i])))
    }
}

/// A piecewise-polynomial solution assembled from per-step
/// `DenseSegment`s; the output of [`crate::dopri5::Dopri5::integrate`].
#[derive(Debug, Clone)]
pub struct DenseSolution {
    dim: usize,
    t0: f64,
    t_end: f64,
    y0: Vec<f64>,
    y_end: Vec<f64>,
    segments: Vec<DenseSegment>,
}

impl DenseSolution {
    /// Assemble a solution. Segments must be contiguous and ordered; this is
    /// checked in debug builds.
    pub(crate) fn new(
        dim: usize,
        t0: f64,
        t_end: f64,
        y0: Vec<f64>,
        y_end: Vec<f64>,
        segments: Vec<DenseSegment>,
    ) -> Self {
        debug_assert!(segments
            .windows(2)
            .all(|w| (w[0].t1() - w[1].t0()).abs() < 1e-9));
        Self {
            dim,
            t0,
            t_end,
            y0,
            y_end,
            segments,
        }
    }

    /// State dimension.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Start of the integration span.
    pub(crate) fn t0(&self) -> f64 {
        self.t0
    }

    /// End of the integration span.
    pub(crate) fn t_end(&self) -> f64 {
        self.t_end
    }

    /// Final state.
    pub fn y_end(&self) -> &[f64] {
        &self.y_end
    }

    /// Number of accepted steps (= number of segments).
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// The per-step segments.
    pub fn segments(&self) -> &[DenseSegment] {
        &self.segments
    }

    /// Find the segment covering time `t` (clamped to the span).
    fn segment_for(&self, t: f64) -> &DenseSegment {
        debug_assert!(!self.segments.is_empty());
        let idx = self.segments.partition_point(|s| s.t1() < t);
        &self.segments[idx.min(self.segments.len() - 1)]
    }

    /// Sample the solution at `t` (clamped to `[t0, t_end]`).
    pub fn sample(&self, t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.sample_into(t, &mut out);
        out
    }

    /// Sample the solution at `t` into a caller-provided buffer.
    pub(crate) fn sample_into(&self, t: f64, out: &mut [f64]) {
        let t = t.clamp(self.t0, self.t_end);
        if self.segments.is_empty() {
            out.copy_from_slice(&self.y0);
            return;
        }
        self.segment_for(t).eval_into(t, out);
    }

    /// Sample one component at `t` (clamped).
    pub fn sample_component(&self, t: f64, i: usize) -> f64 {
        let t = t.clamp(self.t0, self.t_end);
        if self.segments.is_empty() {
            return self.y0[i];
        }
        self.segment_for(t).eval_component(t, i)
    }

    /// Resample onto a uniform grid of `n` points (inclusive of both ends),
    /// producing a [`Trajectory`].
    pub fn resample(&self, n: usize) -> Result<Trajectory, OdeError> {
        if n < 2 {
            return Err(OdeError::InvalidParameter {
                name: "n",
                value: n as f64,
            });
        }
        let mut traj = Trajectory::with_capacity(self.dim, n);
        let mut buf = vec![0.0; self.dim];
        for k in 0..n {
            let t = self.t0 + (self.t_end - self.t0) * (k as f64) / ((n - 1) as f64);
            self.sample_into(t, &mut buf);
            traj.push(t, &buf)?;
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segment representing y(t) = t on [0, 1]:
    /// c1 = y0 = 0, c2 = Δy = 1, others 0.
    fn linear_segment() -> DenseSegment {
        DenseSegment::new(
            0.0,
            1.0,
            [vec![0.0], vec![1.0], vec![0.0], vec![0.0], vec![0.0]],
        )
    }

    #[test]
    fn segment_eval_linear() {
        let seg = linear_segment();
        assert_eq!(seg.eval(0.0)[0], 0.0);
        assert_eq!(seg.eval(0.5)[0], 0.5);
        assert_eq!(seg.eval(1.0)[0], 1.0);
        assert_eq!(seg.eval_component(0.25, 0), 0.25);
        assert_eq!(seg.t0(), 0.0);
        assert_eq!(seg.t1(), 1.0);
        assert_eq!(seg.dim(), 1);
    }

    #[test]
    fn segment_extrapolates() {
        let seg = linear_segment();
        assert!((seg.eval(1.1)[0] - 1.1).abs() < 1e-12);
        assert!((seg.eval(-0.1)[0] + 0.1).abs() < 1e-12);
    }

    fn two_segment_solution() -> DenseSolution {
        // y = t on [0,1], then y = 1 + 2(t−1) on [1,2].
        let s1 = linear_segment();
        let s2 = DenseSegment::new(
            1.0,
            1.0,
            [vec![1.0], vec![2.0], vec![0.0], vec![0.0], vec![0.0]],
        );
        DenseSolution::new(1, 0.0, 2.0, vec![0.0], vec![3.0], vec![s1, s2])
    }

    #[test]
    fn solution_sampling_picks_right_segment() {
        let sol = two_segment_solution();
        assert!((sol.sample(0.5)[0] - 0.5).abs() < 1e-12);
        assert!((sol.sample(1.5)[0] - 2.0).abs() < 1e-12);
        // Knot belongs to the first segment whose t1 >= t.
        assert!((sol.sample(1.0)[0] - 1.0).abs() < 1e-12);
        assert_eq!(sol.n_segments(), 2);
    }

    #[test]
    fn solution_clamps_out_of_range() {
        let sol = two_segment_solution();
        assert_eq!(sol.sample(-5.0)[0], 0.0);
        assert!((sol.sample(99.0)[0] - 3.0).abs() < 1e-12);
        assert_eq!(sol.sample_component(-5.0, 0), 0.0);
    }

    #[test]
    fn resample_uniform_grid() {
        let sol = two_segment_solution();
        let tr = sol.resample(5).unwrap();
        assert_eq!(tr.len(), 5);
        assert_eq!(tr.times(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        assert!((tr.state(3)[0] - 2.0).abs() < 1e-12);
        assert!(sol.resample(1).is_err());
    }

    #[test]
    fn empty_solution_returns_initial_state() {
        let sol = DenseSolution::new(2, 0.0, 0.0, vec![7.0, 8.0], vec![7.0, 8.0], vec![]);
        assert_eq!(sol.sample(0.0), vec![7.0, 8.0]);
        assert_eq!(sol.sample_component(1.0, 1), 8.0);
    }
}
