//! Sampled trajectories with flat (cache-friendly) storage.
//!
//! All solvers in this crate can record the evolution of the state vector as
//! a [`Trajectory`]: a strictly increasing time grid plus a row-major
//! `n_samples × dim` matrix of states. Flat storage keeps one run of `N`
//! oscillators in a single allocation, which matters when the analysis layer
//! scans thousands of snapshots (idle-wave front extraction walks every
//! sample once per rank).

use crate::error::OdeError;

/// A time-sampled solution of an ODE/DDE system.
///
/// Invariants (maintained by [`Trajectory::push`]):
/// * `times` is strictly increasing,
/// * `data.len() == times.len() * dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    dim: usize,
    times: Vec<f64>,
    data: Vec<f64>,
}

impl Trajectory {
    /// Create an empty trajectory for states of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            times: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Create an empty trajectory and reserve room for `n` samples.
    pub(crate) fn with_capacity(dim: usize, n: usize) -> Self {
        Self {
            dim,
            times: Vec::with_capacity(n),
            data: Vec::with_capacity(n * dim),
        }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sampled time grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// State at sample index `k` (row of the sample matrix).
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    pub fn state(&self, k: usize) -> &[f64] {
        &self.data[k * self.dim..(k + 1) * self.dim]
    }

    /// Time of sample `k`.
    pub fn time(&self, k: usize) -> f64 {
        self.times[k]
    }

    /// First stored state, if any.
    #[cfg(test)]
    pub(crate) fn first(&self) -> Option<&[f64]> {
        (!self.is_empty()).then(|| self.state(0))
    }

    /// Last stored state, if any.
    pub fn last(&self) -> Option<&[f64]> {
        (!self.is_empty()).then(|| self.state(self.len() - 1))
    }

    /// Append a sample. `t` must exceed the last stored time and `y` must
    /// have length `dim`.
    pub fn push(&mut self, t: f64, y: &[f64]) -> Result<(), OdeError> {
        if y.len() != self.dim {
            return Err(OdeError::DimensionMismatch {
                expected: self.dim,
                got: y.len(),
            });
        }
        if let Some(&last) = self.times.last() {
            if t <= last {
                return Err(OdeError::EmptySpan { t0: last, t_end: t });
            }
        }
        self.times.push(t);
        self.data.extend_from_slice(y);
        Ok(())
    }

    /// Append a sample whose invariants the caller upholds (`y.len() ==
    /// dim`, `t` strictly increasing) — used by the recording observer,
    /// fed by solver loops that maintain both by construction. Checked in
    /// debug builds.
    pub(crate) fn push_trusted(&mut self, t: f64, y: &[f64]) {
        debug_assert_eq!(y.len(), self.dim);
        debug_assert!(self.times.last().is_none_or(|&last| t > last));
        self.times.push(t);
        self.data.extend_from_slice(y);
    }

    /// Iterate over `(t, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> + '_ {
        self.times
            .iter()
            .copied()
            .zip(self.data.chunks_exact(self.dim))
    }

    /// Extract the time series of a single component.
    pub fn component(&self, i: usize) -> Vec<f64> {
        assert!(
            i < self.dim,
            "component {i} out of range (dim = {})",
            self.dim
        );
        self.data
            .iter()
            .skip(i)
            .step_by(self.dim)
            .copied()
            .collect()
    }

    /// Linearly interpolate the state at time `t`.
    ///
    /// `t` is clamped to the stored time span; an empty trajectory returns
    /// `None`.
    pub fn sample_linear(&self, t: f64) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        if self.len() == 1 || t <= self.times[0] {
            return Some(self.state(0).to_vec());
        }
        let n = self.len();
        if t >= self.times[n - 1] {
            return Some(self.state(n - 1).to_vec());
        }
        // Index of the first grid point strictly greater than t.
        let hi = self.times.partition_point(|&tk| tk <= t);
        let lo = hi - 1;
        let (t0, t1) = (self.times[lo], self.times[hi]);
        let w = (t - t0) / (t1 - t0);
        let a = self.state(lo);
        let b = self.state(hi);
        Some(
            a.iter()
                .zip(b)
                .map(|(&x0, &x1)| x0 + w * (x1 - x0))
                .collect(),
        )
    }

    /// Index of the last sample with time ≤ `t`, or `None` if `t` precedes
    /// the first sample.
    #[cfg(test)]
    pub(crate) fn index_at(&self, t: f64) -> Option<usize> {
        let p = self.times.partition_point(|&tk| tk <= t);
        p.checked_sub(1)
    }

    /// Total time span covered, 0 if fewer than two samples.
    pub fn span(&self) -> f64 {
        if self.len() < 2 {
            0.0
        } else {
            self.times[self.len() - 1] - self.times[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        let mut tr = Trajectory::new(2);
        tr.push(0.0, &[0.0, 10.0]).unwrap();
        tr.push(1.0, &[1.0, 20.0]).unwrap();
        tr.push(3.0, &[3.0, 40.0]).unwrap();
        tr
    }

    #[test]
    fn push_and_access() {
        let tr = traj();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dim(), 2);
        assert_eq!(tr.state(1), &[1.0, 20.0]);
        assert_eq!(tr.time(2), 3.0);
        assert_eq!(tr.first().unwrap(), &[0.0, 10.0]);
        assert_eq!(tr.last().unwrap(), &[3.0, 40.0]);
        assert_eq!(tr.span(), 3.0);
    }

    #[test]
    fn push_rejects_wrong_dim() {
        let mut tr = Trajectory::new(2);
        assert!(matches!(
            tr.push(0.0, &[1.0]),
            Err(OdeError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn push_rejects_non_increasing_time() {
        let mut tr = traj();
        assert!(tr.push(3.0, &[0.0, 0.0]).is_err());
        assert!(tr.push(2.5, &[0.0, 0.0]).is_err());
        assert!(tr.push(3.5, &[0.0, 0.0]).is_ok());
    }

    #[test]
    fn component_extraction() {
        let tr = traj();
        assert_eq!(tr.component(0), vec![0.0, 1.0, 3.0]);
        assert_eq!(tr.component(1), vec![10.0, 20.0, 40.0]);
    }

    #[test]
    fn linear_interpolation_between_and_beyond() {
        let tr = traj();
        // Midpoint of [1, 3].
        let s = tr.sample_linear(2.0).unwrap();
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 30.0).abs() < 1e-12);
        // Clamped ends.
        assert_eq!(tr.sample_linear(-1.0).unwrap(), vec![0.0, 10.0]);
        assert_eq!(tr.sample_linear(9.0).unwrap(), vec![3.0, 40.0]);
        // Exactly on a knot.
        assert_eq!(tr.sample_linear(1.0).unwrap(), vec![1.0, 20.0]);
    }

    #[test]
    fn empty_trajectory_behaviour() {
        let tr = Trajectory::new(3);
        assert!(tr.is_empty());
        assert_eq!(tr.sample_linear(0.0), None);
        assert_eq!(tr.first(), None);
        assert_eq!(tr.span(), 0.0);
        assert_eq!(tr.index_at(0.0), None);
    }

    #[test]
    fn index_at_finds_enclosing_sample() {
        let tr = traj();
        assert_eq!(tr.index_at(-0.1), None);
        assert_eq!(tr.index_at(0.0), Some(0));
        assert_eq!(tr.index_at(0.5), Some(0));
        assert_eq!(tr.index_at(1.0), Some(1));
        assert_eq!(tr.index_at(2.9), Some(1));
        assert_eq!(tr.index_at(3.0), Some(2));
        assert_eq!(tr.index_at(100.0), Some(2));
    }

    #[test]
    fn iter_yields_all_samples() {
        let tr = traj();
        let collected: Vec<(f64, Vec<f64>)> = tr.iter().map(|(t, s)| (t, s.to_vec())).collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], (3.0, vec![3.0, 40.0]));
    }
}
