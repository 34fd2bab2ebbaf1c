//! Streaming step observers: online observables without a stored trajectory.
//!
//! A recorded run of `N` oscillators over `S` steps owns `S × N` doubles,
//! which makes long-horizon large-`N` runs (the idle-wave and
//! desynchronization measurements at `n = 65536`) memory-bound on storage
//! the analysis layer immediately reduces to a handful of scalars. A
//! [`StepObserver`] inverts that: the solver hands each accepted step to
//! the observer *as it happens*, the observer folds it into O(N) (usually
//! O(1)) state, and nothing per-step is kept.
//!
//! Each solver ([`crate::FixedStepSolver`], [`crate::Dopri5`],
//! [`crate::DdeRk4`]) has exactly one step loop, reached through
//! `integrate_observed`. Recording is just another observer: the
//! fixed-step and DDE `integrate`/`integrate_with` entry points run that
//! same loop with a [`Record`] attached, so a recorded trajectory holds
//! exactly the states the observer stream delivers (Dopri5's collect the
//! dense-output segments in the same loop). Observers are monomorphized
//! (`O: StepObserver`), so a [`NoObserver`] compiles to the bare step
//! loop.
//!
//! ## Call protocol
//!
//! For one integration the solver calls, in order:
//!
//! 1. [`StepObserver::begin`] once, with the initial state `(t0, y0)`;
//! 2. [`StepObserver::observe_step`] after every *accepted* step, with the
//!    post-step time and state (fixed-step solvers: every step; adaptive
//!    solvers: every accepted step — rejected attempts are invisible);
//! 3. [`StepObserver::finish`] once, with the final state at `t_end`. The
//!    final state has always also been delivered through `observe_step`
//!    (it is an accepted step), so `finish` marks completion rather than
//!    delivering new data.
//!
//! Decimation composes via [`ObserveEvery`], which forwards every `k`-th
//! step plus the final one, never duplicating the final sample. A
//! decimated recording is `ObserveEvery::new(Record::default(), k)`.
//!
//! A driver that knows the arithmetic of the system it integrates may
//! call [`StepObserver::accuracy`] before `begin`, so observers that
//! compute transcendentals can match it (see [`Accuracy`]).

use crate::trajectory::Trajectory;

/// The arithmetic an observer may use for its own reductions, matching
/// that of the system being integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accuracy {
    /// Bitwise reference arithmetic (`libm` transcendentals): the
    /// observer's results must be reproducible across machines.
    #[default]
    Exact,
    /// The system itself runs under a `~1e-12` accuracy policy, so the
    /// observer may too (polynomial transcendentals, deterministic
    /// across reruns and thread counts).
    Policy,
}

/// Receives accepted solver steps as they happen.
///
/// State lives in the observer (`&mut self`); implementations should keep
/// it O(N) or smaller — storing every sample would defeat the purpose
/// (use [`Record`] for that).
pub trait StepObserver {
    /// Called once before the first step with the initial state.
    fn begin(&mut self, _t0: f64, _y0: &[f64]) {}

    /// Called after every accepted step with the new time and state.
    fn observe_step(&mut self, t: f64, y: &[f64]);

    /// Called once after the last step. `(t_end, y_end)` repeats the final
    /// `observe_step` sample; override to flush/seal derived state.
    fn finish(&mut self, _t_end: f64, _y_end: &[f64]) {}

    /// `false` promises the observer ignores every callback, letting
    /// adapters skip work done purely to feed it (the ensemble fan-out
    /// de-interleaves a state copy per replica per step — wasted on
    /// [`NoObserver`]). Must be constant for the observer's lifetime.
    fn wants_samples(&self) -> bool {
        true
    }

    /// Called before `begin` by drivers that know the system's arithmetic;
    /// an observer that never hears it keeps [`Accuracy::Exact`].
    fn accuracy(&mut self, _accuracy: Accuracy) {}
}

/// The do-nothing observer: monomorphizes the observed step loops down to
/// the bare integration.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl StepObserver for NoObserver {
    #[inline(always)]
    fn observe_step(&mut self, _t: f64, _y: &[f64]) {}
    fn wants_samples(&self) -> bool {
        false
    }
}

impl<O: StepObserver + ?Sized> StepObserver for &mut O {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        (**self).begin(t0, y0)
    }
    fn observe_step(&mut self, t: f64, y: &[f64]) {
        (**self).observe_step(t, y)
    }
    fn wants_samples(&self) -> bool {
        (**self).wants_samples()
    }
    fn finish(&mut self, t_end: f64, y_end: &[f64]) {
        (**self).finish(t_end, y_end)
    }
    fn accuracy(&mut self, accuracy: Accuracy) {
        (**self).accuracy(accuracy)
    }
}

/// Decimating adapter: forwards `begin`, every `k`-th accepted step, and
/// the final state.
///
/// Steps `k, 2k, 3k, …` are forwarded as they arrive, and the final step
/// is forwarded from `finish` *only if* it was not already forwarded (so
/// a span of `n` steps with `n % k == 0` delivers no duplicate final
/// sample).
#[derive(Debug)]
pub struct ObserveEvery<O> {
    inner: O,
    every: usize,
    seen: usize,
    last_forwarded: bool,
}

impl<O: StepObserver> ObserveEvery<O> {
    /// Forward every `k`-th step to `inner` (`k = 0` is treated as 1).
    pub fn new(inner: O, k: usize) -> Self {
        Self {
            inner,
            every: k.max(1),
            seen: 0,
            last_forwarded: false,
        }
    }

    /// Recover the wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Access the wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Number of accepted steps seen (forwarded or not).
    pub fn steps_seen(&self) -> usize {
        self.seen
    }
}

impl<O: StepObserver> StepObserver for ObserveEvery<O> {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        self.seen = 0;
        self.last_forwarded = false;
        self.inner.begin(t0, y0);
    }

    fn observe_step(&mut self, t: f64, y: &[f64]) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.inner.observe_step(t, y);
            self.last_forwarded = true;
        } else {
            self.last_forwarded = false;
        }
    }

    fn finish(&mut self, t_end: f64, y_end: &[f64]) {
        if !self.last_forwarded && self.seen > 0 {
            self.inner.observe_step(t_end, y_end);
            self.last_forwarded = true;
        }
        self.inner.finish(t_end, y_end);
    }

    fn accuracy(&mut self, accuracy: Accuracy) {
        self.inner.accuracy(accuracy);
    }
}

/// Recording observer: stores the `begin` sample and every forwarded step
/// into a [`Trajectory`] — what the solvers' `integrate`/`integrate_with`
/// entry points return. Wrap it in [`ObserveEvery`] to keep every `k`-th
/// step only.
///
/// `begin` starts a fresh trajectory at the state's dimension, reserving
/// the capacity hint given to [`Record::with_capacity`].
#[derive(Debug, Clone)]
pub struct Record {
    capacity: usize,
    traj: Trajectory,
}

impl Default for Record {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl Record {
    /// A recorder that reserves room for `samples` samples (the `begin`
    /// sample included) when the integration starts.
    pub fn with_capacity(samples: usize) -> Self {
        Self {
            capacity: samples,
            traj: Trajectory::new(0),
        }
    }

    /// Recover the recorded trajectory.
    pub fn into_trajectory(self) -> Trajectory {
        self.traj
    }
}

impl StepObserver for Record {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        self.traj = Trajectory::with_capacity(y0.len(), self.capacity);
        self.traj.push_trusted(t0, y0);
    }

    // Solvers deliver strictly increasing times at a fixed dimension.
    fn observe_step(&mut self, t: f64, y: &[f64]) {
        self.traj.push_trusted(t, y);
    }
}

/// Test/debug observer that *does* store every forwarded sample — the
/// ground truth the decimation and identity tests compare against.
#[derive(Debug, Default, Clone)]
pub struct CollectObserver {
    /// Forwarded `(t, y)` samples, in arrival order (excludes `begin`).
    pub samples: Vec<(f64, Vec<f64>)>,
    /// The `begin` sample, if seen.
    pub initial: Option<(f64, Vec<f64>)>,
    /// Whether `finish` has been called.
    pub finished: bool,
}

impl StepObserver for CollectObserver {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        self.initial = Some((t0, y0.to_vec()));
    }
    fn observe_step(&mut self, t: f64, y: &[f64]) {
        self.samples.push((t, y.to_vec()));
    }
    fn finish(&mut self, _t_end: f64, _y_end: &[f64]) {
        self.finished = true;
    }
}

/// Outcome of an observed (non-recording) integration: the final state and
/// step counters, O(N) total — the only per-run memory the observed fast
/// paths allocate.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedSummary {
    /// Time actually reached (== requested `t_end` on success).
    pub t_end: f64,
    /// Accepted steps taken.
    pub n_steps: usize,
    /// Right-hand-side evaluations performed.
    pub n_eval: usize,
    /// Final state `y(t_end)`.
    pub y_end: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(obs: &mut impl StepObserver, n_steps: usize) {
        obs.begin(0.0, &[0.0]);
        for k in 1..=n_steps {
            obs.observe_step(k as f64, &[k as f64]);
        }
        obs.finish(n_steps as f64, &[n_steps as f64]);
    }

    #[test]
    fn observe_every_forwards_strided_plus_final() {
        let mut obs = ObserveEvery::new(CollectObserver::default(), 4);
        feed(&mut obs, 10);
        let inner = obs.into_inner();
        let times: Vec<f64> = inner.samples.iter().map(|s| s.0).collect();
        assert_eq!(times, vec![4.0, 8.0, 10.0]);
        assert!(inner.finished);
    }

    #[test]
    fn observe_every_does_not_duplicate_exact_multiple() {
        let mut obs = ObserveEvery::new(CollectObserver::default(), 5);
        feed(&mut obs, 10);
        let times: Vec<f64> = obs.into_inner().samples.iter().map(|s| s.0).collect();
        assert_eq!(times, vec![5.0, 10.0], "10 % 5 == 0: no duplicate final");
    }

    #[test]
    fn observe_every_zero_behaves_as_one() {
        let mut obs = ObserveEvery::new(CollectObserver::default(), 0);
        feed(&mut obs, 3);
        assert_eq!(obs.steps_seen(), 3);
        assert_eq!(obs.inner().samples.len(), 3);
    }

    #[test]
    fn record_stores_begin_and_forwarded_steps() {
        let mut rec = ObserveEvery::new(Record::with_capacity(4), 4);
        feed(&mut rec, 10);
        let traj = rec.into_inner().into_trajectory();
        assert_eq!(traj.times(), &[0.0, 4.0, 8.0, 10.0]);
        assert_eq!(traj.last().unwrap(), &[10.0]);
        // `begin` restarts the recording.
        let mut rec = Record::default();
        feed(&mut rec, 3);
        feed(&mut rec, 2);
        assert_eq!(rec.into_trajectory().times(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn no_observer_is_inert() {
        let mut obs = NoObserver;
        feed(&mut obs, 5); // must simply not panic
    }

    #[test]
    fn mut_ref_forwards() {
        let mut inner = CollectObserver::default();
        feed(&mut &mut inner, 2);
        assert_eq!(inner.samples.len(), 2);
        assert!(inner.finished);
    }
}
