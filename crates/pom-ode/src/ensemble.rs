//! Lockstep ensemble integration: R replicas of an n-dimensional system
//! advanced as **one** interleaved `n·R`-dimensional system.
//!
//! ## Layout
//!
//! The batched state vector is structure-of-arrays with the replica index
//! innermost: component `(i, rep)` lives at `i * R + rep`, so all R
//! replica values of oscillator `i` are contiguous:
//!
//! ```text
//!   [ y0⁽⁰⁾ y0⁽¹⁾ … y0⁽ᴿ⁻¹⁾ | y1⁽⁰⁾ y1⁽¹⁾ … y1⁽ᴿ⁻¹⁾ | … ]
//!     └──── row 0 ─────────┘  └──── row 1 ─────────┘
//! ```
//!
//! Why this interleaving: a right-hand side that walks oscillator rows
//! (a stencil pass, a sin/cos array pass, a CSR row scan) touches the R
//! replica values of each row as one contiguous block, so per-row work —
//! index arithmetic, neighbor lookups, cache lines — amortizes across the
//! whole batch instead of being repeated R times.
//!
//! ## Bitwise contract
//!
//! Fixed-step explicit Runge–Kutta updates are elementwise: stage
//! combination `y' = y + h·Σ b_i k_i` for component `(i, rep)` reads only
//! component `(i, rep)` of each stage. The layout therefore cannot change
//! any arithmetic — a batched integration is **bitwise identical** to R
//! independent integrations as long as the batched RHS evaluates each
//! replica's derivative with the same per-component operation order as
//! the single-replica RHS. [`EnsembleSystem`] guarantees that trivially
//! (it gathers each replica out and calls the inner RHS unchanged);
//! natively batched RHS implementations (see `pom-core`'s ensemble
//! module) must preserve per-`(i, rep)` accumulation order and are
//! proptested against this adapter.
//!
//! Adaptive solvers are excluded from lockstep batching: their step-size
//! controller folds the whole state into one error norm, which would
//! couple replicas (replica 1's stiffness changing replica 2's step
//! sequence). Callers run adaptive ensembles sequentially instead.

use crate::dde::{DdeSystem, PhaseHistory};
use crate::observe::StepObserver;
use crate::OdeSystem;
use std::sync::Mutex;

/// Index arithmetic for the interleaved `[n × R]` ensemble layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnsembleLayout {
    /// Per-replica dimension (oscillator count).
    pub n: usize,
    /// Replica count.
    pub r: usize,
}

impl EnsembleLayout {
    /// Layout for `r` replicas of an `n`-dimensional system.
    pub fn new(n: usize, r: usize) -> Self {
        Self { n, r }
    }

    /// Total batched dimension `n · r`.
    pub(crate) fn dim(&self) -> usize {
        self.n * self.r
    }

    /// Flat index of component `i` of replica `rep`.
    #[inline]
    pub(crate) fn index(&self, i: usize, rep: usize) -> usize {
        debug_assert!(i < self.n && rep < self.r);
        i * self.r + rep
    }

    /// Interleave per-replica states (each length `n`) into one batched
    /// vector of length `EnsembleLayout::dim`.
    pub fn pack(&self, members: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(members.len(), self.r, "one state per replica");
        let mut out = vec![0.0; self.dim()];
        for (rep, y) in members.iter().enumerate() {
            assert_eq!(y.len(), self.n, "replica state dimension");
            for (i, &v) in y.iter().enumerate() {
                out[self.index(i, rep)] = v;
            }
        }
        out
    }

    /// Copy replica `rep` out of a batched vector into `dst` (length `n`).
    pub(crate) fn extract_into(&self, batched: &[f64], rep: usize, dst: &mut [f64]) {
        debug_assert_eq!(batched.len(), self.dim());
        debug_assert_eq!(dst.len(), self.n);
        for (i, d) in dst.iter_mut().enumerate() {
            *d = batched[self.index(i, rep)];
        }
    }

    /// Replica `rep` of a batched vector as a fresh `Vec`.
    pub fn extract(&self, batched: &[f64], rep: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.extract_into(batched, rep, &mut out);
        out
    }
}

/// View of one replica's phases inside a batched [`PhaseHistory`]: delegates
/// `sample(t, j)` to the batched history at the interleaved index.
struct ReplicaHistoryView<'a> {
    inner: &'a dyn PhaseHistory,
    layout: EnsembleLayout,
    rep: usize,
}

impl PhaseHistory for ReplicaHistoryView<'_> {
    fn sample(&self, t: f64, i: usize) -> f64 {
        self.inner.sample(t, self.layout.index(i, self.rep))
    }
}

/// The reference batched system: wraps R single-replica systems into one
/// `n·R`-dimensional [`OdeSystem`] / [`DdeSystem`] by gather → inner eval
/// → scatter, per replica.
///
/// Each replica's RHS is evaluated through the *unmodified* inner system
/// on a densely packed per-replica state, so the batched derivative is
/// bitwise identical to R independent evaluations by construction. This
/// is the differential-testing oracle for natively batched RHS
/// implementations — and a correct (if unamortized) fallback for any
/// system.
pub struct EnsembleSystem<S> {
    members: Vec<S>,
    layout: EnsembleLayout,
    /// Gather/scatter scratch (`y_rep`, `dydt_rep`). Interior mutability
    /// because [`OdeSystem::eval`] takes `&self`; uncontended in practice
    /// (solvers evaluate serially).
    scratch: Mutex<(Vec<f64>, Vec<f64>)>,
}

impl<S: OdeSystem> EnsembleSystem<S> {
    /// Batch `members` (all of equal dimension) into one system.
    ///
    /// Panics if `members` is empty or dimensions disagree.
    pub fn new(members: Vec<S>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let n = members[0].dim();
        assert!(
            members.iter().all(|m| m.dim() == n),
            "all ensemble members must share one dimension"
        );
        let r = members.len();
        Self {
            members,
            layout: EnsembleLayout::new(n, r),
            scratch: Mutex::new((vec![0.0; n], vec![0.0; n])),
        }
    }
}

impl<S> EnsembleSystem<S> {
    /// The interleaving layout.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> EnsembleLayout {
        self.layout
    }
}

impl<S: OdeSystem> OdeSystem for EnsembleSystem<S> {
    fn dim(&self) -> usize {
        self.layout.dim()
    }

    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let mut guard = self.scratch.lock().expect("ensemble scratch");
        let (y_rep, d_rep) = &mut *guard;
        for (rep, sys) in self.members.iter().enumerate() {
            self.layout.extract_into(y, rep, y_rep);
            sys.eval(t, y_rep, d_rep);
            for (i, &v) in d_rep.iter().enumerate() {
                dydt[self.layout.index(i, rep)] = v;
            }
        }
    }
}

impl<S: DdeSystem> EnsembleSystem<S> {
    /// Batch delay systems (all of equal dimension) into one.
    pub fn new_dde(members: Vec<S>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let n = members[0].dim();
        assert!(
            members.iter().all(|m| m.dim() == n),
            "all ensemble members must share one dimension"
        );
        let r = members.len();
        Self {
            members,
            layout: EnsembleLayout::new(n, r),
            scratch: Mutex::new((vec![0.0; n], vec![0.0; n])),
        }
    }
}

impl<S: DdeSystem> DdeSystem for EnsembleSystem<S> {
    fn dim(&self) -> usize {
        self.layout.dim()
    }

    fn eval(&self, t: f64, y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
        let mut guard = self.scratch.lock().expect("ensemble scratch");
        let (y_rep, d_rep) = &mut *guard;
        for (rep, sys) in self.members.iter().enumerate() {
            self.layout.extract_into(y, rep, y_rep);
            let view = ReplicaHistoryView {
                inner: hist,
                layout: self.layout,
                rep,
            };
            sys.eval(t, y_rep, &view, d_rep);
            for (i, &v) in d_rep.iter().enumerate() {
                dydt[self.layout.index(i, rep)] = v;
            }
        }
    }
}

/// Fans batched observer callbacks out to one [`StepObserver`] per
/// replica, de-interleaving the state so each inner observer sees exactly
/// the `(t, y_rep)` sequence an independent run of that replica would
/// produce.
pub struct EnsembleObserver<'a, O> {
    observers: &'a mut [O],
    layout: EnsembleLayout,
    scratch: Vec<f64>,
}

impl<'a, O: StepObserver> EnsembleObserver<'a, O> {
    /// Fan out to `observers` (one per replica, replica order).
    pub fn new(observers: &'a mut [O], layout: EnsembleLayout) -> Self {
        assert_eq!(observers.len(), layout.r, "one observer per replica");
        Self {
            observers,
            layout,
            scratch: vec![0.0; layout.n],
        }
    }

    fn fan_out(&mut self, y: &[f64], mut f: impl FnMut(&mut O, &[f64])) {
        for rep in 0..self.layout.r {
            // De-interleaving exists only to feed the inner observer; a
            // disinterested one (NoObserver) skips the copy entirely.
            if !self.observers[rep].wants_samples() {
                continue;
            }
            self.layout.extract_into(y, rep, &mut self.scratch);
            f(&mut self.observers[rep], &self.scratch);
        }
    }
}

impl<O: StepObserver> StepObserver for EnsembleObserver<'_, O> {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        self.fan_out(y0, |obs, y| obs.begin(t0, y));
    }

    fn observe_step(&mut self, t: f64, y: &[f64]) {
        self.fan_out(y, |obs, y| obs.observe_step(t, y));
    }

    fn finish(&mut self, t_end: f64, y_end: &[f64]) {
        self.fan_out(y_end, |obs, y| obs.finish(t_end, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{FixedStepSolver, Rk4};
    use crate::observe::CollectObserver;
    use crate::workspace::Workspace;
    use crate::FnSystem;

    fn decay(k: f64) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, move |_t, y, d| {
            d[0] = -k * y[0];
            d[1] = -k * y[1] + y[0];
        })
    }

    #[test]
    fn layout_roundtrip() {
        let l = EnsembleLayout::new(3, 2);
        assert_eq!(l.dim(), 6);
        assert_eq!(l.index(2, 1), 5);
        let members = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        let packed = l.pack(&members);
        assert_eq!(packed, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(l.extract(&packed, 0), members[0]);
        assert_eq!(l.extract(&packed, 1), members[1]);
    }

    #[test]
    fn batched_integration_is_bitwise_identical_to_independent_runs() {
        let ks = [0.5, 1.0, 2.0];
        let inits: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 + k, -k]).collect();
        let solver = FixedStepSolver::new(Rk4, 0.01).unwrap();

        // Independent reference runs.
        let mut reference = Vec::new();
        for (&k, y0) in ks.iter().zip(&inits) {
            let traj = solver.integrate(&decay(k), 0.0, y0, 2.0).unwrap();
            reference.push(traj.last().unwrap().to_vec());
        }

        // One batched run.
        let ens = EnsembleSystem::new(ks.iter().map(|&k| decay(k)).collect());
        let layout = ens.layout();
        let y0 = layout.pack(&inits);
        let traj = solver.integrate(&ens, 0.0, &y0, 2.0).unwrap();
        let y_end = traj.last().unwrap();

        for (rep, want) in reference.iter().enumerate() {
            let got = layout.extract(y_end, rep);
            assert_eq!(&got, want, "replica {rep} must match bitwise");
        }
    }

    #[test]
    fn observer_fan_out_matches_independent_observation() {
        let ks = [1.0, 3.0];
        let inits = vec![vec![1.0, 0.0], vec![0.5, 0.25]];
        let solver = FixedStepSolver::new(Rk4, 0.1).unwrap();
        let mut ws = Workspace::new();

        let mut reference = Vec::new();
        for (&k, y0) in ks.iter().zip(&inits) {
            let mut obs = CollectObserver::default();
            solver
                .integrate_observed(&decay(k), 0.0, y0, 1.0, &mut ws, &mut obs)
                .unwrap();
            reference.push(obs);
        }

        let ens = EnsembleSystem::new(ks.iter().map(|&k| decay(k)).collect());
        let layout = ens.layout();
        let y0 = layout.pack(&inits);
        let mut observers = vec![CollectObserver::default(), CollectObserver::default()];
        let mut fan = EnsembleObserver::new(&mut observers, layout);
        solver
            .integrate_observed(&ens, 0.0, &y0, 1.0, &mut ws, &mut fan)
            .unwrap();

        for (rep, want) in reference.iter().enumerate() {
            assert_eq!(observers[rep].samples, want.samples, "replica {rep}");
            assert_eq!(observers[rep].initial, want.initial);
            assert!(observers[rep].finished);
        }
    }
}
