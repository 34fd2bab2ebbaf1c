//! Reusable scratch memory for the integration hot paths.
//!
//! Every explicit Runge–Kutta step needs a handful of length-`n` stage
//! buffers (`k1..k4`, intermediate states, …). Allocating them per step —
//! as the first version of this crate did — puts the allocator on the
//! hottest path in the repository: a σ-sweep campaign integrates millions
//! of steps, and `pom-sweep` multiplies that by the grid size. A
//! [`Workspace`] owns that scratch memory once and lends it out per step,
//! so the steady-state step loop performs **zero** heap allocations.
//!
//! The workspace is split into two independent [`ScratchPool`]s:
//!
//! * the **stage** pool, consumed inside a single
//!   [`crate::fixed::Stepper::step`] call (stage derivatives `k_i` and
//!   intermediate states), and
//! * the **drive** pool, holding buffers that live across steps of one
//!   integration (the current/next state, FSAL derivative carries).
//!
//! Two pools are needed because the driver loop holds its state slices
//! *while* calling into the stepper — a single pool could not be borrowed
//! by both at once.
//!
//! A workspace may be reused freely across integrations, solvers, systems
//! and dimensions; pools grow to the high-water mark and stay there.
//! Reuse never changes results: the property suite asserts bitwise
//! identical trajectories between fresh and reused workspaces.
//!
//! The workspace covers the *stepper's* scratch only. Scratch that is
//! private to a right-hand side (for example the sin/cos arrays of
//! `pom-core`'s split RHS kernel) lives with the system, because
//! [`crate::OdeSystem::eval`] runs through `&self` — the stepper neither
//! knows nor cares how the RHS organizes its own memory.
//!
//! ```
//! use pom_ode::{FixedStepSolver, FnSystem, Rk4, Workspace};
//!
//! let solver = FixedStepSolver::new(Rk4, 0.01).unwrap();
//! let mut ws = Workspace::new();
//! // One workspace serves a whole ensemble of initial conditions.
//! for y0 in [0.5, 1.0, 2.0] {
//!     let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
//!     let traj = solver.integrate_with(&sys, 0.0, &[y0], 1.0, &mut ws).unwrap();
//!     let exact = y0 * (-1.0f64).exp();
//!     assert!((traj.last().unwrap()[0] - exact).abs() < 1e-8);
//! }
//! ```

/// A growable pool of equally sized `f64` scratch slices.
///
/// [`ScratchPool::slices`] hands out `K` non-overlapping `&mut [f64]` of
/// length `n`, growing the backing allocation on first use (or on a
/// dimension increase) and reusing it afterwards.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    buf: Vec<f64>,
}

impl ScratchPool {
    /// An empty pool; backing memory is acquired on first use.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Borrow `K` disjoint zero-initialized-on-growth slices of length `n`.
    ///
    /// The contents of previously used slices are unspecified (solvers
    /// fully overwrite their scratch before reading it).
    pub fn slices<const K: usize>(&mut self, n: usize) -> [&mut [f64]; K] {
        if n == 0 {
            return std::array::from_fn(|_| Default::default());
        }
        let need = K * n;
        if self.buf.len() < need {
            self.buf.resize(need, 0.0);
        }
        let mut chunks = self.buf.chunks_exact_mut(n);
        std::array::from_fn(|_| chunks.next().expect("pool resized above"))
    }

    /// Current backing capacity in `f64` elements (high-water mark).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }
}

/// Reusable scratch memory for one integration at a time.
///
/// Create once (per worker thread, per ensemble, …) and pass to the
/// step loops' entry points — `integrate_observed` and the recording
/// `integrate_with` on [`crate::fixed::FixedStepSolver`],
/// [`crate::dopri5::Dopri5`] and [`crate::dde::DdeRk4`]. The convenience
/// wrappers without a workspace argument allocate a fresh one internally.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    stage: ScratchPool,
    drive: ScratchPool,
}

impl Workspace {
    /// An empty workspace; buffers are acquired lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split into the per-step stage pool and the per-integration drive
    /// pool (disjoint borrows, usable simultaneously).
    pub fn split(&mut self) -> (&mut ScratchPool, &mut ScratchPool) {
        (&mut self.stage, &mut self.drive)
    }

    /// Total backing capacity in `f64` elements.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.stage.capacity() + self.drive.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_disjoint_and_sized() {
        let mut pool = ScratchPool::new();
        let [a, b, c] = pool.slices::<3>(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(c.len(), 4);
        a[0] = 1.0;
        b[0] = 2.0;
        c[3] = 3.0;
        assert_eq!((a[0], b[0], c[3]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn pool_grows_to_high_water_mark_and_reuses() {
        let mut pool = ScratchPool::new();
        let _ = pool.slices::<2>(8);
        assert_eq!(pool.capacity(), 16);
        let _ = pool.slices::<4>(2);
        assert_eq!(pool.capacity(), 16, "smaller request must not shrink");
        let _ = pool.slices::<4>(8);
        assert_eq!(pool.capacity(), 32);
    }

    #[test]
    fn zero_dimension_is_handled() {
        let mut pool = ScratchPool::new();
        let [a, b] = pool.slices::<2>(0);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn workspace_split_borrows_both_pools() {
        let mut ws = Workspace::new();
        let (stage, drive) = ws.split();
        let [s] = stage.slices::<1>(3);
        let [d] = drive.slices::<1>(3);
        s[0] = 1.0;
        d[0] = 2.0;
        assert_eq!(s[0] + d[0], 3.0);
        assert_eq!(ws.capacity(), 6);
    }
}
