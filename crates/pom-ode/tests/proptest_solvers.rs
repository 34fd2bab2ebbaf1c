//! Property-based tests for the solver suite.

use pom_ode::dde::{DdeRk4, DdeSystem, InitialHistory, PhaseHistory};
use pom_ode::CollectObserver;
use pom_ode::{
    Dopri5, Euler, FixedStepSolver, FnSystem, Heun, ObserveEvery, Record, Rk4, Trajectory,
    Workspace,
};
use proptest::prelude::*;

/// Linear scalar ODE ẏ = a·y has solution y₀·e^{a t}.
fn linear_sys(a: f64) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
    FnSystem::new(1, move |_t, y, d| d[0] = a * y[0])
}

proptest! {
    /// Dopri5 solves every (non-stiff) linear scalar ODE to tolerance.
    #[test]
    fn dopri5_linear_exact(a in -2.0f64..2.0, y0 in 0.1f64..10.0, t_end in 0.5f64..5.0) {
        let sys = linear_sys(a);
        let sol = Dopri5::new().rtol(1e-9).atol(1e-11)
            .integrate(&sys, 0.0, &[y0], t_end).unwrap();
        let exact = y0 * (a * t_end).exp();
        let err = (sol.y_end()[0] - exact).abs();
        prop_assert!(err < 1e-6 * exact.abs().max(1.0), "err = {err}");
    }

    /// Dense output agrees with the analytic solution at arbitrary interior
    /// times, not only step endpoints.
    #[test]
    fn dopri5_dense_output_interior(a in -1.5f64..1.5, frac in 0.0f64..1.0) {
        let sys = linear_sys(a);
        let sol = Dopri5::new().rtol(1e-9).atol(1e-11)
            .integrate(&sys, 0.0, &[1.0], 3.0).unwrap();
        let t = 3.0 * frac;
        let err = (sol.sample_component(t, 0) - (a * t).exp()).abs();
        prop_assert!(err < 1e-6, "t = {t}, err = {err}");
    }

    /// Halving the RK4 step shrinks the global error by roughly 2⁴ for a
    /// smooth problem (allowing generous slack for round-off at tiny errors).
    #[test]
    fn rk4_refinement_improves(a in -1.0f64..-0.1, h in 0.02f64..0.1) {
        let sys = linear_sys(a);
        let run = |h: f64| {
            let solver = FixedStepSolver::new(Rk4, h).unwrap();
            let traj = solver.integrate(&sys, 0.0, &[1.0], 2.0).unwrap();
            (traj.last().unwrap()[0] - (2.0 * a).exp()).abs()
        };
        let e_coarse = run(h);
        let e_fine = run(h / 2.0);
        // At least 8× improvement expected from a 4th-order method (theory: 16×).
        prop_assert!(e_fine <= e_coarse / 8.0 + 1e-14,
            "coarse {e_coarse:e}, fine {e_fine:e}");
    }

    /// Euler, Heun and RK4 agree on the direction of motion and converge to
    /// the same limit for smooth scalar problems.
    #[test]
    fn steppers_consistent(a in -1.0f64..1.0, y0 in 0.5f64..2.0) {
        let sys = linear_sys(a);
        let exact = y0 * (a * 1.0f64).exp();
        for (err_bound, traj) in [
            (0.1, FixedStepSolver::new(Euler, 1e-3).unwrap().integrate(&sys, 0.0, &[y0], 1.0).unwrap()),
            (1e-4, FixedStepSolver::new(Heun, 1e-3).unwrap().integrate(&sys, 0.0, &[y0], 1.0).unwrap()),
            (1e-8, FixedStepSolver::new(Rk4, 1e-3).unwrap().integrate(&sys, 0.0, &[y0], 1.0).unwrap()),
        ] {
            let e = (traj.last().unwrap()[0] - exact).abs();
            prop_assert!(e < err_bound * exact.abs().max(1.0), "err {e} vs bound {err_bound}");
        }
    }

    /// Trajectory linear interpolation always lies within the convex hull of
    /// the neighbouring samples.
    #[test]
    fn trajectory_interp_within_hull(samples in prop::collection::vec((0.01f64..1.0, -5.0f64..5.0), 2..20), q in 0.0f64..1.0) {
        let mut tr = Trajectory::new(1);
        let mut t = 0.0;
        for (dt, v) in &samples {
            t += dt;
            tr.push(t, &[*v]).unwrap();
        }
        let t_probe = tr.times()[0] + q * tr.span();
        let val = tr.sample_linear(t_probe).unwrap()[0];
        let lo = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        let hi = samples.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(val >= lo - 1e-12 && val <= hi + 1e-12);
    }
}

/// Scalar DDE ẏ = a·y(t−τ) with constant history.
struct PropLag {
    a: f64,
    tau: f64,
}

impl DdeSystem for PropLag {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, t: f64, _y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
        dydt[0] = self.a * hist.sample(t - self.tau, 0);
    }
}

proptest! {
    /// During the first delay interval the DDE has the exact solution
    /// y(t) = y₀·(1 + a·t) (the history is constant there).
    #[test]
    fn dde_first_interval_analytic(a in -1.0f64..1.0, tau in 0.3f64..1.0, y0 in 0.5f64..2.0) {
        let sys = PropLag { a, tau };
        let solver = DdeRk4::new(0.01).unwrap();
        let (traj, _) = solver
            .integrate(&sys, 0.0, InitialHistory::Constant(vec![y0]), tau)
            .unwrap();
        for (t, s) in traj.iter() {
            let exact = y0 * (1.0 + a * t);
            prop_assert!((s[0] - exact).abs() < 1e-9,
                "t = {t}: {} vs {exact}", s[0]);
        }
    }

    /// The history buffer returned by the DDE solver reproduces the
    /// recorded trajectory at every knot.
    #[test]
    fn dde_buffer_consistent_with_trajectory(a in -0.5f64..0.5, tau in 0.2f64..0.8) {
        let sys = PropLag { a, tau };
        let solver = DdeRk4::new(0.05).unwrap();
        let (traj, buf) = solver
            .integrate(&sys, 0.0, InitialHistory::Constant(vec![1.0]), 2.0)
            .unwrap();
        for (t, s) in traj.iter() {
            prop_assert!((buf.sample(t, 0) - s[0]).abs() < 1e-12);
        }
    }
}

// --- Workspace API: reuse must be invisible in the results ---

proptest! {
    /// A reused (dirty) workspace produces bitwise identical trajectories
    /// to the fresh-allocation path, full and thinned.
    #[test]
    fn workspace_reuse_bitwise_identical_fixed(
        a in -2.0f64..2.0,
        y0 in 0.1f64..10.0,
        t_end in 0.5f64..4.0,
        h in 0.01f64..0.2,
    ) {
        let sys = linear_sys(a);
        let mut ws = Workspace::new();
        // Dirty the workspace with an unrelated integration (different
        // dimension, different solver) before the comparison runs.
        let decoy = FnSystem::new(3, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
            d[2] = 0.5 * y[2];
        });
        FixedStepSolver::new(Rk4, 0.1).unwrap()
            .integrate_with(&decoy, 0.0, &[1.0, 0.0, 1.0], 1.0, &mut ws)
            .unwrap();

        let solver = FixedStepSolver::new(Rk4, h).unwrap();
        let fresh = solver.integrate(&sys, 0.0, &[y0], t_end).unwrap();
        let reused = solver.integrate_with(&sys, 0.0, &[y0], t_end, &mut ws).unwrap();
        prop_assert!(fresh == reused, "workspace reuse changed the trajectory");

        let thinned = |ws: &mut Workspace| {
            let mut rec = ObserveEvery::new(Record::default(), 3);
            solver.integrate_observed(&sys, 0.0, &[y0], t_end, ws, &mut rec).unwrap();
            rec.into_inner().into_trajectory()
        };
        prop_assert!(
            thinned(&mut Workspace::new()) == thinned(&mut ws),
            "workspace reuse changed the thinned trajectory"
        );
    }

    /// Dopri5: the monomorphized workspace path is bitwise identical to
    /// the dyn-dispatch wrapper — same accepted steps, same dense output.
    #[test]
    fn dopri5_workspace_path_identical(a in -1.5f64..1.5, y0 in 0.2f64..5.0) {
        let sys = linear_sys(a);
        let solver = Dopri5::new().rtol(1e-7).atol(1e-9);
        let fresh = solver.integrate(&sys, 0.0, &[y0], 3.0).unwrap();
        let mut ws = Workspace::new();
        // Dirty run at another dimension first.
        let decoy = FnSystem::new(2, |_t, y, d| { d[0] = y[1]; d[1] = -y[0]; });
        solver.integrate_with(&decoy, 0.0, &[1.0, 0.0], 1.0, &mut ws).unwrap();
        let (reused, _) = solver.integrate_with(&sys, 0.0, &[y0], 3.0, &mut ws).unwrap();
        prop_assert_eq!(fresh.n_segments(), reused.n_segments());
        prop_assert_eq!(fresh.y_end()[0].to_bits(), reused.y_end()[0].to_bits());
        for k in 0..=50 {
            let t = 3.0 * k as f64 / 50.0;
            prop_assert_eq!(
                fresh.sample_component(t, 0).to_bits(),
                reused.sample_component(t, 0).to_bits(),
                "dense output differs at t = {}", t
            );
        }
    }

    /// DDE driver: workspace reuse is bitwise invisible as well.
    #[test]
    fn dde_workspace_path_identical(a in -0.8f64..0.8, tau in 0.2f64..0.8) {
        let sys = PropLag { a, tau };
        let solver = DdeRk4::new(0.02).unwrap();
        let (fresh, _) = solver
            .integrate(&sys, 0.0, InitialHistory::Constant(vec![1.0]), 2.0)
            .unwrap();
        let mut ws = Workspace::new();
        let decoy = PropLag { a: 0.3, tau: 0.5 };
        solver
            .integrate_with(&decoy, 0.0, InitialHistory::Constant(vec![2.0]), 1.0, &mut ws)
            .unwrap();
        let (reused, buf) = solver
            .integrate_with(&sys, 0.0, InitialHistory::Constant(vec![1.0]), 2.0, &mut ws)
            .unwrap();
        prop_assert!(fresh == reused, "DDE workspace reuse changed the trajectory");
        prop_assert!(buf.len() > 1);
    }
}

// --- Recording vs the raw observer stream ---

proptest! {
    /// The recorded trajectory holds exactly the samples the raw
    /// observer stream delivers (`begin` plus every step), bitwise, and
    /// the observed summary repeats the final sample.
    #[test]
    fn fixed_observed_matches_recorded_samples(
        a in -2.0f64..2.0,
        y0 in 0.1f64..10.0,
        t_end in 0.5f64..4.0,
        h in 0.01f64..0.2,
    ) {
        let sys = linear_sys(a);
        let solver = FixedStepSolver::new(Rk4, h).unwrap();
        let traj = solver.integrate(&sys, 0.0, &[y0], t_end).unwrap();
        let mut ws = Workspace::new();
        let mut obs = CollectObserver::default();
        let sum = solver
            .integrate_observed(&sys, 0.0, &[y0], t_end, &mut ws, &mut obs)
            .unwrap();
        // Initial sample via begin, each step via observe_step.
        let (t0, ref s0) = obs.initial.clone().expect("begin called");
        prop_assert_eq!(t0.to_bits(), traj.times()[0].to_bits());
        prop_assert_eq!(s0[0].to_bits(), traj.state(0)[0].to_bits());
        prop_assert_eq!(obs.samples.len() + 1, traj.len());
        for (k, (t, s)) in obs.samples.iter().enumerate() {
            prop_assert_eq!(t.to_bits(), traj.time(k + 1).to_bits());
            prop_assert_eq!(s[0].to_bits(), traj.state(k + 1)[0].to_bits());
        }
        prop_assert!(obs.finished);
        prop_assert_eq!(sum.y_end[0].to_bits(), traj.last().unwrap()[0].to_bits());
        prop_assert_eq!(sum.n_steps, traj.len() - 1);
    }

    /// Dopri5's dense path and observed path share the step loop: same
    /// accepted steps, bitwise-identical final state, one observer sample
    /// per dense segment.
    #[test]
    fn dopri5_observed_matches_dense_path(a in -1.5f64..1.5, y0 in 0.2f64..5.0, t_end in 0.5f64..4.0) {
        let sys = linear_sys(a);
        let solver = Dopri5::new().rtol(1e-7).atol(1e-9);
        let (sol, stats) = solver.integrate_with_stats(&sys, 0.0, &[y0], t_end).unwrap();
        let mut ws = Workspace::new();
        let mut obs = CollectObserver::default();
        let (sum, ostats) = solver
            .integrate_observed(&sys, 0.0, &[y0], t_end, &mut ws, &mut obs)
            .unwrap();
        prop_assert_eq!(stats, ostats);
        prop_assert_eq!(sum.y_end[0].to_bits(), sol.y_end()[0].to_bits());
        prop_assert_eq!(obs.samples.len(), sol.n_segments());
        // Each observed sample sits at a segment end with the state the
        // dense path accepted there.
        for (seg, (t, _)) in sol.segments().iter().zip(&obs.samples) {
            prop_assert_eq!(seg.t1().to_bits(), t.to_bits());
        }
    }

    /// The DDE observed driver with a pruned history window covering the
    /// delay is bitwise identical to the full-history recording path.
    #[test]
    fn dde_observed_pruned_matches_recorded(
        a in -0.8f64..0.8,
        tau in 0.2f64..0.8,
        t_end in 2.0f64..6.0,
    ) {
        let sys = PropLag { a, tau };
        let solver = DdeRk4::new(0.02).unwrap();
        let (traj, _) = solver
            .integrate(&sys, 0.0, InitialHistory::Constant(vec![1.0]), t_end)
            .unwrap();
        let mut ws = Workspace::new();
        let mut obs = CollectObserver::default();
        let sum = solver
            .integrate_observed(
                &sys,
                0.0,
                InitialHistory::Constant(vec![1.0]),
                t_end,
                tau, // window exactly the delay
                &mut ws,
                &mut obs,
            )
            .unwrap();
        prop_assert_eq!(obs.samples.len() + 1, traj.len());
        for (k, (t, s)) in obs.samples.iter().enumerate() {
            prop_assert_eq!(t.to_bits(), traj.time(k + 1).to_bits());
            prop_assert_eq!(s[0].to_bits(), traj.state(k + 1)[0].to_bits());
        }
        prop_assert_eq!(sum.y_end[0].to_bits(), traj.last().unwrap()[0].to_bits());
    }
}

// --- Decimated recording: ODE and DDE agree, no duplicates ---

/// Record every `k`-th step (plus the final one) of a fixed-step run.
fn record_every(solver: &FixedStepSolver<Rk4>, a: f64, t_end: f64, k: usize) -> Trajectory {
    let mut rec = ObserveEvery::new(Record::default(), k);
    solver
        .integrate_observed(
            &linear_sys(a),
            0.0,
            &[1.0],
            t_end,
            &mut Workspace::new(),
            &mut rec,
        )
        .unwrap();
    rec.into_inner().into_trajectory()
}

proptest! {
    /// The "final state is always recorded" convention must not duplicate
    /// the last sample when the step count is an exact multiple of `k`,
    /// the recorded grid must be exactly {0, k, 2k, …, n_steps}, and the
    /// ODE and DDE solvers must agree sample-for-sample.
    #[test]
    fn record_every_conventions_agree(
        a in -1.0f64..1.0,
        h in 0.01f64..0.3,
        t_end in 0.5f64..5.0,
        k in 1usize..9,
    ) {
        let n_steps = (t_end / h).ceil().max(1.0) as usize;
        let expected_len = 1 + n_steps / k + usize::from(!n_steps.is_multiple_of(k));

        let ode = record_every(&FixedStepSolver::new(Rk4, h).unwrap(), a, t_end, k);

        struct OdeAsDde<F: Fn(f64, &[f64], &mut [f64])>(FnSystem<F>);
        impl<F: Fn(f64, &[f64], &mut [f64])> DdeSystem for OdeAsDde<F> {
            fn dim(&self) -> usize { 1 }
            fn eval(&self, t: f64, y: &[f64], _h: &dyn PhaseHistory, d: &mut [f64]) {
                use pom_ode::OdeSystem;
                self.0.eval(t, y, d)
            }
        }
        let mut rec = ObserveEvery::new(Record::default(), k);
        DdeRk4::new(h).unwrap()
            .integrate_observed(
                &OdeAsDde(linear_sys(a)),
                0.0,
                InitialHistory::Constant(vec![1.0]),
                t_end,
                0.0, // the system never looks back
                &mut Workspace::new(),
                &mut rec,
            )
            .unwrap();
        let dde = rec.into_inner().into_trajectory();

        for traj in [&ode, &dde] {
            prop_assert_eq!(traj.len(), expected_len,
                "n_steps = {}, k = {}", n_steps, k);
            // Strictly increasing times ⇒ no duplicated final sample.
            for w in traj.times().windows(2) {
                prop_assert!(w[0] < w[1], "duplicate/regressing sample: {:?}", w);
            }
            prop_assert_eq!(traj.times().last().unwrap().to_bits(), t_end.to_bits());
        }
        // Same convention ⇒ same grid, sample for sample.
        prop_assert_eq!(ode.times().len(), dde.times().len());
        for (a_t, b_t) in ode.times().iter().zip(dde.times()) {
            prop_assert_eq!(a_t.to_bits(), b_t.to_bits());
        }
        // RK4 on an ODE and DdeRk4 ignoring its history run the same
        // arithmetic: recorded states agree bitwise too.
        for (a_s, b_s) in ode.iter().zip(dde.iter()) {
            prop_assert_eq!(a_s.1[0].to_bits(), b_s.1[0].to_bits());
        }
    }

    /// A decimated recording equals the raw observer stream decimated by
    /// hand: `begin`, steps k, 2k, …, and the final step.
    #[test]
    fn observe_every_matches_record_every(
        a in -1.0f64..1.0,
        h in 0.01f64..0.3,
        t_end in 0.5f64..5.0,
        k in 1usize..9,
    ) {
        let solver = FixedStepSolver::new(Rk4, h).unwrap();
        let traj = record_every(&solver, a, t_end, k);
        let mut raw = CollectObserver::default();
        solver
            .integrate_observed(&linear_sys(a), 0.0, &[1.0], t_end, &mut Workspace::new(), &mut raw)
            .unwrap();
        let n = raw.samples.len();
        let mut want: Vec<&(f64, Vec<f64>)> = vec![];
        for (step, sample) in raw.samples.iter().enumerate() {
            if (step + 1) % k == 0 || step + 1 == n {
                want.push(sample);
            }
        }
        let (t0, s0) = raw.initial.expect("begin called");
        prop_assert_eq!(traj.len(), want.len() + 1);
        prop_assert_eq!(t0.to_bits(), traj.time(0).to_bits());
        prop_assert_eq!(s0[0].to_bits(), traj.state(0)[0].to_bits());
        for (i, (t, s)) in want.into_iter().enumerate() {
            prop_assert_eq!(t.to_bits(), traj.time(i + 1).to_bits());
            prop_assert_eq!(s[0].to_bits(), traj.state(i + 1)[0].to_bits());
        }
    }
}
