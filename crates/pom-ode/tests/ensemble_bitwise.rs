//! Differential tests for the solver-level ensemble layer: a batched
//! R-replica integration through [`EnsembleSystem`] must be **bitwise**
//! identical to R independent runs — final states and every observer
//! callback — for every fixed-step method and the DDE integrator.
//!
//! Fixed-step Runge–Kutta stage arithmetic is elementwise, so interleaving
//! replicas into one `n·R` state vector cannot change any replica's
//! floating-point results as long as the per-replica RHS sees exactly its
//! own de-interleaved state (which `EnsembleSystem` guarantees by
//! gather/scatter). These tests pin that argument with real arithmetic.

use pom_ode::dde::{DdeRk4, DdeSystem, InitialHistory, PhaseHistory};
use pom_ode::CollectObserver;
use pom_ode::{
    EnsembleLayout, EnsembleObserver, EnsembleSystem, Euler, FixedStepSolver, FnSystem, Heun, Rk4,
    Workspace,
};
use proptest::prelude::*;

/// Coupled two-component member: a rotation-plus-decay whose rate differs
/// per replica (captured coefficient), so replicas genuinely diverge.
fn member(a: f64) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
    FnSystem::new(2, move |t, y, d| {
        d[0] = a * y[1] + (0.1 * t).sin();
        d[1] = -a * y[0] - 0.2 * y[1];
    })
}

/// Member initial state derived from the replica index (deterministic,
/// distinct per replica).
fn init(rep: usize) -> Vec<f64> {
    vec![1.0 + 0.25 * rep as f64, -0.5 + 0.125 * rep as f64]
}

fn collect_eq(a: &CollectObserver, b: &CollectObserver, ctx: &str) {
    assert_eq!(a.initial, b.initial, "{ctx}: initial");
    assert_eq!(a.finished, b.finished, "{ctx}: finished");
    assert_eq!(a.samples.len(), b.samples.len(), "{ctx}: sample count");
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa, sb, "{ctx}: sample");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fixed-step method, R ∈ {1, 2, 5}: batched ≡ independent,
    /// bitwise, including the full observer stream.
    #[test]
    fn fixed_step_batched_is_bitwise_identical(
        base in 0.2f64..2.0,
        h in 0.005f64..0.05,
        t_end in 0.5f64..3.0,
        ridx in 0usize..3,
        method in 0usize..3,
    ) {
        let r = [1usize, 2, 5][ridx];
        let rates: Vec<f64> = (0..r).map(|rep| base + 0.3 * rep as f64).collect();

        // Independent reference runs.
        let mut want_final = Vec::new();
        let mut want_obs = Vec::new();
        for (rep, &a) in rates.iter().enumerate() {
            let sys = member(a);
            let mut obs = CollectObserver::default();
            let mut ws = Workspace::new();
            let sum = match method {
                0 => FixedStepSolver::new(Euler, h).unwrap()
                    .integrate_observed(&sys, 0.0, &init(rep), t_end, &mut ws, &mut obs),
                1 => FixedStepSolver::new(Heun, h).unwrap()
                    .integrate_observed(&sys, 0.0, &init(rep), t_end, &mut ws, &mut obs),
                _ => FixedStepSolver::new(Rk4, h).unwrap()
                    .integrate_observed(&sys, 0.0, &init(rep), t_end, &mut ws, &mut obs),
            }.unwrap();
            want_final.push(sum.y_end);
            want_obs.push(obs);
        }

        // Batched run through the ensemble adapter.
        let ens = EnsembleSystem::new(rates.iter().map(|&a| member(a)).collect());
        let layout = EnsembleLayout::new(2, r);
        let states: Vec<Vec<f64>> = (0..r).map(init).collect();
        let y0 = layout.pack(&states);
        let mut observers: Vec<CollectObserver> = (0..r).map(|_| CollectObserver::default()).collect();
        let mut fan = EnsembleObserver::new(&mut observers, layout);
        let mut ws = Workspace::new();
        let sum = match method {
            0 => FixedStepSolver::new(Euler, h).unwrap()
                .integrate_observed(&ens, 0.0, &y0, t_end, &mut ws, &mut fan),
            1 => FixedStepSolver::new(Heun, h).unwrap()
                .integrate_observed(&ens, 0.0, &y0, t_end, &mut ws, &mut fan),
            _ => FixedStepSolver::new(Rk4, h).unwrap()
                .integrate_observed(&ens, 0.0, &y0, t_end, &mut ws, &mut fan),
        }.unwrap();

        for rep in 0..r {
            prop_assert_eq!(
                &layout.extract(&sum.y_end, rep),
                &want_final[rep],
                "replica {} final state (method {})", rep, method
            );
            collect_eq(&observers[rep], &want_obs[rep], &format!("replica {rep}"));
        }
    }
}

/// Delayed member: feedback from the past state, rate distinct per
/// replica. Exercises the history-interpolation path of the ensemble
/// adapter (per-replica [`PhaseHistory`] views into the interleaved
/// buffer).
struct DelayedMember {
    a: f64,
    tau: f64,
}

impl DdeSystem for DelayedMember {
    fn dim(&self) -> usize {
        2
    }
    fn eval(&self, t: f64, y: &[f64], hist: &dyn PhaseHistory, d: &mut [f64]) {
        d[0] = -self.a * hist.sample(t - self.tau, 0) + 0.1 * y[1];
        d[1] = -0.5 * hist.sample(t - self.tau, 1) - 0.05 * y[0];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The DDE integrator: batched delayed replicas ≡ independent delayed
    /// runs, bitwise, through the cubic-Hermite history machinery.
    #[test]
    fn dde_batched_is_bitwise_identical(
        base in 0.2f64..1.0,
        tau in 0.05f64..0.4,
        h in 0.005f64..0.02,
        ridx in 0usize..3,
    ) {
        let r = [1usize, 2, 5][ridx];
        let t_end = 2.0;
        let members: Vec<DelayedMember> = (0..r)
            .map(|rep| DelayedMember { a: base + 0.2 * rep as f64, tau })
            .collect();

        let mut want_final = Vec::new();
        let mut want_obs = Vec::new();
        for (rep, m) in members.iter().enumerate() {
            let mut obs = CollectObserver::default();
            let mut ws = Workspace::new();
            let sum = DdeRk4::new(h).unwrap()
                .integrate_observed(m, 0.0, InitialHistory::Constant(init(rep)), t_end, tau, &mut ws, &mut obs)
                .unwrap();
            want_final.push(sum.y_end);
            want_obs.push(obs);
        }

        let ens = EnsembleSystem::new_dde(
            (0..r).map(|rep| DelayedMember { a: base + 0.2 * rep as f64, tau }).collect(),
        );
        let layout = EnsembleLayout::new(2, r);
        let states: Vec<Vec<f64>> = (0..r).map(init).collect();
        let y0 = layout.pack(&states);
        let mut observers: Vec<CollectObserver> = (0..r).map(|_| CollectObserver::default()).collect();
        let mut fan = EnsembleObserver::new(&mut observers, layout);
        let mut ws = Workspace::new();
        let sum = DdeRk4::new(h).unwrap()
            .integrate_observed(&ens, 0.0, InitialHistory::Constant(y0), t_end, tau, &mut ws, &mut fan)
            .unwrap();

        for rep in 0..r {
            prop_assert_eq!(
                &layout.extract(&sum.y_end, rep),
                &want_final[rep],
                "replica {} final state", rep
            );
            collect_eq(&observers[rep], &want_obs[rep], &format!("replica {rep}"));
        }
    }

    /// Pack/extract round-trips arbitrary state sets exactly.
    #[test]
    fn layout_pack_extract_roundtrip(
        n in 1usize..12,
        r in 1usize..6,
        seed in 0u64..1000,
    ) {
        let states: Vec<Vec<f64>> = (0..r)
            .map(|rep| (0..n).map(|i| ((seed + rep as u64 * 31 + i as u64) as f64).sin()).collect())
            .collect();
        let layout = EnsembleLayout::new(n, r);
        let packed = layout.pack(&states);
        prop_assert_eq!(packed.len(), n * r);
        for (rep, want) in states.iter().enumerate() {
            prop_assert_eq!(&layout.extract(&packed, rep), want);
        }
    }
}
