//! Property-based tests for the model core: potentials, observables and
//! short integration runs.

use pom_core::{
    adjacent_differences, lagger_normalized, order_parameter, phase_spread, stability,
    transport_coefficients, winding_number, InitialCondition, Normalization, PomBuilder, Potential,
    RhsKernel, SimOptions,
};
use pom_ode::OdeSystem;
use pom_topology::Topology;
use proptest::prelude::*;

fn potential_strategy() -> impl Strategy<Value = Potential> {
    prop_oneof![
        Just(Potential::Tanh),
        (0.5f64..6.0).prop_map(Potential::desync),
        Just(Potential::KuramotoSin),
    ]
}

proptest! {
    /// Every potential is odd and bounded by 1.
    #[test]
    fn potentials_odd_and_bounded(pot in potential_strategy(), x in -20.0f64..20.0) {
        prop_assert!((pot.value(x) + pot.value(-x)).abs() < 1e-12);
        prop_assert!(pot.value(x).abs() <= 1.0 + 1e-12);
    }

    /// The derivative matches a central finite difference away from the
    /// desync potential's kink at |x| = σ.
    #[test]
    fn potential_derivative_consistent(pot in potential_strategy(), x in -8.0f64..8.0) {
        if let Potential::Desync { sigma } = pot {
            prop_assume!((x.abs() - sigma).abs() > 1e-3);
        }
        let h = 1e-6;
        let fd = (pot.value(x + h) - pot.value(x - h)) / (2.0 * h);
        prop_assert!((fd - pot.derivative(x)).abs() < 1e-4,
            "{}: x={x}, fd={fd}, d={}", pot.name(), pot.derivative(x));
    }

    /// Order parameter is in [0, 1] and invariant under global rotation.
    #[test]
    fn order_parameter_invariances(
        phases in prop::collection::vec(-10.0f64..10.0, 1..40),
        shift in -10.0f64..10.0,
    ) {
        let (r, _) = order_parameter(&phases);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
        let shifted: Vec<f64> = phases.iter().map(|p| p + shift).collect();
        let (r2, _) = order_parameter(&shifted);
        prop_assert!((r - r2).abs() < 1e-9);
    }

    /// Lagger normalization: non-negative, exactly one zero (up to fp),
    /// and differences between oscillators are preserved.
    #[test]
    fn lagger_normalization_preserves_differences(
        phases in prop::collection::vec(-5.0f64..5.0, 2..30),
        omega in 0.1f64..10.0,
        t in 0.0f64..100.0,
    ) {
        let norm = lagger_normalized(&phases, omega, t);
        prop_assert!(norm.iter().all(|&v| v >= -1e-12));
        prop_assert!(norm.iter().any(|&v| v.abs() < 1e-9));
        for i in 1..phases.len() {
            prop_assert!(((norm[i] - norm[0]) - (phases[i] - phases[0])).abs() < 1e-9);
        }
    }

    /// Phase spread bounds the mean adjacent difference.
    #[test]
    fn spread_bounds_gaps(phases in prop::collection::vec(-5.0f64..5.0, 2..30)) {
        let spread = phase_spread(&phases);
        for d in adjacent_differences(&phases) {
            prop_assert!(d.abs() <= spread + 1e-12);
        }
    }

    /// Winding numbers add under concatenation of uniform ramps (steps of
    /// exactly ±π are ambiguous, so require more than 2 samples per turn).
    #[test]
    fn winding_of_uniform_ramp(n in 4usize..40, turns in -3i64..=3) {
        prop_assume!(n as i64 > 2 * turns.abs());
        let phases: Vec<f64> = (0..n)
            .map(|i| std::f64::consts::TAU * turns as f64 * i as f64 / n as f64)
            .collect();
        prop_assert_eq!(winding_number(&phases), turns);
    }

    /// Short integration runs stay finite and keep phases ordered in time
    /// (every oscillator's phase strictly increases — frequencies are
    /// positive and coupling is bounded).
    #[test]
    fn short_runs_are_sane(
        pot in potential_strategy(),
        n in 3usize..16,
        vp in 0.0f64..6.0,
        seed in 0u64..1000,
    ) {
        let model = PomBuilder::new(n)
            .topology(Topology::ring(n, &[-1, 1]))
            .potential(pot)
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(vp)
            .normalization(Normalization::ByDegree)
            .build()
            .unwrap();
        let run = model
            .simulate_with(
                InitialCondition::RandomSpread { amplitude: 0.5, seed },
                &SimOptions::new(5.0).samples(20),
            )
            .unwrap();
        let tr = run.trajectory();
        for i in 0..n {
            let series = tr.component(i);
            prop_assert!(series.iter().all(|v| v.is_finite()));
            // vp ≤ 6 with degree normalization: coupling ≤ 6 < ω = 2π ⇒
            // monotone phases.
            for w in series.windows(2) {
                prop_assert!(w[1] > w[0], "phase went backwards");
            }
        }
    }

    /// The Goldstone mode is neutral for every potential, slope and
    /// stencil — symmetry, not fine-tuning.
    #[test]
    fn goldstone_always_neutral(
        pot in potential_strategy(),
        delta in -2.0f64..2.0,
        d1 in 1i32..4,
        d2 in -4i32..-1,
    ) {
        let rates = stability::growth_rates(pot, 0.7, &[d2, d1], 16, delta);
        prop_assert!(rates[0].abs() < 1e-12);
    }

    /// Continuum coefficients are linear in the coupling scale.
    #[test]
    fn transport_linear_in_scale(pot in potential_strategy(), s in 0.1f64..3.0, delta in -1.0f64..1.0) {
        let c1 = transport_coefficients(pot, s, &[-2, -1, 1], delta);
        let c2 = transport_coefficients(pot, 2.0 * s, &[-2, -1, 1], delta);
        prop_assert!((c2.drift - 2.0 * c1.drift).abs() < 1e-9);
        prop_assert!((c2.diffusion - 2.0 * c1.diffusion).abs() < 1e-9);
    }

    /// `SinCosSplit` matches `Exact` within 1e-12 max-abs on the raw RHS,
    /// over random phase states, potentials and topology families — both
    /// the ring-stencil fast path and the CSR fallback.
    #[test]
    fn split_kernel_matches_exact_within_policy(
        pot in potential_strategy(),
        n in 4usize..48,
        ring in any::<bool>(),
        vp in 0.5f64..4.0,
        seed in any::<u64>(),
    ) {
        let topology = if ring {
            Topology::ring(n, &[-2, -1, 1])
        } else {
            Topology::chain(n, &[-2, -1, 1, 3])
        };
        let build = |kernel: RhsKernel| {
            PomBuilder::new(n)
                .topology(topology.clone())
                .potential(pot)
                .compute_time(0.9)
                .comm_time(0.1)
                .coupling(vp)
                .normalization(Normalization::ByDegree)
                .kernel(kernel)
                .build()
                .unwrap()
        };
        let exact = build(RhsKernel::Exact);
        let split = build(RhsKernel::SinCosSplit);
        // Random phases covering several revolutions (hits both the sine
        // branch and the saturated |x| ≥ σ branch of the desync potential).
        let mut rng = seed;
        let theta: Vec<f64> = (0..n)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 40.0
            })
            .collect();
        let mut d_exact = vec![0.0; n];
        let mut d_split = vec![0.0; n];
        OdeSystem::eval(&exact, 0.0, &theta, &mut d_exact);
        OdeSystem::eval(&split, 0.0, &theta, &mut d_split);
        let max_err = d_exact
            .iter()
            .zip(&d_split)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(max_err < 1e-12, "max |exact − split| = {max_err:e}");
    }
}

/// Evaluate the RHS of `model` once on a deterministic pseudo-random state.
fn eval_once(model: &pom_core::Pom, n: usize) -> Vec<f64> {
    let theta: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7137).sin() * 3.0).collect();
    let mut dtheta = vec![0.0; n];
    OdeSystem::eval(model, 0.0, &theta, &mut dtheta);
    dtheta
}

/// The ring model of the continuum-scale runs: ±1 stencil, desync σ = 3,
/// degree normalization.
fn ring_model(n: usize, kernel: RhsKernel, rhs_threads: usize) -> pom_core::Pom {
    PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .kernel(kernel)
        .rhs_threads(rhs_threads)
        .build()
        .unwrap()
}

/// Intra-run parallelism must be invisible: chunked rows perform the same
/// per-row arithmetic, so `rhs_threads` never changes a single bit — for
/// the exact kernel *and* the split kernel, and for `rhs_threads = 0`
/// (all cores). Both sizes exceed the pool's minimum row count, so the
/// threaded path really runs; n = 65536 is the continuum scale.
#[test]
fn rhs_threads_bitwise_invariant() {
    for n in [4096, 65536] {
        for kernel in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
            let serial = eval_once(&ring_model(n, kernel, 1), n);
            for threads in [0, 2, 3, 5] {
                let par = eval_once(&ring_model(n, kernel, threads), n);
                assert!(
                    serial
                        .iter()
                        .zip(&par)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} diverged at n = {n}, rhs_threads = {threads}"
                );
            }
        }
    }
}

/// The split kernel stays within the accuracy policy after integration:
/// 50 RK4 steps (h = 0.02) from a random spread move no component more
/// than 1e-9 from the exact kernel's run. Every component is compared:
/// on a ±1 ring a local defect takes thousands of steps to reach any one
/// oscillator.
#[test]
fn split_kernel_drift_after_integration_within_policy() {
    use pom_core::{NoObserver, SolverChoice};
    let opts = SimOptions::new(50.0 * 0.02).solver(SolverChoice::FixedRk4 { h: 0.02 });
    let init = InitialCondition::RandomSpread {
        amplitude: 0.3,
        seed: 1,
    };
    for n in [16, 256, 4096, 65536] {
        let run = |kernel: RhsKernel| {
            let summary = ring_model(n, kernel, 1)
                .simulate_observed(init.clone(), &opts, &mut NoObserver)
                .unwrap();
            assert_eq!(summary.n_steps(), 50);
            summary.final_state().to_vec()
        };
        let drift = run(RhsKernel::Exact)
            .iter()
            .zip(&run(RhsKernel::SinCosSplit))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            drift < 1e-9,
            "split kernel drifted {drift:e} from exact after 50 steps at n = {n}"
        );
    }
}

/// The DDE path fans rows across the pool too; delays must not change
/// under intra-run parallelism.
#[test]
fn dde_rhs_threads_bitwise_invariant() {
    use pom_core::SolverChoice;
    let n = 3000;
    let run = |threads: usize| {
        let model = PomBuilder::new(n)
            .topology(Topology::ring(n, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(4.0)
            .interaction_noise(pom_noise::ConstantDelay::new(0.05))
            .rhs_threads(threads)
            .build()
            .unwrap();
        assert!(model.has_delays());
        model
            .simulate_with(
                InitialCondition::RandomSpread {
                    amplitude: 0.4,
                    seed: 11,
                },
                &SimOptions::new(0.5)
                    .samples(5)
                    .solver(SolverChoice::FixedRk4 { h: 0.05 }),
            )
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    let (ta, tb) = (a.trajectory(), b.trajectory());
    for k in 0..ta.len() {
        let (sa, sb) = (ta.state(k), tb.state(k));
        assert!(
            sa.iter().zip(sb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "DDE trajectories diverged at sample {k}"
        );
    }
}
