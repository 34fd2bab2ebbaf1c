//! Differential tests for [`PomEnsemble`]: the lockstep R-replica
//! integration — interleaved state, one sin/cos pass, row-outer
//! stencil/CSR accumulation — must be **bitwise** identical to R
//! independent [`Pom`] runs, per kernel, per solver path, per RHS thread
//! count.
//!
//! This is the correctness contract that lets ensemble sweep columns
//! (`<obs>_mean`/`<obs>_ci95`/…) claim the same determinism as the plain
//! columns: replica 0 of a batch IS the single run, bit for bit.
//!
//! A single run and a batch evaluate the same RHS rows (at width one and
//! width R), so the differential suites pin the interleaved layout, the
//! lockstep integration and the observer fan-out; the rows themselves are
//! checked against an independent Eq. (2) reference, and delay runs that
//! cross many lattice cells of the delay field against golden hashes.

use pom_analysis::{RunSummaryProbe, Welford};
use pom_core::{
    InitialCondition, Normalization, Pom, PomBuilder, PomEnsemble, Potential, RhsKernel,
    SimOptions, SimWorkspace, SolverChoice,
};
use pom_noise::{RandomCommDelay, WhiteJitter};
use pom_ode::CollectObserver;
use pom_ode::OdeSystem;
use pom_topology::Topology;
use proptest::prelude::*;

/// The kernel/potential/topology variants with distinct batched code
/// paths: exact CSR walk, split-kernel stencil walk, split-kernel CSR
/// walk, each for the potentials it dispatches on.
#[derive(Clone, Copy, Debug)]
enum Variant {
    ExactTanhRing,
    ExactDesyncChain,
    SplitSinRing,
    SplitSinChain,
    SplitDesyncRing,
}

const VARIANTS: [Variant; 5] = [
    Variant::ExactTanhRing,
    Variant::ExactDesyncChain,
    Variant::SplitSinRing,
    Variant::SplitSinChain,
    Variant::SplitDesyncRing,
];

fn build_member(
    variant: Variant,
    n: usize,
    coupling: f64,
    rhs_threads: usize,
    noise_seed: Option<u64>,
) -> Pom {
    let (potential, kernel, topology) = match variant {
        Variant::ExactTanhRing => (
            Potential::Tanh,
            RhsKernel::Exact,
            Topology::ring(n, &[-1, 1]),
        ),
        Variant::ExactDesyncChain => (
            Potential::desync(2.0),
            RhsKernel::Exact,
            Topology::chain(n, &[-1, 1]),
        ),
        Variant::SplitSinRing => (
            Potential::KuramotoSin,
            RhsKernel::SinCosSplit,
            Topology::ring(n, &[-2, -1, 1, 2]),
        ),
        Variant::SplitSinChain => (
            Potential::KuramotoSin,
            RhsKernel::SinCosSplit,
            Topology::chain(n, &[-1, 1]),
        ),
        Variant::SplitDesyncRing => (
            Potential::desync(2.5),
            RhsKernel::SinCosSplit,
            Topology::ring(n, &[-1, 1]),
        ),
    };
    let mut b = PomBuilder::new(n)
        .topology(topology)
        .potential(potential)
        .kernel(kernel)
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(coupling)
        .rhs_threads(rhs_threads);
    if let Some(seed) = noise_seed {
        b = b.local_noise(WhiteJitter::new(seed, 0.04, 0.5));
    }
    b.build().unwrap()
}

fn replica_init(seed: u64) -> InitialCondition {
    InitialCondition::RandomSpread {
        amplitude: 0.8,
        seed,
    }
}

/// Batched vs independent, asserting final states and the full observer
/// stream bitwise.
fn assert_batched_matches_independent(members: impl Fn(usize) -> Pom, r: usize, opts: &SimOptions) {
    let inits: Vec<InitialCondition> = (0..r).map(|rep| replica_init(1000 + rep as u64)).collect();

    let mut want_final = Vec::new();
    let mut want_obs = Vec::new();
    for (rep, init) in inits.iter().enumerate() {
        let mut obs = CollectObserver::default();
        let sum = members(rep)
            .simulate_observed(init.clone(), opts, &mut obs)
            .unwrap();
        want_final.push(sum.final_state().to_vec());
        want_obs.push(obs);
    }

    let ensemble = PomEnsemble::new((0..r).map(&members).collect());
    let mut observers: Vec<CollectObserver> = (0..r).map(|_| CollectObserver::default()).collect();
    let got = ensemble
        .simulate_observed(&inits, opts, &mut observers)
        .unwrap();

    for rep in 0..r {
        assert_eq!(
            got[rep].final_state(),
            &want_final[rep][..],
            "replica {rep}: final state"
        );
        assert_eq!(
            observers[rep].initial, want_obs[rep].initial,
            "replica {rep}: initial observation"
        );
        assert_eq!(
            observers[rep].samples.len(),
            want_obs[rep].samples.len(),
            "replica {rep}: step count"
        );
        for (got_s, want_s) in observers[rep].samples.iter().zip(&want_obs[rep].samples) {
            assert_eq!(got_s, want_s, "replica {rep}: observed step");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Lockstep fixed-step batching: every kernel/potential/topology
    /// variant, noisy and noise-free members, R ∈ {1, 2, 5} — bitwise.
    #[test]
    fn fixed_rk4_batched_is_bitwise_identical(
        vidx in 0usize..5,
        ridx in 0usize..3,
        coupling in 1.0f64..6.0,
        noisy in proptest::arbitrary::any::<bool>(),
        n in 8usize..24,
    ) {
        let variant = VARIANTS[vidx];
        let r = [1usize, 2, 5][ridx];
        let opts = SimOptions::new(4.0).solver(SolverChoice::FixedRk4 { h: 0.02 });
        assert_batched_matches_independent(
            |rep| build_member(variant, n, coupling, 1, noisy.then(|| 77 + rep as u64)),
            r,
            &opts,
        );
    }

    /// The adaptive fallback: `Auto` resolves to Dopri5 for no-delay
    /// models, where the driver runs replicas sequentially — results must
    /// equal the independent path exactly there too.
    #[test]
    fn adaptive_fallback_is_bitwise_identical(
        vidx in 0usize..5,
        coupling in 1.0f64..6.0,
    ) {
        let variant = VARIANTS[vidx];
        let opts = SimOptions::new(3.0);
        assert_batched_matches_independent(
            |rep| build_member(variant, 12, coupling, 1, Some(33 + rep as u64)),
            2,
            &opts,
        );
    }

    /// The delay path: per-replica interaction noise drives each replica's
    /// own `θ_j(t − τ_ij(t))` history lookups through the interleaved
    /// buffer — batched DDE integration stays bitwise identical.
    #[test]
    fn dde_batched_is_bitwise_identical(
        coupling in 1.0f64..5.0,
        mean in 0.05f64..0.2,
        ridx in 0usize..3,
    ) {
        let r = [1usize, 2, 5][ridx];
        let n = 10;
        let member = |rep: usize| {
            PomBuilder::new(n)
                .topology(Topology::ring(n, &[-1, 1]))
                .potential(Potential::Tanh)
                .compute_time(0.9)
                .comm_time(0.1)
                .coupling(coupling)
                .interaction_noise(RandomCommDelay::new(500 + rep as u64, n, mean, mean / 4.0, 0.5))
                .build()
                .unwrap()
        };
        // Auto resolves to the fixed-step DDE integrator here: the
        // batched lockstep path.
        assert_batched_matches_independent(member, r, &SimOptions::new(3.0));
    }

    /// The delay path with a replica-shared field — all members model the
    /// same machine (equal delay fingerprints), so the batched RHS takes
    /// the amortized route: one τ evaluation and one `sample_run` history
    /// lookup per pair. Replicas differ through local noise; results stay
    /// bitwise identical to independent runs.
    #[test]
    fn dde_shared_delay_batched_is_bitwise_identical(
        coupling in 1.0f64..5.0,
        mean in 0.05f64..0.2,
        ridx in 0usize..3,
        constant in proptest::arbitrary::any::<bool>(),
    ) {
        let r = [1usize, 2, 5][ridx];
        let n = 10;
        let member = |rep: usize| {
            let mut b = PomBuilder::new(n)
                .topology(Topology::ring(n, &[-1, 1]))
                .potential(Potential::Tanh)
                .compute_time(0.9)
                .comm_time(0.1)
                .coupling(coupling)
                .local_noise(WhiteJitter::new(40 + rep as u64, 0.04, 0.5));
            if constant {
                b = b.interaction_noise(pom_noise::ConstantDelay::new(mean));
            } else {
                b = b.interaction_noise(RandomCommDelay::new(911, n, mean, mean / 4.0, 0.5));
            }
            b.build().unwrap()
        };
        assert_batched_matches_independent(member, r, &SimOptions::new(3.0));
    }
}

/// Chunk-pool coverage: at `n ≥ 2048` the batched RHS runs through
/// `ChunkPool` row chunks. Results must be bitwise identical to the
/// serial inline walk AND to independent runs at every thread count.
#[test]
fn threaded_batched_rhs_is_bitwise_identical() {
    let n = 2048;
    let r = 2;
    let opts = SimOptions::new(0.2).solver(SolverChoice::FixedRk4 { h: 0.05 });

    let run_ensemble = |rhs_threads: usize| {
        let inits: Vec<InitialCondition> =
            (0..r).map(|rep| replica_init(2000 + rep as u64)).collect();
        let ensemble = PomEnsemble::new(
            (0..r)
                .map(|rep| {
                    build_member(
                        Variant::SplitSinRing,
                        n,
                        3.0,
                        rhs_threads,
                        Some(9 + rep as u64),
                    )
                })
                .collect(),
        );
        let mut observers = vec![pom_core::NoObserver; r];
        ensemble
            .simulate_observed(&inits, &opts, &mut observers)
            .unwrap()
            .into_iter()
            .map(|s| s.final_state().to_vec())
            .collect::<Vec<_>>()
    };

    let serial = run_ensemble(1);
    for threads in [3usize, 8] {
        assert_eq!(
            serial,
            run_ensemble(threads),
            "rhs_threads = {threads} must not change batched results"
        );
    }

    // And the serial batch equals independent runs.
    for (rep, batched) in serial.iter().enumerate() {
        let sum = build_member(Variant::SplitSinRing, n, 3.0, 1, Some(9 + rep as u64))
            .simulate_observed(
                replica_init(2000 + rep as u64),
                &opts,
                &mut pom_core::NoObserver,
            )
            .unwrap();
        assert_eq!(sum.final_state(), &batched[..], "replica {rep}");
    }
}

/// The streamed run statistics under `SinCosSplit`, where each replica's
/// `RunSummaryProbe` takes the polynomial sin/cos: the lockstep batch's
/// per-replica statistics are bitwise those of independent runs — at a
/// size inside one probe block and at a threaded size spanning many.
#[test]
fn split_kernel_run_summaries_match_independent_runs_bitwise() {
    fn stats(p: &RunSummaryProbe) -> Vec<(u64, [u64; 3])> {
        let w = |w: &Welford| (w.count(), [w.mean(), w.min(), w.max()].map(f64::to_bits));
        vec![
            w(&p.r.stats),
            w(&p.gaps.mean_gap),
            w(&p.gaps.max_gap),
            w(&p.gaps.spread),
        ]
    }
    let r = 3;
    let opts = SimOptions::new(1.0).solver(SolverChoice::FixedRk4 { h: 0.02 });
    for (variant, n, threads) in [
        (Variant::SplitSinRing, 100, 1),
        (Variant::SplitDesyncRing, 2100, 2),
    ] {
        let member = |rep: usize| build_member(variant, n, 3.0, threads, Some(60 + rep as u64));
        let inits: Vec<InitialCondition> =
            (0..r).map(|rep| replica_init(3000 + rep as u64)).collect();
        let mut ws = SimWorkspace::new();
        let want: Vec<_> = (0..r)
            .map(|rep| {
                let mut probe = RunSummaryProbe::new();
                member(rep)
                    .simulate_observed_ws(inits[rep].clone(), &opts, &mut probe, &mut ws)
                    .unwrap();
                stats(&probe)
            })
            .collect();

        let ensemble = PomEnsemble::new((0..r).map(member).collect());
        let mut probes: Vec<RunSummaryProbe> = (0..r).map(|_| RunSummaryProbe::new()).collect();
        ensemble
            .simulate_observed_ws(&inits, &opts, &mut probes, &mut ws)
            .unwrap();
        for rep in 0..r {
            assert_eq!(probes[rep].r.stats.count(), 51, "{variant:?} replica {rep}");
            assert_eq!(stats(&probes[rep]), want[rep], "{variant:?} replica {rep}");
        }
    }
}

/// Mismatched members are a caller bug, caught loudly.
#[test]
#[should_panic(expected = "oscillator count differs")]
fn mismatched_sizes_are_rejected() {
    PomEnsemble::new(vec![
        build_member(Variant::ExactTanhRing, 8, 2.0, 1, None),
        build_member(Variant::ExactTanhRing, 12, 2.0, 1, None),
    ]);
}

/// Every member must run on the same topology: the batch walks member 0's
/// neighbor lists for all replicas.
#[test]
#[should_panic(expected = "topology differs")]
fn mismatched_topologies_are_rejected() {
    let member = |distances: &[i32]| {
        PomBuilder::new(16)
            .topology(Topology::ring(16, distances))
            .potential(Potential::Tanh)
            .kappa(2.0)
            .build()
            .unwrap()
    };
    PomEnsemble::new(vec![member(&[-1, 1]), member(&[-2, 2])]);
}

/// Paper Eq. (2), noise-free, written out independently of the crate's
/// RHS rows: `ω + scale_i · Σ_j V(θ_j − θ_i)` over ascending neighbors
/// `j`, with `scale_i = v_p/N` or `v_p/deg(i)`.
fn eq2_reference(model: &Pom, normalization: Normalization, theta: &[f64]) -> Vec<f64> {
    let (n, vp) = (model.n(), model.params().coupling());
    (0..n)
        .map(|i| {
            let mut neighbors = model.topology().neighbors(i).to_vec();
            neighbors.sort_unstable();
            let mut sum = 0.0;
            for j in neighbors {
                sum += model.potential().value(theta[j as usize] - theta[i]);
            }
            let scale = match normalization {
                Normalization::ByN => vp / n as f64,
                Normalization::ByDegree => vp / model.topology().degree(i).max(1) as f64,
            };
            model.omega() + scale * sum
        })
        .collect()
}

/// The `Exact` kernel IS Eq. (2): a single model's RHS and every replica
/// of a batched evaluation equal the reference above bitwise, for each
/// potential, on a ring and on a chain, under both normalizations.
#[test]
fn exact_rhs_matches_the_eq2_reference_bitwise() {
    let (n, r) = (17, 3);
    let layout = pom_ode::EnsembleLayout::new(n, r);
    // Phases spanning several revolutions, different per replica.
    let states: Vec<Vec<f64>> = (0..r)
        .map(|rep| {
            (0..n)
                .map(|i| ((i * 7 + rep * 3) as f64 * 0.911).sin() * 6.0)
                .collect()
        })
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for potential in [
        Potential::Tanh,
        Potential::desync(2.0),
        Potential::KuramotoSin,
    ] {
        for topology in [
            Topology::ring(n, &[-2, -1, 1]),
            Topology::chain(n, &[-1, 1, 3]),
        ] {
            for normalization in [Normalization::ByN, Normalization::ByDegree] {
                let model = || {
                    PomBuilder::new(n)
                        .topology(topology.clone())
                        .potential(potential)
                        .coupling(3.7)
                        .normalization(normalization)
                        .build()
                        .unwrap()
                };
                let what = format!("{potential:?} {:?} {normalization:?}", topology.kind());
                let single = model();
                let want: Vec<_> = states
                    .iter()
                    .map(|theta| bits(&eq2_reference(&single, normalization, theta)))
                    .collect();

                let mut d = vec![0.0; n];
                OdeSystem::eval(&single, 0.0, &states[0], &mut d);
                assert_eq!(bits(&d), want[0], "{what}: single run");

                let ensemble = PomEnsemble::new((0..r).map(|_| model()).collect());
                let mut d = vec![0.0; n * r];
                OdeSystem::eval(&ensemble, 0.0, &layout.pack(&states), &mut d);
                for (rep, want) in want.iter().enumerate() {
                    assert_eq!(
                        &bits(&layout.extract(&d, rep)),
                        want,
                        "{what}: replica {rep}"
                    );
                }
            }
        }
    }
}

/// FNV-1a over the bit patterns of a state vector.
fn state_hash(state: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in state.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Golden final states of delay runs that cross many lattice cells of
/// the delay field (`corr_time = 0.1`, `t_end = 1.0`: cells 0 through 10),
/// so every cell change of the τ lattice is exercised — as a single run
/// and as an R = 3 ensemble sharing one field. The batched-vs-independent
/// suites above compare two runs through the same RHS; these hashes pin
/// the values themselves.
#[test]
fn dde_across_delay_cells_matches_golden_bits() {
    let n = 16;
    let member = |rep: usize| {
        PomBuilder::new(n)
            .topology(Topology::ring(n, &[-2, -1, 1]))
            .potential(Potential::desync(2.5))
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(3.0)
            .local_noise(WhiteJitter::new(60 + rep as u64, 0.04, 0.3))
            .interaction_noise(RandomCommDelay::new(2024, n, 0.08, 0.03, 0.1))
            .build()
            .unwrap()
    };
    let opts = SimOptions::new(1.0).solver(SolverChoice::FixedRk4 { h: 0.02 });

    let single = member(0)
        .simulate_observed(replica_init(3000), &opts, &mut pom_core::NoObserver)
        .unwrap();
    let inits: Vec<InitialCondition> = (0..3).map(|rep| replica_init(3000 + rep)).collect();
    let ensemble = PomEnsemble::new((0..3).map(member).collect());
    let mut observers = vec![pom_core::NoObserver; 3];
    let batch = ensemble
        .simulate_observed(&inits, &opts, &mut observers)
        .unwrap();

    let got: Vec<u64> = std::iter::once(&single)
        .chain(&batch)
        .map(|s| state_hash(s.final_state()))
        .collect();
    // Hashes of the states computed with a fresh `tau(i, j, t)` call per
    // pair and evaluation; the single run is replica 0 of the batch.
    assert_eq!(
        got,
        [
            0x1ef3_9a03_cc54_acb4,
            0x1ef3_9a03_cc54_acb4,
            0x76eb_7f99_8232_2b9c,
            0x67e5_55b9_ca59_105c,
        ]
    );
}
