//! Whole pooled runs are thread-count invariant. The RHS rows, the RK4
//! stage combinations and the drivers' finiteness scans all run on the
//! model's worker pool, so a 20-step observed run must end in the same
//! bits, with the same `RunSummaryProbe` statistics, at every
//! `rhs_threads` — for a single model and for a lockstep ensemble, on the
//! ODE and the delay (DDE RK4) path — and a run that blows up must report
//! the same time and component.

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, Normalization, Pom, PomBuilder, PomEnsemble, Potential, RhsKernel,
    SimOptions, SolverChoice,
};
use pom_noise::{RandomCommDelay, WhiteJitter};
use pom_topology::Topology;

const H: f64 = 0.02;
const STEPS: usize = 20;

fn opts() -> SimOptions {
    SimOptions::new(H * STEPS as f64).solver(SolverChoice::FixedRk4 { h: H })
}

/// Member `rep` of a ±1 ring with its own local noise; `delays` adds a
/// random communication-delay field shared by every member.
fn member(n: usize, kernel: RhsKernel, threads: usize, rep: usize, delays: bool) -> Pom {
    let mut b = PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .kernel(kernel)
        .local_noise(WhiteJitter::new(7 + rep as u64, 0.05, 0.5))
        .rhs_threads(threads);
    if delays {
        b = b.interaction_noise(RandomCommDelay::new(91, n, 0.05, 0.01, 0.5));
    }
    b.build().unwrap()
}

fn init(rep: usize) -> InitialCondition {
    InitialCondition::RandomSpread {
        amplitude: 0.6,
        seed: 3 + rep as u64,
    }
}

/// Final-state bits plus the probe statistics of one replica.
type Outcome = (Vec<u64>, String);

fn outcome(state: &[f64], probe: &RunSummaryProbe) -> Outcome {
    let bits = state.iter().map(|x| x.to_bits()).collect();
    // `{:?}` prints each f64 in its shortest round-trip form, so equal
    // strings mean equal bits.
    (bits, format!("{:?} {:?}", probe.r, probe.gaps))
}

fn single_run(n: usize, kernel: RhsKernel, threads: usize, delays: bool) -> Vec<Outcome> {
    let model = member(n, kernel, threads, 0, delays);
    let mut probe = RunSummaryProbe::new();
    let sum = model
        .simulate_observed(init(0), &opts(), &mut probe)
        .unwrap();
    assert_eq!(sum.n_steps(), STEPS);
    vec![outcome(sum.final_state(), &probe)]
}

fn ensemble_run(n: usize, kernel: RhsKernel, threads: usize, delays: bool) -> Vec<Outcome> {
    const R: usize = 5;
    let ens = PomEnsemble::new(
        (0..R)
            .map(|rep| member(n, kernel, threads, rep, delays))
            .collect(),
    );
    let inits: Vec<_> = (0..R).map(init).collect();
    let mut probes = vec![RunSummaryProbe::new(); R];
    let sums = ens.simulate_observed(&inits, &opts(), &mut probes).unwrap();
    sums.iter()
        .zip(&probes)
        .map(|(s, p)| outcome(s.final_state(), p))
        .collect()
}

fn assert_thread_invariant(
    what: &str,
    run: impl Fn(usize, RhsKernel, usize, bool) -> Vec<Outcome>,
    cases: &[(usize, RhsKernel, bool)],
) {
    for &(n, kernel, delays) in cases {
        let serial = run(n, kernel, 1, delays);
        for threads in [2, 3] {
            let pooled = run(n, kernel, threads, delays);
            for (rep, (a, b)) in serial.iter().zip(&pooled).enumerate() {
                let case = format!("{what} n={n} {kernel:?} delays={delays} rep={rep}");
                assert!(
                    a.0 == b.0,
                    "{case}: final state differs at {threads} threads"
                );
                assert_eq!(a.1, b.1, "{case}: probe differs at {threads} threads");
            }
        }
    }
}

#[test]
fn pooled_model_runs_are_thread_count_invariant() {
    assert_thread_invariant(
        "Pom",
        single_run,
        &[
            (65536, RhsKernel::SinCosSplit, false),
            (4096, RhsKernel::Exact, false),
            (4096, RhsKernel::Exact, true),
        ],
    );
}

#[test]
fn pooled_ensemble_runs_are_thread_count_invariant() {
    assert_thread_invariant(
        "R=5 ensemble",
        ensemble_run,
        &[
            (65536, RhsKernel::SinCosSplit, false),
            (4096, RhsKernel::Exact, false),
            (4096, RhsKernel::Exact, true),
        ],
    );
}

/// A NaN phase spreads one neighbor per RHS evaluation; the driver must
/// name the lowest non-finite component whichever chunk found it first.
/// The NaN sits just past the two-thread chunk boundary (2048): the RK4
/// step spreads it to 2046..=2054, across both chunks, while the delay
/// driver's first derivative already holds 2049..=2051.
#[test]
fn pooled_blowup_reports_the_same_time_and_component() {
    let n = 4096;
    let report = |threads: usize, delays: bool| {
        let model = member(n, RhsKernel::Exact, threads, 0, delays);
        let mut phases = init(0).phases(n);
        phases[2050] = f64::NAN;
        let err = model
            .simulate_observed(
                InitialCondition::Phases(phases),
                &opts(),
                &mut RunSummaryProbe::new(),
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("non-finite"), "unexpected error: {err}");
        err
    };
    for (delays, first) in [(false, "component 2046"), (true, "component 2049")] {
        let serial = report(1, delays);
        assert!(serial.contains(first), "{serial}");
        assert_eq!(serial, report(2, delays), "delays={delays}");
    }
}
