//! Reproduce §2.2.2 (experiment C5): why the plain Kuramoto model is
//! unsuitable for parallel programs.
//!
//! Three deficiencies, each demonstrated against the POM:
//! 1. all-to-all coupling acts like a per-step barrier — disturbances are
//!    absorbed collectively and "extremely fast", no local wave exists;
//! 2. the periodic sin potential allows *phase slips* (2π-apart states
//!    are indistinguishable — impossible for communicating processes);
//! 3. no spontaneous desynchronization: the sin potential cannot produce
//!    the bottlenecked wavefront state.

use crate::{save, Verdict};
use pom_core::{InitialCondition, Normalization, PomBuilder, Potential, SimOptions};
use pom_noise::{DelayEvent, OneOffDelays};
use pom_topology::Topology;
use pom_viz::write_table;

fn run_with_delay(topology: Topology, potential: Potential) -> pom_core::PomRun {
    let n = topology.n();
    PomBuilder::new(n)
        .topology(topology)
        .potential(potential)
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .local_noise(OneOffDelays::new(vec![DelayEvent {
            rank: 5,
            t_start: 2.0,
            duration: 2.0,
            extra: 1.0,
        }]))
        .build()
        .unwrap()
        .simulate_with(
            InitialCondition::Synchronized,
            &SimOptions::new(50.0).samples(500),
        )
        .unwrap()
}

pub(crate) fn check() -> Verdict {
    let n = 24;

    // 1. Barrier effect: compare the peak phase spread after the same
    // one-off delay.
    let kuramoto = run_with_delay(Topology::all_to_all(n), Potential::KuramotoSin);
    let pom = run_with_delay(Topology::ring(n, &[-1, 1]), Potential::Tanh);
    let peak = |r: &pom_core::PomRun| {
        r.phase_spread_series()
            .iter()
            .map(|p| p.1)
            .fold(0.0f64, f64::max)
    };
    let (pk, pp) = (peak(&kuramoto), peak(&pom));
    println!("peak spread after one-off delay: all-to-all sin {pk:.3} rad, ring tanh {pp:.3} rad");
    let barrier_ok = pk < 0.5 * pp;

    // 2. Phase slips: pull one oscillator by almost 2π. Under sin the
    // system relaxes to a 2π-shifted ("slipped") state; under tanh the
    // oscillator is pulled all the way back.
    let pull = 6.0;
    let slip_run = |potential: Potential| {
        let mut init = vec![0.0; n];
        init[5] = pull;
        PomBuilder::new(n)
            .topology(Topology::ring(n, &[-1, 1]))
            .potential(potential)
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(4.0)
            .normalization(Normalization::ByDegree)
            .build()
            .unwrap()
            .simulate_with(
                InitialCondition::Phases(init),
                &SimOptions::new(150.0).samples(300),
            )
            .unwrap()
    };
    let sin_run = slip_run(Potential::KuramotoSin);
    let tanh_run = slip_run(Potential::Tanh);
    let final_offset = |r: &pom_core::PomRun| {
        let s = r.trajectory().last().unwrap();
        (s[5] - s[0]).abs()
    };
    let (off_sin, off_tanh) = (final_offset(&sin_run), final_offset(&tanh_run));
    println!("final raw offset of pulled oscillator: sin {off_sin:.3} rad, tanh {off_tanh:.3} rad");
    let slip_ok = off_sin > 5.0 && off_tanh < 1e-3; // sin stuck one turn ahead

    // 3. No desync mode: whatever σ-like scale, sin cannot hold a
    // wavefront — from a spread start it either resyncs or slips to
    // multiples of 2π; the desync potential holds gaps at 2σ/3.
    let spread_run = |potential: Potential| {
        PomBuilder::new(n)
            .topology(Topology::chain(n, &[-1, 1]))
            .potential(potential)
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(4.0)
            .normalization(Normalization::ByDegree)
            .build()
            .unwrap()
            .simulate_with(
                InitialCondition::RandomSpread {
                    amplitude: 0.3,
                    seed: 3,
                },
                &SimOptions::new(300.0).samples(300),
            )
            .unwrap()
    };
    let sin_gaps = spread_run(Potential::KuramotoSin).final_adjacent_differences();
    let desync_gaps = spread_run(Potential::desync(3.0)).final_adjacent_differences();
    let near = |x: f64, target: f64| (x - target).abs() < 0.05;
    // Under sin every gap collapses to (a multiple of) 2π or 0.
    let sin_no_wavefront = sin_gaps.iter().all(|g| {
        near(g.abs() % std::f64::consts::TAU, 0.0)
            || near(g.abs() % std::f64::consts::TAU, std::f64::consts::TAU)
    });
    let desync_wavefront = desync_gaps.iter().all(|g| near(g.abs(), 2.0));
    println!(
        "asymptotic gaps: sin all ∈ 2πZ: {sin_no_wavefront}; desync all at 2σ/3: {desync_wavefront}"
    );

    save(
        "kuramoto_contrast.csv",
        &write_table(
            &["metric", "kuramoto", "pom"],
            &[
                vec![0.0, pk, pp],
                vec![1.0, off_sin, off_tanh],
                vec![
                    2.0,
                    f64::from(u8::from(sin_no_wavefront)),
                    f64::from(u8::from(desync_wavefront)),
                ],
            ],
        ),
    );

    Verdict {
        ok: barrier_ok && slip_ok && sin_no_wavefront && desync_wavefront,
        detail: "all three Kuramoto deficiencies demonstrated; POM fixes each".to_string(),
    }
}
