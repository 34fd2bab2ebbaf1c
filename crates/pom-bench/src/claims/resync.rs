//! Reproduce §5.2.1 (experiment C3): self-synchronization of scalable
//! code — "a disturbance or 'pull' causes phase differences across
//! oscillators, but the system snaps back into a synchronized state".
//!
//! Protocol: pull one oscillator away by Δθ ∈ {0.5, 2, 10} rad and watch
//! the order parameter return to 1. The tanh potential must recover from
//! *any* pull (no phase slips); the plain Kuramoto sin potential fails
//! for pulls beyond π (it slips into a 2π-shifted state and, for a pull
//! near 2π, barely registers a disturbance at all).

use crate::{save, Verdict};
use pom_core::{InitialCondition, Normalization, PomBuilder, Potential, SimOptions};
use pom_topology::Topology;
use pom_viz::write_table;

/// Simulate a pulled oscillator and report (time to r > 0.999, final
/// max |θ_i − θ_0| as a slip detector).
fn recovery(potential: Potential, pull: f64) -> (Option<f64>, f64) {
    let n = 16;
    let mut init = vec![0.0; n];
    init[7] = pull;
    let model = PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(potential)
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(2.0)
        .normalization(Normalization::ByDegree)
        .build()
        .unwrap();
    let run = model
        .simulate_with(
            InitialCondition::Phases(init),
            &SimOptions::new(120.0).samples(1200),
        )
        .unwrap();
    let t_sync = run
        .order_parameter_series()
        .iter()
        .find(|(_, r)| *r > 0.999)
        .map(|(t, _)| *t);
    // Raw phase difference (not mod 2π): detects phase slips.
    let last = run.trajectory().last().unwrap();
    let max_diff = last
        .iter()
        .map(|&p| (p - last[0]).abs())
        .fold(0.0f64, f64::max);
    (t_sync, max_diff)
}

pub(crate) fn check() -> Verdict {
    println!(
        "{:>10}  {:>12}  {:>16}  {:>16}",
        "pull [rad]", "potential", "t(r>0.999)", "final max|Δθ|"
    );
    let mut rows = Vec::new();
    let mut tanh_ok = true;
    let mut slip_seen = false;
    for &pull in &[0.5, 2.0, 10.0] {
        for potential in [Potential::Tanh, Potential::KuramotoSin] {
            let (t_sync, max_diff) = recovery(potential, pull);
            println!(
                "{pull:>10.1}  {:>12}  {:>16}  {max_diff:>16.4}",
                potential.name(),
                t_sync.map_or("never".into(), |t| format!("{t:.1}")),
            );
            rows.push(vec![
                pull,
                if potential == Potential::Tanh {
                    0.0
                } else {
                    1.0
                },
                t_sync.unwrap_or(-1.0),
                max_diff,
            ]);
            match potential {
                Potential::Tanh => {
                    // True resync: phases rejoin exactly (no slip).
                    tanh_ok &= t_sync.is_some() && max_diff < 1e-2;
                }
                Potential::KuramotoSin
                    // r returns to 1 but for large pulls the phases end a
                    // multiple of 2π apart — the phase slip.
                    if pull > 3.5 && max_diff > 3.0 => {
                        slip_seen = true;
                    }
                _ => {}
            }
        }
    }
    save(
        "resync_pulls.csv",
        &write_table(&["pull", "is_sin", "t_sync", "max_diff"], &rows),
    );

    // Event-detection showcase: time when the pulled oscillator first
    // re-enters the 0.1 rad corridor, from the dense solution.
    let n = 16;
    let mut init = vec![0.0; n];
    init[7] = 2.0;
    let model = PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(Potential::Tanh)
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(2.0)
        .normalization(Normalization::ByDegree)
        .build()
        .unwrap();
    let sol = pom_ode::Dopri5::new()
        .rtol(1e-9)
        .atol(1e-9)
        .integrate(&model, 0.0, &init, 60.0)
        .unwrap();
    let t_corridor = pom_ode::first_zero_crossing(
        &sol,
        |_t, y| {
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            (y[7] - mean).abs() - 0.1
        },
        0.0,
        60.0,
        600,
    );
    println!("\npulled oscillator re-enters the 0.1 rad corridor at t = {t_corridor:?}");

    Verdict {
        ok: tanh_ok && slip_seen && t_corridor.is_some(),
        detail: "tanh snaps back from every pull without slips; Kuramoto sin slips for large pulls"
            .to_string(),
    }
}
