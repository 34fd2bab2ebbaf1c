//! Ablation: interaction noise τ_ij — the delay-equation
//! coupling — versus the zero-delay approximation.
//!
//! Paper §3.1 includes τ_ij(t) but §6 leaves its exploration to future
//! work ("we have not yet explored the role of the noise functions").
//! This experiment maps the territory: constant and random communication
//! delays against the ODE baseline, for both potentials.

use crate::{save, Verdict};
use pom_core::{InitialCondition, Normalization, PomBuilder, Potential, SimOptions};
use pom_noise::{ConstantDelay, NoDelay, RandomCommDelay};
use pom_topology::Topology;
use pom_viz::write_table;

fn run(potential: Potential, delay: Delay) -> pom_core::PomRun {
    let n = 16;
    let mut b = PomBuilder::new(n)
        .topology(Topology::chain(n, &[-1, 1]))
        .potential(potential)
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree);
    b = match delay {
        Delay::None => b.interaction_noise(NoDelay),
        Delay::Constant(d) => b.interaction_noise(ConstantDelay::new(d)),
        Delay::Random(mean, spread) => {
            b.interaction_noise(RandomCommDelay::new(5, n, mean, spread, 1.0))
        }
    };
    b.build()
        .unwrap()
        .simulate_with(
            InitialCondition::RandomSpread {
                amplitude: 0.3,
                seed: 21,
            },
            &SimOptions::new(150.0).samples(300),
        )
        .unwrap()
}

#[derive(Clone, Copy)]
enum Delay {
    None,
    Constant(f64),
    Random(f64, f64),
}

pub(crate) fn check() -> Verdict {
    println!(
        "{:>10}  {:>18}  {:>10}  {:>12}",
        "potential", "delay", "final r", "mean |gap|"
    );
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for potential in [Potential::Tanh, Potential::desync(3.0)] {
        for (name, d) in [
            ("none", Delay::None),
            ("const 0.05", Delay::Constant(0.05)),
            ("const 0.2", Delay::Constant(0.2)),
            ("random 0.1±0.03", Delay::Random(0.1, 0.03)),
        ] {
            let r = run(potential, d);
            let gaps = r.final_adjacent_differences();
            let gap = gaps.iter().map(|g| g.abs()).sum::<f64>() / gaps.len() as f64;
            let order = r.final_order_parameter();
            println!(
                "{:>10}  {name:>18}  {order:>10.4}  {gap:>12.4}",
                potential.name()
            );
            rows.push(vec![
                f64::from(u8::from(potential != Potential::Tanh)),
                order,
                gap,
            ]);
            results.push((potential, name, order, gap));
        }
    }
    save(
        "delay_ablation.csv",
        &write_table(&["is_desync", "final_r", "gap"], &rows),
    );

    // Verdicts: tanh keeps r ≈ 1 under every delay; the desync wavefront
    // survives small delays (≤ 0.05 cycles, gap stays at 2σ/3 = 2.0) but a
    // 0.2-cycle delay *re-stabilizes lockstep* — delay-induced
    // resynchronization, a genuine model prediction mapped here.
    // Random delays keep injecting micro-perturbations, so the tanh runs
    // hover just below perfect order; r > 0.95 is still unambiguous sync.
    let tanh_ok = results
        .iter()
        .filter(|r| r.0 == Potential::Tanh)
        .all(|r| r.2 > 0.95);
    let small_delay_ok = results
        .iter()
        .filter(|r| {
            r.0 != Potential::Tanh
                && (r.1 == "none" || r.1 == "const 0.05" || r.1.starts_with("random"))
        })
        .all(|r| (r.3 - 2.0).abs() < 0.15);
    let large_delay_resync = results
        .iter()
        .filter(|r| r.0 != Potential::Tanh && r.1 == "const 0.2")
        .all(|r| r.2 > 0.99 && r.3 < 0.1);
    println!(
        "\nfinding: const 0.2-cycle delay re-stabilizes lockstep under the desync\n\
         potential (τω ≈ 1.26 rad shifts the comparison past the repulsive core)."
    );
    Verdict {
        ok: tanh_ok && small_delay_ok && large_delay_resync,
        detail: "verdicts robust for τ ≤ 0.05 cycles; τ = 0.2 exhibits delay-induced resynchronization (documented)".to_string(),
    }
}
