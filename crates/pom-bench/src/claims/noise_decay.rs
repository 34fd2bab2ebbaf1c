//! Reproduce §5.1 / §1.2 (experiment C6): "Idle waves get damped as they
//! travel and will run out eventually" [Markidis et al. 2015] — idle
//! waves interact nonlinearly "with each other and with system noise,
//! leading to their eventual decay".
//!
//! Protocol: launch the same idle wave on the simulated cluster under
//! increasing background noise and measure how far the front survives
//! (the distance at which the excess delay falls below threshold) and the
//! surviving amplitude at a fixed distance.

use crate::{save, simulate, Verdict};
use pom_analysis::sim_wave_arrivals;
use pom_kernels::Kernel;
use pom_mpisim::{ProgramSpec, SimDelay, SimTrace};
use pom_topology::ClusterSpec;
use pom_viz::write_table;

fn run(noise: f64, inject: bool) -> SimTrace {
    let mut p = ProgramSpec::new(40, 40)
        .kernel(Kernel::pisolver())
        .noise(noise, 31);
    if inject {
        p = p.inject(SimDelay {
            rank: 20,
            iteration: 4,
            extra_seconds: 3e-3,
        });
    }
    simulate(p, ClusterSpec::meggie())
}

pub(crate) fn check() -> Verdict {
    println!(
        "{:>12}  {:>12}  {:>18}",
        "noise σ [s]", "reach [rk]", "amp @ 10 ranks [s]"
    );
    let mut rows = Vec::new();
    let mut reaches = Vec::new();
    for noise in [0.0, 5e-5, 1e-4, 2e-4, 4e-4] {
        let pert = run(noise, true);
        let base = run(noise, false);
        // Arrival threshold: a third of the injected delay.
        let arrivals = sim_wave_arrivals(&pert, &base, 1e-3);
        let reach = arrivals
            .iter()
            .filter(|a| a.iteration.is_some())
            .map(|a| a.rank.abs_diff(20))
            .max()
            .unwrap_or(0);
        // Excess delay 10 ranks away at the end of the run.
        let amp = pert.rank(10).iter_end(39) - base.rank(10).iter_end(39);
        println!("{noise:>12.1e}  {reach:>12}  {amp:>18.3e}");
        rows.push(vec![noise, reach as f64, amp]);
        reaches.push((noise, reach, amp));
    }
    save(
        "noise_decay.csv",
        &write_table(&["noise_sigma", "reach_ranks", "amp_10ranks"], &rows),
    );

    // Noise-free: the wave crosses everything and the delay arrives in
    // full. With growing noise the wave is damped: the surviving
    // amplitude at distance 10 shrinks monotonically.
    let silent = &reaches[0];
    let amps: Vec<f64> = reaches.iter().map(|r| r.2).collect();
    let damped = amps.windows(2).all(|w| w[1] <= w[0] * 1.05);
    let strongest = reaches.last().unwrap();
    println!(
        "\nsilent system: reach {} ranks, amplitude {:.2e} s; strongest noise: amplitude {:.2e} s",
        silent.1, silent.2, strongest.2
    );
    Verdict {
        ok: silent.1 >= 19 && damped && strongest.2 < 0.7 * silent.2,
        detail: format!(
            "noise damps the wave: surviving amplitude {:.1e} → {:.1e} s as σ grows to 0.4 t_comp",
            silent.2, strongest.2
        ),
    }
}
