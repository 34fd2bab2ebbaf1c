//! Reproduce paper Fig. 2: the four corner cases (scalable vs.
//! bottlenecked × `d = ±1` vs. `d = ±1, −2`), each on both substrates:
//! the MPI simulator produces the ITAC-like trace (inner images), the
//! oscillator model the circular phase diagrams.

use crate::{save, simulate, Verdict, KICK};
use pom_analysis::fig2_verdict;
use pom_core::{fig2_model, fig2_params, Fig2Panel, InitialCondition, SimOptions};
use pom_kernels::Kernel;
use pom_mpisim::ProgramSpec;
use pom_topology::ClusterSpec;
use pom_viz::{circle_svg, gantt_ascii, gantt_svg};

pub(crate) fn check() -> Verdict {
    let mut all_ok = true;
    let mut speeds = Vec::new();

    for panel in Fig2Panel::all() {
        println!("\n--- {}", fig2_params(panel));

        // Simulator trace (inner image analog).
        let kernel = if panel.scalable() {
            Kernel::pisolver()
        } else {
            Kernel::stream_triad()
        };
        let msg = if panel.scalable() { 8 } else { 4_000_000 };
        let prog = ProgramSpec::new(40, 40)
            .kernel(kernel)
            .distances(panel.distances().to_vec())
            .message_bytes(msg)
            .inject(KICK);
        let trace = simulate(prog, ClusterSpec::meggie());
        save(
            &format!("fig2{}_trace.svg", panel.letter()),
            &gantt_svg(&trace, 800.0, 8.0),
        );
        // Compact terminal preview (first 12 ranks).
        let preview: String = gantt_ascii(&trace, 90)
            .lines()
            .take(12)
            .collect::<Vec<_>>()
            .join("\n");
        println!("{preview}");

        // Model circle diagram (asymptotic state).
        let model = fig2_model(panel, true).expect("preset builds");
        let run = model
            .simulate_with(
                InitialCondition::Synchronized,
                &SimOptions::new(120.0).samples(240),
            )
            .expect("model integrates");
        let final_state = run.trajectory().last().unwrap().to_vec();
        save(
            &format!("fig2{}_circle.svg", panel.letter()),
            &circle_svg(&final_state, None, 260.0),
        );

        // Joint verdict.
        let v = fig2_verdict(panel);
        println!(
            "model: {:?} (spread {:.3} rad, gap {:.3} rad) | sim: {:?} (spread {:.2e} s)",
            v.model, v.model_residual_spread, v.model_adjacent_gap, v.sim, v.sim_residual_spread
        );
        if let (Some(m), Some(s)) = (v.model_wave_speed, v.sim_wave_speed) {
            println!("wave speed: model {m:.3} ranks/cycle, sim {s:.1} ranks/s");
            speeds.push((panel, m, s));
        }
        println!(
            "agrees with paper: {}",
            if v.agrees() { "YES" } else { "NO" }
        );
        all_ok &= v.agrees();
    }

    // Cross-panel speed claim (§5.1.1): wider stencil is faster.
    if let (Some(a), Some(c)) = (
        speeds.iter().find(|s| s.0 == Fig2Panel::A),
        speeds.iter().find(|s| s.0 == Fig2Panel::C),
    ) {
        let ratio_model = c.1 / a.1;
        let ratio_sim = c.2 / a.2;
        println!("\nwave-speed ratio (c/a): model {ratio_model:.2}×, sim {ratio_sim:.2}×");
        all_ok &= ratio_model > 1.3 && ratio_sim > 1.3;
    }

    Verdict {
        ok: all_ok,
        detail: "all four corner cases show the paper's asymptotic states on both substrates"
            .to_string(),
    }
}
