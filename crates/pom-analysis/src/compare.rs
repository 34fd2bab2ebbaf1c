//! Model-vs-simulator agreement for the Fig. 2 corner cases.
//!
//! The paper's central demonstration is the *analogy*: the oscillator
//! model with the right potential/topology reproduces the qualitative
//! behavior of the corresponding MPI run. This module runs both sides of
//! one panel and reports a joint verdict used by the integration tests
//! and `repro F2`.

use pom_core::{fig2_model, Fig2Panel, InitialCondition, SimOptions};
use pom_kernels::Kernel;
use pom_mpisim::IdleWaveConfig;

use crate::desync::{model_verdict, residual_spread, sim_verdict, DesyncVerdict};
use crate::idlewave::{model_wave_arrivals, sim_wave_arrivals, wave_speed_fit};

/// Joint verdict for one Fig. 2 panel.
#[derive(Debug, Clone)]
pub struct Fig2Verdict {
    /// The panel examined.
    pub panel: Fig2Panel,
    /// Asymptotic verdict of the oscillator model.
    pub model: DesyncVerdict,
    /// Asymptotic verdict of the MPI simulator.
    pub sim: DesyncVerdict,
    /// Idle-wave speed measured in the model (oscillators per unit time),
    /// if the wave was detectable.
    pub model_wave_speed: Option<f64>,
    /// Idle-wave speed measured in the simulator (ranks per second).
    pub sim_wave_speed: Option<f64>,
    /// Residual phase spread of the model run (radians).
    pub model_residual_spread: f64,
    /// Mean absolute adjacent phase difference at the end of the model
    /// run (radians) — the local wavefront gap, which the desync
    /// potential pins at `2σ/3`.
    pub model_adjacent_gap: f64,
    /// Residual iteration-start spread of the simulator run (seconds).
    pub sim_residual_spread: f64,
}

impl Fig2Verdict {
    /// `true` when model and simulator agree on the asymptotic state and
    /// that state matches the paper's expectation for the panel.
    pub fn agrees(&self) -> bool {
        let expected = if self.panel.scalable() {
            DesyncVerdict::Synchronized
        } else {
            DesyncVerdict::Desynchronized
        };
        self.model == expected && self.sim == expected
    }
}

/// Run one Fig. 2 panel on both substrates and compare.
///
/// The model runs N = 40 oscillators with the panel's potential and
/// topology plus the rank-5 injection; the simulator runs the matching
/// kernel class (PISOLVER vs. STREAM triad with 4 MB messages) with the
/// same injection. Thresholds: model 0.5 rad, simulator 0.5 ms.
pub fn fig2_verdict(panel: Fig2Panel) -> Fig2Verdict {
    // --- model side ---
    let perturbed = fig2_model(panel, true).expect("preset builds");
    let baseline = fig2_model(panel, false).expect("preset builds");
    let opts = SimOptions::new(120.0).samples(600);
    let run_p = perturbed
        .simulate_with(InitialCondition::Synchronized, &opts)
        .expect("model integrates");
    let run_b = baseline
        .simulate_with(InitialCondition::Synchronized, &opts)
        .expect("model integrates");
    let model_arrivals = model_wave_arrivals(&run_p, &run_b, 0.05);
    let model_wave_speed = wave_speed_fit(&model_arrivals, 5, 10).mean_speed();
    let model = model_verdict(&run_p, 0.5);

    // --- simulator side ---
    // Scalable panels use PISOLVER with the paper's short messages;
    // bottlenecked ones use the STREAM triad with 4 MB messages — the
    // non-negligible communication time is what lets the computational
    // wavefront persist (paper §5.1.2).
    let kernel = if panel.scalable() {
        Kernel::pisolver()
    } else {
        Kernel::stream_triad()
    };
    let message_bytes = if panel.scalable() { 8 } else { 4_000_000 };
    let cfg = IdleWaveConfig {
        n_ranks: 40,
        iterations: 60,
        kernel,
        distances: panel.distances().to_vec(),
        ..IdleWaveConfig::default()
    };
    let (pert, base) = {
        use pom_mpisim::{ProgramSpec, SimDelay, Simulator, WorkSpec};
        use pom_topology::{ClusterSpec, Placement};
        let mk = |inject: bool| {
            let mut p = ProgramSpec::new(cfg.n_ranks, cfg.iterations)
                .kernel(kernel)
                .work(WorkSpec::TargetSeconds(cfg.t_comp))
                .distances(cfg.distances.clone())
                .message_bytes(message_bytes);
            if inject {
                p = p.inject(SimDelay {
                    rank: cfg.delay_rank,
                    iteration: cfg.delay_iteration,
                    extra_seconds: cfg.delay_factor * cfg.t_comp,
                });
            }
            Simulator::new(p, Placement::packed(ClusterSpec::meggie(), cfg.n_ranks))
                .expect("simulator builds")
                .run()
                .expect("simulation runs")
        };
        (mk(true), mk(false))
    };
    let sim_arrivals = sim_wave_arrivals(&pert, &base, 2e-3);
    let sim_wave_speed = wave_speed_fit(&sim_arrivals, cfg.delay_rank, 12).mean_speed();
    let sim = sim_verdict(&pert, 45, 5e-4);

    Fig2Verdict {
        panel,
        model,
        sim,
        model_wave_speed,
        sim_wave_speed,
        model_residual_spread: crate::desync::model_residual_spread(&run_p, 0.2),
        model_adjacent_gap: {
            let d = run_p.final_adjacent_differences();
            if d.is_empty() {
                0.0
            } else {
                d.iter().map(|x| x.abs()).sum::<f64>() / d.len() as f64
            }
        },
        sim_residual_spread: residual_spread(&pert, 45),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_agrees_scalable_resync() {
        let v = fig2_verdict(Fig2Panel::A);
        assert!(v.agrees(), "panel a: {v:?}");
        assert!(v.sim_wave_speed.is_some());
    }

    #[test]
    fn panel_b_agrees_bottleneck_desync() {
        let v = fig2_verdict(Fig2Panel::B);
        assert!(v.agrees(), "panel b: {v:?}");
        assert!(v.model_residual_spread > 0.5);
        assert!(v.sim_residual_spread > 5e-4);
    }

    #[test]
    fn panel_c_agrees_and_is_faster_than_a() {
        let va = fig2_verdict(Fig2Panel::A);
        let vc = fig2_verdict(Fig2Panel::C);
        assert!(vc.agrees(), "panel c: {vc:?}");
        // Wider stencil ⇒ faster wave on both substrates (§5.1.1).
        let (sa, sc) = (va.sim_wave_speed.unwrap(), vc.sim_wave_speed.unwrap());
        assert!(sc > 1.3 * sa, "sim speed {sc} vs {sa}");
        let (ma, mc) = (va.model_wave_speed.unwrap(), vc.model_wave_speed.unwrap());
        assert!(mc > 1.3 * ma, "model speed {mc} vs {ma}");
    }

    #[test]
    fn panel_d_agrees_with_smaller_spread_than_b() {
        let vb = fig2_verdict(Fig2Panel::B);
        let vd = fig2_verdict(Fig2Panel::D);
        assert!(vd.agrees(), "panel d: {vd:?}");
        // §5.2.2: stiffer communication (σ three times smaller) ⇒ smaller
        // asymptotic phase gaps. The local adjacent-rank gap is the right
        // metric: the desync potential pins it at 2σ/3, so panel d's gap
        // must come out well below panel b's (the *global* spread on a
        // ring also depends on the emergent zigzag pattern and is less
        // directly tied to σ).
        assert!(
            vd.model_adjacent_gap < 0.6 * vb.model_adjacent_gap,
            "model gap d {} vs b {}",
            vd.model_adjacent_gap,
            vb.model_adjacent_gap
        );
    }
}
