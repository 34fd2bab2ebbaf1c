//! Linear stability of translationally symmetric states on ring topologies.
//!
//! The paper observes (§5.2.2) that for bottlenecked programs "the
//! translationally symmetric state is unstable and any slight disturbance
//! blows up and leads to a broken-symmetry state", and asks (§6) whether
//! the transition is connected to a Goldstone mode. Both statements are
//! sharp, checkable properties of the linearized model, derived here.
//!
//! On a ring of `N` oscillators with distance set `D`, consider the
//! uniform-gradient state `θ_i(t) = ω̄ t + i·δ` (lockstep is `δ = 0`, a
//! computational wavefront is `δ ≠ 0`). Because every odd potential gives
//! `Σ_d V(dδ)`-balanced forces, this is a relative equilibrium for any
//! `δ`. Perturbing `θ_i → θ_i + ε_i` and Fourier-transforming
//! `ε_i ~ e^{i q_m i}` with `q_m = 2πm/N` yields decoupled modes with
//! complex rates
//!
//! ```text
//! λ_m = s · Σ_{d∈D} V'(d·δ) · (e^{i q_m d} − 1),   s = v_p/N (coupling scale)
//! ```
//!
//! whose real parts `s·Σ_d V'(dδ)(cos(q_m d) − 1)` decide stability:
//!
//! * `λ_0 = 0` always — the **Goldstone mode** (global phase shift).
//! * tanh: `V'(0) > 0` ⇒ all other modes decay ⇒ lockstep stable.
//! * desync: `V'(0) < 0` ⇒ all non-trivial modes *grow* ⇒ lockstep
//!   unstable, and the fastest-growing mode sets the emerging pattern.
//! * desync at `δ = ±2σ/3`: `V'` is even and positive there ⇒ the
//!   wavefront is linearly stable — the "broken-symmetry state" the paper
//!   describes.

use crate::potential::Potential;

/// Real parts of the `N` Fourier-mode growth rates around the uniform
/// state with slope `delta`, for a ring with distance set `distances` and
/// per-oscillator coupling scale `s` (`v_p/N` in the paper's
/// normalization).
pub fn growth_rates(
    potential: Potential,
    coupling_scale: f64,
    distances: &[i32],
    n: usize,
    delta: f64,
) -> Vec<f64> {
    assert!(n > 0);
    let q = std::f64::consts::TAU / n as f64;
    (0..n)
        .map(|m| {
            let qm = q * m as f64;
            coupling_scale
                * distances
                    .iter()
                    .map(|&d| {
                        potential.derivative(d as f64 * delta) * ((qm * d as f64).cos() - 1.0)
                    })
                    .sum::<f64>()
        })
        .collect()
}

/// Largest growth rate over the non-trivial modes (`m ≠ 0`).
///
/// Positive ⇒ the state is linearly unstable.
pub(crate) fn max_growth_rate(
    potential: Potential,
    coupling_scale: f64,
    distances: &[i32],
    n: usize,
    delta: f64,
) -> f64 {
    growth_rates(potential, coupling_scale, distances, n, delta)
        .into_iter()
        .skip(1)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Is lockstep (`δ = 0`) linearly stable for this potential/topology?
pub fn lockstep_stable_on_ring(potential: Potential, distances: &[i32], n: usize) -> bool {
    max_growth_rate(potential, 1.0, distances, n, 0.0) <= 1e-12
}

/// Index of the fastest-growing mode (`m ∈ 1..N`), if any mode grows.
pub fn most_unstable_mode(
    potential: Potential,
    coupling_scale: f64,
    distances: &[i32],
    n: usize,
    delta: f64,
) -> Option<usize> {
    let rates = growth_rates(potential, coupling_scale, distances, n, delta);
    let (m, &rate) = rates
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite rates"))?;
    (rate > 0.0).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 24;
    const D1: [i32; 2] = [-1, 1];
    const D2: [i32; 3] = [-2, -1, 1];

    #[test]
    fn goldstone_mode_is_always_neutral() {
        for pot in [Potential::Tanh, Potential::desync(3.0)] {
            for delta in [0.0, 0.7, 2.0] {
                let rates = growth_rates(pot, 0.5, &D1, N, delta);
                assert!(rates[0].abs() < 1e-14, "λ₀ = {}", rates[0]);
            }
        }
    }

    #[test]
    fn tanh_lockstep_stable() {
        assert!(lockstep_stable_on_ring(Potential::Tanh, &D1, N));
        assert!(lockstep_stable_on_ring(Potential::Tanh, &D2, N));
        let max = max_growth_rate(Potential::Tanh, 0.5, &D1, N, 0.0);
        assert!(max < 0.0, "all non-trivial modes decay, max = {max}");
    }

    #[test]
    fn desync_lockstep_unstable() {
        let pot = Potential::desync(3.0);
        assert!(!lockstep_stable_on_ring(pot, &D1, N));
        let max = max_growth_rate(pot, 0.5, &D1, N, 0.0);
        assert!(max > 0.0, "lockstep must be unstable, max = {max}");
        assert!(most_unstable_mode(pot, 0.5, &D1, N, 0.0).is_some());
    }

    #[test]
    fn desync_wavefront_is_stable() {
        // The broken-symmetry state at δ = 2σ/3 (paper §5.2.2).
        let sigma = 3.0;
        let pot = Potential::desync(sigma);
        let delta = 2.0 * sigma / 3.0;
        let max = max_growth_rate(pot, 0.5, &D1, N, delta);
        assert!(max <= 1e-12, "wavefront must be stable, max = {max}");
    }

    #[test]
    fn growth_rate_scales_with_coupling() {
        let pot = Potential::desync(3.0);
        let r1 = max_growth_rate(pot, 0.5, &D1, N, 0.0);
        let r2 = max_growth_rate(pot, 1.0, &D1, N, 0.0);
        assert!((r2 - 2.0 * r1).abs() < 1e-12);
    }

    #[test]
    fn wider_stencil_grows_faster() {
        // More dependencies pump more energy into the instability.
        let pot = Potential::desync(3.0);
        let narrow = max_growth_rate(pot, 0.5, &D1, N, 0.0);
        let wide = max_growth_rate(pot, 0.5, &D2, N, 0.0);
        assert!(wide > narrow, "{wide} vs {narrow}");
    }

    #[test]
    fn most_unstable_mode_none_for_stable_potential() {
        assert_eq!(most_unstable_mode(Potential::Tanh, 0.5, &D1, N, 0.0), None);
    }

    #[test]
    fn prediction_matches_simulation_growth() {
        // Integrate the full nonlinear model from a tiny single-mode
        // perturbation and compare the measured e-folding rate with λ_m.
        use crate::builder::PomBuilder;
        use crate::initial::InitialCondition;
        use pom_topology::Topology;

        let n = 12;
        let sigma = 3.0;
        let pot = Potential::desync(sigma);
        let vp = 6.0;
        let scale = vp / n as f64;
        let m = 3; // perturb mode 3 directly
        let rate = growth_rates(pot, scale, &D1, n, 0.0)[m];
        assert!(rate > 0.0);

        let model = PomBuilder::new(n)
            .topology(Topology::ring(n, &D1))
            .potential(pot)
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(vp)
            .build()
            .unwrap();
        let eps = 1e-6;
        let q = std::f64::consts::TAU * m as f64 / n as f64;
        let init: Vec<f64> = (0..n).map(|i| eps * (q * i as f64).cos()).collect();
        let t_end = 4.0;
        let run = model
            .simulate(InitialCondition::Phases(init), t_end)
            .unwrap();
        // Amplitude of the mode at start and end (remove the mean).
        let amp = |phases: &[f64]| {
            let mean = phases.iter().sum::<f64>() / n as f64;
            let (mut re, mut im) = (0.0, 0.0);
            for (i, &p) in phases.iter().enumerate() {
                re += (p - mean) * (q * i as f64).cos();
                im += (p - mean) * (q * i as f64).sin();
            }
            (re * re + im * im).sqrt()
        };
        let a0 = amp(run.trajectory().state(0));
        let a1 = amp(run.trajectory().last().unwrap());
        let measured = (a1 / a0).ln() / t_end;
        assert!(
            (measured - rate).abs() < 0.05 * rate.abs().max(0.01),
            "measured {measured}, predicted {rate}"
        );
    }
}
