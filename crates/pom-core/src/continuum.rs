//! Continuum (long-wavelength) limit of the oscillator model.
//!
//! Paper §6: "If a well-defined continuum limit of the model can be found,
//! it could be useful in hardware-software co-design …". This module
//! derives the leading transport coefficients of that limit.
//!
//! Linearizing Eq. (2) around the uniform-gradient state `θ_i = ω̄t + i·δ`
//! gives `ε̇_i = s·Σ_{d∈D} V'(dδ)·(ε_{i+d} − ε_i)` with the coupling
//! scale `s`. Expanding `ε_{i+d} ≈ ε + d·∂ε + (d²/2)·∂²ε` yields the
//! advection–diffusion equation
//!
//! ```text
//! ∂ε/∂t = c · ∂ε/∂x + D · ∂²ε/∂x²
//! c = s·Σ_d V'(dδ)·d          (drift: rank-space transport velocity)
//! D = s·Σ_d V'(dδ)·d²/2      (diffusion)
//! ```
//!
//! The signs tell the whole §5 story at a glance:
//!
//! * tanh, lockstep: `V'(0) > 0` ⇒ `D > 0` — perturbations *diffuse away*
//!   (resynchronization).
//! * desync, lockstep: `V'(0) < 0` ⇒ `D < 0` — **anti-diffusion**: the
//!   continuum problem is ill-posed, short wavelengths blow up fastest —
//!   exactly the symmetry-breaking instability (and why the emergent
//!   pattern is the zigzag mode `m = N/2`, checked in
//!   `tests/paper_claims.rs`).
//! * desync at `δ = 2σ/3`: `V' > 0` again ⇒ the wavefront state is
//!   diffusive-stable.
//! * asymmetric stencils (`Σ d ≠ 0`): `c ≠ 0` — disturbances *advect*
//!   through rank space, the continuum image of the one-sided idle-wave
//!   transport measured by `repro C1`.

// Index-as-rank loops are intentional here (the index is the rank id).
#![allow(clippy::needless_range_loop)]

use crate::potential::Potential;

/// Leading transport coefficients of the continuum limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportCoefficients {
    /// Advection velocity `c` in ranks per unit time (positive = toward
    /// higher ranks).
    pub drift: f64,
    /// Diffusion coefficient `D` in ranks² per unit time. Negative means
    /// the state is unstable (anti-diffusion).
    pub diffusion: f64,
}

impl TransportCoefficients {
    /// `true` if the underlying uniform state is long-wavelength stable.
    #[cfg(test)]
    pub(crate) fn stable(&self) -> bool {
        self.diffusion >= 0.0
    }
}

/// Transport coefficients around the uniform state with slope `delta` for
/// a ring/chain with distance set `distances` and per-neighbor coupling
/// scale `coupling_scale` (`v_p/N` in the paper's normalization,
/// `v_p/deg` for degree normalization).
pub fn transport_coefficients(
    potential: Potential,
    coupling_scale: f64,
    distances: &[i32],
    delta: f64,
) -> TransportCoefficients {
    let mut drift = 0.0;
    let mut diffusion = 0.0;
    for &d in distances {
        let vp = potential.derivative(d as f64 * delta);
        drift += vp * d as f64;
        diffusion += vp * (d as f64) * (d as f64) / 2.0;
    }
    TransportCoefficients {
        drift: coupling_scale * drift,
        diffusion: coupling_scale * diffusion,
    }
}

/// Quadratic-order prediction of the Fourier growth rate
/// `Re λ(q) ≈ −D·q²` — the continuum image of
/// `pom_core::stability::growth_rates`. Used by tests to verify the two
/// descriptions agree for small `q`.
#[cfg(test)]
pub(crate) fn growth_rate_smallq(coeffs: &TransportCoefficients, q: f64) -> f64 {
    -coeffs.diffusion * q * q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::growth_rates;

    const S: f64 = 0.5;

    #[test]
    fn tanh_lockstep_diffuses() {
        let c = transport_coefficients(Potential::Tanh, S, &[-1, 1], 0.0);
        assert_eq!(c.drift, 0.0, "symmetric stencil has no drift");
        assert!(c.diffusion > 0.0);
        assert!(c.stable());
        // V'(0) = 1: D = s·(1·1/2 + 1·1/2) = s.
        assert!((c.diffusion - S).abs() < 1e-12);
    }

    #[test]
    fn desync_lockstep_antidiffuses() {
        let pot = Potential::desync(3.0);
        let c = transport_coefficients(pot, S, &[-1, 1], 0.0);
        assert!(c.diffusion < 0.0, "short-range repulsion ⇒ anti-diffusion");
        assert!(!c.stable());
        // …but the developed wavefront is diffusive-stable again.
        let cw = transport_coefficients(pot, S, &[-1, 1], 2.0);
        assert!(cw.diffusion > 0.0);
        assert!(cw.stable());
    }

    #[test]
    fn asymmetric_stencil_advects() {
        let c = transport_coefficients(Potential::Tanh, S, &[-2, -1, 1], 0.0);
        // Σ d = −2 with V'(0) = 1 ⇒ drift = −2s (toward lower ranks — the
        // direction in which dependencies point).
        assert!((c.drift + 2.0 * S).abs() < 1e-12);
        assert!(c.diffusion > 0.0);
    }

    #[test]
    fn smallq_matches_discrete_growth_rates() {
        // The continuum −D·q² must agree with the exact discrete rates
        // for the longest wavelengths.
        for (pot, delta) in [
            (Potential::Tanh, 0.0),
            (Potential::desync(3.0), 0.0),
            (Potential::desync(3.0), 2.0),
        ] {
            let n = 128; // large ring ⇒ small q₁
            let distances = [-1, 1];
            let rates = growth_rates(pot, S, &distances, n, delta);
            let coeffs = transport_coefficients(pot, S, &distances, delta);
            for m in 1..4 {
                let q = std::f64::consts::TAU * m as f64 / n as f64;
                let exact = rates[m];
                let approx = growth_rate_smallq(&coeffs, q);
                assert!(
                    (exact - approx).abs() < 0.05 * exact.abs().max(1e-6),
                    "{} δ={delta} m={m}: exact {exact:.3e} vs continuum {approx:.3e}",
                    pot.name()
                );
            }
        }
    }
}
