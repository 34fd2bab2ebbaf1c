//! Interaction potentials `V(Δθ)` — the paper's key modeling device.
//!
//! The potential is evaluated on the phase difference `x = θ_j − θ_i`
//! seen by oscillator `i` (Eq. 2). Its shape decides the collective fate
//! of the program:
//!
//! * [`Potential::Tanh`] (Eq. 3) — `V(x) = tanh(x)`: attractive for *all*
//!   distances, no phase slips, models resource-scalable programs that
//!   resynchronize after any disturbance (§5.2.1).
//! * [`Potential::Desync`] (Eq. 4) — `V(x) = −sin(3π/(2σ)·x)` for
//!   `|x| < σ`, `sgn(x)` beyond: short-range **repulsive**, long-range
//!   attractive. Lockstep is unstable; adjacent phase differences settle
//!   at the first zero `2σ/3` (§5.2.2). Models memory-/bandwidth-bound
//!   programs that drift into a computational wavefront.
//! * [`Potential::KuramotoSin`] — the plain Kuramoto `sin(x)`, provided for
//!   the contrast experiment (§2.2.2: periodic ⇒ phase slips, zeros at
//!   multiples of π ⇒ unsuitable for parallel programs).
//!
//! ### Sign convention
//!
//! The paper writes Eq. 3 in terms of `θ_j − θ_i` but Eq. 4 in terms of
//! `θ_i − θ_j`. We use the single convention `x = θ_j − θ_i` throughout
//! and require the *stated dynamics* (paper §5): with the forms
//! above, pair dynamics `ẋ = −2·(v_p/N)·V(x)`··· gives exactly the paper's
//! claims — tanh: `x → 0` stable; desync: `x = 0` unstable,
//! `|x| = 2σ/3` stable, attraction at long range. Unit tests pin each
//! property.

use std::f64::consts::PI;

/// An interaction potential (dimensionless force on the phase velocity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Potential {
    /// Paper Eq. 3: `V(x) = tanh(x)` — resource-scalable programs.
    Tanh,
    /// Paper Eq. 4: short-range repulsion within the interaction horizon
    /// `sigma`, constant attraction beyond — resource-bottlenecked
    /// programs.
    Desync {
        /// Interaction horizon `σ > 0`: the transition to the constant
        /// (saturated) part of the potential. Small `σ` ⇒ stiff, almost
        /// synchronized; large `σ` ⇒ strong desynchronization (§5.2.2).
        sigma: f64,
    },
    /// The plain Kuramoto model's periodic potential `sin(x)` (§2.2.2,
    /// for contrast experiments only).
    KuramotoSin,
}

impl Potential {
    /// Convenience constructor for the scalable (tanh) potential.
    pub fn tanh() -> Self {
        Potential::Tanh
    }

    /// Convenience constructor for the bottlenecked potential with
    /// interaction horizon `sigma`.
    ///
    /// # Panics
    /// Panics if `sigma` is not positive and finite.
    pub fn desync(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        Potential::Desync { sigma }
    }

    /// Evaluate `V(x)` with `x = θ_j − θ_i`.
    #[inline]
    pub fn value(&self, x: f64) -> f64 {
        match *self {
            Potential::Tanh => x.tanh(),
            Potential::Desync { sigma } => {
                if x.abs() < sigma {
                    -(1.5 * PI / sigma * x).sin()
                } else {
                    x.signum()
                }
            }
            Potential::KuramotoSin => x.sin(),
        }
    }

    /// Derivative `V'(x)` (used by the linear stability analysis).
    #[inline]
    pub fn derivative(&self, x: f64) -> f64 {
        match *self {
            Potential::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Potential::Desync { sigma } => {
                if x.abs() < sigma {
                    let k = 1.5 * PI / sigma;
                    -k * (k * x).cos()
                } else {
                    0.0
                }
            }
            Potential::KuramotoSin => x.cos(),
        }
    }

    /// The stable pairwise phase separation this potential drives a
    /// coupled pair towards: `0` for synchronizing potentials, `2σ/3` for
    /// the desynchronizing potential (the first zero with positive slope).
    pub fn stable_pair_separation(&self) -> f64 {
        match *self {
            Potential::Tanh | Potential::KuramotoSin => 0.0,
            Potential::Desync { sigma } => 2.0 * sigma / 3.0,
        }
    }

    /// `true` if lockstep (`Δθ = 0`) is a *stable* state under pair
    /// dynamics, i.e. `V'(0) > 0`.
    pub fn lockstep_stable(&self) -> bool {
        self.derivative(0.0) > 0.0
    }

    /// `true` if the potential is periodic (allows phase slips — the
    /// property that makes plain Kuramoto unsuitable, §2.2.2).
    #[cfg(test)]
    pub(crate) fn allows_phase_slips(&self) -> bool {
        matches!(self, Potential::KuramotoSin)
    }

    /// Short name for output tables.
    pub fn name(&self) -> &'static str {
        match self {
            Potential::Tanh => "tanh",
            Potential::Desync { .. } => "desync",
            Potential::KuramotoSin => "kuramoto-sin",
        }
    }

    /// Sample the potential on a uniform grid (used by the Fig. 1(a)
    /// reproduction and the potential-timeline view).
    pub fn sample_curve(&self, x_min: f64, x_max: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2 && x_max > x_min);
        (0..n)
            .map(|k| {
                let x = x_min + (x_max - x_min) * k as f64 / (n - 1) as f64;
                (x, self.value(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIGMA: f64 = 3.0;

    fn desync() -> Potential {
        Potential::desync(SIGMA)
    }

    #[test]
    fn all_potentials_are_odd() {
        for p in [Potential::Tanh, desync(), Potential::KuramotoSin] {
            for &x in &[0.1, 0.5, 1.0, 2.0, SIGMA - 1e-6, SIGMA + 1.0, 10.0] {
                assert!(
                    (p.value(x) + p.value(-x)).abs() < 1e-12,
                    "{} not odd at x = {x}",
                    p.name()
                );
            }
            assert_eq!(p.value(0.0), 0.0);
        }
    }

    #[test]
    fn all_potentials_bounded_by_one() {
        for p in [Potential::Tanh, desync(), Potential::KuramotoSin] {
            for k in -100..=100 {
                let x = k as f64 * 0.17;
                assert!(p.value(x).abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn tanh_attractive_everywhere() {
        // V(x) > 0 for x > 0: a leading partner pulls i forward at any
        // distance — the "snaps back into sync" property (§5.2.1).
        for &x in &[1e-3, 0.1, 1.0, 5.0, 50.0] {
            assert!(Potential::Tanh.value(x) > 0.0);
        }
        assert!(Potential::Tanh.lockstep_stable());
        assert_eq!(Potential::Tanh.stable_pair_separation(), 0.0);
    }

    #[test]
    fn desync_short_range_repulsive_long_range_attractive() {
        let p = desync();
        // Short range (0 < x < 2σ/3): V(x) < 0 — j slightly ahead pushes i
        // *back* (repulsion from lockstep).
        for &x in &[0.05, 0.5, 1.0, 1.9] {
            assert!(p.value(x) < 0.0, "x = {x}: {}", p.value(x));
        }
        // Past the first zero and beyond the horizon: attraction.
        for &x in &[2.2, 2.9, SIGMA, 5.0, 100.0] {
            assert!(p.value(x) > 0.0, "x = {x}: {}", p.value(x));
        }
        assert!(!p.lockstep_stable());
    }

    #[test]
    fn desync_first_zero_at_two_thirds_sigma() {
        let p = desync();
        let x0 = p.stable_pair_separation();
        assert!((x0 - 2.0).abs() < 1e-12); // 2σ/3 with σ = 3
        assert!(p.value(x0).abs() < 1e-12, "V(2σ/3) = {}", p.value(x0));
        // Pair dynamics: x = θ_j − θ_i obeys ẋ = −2cV(x) (c > 0, V odd).
        // Stability of x0 requires the flow slope −2cV'(x0) < 0, i.e.
        // V'(x0) > 0. (The full ODE integration test lives in model.rs.)
        assert!(p.derivative(x0) > 0.0);
    }

    #[test]
    fn desync_continuous_at_horizon() {
        let p = desync();
        let inside = p.value(SIGMA - 1e-9);
        let outside = p.value(SIGMA + 1e-9);
        // −sin(3π/2) = +1 matches sgn(+) = +1.
        assert!((inside - 1.0).abs() < 1e-6);
        assert!((outside - 1.0).abs() < 1e-12);
    }

    #[test]
    fn desync_derivative_zero_outside_horizon() {
        let p = desync();
        assert_eq!(p.derivative(SIGMA + 0.1), 0.0);
        assert_eq!(p.derivative(-SIGMA - 5.0), 0.0);
        assert!(p.derivative(0.0) < 0.0, "short-range repulsion ⇒ V'(0) < 0");
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for p in [Potential::Tanh, desync(), Potential::KuramotoSin] {
            for &x in &[0.0, 0.3, 1.0, 1.9, 2.5, 4.0] {
                // Skip the kink at |x| = σ for the desync potential.
                if matches!(p, Potential::Desync { .. }) && (x - SIGMA).abs() < 0.2 {
                    continue;
                }
                let fd = (p.value(x + h) - p.value(x - h)) / (2.0 * h);
                assert!(
                    (fd - p.derivative(x)).abs() < 1e-5,
                    "{} at x = {x}: fd {fd} vs {}",
                    p.name(),
                    p.derivative(x)
                );
            }
        }
    }

    #[test]
    fn kuramoto_allows_phase_slips_others_do_not() {
        assert!(Potential::KuramotoSin.allows_phase_slips());
        assert!(!Potential::Tanh.allows_phase_slips());
        assert!(!desync().allows_phase_slips());
        // The mechanism: sin has zeros at multiples of π (2π-apart phases
        // feel no force), tanh does not.
        assert!(Potential::KuramotoSin.value(2.0 * PI).abs() < 1e-12);
        assert!(Potential::Tanh.value(2.0 * PI) > 0.99);
    }

    #[test]
    fn sigma_scales_the_horizon() {
        let narrow = Potential::desync(1.0);
        let wide = Potential::desync(6.0);
        assert_eq!(narrow.stable_pair_separation(), 2.0 / 3.0);
        assert_eq!(wide.stable_pair_separation(), 4.0);
        // At x = 2: outside the narrow horizon (attractive), inside the
        // wide one (repulsive).
        assert!(narrow.value(2.0) > 0.0);
        assert!(wide.value(2.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn desync_rejects_bad_sigma() {
        Potential::desync(-1.0);
    }

    #[test]
    fn sample_curve_covers_range() {
        let pts = desync().sample_curve(-10.0, 10.0, 101);
        assert_eq!(pts.len(), 101);
        assert_eq!(pts[0].0, -10.0);
        assert_eq!(pts[100].0, 10.0);
        assert_eq!(pts[50].0, 0.0);
        assert_eq!(pts[50].1, 0.0);
    }
}
