//! Post-hoc event (root) finding on dense solutions.
//!
//! The analysis layer asks questions like "when did the phase spread first
//! drop below 0.01?" or "when did oscillator 7 first feel the injected
//! delay?". Both reduce to locating sign changes of a scalar functional
//! `g(t, y(t))` along a [`DenseSolution`]: scan a grid for bracketing
//! intervals, then refine by bisection (the dense output makes arbitrarily
//! fine evaluation cheap).

use crate::dense::DenseSolution;

/// Default number of bisection iterations (gives ~2⁻⁶⁰ interval shrink).
const BISECT_ITERS: usize = 60;

/// Find the first time in `[t_lo, t_hi]` where `g(t, y(t))` crosses zero.
///
/// The span is scanned at `n_scan` uniformly spaced points; the first
/// bracketing interval is refined by bisection. Returns `None` if no sign
/// change is found (a tangent touch without crossing may be missed — use a
/// finer scan for pathological functionals).
pub fn first_zero_crossing(
    sol: &DenseSolution,
    g: impl Fn(f64, &[f64]) -> f64,
    t_lo: f64,
    t_hi: f64,
    n_scan: usize,
) -> Option<f64> {
    let t_lo = t_lo.max(sol.t0());
    let t_hi = t_hi.min(sol.t_end());
    // Deliberate negation: also rejects NaN bounds.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(t_hi > t_lo) || n_scan < 2 {
        return None;
    }

    let mut buf = vec![0.0; sol.dim()];
    let eval = |t: f64, buf: &mut Vec<f64>| {
        sol.sample_into(t, buf);
        g(t, buf)
    };

    let mut t_prev = t_lo;
    let mut g_prev = eval(t_prev, &mut buf);
    if g_prev == 0.0 {
        return Some(t_prev);
    }
    for k in 1..n_scan {
        let t = t_lo + (t_hi - t_lo) * (k as f64) / ((n_scan - 1) as f64);
        let g_now = eval(t, &mut buf);
        if g_now == 0.0 {
            return Some(t);
        }
        if g_prev.signum() != g_now.signum() {
            // Bisection refine in [t_prev, t].
            let (mut a, mut b) = (t_prev, t);
            let mut ga = g_prev;
            for _ in 0..BISECT_ITERS {
                let m = 0.5 * (a + b);
                let gm = eval(m, &mut buf);
                if gm == 0.0 {
                    return Some(m);
                }
                if ga.signum() != gm.signum() {
                    b = m;
                } else {
                    a = m;
                    ga = gm;
                }
                if b - a < 1e-14 * (1.0 + a.abs()) {
                    break;
                }
            }
            return Some(0.5 * (a + b));
        }
        t_prev = t;
        g_prev = g_now;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dopri5::Dopri5;
    use crate::FnSystem;
    use std::f64::consts::PI;

    fn harmonic_solution() -> DenseSolution {
        let sys = FnSystem::new(2, |_t, y, d| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        Dopri5::new()
            .rtol(1e-10)
            .atol(1e-10)
            .integrate(&sys, 0.0, &[1.0, 0.0], 10.0)
            .unwrap()
    }

    #[test]
    fn finds_cosine_zero_at_pi_over_two() {
        let sol = harmonic_solution();
        let t = first_zero_crossing(&sol, |_t, y| y[0], 0.0, 3.0, 100).unwrap();
        assert!((t - PI / 2.0).abs() < 1e-8, "got {t}");
    }

    #[test]
    fn finds_first_crossing_not_a_later_one() {
        let sol = harmonic_solution();
        // cos t = 0 at π/2, 3π/2, …; must report the first.
        let t = first_zero_crossing(&sol, |_t, y| y[0], 0.0, 9.0, 400).unwrap();
        assert!((t - PI / 2.0).abs() < 1e-8);
    }

    #[test]
    fn no_crossing_returns_none() {
        let sol = harmonic_solution();
        assert_eq!(
            first_zero_crossing(&sol, |_t, y| y[0] + 10.0, 0.0, 10.0, 100),
            None
        );
    }

    #[test]
    fn degenerate_span_returns_none() {
        let sol = harmonic_solution();
        assert_eq!(first_zero_crossing(&sol, |_t, y| y[0], 5.0, 5.0, 100), None);
        assert_eq!(first_zero_crossing(&sol, |_t, y| y[0], 0.0, 1.0, 1), None);
    }

    #[test]
    fn exact_zero_at_grid_point_is_reported() {
        let sol = harmonic_solution();
        // Functional that is exactly zero at t = 2 (a scan point when the
        // grid divides evenly).
        let t = first_zero_crossing(&sol, |t, _y| t - 2.0, 0.0, 10.0, 11).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
    }
}
