//! Observables of the oscillator system.
//!
//! These are the quantities the paper visualizes (§3.2): the circular
//! phase diagram uses raw phases; the "standard view" shows
//! `θ_i − ωt` *normalized to the slowest ("lagger") process as the
//! baseline*; synchrony is quantified by the Kuramoto order parameter and
//! by the phase spread. [`phase_summary`] computes the streamed set (r,
//! adjacent gaps, spread) in one pass, with the trig of the run's kernel:
//! a per-element walk under `libm` trig, and under the split kernel's
//! polynomial trig a vectorized block pass that keeps the walk's every
//! bit.

use pom_ode::Accuracy;

use crate::kernel::{summary_folds, SummaryFolds};

/// Kuramoto order parameter `r ∈ [0, 1]` and mean phase `ψ`:
/// `r·e^{iψ} = (1/N)·Σ_j e^{iθ_j}`.
///
/// `r = 1` means perfect synchrony; `r ≈ 0` a uniformly spread
/// (fully desynchronized) phase distribution.
///
/// # Panics
/// Panics on an empty slice.
pub fn order_parameter(phases: &[f64]) -> (f64, f64) {
    assert!(!phases.is_empty(), "order parameter of an empty system");
    let n = phases.len() as f64;
    let (mut re, mut im) = (0.0, 0.0);
    for &p in phases {
        re += p.cos();
        im += p.sin();
    }
    re /= n;
    im /= n;
    ((re * re + im * im).sqrt(), im.atan2(re))
}

/// Phase spread `max_i θ_i − min_i θ_i` (radians).
///
/// Unlike the order parameter this is *not* 2π-periodic: it grows without
/// bound for a desynchronized wavefront, which is exactly what makes it
/// the right yardstick for the bottlenecked case (§5.2.2: "a corresponding
/// decrease in oscillator phase spread").
pub fn phase_spread(phases: &[f64]) -> f64 {
    assert!(!phases.is_empty());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &p in phases {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    hi - lo
}

/// The per-sample reductions a streaming probe folds: the order parameter
/// `r`, the mean and max absolute adjacent gap, and the phase spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Kuramoto order parameter `r` (see [`order_parameter`]).
    pub r: f64,
    /// Mean of `|θ_{i+1} − θ_i|` over the `N − 1` adjacent pairs (0 for
    /// `N = 1`).
    pub mean_gap: f64,
    /// Max of `|θ_{i+1} − θ_i|` (0 for `N = 1`).
    pub max_gap: f64,
    /// Phase spread (see [`phase_spread`]).
    pub spread: f64,
}

/// [`order_parameter`]'s `r`, the adjacent-gap mean and max, and
/// [`phase_spread`] in one pass over the phases.
///
/// Under [`Accuracy::Exact`] (`libm` trig) one walk folds each
/// accumulator in the order of the separate functions, so every value is
/// bitwise theirs. Under [`Accuracy::Policy`] the sin/cos come from the
/// split kernel's polynomial array pass, and one vectorized block pass
/// computes them with the gaps: it adds `Σ cos`, `Σ sin` and the gap sum
/// in index order, as a per-element walk would, and keeps the order-free
/// extremes and largest gap in lane accumulators. Every output is bitwise
/// that walk's; `r` then stays within `~1e-12` of `Exact` (the
/// `SinCosSplit` accuracy policy), and the gaps and the spread, which use
/// no trig, stay bitwise equal. Allocates nothing.
///
/// # Panics
/// Panics on an empty slice.
pub fn phase_summary(phases: &[f64], accuracy: Accuracy) -> PhaseSummary {
    assert!(!phases.is_empty(), "phase summary of an empty system");
    let f = match accuracy {
        Accuracy::Exact => {
            let mut f = SummaryFolds::EMPTY;
            let mut prev = None::<f64>;
            for &p in phases {
                f.re += p.cos();
                f.im += p.sin();
                f.lo = f.lo.min(p);
                f.hi = f.hi.max(p);
                if let Some(q) = prev {
                    let g = (p - q).abs();
                    f.gap_sum += g;
                    f.gap_max = f.gap_max.max(g);
                }
                prev = Some(p);
            }
            f
        }
        Accuracy::Policy => summary_folds(phases),
    };
    let len = phases.len();
    let (re, im) = (f.re / len as f64, f.im / len as f64);
    PhaseSummary {
        r: (re * re + im * im).sqrt(),
        mean_gap: if len < 2 {
            0.0
        } else {
            f.gap_sum / (len - 1) as f64
        },
        max_gap: f.gap_max,
        spread: f.hi - f.lo,
    }
}

/// The paper's standard view (§3.2): `θ_i − ωt`, shifted so the slowest
/// ("lagger") process sits at zero.
pub fn lagger_normalized(phases: &[f64], omega: f64, t: f64) -> Vec<f64> {
    assert!(!phases.is_empty());
    let drift = omega * t;
    let min = phases
        .iter()
        .map(|&p| p - drift)
        .fold(f64::INFINITY, f64::min);
    phases.iter().map(|&p| p - drift - min).collect()
}

/// Differences between adjacent ranks, `θ_{i+1} − θ_i` (length `N − 1`):
/// the wavefront slope diagnostic. A synchronized system has all ≈ 0; a
/// fully developed computational wavefront has all ≈ ±2σ/3 (§5.2.2).
pub fn adjacent_differences(phases: &[f64]) -> Vec<f64> {
    phases.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Winding number of a ring of phases: the net number of full turns
/// accumulated walking once around the ring with each step wrapped to
/// (−π, π]. Communicating processes can never wind (a computation cannot
/// start before its message arrived), so a nonzero winding number is a
/// *phase slip* — the failure mode of the periodic Kuramoto potential the
/// paper calls out in §2.2.2.
pub fn winding_number(phases: &[f64]) -> i64 {
    if phases.len() < 2 {
        return 0;
    }
    let tau = std::f64::consts::TAU;
    let wrap = |x: f64| x - tau * (x / tau).round();
    let mut acc = 0.0;
    for w in phases.windows(2) {
        acc += wrap(w[1] - w[0]);
    }
    acc += wrap(phases[0] - phases[phases.len() - 1]);
    (acc / tau).round() as i64
}

/// Mean of the absolute adjacent differences (a scalar "desync amplitude").
pub(crate) fn mean_abs_adjacent_difference(phases: &[f64]) -> f64 {
    let d = adjacent_differences(phases);
    if d.is_empty() {
        return 0.0;
    }
    d.iter().map(|x| x.abs()).sum::<f64>() / d.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{sincos_pass, SUMMARY_BLOCK};
    use proptest::prelude::*;
    use std::f64::consts::{PI, TAU};

    /// The composition [`phase_summary`] fuses: [`order_parameter`], the
    /// `windows(2)` gap loop of the streaming gap probe, and
    /// [`phase_spread`].
    fn oracle(phases: &[f64]) -> PhaseSummary {
        let (mut sum, mut max) = (0.0, 0.0f64);
        for w in phases.windows(2) {
            let g = (w[1] - w[0]).abs();
            sum += g;
            max = max.max(g);
        }
        PhaseSummary {
            r: order_parameter(phases).0,
            mean_gap: if phases.len() < 2 {
                0.0
            } else {
                sum / (phases.len() - 1) as f64
            },
            max_gap: max,
            spread: phase_spread(phases),
        }
    }

    /// The `Policy` arm as one per-element walk: each block's sin/cos
    /// from the array pass, then every accumulator folded element by
    /// element in index order.
    fn policy_walk(phases: &[f64]) -> PhaseSummary {
        let (mut re, mut im, mut lo, mut hi) = (0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY);
        let (mut gap_sum, mut gap_max, mut prev) = (0.0, 0.0f64, None::<f64>);
        let mut fold = |p: f64, cos: f64, sin: f64| {
            re += cos;
            im += sin;
            lo = lo.min(p);
            hi = hi.max(p);
            if let Some(q) = prev {
                let g = (p - q).abs();
                gap_sum += g;
                gap_max = gap_max.max(g);
            }
            prev = Some(p);
        };
        let (mut s, mut c) = ([0.0; SUMMARY_BLOCK], [0.0; SUMMARY_BLOCK]);
        for xs in phases.chunks(SUMMARY_BLOCK) {
            let (s, c) = (&mut s[..xs.len()], &mut c[..xs.len()]);
            sincos_pass(1.0, xs, s, c);
            for ((&p, &cj), &sj) in xs.iter().zip(c.iter()).zip(s.iter()) {
                fold(p, cj, sj);
            }
        }
        let len = phases.len();
        let (re, im) = (re / len as f64, im / len as f64);
        PhaseSummary {
            r: (re * re + im * im).sqrt(),
            mean_gap: if len < 2 {
                0.0
            } else {
                gap_sum / (len - 1) as f64
            },
            max_gap: gap_max,
            spread: hi - lo,
        }
    }

    fn bits(s: PhaseSummary) -> [u64; 4] {
        [s.r, s.mean_gap, s.max_gap, s.spread].map(f64::to_bits)
    }

    /// Under `Policy`: every field bitwise the per-element walk.
    fn assert_policy_is_the_walk(phases: &[f64]) {
        assert_eq!(
            bits(phase_summary(phases, Accuracy::Policy)),
            bits(policy_walk(phases)),
            "n = {}: {:?}",
            phases.len(),
            &phases[..phases.len().min(12)]
        );
    }

    /// Under `Policy`: `r` within the split kernel's policy, the
    /// trig-free gaps and spread bitwise, all four bitwise the walk.
    fn assert_policy_matches_oracle(phases: &[f64]) {
        assert_policy_is_the_walk(phases);
        let (got, want) = (phase_summary(phases, Accuracy::Policy), oracle(phases));
        assert!(
            (got.r - want.r).abs() <= 1e-12 || (got.r.is_nan() && want.r.is_nan()),
            "n = {}: r {} vs libm {}",
            phases.len(),
            got.r,
            want.r
        );
        assert_eq!(
            bits(got)[1..],
            bits(want)[1..],
            "n = {}: gaps and spread",
            phases.len()
        );
    }

    /// Any `f64`: arbitrary bit patterns (NaNs, infinities, subnormals,
    /// huge magnitudes) mixed with ordinary phases.
    fn any_phase() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            -50.0f64..50.0,
            -1e8f64..1e8,
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
        ]
    }

    /// Phase vectors across a few blocks: ordinary phases, anything, and
    /// short vectors of anything (n = 1 and 2 included).
    fn any_phases() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            prop::collection::vec(-50.0f64..50.0, 1..3 * SUMMARY_BLOCK),
            prop::collection::vec(any_phase(), 1..3 * SUMMARY_BLOCK),
            prop::collection::vec(any_phase(), 1..4),
        ]
    }

    /// Phases where the `Policy` trig has a policy: simulated spans (the
    /// split kernel's own accuracy test covers |θ| ≤ 50 at wavenumbers up
    /// to 7.3), or beyond the polynomial's argument limit (1e6), where
    /// every element falls back to `libm`. In between, the modulo-π
    /// reduction error grows with |θ| (~1e-10 near 1e6).
    fn policy_phases() -> impl Strategy<Value = Vec<f64>> {
        let far = prop_oneof![
            (any::<bool>(), 1e6f64 + 1.0..1e15).prop_map(|(neg, x)| if neg { -x } else { x }),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            -365.0f64..365.0,
        ];
        prop_oneof![
            prop::collection::vec(-365.0f64..365.0, 1..3 * SUMMARY_BLOCK),
            prop::collection::vec(far, 1..3 * SUMMARY_BLOCK),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn phase_summary_exact_is_bitwise_the_composition(phases in any_phases()) {
            prop_assert_eq!(bits(phase_summary(&phases, Accuracy::Exact)), bits(oracle(&phases)));
        }

        #[test]
        fn phase_summary_policy_is_within_policy(phases in policy_phases()) {
            assert_policy_matches_oracle(&phases);
        }

        /// Gaps and spread use no trig: bitwise under `Policy` for any input.
        #[test]
        fn phase_summary_policy_gaps_are_bitwise(phases in any_phases()) {
            let (got, want) = (phase_summary(&phases, Accuracy::Policy), oracle(&phases));
            prop_assert_eq!(bits(got)[1..], bits(want)[1..]);
        }

        /// The block pass reorders no sum: `r` too is bitwise the walk.
        #[test]
        fn phase_summary_policy_is_bitwise_the_walk(phases in any_phases()) {
            assert_policy_is_the_walk(&phases);
        }
    }

    /// `f64::min`/`f64::max` may keep either zero of a tie, and the spread
    /// of an all-zero sample is the difference of the two zeros kept: the
    /// lane folds must give the walk's bits wherever the signed zeros sit
    /// among the lanes.
    #[test]
    fn phase_summary_policy_is_the_walk_on_signed_zeros() {
        let mut rng = TestRng::deterministic("phase_summary_zeros");
        for n in [1, 2, 3, 8, 9, 17, SUMMARY_BLOCK + 1, 300] {
            let mut cases = vec![vec![0.0; n], vec![-0.0; n]];
            for at in [0, 1, n / 2, n - 1].into_iter().filter(|&at| at < n) {
                for (z, other) in [(-0.0, 0.0), (0.0, -0.0)] {
                    let mut v = vec![other; n];
                    v[at] = z;
                    cases.push(v);
                }
            }
            for _ in 0..8 {
                cases.push(
                    (0..n)
                        .map(|_| if rng.next_f64() < 0.5 { 0.0 } else { -0.0 })
                        .collect(),
                );
            }
            let with_nans: Vec<Vec<f64>> = cases
                .iter()
                .map(|v| {
                    v.iter()
                        .enumerate()
                        .map(|(i, &z)| if i % 3 == 1 { f64::NAN } else { z })
                        .collect()
                })
                .collect();
            cases.extend(with_nans);
            // Zeros beside a nonzero extreme: its sign does not matter.
            for v in cases.clone() {
                let mut w = v.clone();
                w[n / 2] = 1.5;
                cases.push(w);
                let mut w = v;
                w[n - 1] = -2.0;
                cases.push(w);
            }
            for phases in &cases {
                assert_policy_is_the_walk(phases);
                assert_eq!(
                    bits(phase_summary(phases, Accuracy::Exact)),
                    bits(oracle(phases))
                );
            }
        }
    }

    /// The first phase has no predecessor: a non-finite one enters the
    /// first gap, never a gap with itself.
    #[test]
    fn phase_summary_policy_non_finite_first_phase() {
        for first in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for n in [1, 2, 5, SUMMARY_BLOCK + 3] {
                let mut phases: Vec<f64> = (0..n).map(|i| 0.25 * i as f64).collect();
                phases[0] = first;
                assert_policy_matches_oracle(&phases);
                let got = phase_summary(&phases, Accuracy::Policy);
                if n > 1 && !first.is_nan() {
                    assert_eq!(got.mean_gap, f64::INFINITY, "first = {first}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn phase_summary_policy_across_block_edges() {
        let mut rng = TestRng::deterministic("phase_summary_blocks");
        let b = SUMMARY_BLOCK;
        for n in [1, 7, b - 1, b, b + 1, 65536] {
            let mut phases: Vec<f64> = (0..n).map(|_| 730.0 * rng.next_f64() - 365.0).collect();
            assert_policy_matches_oracle(&phases);
            assert_eq!(
                bits(phase_summary(&phases, Accuracy::Exact)),
                bits(oracle(&phases))
            );
            // Phases beyond the polynomial's argument limit take the
            // `libm` fallback element by element, wherever they sit: in
            // the first, a middle and the last block, the rest near.
            for (at, far) in [(0, 3e6), (37, 1e300), (n / 2, -2.5e7), (n - 1, 1e6 + 0.5)] {
                phases[at % n] = far;
            }
            assert_policy_matches_oracle(&phases);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn phase_summary_rejects_empty() {
        phase_summary(&[], Accuracy::Exact);
    }

    #[test]
    fn order_parameter_synchronized() {
        let (r, psi) = order_parameter(&[0.7; 12]);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((psi - 0.7).abs() < 1e-12);
    }

    #[test]
    fn order_parameter_uniform_spread_is_zero() {
        let n = 16;
        let phases: Vec<f64> = (0..n).map(|k| TAU * k as f64 / n as f64).collect();
        let (r, _) = order_parameter(&phases);
        assert!(r < 1e-12, "r = {r}");
    }

    #[test]
    fn order_parameter_two_opposite() {
        let (r, _) = order_parameter(&[0.0, PI]);
        assert!(r < 1e-12);
    }

    #[test]
    fn order_parameter_is_2pi_invariant() {
        let a = order_parameter(&[0.1, 0.5, 1.0]).0;
        let b = order_parameter(&[0.1 + TAU, 0.5, 1.0 - TAU]).0;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn phase_spread_basics() {
        assert_eq!(phase_spread(&[1.0, 3.5, 2.0]), 2.5);
        assert_eq!(phase_spread(&[4.2]), 0.0);
        // NOT periodic: a full-turn offset counts.
        assert!((phase_spread(&[0.0, TAU]) - TAU).abs() < 1e-12);
    }

    #[test]
    fn lagger_normalization_zeroes_the_slowest() {
        let omega = TAU;
        let t = 2.0;
        // Oscillator 1 lags by 0.4 behind the free-running phase ωt.
        let phases = vec![omega * t, omega * t - 0.4, omega * t + 0.3];
        let norm = lagger_normalized(&phases, omega, t);
        assert!((norm[1] - 0.0).abs() < 1e-12);
        assert!((norm[0] - 0.4).abs() < 1e-12);
        assert!((norm[2] - 0.7).abs() < 1e-12);
        assert!(norm.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn adjacent_differences_shape() {
        let d = adjacent_differences(&[0.0, 1.0, 3.0, 2.5]);
        assert_eq!(d, vec![1.0, 2.0, -0.5]);
        assert!(adjacent_differences(&[5.0]).is_empty());
    }

    #[test]
    fn mean_abs_adjacent_difference_wavefront() {
        // A perfect wavefront with slope 2 has mean |Δ| = 2.
        let phases: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        assert!((mean_abs_adjacent_difference(&phases) - 2.0).abs() < 1e-12);
        // Synchronized: 0.
        assert_eq!(mean_abs_adjacent_difference(&[1.0; 8]), 0.0);
        // Single oscillator: defined as 0.
        assert_eq!(mean_abs_adjacent_difference(&[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn order_parameter_rejects_empty() {
        order_parameter(&[]);
    }

    #[test]
    fn winding_number_detects_slips() {
        // No slip: small fluctuations around a constant.
        assert_eq!(winding_number(&[0.0, 0.1, -0.2, 0.05]), 0);
        // One full forward turn distributed over the ring.
        let n = 8;
        let up: Vec<f64> = (0..n).map(|i| TAU * i as f64 / n as f64).collect();
        assert_eq!(winding_number(&up), 1);
        // Two turns backwards.
        let down: Vec<f64> = (0..n).map(|i| -2.0 * TAU * i as f64 / n as f64).collect();
        assert_eq!(winding_number(&down), -2);
        // A slipped Kuramoto state: one oscillator a full 2π ahead does
        // NOT wind (it is a local defect, +2π and −2π cancel)…
        let mut slipped = vec![0.0; 6];
        slipped[3] = TAU;
        assert_eq!(winding_number(&slipped), 0);
        // Degenerate sizes.
        assert_eq!(winding_number(&[]), 0);
        assert_eq!(winding_number(&[1.0]), 0);
    }
}
