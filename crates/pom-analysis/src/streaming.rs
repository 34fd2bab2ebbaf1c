//! Online (streaming) observables: fold a run into O(N) state as it
//! integrates, instead of scanning a stored trajectory afterwards.
//!
//! Every probe here implements [`pom_ode::StepObserver`] and plugs into
//! the solvers' `integrate_observed` fast paths (or
//! `pom_core::Pom::simulate_observed`). A probe sees each accepted step
//! once, updates a constant-size accumulator, and keeps nothing per step
//! — which is what makes million-step runs of 10⁵ oscillators fit in
//! memory: the paper's headline quantities (order parameter `r(t)` and
//! adjacent phase gaps, §5.2) never needed the raw phases, only these
//! reductions.
//!
//! Contents:
//!
//! * [`Welford`] — numerically stable streaming mean/variance/min/max;
//! * [`OrderParameterProbe`] — Kuramoto `r(t)` statistics over the run;
//! * [`PhaseGapProbe`] — mean/max adjacent phase gap statistics;
//! * [`RunSummaryProbe`] — the bundle `pom-sweep` attaches to streaming
//!   campaign points.
//!
//! Statistics are per observed *sample* (one per accepted step, or per
//! forwarded step under [`pom_ode::ObserveEvery`]), not time-weighted:
//! with a fixed-step solver the two coincide; with an adaptive solver
//! regions of small steps weigh proportionally more.

use pom_core::{order_parameter, phase_spread, phase_summary, PhaseSummary};
use pom_ode::{Accuracy, StepObserver};

/// Welford's streaming moments: mean and variance in one numerically
/// stable pass, plus min/max, in O(1) state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Streaming mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample (Bessel-corrected) variance `m2 / (count − 1)`; 0 for fewer
    /// than two samples. This is the estimator the ensemble aggregation
    /// columns use — replicas are a finite sample of the seed population.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean: `1.96 · sqrt(sample_variance / count)`; 0 for fewer than
    /// two samples. `pom-sweep` writes this as the `<obs>_ci95` column of
    /// `replicas = R` campaigns.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Streaming Kuramoto order parameter: per-sample `r` folded into
/// [`Welford`] statistics plus the latest value.
#[derive(Debug, Clone, Default)]
pub struct OrderParameterProbe {
    /// Statistics of `r` over all observed samples (including `t0`).
    pub stats: Welford,
    /// `r` at the most recent sample.
    pub last: f64,
}

impl OrderParameterProbe {
    /// Empty probe.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, y: &[f64]) {
        self.fold(order_parameter(y).0);
    }

    fn fold(&mut self, r: f64) {
        self.stats.push(r);
        self.last = r;
    }
}

impl StepObserver for OrderParameterProbe {
    fn begin(&mut self, _t0: f64, y0: &[f64]) {
        // Full reset, like every probe here: reuse across integrations
        // must not fold two runs into one statistic.
        *self = Self::new();
        self.push(y0);
    }
    fn observe_step(&mut self, _t: f64, y: &[f64]) {
        self.push(y);
    }
}

/// Streaming adjacent-gap diagnostics: per-sample mean and max of
/// `|θ_{i+1} − θ_i|` plus the phase spread, each folded into [`Welford`]
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct PhaseGapProbe {
    /// Statistics of the per-sample *mean* absolute adjacent gap.
    pub mean_gap: Welford,
    /// Statistics of the per-sample *max* absolute adjacent gap.
    pub max_gap: Welford,
    /// Statistics of the phase spread `max θ − min θ`.
    pub spread: Welford,
    /// Mean gap at the most recent sample.
    pub last_mean_gap: f64,
    /// Spread at the most recent sample.
    pub last_spread: f64,
}

impl PhaseGapProbe {
    /// Empty probe.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, y: &[f64]) {
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for w in y.windows(2) {
            let g = (w[1] - w[0]).abs();
            sum += g;
            max = max.max(g);
        }
        let mean = if y.len() < 2 {
            0.0
        } else {
            sum / (y.len() - 1) as f64
        };
        self.fold(mean, max, phase_spread(y));
    }

    fn fold(&mut self, mean: f64, max: f64, spread: f64) {
        self.mean_gap.push(mean);
        self.max_gap.push(max);
        self.spread.push(spread);
        self.last_mean_gap = mean;
        self.last_spread = spread;
    }
}

impl StepObserver for PhaseGapProbe {
    fn begin(&mut self, _t0: f64, y0: &[f64]) {
        // Full reset on begin — see `OrderParameterProbe`.
        *self = Self::new();
        self.push(y0);
    }
    fn observe_step(&mut self, _t: f64, y: &[f64]) {
        self.push(y);
    }
}

/// The probe bundle behind `pom-sweep`'s streaming observables: order
/// parameter plus gap/spread statistics, O(1) state.
///
/// Each sample is one [`phase_summary`] walk, whose trig follows the
/// [`Accuracy`] the driver announced (`pom_core::Pom::simulate_observed`
/// passes the model kernel's): `libm` by default and under
/// `RhsKernel::Exact`, bitwise equal to `OrderParameterProbe` plus
/// `PhaseGapProbe`; the split kernel's polynomial `sin`/`cos` under
/// `RhsKernel::SinCosSplit`, where `r` falls under the same `~1e-12`
/// policy as the run itself and the gap statistics stay bitwise.
#[derive(Debug, Clone, Default)]
pub struct RunSummaryProbe {
    /// Order-parameter statistics.
    pub r: OrderParameterProbe,
    /// Gap and spread statistics.
    pub gaps: PhaseGapProbe,
    accuracy: Accuracy,
}

impl RunSummaryProbe {
    /// Empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, y: &[f64]) {
        let PhaseSummary {
            r,
            mean_gap,
            max_gap,
            spread,
        } = phase_summary(y, self.accuracy);
        self.r.fold(r);
        self.gaps.fold(mean_gap, max_gap, spread);
    }
}

impl StepObserver for RunSummaryProbe {
    fn accuracy(&mut self, accuracy: Accuracy) {
        self.accuracy = accuracy;
    }
    fn begin(&mut self, _t0: f64, y0: &[f64]) {
        // Full reset of the statistics (see `OrderParameterProbe`); the
        // accuracy was announced for this run and holds until `finish`.
        self.r = OrderParameterProbe::new();
        self.gaps = PhaseGapProbe::new();
        self.push(y0);
    }
    fn observe_step(&mut self, _t: f64, y: &[f64]) {
        self.push(y);
    }
    fn finish(&mut self, _t_end: f64, _y_end: &[f64]) {
        // A later run through a driver that announces nothing is `Exact`.
        self.accuracy = Accuracy::Exact;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    #[test]
    fn welford_matches_two_pass_moments() {
        let xs: Vec<f64> = (0..100)
            .map(|k| ((k * 7919) % 100) as f64 * 0.13 - 3.0)
            .collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 100);
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-12);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(w.min(), lo);
        assert_eq!(w.max(), hi);
    }

    /// Golden values for the ensemble aggregation columns: mean, sample
    /// variance and ci95 half-width against closed-form results on a
    /// fixed sample set.
    #[test]
    fn welford_sample_moments_match_closed_form() {
        // Samples 1..=5: mean 3, sample variance Σ(x−3)²/4 = 10/4 = 2.5.
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert!((w.mean() - 3.0).abs() < 1e-15);
        assert!((w.sample_variance() - 2.5).abs() < 1e-15);
        // Population variance uses /n: 10/5 = 2.
        assert!((w.variance() - 2.0).abs() < 1e-15);
        // ci95 = 1.96 · sqrt(2.5 / 5) = 1.96 · sqrt(0.5).
        let expect = 1.96 * (2.5f64 / 5.0).sqrt();
        assert!((w.ci95_half_width() - expect).abs() < 1e-15);

        // Two equal samples: zero spread, zero interval.
        let mut w = Welford::new();
        w.push(7.25);
        w.push(7.25);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.ci95_half_width(), 0.0);
    }

    #[test]
    fn welford_degenerate_sizes() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        // default() must equal new() — a derived Default would silently
        // start min/max at 0.0 and clamp every later sample.
        assert_eq!(Welford::default().min(), f64::INFINITY);
        assert_eq!(Welford::default().max(), f64::NEG_INFINITY);
        let mut w = Welford::new();
        w.push(4.0);
        assert_eq!(w.mean(), 4.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.ci95_half_width(), 0.0);
        assert_eq!((w.min(), w.max()), (4.0, 4.0));
    }

    #[test]
    fn order_probe_tracks_r() {
        let mut p = OrderParameterProbe::new();
        p.begin(0.0, &[0.0, 0.0, 0.0]); // r = 1
        p.observe_step(1.0, &[0.0, std::f64::consts::PI, 0.0]);
        let r2 = order_parameter(&[0.0, std::f64::consts::PI, 0.0]).0;
        assert!((p.last - r2).abs() < 1e-12);
        assert!((p.stats.max() - 1.0).abs() < 1e-12);
        assert_eq!(p.stats.count(), 2);
    }

    #[test]
    fn gap_probe_mean_and_max() {
        let mut p = PhaseGapProbe::new();
        p.begin(0.0, &[0.0, 1.0, 3.0]); // gaps 1, 2 → mean 1.5, max 2
        assert!((p.last_mean_gap - 1.5).abs() < 1e-12);
        assert!((p.max_gap.max() - 2.0).abs() < 1e-12);
        assert!((p.last_spread - 3.0).abs() < 1e-12);
        // Single oscillator: gaps defined as 0.
        let mut p = PhaseGapProbe::new();
        p.begin(0.0, &[2.0]);
        assert_eq!(p.last_mean_gap, 0.0);
    }

    /// Regression: `begin` must reset the statistics probes — a probe
    /// reused across integrations must not fold two runs together.
    #[test]
    fn stats_probes_reset_on_begin() {
        let mut p = RunSummaryProbe::new();
        p.begin(0.0, &[0.0, std::f64::consts::PI]); // r = 0, big gap
        p.observe_step(1.0, &[0.0, std::f64::consts::PI]);
        assert!(p.r.stats.min() < 1e-12);
        // Second run: synchronized throughout — run 1's extremes must
        // not leak into run 2's statistics.
        p.begin(0.0, &[0.5, 0.5]);
        p.observe_step(1.0, &[0.7, 0.7]);
        assert!((p.r.stats.min() - 1.0).abs() < 1e-12);
        assert_eq!(p.r.stats.count(), 2);
        assert_eq!(p.gaps.max_gap.max(), 0.0);
    }
}
