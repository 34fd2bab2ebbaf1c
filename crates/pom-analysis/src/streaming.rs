//! Online (streaming) observables: fold a run into O(N) state as it
//! integrates, instead of scanning a stored trajectory afterwards.
//!
//! Every probe here implements [`pom_ode::StepObserver`] and plugs into
//! the solvers' `integrate_observed` fast paths (or
//! `pom_core::Pom::simulate_observed`). A probe sees each accepted step
//! once, updates a constant-size accumulator, and keeps nothing per step
//! — which is what makes million-step runs of 10⁵ oscillators fit in
//! memory: the paper's headline quantities (order parameter `r(t)`,
//! adjacent phase gaps, idle-wave arrival fronts, §5.1/§5.2) never needed
//! the raw phases, only these reductions.
//!
//! Contents:
//!
//! * [`Welford`] — numerically stable streaming mean/variance/min/max;
//! * [`OrderParameterProbe`] — Kuramoto `r(t)` statistics over the run;
//! * [`PhaseGapProbe`] — mean/max adjacent phase gap statistics;
//! * [`WaveFrontProbe`] — first-crossing idle-wave arrival detection
//!   against an analytic baseline, reproducing
//!   [`crate::idlewave::model_wave_arrivals`] without a baseline
//!   trajectory in memory;
//! * [`RunSummaryProbe`] — the bundle `pom-sweep` attaches to streaming
//!   campaign points.
//!
//! Statistics are per observed *sample* (one per accepted step, or per
//! forwarded step under [`pom_ode::ObserveEvery`]), not time-weighted:
//! with a fixed-step solver the two coincide; with an adaptive solver
//! regions of small steps weigh proportionally more.

use pom_core::observables::{order_parameter, phase_spread, phase_summary, PhaseSummary};
use pom_ode::{Accuracy, StepObserver};

use crate::idlewave::{crossing_time, wave_speed_fit_in, MeasuredWave, WaveArrival, WaveGeometry};

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
    pub fn variance(&self) -> f64 {
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
    pub fn sample_variance(&self) -> f64 {
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
    pub fn new() -> Self {
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
    pub fn new() -> Self {
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

/// Streaming idle-wave front detector: per-rank first crossing of
/// `|θ_i(t) − baseline_i(t)| >= threshold`, with the crossing time
/// linearly interpolated between the bracketing samples — the same
/// inclusive-threshold convention as
/// [`crate::idlewave::trajectory_wave_arrivals`], which this reproduces
/// (up to integrator round-off in the baseline) without holding any
/// trajectory in memory.
///
/// The baseline is an analytic closure `(t, rank) → phase`. The canonical
/// idle-wave experiment launches the wave by a one-off injection into an
/// otherwise noise-free synchronized run, whose unperturbed twin is
/// exactly the free run `θ_i(t) = θ_i(0) + ω t` — see
/// [`WaveFrontProbe::free_run`]. State: O(N) (two scalars per rank).
pub struct WaveFrontProbe<B> {
    threshold: f64,
    baseline: B,
    /// Arrival time per rank (`None` = not yet crossed).
    arrivals: Vec<Option<f64>>,
    /// Previous sample's `(t, delta)` per rank, for interpolation.
    prev: Vec<(f64, f64)>,
    started: bool,
}

impl<B: Fn(f64, usize) -> f64> WaveFrontProbe<B> {
    /// Detector for `n` ranks against an arbitrary analytic baseline.
    pub fn new(n: usize, threshold: f64, baseline: B) -> Self {
        Self {
            threshold,
            baseline,
            arrivals: vec![None; n],
            prev: vec![(0.0, 0.0); n],
            started: false,
        }
    }

    fn push(&mut self, t: f64, y: &[f64]) {
        debug_assert_eq!(y.len(), self.arrivals.len());
        for (i, &phase) in y.iter().enumerate() {
            if self.arrivals[i].is_some() {
                continue;
            }
            let delta = (phase - (self.baseline)(t, i)).abs();
            if delta >= self.threshold {
                let prev = self.started.then_some(self.prev[i]);
                self.arrivals[i] = Some(crossing_time(prev, t, delta, self.threshold));
            } else {
                self.prev[i] = (t, delta);
            }
        }
        self.started = true;
    }
}

impl<B> WaveFrontProbe<B> {
    /// Per-rank arrivals in [`crate::idlewave`]'s format.
    pub fn arrivals(&self) -> Vec<WaveArrival> {
        self.arrivals
            .iter()
            .enumerate()
            .map(|(rank, &time)| WaveArrival {
                rank,
                iteration: None,
                time,
            })
            .collect()
    }

    /// Number of ranks the front has reached so far.
    pub fn n_arrived(&self) -> usize {
        self.arrivals.iter().filter(|a| a.is_some()).count()
    }

    /// Fit the front speed from the detected arrivals (see
    /// [`wave_speed_fit_in`]).
    pub fn measured(
        &self,
        source: usize,
        max_distance: usize,
        geometry: WaveGeometry,
    ) -> MeasuredWave {
        let arrivals = self.arrivals();
        let fit = wave_speed_fit_in(&arrivals, source, max_distance, geometry);
        MeasuredWave { arrivals, fit }
    }
}

impl WaveFrontProbe<Box<dyn Fn(f64, usize) -> f64 + Send>> {
    /// Detector against the noise-free free run `θ_i(t) = y0_i + ω t` —
    /// the exact unperturbed twin of a synchronized, locally-noise-free
    /// model (coupling vanishes in lockstep), which is the §5.1 idle-wave
    /// baseline.
    pub fn free_run(y0: &[f64], omega: f64, threshold: f64) -> Self {
        let y0 = y0.to_vec();
        Self::new(y0.len(), threshold, Box::new(move |t, i| y0[i] + omega * t))
    }
}

impl<B: Fn(f64, usize) -> f64> StepObserver for WaveFrontProbe<B> {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        // Full reset: a probe reused across integrations (the way sweep
        // workers reuse their workspace) must not carry the previous
        // run's arrivals into the next one.
        self.started = false;
        self.arrivals.fill(None);
        for p in &mut self.prev {
            *p = (t0, 0.0);
        }
        self.push(t0, y0);
    }
    fn observe_step(&mut self, t: f64, y: &[f64]) {
        self.push(t, y);
    }
}

impl<B> std::fmt::Debug for WaveFrontProbe<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaveFrontProbe")
            .field("threshold", &self.threshold)
            .field("n", &self.arrivals.len())
            .field("n_arrived", &self.n_arrived())
            .finish_non_exhaustive()
    }
}

/// The probe bundle behind `pom-sweep`'s streaming observables: order
/// parameter plus gap/spread statistics, O(1) state.
///
/// Each sample is one [`phase_summary`] walk, whose trig follows the
/// [`Accuracy`] the driver announced (`pom_core::Pom::simulate_observed`
/// passes the model kernel's): `libm` by default and under
/// `RhsKernel::Exact`, bitwise equal to [`OrderParameterProbe`] plus
/// [`PhaseGapProbe`]; the split kernel's polynomial `sin`/`cos` under
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

    #[test]
    fn wave_probe_interpolates_first_crossing() {
        // Rank 0 ramps away from a zero baseline at 1 rad/unit starting
        // t = 1; rank 1 never deviates.
        let mut p = WaveFrontProbe::new(2, 0.5, |_t, _i| 0.0);
        p.begin(0.0, &[0.0, 0.0]);
        for k in 1..=4 {
            let t = k as f64;
            p.observe_step(t, &[(t - 1.0).max(0.0), 0.0]);
        }
        let a = p.arrivals();
        assert!((a[0].time.unwrap() - 1.5).abs() < 1e-12, "{a:?}");
        assert_eq!(a[1].time, None);
        assert_eq!(p.n_arrived(), 1);
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

    /// Regression: `begin` must clear the previous run's arrivals — a
    /// probe reused across integrations (like a sweep worker's
    /// workspace) must not report stale first-run crossing times.
    #[test]
    fn wave_probe_reuse_resets_arrivals() {
        let mut p = WaveFrontProbe::new(1, 0.5, |_t, _i| 0.0);
        p.begin(0.0, &[0.0]);
        p.observe_step(1.0, &[1.0]); // crosses at run 1
        assert_eq!(p.n_arrived(), 1);
        // Second integration: never crosses.
        p.begin(0.0, &[0.0]);
        assert_eq!(p.n_arrived(), 0, "stale arrivals must be cleared");
        p.observe_step(1.0, &[0.1]);
        assert_eq!(p.arrivals()[0].time, None);
    }

    #[test]
    fn free_run_baseline_is_linear() {
        let p = WaveFrontProbe::free_run(&[0.1, 0.2], 2.0, 0.05);
        assert!(((p.baseline)(3.0, 1) - (0.2 + 6.0)).abs() < 1e-12);
    }

    /// Tentpole contract: the streaming detector attached to
    /// `simulate_observed` reproduces the post-hoc
    /// `model_wave_arrivals` of a recorded perturbed/baseline pair — with
    /// no baseline trajectory (and no trajectory at all) in memory.
    #[test]
    fn wave_probe_reproduces_model_wave_arrivals() {
        use crate::idlewave::model_wave_arrivals;
        use pom_core::{InitialCondition, PomBuilder, Potential, SimOptions, SolverChoice};
        use pom_noise::{DelayEvent, OneOffDelays};
        use pom_topology::Topology;

        let n = 20;
        let build = |inject: bool| {
            let mut b = PomBuilder::new(n)
                .topology(Topology::ring(n, &[-1, 1]))
                .potential(Potential::Tanh)
                .compute_time(1.0)
                .comm_time(0.0)
                .coupling(2.0);
            if inject {
                b = b.local_noise(OneOffDelays::new(vec![DelayEvent {
                    rank: 5,
                    t_start: 2.0,
                    duration: 2.0,
                    extra: 1.0,
                }]));
            }
            b.build().unwrap()
        };
        // Fixed-step so the recorded grid (samples == steps) equals the
        // observer grid exactly.
        let h = 0.02;
        let t_end = 30.0;
        let steps = (t_end / h) as usize;
        let opts = SimOptions::new(t_end)
            .samples(steps + 1)
            .solver(SolverChoice::FixedRk4 { h });

        // Post-hoc reference: two recorded runs, scan afterwards.
        let pert_rec = build(true)
            .simulate_with(InitialCondition::Synchronized, &opts)
            .unwrap();
        let base_rec = build(false)
            .simulate_with(InitialCondition::Synchronized, &opts)
            .unwrap();
        let reference = model_wave_arrivals(&pert_rec, &base_rec, 0.05);

        // Streaming: one observed run against the analytic free-run
        // baseline (lockstep + no noise ⇒ θ_i(t) = ω t exactly).
        let model = build(true);
        let y0 = InitialCondition::Synchronized.phases(n);
        let mut probe = WaveFrontProbe::free_run(&y0, model.omega(), 0.05);
        let summary = model
            .simulate_observed(InitialCondition::Synchronized, &opts, &mut probe)
            .unwrap();
        assert_eq!(summary.n_steps(), steps);
        let streamed = probe.arrivals();

        assert_eq!(streamed.len(), reference.len());
        let mut n_arrived = 0;
        for (s, r) in streamed.iter().zip(&reference) {
            match (s.time, r.time) {
                (Some(ts), Some(tr)) => {
                    n_arrived += 1;
                    // The recorded baseline accumulates ω step by step
                    // while the analytic baseline is ω·t — identical up
                    // to round-off, so crossing times agree to ~1e-9.
                    assert!(
                        (ts - tr).abs() < 1e-6,
                        "rank {}: streamed {ts} vs reference {tr}",
                        s.rank
                    );
                }
                (a, b) => assert_eq!(
                    a.is_some(),
                    b.is_some(),
                    "rank {}: arrival disagreement",
                    s.rank
                ),
            }
        }
        assert!(n_arrived >= 5, "the wave must have moved: {n_arrived}");
    }
}
