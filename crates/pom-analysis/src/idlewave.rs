//! Idle-wave front extraction and speed measurement.
//!
//! An injected one-off delay launches an *idle wave* (§5.1): a front of
//! excess waiting/phase lag that travels outward from the injection rank
//! through the communication dependencies. On the simulator side the wave
//! lives in iteration-end timestamps; on the model side in the phases.
//! Either way, the front is "the first time rank r deviates from its
//! unperturbed twin by more than a threshold", and its speed is the slope
//! of a least-squares fit of rank distance against arrival time.

use pom_core::PomRun;
use pom_mpisim::SimTrace;
use pom_ode::Trajectory;

use crate::stats::{linear_fit, LinFit};

/// Arrival of the wave front at one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveArrival {
    /// Rank index.
    pub rank: usize,
    /// Iteration whose *end* is first delayed (simulator only).
    pub iteration: Option<usize>,
    /// Absolute time of first deviation.
    pub time: Option<f64>,
}

/// What the fit says about one propagation direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WaveVerdict {
    /// A positive-slope fit: the front moved outward at `1/slope`
    /// ranks per time unit.
    Propagated(LinFit),
    /// A fit exists but its slope is ≤ 0 — arrival times do not increase
    /// with distance (simultaneous arrival, backward ordering, or a
    /// threshold artifact). The front speed is not measurable from it;
    /// the offending fit is carried for diagnosis.
    Degenerate(LinFit),
    /// Too few arrivals on this side to fit anything (the wave never got
    /// there, or all arrivals were at one distance).
    NotReached,
}

impl WaveVerdict {
    /// The measured speed in ranks per time unit, if this direction
    /// propagated.
    pub(crate) fn speed(&self) -> Option<f64> {
        match self {
            WaveVerdict::Propagated(f) => Some(1.0 / f.slope),
            _ => None,
        }
    }

    /// `true` for [`WaveVerdict::Degenerate`] — a fit that exists but
    /// cannot yield a speed. [`WaveSpeed::mean_speed`] skips these
    /// silently; callers that must not confuse "no wave on this side"
    /// with "unusable fit on this side" check this flag.
    #[cfg(test)]
    pub(crate) fn is_degenerate(&self) -> bool {
        matches!(self, WaveVerdict::Degenerate(_))
    }

    fn from_fit(fit: Option<LinFit>) -> Self {
        match fit {
            None => WaveVerdict::NotReached,
            Some(f) if f.slope > 0.0 => WaveVerdict::Propagated(f),
            Some(f) => WaveVerdict::Degenerate(f),
        }
    }
}

/// Fitted wave speed in both directions from the source.
///
/// The underlying fits regress arrival time against rank distance, so
/// `slope` is *time per rank*; speeds are the reciprocal `1/slope` (ranks
/// per time unit). That reciprocal convention is what
/// [`WaveSpeed::mean_speed`] averages: the arithmetic mean of the
/// per-direction *speeds*, not of the slopes.
#[derive(Debug, Clone, Copy)]
pub struct WaveSpeed {
    /// Fit away from the source towards higher ranks (`None` if the wave
    /// never reached that side with ≥ 2 distinct distances).
    pub up: Option<LinFit>,
    /// Fit towards lower ranks.
    pub down: Option<LinFit>,
}

impl WaveSpeed {
    /// Per-direction verdicts `(up, down)`: unlike the raw `Option<LinFit>`
    /// fields these distinguish "the wave never reached that side"
    /// ([`WaveVerdict::NotReached`]) from "a fit exists but is unusable"
    /// ([`WaveVerdict::Degenerate`], slope ≤ 0).
    pub(crate) fn verdicts(&self) -> (WaveVerdict, WaveVerdict) {
        (
            WaveVerdict::from_fit(self.up),
            WaveVerdict::from_fit(self.down),
        )
    }

    /// The mean propagation speed over the directions that propagated
    /// (ranks per time unit): the arithmetic mean of the per-direction
    /// reciprocal slopes `1/slope`.
    ///
    /// Directions that are `WaveVerdict::NotReached` *or*
    /// `WaveVerdict::Degenerate` are excluded — a one-sided wave
    /// legitimately reports the one usable side. `None` means **no**
    /// direction yielded a usable positive-slope fit; inspect
    /// `WaveSpeed::verdicts` to tell an absent wave from a degenerate
    /// measurement.
    pub fn mean_speed(&self) -> Option<f64> {
        let (up, down) = self.verdicts();
        let speeds: Vec<f64> = [up.speed(), down.speed()].into_iter().flatten().collect();
        if speeds.is_empty() {
            None
        } else {
            Some(speeds.iter().sum::<f64>() / speeds.len() as f64)
        }
    }
}

/// Wave arrivals from a perturbed/baseline simulator trace pair: for each
/// rank, the first iteration whose end is delayed by **at least**
/// `threshold` seconds (inclusive `delta >= threshold`), and its
/// (perturbed) end time.
///
/// Iteration ends are discrete events — every iteration is present in the
/// trace, so there is no sampling stride to compensate and the reported
/// time is the exact perturbed iteration end.
pub fn sim_wave_arrivals(
    perturbed: &SimTrace,
    baseline: &SimTrace,
    threshold: f64,
) -> Vec<WaveArrival> {
    assert_eq!(perturbed.n_ranks(), baseline.n_ranks());
    let iters = perturbed.n_iterations().min(baseline.n_iterations());
    (0..perturbed.n_ranks())
        .map(|r| {
            for k in 0..iters {
                let delta = perturbed.rank(r).iter_end(k) - baseline.rank(r).iter_end(k);
                if delta >= threshold {
                    return WaveArrival {
                        rank: r,
                        iteration: Some(k),
                        time: Some(perturbed.rank(r).iter_end(k)),
                    };
                }
            }
            WaveArrival {
                rank: r,
                iteration: None,
                time: None,
            }
        })
        .collect()
}

/// Wave arrivals from a perturbed/baseline trajectory pair sharing one
/// sampling grid: for each component, the time of the first threshold
/// crossing of `|perturbed − baseline|`.
///
/// Threshold semantics are **inclusive**: a sample with
/// `delta >= threshold` counts as crossed. The reported time is the
/// *interpolated* crossing time, not the sample time: with a recording
/// stride (decimated recording, coarse `samples`) the first offending
/// sample can postdate the true crossing by up to a whole stride, which
/// systematically biased fitted wave speeds low; linear interpolation of
/// `delta` between the bracketing samples removes the stride quantization
/// (crossings inside the very first sample report that sample's time —
/// there is nothing earlier to bracket with).
pub(crate) fn trajectory_wave_arrivals(
    perturbed: &Trajectory,
    baseline: &Trajectory,
    threshold: f64,
) -> Vec<WaveArrival> {
    assert_eq!(perturbed.dim(), baseline.dim());
    let n_samples = perturbed.len().min(baseline.len());
    (0..perturbed.dim())
        .map(|i| {
            let mut prev: Option<(f64, f64)> = None; // (t, delta) of k−1
            for k in 0..n_samples {
                let t = perturbed.time(k);
                let delta = (perturbed.state(k)[i] - baseline.state(k)[i]).abs();
                if delta >= threshold {
                    return WaveArrival {
                        rank: i,
                        iteration: None,
                        time: Some(crossing_time(prev, t, delta, threshold)),
                    };
                }
                prev = Some((t, delta));
            }
            WaveArrival {
                rank: i,
                iteration: None,
                time: None,
            }
        })
        .collect()
}

/// The interpolation rule of [`trajectory_wave_arrivals`]: linear crossing
/// of `threshold` between the previous sub-threshold sample `(t, delta)`
/// and the first sample at or above it. Falls back to the crossing
/// sample's own time when no earlier bracket exists (crossing in the
/// very first sample) or `delta` did not rise. `d_prev < threshold <=
/// delta` in the bracketed case, so the divisor is positive.
fn crossing_time(prev: Option<(f64, f64)>, t: f64, delta: f64, threshold: f64) -> f64 {
    match prev {
        Some((t_prev, d_prev)) if delta > d_prev => {
            t_prev + (threshold - d_prev) / (delta - d_prev) * (t - t_prev)
        }
        _ => t,
    }
}

/// Wave arrivals from a perturbed/baseline model run pair
/// (see `trajectory_wave_arrivals` for the crossing semantics).
///
/// Both runs must share the sampling grid (they do when produced with the
/// same [`pom_core::SimOptions`]).
pub fn model_wave_arrivals(
    perturbed: &PomRun,
    baseline: &PomRun,
    threshold: f64,
) -> Vec<WaveArrival> {
    trajectory_wave_arrivals(perturbed.trajectory(), baseline.trajectory(), threshold)
}

/// Rank-space geometry of the substrate the wave ran on, deciding how
/// rank indices map to distances from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaveGeometry {
    /// Open chain: distance is linear, `|rank − source|`; "up" means
    /// higher ranks.
    #[default]
    Chain,
    /// Periodic ring of `arrivals.len()` ranks: distance wraps
    /// (`min(lin, n − lin)`, the [`pom_topology::Topology::rank_distance`]
    /// convention) and "up" means the shorter way around is towards
    /// increasing rank. Without this, arrivals that came the short way
    /// across the wrap are binned at the long linear distance and poison
    /// the fit.
    Ring,
}

/// Fit the front speed from arrivals: regress arrival time against rank
/// distance from `source`, separately for the two directions away from
/// the source (up to `max_distance` away; on a ring, at most
/// `⌊(n−1)/2⌋` — beyond that the two fronts meet and a direction is no
/// longer well defined).
///
/// The returned fits have *slope = time per rank*; speed is the
/// reciprocal (see [`WaveSpeed`] for the convention and
/// [`WaveSpeed::verdicts`] for per-direction quality).
pub(crate) fn wave_speed_fit_in(
    arrivals: &[WaveArrival],
    source: usize,
    max_distance: usize,
    geometry: WaveGeometry,
) -> WaveSpeed {
    let n = arrivals.len();
    let max_distance = match geometry {
        WaveGeometry::Chain => max_distance,
        // On a ring distances beyond ⌊(n−1)/2⌋ do not exist.
        WaveGeometry::Ring => max_distance.min(n.saturating_sub(1) / 2),
    };
    let mut up = Vec::new();
    let mut down = Vec::new();
    for a in arrivals {
        let Some(t) = a.time else { continue };
        if a.rank == source {
            continue;
        }
        let (dist, is_up) = match geometry {
            WaveGeometry::Chain => (a.rank.abs_diff(source), a.rank > source),
            WaveGeometry::Ring => {
                let fwd = (a.rank + n - source) % n; // steps going upward
                if fwd <= n - fwd {
                    (fwd, true)
                } else {
                    (n - fwd, false)
                }
            }
        };
        if dist <= max_distance {
            if is_up {
                up.push((dist as f64, t));
            } else {
                down.push((dist as f64, t));
            }
        }
    }
    WaveSpeed {
        up: linear_fit(&up),
        down: linear_fit(&down),
    }
}

/// `wave_speed_fit_in` with [`WaveGeometry::Chain`] (linear rank
/// distance, the historical behavior).
///
/// **Precondition** on periodic substrates: only valid while the wave
/// cannot have wrapped, i.e. `source ± max_distance` stays inside
/// `[0, n)` and the run is short enough that the far side was not
/// reached the short way around — otherwise wrapped arrivals are binned
/// at the long linear distance. Use `wave_speed_fit_in` with
/// [`WaveGeometry::Ring`] on rings.
pub fn wave_speed_fit(arrivals: &[WaveArrival], source: usize, max_distance: usize) -> WaveSpeed {
    wave_speed_fit_in(arrivals, source, max_distance, WaveGeometry::Chain)
}

/// A complete wave measurement: per-rank arrivals plus the fitted speed.
#[derive(Debug, Clone)]
pub struct MeasuredWave {
    /// First-deviation arrivals per rank.
    pub arrivals: Vec<WaveArrival>,
    /// The least-squares front fit.
    pub fit: WaveSpeed,
}

/// One-call model wave measurement: arrivals from a perturbed/baseline
/// pair, fitted from `source` out to `max_distance` ranks with the given
/// rank-space geometry.
pub fn model_wave_speed_in(
    perturbed: &PomRun,
    baseline: &PomRun,
    threshold: f64,
    source: usize,
    max_distance: usize,
    geometry: WaveGeometry,
) -> MeasuredWave {
    let arrivals = model_wave_arrivals(perturbed, baseline, threshold);
    let fit = wave_speed_fit_in(&arrivals, source, max_distance, geometry);
    MeasuredWave { arrivals, fit }
}

/// [`model_wave_speed_in`] with [`WaveGeometry::Chain`] (see
/// [`wave_speed_fit`] for the no-wrap precondition).
pub fn model_wave_speed(
    perturbed: &PomRun,
    baseline: &PomRun,
    threshold: f64,
    source: usize,
    max_distance: usize,
) -> MeasuredWave {
    model_wave_speed_in(
        perturbed,
        baseline,
        threshold,
        source,
        max_distance,
        WaveGeometry::Chain,
    )
}

/// One-call simulator wave measurement with explicit geometry (see
/// [`model_wave_speed_in`]).
pub fn sim_wave_speed_in(
    perturbed: &SimTrace,
    baseline: &SimTrace,
    threshold: f64,
    source: usize,
    max_distance: usize,
    geometry: WaveGeometry,
) -> MeasuredWave {
    let arrivals = sim_wave_arrivals(perturbed, baseline, threshold);
    let fit = wave_speed_fit_in(&arrivals, source, max_distance, geometry);
    MeasuredWave { arrivals, fit }
}

/// [`sim_wave_speed_in`] with [`WaveGeometry::Chain`] (see
/// [`wave_speed_fit`] for the no-wrap precondition).
pub fn sim_wave_speed(
    perturbed: &SimTrace,
    baseline: &SimTrace,
    threshold: f64,
    source: usize,
    max_distance: usize,
) -> MeasuredWave {
    sim_wave_speed_in(
        perturbed,
        baseline,
        threshold,
        source,
        max_distance,
        WaveGeometry::Chain,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_core::{InitialCondition, PomBuilder, Potential};
    use pom_kernels::Kernel;
    use pom_mpisim::{idle_wave_run, IdleWaveConfig};
    use pom_noise::{DelayEvent, OneOffDelays};
    use pom_topology::Topology;

    #[test]
    fn sim_wave_travels_one_rank_per_iteration() {
        let cfg = IdleWaveConfig {
            n_ranks: 24,
            iterations: 24,
            ..IdleWaveConfig::default()
        };
        let (pert, base) = idle_wave_run(&cfg).unwrap();
        let arrivals = sim_wave_arrivals(&pert, &base, 0.5 * cfg.delay_factor * cfg.t_comp);
        // Source rank is disturbed in the injection iteration itself.
        assert_eq!(
            arrivals[cfg.delay_rank].iteration,
            Some(cfg.delay_iteration)
        );
        // One rank per iteration upward: rank 5+r's iteration end is
        // first delayed in iteration delay_iteration + r − 1 (rank 6
        // already stalls in the injection iteration itself).
        for r in 1..6 {
            assert_eq!(
                arrivals[cfg.delay_rank + r].iteration,
                Some(cfg.delay_iteration + r - 1),
                "rank {}",
                cfg.delay_rank + r
            );
        }
        // Speed fit: one iteration (~t_comp) per rank.
        let speed = wave_speed_fit(&arrivals, cfg.delay_rank, 8);
        let up = speed.up.unwrap();
        assert!(up.r2 > 0.99, "r² = {}", up.r2);
        // Seconds per rank ≈ the iteration period (t_comp + small comm).
        assert!(
            (up.slope - cfg.t_comp).abs() < 0.1 * cfg.t_comp,
            "slope {} vs t_comp {}",
            up.slope,
            cfg.t_comp
        );
        assert!(speed.mean_speed().unwrap() > 0.0);
    }

    #[test]
    fn wider_stencil_doubles_sim_speed() {
        let mk = |distances: Vec<i32>| {
            let cfg = IdleWaveConfig {
                n_ranks: 30,
                iterations: 24,
                distances,
                ..IdleWaveConfig::default()
            };
            let (pert, base) = idle_wave_run(&cfg).unwrap();
            let arrivals = sim_wave_arrivals(&pert, &base, 2e-3);
            wave_speed_fit(&arrivals, 5, 10)
        };
        let narrow = mk(vec![-1, 1]);
        let wide = mk(vec![-2, -1, 1]);
        // The −2 leg doubles upward speed: seconds/rank halves.
        let s_narrow = narrow.up.unwrap().slope;
        let s_wide = wide.up.unwrap().slope;
        assert!(
            (s_narrow / s_wide - 2.0).abs() < 0.3,
            "expected ≈2× faster, got {}",
            s_narrow / s_wide
        );
    }

    #[test]
    fn unaffected_ranks_report_none() {
        let cfg = IdleWaveConfig {
            n_ranks: 30,
            iterations: 6, // too short for the wave to cross everything
            delay_iteration: 3,
            ..IdleWaveConfig::default()
        };
        let (pert, base) = idle_wave_run(&cfg).unwrap();
        let arrivals = sim_wave_arrivals(&pert, &base, 2e-3);
        // Ranks ~10+ away cannot have been reached in 3 iterations.
        assert_eq!(arrivals[20].iteration, None);
        assert_eq!(arrivals[20].time, None);
    }

    #[test]
    fn model_wave_arrivals_move_outward() {
        // Oscillator model analog: inject a one-off slowdown on rank 5 and
        // watch the phase deviation front move.
        let n = 24;
        let mk = |inject: bool| {
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
            b.build()
                .unwrap()
                .simulate(InitialCondition::Synchronized, 40.0)
                .unwrap()
        };
        let pert = mk(true);
        let base = mk(false);
        let arrivals = model_wave_arrivals(&pert, &base, 0.05);
        let t5 = arrivals[5].time.expect("source disturbed");
        let t7 = arrivals[7].time.expect("rank 7 reached");
        let t9 = arrivals[9].time.expect("rank 9 reached");
        assert!(
            t5 < t7 && t7 < t9,
            "front must move outward: {t5} {t7} {t9}"
        );
        // Speed fit is usable.
        let speed = wave_speed_fit(&arrivals, 5, 6);
        assert!(speed.up.unwrap().slope > 0.0);
    }

    #[test]
    fn stronger_coupling_speeds_up_model_wave() {
        // §5.1.1: "The larger βκ the faster the wave".
        let n = 24;
        let run = |vp: f64, inject: bool| {
            let mut b = PomBuilder::new(n)
                .topology(Topology::ring(n, &[-1, 1]))
                .potential(Potential::Tanh)
                .compute_time(1.0)
                .comm_time(0.0)
                .coupling(vp);
            if inject {
                b = b.local_noise(OneOffDelays::new(vec![DelayEvent {
                    rank: 5,
                    t_start: 2.0,
                    duration: 2.0,
                    extra: 1.0,
                }]));
            }
            b.build()
                .unwrap()
                .simulate(InitialCondition::Synchronized, 60.0)
                .unwrap()
        };
        let speed_for = |vp: f64| {
            let arrivals = model_wave_arrivals(&run(vp, true), &run(vp, false), 0.05);
            wave_speed_fit(&arrivals, 5, 6)
                .mean_speed()
                .expect("wave detected")
        };
        let slow = speed_for(1.0);
        let fast = speed_for(4.0);
        assert!(fast > 1.5 * slow, "vp=4 speed {fast} vs vp=1 speed {slow}");
    }

    #[test]
    fn speed_fit_handles_missing_sides() {
        // All arrivals on one side only.
        let arrivals = vec![
            WaveArrival {
                rank: 5,
                iteration: None,
                time: Some(0.0),
            },
            WaveArrival {
                rank: 6,
                iteration: None,
                time: Some(1.0),
            },
            WaveArrival {
                rank: 7,
                iteration: None,
                time: Some(2.0),
            },
            WaveArrival {
                rank: 3,
                iteration: None,
                time: None,
            },
        ];
        let speed = wave_speed_fit(&arrivals, 5, 4);
        assert!(speed.up.is_some());
        assert!(speed.down.is_none());
        assert!((speed.mean_speed().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lockstep_sim_has_no_arrivals() {
        let tr = pom_mpisim::lockstep_run(8, 10, Kernel::pisolver(), 1e-3).unwrap();
        let arrivals = sim_wave_arrivals(&tr, &tr, 1e-9);
        assert!(arrivals.iter().all(|a| a.iteration.is_none()));
        let speed = wave_speed_fit(&arrivals, 4, 4);
        assert!(speed.mean_speed().is_none());
        let (up, down) = speed.verdicts();
        assert_eq!(up, WaveVerdict::NotReached);
        assert_eq!(down, WaveVerdict::NotReached);
    }

    fn arrival(rank: usize, time: f64) -> WaveArrival {
        WaveArrival {
            rank,
            iteration: None,
            time: Some(time),
        }
    }

    /// Regression (pre-PR: silently dropped): a direction whose fit has
    /// slope ≤ 0 must be reported as Degenerate, not vanish — and the
    /// other direction's speed must still be measurable.
    #[test]
    fn degenerate_direction_gets_a_verdict() {
        // Up: simultaneous arrival (slope 0). Down: clean 1 rank/unit.
        let arrivals = vec![
            arrival(3, 2.0),
            arrival(4, 1.0),
            arrival(5, 0.0), // source
            arrival(6, 3.0),
            arrival(7, 3.0),
            arrival(8, 3.0),
        ];
        let speed = wave_speed_fit(&arrivals, 5, 4);
        let (up, down) = speed.verdicts();
        assert!(up.is_degenerate(), "flat up fit must be Degenerate: {up:?}");
        assert_eq!(up.speed(), None);
        let WaveVerdict::Degenerate(f) = up else {
            panic!("expected Degenerate, got {up:?}");
        };
        assert_eq!(f.slope, 0.0);
        assert!(matches!(down, WaveVerdict::Propagated(_)));
        // mean_speed documents: average over propagated directions only.
        assert!((speed.mean_speed().unwrap() - 1.0).abs() < 1e-9);

        // Backward ordering (negative slope) is degenerate too.
        let backward = vec![arrival(6, 3.0), arrival(7, 2.0), arrival(8, 1.0)];
        let speed = wave_speed_fit(&backward, 5, 4);
        let (up, down) = speed.verdicts();
        assert!(up.is_degenerate());
        assert_eq!(down, WaveVerdict::NotReached);
        assert!(speed.mean_speed().is_none());
    }

    /// Regression: a single-direction wave must report that side's speed
    /// and NotReached (not a biased mean) for the other.
    #[test]
    fn single_direction_wave_verdicts() {
        let arrivals = vec![arrival(6, 1.0), arrival(7, 2.0), arrival(8, 3.0)];
        let speed = wave_speed_fit(&arrivals, 5, 4);
        let (up, down) = speed.verdicts();
        assert!(matches!(up, WaveVerdict::Propagated(_)));
        assert_eq!(down, WaveVerdict::NotReached);
        assert!((speed.mean_speed().unwrap() - 1.0).abs() < 1e-9);
        assert!((up.speed().unwrap() - 1.0).abs() < 1e-9);
    }

    /// Regression (pre-PR: wrapped arrivals binned at the long linear
    /// distance): on a periodic ring the fit must use wraparound
    /// distance, or a source near the index boundary poisons the fit.
    #[test]
    fn ring_wrap_distances_fit_cleanly() {
        // n = 10, source 8, 1 rank/unit both ways. Upward the front
        // crosses the wrap: ranks 9, 0, 1, 2 at times 1, 2, 3, 4.
        let mut arrivals: Vec<WaveArrival> = (0..10)
            .map(|r| WaveArrival {
                rank: r,
                iteration: None,
                time: None,
            })
            .collect();
        arrivals[8] = arrival(8, 0.0); // source
        for (rank, t) in [(9usize, 1.0), (0, 2.0), (1, 3.0), (2, 4.0)] {
            arrivals[rank] = arrival(rank, t);
        }
        for (rank, t) in [(7usize, 1.0), (6, 2.0), (5, 3.0)] {
            arrivals[rank] = arrival(rank, t);
        }

        let ring = wave_speed_fit_in(&arrivals, 8, 4, WaveGeometry::Ring);
        let up = ring.up.expect("wrapped up side fits");
        assert!((up.slope - 1.0).abs() < 1e-9, "slope {}", up.slope);
        assert!(up.r2 > 0.999, "r² {}", up.r2);
        let down = ring.down.expect("down side fits");
        assert!((down.slope - 1.0).abs() < 1e-9);
        assert!((ring.mean_speed().unwrap() - 1.0).abs() < 1e-9);

        // The chain geometry on the same data shows the failure mode this
        // fixes: ranks 0..2 land on the "down" side at linear distances
        // 8, 7, 6 with *increasing* times → corrupted fit.
        let chain = wave_speed_fit(&arrivals, 8, 8);
        let chain_down = chain.down.expect("poisoned but present");
        assert!(
            chain_down.r2 < 0.7 || chain_down.slope < 0.0,
            "linear-distance fit should be visibly poisoned: {chain_down:?}"
        );
    }

    /// Ring geometry never admits distances beyond ⌊(n−1)/2⌋, whatever
    /// `max_distance` says (the antipode has no unique direction).
    #[test]
    fn ring_caps_max_distance() {
        let arrivals: Vec<WaveArrival> = (0..6).map(|r| arrival(r, r as f64)).collect();
        let speed = wave_speed_fit_in(&arrivals, 0, 100, WaveGeometry::Ring);
        for side in [speed.up, speed.down].into_iter().flatten() {
            assert!(side.n <= 2, "≤ 2 ranks per side on n = 6: {side:?}");
        }
    }

    /// Regression (pre-PR: strict `>` and sample-time reporting): the
    /// threshold comparison is inclusive and the crossing time is
    /// interpolated between the bracketing samples, so a coarse recording
    /// stride does not quantize arrivals late.
    #[test]
    fn strided_arrivals_interpolate_the_crossing() {
        use pom_ode::Trajectory;
        // One component ramping at 1 rad/unit from t = 1: delta(t) =
        // max(0, t − 1). Threshold 0.5 crosses at exactly t = 1.5.
        let mk = |times: &[f64], ramp: bool| {
            let mut tr = Trajectory::new(1);
            for &t in times {
                let v = if ramp { (t - 1.0).max(0.0) } else { 0.0 };
                tr.push(t, &[v]).unwrap();
            }
            tr
        };
        // Fine grid: samples every 0.25.
        let fine: Vec<f64> = (0..17).map(|k| k as f64 * 0.25).collect();
        // Coarse grid (stride 4): samples every 1.0 — the first sample at
        // delta ≥ 0.5 is t = 2.0, half a unit late.
        let coarse: Vec<f64> = (0..5).map(|k| k as f64).collect();

        for grid in [&fine, &coarse] {
            let a = trajectory_wave_arrivals(&mk(grid, true), &mk(grid, false), 0.5);
            let t = a[0].time.expect("crossed");
            assert!(
                (t - 1.5).abs() < 1e-12,
                "grid step {} must interpolate to 1.5, got {t}",
                grid[1] - grid[0]
            );
        }

        // Inclusive threshold: delta exactly == threshold at a sample
        // counts, and reports that sample's time.
        let a = trajectory_wave_arrivals(&mk(&fine, true), &mk(&fine, false), 0.25);
        assert!((a[0].time.unwrap() - 1.25).abs() < 1e-12);

        // Never crossed → None.
        let a = trajectory_wave_arrivals(&mk(&fine, true), &mk(&fine, false), 100.0);
        assert_eq!(a[0].time, None);
    }

    /// The stride fix end-to-end: the same model run recorded at stride 1
    /// and stride ~8 must agree on arrival times to within the fine step
    /// (pre-PR the coarse run reported up to a whole coarse sample late).
    #[test]
    fn model_arrivals_stable_under_recording_stride() {
        let n = 16;
        let mk = |inject: bool, samples: usize| {
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
            b.build()
                .unwrap()
                .simulate_with(
                    InitialCondition::Synchronized,
                    &pom_core::SimOptions::new(30.0)
                        .samples(samples)
                        .solver(pom_core::SolverChoice::FixedRk4 { h: 0.01 }),
                )
                .unwrap()
        };
        let fine = model_wave_arrivals(&mk(true, 3000), &mk(false, 3000), 0.05);
        let coarse = model_wave_arrivals(&mk(true, 375), &mk(false, 375), 0.05);
        for (f, c) in fine.iter().zip(&coarse) {
            match (f.time, c.time) {
                (Some(tf), Some(tc)) => assert!(
                    (tf - tc).abs() < 0.05,
                    "rank {}: fine {tf} vs coarse {tc}",
                    f.rank
                ),
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "rank {}", f.rank),
            }
        }
    }
}
