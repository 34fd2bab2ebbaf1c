//! Process-local noise `ζ_i(t)`: frequency jitter, load imbalance, and
//! one-off delay injections.
//!
//! In Eq. (2) the local term enters the *period*:
//! `θ̇_i = 2π / (t_comp + t_comm + ζ_i(t)) + …` — positive `ζ` slows
//! oscillator `i` down. The paper uses it for (a) fine-grained system
//! noise, (b) static load imbalance, and (c) the singular extra workload
//! that launches an idle wave (§5.1: "a one-off delay (extra workload
//! performed by the 5th MPI process)").

use crate::rng::FrozenField;

/// Process-local noise: a deterministic ("frozen") function of rank and
/// time, added to the cycle duration.
pub trait LocalNoise: Send + Sync {
    /// Extra cycle time for `rank` at time `t` (may be negative for a
    /// process that is temporarily *faster*, but must keep the total period
    /// positive — the model clamps, see `pom-core`).
    fn zeta(&self, rank: usize, t: f64) -> f64;

    /// `true` if this noise is identically zero (lets the model skip the
    /// call in the hot RHS loop).
    fn is_null(&self) -> bool {
        false
    }
}

/// The silent system: `ζ ≡ 0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNoise;

impl LocalNoise for NoNoise {
    fn zeta(&self, _rank: usize, _t: f64) -> f64 {
        0.0
    }
    fn is_null(&self) -> bool {
        true
    }
}

/// Gaussian jitter with standard deviation `sigma` and correlation time
/// `corr_time`, built on a `FrozenField`.
#[derive(Debug, Clone, Copy)]
pub struct WhiteJitter {
    field: FrozenField,
    sigma: f64,
}

impl WhiteJitter {
    /// Jitter of strength `sigma` (seconds), decorrelating over
    /// `corr_time` (seconds).
    pub fn new(seed: u64, sigma: f64, corr_time: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite());
        Self {
            field: FrozenField::new(seed, corr_time),
            sigma,
        }
    }
}

impl LocalNoise for WhiteJitter {
    fn zeta(&self, rank: usize, t: f64) -> f64 {
        self.sigma * self.field.sample(rank, t)
    }
    fn is_null(&self) -> bool {
        self.sigma == 0.0
    }
}

/// A single injected delay: `rank` runs `extra` seconds slower per cycle
/// during `[t_start, t_start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayEvent {
    /// Affected rank.
    pub rank: usize,
    /// Start of the injection window (seconds).
    pub t_start: f64,
    /// Length of the injection window (seconds).
    pub duration: f64,
    /// Extra cycle time during the window (seconds).
    pub extra: f64,
}

impl DelayEvent {
    fn active(&self, rank: usize, t: f64) -> bool {
        rank == self.rank && t >= self.t_start && t < self.t_start + self.duration
    }
}

/// A set of one-off delay injections (paper §5.1).
#[derive(Debug, Clone, Default)]
pub struct OneOffDelays {
    events: Vec<DelayEvent>,
}

impl OneOffDelays {
    /// Build from a list of events.
    pub fn new(events: Vec<DelayEvent>) -> Self {
        Self { events }
    }

    /// The configured events.
    pub fn events(&self) -> &[DelayEvent] {
        &self.events
    }
}

impl LocalNoise for OneOffDelays {
    fn zeta(&self, rank: usize, t: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active(rank, t))
            .map(|e| e.extra)
            .sum()
    }
    fn is_null(&self) -> bool {
        self.events.is_empty()
    }
}

/// Sum of several noise sources (e.g. background jitter + an injected
/// one-off delay).
#[derive(Default)]
pub struct SumNoise {
    parts: Vec<Box<dyn LocalNoise>>,
}

impl SumNoise {
    /// Empty sum (≡ 0).
    pub fn new() -> Self {
        Self { parts: Vec::new() }
    }

    /// Add a component (builder style).
    pub fn with(mut self, part: impl LocalNoise + 'static) -> Self {
        self.parts.push(Box::new(part));
        self
    }

    /// Number of components.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.parts.len()
    }
}

impl LocalNoise for SumNoise {
    fn zeta(&self, rank: usize, t: f64) -> f64 {
        self.parts.iter().map(|p| p.zeta(rank, t)).sum()
    }
    fn is_null(&self) -> bool {
        self.parts.iter().all(|p| p.is_null())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_noise_is_null_and_zero() {
        assert!(NoNoise.is_null());
        assert_eq!(NoNoise.zeta(3, 1.5), 0.0);
    }

    #[test]
    fn white_jitter_reproducible_and_scaled() {
        let j = WhiteJitter::new(1, 0.25, 0.5);
        assert_eq!(j.zeta(0, 1.0), j.zeta(0, 1.0));
        let j0 = WhiteJitter::new(1, 0.0, 0.5);
        assert!(j0.is_null());
        assert_eq!(j0.zeta(0, 1.0), 0.0);
        // Scaling: sigma doubles the sample.
        let j2 = WhiteJitter::new(1, 0.5, 0.5);
        assert!((j2.zeta(0, 1.0) - 2.0 * j.zeta(0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn one_off_delay_window_and_rank() {
        let inj = OneOffDelays::new(vec![DelayEvent {
            rank: 5,
            t_start: 2.0,
            duration: 1.0,
            extra: 0.7,
        }]);
        assert_eq!(inj.zeta(5, 2.5), 0.7);
        assert_eq!(inj.zeta(5, 1.9), 0.0);
        assert_eq!(inj.zeta(5, 3.0), 0.0); // half-open window
        assert_eq!(inj.zeta(4, 2.5), 0.0); // other rank
    }

    #[test]
    fn overlapping_events_sum() {
        let inj = OneOffDelays::new(vec![
            DelayEvent {
                rank: 0,
                t_start: 0.0,
                duration: 2.0,
                extra: 0.1,
            },
            DelayEvent {
                rank: 0,
                t_start: 1.0,
                duration: 2.0,
                extra: 0.2,
            },
        ]);
        assert!((inj.zeta(0, 1.5) - 0.3).abs() < 1e-12);
        assert!((inj.zeta(0, 0.5) - 0.1).abs() < 1e-12);
        assert!((inj.zeta(0, 2.5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sum_noise_combines() {
        let s = SumNoise::new()
            .with(OneOffDelays::new(vec![DelayEvent {
                rank: 1,
                t_start: 0.0,
                duration: 10.0,
                extra: 0.5,
            }]))
            .with(OneOffDelays::new(vec![DelayEvent {
                rank: 1,
                t_start: 0.0,
                duration: 10.0,
                extra: 0.25,
            }]));
        assert_eq!(s.len(), 2);
        assert!((s.zeta(1, 5.0) - 0.75).abs() < 1e-12);
        assert_eq!(s.zeta(0, 5.0), 0.0);
        assert!(!s.is_null());
        assert!(SumNoise::new().is_null());
        assert!(SumNoise::new().with(NoNoise).is_null());
    }
}
