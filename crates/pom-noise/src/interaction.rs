//! Interaction noise `τ_ij(t)`: random communication delays.
//!
//! Paper §3.1: interaction noise models "random delays caused by varying
//! communication time" and "impacts the phase difference
//! `θ(t, τ_ij(t)) = θ_j(t − τ_ij(t)) − θ_i(t)`" — oscillator `i` sees a
//! *stale* phase of its partner `j`. With any nonzero `τ` the model
//! becomes a delay differential equation (solved by `pom_ode::dde`).

use crate::rng::FrozenField;

/// Pairwise communication delay: a deterministic function of the rank pair
/// and time, always ≥ 0.
///
/// Every delay field is built on a time lattice. `τ_ij(t)` depends on `t`
/// only through the lattice cell holding it ([`cell`](Self::cell)), and on
/// the pair only through that cell's two nodes ([`knots`](Self::knots));
/// [`delay_at`](Self::delay_at) maps the nodes and the position inside the
/// cell to the delay. [`tau`](Self::tau) is exactly that composition, so a
/// caller evaluating many pairs at nearby times can keep each pair's nodes
/// and recompute them only when the cell changes, with the same bits:
///
/// ```
/// use pom_noise::{InteractionNoise, RandomCommDelay};
///
/// let d = RandomCommDelay::new(7, 16, 0.1, 0.05, 0.5);
/// let t = 1.3;
/// let (k, frac) = d.cell(t);
/// assert_eq!(d.tau(2, 3, t), d.delay_at(d.knots(2, 3, k), frac));
/// // Moving on one cell keeps the shared node: b of cell k is a of k + 1.
/// assert_eq!(d.knots(2, 3, k + 1)[0], d.knots(2, 3, k)[1]);
/// ```
pub trait InteractionNoise: Send + Sync {
    /// The lattice cell holding `t`: its index `k` and the position
    /// `frac ∈ [0, 1]` of `t` between the cell's two nodes.
    fn cell(&self, t: f64) -> (i64, f64);

    /// Lattice node `k` of the pair `(i, j)`: the first node of cell `k`
    /// and the second of cell `k − 1`.
    fn knot(&self, i: usize, j: usize, k: i64) -> f64;

    /// The two nodes `[a, b]` of cell `k` for the pair `(i, j)`.
    fn knots(&self, i: usize, j: usize, k: i64) -> [f64; 2] {
        [self.knot(i, j, k), self.knot(i, j, k + 1)]
    }

    /// The delay at position `frac` of a cell whose nodes are `knots`.
    fn delay_at(&self, knots: [f64; 2], frac: f64) -> f64;

    /// Delay `τ_ij(t)` in seconds.
    fn tau(&self, i: usize, j: usize, t: f64) -> f64 {
        let (k, frac) = self.cell(t);
        self.delay_at(self.knots(i, j, k), frac)
    }

    /// A bound on the largest delay the model can produce (sizing the DDE
    /// history buffer).
    fn max_delay(&self) -> f64;

    /// `true` if the delay is identically zero (the model then solves a
    /// plain ODE instead of a DDE).
    fn is_null(&self) -> bool {
        self.max_delay() == 0.0
    }

    /// Stable identity of the delay field: two models returning equal
    /// `Some` values MUST produce bitwise-identical `cell`, `knot` and
    /// `delay_at` (hence `tau(i, j, t)`) for every query. `None` means
    /// "unknown" and is never treated as shared.
    ///
    /// Replicas of one scenario run on the same (modelled) machine, so
    /// they usually share the hardware's delay field while differing in
    /// their stochastic state; the batched ensemble RHS uses this to
    /// evaluate the field once per pair instead of once per replica.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// No communication delay: the coupling sees current phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDelay;

/// One cell whose two nodes are both 0.
impl InteractionNoise for NoDelay {
    fn cell(&self, _t: f64) -> (i64, f64) {
        (0, 0.0)
    }
    fn knot(&self, _i: usize, _j: usize, _k: i64) -> f64 {
        0.0
    }
    fn delay_at(&self, [a, _]: [f64; 2], _frac: f64) -> f64 {
        a
    }
    fn max_delay(&self) -> f64 {
        0.0
    }
    fn fingerprint(&self) -> Option<u64> {
        Some(crate::rng::SplitMix64::hash3(0x006e_6f64_656c_6179, 0, 0))
    }
}

/// Constant delay for every pair (e.g. a fixed network latency expressed
/// in units of the oscillator time).
#[derive(Debug, Clone, Copy)]
pub struct ConstantDelay {
    delay: f64,
}

impl ConstantDelay {
    /// A constant delay (must be ≥ 0 and finite).
    pub fn new(delay: f64) -> Self {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "delay must be non-negative"
        );
        Self { delay }
    }
}

/// One cell whose two nodes are both the delay.
impl InteractionNoise for ConstantDelay {
    fn cell(&self, _t: f64) -> (i64, f64) {
        (0, 0.0)
    }
    fn knot(&self, _i: usize, _j: usize, _k: i64) -> f64 {
        self.delay
    }
    fn delay_at(&self, [a, _]: [f64; 2], _frac: f64) -> f64 {
        a
    }
    fn max_delay(&self) -> f64 {
        self.delay
    }
    fn fingerprint(&self) -> Option<u64> {
        Some(crate::rng::SplitMix64::hash3(
            0x636f_6e73_745f_7461_u64,
            self.delay.to_bits(),
            0,
        ))
    }
}

/// Random pairwise delay: `mean + spread·w(pair, t)` clamped to
/// `[0, mean + 3·spread]`, with `w` a frozen standard-normal field over a
/// lattice of correlation time `corr_time`.
///
/// The pair `(i, j)` is hashed order-sensitively: the delay `i ← j` need
/// not equal `j ← i` (MPI traffic is not symmetric in time).
#[derive(Debug, Clone, Copy)]
pub struct RandomCommDelay {
    field: FrozenField,
    mean: f64,
    spread: f64,
    /// Ranks are folded into a single lattice "rank" index; this is the
    /// stride used for the fold.
    stride: usize,
}

impl RandomCommDelay {
    /// Random delays with the given `mean` and `spread` (both seconds),
    /// decorrelating over `corr_time`. `n_ranks` bounds the pair-index
    /// folding.
    pub fn new(seed: u64, n_ranks: usize, mean: f64, spread: f64, corr_time: f64) -> Self {
        assert!(
            mean >= 0.0 && spread >= 0.0,
            "delay parameters must be non-negative"
        );
        Self {
            field: FrozenField::new(seed, corr_time),
            mean,
            spread,
            stride: n_ranks.max(1),
        }
    }
}

/// The lattice is the frozen field's: `τ` interpolates the pair's two
/// standard-normal nodes exactly as `FrozenField::sample` does, then
/// scales, shifts and clamps.
impl InteractionNoise for RandomCommDelay {
    fn cell(&self, t: f64) -> (i64, f64) {
        self.field.cell(t)
    }
    fn knot(&self, i: usize, j: usize, k: i64) -> f64 {
        self.field.node(i * self.stride + j, k)
    }
    fn delay_at(&self, [a, b]: [f64; 2], frac: f64) -> f64 {
        let w = a + frac * (b - a);
        (self.mean + self.spread * w).clamp(0.0, self.max_delay())
    }

    fn max_delay(&self) -> f64 {
        self.mean + 3.0 * self.spread
    }
    fn fingerprint(&self) -> Option<u64> {
        use crate::rng::SplitMix64;
        let params = SplitMix64::hash3(
            self.mean.to_bits(),
            self.spread.to_bits(),
            self.stride as u64,
        );
        Some(SplitMix64::hash3(
            0x7261_6e64_5f74_6175_u64,
            SplitMix64::hash3(self.field.seed(), self.field.dt().to_bits(), 0),
            params,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_delay_is_null() {
        assert!(NoDelay.is_null());
        assert_eq!(NoDelay.tau(0, 1, 5.0), 0.0);
        assert_eq!(NoDelay.max_delay(), 0.0);
    }

    #[test]
    fn constant_delay() {
        let d = ConstantDelay::new(0.3);
        assert_eq!(d.tau(0, 1, 0.0), 0.3);
        assert_eq!(d.tau(7, 2, 99.0), 0.3);
        assert_eq!(d.max_delay(), 0.3);
        assert!(!d.is_null());
        assert!(ConstantDelay::new(0.0).is_null());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn constant_delay_rejects_negative() {
        ConstantDelay::new(-0.1);
    }

    #[test]
    fn random_delay_bounds_and_determinism() {
        let d = RandomCommDelay::new(4, 16, 0.1, 0.05, 1.0);
        for (i, j, t) in [(0, 1, 0.0), (3, 2, 1.5), (15, 0, 7.25)] {
            let tau = d.tau(i, j, t);
            assert!(tau >= 0.0 && tau <= d.max_delay(), "tau = {tau}");
            assert_eq!(tau, d.tau(i, j, t), "determinism");
        }
    }

    #[test]
    fn random_delay_is_direction_sensitive() {
        let d = RandomCommDelay::new(4, 16, 0.1, 0.05, 1.0);
        // Almost surely different for swapped pairs.
        assert_ne!(d.tau(2, 3, 0.7), d.tau(3, 2, 0.7));
    }

    #[test]
    fn random_delay_mean_close_to_parameter() {
        let d = RandomCommDelay::new(8, 4, 0.2, 0.02, 0.5);
        let mut acc = 0.0;
        let n = 10_000;
        for k in 0..n {
            acc += d.tau(1, 2, k as f64 * 0.37);
        }
        let mean = acc / n as f64;
        assert!((mean - 0.2).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn random_delay_interpolates_the_frozen_field() {
        let d = RandomCommDelay::new(4, 16, 0.1, 0.05, 0.25);
        let field = FrozenField::new(4, 0.25);
        for step in -8..40 {
            let t = step as f64 * 0.07;
            let want = (0.1 + 0.05 * field.sample(3 * 16 + 5, t)).clamp(0.0, d.max_delay());
            assert_eq!(d.tau(3, 5, t).to_bits(), want.to_bits(), "t = {t}");
        }
    }

    #[test]
    fn consecutive_cells_share_a_knot() {
        let fields: [&dyn InteractionNoise; 3] = [
            &NoDelay,
            &ConstantDelay::new(0.3),
            &RandomCommDelay::new(4, 16, 0.1, 0.05, 0.25),
        ];
        for d in fields {
            for k in -3..10 {
                assert_eq!(d.knots(3, 5, k + 1)[0], d.knots(3, 5, k)[1]);
            }
            for step in -8..40 {
                let (k, frac) = d.cell(step as f64 * 0.07);
                assert!((0.0..=1.0).contains(&frac), "frac = {frac}");
                assert_eq!(
                    d.delay_at(d.knots(3, 5, k), frac),
                    d.tau(3, 5, step as f64 * 0.07)
                );
            }
        }
    }

    #[test]
    fn zero_spread_is_constant() {
        let d = RandomCommDelay::new(8, 4, 0.15, 0.0, 0.5);
        assert_eq!(d.tau(0, 1, 0.0), 0.15);
        assert_eq!(d.tau(2, 3, 9.0), 0.15);
        assert_eq!(d.max_delay(), 0.15);
    }
}
