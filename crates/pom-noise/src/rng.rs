//! Deterministic pseudo-random number generation, implemented from scratch.
//!
//! Two generators:
//!
//! * [`SplitMix64`] — Steele/Lea/Vigna's 64-bit mixer. Counter-based: every
//!   output is a pure function of the state, which makes it ideal both for
//!   seeding and for *frozen noise fields* (hash a `(seed, rank, lattice
//!   index)` triple to a reproducible value, no stored path needed).
//! * [`Xoshiro256pp`] — Blackman/Vigna's xoshiro256++ 1.0, the
//!   general-purpose stream generator used by the simulator.
//!
//! Hand-rolling the PRNG (rather than pulling in `rand`) keeps the noise
//! bit-reproducible across library versions — reproducibility of runs is a
//! core requirement for a performance-model artifact.

/// SplitMix64: a fast, well-mixed 64-bit generator and hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::mix(self.state)
    }

    /// The SplitMix64 output mix as a pure function (finalizer). Used to
    /// hash lattice coordinates into reproducible random values.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hash a triple (e.g. seed, rank, lattice index) to one 64-bit value.
    #[inline]
    pub fn hash3(a: u64, b: u64, c: u64) -> u64 {
        // Sequential absorb-and-mix; each round is the SplitMix64 step.
        let mut h = a ^ 0x51_7C_C1_B7_27_22_0A_95;
        h = Self::mix(h.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(b));
        h = Self::mix(h.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(c));
        Self::mix(h)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna, 2019).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64 expansion (the recommended procedure).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid (fixed point); the SplitMix expansion
        // of any seed never produces it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// A *frozen* scalar noise field `w(rank, t)`: standard-normal values on a
/// regular time lattice (spacing `dt`), linearly interpolated in `t`, fully
/// determined by `(seed, rank, lattice index)` hashing — no storage, same
/// value for the same arguments forever.
///
/// The lattice spacing acts as the correlation time of the jitter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrozenField {
    seed: u64,
    dt: f64,
}

impl FrozenField {
    /// Create a field with correlation time `dt` (must be positive).
    pub(crate) fn new(seed: u64, dt: f64) -> Self {
        assert!(
            dt > 0.0 && dt.is_finite(),
            "lattice spacing must be positive"
        );
        Self { seed, dt }
    }

    /// Standard-normal value at lattice node `k` for `rank`.
    pub(crate) fn node(&self, rank: usize, k: i64) -> f64 {
        let h = SplitMix64::hash3(self.seed, rank as u64, k as u64);
        // Two 32-bit halves → two uniforms → Box–Muller cosine branch.
        let u1 = ((h >> 32) as f64 + 0.5) / 4294967296.0;
        let u2 = ((h & 0xFFFF_FFFF) as f64 + 0.5) / 4294967296.0;
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The field's seed (part of its deterministic identity).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The lattice spacing (part of the field's deterministic identity).
    pub(crate) fn dt(&self) -> f64 {
        self.dt
    }

    /// The lattice cell holding `t`: node index `k = ⌊t/dt⌋` and the
    /// position `frac ∈ [0, 1]` of `t` between nodes `k` and `k + 1`.
    pub(crate) fn cell(&self, t: f64) -> (i64, f64) {
        let x = t / self.dt;
        let k = x.floor();
        (k as i64, x - k)
    }

    /// Sample the field at time `t` for `rank` (standard-normal marginals,
    /// triangular autocorrelation of width `dt`).
    pub(crate) fn sample(&self, rank: usize, t: f64) -> f64 {
        let (k, frac) = self.cell(t);
        let a = self.node(rank, k);
        let b = self.node(rank, k + 1);
        a + frac * (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vectors() {
        // Reference outputs for seed 0 (Vigna's splitmix64.c).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn splitmix_seed_sensitivity() {
        let a = SplitMix64::new(1).next_u64();
        let b = SplitMix64::new(2).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn hash3_deterministic_and_sensitive() {
        let h1 = SplitMix64::hash3(1, 2, 3);
        assert_eq!(h1, SplitMix64::hash3(1, 2, 3));
        assert_ne!(h1, SplitMix64::hash3(1, 2, 4));
        assert_ne!(h1, SplitMix64::hash3(1, 3, 2));
        assert_ne!(h1, SplitMix64::hash3(2, 2, 3));
    }

    #[test]
    fn xoshiro_deterministic_stream() {
        let mut a = Xoshiro256pp::seeded(42);
        let mut b = Xoshiro256pp::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seeded(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_moments() {
        let mut g = Xoshiro256pp::seeded(7);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn frozen_field_deterministic() {
        let f = FrozenField::new(99, 0.5);
        assert_eq!(f.sample(3, 1.234), f.sample(3, 1.234));
        assert_ne!(f.sample(3, 1.234), f.sample(4, 1.234));
    }

    #[test]
    fn frozen_field_continuous() {
        let f = FrozenField::new(1, 0.5);
        // Piecewise-linear: tiny t change ⇒ tiny value change.
        let a = f.sample(0, 1.0);
        let b = f.sample(0, 1.0 + 1e-9);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn frozen_field_marginals_are_standard_normal_on_lattice() {
        let f = FrozenField::new(2, 1.0);
        let n = 100_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for k in 0..n {
            // Exactly on lattice nodes (no interpolation variance loss).
            let x = f.sample(0, k as f64);
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frozen_field_rejects_bad_dt() {
        FrozenField::new(0, 0.0);
    }
}
