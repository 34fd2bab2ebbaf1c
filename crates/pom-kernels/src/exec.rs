//! Executable versions of the paper's micro-kernels.
//!
//! These are the actual loops (in Rust instead of Fortran/C): useful for
//! the examples, and for tests that sanity-check the *relative* in-core
//! costs assumed by the analytic [`crate::kernel::Kernel`] descriptors
//! (e.g. the slow Schönauer triad really is much slower per element than
//! the STREAM triad).

/// One STREAM triad sweep: `a[i] = b[i] + s * c[i]`.
///
/// Returns a checksum (sum of `a`) so optimizers cannot elide the loop.
pub fn stream_triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64) -> f64 {
    assert!(
        a.len() == b.len() && b.len() == c.len(),
        "array length mismatch"
    );
    for i in 0..a.len() {
        a[i] = b[i] + s * c[i];
    }
    a.iter().sum()
}

/// One "slow" Schönauer triad sweep: `a[i] = b[i] + cos(c[i] / d[i])`.
pub fn schoenauer_slow(a: &mut [f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
    assert!(
        a.len() == b.len() && b.len() == c.len() && c.len() == d.len(),
        "array length mismatch"
    );
    for i in 0..a.len() {
        a[i] = b[i] + (c[i] / d[i]).cos();
    }
    a.iter().sum()
}

/// PISOLVER: midpoint-rule quadrature of `∫₀¹ 4/(1+x²) dx = π` with
/// `steps` intervals (the paper uses 500 M; tests use far fewer).
pub fn pisolver(steps: u64) -> f64 {
    assert!(steps > 0);
    let w = 1.0 / steps as f64;
    let mut sum = 0.0;
    for k in 0..steps {
        let x = (k as f64 + 0.5) * w;
        sum += 4.0 / (1.0 + x * x);
    }
    sum * w
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn pisolver_converges_to_pi() {
        let est = pisolver(100_000);
        assert!((est - PI).abs() < 1e-9, "estimate {est}");
        // Midpoint rule is second order: 10× steps ⇒ ~100× error drop.
        let coarse = (pisolver(1_000) - PI).abs();
        let fine = (pisolver(10_000) - PI).abs();
        assert!(fine < coarse / 50.0);
    }

    #[test]
    fn stream_triad_computes() {
        let b = vec![1.0; 64];
        let c = vec![2.0; 64];
        let mut a = vec![0.0; 64];
        let sum = stream_triad(&mut a, &b, &c, 3.0);
        assert!(a.iter().all(|&x| (x - 7.0).abs() < 1e-15));
        assert!((sum - 7.0 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn schoenauer_computes() {
        let b = vec![1.0; 16];
        let c = vec![0.0; 16];
        let d = vec![2.0; 16];
        let mut a = vec![0.0; 16];
        schoenauer_slow(&mut a, &b, &c, &d);
        // cos(0/2) = 1 ⇒ a = 2.
        assert!(a.iter().all(|&x| (x - 2.0).abs() < 1e-15));
    }

    #[test]
    fn slow_triad_really_is_slower_per_element() {
        // Relative in-core cost check backing the Kernel descriptors. Use
        // enough work to dominate timer noise but stay fast in CI.
        let n = 200_000;
        let b = vec![1.1; n];
        let c = vec![2.2; n];
        let d = vec![3.3; n];
        let mut a = vec![0.0; n];

        let reps = 20;
        let t0 = std::time::Instant::now();
        let mut sink = 0.0;
        for _ in 0..reps {
            sink += stream_triad(&mut a, &b, &c, 1.5);
        }
        let t_stream = t0.elapsed();

        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            sink += schoenauer_slow(&mut a, &b, &c, &d);
        }
        let t_slow = t0.elapsed();

        assert!(sink.is_finite());
        // In-memory (cache-resident) data: the cos/div loop must be
        // substantially slower per sweep. Keep margin loose for CI noise.
        assert!(
            t_slow > t_stream,
            "slow triad {t_slow:?} should exceed stream {t_stream:?}"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn stream_checks_lengths() {
        let mut a = vec![0.0; 4];
        stream_triad(&mut a, &[0.0; 4], &[0.0; 3], 1.0);
    }
}
