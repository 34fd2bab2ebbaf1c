//! Elementwise stage arithmetic on a system's chunks.
//!
//! The fixed-step steppers combine stage vectors elementwise (`y + ½h·k₁`,
//! the RK4 weighted sum) and the drivers scan each new state for
//! non-finite values. A system whose right-hand side runs on worker
//! threads lends them through `for_chunks`
//! ([`crate::OdeSystem::for_chunks`], [`crate::DdeSystem::for_chunks`]),
//! and these helpers run the same per-element expressions on its chunks.
//! An element's value never depends on the chunking, so the results are
//! bitwise those of one serial loop.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A system's `for_chunks`: runs `f(offset, chunk)` over a cover of the
/// slice by disjoint contiguous chunks.
pub(crate) type Chunks<'a> = &'a dyn Fn(&mut [f64], &(dyn Fn(usize, &mut [f64]) + Sync));

/// `out[i] = f([a[i] for a in ins])` for every element `i`.
#[inline]
pub(crate) fn combine<const K: usize>(
    chunks: Chunks<'_>,
    out: &mut [f64],
    ins: [&[f64]; K],
    f: impl Fn([f64; K]) -> f64 + Sync,
) {
    debug_assert!(ins.iter().all(|a| a.len() == out.len()));
    chunks(out, &|start, out| {
        let n = out.len();
        // Slices of exactly `n` elements: the loop below needs no bounds
        // checks and vectorizes.
        let mut rows: [&[f64]; K] = [&[]; K];
        for k in 0..K {
            rows[k] = &ins[k][start..start + n];
        }
        for q in 0..n {
            let mut x = [0.0; K];
            for k in 0..K {
                x[k] = rows[k][q];
            }
            out[q] = f(x);
        }
    });
}

/// The lowest index of a non-finite element of `v`, if any. (`v` is
/// `&mut` only because chunks are lent mutably; it is not written.)
pub(crate) fn first_non_finite(chunks: Chunks<'_>, v: &mut [f64]) -> Option<usize> {
    let first = AtomicUsize::new(usize::MAX);
    chunks(v, &|start, chunk| {
        if let Some(p) = chunk.iter().position(|x| !x.is_finite()) {
            first.fetch_min(start + p, Ordering::Relaxed);
        }
    });
    Some(first.into_inner()).filter(|&i| i != usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three uneven chunks (`0..len/3`, the next `len/3 + 1`, the rest),
    /// run first to last or last to first.
    fn thirds(reverse: bool, out: &mut [f64], f: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        let len = out.len();
        let (a, rest) = out.split_at_mut(len / 3);
        let (b, c) = rest.split_at_mut(len / 3 + 1);
        let (at_b, at_c) = (a.len(), a.len() + b.len());
        if reverse {
            f(at_c, c);
            f(at_b, b);
            f(0, a);
        } else {
            f(0, a);
            f(at_b, b);
            f(at_c, c);
        }
    }

    #[test]
    fn combine_is_chunking_invariant() {
        let y: Vec<f64> = (0..101).map(|i| (i as f64 * 0.3).sin()).collect();
        let k: Vec<f64> = (0..101).map(|i| (i as f64 * 0.7).cos()).collect();
        let h = 0.013;
        let mut want = vec![0.0; 101];
        for i in 0..101 {
            want[i] = y[i] + 0.5 * h * k[i];
        }
        for reverse in [false, true] {
            let mut got = vec![0.0; 101];
            combine(
                &|o, f| thirds(reverse, o, f),
                &mut got,
                [&y, &k],
                |[y, k]| y + 0.5 * h * k,
            );
            assert_eq!(got, want);
        }
    }

    #[test]
    fn first_non_finite_reports_the_lowest_index() {
        // Chunks 0..30, 30..61 and 61..90.
        let mut v = vec![1.0; 90];
        assert_eq!(first_non_finite(&|o, f| thirds(false, o, f), &mut v), None);
        v[70] = f64::NAN;
        v[45] = f64::INFINITY;
        v[40] = f64::NEG_INFINITY;
        for reverse in [false, true] {
            assert_eq!(
                first_non_finite(&|o, f| thirds(reverse, o, f), &mut v),
                Some(40)
            );
        }
    }
}
