//! Right-hand-side kernel selection and the sin/cos-split fast path.
//!
//! Evaluating Eq. (2) costs one transcendental per neighbor per stage in
//! the reference implementation — the dominant cost of every large-`N`
//! run. For the periodic potentials (`KuramotoSin`, and the sine branch of
//! `Desync`) the addition theorem
//!
//! ```text
//! sin(k·(θⱼ − θᵢ)) = sin(kθⱼ)·cos(kθᵢ) − cos(kθⱼ)·sin(kθᵢ)
//! ```
//!
//! turns `deg(i)` sine evaluations per oscillator into **one** sin/cos pair
//! per oscillator (computed in a vectorizable array pass) plus two
//! multiply–adds per neighbor. This module provides:
//!
//! * [`RhsKernel`] — the public selector between the bitwise-reference
//!   [`RhsKernel::Exact`] path and the [`RhsKernel::SinCosSplit`] fast
//!   path;
//! * a branch-free polynomial `sin`/`cos` array pass (Chebyshev fits on
//!   `|r| ≤ π/2` after modulo-π reduction, ≤ 1e-13 absolute error,
//!   runtime-dispatched to AVX-512 or AVX2 recompilations where the CPU
//!   has them);
//! * the split-kernel row loops over either a [`pom_topology::RingStencil`]
//!   (index-free, wrap rows peeled off the contiguous bulk) or a flat
//!   [`pom_topology::CsrView`], plus the noise-free row finalization —
//!   one body each, generic over a replica `Width`: a single model runs
//!   them at the compile-time width `One` (the single-replica loops), a
//!   lockstep ensemble at its replica count over the interleaved state.
//!
//! ## Accuracy policy
//!
//! `Exact` evaluates every pair interaction through `libm` (`f64::sin`,
//! `f64::tanh`, …) in ascending-neighbor order: results are bitwise
//! reproducible across runs, workspace reuse, thread counts *and*
//! machines, and identical to the pre-kernel-layer implementation. It is
//! the default and what reproduction tests pin against.
//!
//! `SinCosSplit` changes the arithmetic (split trig identity, polynomial
//! kernels, fixed-by-offset accumulation order). It stays within `~1e-12`
//! of `Exact` per evaluation (property-tested) and is bitwise identical
//! across reruns and `rhs_threads` values. Its SIMD tiers recompile the
//! scalar bodies without fused multiply-adds, so every tier gives the
//! scalar body's bits and a run does not depend on which tier the CPU
//! selects. Potentials without a sine structure
//! (`Tanh`) fall back to the exact per-pair math under this kernel and
//! still benefit from flat-CSR iteration and chunked parallelism.

use pom_ode::Accuracy;
use pom_topology::{CsrView, RingStencil};

use crate::rhs::NodeTable;

/// Selects how the oscillator coupling sum is evaluated.
///
/// The `kernel` module documentation states the accuracy policy. The
/// kernel never changes *what* is computed — only how; campaign results
/// produced with `Exact` are the bitwise reference, `SinCosSplit` trades
/// `~1e-12` reproducibility for large-`N` throughput.
///
/// ```
/// use pom_core::{InitialCondition, PomBuilder, Potential, RhsKernel, SimOptions};
/// use pom_topology::Topology;
///
/// let build = |kernel: RhsKernel| {
///     PomBuilder::new(32)
///         .topology(Topology::ring(32, &[-1, 1]))
///         .potential(Potential::KuramotoSin)
///         .coupling(2.0)
///         .kernel(kernel)
///         .build()
///         .unwrap()
/// };
/// let init = InitialCondition::RandomSpread { amplitude: 0.8, seed: 9 };
/// let opts = SimOptions::new(5.0).samples(10);
/// let exact = build(RhsKernel::Exact).simulate_with(init.clone(), &opts).unwrap();
/// let split = build(RhsKernel::SinCosSplit).simulate_with(init, &opts).unwrap();
/// let (a, b) = (exact.trajectory().last().unwrap(), split.trajectory().last().unwrap());
/// for i in 0..32 {
///     assert!((a[i] - b[i]).abs() < 1e-9); // well within the 1e-12/eval policy
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RhsKernel {
    /// Reference path: `libm` transcendentals, ascending-neighbor
    /// accumulation, bitwise identical to the pre-kernel-layer code.
    #[default]
    Exact,
    /// Fast path: per-evaluation `sin`/`cos` arrays + the angle-addition
    /// expansion for sine-structured potentials; `~1e-12` from `Exact`.
    /// The streamed statistics of an observed run (the order parameter of
    /// `pom_analysis::RunSummaryProbe`) use the same polynomial `sin`/`cos`
    /// and fall under the same policy.
    SinCosSplit,
}

impl RhsKernel {
    /// Parse a spec/CLI name (`"exact"` or `"sincos"`/`"split"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "exact" => Some(RhsKernel::Exact),
            "sincos" | "sin-cos" | "split" => Some(RhsKernel::SinCosSplit),
            _ => None,
        }
    }

    /// Canonical name for output tables.
    pub fn name(&self) -> &'static str {
        match self {
            RhsKernel::Exact => "exact",
            RhsKernel::SinCosSplit => "sincos",
        }
    }

    /// The arithmetic a run's streaming observers follow: the model drivers
    /// pass it to [`pom_ode::StepObserver::accuracy`] before integrating.
    pub(crate) fn accuracy(&self) -> Accuracy {
        match self {
            RhsKernel::Exact => Accuracy::Exact,
            RhsKernel::SinCosSplit => Accuracy::Policy,
        }
    }
}

/// Reusable RHS scratch. Lives behind a `Mutex` in the model and the
/// ensemble because the ODE-solver contract evaluates the RHS through
/// `&self`. It holds:
///
/// - two equal halves: the split kernel's `sin`/`cos` arrays (one slot each
///   per state component), or the delay path's per-slot `τ`/phase windows;
/// - the delay path's [`NodeTable`]: each CSR edge's two lattice nodes of
///   the delay field, kept across evaluations and refreshed only when the
///   lattice cell of `t` changes. Boxed on first use, so a model without
///   delays carries one pointer for it.
#[derive(Debug, Default)]
pub(crate) struct SplitScratch {
    buf: Vec<f64>,
    nodes: Option<Box<NodeTable>>,
}

impl SplitScratch {
    /// Borrow the `sin` and `cos` halves, grown to length `n` each.
    pub(crate) fn halves(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        halves(&mut self.buf, n)
    }

    /// The delay path's parts: the `τ` and phase halves (length `n` each)
    /// and the node table.
    pub(crate) fn delay_parts(&mut self, n: usize) -> (&mut [f64], &mut [f64], &mut NodeTable) {
        let (taus, phases) = halves(&mut self.buf, n);
        (taus, phases, self.nodes.get_or_insert_with(Box::default))
    }
}

/// `buf` grown to `2·n` and split into two halves of length `n`.
fn halves(buf: &mut Vec<f64>, n: usize) -> (&mut [f64], &mut [f64]) {
    if buf.len() < 2 * n {
        buf.resize(2 * n, 0.0);
    }
    let (s, c) = buf.split_at_mut(n);
    (s, &mut c[..n])
}

// ---------------------------------------------------------------------------
// Polynomial sin/cos array pass
// ---------------------------------------------------------------------------

/// Above this magnitude the two-part modulo-π reduction loses accuracy;
/// such elements (phases beyond ~10⁵ revolutions — far outside any
/// simulated span) fall back to `libm` individually.
const ARG_LIMIT: f64 = 1e6;

const INV_PI: f64 = std::f64::consts::FRAC_1_PI;
/// Shift that rounds to nearest when added to and subtracted from a
/// double whose magnitude is below 2⁵¹ (1.5·2⁵²).
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// π split into a 53-bit head and its residual, for cancellation-free
/// `r = x − n·π` at moderate `n`. The head is deliberately spelled at
/// full double precision: this *is* `f64::consts::PI` (the lint cannot
/// tell a reduction constant from a lazy approximation), and the residual
/// carries the next 53 bits.
#[allow(clippy::approx_constant, clippy::excessive_precision)]
const PI_HI: f64 = 3.141_592_653_589_793_116;
#[allow(clippy::excessive_precision)]
const PI_LO: f64 = 1.224_646_799_147_353_2e-16;

/// Chebyshev fit of `sin(r)/r` in `z = r²` on `|r| ≤ π/2` (max abs error
/// of the reconstructed `sin`: 7.8e-14).
const SIN_Z: [f64; 7] = [
    0.999_999_999_999_949_4,
    -0.166_666_666_664_665_92,
    8.333_333_320_354_143e-3,
    -1.984_126_668_206_754_2e-4,
    2.755_695_281_427_974e-6,
    -2.503_026_436_708_62e-8,
    1.541_116_643_315_831_3e-10,
];
/// Chebyshev fit of `cos(r)` in `z = r²` on `|r| ≤ π/2` (max abs error
/// 2.5e-15).
const COS_Z: [f64; 8] = [
    0.999_999_999_999_997_6,
    -0.499_999_999_999_894_86,
    4.166_666_666_581_229e-2,
    -1.388_888_886_157_152_2e-3,
    2.480_158_295_670_555e-5,
    -2.755_694_171_701_834e-7,
    2.085_852_533_762_896e-9,
    -1.101_052_193_545_011_3e-11,
];

/// One polynomial sin/cos evaluation (branch-free; caller handles the
/// large-argument fallback).
#[inline(always)]
fn sincos_poly(x: f64) -> (f64, f64) {
    // n = round(x/π) via the magic-shift trick (round-to-nearest-even).
    let n = (x * INV_PI + MAGIC) - MAGIC;
    let r = x - n * PI_HI - n * PI_LO;
    // (−1)^n without integer conversion: parity = n − 2·round(n/2) ∈ {0, ±1}.
    let parity = n - 2.0 * ((0.5 * n + MAGIC) - MAGIC);
    let sign = 1.0 - 2.0 * parity * parity;
    let z = r * r;
    let mut p = SIN_Z[6];
    p = p * z + SIN_Z[5];
    p = p * z + SIN_Z[4];
    p = p * z + SIN_Z[3];
    p = p * z + SIN_Z[2];
    p = p * z + SIN_Z[1];
    p = p * z + SIN_Z[0];
    let mut q = COS_Z[7];
    q = q * z + COS_Z[6];
    q = q * z + COS_Z[5];
    q = q * z + COS_Z[4];
    q = q * z + COS_Z[3];
    q = q * z + COS_Z[2];
    q = q * z + COS_Z[1];
    q = q * z + COS_Z[0];
    ((sign * r) * p, sign * q)
}

/// Fill `s[j] = sin(k·x[j])`, `c[j] = cos(k·x[j])`.
///
/// Elements are independent, so any chunking of a larger array into calls
/// of this function produces identical values — the parallel executor may
/// split the pass freely without affecting results.
#[inline(always)]
fn sincos_pass_body(k: f64, xs: &[f64], s: &mut [f64], c: &mut [f64]) {
    // Main pass: branch- and call-free so the loop vectorizes. The
    // fallback scan below must stay OUT of this loop — a conditional
    // `libm` call in the body would force scalar code on every element.
    let n = xs.len();
    for j in 0..n {
        let x = k * xs[j];
        let (sj, cj) = sincos_poly(x);
        s[j] = sj;
        c[j] = cj;
    }
    // Rare fix-up: per-element decision, so results are independent of
    // how a larger array was chunked (deterministic across thread
    // counts). The branch is never taken for simulated phase spans.
    for j in 0..n {
        let x = k * xs[j];
        if x.abs() > ARG_LIMIT {
            let (sj, cj) = x.sin_cos();
            s[j] = sj;
            c[j] = cj;
        }
    }
}

/// A monomorphized pair interaction for the split kernel's inner loops.
pub(crate) trait PairTerm: Copy + Sync {
    /// Value of `V(θⱼ − θᵢ)` from the phase difference `x = θⱼ − θᵢ` and
    /// the precomputed `sin`/`cos` of `k·θⱼ` and `k·θᵢ`.
    fn eval(&self, x: f64, sj: f64, cj: f64, si: f64, ci: f64) -> f64;
}

/// Plain Kuramoto coupling `sin(θⱼ − θᵢ)` (`k = 1`).
#[derive(Clone, Copy)]
pub(crate) struct SinPair;

impl PairTerm for SinPair {
    #[inline(always)]
    fn eval(&self, _x: f64, sj: f64, cj: f64, si: f64, ci: f64) -> f64 {
        sj * ci - cj * si
    }
}

/// Desync potential: `−sin(k·x)` inside the horizon (`k = 3π/2σ`),
/// saturated `sgn(x)` beyond — branch-free select so the loop vectorizes.
#[derive(Clone, Copy)]
pub(crate) struct DesyncPair {
    pub sigma: f64,
}

impl PairTerm for DesyncPair {
    #[inline(always)]
    fn eval(&self, x: f64, sj: f64, cj: f64, si: f64, ci: f64) -> f64 {
        let split = -(sj * ci - cj * si);
        if x.abs() < self.sigma {
            split
        } else {
            1.0f64.copysign(x)
        }
    }
}

/// Replica count `R` of an interleaved state (component `(i, rep)` at
/// `i·R + rep`): [`One`] for a single run, whose constant `get` folds
/// every `·R` scale away, or a runtime `usize` for a lockstep ensemble.
pub(crate) trait Width: Copy + Send + Sync {
    fn get(self) -> usize;
}

/// Width fixed at compile time to one replica.
#[derive(Clone, Copy)]
pub(crate) struct One;

impl Width for One {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

impl Width for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// Accumulate the raw coupling sums of `rows` (a contiguous row range,
/// `R` interleaved replicas each) into `out` (element `(i − rows.start)·R
/// + rep`), iterating an index-free ring stencil.
///
/// Offset-outer: element `e = i·R + rep` reads its neighbor at `e + o·R`,
/// or `e + o·R − n·R` past the wrap. The wrap boundary sits at row
/// granularity, so both segments are contiguous streams — no index array,
/// no gather, the same vectorization at every width. Per element the
/// terms are added in offset order onto a zeroed accumulator.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn split_rows_stencil_body<P: PairTerm, W: Width>(
    p: P,
    stencil: &RingStencil,
    w: W,
    theta: &[f64],
    s: &[f64],
    c: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let r = w.get();
    let n = stencil.n();
    let lo = rows.start;
    let out = &mut out[..rows.len() * r];
    out.fill(0.0);
    for &o in stencil.offsets() {
        let o = o as usize;
        // Rows i with i + o < n read neighbor i + o; the rest wrap.
        let wrap = n - o;
        let split_at = rows.end.min(wrap).max(lo);
        let (bulk, wrapped) = out.split_at_mut((split_at - lo) * r);
        for (v, e) in bulk.iter_mut().zip(lo * r..) {
            let j = e + o * r;
            *v += p.eval(theta[j] - theta[e], s[j], c[j], s[e], c[e]);
        }
        for (v, e) in wrapped.iter_mut().zip(split_at * r..) {
            let j = e + o * r - n * r;
            *v += p.eval(theta[j] - theta[e], s[j], c[j], s[e], c[e]);
        }
    }
}

/// Accumulate the raw coupling sums of `rows` into `out`, walking the flat
/// CSR arrays (arbitrary topologies). Row-outer, neighbor-middle,
/// replica-inner: the CSR row scan (pointer chase, index decode) is paid
/// once per row for all replicas, and per element the terms are added in
/// ascending-neighbor order onto a zeroed accumulator.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn split_rows_csr_body<P: PairTerm, W: Width>(
    p: P,
    csr: CsrView<'_>,
    w: W,
    theta: &[f64],
    s: &[f64],
    c: &[f64],
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let r = w.get();
    for (out_row, i) in out.chunks_exact_mut(r).zip(rows) {
        let ti = &theta[i * r..(i + 1) * r];
        let si = &s[i * r..(i + 1) * r];
        let ci = &c[i * r..(i + 1) * r];
        out_row.fill(0.0);
        for &j in csr.row(i) {
            let j = j as usize;
            let tj = &theta[j * r..(j + 1) * r];
            let sj = &s[j * r..(j + 1) * r];
            let cj = &c[j * r..(j + 1) * r];
            for rep in 0..r {
                out_row[rep] += p.eval(tj[rep] - ti[rep], sj[rep], cj[rep], si[rep], ci[rep]);
            }
        }
    }
}

/// Finalize a chunk of raw coupling sums in place,
/// `out[e] = omega + scale[row] · out[e]`, each row's scale applying to
/// its `R` contiguous replica slots (the noise-free fast path; local
/// noise takes the caller's per-replica loop).
#[inline(always)]
fn finalize_rows_body<W: Width>(omega: f64, scale: &[f64], w: W, out: &mut [f64]) {
    for (out_row, &sc) in out.chunks_exact_mut(w.get()).zip(scale) {
        for d in out_row {
            *d = omega + sc * *d;
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------
//
// The bodies above are plain scalar Rust; compiled for the x86-64 baseline
// they vectorize to 2-wide SSE2. Recompiling the same bodies with
// `#[target_feature(enable = "avx2,fma")]` lets LLVM emit 4-wide code,
// roughly halving the split kernel's cost, and with `avx512f` added
// 8-wide code. Rust never contracts `a * b + c` into a fused
// multiply-add and the bodies call no `mul_add`, so every tier performs
// the same IEEE operations on every element: each tier's output is
// bitwise the scalar body's (pinned by a unit test), and the selection
// cannot change results between CPUs, threads or calls.

/// The widest instruction-set tier the CPU offers.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SimdTier {
    Baseline,
    Avx2,
    Avx512,
}

#[cfg(target_arch = "x86_64")]
impl SimdTier {
    fn detect() -> Self {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx512f") && has!("avx2") && has!("fma") {
            SimdTier::Avx512
        } else if has!("avx2") && has!("fma") {
            SimdTier::Avx2
        } else {
            SimdTier::Baseline
        }
    }

    /// The tier the front doors run: [`SimdTier::detect`], lowered on
    /// this thread by [`tests::with_tier`] in unit tests.
    #[inline]
    fn current() -> Self {
        #[cfg(test)]
        if let Some(cap) = tests::TIER_CAP.with(std::cell::Cell::get) {
            return cap.min(Self::detect());
        }
        Self::detect()
    }
}

/// Defines a `pub(crate)` front door for a scalar `*_body` kernel that
/// re-dispatches to an AVX-512 or AVX2 recompilation of the same body
/// when the CPU has the features. One definition per kernel — the
/// dispatch policy (feature sets, detection, fallback) lives here once.
macro_rules! simd_dispatched {
    (
        $(#[$doc:meta])*
        fn $name:ident $(<$($gen:ident: $bound:ident),+>)? ($($arg:ident: $ty:ty),* $(,)?) = $body:ident
    ) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name$(<$($gen: $bound),+>)?($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f,avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx512$(<$($gen: $bound),+>)?($($arg: $ty),*) {
                    $body($($arg),*)
                }
                #[target_feature(enable = "avx2,fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2$(<$($gen: $bound),+>)?($($arg: $ty),*) {
                    $body($($arg),*)
                }
                match SimdTier::current() {
                    // SAFETY: the required CPU features were detected at
                    // runtime.
                    SimdTier::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above.
                    SimdTier::Avx2 => return unsafe { avx2($($arg),*) },
                    SimdTier::Baseline => {}
                }
            }
            $body($($arg),*)
        }
    };
}

simd_dispatched! {
    /// `sin`/`cos` array pass with runtime SIMD dispatch.
    fn sincos_pass(k: f64, xs: &[f64], s: &mut [f64], c: &mut [f64]) = sincos_pass_body
}

simd_dispatched! {
    /// Stencil row loop with runtime SIMD dispatch.
    fn split_rows_stencil<P: PairTerm, W: Width>(
        p: P,
        stencil: &RingStencil,
        w: W,
        theta: &[f64],
        s: &[f64],
        c: &[f64],
        rows: std::ops::Range<usize>,
        out: &mut [f64],
    ) = split_rows_stencil_body
}

simd_dispatched! {
    /// CSR row loop with runtime SIMD dispatch.
    fn split_rows_csr<P: PairTerm, W: Width>(
        p: P,
        csr: CsrView<'_>,
        w: W,
        theta: &[f64],
        s: &[f64],
        c: &[f64],
        rows: std::ops::Range<usize>,
        out: &mut [f64],
    ) = split_rows_csr_body
}

simd_dispatched! {
    /// Row finalization with runtime SIMD dispatch.
    fn finalize_rows<W: Width>(omega: f64, scale: &[f64], w: W, out: &mut [f64]) = finalize_rows_body
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_topology::Topology;

    #[cfg(target_arch = "x86_64")]
    thread_local! {
        /// Caps [`SimdTier::current`] on this thread (see [`with_tier`]).
        pub(super) static TIER_CAP: std::cell::Cell<Option<SimdTier>> =
            const { std::cell::Cell::new(None) };
    }

    /// Run `f` with this thread's front doors capped at `tier` (or the
    /// CPU's best, if lower).
    #[cfg(target_arch = "x86_64")]
    fn with_tier<T>(tier: SimdTier, f: impl FnOnce() -> T) -> T {
        TIER_CAP.with(|c| c.set(Some(tier)));
        let out = f();
        TIER_CAP.with(|c| c.set(None));
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every front door against its scalar body at width `w`, for a
    /// pair term `p` and its wavenumber `k`, on whole and partial row
    /// ranges (the partial one crosses the ring's wrap).
    fn front_doors_match_bodies_at<P: PairTerm, W: Width>(p: P, k: f64, w: W) {
        let n = 67;
        let r = w.get();
        let topo = Topology::ring(n, &[-3, -1, 1, 2]);
        let stencil = topo.ring_stencil().expect("a ring has a stencil");
        let mut theta: Vec<f64> = (0..n * r)
            .map(|e| (e as f64 * 0.913).sin() * 60.0 + e as f64 * 1e-3)
            .collect();
        theta[7] = 3.5e6; // beyond ARG_LIMIT: the libm fix-up
        let len = n * r;
        let (mut s, mut c) = (vec![0.0; len], vec![0.0; len]);
        let (mut s_ref, mut c_ref) = (vec![0.0; len], vec![0.0; len]);
        sincos_pass(k, &theta, &mut s, &mut c);
        sincos_pass_body(k, &theta, &mut s_ref, &mut c_ref);
        assert_eq!(
            (bits(&s), bits(&c)),
            (bits(&s_ref), bits(&c_ref)),
            "sincos_pass"
        );

        let scale: Vec<f64> = (0..n).map(|i| 0.25 + i as f64 * 0.01).collect();
        for rows in [0..n, 5..n - 1] {
            let m = rows.len() * r;
            let (mut out, mut want) = (vec![0.0; m], vec![0.0; m]);
            split_rows_stencil(p, &stencil, w, &theta, &s, &c, rows.clone(), &mut out);
            split_rows_stencil_body(p, &stencil, w, &theta, &s, &c, rows.clone(), &mut want);
            assert_eq!(bits(&out), bits(&want), "stencil rows {rows:?}");
            split_rows_csr(p, topo.csr(), w, &theta, &s, &c, rows.clone(), &mut out);
            split_rows_csr_body(p, topo.csr(), w, &theta, &s, &c, rows.clone(), &mut want);
            assert_eq!(bits(&out), bits(&want), "CSR rows {rows:?}");
            finalize_rows(0.7, &scale[rows.clone()], w, &mut out);
            finalize_rows_body(0.7, &scale[rows.clone()], w, &mut want);
            assert_eq!(bits(&out), bits(&want), "finalize rows {rows:?}");
        }
    }

    fn front_doors_match_bodies() {
        let sigma = 2.5;
        let k = 1.5 * std::f64::consts::PI / sigma;
        front_doors_match_bodies_at(DesyncPair { sigma }, k, One);
        front_doors_match_bodies_at(DesyncPair { sigma }, k, 5usize);
        front_doors_match_bodies_at(SinPair, 1.0, One);
        front_doors_match_bodies_at(SinPair, 1.0, 5usize);
    }

    #[test]
    fn every_simd_tier_gives_the_scalar_bodies_bits() {
        #[cfg(target_arch = "x86_64")]
        for tier in [SimdTier::Baseline, SimdTier::Avx2, SimdTier::Avx512] {
            with_tier(tier, front_doors_match_bodies);
        }
        #[cfg(not(target_arch = "x86_64"))]
        front_doors_match_bodies();
    }

    #[test]
    fn sincos_pass_matches_libm_within_policy() {
        // Dense sweep over several revolutions plus the desync wavenumber.
        let xs: Vec<f64> = (0..20_001).map(|i| -50.0 + i as f64 * 0.005).collect();
        let mut s = vec![0.0; xs.len()];
        let mut c = vec![0.0; xs.len()];
        for k in [1.0, 1.5 * std::f64::consts::PI / 3.0, 7.3] {
            sincos_pass(k, &xs, &mut s, &mut c);
            let mut max_err = 0.0f64;
            for (j, &x) in xs.iter().enumerate() {
                let (es, ec) = (k * x).sin_cos();
                max_err = max_err.max((s[j] - es).abs()).max((c[j] - ec).abs());
            }
            assert!(max_err < 1e-12, "k = {k}: max err {max_err:e}");
        }
    }

    #[test]
    fn sincos_pass_large_arguments_fall_back_to_libm() {
        let xs = [1e7, -3.2e8, 5.5e9, 2.0, f64::NAN];
        let mut s = [0.0; 5];
        let mut c = [0.0; 5];
        sincos_pass(1.0, &xs, &mut s, &mut c);
        // Beyond ARG_LIMIT: bitwise libm values.
        for j in 0..3 {
            assert_eq!(s[j], xs[j].sin(), "elem {j}");
            assert_eq!(c[j], xs[j].cos(), "elem {j}");
        }
        // Small argument in the same batch stays on the polynomial path.
        assert!((s[3] - xs[3].sin()).abs() < 1e-13);
        assert!((c[3] - xs[3].cos()).abs() < 1e-13);
        assert!(s[4].is_nan() && c[4].is_nan());
    }

    #[test]
    fn sincos_pass_chunk_invariant() {
        let xs: Vec<f64> = (0..777).map(|i| (i as f64 * 0.713).sin() * 40.0).collect();
        let k = 2.31;
        let mut s1 = vec![0.0; 777];
        let mut c1 = vec![0.0; 777];
        sincos_pass(k, &xs, &mut s1, &mut c1);
        // Same pass, split into uneven chunks.
        let mut s2 = vec![0.0; 777];
        let mut c2 = vec![0.0; 777];
        for (lo, hi) in [(0usize, 130usize), (130, 131), (131, 700), (700, 777)] {
            sincos_pass(k, &xs[lo..hi], &mut s2[lo..hi], &mut c2[lo..hi]);
        }
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [RhsKernel::Exact, RhsKernel::SinCosSplit] {
            assert_eq!(RhsKernel::from_name(k.name()), Some(k));
        }
        assert_eq!(RhsKernel::from_name("split"), Some(RhsKernel::SinCosSplit));
        assert_eq!(RhsKernel::from_name("quux"), None);
        assert_eq!(RhsKernel::default(), RhsKernel::Exact);
    }

    #[test]
    fn desync_pair_matches_potential() {
        let sigma = 2.5;
        let k = 1.5 * std::f64::consts::PI / sigma;
        let p = DesyncPair { sigma };
        let pot = crate::potential::Potential::desync(sigma);
        for (ti, tj) in [(0.1, 0.7), (-3.0, 2.0), (5.0, 5.0), (0.0, -9.0)] {
            let (si, ci) = (k * ti).sin_cos();
            let (sj, cj) = (k * tj).sin_cos();
            let via_pair = p.eval(tj - ti, sj, cj, si, ci);
            let direct = pot.value(tj - ti);
            assert!(
                (via_pair - direct).abs() < 1e-12,
                "({ti}, {tj}): {via_pair} vs {direct}"
            );
        }
    }

    #[test]
    fn split_scratch_grows_and_splits() {
        let mut sc = SplitScratch::default();
        let (s, c) = sc.halves(10);
        assert_eq!(s.len(), 10);
        assert_eq!(c.len(), 10);
        s[9] = 1.0;
        c[0] = 2.0;
        let (s, c) = sc.halves(4);
        assert_eq!(s.len(), 4);
        assert_eq!(c.len(), 4);
    }
}
