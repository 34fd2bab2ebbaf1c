//! Node-level performance model of the paper's micro-benchmarks.
//!
//! The paper's test bed (§4) uses three MPI-parallel toy codes:
//!
//! * **PISOLVER** — midpoint-rule integration of `∫₀¹ 4/(1+x²) dx` with
//!   500 M steps: pure floating-point work, no memory traffic —
//!   *resource-scalable*.
//! * **STREAM triad** — `A(:) = B(:) + s*C(:)` [McCalpin 1995]:
//!   bandwidth-dominated, saturates the socket's memory bandwidth at a few
//!   cores — *resource-bottlenecked*.
//! * **"Slow" Schönauer triad** — `A(:) = B(:) + cos(C(:)/D(:))`: the
//!   low-throughput cosine and FP division raise the in-core cost per
//!   loop iteration, which "shifts the bandwidth saturation point to a
//!   higher number of cores" (§4).
//!
//! This crate models each kernel with a *roofline-with-saturation*
//! description ([`Kernel`]): per-iteration FLOP count, memory traffic, and
//! in-core cycle cost. Combined with a socket's bandwidth budget it yields
//! the per-socket scaling curves of paper Fig. 1(b)
//! ([`scaling::scaling_curve`]) and the compute-phase durations that the
//! MPI simulator stretches under contention (`contention`).
//!
//! The kernels are also *implemented* as real loops ([`exec`]) so tests can
//! sanity-check the relative in-core costs the model assumes.

//! The crate also hosts the repository's intra-run parallelism primitive,
//! [`par::ChunkPool`] — a dependency-free fork–join pool used by the
//! oscillator model's right-hand-side kernels to split one large-`N`
//! evaluation across cores (it lives here, in the foundation layer,
//! because it knows nothing about oscillators).

mod contention;
pub mod exec;
mod kernel;
mod par;
mod scaling;

pub use contention::share_bandwidth;
pub use kernel::{Kernel, SocketSpec};
pub use par::{ChunkPool, DisjointSliceMut};
pub use scaling::{saturation_point, scaling_curve};
