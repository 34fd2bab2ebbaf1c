//! Noise models for the Physical Oscillator Model and the MPI simulator.
//!
//! Paper Eq. (2) contains two stochastic terms:
//!
//! * **process-local noise** `ζ_i(t)` — "a jitter in the local oscillator
//!   frequency \[that\] can also serve to model load imbalance" (§3.1). In
//!   the denominator `2π / (t_comp + t_comm + ζ_i(t))`, positive `ζ`
//!   lengthens the cycle, i.e. slows the process.
//! * **interaction noise** `τ_ij(t)` — "random delays caused by varying
//!   communication time", which turns the model into a delay equation via
//!   `θ_j(t − τ_ij(t))`.
//!
//! Both are exposed as traits ([`LocalNoise`], [`InteractionNoise`]) whose
//! implementations are **frozen noise**: deterministic functions of
//! `(rank, t)` built from a counter-based PRNG (`rng`). Determinism
//! matters because adaptive ODE solvers re-evaluate the right-hand side at
//! repeated times (rejected steps, dense output); a noise term that changed
//! between evaluations would break the integrator's error control and make
//! runs irreproducible.
//!
//! The paper's §5.1 *one-off delay* experiments (the injected extra
//! workload on rank 5 that launches an idle wave) are modeled by
//! [`DelayEvent`] / [`OneOffDelays`].

mod interaction;
mod local;
mod rng;

pub use interaction::{ConstantDelay, InteractionNoise, NoDelay, RandomCommDelay};
pub use local::{DelayEvent, LocalNoise, NoNoise, OneOffDelays, SumNoise, WhiteJitter};
pub use rng::{SplitMix64, Xoshiro256pp};
