//! The Physical Oscillator Model (POM) — the paper's core contribution.
//!
//! An MPI-parallel bulk-synchronous program of `N` processes is modeled as
//! `N` coupled oscillators (paper Eq. 2):
//!
//! ```text
//! θ̇_i(t) = 2π / (t_comp + t_comm + ζ_i(t))
//!         + (v_p / N) · Σ_j T_ij · V( θ_j(t − τ_ij(t)) − θ_i(t) )
//! ```
//!
//! One phase revolution corresponds to one compute–communicate cycle. The
//! ingredients:
//!
//! * [`potential::Potential`] — the interaction potential `V`. The paper
//!   introduces two: `tanh` for *resource-scalable* programs (Eq. 3,
//!   attractive everywhere ⇒ resynchronization) and a piecewise
//!   `−sin`/`sgn` potential with interaction horizon `σ` for
//!   *resource-bottlenecked* programs (Eq. 4, short-range repulsive ⇒
//!   desynchronization with stable pair separation `2σ/3`).
//! * `pom_topology::Topology` — the sparse dependency matrix `T_ij`.
//! * `params::PomParams` — durations, protocol factor `β` (eager = 1,
//!   rendezvous = 2) and distance weight `κ`, giving the coupling
//!   `v_p = β·κ/(t_comp + t_comm)`.
//! * `pom_noise` — the frozen noise terms `ζ_i(t)` and `τ_ij(t)`.
//!
//! The model implements both `pom_ode::OdeSystem` (no interaction delays)
//! and `pom_ode::dde::DdeSystem` (with delays); [`model::Pom`]`::simulate`
//! picks the right integrator automatically and returns a [`simulate::PomRun`]
//! with the paper's observables: Kuramoto order parameter, phase spread,
//! lagger-normalized phases (§3.2's "standard view").
//!
//! ## Example
//!
//! A resource-scalable program (tanh potential) pulls itself back into
//! lockstep from a perturbed start:
//!
//! ```
//! use pom_core::{InitialCondition, PomBuilder, Potential, SimOptions, SimWorkspace};
//! use pom_topology::Topology;
//!
//! let model = PomBuilder::new(16)
//!     .topology(Topology::ring(16, &[-1, 1]))
//!     .potential(Potential::Tanh)
//!     .compute_time(1.0)
//!     .comm_time(0.1)
//!     .coupling(8.0)
//!     .build()
//!     .unwrap();
//!
//! // One workspace serves many runs (per-thread scratch reuse).
//! let mut ws = SimWorkspace::new();
//! let init = InitialCondition::RandomSpread { amplitude: 1.0, seed: 3 };
//! let run = model
//!     .simulate_with_ws(init, &SimOptions::new(120.0), &mut ws)
//!     .unwrap();
//! assert!(run.final_order_parameter() > 0.999); // resynchronized
//! ```

mod builder;
mod continuum;
mod ensemble;
mod initial;
mod kernel;
mod model;
mod observables;
mod params;
mod potential;
mod presets;
mod rhs;
mod simulate;
pub mod stability;

pub use builder::PomBuilder;
pub use continuum::transport_coefficients;
pub use ensemble::PomEnsemble;
pub use initial::InitialCondition;
pub use kernel::RhsKernel;
pub use model::{Normalization, Pom};
pub use observables::{
    adjacent_differences, lagger_normalized, order_parameter, phase_spread, phase_summary,
    winding_number, PhaseSummary,
};
pub use params::Protocol;
pub use potential::Potential;
pub use presets::{fig2_model, fig2_params, Fig2Panel};
pub use simulate::{PomRun, SimOptions, SimSummary, SimWorkspace, SolverChoice};
// The observer vocabulary of `Pom::simulate_observed`, re-exported so
// model-level callers need not name `pom_ode` directly.
pub use pom_ode::{Accuracy, NoObserver, ObserveEvery, StepObserver};
