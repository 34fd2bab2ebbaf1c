//! # POM — Physical Oscillator Model for Supercomputing
//!
//! This facade crate re-exports the complete toolkit reproducing Afzal,
//! Hager & Wellein, *"Physical Oscillator Model for Supercomputing"*
//! (SC 2023, arXiv:2310.05701).
//!
//! A parallel program running on a cluster is modeled as a system of coupled
//! oscillators: each MPI process is an oscillator whose phase advances by 2π
//! per compute–communicate cycle, coupled to its communication partners
//! through a sparse topology matrix and an interaction potential. Two
//! potentials distinguish *resource-scalable* programs (which resynchronize
//! after disturbances) from *resource-bottlenecked* programs (which
//! spontaneously desynchronize into a computational wavefront).
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`ode`] | explicit ODE/DDE solvers: Euler, Heun, RK4, Dormand–Prince 5(4) with dense output, delay-equation support |
//! | [`topology`] | sparse topology matrices `T_ij`: rings/chains with distance sets, grids, all-to-all, κ computation, cluster hierarchy |
//! | [`noise`] | deterministic PRNG and the paper's noise terms: local jitter ζᵢ(t), interaction delays τᵢⱼ(t), one-off injections |
//! | [`core`] | the model itself: interaction potentials, Eq. (2) right-hand side, observables, simulation driver, Fig. 2 presets |
//! | [`kernels`] | node-level performance model of the paper's test codes: PISOLVER, STREAM triad, slow Schönauer triad |
//! | [`mpisim`] | discrete-event MPI cluster simulator: eager/rendezvous point-to-point, memory-bandwidth contention, ITAC-like traces |
//! | [`analysis`] | idle-wave detection and speed fits, de/resynchronization metrics, linear stability, statistics |
//! | [`sweep`] | parallel scenario-campaign engine: declarative TOML/JSON sweeps, deterministic per-point seeding, streaming JSONL/CSV results, resume |
//! | [`serve`] | campaign daemon: HTTP/JSON job API over the sweep engine — submit, poll, stream, cancel, resume; crash-safe spool |
//! | [`obs`] | observability: metrics registry with Prometheus text exposition, structured JSONL events |
//! | [`viz`] | circle diagrams, phase/potential timelines, trace Gantt charts (ASCII/SVG/CSV) |
//!
//! ## Quick start
//!
//! ```
//! use pom::core::{PomBuilder, Potential, InitialCondition};
//! use pom::topology::Topology;
//!
//! // 16 processes, next-neighbor communication, scalable code.
//! let model = PomBuilder::new(16)
//!     .topology(Topology::ring(16, &[-1, 1]))
//!     .potential(Potential::tanh())
//!     .compute_time(1.0)
//!     .comm_time(0.1)
//!     .build()
//!     .unwrap();
//!
//! let run = model
//!     .simulate(InitialCondition::RandomSpread { amplitude: 1.0, seed: 7 }, 50.0)
//!     .unwrap();
//!
//! // A scalable (tanh-coupled) program resynchronizes: order parameter → 1.
//! assert!(run.final_order_parameter() > 0.99);
//! ```

pub use pom_analysis as analysis;
pub use pom_core as core;
pub use pom_kernels as kernels;
pub use pom_mpisim as mpisim;
pub use pom_noise as noise;
pub use pom_obs as obs;
pub use pom_ode as ode;
pub use pom_serve as serve;
pub use pom_sweep as sweep;
pub use pom_topology as topology;
pub use pom_viz as viz;

/// Library version string (matches the workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
