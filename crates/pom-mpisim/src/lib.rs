//! Discrete-event simulator of MPI-parallel bulk-synchronous programs on a
//! cluster — the stand-in for the paper's *Meggie* test bed.
//!
//! The paper validates the oscillator model against real MPI runs (§4–5):
//! toy codes with `MPI_Irecv`/`MPI_Send`/`MPI_Waitall` point-to-point
//! exchanges, traced with Intel Trace Analyzer. We do not have the
//! cluster, so this crate implements the closest synthetic equivalent —
//! a first-principles simulator with exactly the three mechanisms that
//! produce the paper's phenomenology:
//!
//! 1. **Dependency structure** ([`program::ProgramSpec`]): every rank
//!    iterates compute → send → waitall; rank `i` *receives from* the
//!    ranks `i + d` of its distance set each iteration, so delays ripple
//!    exactly along the oscillator model's topology matrix.
//! 2. **Bounded shared resource** (`socket::SocketFluid`): ranks on one
//!    socket share its memory bandwidth via max-min fair processor
//!    sharing (`pom_kernels::share_bandwidth`); memory-bound compute phases
//!    stretch under contention — the substrate of desynchronization and
//!    bottleneck evasion.
//! 3. **Communication protocol** ([`protocol::MpiProtocol`]): eager sends
//!    complete immediately (one-directional dependencies, the paper's
//!    `β = 1`); rendezvous sends couple sender to receiver (`β = 2`).
//!    Latency scales with the cluster distance class (intra-socket <
//!    inter-socket < inter-node) from `pom_topology::Placement`.
//!
//! The simulator records an ITAC-like [`trace::SimTrace`] (per-rank
//! compute/wait segments and per-iteration timestamps) from which the
//! analysis layer extracts idle waves, desynchronization and wavefronts.
//!
//! ## Example
//!
//! ```
//! use pom_mpisim::{ProgramSpec, Simulator, WorkSpec, MpiProtocol};
//! use pom_topology::{ClusterSpec, Placement};
//!
//! // 20 scalable ranks, next-neighbor ring, one Meggie node.
//! let program = ProgramSpec::new(20, 30)
//!     .kernel(pom_kernels::Kernel::pisolver())
//!     .work(WorkSpec::TargetSeconds(1e-3))
//!     .distances(vec![-1, 1]);
//! let placement = Placement::packed(ClusterSpec::meggie(), 20);
//! let trace = Simulator::new(program, placement).unwrap().run().unwrap();
//! assert_eq!(trace.n_ranks(), 20);
//! // Noise-free scalable code stays in lockstep.
//! assert!(trace.iteration_start_spread(10) < 1e-5);
//! ```

mod engine;
mod experiment;
mod program;
mod protocol;
mod socket;
mod trace;

pub use engine::Simulator;
pub use experiment::{idle_wave_run, lockstep_run, IdleWaveConfig};
pub use program::{ProgramSpec, SimDelay, WorkSpec};
pub use protocol::MpiProtocol;
pub use trace::{Segment, SegmentKind, SimTrace};
