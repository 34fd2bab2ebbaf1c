//! Topology matrices `T_ij` and cluster hardware descriptions.
//!
//! Paper Eq. (2) couples oscillator `i` to oscillator `j` whenever
//! `T_ij = 1`. The topology matrix "maps the communication structure and
//! thus the inter-process dependencies of the program onto the oscillator
//! model" (§1.2). This crate provides:
//!
//! * [`Topology`] — a CSR sparse 0/1 matrix with constructors for the
//!   patterns used in the paper: periodic rings and open chains with signed
//!   *distance sets* (`d = ±1` and `d = ±1, −2` are Fig. 2's two cases),
//!   Cartesian grids, all-to-all (the plain Kuramoto coupling the paper
//!   contrasts against), and arbitrary edge lists.
//! * `kappa` — the paper's `κ` parameter: the sum over communication
//!   distances, or only the *longest* distance when all outstanding
//!   requests are grouped in one `MPI_Waitall` (paper §3.1, citing
//!   [Afzal et al. 2021]).
//! * `cluster` — hardware descriptions ([`cluster::ClusterSpec`]) with the
//!   published parameters of the paper's test systems (*Meggie*,
//!   *SuperMUC-NG*-like), and rank→core placements used by the MPI
//!   simulator to classify communication distances.

mod cluster;
mod kappa;
mod matrix;

pub use cluster::{ClusterSpec, Placement};
pub use kappa::{kappa_for, kappa_of_topology, WaitMode};
pub use matrix::{CsrView, RingStencil, Topology, TopologyKind};
