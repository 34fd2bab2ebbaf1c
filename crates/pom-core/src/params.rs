//! Model parameters: cycle durations, protocol factor `β`, distance
//! weight `κ`, and the derived coupling strength `v_p`.
//!
//! Paper §3.1: "The coupling strength `v_p = β·κ/(t_comp + t_comm)` is
//! motivated by the connection between idle wave speed and communication
//! characteristics [Afzal et al. 2021]: Messages sent via the eager
//! (rendezvous) protocol have β = 1 (2), and κ is the sum over all
//! communication distances" — or the longest distance only under a single
//! `MPI_Waitall` (see `pom_topology::kappa_for`).

use std::f64::consts::TAU;

/// MPI point-to-point protocol, fixing the paper's `β` factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// Eager: the message is shipped immediately; `β = 1`.
    #[default]
    Eager,
    /// Rendezvous: the sender stalls until the receiver posts the matching
    /// receive; dependencies act both ways per cycle; `β = 2`.
    Rendezvous,
}

impl Protocol {
    /// The paper's `β` factor.
    pub fn beta(self) -> f64 {
        match self {
            Protocol::Eager => 1.0,
            Protocol::Rendezvous => 2.0,
        }
    }
}

/// Scalar parameters of the oscillator model.
#[derive(Debug, Clone, PartialEq)]
pub struct PomParams {
    /// Number of oscillators (MPI processes).
    pub n: usize,
    /// Duration of the computation phase per cycle, seconds.
    pub t_comp: f64,
    /// Duration of the communication phase per cycle, seconds.
    pub t_comm: f64,
    /// Point-to-point protocol (sets `β`).
    pub protocol: Protocol,
    /// Communication-distance weight `κ`.
    pub kappa: f64,
    /// Optional override of the coupling strength `v_p`; when `None`,
    /// `v_p = β·κ/(t_comp + t_comm)` per the paper.
    pub coupling_override: Option<f64>,
}

impl PomParams {
    /// Parameters with the paper's derived coupling.
    pub(crate) fn new(n: usize, t_comp: f64, t_comm: f64, protocol: Protocol, kappa: f64) -> Self {
        Self {
            n,
            t_comp,
            t_comm,
            protocol,
            kappa,
            coupling_override: None,
        }
    }

    /// Cycle duration `t_comp + t_comm` (the oscillator period without
    /// noise).
    pub fn cycle_time(&self) -> f64 {
        self.t_comp + self.t_comm
    }

    /// Natural angular frequency `ω = 2π / (t_comp + t_comm)`.
    pub(crate) fn omega(&self) -> f64 {
        TAU / self.cycle_time()
    }

    /// Effective `β·κ` product (the paper's idle-wave speed knob, §5.1.1).
    pub fn beta_kappa(&self) -> f64 {
        self.protocol.beta() * self.kappa
    }

    /// Coupling strength `v_p`.
    pub fn coupling(&self) -> f64 {
        self.coupling_override
            .unwrap_or_else(|| self.beta_kappa() / self.cycle_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_factors_match_paper() {
        assert_eq!(Protocol::Eager.beta(), 1.0);
        assert_eq!(Protocol::Rendezvous.beta(), 2.0);
    }

    #[test]
    fn omega_is_two_pi_over_cycle() {
        let p = PomParams::new(8, 0.75, 0.25, Protocol::Eager, 2.0);
        assert!((p.cycle_time() - 1.0).abs() < 1e-15);
        assert!((p.omega() - TAU).abs() < 1e-12);
    }

    #[test]
    fn coupling_formula() {
        // v_p = β·κ / (t_comp + t_comm) = 1·2 / 1.0.
        let p = PomParams::new(8, 0.9, 0.1, Protocol::Eager, 2.0);
        assert!((p.coupling() - 2.0).abs() < 1e-12);
        // Rendezvous doubles it.
        let p = PomParams::new(8, 0.9, 0.1, Protocol::Rendezvous, 2.0);
        assert!((p.coupling() - 4.0).abs() < 1e-12);
        assert_eq!(p.beta_kappa(), 4.0);
    }

    #[test]
    fn coupling_override_wins() {
        let mut p = PomParams::new(8, 1.0, 0.0, Protocol::Eager, 2.0);
        p.coupling_override = Some(7.5);
        assert_eq!(p.coupling(), 7.5);
    }

    #[test]
    fn zero_kappa_means_free_oscillators() {
        // §5.1.1: βκ ≈ 0 corresponds to free processes, no dependencies.
        let p = PomParams::new(8, 1.0, 0.0, Protocol::Eager, 0.0);
        assert_eq!(p.coupling(), 0.0);
    }
}
