//! Preset configurations for the paper's Fig. 2 corner cases.
//!
//! Fig. 2 spans a 2×2 matrix: communication topology `d = ±1` (top row)
//! vs. `d = ±1, −2` (bottom row) × scalable (left column) vs. saturating
//! (right column) code. All four use N = 40 MPI processes (4 Meggie
//! sockets), an injected one-off delay on rank 5, and the corresponding
//! potential.

use pom_noise::{DelayEvent, OneOffDelays};
use pom_topology::Topology;

use crate::builder::{PomBuilder, PomError};
use crate::model::Pom;
use crate::params::Protocol;
use crate::potential::Potential;

/// The four corner cases of paper Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig2Panel {
    /// (a) scalable code, next-neighbor topology `d = ±1`.
    A,
    /// (b) bottlenecked code, `d = ±1`.
    B,
    /// (c) scalable code, `d = ±1, −2`.
    C,
    /// (d) bottlenecked code, `d = ±1, −2`.
    D,
}

impl Fig2Panel {
    /// All four panels in paper order.
    pub fn all() -> [Fig2Panel; 4] {
        [Fig2Panel::A, Fig2Panel::B, Fig2Panel::C, Fig2Panel::D]
    }

    /// The communication distance set of this panel.
    pub fn distances(self) -> &'static [i32] {
        match self {
            Fig2Panel::A | Fig2Panel::B => &[-1, 1],
            Fig2Panel::C | Fig2Panel::D => &[-2, -1, 1],
        }
    }

    /// Whether the code is resource-scalable (left column).
    pub fn scalable(self) -> bool {
        matches!(self, Fig2Panel::A | Fig2Panel::C)
    }

    /// The interaction potential of this panel.
    ///
    /// Bottlenecked panels use the desync potential; §5.2.2 correlates the
    /// interaction horizon σ inversely with communication stiffness, so
    /// the `d = ±1, −2` panel gets σ three times smaller — matching the
    /// paper's observed "threefold increase in the speed of delay
    /// propagation and a corresponding decrease in oscillator phase
    /// spread" from (b) to (d).
    pub fn potential(self) -> Potential {
        match self {
            Fig2Panel::A | Fig2Panel::C => Potential::Tanh,
            Fig2Panel::B => Potential::desync(SIGMA_B),
            Fig2Panel::D => Potential::desync(SIGMA_B / 3.0),
        }
    }

    /// Panel letter for labels.
    pub fn letter(self) -> char {
        match self {
            Fig2Panel::A => 'a',
            Fig2Panel::B => 'b',
            Fig2Panel::C => 'c',
            Fig2Panel::D => 'd',
        }
    }
}

/// Interaction horizon used for panel (b).
pub(crate) const SIGMA_B: f64 = 3.0;

/// Number of oscillators in the Fig. 2 runs (40 ranks on 4 Meggie
/// sockets, §4).
pub(crate) const FIG2_N: usize = 40;

/// Compute-phase duration used in the presets (seconds).
pub(crate) const FIG2_T_COMP: f64 = 0.9;

/// Communication-phase duration used in the presets (seconds).
pub(crate) const FIG2_T_COMM: f64 = 0.1;

/// Rank receiving the one-off delay (§5.1: "the 5th MPI process").
pub(crate) const FIG2_DELAY_RANK: usize = 5;

/// Human-readable parameter summary for a panel (used in reports).
pub fn fig2_params(panel: Fig2Panel) -> String {
    format!(
        "panel ({}): N = {FIG2_N}, d = {:?}, potential = {}, t_comp = {FIG2_T_COMP}, t_comm = {FIG2_T_COMM}",
        panel.letter(),
        panel.distances(),
        panel.potential().name(),
    )
}

/// The one-off delay injection shared by all panels: rank 5 performs
/// `extra_cycles` additional cycle-times of work starting at `t_start`.
pub(crate) fn fig2_injection(t_start: f64, extra_cycles: f64) -> OneOffDelays {
    let cycle = FIG2_T_COMP + FIG2_T_COMM;
    OneOffDelays::new(vec![DelayEvent {
        rank: FIG2_DELAY_RANK,
        t_start,
        duration: extra_cycles * cycle,
        extra: cycle, // doubles the period while active
    }])
}

/// Build the oscillator model for one Fig. 2 panel.
///
/// `with_injection` adds the rank-5 one-off delay at `t = 5` cycles,
/// lasting 3 cycles (the idle-wave launcher).
pub fn fig2_model(panel: Fig2Panel, with_injection: bool) -> Result<Pom, PomError> {
    let topology = Topology::ring(FIG2_N, panel.distances());
    // Calibration note: Eq. (2) normalizes the coupling sum by N, which
    // for a sparse ring at N = 40 makes idle waves ~20× slower (in cycles)
    // than in the MPI analog. The presets use degree normalization so one
    // model time unit corresponds to one compute–communicate cycle on
    // both substrates; the potential/topology structure is unchanged.
    let mut b = PomBuilder::new(FIG2_N)
        .topology(topology)
        .potential(panel.potential())
        .compute_time(FIG2_T_COMP)
        .comm_time(FIG2_T_COMM)
        .protocol(Protocol::Eager)
        .normalization(crate::model::Normalization::ByDegree);
    if with_injection {
        let cycle = FIG2_T_COMP + FIG2_T_COMM;
        b = b.local_noise(fig2_injection(5.0 * cycle, 3.0));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_cover_the_2x2_matrix() {
        assert_eq!(Fig2Panel::A.distances(), &[-1, 1]);
        assert_eq!(Fig2Panel::D.distances(), &[-2, -1, 1]);
        assert!(Fig2Panel::A.scalable());
        assert!(!Fig2Panel::B.scalable());
        assert!(Fig2Panel::C.scalable());
        assert!(!Fig2Panel::D.scalable());
        assert_eq!(Fig2Panel::all().len(), 4);
    }

    #[test]
    fn potentials_match_columns() {
        assert_eq!(Fig2Panel::A.potential().name(), "tanh");
        assert_eq!(Fig2Panel::C.potential().name(), "tanh");
        assert_eq!(Fig2Panel::B.potential(), Potential::desync(SIGMA_B));
        assert_eq!(Fig2Panel::D.potential(), Potential::desync(SIGMA_B / 3.0));
    }

    #[test]
    fn kappa_derived_from_distance_sets() {
        let a = fig2_model(Fig2Panel::A, false).unwrap();
        let d = fig2_model(Fig2Panel::D, false).unwrap();
        assert_eq!(a.params().kappa, 2.0); // |−1| + |1|
        assert_eq!(d.params().kappa, 4.0); // |−2| + |−1| + |1|
                                           // Stiffer communication ⇒ stronger coupling (faster waves, §5.1.1).
        assert!(d.params().coupling() > a.params().coupling());
    }

    #[test]
    fn injection_targets_rank_5() {
        let inj = fig2_injection(5.0, 3.0);
        assert_eq!(inj.events().len(), 1);
        assert_eq!(inj.events()[0].rank, FIG2_DELAY_RANK);
        assert!(inj.events()[0].duration > 0.0);
    }

    #[test]
    fn models_build_for_all_panels() {
        for p in Fig2Panel::all() {
            let m = fig2_model(p, true).unwrap();
            assert_eq!(m.n(), FIG2_N);
            let desc = fig2_params(p);
            assert!(desc.contains("N = 40"), "{desc}");
        }
    }
}
