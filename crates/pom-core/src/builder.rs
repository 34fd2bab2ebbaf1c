//! Validated construction of [`Pom`] models.

use std::fmt;
use std::sync::Arc;

use pom_kernels::ChunkPool;
use pom_noise::{InteractionNoise, LocalNoise, NoDelay, NoNoise};
use pom_topology::Topology;

use crate::kernel::RhsKernel;
use crate::model::{Normalization, Pom};
use crate::params::{PomParams, Protocol};
use crate::potential::Potential;

/// Construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PomError {
    /// Topology size differs from the oscillator count.
    TopologySize {
        /// Oscillator count requested.
        n: usize,
        /// Size of the supplied topology.
        topo_n: usize,
    },
    /// A scalar parameter is out of range.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// No topology was supplied.
    MissingTopology,
}

impl fmt::Display for PomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PomError::TopologySize { n, topo_n } => {
                write!(f, "topology has {topo_n} ranks but the model needs {n}")
            }
            PomError::BadParameter { name, value } => {
                write!(f, "parameter `{name}` = {value} is out of range")
            }
            PomError::MissingTopology => write!(f, "no topology supplied"),
        }
    }
}

impl std::error::Error for PomError {}

/// Builder for [`Pom`] (all parameters of paper Eq. 2).
///
/// ```
/// use pom_core::{PomBuilder, Potential};
/// use pom_topology::Topology;
///
/// let model = PomBuilder::new(40)
///     .topology(Topology::ring(40, &[-1, 1]))
///     .potential(Potential::desync(3.0))
///     .compute_time(1.0)
///     .comm_time(0.1)
///     .build()
///     .unwrap();
/// assert_eq!(model.n(), 40);
/// ```
pub struct PomBuilder {
    n: usize,
    t_comp: f64,
    t_comm: f64,
    protocol: Protocol,
    kappa: Option<f64>,
    coupling_override: Option<f64>,
    topology: Option<Topology>,
    potential: Potential,
    local_noise: Arc<dyn LocalNoise>,
    interaction_noise: Arc<dyn InteractionNoise>,
    normalization: Normalization,
    min_cycle_fraction: f64,
    kernel: RhsKernel,
    rhs_threads: usize,
}

impl PomBuilder {
    /// Start building a model of `n` oscillators. Defaults: `t_comp = 1`,
    /// `t_comm = 0.1`, eager protocol, `κ` derived from the topology
    /// (sum of distances, individual waits), tanh potential, no noise,
    /// `1/N` normalization.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            t_comp: 1.0,
            t_comm: 0.1,
            protocol: Protocol::Eager,
            kappa: None,
            coupling_override: None,
            topology: None,
            potential: Potential::Tanh,
            local_noise: Arc::new(NoNoise),
            interaction_noise: Arc::new(NoDelay),
            normalization: Normalization::ByN,
            min_cycle_fraction: 1e-3,
            kernel: RhsKernel::Exact,
            rhs_threads: 1,
        }
    }

    /// Set the dependency topology `T_ij`.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Set the interaction potential `V`.
    pub fn potential(mut self, potential: Potential) -> Self {
        self.potential = potential;
        self
    }

    /// Computation-phase duration `t_comp` (seconds).
    pub fn compute_time(mut self, t_comp: f64) -> Self {
        self.t_comp = t_comp;
        self
    }

    /// Communication-phase duration `t_comm` (seconds).
    pub fn comm_time(mut self, t_comm: f64) -> Self {
        self.t_comm = t_comm;
        self
    }

    /// Point-to-point protocol (β factor).
    pub(crate) fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Distance weight `κ`. When not set, derived from the topology via
    /// `pom_topology::kappa_of_topology` with individual waits.
    pub fn kappa(mut self, kappa: f64) -> Self {
        self.kappa = Some(kappa);
        self
    }

    /// Override the coupling strength `v_p` directly (ignores β and κ) —
    /// used by parameter sweeps like §5.1.1's βκ scan.
    pub fn coupling(mut self, vp: f64) -> Self {
        self.coupling_override = Some(vp);
        self
    }

    /// Process-local noise `ζ_i(t)`.
    pub fn local_noise(mut self, noise: impl LocalNoise + 'static) -> Self {
        self.local_noise = Arc::new(noise);
        self
    }

    /// Interaction (communication-delay) noise `τ_ij(t)`.
    pub fn interaction_noise(mut self, noise: impl InteractionNoise + 'static) -> Self {
        self.interaction_noise = Arc::new(noise);
        self
    }

    /// Coupling-sum normalization (paper: `1/N`).
    pub fn normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Right-hand-side kernel selection (default: [`RhsKernel::Exact`],
    /// the bitwise-reference path; see [`RhsKernel`] for the accuracy
    /// policy of the fast path).
    pub fn kernel(mut self, kernel: RhsKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Threads a *single* RHS evaluation fans out over (default 1 =
    /// serial; 0 = all available cores). Complements — and composes with —
    /// the campaign-level parallelism of `pom-sweep`: use it when one
    /// large-`N` run must scale across cores. Chunking is by disjoint
    /// oscillator ranges, so results are bitwise identical for every
    /// thread count; below ~2k oscillators the evaluation stays inline
    /// because the fork–join hand-off would dominate.
    pub fn rhs_threads(mut self, threads: usize) -> Self {
        self.rhs_threads = threads;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Pom, PomError> {
        if self.n == 0 {
            return Err(PomError::BadParameter {
                name: "n",
                value: 0.0,
            });
        }
        if !(self.t_comp.is_finite() && self.t_comp > 0.0) {
            return Err(PomError::BadParameter {
                name: "t_comp",
                value: self.t_comp,
            });
        }
        if !(self.t_comm.is_finite() && self.t_comm >= 0.0) {
            return Err(PomError::BadParameter {
                name: "t_comm",
                value: self.t_comm,
            });
        }
        let topology = self.topology.ok_or(PomError::MissingTopology)?;
        if topology.n() != self.n {
            return Err(PomError::TopologySize {
                n: self.n,
                topo_n: topology.n(),
            });
        }
        if let Some(k) = self.kappa {
            if !(k.is_finite() && k >= 0.0) {
                return Err(PomError::BadParameter {
                    name: "kappa",
                    value: k,
                });
            }
        }
        if let Some(vp) = self.coupling_override {
            if !vp.is_finite() {
                return Err(PomError::BadParameter {
                    name: "coupling",
                    value: vp,
                });
            }
        }
        let kappa = self.kappa.unwrap_or_else(|| {
            pom_topology::kappa_of_topology(&topology, pom_topology::WaitMode::Individual)
        });
        let mut params = PomParams::new(self.n, self.t_comp, self.t_comm, self.protocol, kappa);
        params.coupling_override = self.coupling_override;
        let min_cycle = self.min_cycle_fraction * params.cycle_time();
        let threads = if self.rhs_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.rhs_threads
        };
        // Only spawn pool threads for models that can ever dispatch to
        // them; below the inline threshold a pool would be pure OS-thread
        // churn (sweeps build one model per grid point).
        let pool_eligible = threads > 1 && self.n >= crate::model::MIN_PAR_ROWS;
        let stencil = topology.ring_stencil();
        let mut pom = Pom {
            params,
            topology,
            potential: self.potential,
            local_noise: self.local_noise,
            interaction_noise: self.interaction_noise,
            normalization: self.normalization,
            min_cycle,
            coupling_cache: Vec::new(),
            kernel: self.kernel,
            rhs_threads: threads,
            stencil,
            pool: pool_eligible.then(|| ChunkPool::new(threads)),
            split_scratch: Default::default(),
        };
        pom.coupling_cache = (0..pom.params.n)
            .map(|i| pom.compute_coupling_scale(i))
            .collect();
        Ok(pom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kappa_derived_from_topology() {
        let m = PomBuilder::new(10)
            .topology(Topology::ring(10, &[-1, 1]))
            .build()
            .unwrap();
        assert_eq!(m.params().kappa, 2.0);
        // And for the wider stencil.
        let m = PomBuilder::new(10)
            .topology(Topology::ring(10, &[-2, -1, 1]))
            .build()
            .unwrap();
        assert_eq!(m.params().kappa, 4.0);
    }

    #[test]
    fn explicit_kappa_wins() {
        let m = PomBuilder::new(10)
            .topology(Topology::ring(10, &[-1, 1]))
            .kappa(7.0)
            .build()
            .unwrap();
        assert_eq!(m.params().kappa, 7.0);
    }

    #[test]
    fn rejects_missing_topology() {
        assert_eq!(
            PomBuilder::new(4).build().unwrap_err(),
            PomError::MissingTopology
        );
    }

    #[test]
    fn rejects_size_mismatch() {
        let err = PomBuilder::new(4)
            .topology(Topology::ring(5, &[-1, 1]))
            .build()
            .unwrap_err();
        assert_eq!(err, PomError::TopologySize { n: 4, topo_n: 5 });
    }

    #[test]
    fn rejects_bad_scalars() {
        let t = || Topology::ring(4, &[-1, 1]);
        assert!(matches!(
            PomBuilder::new(0).topology(t()).build(),
            Err(PomError::BadParameter { name: "n", .. })
        ));
        assert!(matches!(
            PomBuilder::new(4).topology(t()).compute_time(0.0).build(),
            Err(PomError::BadParameter { name: "t_comp", .. })
        ));
        assert!(matches!(
            PomBuilder::new(4).topology(t()).comm_time(-0.1).build(),
            Err(PomError::BadParameter { name: "t_comm", .. })
        ));
        assert!(matches!(
            PomBuilder::new(4).topology(t()).kappa(f64::NAN).build(),
            Err(PomError::BadParameter { name: "kappa", .. })
        ));
        assert!(matches!(
            PomBuilder::new(4)
                .topology(t())
                .coupling(f64::INFINITY)
                .build(),
            Err(PomError::BadParameter {
                name: "coupling",
                ..
            })
        ));
    }

    #[test]
    fn error_messages_readable() {
        let e = PomError::TopologySize { n: 4, topo_n: 5 };
        assert!(e.to_string().contains('4') && e.to_string().contains('5'));
        let e = PomError::BadParameter {
            name: "t_comp",
            value: -1.0,
        };
        assert!(e.to_string().contains("t_comp"));
        assert!(PomError::MissingTopology.to_string().contains("topology"));
    }

    #[test]
    fn zero_comm_time_is_legal() {
        // Pure-compute cycles (PISOLVER with negligible messages).
        let m = PomBuilder::new(4)
            .topology(Topology::ring(4, &[-1, 1]))
            .comm_time(0.0)
            .build()
            .unwrap();
        assert_eq!(m.params().t_comm, 0.0);
    }
}
