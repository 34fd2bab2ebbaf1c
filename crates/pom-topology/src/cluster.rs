//! Cluster hardware descriptions and rank placement.
//!
//! The paper's experiments ran on *Meggie* (§4): dual-socket nodes with
//! ten-core Intel Xeon "Broadwell" E5-2630v4 CPUs at 2.2 GHz, 68 GB/s
//! memory bandwidth per socket, connected by a fat-tree 100 Gbit/s
//! Omni-Path fabric. The artifact appendix also reports SuperMUC-NG.
//! We encode those published parameters as [`ClusterSpec`] presets; the MPI
//! simulator uses the spec plus a [`Placement`] to derive communication
//! latencies (intra-socket < inter-socket < inter-node) and per-socket
//! memory-bandwidth budgets.

/// Interconnect parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// One-way small-message latency between nodes, in seconds.
    pub latency_inter_node: f64,
    /// One-way latency between sockets of one node, in seconds.
    pub latency_inter_socket: f64,
    /// One-way latency within a socket (shared L3/memory), in seconds.
    pub latency_intra_socket: f64,
    /// Link bandwidth in bytes/second (per direction).
    pub bandwidth: f64,
    /// Messages up to this size use the eager protocol; larger ones use
    /// rendezvous.
    pub eager_threshold: usize,
}

/// Hardware description of one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable system name.
    pub name: &'static str,
    /// Sockets per node.
    pub sockets_per_node: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Nominal clock in Hz.
    pub core_freq: f64,
    /// Saturated memory bandwidth per socket, bytes/second.
    pub mem_bw_per_socket: f64,
    /// Peak double-precision FLOP/s per core (used by the kernel model).
    pub flops_per_core: f64,
    /// Interconnect parameters.
    pub network: NetworkSpec,
}

impl ClusterSpec {
    /// The paper's primary test system (*Meggie* at NHR@FAU, §4):
    /// dual-socket ten-core Broadwell at 2.2 GHz, 68 GB/s per socket,
    /// 100 Gbit/s Omni-Path.
    pub fn meggie() -> Self {
        ClusterSpec {
            name: "meggie",
            sockets_per_node: 2,
            cores_per_socket: 10,
            core_freq: 2.2e9,
            mem_bw_per_socket: 68.0e9,
            // Broadwell: 16 DP flops/cycle (2×AVX2 FMA) × 2.2 GHz.
            flops_per_core: 16.0 * 2.2e9,
            network: NetworkSpec {
                latency_inter_node: 1.6e-6,   // Omni-Path small-message
                latency_inter_socket: 0.4e-6, // QPI hop
                latency_intra_socket: 0.15e-6,
                bandwidth: 12.5e9, // 100 Gbit/s
                eager_threshold: 16 * 1024,
            },
        }
    }

    /// A SuperMUC-NG-like system (artifact appendix): dual-socket 24-core
    /// Skylake at 2.3 GHz (here: 2.3 GHz nominal), ~205 GB/s per node
    /// (~102 GB/s per socket), 100 Gbit/s OPA.
    pub fn supermuc_ng_like() -> Self {
        ClusterSpec {
            name: "supermuc-ng-like",
            sockets_per_node: 2,
            cores_per_socket: 24,
            core_freq: 2.3e9,
            mem_bw_per_socket: 102.0e9,
            flops_per_core: 32.0 * 2.3e9, // AVX-512, 2 FMA units
            network: NetworkSpec {
                latency_inter_node: 1.5e-6,
                latency_inter_socket: 0.4e-6,
                latency_intra_socket: 0.15e-6,
                bandwidth: 12.5e9,
                eager_threshold: 16 * 1024,
            },
        }
    }

    /// Cores per node.
    #[cfg(test)]
    pub(crate) fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }
}

/// Distance class of a rank pair in the cluster hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum DistanceClass {
    /// Same socket (shared memory controller).
    IntraSocket,
    /// Same node, different sockets.
    InterSocket,
    /// Different nodes (network hop).
    InterNode,
}

/// Block placement of `n_ranks` MPI ranks onto a cluster: consecutive ranks
/// fill cores of a socket, then the next socket, then the next node —
/// matching how `mpirun` places ranks by default and how the paper counts
/// "40 and 18 MPI processes on 4 and 2 sockets".
#[derive(Debug, Clone)]
pub struct Placement {
    spec: ClusterSpec,
    n_ranks: usize,
    ranks_per_socket: usize,
}

impl Placement {
    /// Place `n_ranks` ranks block-wise, `ranks_per_socket` per socket
    /// (clamped to the socket's core count).
    ///
    /// # Panics
    /// Panics if `n_ranks == 0` or `ranks_per_socket == 0`.
    pub(crate) fn block(spec: ClusterSpec, n_ranks: usize, ranks_per_socket: usize) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        assert!(ranks_per_socket > 0, "need at least one rank per socket");
        let rps = ranks_per_socket.min(spec.cores_per_socket);
        Placement {
            spec,
            n_ranks,
            ranks_per_socket: rps,
        }
    }

    /// Place `n_ranks` with fully packed sockets.
    pub fn packed(spec: ClusterSpec, n_ranks: usize) -> Self {
        let rps = spec.cores_per_socket;
        Self::block(spec, n_ranks, rps)
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Socket index (global across nodes) hosting `rank`.
    pub fn socket_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_socket
    }

    /// Node index hosting `rank`.
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        self.socket_of(rank) / self.spec.sockets_per_node
    }

    /// Number of sockets in use (ceil division).
    pub fn n_sockets(&self) -> usize {
        self.n_ranks.div_ceil(self.ranks_per_socket)
    }

    /// Number of nodes in use.
    #[cfg(test)]
    pub(crate) fn n_nodes(&self) -> usize {
        self.n_sockets().div_ceil(self.spec.sockets_per_node)
    }

    /// Distance class between two ranks.
    pub(crate) fn distance_class(&self, a: usize, b: usize) -> DistanceClass {
        if self.socket_of(a) == self.socket_of(b) {
            DistanceClass::IntraSocket
        } else if self.node_of(a) == self.node_of(b) {
            DistanceClass::InterSocket
        } else {
            DistanceClass::InterNode
        }
    }

    /// One-way small-message latency between two ranks, per the spec.
    pub fn latency(&self, a: usize, b: usize) -> f64 {
        match self.distance_class(a, b) {
            DistanceClass::IntraSocket => self.spec.network.latency_intra_socket,
            DistanceClass::InterSocket => self.spec.network.latency_inter_socket,
            DistanceClass::InterNode => self.spec.network.latency_inter_node,
        }
    }

    /// Ranks hosted by global socket index `s`.
    #[cfg(test)]
    pub(crate) fn ranks_on_socket(&self, s: usize) -> std::ops::Range<usize> {
        let lo = s * self.ranks_per_socket;
        let hi = ((s + 1) * self.ranks_per_socket).min(self.n_ranks);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meggie_parameters_match_paper() {
        let m = ClusterSpec::meggie();
        assert_eq!(m.cores_per_socket, 10);
        assert_eq!(m.sockets_per_node, 2);
        assert_eq!(m.cores_per_node(), 20);
        assert!((m.mem_bw_per_socket - 68.0e9).abs() < 1.0);
        assert!((m.core_freq - 2.2e9).abs() < 1.0);
    }

    #[test]
    fn paper_run_40_ranks_on_4_sockets() {
        // §4: "40 MPI processes on 4 sockets" → 10 per socket, 2 nodes.
        let p = Placement::packed(ClusterSpec::meggie(), 40);
        assert_eq!(p.n_sockets(), 4);
        assert_eq!(p.n_nodes(), 2);
        assert_eq!(p.socket_of(0), 0);
        assert_eq!(p.socket_of(9), 0);
        assert_eq!(p.socket_of(10), 1);
        assert_eq!(p.socket_of(39), 3);
        assert_eq!(p.node_of(19), 0);
        assert_eq!(p.node_of(20), 1);
    }

    #[test]
    fn paper_run_18_ranks_on_2_sockets() {
        // §4: "18 MPI processes on 2 sockets" → 9 per socket, 1 node.
        let p = Placement::block(ClusterSpec::meggie(), 18, 9);
        assert_eq!(p.n_sockets(), 2);
        assert_eq!(p.n_nodes(), 1);
        assert_eq!(p.ranks_on_socket(0), 0..9);
        assert_eq!(p.ranks_on_socket(1), 9..18);
    }

    #[test]
    fn distance_classes_ordering() {
        let p = Placement::packed(ClusterSpec::meggie(), 40);
        assert_eq!(p.distance_class(0, 5), DistanceClass::IntraSocket);
        assert_eq!(p.distance_class(0, 15), DistanceClass::InterSocket);
        assert_eq!(p.distance_class(0, 25), DistanceClass::InterNode);
        // Latency grows with distance class.
        assert!(p.latency(0, 5) < p.latency(0, 15));
        assert!(p.latency(0, 15) < p.latency(0, 25));
    }

    #[test]
    fn partial_last_socket() {
        let p = Placement::block(ClusterSpec::meggie(), 25, 10);
        assert_eq!(p.n_sockets(), 3);
        assert_eq!(p.ranks_on_socket(2), 20..25);
    }

    #[test]
    fn supermuc_differs_from_meggie() {
        let s = ClusterSpec::supermuc_ng_like();
        let m = ClusterSpec::meggie();
        assert!(s.cores_per_socket > m.cores_per_socket);
        assert!(s.mem_bw_per_socket > m.mem_bw_per_socket);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Placement::packed(ClusterSpec::meggie(), 0);
    }
}
