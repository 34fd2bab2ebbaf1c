//! Kernel descriptors and the roofline-with-saturation execution model.

/// Memory/compute resources of one socket, as seen by the kernel model.
///
/// This is deliberately independent of `pom_topology::ClusterSpec` (which
/// describes a whole machine); conversion is a one-liner where needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketSpec {
    /// Core clock, Hz.
    pub freq: f64,
    /// Number of cores.
    pub cores: usize,
    /// Saturated memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Memory bandwidth a *single* core can draw, bytes/s (concurrency-
    /// limited; well below `mem_bw` on server CPUs).
    pub single_core_bw: f64,
}

impl SocketSpec {
    /// One Meggie socket (§4): 10-core Broadwell at 2.2 GHz, 68 GB/s
    /// saturated, ~20 GB/s single-core.
    pub fn meggie() -> Self {
        SocketSpec {
            freq: 2.2e9,
            cores: 10,
            mem_bw: 68.0e9,
            single_core_bw: 20.0e9,
        }
    }
}

/// A loop kernel characterized per "loop update" (LUP — one iteration of
/// the inner loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// Floating-point operations per LUP.
    pub flops_per_lup: f64,
    /// Memory traffic per LUP in bytes (including write-allocate).
    pub bytes_per_lup: f64,
    /// In-core cost per LUP in clock cycles (pipeline/port bound; captures
    /// the expensive `cos`/divide of the slow triad).
    pub cycles_per_lup: f64,
}

impl Kernel {
    /// STREAM triad `A(:) = B(:) + s*C(:)`: 2 flops; 8-byte doubles with
    /// three streamed arrays plus write-allocate on `A` → 32 B/LUP; the
    /// FMA pipeline retires it in well under a cycle per LUP with AVX2.
    pub fn stream_triad() -> Self {
        Kernel {
            name: "stream-triad",
            flops_per_lup: 2.0,
            bytes_per_lup: 32.0,
            cycles_per_lup: 0.4,
        }
    }

    /// "Slow" Schönauer triad `A(:) = B(:) + cos(C(:)/D(:))`: four streamed
    /// arrays plus write-allocate → 40 B/LUP; the divide + cosine cost on
    /// the order of a dozen cycles per element and dominate in-core time
    /// (calibrated so a Meggie socket saturates near 9 cores, the paper's
    /// Fig. 1(b) shape).
    pub fn schoenauer_slow() -> Self {
        Kernel {
            name: "schoenauer-slow",
            flops_per_lup: 4.0,
            bytes_per_lup: 40.0,
            cycles_per_lup: 12.0,
        }
    }

    /// PISOLVER midpoint-rule step: `sum += 4/(1 + x*x)` with loop-carried
    /// divide — a handful of cycles per step, zero memory traffic.
    pub fn pisolver() -> Self {
        Kernel {
            name: "pisolver",
            flops_per_lup: 5.0,
            bytes_per_lup: 0.0,
            cycles_per_lup: 4.0,
        }
    }

    /// The three paper kernels in Fig. 1(b) order.
    pub fn paper_kernels() -> [Kernel; 3] {
        [
            Self::stream_triad(),
            Self::schoenauer_slow(),
            Self::pisolver(),
        ]
    }

    /// In-core execution time for `lups` loop updates (no memory
    /// bottleneck), seconds.
    pub fn core_time(&self, lups: f64, socket: &SocketSpec) -> f64 {
        lups * self.cycles_per_lup / socket.freq
    }

    /// Memory-transfer time for `lups` updates at achieved bandwidth `bw`.
    pub(crate) fn mem_time(&self, lups: f64, bw: f64) -> f64 {
        if self.bytes_per_lup == 0.0 {
            0.0
        } else {
            lups * self.bytes_per_lup / bw
        }
    }

    /// Execution time for `lups` updates when the core may draw at most
    /// `bw` bytes/s from memory: `max(in-core, traffic/bw)` (naive
    /// roofline; overlap assumed perfect).
    pub(crate) fn exec_time(&self, lups: f64, socket: &SocketSpec, bw: f64) -> f64 {
        let t_core = self.core_time(lups, socket);
        if self.bytes_per_lup == 0.0 {
            return t_core;
        }
        t_core.max(self.mem_time(lups, bw))
    }

    /// Unconstrained single-core execution time (bandwidth capped only by
    /// the core's own concurrency limit).
    pub(crate) fn single_core_time(&self, lups: f64, socket: &SocketSpec) -> f64 {
        self.exec_time(lups, socket, socket.single_core_bw)
    }

    /// Memory-bandwidth demand of one process running this kernel flat
    /// out on one core, bytes/s — the rate it sustains when un-contended.
    pub fn bandwidth_demand(&self, socket: &SocketSpec) -> f64 {
        if self.bytes_per_lup == 0.0 {
            return 0.0;
        }
        let t = self.single_core_time(1.0, socket);
        self.bytes_per_lup / t
    }

    /// Number of LUPs whose single-core execution takes `seconds` — used
    /// to size workloads that should run a target compute-phase duration.
    pub fn lups_for_duration(&self, seconds: f64, socket: &SocketSpec) -> f64 {
        seconds / self.single_core_time(1.0, socket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_demands_more_bandwidth_than_slow_triad() {
        // The whole point of the slow triad (§4): heavier in-core cost per
        // LUP ⇒ lower per-core bandwidth demand ⇒ later saturation.
        let s = SocketSpec::meggie();
        let stream = Kernel::stream_triad().bandwidth_demand(&s);
        let slow = Kernel::schoenauer_slow().bandwidth_demand(&s);
        assert!(
            stream > 2.0 * slow,
            "stream {stream:.2e} vs slow {slow:.2e}"
        );
        assert_eq!(Kernel::pisolver().bandwidth_demand(&s), 0.0);
    }

    #[test]
    fn stream_is_bandwidth_bound_on_one_core() {
        let s = SocketSpec::meggie();
        let k = Kernel::stream_triad();
        let lups = 1e9;
        // Memory time at single-core bw exceeds the in-core time.
        assert!(k.mem_time(lups, s.single_core_bw) > k.core_time(lups, &s));
        assert_eq!(
            k.single_core_time(lups, &s),
            k.mem_time(lups, s.single_core_bw)
        );
    }

    #[test]
    fn slow_triad_is_core_bound_on_one_core() {
        let s = SocketSpec::meggie();
        let k = Kernel::schoenauer_slow();
        let lups = 1e9;
        assert!(k.core_time(lups, &s) > k.mem_time(lups, s.single_core_bw));
        assert_eq!(k.single_core_time(lups, &s), k.core_time(lups, &s));
    }

    #[test]
    fn exec_time_scales_linearly_in_lups() {
        let s = SocketSpec::meggie();
        for k in Kernel::paper_kernels() {
            let t1 = k.single_core_time(1e6, &s);
            let t2 = k.single_core_time(2e6, &s);
            assert!((t2 - 2.0 * t1).abs() < 1e-12 * t2.max(1.0));
        }
    }

    #[test]
    fn throttled_bandwidth_stretches_memory_kernels_only() {
        let s = SocketSpec::meggie();
        let lups = 1e8;
        let full = Kernel::stream_triad().exec_time(lups, &s, 20e9);
        let starved = Kernel::stream_triad().exec_time(lups, &s, 5e9);
        assert!(starved > 3.0 * full, "{starved} vs {full}");
        // Compute-bound kernel is indifferent.
        let a = Kernel::pisolver().exec_time(lups, &s, 20e9);
        let b = Kernel::pisolver().exec_time(lups, &s, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn lups_for_duration_roundtrip() {
        let s = SocketSpec::meggie();
        for k in Kernel::paper_kernels() {
            let lups = k.lups_for_duration(0.25, &s);
            let t = k.single_core_time(lups, &s);
            assert!((t - 0.25).abs() < 1e-9, "{}: {t}", k.name);
        }
    }

    #[test]
    fn meggie_socket_matches_paper() {
        let s = SocketSpec::meggie();
        assert_eq!(s.cores, 10);
        assert!((s.mem_bw - 68e9).abs() < 1.0);
    }
}
