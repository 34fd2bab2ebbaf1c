//! Bulk-synchronous program descriptions for the simulator.

use pom_kernels::Kernel;
use pom_noise::SplitMix64;

use crate::protocol::MpiProtocol;

/// How much work each rank performs per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkSpec {
    /// Explicit loop-update count per iteration.
    Lups(f64),
    /// Sized so the *un-contended* single-core compute phase lasts this
    /// many seconds (convenient for matching the oscillator model's
    /// `t_comp`).
    TargetSeconds(f64),
}

/// An injected one-off delay (paper §5.1): `rank` performs `extra_seconds`
/// of additional in-core work in iteration `iteration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimDelay {
    /// Affected rank.
    pub rank: usize,
    /// Iteration receiving the extra workload.
    pub iteration: usize,
    /// Extra in-core time, seconds.
    pub extra_seconds: f64,
}

/// Description of the MPI toy code to simulate.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Number of MPI ranks.
    pub n_ranks: usize,
    /// Number of bulk-synchronous iterations.
    pub iterations: usize,
    /// The compute kernel run each iteration.
    pub kernel: Kernel,
    /// Per-iteration work volume.
    pub work: WorkSpec,
    /// Signed dependency distances: rank `i` receives from `i + d (mod N)`
    /// each iteration (the oscillator model's topology row).
    pub distances: Vec<i32>,
    /// Point-to-point protocol.
    pub protocol: MpiProtocol,
    /// Message payload size, bytes (the paper uses short messages).
    pub message_bytes: usize,
    /// One-off delay injections.
    pub injections: Vec<SimDelay>,
    /// Insert a synchronizing collective (allreduce/barrier) after every
    /// `k`-th iteration (`None` = barrier-free, the paper's default;
    /// §6 discusses why frequent synchronization fights scalability).
    pub allreduce_every: Option<usize>,
    /// Half-normal per-iteration compute noise amplitude, seconds
    /// (0 = silent system).
    pub noise_sigma: f64,
    /// Seed for the frozen noise.
    pub noise_seed: u64,
}

impl ProgramSpec {
    /// A scalable next-neighbor program skeleton: PISOLVER kernel,
    /// 1 ms compute target, `d = ±1`, eager protocol, 8-byte messages,
    /// silent system.
    pub fn new(n_ranks: usize, iterations: usize) -> Self {
        ProgramSpec {
            n_ranks,
            iterations,
            kernel: Kernel::pisolver(),
            work: WorkSpec::TargetSeconds(1e-3),
            distances: vec![-1, 1],
            protocol: MpiProtocol::Eager,
            message_bytes: 8,
            injections: Vec::new(),
            allreduce_every: None,
            noise_sigma: 0.0,
            noise_seed: 0x9D_0E5,
        }
    }

    /// Set the compute kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Set the per-iteration work volume.
    pub fn work(mut self, work: WorkSpec) -> Self {
        self.work = work;
        self
    }

    /// Set the dependency distance set.
    pub fn distances(mut self, distances: Vec<i32>) -> Self {
        self.distances = distances;
        self
    }

    /// Set the point-to-point protocol.
    pub fn protocol(mut self, protocol: MpiProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Set the message size.
    pub fn message_bytes(mut self, bytes: usize) -> Self {
        self.message_bytes = bytes;
        self
    }

    /// Add a one-off delay injection.
    pub fn inject(mut self, delay: SimDelay) -> Self {
        self.injections.push(delay);
        self
    }

    /// Insert a synchronizing collective after every `k`-th iteration.
    pub fn allreduce_every(mut self, k: usize) -> Self {
        self.allreduce_every = Some(k);
        self
    }

    /// Enable background compute noise (half-normal, `sigma` seconds).
    pub fn noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise_sigma = sigma;
        self.noise_seed = seed;
        self
    }

    /// Ranks this rank *receives from* each iteration (`i + d`, wrapped).
    pub(crate) fn recv_partners(&self, rank: usize) -> Vec<usize> {
        let n = self.n_ranks as i64;
        let mut v: Vec<usize> = self
            .distances
            .iter()
            .map(|&d| ((rank as i64 + d as i64).rem_euclid(n)) as usize)
            .filter(|&j| j != rank)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Ranks this rank *sends to* each iteration (the mirror of
    /// [`ProgramSpec::recv_partners`]: `i − d`, wrapped).
    pub(crate) fn send_partners(&self, rank: usize) -> Vec<usize> {
        let n = self.n_ranks as i64;
        let mut v: Vec<usize> = self
            .distances
            .iter()
            .map(|&d| ((rank as i64 - d as i64).rem_euclid(n)) as usize)
            .filter(|&j| j != rank)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total injected extra core time for `(rank, iteration)`, including
    /// background noise (deterministic in the seed).
    pub(crate) fn extra_core_time(&self, rank: usize, iteration: usize) -> f64 {
        let mut extra: f64 = self
            .injections
            .iter()
            .filter(|d| d.rank == rank && d.iteration == iteration)
            .map(|d| d.extra_seconds)
            .sum();
        if self.noise_sigma > 0.0 {
            let h = SplitMix64::hash3(self.noise_seed, rank as u64, iteration as u64);
            // Half-normal from two 32-bit uniforms (Box–Muller magnitude).
            let u1 = ((h >> 32) as f64 + 0.5) / 4294967296.0;
            let u2 = ((h & 0xFFFF_FFFF) as f64 + 0.5) / 4294967296.0;
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            extra += self.noise_sigma * g.abs();
        }
        extra
    }

    /// Validate structural invariants.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.n_ranks == 0 {
            return Err("n_ranks must be positive".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.distances.is_empty() {
            return Err("distance set must be non-empty".into());
        }
        match self.work {
            WorkSpec::Lups(l) if !(l.is_finite() && l > 0.0) => {
                return Err(format!("work lups {l} must be positive"));
            }
            WorkSpec::TargetSeconds(s) if !(s.is_finite() && s > 0.0) => {
                return Err(format!("work target {s} must be positive"));
            }
            _ => {}
        }
        if self.allreduce_every == Some(0) {
            return Err("allreduce_every must be at least 1".into());
        }
        if self.noise_sigma < 0.0 || !self.noise_sigma.is_finite() {
            return Err(format!(
                "noise sigma {} must be non-negative",
                self.noise_sigma
            ));
        }
        for inj in &self.injections {
            if inj.rank >= self.n_ranks {
                return Err(format!("injection rank {} out of range", inj.rank));
            }
            if inj.iteration >= self.iterations {
                return Err(format!(
                    "injection iteration {} out of range",
                    inj.iteration
                ));
            }
            if !(inj.extra_seconds.is_finite() && inj.extra_seconds >= 0.0) {
                return Err(format!("injection extra {} invalid", inj.extra_seconds));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partners_symmetric_distance_set() {
        let p = ProgramSpec::new(10, 5);
        assert_eq!(p.recv_partners(3), vec![2, 4]);
        assert_eq!(p.send_partners(3), vec![2, 4]);
        // Wraparound.
        assert_eq!(p.recv_partners(0), vec![1, 9]);
    }

    #[test]
    fn partners_asymmetric_distance_set() {
        // Fig. 2 bottom row: receives from i−2, i−1, i+1.
        let p = ProgramSpec::new(10, 5).distances(vec![-2, -1, 1]);
        assert_eq!(p.recv_partners(5), vec![3, 4, 6]);
        // Mirror: sends to i+2, i+1, i−1.
        assert_eq!(p.send_partners(5), vec![4, 6, 7]);
    }

    #[test]
    fn send_recv_matching_is_consistent() {
        // Global invariant: j ∈ recv_partners(i) ⇔ i ∈ send_partners(j) —
        // every expected message has exactly one sender.
        let p = ProgramSpec::new(12, 3).distances(vec![-2, -1, 1, 3]);
        for i in 0..12 {
            for &j in &p.recv_partners(i) {
                assert!(
                    p.send_partners(j).contains(&i),
                    "rank {i} expects from {j}, but {j} does not send to {i}"
                );
            }
            for &j in &p.send_partners(i) {
                assert!(p.recv_partners(j).contains(&i));
            }
        }
    }

    #[test]
    fn injection_lookup() {
        let p = ProgramSpec::new(8, 10).inject(SimDelay {
            rank: 5,
            iteration: 3,
            extra_seconds: 0.5,
        });
        assert_eq!(p.extra_core_time(5, 3), 0.5);
        assert_eq!(p.extra_core_time(5, 4), 0.0);
        assert_eq!(p.extra_core_time(4, 3), 0.0);
    }

    #[test]
    fn noise_is_deterministic_nonnegative_and_scaled() {
        let p = ProgramSpec::new(8, 100).noise(1e-4, 42);
        let a = p.extra_core_time(2, 7);
        assert_eq!(a, p.extra_core_time(2, 7));
        assert!(a >= 0.0);
        // Mean of |N(0,σ)| is σ·√(2/π) ≈ 0.8σ — check the sample mean.
        let mean: f64 = (0..2000).map(|k| p.extra_core_time(1, k)).sum::<f64>() / 2000.0;
        let expect = 1e-4 * (2.0 / std::f64::consts::PI).sqrt();
        assert!(
            (mean - expect).abs() < 0.2 * expect,
            "mean {mean:e} vs {expect:e}"
        );
    }

    #[test]
    fn validation_catches_errors() {
        assert!(ProgramSpec::new(0, 5).validate().is_err());
        assert!(ProgramSpec::new(5, 0).validate().is_err());
        assert!(ProgramSpec::new(5, 5).distances(vec![]).validate().is_err());
        assert!(ProgramSpec::new(5, 5)
            .work(WorkSpec::Lups(-1.0))
            .validate()
            .is_err());
        assert!(ProgramSpec::new(5, 5)
            .inject(SimDelay {
                rank: 9,
                iteration: 0,
                extra_seconds: 0.1
            })
            .validate()
            .is_err());
        assert!(ProgramSpec::new(5, 5)
            .inject(SimDelay {
                rank: 1,
                iteration: 9,
                extra_seconds: 0.1
            })
            .validate()
            .is_err());
        assert!(ProgramSpec::new(5, 5).validate().is_ok());
    }

    #[test]
    fn allreduce_period_validated() {
        assert!(ProgramSpec::new(4, 5)
            .allreduce_every(0)
            .validate()
            .is_err());
        assert!(ProgramSpec::new(4, 5).allreduce_every(3).validate().is_ok());
    }

    #[test]
    fn noise_exceeding_iterations_is_fine() {
        // extra_core_time must not panic past the nominal iteration count
        // (the engine never asks, but analysis code may probe).
        let p = ProgramSpec::new(4, 5).noise(1e-5, 1);
        let _ = p.extra_core_time(0, 10_000);
    }
}
