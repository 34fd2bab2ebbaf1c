//! De-/resynchronization diagnostics.
//!
//! After an idle wave has passed, the paper distinguishes two asymptotic
//! fates (§5.1.2, §5.2): scalable programs *resynchronize* (all processes
//! settle back into lockstep, possibly uniformly shifted by the absorbed
//! delay), while bottlenecked programs keep a *computational wavefront* —
//! persistent skew between processes, organized socket-by-socket in the
//! paper's MPI traces.

use pom_core::PomRun;
use pom_mpisim::SimTrace;

use crate::stats::mean;

/// Verdict on the asymptotic state of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesyncVerdict {
    /// Processes returned to (or stayed in) lockstep.
    Synchronized,
    /// Persistent macroscopic skew remains.
    Desynchronized,
}

/// Mean iteration-start spread over the trailing window
/// `[start_iter, n_iterations)` of a simulator trace.
pub fn residual_spread(trace: &SimTrace, start_iter: usize) -> f64 {
    let n = trace.n_iterations();
    assert!(
        start_iter < n,
        "window start {start_iter} beyond {n} iterations"
    );
    let spreads: Vec<f64> = (start_iter..n)
        .map(|k| trace.iteration_start_spread(k))
        .collect();
    mean(&spreads)
}

/// Classify a simulator run: desynchronized if the trailing-window spread
/// exceeds `threshold` seconds.
pub(crate) fn sim_verdict(trace: &SimTrace, start_iter: usize, threshold: f64) -> DesyncVerdict {
    if residual_spread(trace, start_iter) > threshold {
        DesyncVerdict::Desynchronized
    } else {
        DesyncVerdict::Synchronized
    }
}

/// Per-socket mean iteration-start offsets (relative to the globally
/// earliest rank) at iteration `k` — the coordinate in which the paper's
/// Fig. 2(b/d) wavefront is visible ("runtime differences among processes
/// on three of four Meggie sockets").
pub fn socket_offsets(trace: &SimTrace, ranks_per_socket: usize, k: usize) -> Vec<f64> {
    assert!(ranks_per_socket > 0);
    let starts = trace.iteration_starts(k);
    let lo = starts.iter().cloned().fold(f64::INFINITY, f64::min);
    starts
        .chunks(ranks_per_socket)
        .map(|chunk| mean(&chunk.iter().map(|s| s - lo).collect::<Vec<_>>()))
        .collect()
}

/// Mean phase spread of a model run over the trailing `window` fraction
/// of its samples (e.g. 0.2 = last fifth).
pub fn model_residual_spread(run: &PomRun, window: f64) -> f64 {
    assert!((0.0..=1.0).contains(&window) && window > 0.0);
    let series = run.phase_spread_series();
    let n = series.len();
    let start = ((1.0 - window) * n as f64) as usize;
    let tail: Vec<f64> = series[start.min(n - 1)..].iter().map(|p| p.1).collect();
    mean(&tail)
}

/// Classify a model run by its trailing phase spread (radians).
pub(crate) fn model_verdict(run: &PomRun, threshold: f64) -> DesyncVerdict {
    if model_residual_spread(run, 0.2) > threshold {
        DesyncVerdict::Desynchronized
    } else {
        DesyncVerdict::Synchronized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_core::{InitialCondition, PomBuilder, Potential};
    use pom_kernels::Kernel;
    use pom_mpisim::{ProgramSpec, SimDelay, Simulator, WorkSpec};
    use pom_topology::{ClusterSpec, Placement, Topology};

    fn injected_run(kernel: Kernel, message_bytes: usize) -> SimTrace {
        let p = ProgramSpec::new(20, 40)
            .kernel(kernel)
            .work(WorkSpec::TargetSeconds(1e-3))
            .message_bytes(message_bytes)
            .inject(SimDelay {
                rank: 5,
                iteration: 5,
                extra_seconds: 5e-3,
            });
        Simulator::new(p, Placement::packed(ClusterSpec::meggie(), 20))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn sim_verdicts_separate_the_two_classes() {
        // Scalable: resynchronizes (uniform shift ⇒ tiny spread).
        let scal = injected_run(Kernel::pisolver(), 4_000_000);
        assert_eq!(sim_verdict(&scal, 30, 5e-4), DesyncVerdict::Synchronized);
        // Memory-bound with non-negligible comm: residual wavefront.
        let mem = injected_run(Kernel::stream_triad(), 4_000_000);
        assert_eq!(sim_verdict(&mem, 30, 5e-4), DesyncVerdict::Desynchronized);
        assert!(residual_spread(&mem, 30) > residual_spread(&scal, 30));
    }

    #[test]
    fn socket_offsets_shape() {
        let mem = injected_run(Kernel::stream_triad(), 4_000_000);
        let offs = socket_offsets(&mem, 10, 35);
        assert_eq!(offs.len(), 2); // 20 ranks, 10 per socket
        assert!(offs.iter().all(|&o| o >= 0.0));
        // The wavefront lives *between* sockets: offsets differ.
        assert!((offs[0] - offs[1]).abs() > 1e-4, "offsets {offs:?}");
    }

    #[test]
    fn model_verdicts_follow_potentials() {
        let run = |potential| {
            PomBuilder::new(12)
                .topology(Topology::chain(12, &[-1, 1]))
                .potential(potential)
                .compute_time(1.0)
                .comm_time(0.0)
                .coupling(8.0)
                .build()
                .unwrap()
                .simulate(
                    InitialCondition::RandomSpread {
                        amplitude: 0.2,
                        seed: 3,
                    },
                    250.0,
                )
                .unwrap()
        };
        let tanh = run(Potential::Tanh);
        assert_eq!(model_verdict(&tanh, 0.5), DesyncVerdict::Synchronized);
        let desync = run(Potential::desync(1.5));
        assert_eq!(model_verdict(&desync, 0.5), DesyncVerdict::Desynchronized);
        assert!(model_residual_spread(&desync, 0.2) > model_residual_spread(&tanh, 0.2));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn residual_spread_checks_window() {
        let tr = pom_mpisim::lockstep_run(4, 5, Kernel::pisolver(), 1e-3).unwrap();
        residual_spread(&tr, 10);
    }
}
