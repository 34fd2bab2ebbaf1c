//! Extension experiment (paper §6): "frequently synchronizing parallel
//! programs are incompatible with massive parallelism; in the future,
//! parallel code may be more strongly task-based and asynchronous,
//! allowing for slow idle wave progression and desynchronization."
//!
//! Protocol: take the memory-bound (bottleneck-evading) workload and
//! force a synchronizing collective every K iterations. The collective
//! wipes the computational wavefront each time — and with it the
//! bottleneck-evasion dividend: per-iteration cost rises as K shrinks.

use crate::{save, simulate, Verdict, KICK};
use pom_analysis::residual_spread;
use pom_kernels::Kernel;
use pom_mpisim::{ProgramSpec, SimTrace};
use pom_topology::ClusterSpec;
use pom_viz::write_table;

fn run(allreduce_every: Option<usize>) -> SimTrace {
    let mut p = ProgramSpec::new(40, 60)
        .kernel(Kernel::stream_triad())
        .message_bytes(4_000_000)
        .inject(KICK);
    if let Some(k) = allreduce_every {
        p = p.allreduce_every(k);
    }
    simulate(p, ClusterSpec::meggie())
}

pub(crate) fn check() -> Verdict {
    println!(
        "{:>16}  {:>18}  {:>14}",
        "allreduce every", "residual skew [s]", "makespan [s]"
    );
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for k in [None, Some(20), Some(8), Some(2)] {
        let tr = run(k);
        let res = residual_spread(&tr, 50);
        let label = k.map_or("never".to_string(), |k| k.to_string());
        println!("{label:>16}  {res:>18.3e}  {:>14.5}", tr.makespan());
        rows.push(vec![k.map_or(0.0, |k| k as f64), res, tr.makespan()]);
        results.push((k, res, tr.makespan()));
    }
    save(
        "collectives.csv",
        &write_table(&["allreduce_every", "residual_skew", "makespan"], &rows),
    );

    let free = &results[0];
    let tight = results.last().unwrap();
    // Barrier-free: macroscopic persistent wavefront. Every-2: skew wiped
    // and the run is slower.
    let ok = free.1 > 1e-3 && tight.1 < free.1 / 3.0 && tight.2 > free.2;
    Verdict {
        ok,
        detail: format!(
            "barrier-free skew {:.1e} s vs every-2-collectives {:.1e} s; makespan {:.4} → {:.4} s (collectives cost {:.1}%)",
            free.1,
            tight.1,
            free.2,
            tight.2,
            100.0 * (tight.2 / free.2 - 1.0)
        ),
    }
}
