//! Ablation: how much communication time the simulated
//! cluster needs for a *persistent* computational wavefront.
//!
//! The reproduction uncovered a sharp mechanism: with negligible message
//! cost the socket contention *re-synchronizes* perturbed memory-bound
//! ranks (the fair-share pool compresses gaps), and the injected delay is
//! absorbed without a lasting wavefront. Only when communication time is
//! non-negligible does the staggered state persist — consistent with the
//! paper's Meggie runs, where the memory-bound codes exchanged data every
//! sweep. This check sweeps the message size and reports the residual
//! wavefront.

use crate::{save, simulate, Verdict, KICK};
use pom_analysis::residual_spread;
use pom_kernels::Kernel;
use pom_mpisim::ProgramSpec;
use pom_topology::ClusterSpec;
use pom_viz::write_table;

fn residual_for(message_bytes: usize) -> f64 {
    let p = ProgramSpec::new(40, 50)
        .kernel(Kernel::stream_triad())
        .message_bytes(message_bytes)
        .inject(KICK);
    residual_spread(&simulate(p, ClusterSpec::meggie()), 40)
}

pub(crate) fn check() -> Verdict {
    println!(
        "{:>12}  {:>16}  {:>18}",
        "msg [bytes]", "comm time [s]", "residual spread [s]"
    );
    let bw = ClusterSpec::meggie().network.bandwidth;
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for msg in [
        8usize, 10_000, 100_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
    ] {
        let res = residual_for(msg);
        let comm = msg as f64 / bw;
        println!("{msg:>12}  {comm:>16.3e}  {res:>18.3e}");
        rows.push(vec![msg as f64, comm, res]);
        series.push((msg, res));
    }
    save(
        "comm_ablation.csv",
        &write_table(&["msg_bytes", "comm_time", "residual_spread"], &rows),
    );

    let tiny_msgs = series.first().unwrap().1;
    let big_msgs = series.last().unwrap().1;
    println!(
        "\n8 B messages: residual {tiny_msgs:.2e} s (contention resyncs); \
         4 MB messages: residual {big_msgs:.2e} s (persistent wavefront)"
    );
    Verdict {
        ok: big_msgs > 20.0 * tiny_msgs && big_msgs > 1e-3,
        detail: format!(
            "wavefront persistence requires non-negligible comm: {:.0}× more residual skew at 4 MB than at 8 B",
            big_msgs / tiny_msgs
        ),
    }
}
