//! Parameter portability (the paper's artifact appendix reports the same
//! experiments on SuperMUC-NG): rerun the Fig. 2(a/b) analog on the
//! SuperMUC-NG-like cluster spec — different core counts, bandwidth and
//! frequencies — and check the *qualitative* conclusions are unchanged.

use crate::{save, simulate, Verdict, KICK};
use pom_analysis::{residual_spread, sim_wave_arrivals, wave_speed_fit};
use pom_kernels::Kernel;
use pom_mpisim::{ProgramSpec, SimTrace};
use pom_topology::ClusterSpec;
use pom_viz::write_table;

fn run(spec: ClusterSpec, kernel: Kernel, msg: usize, inject: bool) -> SimTrace {
    // Two full sockets of whatever the machine offers.
    let p = ProgramSpec::new(2 * spec.cores_per_socket, 50)
        .kernel(kernel)
        .message_bytes(msg);
    simulate(if inject { p.inject(KICK) } else { p }, spec)
}

pub(crate) fn check() -> Verdict {
    let mut rows = Vec::new();
    let mut ok = true;
    for (name, spec) in [
        ("meggie", ClusterSpec::meggie()),
        ("supermuc-ng", ClusterSpec::supermuc_ng_like()),
    ] {
        // Scalable side.
        let pert = run(spec.clone(), Kernel::pisolver(), 8, true);
        let base = run(spec.clone(), Kernel::pisolver(), 8, false);
        let arrivals = sim_wave_arrivals(&pert, &base, 2e-3);
        let speed = wave_speed_fit(&arrivals, 5, 12)
            .mean_speed()
            .map(|s| s * 1e-3) // ranks per iteration (1 ms per iteration)
            .unwrap_or(0.0);
        let scal_res = residual_spread(&pert, 40);

        // Bottlenecked side.
        let mem = run(spec.clone(), Kernel::stream_triad(), 4_000_000, true);
        let mem_res = residual_spread(&mem, 40);

        println!(
            "{name:>12}: wave speed {speed:.2} rk/iter, scalable residual {scal_res:.2e} s, memory-bound residual {mem_res:.2e} s"
        );
        rows.push(vec![speed, scal_res, mem_res]);
        ok &= (speed - 1.0).abs() < 0.2 && scal_res < 5e-4 && mem_res > 1e-3;
    }
    save(
        "supermuc_portability.csv",
        &write_table(
            &[
                "wave_speed_rk_iter",
                "scalable_residual",
                "membound_residual",
            ],
            &rows,
        ),
    );
    Verdict {
        ok,
        detail: "both clusters show the same qualitative split: resync (scalable) vs wavefront (memory-bound), ~1 rank/iter waves".to_string(),
    }
}
