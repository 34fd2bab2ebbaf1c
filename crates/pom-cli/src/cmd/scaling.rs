//! `pom scaling`: Fig. 1(b) — per-socket scaling of the three paper
//! kernels.

use std::fmt::Write as _;

use pom_kernels::{scaling_curve, Kernel, SocketSpec};
use pom_sweep::registry::Parsed;

use super::CliError;

// Index-as-rank loop is intentional (the index is the process count).
#[allow(clippy::needless_range_loop)]
pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let socket = SocketSpec::meggie();
    let cores = if p.is_given("cores") {
        p.usize("cores").max(1)
    } else {
        socket.cores
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 1(b): memory bandwidth [MB/s] vs processes per Meggie socket"
    );
    let _ = writeln!(
        out,
        "{:>6}  {:>14}  {:>18}  {:>12}",
        "procs", "STREAM", "slow Schönauer", "PISOLVER"
    );
    let curves: Vec<Vec<f64>> = Kernel::paper_kernels()
        .iter()
        .map(|k| {
            scaling_curve(k, &socket, cores)
                .into_iter()
                .map(|pt| pt.aggregate_bw / 1e6)
                .collect()
        })
        .collect();
    for proc in 0..cores {
        let _ = writeln!(
            out,
            "{:>6}  {:>14.0}  {:>18.0}  {:>12.0}",
            proc + 1,
            curves[0][proc],
            curves[1][proc],
            curves[2][proc]
        );
    }
    let sat = |k: &Kernel| {
        pom_kernels::saturation_point(k, &socket, 0.95)
            .map_or("never".to_string(), |c| format!("{c} cores"))
    };
    let _ = writeln!(
        out,
        "\nsaturation (95% of {:.0} GB/s):",
        socket.mem_bw / 1e9
    );
    let _ = writeln!(out, "  STREAM triad:    {}", sat(&Kernel::stream_triad()));
    let _ = writeln!(
        out,
        "  slow Schönauer:  {}",
        sat(&Kernel::schoenauer_slow())
    );
    let _ = writeln!(out, "  PISOLVER:        {}", sat(&Kernel::pisolver()));
    Ok(out)
}
