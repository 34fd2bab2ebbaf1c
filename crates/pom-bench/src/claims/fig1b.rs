//! Reproduce paper Fig. 1(b): memory-bandwidth scaling of STREAM triad,
//! "slow" Schönauer triad and PISOLVER over the cores of one Meggie
//! socket.
//!
//! Paper shape: STREAM saturates the ~68 GB/s socket within a few cores;
//! the slow triad's expensive cos/divide moves saturation to high core
//! counts; PISOLVER performs no memory traffic at all.

// Index-as-rank loops are intentional here (the index is the rank id).
#![allow(clippy::needless_range_loop)]

use crate::{save, Verdict};
use pom_kernels::{saturation_point, scaling_curve, Kernel, SocketSpec};
use pom_viz::{write_table, SvgCanvas};

pub(crate) fn check() -> Verdict {
    let socket = SocketSpec::meggie();
    let kernels = Kernel::paper_kernels();
    let curves: Vec<_> = kernels
        .iter()
        .map(|k| scaling_curve(k, &socket, socket.cores))
        .collect();

    println!(
        "{:>6}  {:>14}  {:>18}  {:>12}",
        "procs", "STREAM [MB/s]", "slow Schönauer", "PISOLVER"
    );
    let mut rows = Vec::new();
    for p in 0..socket.cores {
        let r = [
            (p + 1) as f64,
            curves[0][p].aggregate_bw / 1e6,
            curves[1][p].aggregate_bw / 1e6,
            curves[2][p].aggregate_bw / 1e6,
        ];
        println!(
            "{:>6}  {:>14.0}  {:>18.0}  {:>12.0}",
            p + 1,
            r[1],
            r[2],
            r[3]
        );
        rows.push(r.to_vec());
    }
    save(
        "fig1b_scaling.csv",
        &write_table(
            &["procs", "stream_mbs", "schoenauer_mbs", "pisolver_mbs"],
            &rows,
        ),
    );

    // SVG in the paper's axes (MB/s up to 6e4+).
    let mut svg = SvgCanvas::new(480.0, 300.0, (0.0, 10.5), (0.0, 7.2e4));
    for gy in [2e4, 4e4, 6e4] {
        svg.line((0.0, gy), (10.5, gy), "#ddd", 0.7);
        svg.text((0.1, gy + 500.0), 10.0, &format!("{:.0}e4", gy / 1e4));
    }
    let series = |ci: usize| -> Vec<(f64, f64)> {
        (0..socket.cores)
            .map(|p| ((p + 1) as f64, curves[ci][p].aggregate_bw / 1e6))
            .collect()
    };
    svg.polyline(&series(0), "crimson", 1.8); // STREAM
    svg.polyline(&series(1), "steelblue", 1.8); // slow Schönauer
    svg.polyline(&series(2), "seagreen", 1.8); // PISOLVER
    svg.text(
        (5.0, 6.9e4),
        11.0,
        "red: STREAM · blue: slow Schönauer · green: PISOLVER",
    );
    save("fig1b_scaling.svg", &svg.render());

    let sat_stream = saturation_point(&Kernel::stream_triad(), &socket, 0.95);
    let sat_slow = saturation_point(&Kernel::schoenauer_slow(), &socket, 0.95);
    let sat_pi = saturation_point(&Kernel::pisolver(), &socket, 0.05);
    println!("\nsaturation points (95% of socket bandwidth):");
    println!("  STREAM: {sat_stream:?} cores   slow Schönauer: {sat_slow:?} cores   PISOLVER: {sat_pi:?}");

    let ok = matches!(sat_stream, Some(c) if c <= 4)
        && matches!(sat_slow, Some(c) if c >= 7)
        && sat_pi.is_none()
        && curves[2].iter().all(|p| p.aggregate_bw == 0.0);
    Verdict {
        ok,
        detail: format!(
            "saturation order matches the paper: STREAM at {} cores, slow triad at {} cores, PISOLVER never",
            sat_stream.unwrap_or(0),
            sat_slow.unwrap_or(0)
        ),
    }
}
