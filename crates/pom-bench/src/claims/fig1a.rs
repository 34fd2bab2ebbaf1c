//! Reproduce paper Fig. 1(a): the two interaction potentials.
//!
//! Red curve: `V(x) = tanh(x)` (scalable programs). Blue curve: the
//! desynchronizing potential with interaction horizon σ — repulsive
//! within `|x| < 2σ/3`, attractive beyond, constant past σ. The paper's
//! plot uses x ∈ [−10, 10] with σ = 3.

use crate::{save, Verdict};
use pom_core::Potential;
use pom_viz::{write_table, SvgCanvas};

pub(crate) fn check() -> Verdict {
    let sigma = 3.0;
    let tanh = Potential::tanh();
    let desync = Potential::desync(sigma);

    // Table (paper's x range).
    let n = 201;
    println!("{:>8}  {:>10}  {:>10}", "x", "tanh", "desync");
    let mut rows = Vec::with_capacity(n);
    for k in 0..n {
        let x = -10.0 + 20.0 * k as f64 / (n - 1) as f64;
        rows.push(vec![x, tanh.value(x), desync.value(x)]);
        if k % 20 == 0 {
            println!(
                "{x:>8.2}  {:>10.5}  {:>10.5}",
                tanh.value(x),
                desync.value(x)
            );
        }
    }
    save(
        "fig1a_potentials.csv",
        &write_table(&["x", "tanh", "desync"], &rows),
    );

    // SVG in the paper's style.
    let mut svg = SvgCanvas::new(480.0, 280.0, (-10.5, 10.5), (-1.3, 1.3));
    svg.line((-10.5, 0.0), (10.5, 0.0), "#bbb", 0.7);
    svg.line((0.0, -1.3), (0.0, 1.3), "#bbb", 0.7);
    svg.polyline(&tanh.sample_curve(-10.0, 10.0, 400), "crimson", 1.8);
    svg.polyline(&desync.sample_curve(-10.0, 10.0, 400), "steelblue", 1.8);
    svg.line((sigma, -1.2), (sigma, 1.2), "#999", 0.7);
    svg.text((sigma + 0.2, -1.1), 11.0, "σ");
    svg.text(
        (-9.8, 1.15),
        11.0,
        "red: tanh (scalable) · blue: desync (bottlenecked)",
    );
    save("fig1a_potentials.svg", &svg.render());

    // Shape checks that define the figure.
    let zero = desync.stable_pair_separation();
    let checks = [
        (
            "first zero at 2σ/3",
            (zero - 2.0 * sigma / 3.0).abs() < 1e-12,
        ),
        ("desync repulsive inside", desync.value(1.0) < 0.0),
        (
            "desync attractive outside",
            desync.value(2.5) > 0.0 && desync.value(8.0) > 0.0,
        ),
        (
            "tanh attractive everywhere",
            (0..100).all(|k| tanh.value(0.1 + k as f64 * 0.1) > 0.0),
        ),
        (
            "both bounded by 1",
            (0..400).all(|k| {
                let x = -10.0 + k as f64 * 0.05;
                tanh.value(x).abs() <= 1.0 && desync.value(x).abs() <= 1.0 + 1e-12
            }),
        ),
        (
            "continuous at ±σ",
            (desync.value(sigma - 1e-9) - desync.value(sigma + 1e-9)).abs() < 1e-6,
        ),
    ];
    for (name, ok) in &checks {
        println!("  [{}] {name}", if *ok { "ok" } else { "FAIL" });
    }
    Verdict {
        ok: checks.iter().all(|c| c.1),
        detail: format!("both potentials have the paper's shape; desync zero at {zero:.4} = 2σ/3"),
    }
}
