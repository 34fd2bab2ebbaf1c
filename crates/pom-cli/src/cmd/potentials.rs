//! `pom potentials`: Fig. 1(a) — sample both potentials (plus plain
//! Kuramoto for contrast).

use std::fmt::Write as _;

use pom_core::Potential;
use pom_sweep::registry::Parsed;

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let sigma = p.f64("sigma");
    let xmax = p.f64("xmax");
    let n = p.usize("n").max(5);
    let tanh = Potential::tanh();
    let desync = Potential::desync(sigma);
    let sin = Potential::KuramotoSin;

    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 1(a): interaction potentials, sigma = {sigma}");
    let _ = writeln!(
        out,
        "{:>8}  {:>10}  {:>10}  {:>10}",
        "x", "tanh", "desync", "kuramoto"
    );
    for k in 0..n {
        let x = -xmax + 2.0 * xmax * k as f64 / (n - 1) as f64;
        let _ = writeln!(
            out,
            "{x:>8.3}  {:>10.5}  {:>10.5}  {:>10.5}",
            tanh.value(x),
            desync.value(x),
            sin.value(x)
        );
    }
    let _ = writeln!(
        out,
        "\nfirst zero of desync potential: {:.4} (= 2σ/3 = {:.4})",
        desync.stable_pair_separation(),
        2.0 * sigma / 3.0
    );
    let _ = writeln!(
        out,
        "lockstep stable under tanh: {}",
        tanh.lockstep_stable()
    );
    let _ = writeln!(
        out,
        "lockstep stable under desync: {}",
        desync.lockstep_stable()
    );
    Ok(out)
}
