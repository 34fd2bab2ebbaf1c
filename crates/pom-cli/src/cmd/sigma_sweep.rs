//! `pom sigma-sweep`: §5.2.2 — asymptotic adjacent phase gap vs
//! interaction horizon σ, a canned campaign on the sweep engine.

use std::fmt::Write as _;

use pom_sweep::registry::Parsed;
use pom_sweep::Campaign;

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let n = p.usize("n").max(4);
    let t_end = p.f64("t_end");
    let spec = format!(
        r#"
        [campaign]
        name = "sigma-sweep"
        observables = ["mean_abs_gap", "rel_err_two_thirds"]
        [model]
        n = {n}
        potential = "desync"
        tcomp = 0.9
        tcomm = 0.1
        coupling = 4.0
        [topology]
        kind = "chain"
        [init]
        kind = "spread"
        amplitude = 0.2
        seed = 3
        [sim]
        t_end = {t_end}
        samples = 300
        [[axes]]
        key = "model.sigma"
        values = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0]
        "#
    );
    let campaign = Campaign::from_str(&spec)?;
    let rows = campaign.run_collect(0)?;

    let mut out = String::new();
    let _ = writeln!(out, "# Asymptotic |adjacent gap| vs σ (model, chain ±1)");
    let _ = writeln!(
        out,
        "{:>8}  {:>12}  {:>12}  {:>10}",
        "σ", "gap [rad]", "2σ/3", "rel.err"
    );
    for row in &rows {
        if let Some(e) = &row.error {
            return Err(CliError::Run(e.clone()));
        }
        let sigma = row.params[0].1.as_f64().unwrap_or(f64::NAN);
        let mean_gap = row.observables[0].1;
        let rel = row.observables[1].1;
        let expect = 2.0 * sigma / 3.0;
        let _ = writeln!(
            out,
            "{sigma:>8.1}  {mean_gap:>12.4}  {expect:>12.4}  {rel:>10.4}"
        );
    }
    Ok(out)
}
