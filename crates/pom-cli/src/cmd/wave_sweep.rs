//! `pom wave-sweep`: §5.1.1 — idle-wave speed vs. coupling βκ in the
//! model, a canned campaign on the sweep engine.

use std::fmt::Write as _;

use pom_sweep::registry::Parsed;
use pom_sweep::Campaign;

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let n = p.usize("n").max(8);
    let t_end = p.f64("t_end");
    let spec = format!(
        r#"
        [campaign]
        name = "wave-sweep"
        observables = ["wave_speed", "wave_r2"]
        [model]
        n = {n}
        potential = "tanh"
        tcomp = 0.9
        tcomm = 0.1
        [topology]
        kind = "ring"
        [init]
        kind = "sync"
        [inject]
        rank = 5
        at = 2.0
        len = 3.0
        extra = 1.0
        [sim]
        t_end = {t_end}
        samples = 400
        [wave]
        threshold = 0.05
        [[axes]]
        key = "model.coupling"
        values = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
        "#
    );
    let campaign = Campaign::from_str(&spec)?;
    let rows = campaign.run_collect(0)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Idle-wave speed vs βκ (model, tanh potential, ring ±1)"
    );
    let _ = writeln!(out, "{:>8}  {:>14}  {:>8}", "βκ", "speed [rk/u]", "R²");
    for row in &rows {
        if let Some(e) = &row.error {
            return Err(CliError::Run(e.clone()));
        }
        let bk = row.params[0].1.as_f64().unwrap_or(f64::NAN);
        let speed = row.observables[0].1;
        let r2 = row.observables[1].1;
        if speed.is_finite() && r2.is_finite() {
            let _ = writeln!(out, "{bk:>8.1}  {speed:>14.4}  {r2:>8.3}");
        } else {
            let _ = writeln!(out, "{bk:>8.1}  {:>14}  {:>8}", "no wave", "-");
        }
    }
    Ok(out)
}
