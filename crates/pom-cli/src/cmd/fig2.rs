//! `pom fig2`: one Fig. 2 corner case — joint model + simulator run
//! with verdict.

use std::fmt::Write as _;

use pom_analysis::fig2_verdict;
use pom_core::{fig2_params, Fig2Panel};
use pom_sweep::registry::Parsed;

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let panel = match p.str("panel") {
        "a" => Fig2Panel::A,
        "b" => Fig2Panel::B,
        "c" => Fig2Panel::C,
        "d" => Fig2Panel::D,
        other => unreachable!("enum-checked panel `{other}`"),
    };
    let v = fig2_verdict(panel);
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 2 {}", fig2_params(panel));
    let _ = writeln!(out, "model verdict:            {:?}", v.model);
    let _ = writeln!(out, "simulator verdict:        {:?}", v.sim);
    let _ = writeln!(
        out,
        "model wave speed:         {}",
        v.model_wave_speed
            .map_or("n/a".into(), |s| format!("{s:.3} ranks/unit"))
    );
    let _ = writeln!(
        out,
        "simulator wave speed:     {}",
        v.sim_wave_speed
            .map_or("n/a".into(), |s| format!("{s:.1} ranks/s"))
    );
    let _ = writeln!(
        out,
        "model residual spread:    {:.4} rad",
        v.model_residual_spread
    );
    let _ = writeln!(
        out,
        "model adjacent gap:       {:.4} rad",
        v.model_adjacent_gap
    );
    let _ = writeln!(
        out,
        "sim residual spread:      {:.3e} s",
        v.sim_residual_spread
    );
    let _ = writeln!(
        out,
        "paper expectation met:    {}",
        if v.agrees() { "YES" } else { "NO" }
    );
    Ok(out)
}
