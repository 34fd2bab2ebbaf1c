//! Shared harness for the per-figure reproduction binaries.
//!
//! Every `repro_*` binary regenerates one table/figure of the paper (the
//! README lists them) and:
//!
//! 1. prints the series as an aligned text table to stdout,
//! 2. writes CSV (and, where it makes sense, SVG) into `target/repro/`,
//! 3. prints a `VERDICT:` line summarizing how the measured shape relates
//!    to the paper's claim.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use pom_ode::{OdeSystem, Rk4, Stepper, Workspace};
use pom_sweep::{
    run_campaign_with, run_point_ws, CampaignSpec, CampaignSummary, ResultSink, RunOptions,
    SweepError,
};

/// Faithful replica of the `FixedStepSolver::integrate_observed` step loop
/// with a [`pom_ode::NoObserver`] attached, minus the instrumentation:
/// same index-recomputed step targets, same per-step non-finite scan —
/// but no RHS-evaluation accounting and no metric flush. Returns the
/// final state. The `obs_overhead` gate in `bench_steps` times this
/// against the current (instrumented, obs-disabled) loop to bound the
/// disabled-mode cost.
pub fn integrate_fixed_rk4_pre_obs<Sys: OdeSystem + ?Sized>(
    sys: &Sys,
    t0: f64,
    y0: &[f64],
    t_end: f64,
    h: f64,
    ws: &mut Workspace,
) -> Vec<f64> {
    let n = sys.dim();
    let span = t_end - t0;
    let n_steps = (span / h).ceil().max(1.0) as usize;

    let (stage, drive) = ws.split();
    let [mut y, mut y_next] = drive.slices::<2>(n);
    y.copy_from_slice(y0);
    let mut t = t0;

    for step_idx in 1..=n_steps {
        let t_target = if step_idx == n_steps {
            t_end
        } else {
            t0 + span * (step_idx as f64 / n_steps as f64)
        };
        let h_step = t_target - t;
        Rk4.step(sys, t, y, h_step, y_next, stage);
        std::mem::swap(&mut y, &mut y_next);
        t = t_target;
        assert!(y.iter().all(|v| v.is_finite()), "non-finite state");
    }
    y.to_vec()
}

/// Faithful replica of `run_campaign`: the same executor
/// ([`run_campaign_with`]: one point queue, per-worker workspace reuse,
/// in-order release) and the same panic-catching point runner, with
/// every instrumentation site (campaign counter, queue-depth gauge,
/// per-point timing) absent rather than disabled. The other half of the
/// `obs_overhead` gate.
pub fn run_campaign_pre_obs(
    spec: &CampaignSpec,
    opts: &RunOptions,
    sink: &mut dyn ResultSink,
) -> Result<CampaignSummary, SweepError> {
    run_campaign_with(spec, opts, sink, |index, _, ws| {
        run_point_ws(spec, index, ws)
    })
}

/// Output directory for reproduction artifacts (`target/repro`), created
/// on demand.
pub fn repro_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate the target; fall back to ./target.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let dir = target.join("repro");
    fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// Write an artifact file and echo its path.
pub fn save(name: &str, content: &str) -> PathBuf {
    let path = repro_dir().join(name);
    fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// Format one aligned table row from string cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print a standard experiment header.
pub fn header(id: &str, claim: &str) {
    println!("================================================================");
    println!("experiment {id}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Print the final verdict line. A
/// `DEVIATES` verdict then ends the process with exit status 1, so CI and
/// scripts fail on a paper claim that no longer reproduces.
pub fn verdict(ok: bool, detail: &str) {
    println!(
        "VERDICT: {} — {detail}",
        if ok { "REPRODUCED" } else { "DEVIATES" }
    );
    if !ok {
        std::io::stdout().flush().ok();
        std::process::exit(1);
    }
}

/// Check a file landed where expected (used by the smoke test).
pub fn exists(path: &Path) -> bool {
    path.is_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_dir_is_created() {
        let d = repro_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn save_roundtrip() {
        let p = save("selftest.txt", "hello");
        assert!(exists(&p));
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello");
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
