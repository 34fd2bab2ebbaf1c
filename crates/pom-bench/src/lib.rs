//! The paper's claims as one table, plus the replicas behind the
//! `bench_steps` ratio gates.
//!
//! [`CLAIMS`] holds one row per paper figure or claim (the README lists
//! them). The `repro` binary runs the rows it is given (`repro all`, or
//! `repro <id>…`), and the facade's `paper_claims` test runs them all.
//! Each row's check:
//!
//! 1. prints the series as an aligned text table to stdout,
//! 2. writes CSV (and, where it makes sense, SVG) into `target/repro/`,
//! 3. returns a [`Verdict`] on how the measured shape relates to the
//!    paper's claim, which [`Claim::run`] prints as the `VERDICT:` line.

use std::fs;
use std::path::PathBuf;

use pom_mpisim::{ProgramSpec, SimDelay, SimTrace, Simulator};
use pom_ode::{OdeSystem, Rk4, Stepper, Workspace};
use pom_sweep::{
    run_campaign_with, run_point_ws, CampaignSpec, CampaignSummary, ResultSink, RunOptions,
    SweepError,
};
use pom_topology::{ClusterSpec, Placement};

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
fn repro_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate the target; fall back to ./target.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let dir = target.join("repro");
    fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// Write an artifact file and echo its path.
pub(crate) fn save(name: &str, content: &str) -> PathBuf {
    let path = repro_dir().join(name);
    fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// The one-off delay that starts the idle wave in most simulator claims:
/// 5 ms extra on rank 5 in iteration 5.
pub(crate) const KICK: SimDelay = SimDelay {
    rank: 5,
    iteration: 5,
    extra_seconds: 5e-3,
};

/// Run `program` (1 ms of work per iteration unless it says otherwise)
/// with its ranks packed onto `cluster`.
pub(crate) fn simulate(program: ProgramSpec, cluster: ClusterSpec) -> SimTrace {
    let n = program.n_ranks;
    Simulator::new(program, Placement::packed(cluster, n))
        .unwrap()
        .run()
        .unwrap()
}

mod claims {
    pub(crate) mod bottleneck_decay;
    pub(crate) mod collectives;
    pub(crate) mod comm_ablation;
    pub(crate) mod delay_ablation;
    pub(crate) mod fig1a;
    pub(crate) mod fig1b;
    pub(crate) mod fig2;
    pub(crate) mod kuramoto_contrast;
    pub(crate) mod noise_decay;
    pub(crate) mod resync;
    pub(crate) mod sigma_sweep;
    pub(crate) mod supermuc;
    pub(crate) mod wave_speed;
}

/// The outcome of one claim's check: whether the measured shape matches
/// the paper, and one line of evidence.
#[derive(Debug)]
pub struct Verdict {
    pub ok: bool,
    pub detail: String,
}

/// One paper claim: its id (`F2`, `C4`, `A-delay`, …), the figure or
/// section it comes from, what it says, and the check that reproduces it.
pub struct Claim {
    pub id: &'static str,
    pub section: &'static str,
    pub statement: &'static str,
    check: fn() -> Verdict,
}

impl Claim {
    /// Print the header, run the check (its table and artifacts), print
    /// the `VERDICT:` line and return the verdict.
    pub fn run(&self) -> Verdict {
        let rule = "=".repeat(64);
        println!(
            "{rule}\nexperiment {}\npaper claim: {}\n{rule}",
            self.id, self.statement
        );
        let v = (self.check)();
        let word = if v.ok { "REPRODUCED" } else { "DEVIATES" };
        println!("VERDICT: {word} — {}", v.detail);
        v
    }
}

/// Every paper claim, in the README's order.
pub const CLAIMS: [Claim; 13] = [
    Claim {
        id: "F1a",
        section: "Fig. 1(a)",
        statement: "potential shapes: tanh attractive everywhere; desync potential repulsive \
         at short range with first zero at 2σ/3, attractive at long range",
        check: claims::fig1a::check,
    },
    Claim {
        id: "F1b",
        section: "Fig. 1(b)",
        statement: "STREAM saturates at few cores; slow Schönauer saturates much later; \
         PISOLVER draws no bandwidth (resource-scalable)",
        check: claims::fig1b::check,
    },
    Claim {
        id: "F2",
        section: "Fig. 2",
        statement: "idle wave from one-off delay on rank 5; scalable codes resynchronize, \
         bottlenecked codes keep a computational wavefront; wider stencil = faster wave",
        check: claims::fig2::check,
    },
    Claim {
        id: "C1",
        section: "§5.1.1",
        statement: "idle-wave speed grows with βκ; βκ≈0 = free processes; \
         eager→rendezvous doubles the dependency range",
        check: claims::wave_speed::check,
    },
    Claim {
        id: "C2",
        section: "§5.1.2",
        statement: "memory-bound code damps idle waves even without noise; a residual \
         computational wavefront remains (scalable code keeps the full delay)",
        check: claims::bottleneck_decay::check,
    },
    Claim {
        id: "C3",
        section: "§5.2.1",
        statement: "tanh potential snaps any disturbance back to sync without phase slips; \
         the periodic Kuramoto potential allows slips (its flaw, §2.2.2)",
        check: claims::resync::check,
    },
    Claim {
        id: "C4",
        section: "§5.2.2",
        statement: "gaps settle at 2σ/3; small σ = stiff/near-sync, large σ = strong desync; \
         σ anticorrelates with wave speed (3× stiffer ⇒ 3× faster, smaller spread)",
        check: claims::sigma_sweep::check,
    },
    Claim {
        id: "C5",
        section: "§2.2.2",
        statement: "plain Kuramoto (all-to-all, sin) = synchronizing barrier with phase slips; \
         POM (sparse topology, tanh/desync) = finite-speed waves, slip-free, can desync",
        check: claims::kuramoto_contrast::check,
    },
    Claim {
        id: "C6",
        section: "§5.1/§1.2",
        statement: "idle waves decay through interaction with system noise; a noise-free \
         scalable system carries the wave undamped",
        check: claims::noise_decay::check,
    },
    Claim {
        id: "A-delay",
        section: "§3.1/§6 ablation",
        statement: "ablation: delay coupling θ_j(t−τ) vs zero-delay. Small delays must not \
         change the asymptotic verdicts; large delays are *expected* to shift the \
         desync fixed point (the stale comparison θ_j(t−τ) adds ≈ τω to the \
         effective phase difference, pushing it past the repulsive core) — the \
         noise-function territory the paper defers to future work (§6)",
        check: claims::delay_ablation::check,
    },
    Claim {
        id: "A-comm",
        section: "ablation",
        statement: "ablation: residual wavefront vs message size — contention alone \
         resynchronizes; comm time makes the wavefront persist",
        check: claims::comm_ablation::check,
    },
    Claim {
        id: "A-collectives",
        section: "§6 extension",
        statement: "synchronizing collectives destroy the computational wavefront and its \
         bottleneck-evasion dividend; barrier-free execution desynchronizes and runs faster",
        check: claims::collectives::check,
    },
    Claim {
        id: "A-portability",
        section: "artifact appendix",
        statement: "the qualitative Fig. 2 conclusions survive a cluster swap \
         (Meggie → SuperMUC-NG-like): scalable resyncs, bottlenecked keeps \
         a wavefront, waves propagate at ~1 rank/iteration",
        check: claims::supermuc::check,
    },
];

/// The rows `repro` runs: every row, in table order, for no argument or
/// `all`; otherwise the rows named by id, in the order given. An unknown
/// id selects nothing, and the error names it and the valid ids.
pub fn select(args: &[String]) -> Result<Vec<&'static Claim>, String> {
    let table: &'static [Claim] = &CLAIMS;
    if args.is_empty() || args == ["all"] {
        return Ok(table.iter().collect());
    }
    let found = args
        .iter()
        .map(|a| table.iter().find(|c| c.id == a).ok_or(a));
    found.collect::<Result<_, _>>().map_err(|a| {
        let ids: Vec<_> = table.iter().map(|c| c.id).collect();
        format!("unknown claim id `{a}`; valid ids: all {}", ids.join(" "))
    })
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
        assert!(p.is_file());
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello");
    }

    #[test]
    fn no_argument_or_all_selects_every_row_in_table_order() {
        let every: Vec<_> = CLAIMS.iter().map(|c| c.id).collect();
        for args in [vec![], vec!["all".to_string()]] {
            let ids: Vec<_> = select(&args).unwrap().iter().map(|c| c.id).collect();
            assert_eq!(ids, every);
        }
    }
}
