//! `pom simulate`: fully parameterized model run — the MATLAB-app
//! analog — with the trajectory views, the streaming observer path
//! (`observe=1`), and the lockstep ensemble path (`replicas=R`).

use std::fmt::Write as _;

use pom_analysis::Welford;
use pom_core::{
    InitialCondition, NoObserver, Normalization, Pom, PomBuilder, PomEnsemble, Potential,
    RhsKernel, SimOptions, SolverChoice,
};
use pom_noise::{DelayEvent, OneOffDelays, WhiteJitter};
use pom_sweep::registry::Parsed;
use pom_sweep::ArgError;
use pom_topology::Topology;
use pom_viz::{ascii_chart, circle_ascii, phase_heatmap_ascii};

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let n = p.usize("n").max(2);
    let sigma = p.f64("sigma");
    let potential = match p.str("potential") {
        "tanh" => Potential::tanh(),
        "desync" => Potential::desync(sigma),
        "sin" | "kuramoto" => Potential::KuramotoSin,
        other => unreachable!("enum-checked potential `{other}`"),
    };
    let tcomp = p.f64("tcomp");
    let tcomm = p.f64("tcomm");
    let distances = p.ints("distances").to_vec();
    let t_end = p.f64("t_end");
    let seed = p.u64("seed");
    let noise = p.f64("noise");
    let topology = match p.str("topology") {
        "ring" => Topology::ring(n, &distances),
        "chain" => Topology::chain(n, &distances),
        "all" | "all-to-all" => Topology::all_to_all(n),
        other => unreachable!("enum-checked topology `{other}`"),
    };

    let kernel = RhsKernel::from_name(p.str("kernel"))
        .unwrap_or_else(|| unreachable!("enum-checked kernel `{}`", p.str("kernel")));
    // The registry folds the sweep-spec spelling `rhs_threads` into the
    // canonical key, so a user copying from a TOML spec cannot get a
    // silent serial run.
    let rhs_threads = p.usize("rhs-threads");

    let replicas = p.usize("replicas");
    if replicas == 0 {
        return Err(CliError::Config(ArgError::BadValue {
            key: "replicas".into(),
            value: "0".into(),
            expected: "an integer ≥ 1",
        }));
    }

    let coupling = p.opt_f64("coupling");
    let kappa = p.opt_f64("kappa");
    let delay = p
        .opt_usize("delay_rank")
        .map(|rank| (rank, p.f64("delay_at"), p.f64("delay_len")));

    let norm = match p.str("norm") {
        "n" => Normalization::ByN,
        _ => Normalization::ByDegree,
    };

    // One member per replica seed; replica 0 uses the base seed verbatim
    // so `replicas=1` is exactly today's single run (same contract as the
    // sweep layer's `CampaignSpec::replica_seed`).
    let build_model = |rep_seed: u64| -> Result<Pom, CliError> {
        let mut b = PomBuilder::new(n)
            .topology(topology.clone())
            .potential(potential)
            .compute_time(tcomp)
            .comm_time(tcomm)
            .kernel(kernel)
            .rhs_threads(rhs_threads)
            .normalization(norm);
        if let Some(vp) = coupling {
            b = b.coupling(vp);
        }
        if let Some(k) = kappa {
            b = b.kappa(k);
        }
        // Noise and one-off delays.
        if let Some((rank, t_start, duration)) = delay {
            b = b.local_noise(OneOffDelays::new(vec![DelayEvent {
                rank,
                t_start,
                duration,
                extra: tcomp + tcomm,
            }]));
        } else if noise > 0.0 {
            b = b.local_noise(WhiteJitter::new(rep_seed, noise, (tcomp + tcomm) / 2.0));
        }
        b.build().map_err(|e| CliError::Run(e.to_string()))
    };

    let init_kind = p.str("init");
    let make_init = |rep_seed: u64| -> InitialCondition {
        match init_kind {
            "sync" => InitialCondition::Synchronized,
            "wavefront" => InitialCondition::Wavefront {
                slope: p.f64("slope"),
            },
            _ => InitialCondition::RandomSpread {
                amplitude: p.f64("amplitude"),
                seed: rep_seed,
            },
        }
    };

    if replicas > 1 {
        // Replicas only differ through a seeded source: a seeded spread
        // init or white jitter. Without one, R identical runs would
        // masquerade as statistics.
        if init_kind != "spread" && (noise <= 0.0 || delay.is_some()) {
            return Err(CliError::Run(
                "replicas > 1 needs a per-replica randomness source \
                 (init=spread or noise > 0); otherwise all replicas are identical"
                    .to_string(),
            ));
        }
        return ensemble_report(replicas, seed, &build_model, &make_init, t_end, p);
    }

    let model = build_model(seed)?;
    let init = make_init(seed);
    // Streaming mode (`observe=1 [record-every=k]`): run the observer
    // fast path instead of recording a trajectory — observables fold
    // online, memory stays O(N) however long the span, and the report is
    // the streamed summary (trajectory views don't exist here).
    if p.bool("observe") {
        return observed_report(&model, init, t_end, p);
    }

    let run = model
        .simulate_with(init, &SimOptions::new(t_end).samples(p.usize("samples")))
        .map_err(|e| CliError::Run(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# POM run: N = {n}, potential = {}, κ = {:.2}, v_p = {:.3}, t_end = {t_end}, \
         kernel = {} ({} rhs thread{})",
        model.potential().name(),
        model.params().kappa,
        model.params().coupling(),
        model.kernel().name(),
        model.rhs_threads(),
        if model.rhs_threads() == 1 { "" } else { "s" }
    );
    // Mirror of the observed path's ignored-flag notes: decimation only
    // exists on the streaming path.
    if p.is_given("record-every") {
        let _ = writeln!(
            out,
            "note: `record-every=` only applies with observe=1 and is ignored here"
        );
    }
    let _ = writeln!(
        out,
        "final order parameter r: {:.5}",
        run.final_order_parameter()
    );
    let _ = writeln!(
        out,
        "final phase spread:      {:.5} rad",
        run.final_phase_spread()
    );
    let _ = writeln!(
        out,
        "mean |adjacent gap|:     {:.5} rad",
        run.mean_abs_adjacent_gap()
    );

    match p.str("view") {
        "circle" => {
            let _ = writeln!(out, "\ncircle diagram (final state, θ mod 2π):");
            out.push_str(&circle_ascii(run.trajectory().last().unwrap_or(&[]), 21));
        }
        "spread" => {
            out.push('\n');
            out.push_str(&ascii_chart(
                "phase spread over time",
                &run.phase_spread_series(),
                64,
                12,
            ));
        }
        "heatmap" => {
            let _ = writeln!(out, "\nrank × time heatmap (darker = ahead of the lagger):");
            out.push_str(&phase_heatmap_ascii(&run, 72));
        }
        _ => {
            out.push('\n');
            out.push_str(&ascii_chart(
                "order parameter r(t)",
                &run.order_parameter_series(),
                64,
                12,
            ));
        }
    }
    Ok(out)
}

/// The `simulate replicas=R` report: run an R-member lockstep ensemble
/// (one batched integration, replicas interleaved per oscillator row) and
/// print per-replica finals plus mean/ci95/min/max aggregates.
fn ensemble_report(
    replicas: usize,
    seed: u64,
    build_model: &dyn Fn(u64) -> Result<Pom, CliError>,
    make_init: &dyn Fn(u64) -> InitialCondition,
    t_end: f64,
    p: &Parsed,
) -> Result<String, CliError> {
    // Same derivation as `CampaignSpec::replica_seed`: replica 0 is the
    // base seed, higher replicas hash it with their index.
    let rep_seed = |rep: usize| {
        if rep == 0 {
            seed
        } else {
            pom_noise::SplitMix64::hash3(seed, rep as u64, 0x706f_6d2d_7265_706c)
        }
    };
    let members: Vec<Pom> = (0..replicas)
        .map(|rep| build_model(rep_seed(rep)))
        .collect::<Result<_, _>>()?;
    let inits: Vec<InitialCondition> = (0..replicas).map(|rep| make_init(rep_seed(rep))).collect();

    // `h=` opts into the lockstep fixed-step batch; without it the Auto
    // solver picks Dopri5 for no-delay models and the ensemble runs its
    // replicas sequentially (same results, less amortization).
    let mut opts = SimOptions::new(t_end);
    if let Some(h) = p.opt_f64("h") {
        if !(h.is_finite() && h > 0.0) {
            return Err(CliError::Config(ArgError::BadValue {
                key: "h".into(),
                value: h.to_string(),
                expected: "a positive step size",
            }));
        }
        opts = opts.solver(SolverChoice::FixedRk4 { h });
    }

    let ensemble = PomEnsemble::new(members);
    let mut observers = vec![NoObserver; replicas];
    let summaries = ensemble
        .simulate_observed(&inits, &opts, &mut observers)
        .map_err(|e| CliError::Run(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# POM ensemble run: N = {}, R = {replicas} replicas, potential = {}, \
         κ = {:.2}, v_p = {:.3}, t_end = {t_end}",
        ensemble.n(),
        ensemble.members()[0].potential().name(),
        ensemble.members()[0].params().kappa,
        ensemble.members()[0].params().coupling(),
    );
    let _ = writeln!(
        out,
        "{:>8}  {:>12}  {:>14}  {:>14}",
        "replica", "final r", "spread [rad]", "mean |gap|"
    );
    let mut agg = [Welford::new(), Welford::new(), Welford::new()];
    for (rep, s) in summaries.iter().enumerate() {
        let scalars = [
            s.final_order_parameter(),
            s.final_phase_spread(),
            s.mean_abs_adjacent_gap(),
        ];
        for (w, v) in agg.iter_mut().zip(scalars) {
            w.push(v);
        }
        let _ = writeln!(
            out,
            "{rep:>8}  {:>12.5}  {:>14.5}  {:>14.5}",
            scalars[0], scalars[1], scalars[2]
        );
    }
    let _ = writeln!(
        out,
        "\naggregates over {replicas} replicas (mean ± ci95, [min, max]):"
    );
    for (name, w) in ["final r", "spread", "mean |gap|"].iter().zip(&agg) {
        let _ = writeln!(
            out,
            "{name:>12}: {:.5} ± {:.5}  [{:.5}, {:.5}]",
            w.mean(),
            w.ci95_half_width(),
            w.min(),
            w.max()
        );
    }
    Ok(out)
}

/// The `simulate observe=1` report: integrate through the streaming
/// observer fast path (no trajectory allocated) and print the online
/// observables.
fn observed_report(
    model: &Pom,
    init: InitialCondition,
    t_end: f64,
    p: &Parsed,
) -> Result<String, CliError> {
    use pom_analysis::RunSummaryProbe;
    use pom_core::ObserveEvery;

    let every = p.usize("record-every").max(1);
    let mut probe = ObserveEvery::new(RunSummaryProbe::new(), every);
    let summary = model
        .simulate_observed(init, &SimOptions::new(t_end), &mut probe)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let steps = probe.steps_seen();
    let stats = probe.inner();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# POM observed run: N = {}, potential = {}, κ = {:.2}, v_p = {:.3}, t_end = {t_end}, \
         kernel = {}",
        model.n(),
        model.potential().name(),
        model.params().kappa,
        model.params().coupling(),
        model.kernel().name(),
    );
    // Trajectory-dependent flags have nothing to act on here; say so
    // instead of silently dropping an explicit request.
    for ignored in ["view", "samples"] {
        if p.is_given(ignored) {
            let _ = writeln!(
                out,
                "note: `{ignored}=` needs a recorded trajectory and is ignored under observe=1"
            );
        }
    }
    let _ = writeln!(
        out,
        "streamed: {steps} accepted steps, {} samples folded (record-every = {every}), \
         no trajectory allocated",
        stats.r.stats.count(),
    );
    let _ = writeln!(
        out,
        "\nfinal order parameter r: {:.5}",
        summary.final_order_parameter()
    );
    let _ = writeln!(
        out,
        "final phase spread:      {:.5} rad",
        summary.final_phase_spread()
    );
    let _ = writeln!(
        out,
        "mean |adjacent gap|:     {:.5} rad",
        summary.mean_abs_adjacent_gap()
    );
    let _ = writeln!(
        out,
        "\nstreamed r(t):      mean {:.5}, min {:.5}, max {:.5}, σ {:.3e}",
        stats.r.stats.mean(),
        stats.r.stats.min(),
        stats.r.stats.max(),
        stats.r.stats.std_dev()
    );
    let _ = writeln!(
        out,
        "streamed mean gap:  mean {:.5}, max {:.5} rad",
        stats.gaps.mean_gap.mean(),
        stats.gaps.mean_gap.max()
    );
    let _ = writeln!(
        out,
        "streamed max gap:   peak {:.5} rad",
        stats.gaps.max_gap.max()
    );
    let _ = writeln!(
        out,
        "streamed spread:    mean {:.5}, max {:.5} rad",
        stats.gaps.spread.mean(),
        stats.gaps.spread.max()
    );
    Ok(out)
}
