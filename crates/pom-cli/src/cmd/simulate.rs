//! `pom simulate`: fully parameterized model run — the MATLAB-app
//! analog — with the trajectory views, the streaming observer path
//! (`observe=1`), and the lockstep ensemble path (`replicas=R`).

use std::fmt::Write as _;

use pom_analysis::Welford;
use pom_core::{InitialCondition, NoObserver, Pom};
use pom_sweep::registry::Parsed;
use pom_sweep::spec::ModelScenario;
use pom_sweep::{ArgError, SweepError, Value};
use pom_viz::{ascii_chart, circle_ascii, phase_heatmap_ascii};

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let replicas = p.usize("replicas");
    if replicas == 0 {
        return Err(CliError::Config(ArgError::BadValue {
            key: "replicas".into(),
            value: "0".into(),
            expected: "an integer ≥ 1",
        }));
    }
    if let Some(h) = p.opt_f64("h") {
        if !(h.is_finite() && h > 0.0) {
            return Err(CliError::Config(ArgError::BadValue {
                key: "h".into(),
                value: h.to_string(),
                expected: "a positive step size",
            }));
        }
    }
    let scenario = ModelScenario::from_value(&scenario_tree(p)).map_err(|e| match e {
        SweepError::Spec(msg) => CliError::Args(with_cli_keys(&msg)),
        other => other.into(),
    })?;
    // `seed=` is the point seed: replica 0 (and the single run) uses it
    // verbatim, exactly like a sweep point.
    let seed = p.u64("seed");
    let t_end = scenario.t_end;

    if replicas > 1 {
        if !scenario.varies_per_replica() {
            return Err(CliError::Run(
                "replicas > 1 needs a per-replica randomness source \
                 (init=spread or noise > 0); otherwise all replicas are identical"
                    .to_string(),
            ));
        }
        return ensemble_report(&scenario, replicas, seed);
    }

    let model = scenario.build(seed, true)?;
    let init = scenario.initial_condition(seed);
    // Streaming mode (`observe=1 [record-every=k]`): run the observer
    // fast path instead of recording a trajectory — observables fold
    // online, memory stays O(N) however long the span, and the report is
    // the streamed summary (trajectory views don't exist here).
    if p.bool("observe") {
        return observed_report(&model, init, &scenario, p);
    }

    let run = model
        .simulate_with(init, &scenario.sim_options())
        .map_err(|e| CliError::Run(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# POM run: N = {}, potential = {}, κ = {:.2}, v_p = {:.3}, t_end = {t_end}, \
         kernel = {} ({} rhs thread{})",
        model.n(),
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

/// Each `simulate` key and the sweep-spec key it sets.
const SPEC_KEYS: [(&str, &str); 22] = [
    ("n", "model.n"),
    ("potential", "model.potential"),
    ("norm", "model.norm"),
    ("kernel", "model.kernel"),
    ("sigma", "model.sigma"),
    ("tcomp", "model.tcomp"),
    ("tcomm", "model.tcomm"),
    ("coupling", "model.coupling"),
    ("kappa", "model.kappa"),
    ("rhs-threads", "model.rhs_threads"),
    ("topology", "topology.kind"),
    ("distances", "topology.distances"),
    ("init", "init.kind"),
    ("amplitude", "init.amplitude"),
    ("slope", "init.slope"),
    ("noise", "noise.sigma"),
    ("delay_rank", "inject.rank"),
    ("delay_at", "inject.at"),
    ("delay_len", "inject.len"),
    ("t_end", "sim.t_end"),
    ("samples", "sim.samples"),
    ("h", "sim.h"),
];

/// The one-point scenario tree of a `simulate` invocation: each CLI key
/// lands on the sweep-spec key it means ([`SPEC_KEYS`]), so the model is
/// resolved by the same [`ModelScenario::from_value`] a `pom sweep` point
/// goes through. Optional keys enter the tree only when given.
fn scenario_tree(p: &Parsed) -> Value {
    let mut tree = Value::Table(Default::default());
    let mut set = |key: &str, v: Value| {
        let (_, path) = SPEC_KEYS
            .iter()
            .find(|(cli, _)| *cli == key)
            .expect("every simulate key has a spec key");
        tree.set(path, v).expect("fresh tables along every path");
    };
    let int = |name: &str| Value::Int(p.u64(name) as i64);
    let float = |name: &str| Value::Float(p.f64(name));
    let text = |name: &str| Value::Str(p.str(name).to_string());

    set("n", int("n"));
    for key in ["potential", "norm", "kernel", "topology", "init"] {
        set(key, text(key));
    }
    for key in ["sigma", "tcomp", "tcomm", "amplitude", "slope", "t_end"] {
        set(key, float(key));
    }
    for key in ["coupling", "kappa"] {
        if let Some(v) = p.opt_f64(key) {
            set(key, Value::Float(v));
        }
    }
    set("rhs-threads", int("rhs-threads"));
    let distances = p.ints("distances").iter().map(|&d| Value::Int(d.into()));
    set("distances", Value::Array(distances.collect()));
    if p.f64("noise") > 0.0 {
        set("noise", float("noise"));
    }
    if let Some(rank) = p.opt_u64("delay_rank") {
        set("delay_rank", Value::Int(rank as i64));
        set("delay_at", float("delay_at"));
        set("delay_len", float("delay_len"));
    }
    set("samples", int("samples"));
    if let Some(h) = p.opt_f64("h") {
        set("h", Value::Float(h));
        tree.set("sim.solver", Value::Str("rk4".to_string()))
            .expect("fresh tables along every path");
    }
    tree
}

/// A resolver message with every sweep-spec key of [`SPEC_KEYS`] renamed
/// to the `simulate` key that set it (`inject.rank 99 out of range` →
/// `delay_rank 99 out of range`).
fn with_cli_keys(msg: &str) -> String {
    let mut msg = msg.to_string();
    for (cli, spec) in SPEC_KEYS {
        let mut out = String::with_capacity(msg.len());
        let mut last = 0;
        for (at, _) in msg.match_indices(spec) {
            let end = at + spec.len();
            // `model.n` must not match the head of `model.norm`.
            let whole = msg[end..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            if whole {
                out.push_str(&msg[last..at]);
                out.push_str(cli);
                last = end;
            }
        }
        out.push_str(&msg[last..]);
        msg = out;
    }
    msg
}

/// The `simulate replicas=R` report: run an R-member lockstep ensemble
/// (one batched integration, replicas interleaved per oscillator row) and
/// print per-replica finals plus mean/ci95/min/max aggregates.
///
/// `h=` opts into the lockstep fixed-step batch; without it the Auto
/// solver picks Dopri5 for no-delay models and the ensemble runs its
/// replicas sequentially (same results, less amortization).
fn ensemble_report(
    scenario: &ModelScenario,
    replicas: usize,
    seed: u64,
) -> Result<String, CliError> {
    let (ensemble, inits) = scenario.ensemble(seed, replicas)?;
    let t_end = scenario.t_end;
    let mut observers = vec![NoObserver; replicas];
    let summaries = ensemble
        .simulate_observed(&inits, &scenario.sim_options(), &mut observers)
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
    scenario: &ModelScenario,
    p: &Parsed,
) -> Result<String, CliError> {
    use pom_analysis::RunSummaryProbe;
    use pom_core::ObserveEvery;

    let t_end = scenario.t_end;
    let every = p.usize("record-every").max(1);
    let mut probe = ObserveEvery::new(RunSummaryProbe::new(), every);
    let summary = model
        .simulate_observed(init, &scenario.sim_options(), &mut probe)
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
