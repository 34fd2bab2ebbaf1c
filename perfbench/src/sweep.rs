//! `sweep_small`: seeded campaigns shaped like the two shipped small specs
//! (`examples/specs/sigma_sweep.toml`, `examples/specs/ensemble_ci.toml`),
//! each parsed, opened and run on two workers into a JSONL file — the path
//! of `pom sweep <spec> out=<file> threads=2`. Horizons are short so the
//! fixed cost of a point (resolve, build, reorder, serialize, write) stays
//! a visible share of its time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use pom_analysis::{RunSummaryProbe, Welford};
use pom_core::{NoObserver, Pom, PomEnsemble, SimOptions, SimSummary, SimWorkspace, SolverChoice};
use pom_ode::{Dopri5, EnsembleObserver, FixedStepSolver, Rk4, StepObserver};
use pom_sweep::spec::ModelScenario;
use pom_sweep::{
    header_json, write_row_line, Campaign, CampaignSpec, CampaignSummary, Observable, PointRow,
    ResultSink, Scenario,
};

use crate::trace::{aggregate, TimedObs, TimedOde, Tracer};
use crate::util::{self, Clock, Rng, WorkDir};
use crate::{E2e, Layers, Op, Traced};

/// `threads=` of every campaign.
pub const WORKERS: usize = 2;

const SALT_OPS: u64 = 1;
const SALT_SETUP: u64 = 2;
const SALT_WARM: u64 = 3;

/// The campaign spec of operation `op`: a `sigma_sweep.toml`-like scalar
/// campaign (adaptive solver, streaming observables) or an
/// `ensemble_ci.toml`-like one (8 replicas, fixed-step RK4), half each.
pub fn spec_text(seed: u64, salt: u64, op: u64) -> String {
    let mut rng = Rng::for_op(seed, salt, op);
    let mut s = String::with_capacity(640);
    if rng.int(0, 1) == 0 {
        let n = [8, 16, 24, 32, 48, 64][rng.int(0, 5) as usize];
        let sigmas: Vec<String> = (0..rng.int(2, 4))
            .map(|_| format!("{}", rng.real(0.5, 4.0)))
            .collect();
        let couplings: Vec<String> = (0..rng.int(1, 2))
            .map(|_| format!("{}", rng.real(2.0, 6.0)))
            .collect();
        let _ = write!(
            s,
            "[campaign]\nname = \"perf-sigma-{op}\"\nseed = {}\n\
             observables = [\"mean_r\", \"max_gap\", \"mean_abs_gap\", \"rel_err_two_thirds\"]\n\
             [model]\nn = {n}\npotential = \"desync\"\ntcomp = 0.9\ntcomm = 0.1\n\
             [topology]\nkind = \"chain\"\ndistances = [-1, 1]\n\
             [init]\nkind = \"spread\"\namplitude = {}\n\
             [sim]\nt_end = {}\nsamples = 50\n\
             [[axes]]\nkey = \"model.sigma\"\nvalues = [{}]\n\
             [[axes]]\nkey = \"model.coupling\"\nvalues = [{}]\n",
            rng.seed(),
            rng.real(0.1, 0.3),
            rng.real(8.0, 16.0),
            sigmas.join(", "),
            couplings.join(", "),
        );
    } else {
        let n = [8, 16, 24, 32][rng.int(0, 3) as usize];
        let couplings: Vec<String> = (0..rng.int(2, 4))
            .map(|_| format!("{}", rng.real(1.0, 6.0)))
            .collect();
        let _ = write!(
            s,
            "[campaign]\nname = \"perf-ensemble-{op}\"\nseed = {}\nreplicas = 8\n\
             observables = [\"final_r\", \"final_spread\", \"mean_abs_gap\"]\n\
             [model]\nn = {n}\npotential = \"tanh\"\ntcomp = 0.9\ntcomm = 0.1\n\
             [noise]\nsigma = {}\n\
             [topology]\nkind = \"ring\"\ndistances = [-1, 1]\n\
             [init]\nkind = \"spread\"\namplitude = {}\n\
             [sim]\nt_end = {}\nsamples = 50\nsolver = \"rk4\"\nh = 0.05\n\
             [[axes]]\nkey = \"model.coupling\"\nvalues = [{}]\n",
            rng.seed(),
            rng.real(0.02, 0.08),
            rng.real(0.5, 1.0),
            rng.real(2.0, 4.0),
            couplings.join(", "),
        );
    }
    s
}

/// Records when the first row reaches the sink.
struct FirstRow<'a> {
    inner: &'a mut dyn ResultSink,
    start: Instant,
    first: Option<Duration>,
}

impl ResultSink for FirstRow<'_> {
    fn begin(&mut self, spec: &CampaignSpec) -> io::Result<()> {
        self.inner.begin(spec)
    }
    fn row(&mut self, row: &PointRow) -> io::Result<()> {
        self.inner.row(row)?;
        if self.first.is_none() {
            self.first = Some(self.start.elapsed());
        }
        Ok(())
    }
    fn end(&mut self, summary: &CampaignSummary) -> io::Result<()> {
        self.inner.end(summary)
    }
}

struct OpResult {
    secs: f64,
    first_row: Option<f64>,
    summary: CampaignSummary,
}

/// One campaign as `pom sweep <spec> out=<path> threads=2` runs it.
fn one_campaign(text: &str, path: &Path) -> io::Result<OpResult> {
    let t0 = Instant::now();
    let campaign = Campaign::from_str(text).map_err(io::Error::other)?;
    let (mut sink, opts) = campaign
        .jsonl_file_sink(path, WORKERS, false)
        .map_err(io::Error::other)?;
    let mut first = FirstRow {
        inner: &mut sink,
        start: t0,
        first: None,
    };
    let summary = campaign.run(&opts, &mut first).map_err(io::Error::other)?;
    let first_row = first.first.map(|d| d.as_secs_f64());
    drop(sink);
    Ok(OpResult {
        secs: t0.elapsed().as_secs_f64(),
        first_row,
        summary,
    })
}

/// Program set-up a user pays once per campaign: spec parse plus sink
/// open.
fn setup_once(seed: u64, work: &WorkDir, k: u64) -> io::Result<Scratch> {
    let path = work.path(&format!("setup-{k}.jsonl"));
    let campaign = Campaign::from_str(&spec_text(seed, SALT_SETUP, k)).map_err(io::Error::other)?;
    let sink = campaign
        .jsonl_file_sink(&path, WORKERS, false)
        .map_err(io::Error::other)?;
    black_box(&sink);
    Ok(Scratch(path))
}

/// A file removed when dropped (after the timing that created it).
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Hash a finished campaign file and remove it, so the run leaves no
/// dirty data behind for the disk to write back under later runs.
fn take_hash(path: &Path) -> io::Result<u64> {
    let h = util::fnv(&std::fs::read(path)?);
    std::fs::remove_file(path)?;
    Ok(h)
}

/// Every campaign writes a file of its own, as distinct `out=` paths
/// would. (Rewriting one path would time the file system's
/// replace-by-truncate flush instead of the program; see README.md.)
fn out_path(work: &WorkDir, op: u64) -> std::path::PathBuf {
    work.path(&format!("campaign-{op}.jsonl"))
}

pub fn run(seed: u64, seconds: f64) -> io::Result<E2e> {
    let work = WorkDir::new("sweep")?;
    let mut e = E2e::with_capacity(1 << 16);
    // Warm-up: page cache, allocator pools, lazily built tables.
    let warm = Clock::new(0.3);
    let mut k = 0;
    while warm.running() {
        let path = work.path(&format!("warm-{k}.jsonl"));
        one_campaign(&spec_text(seed, SALT_WARM, k), &path)?;
        std::fs::remove_file(path)?;
        k += 1;
    }

    let op = e.closed_loop(
        seconds,
        |k| setup_once(seed, &work, k),
        |k| {
            let path = out_path(&work, k);
            let r = one_campaign(&spec_text(seed, SALT_OPS, k), &path)?;
            Ok(Op {
                secs: r.secs,
                points: r.summary.executed as u64,
                first_row: r.first_row,
                hash: take_hash(&path)?,
                ok: r.summary.errors == 0 && r.first_row.is_some(),
            })
        },
    )?;

    // Check: the 2-worker JSONL of a spread of campaigns is
    // byte-identical to the same campaign at 1 worker.
    let checks = 12.min(op);
    for c in 0..checks {
        let i = c * op / checks;
        let campaign =
            Campaign::from_str(&spec_text(seed, SALT_OPS, i)).map_err(io::Error::other)?;
        let one = campaign.run_jsonl_string(1).map_err(io::Error::other)?;
        e.attempted += 1;
        if util::fnv(one.as_bytes()) != e.hashes[i as usize] {
            e.failed += 1;
            eprintln!("sweep_small: campaign {i} differs between 1 and {WORKERS} workers");
        }
    }
    e.note("campaigns", op);
    e.note("points", e.points());
    e.note("checked_campaigns", checks);
    Ok(e)
}

// --- Traced run ---------------------------------------------------------------------

/// Computed compulsory memory traffic and floating-point operations of
/// one RHS evaluation (formulas in README.md, per-layer table).
pub fn rhs_cost(n: usize, pairs: usize, split: bool) -> (f64, f64) {
    let (n, pairs) = (n as f64, pairs as f64);
    if split {
        (56.0 * n, 4.0 * pairs + 2.0 * n)
    } else {
        (24.0 * n, 2.0 * pairs + 2.0 * n)
    }
}

fn pairs(model: &Pom) -> usize {
    (0..model.n())
        .map(|i| model.topology().neighbors(i).len())
        .sum()
}

/// Computed RHS cost totals over a traced run.
#[derive(Default)]
struct RhsCost {
    bytes: f64,
    flops: f64,
    evals: f64,
}

/// The scalar the program reports for `o` (the model observables the
/// generated campaigns request).
fn scalar(
    s: &ModelScenario,
    o: Observable,
    sum: &SimSummary,
    probe: Option<&RunSummaryProbe>,
) -> f64 {
    match o {
        Observable::FinalOrderParameter => sum.final_order_parameter(),
        Observable::FinalPhaseSpread => sum.final_phase_spread(),
        Observable::MeanAbsGap => sum.mean_abs_adjacent_gap(),
        Observable::RelErrTwoThirds => {
            let expect = s.potential.stable_pair_separation();
            if expect > 0.0 {
                (sum.mean_abs_adjacent_gap() - expect).abs() / expect
            } else {
                f64::NAN
            }
        }
        Observable::MeanOrderParameter => probe.map_or(f64::NAN, |p| p.r.stats.mean()),
        Observable::MinOrderParameter => probe.map_or(f64::NAN, |p| p.r.stats.min()),
        Observable::MaxAbsGap => probe.map_or(f64::NAN, |p| p.gaps.max_gap.max()),
        _ => f64::NAN,
    }
}

struct Ctx<'a> {
    tr: &'a Tracer,
    trace: u64,
    cost: &'a Mutex<RhsCost>,
}

impl Ctx<'_> {
    fn add_cost(&self, n: usize, pairs: usize, split: bool, evals: u64) {
        let (b, f) = rhs_cost(n, pairs, split);
        let mut c = self.cost.lock().expect("cost lock");
        c.bytes += b * evals as f64;
        c.flops += f * evals as f64;
        c.evals += evals as f64;
    }
}

/// Integrate one scalar model the way `Pom::simulate_observed_ws`
/// resolves its solver, with every RHS evaluation and probe step timed.
fn integrate_scalar<O: StepObserver>(
    cx: &Ctx,
    parent: u64,
    model: &Pom,
    y0: &[f64],
    opts: &SimOptions,
    obs: O,
    ws: &mut SimWorkspace,
) -> io::Result<(SimSummary, O)> {
    let sys = TimedOde::new(model);
    let mut obs = TimedObs::new(obs);
    let (summary, _) = cx.tr.span_work("ode.integrate", cx.trace, parent, |iid| {
        let out = match opts.solver {
            SolverChoice::FixedRk4 { h } => FixedStepSolver::new(Rk4, h)
                .and_then(|s| s.integrate_observed(&sys, 0.0, y0, opts.t_end, ws.ode(), &mut obs)),
            _ => {
                let (rtol, atol) = match opts.solver {
                    SolverChoice::Dopri5 { rtol, atol } => (rtol, atol),
                    _ => (1e-8, 1e-10),
                };
                let mut s = Dopri5::new().rtol(rtol).atol(atol);
                if model.has_local_noise() {
                    s = s.h_max(model.params().cycle_time() / 10.0);
                }
                s.integrate_observed(&sys, 0.0, y0, opts.t_end, ws.ode(), &mut obs)
                    .map(|(sum, _)| sum)
            }
        };
        cx.tr.record(
            "core.rhs_eval",
            cx.trace,
            iid,
            sys.ns.get(),
            sys.calls.get(),
        );
        if obs.calls > 0 {
            cx.tr
                .record("analysis.probe", cx.trace, iid, obs.ns, obs.calls);
        }
        let steps = out.as_ref().map_or(0, |s| s.n_steps as u64);
        (out, steps)
    });
    let sum = summary.map_err(|e| io::Error::other(e.to_string()))?;
    cx.add_cost(
        model.n(),
        pairs(model),
        model.kernel() == pom_core::RhsKernel::SinCosSplit,
        sys.calls.get(),
    );
    Ok((
        SimSummary::from_final(model.omega(), sum.t_end, sum.n_steps, sum.y_end),
        obs.inner,
    ))
}

fn point_scalar(
    cx: &Ctx,
    pid: u64,
    spec: &CampaignSpec,
    m: &ModelScenario,
    seed: u64,
    ws: &mut SimWorkspace,
) -> io::Result<Vec<(String, f64)>> {
    let model = cx
        .tr
        .span("core.build", cx.trace, pid, |_| m.build(seed, true))
        .map_err(io::Error::other)?;
    let y0 = m.initial_condition(seed).phases(model.n());
    let opts = m.sim_options();
    let wanted = &spec.observables;
    let (sum, probe) = if wanted.iter().any(Observable::needs_series) {
        let (sum, p) = integrate_scalar(cx, pid, &model, &y0, &opts, RunSummaryProbe::new(), ws)?;
        (sum, Some(p))
    } else {
        (
            integrate_scalar(cx, pid, &model, &y0, &opts, NoObserver, ws)?.0,
            None,
        )
    };
    Ok(wanted
        .iter()
        .map(|o| (o.name().to_string(), scalar(m, *o, &sum, probe.as_ref())))
        .collect())
}

fn point_ensemble(
    cx: &Ctx,
    pid: u64,
    spec: &CampaignSpec,
    m: &ModelScenario,
    index: usize,
    ws: &mut SimWorkspace,
) -> io::Result<Vec<(String, f64)>> {
    let r = spec.replicas;
    let mut members = Vec::with_capacity(r);
    let mut states = Vec::with_capacity(r);
    for rep in 0..r {
        let seed = spec.replica_seed(index, rep);
        let model = cx
            .tr
            .span("core.build", cx.trace, pid, |_| m.build(seed, true))
            .map_err(io::Error::other)?;
        states.push(m.initial_condition(seed).phases(model.n()));
        members.push(model);
    }
    let ens = PomEnsemble::new(members);
    let opts = m.sim_options();
    let SolverChoice::FixedRk4 { h } = opts.solver else {
        return Err(io::Error::other("generated ensemble campaigns use rk4"));
    };
    let wanted = &spec.observables;
    let series = wanted.iter().any(Observable::needs_series);
    let layout = ens.layout();
    let y0 = layout.pack(&states);
    let sys = TimedOde::new(&ens);
    let mut probes: Vec<TimedObs<RunSummaryProbe>> = (0..r)
        .map(|_| TimedObs::new(RunSummaryProbe::new()))
        .collect();
    let mut quiet = vec![NoObserver; r];
    let (sum, _) = cx.tr.span_work("ode.integrate", cx.trace, pid, |iid| {
        let solver = FixedStepSolver::new(Rk4, h);
        let out = solver.and_then(|s| {
            if series {
                s.integrate_observed(
                    &sys,
                    0.0,
                    &y0,
                    opts.t_end,
                    ws.ode(),
                    &mut EnsembleObserver::new(&mut probes, layout),
                )
            } else {
                s.integrate_observed(
                    &sys,
                    0.0,
                    &y0,
                    opts.t_end,
                    ws.ode(),
                    &mut EnsembleObserver::new(&mut quiet, layout),
                )
            }
        });
        cx.tr.record(
            "core.ensemble_eval",
            cx.trace,
            iid,
            sys.ns.get(),
            sys.calls.get(),
        );
        if series {
            let (ns, calls) = probes
                .iter()
                .fold((0, 0), |a, p| (a.0 + p.ns, a.1 + p.calls));
            cx.tr.record("analysis.probe", cx.trace, iid, ns, calls);
        }
        let steps = out.as_ref().map_or(0, |s| s.n_steps as u64);
        (out, steps)
    });
    let sum = sum.map_err(|e| io::Error::other(e.to_string()))?;
    cx.add_cost(
        ens.n() * r,
        pairs(&ens.members()[0]) * r,
        ens.members()[0].kernel() == pom_core::RhsKernel::SinCosSplit,
        sys.calls.get(),
    );
    let summaries: Vec<SimSummary> = (0..r)
        .map(|rep| {
            SimSummary::from_final(
                ens.members()[rep].omega(),
                sum.t_end,
                sum.n_steps,
                layout.extract(&sum.y_end, rep),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(wanted.len() * 4);
    for o in wanted {
        let mut stats = Welford::new();
        for rep in 0..r {
            let probe = series.then(|| &probes[rep].inner);
            stats.push(scalar(m, *o, &summaries[rep], probe));
        }
        let name = o.name();
        out.push((format!("{name}_mean"), stats.mean()));
        out.push((format!("{name}_ci95"), stats.ci95_half_width()));
        out.push((format!("{name}_min"), stats.min()));
        out.push((format!("{name}_max"), stats.max()));
    }
    Ok(out)
}

/// One point through the same public calls `run_point_ws` makes, each
/// inside its own span.
fn point_traced(
    cx: &Ctx,
    pid: u64,
    spec: &CampaignSpec,
    index: usize,
    ws: &mut SimWorkspace,
) -> PointRow {
    let seed = spec.point_seed(index);
    let params = spec.assignments_at(index);
    let result = cx
        .tr
        .span("sweep.resolve", cx.trace, pid, |_| spec.scenario_at(index))
        .map_err(io::Error::other)
        .and_then(|s| match s {
            Scenario::Model(m) if spec.replicas > 1 => point_ensemble(cx, pid, spec, &m, index, ws),
            Scenario::Model(m) => point_scalar(cx, pid, spec, &m, seed, ws),
            Scenario::MpiSim(_) => Err(io::Error::other("generated campaigns are model campaigns")),
        });
    match result {
        Ok(observables) => PointRow {
            index,
            seed,
            params,
            observables,
            error: None,
        },
        Err(e) => PointRow {
            index,
            seed,
            params,
            observables: Vec::new(),
            error: Some(e.to_string()),
        },
    }
}

/// The executor of `pom sweep` rebuilt from public calls: a shared
/// cursor over the grid, one workspace per worker, a reorder buffer that
/// serializes and writes rows in grid order. Returns (points, errors,
/// workers).
fn exec_traced(
    cx: &Ctx,
    eid: u64,
    spec: &CampaignSpec,
    file: &mut File,
) -> io::Result<(usize, usize, usize)> {
    let total = spec.total_points();
    let workers = WORKERS.min(total.max(1));
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<PointRow>();
    let mut errors = 0;
    let mut io_err = None;
    let mut next = 0;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || {
                let mut ws = SimWorkspace::new();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let row = cx.tr.span("sweep.point", cx.trace, eid, |pid| {
                        point_traced(cx, pid, spec, index, &mut ws)
                    });
                    if tx.send(row).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut buffer: BTreeMap<usize, PointRow> = BTreeMap::new();
        for row in rx {
            buffer.insert(row.index, row);
            while let Some(row) = buffer.remove(&next) {
                if row.error.is_some() {
                    errors += 1;
                }
                let line = cx
                    .tr
                    .span("sweep.serialize", cx.trace, eid, |_| row.to_json());
                let bytes = line.len() as u64 + 1;
                let (res, _) = cx.tr.span_work("sweep.write", cx.trace, eid, |_| {
                    (write_row_line(file, &row), bytes)
                });
                if let Err(e) = res {
                    io_err.get_or_insert(e);
                }
                next += 1;
            }
        }
    });
    if let Some(e) = io_err {
        return Err(e);
    }
    Ok((next, errors, workers))
}

pub fn traced(seed: u64, seconds: f64, tr: &Tracer) -> io::Result<Traced> {
    let work = WorkDir::new("sweep-traced")?;
    let cost = Mutex::new(RhsCost::default());
    let mut e = E2e::with_capacity(1 << 16);
    let clock = Clock::new(seconds);
    let mut op = 0u64;
    while clock.running() {
        let text = spec_text(seed, SALT_OPS, op);
        let path = out_path(&work, op);
        let cx = Ctx {
            tr,
            trace: op + 1,
            cost: &cost,
        };
        let at = clock.fraction();
        let t0 = Instant::now();
        let (points, errors) = tr.span(
            "sweep.campaign",
            cx.trace,
            0,
            |cid| -> io::Result<(usize, usize)> {
                let campaign = tr
                    .span("sweep.parse", cx.trace, cid, |_| Campaign::from_str(&text))
                    .map_err(io::Error::other)?;
                let mut file = File::create(&path)?;
                writeln!(file, "{}", header_json(&campaign.spec))?;
                // The executor span's work is its worker count.
                let (exec, _) = tr.span_work("sweep.exec", cx.trace, cid, |eid| {
                    let out = exec_traced(&cx, eid, &campaign.spec, &mut file);
                    let workers = out.as_ref().map_or(0, |o| o.2 as u64);
                    (out, workers)
                });
                let (points, errors, _) = exec?;
                Ok((points, errors))
            },
        )?;
        let secs = t0.elapsed().as_secs_f64();
        let hash = take_hash(&path)?;
        e.op(at, secs, points as u64, None, hash);
        e.attempted += 1;
        if errors > 0 {
            e.failed += 1;
        }
        op += 1;
    }

    let spans = tr.spans();
    let agg = aggregate(&spans);
    let mut layers = Layers::new();
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    layers.insert("sweep.parse_us", util::mean(&get("sweep.parse").durs_us));
    layers.insert(
        "sweep.resolve_us",
        util::mean(&get("sweep.resolve").durs_us),
    );
    let mut points = get("sweep.point").durs_us;
    layers.insert("sweep.point_us_p50", util::percentile(&mut points, 50.0));
    layers.insert("sweep.point_us_p99", util::percentile(&mut points, 99.0));
    layers.insert(
        "sweep.summarize_us",
        util::mean(&get("sweep.point").self_us),
    );
    layers.insert(
        "sweep.serialize_us",
        util::mean(&get("sweep.serialize").durs_us),
    );
    let write = get("sweep.write");
    layers.insert("sweep.write_us", util::mean(&write.durs_us));
    layers.insert(
        "sweep.bytes_per_row",
        write.work as f64 / write.calls.max(1) as f64,
    );
    let capacity_us: f64 = spans
        .iter()
        .filter(|s| s.name == "sweep.exec")
        .map(|s| s.dur_ns() as f64 / 1e3 * s.work as f64)
        .sum();
    layers.insert(
        "sweep.exec_idle_frac",
        1.0 - get("sweep.point").total_us / capacity_us,
    );
    layers.insert("core.build_us", util::mean(&get("core.build").durs_us));
    layers.insert("core.rhs_eval_us", get("core.rhs_eval").per_call_us());
    layers.insert(
        "core.ensemble_eval_us",
        get("core.ensemble_eval").per_call_us(),
    );
    let c = cost.lock().expect("cost lock");
    layers.insert("core.rhs_bytes_per_eval", c.bytes / c.evals);
    layers.insert("core.rhs_flops_per_eval", c.flops / c.evals);
    let integ = get("ode.integrate");
    layers.insert("ode.integrate_us", util::mean(&integ.durs_us));
    layers.insert("ode.steps", integ.work as f64 / integ.calls.max(1) as f64);
    layers.insert(
        "ode.step_self_us",
        integ.self_us.iter().sum::<f64>() / integ.work.max(1) as f64,
    );
    layers.insert("analysis.probe_us", get("analysis.probe").per_call_us());
    Ok(Traced { layers, e2e: e })
}
