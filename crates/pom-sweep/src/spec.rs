//! Declarative campaign specifications.
//!
//! A campaign spec is a TOML (or JSON) document with:
//!
//! * a `[campaign]` table — name, master seed, workload kind, and the
//!   observables each point reports;
//! * a *base scenario* — `[model]`/`[topology]`/`[init]`/`[noise]`/
//!   `[inject]`/`[sim]`/`[wave]` for the oscillator model, or `[mpisim]`
//!   for the discrete-event cluster simulator;
//! * `[[axes]]` — the swept dimensions. Each axis either lists explicit
//!   `values`, spans a linear `grid = { start, stop, steps }`, or *zips*
//!   several `keys` whose `values` entries vary together.
//!
//! The cartesian product of all axes is the scenario grid; axis values are
//! applied to the base scenario by dotted path (`"model.sigma"`), so
//! anything in the base tables can be swept — including strings such as
//! `model.potential` or `mpisim.protocol`.

use std::collections::BTreeMap;
use std::fmt;

use pom_core::{
    InitialCondition, Normalization, Pom, PomBuilder, PomEnsemble, Potential, RhsKernel,
    SimOptions, SolverChoice,
};
use pom_kernels::Kernel;
use pom_mpisim::{MpiProtocol, ProgramSpec, SimDelay, WorkSpec};
use pom_noise::{DelayEvent, OneOffDelays, SumNoise, WhiteJitter};
use pom_topology::Topology;

use crate::value::{fnv1a, parse_auto, ParseError, Value};

/// Everything that can go wrong while loading or running a campaign.
#[derive(Debug)]
pub enum SweepError {
    /// The spec text failed to parse.
    Parse(ParseError),
    /// The spec parsed but is semantically invalid.
    Spec(String),
    /// A scenario run failed.
    Run(String),
    /// Result-stream I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Parse(e) => write!(f, "spec parse error: {e}"),
            SweepError::Spec(m) => write!(f, "invalid spec: {m}"),
            SweepError::Run(m) => write!(f, "run failed: {m}"),
            SweepError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ParseError> for SweepError {
    fn from(e: ParseError) -> Self {
        SweepError::Parse(e)
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

fn spec_err(m: impl Into<String>) -> SweepError {
    SweepError::Spec(m.into())
}

/// One swept dimension: one or more dotted keys plus the value tuples they
/// take. Single-key axes hold 1-tuples.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Dotted paths into the base scenario.
    pub keys: Vec<String>,
    /// One entry per grid position; `values[i].len() == keys.len()`.
    pub values: Vec<Vec<Value>>,
}

impl Axis {
    /// Number of positions along this axis.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// The observables a campaign computes per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observable {
    /// Kuramoto order parameter at the final sample (model).
    FinalOrderParameter,
    /// Phase spread `max − min` at the final sample (model).
    FinalPhaseSpread,
    /// Mean `|adjacent phase difference|` at the final sample (model).
    MeanAbsGap,
    /// `|gap − 2σ/3| / (2σ/3)` — the §5.2.2 law (model, desync potential).
    RelErrTwoThirds,
    /// Mean Kuramoto `r` over every accepted integrator step (model,
    /// streaming-only — folded online, never stored).
    MeanOrderParameter,
    /// Minimum Kuramoto `r` over the run (model, streaming-only): how far
    /// from lockstep the system ever strayed.
    MinOrderParameter,
    /// Largest `|adjacent phase difference|` seen at any step (model,
    /// streaming-only): the peak wavefront steepness.
    MaxAbsGap,
    /// Idle-wave front speed from a perturbed/baseline pair (both
    /// substrates; ranks per model time unit, or ranks/second on the
    /// simulator).
    WaveSpeed,
    /// `R²` of the upward wave fit (quality of [`Observable::WaveSpeed`]).
    WaveR2,
    /// Total wall-clock of the simulated program (mpisim).
    Makespan,
    /// Summed wait time across ranks (mpisim).
    TotalWait,
}

impl Observable {
    /// Parse a spec name.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "final_r" | "final_order_parameter" => Observable::FinalOrderParameter,
            "final_spread" | "final_phase_spread" => Observable::FinalPhaseSpread,
            "mean_abs_gap" => Observable::MeanAbsGap,
            "rel_err_two_thirds" => Observable::RelErrTwoThirds,
            "mean_r" => Observable::MeanOrderParameter,
            "min_r" => Observable::MinOrderParameter,
            "max_gap" => Observable::MaxAbsGap,
            "wave_speed" => Observable::WaveSpeed,
            "wave_r2" => Observable::WaveR2,
            "makespan" => Observable::Makespan,
            "total_wait" => Observable::TotalWait,
            _ => return None,
        })
    }

    /// The canonical result-column name.
    pub fn name(&self) -> &'static str {
        match self {
            Observable::FinalOrderParameter => "final_r",
            Observable::FinalPhaseSpread => "final_spread",
            Observable::MeanAbsGap => "mean_abs_gap",
            Observable::RelErrTwoThirds => "rel_err_two_thirds",
            Observable::MeanOrderParameter => "mean_r",
            Observable::MinOrderParameter => "min_r",
            Observable::MaxAbsGap => "max_gap",
            Observable::WaveSpeed => "wave_speed",
            Observable::WaveR2 => "wave_r2",
            Observable::Makespan => "makespan",
            Observable::TotalWait => "total_wait",
        }
    }

    /// Wave observables need a paired baseline (no-injection) run.
    pub(crate) fn needs_baseline(&self) -> bool {
        matches!(self, Observable::WaveSpeed | Observable::WaveR2)
    }

    /// Time-resolved observables only computable by the streaming
    /// (observer) execution path — they summarize every integrator step,
    /// which the trajectory path never materializes at full resolution.
    /// Incompatible with `Observable::needs_baseline` observables in
    /// one campaign (those force the recorded perturbed/baseline pair).
    pub fn needs_series(&self) -> bool {
        matches!(
            self,
            Observable::MeanOrderParameter | Observable::MinOrderParameter | Observable::MaxAbsGap
        )
    }
}

/// A parsed campaign: base scenario tree, axes, seeding, observables.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (header metadata).
    pub name: String,
    /// Master seed; per-point seeds derive from it and the point index.
    pub seed: u64,
    /// Replicas per grid point (`campaign.replicas`, default 1). With
    /// `R ≥ 2` each point runs an R-member lockstep ensemble (distinct
    /// [`CampaignSpec::replica_seed`]s) and reports
    /// `<obs>_mean`/`<obs>_ci95`/`<obs>_min`/`<obs>_max` columns instead
    /// of the plain per-observable values.
    pub replicas: usize,
    /// Observables, in output order.
    pub observables: Vec<Observable>,
    /// The base scenario tree (everything except `[campaign]`/`axes`).
    pub base: Value,
    /// Swept dimensions, outermost first.
    pub axes: Vec<Axis>,
    /// FNV-1a of the canonical spec rendering — the resume identity.
    pub spec_hash: u64,
}

impl CampaignSpec {
    /// Parse TOML or JSON spec text.
    pub fn parse(text: &str) -> Result<Self, SweepError> {
        let root = parse_auto(text)?;
        let spec_hash = fnv1a(root.canonical().as_bytes());
        let table = root
            .as_table()
            .ok_or_else(|| spec_err("spec root must be a table"))?;

        let campaign = root.get("campaign");
        let name = campaign
            .and_then(|c| c.get("name"))
            .and_then(Value::as_str)
            .unwrap_or("campaign")
            .to_string();
        let seed = campaign
            .and_then(|c| c.get("seed"))
            .map(|v| {
                v.as_i64()
                    .ok_or_else(|| spec_err("campaign.seed must be an integer"))
            })
            .transpose()?
            .unwrap_or(0) as u64;
        if let Some(c) = campaign.and_then(Value::as_table) {
            check_section(c, "campaign", "both")?;
        }
        let replicas = campaign
            .and_then(|c| c.get("replicas"))
            .map(|v| {
                v.as_i64()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| spec_err("campaign.replicas must be an integer ≥ 1"))
            })
            .transpose()?
            .unwrap_or(1) as usize;

        let observables = match campaign.and_then(|c| c.get("observables")) {
            None => default_observables(&root),
            Some(v) => v
                .as_array()
                .ok_or_else(|| spec_err("campaign.observables must be an array of names"))?
                .iter()
                .map(|o| {
                    let s = o
                        .as_str()
                        .ok_or_else(|| spec_err("campaign.observables entries must be strings"))?;
                    Observable::from_name(s)
                        .ok_or_else(|| spec_err(format!("unknown observable `{s}`")))
                })
                .collect::<Result<_, _>>()?,
        };
        if observables.is_empty() {
            return Err(spec_err("campaign.observables must not be empty"));
        }
        // Streaming-only observables run through the observer fast path
        // (no trajectory); wave observables force the recorded
        // perturbed/baseline pair. Mixing them in one campaign would make
        // the streaming values depend on which other columns were
        // requested — reject instead.
        let series: Vec<&str> = observables
            .iter()
            .filter(|o| o.needs_series())
            .map(|o| o.name())
            .collect();
        if !series.is_empty() && observables.iter().any(Observable::needs_baseline) {
            return Err(spec_err(format!(
                "streaming observables ({}) cannot be combined with wave observables \
                 in one campaign; run them as separate campaigns",
                series.join(", ")
            )));
        }
        // Replicated points stream through the ensemble fast path; wave
        // observables force the recorded perturbed/baseline trajectory
        // pair, which has no batched equivalent.
        if replicas > 1 {
            if let Some(o) = observables.iter().find(|o| o.needs_baseline()) {
                return Err(spec_err(format!(
                    "observable `{}` needs a perturbed/baseline run pair and cannot be \
                     combined with campaign.replicas = {replicas}; wave campaigns run \
                     one replica per point",
                    o.name()
                )));
            }
        }

        let axes = match root.get("axes") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| spec_err("`axes` must be an array of tables"))?
                .iter()
                .map(parse_axis)
                .collect::<Result<_, _>>()?,
        };

        let mut base = BTreeMap::new();
        for (k, v) in table {
            if k != "campaign" && k != "axes" {
                base.insert(k.clone(), v.clone());
            }
        }
        let mut base = Value::Table(base);
        // Scenario resolution sees only the base tree, so an explicit
        // `campaign.workload` must survive the strip above (otherwise a
        // defaults-only `workload = "mpisim"` spec would resolve as a
        // model scenario, and a stray `[mpisim]` table would win over an
        // explicit `workload = "model"`).
        if let Some(w) = campaign.and_then(|c| c.get("workload")) {
            base.set("campaign.workload", w.clone())
                .map_err(|e| spec_err(format!("campaign.workload: {e}")))?;
        }

        let spec = Self {
            name,
            seed,
            replicas,
            observables,
            base,
            axes,
            spec_hash,
        };
        // Fail fast: the base scenario (axis defaults applied where the
        // axis key has no base entry) must resolve.
        let scenario0 = spec.scenario_at(0)?;
        if replicas > 1 {
            match &scenario0 {
                Scenario::MpiSim(_) => {
                    return Err(spec_err(
                        "campaign.replicas ≥ 2 needs the model workload; the mpisim \
                         substrate has no ensemble path",
                    ))
                }
                // R bitwise-identical copies would report ci95 = 0 as
                // if it were statistics; reject the degenerate spec.
                Scenario::Model(m) if !m.varies_per_replica() => {
                    return Err(spec_err(
                        "campaign.replicas ≥ 2 would run identical replicas: nothing \
                         varies per replica (init.kind = \"spread\" without a pinned \
                         init.seed, or [noise] without a pinned noise.seed, is \
                         required so each replica draws its own realization)",
                    ))
                }
                Scenario::Model(_) => {}
            }
        }
        Ok(spec)
    }

    /// Total number of grid points (product of axis lengths; 1 when there
    /// are no axes).
    pub fn total_points(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Axis assignments of point `index` in row-major order (the last axis
    /// varies fastest), matching nested `for` loops over the axes.
    pub fn assignments_at(&self, index: usize) -> Vec<(String, Value)> {
        let mut rem = index;
        let mut out = Vec::new();
        // Decompose right-to-left, emit left-to-right.
        let mut positions = vec![0usize; self.axes.len()];
        for (i, axis) in self.axes.iter().enumerate().rev() {
            positions[i] = rem % axis.len();
            rem /= axis.len();
        }
        for (axis, &pos) in self.axes.iter().zip(&positions) {
            for (key, v) in axis.keys.iter().zip(&axis.values[pos]) {
                out.push((key.clone(), v.clone()));
            }
        }
        out
    }

    /// The fully-resolved scenario of point `index`: base tree plus that
    /// point's axis assignments.
    pub fn scenario_at(&self, index: usize) -> Result<Scenario, SweepError> {
        let mut tree = self.base.clone();
        for (key, v) in self.assignments_at(index) {
            tree.set(&key, v)
                .map_err(|e| spec_err(format!("axis key `{key}`: {e}")))?;
        }
        Scenario::from_value(&tree)
    }

    /// Deterministic per-point seed: depends only on the master seed and
    /// the point index — never on thread count or execution order.
    pub fn point_seed(&self, index: usize) -> u64 {
        pom_noise::SplitMix64::hash3(self.seed, index as u64, 0x706f_6d2d_7377_6565)
    }

    /// Deterministic per-replica seed. Replica 0 **is** the plain
    /// single-run point — `replica_seed(i, 0) == point_seed(i)` — so a
    /// `replicas = 1` campaign reproduces today's results exactly; higher
    /// replicas hash the point seed with their index (order-independent,
    /// like the point seeds themselves).
    pub fn replica_seed(&self, index: usize, replica: usize) -> u64 {
        replica_seed(self.point_seed(index), replica)
    }

    /// The result columns this campaign emits per point, in output order:
    /// the plain observable names for `replicas = 1`, or the four
    /// aggregate columns `<obs>_mean`/`<obs>_ci95`/`<obs>_min`/`<obs>_max`
    /// per observable for a replicated campaign.
    pub(crate) fn observable_columns(&self) -> Vec<String> {
        if self.replicas <= 1 {
            self.observables
                .iter()
                .map(|o| o.name().to_string())
                .collect()
        } else {
            self.observables
                .iter()
                .flat_map(|o| {
                    let name = o.name();
                    ["mean", "ci95", "min", "max"]
                        .into_iter()
                        .map(move |suffix| format!("{name}_{suffix}"))
                })
                .collect()
        }
    }
}

/// Seed of replica `replica` of the point seeded `point_seed`: replica 0
/// is the point seed itself, higher replicas hash it with their index.
/// Every ensemble front end (`campaign.replicas`, `pom simulate
/// replicas=R`) derives its members' seeds here.
pub fn replica_seed(point_seed: u64, replica: usize) -> u64 {
    if replica == 0 {
        point_seed
    } else {
        pom_noise::SplitMix64::hash3(point_seed, replica as u64, 0x706f_6d2d_7265_706c)
    }
}

fn default_observables(root: &Value) -> Vec<Observable> {
    if workload_kind(root) == "mpisim" {
        vec![Observable::Makespan]
    } else {
        vec![
            Observable::FinalOrderParameter,
            Observable::FinalPhaseSpread,
        ]
    }
}

fn workload_kind(root: &Value) -> &str {
    root.get("campaign.workload")
        .and_then(Value::as_str)
        .unwrap_or(if root.get("mpisim").is_some() {
            "mpisim"
        } else {
            "model"
        })
}

fn parse_axis(v: &Value) -> Result<Axis, SweepError> {
    let t = v
        .as_table()
        .ok_or_else(|| spec_err("each [[axes]] entry must be a table"))?;
    check_keys(t, &["key", "keys", "values", "grid"], "axes")?;

    let keys: Vec<String> = if let Some(k) = t.get("key") {
        vec![k
            .as_str()
            .ok_or_else(|| spec_err("axis `key` must be a string"))?
            .to_string()]
    } else if let Some(ks) = t.get("keys") {
        ks.as_array()
            .ok_or_else(|| spec_err("axis `keys` must be an array of strings"))?
            .iter()
            .map(|k| {
                k.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| spec_err("axis `keys` entries must be strings"))
            })
            .collect::<Result<_, _>>()?
    } else {
        return Err(spec_err("axis needs `key` or `keys`"));
    };

    let values: Vec<Vec<Value>> = if let Some(g) = t.get("grid") {
        if keys.len() != 1 {
            return Err(spec_err("`grid` axes take a single `key`"));
        }
        let start = g
            .get("start")
            .and_then(Value::as_f64)
            .ok_or_else(|| spec_err("grid.start must be a number"))?;
        let stop = g
            .get("stop")
            .and_then(Value::as_f64)
            .ok_or_else(|| spec_err("grid.stop must be a number"))?;
        let steps = g
            .get("steps")
            .and_then(Value::as_i64)
            .ok_or_else(|| spec_err("grid.steps must be an integer"))?;
        if steps < 1 {
            return Err(spec_err("grid.steps must be ≥ 1"));
        }
        let log = g.get("log").and_then(Value::as_bool).unwrap_or(false);
        linspace(start, stop, steps as usize, log)?
            .into_iter()
            .map(|x| vec![Value::Float(x)])
            .collect()
    } else if let Some(vs) = t.get("values") {
        let arr = vs
            .as_array()
            .ok_or_else(|| spec_err("axis `values` must be an array"))?;
        arr.iter()
            .map(|entry| {
                if keys.len() == 1 {
                    Ok(vec![entry.clone()])
                } else {
                    let tuple = entry.as_array().ok_or_else(|| {
                        spec_err("zipped-axis `values` entries must be arrays (one per key)")
                    })?;
                    if tuple.len() != keys.len() {
                        return Err(spec_err(format!(
                            "zipped-axis entry has {} values for {} keys",
                            tuple.len(),
                            keys.len()
                        )));
                    }
                    Ok(tuple.to_vec())
                }
            })
            .collect::<Result<_, _>>()?
    } else {
        return Err(spec_err("axis needs `values` or `grid`"));
    };

    if values.is_empty() {
        return Err(spec_err(format!("axis `{}` has no values", keys.join(","))));
    }
    Ok(Axis { keys, values })
}

fn linspace(start: f64, stop: f64, steps: usize, log: bool) -> Result<Vec<f64>, SweepError> {
    if steps == 1 {
        return Ok(vec![start]);
    }
    if log && (start <= 0.0 || stop <= 0.0) {
        return Err(spec_err("log grids need positive start/stop"));
    }
    Ok((0..steps)
        .map(|k| {
            let f = k as f64 / (steps - 1) as f64;
            if log {
                (start.ln() + f * (stop.ln() - start.ln())).exp()
            } else {
                start + f * (stop - start)
            }
        })
        .collect())
}

fn check_keys(t: &BTreeMap<String, Value>, allowed: &[&str], ctx: &str) -> Result<(), SweepError> {
    for k in t.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(spec_err(format!(
                "unknown key `{ctx}.{k}` (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Validate one spec section against its registry table: key names and
/// value kinds come from the same [`crate::registry::ArgSpec`] tables
/// the CLI and the HTTP API parse with, so all three surfaces accept
/// and reject the same keys.
fn check_section(
    t: &BTreeMap<String, Value>,
    name: &str,
    workload: &str,
) -> Result<(), SweepError> {
    crate::registry::toolkit()
        .section(name, workload)
        .unwrap_or_else(|| panic!("section `{name}` ({workload}) is not registered"))
        .check(t)
        .map_err(spec_err)
}

// ---------------------------------------------------------------------------
// Resolved scenarios
// ---------------------------------------------------------------------------

/// Wave-fit parameters shared by both substrates.
#[derive(Debug, Clone, Copy)]
pub struct WaveFit {
    /// First-deviation threshold (radians for the model, seconds for the
    /// simulator).
    pub threshold: f64,
    /// Fit source rank; defaults to the injection rank.
    pub source: Option<usize>,
    /// Maximum rank distance entering the fit; defaults to `n/2 − 2`.
    pub max_distance: Option<usize>,
}

impl WaveFit {
    /// Effective fit source rank: the pinned one, else the injected
    /// rank, else 0.
    pub(crate) fn source_or(&self, inject_rank: Option<usize>) -> usize {
        self.source.or(inject_rank).unwrap_or(0)
    }

    /// Effective maximum fit distance on `n` ranks.
    pub(crate) fn max_distance_on(&self, n: usize) -> usize {
        self.max_distance
            .unwrap_or((n / 2).saturating_sub(2).max(1))
    }
}

/// The noise seed of a point: the pinned seed, else one derived from the
/// point seed (the same rule for both substrates).
fn noise_seed(pinned: Option<u64>, point_seed: u64) -> u64 {
    pinned.unwrap_or_else(|| pom_noise::SplitMix64::mix(point_seed ^ 0x6e6f_6973_6500_0000))
}

/// Injected one-off delay for the model substrate.
#[derive(Debug, Clone, Copy)]
pub struct ModelInject {
    /// Delayed rank.
    pub rank: usize,
    /// Window start.
    pub t_start: f64,
    /// Window length.
    pub duration: f64,
    /// Extra cycle time while inside the window.
    pub extra: f64,
}

/// A fully-resolved oscillator-model scenario (one grid point).
#[derive(Debug, Clone)]
pub struct ModelScenario {
    /// Oscillator count.
    pub n: usize,
    /// Interaction potential.
    pub potential: Potential,
    /// Compute phase duration.
    pub tcomp: f64,
    /// Communication phase duration.
    pub tcomm: f64,
    /// Explicit coupling `v_p` (else κ/β defaults apply).
    pub coupling: Option<f64>,
    /// Explicit distance weight κ.
    pub kappa: Option<f64>,
    /// Coupling normalization.
    pub normalization: Normalization,
    /// RHS kernel selection (`exact` reference vs `sincos` fast path).
    pub kernel: RhsKernel,
    /// Intra-run RHS threads (1 = serial, 0 = all cores). Composes with
    /// the campaign worker pool; keep at 1 unless points are so large
    /// that one run must span cores.
    pub rhs_threads: usize,
    /// Communication topology.
    pub topology: Topology,
    /// Initial condition kind (seed resolved per point).
    pub init: InitSpec,
    /// White-jitter noise amplitude, if any (seed resolved per point).
    pub noise_sigma: Option<f64>,
    /// Pinned noise seed (overrides per-point derivation).
    pub noise_seed: Option<u64>,
    /// One-off injected delay, if any.
    pub inject: Option<ModelInject>,
    /// Integration span.
    pub t_end: f64,
    /// Output samples.
    pub samples: usize,
    /// Explicit solver selection (`sim.solver`/`sim.h`); `None` keeps the
    /// model's automatic choice.
    pub solver: Option<SolverChoice>,
    /// Wave-fit parameters.
    pub wave: WaveFit,
}

/// Initial condition with the seed left symbolic.
#[derive(Debug, Clone, Copy)]
pub enum InitSpec {
    /// Lockstep start.
    Synchronized,
    /// Random spread; `seed = None` derives from the point seed.
    Spread {
        /// Spread amplitude (radians).
        amplitude: f64,
        /// Pinned seed, if any.
        seed: Option<u64>,
    },
    /// Linear wavefront.
    Wavefront {
        /// Per-rank slope (radians).
        slope: f64,
    },
}

impl ModelScenario {
    /// Resolve a model scenario tree (the `[model]`, `[topology]`,
    /// `[init]`, `[noise]`, `[inject]`, `[sim]` and `[wave]` tables of a
    /// spec, axis values already applied). Sweep points and `pom
    /// simulate` both build their model through this one resolver.
    pub fn from_value(tree: &Value) -> Result<Self, SweepError> {
        if let Some(t) = tree.as_table() {
            check_keys(
                t,
                &[
                    "campaign", "model", "topology", "init", "noise", "inject", "sim", "wave",
                ],
                "spec",
            )?;
        }
        if let Some(m) = tree.get("model").and_then(Value::as_table) {
            check_section(m, "model", "model")?;
        }

        let n = get_usize(tree, "model.n", 16)?;
        if n < 2 {
            return Err(spec_err("model.n must be ≥ 2"));
        }
        let sigma = get_f64(tree, "model.sigma", 3.0)?;
        let potential = match get_str(tree, "model.potential", "tanh") {
            "tanh" => Potential::tanh(),
            "desync" => Potential::desync(sigma),
            "sin" | "kuramoto" => Potential::KuramotoSin,
            other => {
                return Err(spec_err(format!(
                    "model.potential `{other}` (tanh|desync|sin)"
                )))
            }
        };
        let normalization = match get_str(tree, "model.norm", "degree") {
            "degree" => Normalization::ByDegree,
            "n" => Normalization::ByN,
            other => return Err(spec_err(format!("model.norm `{other}` (degree|n)"))),
        };
        let kernel_name = get_str(tree, "model.kernel", "exact");
        let kernel = RhsKernel::from_name(kernel_name)
            .ok_or_else(|| spec_err(format!("model.kernel `{kernel_name}` (exact|sincos)")))?;
        let rhs_threads = get_usize(tree, "model.rhs_threads", 1)?;

        if let Some(t) = tree.get("topology").and_then(Value::as_table) {
            check_section(t, "topology", "model")?;
        }
        let distances = get_distances(tree, "topology.distances", &[-1, 1])?;
        let topology = match get_str(tree, "topology.kind", "ring") {
            "ring" => Topology::ring(n, &distances),
            "chain" => Topology::chain(n, &distances),
            "all" | "all-to-all" => Topology::all_to_all(n),
            "grid2d" => {
                let nx = get_usize(tree, "topology.nx", 0)?;
                let ny = get_usize(tree, "topology.ny", 0)?;
                if nx * ny != n {
                    return Err(spec_err(format!(
                        "grid2d topology needs nx*ny == model.n ({nx}×{ny} != {n})"
                    )));
                }
                let periodic = tree
                    .get("topology.periodic")
                    .map(|v| {
                        v.as_bool()
                            .ok_or_else(|| spec_err("topology.periodic must be a bool"))
                    })
                    .transpose()?
                    .unwrap_or(false);
                Topology::grid2d(nx, ny, periodic)
            }
            other => {
                return Err(spec_err(format!(
                    "topology.kind `{other}` (ring|chain|all-to-all|grid2d)"
                )))
            }
        };

        if let Some(t) = tree.get("init").and_then(Value::as_table) {
            check_section(t, "init", "model")?;
        }
        let init = match get_str(tree, "init.kind", "spread") {
            "sync" => InitSpec::Synchronized,
            "spread" => InitSpec::Spread {
                amplitude: get_f64(tree, "init.amplitude", 1.0)?,
                seed: get_opt_u64(tree, "init.seed")?,
            },
            "wavefront" => InitSpec::Wavefront {
                slope: get_f64(tree, "init.slope", 0.5)?,
            },
            other => {
                return Err(spec_err(format!(
                    "init.kind `{other}` (sync|spread|wavefront)"
                )))
            }
        };

        if let Some(t) = tree.get("noise").and_then(Value::as_table) {
            check_section(t, "noise", "model")?;
        }
        if let Some(t) = tree.get("inject").and_then(Value::as_table) {
            check_section(t, "inject", "model")?;
        }
        let tcomp = get_f64(tree, "model.tcomp", 0.9)?;
        let tcomm = get_f64(tree, "model.tcomm", 0.1)?;
        let inject = match tree.get("inject") {
            None => None,
            Some(_) => {
                let rank = get_usize(tree, "inject.rank", 0)?;
                if rank >= n {
                    return Err(spec_err(format!(
                        "inject.rank {rank} out of range (n = {n})"
                    )));
                }
                Some(ModelInject {
                    rank,
                    t_start: get_f64(tree, "inject.at", 2.0)?,
                    duration: get_f64(tree, "inject.len", 3.0)?,
                    extra: get_f64(tree, "inject.extra", tcomp + tcomm)?,
                })
            }
        };

        if let Some(t) = tree.get("sim").and_then(Value::as_table) {
            check_section(t, "sim", "model")?;
        }
        let h = get_opt_f64(tree, "sim.h")?;
        let solver = match tree.get("sim.solver").map(|v| {
            v.as_str()
                .ok_or_else(|| spec_err("sim.solver must be a string"))
        }) {
            None => None,
            Some(name) => match name? {
                "auto" => None,
                "dopri5" => Some(SolverChoice::Dopri5 {
                    rtol: 1e-8,
                    atol: 1e-10,
                }),
                "rk4" => {
                    let h = h.ok_or_else(|| {
                        spec_err("sim.solver = \"rk4\" needs an explicit step `sim.h`")
                    })?;
                    if !(h.is_finite() && h > 0.0) {
                        return Err(spec_err("sim.h must be a positive finite number"));
                    }
                    Some(SolverChoice::FixedRk4 { h })
                }
                other => return Err(spec_err(format!("sim.solver `{other}` (auto|dopri5|rk4)"))),
            },
        };
        if h.is_some() && !matches!(solver, Some(SolverChoice::FixedRk4 { .. })) {
            return Err(spec_err("sim.h only applies with sim.solver = \"rk4\""));
        }

        Ok(Self {
            n,
            potential,
            tcomp,
            tcomm,
            coupling: get_opt_f64(tree, "model.coupling")?,
            kappa: get_opt_f64(tree, "model.kappa")?,
            normalization,
            kernel,
            rhs_threads,
            topology,
            init,
            noise_sigma: get_opt_f64(tree, "noise.sigma")?,
            noise_seed: get_opt_u64(tree, "noise.seed")?,
            inject,
            t_end: get_f64(tree, "sim.t_end", 100.0)?,
            samples: get_usize(tree, "sim.samples", 400)?,
            solver,
            wave: parse_wave(tree, 0.05)?,
        })
    }

    /// Resolve the initial condition using the per-point seed where the
    /// spec did not pin one.
    pub fn initial_condition(&self, point_seed: u64) -> InitialCondition {
        match self.init {
            InitSpec::Synchronized => InitialCondition::Synchronized,
            InitSpec::Spread { amplitude, seed } => InitialCondition::RandomSpread {
                amplitude,
                seed: seed.unwrap_or(point_seed),
            },
            InitSpec::Wavefront { slope } => InitialCondition::Wavefront { slope },
        }
    }

    /// Whether replicas of this scenario differ: they differ only through
    /// their derived seeds, so a spread init or white jitter without a
    /// pinned seed is needed, or R replicas run bitwise-identical copies.
    pub fn varies_per_replica(&self) -> bool {
        matches!(self.init, InitSpec::Spread { seed: None, .. })
            || (self.noise_sigma.is_some() && self.noise_seed.is_none())
    }

    /// The `replicas`-member lockstep ensemble of the point seeded
    /// `point_seed`, with one initial condition per member. Member `rep`
    /// is built and initialized from [`replica_seed`]`(point_seed, rep)`,
    /// so member 0 is the single run of that point.
    pub fn ensemble(
        &self,
        point_seed: u64,
        replicas: usize,
    ) -> Result<(PomEnsemble, Vec<InitialCondition>), SweepError> {
        let seeds = (0..replicas).map(|rep| replica_seed(point_seed, rep));
        let members = seeds
            .clone()
            .map(|seed| self.build(seed, true))
            .collect::<Result<_, _>>()?;
        let inits = seeds.map(|seed| self.initial_condition(seed)).collect();
        Ok((PomEnsemble::new(members), inits))
    }

    /// Build the model; `with_inject = false` yields the baseline twin
    /// used by wave-speed observables (noise kept, injection dropped).
    pub fn build(&self, point_seed: u64, with_inject: bool) -> Result<Pom, SweepError> {
        let mut b = PomBuilder::new(self.n)
            .topology(self.topology.clone())
            .potential(self.potential)
            .compute_time(self.tcomp)
            .comm_time(self.tcomm)
            .normalization(self.normalization)
            .kernel(self.kernel)
            .rhs_threads(self.rhs_threads);
        if let Some(vp) = self.coupling {
            b = b.coupling(vp);
        }
        if let Some(k) = self.kappa {
            b = b.kappa(k);
        }
        let mut noise = SumNoise::new();
        let mut any_noise = false;
        if let Some(sigma) = self.noise_sigma {
            let seed = noise_seed(self.noise_seed, point_seed);
            noise = noise.with(WhiteJitter::new(
                seed,
                sigma,
                (self.tcomp + self.tcomm) / 2.0,
            ));
            any_noise = true;
        }
        if with_inject {
            if let Some(inj) = self.inject {
                noise = noise.with(OneOffDelays::new(vec![DelayEvent {
                    rank: inj.rank,
                    t_start: inj.t_start,
                    duration: inj.duration,
                    extra: inj.extra,
                }]));
                any_noise = true;
            }
        }
        if any_noise {
            b = b.local_noise(noise);
        }
        b.build().map_err(|e| SweepError::Run(e.to_string()))
    }

    /// Simulation options for this scenario.
    pub fn sim_options(&self) -> SimOptions {
        let opts = SimOptions::new(self.t_end).samples(self.samples);
        match self.solver {
            Some(s) => opts.solver(s),
            None => opts,
        }
    }
}

/// A fully-resolved discrete-event simulator scenario (one grid point).
#[derive(Debug, Clone)]
pub struct MpiScenario {
    /// Rank count.
    pub n: usize,
    /// Iteration count.
    pub iterations: usize,
    /// Compute kernel.
    pub kernel: Kernel,
    /// Per-iteration un-contended compute target, seconds.
    pub work_seconds: f64,
    /// Halo distance set.
    pub distances: Vec<i32>,
    /// Point-to-point protocol.
    pub protocol: MpiProtocol,
    /// Message payload override.
    pub message_bytes: Option<usize>,
    /// Allreduce cadence, if any.
    pub allreduce_every: Option<usize>,
    /// Compute-noise amplitude (relative), if any.
    pub noise_sigma: Option<f64>,
    /// Pinned noise seed.
    pub noise_seed: Option<u64>,
    /// Injected delay, if any.
    pub inject: Option<SimDelay>,
    /// Wave-fit parameters (threshold in seconds).
    pub wave: WaveFit,
}

impl MpiScenario {
    /// Assemble the `ProgramSpec`; `with_inject = false` gives the
    /// baseline twin.
    pub(crate) fn program(&self, point_seed: u64, with_inject: bool) -> ProgramSpec {
        let mut p = ProgramSpec::new(self.n, self.iterations)
            .kernel(self.kernel)
            .work(WorkSpec::TargetSeconds(self.work_seconds))
            .distances(self.distances.clone())
            .protocol(self.protocol);
        if let Some(bytes) = self.message_bytes {
            p = p.message_bytes(bytes);
        }
        if let Some(k) = self.allreduce_every {
            p = p.allreduce_every(k);
        }
        if let Some(sigma) = self.noise_sigma {
            p = p.noise(sigma, noise_seed(self.noise_seed, point_seed));
        }
        if with_inject {
            if let Some(inj) = self.inject {
                p = p.inject(inj);
            }
        }
        p
    }
}

/// One grid point, resolved to a runnable workload.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Oscillator-model run.
    Model(Box<ModelScenario>),
    /// Discrete-event simulator run.
    MpiSim(Box<MpiScenario>),
}

impl Scenario {
    /// Resolve a merged scenario tree.
    pub(crate) fn from_value(tree: &Value) -> Result<Self, SweepError> {
        match workload_kind(tree) {
            "mpisim" => Ok(Scenario::MpiSim(Box::new(mpisim_from_value(tree)?))),
            "model" => Ok(Scenario::Model(Box::new(ModelScenario::from_value(tree)?))),
            other => Err(spec_err(format!("unknown campaign.workload `{other}`"))),
        }
    }
}

fn get_f64(tree: &Value, path: &str, default: f64) -> Result<f64, SweepError> {
    match tree.get(path) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| spec_err(format!("`{path}` must be a number"))),
    }
}

fn get_usize(tree: &Value, path: &str, default: usize) -> Result<usize, SweepError> {
    match tree.get(path) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .filter(|i| *i >= 0)
            .map(|i| i as usize)
            .ok_or_else(|| spec_err(format!("`{path}` must be a non-negative integer"))),
    }
}

fn get_opt_f64(tree: &Value, path: &str) -> Result<Option<f64>, SweepError> {
    tree.get(path)
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| spec_err(format!("`{path}` must be a number")))
        })
        .transpose()
}

fn get_opt_u64(tree: &Value, path: &str) -> Result<Option<u64>, SweepError> {
    tree.get(path)
        .map(|v| {
            v.as_i64()
                .filter(|i| *i >= 0)
                .map(|i| i as u64)
                .ok_or_else(|| spec_err(format!("`{path}` must be a non-negative integer")))
        })
        .transpose()
}

fn get_opt_usize(tree: &Value, path: &str) -> Result<Option<usize>, SweepError> {
    Ok(get_opt_u64(tree, path)?.map(|v| v as usize))
}

fn get_str<'a>(tree: &'a Value, path: &str, default: &'a str) -> &'a str {
    tree.get(path).and_then(Value::as_str).unwrap_or(default)
}

fn get_distances(tree: &Value, path: &str, default: &[i32]) -> Result<Vec<i32>, SweepError> {
    match tree.get(path) {
        None => Ok(default.to_vec()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| spec_err(format!("`{path}` must be an array of integers")))?
            .iter()
            .map(|d| {
                d.as_i64()
                    .map(|i| i as i32)
                    .ok_or_else(|| spec_err(format!("`{path}` entries must be integers")))
            })
            .collect(),
    }
}

fn parse_wave(tree: &Value, default_threshold: f64) -> Result<WaveFit, SweepError> {
    if let Some(w) = tree.get("wave").and_then(Value::as_table) {
        check_section(w, "wave", "both")?;
    }
    Ok(WaveFit {
        threshold: get_f64(tree, "wave.threshold", default_threshold)?,
        source: get_opt_usize(tree, "wave.source")?,
        max_distance: get_opt_usize(tree, "wave.max_distance")?,
    })
}

fn mpisim_from_value(tree: &Value) -> Result<MpiScenario, SweepError> {
    if let Some(t) = tree.as_table() {
        check_keys(
            t,
            &["campaign", "mpisim", "noise", "inject", "wave"],
            "spec",
        )?;
    }
    if let Some(m) = tree.get("mpisim").and_then(Value::as_table) {
        check_section(m, "mpisim", "mpisim")?;
    }

    let n = get_usize(tree, "mpisim.n", 16)?;
    if n < 2 {
        return Err(spec_err("mpisim.n must be ≥ 2"));
    }
    let kernel = match get_str(tree, "mpisim.kernel", "pisolver") {
        "pisolver" => Kernel::pisolver(),
        "stream" | "stream_triad" => Kernel::stream_triad(),
        "schoenauer" | "schoenauer_slow" => Kernel::schoenauer_slow(),
        other => {
            return Err(spec_err(format!(
                "mpisim.kernel `{other}` (pisolver|stream|schoenauer)"
            )))
        }
    };
    let protocol = match get_str(tree, "mpisim.protocol", "eager") {
        "eager" => MpiProtocol::Eager,
        "rendezvous" => MpiProtocol::Rendezvous,
        other => {
            return Err(spec_err(format!(
                "mpisim.protocol `{other}` (eager|rendezvous)"
            )))
        }
    };

    if let Some(t) = tree.get("noise").and_then(Value::as_table) {
        check_section(t, "noise", "mpisim")?;
    }
    if let Some(t) = tree.get("inject").and_then(Value::as_table) {
        check_section(t, "inject", "mpisim")?;
    }
    let inject = match tree.get("inject") {
        None => None,
        Some(_) => {
            let rank = get_usize(tree, "inject.rank", 0)?;
            if rank >= n {
                return Err(spec_err(format!(
                    "inject.rank {rank} out of range (n = {n})"
                )));
            }
            Some(SimDelay {
                rank,
                iteration: get_usize(tree, "inject.iteration", 4)?,
                extra_seconds: get_f64(tree, "inject.extra_seconds", 5e-3)?,
            })
        }
    };

    Ok(MpiScenario {
        n,
        iterations: get_usize(tree, "mpisim.iterations", 36)?,
        kernel,
        work_seconds: get_f64(tree, "mpisim.work_seconds", 1e-3)?,
        distances: get_distances(tree, "mpisim.distances", &[-1, 1])?,
        protocol,
        message_bytes: get_opt_usize(tree, "mpisim.message_bytes")?,
        allreduce_every: get_opt_usize(tree, "mpisim.allreduce_every")?,
        noise_sigma: get_opt_f64(tree, "noise.sigma")?,
        noise_seed: get_opt_u64(tree, "noise.seed")?,
        inject,
        wave: parse_wave(tree, 2e-3)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        [campaign]
        name = "t"
        seed = 9
        observables = ["final_r", "mean_abs_gap"]
        [model]
        n = 8
        potential = "desync"
        sigma = 2.0
        [topology]
        kind = "chain"
        [sim]
        t_end = 10.0
        samples = 20
        [[axes]]
        key = "model.sigma"
        values = [1.0, 2.0, 3.0]
        [[axes]]
        key = "model.coupling"
        values = [2.0, 4.0]
    "#;

    #[test]
    fn parse_and_expand() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.total_points(), 6);
        // Row-major: last axis fastest.
        let a0 = spec.assignments_at(0);
        let a1 = spec.assignments_at(1);
        let a2 = spec.assignments_at(2);
        assert_eq!(a0[0].1.as_f64(), Some(1.0));
        assert_eq!(a0[1].1.as_f64(), Some(2.0));
        assert_eq!(a1[0].1.as_f64(), Some(1.0));
        assert_eq!(a1[1].1.as_f64(), Some(4.0));
        assert_eq!(a2[0].1.as_f64(), Some(2.0));
    }

    #[test]
    fn scenario_reflects_assignments() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let Scenario::Model(s) = spec.scenario_at(5).unwrap() else {
            panic!("model")
        };
        assert_eq!(s.potential, Potential::desync(3.0));
        assert_eq!(s.coupling, Some(4.0));
        assert_eq!(s.n, 8);
    }

    #[test]
    fn point_seed_depends_on_index_only() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.point_seed(3), spec.point_seed(3));
        assert_ne!(spec.point_seed(3), spec.point_seed(4));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let e = CampaignSpec::parse("[model]\nsgima = 2.0").unwrap_err();
        assert!(e.to_string().contains("sgima"), "{e}");
        let e = CampaignSpec::parse("[campaign]\nobservables = [\"nope\"]").unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
    }

    #[test]
    fn grid_axis_expands_linspace() {
        let spec = CampaignSpec::parse(
            "[[axes]]\nkey = \"model.coupling\"\ngrid = { start = 1.0, stop = 3.0, steps = 3 }",
        )
        .unwrap();
        assert_eq!(spec.total_points(), 3);
        let vals: Vec<f64> = (0..3)
            .map(|i| spec.assignments_at(i)[0].1.as_f64().unwrap())
            .collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn zipped_axis_applies_tuples() {
        let spec = CampaignSpec::parse(
            r#"
            [campaign]
            workload = "mpisim"
            [mpisim]
            n = 8
            iterations = 4
            [[axes]]
            keys = ["mpisim.distances", "mpisim.protocol"]
            values = [[[-1, 1], "eager"], [[-2, -1, 1], "rendezvous"]]
            "#,
        )
        .unwrap();
        assert_eq!(spec.total_points(), 2);
        let Scenario::MpiSim(s) = spec.scenario_at(1).unwrap() else {
            panic!("mpisim")
        };
        assert_eq!(s.distances, vec![-2, -1, 1]);
        assert_eq!(s.protocol, MpiProtocol::Rendezvous);
    }

    #[test]
    fn kernel_and_rhs_threads_keys_resolve() {
        let spec = CampaignSpec::parse(
            r#"
            [model]
            n = 8
            potential = "sin"
            kernel = "sincos"
            rhs_threads = 2
            [sim]
            t_end = 4.0
            "#,
        )
        .unwrap();
        let Scenario::Model(s) = spec.scenario_at(0).unwrap() else {
            panic!("model")
        };
        assert_eq!(s.kernel, RhsKernel::SinCosSplit);
        assert_eq!(s.rhs_threads, 2);
        // Defaults: exact reference kernel, serial RHS.
        let spec = CampaignSpec::parse("[model]\nn = 4").unwrap();
        let Scenario::Model(s) = spec.scenario_at(0).unwrap() else {
            panic!("model")
        };
        assert_eq!(s.kernel, RhsKernel::Exact);
        assert_eq!(s.rhs_threads, 1);
        // Unknown kernel names fail loudly.
        let e = CampaignSpec::parse("[model]\nkernel = \"quux\"").unwrap_err();
        assert!(e.to_string().contains("quux"), "{e}");
        // The kernel is sweepable like any other scenario key.
        let spec = CampaignSpec::parse(
            "[model]\nn = 4\n[[axes]]\nkey = \"model.kernel\"\nvalues = [\"exact\", \"sincos\"]",
        )
        .unwrap();
        let Scenario::Model(s) = spec.scenario_at(1).unwrap() else {
            panic!("model")
        };
        assert_eq!(s.kernel, RhsKernel::SinCosSplit);
    }

    #[test]
    fn mpisim_workload_detected_without_explicit_kind() {
        let spec = CampaignSpec::parse("[mpisim]\nn = 4\niterations = 2").unwrap();
        assert!(matches!(spec.scenario_at(0).unwrap(), Scenario::MpiSim(_)));
        assert_eq!(spec.observables, vec![Observable::Makespan]);
    }

    #[test]
    fn explicit_workload_kind_wins_over_table_presence() {
        // A defaults-only mpisim campaign (no [mpisim] table at all).
        let spec = CampaignSpec::parse("[campaign]\nworkload = \"mpisim\"").unwrap();
        assert!(matches!(spec.scenario_at(0).unwrap(), Scenario::MpiSim(_)));
        assert_eq!(spec.observables, vec![Observable::Makespan]);

        // An explicit model workload does not silently ignore a stray
        // [mpisim] table — it errors on the unknown key.
        let e =
            CampaignSpec::parse("[campaign]\nworkload = \"model\"\n[mpisim]\nn = 4").unwrap_err();
        assert!(e.to_string().contains("mpisim"), "{e}");
    }
}
