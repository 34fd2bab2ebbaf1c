//! The repository benchmark: four closed-loop workloads, the end-to-end
//! metrics a user of each would see, and a traced run that prices every
//! layer. See README.md for the workloads, the metric definitions and the
//! layer → end-to-end metric → workload map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when any correctness check fails.

mod continuum;
mod daemon;
mod delay;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use trace::Tracer;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Rates and tails are medians over this many equal time windows of a
/// run, so a burst of interference from outside moves them less.
pub const WINDOWS: usize = 10;

/// One operation as the closed loop saw it.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    /// Fraction of the run at which it started.
    at: f64,
    secs: f64,
    points: u64,
    first_row: Option<f64>,
}

/// What one untraced measurement of a workload produced.
#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds per program set-up, one sample per repetition.
    pub setup_s: Vec<f64>,
    ops: Vec<OpRecord>,
    /// Output identity of each operation, in operation order; a traced
    /// run of the same seed must reproduce it.
    pub hashes: Vec<u64>,
    /// Operations and checks attempted, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Highest live heap while measuring, in bytes.
    pub peak_heap: usize,
    /// Bytes of the benchmark's own result buffers inside `peak_heap`.
    pub bookkeeping: usize,
    /// Context printed with the result (sample counts, sizes).
    pub notes: Vec<(String, String)>,
}

impl E2e {
    /// Result buffers for up to `ops` operations, reserved before
    /// measuring so that their growth never shows in `peak_heap`.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            ops: Vec::with_capacity(ops),
            hashes: Vec::with_capacity(ops),
            ..Self::default()
        }
    }

    /// Record one operation that started at fraction `at` of the run.
    pub fn op(&mut self, at: f64, secs: f64, points: u64, first_row: Option<f64>, hash: u64) {
        self.ops.push(OpRecord {
            at,
            secs,
            points,
            first_row,
        });
        self.hashes.push(hash);
    }

    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    pub fn points(&self) -> u64 {
        self.ops.iter().map(|o| o.points).sum()
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Time one program set-up between operations. What it built is
    /// dropped before measuring resumes, and its allocations stay out of
    /// `peak_heap`.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<()> {
        self.peak_heap = self.peak_heap.max(util::peak_heap());
        let t0 = std::time::Instant::now();
        let made = f()?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        drop(made);
        util::reset_peak_heap();
        Ok(())
    }

    /// Run `op(k)` for k = 0, 1, … in a closed loop for `seconds`, with
    /// `setup(k)` timed between operations at evenly spread moments.
    /// Returns the number of operations.
    pub fn closed_loop<T>(
        &mut self,
        seconds: f64,
        mut setup: impl FnMut(u64) -> std::io::Result<T>,
        mut op: impl FnMut(u64) -> std::io::Result<Op>,
    ) -> std::io::Result<u64> {
        util::reset_peak_heap();
        let clock = util::Clock::new(seconds);
        let mut setups = util::SetupTicker::new(seconds);
        let mut n = 0;
        while clock.running() {
            if setups.due() {
                let k = self.setup_s.len() as u64;
                self.setup(|| setup(k))?;
            }
            let at = clock.fraction();
            let o = op(n)?;
            self.op(at, o.secs, o.points, o.first_row, o.hash);
            self.attempted += 1;
            self.failed += u64::from(!o.ok);
            n += 1;
        }
        self.peak_heap = self.peak_heap.max(util::peak_heap());
        Ok(n)
    }

    /// The operations of each time window of the run.
    fn windows(&self) -> Vec<Vec<OpRecord>> {
        let mut w = vec![Vec::new(); WINDOWS];
        for o in &self.ops {
            w[((o.at * WINDOWS as f64) as usize).min(WINDOWS - 1)].push(*o);
        }
        w.retain(|ops| !ops.is_empty());
        w
    }

    /// Median over the windows of `f(window)`.
    fn over_windows(&self, f: impl Fn(&[OpRecord]) -> f64) -> f64 {
        let mut per: Vec<f64> = self.windows().iter().map(|w| f(w)).collect();
        util::median(&mut per)
    }

    /// Points per second spent inside operations.
    pub fn points_per_s(&self) -> f64 {
        self.over_windows(|w| {
            w.iter().map(|o| o.points).sum::<u64>() as f64 / w.iter().map(|o| o.secs).sum::<f64>()
        })
    }

    /// Operations per second spent inside operations.
    pub fn jobs_per_s(&self) -> f64 {
        self.over_windows(|w| w.len() as f64 / w.iter().map(|o| o.secs).sum::<f64>())
    }

    /// Completion times, or first-row times, of every operation.
    fn latencies(&self, first_row: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter_map(|o| if first_row { o.first_row } else { Some(o.secs) })
            .collect()
    }

    /// Percentile `p` of completion (or first-row) times, per window,
    /// median over the windows.
    fn windowed_percentile(&self, first_row: bool, p: f64) -> f64 {
        self.over_windows(|w| {
            let mut xs: Vec<f64> = w
                .iter()
                .filter_map(|o| if first_row { o.first_row } else { Some(o.secs) })
                .collect();
            util::percentile(&mut xs, p)
        })
    }

    /// Peak live heap of the program, without the benchmark's buffers.
    pub fn heap_bytes(&self) -> usize {
        let own =
            self.ops.capacity() * std::mem::size_of::<OpRecord>() + 8 * self.hashes.capacity();
        self.peak_heap.saturating_sub(own + self.bookkeeping)
    }
}

/// What one operation of a closed loop produced.
pub struct Op {
    pub secs: f64,
    /// Result rows the operation completed.
    pub points: u64,
    /// Seconds until its first row, if one arrived.
    pub first_row: Option<f64>,
    pub hash: u64,
    /// Whether the operation's own checks passed.
    pub ok: bool,
}

/// Per-layer figures by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one traced measurement produced.
pub struct Traced {
    pub layers: Layers,
    pub e2e: E2e,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepSmall,
    Continuum,
    Daemon,
    Delay,
}

const WORKLOADS: [Workload; 4] = [
    Workload::SweepSmall,
    Workload::Continuum,
    Workload::Daemon,
    Workload::Delay,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SweepSmall => "sweep_small",
            Workload::Continuum => "continuum_65536",
            Workload::Daemon => "daemon_mixed",
            Workload::Delay => "delay_ensemble",
        }
    }

    fn run(self, seed: u64, seconds: f64) -> std::io::Result<E2e> {
        match self {
            Workload::SweepSmall => sweep::run(seed, seconds),
            Workload::Continuum => continuum::run(seed, seconds),
            Workload::Daemon => daemon::run(seed, seconds),
            Workload::Delay => delay::run(seed, seconds),
        }
    }

    fn traced(self, seed: u64, seconds: f64, tr: &Tracer) -> std::io::Result<Traced> {
        match self {
            Workload::SweepSmall => sweep::traced(seed, seconds, tr),
            Workload::Continuum => continuum::traced(seed, seconds, tr),
            Workload::Daemon => daemon::traced(seed, seconds, tr),
            Workload::Delay => delay::traced(seed, seconds, tr),
        }
    }
}

/// Every per-layer metric with its unit and its home: the workload whose
/// end-to-end figures it should move (README.md, per-layer table). Each
/// traced run reports all of them; a layer the workload does not reach is
/// priced by a short traced pass of its home workload.
const PER_LAYER: &[(&str, &str, Option<Workload>)] = &[
    ("sweep.parse_us", "us", Some(Workload::Daemon)),
    ("sweep.resolve_us", "us", Some(Workload::SweepSmall)),
    ("sweep.point_us_p50", "us", Some(Workload::SweepSmall)),
    ("sweep.point_us_p99", "us", Some(Workload::SweepSmall)),
    ("sweep.summarize_us", "us", Some(Workload::SweepSmall)),
    ("sweep.serialize_us", "us", Some(Workload::SweepSmall)),
    ("sweep.write_us", "us", Some(Workload::SweepSmall)),
    ("sweep.bytes_per_row", "bytes", Some(Workload::SweepSmall)),
    ("sweep.exec_idle_frac", "frac", Some(Workload::SweepSmall)),
    ("core.build_us", "us", Some(Workload::SweepSmall)),
    ("core.rhs_eval_us", "us", Some(Workload::Continuum)),
    (
        "core.rhs_bytes_per_eval",
        "bytes",
        Some(Workload::Continuum),
    ),
    ("core.rhs_flops_per_eval", "flop", Some(Workload::Continuum)),
    ("core.ensemble_eval_us", "us", Some(Workload::Delay)),
    ("core.ensemble_speedup", "x", Some(Workload::Delay)),
    ("ode.integrate_us", "us", Some(Workload::SweepSmall)),
    ("ode.steps", "count", Some(Workload::SweepSmall)),
    ("ode.step_self_us", "us", Some(Workload::SweepSmall)),
    ("ode.history_sample_us", "us", Some(Workload::Delay)),
    ("kernels.dispatch_us", "us", Some(Workload::Continuum)),
    (
        "kernels.rhs_parallel_speedup",
        "x",
        Some(Workload::Continuum),
    ),
    ("noise.tau_us", "us", Some(Workload::Delay)),
    ("analysis.probe_us", "us", Some(Workload::Continuum)),
    ("serve.submit_us", "us", Some(Workload::Daemon)),
    ("serve.manager_submit_us", "us", Some(Workload::Daemon)),
    ("serve.http_overhead_us", "us", Some(Workload::Daemon)),
    ("serve.server_elapsed_us", "us", Some(Workload::Daemon)),
    ("serve.queue_wait_us", "us", Some(Workload::Daemon)),
    ("serve.stream_us", "us", Some(Workload::Daemon)),
    ("serve.refused", "count", Some(Workload::Daemon)),
    ("serve.status_us", "us", Some(Workload::Daemon)),
    ("serve.rows_read_us", "us", Some(Workload::Daemon)),
    ("trace.overhead_frac", "frac", None),
];

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// What a run prints as its result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The tail percentile every end-to-end latency reports.
pub const TAIL: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = util::llc_bytes();
    let ws = continuum::working_set_bytes();
    let mut out = String::from("{\"provenance\":{");
    let _ = write!(
        out,
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"llc_bytes\":{},\"rustc\":\"{}\",\"git_commit\":\"{}\",\"source_digest\":\"{}\",\
         \"continuum_working_set_bytes_computed\":{ws},\"continuum_working_set_over_llc\":{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        llc.map_or("null".into(), |b| b.to_string()),
        env!("PERFBENCH_RUSTC"),
        util::git_commit().unwrap_or_else(|| "none".into()),
        util::source_digest(),
        llc.map_or("null".into(), |b| json_num(ws as f64 / b as f64)),
    );
    out.push_str("}}");
    println!("{out}");
}

/// Print `{"<label>":{"k":"v",…}}` as one line of context.
fn print_object<'a>(label: &str, pairs: impl IntoIterator<Item = (&'a str, &'a str)>) {
    let mut out = format!("{{\"{label}\":{{");
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":\"{v}\"");
    }
    out.push_str("}}");
    println!("{out}");
}

/// End-to-end metrics of an untraced measurement, in BENCHMARK.json order.
fn end_to_end(e: &E2e) -> Vec<Metric> {
    let mut setup = e.setup_s.clone();
    vec![
        ("setup_s", util::median(&mut setup), "s"),
        ("points_per_s", e.points_per_s(), "1/s"),
        ("jobs_per_s", e.jobs_per_s(), "1/s"),
        (
            "job_done_ms_p50",
            util::median(&mut e.latencies(false)) * 1e3,
            "ms",
        ),
        (
            "job_done_ms_p90",
            e.windowed_percentile(false, TAIL) * 1e3,
            "ms",
        ),
        (
            "first_row_ms_p50",
            util::median(&mut e.latencies(true)) * 1e3,
            "ms",
        ),
        (
            "first_row_ms_p90",
            e.windowed_percentile(true, TAIL) * 1e3,
            "ms",
        ),
        (
            "peak_heap_mb",
            e.heap_bytes() as f64 / (1u64 << 20) as f64,
            "MB",
        ),
    ]
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push_str("}}");
    out
}

fn run_untraced(args: &Args) -> std::io::Result<Outcome> {
    let mut e2e = args.workload.run(args.seed, args.seconds)?;
    e2e.note("ops", e2e.ops());
    e2e.note("first_rows", e2e.latencies(true).len());
    for (key, first_row) in [
        ("job_done_ms_p90_whole_run", false),
        ("first_row_ms_p90_whole_run", true),
    ] {
        let whole = util::percentile(&mut e2e.latencies(first_row), TAIL) * 1e3;
        e2e.note(key, format!("{whole:.4}"));
    }
    e2e.note("setup_samples", e2e.setup_s.len());
    let mut setup = e2e.setup_s.clone();
    e2e.note(
        "setup_us_p10_p50_p90",
        format!(
            "{:.1}/{:.1}/{:.1}",
            util::percentile(&mut setup, 10.0) * 1e6,
            util::percentile(&mut setup, 50.0) * 1e6,
            util::percentile(&mut setup, 90.0) * 1e6
        ),
    );
    e2e.note(
        "tail_percentile_supported",
        util::supported_tail(e2e.ops() / WINDOWS)
            .map_or("none".into(), |p| format!("p{p} per window")),
    );
    print_object(
        "samples",
        e2e.notes.iter().map(|(k, v)| (k.as_str(), v.as_str())),
    );
    let metrics = end_to_end(&e2e);
    let finite = metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0);
    Ok(Outcome {
        correct: e2e.failed == 0 && finite,
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics,
    })
}

fn run_traced(args: &Args) -> std::io::Result<Outcome> {
    let out_dir = Path::new(".perfbench_out");
    std::fs::create_dir_all(out_dir)?;
    let s = args.seconds;
    // Untraced and traced slices of the same seeded operations: their
    // rates give the tracing overhead, their outputs must agree.
    let plain = args.workload.run(args.seed, 0.3 * s)?;
    let spans_file = |source: Workload| {
        out_dir.join(format!(
            "{}-seed{}-spans-{}.jsonl",
            args.workload.name(),
            args.seed,
            source.name()
        ))
    };
    let tracer = Tracer::new();
    let own = args.workload.traced(args.seed, 0.5 * s, &tracer)?;
    tracer.write_jsonl(&spans_file(args.workload))?;
    let mut attempted = plain.attempted + own.e2e.attempted;
    let mut failed = plain.failed + own.e2e.failed;
    let common = plain.hashes.len().min(own.e2e.hashes.len());
    let mismatched = (0..common)
        .filter(|&i| plain.hashes[i] != own.e2e.hashes[i])
        .count() as u64;
    attempted += common as u64;
    failed += mismatched;

    let mut layers = own.layers;
    layers.insert(
        "trace.overhead_frac",
        plain.points_per_s() / own.e2e.points_per_s() - 1.0,
    );
    // Layers this workload never reaches are priced by a short traced
    // pass of their home workload, on inputs from the same seed.
    let mut source: BTreeMap<&str, &str> =
        layers.keys().map(|k| (*k, args.workload.name())).collect();
    for home in WORKLOADS {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(name, _, h)| *h == Some(home) && !layers.contains_key(name))
            .map(|(name, _, _)| *name)
            .collect();
        if missing.is_empty() {
            continue;
        }
        let census_tracer = Tracer::new();
        let census = home.traced(args.seed, 0.05 * s, &census_tracer)?;
        census_tracer.write_jsonl(&spans_file(home))?;
        attempted += census.e2e.attempted;
        failed += census.e2e.failed;
        for name in missing {
            if let Some(v) = census.layers.get(name) {
                layers.insert(name, *v);
                source.insert(name, home.name());
            }
        }
    }
    print_object("layer_source", source);

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, layers.get(name).copied().unwrap_or(f64::NAN), *unit))
        .collect();
    let complete = metrics.iter().all(|m| m.1.is_finite());
    Ok(Outcome {
        correct: failed == 0 && complete,
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep_small|continuum_65536|daemon_mixed|delay_ensemble> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The program's crates must be present: the benchmark measures them.
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no `crates/` here)");
        std::process::exit(2);
    }
    print_provenance(&args);
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match outcome {
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        }) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if !correct {
                eprintln!("perfbench: correctness checks failed ({failed} of {attempted})");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
