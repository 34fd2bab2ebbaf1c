//! # pom-sweep — parallel scenario campaigns for the oscillator model
//!
//! The paper's evidence (Figs. 1–2, §4–5) is built from *sweeps*: over
//! noise amplitude σ, coupling βκ, topology distance sets, delay
//! injections and potential shapes. This crate turns those hand-rolled
//! loops into data:
//!
//! 1. **Declarative specs** ([`CampaignSpec`]): a TOML or JSON document
//!    describing a base scenario (oscillator model or MPI simulator
//!    workload) plus the [`Axis`] list to sweep. Grid, list and zipped
//!    axes expand into a cartesian scenario grid.
//! 2. **Deterministic seeding**: every grid point derives its RNG seed
//!    from the campaign master seed and the point *index*
//!    ([`CampaignSpec::point_seed`]), never from execution order — so a
//!    campaign is bitwise reproducible for any thread count.
//! 3. **Parallel execution** ([`run_campaign`]): a self-balancing worker
//!    pool claims points from one [`PointQueue`] (the same queue the
//!    `pom serve` daemon keeps per job); its reorder buffer streams
//!    finished rows to the sink strictly in grid order. A point that
//!    fails, or panics, becomes an error row instead of ending the run.
//! 4. **Streaming results** ([`JsonlSink`], [`CsvSink`]): rows appear as
//!    they complete, each self-describing (point index, derived seed,
//!    axis assignments, observables).
//! 5. **Resume** (`scan_completed`): the JSONL header carries a content
//!    hash of the spec; an interrupted campaign restarts with only the
//!    missing points, and a spec edit is detected instead of silently
//!    mixing incompatible rows.
//!
//! ## Example
//!
//! Sweep the interaction horizon σ of a bottlenecked chain and report the
//! asymptotic adjacent gap (§5.2.2's `2σ/3` law):
//!
//! ```
//! use pom_sweep::{Campaign, MemorySink, RunOptions};
//!
//! let campaign = Campaign::from_str(r#"
//!     [campaign]
//!     name = "two-thirds-law"
//!     seed = 7
//!     observables = ["mean_abs_gap", "rel_err_two_thirds"]
//!
//!     [model]
//!     n = 8
//!     potential = "desync"
//!     coupling = 6.0
//!
//!     [topology]
//!     kind = "chain"
//!
//!     [init]
//!     kind = "spread"
//!     amplitude = 0.1
//!
//!     [sim]
//!     t_end = 150.0
//!     samples = 50
//!
//!     [[axes]]
//!     key = "model.sigma"
//!     values = [1.0, 1.5]
//! "#).unwrap();
//!
//! let mut sink = MemorySink::default();
//! let summary = campaign.run(&RunOptions::with_threads(2), &mut sink).unwrap();
//! assert_eq!(summary.executed, 2);
//!
//! // Each row: the swept σ plus the measured gap ≈ 2σ/3.
//! for row in &sink.rows {
//!     let sigma = row.params[0].1.as_f64().unwrap();
//!     let gap = row.observables[0].1;
//!     assert!((gap - 2.0 * sigma / 3.0).abs() < 0.05, "σ={sigma}: gap {gap}");
//! }
//! ```

mod args;
mod exec;
pub mod registry;
mod run;
mod sink;
pub mod spec;
mod value;

pub use args::ArgError;
pub use exec::{
    execute_point, reopen_for_append, run_campaign, run_campaign_with, PointQueue, RunOptions,
    POINT_DURATION_METRIC,
};
pub use registry::{ArgKind, ArgSpec, CommandSpec, Parsed, Registry, RouteSpec};
pub use run::{run_point, run_point_ws, PointRow};
pub use sink::{
    header_json, scan_completed_at, write_row_line, CampaignSummary, CsvSink, JsonlSink,
    MemorySink, ResultSink, TeeSink,
};
pub use spec::{replica_seed, Axis, CampaignSpec, Observable, Scenario, SweepError};
pub use value::{parse_auto, parse_json, parse_toml, write_json_str, Value};

use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A loaded campaign — the high-level entry point.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The parsed spec.
    pub spec: CampaignSpec,
}

impl Campaign {
    /// Parse spec text (TOML, or JSON when it starts with `{`).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Self, SweepError> {
        Ok(Self {
            spec: CampaignSpec::parse(text)?,
        })
    }

    /// Load a spec file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, SweepError> {
        let text = fs::read_to_string(path.as_ref())?;
        Self::from_str(&text)
    }

    /// Grid size.
    pub fn total_points(&self) -> usize {
        self.spec.total_points()
    }

    /// Run with explicit options into any sink.
    pub fn run(
        &self,
        opts: &RunOptions,
        sink: &mut dyn ResultSink,
    ) -> Result<CampaignSummary, SweepError> {
        run_campaign(&self.spec, opts, sink)
    }

    /// Run on `threads` workers and collect rows in memory (grid order).
    pub fn run_collect(&self, threads: usize) -> Result<Vec<PointRow>, SweepError> {
        let mut sink = MemorySink::default();
        self.run(&RunOptions::with_threads(threads), &mut sink)?;
        Ok(sink.rows)
    }

    /// Open a JSONL file sink plus the matching run options. With
    /// `resume`, an existing file for the same spec is scanned, its
    /// completed points land in [`RunOptions::completed`], and the sink
    /// appends (starting on a fresh line even after a torn write);
    /// otherwise the file is rewritten from scratch. Callers that wrap
    /// the sink (e.g. in a [`TeeSink`]) must run with the returned
    /// options or resumed points will re-execute.
    pub fn jsonl_file_sink(
        &self,
        path: impl AsRef<Path>,
        threads: usize,
        resume: bool,
    ) -> Result<(JsonlSink<fs::File>, RunOptions), SweepError> {
        let path = path.as_ref();
        let mut opts = RunOptions::with_threads(threads);

        if resume && path.exists() {
            let existing = fs::read_to_string(path)?;
            let outcome = scan_completed_at(&existing, &self.spec).map_err(SweepError::Spec)?;
            if !outcome.done.is_empty() {
                let file = reopen_for_append(path, &existing, &outcome)?;
                opts.completed = outcome.done;
                return Ok((JsonlSink::appending(file), opts));
            }
        }
        Ok((JsonlSink::new(fs::File::create(path)?), opts))
    }

    /// Run into a JSONL file (see [`Campaign::jsonl_file_sink`] for the
    /// resume semantics).
    pub fn run_jsonl_file(
        &self,
        path: impl AsRef<Path>,
        threads: usize,
        resume: bool,
    ) -> Result<CampaignSummary, SweepError> {
        let (mut sink, opts) = self.jsonl_file_sink(path, threads, resume)?;
        self.run(&opts, &mut sink)
    }

    /// Render the whole campaign to a JSONL string (header + rows).
    pub fn run_jsonl_string(&self, threads: usize) -> Result<String, SweepError> {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        self.run(&RunOptions::with_threads(threads), &mut sink)?;
        let bytes = sink.into_inner();
        Ok(String::from_utf8(bytes).expect("jsonl is utf-8"))
    }

    /// The indices a resume of `path` would still need to execute.
    pub fn missing_points(&self, path: impl AsRef<Path>) -> Result<Vec<usize>, SweepError> {
        let done: HashSet<usize> = if path.as_ref().exists() {
            sink::scan_completed(&fs::read_to_string(path.as_ref())?, &self.spec)
                .map_err(SweepError::Spec)?
        } else {
            HashSet::new()
        };
        Ok((0..self.total_points())
            .filter(|i| !done.contains(i))
            .collect())
    }
}

/// Write a small progress meter to stderr as rows stream (used by the
/// CLI; one line per ~5% of the grid).
pub struct ProgressSink {
    total: usize,
    seen: usize,
    next_report: usize,
}

impl ProgressSink {
    /// Meter for a campaign of known size.
    pub fn new(total: usize) -> Self {
        Self {
            total,
            seen: 0,
            next_report: 1,
        }
    }
}

impl ResultSink for ProgressSink {
    fn begin(&mut self, _spec: &CampaignSpec) -> std::io::Result<()> {
        Ok(())
    }

    fn row(&mut self, _row: &PointRow) -> std::io::Result<()> {
        self.seen += 1;
        if self.seen >= self.next_report {
            eprintln!("pom-sweep: {}/{} points", self.seen, self.total);
            self.next_report = self.seen + (self.total / 20).max(1);
        }
        Ok(())
    }

    fn end(&mut self, _summary: &CampaignSummary) -> std::io::Result<()> {
        std::io::stderr().flush()
    }
}
