//! The campaign executor core, shared by `pom sweep` and the `pom serve`
//! daemon.
//!
//! * [`PointQueue`] holds one campaign's pending points: workers claim
//!   the next pending index, so long-running points never serialize the
//!   rest of the grid behind them; finished rows wait in a reorder buffer
//!   and are released strictly in grid order.
//! * [`execute_point`] runs one claimed point on the worker's reusable
//!   workspace ([`run_point_ws`], which turns a panic into an error row)
//!   and times it into the `pom_sweep_*` metrics when instrumentation is
//!   on.
//! * [`reopen_for_append`] reopens a scanned JSONL result file for a
//!   resumed run.
//!
//! [`run_campaign`] is worker threads over one queue
//! ([`run_campaign_with`], which takes the point runner as a parameter);
//! only the calling thread touches the sink. The daemon embeds one queue
//! per job and chooses which job a worker claims from. Per-point seeds derive from
//! the point *index*, so the released byte stream is identical for any
//! thread count and any claim interleaving.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use pom_core::SimWorkspace;

use crate::run::{run_point_ws, PointRow};
use crate::sink::{CampaignSummary, ResultSink, ScanOutcome};
use crate::spec::{CampaignSpec, SweepError};

/// Histogram of per-point wall time — the name `pom sweep stats=1` and
/// `/jobs/{id}/stats` consumers fetch from the global registry.
pub const POINT_DURATION_METRIC: &str = "pom_sweep_point_duration_us";

struct SweepMetrics {
    campaigns: Arc<pom_obs::Counter>,
    points: Arc<pom_obs::Counter>,
    errors: Arc<pom_obs::Counter>,
    skipped: Arc<pom_obs::Counter>,
    queue_depth: Arc<pom_obs::Gauge>,
    point_us: Arc<pom_obs::Histogram>,
}

fn metrics() -> &'static SweepMetrics {
    static M: OnceLock<SweepMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pom_obs::registry();
        SweepMetrics {
            campaigns: r.counter("pom_sweep_campaigns_total", "Campaigns executed."),
            points: r.counter("pom_sweep_points_total", "Sweep points executed."),
            errors: r.counter(
                "pom_sweep_point_errors_total",
                "Sweep points that returned a simulation error.",
            ),
            skipped: r.counter(
                "pom_sweep_points_skipped_total",
                "Points skipped because resume found them already on disk.",
            ),
            queue_depth: r.gauge(
                "pom_sweep_queue_depth",
                "Unclaimed points in the most recently active campaign.",
            ),
            point_us: r.histogram(POINT_DURATION_METRIC, "Per-point wall time."),
        }
    })
}

/// One campaign's pending points: claim order, in-flight count, and the
/// reorder buffer that releases finished rows in pending order.
#[derive(Debug, Default)]
pub struct PointQueue {
    /// Point indices still to write, ascending: the claim and release
    /// order.
    pending: Vec<usize>,
    /// Positions in `pending` already handed to a worker.
    claimed: usize,
    /// Positions in `pending` already released (reorder window base).
    released: usize,
    /// Finished rows waiting for their predecessors.
    buffer: BTreeMap<usize, PointRow>,
    in_flight: usize,
}

impl PointQueue {
    /// A queue over `pending`, which must be ascending.
    pub fn new(pending: Vec<usize>) -> Self {
        debug_assert!(pending.windows(2).all(|w| w[0] < w[1]), "ascending");
        Self {
            pending,
            ..Self::default()
        }
    }

    /// Hand out the next pending point, if any is unclaimed.
    pub fn claim(&mut self) -> Option<usize> {
        let index = *self.pending.get(self.claimed)?;
        self.claimed += 1;
        self.in_flight += 1;
        Some(index)
    }

    /// Return a claimed point's row. A row for a point that is not
    /// pending, or already released, is dropped: no point is ever
    /// released twice.
    pub fn complete(&mut self, row: PointRow) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.pending[self.released..]
            .binary_search(&row.index)
            .is_ok()
        {
            self.buffer.insert(row.index, row);
        }
    }

    /// The next row in pending order, once it and every row before it
    /// have completed.
    pub fn release(&mut self) -> Option<PointRow> {
        let row = self.buffer.remove(self.pending.get(self.released)?)?;
        self.released += 1;
        Some(row)
    }

    /// Points not yet claimed.
    pub fn unclaimed(&self) -> usize {
        self.pending.len() - self.claimed
    }

    /// Points claimed but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Points not yet released: unclaimed, in flight, or buffered.
    pub fn unreleased(&self) -> usize {
        self.pending.len() - self.released
    }

    /// Start over from the first unreleased point: every point not yet
    /// released is claimable again and buffered rows are discarded.
    /// Resuming a cancelled job does this once no point is in flight;
    /// since a row depends only on its point, the re-run rows are the
    /// same bytes.
    pub fn rewind(&mut self) {
        self.pending.drain(..self.released);
        self.claimed = 0;
        self.released = 0;
        self.buffer.clear();
    }

    /// Stop handing out points: the unclaimed tail is dropped, while
    /// points in flight still complete and release.
    pub(crate) fn close(&mut self) {
        self.pending.truncate(self.claimed);
    }
}

/// Run one claimed point: [`run_point_ws`] on the worker's workspace,
/// timed into the global `pom_sweep_*` metrics when instrumentation is
/// on. Returns the row and, when timed, the point's wall time in µs.
pub fn execute_point(
    spec: &CampaignSpec,
    index: usize,
    ws: &mut SimWorkspace,
) -> (PointRow, Option<u64>) {
    // The disabled path is one relaxed load per point.
    if !pom_obs::enabled() {
        return (run_point_ws(spec, index, ws), None);
    }
    let t0 = Instant::now();
    let row = run_point_ws(spec, index, ws);
    let us = t0.elapsed().as_micros() as u64;
    let m = metrics();
    m.point_us.observe(us);
    m.points.inc();
    if row.error.is_some() {
        m.errors.inc();
    }
    (row, Some(us))
}

/// Reopen a JSONL result file that `outcome` describes (the scan of
/// `text`, the file's contents) for appending: truncate a torn final
/// line, and restore a final newline the tear consumed, so the stream
/// stays whole lines.
pub fn reopen_for_append(path: &Path, text: &str, outcome: &ScanOutcome) -> io::Result<fs::File> {
    let mut file = fs::OpenOptions::new().append(true).open(path)?;
    if outcome.retain_len < text.len() {
        file.set_len(outcome.retain_len as u64)?;
    }
    if outcome.needs_newline {
        file.write_all(b"\n")?;
    }
    Ok(file)
}

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads; `0` uses all available cores.
    pub threads: usize,
    /// Point indices already on disk (resume); they are not re-executed.
    pub completed: HashSet<usize>,
}

impl RunOptions {
    /// Run on `threads` workers (0 = all cores).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            completed: HashSet::new(),
        }
    }

    /// The resolved worker count.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Expand the grid, execute all pending points across the worker pool,
/// and stream rows to `sink` in index order.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &RunOptions,
    sink: &mut dyn ResultSink,
) -> Result<CampaignSummary, SweepError> {
    let summary = run_campaign_with(spec, opts, sink, |index, unclaimed, ws| {
        if pom_obs::enabled() {
            metrics().queue_depth.set(unclaimed as i64);
        }
        execute_point(spec, index, ws).0
    });
    if pom_obs::enabled() {
        let m = metrics();
        m.campaigns.inc();
        m.queue_depth.set(0);
        if let Ok(s) = &summary {
            m.skipped.add(s.skipped as u64);
        }
    }
    summary
}

/// The executor behind [`run_campaign`], with the point runner supplied
/// by the caller: `run(index, unclaimed, ws)` executes one claimed point
/// on the worker's workspace, `unclaimed` being the number of points
/// still waiting for a worker. Workers share one [`PointQueue`]; only
/// the calling thread touches `sink`.
pub fn run_campaign_with<F>(
    spec: &CampaignSpec,
    opts: &RunOptions,
    sink: &mut dyn ResultSink,
    run: F,
) -> Result<CampaignSummary, SweepError>
where
    F: Fn(usize, usize, &mut SimWorkspace) -> PointRow + Sync,
{
    let total = spec.total_points();
    let queue = PointQueue::new((0..total).filter(|i| !opts.completed.contains(i)).collect());
    let mut summary = CampaignSummary {
        total,
        skipped: total - queue.unreleased(),
        ..CampaignSummary::default()
    };
    let n_workers = opts.effective_threads().min(queue.unreleased());
    sink.begin(spec)?;

    let queue = Mutex::new(queue);
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    // One workspace per worker: every point this thread
                    // executes reuses the same integrator scratch buffers.
                    let mut ws = SimWorkspace::new();
                    let mut done: Option<PointRow> = None;
                    loop {
                        let (index, unclaimed) = {
                            let mut q = lock_queue(&queue);
                            if let Some(row) = done.take() {
                                q.complete(row);
                                ready.notify_one();
                            }
                            let Some(index) = q.claim() else { break };
                            (index, q.unclaimed())
                        };
                        done = Some(run(index, unclaimed, &mut ws));
                    }
                })
            })
            .collect();

        // The calling thread writes rows as the queue releases them. It
        // also stops once every worker has exited: a worker killed by a
        // panic in `run` never completes its point, and the scope
        // re-raises that panic.
        let mut q = lock_queue(&queue);
        loop {
            if let Some(row) = q.release() {
                drop(q);
                summary.executed += 1;
                summary.errors += usize::from(row.error.is_some());
                if let Err(e) = sink.row(&row) {
                    // Workers stop after their current point.
                    lock_queue(&queue).close();
                    return Err(e);
                }
                q = lock_queue(&queue);
            } else if q.unreleased() == 0 || workers.iter().all(|w| w.is_finished()) {
                return Ok(());
            } else {
                q = ready
                    .wait_timeout(q, WORKER_POLL)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
        }
    })?;
    sink.end(&summary)?;
    Ok(summary)
}

/// How often the releasing thread re-checks that workers are alive while
/// it waits for a row.
const WORKER_POLL: Duration = Duration::from_millis(50);

/// Every queue update leaves the queue consistent, so a poisoned lock
/// is still usable.
fn lock_queue(queue: &Mutex<PointQueue>) -> MutexGuard<'_, PointQueue> {
    queue.lock().unwrap_or_else(|p| p.into_inner())
}
