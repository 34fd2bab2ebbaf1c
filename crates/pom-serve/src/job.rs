//! The multi-tenant job manager.
//!
//! One [`JobManager`] owns every campaign the daemon knows about and the
//! scheduling state shared by the worker pool:
//!
//! * **Submission** parses the spec (the same TOML/JSON bodies the CLI
//!   accepts, byte-for-byte), persists it to the spool, writes the JSONL
//!   header, and enqueues the job's grid points. A bounded number of
//!   *active* jobs gives explicit backpressure: submits beyond
//!   [`JobManager::max_jobs`] are rejected (the API answers HTTP 429)
//!   instead of queueing unboundedly. With an auth book configured,
//!   per-token quotas (active jobs, total points) are enforced first.
//! * **Weighted fair scheduling**: active jobs sit in three priority
//!   bands (high/normal/low). Dispatch slots follow a fixed repeating
//!   pattern — high gets 4 of every 7 claims, normal 2, low 1, falling
//!   through to the next non-empty band — and within a band jobs
//!   round-robin FIFO at *point* granularity. The schedule is seed-free
//!   and thread-count-invariant like everything else: no RNG, no clock,
//!   just a counter into a constant pattern.
//! * **Determinism**: a row depends only on `(spec, point index)` — the
//!   per-point seed derives from the index — and each job embeds a
//!   [`PointQueue`], the queue `pom sweep` itself runs on: workers claim
//!   from it, run the point through the same [`execute_point`], and its
//!   reorder buffer releases rows strictly in ascending pending order
//!   into a [`JsonlSink`]. However jobs interleave, whatever the worker
//!   count, and across any number of cancel/crash/resume cycles, a job's
//!   `results.jsonl` is bitwise identical to a single uninterrupted
//!   `pom sweep` run. A point that fails or panics is an error row, as
//!   in the CLI; its worker keeps serving. Submit-time extras (priority,
//!   deadline, token) deliberately live *outside* the spec — in the
//!   spool `meta` file — so they can never perturb the spec hash or the
//!   result bytes.
//! * **Crash safety**: the header and every row reach the file as one
//!   write plus flush, so the file is always a valid prefix in release
//!   order. [`JobManager::open`] re-scans the spool and auto-resumes
//!   incomplete jobs via the standard [`pom_sweep::scan_completed_at`]
//!   machinery; [`pom_sweep::reopen_for_append`], the helper `pom sweep
//!   resume=1` uses, truncates a torn final row so the stream stays
//!   whole-line. All spool IO is routed through the [`crate::faults`]
//!   layer (a no-op in production) — the chaos suite's proof that these
//!   properties hold under torn writes, short reads and kills.
//! * **Lifecycle bounds**: jobs submitted with `deadline_ms=` are
//!   cancelled once overdue, with a structured reason persisted in the
//!   spool marker; a `retain` policy garbage-collects terminal job
//!   directories (count- and age-based) at startup and after each
//!   completion, never touching running or unexpired-cancelled jobs.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use pom_core::SimWorkspace;
use pom_obs::Level;
use pom_sweep::{
    execute_point, reopen_for_append, scan_completed_at, CampaignSpec, JsonlSink, PointQueue,
    PointRow, ResultSink,
};
use pom_sweep::{parse_json, write_json_str, Value};

use crate::auth::TokenBook;
use crate::faults::{Faults, SpoolFile};
use crate::metrics::{metrics, record_quota_rejection};
use crate::spool;
use crate::ServeConfig;

/// How often an idle worker re-checks armed deadlines.
const DEADLINE_POLL: Duration = Duration::from_millis(25);

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Points pending or in flight; the scheduler may dispatch from it.
    Running,
    /// Every grid point has a durable row.
    Done,
    /// Cancelled by a client or a deadline; keeps its partial results
    /// and may resume.
    Cancelled,
    /// Unrecoverable (result-file hash mismatch, sink I/O failure, …).
    Failed,
}

impl JobState {
    /// Lower-case wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// Scheduling band of a job. The dispatch pattern gives high 4 of every
/// 7 slots, normal 2, low 1 (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// 4/7 of dispatch slots.
    High,
    /// 2/7 of dispatch slots (the default).
    #[default]
    Normal,
    /// 1/7 of dispatch slots.
    Low,
}

impl Priority {
    /// Lower-case wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parse the wire name.
    pub(crate) fn from_name(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// Ring index (highest priority first).
    fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A point-granular progress snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id (`j1`, `j2`, …).
    pub id: String,
    /// Campaign name from the spec.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling band.
    pub priority: Priority,
    /// Spec content hash (resume identity), 16 hex digits.
    pub spec_hash: String,
    /// Grid size.
    pub total: usize,
    /// Rows durable in `results.jsonl` (including prior sessions).
    pub written: usize,
    /// Durable rows carrying a point error.
    pub errors: usize,
    /// Points currently executing on workers.
    pub in_flight: usize,
    /// Points not yet durable (includes in-flight ones).
    pub remaining: usize,
    /// The submit-time `deadline_ms`, while one is armed.
    pub deadline_ms: Option<u64>,
    /// Failure/cancellation reason, when one is known.
    pub reason: Option<String>,
}

impl JobStatus {
    /// Render as a JSON object.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"job\":");
        write_json_str(&self.id, &mut out);
        out.push_str(",\"name\":");
        write_json_str(&self.name, &mut out);
        out.push_str(",\"state\":");
        write_json_str(self.state.as_str(), &mut out);
        out.push_str(",\"priority\":");
        write_json_str(self.priority.as_str(), &mut out);
        out.push_str(",\"spec_hash\":");
        write_json_str(&self.spec_hash, &mut out);
        let _ = write_num(&mut out, "points", self.total);
        let _ = write_num(&mut out, "written", self.written);
        let _ = write_num(&mut out, "errors", self.errors);
        let _ = write_num(&mut out, "in_flight", self.in_flight);
        let _ = write_num(&mut out, "remaining", self.remaining);
        if let Some(ms) = self.deadline_ms {
            let _ = write_num(&mut out, "deadline_ms", ms as usize);
        }
        if let Some(r) = &self.reason {
            out.push_str(",\"reason\":");
            write_json_str(r, &mut out);
        }
        out.push('}');
        out
    }
}

fn write_num(out: &mut String, key: &str, v: usize) -> std::fmt::Result {
    use std::fmt::Write;
    out.push(',');
    write_json_str(key, out);
    write!(out, ":{v}")
}

/// Submit-time extras carried outside the spec (query parameters on
/// `POST /jobs`), so they never perturb the spec hash.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubmitOptions {
    /// The authenticated client token (recorded even without an auth
    /// book, for attribution).
    pub token: Option<String>,
    /// Scheduling band.
    pub priority: Priority,
    /// Cancel the job if not done this many ms after submission.
    pub deadline_ms: Option<u64>,
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The active-job bound is reached — explicit backpressure (HTTP 429).
    QueueFull {
        /// Jobs currently active.
        active: usize,
        /// The configured bound.
        max: usize,
    },
    /// Auth is on and the request carried no token / an unknown token
    /// (HTTP 401).
    Unauthorized(String),
    /// A per-token quota would be exceeded (HTTP 429); names the
    /// offending bound.
    Quota {
        /// The token whose quota tripped.
        token: String,
        /// `max_active_jobs` or `max_total_points`.
        bound: &'static str,
        /// The configured bound value.
        limit: usize,
        /// What the accounting would have been had the submit landed.
        have: usize,
    },
    /// The spec failed to parse or validate (HTTP 400).
    Spec(String),
    /// Spool I/O failed (HTTP 500).
    Io(io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { active, max } => write!(
                f,
                "job queue full: {active} active jobs at the max-jobs={max} bound; retry later"
            ),
            SubmitError::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            SubmitError::Quota {
                token,
                bound,
                limit,
                have,
            } => write!(
                f,
                "quota exceeded for token `{token}`: {bound}={limit} \
                 ({have} would be active); retry when jobs finish"
            ),
            SubmitError::Spec(m) => write!(f, "invalid campaign spec: {m}"),
            SubmitError::Io(e) => write!(f, "spool i/o: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a cancel/resume request was rejected.
#[derive(Debug)]
pub(crate) enum JobOpError {
    /// No such job (HTTP 404).
    NotFound,
    /// The operation does not apply in the job's current state (HTTP 409).
    Conflict(String),
    /// Spool I/O failed (HTTP 500).
    Io(io::Error),
}

impl std::fmt::Display for JobOpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOpError::NotFound => write!(f, "no such job"),
            JobOpError::Conflict(m) => write!(f, "{m}"),
            JobOpError::Io(e) => write!(f, "spool i/o: {e}"),
        }
    }
}

impl std::error::Error for JobOpError {}

/// How the daemon is being stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMode {
    /// Graceful: stop dispatching, finish in-flight points, flush rows.
    Drain,
    /// Simulated kill: discard in-flight results without writing them.
    /// Durable state is exactly what a `SIGKILL` would have left behind.
    Abort,
}

/// An armed submit deadline: the requested relative bound (for
/// messages) and the absolute wall-clock expiry (for persistence —
/// it must survive a daemon restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Deadline {
    ms: u64,
    at: SystemTime,
}

struct JobEntry {
    spec: Arc<CampaignSpec>,
    dir: PathBuf,
    /// The results stream while the job is active, routed through the
    /// fault layer.
    file: Option<JsonlSink<SpoolFile>>,
    state: JobState,
    reason: Option<String>,
    priority: Priority,
    deadline: Option<Deadline>,
    /// Owning auth token (quota accounting survives restarts via `meta`).
    token: Option<String>,
    /// When the job reached a terminal state (spool GC age policy).
    finished_at: Option<SystemTime>,
    total: usize,
    /// Points missing from the results file at activation.
    queue: PointQueue,
    /// Rows durable in the file (including rows found by the rescan).
    written: usize,
    errors: usize,
    /// Wall time of this job's executed points, for `GET
    /// /jobs/{id}/stats`. Standalone (not registered): per-job series
    /// would be unbounded-cardinality in the global registry.
    point_us: pom_obs::Histogram,
}

impl JobEntry {
    fn new(spec: Arc<CampaignSpec>, dir: PathBuf) -> JobEntry {
        let total = spec.total_points();
        JobEntry {
            spec,
            dir,
            file: None,
            state: JobState::Running,
            reason: None,
            priority: Priority::Normal,
            deadline: None,
            token: None,
            finished_at: None,
            total,
            queue: PointQueue::new((0..total).collect()),
            written: 0,
            errors: 0,
            point_us: pom_obs::Histogram::new(),
        }
    }

    fn status(&self, id: &str) -> JobStatus {
        JobStatus {
            id: id.to_string(),
            name: self.spec.name.clone(),
            state: self.state,
            priority: self.priority,
            spec_hash: format!("{:016x}", self.spec.spec_hash),
            total: self.total,
            written: self.written,
            errors: self.errors,
            in_flight: self.queue.in_flight(),
            remaining: self.total - self.written,
            deadline_ms: self.deadline.map(|d| d.ms),
            reason: self.reason.clone(),
        }
    }

    fn dispatchable(&self) -> bool {
        self.state == JobState::Running && self.queue.unclaimed() > 0
    }
}

/// The dispatch-slot pattern over band indices (0 = high, 1 = normal,
/// 2 = low): high claims 4 of every 7 slots, normal 2, low 1. A fixed
/// constant — no RNG, no clock — so the weighted schedule is exactly as
/// deterministic as the old round-robin ring.
const SCHED_PATTERN: [usize; 7] = [0, 1, 0, 2, 0, 1, 0];

struct ManagerState {
    jobs: BTreeMap<String, JobEntry>,
    /// Per-band FIFO rings of jobs with dispatchable points
    /// (high/normal/low).
    rings: [VecDeque<String>; 3],
    /// Claims made so far; indexes [`SCHED_PATTERN`].
    dispatch_seq: u64,
    next_seq: u64,
    stop: Option<StopMode>,
}

impl ManagerState {
    fn enqueue(&mut self, id: String, priority: Priority) {
        self.rings[priority.band()].push_back(id);
    }

    fn unqueue(&mut self, id: &str) {
        for ring in &mut self.rings {
            ring.retain(|r| r != id);
        }
    }
}

/// The shared job table + scheduler. See the module docs.
pub struct JobManager {
    state: Mutex<ManagerState>,
    /// Signalled when dispatchable work appears or stop is requested.
    work: Condvar,
    /// Signalled on every durable row / state change (pollers, drains).
    progress: Condvar,
    spool: PathBuf,
    /// Per-token quotas; `None` = open access.
    auth: Option<TokenBook>,
    /// Spool GC: keep at most this many done/failed directories (0 = ∞).
    retain_count: usize,
    /// Spool GC: drop terminal directories older than this.
    retain_age: Option<Duration>,
    /// Fault-injection handle (disabled in production).
    faults: Faults,
    /// Active-job bound for submission backpressure.
    pub max_jobs: usize,
}

type Task = (String, Arc<CampaignSpec>, usize);

impl JobManager {
    /// Open (or create) a spool directory and recover its jobs: completed
    /// jobs register as done, cancelled ones as resumable, and incomplete
    /// ones re-enter the scheduler automatically with only their missing
    /// points pending. Runs one retain-policy GC sweep before returning.
    pub fn open(cfg: &ServeConfig) -> io::Result<Arc<Self>> {
        let spool = cfg.spool.clone();
        fs::create_dir_all(&spool)?;
        let manager = Arc::new(Self {
            state: Mutex::new(ManagerState {
                jobs: BTreeMap::new(),
                rings: Default::default(),
                dispatch_seq: 0,
                next_seq: spool::next_seq(&spool)?,
                stop: None,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            spool,
            auth: cfg.auth.clone(),
            retain_count: cfg.retain_count,
            retain_age: cfg.retain_age,
            faults: cfg.faults.clone(),
            max_jobs: cfg.max_jobs.max(1),
        });
        {
            let mut st = manager.lock();
            for id in spool::scan_job_ids(&manager.spool)? {
                let dir = spool::job_dir(&manager.spool, &id);
                match Self::recover_job(&dir, &manager.faults) {
                    Ok(entry) => {
                        if pom_obs::enabled() {
                            metrics().spool_recovered.inc();
                        }
                        if entry.dispatchable() {
                            st.enqueue(id.clone(), entry.priority);
                        }
                        st.jobs.insert(id, entry);
                    }
                    Err(e) => {
                        // An unreadable/unparsable spool entry is skipped, not
                        // fatal: the daemon must come up with whatever state
                        // survived.
                        if pom_obs::enabled() {
                            metrics().spool_skipped.inc();
                        }
                        pom_obs::event(Level::Warn, "spool_skip", &[("job", &id), ("error", &e)]);
                    }
                }
            }
            manager.gc_locked(&mut st);
        }
        Ok(manager)
    }

    /// Rebuild one job's in-memory entry from its spool directory.
    fn recover_job(dir: &Path, faults: &Faults) -> Result<JobEntry, String> {
        let spec_text = spool::read_job_file(dir, spool::SPEC_FILE, faults)
            .map_err(|e| format!("read spec: {e}"))?
            .ok_or_else(|| "missing spec file".to_string())?;
        let spec =
            Arc::new(CampaignSpec::parse(&spec_text).map_err(|e| format!("parse spec: {e}"))?);
        let total = spec.total_points();
        let results = dir.join(spool::RESULTS_FILE);
        let cancelled = dir.join(spool::CANCELLED_MARKER).exists();

        let mut entry = JobEntry::new(spec.clone(), dir.to_path_buf());
        let (priority, deadline, token) = read_meta(dir, faults);
        entry.priority = priority;
        entry.deadline = deadline;
        entry.token = token;
        let cancel_reason = cancelled.then(|| read_cancel_reason(dir, faults)).flatten();

        let existing =
            spool::read_job_file(dir, spool::RESULTS_FILE, faults).map_err(|e| e.to_string())?;
        let mut file = None;
        if let Some(existing) = existing {
            let outcome = match scan_completed_at(&existing, &spec) {
                Ok(outcome) => outcome,
                Err(e) => {
                    // Hash mismatch or mid-file corruption: keep the job
                    // visible but refuse to touch the foreign file.
                    entry.state = JobState::Failed;
                    entry.reason = Some(e);
                    entry.finished_at = file_mtime(&results);
                    return Ok(entry);
                }
            };
            entry.queue =
                PointQueue::new((0..total).filter(|i| !outcome.done.contains(i)).collect());
            entry.written = outcome.done.len();
            // A torn final row (crash mid-write) is repaired NOW, whatever
            // state the job lands in, so every later append and rescan
            // sees a whole-line stream. A torn *header* leaves nothing to
            // keep: the stream is recreated below.
            if outcome.retain_len > 0 {
                let reopened =
                    reopen_for_append(&results, &existing, &outcome).map_err(|e| e.to_string())?;
                file = Some(JsonlSink::appending(faults.wrap(reopened)));
            }
        }
        if entry.queue.unreleased() == 0 {
            entry.state = JobState::Done;
            entry.finished_at = file_mtime(&results);
            return Ok(entry);
        }
        let file = match file {
            Some(file) => file,
            // No results file (crash between spec write and header) or a
            // torn header: start the stream fresh.
            None => {
                let created = fs::File::create(&results).map_err(|e| e.to_string())?;
                let mut sink = JsonlSink::new(faults.wrap(created));
                sink.begin(&spec).map_err(|e| e.to_string())?;
                sink
            }
        };
        if cancelled {
            entry.state = JobState::Cancelled;
            entry.reason = cancel_reason;
            entry.finished_at = file_mtime(&dir.join(spool::CANCELLED_MARKER));
        } else {
            entry.file = Some(file);
        }
        Ok(entry)
    }

    /// Submit with all defaults (no token, normal priority, no deadline).
    pub fn submit(&self, spec_text: &str) -> Result<JobStatus, SubmitError> {
        self.submit_with(spec_text, SubmitOptions::default())
    }

    /// Submit a campaign spec (TOML or JSON text, exactly the CLI's
    /// format). Persists the job and enqueues its points. Auth and
    /// quotas are checked before the global queue bound, so an
    /// unauthorized client learns nothing about queue state.
    pub(crate) fn submit_with(
        &self,
        spec_text: &str,
        opts: SubmitOptions,
    ) -> Result<JobStatus, SubmitError> {
        let spec =
            Arc::new(CampaignSpec::parse(spec_text).map_err(|e| SubmitError::Spec(e.to_string()))?);
        let total = spec.total_points();

        let mut st = self.lock();
        let token = self.check_quota(&st, opts.token.as_deref(), total)?;
        let active = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count();
        if active >= self.max_jobs {
            if pom_obs::enabled() {
                metrics().jobs_rejected.inc();
            }
            pom_obs::event(
                Level::Warn,
                "job_rejected",
                &[
                    ("active", &active.to_string()),
                    ("max_jobs", &self.max_jobs.to_string()),
                ],
            );
            return Err(SubmitError::QueueFull {
                active,
                max: self.max_jobs,
            });
        }
        let id = spool::job_id(st.next_seq);
        st.next_seq += 1;
        // Persist the id high-water mark: GC may later remove the newest
        // directories, and ids must never be reissued.
        spool::store_seq_floor(&self.spool, st.next_seq - 1);

        let dir = spool::job_dir(&self.spool, &id);
        fs::create_dir_all(&dir).map_err(SubmitError::Io)?;
        fs::write(dir.join(spool::SPEC_FILE), spec_text).map_err(SubmitError::Io)?;
        let deadline = opts.deadline_ms.map(|ms| Deadline {
            ms,
            at: SystemTime::now() + Duration::from_millis(ms),
        });
        write_meta(&dir, opts.priority, deadline, token.as_deref()).map_err(SubmitError::Io)?;
        // The header is the first durable line: a crash right after
        // submit leaves a valid (0 rows completed) resume target.
        let created = fs::File::create(dir.join(spool::RESULTS_FILE)).map_err(SubmitError::Io)?;
        let mut file = JsonlSink::new(self.faults.wrap(created));
        file.begin(&spec).map_err(SubmitError::Io)?;

        let mut entry = JobEntry::new(spec, dir);
        entry.file = Some(file);
        entry.priority = opts.priority;
        entry.deadline = deadline;
        entry.token = token;
        if total == 0 {
            entry.state = JobState::Done;
            entry.finished_at = Some(SystemTime::now());
            entry.file = None;
        }
        let status = entry.status(&id);
        if pom_obs::enabled() {
            metrics().jobs_submitted.inc();
        }
        pom_obs::event(
            Level::Info,
            "job_submit",
            &[
                ("job", &id),
                ("name", &status.name),
                ("points", &total.to_string()),
                ("priority", status.priority.as_str()),
            ],
        );
        if entry.dispatchable() {
            st.enqueue(id.clone(), entry.priority);
        }
        st.jobs.insert(id, entry);
        drop(st);
        self.work.notify_all();
        Ok(status)
    }

    /// Enforce auth + per-token quotas for a submission of `total`
    /// points; returns the token to record on the job.
    fn check_quota(
        &self,
        st: &ManagerState,
        token: Option<&str>,
        total: usize,
    ) -> Result<Option<String>, SubmitError> {
        let Some(book) = &self.auth else {
            return Ok(token.map(str::to_string)); // open access
        };
        let Some(token) = token else {
            if pom_obs::enabled() {
                metrics().auth_failures.inc();
            }
            pom_obs::event(Level::Warn, "auth_reject", &[("error", "missing token")]);
            return Err(SubmitError::Unauthorized(
                "missing token; send `Authorization: Bearer <token>` or `X-Pom-Token: <token>`"
                    .into(),
            ));
        };
        let Some(quota) = book.get(token) else {
            if pom_obs::enabled() {
                metrics().auth_failures.inc();
            }
            pom_obs::event(Level::Warn, "auth_reject", &[("error", "unknown token")]);
            return Err(SubmitError::Unauthorized(format!(
                "unknown token `{token}`"
            )));
        };
        let running: Vec<&JobEntry> = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running && j.token.as_deref() == Some(token))
            .collect();
        if quota.max_active_jobs > 0 && running.len() >= quota.max_active_jobs {
            record_quota_rejection("max_active_jobs");
            pom_obs::event(
                Level::Warn,
                "quota_reject",
                &[("token", token), ("bound", "max_active_jobs")],
            );
            return Err(SubmitError::Quota {
                token: token.to_string(),
                bound: "max_active_jobs",
                limit: quota.max_active_jobs,
                have: running.len() + 1,
            });
        }
        if quota.max_total_points > 0 {
            let points = running.iter().map(|j| j.total).sum::<usize>() + total;
            if points > quota.max_total_points {
                record_quota_rejection("max_total_points");
                pom_obs::event(
                    Level::Warn,
                    "quota_reject",
                    &[("token", token), ("bound", "max_total_points")],
                );
                return Err(SubmitError::Quota {
                    token: token.to_string(),
                    bound: "max_total_points",
                    limit: quota.max_total_points,
                    have: points,
                });
            }
        }
        Ok(Some(token.to_string()))
    }

    /// Point-granular status of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let st = self.lock();
        st.jobs.get(id).map(|e| e.status(id))
    }

    /// Per-job point-latency summary as a JSON object (`GET
    /// /jobs/{id}/stats`). Counts cover points executed *this session*
    /// with instrumentation on — rows recovered from the spool carry no
    /// timing. `None` for unknown jobs.
    pub(crate) fn job_stats(&self, id: &str) -> Option<String> {
        use std::fmt::Write as _;
        let st = self.lock();
        let e = st.jobs.get(id)?;
        let mut out = String::with_capacity(256);
        out.push_str("{\"job\":");
        write_json_str(id, &mut out);
        out.push_str(",\"state\":");
        write_json_str(e.state.as_str(), &mut out);
        let _ = write!(
            out,
            ",\"written\":{},\"point_latency\":{{{}}}}}",
            e.written,
            e.point_us.summary_json()
        );
        Some(out)
    }

    /// Status of every known job, ascending by id sequence.
    pub(crate) fn list(&self) -> Vec<JobStatus> {
        let st = self.lock();
        let mut out: Vec<JobStatus> = st.jobs.iter().map(|(id, e)| e.status(id)).collect();
        out.sort_by_key(|s| spool::parse_job_id(&s.id).unwrap_or(u64::MAX));
        out
    }

    /// Cancel a job: stop dispatching its points. In-flight points finish
    /// and their rows still land if contiguous; the partial file stays a
    /// valid resume target, marked by the `cancelled` spool file.
    pub(crate) fn cancel(&self, id: &str) -> Result<JobStatus, JobOpError> {
        let mut st = self.lock();
        let entry = st.jobs.get_mut(id).ok_or(JobOpError::NotFound)?;
        if entry.state == JobState::Running {
            entry.state = JobState::Cancelled;
            entry.finished_at = Some(SystemTime::now());
            fs::write(
                entry.dir.join(spool::CANCELLED_MARKER),
                b"{\"reason\":\"client\"}",
            )
            .map_err(JobOpError::Io)?;
            let status = entry.status(id);
            st.unqueue(id);
            drop(st);
            if pom_obs::enabled() {
                metrics().jobs_cancelled.inc();
            }
            pom_obs::event(
                Level::Info,
                "job_cancel",
                &[("job", id), ("written", &status.written.to_string())],
            );
            self.progress.notify_all();
            return Ok(status);
        }
        Ok(entry.status(id))
    }

    /// Resume a cancelled job: re-queue every point that is not durable.
    /// Rows computed but never written (past a reorder gap at cancel
    /// time) simply re-run — deterministically, so the final file is
    /// unaffected. A spent deadline is cleared (it already elapsed);
    /// priority and token are kept. No-op on running/done jobs.
    pub(crate) fn resume(&self, id: &str) -> Result<JobStatus, JobOpError> {
        let mut st = self.lock();
        let entry = st.jobs.get_mut(id).ok_or(JobOpError::NotFound)?;
        match entry.state {
            JobState::Running | JobState::Done => Ok(entry.status(id)),
            JobState::Failed => Err(JobOpError::Conflict(format!(
                "job {id} failed and cannot resume: {}",
                entry.reason.as_deref().unwrap_or("unknown")
            ))),
            JobState::Cancelled => {
                if entry.queue.in_flight() > 0 {
                    return Err(JobOpError::Conflict(format!(
                        "job {id} still has {} in-flight points from before the cancel; retry shortly",
                        entry.queue.in_flight()
                    )));
                }
                if entry.file.is_none() {
                    // Recovered cancelled: recovery already repaired the
                    // stream, so this reopen only appends.
                    let results = entry.dir.join(spool::RESULTS_FILE);
                    let existing = self
                        .faults
                        .read_to_string(&results)
                        .map_err(JobOpError::Io)?;
                    let outcome =
                        scan_completed_at(&existing, &entry.spec).map_err(JobOpError::Conflict)?;
                    let reopened =
                        reopen_for_append(&results, &existing, &outcome).map_err(JobOpError::Io)?;
                    entry.file = Some(JsonlSink::appending(self.faults.wrap(reopened)));
                }
                // Unwritten tail re-runs from scratch.
                entry.queue.rewind();
                if entry.deadline.take().is_some() {
                    // Un-arm the spent deadline on disk too, or a restart
                    // would re-expire the job immediately.
                    write_meta(&entry.dir, entry.priority, None, entry.token.as_deref())
                        .map_err(JobOpError::Io)?;
                }
                let _ = fs::remove_file(entry.dir.join(spool::CANCELLED_MARKER));
                entry.reason = None;
                entry.finished_at = None;
                entry.state = if entry.queue.unreleased() == 0 {
                    JobState::Done
                } else {
                    JobState::Running
                };
                if entry.state == JobState::Done {
                    entry.finished_at = Some(SystemTime::now());
                    entry.file = None;
                }
                let status = entry.status(id);
                if entry.dispatchable() {
                    let priority = entry.priority;
                    st.enqueue(id.to_string(), priority);
                }
                drop(st);
                if pom_obs::enabled() {
                    metrics().jobs_resumed.inc();
                }
                pom_obs::event(
                    Level::Info,
                    "job_resume",
                    &[("job", id), ("remaining", &status.remaining.to_string())],
                );
                self.work.notify_all();
                self.progress.notify_all();
                Ok(status)
            }
        }
    }

    /// Path of a job's JSONL result stream.
    pub(crate) fn results_path(&self, id: &str) -> Option<PathBuf> {
        let st = self.lock();
        st.jobs.get(id).map(|e| e.dir.join(spool::RESULTS_FILE))
    }

    /// True when no further bytes can appear in the job's result stream
    /// (terminal state and no in-flight points). Follow-mode streams use
    /// this as their stop condition. `None` if the job is unknown.
    pub(crate) fn quiescent(&self, id: &str) -> Option<bool> {
        let st = self.lock();
        st.jobs
            .get(id)
            .map(|e| e.state != JobState::Running && e.queue.in_flight() == 0)
    }

    /// Block until `id` reaches a terminal quiescent state (true) or the
    /// timeout expires (false). Unknown jobs return false.
    pub fn wait_done(&self, id: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            match st.jobs.get(id) {
                None => return false,
                Some(e) if e.state != JobState::Running && e.queue.in_flight() == 0 => return true,
                Some(_) => {}
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, timed_out) = self.progress.wait_timeout(st, left).unwrap();
            st = guard;
            if timed_out.timed_out() {
                // Re-check once after the timeout before giving up.
                return st
                    .jobs
                    .get(id)
                    .is_some_and(|e| e.state != JobState::Running && e.queue.in_flight() == 0);
            }
        }
    }

    /// Block until any job makes progress (a row lands or a state
    /// changes) or the timeout expires. Row streams in follow mode park
    /// here instead of sleeping, so new rows are pushed with condvar
    /// latency rather than a poll interval.
    pub(crate) fn wait_progress(&self, timeout: Duration) {
        let st = self.lock();
        let _ = self.progress.wait_timeout(st, timeout);
    }

    /// Request daemon stop. [`StopMode::Drain`] lets in-flight points
    /// finish and flush; [`StopMode::Abort`] discards them un-written
    /// (crash semantics, used by the restart-resume tests). Waking the
    /// progress condvar here is what lets follow streams close
    /// deterministically with their chunked terminator on shutdown.
    pub(crate) fn request_stop(&self, mode: StopMode) {
        let mut st = self.lock();
        st.stop = Some(mode);
        drop(st);
        self.work.notify_all();
        self.progress.notify_all();
    }

    /// Aggregate counts for the shutdown report: `(jobs, done, running,
    /// cancelled, failed, rows_written)`.
    pub(crate) fn totals(&self) -> (usize, usize, usize, usize, usize, usize) {
        let st = self.lock();
        let mut done = 0;
        let mut running = 0;
        let mut cancelled = 0;
        let mut failed = 0;
        let mut rows = 0;
        for e in st.jobs.values() {
            match e.state {
                JobState::Done => done += 1,
                JobState::Running => running += 1,
                JobState::Cancelled => cancelled += 1,
                JobState::Failed => failed += 1,
            }
            rows += e.written;
        }
        (st.jobs.len(), done, running, cancelled, failed, rows)
    }

    fn lock(&self) -> MutexGuard<'_, ManagerState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The band [`SCHED_PATTERN`] prefers for claim number `seq`.
    fn preferred_band(seq: u64) -> usize {
        SCHED_PATTERN[(seq % SCHED_PATTERN.len() as u64) as usize]
    }

    /// Claim the next point: weighted across priority bands by the fixed
    /// dispatch pattern (falling through to the next non-empty band),
    /// FIFO round-robin within a band.
    fn next_task(st: &mut ManagerState) -> Option<Task> {
        loop {
            let preferred = Self::preferred_band(st.dispatch_seq);
            let band = if !st.rings[preferred].is_empty() {
                preferred
            } else {
                (0..st.rings.len()).find(|&b| !st.rings[b].is_empty())?
            };
            let Some(id) = st.rings[band].pop_front() else {
                continue;
            };
            let Some(entry) = st.jobs.get_mut(&id) else {
                continue;
            };
            if !entry.dispatchable() {
                continue;
            }
            let index = entry
                .queue
                .claim()
                .expect("dispatchable job has an unclaimed point");
            let spec = entry.spec.clone();
            if entry.dispatchable() {
                st.rings[band].push_back(id.clone());
            }
            st.dispatch_seq += 1;
            return Some((id, spec, index));
        }
    }

    /// Cancel every running job whose deadline elapsed, persisting a
    /// structured reason in the spool marker. Returns true when any job
    /// was expired (callers wake the progress condvar).
    fn expire_overdue(&self, st: &mut ManagerState) -> bool {
        let now = SystemTime::now();
        let overdue: Vec<String> = st
            .jobs
            .iter()
            .filter(|(_, e)| e.state == JobState::Running)
            .filter(|(_, e)| e.deadline.is_some_and(|d| d.at <= now))
            .map(|(id, _)| id.clone())
            .collect();
        for id in &overdue {
            let entry = st.jobs.get_mut(id).expect("collected above");
            let d = entry.deadline.expect("overdue implies armed");
            let remaining = entry.total - entry.written;
            let reason = format!(
                "deadline exceeded: deadline_ms={}; cancelled with {remaining} of {} points unwritten",
                d.ms, entry.total
            );
            entry.state = JobState::Cancelled;
            entry.reason = Some(reason.clone());
            entry.finished_at = Some(now);
            let marker = format!(
                "{{\"reason\":\"deadline\",\"deadline_ms\":{},\"written\":{},\"remaining\":{remaining}}}",
                d.ms, entry.written
            );
            let _ = fs::write(entry.dir.join(spool::CANCELLED_MARKER), marker);
            st.unqueue(id);
            if pom_obs::enabled() {
                metrics().deadline_cancelled.inc();
                metrics().jobs_cancelled.inc();
            }
            pom_obs::event(
                Level::Warn,
                "job_deadline",
                &[("job", id), ("reason", &reason)],
            );
        }
        !overdue.is_empty()
    }

    /// Apply the retain policy: age-evict any quiescent terminal job
    /// past `retain_age` (including expired cancelled jobs), then
    /// count-evict the oldest done/failed jobs beyond `retain_count`.
    /// Running jobs and unexpired cancelled jobs are never touched.
    fn gc_locked(&self, st: &mut ManagerState) {
        if self.retain_count == 0 && self.retain_age.is_none() {
            return;
        }
        let now = SystemTime::now();
        let mut victims: Vec<String> = Vec::new();
        if let Some(age) = self.retain_age {
            for (id, e) in &st.jobs {
                if e.state == JobState::Running || e.queue.in_flight() > 0 {
                    continue;
                }
                let Some(t) = e.finished_at else { continue };
                if now.duration_since(t).is_ok_and(|d| d >= age) {
                    victims.push(id.clone());
                }
            }
        }
        if self.retain_count > 0 {
            let mut terminal: Vec<(u64, String)> = st
                .jobs
                .iter()
                .filter(|(id, e)| {
                    matches!(e.state, JobState::Done | JobState::Failed)
                        && e.queue.in_flight() == 0
                        && !victims.contains(id)
                })
                .filter_map(|(id, _)| spool::parse_job_id(id).map(|seq| (seq, id.clone())))
                .collect();
            terminal.sort_unstable_by_key(|t| std::cmp::Reverse(t.0)); // newest first
            victims.extend(
                terminal
                    .into_iter()
                    .skip(self.retain_count)
                    .map(|(_, id)| id),
            );
        }
        for id in victims {
            if st.jobs.remove(&id).is_none() {
                continue;
            }
            st.unqueue(&id);
            match spool::remove_job_dir(&self.spool, &id) {
                Ok(()) => {
                    if pom_obs::enabled() {
                        metrics().spool_gc_removed.inc();
                    }
                    pom_obs::event(Level::Info, "spool_gc", &[("job", &id)]);
                }
                Err(e) => {
                    // Dropped from memory regardless; the startup scan
                    // will re-skip whatever half-removed state remains.
                    pom_obs::event(
                        Level::Warn,
                        "spool_gc_failed",
                        &[("job", &id), ("error", &e.to_string())],
                    );
                }
            }
        }
    }

    /// Deliver a completed row: reorder, write released rows, flip the
    /// job to done when the last row lands. `elapsed_us` is the point's
    /// execution wall time (absent when instrumentation is off).
    fn deliver(&self, st: &mut ManagerState, id: &str, row: PointRow, elapsed_us: Option<u64>) {
        let mut completed = false;
        if let Some(entry) = st.jobs.get_mut(id) {
            if let Some(us) = elapsed_us {
                entry.point_us.observe(us);
            }
            let was_done = entry.state == JobState::Done;
            let written_before = entry.written;
            entry.queue.complete(row);
            while let Some(file) = entry.file.as_mut() {
                let Some(ready) = entry.queue.release() else {
                    break;
                };
                // One write + flush per row: the file is always a
                // whole-line prefix, which is what makes it a crash
                // checkpoint.
                if let Err(e) = file.row(&ready) {
                    let msg = format!("writing row {}: {e}", ready.index);
                    entry.state = JobState::Failed;
                    entry.reason = Some(msg.clone());
                    entry.finished_at = Some(SystemTime::now());
                    entry.file = None;
                    if pom_obs::enabled() {
                        metrics().jobs_failed.inc();
                    }
                    pom_obs::event(Level::Error, "job_failed", &[("job", id), ("error", &msg)]);
                    break;
                }
                entry.written += 1;
                if ready.error.is_some() {
                    entry.errors += 1;
                }
            }
            if entry.queue.unreleased() == 0 && entry.state != JobState::Failed {
                entry.file = None; // close the handle
                if entry.state == JobState::Cancelled {
                    // An in-flight tail completed the job after cancel.
                    let _ = fs::remove_file(entry.dir.join(spool::CANCELLED_MARKER));
                }
                entry.state = JobState::Done;
                entry.finished_at = Some(SystemTime::now());
                if !was_done {
                    completed = true;
                    if pom_obs::enabled() {
                        metrics().jobs_completed.inc();
                    }
                    pom_obs::event(
                        Level::Info,
                        "job_done",
                        &[
                            ("job", id),
                            ("written", &entry.written.to_string()),
                            ("errors", &entry.errors.to_string()),
                        ],
                    );
                }
            }
            if pom_obs::enabled() {
                metrics()
                    .rows_written
                    .add((entry.written - written_before) as u64);
            }
        }
        if completed {
            // The retain policy runs after every completion, so a
            // long-lived daemon's spool is bounded without a timer thread.
            self.gc_locked(st);
        }
    }

    /// The worker-thread body: claim points fairly, execute them with a
    /// reused integrator workspace, deliver rows. Returns when stop is
    /// requested (drain: after finishing the current point; abort: the
    /// current point's row is discarded, like a kill). While any running
    /// job has an armed deadline, idle waits are bounded so expiry is
    /// noticed without traffic.
    pub(crate) fn worker_loop(&self) {
        let mut ws = SimWorkspace::new();
        loop {
            let task: Option<Task> = {
                let mut st = self.lock();
                loop {
                    if st.stop.is_some() {
                        break None;
                    }
                    if self.expire_overdue(&mut st) {
                        self.progress.notify_all();
                    }
                    if let Some(t) = Self::next_task(&mut st) {
                        break Some(t);
                    }
                    let armed = st
                        .jobs
                        .values()
                        .any(|e| e.state == JobState::Running && e.deadline.is_some());
                    if armed {
                        let (guard, _) = self
                            .work
                            .wait_timeout(st, DEADLINE_POLL)
                            .unwrap_or_else(|p| p.into_inner());
                        st = guard;
                    } else {
                        st = self.work.wait(st).unwrap_or_else(|p| p.into_inner());
                    }
                }
            };
            let Some((id, spec, index)) = task else {
                return;
            };

            let (row, elapsed_us) = execute_point(&spec, index, &mut ws);

            let mut st = self.lock();
            if st.stop == Some(StopMode::Abort) {
                // Crash semantics: the computed row never becomes durable.
                return;
            }
            self.deliver(&mut st, &id, row, elapsed_us);
            drop(st);
            self.progress.notify_all();
        }
    }
}

fn file_mtime(path: &Path) -> Option<SystemTime> {
    fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// Persist the submit-time extras. All-default jobs get no meta file
/// (and a stale one is removed, e.g. when resume clears a deadline).
fn write_meta(
    dir: &Path,
    priority: Priority,
    deadline: Option<Deadline>,
    token: Option<&str>,
) -> io::Result<()> {
    if priority == Priority::Normal && deadline.is_none() && token.is_none() {
        match fs::remove_file(dir.join(spool::META_FILE)) {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        }
    }
    let mut out = String::with_capacity(96);
    out.push_str("{\"priority\":");
    write_json_str(priority.as_str(), &mut out);
    if let Some(d) = deadline {
        let unix_ms =
            d.at.duration_since(UNIX_EPOCH)
                .map_or(0, |t| t.as_millis() as u64);
        out.push_str(&format!(
            ",\"deadline_ms\":{},\"deadline_unix_ms\":{unix_ms}",
            d.ms
        ));
    }
    if let Some(t) = token {
        out.push_str(",\"token\":");
        write_json_str(t, &mut out);
    }
    out.push_str("}\n");
    fs::write(dir.join(spool::META_FILE), out)
}

/// Recover the submit-time extras; a missing or garbled meta file means
/// all defaults (the job still runs — hardening must not lose work).
fn read_meta(dir: &Path, faults: &Faults) -> (Priority, Option<Deadline>, Option<String>) {
    let Ok(Some(text)) = spool::read_job_file(dir, spool::META_FILE, faults) else {
        return (Priority::Normal, None, None);
    };
    let Ok(meta) = parse_json(text.trim()) else {
        return (Priority::Normal, None, None);
    };
    let priority = meta
        .get("priority")
        .and_then(Value::as_str)
        .and_then(Priority::from_name)
        .unwrap_or_default();
    let deadline = match (
        meta.get("deadline_ms").and_then(Value::as_i64),
        meta.get("deadline_unix_ms").and_then(Value::as_i64),
    ) {
        (Some(ms), Some(unix_ms)) if ms >= 0 && unix_ms >= 0 => Some(Deadline {
            ms: ms as u64,
            at: UNIX_EPOCH + Duration::from_millis(unix_ms as u64),
        }),
        _ => None,
    };
    let token = meta
        .get("token")
        .and_then(Value::as_str)
        .map(str::to_string);
    (priority, deadline, token)
}

/// The human-readable reason recorded in a structured cancel marker
/// (`None` for legacy empty markers and plain client cancels).
fn read_cancel_reason(dir: &Path, faults: &Faults) -> Option<String> {
    let text = spool::read_job_file(dir, spool::CANCELLED_MARKER, faults).ok()??;
    let marker = parse_json(text.trim()).ok()?;
    match marker.get("reason").and_then(Value::as_str)? {
        "deadline" => {
            let ms = marker.get("deadline_ms").and_then(Value::as_i64)?;
            let remaining = marker
                .get("remaining")
                .and_then(Value::as_i64)
                .unwrap_or(-1);
            Some(format!(
                "deadline exceeded: deadline_ms={ms}; cancelled with {remaining} points unwritten \
                 (previous session)"
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_names_round_trip() {
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::from_name(p.as_str()), Some(p));
        }
        assert_eq!(Priority::from_name("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn dispatch_pattern_weights_are_4_2_1() {
        let mut counts = [0usize; 3];
        for seq in 0..7u64 {
            counts[JobManager::preferred_band(seq)] += 1;
        }
        assert_eq!(counts, [4, 2, 1], "high/normal/low slots per 7 claims");
        // And the pattern is periodic — claim 7k+i prefers the same band
        // as claim i, whatever the thread count that got us there.
        for seq in 0..70u64 {
            assert_eq!(
                JobManager::preferred_band(seq),
                JobManager::preferred_band(seq % 7)
            );
        }
    }

    #[test]
    fn meta_round_trips_and_defaults_write_nothing() {
        let dir = std::env::temp_dir().join(format!("pom-job-meta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let faults = Faults::disabled();

        // All defaults → no meta file at all.
        write_meta(&dir, Priority::Normal, None, None).unwrap();
        assert!(!dir.join(spool::META_FILE).exists());
        assert_eq!(read_meta(&dir, &faults), (Priority::Normal, None, None));

        let deadline = Deadline {
            ms: 1500,
            at: SystemTime::now() + Duration::from_millis(1500),
        };
        write_meta(&dir, Priority::High, Some(deadline), Some("alice")).unwrap();
        let (p, d, t) = read_meta(&dir, &faults);
        assert_eq!(p, Priority::High);
        assert_eq!(d.map(|d| d.ms), Some(1500));
        assert_eq!(t.as_deref(), Some("alice"));

        // Clearing the deadline keeps priority and token.
        write_meta(&dir, Priority::High, None, Some("alice")).unwrap();
        let (p, d, t) = read_meta(&dir, &faults);
        assert_eq!((p, t.as_deref()), (Priority::High, Some("alice")));
        assert!(d.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
