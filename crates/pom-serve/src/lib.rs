//! # pom-serve — the campaign daemon
//!
//! A persistent service that runs [`pom_sweep`] campaigns on behalf of
//! remote clients: submit a spec over HTTP, poll point-granular progress,
//! stream completed rows as JSONL, cancel, resume — with the same
//! bitwise-reproducibility contract as the CLI. The paper's workflow is
//! many parameter sweeps against one calibrated model; the daemon turns
//! the batch engine into shared infrastructure without giving up the
//! determinism that makes the sweeps citable.
//!
//! ## Shape
//!
//! * [`http`] — hand-rolled HTTP/1.1 (no registry access ⇒ no async
//!   stack), thread per connection, chunked row streams.
//! * `job` — the multi-tenant [`job::JobManager`]: bounded submission
//!   (HTTP 429 backpressure), fair round-robin point scheduling across
//!   concurrent campaigns, in-order durable row emission.
//! * `spool` — on-disk layout; each job's `results.jsonl` doubles as
//!   its crash checkpoint (identical to `pom sweep resume=1` files).
//! * `api` — route dispatch; query strings are validated against the
//!   command registry's [`pom_sweep::registry::RouteSpec`] tables (same
//!   wording as CLI errors) and `GET /schema` serves the registry as
//!   JSON — byte-identical to `pom help format=json`.
//! * `auth` — per-token submission quotas (`auth=tokens.toml`).
//! * `faults` — deterministic fault injection for the chaos suite
//!   (disabled and zero-cost in production).
//! * `signal` — SIGTERM/SIGINT → graceful drain.
//!
//! ## Hardening
//!
//! The daemon assumes hostile traffic: a connection bound enforced
//! *before* thread spawn (503 + `Retry-After`), socket read/write
//! deadlines (slowloris / slow-consumer bounds), optional per-token
//! quotas, submit deadlines (`deadline_ms=`), weighted priority
//! scheduling, and a spool retain policy GC'ing terminal job
//! directories. See `docs/ARCHITECTURE.md` ("Failure modes & hardening
//! contract") for the full limits table.
//!
//! ## Quick use
//!
//! ```no_run
//! use pom_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // 0 = any free port
//!     spool: "pom-spool".into(),
//!     threads: 4,
//!     ..ServeConfig::default()
//! })?;
//! println!("listening on http://{}", server.addr());
//! let summary = server.join(); // blocks until POST /shutdown or SIGTERM
//! println!("served {} rows", summary.rows_written);
//! # std::io::Result::Ok(())
//! ```

mod api;
mod auth;
mod faults;
pub mod http;
mod job;
pub(crate) mod metrics;
mod signal;
mod spool;

pub use auth::TokenBook;
pub use faults::{FaultClass, FaultPlan, Faults, FAULT_CLASSES};
pub use job::{JobManager, JobState, StopMode};

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Shutdown-poll interval ([`Server::join`]) and accept-error backoff.
/// Not on the connection path: accepts themselves block.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Daemon configuration (every field has a sensible default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks any free port.
    pub addr: String,
    /// Spool directory (created if missing; re-scanned for resumable jobs).
    pub spool: PathBuf,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Active-job bound; submits past it answer HTTP 429.
    pub max_jobs: usize,
    /// Concurrent-connection bound, enforced on the accept thread before
    /// a handler thread is spawned; connections past it answer HTTP 503
    /// with `Retry-After`. `0` disables the bound.
    pub max_conns: usize,
    /// Per-token submission quotas; `None` = open access.
    pub auth: Option<auth::TokenBook>,
    /// Socket read deadline: a client holding a connection without
    /// completing a request within it is answered 408 and dropped
    /// (slowloris bound). Zero disables.
    pub read_timeout: Duration,
    /// Socket write deadline: a row-stream consumer stalling past it
    /// loses only its stream, never the job. Zero disables.
    pub write_timeout: Duration,
    /// Spool retain policy: keep at most this many terminal (done or
    /// failed) job directories. `0` disables count-based GC.
    pub retain_count: usize,
    /// Spool retain policy: remove terminal job directories (including
    /// expired cancelled ones) older than this. `None` disables
    /// age-based GC.
    pub retain_age: Option<Duration>,
    /// Fault-injection plan for the chaos suite. Disabled (and free) by
    /// default; never enable in production.
    pub faults: faults::Faults,
    /// Install SIGTERM/SIGINT handlers that trigger a graceful drain.
    /// Leave off when embedding (tests, benches).
    pub handle_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7700".into(),
            spool: PathBuf::from("pom-spool"),
            threads: 0,
            max_jobs: 16,
            max_conns: 256,
            auth: None,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            retain_count: 0,
            retain_age: None,
            faults: faults::Faults::disabled(),
            handle_signals: false,
        }
    }
}

/// What the daemon had done by the time it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs known to the spool at shutdown.
    pub jobs: usize,
    /// … of which complete.
    pub done: usize,
    /// … of which still incomplete (auto-resume on next start).
    pub running: usize,
    /// … of which cancelled.
    pub cancelled: usize,
    /// … of which failed.
    pub failed: usize,
    /// Durable result rows across all jobs (including prior sessions).
    pub rows_written: usize,
}

/// Releases one admission-control slot (and the active-connections
/// gauge) on drop — on every handler exit path, including panics.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        if pom_obs::enabled() {
            metrics::metrics().conns_active.sub(1);
        }
    }
}

/// A running daemon. Dropping it without calling [`Server::stop`] or
/// [`Server::join`] detaches the threads (they stop at process exit).
pub struct Server {
    manager: Arc<JobManager>,
    addr: SocketAddr,
    stop_flag: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    handle_signals: bool,
}

impl Server {
    /// Open the spool (recovering jobs), bind the listener, and spawn the
    /// worker pool + accept loop. Returns as soon as the daemon is
    /// serving; recovered incomplete jobs are already being executed.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        // The daemon always runs instrumented — `/metrics` is part of its
        // API. Enabled before the spool scan so recovery counters record.
        pom_obs::set_enabled(true);
        let manager = JobManager::open(&cfg)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        if cfg.handle_signals {
            signal::install();
        }

        let threads = if cfg.threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.threads
        };
        let workers: Vec<JoinHandle<()>> = (0..threads)
            .map(|i| {
                let manager = manager.clone();
                thread::Builder::new()
                    .name(format!("pom-serve-worker-{i}"))
                    .spawn(move || manager.worker_loop())
            })
            .collect::<io::Result<_>>()?;

        // A blocking accept adds zero latency per connection; shutdown
        // wakes it with a throwaway connection to our own port (see
        // `Server::stop`) instead of making the loop poll a flag.
        let stop_flag = Arc::new(AtomicBool::new(false));
        let accept = {
            let ctx = api::ConnCtx {
                manager: manager.clone(),
                stopping: stop_flag.clone(),
                read_timeout: cfg.read_timeout,
                write_timeout: cfg.write_timeout,
            };
            let stop_flag = stop_flag.clone();
            let max_conns = cfg.max_conns;
            let active = Arc::new(AtomicUsize::new(0));
            thread::Builder::new()
                .name("pom-serve-accept".into())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((mut stream, _peer)) => {
                            if stop_flag.load(Ordering::SeqCst) {
                                return;
                            }
                            // Admission control happens HERE, before a
                            // handler thread exists: past the bound, an
                            // attacker's connection costs one counter read
                            // and one fixed 503 write on this thread.
                            if max_conns > 0 && active.load(Ordering::SeqCst) >= max_conns {
                                if pom_obs::enabled() {
                                    metrics::metrics().conns_rejected.inc();
                                }
                                let _ = http::respond_busy(
                                    &mut stream,
                                    1,
                                    &format!(
                                        "connection limit reached (max-conns={max_conns}); retry shortly"
                                    ),
                                );
                                continue;
                            }
                            active.fetch_add(1, Ordering::SeqCst);
                            if pom_obs::enabled() {
                                metrics::metrics().conns_active.add(1);
                            }
                            let ctx = ctx.clone();
                            let slot = ConnSlot(active.clone());
                            // Detached: connection lifetime is bounded by
                            // the request (streams exit on the stop flag).
                            let spawned = thread::Builder::new()
                                .name("pom-serve-conn".into())
                                .spawn(move || {
                                    // The guard releases the slot on every
                                    // exit path, including handler panics.
                                    let _slot = slot;
                                    api::handle_connection(stream, &ctx);
                                });
                            // On spawn failure (EAGAIN under load) the
                            // closure is dropped unrun, which still drops
                            // the guard and releases the slot.
                            let _ = spawned;
                        }
                        Err(_) => {
                            if stop_flag.load(Ordering::SeqCst) {
                                return;
                            }
                            // Transient accept failure (EMFILE, aborted
                            // handshake): back off briefly, keep serving.
                            thread::sleep(ACCEPT_POLL);
                        }
                    }
                })?
        };

        Ok(Server {
            manager,
            addr,
            stop_flag,
            accept: Some(accept),
            workers,
            handle_signals: cfg.handle_signals,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared job manager (for embedding: tests, benches, the CLI).
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.manager
    }

    /// True once `POST /shutdown` or a termination signal has been seen.
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop_flag.load(Ordering::SeqCst)
            || (self.handle_signals && signal::termination_requested())
    }

    /// Stop the daemon. [`StopMode::Drain`] finishes and flushes every
    /// in-flight point before returning; [`StopMode::Abort`] discards
    /// in-flight results, leaving the spool exactly as a kill would.
    pub fn stop(mut self, mode: StopMode) -> ServeSummary {
        // Workers first: an Abort must take effect immediately, not after
        // the accept thread has been torn down.
        self.manager.request_stop(mode);
        self.stop_flag.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the blocking accept with a throwaway connection; it
            // sees the stop flag and returns.
            let _ = std::net::TcpStream::connect(self.addr);
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let (jobs, done, running, cancelled, failed, rows_written) = self.manager.totals();
        ServeSummary {
            jobs,
            done,
            running,
            cancelled,
            failed,
            rows_written,
        }
    }

    /// Block until a shutdown request or termination signal arrives, then
    /// drain gracefully.
    pub fn join(self) -> ServeSummary {
        while !self.stop_requested() {
            thread::sleep(ACCEPT_POLL);
        }
        self.stop(StopMode::Drain)
    }
}
