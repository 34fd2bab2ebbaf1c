//! HTTP route dispatch: maps requests onto [`JobManager`] operations.
//!
//! | Method & path            | Meaning                                           |
//! |--------------------------|---------------------------------------------------|
//! | `GET  /healthz`          | liveness probe                                    |
//! | `GET  /metrics`          | Prometheus text exposition of the global registry |
//! | `GET  /schema`           | the command registry as JSON (same document as    |
//! |                          | `pom help format=json`)                           |
//! | `POST /jobs`             | submit a campaign spec (TOML/JSON body) → `201`;  |
//! |                          | `?priority=high|normal|low&deadline_ms=N` extras  |
//! | `GET  /jobs`             | status of every job                               |
//! | `GET  /jobs/{id}`        | status of one job                                 |
//! | `GET  /jobs/{id}/rows`   | chunked JSONL result stream (`?follow=1` tails)   |
//! | `GET  /jobs/{id}/stats`  | per-job point-latency summary (count, p50/90/99)  |
//! | `POST /jobs/{id}/cancel` | stop scheduling the job, keep partial results     |
//! | `POST /jobs/{id}/resume` | re-queue a cancelled job's missing points         |
//! | `POST /shutdown`         | graceful daemon stop (drain in-flight, flush)     |
//!
//! Backpressure and admission control are explicit, with one status per
//! bound: `401` for a missing/unknown token when `auth=` is on, `408`
//! when a client holds a socket without completing a request inside the
//! read deadline, `429` for the active-job bound and per-token quotas
//! (the body names the offending bound), `503` + `Retry-After` when the
//! connection limit itself is hit (sent from the accept thread before
//! this module ever runs). Query strings are validated against the same
//! command-registry tables the CLI parses with
//! ([`pom_sweep::registry::defs`]): unknown parameters, duplicates and
//! type errors produce the same messages (offending key plus its doc
//! line) on both front ends, so `follow=yes` and `follow=2` succeed and
//! fail identically everywhere — the `schema_parity` differential suite
//! pins this.
//!
//! Every response carries an `X-Pom-Elapsed-Us` header (server-side
//! handling time; time-to-first-byte for streams), and every handled
//! request lands in the `pom_serve_requests_total` /
//! `pom_serve_request_duration_us` series labeled by method and route
//! *pattern* (`/jobs/{id}`, bounded cardinality).

use std::fs;
use std::io::{self, Read as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pom_obs::Level;
use pom_sweep::registry::{defs, toolkit, Parsed, RouteSpec};
use pom_sweep::write_json_str;

use crate::http::{self, Request, RequestError};
use crate::job::{JobManager, JobOpError, Priority, StopMode, SubmitError, SubmitOptions};
use crate::metrics::{metrics, record_request};

/// Upper bound on one wait for new rows while tailing a stream; the
/// manager's progress condvar wakes the stream much sooner when a row
/// actually lands. The bound only caps how late the stream notices
/// daemon shutdown.
const FOLLOW_WAIT: Duration = Duration::from_millis(100);

/// Everything a connection handler needs, cloned per accepted socket.
#[derive(Clone)]
pub(crate) struct ConnCtx {
    /// The shared job manager.
    pub manager: Arc<JobManager>,
    /// Set by `POST /shutdown` / signals; streams exit on it.
    pub stopping: Arc<AtomicBool>,
    /// Socket read deadline (slowloris bound); zero disables.
    pub read_timeout: Duration,
    /// Socket write deadline (slow-consumer bound); zero disables.
    pub write_timeout: Duration,
}

/// Render `{"error": msg}`.
pub(crate) fn error_json(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len() + 12);
    out.push_str("{\"error\":");
    write_json_str(msg, &mut out);
    out.push('}');
    out
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Serve one connection: read a request, dispatch it, answer, close.
/// Transport errors are swallowed — the client is gone either way —
/// except read-deadline expiry, which answers `408` (best effort) so a
/// slowloris client at least learns why it was dropped.
pub(crate) fn handle_connection(mut stream: TcpStream, ctx: &ConnCtx) {
    let started = Instant::now();
    // The accepted socket can inherit the listener's non-blocking mode.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let timeout = |d: Duration| (d > Duration::ZERO).then_some(d);
    let _ = stream.set_read_timeout(timeout(ctx.read_timeout));
    let _ = stream.set_write_timeout(timeout(ctx.write_timeout));
    let _ = stream.set_nodelay(true);
    let req = match http::read_request(&mut stream) {
        Ok(req) => req,
        Err(RequestError::Closed) => return,
        Err(RequestError::Io(e)) => {
            if is_timeout(&e) {
                if pom_obs::enabled() {
                    metrics().read_timeouts.inc();
                }
                pom_obs::event(Level::Warn, "read_timeout", &[]);
                let _ = http::respond_json(
                    &mut stream,
                    408,
                    &error_json("request not completed within the read deadline"),
                    started,
                );
                record_request("other", "read_timeout", elapsed_us(started));
            }
            return;
        }
        Err(RequestError::Bad(status, msg)) => {
            let _ = http::respond_json(&mut stream, status, &error_json(&msg), started);
            record_request("other", "bad_request", elapsed_us(started));
            return;
        }
    };
    let _ = route(&mut stream, &req, ctx, started);
}

fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

/// The method label: known verbs pass through, anything else collapses
/// to `other` (the method string is client-controlled; labels must stay
/// bounded).
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "PUT" => "PUT",
        "DELETE" => "DELETE",
        "HEAD" => "HEAD",
        _ => "other",
    }
}

fn route(stream: &mut TcpStream, req: &Request, ctx: &ConnCtx, started: Instant) -> io::Result<()> {
    let manager = &ctx.manager;
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (pattern, res) = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (
            "/healthz",
            http::respond_json(stream, 200, "{\"ok\":true}", started),
        ),

        ("GET", ["metrics"]) => (
            "/metrics",
            http::respond(
                stream,
                200,
                "text/plain; version=0.0.4",
                &pom_obs::registry().render(),
                started,
            ),
        ),

        ("GET", ["schema"]) => (
            "/schema",
            // The registry document, byte-identical to `pom help
            // format=json` (both render `Registry::schema_json`).
            http::respond_json(stream, 200, &toolkit().schema_json(), started),
        ),

        ("POST", ["jobs"]) => ("/jobs", submit(stream, req, manager, started)),

        ("GET", ["jobs"]) => ("/jobs", {
            let mut out = String::from("[");
            for (i, status) in manager.list().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&status.to_json());
            }
            out.push(']');
            http::respond_json(stream, 200, &out, started)
        }),

        ("GET", ["jobs", id]) => (
            "/jobs/{id}",
            match manager.status(id) {
                Some(status) => http::respond_json(stream, 200, &status.to_json(), started),
                None => not_found(stream, id, started),
            },
        ),

        ("GET", ["jobs", id, "rows"]) => (
            "/jobs/{id}/rows",
            stream_rows(stream, req, ctx, id, started),
        ),

        ("GET", ["jobs", id, "stats"]) => (
            "/jobs/{id}/stats",
            match parse_query(req, &defs::ROUTE_STATS) {
                Err(msg) => http::respond_json(stream, 400, &error_json(&msg), started),
                Ok(_) => match manager.job_stats(id) {
                    Some(json) => http::respond_json(stream, 200, &json, started),
                    None => not_found(stream, id, started),
                },
            },
        ),

        ("POST", ["jobs", id, "cancel"]) => (
            "/jobs/{id}/cancel",
            job_op(stream, id, manager.cancel(id), started),
        ),
        ("POST", ["jobs", id, "resume"]) => (
            "/jobs/{id}/resume",
            job_op(stream, id, manager.resume(id), started),
        ),

        ("POST", ["shutdown"]) => ("/shutdown", {
            ctx.stopping.store(true, Ordering::SeqCst);
            // Requesting the drain here (not just flagging it) wakes the
            // progress condvar, so every parked follow stream observes the
            // stop immediately and closes with its chunked terminator —
            // clients see a complete response, not a severed socket.
            manager.request_stop(StopMode::Drain);
            http::respond_json(stream, 200, "{\"stopping\":true}", started)
        }),

        (_, ["healthz" | "jobs" | "shutdown" | "metrics" | "schema", ..]) => (
            "method_not_allowed",
            http::respond_json(
                stream,
                405,
                &error_json(&format!("{} not allowed on {}", req.method, req.path)),
                started,
            ),
        ),
        _ => (
            "not_found",
            http::respond_json(
                stream,
                404,
                &error_json(&format!("no route for {} {}", req.method, req.path)),
                started,
            ),
        ),
    };
    record_request(method_label(&req.method), pattern, elapsed_us(started));
    res
}

fn not_found(stream: &mut TcpStream, id: &str, started: Instant) -> io::Result<()> {
    http::respond_json(
        stream,
        404,
        &error_json(&format!("no such job `{id}`")),
        started,
    )
}

/// Validate a request's query string against a route's registry spec.
/// The error string is `RouteSpec::explain`'s rendering — identical to
/// what the CLI prints for the same mistake on the same key.
fn parse_query(req: &Request, route: &RouteSpec) -> Result<Parsed, String> {
    route
        .parse_pairs(req.query.iter().map(|(k, v)| (k, v)))
        .map_err(|e| route.explain(&e))
}

fn submit(
    stream: &mut TcpStream,
    req: &Request,
    manager: &Arc<JobManager>,
    started: Instant,
) -> io::Result<()> {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return http::respond_json(
            stream,
            400,
            &error_json("spec body is not valid UTF-8"),
            started,
        );
    };
    // Submit-time extras ride on the query string, never the spec body:
    // the body must stay byte-identical to the CLI's spec (its hash is
    // the resume identity).
    let args = match parse_query(req, &defs::ROUTE_SUBMIT) {
        Ok(args) => args,
        Err(msg) => return http::respond_json(stream, 400, &error_json(&msg), started),
    };
    let priority = Priority::from_name(args.str("priority")).unwrap_or_default();
    let deadline_ms = args.opt_u64("deadline_ms");
    let opts = SubmitOptions {
        token: req.token().map(str::to_string),
        priority,
        deadline_ms,
    };
    match manager.submit_with(body, opts) {
        Ok(status) => http::respond_json(stream, 201, &status.to_json(), started),
        Err(e @ SubmitError::Spec(_)) => {
            http::respond_json(stream, 400, &error_json(&e.to_string()), started)
        }
        Err(e @ SubmitError::Unauthorized(_)) => {
            http::respond_json(stream, 401, &error_json(&e.to_string()), started)
        }
        Err(e @ (SubmitError::QueueFull { .. } | SubmitError::Quota { .. })) => {
            http::respond_json(stream, 429, &error_json(&e.to_string()), started)
        }
        Err(e @ SubmitError::Io(_)) => {
            http::respond_json(stream, 500, &error_json(&e.to_string()), started)
        }
    }
}

fn job_op(
    stream: &mut TcpStream,
    id: &str,
    result: Result<crate::job::JobStatus, JobOpError>,
    started: Instant,
) -> io::Result<()> {
    match result {
        Ok(status) => http::respond_json(stream, 200, &status.to_json(), started),
        Err(JobOpError::NotFound) => not_found(stream, id, started),
        Err(e @ JobOpError::Conflict(_)) => {
            http::respond_json(stream, 409, &error_json(&e.to_string()), started)
        }
        Err(e @ JobOpError::Io(_)) => {
            http::respond_json(stream, 500, &error_json(&e.to_string()), started)
        }
    }
}

/// Decrements the follow-stream gauge however the stream exits.
struct FollowGuard;

impl FollowGuard {
    fn new() -> Option<FollowGuard> {
        if !pom_obs::enabled() {
            return None;
        }
        metrics().follow_streams.add(1);
        Some(FollowGuard)
    }
}

impl Drop for FollowGuard {
    fn drop(&mut self) {
        metrics().follow_streams.sub(1);
    }
}

/// Stream a job's `results.jsonl` as chunked JSONL. With `follow=1` the
/// stream tails the file until the job quiesces (done / cancelled with no
/// in-flight points) or the daemon stops; rows flushed by the workers
/// appear with at most one poll interval of latency. A consumer that
/// stalls past the write deadline costs the daemon exactly one dropped
/// stream — the job itself never notices.
fn stream_rows(
    stream: &mut TcpStream,
    req: &Request,
    ctx: &ConnCtx,
    id: &str,
    started: Instant,
) -> io::Result<()> {
    let manager = &ctx.manager;
    // Same registry table as the CLI: identical accept/reject.
    let args = match parse_query(req, &defs::ROUTE_ROWS) {
        Ok(args) => args,
        Err(msg) => return http::respond_json(stream, 400, &error_json(&msg), started),
    };
    let follow = args.bool("follow");

    let Some(path) = manager.results_path(id) else {
        return not_found(stream, id, started);
    };
    let mut file = match fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => return http::respond_json(stream, 500, &error_json(&e.to_string()), started),
    };

    let _follow_guard = follow.then(FollowGuard::new);
    http::begin_chunked(stream, 200, "application/x-ndjson", started)?;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // Observe quiescence BEFORE the read: any row durable before this
        // observation is visible to the read below, so no row can slip
        // between "saw quiescent" and "saw EOF".
        let done = manager.quiescent(id).unwrap_or(true) || ctx.stopping.load(Ordering::Relaxed);
        let n = file.read(&mut buf)?;
        if n > 0 {
            if let Err(e) = http::write_chunk(stream, &buf[..n]) {
                if is_timeout(&e) {
                    // Slow consumer: drop only this stream. The worker
                    // side keeps writing rows to the spool regardless.
                    if pom_obs::enabled() {
                        metrics().stream_write_drops.inc();
                    }
                    pom_obs::event(Level::Warn, "stream_write_drop", &[("job", id)]);
                }
                return Err(e);
            }
            continue;
        }
        if done || !follow {
            break;
        }
        manager.wait_progress(FOLLOW_WAIT);
    }
    http::end_chunked(stream)
}
