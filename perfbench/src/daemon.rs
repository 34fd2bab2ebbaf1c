//! `daemon_mixed`: an embedded `pom serve` daemon (two workers, fresh
//! spool) driven over real TCP by two clients at once. A writer POSTs
//! small seeded campaigns (1–16 points, n ≤ 16) and follows
//! `rows?follow=1` until the stream ends; a reader GETs `/jobs/{id}`,
//! `/jobs` and `/jobs/{id}/rows` of finished jobs. Accept, parse, spec
//! hash, spool create, scheduling, delivery under the manager lock and
//! the follow-stream wake dominate; reads next to writes expose the lock.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pom_core::SimWorkspace;
use pom_serve::{JobManager, ServeConfig, Server, StopMode};
use pom_sweep::{run_point_ws, Campaign, CampaignSpec};

use crate::trace::{aggregate, Tracer};
use crate::util::{self, Clock, Rng, SetupTicker, WorkDir};
use crate::{E2e, Layers, Traced};

const WORKERS: usize = 2;
/// Terminal jobs the daemon keeps; bounds `GET /jobs` so read cost does
/// not grow with the length of the run.
const RETAIN: usize = 64;

const SALT_OPS: u64 = 31;
const SALT_WARM: u64 = 32;

/// The job spec of writer operation `op`: 1–16 points, n ≤ 16.
pub fn spec_text(seed: u64, salt: u64, op: u64) -> String {
    let mut rng = Rng::for_op(seed, salt, op);
    let sigmas: Vec<String> = (0..rng.int(1, 16))
        .map(|_| format!("{}", rng.real(0.5, 4.0)))
        .collect();
    format!(
        "[campaign]\nname = \"perf-job-{op}\"\nseed = {}\n\
         observables = [\"final_r\", \"mean_abs_gap\"]\n\
         [model]\nn = {}\npotential = \"desync\"\ncoupling = {}\n\
         [topology]\nkind = \"chain\"\n\
         [init]\nkind = \"spread\"\namplitude = {}\n\
         [sim]\nt_end = {}\nsamples = 20\n\
         [[axes]]\nkey = \"model.sigma\"\nvalues = [{}]\n",
        rng.seed(),
        rng.int(4, 16),
        rng.real(2.0, 6.0),
        rng.real(0.1, 0.3),
        rng.real(3.0, 8.0),
        sigmas.join(", "),
    )
}

fn config(spool: std::path::PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        spool,
        threads: WORKERS,
        max_jobs: 64,
        retain_count: RETAIN,
        ..ServeConfig::default()
    }
}

// --- A minimal HTTP/1.1 client ------------------------------------------------------

struct Resp {
    status: u16,
    /// The daemon's `X-Pom-Elapsed-Us` header.
    elapsed_us: Option<u64>,
    body: Vec<u8>,
    /// When the first result row of a row stream arrived.
    first_row: Option<Instant>,
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    Ok(stream)
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Send one request and read the whole response, decoding a chunked
/// body as it arrives (so a follow stream's first row is timed when it
/// lands, not when the stream ends).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Resp> {
    let mut stream = send(addr, method, path, body)?;
    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let mut resp = Resp {
        status: 0,
        elapsed_us: None,
        body: Vec::new(),
        first_row: None,
    };
    let mut header_end = None;
    let mut chunked = false;
    let mut pos = 0;
    loop {
        let n = stream.read(&mut buf)?;
        raw.extend_from_slice(&buf[..n]);
        if header_end.is_none() {
            if let Some(end) = find(&raw, b"\r\n\r\n", 0) {
                let head = String::from_utf8_lossy(&raw[..end]).to_string();
                let mut lines = head.lines();
                resp.status = lines
                    .next()
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                for line in lines {
                    let lower = line.to_ascii_lowercase();
                    if let Some(v) = lower.strip_prefix("x-pom-elapsed-us:") {
                        resp.elapsed_us = v.trim().parse().ok();
                    }
                    if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                        chunked = true;
                    }
                }
                header_end = Some(end + 4);
                pos = end + 4;
            }
        }
        if header_end.is_some() && chunked {
            // Decode every complete chunk received so far.
            while let Some(eol) = find(&raw, b"\r\n", pos) {
                let size_text = String::from_utf8_lossy(&raw[pos..eol]).to_string();
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .map_err(|_| io::Error::other("bad chunk size"))?;
                if size == 0 {
                    return Ok(resp);
                }
                if raw.len() < eol + 2 + size + 2 {
                    break;
                }
                resp.body.extend_from_slice(&raw[eol + 2..eol + 2 + size]);
                pos = eol + 2 + size + 2;
                if resp.first_row.is_none() && find(&resp.body, b"\"point\"", 0).is_some() {
                    resp.first_row = Some(Instant::now());
                }
            }
        }
        if n == 0 {
            break;
        }
    }
    let Some(start) = header_end else {
        return Err(io::Error::other(
            "connection closed before a response header",
        ));
    };
    if chunked {
        return Err(io::Error::other("row stream ended without its terminator"));
    }
    resp.body = raw[start..].to_vec();
    Ok(resp)
}

fn job_id(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"job\":\"")? + 7;
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_string())
}

// --- Writer and reader ------------------------------------------------------------------

/// Run `f` inside a span when tracing; otherwise just run it.
fn span<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    trace: u64,
    parent: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tr {
        Some(tr) => tr.span(name, trace, parent, f),
        None => f(0),
    }
}

struct Job {
    id: String,
    /// Fraction of the run at which the job was submitted.
    at: f64,
    submit: Duration,
    first_row: Option<Duration>,
    done: Duration,
    rows: u64,
    body_hash: u64,
    ok: bool,
}

/// Submit one campaign and follow its rows to the end of the stream.
fn one_job(
    addr: SocketAddr,
    text: &str,
    at: f64,
    tr: Option<&Tracer>,
    trace: u64,
) -> io::Result<Job> {
    let t0 = Instant::now();
    span(tr, "serve.job", trace, 0, |jid| {
        let created = span(tr, "serve.submit", trace, jid, |sid| {
            let created = request(addr, "POST", "/jobs", text)?;
            if let (Some(tr), Some(us)) = (tr, created.elapsed_us) {
                tr.record("serve.server_elapsed", trace, sid, us * 1000, 1);
            }
            io::Result::Ok(created)
        })?;
        let submit = t0.elapsed();
        let Some(id) = job_id(&created.body).filter(|_| created.status == 201) else {
            return Ok(Job {
                id: String::new(),
                at,
                submit,
                first_row: None,
                done: t0.elapsed(),
                rows: 0,
                body_hash: 0,
                ok: false,
            });
        };
        let rows = span(tr, "serve.stream", trace, jid, |_| {
            request(addr, "GET", &format!("/jobs/{id}/rows?follow=1"), "")
        })?;
        let done = t0.elapsed();
        let text = String::from_utf8_lossy(&rows.body);
        let n_rows = text.lines().filter(|l| l.contains("\"point\"")).count() as u64;
        let errors = text.lines().any(|l| l.contains("\"error\""));
        Ok(Job {
            id,
            at,
            submit,
            first_row: rows.first_row.map(|t| t - t0),
            done,
            rows: n_rows,
            body_hash: util::fnv(&rows.body),
            ok: rows.status == 200 && !errors && n_rows > 0,
        })
    })
}

struct Reads {
    status_s: Vec<f64>,
    rows_s: Vec<f64>,
    refused: u64,
}

/// Trace ids of reader requests live above the writer's job ids.
const READ_TRACE_BASE: u64 = 1 << 40;

/// GET the status, the job list and the rows of recently finished jobs
/// until `stop` is set.
fn reader(
    addr: SocketAddr,
    recent: &Mutex<Vec<String>>,
    stop: &AtomicBool,
    tr: Option<&Tracer>,
) -> io::Result<Reads> {
    let mut reads = Reads {
        status_s: Vec::with_capacity(1 << 15),
        rows_s: Vec::with_capacity(1 << 15),
        refused: 0,
    };
    let mut k = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let id = {
            let ids = recent.lock().expect("recent jobs lock");
            ids.get(k % ids.len().max(1)).cloned()
        };
        let Some(id) = id else {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        };
        let (path, name) = match k % 3 {
            0 => (format!("/jobs/{id}"), "serve.status"),
            1 => ("/jobs".to_string(), "serve.status"),
            _ => (format!("/jobs/{id}/rows"), "serve.rows_read"),
        };
        let t0 = Instant::now();
        let resp = span(tr, name, READ_TRACE_BASE + k as u64, 0, |_| {
            request(addr, "GET", &path, "")
        })?;
        let secs = t0.elapsed().as_secs_f64();
        match (resp.status, name) {
            (200, "serve.rows_read") => reads.rows_s.push(secs),
            (200, _) => reads.status_s.push(secs),
            _ => reads.refused += 1,
        }
        k += 1;
    }
    Ok(reads)
}

/// Writer and reader against one daemon for `seconds`; the writer calls
/// `per_job` after every job, outside its timings. Returns the jobs, the
/// reads, and the bytes of the result buffers holding them.
fn drive(
    addr: SocketAddr,
    seed: u64,
    salt: u64,
    seconds: f64,
    tr: Option<&Tracer>,
    mut per_job: impl FnMut(&Job, &str) -> io::Result<()> + Send,
) -> io::Result<(Vec<Job>, Reads, usize)> {
    let recent = Mutex::new(Vec::<String>::with_capacity(16));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| reader(addr, &recent, &stop, tr));
        let mut jobs = Vec::with_capacity(1 << 12);
        let clock = Clock::new(seconds);
        let mut op = 0u64;
        let result = (|| -> io::Result<()> {
            while clock.running() {
                let text = spec_text(seed, salt, op);
                let job = one_job(addr, &text, clock.fraction(), tr, op + 1)?;
                per_job(&job, &text)?;
                if job.ok {
                    let mut ids = recent.lock().expect("recent jobs lock");
                    if ids.len() == 8 {
                        ids.remove(0);
                    }
                    ids.push(job.id.clone());
                }
                jobs.push(job);
                op += 1;
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let reads = reads.join().expect("reader thread panicked");
        result?;
        let reads = reads?;
        let own = jobs.capacity() * std::mem::size_of::<Job>()
            + 8 * (reads.status_s.capacity() + reads.rows_s.capacity());
        Ok((jobs, reads, own))
    })
}

/// Program set-up: `Server::start` on an empty spool. Returns its
/// seconds; the daemon is stopped again outside the timing.
fn setup_once(work: &WorkDir, k: usize) -> io::Result<f64> {
    let t0 = Instant::now();
    let server = Server::start(config(work.path(&format!("setup-spool-{k}"))))?;
    let secs = t0.elapsed().as_secs_f64();
    server.stop(StopMode::Drain);
    Ok(secs)
}

pub fn run(seed: u64, seconds: f64) -> io::Result<E2e> {
    let work = WorkDir::new("daemon")?;
    let mut e = E2e::with_capacity(1 << 12);
    let server = Server::start(config(work.path("spool")))?;
    let addr = server.addr();
    let mut setup_s = Vec::with_capacity(64);
    let mut peak = 0;
    let outcome = (|| -> io::Result<(Vec<Job>, Reads, usize)> {
        drive(addr, seed, SALT_WARM, 0.3, None, |_, _| Ok(()))?;
        util::reset_peak_heap();
        let mut setups = SetupTicker::new(seconds);
        drive(addr, seed, SALT_OPS, seconds, None, |_, _| {
            if setups.due() {
                peak = peak.max(util::peak_heap());
                setup_s.push(setup_once(&work, setup_s.len())?);
                util::reset_peak_heap();
            }
            Ok(())
        })
    })();
    e.peak_heap = peak.max(util::peak_heap());
    e.setup_s = setup_s;
    let summary = server.stop(StopMode::Drain);
    pom_obs::set_enabled(false);
    let (jobs, reads, own) = outcome?;
    e.bookkeeping = own;

    for job in &jobs {
        let first = job.first_row.map(|f| f.as_secs_f64());
        e.op(
            job.at,
            job.done.as_secs_f64(),
            job.rows,
            first,
            job.body_hash,
        );
        e.attempted += 1;
        e.failed += u64::from(!job.ok);
    }
    let reads_total = (reads.status_s.len() + reads.rows_s.len()) as u64;
    e.attempted += reads_total + reads.refused;
    e.failed += reads.refused;
    e.failed += summary.failed as u64;

    // Check: each job's streamed rows are byte-identical to
    // `Campaign::run_jsonl_string` for the same spec.
    let checks = 40.min(jobs.len());
    for c in 0..checks {
        let i = c * jobs.len() / checks;
        let text = spec_text(seed, SALT_OPS, i as u64);
        let want = Campaign::from_str(&text)
            .and_then(|c| c.run_jsonl_string(WORKERS))
            .map_err(io::Error::other)?;
        e.attempted += 1;
        if util::fnv(want.as_bytes()) != jobs[i].body_hash {
            e.failed += 1;
            eprintln!(
                "daemon_mixed: job {} rows differ from the in-process campaign",
                jobs[i].id
            );
        }
    }
    let mut all_reads: Vec<f64> = reads
        .status_s
        .iter()
        .chain(&reads.rows_s)
        .copied()
        .collect();
    e.note("jobs", jobs.len());
    e.note("reads", all_reads.len());
    e.note(
        "read_ms_p50",
        format!("{:.4}", util::median(&mut all_reads) * 1e3),
    );
    e.note(
        "read_ms_p99",
        format!("{:.4}", util::percentile(&mut all_reads, 99.0) * 1e3),
    );
    e.note("checked_jobs", checks);
    Ok(e)
}

pub fn traced(seed: u64, seconds: f64, tr: &Tracer) -> io::Result<Traced> {
    let work = WorkDir::new("daemon-traced")?;
    let server = tr.span("serve.start", 0, 0, |_| {
        Server::start(config(work.path("spool")))
    })?;
    let addr = server.addr();
    // A manager with no workers draining it: `JobManager::submit` in
    // process prices submission without HTTP.
    let shadow: Arc<JobManager> = JobManager::open(&ServeConfig {
        max_jobs: usize::MAX / 2,
        ..config(work.path("shadow-spool"))
    })?;
    let mut queue_wait_us = Vec::new();
    let mut ws = SimWorkspace::new();
    let mut trace = 0u64;
    let outcome = drive(addr, seed, SALT_OPS, seconds, Some(tr), |job, text| {
        trace += 1;
        let spec = tr
            .span("sweep.parse", trace, 0, |_| CampaignSpec::parse(text))
            .map_err(io::Error::other)?;
        tr.span("serve.manager_submit", trace, 0, |_| shadow.submit(text))
            .map_err(|e| io::Error::other(e.to_string()))?;
        if let Some(first) = job.first_row {
            let t0 = Instant::now();
            std::hint::black_box(run_point_ws(&spec, 0, &mut ws));
            let exec = t0.elapsed().as_secs_f64();
            queue_wait_us.push((first.saturating_sub(job.submit).as_secs_f64() - exec) * 1e6);
        }
        Ok(())
    });
    server.stop(StopMode::Drain);
    pom_obs::set_enabled(false);
    let (jobs, reads, _) = outcome?;

    let mut e = E2e::with_capacity(1 << 12);
    for job in &jobs {
        e.op(
            job.at,
            job.done.as_secs_f64(),
            job.rows,
            None,
            job.body_hash,
        );
        e.attempted += 1;
        e.failed += u64::from(!job.ok);
    }
    let agg = aggregate(&tr.spans());
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    // Medians: submit times carry the disk's flush latency, whose tail
    // would dominate a mean.
    let med = |name: &str| util::median(&mut get(name).durs_us);
    let mut layers = Layers::new();
    layers.insert("sweep.parse_us", med("sweep.parse"));
    layers.insert("serve.submit_us", med("serve.submit"));
    layers.insert("serve.manager_submit_us", med("serve.manager_submit"));
    layers.insert(
        "serve.http_overhead_us",
        med("serve.submit") - med("serve.manager_submit"),
    );
    layers.insert("serve.server_elapsed_us", med("serve.server_elapsed"));
    layers.insert("serve.queue_wait_us", util::median(&mut queue_wait_us));
    layers.insert("serve.stream_us", med("serve.stream"));
    layers.insert(
        "serve.refused",
        (reads.refused + jobs.iter().filter(|j| !j.ok).count() as u64) as f64,
    );
    layers.insert("serve.status_us", med("serve.status"));
    layers.insert("serve.rows_read_us", med("serve.rows_read"));
    Ok(Traced { layers, e2e: e })
}
