//! Hostile-traffic hardening: admission control, token quotas, submit
//! deadlines, priority scheduling, slowloris/slow-consumer bounds, spool
//! GC, and the corrupt-stream recovery contract — each bound answers its
//! documented status code and bumps its metric.

mod common;

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{
    json_num_field, json_str_field, request, request_with, submit, temp_spool, wait_state,
};
use pom_serve::{JobState, ServeConfig, Server, StopMode, TokenBook};
use pom_sweep::Campaign;

/// A small campaign: `points` couplings × one run each.
fn spec(name: &str, values: &str, t_end: f64) -> String {
    format!(
        r#"
[campaign]
name = "{name}"
seed = 11
observables = ["final_r", "final_spread"]
[model]
n = 6
potential = "tanh"
[sim]
t_end = {t_end}
samples = 12
[[axes]]
key = "model.coupling"
values = {values}
"#
    )
}

/// ~10 ms per point in a debug build: long enough that cancels,
/// deadlines, and kills land mid-campaign.
fn slow_spec(name: &str) -> String {
    spec(
        name,
        "[1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5]",
        1500.0,
    )
}

fn start_with(spool: &std::path::Path, f: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        spool: spool.into(),
        threads: 1,
        max_jobs: 16,
        ..ServeConfig::default()
    };
    f(&mut cfg);
    Server::start(cfg).expect("server start")
}

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    pom_obs::registry().counter_value(name, labels).unwrap_or(0)
}

#[test]
fn connection_limit_answers_503_with_retry_after_before_thread_spawn() {
    let spool = temp_spool("conn-limit");
    let server = start_with(&spool, |c| {
        c.max_conns = 2;
        c.read_timeout = Duration::from_secs(30); // idle conns stay counted
    });
    let addr = server.addr();
    let rejected_before = counter("pom_serve_connections_rejected_total", &[]);

    // Two idle connections occupy every slot (their handlers block in the
    // request read)…
    let _idle1 = TcpStream::connect(addr).unwrap();
    let _idle2 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let both be accepted

    // …so the third is refused on the accept thread: a full 503 response
    // arrives without the client sending a single byte.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = String::new();
    refused.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("Retry-After: 1"), "{raw}");
    assert!(raw.contains("max-conns=2"), "{raw}");
    assert!(
        counter("pom_serve_connections_rejected_total", &[]) > rejected_before,
        "rejection not counted"
    );

    // Releasing a slot readmits clients.
    drop(_idle1);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn auth_rejects_missing_and_unknown_tokens_with_401() {
    let spool = temp_spool("auth-401");
    let book = TokenBook::parse("[tokens.alice]\nmax_active_jobs = 1\n").unwrap();
    let server = start_with(&spool, |c| c.auth = Some(book));
    let addr = server.addr();
    let failures_before = counter("pom_serve_auth_failures_total", &[]);

    let body = spec("auth", "[2.0]", 2.0);
    let missing = submit(addr, &body);
    assert_eq!(missing.status, 401, "{}", missing.body);
    assert!(missing.body.contains("missing token"), "{}", missing.body);

    let unknown = request_with(
        addr,
        "POST",
        "/jobs",
        Some(&body),
        &[("Authorization", "Bearer mallory")],
    );
    assert_eq!(unknown.status, 401, "{}", unknown.body);
    assert!(
        unknown.body.contains("unknown token `mallory`"),
        "{}",
        unknown.body
    );
    assert!(counter("pom_serve_auth_failures_total", &[]) >= failures_before + 2);

    // Both token spellings authenticate.
    let bearer = request_with(
        addr,
        "POST",
        "/jobs",
        Some(&body),
        &[("Authorization", "Bearer alice")],
    );
    assert_eq!(bearer.status, 201, "{}", bearer.body);
    assert!(wait_state(addr, "j1", "done", Duration::from_secs(120)));
    let plain = request_with(
        addr,
        "POST",
        "/jobs",
        Some(&body),
        &[("X-Pom-Token", "alice")],
    );
    assert_eq!(plain.status, 201, "{}", plain.body);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn quota_rejections_name_the_offending_bound() {
    let spool = temp_spool("quota-429");
    let book = TokenBook::parse(
        "[tokens.alice]\nmax_active_jobs = 1\n[tokens.carol]\nmax_total_points = 4\n",
    )
    .unwrap();
    let server = start_with(&spool, |c| c.auth = Some(book));
    let addr = server.addr();
    let auth = [("Authorization", "Bearer alice")];

    // alice: one running job fills max_active_jobs.
    let first = request_with(addr, "POST", "/jobs", Some(&slow_spec("occupant")), &auth);
    assert_eq!(first.status, 201, "{}", first.body);
    let id = json_str_field(&first.body, "job").unwrap();
    let second = request_with(addr, "POST", "/jobs", Some(&spec("q", "[2.0]", 2.0)), &auth);
    assert_eq!(second.status, 429, "{}", second.body);
    assert!(second.body.contains("max_active_jobs=1"), "{}", second.body);
    assert_eq!(
        counter(
            "pom_serve_quota_rejected_total",
            &[("bound", "max_active_jobs")]
        ),
        1
    );

    // carol: an 8-point submission cannot fit a 4-point budget, even with
    // nothing running.
    let eight = spec("points", "[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]", 2.0);
    let over = request_with(
        addr,
        "POST",
        "/jobs",
        Some(&eight),
        &[("X-Pom-Token", "carol")],
    );
    assert_eq!(over.status, 429, "{}", over.body);
    assert!(over.body.contains("max_total_points=4"), "{}", over.body);
    assert_eq!(
        counter(
            "pom_serve_quota_rejected_total",
            &[("bound", "max_total_points")]
        ),
        1
    );
    // The 429s surface on /metrics with the bound label.
    let metrics = request(addr, "GET", "/metrics", None);
    assert!(
        metrics
            .body
            .contains("pom_serve_quota_rejected_total{bound=\"max_total_points\"} 1"),
        "{}",
        metrics.body
    );

    // Quota is returned when the job stops running.
    request(addr, "POST", &format!("/jobs/{id}/cancel"), None);
    let third = request_with(
        addr,
        "POST",
        "/jobs",
        Some(&spec("q2", "[2.0]", 2.0)),
        &auth,
    );
    assert_eq!(third.status, 201, "{}", third.body);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn deadline_cancels_job_with_structured_reason_that_survives_restart() {
    let spool = temp_spool("deadline");
    let server = start_with(&spool, |_| {});
    let addr = server.addr();
    let cancelled_before = counter("pom_serve_jobs_deadline_cancelled_total", &[]);

    // A 5 ms deadline is past before the 16-point campaign can finish
    // in either build profile (a single point costs more than that in
    // debug, the full campaign far more in release), while the worker
    // still gets to claim — expiry is checked between point claims.
    let body = slow_spec("deadlined");
    let created = request(addr, "POST", "/jobs?deadline_ms=5", Some(&body));
    assert_eq!(created.status, 201, "{}", created.body);
    let id = json_str_field(&created.body, "job").unwrap();
    assert_eq!(json_num_field(&created.body, "deadline_ms"), Some(5));

    assert!(
        wait_state(addr, &id, "cancelled", Duration::from_secs(60)),
        "deadline never fired"
    );
    let status = request(addr, "GET", &format!("/jobs/{id}"), None);
    assert!(
        status.body.contains("deadline exceeded: deadline_ms=5"),
        "{}",
        status.body
    );
    let written = json_num_field(&status.body, "written").unwrap();
    assert!(written < 16, "deadline landed after completion: {written}");
    assert!(counter("pom_serve_jobs_deadline_cancelled_total", &[]) > cancelled_before);
    // The marker is structured JSON, not the legacy empty file.
    let marker = fs::read_to_string(spool.join(&id).join("cancelled")).unwrap();
    assert!(marker.contains("\"reason\":\"deadline\""), "{marker}");
    assert!(marker.contains("\"deadline_ms\":5"), "{marker}");
    server.stop(StopMode::Abort);

    // A restarted daemon recovers the job as cancelled-for-deadline, and
    // an explicit resume (which un-arms the spent deadline) completes it
    // bitwise identical to an uninterrupted run.
    let server = start_with(&spool, |_| {});
    let recovered = server.manager().status(&id).unwrap();
    assert_eq!(recovered.state, JobState::Cancelled);
    assert!(
        recovered
            .reason
            .as_deref()
            .is_some_and(|r| r.contains("deadline exceeded")),
        "{:?}",
        recovered.reason
    );
    let resumed = request(server.addr(), "POST", &format!("/jobs/{id}/resume"), None);
    assert_eq!(resumed.status, 200, "{}", resumed.body);
    assert!(server.manager().wait_done(&id, Duration::from_secs(240)));
    server.stop(StopMode::Drain);

    let reference = Campaign::from_str(&body)
        .unwrap()
        .run_jsonl_string(0)
        .unwrap();
    let final_file = fs::read_to_string(spool.join(&id).join("results.jsonl")).unwrap();
    assert_eq!(final_file, reference);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn high_priority_jobs_finish_ahead_of_low() {
    let spool = temp_spool("priority");
    let server = start_with(&spool, |_| {}); // 1 worker: dispatch is sequential
    let addr = server.addr();

    // A long normal-priority job occupies the daemon, then a low and a
    // high job of equal size race: high holds 4 of every 7 dispatch
    // slots, low 1, so high must complete first — deterministically,
    // since one worker claims points in pattern order.
    let blocker = request(addr, "POST", "/jobs", Some(&slow_spec("blocker")));
    assert_eq!(blocker.status, 201, "{}", blocker.body);
    let eight = "[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]";
    let low = request(
        addr,
        "POST",
        "/jobs?priority=low",
        Some(&spec("bg", eight, 1500.0)),
    );
    let high = request(
        addr,
        "POST",
        "/jobs?priority=high",
        Some(&spec("fg", eight, 1500.0)),
    );
    assert_eq!((low.status, high.status), (201, 201));
    let low_id = json_str_field(&low.body, "job").unwrap();
    let high_id = json_str_field(&high.body, "job").unwrap();
    assert!(high.body.contains("\"priority\":\"high\""), "{}", high.body);

    assert!(
        server
            .manager()
            .wait_done(&high_id, Duration::from_secs(240)),
        "high-priority job did not finish"
    );
    let low_written = server.manager().status(&low_id).unwrap().written;
    assert!(
        low_written < 8,
        "low-priority job ({low_written}/8 rows) was not deprioritized"
    );

    // Bad priority names are rejected like any other bad argument.
    let bad = request(
        addr,
        "POST",
        "/jobs?priority=urgent",
        Some(&spec("x", "[2.0]", 2.0)),
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("high, normal, low"), "{}", bad.body);

    server.stop(StopMode::Abort);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn slowloris_connection_answers_408_at_the_read_deadline() {
    let spool = temp_spool("slowloris");
    let server = start_with(&spool, |c| c.read_timeout = Duration::from_millis(200));
    let addr = server.addr();
    let timeouts_before = counter("pom_serve_read_timeouts_total", &[]);

    // Send half a request and stall. The daemon must not hold the socket
    // past the read deadline.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw); // best-effort 408 before the drop
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    assert!(
        counter("pom_serve_read_timeouts_total", &[]) > timeouts_before,
        "timeout not counted"
    );
    // The daemon is fully healthy afterwards.
    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

/// A request line that is not UTF-8 is a malformed request: it answers
/// 400 and is counted, instead of closing the socket with no response.
#[test]
fn non_utf8_request_line_answers_400() {
    let spool = temp_spool("non_utf8");
    let server = start_with(&spool, |_| {});
    let addr = server.addr();
    let labels = [("method", "other"), ("route", "bad_request")];
    let bad_before = counter("pom_serve_requests_total", &labels);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /jobs\xff HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("not UTF-8"), "{raw}");
    assert!(
        counter("pom_serve_requests_total", &labels) > bad_before,
        "bad request not counted"
    );

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn dropped_follow_consumer_never_hurts_the_job() {
    let spool = temp_spool("slow-consumer");
    let server = start_with(&spool, |c| c.write_timeout = Duration::from_millis(250));
    let addr = server.addr();

    let body = slow_spec("streamed");
    let id = json_str_field(&request(addr, "POST", "/jobs", Some(&body)).body, "job").unwrap();

    // A consumer that reads one chunk of the follow stream and vanishes
    // costs the daemon exactly that stream.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /jobs/{id}/rows?follow=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut buf = [0u8; 512];
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "no stream bytes before the drop");
        // Dropped here: the socket closes with the stream mid-flight.
    }

    // The job still runs to completion, bitwise identical.
    assert!(server.manager().wait_done(&id, Duration::from_secs(240)));
    server.stop(StopMode::Drain);
    let reference = Campaign::from_str(&body)
        .unwrap()
        .run_jsonl_string(0)
        .unwrap();
    let final_file = fs::read_to_string(spool.join(&id).join("results.jsonl")).unwrap();
    assert_eq!(final_file, reference);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn shutdown_closes_follow_streams_with_their_chunked_terminator() {
    let spool = temp_spool("drain-follow");
    let server = start_with(&spool, |_| {});
    let addr = server.addr();

    let id = json_str_field(
        &request(addr, "POST", "/jobs", Some(&slow_spec("tailed"))).body,
        "job",
    )
    .unwrap();
    // Tail in a background thread; `request` panics if the chunked body
    // is truncated, so a clean join proves the terminator arrived.
    let follow = {
        let path = format!("/jobs/{id}/rows?follow=1");
        std::thread::spawn(move || request(addr, "GET", &path, None))
    };
    std::thread::sleep(Duration::from_millis(150)); // let the tail attach

    let resp = request(addr, "POST", "/shutdown", None);
    assert_eq!(resp.status, 200);
    let streamed = follow.join().expect("follow stream must end cleanly");
    assert_eq!(streamed.status, 200);
    // Whatever prefix was streamed is whole-line JSONL.
    assert!(
        streamed.body.is_empty() || streamed.body.ends_with('\n'),
        "drain cut a row in half: {:?}",
        &streamed.body[streamed.body.len().saturating_sub(80)..]
    );
    server.join();
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn retain_policy_gcs_done_jobs_but_never_cancelled_and_never_reuses_ids() {
    let spool = temp_spool("spool-gc");
    let server = start_with(&spool, |c| c.retain_count = 2);
    let addr = server.addr();
    let gc_before = counter("pom_serve_spool_gc_removed_total", &[]);

    // A cancelled job sits in the spool the whole time; count-based GC
    // must never touch it.
    let held = json_str_field(
        &request(addr, "POST", "/jobs", Some(&slow_spec("held"))).body,
        "job",
    )
    .unwrap();
    request(addr, "POST", &format!("/jobs/{held}/cancel"), None);

    let mut done_ids = Vec::new();
    for i in 0..4 {
        let body = spec(&format!("gc{i}"), "[2.0]", 2.0);
        let id = json_str_field(&request(addr, "POST", "/jobs", Some(&body)).body, "job").unwrap();
        assert!(wait_state(addr, &id, "done", Duration::from_secs(120)));
        done_ids.push(id);
    }
    // Completion-triggered GC kept the newest two done jobs…
    std::thread::sleep(Duration::from_millis(50));
    for old in &done_ids[..2] {
        assert!(!spool.join(old).exists(), "{old} should be GC'd");
        assert_eq!(
            request(addr, "GET", &format!("/jobs/{old}"), None).status,
            404
        );
    }
    for new in &done_ids[2..] {
        assert!(spool.join(new).exists(), "{new} should be retained");
    }
    // …and the cancelled job untouched.
    assert!(spool.join(&held).exists(), "cancelled job must survive GC");
    assert!(counter("pom_serve_spool_gc_removed_total", &[]) >= gc_before + 2);
    server.stop(StopMode::Drain);

    // Restart: ids keep moving forward even though GC removed the newest
    // directories' predecessors (the `seq` file pins the high-water mark).
    let last_seq: u64 = done_ids.last().unwrap()[1..].parse().unwrap();
    let server = start_with(&spool, |c| c.retain_count = 2);
    let next = json_str_field(
        &request(
            server.addr(),
            "POST",
            "/jobs",
            Some(&spec("next", "[2.0]", 2.0)),
        )
        .body,
        "job",
    )
    .unwrap();
    let next_seq: u64 = next[1..].parse().unwrap();
    assert!(next_seq > last_seq, "job id reused after GC: {next}");
    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn age_based_gc_sweeps_expired_terminal_jobs_at_startup() {
    let spool = temp_spool("spool-gc-age");
    // Session 1: no GC; leave one done and one cancelled job behind.
    let server = start_with(&spool, |_| {});
    let addr = server.addr();
    let done = json_str_field(
        &request(addr, "POST", "/jobs", Some(&spec("old", "[2.0]", 2.0))).body,
        "job",
    )
    .unwrap();
    assert!(wait_state(addr, &done, "done", Duration::from_secs(120)));
    let cancelled = json_str_field(
        &request(addr, "POST", "/jobs", Some(&slow_spec("expired"))).body,
        "job",
    )
    .unwrap();
    request(addr, "POST", &format!("/jobs/{cancelled}/cancel"), None);
    server.stop(StopMode::Drain);

    // Session 2: everything terminal is now older than the (tiny) age
    // bound — the startup sweep removes done AND expired-cancelled jobs.
    std::thread::sleep(Duration::from_millis(100));
    let server = start_with(&spool, |c| c.retain_age = Some(Duration::from_millis(50)));
    assert!(!spool.join(&done).exists(), "done job past retain-age kept");
    assert!(
        !spool.join(&cancelled).exists(),
        "cancelled job past retain-age kept"
    );
    assert!(server.manager().status(&done).is_none());
    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn torn_final_row_is_truncated_but_mid_file_corruption_refuses() {
    let spool = temp_spool("corruption");
    let body = spec("torn", "[2.0, 4.0, 6.0]", 4.0);
    let reference = Campaign::from_str(&body)
        .unwrap()
        .run_jsonl_string(0)
        .unwrap();
    let lines: Vec<&str> = reference.lines().collect(); // header + 3 rows

    // Job A: crash tore the final row mid-write — recovery truncates it
    // and re-runs only the missing points.
    let dir_a = spool.join("j1");
    fs::create_dir_all(&dir_a).unwrap();
    fs::write(dir_a.join("spec"), &body).unwrap();
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    fs::write(dir_a.join("results.jsonl"), torn).unwrap();

    // Job B: a row in the MIDDLE is mangled but the file continues — that
    // cannot be torn-write damage, so recovery must refuse, naming the
    // corrupt byte offset, rather than silently truncate good rows.
    let dir_b = spool.join("j2");
    fs::create_dir_all(&dir_b).unwrap();
    fs::write(dir_b.join("spec"), &body).unwrap();
    let corrupt_at = lines[0].len() + 1; // offset of the mangled row
    let corrupt = format!("{}\nGARBAGE-NOT-JSON\n{}\n", lines[0], lines[2]);
    fs::write(dir_b.join("results.jsonl"), corrupt).unwrap();

    let server = start_with(&spool, |_| {});
    assert!(
        server.manager().wait_done("j1", Duration::from_secs(120)),
        "torn job did not resume"
    );
    let fixed = fs::read_to_string(dir_a.join("results.jsonl")).unwrap();
    assert_eq!(fixed, reference, "torn-row recovery is not bitwise clean");

    let status_b = server.manager().status("j2").unwrap();
    assert_eq!(status_b.state, JobState::Failed);
    let reason = status_b.reason.unwrap();
    assert!(
        reason.contains(&format!("byte offset {corrupt_at}")),
        "reason must name the corrupt offset: {reason}"
    );
    assert!(
        reason.contains("cannot be torn-write truncation"),
        "{reason}"
    );
    // Failed jobs refuse resume with the same explanation.
    let resume = request(server.addr(), "POST", "/jobs/j2/resume", None);
    assert_eq!(resume.status, 409, "{}", resume.body);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}
