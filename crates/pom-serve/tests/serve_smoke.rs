//! End-to-end daemon tests over real sockets: submit, poll, stream,
//! cancel, resume, backpressure, and request validation — the same
//! sequence the CI `serve-smoke` job runs.

mod common;

use std::fs;
use std::time::Duration;

use common::{json_num_field, json_str_field, request, submit, temp_spool, wait_state};
use pom_serve::{ServeConfig, Server, StopMode};
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

fn start(spool: &std::path::Path, threads: usize, max_jobs: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        spool: spool.into(),
        threads,
        max_jobs,
        ..ServeConfig::default()
    })
    .expect("server start")
}

#[test]
fn submit_poll_stream_roundtrip() {
    let spool = temp_spool("roundtrip");
    let server = start(&spool, 2, 16);
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\":true"));

    let body = spec("roundtrip", "[2.0, 4.0, 6.0, 8.0]", 5.0);
    let created = submit(addr, &body);
    assert_eq!(created.status, 201, "{}", created.body);
    let id = json_str_field(&created.body, "job").expect("job id");
    assert_eq!(id, "j1");
    assert_eq!(json_num_field(&created.body, "points"), Some(4));

    assert!(wait_state(addr, &id, "done", Duration::from_secs(120)));
    let listed = request(addr, "GET", "/jobs", None);
    assert_eq!(listed.status, 200);
    assert!(listed.body.starts_with('['), "{}", listed.body);
    assert!(listed.body.contains("\"job\":\"j1\""));

    // The streamed rows are bitwise identical to a direct CLI-style run
    // of the same spec.
    let rows = request(addr, "GET", &format!("/jobs/{id}/rows"), None);
    assert_eq!(rows.status, 200);
    let reference = Campaign::from_str(&body)
        .unwrap()
        .run_jsonl_string(1)
        .unwrap();
    assert_eq!(rows.body, reference);

    let summary = server.stop(StopMode::Drain);
    assert_eq!(summary.done, 1);
    assert_eq!(summary.rows_written, 4);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn concurrent_campaigns_cancel_one_stream_other_resume() {
    let spool = temp_spool("fair");
    let server = start(&spool, 2, 16);
    let addr = server.addr();

    // A is 4× the size of B; round-robin point scheduling means B cannot
    // be starved behind it.
    // ~10 ms per point (debug build): long enough that the cancel below
    // reliably lands mid-campaign.
    let spec_a = spec(
        "big",
        "[1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5]",
        1500.0,
    );
    let spec_b = spec("small", "[2.0, 4.0, 6.0, 8.0]", 1500.0);
    let a = json_str_field(&submit(addr, &spec_a).body, "job").unwrap();
    let b = json_str_field(&submit(addr, &spec_b).body, "job").unwrap();

    // Cancel the big one mid-campaign.
    let cancelled = request(addr, "POST", &format!("/jobs/{a}/cancel"), None);
    assert_eq!(cancelled.status, 200);
    assert_eq!(
        json_str_field(&cancelled.body, "state").as_deref(),
        Some("cancelled")
    );

    // The small one runs to completion; its stream is the full campaign.
    assert!(wait_state(addr, &b, "done", Duration::from_secs(120)));
    let rows_b = request(addr, "GET", &format!("/jobs/{b}/rows"), None);
    let reference_b = Campaign::from_str(&spec_b)
        .unwrap()
        .run_jsonl_string(1)
        .unwrap();
    assert_eq!(rows_b.body, reference_b);

    // The cancelled one kept a valid partial file and resumes to the
    // bitwise-identical full result.
    let status_a = request(addr, "GET", &format!("/jobs/{a}"), None);
    let written = json_num_field(&status_a.body, "written").unwrap();
    assert!(written < 16, "cancel landed after completion: {written}");
    let resumed = request(addr, "POST", &format!("/jobs/{a}/resume"), None);
    assert_eq!(resumed.status, 200, "{}", resumed.body);
    assert!(wait_state(addr, &a, "done", Duration::from_secs(240)));
    let rows_a = request(addr, "GET", &format!("/jobs/{a}/rows"), None);
    let reference_a = Campaign::from_str(&spec_a)
        .unwrap()
        .run_jsonl_string(1)
        .unwrap();
    assert_eq!(rows_a.body, reference_a);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn submission_backpressure_answers_429() {
    let spool = temp_spool("backpressure");
    let server = start(&spool, 1, 1);
    let addr = server.addr();

    // ~10 ms per point: the occupant must still be running when the
    // second submission arrives.
    let slow = spec(
        "occupant",
        "[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]",
        1500.0,
    );
    let first = submit(addr, &slow);
    assert_eq!(first.status, 201, "{}", first.body);
    let id = json_str_field(&first.body, "job").unwrap();

    let second = submit(addr, &spec("rejected", "[2.0]", 5.0));
    assert_eq!(second.status, 429, "{}", second.body);
    assert!(second.body.contains("max-jobs=1"), "{}", second.body);

    // Cancelling the occupant frees the slot.
    request(addr, "POST", &format!("/jobs/{id}/cancel"), None);
    let third = submit(addr, &spec("accepted", "[2.0]", 5.0));
    assert_eq!(third.status, 201, "{}", third.body);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn panicking_point_is_an_error_row_and_the_worker_survives() {
    let spool = temp_spool("panic");
    // One worker: if the panic killed it, nothing after would ever run.
    let server = start(&spool, 1, 16);
    let addr = server.addr();

    // The middle point's 2^62-sample trajectory overflows `Vec` capacity.
    let panicky = r#"
[campaign]
name = "panicky"
seed = 3
observables = ["wave_speed"]
[model]
n = 8
potential = "tanh"
[topology]
kind = "ring"
[inject]
rank = 0
[sim]
t_end = 10.0
samples = 40
[[axes]]
key = "sim.samples"
values = [40, 4611686018427387904, 40]
"#;
    let bad = json_str_field(&submit(addr, panicky).body, "job").unwrap();
    let healthy = json_str_field(&submit(addr, &spec("after", "[4.0]", 5.0)).body, "job").unwrap();
    assert!(wait_state(addr, &bad, "done", Duration::from_secs(120)));
    assert!(wait_state(addr, &healthy, "done", Duration::from_secs(120)));

    let status = request(addr, "GET", &format!("/jobs/{bad}"), None);
    assert_eq!(
        json_num_field(&status.body, "errors"),
        Some(1),
        "{}",
        status.body
    );
    assert_eq!(
        json_num_field(&status.body, "written"),
        Some(3),
        "{}",
        status.body
    );
    // Same bytes as the CLI executor, error row included.
    let rows = request(addr, "GET", &format!("/jobs/{bad}/rows"), None);
    let reference = Campaign::from_str(panicky)
        .unwrap()
        .run_jsonl_string(1)
        .unwrap();
    assert_eq!(rows.body, reference);
    assert!(rows.body.contains("capacity overflow"), "{}", rows.body);

    let metrics = request(addr, "GET", "/metrics", None);
    let errors = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("pom_sweep_point_errors_total "))
        .and_then(|v| v.parse::<u64>().ok());
    assert!(errors.is_some_and(|n| n >= 1), "{}", metrics.body);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn invalid_requests_are_rejected_like_the_cli() {
    let spool = temp_spool("badreq");
    let server = start(&spool, 1, 16);
    let addr = server.addr();

    // Spec validation is the CLI's parser verbatim.
    let bad = submit(addr, "[campaign\nname=");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("invalid campaign spec"), "{}", bad.body);

    assert_eq!(request(addr, "GET", "/jobs/j999", None).status, 404);
    assert_eq!(request(addr, "GET", "/nope", None).status, 404);
    assert_eq!(request(addr, "DELETE", "/jobs", None).status, 405);

    // Query strings go through the shared typed-argument layer: the same
    // boolean grammar (and the same rejections) as CLI `key=value`s.
    let body = spec("q", "[2.0]", 2.0);
    let id = json_str_field(&submit(addr, &body).body, "job").unwrap();
    let bad_follow = request(addr, "GET", &format!("/jobs/{id}/rows?follow=maybe"), None);
    assert_eq!(bad_follow.status, 400);
    assert!(bad_follow.body.contains("boolean"), "{}", bad_follow.body);
    let unknown = request(addr, "GET", &format!("/jobs/{id}/rows?fllow=1"), None);
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("fllow"), "{}", unknown.body);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn follow_stream_tails_until_done() {
    let spool = temp_spool("follow");
    let server = start(&spool, 2, 16);
    let addr = server.addr();

    let body = spec("tailed", "[2.0, 4.0, 6.0]", 8.0);
    let id = json_str_field(&submit(addr, &body).body, "job").unwrap();

    // follow=1 blocks until the job quiesces and must deliver every row
    // without polling the status endpoint at all.
    let rows = request(addr, "GET", &format!("/jobs/{id}/rows?follow=1"), None);
    assert_eq!(rows.status, 200);
    let reference = Campaign::from_str(&body)
        .unwrap()
        .run_jsonl_string(1)
        .unwrap();
    assert_eq!(rows.body, reference);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn metrics_exposition_stats_and_elapsed_header() {
    let spool = temp_spool("metrics");
    let server = start(&spool, 2, 16);
    let addr = server.addr();

    let body = spec("metered", "[2.0, 4.0, 6.0]", 5.0);
    let created = submit(addr, &body);
    assert_eq!(created.status, 201, "{}", created.body);
    let id = json_str_field(&created.body, "job").unwrap();
    assert!(wait_state(addr, &id, "done", Duration::from_secs(120)));

    // Every route answers with the server-side handling time.
    let health = request(addr, "GET", "/healthz", None);
    let elapsed: u64 = health
        .header("X-Pom-Elapsed-Us")
        .expect("elapsed header on plain responses")
        .parse()
        .expect("integer µs");
    assert!(elapsed < 60_000_000, "implausible elapsed {elapsed}");
    let rows = request(addr, "GET", &format!("/jobs/{id}/rows"), None);
    assert!(
        rows.header("X-Pom-Elapsed-Us").is_some(),
        "elapsed header on chunked streams"
    );

    // /metrics: Prometheus text covering every instrumented layer that
    // ran — serve routes, job lifecycle, sweep executor, solver counters.
    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    for family in [
        "pom_serve_requests_total",
        "pom_serve_request_duration_us",
        "pom_serve_jobs_submitted_total",
        "pom_serve_jobs_completed_total",
        "pom_serve_rows_written_total",
        "pom_sweep_points_total",
        "pom_sweep_point_duration_us",
        "pom_ode_steps_total",
        "pom_ode_rhs_evals_total",
        "pom_core_simulations_total",
    ] {
        assert!(
            metrics.body.contains(&format!("# TYPE {family} ")),
            "family {family} missing from:\n{}",
            metrics.body
        );
    }
    // Route series use patterns, never raw ids.
    assert!(
        metrics.body.contains("route=\"/jobs/{id}\""),
        "{}",
        metrics.body
    );
    assert!(!metrics.body.contains(&format!("/jobs/{id}\"")));
    // Spot-check shape: every sample line is `name{labels} value`.
    for line in metrics.body.lines().filter(|l| !l.starts_with('#')) {
        let (name_labels, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<i64>().is_ok(), "non-integer value: {line}");
        let name = name_labels.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
    }

    // /jobs/{id}/stats: the per-job latency summary counts exactly this
    // job's executed points.
    let stats = request(addr, "GET", &format!("/jobs/{id}/stats"), None);
    assert_eq!(stats.status, 200, "{}", stats.body);
    assert_eq!(
        json_str_field(&stats.body, "state").as_deref(),
        Some("done")
    );
    assert_eq!(
        json_num_field(&stats.body, "count"),
        Some(3),
        "{}",
        stats.body
    );
    assert!(stats.body.contains("\"p50_us\":"), "{}", stats.body);
    assert!(stats.body.contains("\"p99_us\":"), "{}", stats.body);
    assert_eq!(request(addr, "GET", "/jobs/j999/stats", None).status, 404);

    server.stop(StopMode::Drain);
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn shutdown_route_requests_graceful_stop() {
    let spool = temp_spool("shutdown");
    let server = start(&spool, 1, 16);
    let addr = server.addr();

    let id = json_str_field(&submit(addr, &spec("drained", "[4.0]", 4.0)).body, "job").unwrap();
    let resp = request(addr, "POST", "/shutdown", None);
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("stopping"));

    // join() drains: the submitted point must be durable afterwards.
    let summary = server.join();
    assert_eq!(summary.jobs, 1);
    let file = fs::read_to_string(spool.join(&id).join("results.jsonl")).unwrap();
    assert!(file.lines().count() >= 1, "{file}");
    let _ = fs::remove_dir_all(&spool);
}

#[test]
fn drain_after_concurrent_clients_leaves_every_row_durable() {
    let spool = temp_spool("drained-rows");
    let server = start(&spool, 0, 64);
    let addr = server.addr();

    // Each client submits one-point jobs back to back and follows each
    // one's rows to the end, as a load generator would.
    let (clients, jobs_per_client) = (4, 3);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                for j in 0..jobs_per_client {
                    let created = submit(addr, &spec(&format!("drain-{c}-{j}"), "[4.0]", 5.0));
                    assert_eq!(created.status, 201, "{}", created.body);
                    let id = json_str_field(&created.body, "job").unwrap();
                    let rows = request(addr, "GET", &format!("/jobs/{id}/rows?follow=1"), None);
                    assert!(rows.body.contains("\"point\""), "{}", rows.body);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // The drained stop accounts for every submitted job as done, each
    // with its one row written.
    let submitted = clients * jobs_per_client;
    let summary = server.stop(StopMode::Drain);
    assert_eq!(summary.done, submitted, "{summary:?}");
    assert_eq!(summary.rows_written, submitted, "{summary:?}");
    let _ = fs::remove_dir_all(&spool);
}
