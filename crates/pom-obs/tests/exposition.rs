//! Golden test for the Prometheus text exposition format.
//!
//! Uses a private `Registry` (not the process-global one) so the exact
//! output is hermetic under parallel tests.

use pom_obs::Registry;

/// Build a registry exercising every render path: counter with labeled
/// series and escaping, gauge, histogram with unlabeled and labeled
/// series (the latter checks `le` splicing into an existing label set).
fn golden_registry() -> Registry {
    let reg = Registry::new();

    let jobs = reg.counter_with(
        "app_requests_total",
        "Requests by route.\nSecond \\ line",
        &[("route", "/jobs")],
    );
    jobs.add(3);
    let weird = reg.counter_with(
        "app_requests_total",
        "Requests by route.\nSecond \\ line",
        &[("route", "we\"ird\\pa\nth")],
    );
    weird.inc();

    let depth = reg.gauge("app_queue_depth", "Jobs waiting.");
    depth.set(-2);

    let lat = reg.histogram("app_latency_us", "Latency.");
    for v in [0u64, 1, 4, 5] {
        lat.observe(v);
    }
    let lat_jobs = reg.histogram_with("app_latency_us", "Latency.", &[("route", "/jobs")]);
    lat_jobs.observe(3);

    reg
}

#[test]
fn exposition_golden_text() {
    // Families sort lexicographically; within a family, the unlabeled
    // series ("" key) sorts before labeled ones. Histograms emit a
    // cumulative `_bucket` series — interior buckets whose cumulative
    // count is unchanged are skipped; bucket 0 and +Inf always appear.
    let expected = "\
# HELP app_latency_us Latency.
# TYPE app_latency_us histogram
app_latency_us_bucket{le=\"1\"} 2
app_latency_us_bucket{le=\"4\"} 3
app_latency_us_bucket{le=\"8\"} 4
app_latency_us_bucket{le=\"+Inf\"} 4
app_latency_us_sum 10
app_latency_us_count 4
app_latency_us_bucket{route=\"/jobs\",le=\"1\"} 0
app_latency_us_bucket{route=\"/jobs\",le=\"4\"} 1
app_latency_us_bucket{route=\"/jobs\",le=\"+Inf\"} 1
app_latency_us_sum{route=\"/jobs\"} 3
app_latency_us_count{route=\"/jobs\"} 1
# HELP app_queue_depth Jobs waiting.
# TYPE app_queue_depth gauge
app_queue_depth -2
# HELP app_requests_total Requests by route.\\nSecond \\\\ line
# TYPE app_requests_total counter
app_requests_total{route=\"/jobs\"} 3
app_requests_total{route=\"we\\\"ird\\\\pa\\nth\"} 1
";
    assert_eq!(golden_registry().render(), expected);
}

#[test]
fn exposition_is_parseable() {
    // Every non-comment line must be `name{labels}? <integer>`, and each
    // histogram's cumulative bucket series must be monotone and end at
    // `_count`.
    let text = golden_registry().render();
    let mut bucket_cum: Option<(String, u64)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "bad comment: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        let v: i64 = value.parse().expect("integer sample value");

        if let Some(base) = name.strip_suffix("_bucket") {
            let cum = v as u64;
            if let Some((prev_base, prev)) = &bucket_cum {
                if prev_base == base {
                    assert!(cum >= *prev, "non-monotone buckets: {line}");
                }
            }
            bucket_cum = Some((base.to_string(), cum));
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some((prev_base, prev)) = bucket_cum.take() {
                assert_eq!(prev_base, base);
                assert_eq!(v as u64, prev, "+Inf bucket must equal _count");
            }
        }
    }
}
