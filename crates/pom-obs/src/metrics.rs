//! Atomic metric primitives and the Prometheus-rendering registry.
//!
//! Three metric kinds, all lock-free on the update path:
//!
//! * [`Counter`] — monotonically increasing `u64`.
//! * [`Gauge`] — signed instantaneous value (queue depths, stream counts).
//! * [`Histogram`] — log2-bucketed distribution of `u64` samples
//!   (microsecond latencies by convention, `_us` name suffix) with
//!   p50/p90/p99 extraction and exact count/sum/min/max.
//!
//! Metrics live in a [`Registry`]: register once (idempotent per
//! `(name, labels)`), hold the returned `Arc`, update forever. The
//! process-global registry behind [`registry`] is what `GET /metrics`
//! renders; tests build private `Registry::new()` instances so golden
//! output is hermetic.
//!
//! ## Naming conventions
//!
//! `pom_<crate>_<what>[_<unit>][_total]`: counters end in `_total`,
//! microsecond histograms in `_us`. Labels are for low-cardinality
//! dimensions only (route, method) — never per-job or per-point ids.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets. Bucket `i < N_BUCKETS − 1` holds samples
/// in `(2^(i−1), 2^i]` (bucket 0: `[0, 1]`); the last bucket is the
/// `+Inf` overflow. 2^38 µs ≈ 76 h, far past any latency this stack can
/// produce.
pub(crate) const N_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A fresh, unregistered counter (registries hand out shared ones).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Updates are three relaxed atomic RMWs plus two min/max RMWs — cheap
/// enough for per-request and per-point paths (per-step inner loops
/// should still aggregate locally and flush totals once per run).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index for sample `v`: 0 for `v ≤ 1`, else
/// `ceil(log2 v)`, capped at the overflow bucket.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros() as usize).min(N_BUCKETS - 1)
    }
}

/// The inclusive upper bound of finite bucket `i` (`2^i`); the last
/// bucket has no finite bound.
pub(crate) fn bucket_upper(i: usize) -> Option<u64> {
    (i < N_BUCKETS - 1).then(|| 1u64 << i)
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` when empty.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean sample, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let c = self.count();
        (c > 0).then(|| self.sum() as f64 / c as f64)
    }

    /// Approximate quantile `q ∈ [0, 1]` (0.5 = p50), linearly
    /// interpolated inside the owning log2 bucket and clamped to the
    /// observed min/max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0);
        let mut cum = 0u64;
        for i in 0..N_BUCKETS {
            let c = self.buckets[i].load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                // The overflow bucket has no finite bound; its samples are
                // all ≤ the tracked max.
                let upper = bucket_upper(i).unwrap_or_else(|| self.max.load(Ordering::Relaxed));
                let within = (rank - cum as f64) / c as f64;
                let est = lower as f64 + (upper.saturating_sub(lower)) as f64 * within;
                let (lo, hi) = (
                    self.min.load(Ordering::Relaxed) as f64,
                    self.max.load(Ordering::Relaxed) as f64,
                );
                return Some(est.clamp(lo, hi));
            }
            cum += c;
        }
        Some(self.max.load(Ordering::Relaxed) as f64)
    }

    /// Cumulative count of samples ≤ the upper bound of bucket `i`.
    fn cumulative(&self, i: usize) -> u64 {
        (0..=i)
            .map(|k| self.buckets[k].load(Ordering::Relaxed))
            .sum()
    }

    /// Render the standard latency summary as a JSON object fragment
    /// (`"count":…,"p50_us":…`), for per-job stats endpoints.
    pub fn summary_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let q = |p: f64| self.quantile(p).unwrap_or(0.0);
        let _ = write!(
            out,
            "\"count\":{},\"sum_us\":{},\"min_us\":{},\"max_us\":{},\"mean_us\":{:.1},\
             \"p50_us\":{:.1},\"p90_us\":{:.1},\"p99_us\":{:.1}",
            self.count(),
            self.sum(),
            self.min().unwrap_or(0),
            self.max().unwrap_or(0),
            self.mean().unwrap_or(0.0),
            q(0.50),
            q(0.90),
            q(0.99),
        );
        out
    }
}

/// Metric kind, for `# TYPE` lines and registration consistency checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: Kind,
    /// Series keyed by their canonical (sorted) label rendering.
    series: BTreeMap<String, Handle>,
}

/// A collection of metric families rendered together.
///
/// Most code uses the process-global [`registry`]; tests construct their
/// own for hermetic golden output.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Escape a `# HELP` string: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Canonical label rendering: sorted by key, escaped, `{k="v",…}`; empty
/// label sets render as the empty string.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Splice `extra` (e.g. `le="4"`) into a rendered label set.
fn with_extra_label(rendered: &str, extra: &str) -> String {
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        // "...}" → "...,extra}"
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: Kind) -> Handle {
        let mut families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` re-registered as {} (was {})",
            kind.as_str(),
            family.kind.as_str()
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Handle::Counter(Arc::new(Counter::new())),
                Kind::Gauge => Handle::Gauge(Arc::new(Gauge::new())),
                Kind::Histogram => Handle::Histogram(Arc::new(Histogram::new())),
            })
            .clone()
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a counter with a static label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, Kind::Counter) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a gauge with a static label set.
    pub(crate) fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, Kind::Gauge) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Register (or fetch) a histogram with a static label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, labels, Kind::Histogram) {
            Handle::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Current value of a counter series, `None` when the family or the
    /// exact label set was never registered (or is not a counter).
    /// Lookup-only — it never creates the series, so asserting on an
    /// untouched counter reads as "no such series", not `Some(0)`.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        match families.get(name)?.series.get(&label_key(labels))? {
            Handle::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Render every family in Prometheus text exposition format
    /// (families and series in lexicographic order, so output is stable).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::with_capacity(4096);
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, handle) in &family.series {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Handle::Histogram(h) => {
                        // Skip interior all-zero buckets but keep the
                        // first, any occupied, and +Inf so the cumulative
                        // series stays parseable and compact.
                        let mut last_emitted = None::<u64>;
                        for i in 0..N_BUCKETS - 1 {
                            let cum = h.cumulative(i);
                            if i > 0 && Some(cum) == last_emitted {
                                continue;
                            }
                            let le = format!("le=\"{}\"", bucket_upper(i).unwrap());
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                with_extra_label(labels, &le)
                            );
                            last_emitted = Some(cum);
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            with_extra_label(labels, "le=\"+Inf\""),
                            h.count()
                        );
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

/// The process-global registry — what `GET /metrics` serves.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_value_looks_up_without_creating() {
        let r = Registry::new();
        let c = r.counter_with("requests_total", "Requests.", &[("route", "/jobs")]);
        c.add(3);
        assert_eq!(
            r.counter_value("requests_total", &[("route", "/jobs")]),
            Some(3)
        );
        // Label order is canonicalized, so lookup order doesn't matter.
        let c2 = r.counter_with("multi", "m", &[("a", "1"), ("b", "2")]);
        c2.inc();
        assert_eq!(r.counter_value("multi", &[("b", "2"), ("a", "1")]), Some(1));
        // Unknown family / label set reads as absent, not zero — and the
        // probe must not have created the series.
        assert_eq!(
            r.counter_value("requests_total", &[("route", "/none")]),
            None
        );
        assert_eq!(r.counter_value("nope_total", &[]), None);
        assert!(!r.render().contains("/none"));
        // Kind mismatch reads as absent too.
        r.gauge("a_gauge", "g").add(5);
        assert_eq!(r.counter_value("a_gauge", &[]), None);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        // Bucket 0 is [0, 1]; bucket i > 0 covers (2^(i−1), 2^i].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(9), 4);
        for i in 1..N_BUCKETS - 1 {
            let upper = 1u64 << i;
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(upper + 1), i + 1, "first past bucket {i}");
        }
        // Everything past the last finite bound lands in the overflow.
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper(N_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_counts_sum_min_max() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [3u64, 100, 7, 1, 250_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 250_111);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(250_000));
        assert!((h.mean().unwrap() - 50_022.2).abs() < 0.01);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        // 90 fast samples at 10 µs, 10 slow ones at 10 ms.
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(10_000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // p50 must sit in the 10 µs bucket (8, 16], p99 in (8192, 16384].
        assert!((8.0..=16.0).contains(&p50), "p50 = {p50}");
        assert!((8192.0..=16384.0).contains(&p99), "p99 = {p99}");
        // Quantiles never escape the observed range.
        assert!(h.quantile(0.0).unwrap() >= 10.0);
        assert!(h.quantile(1.0).unwrap() <= 10_000.0);
    }

    #[test]
    fn quantile_of_uniform_stream_is_monotone() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let qs: Vec<f64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| h.quantile(q).unwrap())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        // Log2 buckets bound the relative error by 2×: p50 of 1..=1000
        // (exact 500) must land in (256, 512].
        assert!((256.0..=512.0).contains(&qs[2]), "p50 = {}", qs[2]);
    }

    #[test]
    fn overflow_bucket_quantile_uses_observed_max() {
        let h = Histogram::new();
        let big = 1u64 << 50; // far past the last finite bound
        h.observe(big);
        h.observe(big);
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= big as f64 && p99 >= (1u64 << (N_BUCKETS - 2)) as f64);
    }

    #[test]
    fn concurrent_counter_increments_do_not_lose_updates() {
        let reg = Registry::new();
        let c = reg.counter("test_concurrent_total", "Concurrency test.");
        let h = reg.histogram("test_concurrent_us", "Concurrency test.");
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = &c;
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(t * 1000 + i % 7);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        // Sum is exact under concurrency: per-thread sums are known.
        let expect: u64 = (0..8u64)
            .map(|t| (0..10_000u64).map(|i| t * 1000 + i % 7).sum::<u64>())
            .sum();
        assert_eq!(h.sum(), expect);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let reg = Registry::new();
        let a = reg.counter("dup_total", "First.");
        let b = reg.counter("dup_total", "Second (help ignored).");
        a.add(3);
        assert_eq!(b.get(), 3, "same series must share one cell");
        let with = reg.counter_with("lab_total", "Labeled.", &[("route", "/jobs")]);
        let with2 = reg.counter_with("lab_total", "Labeled.", &[("route", "/jobs")]);
        with.inc();
        assert_eq!(with2.get(), 1);
        let other = reg.counter_with("lab_total", "Labeled.", &[("route", "/healthz")]);
        assert_eq!(other.get(), 0, "distinct labels are distinct series");
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("kind_clash", "As counter.");
        let _ = reg.gauge("kind_clash", "As gauge.");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(
            label_key(&[("path", "a\\b\"c\nd")]),
            "{path=\"a\\\\b\\\"c\\nd\"}"
        );
        // Keys sort canonically regardless of registration order.
        assert_eq!(label_key(&[("b", "2"), ("a", "1")]), "{a=\"1\",b=\"2\"}");
    }
}
