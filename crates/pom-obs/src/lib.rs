//! # pom-obs — workspace-wide observability
//!
//! The source paper models how performance dynamics (desync waves,
//! bottleneck evolution) propagate through a machine that can only be
//! *seen* through tracing and metrics; this crate gives the reproduction
//! stack the same kind of runtime introspection. It is deliberately
//! dependency-free (the build environment has no registry access): a
//! process-global metrics registry over `std::sync::atomic` and a leveled
//! structured-event logger emitting JSONL.
//!
//! ## Shape
//!
//! * Metrics — [`Counter`], [`Gauge`], log2-bucketed [`Histogram`]
//!   (p50/p90/p99 extraction), and the [`Registry`] that renders them in
//!   Prometheus text exposition format for `GET /metrics`.
//! * Logging — leveled structured events ([`event`]) written as one JSONL
//!   record per call, with `key=value` fields.
//!
//! ## The overhead contract
//!
//! Instrumentation is behind a runtime switch ([`set_enabled`], default
//! **off**). Hot paths check [`enabled`] — one relaxed atomic load — and
//! skip all clock reads and metric updates when it is off; per-step inner
//! loops are never instrumented directly (solvers count locally and flush
//! whole-integration totals once). `bench_steps only=obs` gates the
//! disabled-mode RK4 and sweep throughput at ≥ 0.98× an uninstrumented
//! replica (`BENCH_obs.json`); CI runs its `smoke=1` form, at 0.90.
//!
//! Event logging is filtered by an independent level switch
//! ([`set_log_level`], default [`Level::Warn`]) so warnings surface even
//! when metrics are off.
//!
//! ## Quick use
//!
//! ```
//! use pom_obs::Registry;
//!
//! let reg = Registry::new(); // or pom_obs::registry() for the global one
//! let requests = reg.counter("myapp_requests_total", "Requests served.");
//! let latency = reg.histogram("myapp_request_duration_us", "Request latency.");
//!
//! requests.inc();
//! latency.observe(250); // one request's latency in µs
//! assert_eq!(requests.get(), 1);
//! assert_eq!(latency.count(), 1);
//! let text = reg.render(); // Prometheus text exposition format
//! assert!(text.contains("# TYPE myapp_requests_total counter"));
//! ```

mod log;
mod metrics;

pub use crate::log::{event, set_log_level, Level};
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global instrumentation switch (default off). Call sites that would do
/// measurable work (clock reads, per-item updates) check [`enabled`]
/// first, so a disabled process pays a few relaxed loads and nothing
/// else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is on — one relaxed atomic load, the entire
/// disabled-path cost at a call site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
