//! Solver metrics, flushed once per integration.
//!
//! The step loops are the hottest code in the workspace, so they are
//! never instrumented directly: each integration entry point counts
//! locally (or reuses the stats it already tracks) and calls
//! [`flush_integration`] once at the end — one `enabled()` check and a
//! handful of atomic adds per whole integration, nothing per step.

use std::sync::{Arc, OnceLock};

use pom_obs::Counter;

struct OdeMetrics {
    integrations: Arc<Counter>,
    steps: Arc<Counter>,
    steps_rejected: Arc<Counter>,
    rhs_evals: Arc<Counter>,
    observer_callbacks: Arc<Counter>,
}

fn metrics() -> &'static OdeMetrics {
    static M: OnceLock<OdeMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pom_obs::registry();
        OdeMetrics {
            integrations: r.counter(
                "pom_ode_integrations_total",
                "Completed integrations (any solver, any entry point).",
            ),
            steps: r.counter("pom_ode_steps_total", "Accepted integration steps."),
            steps_rejected: r.counter(
                "pom_ode_steps_rejected_total",
                "Steps rejected by adaptive error control.",
            ),
            rhs_evals: r.counter(
                "pom_ode_rhs_evals_total",
                "Right-hand-side evaluations across all solvers.",
            ),
            observer_callbacks: r.counter(
                "pom_ode_observer_callbacks_total",
                "StepObserver callbacks delivered by the step loops (observed and recording runs).",
            ),
        }
    })
}

/// Record one finished integration's totals; no-op when instrumentation
/// is off.
pub(crate) fn flush_integration(steps: u64, rejected: u64, rhs_evals: u64, observer_calls: u64) {
    if !pom_obs::enabled() {
        return;
    }
    let m = metrics();
    m.integrations.inc();
    m.steps.add(steps);
    m.steps_rejected.add(rejected);
    m.rhs_evals.add(rhs_evals);
    m.observer_callbacks.add(observer_calls);
}
