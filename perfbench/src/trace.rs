//! Spans around the benchmark's calls into each layer.
//!
//! Every span has a name, start, end, parent and trace id; all spans of
//! one job, campaign or integration share the trace id. Spans stay in
//! memory and are written out when the run ends. Calls made many
//! thousands of times inside one integration (RHS evaluations, probe
//! steps) are timed by the [`TimedOde`], [`TimedDde`] and [`TimedObs`]
//! wrappers and recorded as one *rolled-up* child span per integration:
//! its duration is the sum of the calls and `calls` says how many there
//! were. A span's self time is its duration minus the summed durations of
//! its children, rolled-up children included; the spans whose self time
//! is reported (a point, an integration) run their children one after
//! another, so the sum is the time the children cover.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pom_ode::{DdeSystem, OdeSystem, PhaseHistory, StepObserver};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this span stands for (1 unless rolled up).
    pub calls: u64,
    /// Work units the call did (steps for integrations, bytes for
    /// writes), when the layer has a natural count.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// children.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.span_work(name, trace, parent, |id| (f(id), 0)).0
    }

    /// [`Tracer::span`] whose closure also reports a work count.
    pub fn span_work<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce(u64) -> (R, u64),
    ) -> (R, u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (r, work) = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            end_ns,
            calls: 1,
            work,
        });
        (r, work)
    }

    /// Record a span whose duration was measured elsewhere (a server-side
    /// figure, or a sum of rolled-up calls) as a child of `parent`.
    pub fn record(&self, name: &'static str, trace: u64, parent: u64, dur_ns: u64, calls: u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
            calls,
            work: 0,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"work\":{}}}",
                s.name, s.trace, s.id, s.parent, s.start_ns, s.end_ns, s.calls, s.work
            )?;
        }
        out.flush()
    }
}

/// Per-name aggregates over a span set.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Durations of each span, in µs.
    pub durs_us: Vec<f64>,
    /// Self times of each span, in µs.
    pub self_us: Vec<f64>,
    pub calls: u64,
    pub work: u64,
    pub total_us: f64,
}

impl NameStats {
    /// Mean time per call (rolled-up spans count each call).
    pub fn per_call_us(&self) -> f64 {
        self.total_us / self.calls.max(1) as f64
    }
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let dur = s.dur_ns();
        let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        e.durs_us.push(dur as f64 / 1e3);
        e.self_us.push(own as f64 / 1e3);
        e.calls += s.calls;
        e.work += s.work;
        e.total_us += dur as f64 / 1e3;
    }
    out
}

// --- Wrappers for calls below the integrator ------------------------------------

/// Times every `OdeSystem::eval` of the wrapped system.
pub struct TimedOde<'a, S: ?Sized> {
    inner: &'a S,
    pub ns: Cell<u64>,
    pub calls: Cell<u64>,
}

impl<'a, S: ?Sized> TimedOde<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Self {
            inner,
            ns: Cell::new(0),
            calls: Cell::new(0),
        }
    }
}

impl<S: OdeSystem + ?Sized> OdeSystem for TimedOde<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.eval(t, y, dydt);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }
}

/// Times every `DdeSystem::eval` of the wrapped system.
pub struct TimedDde<'a, S: ?Sized> {
    inner: &'a S,
    pub ns: Cell<u64>,
    pub calls: Cell<u64>,
}

impl<'a, S: ?Sized> TimedDde<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Self {
            inner,
            ns: Cell::new(0),
            calls: Cell::new(0),
        }
    }
}

impl<S: DdeSystem + ?Sized> DdeSystem for TimedDde<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn eval(&self, t: f64, y: &[f64], hist: &dyn PhaseHistory, dydt: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.eval(t, y, hist, dydt);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }
}

/// Times every `observe_step` of the wrapped observer.
pub struct TimedObs<O> {
    pub inner: O,
    pub ns: u64,
    pub calls: u64,
}

impl<O> TimedObs<O> {
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            ns: 0,
            calls: 0,
        }
    }
}

impl<O: StepObserver> StepObserver for TimedObs<O> {
    fn begin(&mut self, t0: f64, y0: &[f64]) {
        self.inner.begin(t0, y0);
    }
    fn observe_step(&mut self, t: f64, y: &[f64]) {
        let t0 = Instant::now();
        self.inner.observe_step(t, y);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
    fn finish(&mut self, t_end: f64, y_end: &[f64]) {
        self.inner.finish(t_end, y_end);
    }
    fn wants_samples(&self) -> bool {
        self.inner.wants_samples()
    }
}
