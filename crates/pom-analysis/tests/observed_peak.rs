//! The observed path holds O(N) memory whatever the step count: a
//! counting global allocator tracks live bytes and their high-water mark
//! on every thread, and `peak_during` measures the extra peak one run
//! adds over the live heap at entry. The recording path is the contrast:
//! it pays at least one state row per retained sample. This binary holds
//! a single `#[test]`, so no other test allocates while a peak is
//! measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use pom_analysis::RunSummaryProbe;
use pom_core::{
    InitialCondition, NoObserver, Normalization, PomBuilder, Potential, RhsKernel, SimOptions,
    SimWorkspace, SolverChoice,
};
use pom_topology::Topology;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator. The default `realloc` and
// `alloc_zeroed` go through `alloc` and `dealloc`, so they are counted
// too; a realloc holds both blocks at once, as a moving one does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the extra heap peak it caused, in
/// bytes, over the live heap at entry.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst).saturating_sub(base))
}

const H: f64 = 0.02;

fn fixed_rk4(steps: usize) -> SimOptions {
    SimOptions::new(H * steps as f64).solver(SolverChoice::FixedRk4 { h: H })
}

#[test]
fn observed_path_peak_memory_is_linear_in_n() {
    let init = InitialCondition::RandomSpread {
        amplitude: 0.3,
        seed: 1,
    };
    for n in [4096usize, 65536] {
        let model = PomBuilder::new(n)
            .topology(Topology::ring(n, &[-1, 1]))
            .potential(Potential::desync(3.0))
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(4.0)
            .normalization(Normalization::ByDegree)
            .kernel(RhsKernel::SinCosSplit)
            .build()
            .unwrap();
        let observed = |steps: usize, ws: &mut SimWorkspace| {
            let mut probe = RunSummaryProbe::new();
            peak_during(|| {
                model
                    .simulate_observed_ws(init.clone(), &fixed_rk4(steps), &mut probe, ws)
                    .expect("observed run")
            })
        };

        // Cold workspace: the peak is everything the observed path ever
        // holds at once — a few dozen length-n buffers (integrator
        // workspace, sin/cos scratch, summary state).
        let mut ws = SimWorkspace::new();
        let (summary, peak) = observed(200, &mut ws);
        assert_eq!(summary.n_steps(), 200);
        assert!(summary.final_order_parameter().is_finite());
        let budget = 64 * n * 8 + (1 << 20);
        assert!(
            peak <= budget,
            "observed path peak {peak} B exceeds O(N) budget {budget} B at n = {n}"
        );

        // Step-count independence: doubling the horizon must not move
        // the peak beyond allocator rounding. A per-step leak anywhere in
        // the observed path fails here long before it dents the budget.
        let (_, p1) = observed(200, &mut ws);
        let (_, p2) = observed(400, &mut ws);
        assert!(
            p2 <= p1 + (64 << 10),
            "doubled horizon moved the observed peak {p1} → {p2} B at n = {n}"
        );

        // The probe itself adds no heap: on the warm workspace, the run
        // with `RunSummaryProbe` peaks where the same run with no
        // observer does. A per-sample scratch buffer in the probe fails
        // here even though it never grows with the horizon.
        let (_, bare) = peak_during(|| {
            model
                .simulate_observed_ws(init.clone(), &fixed_rk4(200), &mut NoObserver, &mut ws)
                .expect("observed run")
        });
        assert!(
            p1 <= bare + (64 << 10),
            "RunSummaryProbe added heap: {bare} → {p1} B at n = {n}"
        );

        // The recording path, one sample per step, pays at least one
        // state row per retained sample.
        let rec_steps = 50;
        let (run, rec_peak) = peak_during(|| {
            model
                .simulate_with_ws(
                    init.clone(),
                    &fixed_rk4(rec_steps).samples(rec_steps + 1),
                    &mut SimWorkspace::new(),
                )
                .expect("recorded run")
        });
        assert_eq!(run.trajectory().len(), rec_steps + 1);
        let per_step = rec_peak as f64 / rec_steps as f64;
        assert!(
            per_step >= 0.9 * 8.0 * n as f64,
            "recorded path must pay ≥ one state row per sample: {per_step} B/step at n = {n}"
        );
    }
}
