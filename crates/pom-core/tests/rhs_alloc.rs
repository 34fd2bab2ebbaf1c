//! The right-hand side allocates nothing per evaluation: a counting global
//! allocator measures the bytes requested on every thread (`ChunkPool`
//! workers included) by one `OdeSystem::eval` or `DdeSystem::eval` after a
//! warm-up evaluation has grown the scratch, and by delay evaluations in
//! another lattice cell of the delay field than the warm-up's, which
//! refresh the delay node table in place. Every case is counted with
//! pom-obs instrumentation off and on (the pool then times each slot
//! into counters it allocated once). A whole RK4 step, whose stage
//! arithmetic runs on the same pool, is counted too. This binary holds a
//! single `#[test]`, so no other test allocates while a window is
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use pom_core::{Pom, PomBuilder, PomEnsemble, Potential, RhsKernel};
use pom_noise::{RandomCommDelay, WhiteJitter};
use pom_ode::dde::{DdeSystem, HistoryBuffer, InitialHistory};
use pom_ode::{OdeSystem, Rk4, Stepper, Workspace};
use pom_topology::Topology;

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator (the default `realloc` and
// `alloc_zeroed` go through `alloc`, so they are counted too).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Large enough for the row chunks to go through the worker pool.
const N: usize = 2048;

/// Bytes allocated by the second of two `eval` calls.
fn second_eval_bytes(mut eval: impl FnMut(f64)) -> usize {
    eval(0.5);
    let before = BYTES.load(SeqCst);
    eval(0.52);
    BYTES.load(SeqCst) - before
}

fn state(dim: usize) -> Vec<f64> {
    (0..dim).map(|e| (e as f64 * 0.71).sin() * 3.0).collect()
}

fn ode_bytes(sys: &impl OdeSystem) -> usize {
    let y = state(sys.dim());
    let mut dy = vec![0.0; sys.dim()];
    second_eval_bytes(|t| sys.eval(t, &y, &mut dy))
}

/// Bytes allocated by the second of two RK4 steps on one workspace.
fn rk4_step_bytes(sys: &impl OdeSystem) -> usize {
    let y = state(sys.dim());
    let mut y_out = vec![0.0; sys.dim()];
    let mut ws = Workspace::new();
    second_eval_bytes(|t| {
        let (stage, _) = ws.split();
        Rk4.step(sys, t, &y, 0.01, &mut y_out, stage);
    })
}

/// The history holds two knots, so delayed samples interpolate.
fn dde_bytes(sys: &impl DdeSystem) -> usize {
    let y = state(sys.dim());
    let mut dy = vec![0.0; sys.dim()];
    let mut hist = HistoryBuffer::new(0.0, &y, &dy, InitialHistory::Constant(y.clone()));
    hist.push(0.5, &y, &dy);
    second_eval_bytes(|t| sys.eval(t, &y, &hist, &mut dy))
}

/// Bytes allocated by two `eval` calls after a warm-up at `t = 0.5`,
/// each in another lattice cell of the delay field (`corr_time` 0.5):
/// `t = 1.2` moves on to the next cell, `t = 0.2` jumps back two. Both
/// refresh the delay node table inside the counted window.
fn dde_refresh_bytes(sys: &impl DdeSystem) -> usize {
    let y = state(sys.dim());
    let mut dy = vec![0.0; sys.dim()];
    let mut hist = HistoryBuffer::new(0.0, &y, &dy, InitialHistory::Constant(y.clone()));
    hist.push(0.5, &y, &dy);
    hist.push(1.2, &y, &dy);
    sys.eval(0.5, &y, &hist, &mut dy);
    let before = BYTES.load(SeqCst);
    sys.eval(1.2, &y, &hist, &mut dy);
    sys.eval(0.2, &y, &hist, &mut dy);
    BYTES.load(SeqCst) - before
}

#[test]
fn rhs_evaluation_allocates_nothing() {
    let mut failures = Vec::new();
    let mut check = |what: String, bytes: usize| {
        if bytes != 0 {
            failures.push(format!("{what}: {bytes} B"));
        }
    };
    for (obs, kernel) in [false, true]
        .into_iter()
        .flat_map(|obs| [RhsKernel::Exact, RhsKernel::SinCosSplit].map(|k| (obs, k)))
    {
        pom_obs::set_enabled(obs);
        for local_noise in [false, true] {
            for threads in [1, 2] {
                // `delay_seed` switches on the delay path.
                let member = |rep: usize, delay_seed: Option<u64>| -> Pom {
                    let mut b = PomBuilder::new(N)
                        .topology(Topology::ring(N, &[-2, -1, 1]))
                        .potential(Potential::desync(2.5))
                        .kernel(kernel)
                        .coupling(3.0)
                        .rhs_threads(threads);
                    if local_noise {
                        b = b.local_noise(WhiteJitter::new(7 + rep as u64, 0.04, 0.5));
                    }
                    if let Some(seed) = delay_seed {
                        b = b.interaction_noise(RandomCommDelay::new(seed, N, 0.05, 0.01, 0.5));
                    }
                    b.build().unwrap()
                };
                let case = format!("{kernel:?} noise={local_noise} threads={threads} obs={obs}");
                check(format!("Pom ODE {case}"), ode_bytes(&member(0, None)));
                check(
                    format!("Pom RK4 step {case}"),
                    rk4_step_bytes(&member(0, None)),
                );
                check(format!("Pom DDE {case}"), dde_bytes(&member(0, Some(91))));
                check(
                    format!("Pom DDE cell change {case}"),
                    dde_refresh_bytes(&member(0, Some(91))),
                );
                for r in [5usize, 16] {
                    let ens = PomEnsemble::new((0..r).map(|rep| member(rep, None)).collect());
                    check(format!("R={r} ODE {case}"), ode_bytes(&ens));
                    check(format!("R={r} RK4 step {case}"), rk4_step_bytes(&ens));
                    // One shared delay field, and per-replica fields (the
                    // replica-divergent fallback).
                    for shared in [true, false] {
                        let seed = |rep: usize| 91 + if shared { 0 } else { rep as u64 };
                        let ens = PomEnsemble::new(
                            (0..r).map(|rep| member(rep, Some(seed(rep)))).collect(),
                        );
                        check(format!("R={r} DDE shared={shared} {case}"), dde_bytes(&ens));
                        check(
                            format!("R={r} DDE shared={shared} cell change {case}"),
                            dde_refresh_bytes(&ens),
                        );
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
