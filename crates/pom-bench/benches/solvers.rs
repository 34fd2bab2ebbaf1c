//! Criterion bench: integrator cost on the oscillator model — adaptive
//! Dopri5 vs fixed-step RK4 at matched spans, across system sizes
//! (DESIGN.md §8 ablation "adaptive vs fixed-step at matched accuracy") —
//! plus the raw RK4 hot loop on the workspace fast path. `bench_steps`
//! (a `pom-bench` binary) emits the same numbers as JSON for the
//! `BENCH_*.json` records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pom_core::{
    InitialCondition, Normalization, PomBuilder, Potential, SimOptions, SimWorkspace, SolverChoice,
};
use pom_ode::{Rk4, Stepper, Workspace};
use pom_topology::Topology;
use std::hint::black_box;

fn build_model(n: usize) -> pom_core::Pom {
    PomBuilder::new(n)
        .topology(Topology::ring(n, &[-1, 1]))
        .potential(Potential::desync(3.0))
        .compute_time(0.9)
        .comm_time(0.1)
        .coupling(4.0)
        .normalization(Normalization::ByDegree)
        .build()
        .unwrap()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    for n in [64usize, 256, 1024] {
        let model = build_model(n);
        let init = InitialCondition::RandomSpread {
            amplitude: 0.3,
            seed: 1,
        };
        group.bench_with_input(BenchmarkId::new("dopri5", n), &n, |b, _| {
            b.iter(|| {
                let run = model
                    .simulate_with(
                        init.clone(),
                        &SimOptions::new(10.0)
                            .samples(50)
                            .solver(SolverChoice::Dopri5 {
                                rtol: 1e-6,
                                atol: 1e-8,
                            }),
                    )
                    .unwrap();
                black_box(run.final_order_parameter())
            })
        });
        group.bench_with_input(BenchmarkId::new("rk4_h0.02", n), &n, |b, _| {
            b.iter(|| {
                let run = model
                    .simulate_with(
                        init.clone(),
                        &SimOptions::new(10.0)
                            .samples(50)
                            .solver(SolverChoice::FixedRk4 { h: 0.02 }),
                    )
                    .unwrap();
                black_box(run.final_order_parameter())
            })
        });
        group.bench_with_input(BenchmarkId::new("rk4_h0.02_ws_reuse", n), &n, |b, _| {
            // Same integration through the workspace fast path, one
            // workspace across all iterations (the sweep-worker pattern).
            let mut ws = SimWorkspace::new();
            b.iter(|| {
                let run = model
                    .simulate_with_ws(
                        init.clone(),
                        &SimOptions::new(10.0)
                            .samples(50)
                            .solver(SolverChoice::FixedRk4 { h: 0.02 }),
                        &mut ws,
                    )
                    .unwrap();
                black_box(run.final_order_parameter())
            })
        });
    }
    group.finish();
}

fn bench_rk4_hot_loop(c: &mut Criterion) {
    const STEPS: usize = 2_000;
    let mut group = c.benchmark_group("rk4_hot_loop");
    group.throughput(Throughput::Elements(STEPS as u64));
    for n in [16usize, 256] {
        // Norm-preserving pair rotation: cheap RHS, no underflow into
        // denormals over long step counts.
        let sys = pom_ode::FnSystem::new(n, |_t, y: &[f64], d: &mut [f64]| {
            let mut i = 0;
            while i + 1 < y.len() {
                d[i] = y[i + 1];
                d[i + 1] = -y[i];
                i += 2;
            }
        });
        let y0: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.01).collect();
        let h = 0.02;

        group.bench_with_input(BenchmarkId::new("workspace_mono", n), &n, |b, _| {
            let mut ws = Workspace::new();
            b.iter(|| {
                let (stage, drive) = ws.split();
                let [mut y, mut y_next] = drive.slices::<2>(n);
                y.copy_from_slice(&y0);
                let mut t = 0.0;
                for _ in 0..STEPS {
                    Rk4.step(&sys, t, y, h, y_next, stage);
                    std::mem::swap(&mut y, &mut y_next);
                    t += h;
                }
                black_box(y[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_rk4_hot_loop);
criterion_main!(benches);
