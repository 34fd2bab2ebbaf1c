//! The one right-hand side of paper Eq. (2).
//!
//! A single run is an ensemble of one. [`Rhs`] evaluates Eq. (2) for `R`
//! member models over a replica-interleaved state (component `(i, rep)`
//! at `i·R + rep`, the [`pom_ode::EnsembleLayout`] order). [`Pom`] views
//! itself as one member at the compile-time width [`One`](kernel::One),
//! so every `·R` index scale folds away and the loops compile to the
//! single-replica code; [`crate::PomEnsemble`] views its members at the
//! runtime width `R`.
//!
//! Per component every sum adds its terms in the same order onto a zeroed
//! accumulator whatever the width (ascending neighbor on the CSR and
//! delay paths, offset order on the ring stencil), so replica `rep` of a
//! batch is bitwise the independent run of member `rep`. No evaluation
//! allocates: the `sin`/`cos` arrays, the delay path's per-slot `τ`/phase
//! windows and its [`NodeTable`] come from the caller's [`SplitScratch`].
//!
//! The delay rows never build a lattice node of the delay field: the
//! node table holds each CSR edge's two nodes of the current lattice cell
//! and is refreshed only when `⌊t / corr_time⌋` changes, so within one
//! correlation time an evaluation only interpolates.

use std::f64::consts::TAU;
use std::ops::Range;
use std::sync::Mutex;

use pom_kernels::{ChunkPool, DisjointSliceMut};
use pom_ode::dde::PhaseHistory;

use crate::kernel::{self, DesyncPair, PairTerm, RhsKernel, SinPair, SplitScratch, Width};
use crate::model::Pom;
use crate::potential::Potential;

/// The delay fields' lattice nodes, aligned with the CSR edges: one
/// column per distinct delay field (one when the members share theirs,
/// else one per member), and per edge `e` and column `c` the two nodes
/// `[a, b]` of the column's current lattice cell at `knots[e·cols + c]`.
/// `delay_at(knots[e·cols + c], frac)` is bitwise `τ_ij(t)` for the
/// edge's pair, so the rows never rebuild a node; the table costs
/// `16 B × nnz × cols`.
#[derive(Debug, Default)]
pub(crate) struct NodeTable {
    knots: Vec<[f64; 2]>,
    cells: Vec<ColumnCell>,
}

/// One column's lattice position: the cell its knots hold, and the cell
/// and in-cell position of the time being evaluated.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnCell {
    /// `None` until the column is first built.
    built: Option<i64>,
    k: i64,
    frac: f64,
}

/// A borrowed view of `R = width.get()` structurally identical members
/// (checked by [`crate::PomEnsemble::new`]): member 0 supplies the shared
/// structure, each member its own noise.
///
/// Row closures read `R` from the width inside their bodies rather than
/// capturing a number, so at width [`One`](kernel::One) it stays a
/// compile-time constant even in a closure compiled out of line (the pool
/// calls it through `dyn`).
pub(crate) struct Rhs<'a, W> {
    pub members: &'a [Pom],
    pub scratch: &'a Mutex<SplitScratch>,
    /// Every member's delay field is bitwise the same (trivially so for
    /// one member): `τ_ij(t)` is evaluated once per pair, on member 0.
    pub shared_delays: bool,
    pub width: W,
}

impl<W: Width> Rhs<'_, W> {
    fn lead(&self) -> &Pom {
        &self.members[0]
    }

    /// The intrinsic term `2π / max(t_comp + t_comm, min_cycle)` of every
    /// component when no member has local noise. `None` otherwise: each
    /// replica then asks its own member, which returns that same value
    /// when its own noise is null.
    fn noise_free_omega(&self) -> Option<f64> {
        let m0 = self.lead();
        let noise_free = self.members.iter().all(|m| m.local_noise.is_null());
        noise_free.then(|| TAU / m0.params.cycle_time().max(m0.min_cycle))
    }

    /// Run `f(slot, rows)` over a disjoint cover of the oscillator rows:
    /// inline as one chunk, or across the worker pool when the model is
    /// large enough. Chunk boundaries depend only on `(n, threads)`.
    #[inline]
    fn par_rows(&self, f: impl Fn(usize, Range<usize>) + Sync) {
        let m0 = self.lead();
        match m0.row_pool() {
            Some(pool) => pool.run(m0.n(), &f),
            None => f(0, 0..m0.n()),
        }
    }

    /// Run `rows(slot, start, out_chunk)` over every oscillator row. Each
    /// chunk owns the contiguous `dtheta` elements of its rows (`R` per
    /// row), so results are bitwise identical for every thread count.
    #[inline]
    fn for_row_chunks(&self, dtheta: &mut [f64], rows: impl Fn(usize, usize, &mut [f64]) + Sync) {
        let shared = DisjointSliceMut::new(&mut dtheta[..self.lead().n() * self.width.get()]);
        self.par_rows(|slot, range| {
            let r = self.width.get();
            // SAFETY: `par_rows` hands each slot a disjoint row range;
            // scaling by `r` keeps the element ranges disjoint.
            let chunk = unsafe { shared.range_mut(range.start * r..range.end * r) };
            rows(slot, range.start, chunk);
        });
    }

    /// The no-delay RHS, dispatching on the kernel selection.
    /// `SinCosSplit` applies to the sine-structured potentials
    /// (`KuramotoSin` and the sine branch of `Desync`); `Tanh` has no
    /// angle-addition split and falls back to the exact per-pair math.
    pub(crate) fn ode(&self, t: f64, theta: &[f64], dtheta: &mut [f64]) {
        let m0 = self.lead();
        match (m0.kernel, m0.potential) {
            (RhsKernel::SinCosSplit, Potential::KuramotoSin) => {
                self.split_rows(SinPair, 1.0, t, theta, dtheta);
            }
            (RhsKernel::SinCosSplit, Potential::Desync { sigma }) => {
                let k = 1.5 * std::f64::consts::PI / sigma;
                self.split_rows(DesyncPair { sigma }, k, t, theta, dtheta);
            }
            (_, Potential::Tanh) => self.exact_rows(t, theta, dtheta, |x| x.tanh()),
            (_, Potential::Desync { sigma }) => {
                let k = 1.5 * std::f64::consts::PI / sigma;
                self.exact_rows(t, theta, dtheta, move |x| {
                    if x.abs() < sigma {
                        -(k * x).sin()
                    } else {
                        x.signum()
                    }
                });
            }
            (_, Potential::KuramotoSin) => self.exact_rows(t, theta, dtheta, |x| x.sin()),
        }
    }

    /// Reference (`RhsKernel::Exact`) rows: one fused pass computing
    /// `intrinsic + scale_i · Σ_j V(θ_j − θ_i)` per component, the
    /// potential's parameters hoisted into `v`. Replica-outer per row with
    /// a register accumulator: at width one, the single-replica loop.
    #[inline]
    fn exact_rows(&self, t: f64, theta: &[f64], dtheta: &mut [f64], v: impl Fn(f64) -> f64 + Sync) {
        let m0 = self.lead();
        let csr = m0.topology.csr();
        let omega = self.noise_free_omega();
        self.for_row_chunks(dtheta, |_slot, start, out| {
            let r = self.width.get();
            for (row, out_row) in out.chunks_exact_mut(r).enumerate() {
                let i = start + row;
                let neighbors = csr.row(i);
                for (rep, d) in out_row.iter_mut().enumerate() {
                    let theta_i = theta[i * r + rep];
                    let mut coupling = 0.0;
                    for &j in neighbors {
                        coupling += v(theta[j as usize * r + rep] - theta_i);
                    }
                    let intrinsic = omega.unwrap_or_else(|| self.members[rep].intrinsic(i, t));
                    *d = intrinsic + m0.coupling_cache[i] * coupling;
                }
            }
        });
    }

    /// Split-kernel rows: phase 1 fills `sin(kθ)`/`cos(kθ)` over the whole
    /// interleaved state (one vectorized pass, chunked over the pool),
    /// phase 2 accumulates the coupling sums from the arrays — via the
    /// index-free ring stencil when the topology has one, else the flat
    /// CSR — and fuses in the intrinsic term and coupling prefactor.
    fn split_rows<P: PairTerm>(&self, p: P, k: f64, t: f64, theta: &[f64], dtheta: &mut [f64]) {
        let m0 = self.lead();
        let w = self.width;
        let mut guard = self.scratch.lock().expect("rhs scratch");
        let (s, c) = guard.halves(m0.n() * w.get());
        {
            let (s, c) = (DisjointSliceMut::new(s), DisjointSliceMut::new(c));
            self.par_rows(|_slot, range| {
                let r = w.get();
                let er = range.start * r..range.end * r;
                // SAFETY: disjoint row ranges per slot, scaled to
                // disjoint element ranges.
                let (s, c) = unsafe { (s.range_mut(er.clone()), c.range_mut(er.clone())) };
                kernel::sincos_pass(k, &theta[er], s, c);
            });
        }

        let (s, c) = (&*s, &*c);
        let omega = self.noise_free_omega();
        let stencil = m0.stencil.as_ref();
        let csr = m0.topology.csr();
        self.for_row_chunks(dtheta, |_slot, start, out| {
            let r = w.get();
            let rows = start..start + out.len() / r;
            match stencil {
                Some(st) => kernel::split_rows_stencil(p, st, w, theta, s, c, rows.clone(), out),
                None => kernel::split_rows_csr(p, csr, w, theta, s, c, rows.clone(), out),
            }
            if let Some(omega) = omega {
                kernel::finalize_rows(omega, &m0.coupling_cache[rows], w, out);
            } else {
                for (row, out_row) in out.chunks_exact_mut(r).enumerate() {
                    let i = start + row;
                    for (rep, d) in out_row.iter_mut().enumerate() {
                        *d = self.members[rep].intrinsic(i, t) + m0.coupling_cache[i] * *d;
                    }
                }
            }
        });
    }

    /// The members whose delay fields are the node table's columns: the
    /// lead alone when the fields are shared, else every member.
    fn delay_columns(&self) -> &[Pom] {
        if self.shared_delays {
            &self.members[..1]
        } else {
            self.members
        }
    }

    /// Bring every column of `table` to the lattice cell of `t`. A column
    /// already there is left alone; on a step to the next cell its `b`
    /// moves into `a` and only the new `b` is computed; any other move
    /// computes both nodes. The edges are split over the row chunks.
    fn refresh_nodes(&self, table: &mut NodeTable, t: f64) {
        let csr = self.lead().topology.csr();
        let columns = self.delay_columns();
        let cols = columns.len();
        let len = csr.col_idx().len() * cols;
        if table.knots.len() != len || table.cells.len() != cols {
            table.knots.clear();
            table.knots.resize(len, [0.0; 2]);
            table.cells.clear();
            table.cells.resize(cols, ColumnCell::default());
        }
        let mut stale = false;
        for (cell, m) in table.cells.iter_mut().zip(columns) {
            (cell.k, cell.frac) = m.interaction_noise.cell(t);
            stale |= cell.built != Some(cell.k);
        }
        if !stale {
            return;
        }

        let knots = DisjointSliceMut::new(&mut table.knots);
        let cells = &table.cells;
        self.par_rows(|_slot, rows| {
            let row_ptr = csr.row_ptr();
            let edges = row_ptr[rows.start] as usize..row_ptr[rows.end] as usize;
            // SAFETY: disjoint row ranges own disjoint edge ranges.
            let chunk = unsafe { knots.range_mut(edges.start * cols..edges.end * cols) };
            let mut per_edge = chunk.chunks_exact_mut(cols);
            for i in rows {
                for &j in csr.row(i) {
                    let j = j as usize;
                    let slots = per_edge.next().expect("one table entry per edge");
                    for ((slot, cell), m) in slots.iter_mut().zip(cells).zip(columns) {
                        let noise = &*m.interaction_noise;
                        match cell.built {
                            Some(built) if built == cell.k => {}
                            Some(built) if built + 1 == cell.k => {
                                *slot = [slot[1], noise.knot(i, j, cell.k + 1)];
                            }
                            _ => *slot = noise.knots(i, j, cell.k),
                        }
                    }
                }
            }
        });
        for cell in &mut table.cells {
            cell.built = Some(cell.k);
        }
    }

    /// The delay RHS: per replica, the partner phase is read from the
    /// interleaved history at `(j, rep)` and `t − τ_ij(t)` of the
    /// replica's own delay field. Each pair reads a different past time,
    /// so there is no sin/cos precomputation: the pair math is exact.
    ///
    /// `τ_ij(t)` comes from the scratch's [`NodeTable`], refreshed first
    /// under the scratch lock: the rows only interpolate each edge's two
    /// stored lattice nodes, with the arithmetic of
    /// [`InteractionNoise::tau`](pom_noise::InteractionNoise::tau).
    ///
    /// Neighbor-outer per row: when a pair's delay agrees bitwise across
    /// the replicas (always with shared delays), the `R` partner phases
    /// come from one [`PhaseHistory::sample_run`], which pays the knot
    /// search and Hermite coefficients once for the batch; its values are
    /// bitwise [`PhaseHistory::sample`].
    pub(crate) fn dde(&self, t: f64, theta: &[f64], hist: &dyn PhaseHistory, dtheta: &mut [f64]) {
        let m0 = self.lead();
        let csr = m0.topology.csr();
        let omega = self.noise_free_omega();
        // One `τ` window and one phase window of `R` values per pool slot,
        // spaced a cache line apart: slots that shared a line would stall
        // each other on every neighbor.
        let stride = |r: usize| r + 8;
        let slots = m0.row_pool().map_or(1, ChunkPool::threads);
        let mut guard = self.scratch.lock().expect("rhs scratch");
        let (taus, phases, nodes) = guard.delay_parts(slots * stride(self.width.get()));
        self.refresh_nodes(nodes, t);
        let nodes = &*nodes;
        let columns = self.delay_columns();
        let cols = columns.len();
        let (taus, phases) = (DisjointSliceMut::new(taus), DisjointSliceMut::new(phases));
        self.for_row_chunks(dtheta, |slot, start, out| {
            let r = self.width.get();
            let window = slot * stride(r)..slot * stride(r) + r;
            // SAFETY: each pool slot runs one chunk at a time and owns
            // the window at its slot index.
            let (taus, phases) =
                unsafe { (taus.range_mut(window.clone()), phases.range_mut(window)) };
            let row_ptr = csr.row_ptr();
            for (row, out_row) in out.chunks_exact_mut(r).enumerate() {
                let i = start + row;
                out_row.fill(0.0);
                let ti = &theta[i * r..(i + 1) * r];
                let first_edge = row_ptr[i] as usize;
                for (e, &j) in (first_edge..).zip(csr.row(i)) {
                    let j = j as usize;
                    let knots = &nodes.knots[e * cols..(e + 1) * cols];
                    for (((tau, m), &kn), cell) in
                        taus.iter_mut().zip(columns).zip(knots).zip(&nodes.cells)
                    {
                        *tau = m.interaction_noise.delay_at(kn, cell.frac);
                    }
                    if cols == 1 {
                        let shared = taus[0];
                        taus.fill(shared);
                    }
                    let tau0 = taus[0];
                    if tau0 > 0.0 && taus.iter().all(|tau| tau.to_bits() == tau0.to_bits()) {
                        hist.sample_run(t - tau0, j * r, phases);
                    } else {
                        for (rep, ph) in phases.iter_mut().enumerate() {
                            *ph = if taus[rep] > 0.0 {
                                hist.sample(t - taus[rep], j * r + rep)
                            } else {
                                theta[j * r + rep]
                            };
                        }
                    }
                    for ((d, &ph), &th) in out_row.iter_mut().zip(&*phases).zip(ti) {
                        *d += m0.potential.value(ph - th);
                    }
                }
                for (rep, d) in out_row.iter_mut().enumerate() {
                    let intrinsic = omega.unwrap_or_else(|| self.members[rep].intrinsic(i, t));
                    *d = intrinsic + m0.coupling_cache[i] * *d;
                }
            }
        });
    }
}
