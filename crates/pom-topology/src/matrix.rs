//! Sparse 0/1 topology matrices in compressed-sparse-row form.
//!
//! The coupling sum in Eq. (2) is evaluated once per oscillator per RHS
//! call; with `N` processes and bounded communication degree the CSR layout
//! makes that O(nnz) instead of O(N²) (the ablation bench
//! `bench_coupling` quantifies the gap against a dense matrix).

// Index-as-rank loops are intentional here (the index is the rank id).
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeSet;
use std::fmt;

/// How a topology was constructed — kept as metadata so that `κ` can use
/// the exact distance set for the patterns the paper defines it for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyKind {
    /// Periodic ring with a signed distance set: rank `i` communicates with
    /// `(i + d) mod N` for each `d` in the set.
    Ring {
        /// Signed rank-space distances (e.g. `[-1, 1]` or `[-2, -1, 1]`).
        distances: Vec<i32>,
    },
    /// Open chain (no wraparound): neighbors outside `0..N` are dropped.
    Chain {
        /// Signed rank-space distances.
        distances: Vec<i32>,
    },
    /// Two-dimensional Cartesian grid with a von-Neumann stencil.
    Grid2d {
        /// Grid extent in x.
        nx: usize,
        /// Grid extent in y.
        ny: usize,
        /// Periodic boundaries in both directions.
        periodic: bool,
    },
    /// Every oscillator coupled to every other (plain Kuramoto).
    AllToAll,
    /// Arbitrary edge list.
    Custom,
}

/// Sparse symmetric-or-not 0/1 coupling matrix `T_ij` (CSR).
///
/// Self-loops are never stored: a process does not wait on itself.
#[derive(Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    kind: TopologyKind,
}

/// Borrowed flat view of a [`Topology`]'s CSR storage (offsets + packed
/// `u32` column indices).
///
/// The right-hand-side kernels walk every row of the matrix once per
/// evaluation — millions of times per run. Handing them the two backing
/// arrays directly lets a kernel hoist the row-pointer loads out of inner
/// loops and slice the row range for chunked parallel execution, instead of
/// calling [`Topology::neighbors`] per oscillator. Row `i` of the view is
/// exactly `neighbors(i)`: same indices, same (ascending) order.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    n: usize,
    row_ptr: &'a [u32],
    col_idx: &'a [u32],
}

impl<'a> CsrView<'a> {
    /// Number of rows (oscillators).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row offsets, length `n + 1`.
    pub fn row_ptr(&self) -> &'a [u32] {
        self.row_ptr
    }

    /// Packed column indices, length `nnz`.
    pub fn col_idx(&self) -> &'a [u32] {
        self.col_idx
    }

    /// Columns of row `i` (identical slice to `Topology::neighbors(i)`).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [u32] {
        &self.col_idx[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }
}

/// Index-free description of a periodic-ring topology: every row `i` is
/// `{(i + o) mod n : o ∈ offsets}`.
///
/// For ring topologies the CSR index array carries no information beyond
/// the (deduplicated, non-zero) forward offsets, so large-`N` kernels can
/// compute neighbor indices on the fly — no index loads, no gather — and
/// split the wrap-around rows from the contiguous bulk. Built via
/// [`Topology::ring_stencil`]; the neighbor *set* per row is identical to
/// [`Topology::neighbors`] (the iteration order differs: by offset, not by
/// ascending index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingStencil {
    n: usize,
    /// Forward modular offsets, sorted ascending, each in `1..n`.
    offsets: Vec<u32>,
}

impl RingStencil {
    /// Number of oscillators.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sorted forward offsets (each in `1..n`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Degree of every row (uniform by translational symmetry).
    #[cfg(test)]
    pub(crate) fn degree(&self) -> usize {
        self.offsets.len()
    }

    /// Neighbor of row `i` along `offset` (must come from
    /// [`RingStencil::offsets`]).
    #[inline]
    pub fn neighbor(&self, i: usize, offset: u32) -> usize {
        let j = i + offset as usize;
        if j >= self.n {
            j - self.n
        } else {
            j
        }
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("n", &self.n)
            .field("nnz", &self.nnz())
            .field("kind", &self.kind)
            .finish()
    }
}

impl Topology {
    /// Build row by row (internal): `neighbors(i, row)` pushes the
    /// neighbors of rank `i` onto the empty `row` in any order, repeats
    /// allowed; the CSR stores each row sorted and deduplicated. One
    /// scratch row serves every rank, so no row allocates a set of its own.
    fn from_row_fn(
        n: usize,
        kind: TopologyKind,
        mut neighbors: impl FnMut(usize, &mut Vec<u32>),
    ) -> Self {
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut row = Vec::new();
        row_ptr.push(0u32);
        for i in 0..n {
            row.clear();
            neighbors(i, &mut row);
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(&row);
            row_ptr.push(col_idx.len() as u32);
        }
        Self {
            n,
            row_ptr,
            col_idx,
            kind,
        }
    }

    /// Periodic ring of `n` ranks with the signed distance set `distances`.
    ///
    /// `d` and duplicate entries are deduplicated; `d ≡ 0 (mod n)` entries
    /// are ignored (no self-coupling). This is the topology of the paper's
    /// Fig. 2: `&[-1, 1]` for the top row, `&[-2, -1, 1]` for the bottom.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn ring(n: usize, distances: &[i32]) -> Self {
        assert!(n > 0, "ring topology needs at least one rank");
        let kind = TopologyKind::Ring {
            distances: dedup(distances),
        };
        Self::from_row_fn(n, kind, |i, row| {
            for &d in distances {
                let j = (i as i64 + d as i64).rem_euclid(n as i64) as usize;
                if j != i {
                    row.push(j as u32);
                }
            }
        })
    }

    /// Open chain: like [`Topology::ring`] but neighbors falling outside
    /// `0..n` are dropped instead of wrapping.
    pub fn chain(n: usize, distances: &[i32]) -> Self {
        assert!(n > 0, "chain topology needs at least one rank");
        let kind = TopologyKind::Chain {
            distances: dedup(distances),
        };
        Self::from_row_fn(n, kind, |i, row| {
            for &d in distances {
                let j = i as i64 + d as i64;
                if (0..n as i64).contains(&j) && j != i as i64 {
                    row.push(j as u32);
                }
            }
        })
    }

    /// Full coupling: the connectivity of the plain Kuramoto model, which
    /// the paper argues is *unsuitable* for parallel programs (§2.2.2) —
    /// provided for the contrast experiment.
    pub fn all_to_all(n: usize) -> Self {
        assert!(n > 0);
        Self::from_row_fn(n, TopologyKind::AllToAll, |i, row| {
            row.extend((0..n as u32).filter(|&j| j as usize != i));
        })
    }

    /// 2-D Cartesian grid (`nx × ny` ranks, row-major), 4-point stencil.
    pub fn grid2d(nx: usize, ny: usize, periodic: bool) -> Self {
        assert!(nx > 0 && ny > 0);
        let kind = TopologyKind::Grid2d { nx, ny, periodic };
        Self::from_row_fn(nx * ny, kind, |i, row| {
            let (x, y) = ((i % nx) as i64, (i / nx) as i64);
            for (xx, yy) in [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)] {
                let (xx, yy) = if periodic {
                    (xx.rem_euclid(nx as i64), yy.rem_euclid(ny as i64))
                } else if (0..nx as i64).contains(&xx) && (0..ny as i64).contains(&yy) {
                    (xx, yy)
                } else {
                    continue;
                };
                let j = yy as usize * nx + xx as usize;
                if j != i {
                    row.push(j as u32);
                }
            }
        })
    }

    /// Arbitrary directed edge list `(i, j)` meaning "`i` depends on `j`"
    /// (`T_ij = 1`). Self-loops and duplicates are dropped.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n > 0);
        let mut rows = vec![Vec::new(); n];
        for &(i, j) in edges {
            assert!(i < n && j < n, "edge ({i}, {j}) out of range for n = {n}");
            if i != j {
                rows[i].push(j as u32);
            }
        }
        Self::from_row_fn(n, TopologyKind::Custom, |i, row| {
            row.extend_from_slice(&rows[i])
        })
    }

    /// Number of oscillators/ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored couplings (directed).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Construction metadata.
    pub fn kind(&self) -> &TopologyKind {
        &self.kind
    }

    /// Neighbors of rank `i` (sorted ascending).
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        &self.col_idx[lo..hi]
    }

    /// Flat borrowed view of the CSR storage for hot-loop kernels.
    pub fn csr(&self) -> CsrView<'_> {
        CsrView {
            n: self.n,
            row_ptr: &self.row_ptr,
            col_idx: &self.col_idx,
        }
    }

    /// Index-free stencil description, available only for periodic rings
    /// (the topology family where every row is a translate of row 0).
    ///
    /// Returns `None` for chains, grids, all-to-all and custom edge lists —
    /// and for the degenerate `n == 1` ring (no neighbors at all).
    pub fn ring_stencil(&self) -> Option<RingStencil> {
        let TopologyKind::Ring { ref distances } = self.kind else {
            return None;
        };
        let offsets: BTreeSet<u32> = distances
            .iter()
            .map(|&d| (d as i64).rem_euclid(self.n as i64) as u32)
            .filter(|&o| o != 0)
            .collect();
        if offsets.is_empty() {
            return None;
        }
        Some(RingStencil {
            n: self.n,
            offsets: offsets.into_iter().collect(),
        })
    }

    /// Out-degree of rank `i`.
    pub fn degree(&self, i: usize) -> usize {
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// Whether `T_ij = 1`.
    pub fn connected(&self, i: usize, j: usize) -> bool {
        self.neighbors(i).binary_search(&(j as u32)).is_ok()
    }

    /// `T = Tᵀ`? Bulk-synchronous exchanges are symmetric; one-sided
    /// pipelines are not.
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|i| {
            self.neighbors(i)
                .iter()
                .all(|&j| self.connected(j as usize, i))
        })
    }

    /// Iterate over all directed edges `(i, j)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.neighbors(i).iter().map(move |&j| (i, j as usize)))
    }

    /// Dense copy of the matrix (row-major), for tests and ablations.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.n]; self.n];
        for (i, j) in self.edges() {
            m[i][j] = 1.0;
        }
        m
    }

    /// Minimal rank-space distance `|i − j|` respecting ring wraparound for
    /// periodic kinds (used by `κ` fallbacks and by the network model to
    /// scale per-hop latency).
    pub(crate) fn rank_distance(&self, i: usize, j: usize) -> usize {
        let lin = i.abs_diff(j);
        match self.kind {
            TopologyKind::Ring { .. } | TopologyKind::AllToAll => lin.min(self.n - lin),
            _ => lin,
        }
    }

    /// Is the topology connected as an undirected graph? (An unconnected
    /// program never propagates idle waves across components.)
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            // Treat edges as undirected for reachability.
            for &j in self.neighbors(i) {
                let j = j as usize;
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
            for k in 0..self.n {
                if !seen[k] && self.connected(k, i) {
                    seen[k] = true;
                    count += 1;
                    stack.push(k);
                }
            }
        }
        count == self.n
    }
}

fn dedup(distances: &[i32]) -> Vec<i32> {
    let set: BTreeSet<i32> = distances.iter().copied().filter(|&d| d != 0).collect();
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_next_neighbor() {
        let t = Topology::ring(5, &[-1, 1]);
        assert_eq!(t.n(), 5);
        assert_eq!(t.nnz(), 10);
        assert_eq!(t.neighbors(0), &[1, 4]);
        assert_eq!(t.neighbors(2), &[1, 3]);
        assert!(t.is_symmetric());
        assert!(t.is_connected());
    }

    #[test]
    fn ring_with_asymmetric_distance_set() {
        // Fig. 2 bottom row: d = ±1, −2.
        let t = Topology::ring(6, &[-2, -1, 1]);
        assert_eq!(t.neighbors(3), &[1, 2, 4]);
        assert_eq!(t.degree(3), 3);
        assert!(!t.is_symmetric()); // −2 has no +2 partner
        assert!(t.is_connected());
    }

    #[test]
    fn ring_wraps_and_ignores_self_coupling() {
        let t = Topology::ring(4, &[0, 4, 1]); // 0 and 4 ≡ 0 (mod 4) dropped
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.nnz(), 4);
    }

    #[test]
    fn chain_drops_out_of_range() {
        let t = Topology::chain(5, &[-1, 1]);
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(4), &[3]);
        assert_eq!(t.neighbors(2), &[1, 3]);
        assert_eq!(t.nnz(), 8);
        assert!(t.is_symmetric());
    }

    #[test]
    fn all_to_all_full_degree() {
        let t = Topology::all_to_all(6);
        for i in 0..6 {
            assert_eq!(t.degree(i), 5);
        }
        assert!(t.is_symmetric());
        assert_eq!(t.kind(), &TopologyKind::AllToAll);
    }

    #[test]
    fn grid2d_open_corner_and_interior() {
        let t = Topology::grid2d(3, 3, false);
        // Corner (0,0) = rank 0: right and up only.
        assert_eq!(t.neighbors(0), &[1, 3]);
        // Center rank 4: all four.
        assert_eq!(t.neighbors(4), &[1, 3, 5, 7]);
        assert!(t.is_symmetric());
        assert!(t.is_connected());
    }

    #[test]
    fn grid2d_periodic_uniform_degree() {
        let t = Topology::grid2d(4, 3, true);
        for i in 0..12 {
            assert_eq!(t.degree(i), 4, "rank {i}");
        }
    }

    #[test]
    fn grid2d_periodic_small_extent_dedups() {
        // nx = 2 with periodic wrap: left and right neighbor coincide.
        let t = Topology::grid2d(2, 2, true);
        for i in 0..4 {
            assert_eq!(t.degree(i), 2, "rank {i}");
        }
    }

    #[test]
    fn from_edges_directed() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 1), (2, 2)]);
        assert_eq!(t.nnz(), 3); // duplicate + self-loop dropped
        assert!(t.connected(0, 1));
        assert!(!t.connected(1, 0));
        assert!(!t.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_bounds_checked() {
        Topology::from_edges(3, &[(0, 3)]);
    }

    #[test]
    fn dense_roundtrip() {
        let t = Topology::ring(4, &[-1, 1]);
        let d = t.to_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(d[i][j] == 1.0, t.connected(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn rank_distance_respects_wraparound() {
        let ring = Topology::ring(10, &[-1, 1]);
        assert_eq!(ring.rank_distance(0, 9), 1);
        assert_eq!(ring.rank_distance(2, 7), 5);
        let chain = Topology::chain(10, &[-1, 1]);
        assert_eq!(chain.rank_distance(0, 9), 9);
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert!(!t.is_connected());
    }

    #[test]
    fn edges_iterator_counts_nnz() {
        let t = Topology::ring(7, &[-2, -1, 1]);
        assert_eq!(t.edges().count(), t.nnz());
        for (i, j) in t.edges() {
            assert!(t.connected(i, j));
        }
    }

    #[test]
    fn single_rank_topologies() {
        let t = Topology::ring(1, &[-1, 1]);
        assert_eq!(t.nnz(), 0);
        assert!(t.is_connected());
        let t = Topology::all_to_all(1);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn csr_view_rows_match_neighbors() {
        let t = Topology::ring(9, &[-2, -1, 1]);
        let v = t.csr();
        assert_eq!(v.n(), 9);
        assert_eq!(v.row_ptr().len(), 10);
        assert_eq!(v.col_idx().len(), t.nnz());
        for i in 0..9 {
            assert_eq!(v.row(i), t.neighbors(i), "row {i}");
        }
    }

    #[test]
    fn ring_stencil_reproduces_neighbor_sets() {
        let t = Topology::ring(10, &[-2, -1, 1]);
        let s = t.ring_stencil().expect("ring has a stencil");
        assert_eq!(s.n(), 10);
        assert_eq!(s.offsets(), &[1, 8, 9]); // 1, −2 ≡ 8, −1 ≡ 9 (mod 10)
        for i in 0..10 {
            let mut via_stencil: Vec<u32> = s
                .offsets()
                .iter()
                .map(|&o| s.neighbor(i, o) as u32)
                .collect();
            via_stencil.sort_unstable();
            assert_eq!(via_stencil, t.neighbors(i), "row {i}");
        }
    }

    #[test]
    fn ring_stencil_dedups_congruent_distances() {
        // On n = 4: −1 ≡ 3 and 3 are one offset; 4 ≡ 0 is dropped.
        let t = Topology::ring(4, &[-1, 3, 4, 1]);
        let s = t.ring_stencil().unwrap();
        assert_eq!(s.offsets(), &[1, 3]);
        assert_eq!(s.degree(), t.degree(0));
    }

    #[test]
    fn non_ring_topologies_have_no_stencil() {
        assert!(Topology::chain(6, &[-1, 1]).ring_stencil().is_none());
        assert!(Topology::all_to_all(5).ring_stencil().is_none());
        assert!(Topology::grid2d(3, 3, true).ring_stencil().is_none());
        assert!(Topology::from_edges(4, &[(0, 1)]).ring_stencil().is_none());
        // Degenerate ring: every distance congruent to 0.
        assert!(Topology::ring(2, &[2, -2]).ring_stencil().is_none());
    }

    #[test]
    fn debug_shows_summary() {
        let t = Topology::ring(5, &[-1, 1]);
        let s = format!("{t:?}");
        assert!(s.contains("nnz"));
        assert!(s.contains("Ring"));
    }
}
