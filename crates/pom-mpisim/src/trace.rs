//! ITAC-like execution traces.
//!
//! The paper's Fig. 2 shows Intel Trace Analyzer timelines with
//! "computation (white) and communication (red)" per rank. [`SimTrace`]
//! records the same information from the simulator: per-rank
//! [`Segment`]s (compute vs. wait) plus per-iteration timestamps, from
//! which idle waves and computational wavefronts are extracted.

/// What a rank was doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Executing the compute kernel.
    Compute,
    /// Blocked in `MPI_Waitall` (idle).
    Wait,
}

/// One contiguous activity of one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Activity kind.
    pub kind: SegmentKind,
    /// Start time, seconds.
    pub t0: f64,
    /// End time, seconds (`t1 ≥ t0`).
    pub t1: f64,
    /// Iteration the segment belongs to.
    pub iter: u32,
}

impl Segment {
    /// Segment duration.
    pub(crate) fn duration(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Timeline of one rank.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    segments: Vec<Segment>,
    /// Start time of each iteration (posting of the receives).
    iter_start: Vec<f64>,
    /// End of each iteration's compute phase.
    compute_end: Vec<f64>,
    /// End of each iteration (waitall satisfied).
    iter_end: Vec<f64>,
}

impl RankTrace {
    pub(crate) fn push_segment(&mut self, seg: Segment) {
        debug_assert!(seg.t1 >= seg.t0 - 1e-12, "segment reversed: {seg:?}");
        if let Some(last) = self.segments.last() {
            debug_assert!(
                seg.t0 >= last.t1 - 1e-9,
                "segments overlap: {last:?} then {seg:?}"
            );
        }
        // Skip zero-length segments (e.g. waitall already satisfied).
        if seg.t1 > seg.t0 {
            self.segments.push(seg);
        }
    }

    pub(crate) fn record_iter_start(&mut self, t: f64) {
        self.iter_start.push(t);
    }

    pub(crate) fn record_compute_end(&mut self, t: f64) {
        self.compute_end.push(t);
    }

    pub(crate) fn record_iter_end(&mut self, t: f64) {
        self.iter_end.push(t);
    }

    /// All segments, time-ordered.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Start time of iteration `k`.
    pub(crate) fn iter_start(&self, k: usize) -> f64 {
        self.iter_start[k]
    }

    /// Compute-phase end of iteration `k`.
    pub(crate) fn compute_end(&self, k: usize) -> f64 {
        self.compute_end[k]
    }

    /// End (waitall completion) of iteration `k`.
    pub fn iter_end(&self, k: usize) -> f64 {
        self.iter_end[k]
    }

    /// Number of completed iterations.
    pub(crate) fn n_iterations(&self) -> usize {
        self.iter_end.len()
    }

    /// Total time spent waiting (idle) across the run.
    pub fn total_wait(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Wait)
            .map(Segment::duration)
            .sum()
    }

    /// Total time spent computing.
    pub fn total_compute(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Compute)
            .map(Segment::duration)
            .sum()
    }

    /// Wait time inside iteration `k`.
    #[cfg(test)]
    pub(crate) fn wait_in_iter(&self, k: usize) -> f64 {
        self.iter_end(k) - self.compute_end(k)
    }
}

/// Complete trace of a simulated program run.
#[derive(Debug, Clone)]
pub struct SimTrace {
    ranks: Vec<RankTrace>,
    makespan: f64,
}

impl SimTrace {
    pub(crate) fn new(ranks: Vec<RankTrace>, makespan: f64) -> Self {
        Self { ranks, makespan }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Number of iterations (same for all ranks).
    pub fn n_iterations(&self) -> usize {
        self.ranks.first().map_or(0, RankTrace::n_iterations)
    }

    /// Per-rank timeline.
    pub fn rank(&self, r: usize) -> &RankTrace {
        &self.ranks[r]
    }

    /// All rank timelines.
    pub fn ranks(&self) -> &[RankTrace] {
        &self.ranks
    }

    /// Completion time of the whole run.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Start times of iteration `k` across ranks.
    pub fn iteration_starts(&self, k: usize) -> Vec<f64> {
        self.ranks.iter().map(|r| r.iter_start(k)).collect()
    }

    /// Compute-phase end times of iteration `k` across ranks (the
    /// "computational wavefront" coordinate, §5.1.2).
    #[cfg(test)]
    pub(crate) fn compute_ends(&self, k: usize) -> Vec<f64> {
        self.ranks.iter().map(|r| r.compute_end(k)).collect()
    }

    /// Max − min of iteration-`k` start times: 0 in perfect lockstep,
    /// macroscopic for a desynchronized wavefront.
    pub fn iteration_start_spread(&self, k: usize) -> f64 {
        let starts = self.iteration_starts(k);
        let lo = starts.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = starts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    /// Aggregate idle fraction of the run (Σ wait / (N × makespan)).
    #[cfg(test)]
    pub(crate) fn idle_fraction(&self) -> f64 {
        if self.makespan <= 0.0 || self.ranks.is_empty() {
            return 0.0;
        }
        let total_wait: f64 = self.ranks.iter().map(RankTrace::total_wait).sum();
        total_wait / (self.makespan * self.ranks.len() as f64)
    }

    /// Verify structural invariants (used by property tests): segments
    /// tile each rank's timeline without overlap, iterations are ordered,
    /// compute ends fall inside their iteration.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (r, rt) in self.ranks.iter().enumerate() {
            for w in rt.segments.windows(2) {
                if w[1].t0 < w[0].t1 - 1e-9 {
                    return Err(format!("rank {r}: overlapping segments"));
                }
            }
            for seg in &rt.segments {
                if seg.t1 < seg.t0 {
                    return Err(format!("rank {r}: reversed segment"));
                }
            }
            let n = rt.n_iterations();
            for k in 0..n {
                if rt.compute_end(k) < rt.iter_start(k) - 1e-9 {
                    return Err(format!("rank {r} iter {k}: compute ends before start"));
                }
                if rt.iter_end(k) < rt.compute_end(k) - 1e-9 {
                    return Err(format!("rank {r} iter {k}: iter ends before compute"));
                }
                if k > 0 && rt.iter_start(k) < rt.iter_end(k - 1) - 1e-9 {
                    return Err(format!("rank {r} iter {k}: starts before previous ends"));
                }
            }
            if let Some(last) = rt.iter_end.last() {
                if *last > self.makespan + 1e-9 {
                    return Err(format!("rank {r}: ends after makespan"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> SimTrace {
        let mut r0 = RankTrace::default();
        r0.record_iter_start(0.0);
        r0.push_segment(Segment {
            kind: SegmentKind::Compute,
            t0: 0.0,
            t1: 1.0,
            iter: 0,
        });
        r0.record_compute_end(1.0);
        r0.push_segment(Segment {
            kind: SegmentKind::Wait,
            t0: 1.0,
            t1: 1.5,
            iter: 0,
        });
        r0.record_iter_end(1.5);

        let mut r1 = RankTrace::default();
        r1.record_iter_start(0.0);
        r1.push_segment(Segment {
            kind: SegmentKind::Compute,
            t0: 0.0,
            t1: 1.4,
            iter: 0,
        });
        r1.record_compute_end(1.4);
        r1.record_iter_end(1.5); // waitall satisfied almost immediately
        SimTrace::new(vec![r0, r1], 1.5)
    }

    #[test]
    fn accessors() {
        let tr = sample_trace();
        assert_eq!(tr.n_ranks(), 2);
        assert_eq!(tr.n_iterations(), 1);
        assert_eq!(tr.makespan(), 1.5);
        assert_eq!(tr.rank(0).total_compute(), 1.0);
        assert_eq!(tr.rank(0).total_wait(), 0.5);
        assert!((tr.rank(1).wait_in_iter(0) - 0.1).abs() < 1e-12);
        assert_eq!(tr.iteration_starts(0), vec![0.0, 0.0]);
        assert_eq!(tr.compute_ends(0), vec![1.0, 1.4]);
        assert_eq!(tr.iteration_start_spread(0), 0.0);
    }

    #[test]
    fn idle_fraction() {
        let tr = sample_trace();
        // wait: 0.5 + 0 (r1 has no wait segment, sub-0.1 gap recorded via
        // iter_end only) over 2 × 1.5.
        assert!((tr.idle_fraction() - 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_segments_skipped() {
        let mut rt = RankTrace::default();
        rt.push_segment(Segment {
            kind: SegmentKind::Wait,
            t0: 1.0,
            t1: 1.0,
            iter: 0,
        });
        assert!(rt.segments().is_empty());
    }

    #[test]
    fn invariants_hold_for_sample() {
        assert!(sample_trace().check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_reversed_iteration() {
        let mut r0 = RankTrace::default();
        r0.record_iter_start(1.0);
        r0.record_compute_end(0.5); // compute "ends" before the start
        r0.record_iter_end(1.5);
        let tr = SimTrace::new(vec![r0], 2.0);
        assert!(tr.check_invariants().is_err());
    }
}
