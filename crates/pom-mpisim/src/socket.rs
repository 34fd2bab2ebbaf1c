//! Fluid memory-bandwidth sharing per socket.
//!
//! Compute phases of memory-bound kernels draw bandwidth from their
//! socket. Between discrete events the set of active "streams" is
//! constant, so each stream progresses linearly at its granted (max-min
//! fair) rate; the engine advances this fluid at every event and asks for
//! the next projected completion. A generation counter invalidates stale
//! completion events after the active set changes.

use pom_kernels::share_bandwidth;

/// Tolerance for "stream finished" comparisons, bytes.
const EPS_BYTES: f64 = 1e-3;

#[derive(Debug, Clone)]
struct Stream {
    rank: u32,
    /// Un-contended demand rate, bytes/s.
    demand: f64,
    /// Bytes still to transfer.
    remaining: f64,
}

/// Max-min-fair fluid state of one socket's memory interface.
#[derive(Debug, Clone)]
pub(crate) struct SocketFluid {
    capacity: f64,
    last_update: f64,
    generation: u64,
    streams: Vec<Stream>,
}

impl SocketFluid {
    /// A socket with the given saturated bandwidth (bytes/s).
    pub(crate) fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0 && capacity.is_finite());
        Self {
            capacity,
            last_update: 0.0,
            generation: 0,
            streams: Vec::new(),
        }
    }

    /// Current generation (bumped whenever the active set changes).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of active streams.
    #[cfg(test)]
    pub(crate) fn n_active(&self) -> usize {
        self.streams.len()
    }

    /// Granted rates for the current active set (same order as streams).
    fn rates(&self) -> Vec<f64> {
        let demands: Vec<f64> = self.streams.iter().map(|s| s.demand).collect();
        share_bandwidth(&demands, self.capacity).granted
    }

    /// Progress all streams from `last_update` to `t`.
    pub(crate) fn advance(&mut self, t: f64) {
        debug_assert!(t >= self.last_update - 1e-12, "time went backwards");
        let dt = (t - self.last_update).max(0.0);
        if dt > 0.0 && !self.streams.is_empty() {
            let rates = self.rates();
            for (s, r) in self.streams.iter_mut().zip(rates) {
                s.remaining = (s.remaining - r * dt).max(0.0);
            }
        }
        self.last_update = t;
    }

    /// Add a stream for `rank` at time `t` (the fluid is advanced first).
    /// Returns the new generation.
    pub(crate) fn add_stream(&mut self, t: f64, rank: u32, demand: f64, bytes: f64) -> u64 {
        debug_assert!(demand > 0.0 && bytes > 0.0);
        self.advance(t);
        debug_assert!(
            !self.streams.iter().any(|s| s.rank == rank),
            "rank {rank} already streaming"
        );
        self.streams.push(Stream {
            rank,
            demand,
            remaining: bytes,
        });
        self.generation += 1;
        self.generation
    }

    /// Remove and return the ranks whose streams are complete
    /// (`remaining ≈ 0`) at the current fluid time. Bumps the generation
    /// if anything was removed.
    pub(crate) fn take_completed(&mut self) -> Vec<u32> {
        let mut done = Vec::new();
        self.streams.retain(|s| {
            if s.remaining <= EPS_BYTES {
                done.push(s.rank);
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            self.generation += 1;
        }
        done
    }

    /// Projected time of the next stream completion given the current
    /// active set (no event ⇒ `None`).
    pub(crate) fn next_completion(&self) -> Option<f64> {
        if self.streams.is_empty() {
            return None;
        }
        let rates = self.rates();
        self.streams
            .iter()
            .zip(rates)
            .filter(|(_, r)| *r > 0.0)
            .map(|(s, r)| self.last_update + s.remaining / r)
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
    }

    /// Instantaneous aggregate granted bandwidth.
    #[cfg(test)]
    pub(crate) fn aggregate_rate(&self) -> f64 {
        self.rates().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_runs_at_demand() {
        let mut s = SocketFluid::new(68e9);
        s.add_stream(0.0, 0, 20e9, 40e9); // 2 s of work alone
        let done_at = s.next_completion().unwrap();
        assert!((done_at - 2.0).abs() < 1e-9);
        s.advance(2.0);
        assert_eq!(s.take_completed(), vec![0]);
        assert_eq!(s.n_active(), 0);
    }

    #[test]
    fn contended_streams_slow_down() {
        let mut s = SocketFluid::new(68e9);
        for r in 0..10 {
            s.add_stream(0.0, r, 20e9, 20e9); // 1 s alone
        }
        // Each granted 6.8 GB/s ⇒ 20e9 / 6.8e9 ≈ 2.94 s.
        let t = s.next_completion().unwrap();
        assert!((t - 20.0 / 6.8).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn stagger_finishes_in_demand_order() {
        let mut s = SocketFluid::new(30e9);
        s.add_stream(0.0, 0, 20e9, 20e9);
        s.add_stream(0.0, 1, 20e9, 40e9);
        // Fair share 15 GB/s each: rank 0 finishes at 4/3 s.
        let t0 = s.next_completion().unwrap();
        assert!((t0 - 20.0 / 15.0).abs() < 1e-9);
        s.advance(t0);
        assert_eq!(s.take_completed(), vec![0]);
        // Rank 1 transferred 20e9 of its 40e9 during the shared phase;
        // alone it runs at its full 20 GB/s demand and finishes the last
        // 20e9 one second later, at t = 4/3 + 1 = 7/3.
        let t1 = s.next_completion().unwrap();
        assert!((t1 - (20.0 / 15.0 + 1.0)).abs() < 1e-9, "t1 = {t1}");
    }

    #[test]
    fn generation_bumps_on_changes() {
        let mut s = SocketFluid::new(10e9);
        let g0 = s.generation();
        let g1 = s.add_stream(0.0, 0, 5e9, 5e9);
        assert!(g1 > g0);
        s.advance(1.0);
        let before = s.generation();
        assert_eq!(s.take_completed(), vec![0]);
        assert!(s.generation() > before);
        // No change ⇒ no bump.
        let g = s.generation();
        assert!(s.take_completed().is_empty());
        assert_eq!(s.generation(), g);
    }

    #[test]
    fn mid_flight_join_reshares() {
        let mut s = SocketFluid::new(20e9);
        s.add_stream(0.0, 0, 20e9, 20e9); // would finish at 1 s alone
        s.advance(0.5); // transferred 10e9, 10e9 left
        s.add_stream(0.5, 1, 20e9, 20e9);
        // Now 10 GB/s each: rank 0 needs 1 more second (finish 1.5);
        // rank 1 then holds 10e9 and, alone at its full 20 GB/s demand
        // (capped by the 20 GB/s socket), finishes at t = 2.0.
        let t = s.next_completion().unwrap();
        assert!((t - 1.5).abs() < 1e-9, "t = {t}");
        s.advance(1.5);
        assert_eq!(s.take_completed(), vec![0]);
        let t = s.next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn aggregate_rate_capped() {
        let mut s = SocketFluid::new(68e9);
        for r in 0..10 {
            s.add_stream(0.0, r, 20e9, 1e9);
        }
        assert!((s.aggregate_rate() - 68e9).abs() < 1.0);
    }

    #[test]
    fn empty_socket_has_no_completion() {
        let s = SocketFluid::new(1e9);
        assert_eq!(s.next_completion(), None);
        assert_eq!(s.aggregate_rate(), 0.0);
    }
}
