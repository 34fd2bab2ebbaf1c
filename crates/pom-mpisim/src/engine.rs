//! The discrete-event engine.
//!
//! A continuous-rate ("fluid") DES: between events every quantity evolves
//! linearly — computing ranks burn fixed in-core time and stream memory at
//! the max-min fair rate of their socket ([`crate::socket::SocketFluid`]).
//! Events are: in-core completion, projected memory completion (with
//! generation-stamped invalidation), eager message arrival, and rendezvous
//! completion. Each rank cycles through
//!
//! ```text
//! post Irecvs → compute (core ∥ memory) → post sends → Waitall → next iter
//! ```
//!
//! which is exactly the paper's toy-code structure (§4: `MPI_Irecv`,
//! `MPI_Send`, `MPI_Wait*`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

use pom_kernels::SocketSpec;
use pom_topology::{ClusterSpec, Placement};

use crate::program::{ProgramSpec, WorkSpec};
use crate::protocol::{MpiProtocol, MsgKey};
use crate::socket::SocketFluid;
use crate::trace::{RankTrace, Segment, SegmentKind, SimTrace};

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program description failed validation.
    InvalidProgram(String),
    /// Placement hosts fewer ranks than the program needs.
    PlacementMismatch {
        /// Ranks in the program.
        program_ranks: usize,
        /// Ranks in the placement.
        placement_ranks: usize,
    },
    /// The event queue drained before all ranks finished — a deadlock
    /// (should be impossible for valid programs; kept as a hard check).
    Stalled {
        /// Time of the last processed event.
        t: f64,
        /// Ranks that completed all iterations.
        finished_ranks: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            SimError::PlacementMismatch {
                program_ranks,
                placement_ranks,
            } => write!(
                f,
                "program has {program_ranks} ranks but the placement hosts {placement_ranks}"
            ),
            SimError::Stalled { t, finished_ranks } => write!(
                f,
                "simulation stalled at t = {t} with only {finished_ranks} ranks finished (deadlock)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EvKind {
    CoreDone {
        rank: u32,
        iter: u32,
    },
    MemCompletion {
        socket: u32,
        generation: u64,
    },
    MsgArrive {
        key: MsgKey,
    },
    RdvComplete {
        key: MsgKey,
    },
    /// All ranks reached the collective after iteration `iter`.
    BarrierRelease {
        iter: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Computing {
        core_done: bool,
        mem_done: bool,
    },
    Waiting,
    /// Blocked in a synchronizing collective after the given iteration.
    AtBarrier,
    Finished,
}

#[derive(Debug)]
struct RankState {
    iter: u32,
    phase: Phase,
    iter_start_t: f64,
    wait_start_t: f64,
    pending_recv: HashSet<MsgKey>,
    pending_send: usize,
}

/// Derive the kernel-model socket description from a cluster spec.
///
/// The cluster spec carries the saturated per-socket bandwidth; the
/// single-core concurrency limit is taken from published measurements for
/// the known presets and defaults to 30 % of saturation otherwise.
pub(crate) fn socket_spec_for(cluster: &ClusterSpec) -> SocketSpec {
    let single_core_bw = match cluster.name {
        "meggie" => 20.0e9,
        "supermuc-ng-like" => 14.0e9,
        _ => 0.3 * cluster.mem_bw_per_socket,
    };
    SocketSpec {
        freq: cluster.core_freq,
        cores: cluster.cores_per_socket,
        mem_bw: cluster.mem_bw_per_socket,
        single_core_bw,
    }
}

/// The simulator: a program bound to a placement, ready to run.
pub struct Simulator {
    program: ProgramSpec,
    placement: Placement,
    /// Per-iteration in-core time (before injections), seconds.
    core_time_base: f64,
    /// Per-iteration memory traffic, bytes.
    mem_bytes: f64,
    /// Un-contended per-rank bandwidth demand, bytes/s.
    demand: f64,
    /// Per-message transfer time on the link, seconds.
    transfer_time: f64,
}

impl Simulator {
    /// Bind `program` to `placement` (validates both).
    pub fn new(program: ProgramSpec, placement: Placement) -> Result<Self, SimError> {
        program.validate().map_err(SimError::InvalidProgram)?;
        if placement.n_ranks() < program.n_ranks {
            return Err(SimError::PlacementMismatch {
                program_ranks: program.n_ranks,
                placement_ranks: placement.n_ranks(),
            });
        }
        let socket_spec = socket_spec_for(placement.spec());
        let lups = match program.work {
            WorkSpec::Lups(l) => l,
            WorkSpec::TargetSeconds(s) => program.kernel.lups_for_duration(s, &socket_spec),
        };
        let core_time_base = program.kernel.core_time(lups, &socket_spec);
        let mem_bytes = lups * program.kernel.bytes_per_lup;
        let demand = program.kernel.bandwidth_demand(&socket_spec);
        let transfer_time = program.message_bytes as f64 / placement.spec().network.bandwidth;
        Ok(Self {
            program,
            placement,
            core_time_base,
            mem_bytes,
            demand,
            transfer_time,
        })
    }

    /// The effective per-iteration compute duration of an un-contended
    /// rank (the analog of the model's `t_comp`).
    #[cfg(test)]
    pub(crate) fn alone_compute_time(&self) -> f64 {
        if self.mem_bytes > 0.0 {
            self.core_time_base.max(self.mem_bytes / self.demand)
        } else {
            self.core_time_base
        }
    }

    /// Run the program to completion and return the trace.
    pub fn run(&self) -> Result<SimTrace, SimError> {
        Engine::new(self).run()
    }
}

/// Per-run mutable state.
struct Engine<'a> {
    sim: &'a Simulator,
    heap: BinaryHeap<Ev>,
    seq: u64,
    states: Vec<RankState>,
    traces: Vec<RankTrace>,
    sockets: Vec<SocketFluid>,
    arrived: HashSet<MsgKey>,
    recv_posted: HashMap<MsgKey, f64>,
    pending_rdv_send: HashMap<MsgKey, f64>,
    /// Collective rendezvous bookkeeping: iteration → (arrivals, latest).
    barrier: HashMap<u32, (usize, f64)>,
    finished: usize,
    makespan: f64,
}

impl<'a> Engine<'a> {
    fn new(sim: &'a Simulator) -> Self {
        let n = sim.program.n_ranks;
        let n_sockets = sim.placement.n_sockets();
        Engine {
            sim,
            // Outstanding events are O(ranks) at any instant (each rank
            // has at most a handful in flight); size the containers once.
            heap: BinaryHeap::with_capacity(8 * n),
            seq: 0,
            states: (0..n)
                .map(|_| RankState {
                    iter: 0,
                    phase: Phase::Computing {
                        core_done: false,
                        mem_done: true,
                    },
                    iter_start_t: 0.0,
                    wait_start_t: 0.0,
                    pending_recv: HashSet::new(),
                    pending_send: 0,
                })
                .collect(),
            traces: (0..n).map(|_| RankTrace::default()).collect(),
            sockets: (0..n_sockets)
                .map(|_| SocketFluid::new(sim.placement.spec().mem_bw_per_socket))
                .collect(),
            arrived: HashSet::with_capacity(4 * n),
            recv_posted: HashMap::with_capacity(4 * n),
            pending_rdv_send: HashMap::with_capacity(4 * n),
            barrier: HashMap::new(),
            finished: 0,
            makespan: 0.0,
        }
    }

    fn push(&mut self, t: f64, kind: EvKind) {
        self.seq += 1;
        self.heap.push(Ev {
            t,
            seq: self.seq,
            kind,
        });
    }

    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.sim.placement.latency(src, dst) + self.sim.transfer_time
    }

    fn run(mut self) -> Result<SimTrace, SimError> {
        for rank in 0..self.sim.program.n_ranks {
            self.start_iteration(rank, 0.0);
        }
        while let Some(ev) = self.heap.pop() {
            match ev.kind {
                EvKind::CoreDone { rank, iter } => self.on_core_done(rank as usize, iter, ev.t),
                EvKind::MemCompletion { socket, generation } => {
                    self.on_mem_completion(socket as usize, generation, ev.t)
                }
                EvKind::MsgArrive { key } => self.on_msg_delivered(key, ev.t),
                EvKind::RdvComplete { key } => self.on_rdv_complete(key, ev.t),
                EvKind::BarrierRelease { iter } => self.on_barrier_release(iter, ev.t),
            }
        }
        if self.finished != self.sim.program.n_ranks {
            return Err(SimError::Stalled {
                t: self.makespan,
                finished_ranks: self.finished,
            });
        }
        Ok(SimTrace::new(self.traces, self.makespan))
    }

    /// Post receives and start the compute phase of the current iteration.
    fn start_iteration(&mut self, rank: usize, t: f64) {
        let iter = self.states[rank].iter;
        self.traces[rank].record_iter_start(t);
        self.states[rank].iter_start_t = t;

        // Post the receives. For rendezvous, resolve senders already
        // blocked on our posting.
        if self.sim.program.protocol == MpiProtocol::Rendezvous {
            let partners = self.sim.program.recv_partners(rank);
            for j in partners {
                let key = MsgKey {
                    src: j as u32,
                    dst: rank as u32,
                    iter,
                };
                if let Some(_send_t) = self.pending_rdv_send.remove(&key) {
                    // Sender already posted: the handshake completes one
                    // latency after the later of the two postings = now.
                    let done = t + self.latency(j, rank);
                    self.push(done, EvKind::RdvComplete { key });
                } else {
                    self.recv_posted.insert(key, t);
                }
            }
        }

        // Start the compute phase.
        let extra = self.sim.program.extra_core_time(rank, iter as usize);
        let core_t = self.sim.core_time_base + extra;
        let mem_done = self.sim.mem_bytes <= 0.0;
        self.states[rank].phase = Phase::Computing {
            core_done: false,
            mem_done,
        };
        self.push(
            t + core_t,
            EvKind::CoreDone {
                rank: rank as u32,
                iter,
            },
        );
        if !mem_done {
            let s = self.sim.placement.socket_of(rank);
            let generation =
                self.sockets[s].add_stream(t, rank as u32, self.sim.demand, self.sim.mem_bytes);
            self.schedule_mem_completion(s, generation);
        }
    }

    fn schedule_mem_completion(&mut self, socket: usize, generation: u64) {
        if let Some(t_next) = self.sockets[socket].next_completion() {
            self.push(
                t_next,
                EvKind::MemCompletion {
                    socket: socket as u32,
                    generation,
                },
            );
        }
    }

    fn on_core_done(&mut self, rank: usize, iter: u32, t: f64) {
        let st = &mut self.states[rank];
        if st.iter != iter {
            return; // stale (cannot happen, but harmless)
        }
        if let Phase::Computing { mem_done, .. } = st.phase {
            st.phase = Phase::Computing {
                core_done: true,
                mem_done,
            };
            if mem_done {
                self.compute_phase_done(rank, t);
            }
        }
    }

    fn on_mem_completion(&mut self, socket: usize, generation: u64, t: f64) {
        if self.sockets[socket].generation() != generation {
            return; // stale projection
        }
        self.sockets[socket].advance(t);
        let completed = self.sockets[socket].take_completed();
        if completed.is_empty() {
            // Round-off pushed the completion marginally past the
            // projection; re-project from the current state.
            let gen = self.sockets[socket].generation();
            if let Some(t_next) = self.sockets[socket].next_completion() {
                let t_next = t_next.max(t + 1e-12);
                self.push(
                    t_next,
                    EvKind::MemCompletion {
                        socket: socket as u32,
                        generation: gen,
                    },
                );
            }
            return;
        }
        for r in &completed {
            let rank = *r as usize;
            let st = &mut self.states[rank];
            if let Phase::Computing { core_done, .. } = st.phase {
                st.phase = Phase::Computing {
                    core_done,
                    mem_done: true,
                };
                if core_done {
                    self.compute_phase_done(rank, t);
                }
            }
        }
        let gen = self.sockets[socket].generation();
        self.schedule_mem_completion(socket, gen);
    }

    /// Compute finished: record the segment, post sends, enter Waitall.
    fn compute_phase_done(&mut self, rank: usize, t: f64) {
        let iter = self.states[rank].iter;
        let start = self.states[rank].iter_start_t;
        self.traces[rank].push_segment(Segment {
            kind: SegmentKind::Compute,
            t0: start,
            t1: t,
            iter,
        });
        self.traces[rank].record_compute_end(t);

        // Post sends.
        let send_partners = self.sim.program.send_partners(rank);
        let mut pending_send = 0;
        for dst in send_partners {
            let key = MsgKey {
                src: rank as u32,
                dst: dst as u32,
                iter,
            };
            match self.sim.program.protocol {
                MpiProtocol::Eager => {
                    let arrive = t + self.latency(rank, dst);
                    self.push(arrive, EvKind::MsgArrive { key });
                }
                MpiProtocol::Rendezvous => {
                    pending_send += 1;
                    if let Some(recv_t) = self.recv_posted.remove(&key) {
                        debug_assert!(recv_t <= t + 1e-12);
                        let done = t + self.latency(rank, dst);
                        self.push(done, EvKind::RdvComplete { key });
                    } else {
                        self.pending_rdv_send.insert(key, t);
                    }
                }
            }
        }

        // Enter Waitall: collect outstanding receives. The rank's own set
        // is empty here (drained while it was waiting last iteration), so
        // recycling it reuses one allocation for the whole run instead of
        // allocating a set per rank per iteration.
        let mut pending_recv = std::mem::take(&mut self.states[rank].pending_recv);
        debug_assert!(pending_recv.is_empty());
        for j in self.sim.program.recv_partners(rank) {
            let key = MsgKey {
                src: j as u32,
                dst: rank as u32,
                iter,
            };
            if !self.arrived.remove(&key) {
                pending_recv.insert(key);
            }
        }
        let st = &mut self.states[rank];
        st.wait_start_t = t;
        st.pending_recv = pending_recv;
        st.pending_send = pending_send;
        if st.pending_recv.is_empty() && st.pending_send == 0 {
            self.end_iteration(rank, t);
        } else {
            st.phase = Phase::Waiting;
        }
    }

    /// A message reached its receiver (eager arrival or rendezvous
    /// completion acting on the receiver side).
    fn on_msg_delivered(&mut self, key: MsgKey, t: f64) {
        let dst = key.dst as usize;
        let st = &mut self.states[dst];
        if st.phase == Phase::Waiting && st.iter == key.iter && st.pending_recv.remove(&key) {
            if st.pending_recv.is_empty() && st.pending_send == 0 {
                self.end_iteration(dst, t);
            }
        } else {
            self.arrived.insert(key);
        }
    }

    fn on_rdv_complete(&mut self, key: MsgKey, t: f64) {
        // Sender side: one outstanding send retired.
        let src = key.src as usize;
        let st = &mut self.states[src];
        if st.iter == key.iter {
            debug_assert!(st.pending_send > 0 || st.phase != Phase::Waiting);
            st.pending_send = st.pending_send.saturating_sub(1);
            if st.phase == Phase::Waiting && st.pending_recv.is_empty() && st.pending_send == 0 {
                self.end_iteration(src, t);
            }
        }
        // Receiver side: the payload has landed.
        self.on_msg_delivered(key, t);
    }

    fn end_iteration(&mut self, rank: usize, t: f64) {
        let st = &mut self.states[rank];
        let iter = st.iter;
        let wait_start = st.wait_start_t;
        self.traces[rank].push_segment(Segment {
            kind: SegmentKind::Wait,
            t0: wait_start,
            t1: t,
            iter,
        });
        self.traces[rank].record_iter_end(t);
        self.makespan = self.makespan.max(t);

        let next = iter + 1;
        if (next as usize) >= self.sim.program.iterations {
            self.states[rank].phase = Phase::Finished;
            self.finished += 1;
            return;
        }
        // A synchronizing collective after every K-th iteration: the rank
        // blocks until all ranks arrived; release costs a log-tree of
        // inter-node latencies.
        if let Some(k) = self.sim.program.allreduce_every {
            if (iter as usize + 1).is_multiple_of(k) {
                let n = self.sim.program.n_ranks;
                self.states[rank].phase = Phase::AtBarrier;
                let entry = self.barrier.entry(iter).or_insert((0, t));
                entry.0 += 1;
                entry.1 = entry.1.max(t);
                if entry.0 == n {
                    let tree_hops = (n as f64).log2().ceil().max(1.0);
                    let release =
                        entry.1 + tree_hops * self.sim.placement.spec().network.latency_inter_node;
                    self.push(release, EvKind::BarrierRelease { iter });
                }
                return;
            }
        }
        self.states[rank].iter = next;
        self.start_iteration(rank, t);
    }

    fn on_barrier_release(&mut self, iter: u32, t: f64) {
        self.barrier.remove(&iter);
        self.makespan = self.makespan.max(t);
        for rank in 0..self.sim.program.n_ranks {
            debug_assert_eq!(self.states[rank].phase, Phase::AtBarrier);
            // The time between the rank's own arrival and the release is
            // collective wait time.
            let arrived_at = self.traces[rank].iter_end(iter as usize);
            self.traces[rank].push_segment(Segment {
                kind: SegmentKind::Wait,
                t0: arrived_at,
                t1: t,
                iter,
            });
            self.states[rank].iter = iter + 1;
            self.start_iteration(rank, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SimDelay;
    use pom_kernels::Kernel;

    fn meggie_placement(n: usize) -> Placement {
        Placement::packed(ClusterSpec::meggie(), n)
    }

    fn scalable(n: usize, iters: usize) -> ProgramSpec {
        ProgramSpec::new(n, iters)
            .kernel(Kernel::pisolver())
            .work(WorkSpec::TargetSeconds(1e-3))
    }

    fn memory_bound(n: usize, iters: usize) -> ProgramSpec {
        ProgramSpec::new(n, iters)
            .kernel(Kernel::stream_triad())
            .work(WorkSpec::TargetSeconds(1e-3))
    }

    #[test]
    fn single_rank_pure_compute() {
        let prog = ProgramSpec::new(1, 10)
            .kernel(Kernel::pisolver())
            .work(WorkSpec::TargetSeconds(2e-3));
        let sim = Simulator::new(prog, meggie_placement(1)).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.n_ranks(), 1);
        assert_eq!(trace.n_iterations(), 10);
        // No partners ⇒ no waiting; makespan = 10 × 2 ms.
        assert!((trace.makespan() - 0.02).abs() < 1e-9);
        assert_eq!(trace.rank(0).total_wait(), 0.0);
        trace.check_invariants().unwrap();
    }

    #[test]
    fn silent_scalable_system_stays_in_lockstep() {
        let sim = Simulator::new(scalable(20, 25), meggie_placement(20)).unwrap();
        let trace = sim.run().unwrap();
        trace.check_invariants().unwrap();
        for k in [0, 10, 24] {
            assert!(
                trace.iteration_start_spread(k) < 1e-5,
                "iter {k}: spread {}",
                trace.iteration_start_spread(k)
            );
        }
        // Each iteration costs compute + one message latency round.
        let per_iter = trace.makespan() / 25.0;
        assert!(per_iter > 1e-3 && per_iter < 1.1e-3, "per-iter {per_iter}");
    }

    #[test]
    fn one_off_delay_launches_an_idle_wave() {
        let delay = 5e-3; // 5 compute phases worth
        let prog = scalable(20, 20).inject(SimDelay {
            rank: 5,
            iteration: 3,
            extra_seconds: delay,
        });
        let sim = Simulator::new(prog, meggie_placement(20)).unwrap();
        let trace = sim.run().unwrap();
        trace.check_invariants().unwrap();

        // Baseline: unperturbed run.
        let base = Simulator::new(scalable(20, 20), meggie_placement(20))
            .unwrap()
            .run()
            .unwrap();

        // Eager ±1: the wave travels 1 rank per iteration in both
        // directions. Rank 5+r's iteration *end* is first delayed in
        // iteration 2+r: its waitall for that iteration consumes the late
        // message of rank 5+r−1 (rank 6 already stalls in iteration 3,
        // waiting on rank 5's delayed sends).
        for r in 1..6 {
            let rank = 5 + r;
            let before = trace.rank(rank).iter_end(1 + r) - base.rank(rank).iter_end(1 + r);
            let after = trace.rank(rank).iter_end(2 + r) - base.rank(rank).iter_end(2 + r);
            assert!(
                before.abs() < 1e-9,
                "rank {rank} disturbed too early: {before}"
            );
            assert!(after > 0.9 * delay, "rank {rank} not delayed: {after}");
        }
        // Total wait time records the idle wave (white → red in ITAC).
        assert!(trace.idle_fraction() > base.idle_fraction());
    }

    #[test]
    fn wave_direction_follows_dependency_sign_eager() {
        // D = {+1}: i receives from i+1 ⇒ a delay at rank 10 stalls ranks
        // below it, never above (eager sends don't block).
        let prog = scalable(20, 16).distances(vec![1]).inject(SimDelay {
            rank: 10,
            iteration: 2,
            extra_seconds: 4e-3,
        });
        let trace = Simulator::new(prog, meggie_placement(20))
            .unwrap()
            .run()
            .unwrap();
        let base = Simulator::new(scalable(20, 16).distances(vec![1]), meggie_placement(20))
            .unwrap()
            .run()
            .unwrap();
        // Below: delayed.
        let d9 = trace.rank(9).iter_end(3) - base.rank(9).iter_end(3);
        assert!(d9 > 3e-3, "rank 9 should feel the wave, delta {d9}");
        // Above: untouched through the whole run.
        for rank in 11..15 {
            let d = trace.rank(rank).iter_end(15) - base.rank(rank).iter_end(15);
            assert!(d.abs() < 1e-9, "rank {rank} wrongly delayed by {d}");
        }
    }

    #[test]
    fn rendezvous_propagates_waves_both_ways() {
        // Same D = {+1} but rendezvous: the delayed rank posts its next
        // receive late, which blocks its *upward* neighbor's send.
        let prog = scalable(20, 16)
            .distances(vec![1])
            .protocol(MpiProtocol::Rendezvous)
            .inject(SimDelay {
                rank: 10,
                iteration: 2,
                extra_seconds: 4e-3,
            });
        let trace = Simulator::new(prog, meggie_placement(20))
            .unwrap()
            .run()
            .unwrap();
        let base = Simulator::new(
            scalable(20, 16)
                .distances(vec![1])
                .protocol(MpiProtocol::Rendezvous),
            meggie_placement(20),
        )
        .unwrap()
        .run()
        .unwrap();
        let below = trace.rank(9).iter_end(10) - base.rank(9).iter_end(10);
        let above = trace.rank(11).iter_end(10) - base.rank(11).iter_end(10);
        assert!(below > 3e-3, "downward propagation missing: {below}");
        assert!(
            above > 3e-3,
            "upward (rendezvous) propagation missing: {above}"
        );
        trace.check_invariants().unwrap();
    }

    #[test]
    fn wider_stencil_spreads_waves_faster() {
        // D = {−2, −1, 1}: upward propagation 2 ranks/iter via the −2 leg.
        let mk = |inject: bool| {
            let mut p = scalable(30, 20).distances(vec![-2, -1, 1]);
            if inject {
                p = p.inject(SimDelay {
                    rank: 5,
                    iteration: 2,
                    extra_seconds: 4e-3,
                });
            }
            Simulator::new(p, meggie_placement(30))
                .unwrap()
                .run()
                .unwrap()
        };
        let trace = mk(true);
        let base = mk(false);
        // The −2 leg lets the wavefront jump 2 ranks per iteration: rank
        // 5+2r's iteration end is first disturbed at iteration 1+r (rank 7
        // already waits on rank 5's late iteration-2 sends).
        for r in 1..4 {
            let rank = 5 + 2 * r;
            let at = trace.rank(rank).iter_end(1 + r) - base.rank(rank).iter_end(1 + r);
            assert!(at > 3e-3, "rank {rank} iter {}: delta {at}", 1 + r);
            let before = trace.rank(rank).iter_end(r) - base.rank(rank).iter_end(r);
            assert!(
                before.abs() < 1e-9,
                "rank {rank} disturbed early by {before}"
            );
        }
    }

    #[test]
    fn memory_bound_lockstep_is_contended() {
        // 10 STREAM ranks on one socket in lockstep: every compute phase
        // is stretched by the demand/share ratio (20/6.8 ≈ 2.94).
        let sim = Simulator::new(memory_bound(10, 6), meggie_placement(10)).unwrap();
        let alone = sim.alone_compute_time();
        let trace = sim.run().unwrap();
        trace.check_invariants().unwrap();
        let stretched = trace.rank(0).compute_end(0) - trace.rank(0).iter_start(0);
        assert!(
            stretched > 2.5 * alone,
            "lockstep compute {stretched} vs alone {alone}"
        );
    }

    #[test]
    fn scalable_kernel_untouched_by_socket_sharing() {
        let sim = Simulator::new(scalable(10, 6), meggie_placement(10)).unwrap();
        let alone = sim.alone_compute_time();
        let trace = sim.run().unwrap();
        let actual = trace.rank(0).compute_end(0) - trace.rank(0).iter_start(0);
        assert!((actual - alone).abs() < 1e-12, "{actual} vs {alone}");
    }

    #[test]
    fn memory_bound_keeps_residual_wavefront_scalable_resyncs() {
        // Paper §5.1.2 / Fig. 2(b): after the idle wave has run out, a
        // bottlenecked program retains a *residual computational
        // wavefront*, while a scalable program returns to lockstep (the
        // whole system uniformly shifted by the absorbed delay). The
        // wavefront needs non-negligible communication time, so use 4 MB
        // messages (~0.3 ms on the 12.5 GB/s link).
        let run = |kernel| {
            let p = ProgramSpec::new(40, 60)
                .kernel(kernel)
                .work(WorkSpec::TargetSeconds(1e-3))
                .message_bytes(4_000_000)
                .inject(SimDelay {
                    rank: 5,
                    iteration: 5,
                    extra_seconds: 5e-3,
                });
            Simulator::new(p, meggie_placement(40))
                .unwrap()
                .run()
                .unwrap()
        };
        let mem = run(Kernel::stream_triad());
        let comp = run(Kernel::pisolver());
        mem.check_invariants().unwrap();
        comp.check_invariants().unwrap();
        // Long after the wave (iteration 50): the memory-bound run holds a
        // macroscopic stagger; the scalable run is tight again.
        let mem_spread = mem.iteration_start_spread(50);
        let comp_spread = comp.iteration_start_spread(50);
        assert!(
            mem_spread > 1e-3,
            "residual wavefront missing: {mem_spread}"
        );
        assert!(
            comp_spread < 5e-4,
            "scalable failed to resync: {comp_spread}"
        );
    }

    #[test]
    fn memory_bound_absorbs_injected_delay() {
        // Bottleneck evasion (§5.1.2): the same 5 ms injection that costs
        // a scalable run its full length is almost completely absorbed by
        // the bandwidth slack of a memory-bound run.
        let run = |kernel, inject: bool| {
            let mut p = ProgramSpec::new(20, 40)
                .kernel(kernel)
                .work(WorkSpec::TargetSeconds(1e-3));
            if inject {
                p = p.inject(SimDelay {
                    rank: 5,
                    iteration: 5,
                    extra_seconds: 5e-3,
                });
            }
            Simulator::new(p, meggie_placement(20))
                .unwrap()
                .run()
                .unwrap()
        };
        let comp_cost =
            run(Kernel::pisolver(), true).makespan() - run(Kernel::pisolver(), false).makespan();
        let mem_cost = run(Kernel::stream_triad(), true).makespan()
            - run(Kernel::stream_triad(), false).makespan();
        assert!(
            comp_cost > 4.5e-3,
            "scalable run pays the full delay: {comp_cost}"
        );
        assert!(
            mem_cost < 1e-3,
            "memory-bound run absorbs the delay: {mem_cost}"
        );
    }

    #[test]
    fn desynchronized_run_overlaps_comm_and_saves_time() {
        // Bottleneck evasion: inject a stagger into a memory-bound
        // program and compare per-iteration cost in steady state against
        // the lockstep run. The staggered run must not be slower.
        let lock = Simulator::new(memory_bound(10, 40), meggie_placement(10))
            .unwrap()
            .run()
            .unwrap();
        let mut staggered_prog = memory_bound(10, 40);
        for r in 0..10 {
            staggered_prog = staggered_prog.inject(SimDelay {
                rank: r,
                iteration: 0,
                extra_seconds: r as f64 * 3e-4,
            });
        }
        let stag = Simulator::new(staggered_prog, meggie_placement(10))
            .unwrap()
            .run()
            .unwrap();
        // Compare the cost of iterations 20..40 (past the transient).
        let cost = |tr: &SimTrace| {
            (0..10)
                .map(|r| tr.rank(r).iter_end(39) - tr.rank(r).iter_end(19))
                .fold(0.0f64, f64::max)
        };
        let lock_cost = cost(&lock);
        let stag_cost = cost(&stag);
        assert!(
            stag_cost <= lock_cost * 1.02,
            "staggered {stag_cost} should not exceed lockstep {lock_cost}"
        );
    }

    #[test]
    fn rejects_bad_configurations() {
        let prog = ProgramSpec::new(30, 5);
        assert!(matches!(
            Simulator::new(prog, meggie_placement(20)),
            Err(SimError::PlacementMismatch { .. })
        ));
        let bad = ProgramSpec::new(5, 0);
        assert!(matches!(
            Simulator::new(bad, meggie_placement(5)),
            Err(SimError::InvalidProgram(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = SimError::Stalled {
            t: 1.5,
            finished_ranks: 3,
        };
        assert!(e.to_string().contains("deadlock"));
        let e = SimError::PlacementMismatch {
            program_ranks: 30,
            placement_ranks: 20,
        };
        assert!(e.to_string().contains("30"));
    }

    #[test]
    fn collective_resynchronizes_the_wavefront() {
        // §6: frequently synchronizing programs cannot keep the
        // bottleneck-evading wavefront. Memory-bound run with a one-off
        // delay: barrier-free keeps macroscopic skew; with an allreduce
        // every 8 iterations the skew is wiped at each collective.
        let mk = |allreduce: Option<usize>| {
            let mut p = memory_bound(20, 40)
                .message_bytes(4_000_000)
                .inject(SimDelay {
                    rank: 5,
                    iteration: 5,
                    extra_seconds: 5e-3,
                });
            if let Some(k) = allreduce {
                p = p.allreduce_every(k);
            }
            Simulator::new(p, meggie_placement(20))
                .unwrap()
                .run()
                .unwrap()
        };
        let free = mk(None);
        let synced = mk(Some(8));
        synced.check_invariants().unwrap();
        // Iteration 32 starts right after the collective at iteration 31.
        assert!(
            synced.iteration_start_spread(32) < 1e-6,
            "collective must realign: {}",
            synced.iteration_start_spread(32)
        );
        assert!(
            free.iteration_start_spread(32) > 1e-3,
            "barrier-free keeps the wavefront: {}",
            free.iteration_start_spread(32)
        );
        // And the synchronized run pays for it in wall-clock time.
        assert!(
            synced.makespan() >= free.makespan(),
            "synced {} vs free {}",
            synced.makespan(),
            free.makespan()
        );
    }

    #[test]
    fn collective_adds_tree_latency_in_lockstep() {
        let base = Simulator::new(scalable(8, 8), meggie_placement(8))
            .unwrap()
            .run()
            .unwrap();
        let with_bar = Simulator::new(scalable(8, 8).allreduce_every(1), meggie_placement(8))
            .unwrap()
            .run()
            .unwrap();
        with_bar.check_invariants().unwrap();
        // 7 collectives (none after the final iteration), each ≥ 3 hops of
        // inter-node latency.
        let extra = with_bar.makespan() - base.makespan();
        assert!(extra > 0.0, "barriers cost time: {extra}");
    }

    #[test]
    fn rendezvous_and_eager_agree_without_disturbance() {
        // On a silent system the protocols produce the same lockstep
        // cadence (handshake costs the same single latency here).
        let eager = Simulator::new(scalable(12, 10), meggie_placement(12))
            .unwrap()
            .run()
            .unwrap();
        let rdv = Simulator::new(
            scalable(12, 10).protocol(MpiProtocol::Rendezvous),
            meggie_placement(12),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!((eager.makespan() - rdv.makespan()).abs() < 1e-6);
    }

    #[test]
    fn multi_socket_placement_charges_higher_latency() {
        // 20 ranks on 2 sockets: the socket-boundary pair (9, 10) pays the
        // inter-socket latency; interior pairs pay intra-socket.
        let sim = Simulator::new(scalable(20, 4), meggie_placement(20)).unwrap();
        let lat_in = sim.placement.latency(3, 4);
        let lat_x = sim.placement.latency(9, 10);
        assert!(lat_x > lat_in);
        // And the run still completes in lockstep-ish fashion (the slower
        // boundary link slows everyone within a few iterations).
        let trace = sim.run().unwrap();
        trace.check_invariants().unwrap();
    }
}
