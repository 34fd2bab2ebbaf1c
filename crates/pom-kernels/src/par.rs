//! A hand-rolled fork–join pool for chunked data-parallel loops.
//!
//! The oscillator-model right-hand side is evaluated four times per RK4
//! step, millions of steps per run; at continuum-scale `N` (10⁴–10⁶
//! oscillators) a single evaluation is itself worth parallelizing. Spawning
//! scoped threads *per evaluation* would cost more than the work, so
//! [`ChunkPool`] keeps a fixed set of workers parked on a condvar and
//! hands them one job at a time: split `0..n_items` into one contiguous
//! range per participant and run a caller closure on each range
//! concurrently. The calling thread participates (it takes slot 0), so a
//! pool of `t` threads spawns `t − 1` workers.
//!
//! The design mirrors the `pom-sweep` campaign executor (plain `std`
//! threads, mutex + condvar, no external dependencies) scaled down to
//! microsecond-sized jobs: one notify-all to start, one counter to finish,
//! no per-item channel traffic. Back-to-back jobs (the stages of one RK4
//! step) arrive a few microseconds apart, faster than a condvar wake-up,
//! so both sides spin briefly on atomic mirrors of the job counters
//! before they sleep: a worker for [`SPIN`] after its chunk, the caller
//! for the same bound after its own. The mutex and the condvars stay the
//! source of truth; the mirrors only decide when to take the lock.
//!
//! Chunk boundaries depend only on `(n_items, threads)`, never on timing,
//! so any split-by-rows computation that is deterministic per row is
//! deterministic under the pool.
//!
//! ```
//! use pom_kernels::{ChunkPool, DisjointSliceMut};
//!
//! let pool = ChunkPool::new(2);
//! let mut out = vec![0.0f64; 1000];
//! let shared = DisjointSliceMut::new(&mut out);
//! pool.run(1000, &|_slot, range| {
//!     // SAFETY: `run` hands each slot a disjoint range of `0..n_items`.
//!     let chunk = unsafe { shared.range_mut(range.clone()) };
//!     for (k, v) in chunk.iter_mut().enumerate() {
//!         *v = (range.start + k) as f64;
//!     }
//! });
//! assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker spins for the next job, and the caller for the
/// workers' chunks, before sleeping on a condvar.
const SPIN: Duration = Duration::from_micros(50);

struct PoolMetrics {
    jobs: Arc<pom_obs::Counter>,
    items: Arc<pom_obs::Counter>,
    busy_us: Arc<pom_obs::Counter>,
    imbalance_us: Arc<pom_obs::Histogram>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pom_obs::registry();
        PoolMetrics {
            jobs: r.counter(
                "pom_kernels_pool_jobs_total",
                "Fork\u{2013}join jobs dispatched.",
            ),
            items: r.counter(
                "pom_kernels_pool_items_total",
                "Items covered by dispatched jobs.",
            ),
            busy_us: r.counter(
                "pom_kernels_pool_busy_us_total",
                "Per-slot busy time summed over all slots and jobs.",
            ),
            imbalance_us: r.histogram(
                "pom_kernels_pool_imbalance_us",
                "Per-job fork\u{2013}join imbalance: busiest minus idlest slot.",
            ),
        }
    })
}

/// Type-erased job descriptor handed from [`ChunkPool::run`] to workers.
///
/// The closure pointer's lifetime is erased; soundness rests on `run` not
/// returning until every worker has finished with the job (see the
/// `remaining` accounting below).
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize, Range<usize>) + Sync),
    n_items: usize,
    slots: usize,
}

// SAFETY: the raw closure pointer is only dereferenced by workers between
// job pickup and their `remaining` decrement, and `run` blocks until
// `remaining == 0` — the referent outlives every dereference.
unsafe impl Send for Job {}

struct State {
    /// Monotonic job counter; a worker runs each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current epoch's chunk.
    remaining: usize,
    /// Set when a worker's chunk panicked; `run` re-panics on the caller.
    panicked: bool,
    shutdown: bool,
    /// Workers blocked on `work`: a post with none skips the notify.
    sleeping: usize,
    /// The caller is blocked on `done`.
    caller_sleeping: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new job posted (or shutdown).
    work: Condvar,
    /// Signals the caller: all workers done with the current job.
    done: Condvar,
    /// Mirrors of `State::epoch`, `State::remaining` and
    /// `State::shutdown`, written under the mutex and read by spinners.
    /// A spinner that sees a change still takes the mutex before acting
    /// on it; the `Release` stores and `Acquire` loads order the job and
    /// the chunks' writes for a spinner that has not taken it yet.
    epoch: AtomicU64,
    remaining: AtomicUsize,
    shutdown: AtomicBool,
}

/// Spin until `ready()` holds or [`SPIN`] has passed.
fn spin_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    // Read the clock once per batch of polls, not on every poll.
    while start.elapsed() < SPIN {
        for _ in 0..64 {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// Fixed pool of parked worker threads executing chunked loops.
///
/// Create once (it spawns `threads − 1` OS threads) and call
/// [`ChunkPool::run`] as often as needed; dropping the pool joins the
/// workers. With `threads <= 1` the pool spawns nothing and `run` executes
/// the whole range inline.
pub struct ChunkPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Per-slot busy time of the current job (instrumented runs only),
    /// allocated once so that a dispatch allocates nothing.
    busy_us: Box<[AtomicU64]>,
    /// Serializes concurrent [`ChunkPool::run`] callers: the pool is held
    /// through `&self` by types that are themselves `Sync` (a model's RHS
    /// runs through `&self`), so two threads may legally call `run` at
    /// once — the second simply waits for the first job to drain instead
    /// of corrupting the job slot.
    run_gate: Mutex<()>,
}

impl std::fmt::Debug for ChunkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// The contiguous range of slot `slot` when `0..n_items` is split into
/// `slots` near-equal chunks (earlier slots take the remainder).
fn chunk_range(slot: usize, slots: usize, n_items: usize) -> Range<usize> {
    let base = n_items / slots;
    let rem = n_items % slots;
    let start = slot * base + slot.min(rem);
    let len = base + usize::from(slot < rem);
    start..start + len
}

impl ChunkPool {
    /// Build a pool executing jobs on `threads` participants (the caller
    /// plus `threads − 1` spawned workers).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
                sleeping: 0,
                caller_sleeping: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads.max(1))
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, slot))
            })
            .collect();
        Self {
            shared,
            workers,
            busy_us: (0..threads.max(1)).map(|_| AtomicU64::new(0)).collect(),
            run_gate: Mutex::new(()),
        }
    }

    /// Total participants (caller + workers).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Execute `f(slot, range)` once per participant, with the ranges
    /// forming a disjoint cover of `0..n_items` (a slot's range may be
    /// empty when `n_items < threads`). Blocks until every participant has
    /// finished; panics from any chunk propagate to the caller.
    ///
    /// Safe to call from several threads at once: concurrent calls are
    /// serialized (each job runs alone on the pool).
    pub fn run(&self, n_items: usize, f: &(dyn Fn(usize, Range<usize>) + Sync)) {
        let instrumented = pom_obs::enabled();
        if self.workers.is_empty() || n_items == 0 {
            let t0 = instrumented.then(Instant::now);
            f(0, 0..n_items);
            if let Some(t0) = t0 {
                record_job(n_items, [t0.elapsed().as_micros() as u64]);
            }
            return;
        }
        // One job at a time. A poisoned gate (a previous caller panicked
        // after its job fully drained — see the unwind handling in
        // `dispatch`) is recovered, not propagated: the pool state is
        // consistent.
        let _gate = match self.run_gate.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !instrumented {
            return self.dispatch(n_items, f);
        }
        // Instrumented path: one clock pair per slot per job (never per
        // item), into the pool's own counters, read under the gate.
        let busy = &self.busy_us;
        self.dispatch(n_items, &|slot: usize, range: Range<usize>| {
            let t0 = Instant::now();
            f(slot, range);
            busy[slot].store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        });
        record_job(n_items, busy.iter().map(|b| b.load(Ordering::Relaxed)));
    }

    /// Post one job to the workers, run slot 0 on the caller, and wait
    /// for every chunk. The caller holds `run_gate`.
    fn dispatch(&self, n_items: usize, f: &(dyn Fn(usize, Range<usize>) + Sync)) {
        let slots = self.threads();
        let shared = &*self.shared;
        {
            let mut st = shared.state.lock().expect("pool mutex");
            st.epoch += 1;
            // SAFETY: pure lifetime erasure (`&'a dyn …` → `*const dyn …`);
            // the wait on `remaining` below keeps the referent alive for
            // every dereference.
            let f: *const (dyn Fn(usize, Range<usize>) + Sync) = unsafe { std::mem::transmute(f) };
            st.job = Some(Job { f, n_items, slots });
            st.remaining = self.workers.len();
            st.panicked = false;
            // Only this caller reads `remaining` before the workers
            // decrement it; the `epoch` store publishes the job.
            shared.remaining.store(st.remaining, Ordering::Relaxed);
            shared.epoch.store(st.epoch, Ordering::Release);
            if st.sleeping > 0 {
                shared.work.notify_all();
            }
        }
        // The caller takes slot 0. Run it under catch_unwind so that even
        // if this chunk panics we still wait for the workers (whose borrow
        // of `f` must not outlive this frame) before resuming the panic.
        let mine = catch_unwind(AssertUnwindSafe(|| f(0, chunk_range(0, slots, n_items))));
        spin_until(|| shared.remaining.load(Ordering::Acquire) == 0);
        let panicked = {
            let mut st = shared.state.lock().expect("pool mutex");
            while st.remaining > 0 {
                st.caller_sleeping = true;
                st = shared.done.wait(st).expect("pool mutex");
                st.caller_sleeping = false;
            }
            st.job = None;
            st.panicked
        };
        match mine {
            Err(payload) => resume_unwind(payload),
            Ok(()) if panicked => panic!("ChunkPool worker chunk panicked"),
            Ok(()) => {}
        }
    }
}

/// Count one job and its per-slot busy times.
fn record_job(n_items: usize, busy_us: impl IntoIterator<Item = u64>) {
    let m = pool_metrics();
    m.jobs.inc();
    m.items.add(n_items as u64);
    let (mut lo, mut hi, mut sum) = (u64::MAX, 0u64, 0u64);
    for v in busy_us {
        lo = lo.min(v);
        hi = hi.max(v);
        sum += v;
    }
    m.busy_us.add(sum);
    m.imbalance_us.observe(hi - lo);
}

impl Drop for ChunkPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool mutex");
            st.shutdown = true;
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen = 0u64;
    loop {
        spin_until(|| {
            shared.epoch.load(Ordering::Acquire) != seen || shared.shutdown.load(Ordering::Acquire)
        });
        let job = {
            let mut st = shared.state.lock().expect("pool mutex");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st.sleeping += 1;
                st = shared.work.wait(st).expect("pool mutex");
                st.sleeping -= 1;
            }
        };
        // SAFETY: `run` blocks until `remaining` reaches zero, which
        // happens only after this call returns — the closure is alive.
        let f = unsafe { &*job.f };
        let result = catch_unwind(AssertUnwindSafe(|| {
            f(slot, chunk_range(slot, job.slots, job.n_items))
        }));
        let mut st = shared.state.lock().expect("pool mutex");
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        shared.remaining.store(st.remaining, Ordering::Release);
        if st.remaining == 0 && st.caller_sleeping {
            shared.done.notify_one();
        }
    }
}

/// A mutable slice shareable across the pool's participants, on the
/// caller's promise that concurrently accessed ranges are disjoint.
///
/// [`ChunkPool::run`] guarantees the ranges it hands out are disjoint, so a
/// chunk closure may safely reborrow its own range:
/// `unsafe { shared.range_mut(range) }`.
pub struct DisjointSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is restricted to disjoint ranges (the contract of
// `range_mut`), so concurrent use from multiple threads cannot alias.
unsafe impl<T: Send> Send for DisjointSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSliceMut<'_, T> {}

impl<'a, T> DisjointSliceMut<'a, T> {
    /// Wrap a slice for disjoint-range sharing.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Reborrow `range` of the underlying slice mutably.
    ///
    /// # Safety
    /// No two live borrows obtained from this wrapper (on any thread) may
    /// overlap, and `range` must lie within the wrapped slice. Ranges handed
    /// out by [`ChunkPool::run`] satisfy the disjointness requirement.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_cover_disjointly() {
        for &(slots, n) in &[(1usize, 7usize), (3, 10), (4, 3), (5, 0), (2, 100)] {
            let mut covered = vec![0u32; n];
            let mut prev_end = 0;
            for s in 0..slots {
                let r = chunk_range(s, slots, n);
                assert_eq!(r.start, prev_end, "slots {slots}, n {n}");
                prev_end = r.end;
                for i in r {
                    covered[i] += 1;
                }
            }
            assert_eq!(prev_end, n);
            assert!(covered.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ChunkPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0usize; 17];
        let shared = DisjointSliceMut::new(&mut out);
        pool.run(17, &|slot, range| {
            assert_eq!(slot, 0);
            let chunk = unsafe { shared.range_mut(range.clone()) };
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = range.start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn multi_thread_pool_covers_every_item_once() {
        let pool = ChunkPool::new(4);
        assert_eq!(pool.threads(), 4);
        let n = 1003;
        let mut out = vec![0u32; n];
        let shared = DisjointSliceMut::new(&mut out);
        // Repeated runs reuse the same parked workers.
        for round in 0..50u32 {
            pool.run(n, &|_slot, range| {
                let chunk = unsafe { shared.range_mut(range) };
                for v in chunk {
                    *v += round + 1;
                }
            });
        }
        let expect: u32 = (1..=50).sum();
        assert!(out.iter().all(|&v| v == expect), "some item missed a round");
    }

    #[test]
    fn fewer_items_than_threads() {
        let pool = ChunkPool::new(8);
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_slot, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        pool.run(0, &|_slot, range| {
            assert!(range.is_empty());
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ChunkPool::new(3);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, &|_slot, range| {
                if range.contains(&99) {
                    panic!("chunk failure");
                }
            });
        }));
        assert!(res.is_err(), "panic must propagate to the caller");
        // The pool remains usable after a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(10, &|_slot, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_run_calls_are_serialized() {
        // The pool is reachable through `&self` from `Sync` owners, so two
        // threads may issue jobs at once; each job must still cover its
        // own range exactly once.
        let pool = ChunkPool::new(3);
        let n = 4001;
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        for _ in 0..50 {
                            let hits = AtomicUsize::new(0);
                            pool.run(n, &|_slot, range| {
                                hits.fetch_add(range.len(), Ordering::Relaxed);
                            });
                            assert_eq!(hits.load(Ordering::Relaxed), n);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    /// Cover `0..n` once and check every item was hit exactly once.
    fn covers_once(pool: &ChunkPool, n: usize) {
        let hits = AtomicUsize::new(0);
        pool.run(n, &|_slot, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }

    #[test]
    fn job_reaches_workers_asleep_past_the_spin_bound() {
        let pool = ChunkPool::new(3);
        covers_once(&pool, 100);
        // Wait until both workers have given up spinning and sleep on
        // the condvar: the next post must wake them through it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.shared.state.lock().unwrap().sleeping < 2 {
            assert!(Instant::now() < deadline, "workers never went to sleep");
            std::thread::sleep(SPIN);
        }
        covers_once(&pool, 100);
    }

    #[test]
    fn worker_panic_in_a_spin_woken_job_propagates() {
        let pool = ChunkPool::new(2);
        for _ in 0..20 {
            // Back to back: the worker is still spinning on the epoch.
            covers_once(&pool, 10);
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(10, &|slot, _range| {
                    if slot == 1 {
                        panic!("worker chunk failure");
                    }
                });
            }));
            assert!(res.is_err(), "panic must propagate to the caller");
        }
        covers_once(&pool, 10);
    }

    #[test]
    fn dropping_a_pool_with_spinning_workers_joins_promptly() {
        for _ in 0..20 {
            let pool = ChunkPool::new(4);
            covers_once(&pool, 64);
            // The workers are still spinning on the epoch mirror:
            // `drop` must stop and join them while they spin.
            let t0 = Instant::now();
            drop(pool);
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "drop took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn results_deterministic_across_thread_counts() {
        let n = 257;
        let compute = |threads: usize| -> Vec<f64> {
            let pool = ChunkPool::new(threads);
            let mut out = vec![0.0f64; n];
            let shared = DisjointSliceMut::new(&mut out);
            pool.run(n, &|_slot, range| {
                let chunk = unsafe { shared.range_mut(range.clone()) };
                for (k, v) in chunk.iter_mut().enumerate() {
                    let i = range.start + k;
                    *v = (i as f64 * 0.37).sin() * (i as f64).sqrt();
                }
            });
            out
        };
        let one = compute(1);
        for threads in [2, 3, 5] {
            assert_eq!(one, compute(threads), "threads = {threads}");
        }
    }
}
