//! Deterministic fault injection for the spool IO path.
//!
//! A [`FaultPlan`] is a pure function from a global IO-operation counter
//! to an optional [`FaultClass`]: the schedule is derived from a seed
//! with a splitmix64 finalizer, so a chaos run is reproducible from its
//! plan alone — no RNG state, no wall clock. The [`Faults`] handle is an
//! `Option<Arc<_>>`: production daemons run with [`Faults::disabled`],
//! where every injection point is a single `is_none` branch
//! (zero-cost-when-disabled), while chaos tests share one armed handle
//! across daemon restarts so the op counter — and therefore the schedule
//! — advances across sessions instead of replaying the same fault
//! forever.
//!
//! Fault classes split into two families:
//!
//! * **Crash-class** ([`FaultClass::TornWrite`], [`FaultClass::FsyncFail`],
//!   [`FaultClass::KillPoint`]) — the write fails *and* the kill flag is
//!   raised: the harness must stop the daemon with
//!   [`crate::StopMode::Abort`] and restart it, exactly like a power cut.
//!   A torn write persists a prefix of the row line first (the scanner's
//!   truncate-and-resume path); a failed fsync leaves durability unknown,
//!   which this codebase — like databases that learned the lesson the
//!   hard way — treats as fatal rather than retryable. Crash injections
//!   stop after [`FaultPlan::max_kills`], so every chaos run terminates.
//! * **Survivable** ([`FaultClass::ShortRead`], [`FaultClass::EagainStorm`])
//!   — injected on the recovery read path, where short reads are legal
//!   under the `Read` contract and `EAGAIN` bursts must be retried; the
//!   daemon absorbs them without any externally visible effect.
//!
//! Every injection increments the
//! `pom_serve_faults_injected_total{class=…}` counter, so `/metrics`
//! shows a chaos campaign actually exercised the plan.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A row write persists only a prefix of the line, then fails; the
    /// kill flag is raised (power-cut semantics).
    TornWrite,
    /// A read returns fewer bytes than asked — legal under `Read`, fatal
    /// to code that assumes full reads.
    ShortRead,
    /// A burst of would-block conditions before a read succeeds.
    EagainStorm,
    /// `flush` fails after the bytes were handed to the OS; treated as
    /// fatal (kill flag raised) because durability is unknown.
    FsyncFail,
    /// A clean kill at an IO boundary: nothing written, kill flag raised.
    KillPoint,
}

/// Every class, for harnesses that iterate per-class plans.
pub const FAULT_CLASSES: [FaultClass; 5] = [
    FaultClass::TornWrite,
    FaultClass::ShortRead,
    FaultClass::EagainStorm,
    FaultClass::FsyncFail,
    FaultClass::KillPoint,
];

impl FaultClass {
    /// Metric-label name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::TornWrite => "torn_write",
            FaultClass::ShortRead => "short_read",
            FaultClass::EagainStorm => "eagain_storm",
            FaultClass::FsyncFail => "fsync_fail",
            FaultClass::KillPoint => "kill_point",
        }
    }

    /// True when the injection demands a daemon kill + restart.
    pub fn is_crash(self) -> bool {
        matches!(
            self,
            FaultClass::TornWrite | FaultClass::FsyncFail | FaultClass::KillPoint
        )
    }
}

/// splitmix64 finalizer: a cheap, well-mixed hash for schedule derivation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, seed-derived fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Schedule seed; same seed → same schedule.
    pub seed: u64,
    /// Roughly one injection per `period` IO operations (≥ 1).
    pub period: u64,
    /// Crash-class injections stop after this many kills, so a harness
    /// that restarts the daemon after each kill always terminates.
    pub max_kills: u64,
    /// Restrict the schedule to a single class (`None` = all five).
    pub only: Option<FaultClass>,
}

impl FaultPlan {
    /// A mixed-class plan with defaults tuned for small chaos campaigns.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            period: 4,
            max_kills: 3,
            only: None,
        }
    }

    /// A plan injecting only one fault class.
    pub fn only(class: FaultClass, seed: u64) -> Self {
        Self {
            only: Some(class),
            ..Self::from_seed(seed)
        }
    }

    /// The fault scheduled for global IO op `op`, if any. Pure function
    /// of `(plan, op)` — this is what makes a chaos run replayable.
    pub(crate) fn at(&self, op: u64) -> Option<FaultClass> {
        let r = mix(self.seed ^ mix(op));
        if !r.is_multiple_of(self.period.max(1)) {
            return None;
        }
        Some(match self.only {
            Some(class) => class,
            None => FAULT_CLASSES[((r / 7) % FAULT_CLASSES.len() as u64) as usize],
        })
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Global IO-op counter, shared across daemon restarts.
    ops: AtomicU64,
    kills_done: AtomicU64,
    kill_flag: AtomicBool,
}

/// Shared fault-injection handle. Clones share one schedule state, so a
/// harness can keep the handle across daemon restarts. The disabled
/// handle ([`Faults::disabled`], also `Default`) injects nothing and
/// costs one branch per IO call.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    state: Option<Arc<FaultState>>,
}

impl Faults {
    /// No injection — the production configuration.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Arm a plan.
    pub fn plan(plan: FaultPlan) -> Self {
        Self {
            state: Some(Arc::new(FaultState {
                plan,
                ops: AtomicU64::new(0),
                kills_done: AtomicU64::new(0),
                kill_flag: AtomicBool::new(false),
            })),
        }
    }

    /// True when a plan is armed.
    #[cfg(test)]
    pub(crate) fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// True once a crash-class fault fired: the harness must stop the
    /// daemon with `StopMode::Abort` and restart it over the same spool.
    pub fn kill_requested(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|s| s.kill_flag.load(Ordering::SeqCst))
    }

    /// Re-arm after the harness restarted the daemon.
    pub fn clear_kill(&self) {
        if let Some(s) = &self.state {
            s.kill_flag.store(false, Ordering::SeqCst);
        }
    }

    /// Crash-class faults injected so far (bounded by the plan's
    /// `max_kills`).
    #[cfg(test)]
    pub(crate) fn injected_kills(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.kills_done.load(Ordering::SeqCst))
    }

    /// Consume one IO op from the schedule; returns the fault to apply,
    /// already filtered for the path (`write_path` decides which classes
    /// are meaningful) and for the kill budget.
    fn next(&self, write_path: bool) -> Option<FaultClass> {
        let st = self.state.as_ref()?;
        let op = st.ops.fetch_add(1, Ordering::Relaxed);
        let class = st.plan.at(op)?;
        let applicable = match class {
            FaultClass::TornWrite | FaultClass::FsyncFail | FaultClass::KillPoint => write_path,
            FaultClass::ShortRead | FaultClass::EagainStorm => !write_path,
        };
        if !applicable {
            return None;
        }
        if class.is_crash() {
            if st.kills_done.load(Ordering::SeqCst) >= st.plan.max_kills {
                return None; // budget spent: let the campaign finish
            }
            st.kills_done.fetch_add(1, Ordering::SeqCst);
            st.kill_flag.store(true, Ordering::SeqCst);
        }
        if pom_obs::enabled() {
            pom_obs::registry()
                .counter_with(
                    "pom_serve_faults_injected_total",
                    "Faults injected into the spool IO path, by class.",
                    &[("class", class.as_str())],
                )
                .inc();
        }
        Some(class)
    }

    /// Wrap a results-file handle so the plan can tear its writes.
    pub(crate) fn wrap(&self, file: fs::File) -> SpoolFile {
        SpoolFile {
            file,
            faults: self.clone(),
        }
    }

    /// Read a whole file through the fault layer. Injected short reads
    /// are absorbed by the loop (they are legal), and would-block storms
    /// are retried with a bound — exactly the tolerance the recovery
    /// path promises.
    pub(crate) fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let mut f = fs::File::open(path)?;
        if self.state.is_none() {
            let mut s = String::new();
            f.read_to_string(&mut s)?;
            return Ok(s);
        }
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut storm = 0u32;
        loop {
            let want = match self.next(false) {
                Some(FaultClass::ShortRead) => 1,
                Some(FaultClass::EagainStorm) if storm < 32 => {
                    storm += 1; // transient would-block: retry the op
                    continue;
                }
                _ => chunk.len(),
            };
            storm = 0;
            let n = f.read(&mut chunk[..want])?;
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8(out)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// A results-file handle routed through the fault layer. With faults
/// disabled this is a transparent passthrough to the inner [`fs::File`].
#[derive(Debug)]
pub(crate) struct SpoolFile {
    file: fs::File,
    faults: Faults,
}

impl Write for SpoolFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.faults.next(true) {
            Some(FaultClass::TornWrite) => {
                // Persist a prefix — the on-disk state a power cut leaves
                // behind mid-write — then fail the call.
                if buf.len() > 1 {
                    self.file.write_all(&buf[..buf.len() / 2])?;
                    let _ = self.file.flush();
                }
                Err(injected("torn write"))
            }
            Some(FaultClass::KillPoint) => Err(injected("kill point")),
            _ => self.file.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.faults.next(true) {
            Some(FaultClass::FsyncFail) => Err(injected("fsync failure")),
            _ => self.file.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        let c = FaultPlan::from_seed(8);
        let fire_a: Vec<_> = (0..256).map(|op| a.at(op)).collect();
        let fire_b: Vec<_> = (0..256).map(|op| b.at(op)).collect();
        let fire_c: Vec<_> = (0..256).map(|op| c.at(op)).collect();
        assert_eq!(fire_a, fire_b, "same seed must replay the same schedule");
        assert_ne!(fire_a, fire_c, "different seeds must diverge");
        // Roughly one op in `period` fires.
        let n = fire_a.iter().flatten().count();
        assert!((32..=96).contains(&n), "{n} injections in 256 ops");
    }

    #[test]
    fn mixed_plans_reach_every_class() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            let plan = FaultPlan::from_seed(seed);
            for op in 0..512 {
                if let Some(c) = plan.at(op) {
                    seen.insert(c.as_str());
                }
            }
        }
        assert_eq!(seen.len(), FAULT_CLASSES.len(), "{seen:?}");
    }

    #[test]
    fn crash_faults_respect_the_kill_budget() {
        let faults = Faults::plan(FaultPlan {
            seed: 3,
            period: 1, // every op faults
            max_kills: 2,
            only: Some(FaultClass::KillPoint),
        });
        let path = std::env::temp_dir().join(format!("pom-faults-{}", std::process::id()));
        let mut f = faults.wrap(fs::File::create(&path).unwrap());
        let mut failures = 0;
        for _ in 0..8 {
            if f.write(b"row\n").is_err() {
                failures += 1;
                assert!(faults.kill_requested());
                faults.clear_kill();
            }
        }
        assert_eq!(failures, 2, "kill budget must cap crash injections");
        assert_eq!(faults.injected_kills(), 2);
        assert!(!faults.kill_requested());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn faulted_reads_still_return_exact_bytes() {
        let path = std::env::temp_dir().join(format!("pom-faults-read-{}", std::process::id()));
        let body: String = (0..200).map(|i| format!("line {i}\n")).collect();
        fs::write(&path, &body).unwrap();
        let faults = Faults::plan(FaultPlan {
            seed: 11,
            period: 2,
            max_kills: 0,
            only: None,
        });
        // Short reads and EAGAIN storms must be absorbed losslessly.
        assert_eq!(faults.read_to_string(&path).unwrap(), body);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn disabled_handle_is_transparent() {
        let faults = Faults::disabled();
        assert!(!faults.enabled());
        assert!(!faults.kill_requested());
        let path = std::env::temp_dir().join(format!("pom-faults-off-{}", std::process::id()));
        let mut f = faults.wrap(fs::File::create(&path).unwrap());
        f.write_all(b"hello\n").unwrap();
        f.flush().unwrap();
        assert_eq!(faults.read_to_string(&path).unwrap(), "hello\n");
        let _ = fs::remove_file(&path);
    }
}
