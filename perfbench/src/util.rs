//! Seeded input generation, order statistics, heap accounting and host
//! provenance shared by every workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

// --- Seeded inputs ------------------------------------------------------------

/// SplitMix64: the benchmark's own generator, so a change to the program's
/// RNG can never change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for operation `op` of a run with workload seed `seed`;
    /// `salt` separates independent streams (warm-up, checks, …).
    pub fn for_op(seed: u64, salt: u64, op: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mixed = r.next_u64() ^ op.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        Rng(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`, rounded to 3 decimals so spec text
    /// stays short and exact.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1000.0).round() / 1000.0
    }

    /// A spec-safe seed (the TOML parser reads integers as `i64`).
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 2
    }
}

// --- Order statistics ----------------------------------------------------------

/// Nearest-rank percentile `p ∈ (0, 100]` of `xs` (sorted in place).
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest of the usual percentiles that still has at least ten
/// samples above it (the rule every reported tail follows).
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
}

/// FNV-1a over bytes: the identity the correctness checks compare.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the exact bit patterns of a state vector.
pub fn fnv_f64(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Run `f` `reps` times and return each call's wall time in seconds.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Deadline helper for closed loops.
pub struct Clock {
    start: Instant,
    budget: Duration,
}

impl Clock {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    pub fn running(&self) -> bool {
        self.start.elapsed() < self.budget
    }

    /// How far into the budget the clock is, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        (self.start.elapsed().as_secs_f64() / self.budget.as_secs_f64().max(1e-9)).min(1.0)
    }
}

/// Spreads set-up repetitions evenly over a measurement, so their median
/// reflects the whole run rather than its first moments.
pub struct SetupTicker {
    start: Instant,
    period: Duration,
    done: u32,
}

impl SetupTicker {
    /// Set-ups per run.
    pub const REPS: u32 = 50;

    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            period: Duration::from_secs_f64(seconds.max(0.0) / f64::from(Self::REPS)),
            done: 0,
        }
    }

    /// True when the next set-up is due (at most once per call).
    pub fn due(&mut self) -> bool {
        let due = self.done < Self::REPS && self.start.elapsed() >= self.period * self.done;
        self.done += u32::from(due);
        due
    }
}

// --- Heap accounting -----------------------------------------------------------
// Live bytes and their high-water mark, for `peak_heap_mb`. Relaxed
// atomics: the figures are statistics and publish no other data.

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct CountingAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim (see the impl comment).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim (see the impl comment).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim (see the impl comment).
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim (see the impl comment).
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // A moving realloc holds both blocks at once; count the new
            // one before releasing the old so the peak sees it.
            on_alloc(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

/// Restart the high-water mark at the current live heap.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap since the last [`reset_peak_heap`], in bytes.
pub fn peak_heap() -> usize {
    PEAK.load(Ordering::Relaxed)
}

// --- Files -----------------------------------------------------------------------

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

// --- Provenance ------------------------------------------------------------------

/// Last-level cache size in bytes, from the CPUID cache-parameter leaf
/// (4 on Intel, 0x8000001D on AMD; no file reads).
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> Option<u64> {
    use std::arch::x86_64::__cpuid_count;
    // The largest cache described by one leaf; every subleaf until a
    // type-0 entry describes one cache level.
    let walk = |leaf: u32| {
        (0..16)
            .map(|sub| __cpuid_count(leaf, sub))
            .take_while(|r| r.eax & 0x1f != 0)
            .map(|r| {
                let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
                let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
                let line = u64::from(r.ebx & 0xfff) + 1;
                let sets = u64::from(r.ecx) + 1;
                ways * parts * line * sets
            })
            .max()
    };
    // Leaves 0 and 0x80000000 report the highest supported standard and
    // extended leaves; query only leaves that exist.
    let intel = (__cpuid_count(0, 0).eax >= 4).then(|| walk(4)).flatten();
    let amd = (__cpuid_count(0x8000_0000, 0).eax >= 0x8000_001d)
        .then(|| walk(0x8000_001d))
        .flatten();
    intel.or(amd)
}

#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> Option<u64> {
    None
}

/// Commit of the checkout when it is a git work tree; `None` otherwise.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a digest of the program's sources (`Cargo.*`, `crates/`), so a
/// result names the exact code it measured even outside a git checkout.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv(&all))
}
