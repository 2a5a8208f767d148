//! Host-side measurements: a counting global allocator (switched on only
//! around the counted run, so timed runs pay one relaxed load per
//! allocation), host-speed calibration and the process's peak resident
//! set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting allocations and requested bytes while
/// [`count_allocs`] runs. Reallocations count as one allocation of the new
/// size. Only statistics go through these atomics, so `Relaxed` suffices.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters have no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `p` came from `System` with layout `l`; forwarded as is.
        unsafe { System.realloc(p, l, new_size) }
    }
}

/// Run `f` with allocation counting on; returns its result plus the
/// allocations and bytes it requested (on any thread).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let r = f();
    ON.store(false, Ordering::Relaxed);
    (
        r,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// One pass of the calibration kernel: 64Ki xorshift draws pushed into a
/// vector and counted in a hash map, a sort, a scan and 50k lookups — a
/// mix of allocation, hashing and pointer chasing like the simulator's.
///
/// The benchmark host is a shared VM whose speed drifts by up to 1.5x
/// within seconds. Timing this fixed kernel right before and after each
/// repetition measures that drift, and the timed metrics are scaled to
/// the reference speed [`REFERENCE_MS`]. The kernel is benchmark code, so
/// a change to the program cannot move it.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut acc = 0u64;
    for _ in 0..(1 << 16) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
        *m.entry(x % 50_000).or_insert(0) += 1;
    }
    v.sort_unstable();
    for w in v.windows(2) {
        acc = acc.wrapping_add(w[1] - w[0]);
    }
    for k in 0..50_000u64 {
        acc = acc.wrapping_add(m.get(&k).copied().unwrap_or(0));
    }
    acc
}

/// Calibration passes per measurement (about 40 ms in all).
const CALIBRATION_PASSES: usize = 8;

/// Calibration time, ms per pass, of the reference host speed that
/// normalised metrics are quoted at: the typical figure on the 2-vCPU
/// machine the benchmark was tuned on.
pub const REFERENCE_MS: f64 = 5.0;

/// Host speed right now: milliseconds per calibration-kernel pass, the
/// median of [`CALIBRATION_PASSES`] passes.
pub fn calibrate() -> f64 {
    let mut ms = Vec::with_capacity(CALIBRATION_PASSES);
    let mut sink = 0u64;
    for i in 0..CALIBRATION_PASSES {
        let t = std::time::Instant::now();
        sink ^= kernel(i as u64);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(sink);
    crate::report::median(&ms)
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
