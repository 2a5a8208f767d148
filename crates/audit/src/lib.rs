//! Runtime invariant auditor for the GROUTER data plane.
//!
//! The data-plane crates (`sim`, `topology`, `transfer`, `store`, `mem`)
//! embed invariant checkers behind their `audit` cargo feature; each checker
//! funnels through [`check`], which counts the hit in a process-wide
//! registry and panics with a labelled message on violation. Tests assert
//! coverage ("did every checker actually run?") through [`hits`] /
//! [`all_hits`], and expensive checks self-throttle with the deterministic
//! sampler [`every`] — no wall clock, no randomness, so audited runs stay
//! reproducible.
//!
//! This crate itself has zero dependencies and no feature gates: the
//! gating lives in the crates that call it (`audit = ["dep:grouter-audit"]`),
//! so a release build without `--features audit` compiles none of the
//! checker code and links nothing from here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

fn registry() -> &'static Mutex<BTreeMap<&'static str, u64>> {
    static HITS: OnceLock<Mutex<BTreeMap<&'static str, u64>>> = OnceLock::new();
    HITS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn tick_registry() -> &'static Mutex<BTreeMap<&'static str, u64>> {
    static TICKS: OnceLock<Mutex<BTreeMap<&'static str, u64>>> = OnceLock::new();
    TICKS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock<'a>(
    m: &'a Mutex<BTreeMap<&'static str, u64>>,
) -> std::sync::MutexGuard<'a, BTreeMap<&'static str, u64>> {
    // A poisoned registry only ever means another test already panicked;
    // the counters themselves are still coherent.
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Record that `checker` ran once (without evaluating anything).
pub fn record_hit(checker: &'static str) {
    *lock(registry()).entry(checker).or_insert(0) += 1;
}

/// How many times `checker` has run in this process.
pub fn hits(checker: &str) -> u64 {
    lock(registry()).get(checker).copied().unwrap_or(0)
}

/// Snapshot of every checker's hit count.
pub fn all_hits() -> BTreeMap<String, u64> {
    lock(registry())
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect()
}

/// Deterministic sampler for expensive checks: returns `true` on the first
/// call and every `period`-th call thereafter (per `counter` key).
pub fn every(counter: &'static str, period: u64) -> bool {
    let mut g = lock(tick_registry());
    let t = g.entry(counter).or_insert(0);
    let fire = t.is_multiple_of(period.max(1));
    *t += 1;
    fire
}

/// Put every sampler one call past a firing, so each [`every`] key stays
/// quiet for its next `period - 1` calls. Tests that count what a code path
/// itself costs (allocations, say) call it to keep the sampled checkers,
/// which allocate on their own schedule, out of the measured window.
pub fn quiet_samplers() {
    lock(tick_registry()).values_mut().for_each(|t| *t = 1);
}

/// Run a checker: count the hit, and panic with a labelled audit violation
/// if `ok` is false. The message closure only runs on failure.
pub fn check(checker: &'static str, ok: bool, msg: impl FnOnce() -> String) {
    record_hit(checker);
    if !ok {
        panic!("audit violation [{checker}]: {}", msg());
    }
}

/// The system allocator, counting the allocations of the calling thread
/// (tests run on parallel threads, so a global count would mix them). An
/// allocation-budget test installs it with
/// `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;` and
/// measures with [`count_allocs`].
pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `p` came from `System` with layout `l`; forwarded as is.
        unsafe { System.realloc(p, l, new_size) }
    }
}

/// Run `f`; return its result and the allocations it made on this thread
/// (zero unless [`CountingAlloc`] is the global allocator). The sampled
/// checkers of audited builds are parked first ([`quiet_samplers`]): they
/// allocate on their own schedule, and the window must measure `f` alone.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    quiet_samplers();
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_accumulate() {
        check("unit.ok", true, || unreachable!());
        check("unit.ok", true, || unreachable!());
        assert_eq!(hits("unit.ok"), 2);
        assert!(all_hits().contains_key("unit.ok"));
    }

    #[test]
    fn sampler_fires_first_and_periodically() {
        let fired: Vec<bool> = (0..9).map(|_| every("unit.sample", 4)).collect();
        assert_eq!(
            fired,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "audit violation [unit.bad]")]
    fn violation_panics_with_label() {
        check("unit.bad", false, || "boom".to_string());
    }
}
