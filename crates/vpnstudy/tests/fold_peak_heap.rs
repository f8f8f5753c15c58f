//! The audit folds each proxy's trace into the run as soon as the proxy
//! finishes, so a run's peak heap holds the run's own trace and at most
//! one proxy's buffers besides it, never every proxy's at once.
//!
//! A counting global allocator tracks the live heap of the thread that
//! allocates (so the harness's other threads never count), and the test
//! reads its high-water mark across one Events-level `run_sharded(1, 1)`
//! of the small study, which runs every proxy on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vpnstudy::{Study, StudyConfig};

thread_local! {
    /// Bytes this thread has allocated and not freed, and the most that
    /// has been live since the last [`reset_peak`].
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Start a new high-water mark at the current live heap, and return it.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; counting touches only const-initialized thread-local
// `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, forwarded as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, forwarded as is.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`; the caller's new size, forwarded as is.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_one_thread_audit_holds_one_proxy_trace_at_a_time() {
    let config = StudyConfig::small(41);
    assert_eq!(config.obs_level, obs::Level::Events);
    let mut study = Study::build(config);
    let before = reset_peak();
    let results = study.run_sharded(1, 1);
    let peak = PEAK.with(Cell::get) - before;
    let events = results.obs.events_len();
    assert!(events > 5_000, "the small audit records {events} events");
    // Measured on this study (bytes of live heap, the same on every
    // run): 2,055,430 when every proxy's trace was held until one fold
    // at the end and the log kept a word per field; 1,838,494 with the
    // streamed fold alone; 1,249,438 with the varint log alone;
    // 1,039,774 with both.
    assert!(
        peak < 1_150_000,
        "peak live heap over the audit: {peak} B for {events} events"
    );
}
