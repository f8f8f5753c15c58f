//! Steady-state recording does no heap work: once a recorder has seen a
//! probe's span path, event shape and string values, recording another
//! probe at `Level::Events` only writes into buffers it already holds.
//! The only allocations left are the event log's amortized growth.

use obs::{Level, Recorder, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread, so the harness's own threads
    /// never count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's layout, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's layout, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`; the caller's new size, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One probe as netsim records it: a span four deep, two counters, an
/// RTT sample, a clock move and a six-field event passed as an array.
fn record_probe(rec: &Recorder, i: u64) {
    let _probe = rec.profile_span("net.probe");
    rec.count("net.probe.sent", 1);
    rec.count("net.probe.completed", 1);
    rec.record("net.probe.rtt_us", 1_000 + i % 7);
    rec.set_now_ns(i * 1_000);
    rec.event(
        "netsim",
        "probe",
        [
            ("src", Value::U64(1)),
            ("dst", Value::U64(i % 50)),
            ("kind", Value::Str("tunnel_connect")),
            (
                "reply",
                Value::Str(if i.is_multiple_of(3) {
                    "rst"
                } else {
                    "syn_ack"
                }),
            ),
            ("rtt_ns", Value::U64(i * 1_000)),
            ("target", Value::U64(7)),
        ],
    );
}

#[test]
fn steady_state_recording_does_not_allocate() {
    let rec = Recorder::new(Level::Events);
    {
        let _proxy = rec.profile_span("audit.proxy");
        let _phase = rec.profile_span("twophase.phase1");
        let _retry = rec.profile_span("rel.probe");
        for i in 0..100 {
            record_probe(&rec, i);
        }
        let before = allocs();
        for i in 0..10_000 {
            record_probe(&rec, i);
        }
        let made = allocs() - before;
        assert!(made <= 100, "10,000 recordings allocated {made} times");
    }
    assert_eq!(rec.events_len(), 10_100);
    assert_eq!(rec.counter("net.probe.sent"), 10_100);
    let path = "audit.proxy/twophase.phase1/rel.probe/net.probe";
    assert_eq!(rec.profile_stat(path).map(|s| s.count), Some(10_100));
}
