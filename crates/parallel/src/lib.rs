#![warn(missing_docs)]

//! # parallel
//!
//! A tiny scoped worker pool for embarrassingly parallel, deterministic
//! fan-out: [`map_indexed`] runs one closure per input item across a
//! fixed number of OS threads and returns the outputs **in input
//! order**, regardless of which thread finished which item first.
//!
//! The pool exists so the audit pipeline can parallelize across proxies
//! without giving up the workspace's reproducibility contract: as long
//! as each item's computation is a pure function of the item (every
//! proxy derives its own RNG stream from its own seed), the output
//! vector is byte-identical for any thread count, including 1.
//!
//! Like everything else in this workspace, the crate has zero external
//! dependencies — it is `std::thread::scope` plus an atomic work
//! counter. Items are claimed one at a time from a shared cursor
//! (dynamic scheduling), so a slow item does not stall a whole
//! pre-assigned chunk. The claim itself is lock-free: the cursor's
//! `fetch_add` hands each index to exactly one worker, which is the
//! entire mutual-exclusion argument — no per-item lock is needed to
//! take the input or to write the output slot.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable that pins the worker count for every
/// consumer of [`configured_threads`].
pub const THREADS_ENV: &str = "PV_THREADS";

/// The worker count to use when the caller expresses no preference:
/// `PV_THREADS` if set to a positive integer, otherwise the machine's
/// available parallelism, otherwise 1.
///
/// A `PV_THREADS` value that is present but not a positive integer
/// (unparsable, or `0`) is **rejected with a one-line stderr warning**
/// naming the value, then ignored — a misconfigured CI job should be
/// visible, not silently fall back.
pub fn configured_threads() -> usize {
    let setting = std::env::var(THREADS_ENV).ok();
    match resolve_thread_setting(setting.as_deref()) {
        Ok(Some(n)) => return n,
        Ok(None) => {}
        Err(warning) => eprintln!("{warning}"),
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve an explicit `PV_THREADS` setting: `Ok(Some(n))` for a
/// positive integer, `Ok(None)` when the variable is unset, and
/// `Err(warning)` — the exact stderr line to emit — when the variable
/// is set to something unusable.
fn resolve_thread_setting(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = value else {
        return Ok(None);
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!(
            "warning: ignoring {THREADS_ENV}={v:?} (not a positive integer); \
             falling back to available parallelism"
        )),
    }
}

/// An input slot the claiming worker takes from without a lock.
///
/// Safety contract: `take` may be called at most once per slot, by the
/// single worker that claimed the slot's index from the atomic cursor.
struct TakeCell<T>(UnsafeCell<Option<T>>);

// One slot is only ever touched by the one worker that claimed its
// index; the cursor's fetch_add is the exclusion proof.
unsafe impl<T: Send> Sync for TakeCell<T> {}

impl<T> TakeCell<T> {
    fn new(value: T) -> TakeCell<T> {
        TakeCell(UnsafeCell::new(Some(value)))
    }

    /// # Safety
    /// The caller must be the unique claimant of this slot's index.
    unsafe fn take(&self) -> T {
        unsafe { (*self.0.get()).take().expect("item claimed twice") }
    }
}

/// An output slot the claiming worker writes exactly once, read back by
/// the caller after the scope join.
struct SlotCell<U>(UnsafeCell<Option<U>>);

unsafe impl<U: Send> Sync for SlotCell<U> {}

impl<U> SlotCell<U> {
    fn empty() -> SlotCell<U> {
        SlotCell(UnsafeCell::new(None))
    }

    /// # Safety
    /// The caller must be the unique claimant of this slot's index.
    unsafe fn put(&self, value: U) {
        unsafe {
            debug_assert!((*self.0.get()).is_none(), "duplicate result write");
            *self.0.get() = Some(value);
        }
    }

    fn into_inner(self) -> Option<U> {
        self.0.into_inner()
    }
}

/// Map `f` over `items` on `threads` worker threads, preserving input
/// order in the output.
///
/// `f` receives `(index, item)` and writes its result straight into the
/// output slot of the same index, so the returned vector is identical
/// to the serial `items.into_iter().enumerate().map(...)` whenever `f`
/// is a pure function of its arguments. Scheduling is dynamic: workers
/// claim the next unclaimed index from a shared atomic cursor, so load
/// imbalance across items costs at most one item's latency.
///
/// The cursor's `fetch_add` returns each index to exactly one worker,
/// which makes that worker the unique owner of the index's input and
/// output slots — the take and the result write are plain unsynchronized
/// accesses (no per-item mutex), published to the caller by the scope
/// join's happens-before edge.
///
/// With `threads <= 1`, or fewer than two items, everything runs on the
/// calling thread with no pool at all — the 1-thread path *is* the
/// serial path, not a simulation of it.
///
/// # Panics
/// Panics if a worker panics (the panic is propagated, not swallowed).
pub fn map_indexed<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let workers = threads.min(n);
    let slots: Vec<TakeCell<T>> = items.into_iter().map(TakeCell::new).collect();
    let out: Vec<SlotCell<U>> = (0..n).map(|_| SlotCell::empty()).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let slots = &slots;
            let out = &out;
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: the fetch_add handed index `i` to this worker
                // alone, so it is the unique accessor of both slots.
                let item = unsafe { slots[i].take() };
                let result = f(i, item);
                unsafe { out[i].put(result) };
            }));
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });

    out.into_iter()
        .map(|slot| slot.into_inner().expect("missing result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..97).collect();
            let out = map_indexed(threads, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..97u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        // A per-item "RNG stream": seed derived from the item alone, so
        // the output must not depend on scheduling.
        let run = |threads: usize| {
            map_indexed(threads, (0u64..40).collect(), |_, seed| {
                let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
                for _ in 0..100 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                x
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8, 16] {
            assert_eq!(serial, run(threads));
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(map_indexed(4, none, |_, x: u32| x).is_empty());
        assert_eq!(map_indexed(4, vec![7u32], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = map_indexed(32, vec![1u32, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn unclaimed_items_drop_cleanly() {
        // Non-Copy payloads: every item is either mapped or dropped, and
        // every output arrives — exercises the UnsafeCell slots' Drop
        // path and the take-exactly-once invariant under contention.
        let items: Vec<String> = (0..50).map(|i| format!("payload-{i}")).collect();
        let out = map_indexed(8, items, |_, s| s.len());
        assert_eq!(out.len(), 50);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        map_indexed(2, (0..8u32).collect(), |_, x| {
            if x == 5 {
                panic!("worker boom");
            }
            x
        });
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn thread_setting_accepts_positive_integers() {
        assert_eq!(resolve_thread_setting(Some("1")), Ok(Some(1)));
        assert_eq!(resolve_thread_setting(Some("16")), Ok(Some(16)));
        assert_eq!(
            resolve_thread_setting(Some(" 8 ")),
            Ok(Some(8)),
            "whitespace trims"
        );
        assert_eq!(resolve_thread_setting(None), Ok(None));
    }

    #[test]
    fn rejected_thread_setting_warns_naming_the_value() {
        for bad in ["0", "abc", "-3", "1.5", ""] {
            let err = resolve_thread_setting(Some(bad))
                .expect_err(&format!("{bad:?} should be rejected"));
            assert!(
                err.contains(&format!("{bad:?}")) && err.contains(THREADS_ENV),
                "warning must name the variable and the rejected value: {err}"
            );
            assert_eq!(err.lines().count(), 1, "warning must be one line");
        }
    }
}
