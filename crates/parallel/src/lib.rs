#![warn(missing_docs)]

//! # parallel
//!
//! A tiny scoped worker pool for embarrassingly parallel, deterministic
//! fan-out: [`for_each_in_order`] runs one closure per input item across
//! a fixed number of OS threads and hands the outputs to a sink on the
//! calling thread **in input order**, regardless of which thread
//! finished which item first, each as soon as every earlier output has
//! been handed over.
//!
//! The pool exists so the audit pipeline can parallelize across proxies
//! without giving up the workspace's reproducibility contract: as long
//! as each item's computation is a pure function of the item (every
//! proxy derives its own RNG stream from its own seed), the sequence the
//! sink sees is byte-identical for any thread count, including 1. The
//! sink folds each output as it arrives, so the caller never holds more
//! than the outputs that finished ahead of an earlier one.
//!
//! Like everything else in this workspace, the crate has zero external
//! dependencies — it is `std::thread::scope`, a mutex-guarded input
//! cursor and an `mpsc` channel. Items are claimed one at a time
//! (dynamic scheduling), so a slow item does not stall a whole
//! pre-assigned chunk.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

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

/// Run `f` over `items` on `threads` worker threads and hand every
/// output to `sink` on the calling thread, in input order.
///
/// `f` receives `(index, item)`; `sink` receives `(index, output)` for
/// index 0, 1, 2, … in turn, each as soon as every earlier output has
/// been handed over. The calls `sink` sees are therefore identical to
/// the serial `for (i, item) in items.enumerate() { sink(i, f(i, item)) }`
/// whenever `f` is a pure function of its arguments.
///
/// With `threads <= 1`, or fewer than two items, that serial loop is
/// exactly what runs, on the calling thread with no pool at all: item
/// `i`'s sink returns before `f` starts on item `i + 1`. Otherwise
/// `min(threads, items)` workers claim the next unclaimed item from a
/// shared cursor and send `(index, output)` over a channel; the caller
/// buffers only the outputs that arrive ahead of an earlier one.
///
/// # Panics
/// Panics if a worker panics (the panic is propagated, not swallowed)
/// or if `sink` panics.
pub fn for_each_in_order<T, U, F, S>(threads: usize, items: Vec<T>, f: F, mut sink: S)
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
    S: FnMut(usize, U),
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        for (i, item) in items.into_iter().enumerate() {
            sink(i, f(i, item));
        }
        return;
    }
    let cursor = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                let (cursor, f, tx) = (&cursor, &f, tx.clone());
                scope.spawn(move || loop {
                    // The guard is a temporary of this statement, so the
                    // cursor is unlocked before `f` runs.
                    let Some((i, item)) = cursor.lock().expect("cursor poisoned").next() else {
                        break;
                    };
                    if tx.send((i, f(i, item))).is_err() {
                        break; // the caller is unwinding
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = 0;
        let mut early: BTreeMap<usize, U> = BTreeMap::new();
        // Ends once every worker has finished or panicked and dropped
        // its sender.
        for (i, out) in rx {
            early.insert(i, out);
            while let Some(out) = early.remove(&next) {
                sink(next, out);
                next += 1;
            }
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
        assert_eq!(next, n, "every output reaches the sink");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The `(index, output)` pairs the sink saw, in the order it saw them.
    fn collect<T: Send, U: Send>(
        threads: usize,
        items: Vec<T>,
        f: impl Fn(usize, T) -> U + Sync,
    ) -> Vec<(usize, U)> {
        let mut seen = Vec::new();
        for_each_in_order(threads, items, f, |i, out| seen.push((i, out)));
        seen
    }

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 8, 16] {
            // On a pool, item 0 finishes only once the last item has
            // been claimed, so every other worker's outputs reach the
            // caller ahead of it and must wait in its buffer.
            let last = std::sync::Barrier::new(2);
            let out = collect(threads, (0..97u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                if threads > 1 && (x == 0 || x == 96) {
                    last.wait();
                }
                x * x
            });
            let want: Vec<(usize, u64)> = (0..97u64).map(|x| (x as usize, x * x)).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        // A per-item "RNG stream": seed derived from the item alone, so
        // the output must not depend on scheduling.
        let run = |threads: usize| {
            collect(threads, (0u64..40).collect(), |_, seed| {
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
        for threads in [1, 4] {
            let none: Vec<u32> = Vec::new();
            assert!(collect(threads, none, |_, x: u32| x).is_empty());
            assert_eq!(
                collect(threads, vec![7u32], |i, x| (i, x)),
                vec![(0, (0, 7))]
            );
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = collect(32, vec![1u32, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![(0, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn unclaimed_items_drop_cleanly() {
        // Non-Copy payloads reach the sink in order...
        let items: Vec<String> = (0..50).map(|i| format!("payload-{i}")).collect();
        let out = collect(8, items, |i, s| format!("{s}/{i}"));
        let want: Vec<(usize, String)> = (0..50).map(|i| (i, format!("payload-{i}/{i}"))).collect();
        assert_eq!(out, want);

        // ...and each is dropped exactly once when a worker panics,
        // whether it was sunk, waiting in the caller's buffer, in
        // flight, or never claimed.
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        for threads in [1, 2, 8] {
            let drops = Arc::new(AtomicUsize::new(0));
            let items: Vec<Tracked> = (0..50).map(|_| Tracked(Arc::clone(&drops))).collect();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for_each_in_order(
                    threads,
                    items,
                    |i, t| {
                        assert_ne!(i, 5, "worker boom");
                        t
                    },
                    |_, t| drop(t),
                );
            }));
            assert!(run.is_err(), "{threads} threads");
            assert_eq!(drops.load(Ordering::Relaxed), 50, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        collect(2, (0..8u32).collect(), |_, x| {
            if x == 5 {
                panic!("worker boom");
            }
            x
        });
    }

    #[test]
    fn sink_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            let mut calls = 0;
            for_each_in_order(
                threads,
                (0..20u32).collect(),
                |_, x| x,
                |_, _| {
                    assert_eq!(std::thread::current().id(), caller);
                    calls += 1;
                },
            );
            assert_eq!(calls, 20);
        }
    }

    #[test]
    fn one_thread_sinks_each_item_before_the_next_starts() {
        let started = AtomicUsize::new(0);
        let mut sunk = 0;
        for_each_in_order(
            1,
            (0..10usize).collect(),
            |i, x| {
                // Item i starts only after items 0..i reached the sink.
                assert_eq!(started.fetch_add(1, Ordering::Relaxed), i);
                x
            },
            |i, _| {
                assert_eq!(started.load(Ordering::Relaxed), i + 1);
                sunk += 1;
            },
        );
        assert_eq!(sunk, 10);
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
