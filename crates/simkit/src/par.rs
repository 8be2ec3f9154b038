//! Deterministic parallel **data plane**: a hand-rolled scoped worker pool.
//!
//! The simulators in this workspace keep two planes strictly apart:
//!
//! * the **timing plane** — every [`crate::Timeline`]/[`crate::BandwidthLink`]
//!   interaction, which must stay serial and event-ordered so a run replays
//!   identically from the same seed; and
//! * the **data plane** — pure byte-level work (gradient encoding, optimizer
//!   kernels, page assembly, OOB inspection) whose items are independent of
//!   one another and of issue order.
//!
//! [`map_indexed`] runs data-plane items on a pool of scoped worker threads
//! (`std::thread::scope`; crates.io is unreachable, so no rayon) and returns
//! results **in input order regardless of completion order**. Callers feed
//! the merged results back into the serial timing plane, so: same seed ⇒
//! same bytes ⇒ same timings — bit-exact with a fully serial run. The
//! property tests in `tests/proptests.rs` pin both halves of that claim.
//!
//! Thread count resolves, in order: [`set_threads`] override →
//! `OPTIMSTORE_THREADS` environment variable → available parallelism. A
//! count of 1 short-circuits to an inline serial loop (no threads spawned),
//! which is also the fallback for tiny inputs — so the pool never costs
//! anything on the paths it cannot help. A call made from inside a pool
//! worker also runs inline: a grid that fans its cells out keeps its
//! workers, and each cell's own data-plane calls stay on them.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide thread-count override (0 = unset, resolve from the
/// environment). Runtime-settable so harnesses can compare serial vs
/// parallel wall-clock in one process (`BENCH_parallel`).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the pool width for subsequent [`map_indexed`] calls; `0` clears
/// the override (back to `OPTIMSTORE_THREADS` / available parallelism).
///
/// Any width produces bit-identical results — this knob exists for
/// wall-clock experiments and the nondeterminism-hunting CI matrix, not
/// correctness.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

thread_local! {
    /// Whether this thread is a pool worker.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a pool worker for the rest of its life.
fn enter_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// The pool width [`map_indexed`] will use: 1 inside a pool worker, else
/// the [`set_threads`] override if set, else `OPTIMSTORE_THREADS` if
/// parsable and non-zero, else the machine's available parallelism (1 if
/// unknown).
pub fn threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("OPTIMSTORE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` on the worker pool and returns the
/// results **in input order**, regardless of which worker finished first.
///
/// `f` receives `(index, &item)`. Work is distributed by an atomic cursor
/// (self-balancing: a slow item never stalls the queue behind it), each
/// worker buffers `(index, result)` pairs locally, and the merge re-places
/// every result at its input index — so the output is exactly what the
/// serial loop `items.iter().enumerate().map(f).collect()` produces, for
/// any pool width and any per-item duration.
///
/// `f` must not touch the timing plane (it only gets shared references, so
/// the borrow checker enforces this for single-owner simulator state).
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    enter_worker();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker must not panic"))
            .collect()
    });

    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for bucket in &mut buckets {
        for (i, r) in bucket.drain(..) {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index produced exactly once"))
        .collect()
}

/// [`map_indexed`] over mutable items: applies `f` to every item of
/// `items` on the worker pool, in place, and returns the results in input
/// order.
///
/// Each item sits behind its own `Mutex`, dealt by [`map_indexed`]'s
/// cursor; the worker that draws an item is the only one to lock it, so
/// no lock is ever contended. The output is exactly what the serial loop
/// `items.iter_mut().enumerate().map(f).collect()` produces, for any pool
/// width.
pub fn map_indexed_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if threads().min(items.len()) <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let items: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    map_indexed(&items, |i, item| {
        f(i, &mut item.lock().expect("one worker locks each item"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that sets the process-wide width override.
    static WIDTH: Mutex<()> = Mutex::new(());

    #[test]
    fn map_indexed_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        assert_eq!(map_indexed(&items, |_, &x| x.wrapping_mul(x) ^ 7), expect);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(map_indexed(&[41u32], |i, &x| x + i as u32 + 1), vec![42]);
    }

    #[test]
    fn order_survives_adversarial_delays() {
        // Early items sleep longest, so completion order inverts input
        // order on any pool wider than one worker.
        let items: Vec<usize> = (0..24).collect();
        let out = map_indexed(&items, |i, &x| {
            std::thread::sleep(std::time::Duration::from_millis(
                (items.len() - i) as u64 * 2,
            ));
            x * 10
        });
        assert_eq!(out, (0..24).map(|x| x * 10).collect::<Vec<_>>());
    }

    /// Squares every item in place under `map_indexed_mut`, checking both
    /// the items and the in-order results.
    fn check_map_indexed_mut(len: u64) {
        let mut items: Vec<u64> = (0..len).collect();
        let out = map_indexed_mut(&mut items, |i, x| {
            *x = x.wrapping_mul(*x) ^ 7;
            i
        });
        assert_eq!(out, (0..len as usize).collect::<Vec<_>>());
        assert!(items.iter().zip(0..).all(|(&x, i)| x == (i * i) ^ 7));
    }

    #[test]
    fn map_indexed_mut_updates_in_place_in_order() {
        for len in [0, 1, 2, 101] {
            check_map_indexed_mut(len);
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let out = map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn override_forces_width_and_clears() {
        let _width = WIDTH.lock().unwrap();
        set_threads(3);
        assert_eq!(threads(), 3);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(
            map_indexed(&items, |_, &x| x + 1),
            (1..=100).collect::<Vec<_>>()
        );
        check_map_indexed_mut(101);
        set_threads(1);
        assert_eq!(
            map_indexed(&items, |_, &x| x + 1),
            (1..=100).collect::<Vec<_>>()
        );
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let _width = WIDTH.lock().unwrap();
        set_threads(2);
        let outer: Vec<u64> = (0..4).collect();
        let out = map_indexed(&outer, |_, &x| {
            let me = std::thread::current().id();
            assert_eq!(threads(), 1);
            let inner: Vec<u64> = (0..50).collect();
            map_indexed(&inner, |i, &y| {
                assert_eq!(std::thread::current().id(), me);
                x * 100 + y + i as u64
            })
        });
        set_threads(0);
        for (x, row) in out.into_iter().enumerate() {
            let want: Vec<u64> = (0..50).map(|y| x as u64 * 100 + 2 * y).collect();
            assert_eq!(row, want);
        }
        // The test thread itself is no worker.
        assert!(!IN_WORKER.with(Cell::get));
    }
}
