//! Checks of the page pool's process-global stats. They have their own
//! test binary, and its tests take [`SERIAL`], so that no other checkout
//! runs while one of them counts.

use simkit::pool::{self, PageBuf};
use std::sync::Mutex;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// A buffer one thread returns to the page pool must be reusable by any
/// other thread.
#[test]
fn a_buffer_dropped_on_one_thread_is_reused_on_another() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let bufs: Vec<PageBuf> = (0..16).map(|_| PageBuf::zeroed(4096)).collect();
    drop(bufs);
    let before = pool::stats();
    std::thread::scope(|s| {
        s.spawn(|| drop(PageBuf::zeroed(4096)));
    });
    let after = pool::stats();
    assert_eq!(after.checkouts, before.checkouts + 1);
    assert_eq!(
        after.fresh_allocs, before.fresh_allocs,
        "the worker allocated afresh while 16 returned buffers sat in the pool"
    );
}

/// A recycled buffer too small for the checkout grows through the system
/// allocator, which the stats count as a fresh allocation, not a reuse.
#[test]
fn a_recycled_buffer_that_must_grow_counts_as_fresh() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Drain the pool until a 16-byte checkout is a fresh, 16-byte
    // allocation, then make it the next buffer handed out.
    let mut held = Vec::new();
    let small = loop {
        let fresh = pool::stats().fresh_allocs;
        let buf = PageBuf::zeroed(16);
        if pool::stats().fresh_allocs > fresh {
            break buf;
        }
        held.push(buf);
    };
    drop(held);
    drop(small);
    let before = pool::stats();
    let page = PageBuf::scratch(4096);
    let after = pool::stats();
    assert_eq!(page.len(), 4096);
    assert_eq!(after.checkouts, before.checkouts + 1);
    assert_eq!(after.fresh_allocs, before.fresh_allocs + 1);
    assert_eq!(after.recycled, before.recycled);
}
