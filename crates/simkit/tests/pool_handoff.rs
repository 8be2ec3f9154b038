//! A buffer one thread returns to the page pool must be reusable by any
//! other thread. Pool stats are process-global, so this check has its own
//! test binary: no other test may check buffers out while it runs.

use simkit::pool::{self, PageBuf};

#[test]
fn a_buffer_dropped_on_one_thread_is_reused_on_another() {
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
