//! Reusable page-buffer pool for the byte-only hot path.
//!
//! The executor and the host baselines move NAND-page-sized byte buffers
//! through every step: gradient staging, operand gather, write-back. Naïve
//! code allocates a fresh `Vec<u8>` per page per step; this module recycles
//! them instead. [`PageBuf`] is a drop-recycled owned byte buffer —
//! checkout via [`PageBuf::zeroed`], [`PageBuf::copy_of`] or
//! [`PageBuf::scratch`], and the backing allocation returns to the pool
//! when the buffer is dropped.
//!
//! # Design: one locked free list
//!
//! `simkit::par` runs its deterministic phases on scoped worker threads,
//! and checked-out buffers routinely migrate to the main thread as phase
//! results before being dropped. So every thread shares one free list
//! behind a mutex: whichever thread drops a buffer, the next checkout on
//! any thread can reuse it. The checkout counters live under the same
//! lock, so a checkout is one lock round trip.
//!
//! # Determinism
//!
//! The pool affects *where an allocation comes from*, never the bytes a
//! caller reads: [`PageBuf::zeroed`] and [`PageBuf::copy_of`] fully
//! initialize the buffer, and [`PageBuf::scratch`] is only for callers that
//! overwrite every byte first (a flash read into the buffer, a kernel
//! output). Whether a phase runs serial or eight-wide, a `PageBuf` holds
//! exactly the bytes its user wrote, so serial/parallel bit-exactness is
//! untouched.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

/// The free list and the lifetime checkout counters.
struct Pool {
    free: Vec<Vec<u8>>,
    /// Total checkouts served (fresh + recycled).
    checkouts: u64,
    /// Checkouts that had to allocate from the system allocator.
    fresh_allocs: u64,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: Vec::new(),
    checkouts: 0,
    fresh_allocs: 0,
});

/// Locks the pool. A panic while the lock is held cannot leave the free
/// list or the counters half-updated, so a poisoned lock is still usable.
fn lock() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// An owned, pool-recycled byte buffer.
///
/// Behaves like a `Vec<u8>` of fixed length (deref to `[u8]`); dropping it
/// returns the backing allocation to the pool for the next checkout.
pub struct PageBuf {
    buf: Vec<u8>,
}

impl PageBuf {
    /// Checks out a buffer of `len` bytes, all zero.
    pub fn zeroed(len: usize) -> Self {
        Self::checkout(len, |buf| {
            buf.clear();
            buf.resize(len, 0);
        })
    }

    /// Checks out a buffer initialized as a copy of `src`.
    pub fn copy_of(src: &[u8]) -> Self {
        Self::checkout(src.len(), |buf| {
            buf.clear();
            buf.extend_from_slice(src);
        })
    }

    /// Checks out a buffer of `len` bytes without clearing it: a recycled
    /// buffer keeps whatever bytes it held (only growth is zero-filled).
    /// For callers that overwrite every byte before reading any.
    pub fn scratch(len: usize) -> Self {
        Self::checkout(len, |buf| buf.resize(len, 0))
    }

    /// Takes an allocation from the pool (or a fresh, empty one), counts
    /// the checkout, and lets `fill` set its length (`len`) and contents.
    /// A recycled buffer too small for `len` grows through the system
    /// allocator, so it counts as a fresh allocation too.
    fn checkout(len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Self {
        let recycled = {
            let mut pool = lock();
            pool.checkouts += 1;
            let buf = pool.free.pop();
            if buf.as_ref().is_none_or(|b| b.capacity() < len) {
                pool.fresh_allocs += 1;
            }
            buf
        };
        let mut buf = recycled.unwrap_or_default();
        fill(&mut buf);
        PageBuf { buf }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() > 0 {
            lock().free.push(buf);
        }
    }
}

impl Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for PageBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageBuf").field("len", &self.len()).finish()
    }
}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        PageBuf::copy_of(&self.buf)
    }
}

/// Snapshot of the pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total buffer checkouts served.
    pub checkouts: u64,
    /// Checkouts that hit the system allocator.
    pub fresh_allocs: u64,
    /// Checkouts served from a free list.
    pub recycled: u64,
}

/// Reads the pool's lifetime counters (process-global, monotonic).
pub fn stats() -> PoolStats {
    let pool = lock();
    PoolStats {
        checkouts: pool.checkouts,
        fresh_allocs: pool.fresh_allocs,
        recycled: pool.checkouts - pool.fresh_allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero_even_after_recycling_dirty_bytes() {
        for _ in 0..4 {
            let mut b = PageBuf::zeroed(512);
            assert!(b.iter().all(|&x| x == 0));
            b.iter_mut().for_each(|x| *x = 0xFF);
            // drop returns the dirty allocation to the pool
        }
        let b = PageBuf::zeroed(512);
        assert!(b.iter().all(|&x| x == 0), "recycled buffer not re-zeroed");
    }

    #[test]
    fn scratch_has_the_requested_length_and_recycles() {
        for len in [512, 64, 1024] {
            let mut b = PageBuf::scratch(len);
            assert_eq!(b.len(), len);
            b.iter_mut().for_each(|x| *x = 0xFF);
        }
        let before = stats();
        let b = PageBuf::scratch(256);
        assert_eq!(b.len(), 256);
        assert!(stats().recycled > before.recycled);
    }

    #[test]
    fn copy_of_matches_source_exactly() {
        let src: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let b = PageBuf::copy_of(&src);
        assert_eq!(&*b, &src[..]);
    }

    #[test]
    fn live_buffers_never_alias() {
        // Checkout more live buffers than any free list could hold; write a
        // distinct pattern into each; verify none clobbered another.
        let mut bufs: Vec<PageBuf> = (0..64).map(|_| PageBuf::zeroed(64)).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            b.iter_mut().for_each(|x| *x = i as u8);
        }
        for (i, b) in bufs.iter().enumerate() {
            assert!(
                b.iter().all(|&x| x == i as u8),
                "buffer {i} shares storage with another live buffer"
            );
        }
    }

    #[test]
    fn recycling_is_observed_on_repeated_cycles() {
        let before = stats();
        for _ in 0..32 {
            let _b = PageBuf::zeroed(1024);
        }
        let after = stats();
        assert_eq!(after.checkouts - before.checkouts, 32);
        assert!(
            after.recycled > before.recycled,
            "drop/checkout cycle never reused an allocation"
        );
    }

    #[test]
    fn buffers_survive_scoped_worker_threads() {
        // Mimic simkit::par: scoped workers allocate, results migrate to
        // the parent, workers die. The allocations must land back in the
        // pool rather than leak forever.
        let made: Vec<PageBuf> = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    s.spawn(move || {
                        let mut b = PageBuf::zeroed(256);
                        b[0] = i as u8;
                        b
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, b) in made.iter().enumerate() {
            assert_eq!(b[0], i as u8);
        }
        drop(made);
        let before = stats();
        let _again: Vec<PageBuf> = (0..8).map(|_| PageBuf::zeroed(256)).collect();
        let after = stats();
        assert!(after.recycled > before.recycled);
    }
}
