//! Live-heap footprint of phantom devices, measured by a counting global
//! allocator. A phantom die must cost only what it touches: page state is
//! derived from each block's write cursor, so building one allocates no
//! per-page table.
//!
//! The file holds a single test so that no other test's allocations
//! interleave with the counts.

use optimstore::dnn_model::zoo;
use optimstore::nandsim::{Die, NandConfig};
use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::SsdConfig;
use optimstore::workloads::SlicedRun;
use optimstore_bench::runners::{granule, optimizer_and_spec, DEFAULT_SLICE_CAP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through [`Counting`]. A statistic that
/// publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting live bytes. The default `alloc_zeroed` and
/// `realloc` go through `alloc` and `dealloc`, so they are counted too.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes that `build` leaves allocated in the value it returns.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = build();
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    (value, held)
}

#[test]
fn phantom_devices_hold_no_per_page_state() {
    const MB: usize = 1 << 20;

    // One base TLC die: 4 × 1 364 blocks × 1 536 pages.
    let (die, held) = held_by(|| Die::new(0, NandConfig::tlc_1tb_die()));
    assert!(held < MB, "a phantom base die holds {held} B of heap");
    drop(die);

    // The F4 die-NDP cell for GPT-3 13B: a 64-die base SSD, loaded.
    let ssd = SsdConfig::base();
    let (dev, held) = held_by(|| {
        let slice = SlicedRun::plan(zoo::gpt3_13b().params(), DEFAULT_SLICE_CAP, granule(&ssd));
        let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
        let mut dev = OptimStoreDevice::new(
            ssd,
            OptimStoreConfig::die_ndp(),
            slice.sim_params,
            optimizer,
            spec,
        )
        .expect("the slice fits the base SSD");
        dev.load_phantom(SimTime::ZERO).expect("phantom load");
        dev
    });
    assert!(
        held < 64 * MB,
        "a loaded phantom base SSD holds {} MB of heap",
        held / MB
    );
    drop(dev);
}
