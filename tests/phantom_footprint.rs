//! Live-heap footprint of phantom devices, measured by a counting global
//! allocator. A phantom die must cost only what it touches: page state is
//! derived from each block's write cursor, so building one allocates no
//! per-page table, and dropping a device hands back every byte it held.
//!
//! The file holds a single test, and the counts are per thread, so that
//! no other test's or the harness's allocations interleave with them.

use optimstore::dnn_model::zoo;
use optimstore::nandsim::{Die, NandConfig};
use optimstore::optim_math::OptimizerKind;
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::SimTime;
use optimstore::ssdsim::SsdConfig;
use optimstore::workloads::SlicedRun;
use optimstore_bench::runners::{granule, optimizer_and_spec, DEFAULT_SLICE_CAP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread through
    /// [`Counting`]. Per thread, so the test harness's own allocations on
    /// its other threads never mix into the counts; everything measured
    /// here is built and dropped on the test's thread.
    static NET: Cell<isize> = const { Cell::new(0) };
}

/// [`System`], counting each thread's net bytes. The default
/// `alloc_zeroed` and `realloc` go through `alloc` and `dealloc`, so they
/// are counted too.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` that never allocates and has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            NET.with(|n| n.set(n.get().wrapping_add(layout.size() as isize)));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        NET.with(|n| n.set(n.get().wrapping_sub(layout.size() as isize)));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's net allocated bytes.
fn net() -> isize {
    NET.with(Cell::get)
}

/// Live heap bytes that `build` leaves allocated in the value it returns.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = net();
    let value = build();
    let held = net().saturating_sub(before).max(0) as usize;
    (value, held)
}

#[test]
fn phantom_devices_hold_no_per_page_state() {
    const KIB: usize = 1 << 10;
    let start = net();

    // One base TLC die: 4 × 1 364 blocks × 1 536 pages. Its block table
    // grows on first write, so a fresh die holds only its plane timelines
    // and P/E-curve memo (104 B measured on x86-64 Linux); bitsets and OOB
    // stamps come later.
    let (die, held) = held_by(|| Die::new(0, NandConfig::tlc_1tb_die()));
    assert!(held < 4 * KIB, "a phantom base die holds {held} B of heap");
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
    // 1 975 760 B (1.88 MiB) measured on x86-64 Linux; the gate leaves a
    // quarter on top. The load maps 28 672 pages, one 4-block stripe per
    // die, and invalidates none. By table:
    // - L2P: one 64 Ki-entry chunk of 32-bit entries, 256 KiB, plus the
    //   7 612-entry chunk index, 59.5 KiB (a chunk of 64-bit entries was
    //   512 KiB);
    // - reverse map: 256 page slabs of 1 536 32-bit words, 1.5 MiB (3 MiB
    //   at 64 bits); lanes 4 slots per die, 1 KiB;
    // - allocator: each plane's never-opened blocks are one range and its
    //   pool holds only reclaimed blocks, so ranges, empty pools and
    //   active slots take 13 KiB (pools filled with every block took
    //   1.33 MiB more);
    // - block tables: 4 states per die, 8 KiB (11 MiB before they grew on
    //   first write); invalid bitsets: none;
    // - the rest (dies, plane timelines, layout): about 56 KiB.
    assert!(
        held < 2_470_000,
        "a loaded phantom base SSD holds {held} B of heap"
    );
    drop(dev);
    assert_eq!(
        net(),
        start,
        "building, loading and dropping devices must hand back every byte"
    );
}
