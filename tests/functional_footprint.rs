//! Heap traffic and live-heap footprint of a functional device, measured by
//! a counting global allocator. Each die stores its pages as pooled page
//! buffers; the kernel reads operands where they rest and writes pooled
//! pages that the programs adopt, and a superseded version's buffer goes
//! back to the pool for the next kernel output. So a steady-state step
//! must not allocate per page, a loaded device must hold little more heap
//! than the page bytes it stores, and a trained one little more than its
//! valid pages (the pool's idle buffers included).
//!
//! The file holds a single test so that no other test's allocations
//! interleave with the counts.

use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
use optimstore::optim_math::{Adam, OptimizerKind};
use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use optimstore::simkit::{par, SimTime};
use optimstore::ssdsim::{Device, SsdConfig};
use optimstore::workloads::{GradientGen, WeightInit};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocations made through [`Counting`] (`alloc` and `realloc` calls).
/// Statistics that publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting live bytes and allocation calls. The default
/// `alloc_zeroed` goes through `alloc`, so it is counted too.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters have no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Array programs every die of `ssd` has executed.
fn programs(ssd: &Device) -> u64 {
    let dies = ssd.channels().iter().flat_map(|c| c.dies());
    dies.map(|d| d.stats().programs.get()).sum()
}

/// Erases every die of `ssd` has executed.
fn erases(ssd: &Device) -> u64 {
    let dies = ssd.channels().iter().flat_map(|c| c.dies());
    dies.map(|d| d.stats().erases.get()).sum()
}

/// Bytes of every programmed page `ssd` still stores (not yet erased).
fn stored_page_bytes(ssd: &Device) -> usize {
    let ppb = ssd.config().nand.geometry.pages_per_block;
    let dies = ssd.channels().iter().flat_map(|c| c.dies());
    let pages: u64 = dies
        .flat_map(|d| d.iter_blocks().map(|(_, b)| (ppb - b.free_pages()) as u64))
        .sum();
    pages as usize * ssd.page_bytes()
}

/// Bytes of every valid page of `ssd`: the live versions.
fn valid_page_bytes(ssd: &Device) -> usize {
    let dies = ssd.channels().iter().flat_map(|c| c.dies());
    let pages: u64 = dies
        .flat_map(|d| d.iter_blocks().map(|(_, b)| b.valid_pages() as u64))
        .sum();
    pages as usize * ssd.page_bytes()
}

#[test]
fn functional_steps_do_not_allocate_per_page() {
    const MB: usize = 1 << 20;
    const PARAMS: usize = 500_000;
    par::set_threads(1);

    let weights = WeightInit {
        seed: 7,
        std_dev: 0.02,
    }
    .generate(PARAMS);
    let gen = GradientGen::new(7);
    let mut grads = vec![0.0f32; PARAMS];

    // (b) Loaded, a device holds its page bytes and little else.
    let before = LIVE.load(Ordering::Relaxed);
    let mut dev = OptimStoreDevice::new_functional(
        SsdConfig::tiny(),
        OptimStoreConfig::die_ndp(),
        PARAMS as u64,
        Box::new(Adam::default()),
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16),
    )
    .expect("the model fits the tiny SSD");
    let mut at = dev.load_weights(&weights, SimTime::ZERO).expect("load");
    let held = LIVE.load(Ordering::Relaxed) - before;
    let stored = stored_page_bytes(dev.ssd());
    assert!(
        held <= stored + stored / 10 + 2 * MB,
        "a loaded device holds {held} B of heap for {stored} B of pages"
    );

    // (a) Steady state: train until garbage collection has been erasing
    // blocks (so erased slots are being recycled), then count.
    let mut step = 0;
    while erases(dev.ssd()) == 0 || step < 12 {
        step += 1;
        assert!(step < 40, "garbage collection never started");
        gen.generate_into(step, &mut grads);
        at = dev.run_step(Some(&grads), at).expect("warm-up step").end;
    }
    let (programs_before, erases_before) = (programs(dev.ssd()), erases(dev.ssd()));
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        step += 1;
        gen.generate_into(step, &mut grads);
        at = dev.run_step(Some(&grads), at).expect("measured step").end;
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs_before) as u64;
    let programmed = programs(dev.ssd()) - programs_before;
    assert!(
        erases(dev.ssd()) > erases_before,
        "the measured steps must collect garbage"
    );
    assert!(
        allocs < programmed,
        "{allocs} heap allocations for {programmed} page programs"
    );

    // (c) A superseded version gives its bytes back when it goes invalid,
    // so after steps of out-of-place updates the device still holds about
    // its live versions, not every page programmed since the last erase.
    let held = LIVE.load(Ordering::Relaxed) - before;
    let valid = valid_page_bytes(dev.ssd());
    assert!(
        held <= valid + valid / 10 + 2 * MB,
        "after {step} steps a device holds {held} B of heap for {valid} B of valid pages"
    );
    par::set_threads(0);
}
