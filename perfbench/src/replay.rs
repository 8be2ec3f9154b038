//! Replays of single layer entry points on a workload's own configuration,
//! device and inputs, for time per operation. They run after the pass's
//! correctness check, so the state they disturb is no longer needed.

use crate::stats;
use nandsim::{Die, NandConfig};
use optim_math::kernels::{encode_grads_into, update_chunk, StateBuffers};
use optim_math::state::GradDtype;
use optim_math::Optimizer;
use optimstore_core::{OptimStoreDevice, StateLayout};
use simkit::pool::PageBuf;
use simkit::{SimDuration, SimTime, Timeline};
use ssdsim::ftl::Ftl;
use ssdsim::{Device, Lpn, SsdConfig};
use std::hint::black_box;
use std::time::Instant;

/// Median wall ms of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&ms)
}

/// `Die::new` (or `Die::new_functional`) on the workload's NAND part, ms.
pub fn die_new_ms(nand: NandConfig, functional: bool) -> f64 {
    median_ms(9, || {
        let die = if functional {
            Die::new_functional(0, nand)
        } else {
            Die::new(0, nand)
        };
        black_box(die);
    })
}

/// `Device::new` (or `Device::new_functional`) on the workload's
/// configuration, seconds; `reps` constructions, median.
pub fn device_new_s(cfg: SsdConfig, functional: bool, reps: usize) -> f64 {
    median_ms(reps, || {
        let dev = if functional {
            Device::new_functional(cfg)
        } else {
            Device::new(cfg)
        };
        black_box(dev);
    }) / 1e3
}

/// `Ftl::new` over the configuration's dies, ms (die construction is off
/// the clock).
pub fn ftl_new_ms(cfg: &SsdConfig) -> f64 {
    let dies: Vec<Die> = (0..cfg.total_dies())
        .map(|i| Die::new(i, cfg.nand))
        .collect();
    median_ms(3, || {
        black_box(Ftl::new(cfg, &dies));
    })
}

/// The first `limit` pages an optimizer step writes back, in group order.
pub fn write_set_lpns(layout: &StateLayout, limit: usize) -> Vec<Lpn> {
    let set = layout.write_set();
    (0..layout.num_groups())
        .flat_map(|g| set.iter().map(move |&(c, i)| layout.lpn(g, c, i)))
        .take(limit)
        .collect()
}

/// [`program_read_us`] over the first `limit` write-back pages of an
/// optimizer device (zero pages on a functional device).
pub fn program_read_on(dev: &mut OptimStoreDevice, limit: usize) -> (f64, f64) {
    let lpns = write_set_lpns(dev.layout(), limit);
    let page = dev
        .ssd()
        .is_functional()
        .then(|| vec![0u8; dev.ssd().page_bytes()]);
    program_read_us(dev.ssd_mut(), &lpns, page.as_deref())
}

/// Mean wall µs of `Device::internal_program` and then
/// `Device::internal_read_array` over `lpns` (GC that programs trigger
/// included). `data` is the page written on a functional device.
pub fn program_read_us(dev: &mut Device, lpns: &[Lpn], data: Option<&[u8]>) -> (f64, f64) {
    let at = dev.quiesce_time();
    let t = Instant::now();
    for &lpn in lpns {
        dev.internal_program(lpn, None, data, at, false)
            .expect("replayed program on a live device");
    }
    let program_us = t.elapsed().as_secs_f64() * 1e6 / lpns.len() as f64;
    let at = dev.quiesce_time();
    let t = Instant::now();
    for &lpn in lpns {
        black_box(
            dev.internal_read_array(lpn, at)
                .expect("replayed read of a mapped page"),
        );
    }
    let read_us = t.elapsed().as_secs_f64() * 1e6 / lpns.len() as f64;
    (program_us, read_us)
}

/// `Timeline::acquire` on a fresh timeline, ns per call.
pub fn acquire_ns() -> f64 {
    const N: u64 = 200_000;
    let mut tl = Timeline::new("replay");
    let t = Instant::now();
    for i in 0..N {
        black_box(tl.acquire(SimTime::from_ns(i * 7), SimDuration::from_ns(5)));
    }
    t.elapsed().as_secs_f64() * 1e9 / N as f64
}

/// Kernel costs per update group: `update_chunk` on one group's state and
/// `encode_grads_into` of one group's gradients, µs.
pub fn kernels_us(
    opt: &dyn Optimizer,
    weights: &[f32],
    grads: &[f32],
    dtype: GradDtype,
) -> (f64, f64) {
    const REPS: u64 = 200;
    let mut page = vec![0u8; 2 * grads.len()];
    let t = Instant::now();
    for _ in 0..REPS {
        encode_grads_into(black_box(grads), dtype, &mut page);
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let mut buf = StateBuffers::init(opt, weights, dtype);
    let t = Instant::now();
    for step in 1..=REPS {
        let mut slots: Vec<&mut [u8]> = buf.slots.iter_mut().map(|s| s.as_mut_slice()).collect();
        update_chunk(
            opt,
            &mut buf.w32,
            &mut slots,
            &page,
            &mut buf.w16,
            dtype,
            step,
        )
        .expect("group-sized buffers are consistent");
    }
    let update_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    (update_us, encode_us)
}

/// One `simkit::par::map_indexed` call over a die batch of gradient
/// encodes (the executor's per-batch prep), µs per call at `width`.
pub fn par_call_us(
    grads: &[f32],
    group: usize,
    batch: usize,
    dtype: GradDtype,
    width: usize,
) -> f64 {
    const REPS: usize = 200;
    let items: Vec<usize> = (0..batch).collect();
    let pinned = simkit::par::threads();
    simkit::par::set_threads(width);
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(simkit::par::map_indexed(&items, |_, &i| {
            let mut page = PageBuf::zeroed(2 * group);
            encode_grads_into(&grads[i * group..(i + 1) * group], dtype, &mut page);
            page
        }));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    simkit::par::set_threads(pinned);
    us
}

/// `Device::scrub_tick` on the workload's device, ms.
pub fn scrub_tick_ms(dev: &mut Device) -> f64 {
    median_ms(9, || {
        let at = dev.quiesce_time();
        black_box(dev.scrub_tick(at).expect("scrub on a live device"));
    })
}
