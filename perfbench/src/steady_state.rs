//! `steady-state`: one phantom die-NDP Adam device stepped repeatedly after
//! a warm-up, on the base SSD's 8 × 8 channel × die count with the tiny
//! test-die geometry. Its state fills about 75 % of logical capacity, so
//! garbage collection erases blocks every step. A twin device built the
//! same way must reproduce the first steps' `StepReport`s field for field.

use crate::probe::{BusyShare, Counters, Stopwatch};
use crate::replay;
use crate::run::{Ctx, Run};
use optim_math::OptimizerKind;
use optimstore_bench::runners::optimizer_and_spec;
use optimstore_core::{OptimStoreConfig, OptimStoreDevice, StepReport};
use simkit::SimTime;
use ssdsim::SsdConfig;
use std::time::Instant;

/// Devices built per pass; `setup_s` is the median construction.
const SETUPS: usize = 5;
/// Untimed steps before the timed loop.
const WARMUP: u64 = 2;
/// Timed steps whose reports form the digest and the twin check.
const PREFIX: usize = 8;
/// Share of logical pages the optimizer state occupies.
const FILL: f64 = 0.75;

fn config() -> SsdConfig {
    SsdConfig {
        channels: 8,
        dies_per_channel: 8,
        ..SsdConfig::tiny()
    }
}

fn build(params: u64) -> OptimStoreDevice {
    let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
    OptimStoreDevice::new(
        config(),
        OptimStoreConfig::die_ndp(),
        params,
        optimizer,
        spec,
    )
    .expect("the state is sized to fit")
}

/// Parameters whose layout fills [`FILL`] of the device, in whole die
/// batches of update groups.
fn params() -> u64 {
    let probe = build(1);
    let layout = probe.layout();
    let batch = config().total_dies() as u64;
    let groups =
        (probe.ssd().logical_pages() as f64 * FILL) as u64 / layout.lpns_per_group() as u64 / batch
            * batch;
    groups * layout.params_per_group()
}

pub fn run(ctx: &mut Ctx) -> Run {
    let mut run = Run::default();
    let params = params();
    let mut devices = Vec::new();
    for id in 0..SETUPS as u64 {
        let t = Stopwatch::start();
        let s = ctx.tracer.begin("core.new", id);
        let mut dev = build(params);
        ctx.tracer.end(s);
        let s = ctx.tracer.begin("core.load", id);
        let at = dev.load_phantom(SimTime::ZERO).expect("phantom load");
        ctx.tracer.end(s);
        run.setup.push(t.lap());
        run.yardstick();
        devices.push((dev, at));
    }
    let (mut twin, twin_at) = devices.remove(0);
    let (mut dev, mut at) = devices.pop().expect("at least two devices");
    drop(devices);

    let pb = dev.ssd().page_bytes() as u64;
    let fill = dev.layout().required_pages() as f64 / dev.ssd().logical_pages() as f64;
    run.digest
        .push(format!("device 8x8 tiny-die params {params} fill {fill}"));
    let pcie_ok = |r: &StepReport| r.traffic.pcie_in == r.groups_total * pb;

    let mut reports: Vec<String> = Vec::new();
    for _ in 0..WARMUP {
        let r = dev.run_step(None, at).expect("warm-up step");
        run.check(pcie_ok(&r));
        reports.push(format!("{r:?}"));
        at = r.end;
    }
    let started = Instant::now();
    let prefix_before = Counters::of(dev.ssd());
    let mut prefix_busy = None;
    let mut sim_ns: Vec<u64> = Vec::new();
    let mut step = WARMUP;
    while sim_ns.len() < PREFIX || started.elapsed() < ctx.budget {
        step += 1;
        let before = Counters::of(dev.ssd());
        let t = Stopwatch::start();
        let s = ctx.tracer.begin("bench.item", step);
        let s2 = ctx.tracer.begin("core.run_step", step);
        let r = dev.run_step(None, at).expect("timed step");
        ctx.tracer.end(s2);
        ctx.tracer.end(s);
        let lap = t.lap();
        run.item.push(lap);
        run.step.push(lap);
        run.ops.add(&Counters::of(dev.ssd()).since(&before));
        run.yardstick();
        run.check(pcie_ok(&r));
        at = r.end;
        if sim_ns.len() < PREFIX {
            reports.push(format!("{r:?}"));
            sim_ns.push(r.duration.as_ns());
            if sim_ns.len() == PREFIX {
                let d = Counters::of(dev.ssd()).since(&prefix_before);
                prefix_busy = Some(BusyShare::of(&d, dev.ssd(), sim_ns.iter().sum()));
                run.digest.push(format!(
                    "stats after step {step} {}",
                    dev.ssd()
                        .stats()
                        .to_snapshot()
                        .trim_end()
                        .replace('\n', " ")
                ));
            }
        }
    }

    // The twin replays the warm-up and the prefix and must match.
    let mut at = twin_at;
    for (i, want) in reports.iter().enumerate() {
        let r = twin.run_step(None, at).expect("twin step");
        at = r.end;
        let same = format!("{r:?}") == *want;
        run.check(same);
        run.digest.push(format!("step {} {want}", i + 1));
    }
    drop(twin);
    let mut sorted = sim_ns.clone();
    sorted.sort_unstable();
    run.digest.push(format!(
        "sim_step_ms {}",
        sorted[sorted.len() / 2] as f64 / 1e6
    ));

    if ctx.traced() {
        run.busy(prefix_busy.expect("the prefix always completes"));
        let (program_us, read_us) = replay::program_read_on(&mut dev, 4096);
        run.layer("ssdsim.program_us", program_us);
        run.layer("ssdsim.read_us", read_us);
        let cfg = config();
        run.layer("nandsim.die_new_ms", replay::die_new_ms(cfg.nand, false));
        run.layer("ssdsim.device_new_s", replay::device_new_s(cfg, false, 5));
        run.layer("ssdsim.ftl_new_ms", replay::ftl_new_ms(&cfg));
    }
    run
}
