//! `functional-train`: die-NDP Adam with f16 gradients on the tiny SSD,
//! about a million parameters of real bytes. Each step's gradients are
//! generated before its timer starts, and the host-DRAM reference update
//! runs after it stops; at the end, the device's master weights must equal
//! the reference's bit for bit.

use crate::probe::{BusyShare, Counters, Stopwatch};
use crate::replay;
use crate::run::{Ctx, Run};
use baselines::{HostDramBaseline, HostDramConfig};
use optim_math::state::GradDtype;
use optim_math::OptimizerKind;
use optimstore_bench::runners::optimizer_and_spec;
use optimstore_core::{OptimStoreConfig, OptimStoreDevice};
use simkit::SimTime;
use ssdsim::SsdConfig;
use std::time::Instant;
use workloads::{GradientGen, WeightInit};

/// Parameters trained.
pub const PARAMS: usize = 1_000_000;
/// Devices built per pass; `setup_s` is the median construction.
const SETUPS: usize = 3;
/// Timed steps whose reports form the digest.
const PREFIX: usize = 3;

/// Seeded initial weights.
pub fn weights(seed: u64, n: usize) -> Vec<f32> {
    WeightInit {
        seed: seed ^ 0x5EED_0000_0000,
        std_dev: 0.02,
    }
    .generate(n)
}

pub fn run(ctx: &mut Ctx) -> Run {
    let mut run = Run::default();
    let ssd = SsdConfig::tiny();
    let weights = weights(ctx.seed, PARAMS);
    let gen = GradientGen::new(ctx.seed);

    let mut dev = None;
    for id in 0..SETUPS as u64 {
        drop(dev.take());
        let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
        let t = Stopwatch::start();
        let s = ctx.tracer.begin("core.new", id);
        let mut d = OptimStoreDevice::new_functional(
            ssd,
            OptimStoreConfig::die_ndp(),
            PARAMS as u64,
            optimizer,
            spec,
        )
        .expect("a million parameters fit the tiny SSD");
        ctx.tracer.end(s);
        let s = ctx.tracer.begin("core.load", id);
        let at = d.load_weights(&weights, SimTime::ZERO).expect("load");
        ctx.tracer.end(s);
        run.setup.push(t.lap());
        run.yardstick();
        dev = Some((d, at));
    }
    let (mut dev, mut at) = dev.expect("at least one device");
    let (optimizer, spec) = optimizer_and_spec(OptimizerKind::Adam);
    let mut reference = HostDramBaseline::new(
        HostDramConfig::default(),
        PARAMS as u64,
        optimizer,
        spec,
        true,
    )
    .expect("reference fits host DRAM");
    reference.load_weights(&weights).expect("reference load");

    let started = Instant::now();
    let mut sim_ns: Vec<u64> = Vec::new();
    let mut prefix_busy = Counters::default();
    let mut step = 0u64;
    let mut timed = 0usize;
    // Step 1 is the untimed warm-up.
    while timed < PREFIX || started.elapsed() < ctx.budget {
        step += 1;
        let s = ctx.tracer.begin("workloads.grad_gen", step);
        let grads = gen.generate(step, PARAMS);
        ctx.tracer.end(s);
        let before = Counters::of(dev.ssd());
        let t = Stopwatch::start();
        let s = ctx.tracer.begin("bench.item", step);
        let s2 = ctx.tracer.begin("core.run_step", step);
        let r = dev.run_step(Some(&grads), at).expect("step");
        ctx.tracer.end(s2);
        ctx.tracer.end(s);
        let lap = t.lap();
        let d = Counters::of(dev.ssd()).since(&before);
        at = r.end;

        let s = ctx.tracer.begin("baselines.host_dram.check", step);
        reference
            .run_step(Some(&grads), SimTime::ZERO)
            .expect("reference step");
        ctx.tracer.end(s);

        if step == 1 {
            run.digest.push(format!("warm-up {r:?}"));
            continue;
        }
        timed += 1;
        run.item.push(lap);
        run.step.push(lap);
        run.yardstick();
        run.ops.add(&d);
        run.kernel_groups += r.groups_total - r.groups_skipped;
        if timed <= PREFIX {
            run.digest.push(format!("step {step} {r:?}"));
            sim_ns.push(r.duration.as_ns());
            prefix_busy.add(&d);
            if timed == PREFIX {
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
    let mut sorted = sim_ns.clone();
    sorted.sort_unstable();
    run.digest.push(format!(
        "sim_step_ms {}",
        sorted[sorted.len() / 2] as f64 / 1e6
    ));

    // Every timed step fed the same gradients to both; one comparison at
    // the end covers them all.
    let master = dev.read_master_weights(at).expect("read back");
    let expect = reference.weights().expect("functional reference");
    let exact = master.len() == expect.len()
        && master
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    for _ in 0..step {
        run.check(exact);
    }

    if ctx.traced() {
        let busy = BusyShare::of(&prefix_busy, dev.ssd(), sim_ns.iter().sum());
        run.busy(busy);
        data_plane_layers(&mut run, &dev, &weights, &gen);
        let (program_us, read_us) = replay::program_read_on(&mut dev, 2048);
        run.layer("ssdsim.program_us", program_us);
        run.layer("ssdsim.read_us", read_us);
        run.layer("nandsim.die_new_ms", replay::die_new_ms(ssd.nand, true));
        run.layer("ssdsim.device_new_s", replay::device_new_s(ssd, true, 5));
        run.layer("ssdsim.ftl_new_ms", replay::ftl_new_ms(&ssd));
    }
    run
}

/// The data plane's per-layer metrics on a functional device: pool calls
/// per step, and replays of the kernels and of one pool call per die batch
/// on the workload's own weights and gradients.
pub fn data_plane_layers(
    run: &mut Run,
    dev: &OptimStoreDevice,
    weights: &[f32],
    gen: &GradientGen,
) {
    let layout = dev.layout();
    let ppg = layout.params_per_group() as usize;
    let batch = dev.ssd().config().total_dies() as usize;
    let batches = layout.num_groups().div_ceil(batch as u64);
    // Two pool calls per die batch: gradient prep and the kernels.
    run.layer("simkit.par_calls_per_step", 2.0 * batches as f64);
    let grads = gen.generate(1, ppg * batch);
    let (opt, _) = optimizer_and_spec(OptimizerKind::Adam);
    let (update_us, encode_us) =
        replay::kernels_us(opt.as_ref(), &weights[..ppg], &grads[..ppg], GradDtype::F16);
    run.layer("optim-math.update_chunk_us_per_group", update_us);
    run.layer("optim-math.encode_grads_us_per_group", encode_us);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    run.layer(
        "simkit.par_call_us",
        replay::par_call_us(&grads, ppg, batch, GradDtype::F16, nproc),
    );
    run.layer(
        "simkit.par_inline_us",
        replay::par_call_us(&grads, ppg, batch, GradDtype::F16, 1),
    );
}
