//! `figure-cells`: the F4/F7 measurement pattern. For a few channel × die
//! geometries of F7's sweep at the base TLC die, and for each tier, build a
//! phantom device for the gpt3-13b slice at `DEFAULT_SLICE_CAP`, load it,
//! run a warm-up step and a measured step. Cells run one after another in
//! rounds. The first round is untimed: it warms the allocator and records
//! the `StepReport`s that every later round must reproduce field for field.

use crate::probe::{BusyShare, Counters, Lap, Stopwatch};
use crate::replay;
use crate::run::{Ctx, Run};
use baselines::HostNvmeBaseline;
use optim_math::OptimizerKind;
use optimstore_bench::runners::{default_host_cfg, granule, optimizer_and_spec, DEFAULT_SLICE_CAP};
use optimstore_core::{OptimStoreConfig, OptimStoreDevice, StepReport};
use simkit::SimTime;
use ssdsim::SsdConfig;
use std::time::Instant;
use workloads::SlicedRun;

/// Channels × dies per channel, from F7's sweep; the last is the base SSD.
const GEOMETRIES: [(u32, u32); 3] = [(4, 2), (8, 4), (8, 8)];
const TIERS: [&str; 3] = ["host-nvme", "channel-ndp", "die-ndp"];
const ADAM: OptimizerKind = OptimizerKind::Adam;
/// Pages the traced pass replays programs and reads on.
const REPLAY_PAGES: usize = 512;

fn geometry(channels: u32, dies: u32) -> SsdConfig {
    SsdConfig {
        channels,
        dies_per_channel: dies,
        ..SsdConfig::base()
    }
}

/// One finished cell.
struct Cell {
    warm: StepReport,
    measured: StepReport,
    setup: Lap,
    step: Lap,
    /// Counters over the measured step.
    ops: Counters,
    /// Simulated busy shares over the measured step.
    busy: BusyShare,
    snapshot: String,
    /// The die-NDP device, kept for the traced pass's replays.
    kept: Option<OptimStoreDevice>,
}

fn run_cell(ctx: &mut Ctx, id: u64, ssd: SsdConfig, tier: &str, keep: bool) -> Cell {
    let params = dnn_model::zoo::gpt3_13b().params();
    let slice = SlicedRun::plan(params, DEFAULT_SLICE_CAP, granule(&ssd));
    let (optimizer, spec) = optimizer_and_spec(ADAM);
    let tr = &mut ctx.tracer;
    if tier == "host-nvme" {
        let t = Stopwatch::start();
        let s = tr.begin("baselines.host_nvme.new", id);
        let mut dev =
            HostNvmeBaseline::new(ssd, default_host_cfg(), slice.sim_params, optimizer, spec)
                .expect("the gpt3-13b slice fits every F7 geometry");
        tr.end(s);
        let s = tr.begin("baselines.host_nvme.load", id);
        let t0 = dev.load_phantom(SimTime::ZERO).expect("phantom load");
        tr.end(s);
        let setup = t.lap();
        let s = tr.begin("baselines.host_nvme.warm", id);
        let t1 = dev.spill_gradients(None, t0).expect("spill");
        let warm = dev.run_step(t1).expect("warm-up step");
        tr.end(s);
        let before = Counters::of(dev.ssd());
        let t = Stopwatch::start();
        let s = tr.begin("baselines.host_nvme.step", id);
        let t2 = dev.spill_gradients(None, warm.end).expect("spill");
        let measured = dev.run_step(t2).expect("measured step");
        tr.end(s);
        let step = t.lap();
        let ops = Counters::of(dev.ssd()).since(&before);
        Cell {
            busy: BusyShare::of(&ops, dev.ssd(), measured.duration.as_ns()),
            snapshot: dev.ssd().stats().to_snapshot(),
            warm,
            measured,
            setup,
            step,
            ops,
            kept: None,
        }
    } else {
        let cfg = if tier == "die-ndp" {
            OptimStoreConfig::die_ndp()
        } else {
            OptimStoreConfig::channel_ndp()
        };
        let t = Stopwatch::start();
        let s = tr.begin("core.new", id);
        let mut dev = OptimStoreDevice::new(ssd, cfg, slice.sim_params, optimizer, spec)
            .expect("the gpt3-13b slice fits every F7 geometry");
        tr.end(s);
        let s = tr.begin("core.load", id);
        let t0 = dev.load_phantom(SimTime::ZERO).expect("phantom load");
        tr.end(s);
        let setup = t.lap();
        let s = tr.begin("core.warm", id);
        let warm = dev.run_step(None, t0).expect("warm-up step");
        tr.end(s);
        let t1 = dev.quiesce_time().max(warm.end);
        let before = Counters::of(dev.ssd());
        let t = Stopwatch::start();
        let s = tr.begin("core.run_step", id);
        let measured = dev.run_step(None, t1).expect("measured step");
        tr.end(s);
        let step = t.lap();
        let ops = Counters::of(dev.ssd()).since(&before);
        Cell {
            busy: BusyShare::of(&ops, dev.ssd(), measured.duration.as_ns()),
            snapshot: dev.ssd().stats().to_snapshot(),
            warm,
            measured,
            setup,
            step,
            ops,
            kept: keep.then_some(dev),
        }
    }
}

/// Each NDP step streams one gradient page per update group over PCIe.
fn pcie_in_ok(r: &StepReport, page_bytes: u64) -> bool {
    r.tier == "host-nvme" || r.traffic.pcie_in == r.groups_total * page_bytes
}

pub fn run(ctx: &mut Ctx) -> Run {
    let mut run = Run::default();
    let mut first_round: Vec<(String, String)> = Vec::new();
    let mut sim_ms: Vec<f64> = Vec::new();
    // Counters and step time of the NDP (core) cells alone.
    let mut core_ops = Counters::default();
    let mut core_steps = 0u64;
    let mut round = 0u64;
    let mut started = Instant::now();
    run.round = GEOMETRIES.len() * TIERS.len();
    // Round 0 warms up; at least two timed rounds follow.
    while round < 3 || started.elapsed() < ctx.budget {
        for (gi, &(channels, dies)) in GEOMETRIES.iter().enumerate() {
            let ssd = geometry(channels, dies);
            let base = gi + 1 == GEOMETRIES.len();
            for (ti, &tier) in TIERS.iter().enumerate() {
                let id = round * 100 + gi as u64 * 10 + ti as u64;
                let keep = ctx.traced() && round == 0 && base && tier == "die-ndp";
                let t = Stopwatch::start();
                let s = ctx.tracer.begin("bench.item", id);
                let mut cell = run_cell(ctx, id, ssd, tier, keep);
                let kept = cell.kept.take();
                ctx.tracer.end(s);
                if round > 0 {
                    run.item.push(t.lap());
                    run.setup.push(cell.setup);
                    run.step.push(cell.step);
                    run.ops.add(&cell.ops);
                    if tier != "host-nvme" {
                        core_ops.add(&cell.ops);
                        core_steps += 1;
                    }
                    run.yardstick();
                }

                let pb = ssd.nand.geometry.page_bytes as u64;
                let reports = (format!("{:?}", cell.warm), format!("{:?}", cell.measured));
                let repeat_ok = round == 0 || first_round[gi * TIERS.len() + ti] == reports;
                run.check(
                    repeat_ok && pcie_in_ok(&cell.warm, pb) && pcie_in_ok(&cell.measured, pb),
                );
                if round == 0 {
                    let label = format!("cell {channels}x{dies} {tier}");
                    run.digest.push(format!("{label} warm {}", reports.0));
                    run.digest.push(format!("{label} measured {}", reports.1));
                    run.digest.push(format!(
                        "{label} stats {}",
                        cell.snapshot.trim_end().replace('\n', " ")
                    ));
                    run.digest.push(format!(
                        "{label} sim_step_ms {}",
                        cell.measured.duration.as_ms_f64()
                    ));
                    sim_ms.push(cell.measured.duration.as_ms_f64());
                    first_round.push(reports);
                    if base && tier == "die-ndp" {
                        run.busy(cell.busy);
                    }
                }
                if let Some(mut dev) = kept {
                    replay_on_base(&mut run, &mut dev);
                }
            }
        }
        if round == 0 {
            started = Instant::now();
        }
        round += 1;
    }
    // Simulated speed-up of die-NDP over host-NVMe, per geometry.
    for (gi, &(channels, dies)) in GEOMETRIES.iter().enumerate() {
        let host = sim_ms[gi * TIERS.len()];
        let die = sim_ms[gi * TIERS.len() + 2];
        run.digest
            .push(format!("sim_speedup {channels}x{dies} {}", host / die));
    }
    if ctx.traced() {
        let base = geometry(8, 8);
        run.layer("nandsim.die_new_ms", replay::die_new_ms(base.nand, false));
        run.layer("ssdsim.device_new_s", replay::device_new_s(base, false, 1));
        run.layer("ssdsim.ftl_new_ms", replay::ftl_new_ms(&base));
        let n = core_steps as f64;
        let self_ms = crate::run::self_ms_estimate(
            crate::stats::median(&ctx.tracer.ms_of("core.run_step")),
            core_ops.array_reads as f64 / n,
            core_ops.programs as f64 / n,
            &run.layers,
        );
        run.layer("core.self_ms_per_step", self_ms);
    }
    run
}

/// The traced pass's replays on the base-geometry die-NDP device.
fn replay_on_base(run: &mut Run, dev: &mut OptimStoreDevice) {
    let (program_us, read_us) = replay::program_read_on(dev, REPLAY_PAGES);
    run.layer("ssdsim.program_us", program_us);
    run.layer("ssdsim.read_us", read_us);
}
