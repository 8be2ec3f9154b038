//! The reconstructed tables and figures (DESIGN.md §4).
//!
//! Each function renders one experiment's rows/series in the fixed-width
//! format EXPERIMENTS.md records. [`REGISTRY`] lists them in output order
//! under the ids the `experiments` binary accepts, with the titles that
//! [`Invocation::run`] prints in each `=== <label>: <title> ===` header
//! (`T1` for `table1_models`, `F3` for `fig3_motivation`). Each takes
//! the invocation's [`Context`]: its `cap` (maximum simulated parameters
//! per run, [`DEFAULT_SLICE_CAP`] by default) trades fidelity for time,
//! and it simulates each phantom cell once for every figure.

use crate::runners::{
    bit_exact, granule, host_tier, optimizer_and_spec, Context, CrashCell, DegradedCell, Measured,
    Prep, SeededRun, DEFAULT_SLICE_CAP,
};
use crate::table::{bar_chart, fmt_bytes, fmt_rate, fmt_secs, Table};
use dnn_model::{zoo, GpuSpec, IterationBreakdown, TrainingFootprint, ZeroPartition};
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::OptimizerKind;
use optimstore_core::endurance::{analytic_erases_per_step, EnduranceReport};
use optimstore_core::{GradStaging, LayoutPolicy, OptimStoreConfig, OptimStoreDevice};
use simkit::{par, SimDuration, SimTime};
use ssdsim::{GcPolicy, Lpn, PciGen, SsdConfig};
use workloads::SlicedRun;

const ADAM: OptimizerKind = OptimizerKind::Adam;

/// A duration, formatted.
fn secs(d: SimDuration) -> String {
    fmt_secs(d.as_secs_f64())
}

/// `a / b` as a speedup or slowdown.
fn ratio(a: SimDuration, b: SimDuration) -> String {
    format!("{:.2}x", a.as_secs_f64() / b.as_secs_f64())
}

/// T1 — the model zoo with optimizer-state footprints and per-step traffic.
pub fn table1_models(_: &Context) -> String {
    let spec = StateLayoutSpec::new(ADAM, GradDtype::F16);
    let mut t = Table::new(&[
        "model",
        "layers",
        "hidden",
        "params",
        "flash state",
        "step traffic",
    ]);
    for m in zoo::evaluation_models() {
        let f = TrainingFootprint::of(&m, &spec);
        t.row(&[
            m.name.into(),
            m.layers.to_string(),
            m.hidden.to_string(),
            format!("{:.2} B", m.params_b()),
            fmt_bytes(f.flash_resident_bytes()),
            fmt_bytes(f.step_traffic_bytes()),
        ]);
    }
    t.render()
}

/// T2 — the SSD configurations.
pub fn table2_ssd_config(_: &Context) -> String {
    let mut t = Table::new(&[
        "config",
        "channels",
        "dies/ch",
        "raw cap",
        "pcie/dir",
        "bus agg",
        "array read",
        "array prog",
    ]);
    for (name, cfg) in [
        ("small", SsdConfig::small()),
        ("base", SsdConfig::base()),
        ("big", SsdConfig::big()),
    ] {
        t.row(&[
            name.into(),
            cfg.channels.to_string(),
            cfg.dies_per_channel.to_string(),
            fmt_bytes(cfg.raw_bytes()),
            fmt_rate(cfg.pcie.bytes_per_sec() as f64),
            fmt_rate(cfg.aggregate_bus_bytes_per_sec() as f64),
            fmt_rate(cfg.aggregate_array_read_bytes_per_sec() as f64),
            fmt_rate(cfg.aggregate_array_program_bytes_per_sec() as f64),
        ]);
    }
    t.render()
}

/// F3 — motivation: optimizer-step share of iteration time under host
/// offload, across model sizes.
pub fn fig3_motivation(ctx: &Context) -> String {
    let ssd = SsdConfig::base();
    let gpu = GpuSpec::a100();
    let mut t = Table::new(&["model", "fwd+bwd", "opt step (host)", "opt share"]);
    for m in zoo::evaluation_models() {
        let host = ctx.measure(&ssd, &host_tier(), ADAM, m.params());
        let compute = gpu.iteration_time(&m, 8);
        let it = IterationBreakdown::synchronous(compute, host.step_time);
        t.row(&[
            m.name.into(),
            secs(compute),
            secs(host.step_time),
            format!("{:.1}%", it.optimizer_share() * 100.0),
        ]);
    }
    t.render()
}

/// Host-NVMe, channel-NDP and die-NDP on `ssd` for a `params`-parameter
/// Adam model.
fn three_tiers(ctx: &Context, ssd: &SsdConfig, params: u64) -> [Measured; 3] {
    let tiers = [
        host_tier(),
        OptimStoreConfig::channel_ndp(),
        OptimStoreConfig::die_ndp(),
    ];
    par::map_indexed(&tiers, |_, cfg| ctx.measure(ssd, cfg, ADAM, params))
        .try_into()
        .expect("one measurement per tier")
}

/// F4 — optimizer-step latency per tier across the model zoo.
pub fn fig4_step_latency(ctx: &Context) -> String {
    let ssd = SsdConfig::base();
    let mut t = Table::new(&[
        "model",
        "host-nvme",
        "channel-ndp",
        "die-ndp",
        "audit err (die)",
        "die bottleneck",
    ]);
    for m in zoo::evaluation_models() {
        let [host, ch, die] = three_tiers(ctx, &ssd, m.params());
        t.row(&[
            m.name.into(),
            secs(host.step_time),
            secs(ch.step_time),
            secs(die.step_time),
            format!("{:.1}%", die.audit_error() * 100.0),
            format!(
                "{} ({:.0}%)",
                die.sim_bottleneck.0,
                die.sim_bottleneck.1 * 100.0
            ),
        ]);
    }
    // The gpt3-13b row as a bar chart, for the at-a-glance comparison.
    let chart_model = zoo::gpt3_13b();
    let bars: Vec<_> = three_tiers(ctx, &ssd, chart_model.params())
        .iter()
        .map(|m| (m.tier.to_string(), m.step_time.as_secs_f64()))
        .collect();
    format!(
        "{}\n{} step time:\n{}",
        t.render(),
        chart_model.name,
        bar_chart(&bars, 40, "s")
    )
}

/// F5 — speedups over the host baseline, derived from F4's cells.
pub fn fig5_speedup(ctx: &Context) -> String {
    let ssd = SsdConfig::base();
    let mut t = Table::new(&["model", "channel-ndp", "die-ndp"]);
    for m in zoo::evaluation_models() {
        let [host, ch, die] = three_tiers(ctx, &ssd, m.params());
        t.row(&[
            m.name.into(),
            ratio(host.step_time, ch.step_time),
            ratio(host.step_time, die.step_time),
        ]);
    }
    t.render()
}

/// F6 — end-to-end training-iteration speedup (compute + optimizer).
pub fn fig6_end_to_end(ctx: &Context) -> String {
    let ssd = SsdConfig::base();
    let gpu = GpuSpec::a100();
    let mut t = Table::new(&["model", "iter (host)", "iter (die-ndp)", "speedup"]);
    for m in zoo::evaluation_models() {
        let host = ctx.measure(&ssd, &host_tier(), ADAM, m.params());
        let die = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, m.params());
        let compute = gpu.iteration_time(&m, 8);
        let it_host = IterationBreakdown::synchronous(compute, host.step_time).total();
        let it_die = IterationBreakdown::synchronous(compute, die.step_time).total();
        t.row(&[
            m.name.into(),
            secs(it_host),
            secs(it_die),
            ratio(it_host, it_die),
        ]);
    }
    t.render()
}

/// F7 — sensitivity to internal parallelism (channels × dies/channel),
/// GPT-3 13B.
pub fn fig7_parallelism(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let mut t = Table::new(&[
        "channels",
        "dies/ch",
        "total dies",
        "die-ndp",
        "host-nvme",
        "speedup",
    ]);
    for channels in [4u32, 8, 16, 32] {
        for dies in [2u32, 4, 8] {
            let cfg = SsdConfig {
                channels,
                dies_per_channel: dies,
                ..SsdConfig::base()
            };
            // State must fit.
            let spec = StateLayoutSpec::new(ADAM, GradDtype::F16);
            if spec.model_footprint(params) > cfg.logical_bytes() {
                continue;
            }
            let die = ctx.measure(&cfg, &OptimStoreConfig::die_ndp(), ADAM, params);
            let host = ctx.measure(&cfg, &host_tier(), ADAM, params);
            t.row(&[
                channels.to_string(),
                dies.to_string(),
                (channels * dies).to_string(),
                secs(die.step_time),
                secs(host.step_time),
                ratio(host.step_time, die.step_time),
            ]);
        }
    }
    t.render()
}

/// F8 — sensitivity to external (PCIe) bandwidth, GPT-3 13B.
pub fn fig8_pcie(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let mut t = Table::new(&[
        "pcie GB/s",
        "host-nvme",
        "die-ndp",
        "speedup",
        "host bottleneck",
    ]);
    for gbps in [2u64, 4, 8, 16, 32, 64] {
        let cfg = SsdConfig {
            pcie: PciGen::Custom(gbps * 1_000_000_000),
            ..SsdConfig::base()
        };
        let host = ctx.measure(&cfg, &host_tier(), ADAM, params);
        let die = ctx.measure(&cfg, &OptimStoreConfig::die_ndp(), ADAM, params);
        t.row(&[
            gbps.to_string(),
            secs(host.step_time),
            secs(die.step_time),
            ratio(host.step_time, die.step_time),
            host.audit.bottleneck.into(),
        ]);
    }
    t.render()
}

/// F9 — energy per optimizer step, broken down by component.
pub fn fig9_energy(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let mut t = Table::new(&[
        "tier", "array", "bus", "pcie", "dram", "host", "compute", "total", "pJ/param",
    ]);
    for m in three_tiers(ctx, &SsdConfig::base(), params) {
        let e = m.energy;
        t.row(&[
            m.tier.into(),
            format!("{:.2}", e.array_read + e.array_program + e.erase),
            format!("{:.2}", e.bus),
            format!("{:.2}", e.pcie),
            format!("{:.2}", e.dram),
            format!("{:.2}", e.host),
            format!("{:.2}", e.compute),
            format!("{:.2}", e.total()),
            format!("{:.1}", e.per_param(params) * 1e12),
        ]);
    }
    t.render()
}

/// F10 — layout ablation: co-located vs tensor-striped placement.
pub fn fig10_layout(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let co = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, params);
    let striped_cfg = OptimStoreConfig {
        layout: LayoutPolicy::TensorStriped,
        ..OptimStoreConfig::die_ndp()
    };
    let striped = ctx.measure(&ssd, &striped_cfg, ADAM, params);
    let mut t = Table::new(&["layout", "step time", "bus bytes", "slowdown"]);
    for (name, m) in [("co-located", co), ("tensor-striped", striped)] {
        t.row(&[
            name.into(),
            secs(m.step_time),
            fmt_bytes(m.traffic.bus),
            ratio(m.step_time, co.step_time),
        ]);
    }
    t.render()
}

/// F11 — endurance: erase rate, wear imbalance, projected lifetime.
///
/// Runs a *fine-tuning* style workload (a hot fraction of state rewritten
/// every step) on a small functional-scale device so GC and wear levelling
/// actually engage, with and without wear levelling.
pub fn fig11_endurance(_: &Context) -> String {
    let mut t = Table::new(&[
        "policy",
        "steps",
        "erases/step",
        "WAF",
        "imbalance",
        "proj. steps to wear-out",
    ]);
    for (name, wl, static_wl) in [
        ("none", false, None),
        ("dynamic", true, None),
        ("dynamic+static", true, Some(3u64)),
    ] {
        let mut cfg = SsdConfig::tiny();
        cfg.gc = GcPolicy {
            wear_leveling: wl,
            static_wl_threshold: static_wl,
        };
        let mut dev = ssdsim::Device::new(cfg);
        // Hot/cold split: 20% of pages rewritten every "step" (frozen-layer
        // fine-tune), 80% written once.
        let pages = dev.logical_pages();
        let hot = pages / 5;
        for i in 0..pages {
            dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
        }
        let steps = 40u64;
        for _ in 0..steps {
            for i in 0..hot {
                dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
            }
        }
        let rep = EnduranceReport::measure(&dev, steps);
        t.row(&[
            name.to_string(),
            steps.to_string(),
            format!("{:.1}", rep.erases_per_step),
            format!("{:.2}", rep.waf),
            format!("{:.2}", rep.wear_imbalance),
            format!("{:.2e}", rep.projection.steps_to_exhaustion_imbalanced),
        ]);
    }

    // Full-scale analytic projection for the paper's training scenario.
    let ssd = SsdConfig::base();
    let spec = StateLayoutSpec::new(ADAM, GradDtype::F16);
    let params = zoo::gpt3_13b().params();
    let per_step = analytic_erases_per_step(params, &spec, &ssd, 1.05);
    let blocks = ssd.total_dies() as u64 * ssd.nand.geometry.blocks_per_die();
    let budget = blocks * ssd.nand.rated_pe_cycles();
    let steps = budget as f64 / per_step;
    format!(
        "{}analytic (gpt3-13b on base SSD, WAF 1.05): {per_step:.0} erases/step, \
         {steps:.2e} steps to rated wear-out ({:.0} days at 1 step/s)\n",
        t.render(),
        steps / 86_400.0
    )
}

/// F12 — batch-size sensitivity: optimizer share of the iteration.
pub fn fig12_batch(ctx: &Context) -> String {
    let m = zoo::gpt3_13b();
    let ssd = SsdConfig::base();
    let gpu = GpuSpec::a100();
    let host = ctx.measure(&ssd, &host_tier(), ADAM, m.params());
    let die = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, m.params());
    let mut t = Table::new(&["batch", "fwd+bwd", "share (host)", "share (die-ndp)"]);
    for batch in [1u32, 2, 4, 8, 16, 32, 64] {
        let compute = gpu.iteration_time(&m, batch);
        let s_host = IterationBreakdown::synchronous(compute, host.step_time);
        let s_die = IterationBreakdown::synchronous(compute, die.step_time);
        t.row(&[
            batch.to_string(),
            secs(compute),
            format!("{:.1}%", s_host.optimizer_share() * 100.0),
            format!("{:.1}%", s_die.optimizer_share() * 100.0),
        ]);
    }
    t.render()
}

/// F13 — multi-device scaling (GPT-3 175B sharded ZeRO-style).
pub fn fig13_scaling(ctx: &Context) -> String {
    let params = zoo::gpt3_175b().params();
    let ssd = SsdConfig::base();
    let mut t = Table::new(&[
        "SSDs",
        "shard params",
        "die-ndp step",
        "host step",
        "speedup",
    ]);
    for devices in [1u32, 2, 4, 8] {
        let shard = ZeroPartition::new(params, devices).max_shard();
        // Die-NDP shards run independently: the fleet step is one shard's
        // simulated step. The host fleet shares one updater (simulated I/O
        // per shard, shared-updater bound across shards).
        let die = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, shard);
        let host = ctx.host_fleet(&ssd, ADAM, params, devices);
        t.row(&[
            devices.to_string(),
            format!("{:.1} B", shard as f64 / 1e9),
            secs(die.step_time),
            secs(host),
            ratio(host, die.step_time),
        ]);
    }
    t.render()
}

/// T14 — functional correctness: in-storage vs host-reference updates must
/// be bit-exact.
pub fn table14_correctness(_: &Context) -> String {
    let mut t = Table::new(&["optimizer", "tier", "params", "steps", "max ULP diff"]);
    let run = SeededRun {
        params: 20_000,
        seed: 99,
    };
    let steps = 3u64;
    for kind in [
        OptimizerKind::Adam,
        OptimizerKind::AdamW,
        OptimizerKind::SgdMomentum,
    ] {
        let expect = run.reference(kind, steps);
        for (tier_name, cfg) in [
            ("die-ndp", OptimStoreConfig::die_ndp()),
            ("channel-ndp", OptimStoreConfig::channel_ndp()),
        ] {
            let (mut dev, at) = run.load(SsdConfig::tiny(), cfg, kind);
            let at = run.train(&mut dev, 1..=steps, at);
            let got = dev.read_master_weights(at).unwrap();
            let max_ulp = got
                .iter()
                .zip(&expect)
                .map(|(a, b)| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs())
                .max()
                .unwrap();
            t.row(&[
                format!("{kind:?}"),
                tier_name.into(),
                run.params.to_string(),
                steps.to_string(),
                max_ulp.to_string(),
            ]);
        }
    }

    // The host tier must agree too.
    let run = SeededRun {
        params: 10_000,
        seed: 7,
    };
    let (mut dev, at) = run.load(SsdConfig::tiny(), host_tier(), ADAM);
    let at = run.train(&mut dev, 1..=1, at);
    let agree = bit_exact(
        &dev.read_master_weights(at).unwrap(),
        &run.reference(ADAM, 1),
    );
    format!(
        "{}host-nvme baseline bit-exact vs reference: {agree}\n",
        t.render()
    )
}

/// F15 — optimizer ablation: state size drives step time.
pub fn fig15_optimizers(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let mut t = Table::new(&[
        "optimizer",
        "state B/param",
        "flash state",
        "step time",
        "vs adam",
    ]);
    let adam = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, params);
    for kind in OptimizerKind::all() {
        let spec = StateLayoutSpec::new(kind, GradDtype::F16);
        let m = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), kind, params);
        t.row(&[
            format!("{kind:?}"),
            spec.persistent_bytes().to_string(),
            fmt_bytes(spec.model_footprint(params)),
            secs(m.step_time),
            ratio(m.step_time, adam.step_time),
        ]);
    }
    t.render()
}

/// F16 — gradient-staging ablation (stream vs store-to-flash).
pub fn fig16_grad_staging(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let mut t = Table::new(&["staging", "step time", "array prog bytes", "slowdown"]);
    let stream = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, params);
    let store_cfg = OptimStoreConfig {
        grad_staging: GradStaging::StoreToFlash,
        ..OptimStoreConfig::die_ndp()
    };
    let store = ctx.measure(&ssd, &store_cfg, ADAM, params);
    for (name, m) in [("stream", stream), ("store-to-flash", store)] {
        t.row(&[
            name.into(),
            secs(m.step_time),
            fmt_bytes(m.traffic.array_program),
            ratio(m.step_time, stream.step_time),
        ]);
    }
    t.render()
}

/// F17 — sparse (lazy) updates: frozen-layer fine-tuning with zero-gradient
/// skipping.
pub fn fig17_sparse_updates(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let mut t = Table::new(&[
        "hot fraction",
        "step time",
        "groups skipped",
        "array prog",
        "wear (erases/step)",
    ]);
    for hot in [1.0f64, 0.5, 0.25, 0.1] {
        let cfg = OptimStoreConfig {
            skip_zero_gradients: true,
            ..OptimStoreConfig::die_ndp()
        };
        let (slice, r2, _) = ctx.cell(&ssd, &cfg, ADAM, params, Prep::HotFraction(hot));
        t.row(&[
            format!("{:.0}%", hot * 100.0),
            secs(slice.scale_duration(r2.duration)),
            format!(
                "{}/{}",
                slice.scale_count(r2.groups_skipped),
                slice.scale_count(r2.groups_total)
            ),
            fmt_bytes(slice.scale_count(r2.traffic.array_program)),
            format!("{:.0}", slice.scale_f64(r2.erases as f64)),
        ]);
    }
    t.render()
}

/// F18 — device aging: optimizer-step time as the NAND wears out
/// (read-retries inflate tR).
pub fn fig18_aging(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let rated = ssd.nand.rated_pe_cycles();
    let mut t = Table::new(&["age (P/E)", "% of rated", "step time", "vs fresh"]);
    let mut fresh = SimDuration::ZERO;
    for frac in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let pe = (rated as f64 * frac) as u64;
        let cfg = OptimStoreConfig::die_ndp();
        let (slice, r2, _) = ctx.cell(&ssd, &cfg, ADAM, params, Prep::Wear(pe));
        let step = slice.scale_duration(r2.duration);
        if frac == 0.0 {
            fresh = step;
        }
        t.row(&[
            pe.to_string(),
            format!("{:.0}%", frac * 100.0),
            secs(step),
            ratio(step, fresh),
        ]);
    }
    t.render()
}

/// F19 — checkpoint overhead: a checkpoint must cross PCIe regardless of
/// tier, so how much of the NDP win does periodic checkpointing return?
pub fn fig19_checkpoint(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let slice = SlicedRun::plan(params, ctx.cap, granule(&ssd));
    let (optimizer, spec) = optimizer_and_spec(ADAM);
    let mut dev = OptimStoreDevice::new(
        ssd,
        OptimStoreConfig::die_ndp(),
        slice.sim_params,
        optimizer,
        spec,
    )
    .unwrap();
    let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
    let r1 = dev.run_step(None, t0).unwrap();
    let t1 = dev.quiesce_time().max(r1.end);
    let (ck_end, ck_bytes) = dev.checkpoint(t1).unwrap();
    let ck_time = slice.scale_duration(ck_end - t1).as_secs_f64();
    let step_time = slice.scale_duration(r1.duration).as_secs_f64();
    let mut t = Table::new(&[
        "ckpt every N steps",
        "overhead on die-ndp",
        "overhead on host-nvme",
    ]);
    let host_step = ctx
        .measure(&ssd, &host_tier(), ADAM, params)
        .step_time
        .as_secs_f64();
    for interval in [100u32, 500, 1000, 5000] {
        let die_oh = ck_time / (step_time * interval as f64);
        let host_oh = ck_time / (host_step * interval as f64);
        t.row(&[
            interval.to_string(),
            format!("{:.2}%", die_oh * 100.0),
            format!("{:.2}%", host_oh * 100.0),
        ]);
    }
    format!(
        "one checkpoint reads {} in {} ({:.1}x one optimizer step)\n{}",
        fmt_bytes(slice.scale_count(ck_bytes)),
        fmt_secs(ck_time),
        ck_time / step_time,
        t.render()
    )
}

/// F20 — gradient compression: top-k delivery breaks the PCIe floor of the
/// sparse fine-tune case.
pub fn fig20_compression(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let mut t = Table::new(&["gradient stream", "step time", "pcie-in bytes"]);
    for (name, topk) in [
        ("dense (2 B/param)", None),
        ("top-10% (6 B/entry)", Some(100u16)),
        ("top-1%  (6 B/entry)", Some(10u16)),
    ] {
        let cfg = OptimStoreConfig {
            skip_zero_gradients: true,
            grad_topk_permille: topk,
            ..OptimStoreConfig::die_ndp()
        };
        let (slice, r2, _) = ctx.cell(&ssd, &cfg, ADAM, params, Prep::HotFraction(0.25));
        t.row(&[
            name.to_string(),
            secs(slice.scale_duration(r2.duration)),
            fmt_bytes(slice.scale_count(r2.traffic.pcie_in)),
        ]);
    }
    t.render()
}

/// T21 — headline planning table: wall-clock time to train each model for
/// 100 k steps, host offload vs OptimStore, including the fleet each needs
/// for capacity + endurance.
pub fn table21_time_to_train(ctx: &Context) -> String {
    const STEPS: f64 = 100_000.0;
    const WAF: f64 = 1.05;
    let ssd = SsdConfig::base();
    let gpu = GpuSpec::a100();
    let spec = StateLayoutSpec::new(ADAM, GradDtype::F16);
    let mut t = Table::new(&[
        "model",
        "SSDs",
        "iter (host)",
        "iter (die-ndp)",
        "days (host)",
        "days (die-ndp)",
        "saved",
    ]);
    for m in zoo::evaluation_models() {
        // Fleet size: capacity plus the endurance budget for the run.
        let state = spec.model_footprint(m.params());
        let for_capacity = state.div_ceil(ssd.logical_bytes()).max(1) as u32;
        let blocks = ssd.total_dies() as u64 * ssd.nand.geometry.blocks_per_die();
        let budget = (blocks * ssd.nand.rated_pe_cycles()) as f64;
        let erases = analytic_erases_per_step(m.params(), &spec, &ssd, WAF) * STEPS;
        let for_endurance = (erases / budget).ceil().max(1.0) as u32;
        let devices = for_capacity.max(for_endurance);

        let shard = ZeroPartition::new(m.params(), devices).max_shard();
        let die = ctx.measure(&ssd, &OptimStoreConfig::die_ndp(), ADAM, shard);
        let host_step = ctx.host_fleet(&ssd, ADAM, m.params(), devices);
        let compute = gpu.iteration_time(&m, 8);
        let it_host = IterationBreakdown::synchronous(compute, host_step)
            .total()
            .as_secs_f64();
        let it_die = IterationBreakdown::synchronous(compute, die.step_time)
            .total()
            .as_secs_f64();
        let days = |iter: f64| iter * STEPS / 86_400.0;
        t.row(&[
            m.name.into(),
            devices.to_string(),
            fmt_secs(it_host),
            fmt_secs(it_die),
            format!("{:.1}", days(it_host)),
            format!("{:.1}", days(it_die)),
            format!("{:.1} days", days(it_host) - days(it_die)),
        ]);
    }
    t.render()
}

/// F22 — 8-bit optimizer state: blockwise-quantized moments shrink flash
/// footprint, array traffic and wear (analytic, audit-based; the
/// quantization kernels and their convergence are unit-tested in
/// `optim-math::quant`).
pub fn fig22_quantized_state(_: &Context) -> String {
    use optimstore_core::audit::audit;
    let params = zoo::gpt3_13b().params();
    let ssd = SsdConfig::base();
    let cfg = OptimStoreConfig::die_ndp();
    let mut t = Table::new(&[
        "state encoding",
        "B/param",
        "flash state",
        "step time",
        "erases/step",
    ]);
    for (name, spec) in [
        ("fp32 moments", StateLayoutSpec::new(ADAM, GradDtype::F16)),
        (
            "8-bit moments (+scales)",
            StateLayoutSpec::with_quantized_slots(ADAM, GradDtype::F16, 2),
        ),
    ] {
        let a = audit(&ssd, &cfg, &spec);
        let erases = analytic_erases_per_step(params, &spec, &ssd, 1.05);
        t.row(&[
            name.into(),
            spec.persistent_bytes().to_string(),
            fmt_bytes(spec.model_footprint(params)),
            secs(a.step_time(params)),
            format!("{erases:.0}"),
        ]);
    }
    format!(
        "{}(8-bit moments keep Adam convergent — see optim-math::quant tests — \
         while cutting write traffic and wear by ~30%)\n",
        t.render()
    )
}

/// F23 — scheduler-granularity ablation: group-granular vs sub-group
/// pipelined engines.
pub fn fig23_scheduler_granularity(ctx: &Context) -> String {
    let ssd = SsdConfig::base();
    let params = zoo::gpt3_13b().params();
    let mut t = Table::new(&["optimizer", "scheduling", "step time", "speedup"]);
    for kind in [ADAM, OptimizerKind::SgdMomentum] {
        let mut base = SimDuration::ZERO;
        for (name, subgroup) in [("group", false), ("sub-group", true)] {
            let mut cfg = OptimStoreConfig::die_ndp();
            cfg.engine.subgroup_pipelining = subgroup;
            let step = ctx.measure(&ssd, &cfg, kind, params).step_time;
            if !subgroup {
                base = step;
            }
            t.row(&[
                format!("{kind:?}"),
                name.into(),
                secs(step),
                ratio(base, step),
            ]);
        }
    }
    t.render()
}

/// F24 — media-fault sweep: step latency and block retirement as seeded
/// faults are injected at increasing rates into devices of increasing age.
/// Program/erase failures are recovered by block retirement (plus rescue
/// copies); failed reads are retried by the device and, if still
/// uncorrectable, replayed at the update-group level — so every row
/// completes, and the cost of recovery shows up as latency, retirement
/// and write amplification. Seeded injection makes rows reproducible:
/// re-running prints identical numbers.
pub fn fig24_fault_sweep(ctx: &Context) -> String {
    let params = zoo::gpt3_13b().params();
    let base = SsdConfig::base();
    let rated = base.nand.rated_pe_cycles();
    let mut t = Table::new(&[
        "fault rate",
        "age",
        "step time",
        "vs fault-free",
        "p-fail/e-fail/r-retry",
        "retired blks",
        "rescued pages",
    ]);
    // Every grid cell builds its own seeded device, so the cells fan out on
    // the data-plane pool and merge back in grid order; the per-age-block
    // fault-free control ratios fold in serially afterwards.
    let grid = workloads::fault_sweep_grid(24);
    let cells = par::map_indexed(&grid, |_, s| {
        let ssd = if s.fault.is_active() {
            base.with_fault(s.fault)
        } else {
            base
        };
        let cfg = OptimStoreConfig::die_ndp();
        let (slice, r2, stats) = ctx.cell(&ssd, &cfg, ADAM, params, Prep::Wear(s.pe_cycles(rated)));
        (slice.scale_duration(r2.duration), stats)
    });
    let mut fault_free = SimDuration::ZERO;
    for (s, (step, st)) in grid.iter().zip(cells) {
        let rate = s.fault.program_fail;
        if rate == 0.0 {
            // First column of each age block is its fault-free control.
            fault_free = step;
        }
        t.row(&[
            if rate == 0.0 {
                "0 (control)".into()
            } else {
                format!("{rate:.0e}")
            },
            format!("{:.0}% PE", s.age_fraction * 100.0),
            secs(step),
            ratio(step, fault_free),
            format!(
                "{}/{}/{}",
                st.program_failures.get(),
                st.erase_failures.get(),
                st.read_retries.get()
            ),
            st.retired_blocks.get().to_string(),
            st.rescue_copies.get().to_string(),
        ]);
    }
    format!(
        "{}(counts cover state load + 2 steps on the simulated slice; \
         seeded injection makes every row deterministic)\n",
        t.render()
    )
}

/// F25 — crash-recovery sweep: sudden power loss at every schedule in
/// [`workloads::crash_schedules`] (early-step, mid-step, write-back tail,
/// mid-GC-erase, double-crash) across journal flush intervals.
///
/// Runs **functionally** on [`CrashCell`]: each row crashes a fresh device,
/// mounts, replays, finishes training and compares master weights with the
/// uncrashed reference. Tight journaling shrinks the mount's OOB scan but
/// spends more journal pages (and their serial replay can itself dominate
/// the mount).
pub fn fig25_crash_sweep(_: &Context) -> String {
    let run = SeededRun {
        params: 200_000,
        seed: 0xF25,
    };
    let mut t = Table::new(&[
        "flush int",
        "schedule",
        "crash in",
        "journal pgs",
        "scanned pgs",
        "mount time",
        "recovery",
        "bit-exact",
    ]);
    // 16 is the tightest interval whose never-reclaimed journal blocks
    // still fit on die 0 alongside three epochs of state.
    for interval in [16u32, 64, 256] {
        let cell = CrashCell::new(run, interval);
        // Every schedule crashes its own fresh device against the shared
        // reference, so the schedules of an interval fan out on the
        // data-plane pool and their rows merge back in schedule order.
        let rows = par::map_indexed(&workloads::crash_schedules(25), |_, s| {
            let (mut dev, crash) = cell.crash(s);
            let rec = crash.recovery;
            let at = run.train(&mut dev, crash.step + 1..=CrashCell::STEPS, rec.end);
            let exact = bit_exact(&dev.read_master_weights(at).unwrap(), &cell.master);
            [
                interval.to_string(),
                s.name.into(),
                format!("step {}", crash.step),
                crash.journal_pages.to_string(),
                rec.mount.pages_scanned.to_string(),
                secs(rec.mount.window.end - rec.mount.window.start),
                secs(rec.end - crash.at),
                if exact { "yes".into() } else { "NO".into() },
            ]
        });
        for row in rows {
            t.row(&row);
        }
    }
    format!(
        "{}(each row: fresh device, power cut at the schedule's instant, mount + \
         replay + remaining steps; 'bit-exact' compares final master weights \
         to the uncrashed reference)\n",
        t.render()
    )
}

/// F26 — reliability sweep: seeded page losses plus media aging (read
/// disturb + retention) across RAIN parity on/off and scrub budgets,
/// checked bit-exactly against a fault-free reference.
///
/// Runs **functionally** on [`DegradedCell`]. With parity off the first
/// corrupted operand read aborts the run; with parity on every loss is
/// reconstructed from stripe peers — by the patrol scrub when its budget
/// reaches the victim first, by the step's own reads otherwise — and the
/// final master weights match the fault-free reference bit for bit.
pub fn fig26_reliability_sweep(ctx: &Context) -> String {
    use ssdsim::ScrubConfig;

    let run = SeededRun {
        params: ctx.cap.clamp(40_000, 200_000),
        seed: 0xF26,
    };
    let cell = DegradedCell::new(run);
    let mut t = Table::new(&[
        "schedule",
        "parity",
        "scrub",
        "outcome",
        "injected",
        "reconstr",
        "scrub rd/rep/refr",
        "lost",
        "state traffic",
    ]);
    // Every point trains its own fresh device against the shared
    // fault-free reference, so the whole schedule x (parity, scrub) grid
    // fans out on the data-plane pool; rows merge back in grid order.
    let points = [
        (false, None, "off"),
        (true, None, "off"),
        (true, Some(ScrubConfig::per_step(64)), "64/step"),
        (true, Some(ScrubConfig::per_step(512)), "512/step"),
    ];
    let scheds = workloads::aging_schedules(26);
    let grid: Vec<_> = scheds
        .iter()
        .flat_map(|sched| points.map(|point| (sched, point)))
        .collect();
    let rows = par::map_indexed(&grid, |_, &(sched, (parity, scrub, scrub_name))| {
        let (mut dev, at) = run.load_adam(DegradedCell::ssd(sched, parity, scrub));
        let d = cell.degrade(&mut dev, sched, 1..=DegradedCell::STEPS, at);
        let outcome = match d.outcome {
            Err((step, _)) => format!("LOST@step{step}"),
            Ok(at) if bit_exact(&dev.read_master_weights(at).unwrap(), &cell.master) => {
                "bit-exact".into()
            }
            Ok(_) => "DRIFT".into(),
        };
        let traffic: u64 = d
            .steps
            .iter()
            .map(|r| r.traffic.array_read + r.traffic.array_program)
            .sum();
        let st = dev.ssd().stats();
        [
            sched.name.into(),
            if parity { "on" } else { "off" }.into(),
            scrub_name.into(),
            outcome,
            d.injected.to_string(),
            st.parity_reconstructions.get().to_string(),
            format!(
                "{}/{}/{}",
                st.scrub_reads.get(),
                st.scrub_repairs.get(),
                st.scrub_refreshes.get()
            ),
            st.uncorrectable_reads.get().to_string(),
            fmt_bytes(traffic),
        ]
    });
    for row in rows {
        t.row(&row);
    }
    format!(
        "{}(each cell: fresh device, {} steps, seeded losses injected between \
         steps into distinct stripes; 'reconstr' counts reads recovered from \
         parity, 'lost' counts reads that stayed uncorrectable; 'bit-exact' \
         compares final master weights to the fault-free reference)\n",
        t.render(),
        DegradedCell::STEPS
    )
}

/// One registered experiment: its id (the `experiments` binary's argument),
/// its header title and its entry point.
pub type Experiment = (&'static str, &'static str, fn(&Context) -> String);

/// Builds [`REGISTRY`] from `function: title` entries: an experiment's id
/// is its function's name.
macro_rules! registry {
    ($($run:ident: $title:literal,)*) => {
        [$((stringify!($run), $title, $run as fn(&Context) -> String),)*]
    };
}

/// Every experiment, in the order `experiments all` prints them.
pub static REGISTRY: [Experiment; 26] = registry! {
    table1_models: "evaluation models and optimizer-state footprints (Adam, fp16 grads)",
    table2_ssd_config: "SSD configurations",
    fig3_motivation:
        "optimizer share of training iteration under host-NVMe offload (A100, batch 8)",
    fig4_step_latency: "optimizer-step latency: host-nvme vs channel-ndp vs die-ndp (base SSD)",
    fig5_speedup: "speedup over host-nvme offload",
    fig6_end_to_end: "end-to-end iteration speedup, die-ndp vs host-nvme (A100, batch 8)",
    fig7_parallelism: "die-ndp step time vs internal parallelism (gpt3-13b)",
    fig8_pcie: "step time vs PCIe bandwidth (gpt3-13b, base SSD internals)",
    fig9_energy: "optimizer-step energy (gpt3-13b), joules by component",
    fig10_layout: "layout ablation (gpt3-13b, die-ndp): co-located vs tensor-striped",
    fig11_endurance: "endurance: wear under repeated state rewrites (tiny device, hot/cold split)",
    fig12_batch: "optimizer share vs batch size (gpt3-13b, A100)",
    fig13_scaling: "multi-SSD scaling (gpt3-175b, ZeRO sharding)",
    table14_correctness: "functional correctness: in-storage vs reference (max ULP distance)",
    fig15_optimizers: "optimizer ablation (gpt3-13b, die-ndp)",
    fig16_grad_staging: "gradient staging ablation (gpt3-13b, die-ndp)",
    fig17_sparse_updates: "lazy zero-gradient skipping (gpt3-13b, die-ndp, frozen-layer fine-tune)",
    fig18_aging: "step time vs device age (gpt3-13b, die-ndp; read-retries grow with wear)",
    fig19_checkpoint: "checkpoint overhead (gpt3-13b): state readout vs checkpoint interval",
    fig20_compression:
        "top-k gradient compression (gpt3-13b, die-ndp, 25% hot fine-tune + lazy skip)",
    table21_time_to_train:
        "time to train 100k steps (A100 batch 8, fleet sized for capacity+endurance)",
    fig22_quantized_state: "8-bit optimizer state (gpt3-13b, die-ndp; audit-based)",
    fig23_scheduler_granularity:
        "engine scheduling granularity (die-ndp): group vs sub-group pipelining",
    fig24_fault_sweep:
        "media-fault sweep (gpt3-13b, die-ndp): step latency & retirement vs fault rate x age",
    fig25_crash_sweep:
        "crash-recovery sweep: journal flush interval x crash schedule (functional, bit-exact)",
    fig26_reliability_sweep:
        "reliability sweep: aging schedule x scrub budget x RAIN parity (functional, bit-exact)",
};

/// An id's header label: `table1_models` -> `T1`, `fig3_motivation` -> `F3`.
fn label(id: &str) -> String {
    let num = id.split('_').next().unwrap_or(id);
    match num.strip_prefix("table") {
        Some(n) => format!("T{n}"),
        None => format!("F{}", num.trim_start_matches("fig")),
    }
}

/// Runs one experiment in `ctx` and returns its section of the output:
/// a blank line, the `=== <label>: <title> ===` header, then its text.
fn render(&(id, title, run): &Experiment, ctx: &Context) -> String {
    format!("\n=== {}: {title} ===\n{}", label(id), run(ctx))
}

/// A parsed `experiments` command line: what to run, and at which cap.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// The selected experiments: one entry, or all of [`REGISTRY`].
    pub experiments: &'static [Experiment],
    /// The slice cap handed to each experiment.
    pub cap: u64,
}

impl Invocation {
    /// Runs the selected experiments in order in one [`Context`], printing
    /// each section as it completes.
    pub fn run(&self) {
        let ctx = Context::new(self.cap);
        for exp in self.experiments {
            print!("{}", render(exp, &ctx));
        }
    }
}

/// Why an `experiments` command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No experiment id was given.
    MissingId,
    /// The id is neither `all` nor in [`REGISTRY`].
    UnknownId(String),
    /// The cap is not a positive integer.
    BadCap(String),
    /// More than `<id> [cap]` was given.
    ExtraArgs(Vec<String>),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingId => write!(f, "missing experiment id"),
            ArgError::UnknownId(id) => write!(f, "unknown experiment id `{id}`"),
            ArgError::BadCap(cap) => write!(f, "cap `{cap}` is not a positive integer"),
            ArgError::ExtraArgs(rest) => write!(f, "unexpected arguments: {}", rest.join(" ")),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `<id>|all [cap]` (the arguments after the program name). The cap
/// defaults to [`DEFAULT_SLICE_CAP`].
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Invocation, ArgError> {
    let (id, rest) = args.split_first().ok_or(ArgError::MissingId)?;
    let id = id.as_ref();
    let experiments = if id == "all" {
        &REGISTRY[..]
    } else {
        let i = REGISTRY
            .iter()
            .position(|(name, ..)| *name == id)
            .ok_or_else(|| ArgError::UnknownId(id.to_string()))?;
        &REGISTRY[i..=i]
    };
    let cap = match rest {
        [] => DEFAULT_SLICE_CAP,
        [cap] => match cap.as_ref().parse() {
            Ok(c) if c > 0 => c,
            _ => return Err(ArgError::BadCap(cap.as_ref().to_string())),
        },
        [_, extra @ ..] => {
            return Err(ArgError::ExtraArgs(
                extra.iter().map(|a| a.as_ref().to_string()).collect(),
            ))
        }
    };
    Ok(Invocation { experiments, cap })
}

/// The `experiments` usage text, listing every registered id.
pub fn usage() -> String {
    let mut u = format!(
        "usage: experiments <id>|all [cap]\n\
         cap: simulated parameters per run (default {DEFAULT_SLICE_CAP})\n\
         ids:"
    );
    for (id, ..) in &REGISTRY {
        u.push_str("\n  ");
        u.push_str(id);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimstore_core::ExecutionTier;

    const GOLDEN: &str = include_str!("../../../tests/golden/all_experiments.txt");

    fn ids(inv: &Invocation) -> Vec<&'static str> {
        inv.experiments.iter().map(|(id, ..)| *id).collect()
    }

    #[test]
    fn accepted_forms_parse() {
        let all = parse_args(&["all"]).unwrap();
        assert_eq!(ids(&all), REGISTRY.iter().map(|e| e.0).collect::<Vec<_>>());
        assert_eq!(all.cap, DEFAULT_SLICE_CAP);
        let one = parse_args(&["fig10_layout"]).unwrap();
        assert_eq!(ids(&one), ["fig10_layout"]);
        assert_eq!(one.cap, DEFAULT_SLICE_CAP);
        let capped = parse_args(&["fig26_reliability_sweep", "50000"]).unwrap();
        assert_eq!(ids(&capped), ["fig26_reliability_sweep"]);
        assert_eq!(capped.cap, 50_000);
        assert_eq!(parse_args(&["all", "16777216"]).unwrap().cap, 1 << 24);
    }

    #[test]
    fn missing_id_is_rejected() {
        assert_eq!(parse_args::<&str>(&[]).unwrap_err(), ArgError::MissingId);
    }

    #[test]
    fn unknown_id_is_rejected() {
        for id in ["fig99", "ALL", "", "fig4"] {
            assert_eq!(
                parse_args(&[id]).unwrap_err(),
                ArgError::UnknownId(id.into())
            );
        }
    }

    #[test]
    fn unparsable_cap_is_rejected() {
        for cap in ["", "2^25", "-1", "0", "1e6", "big"] {
            assert_eq!(
                parse_args(&["all", cap]).unwrap_err(),
                ArgError::BadCap(cap.into())
            );
        }
    }

    #[test]
    fn extra_arguments_are_rejected() {
        assert_eq!(
            parse_args(&["all", "1000", "x"]).unwrap_err(),
            ArgError::ExtraArgs(vec!["x".into()])
        );
    }

    #[test]
    fn usage_lists_every_id() {
        let u = usage();
        assert!(REGISTRY.iter().all(|(id, ..)| u.contains(id)));
    }

    /// The registry is the golden output's table of contents: its entries,
    /// in order, are exactly the `=== <label>: <title> ===` headers of
    /// `tests/golden/all_experiments.txt` (`table1_models` -> `T1`,
    /// `fig3_motivation` -> `F3`, ...).
    #[test]
    fn registry_matches_golden_headers() {
        let headers: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with("=== ")).collect();
        let ours: Vec<String> = REGISTRY
            .iter()
            .map(|&(id, title, _)| format!("=== {}: {title} ===", label(id)))
            .collect();
        assert_eq!(headers, ours);
    }

    /// The golden file's section for `id`: from its header's leading blank
    /// line up to the next section.
    fn golden_section(id: &str) -> &'static str {
        let start = GOLDEN
            .find(&format!("\n=== {}: ", label(id)))
            .unwrap_or_else(|| panic!("no golden section for {id}"));
        let len = GOLDEN[start + 1..]
            .find("\n=== ")
            .map_or(GOLDEN.len() - start, |n| n + 1);
        &GOLDEN[start..start + len]
    }

    /// The cheap experiments render their golden sections byte for byte,
    /// through the registry and one shared context at the default cap.
    #[test]
    fn cheap_experiments_match_golden_sections() {
        let ctx = Context::new(DEFAULT_SLICE_CAP);
        for id in [
            "table1_models",
            "table2_ssd_config",
            "fig9_energy",
            "fig10_layout",
            "fig11_endurance",
            "fig12_batch",
            "table14_correctness",
            "fig16_grad_staging",
            "fig17_sparse_updates",
            "fig18_aging",
            "fig19_checkpoint",
            "fig20_compression",
            "fig22_quantized_state",
            "fig23_scheduler_granularity",
            "fig24_fault_sweep",
        ] {
            let exp = REGISTRY.iter().find(|e| e.0 == id).unwrap();
            assert_eq!(render(exp, &ctx), golden_section(id), "{id}");
        }
    }

    /// F4 sweeps seven models over three tiers and F5 divides the same
    /// runs: every model is above the cap, so both figures scale one
    /// simulated cell per tier.
    #[test]
    fn fig4_and_fig5_share_one_cell_per_tier() {
        let ctx = Context::new(DEFAULT_SLICE_CAP);
        fig4_step_latency(&ctx);
        fig5_speedup(&ctx);
        let tiers: Vec<_> = ctx.simulated_cells().iter().map(|k| k.1.tier).collect();
        assert_eq!(tiers.len(), 3, "{tiers:?}");
        for tier in [
            ExecutionTier::HostNvme,
            ExecutionTier::ChannelNdp,
            ExecutionTier::DieNdp,
        ] {
            assert!(tiers.contains(&tier), "{tiers:?}");
        }
    }

    /// Prepared cells are cached by their preparation: F20's dense row is
    /// F17's 25 % row, and F24's three fault-free control rows are F18's
    /// 0/50/100 % wear cells.
    #[test]
    fn prepared_cells_are_shared_across_figures() {
        let ctx = Context::new(1 << 20);
        let mut counts = Vec::new();
        for fig in [
            fig17_sparse_updates,
            fig18_aging,
            fig20_compression,
            fig24_fault_sweep,
        ] {
            fig(&ctx);
            counts.push(ctx.simulated_cells().len());
        }
        // F17: four hot fractions. F18: five wear levels. F20: three
        // streams, one shared. F24: twelve grid cells, three shared.
        assert_eq!(counts, [4, 9, 11, 20]);
    }
}
