//! Shared measurement machinery: build a system, run a warm-up step and a
//! measured steady-state step over a slice, scale to the full model, and
//! cross-check against the analytic audit. A [`Context`] simulates each
//! distinct phantom cell once per invocation; a [`SeededRun`] trains a
//! functional device for the bit-exactness checks.

use std::ops::RangeInclusive;
use std::sync::Mutex;

use baselines::HostNvmeConfig;
use dnn_model::ZeroPartition;
use optim_math::kernels::{encode_grads, StateBuffers};
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::{make_optimizer, AdamParams, MomentumParams, Optimizer, OptimizerKind};
use optimstore_core::audit::{audit, AuditReport};
use optimstore_core::energy::EnergyBreakdown;
use optimstore_core::report::TrafficBytes;
use optimstore_core::{ExecutionTier, OptimStoreConfig, OptimStoreDevice, StepReport};
use simkit::{SimDuration, SimTime};
use ssdsim::SsdConfig;
use workloads::{GradientGen, SlicedRun, WeightInit};

/// Default slice cap: 2²⁵ parameters (≈33 M) — hundreds of update groups
/// per die, deep into steady state, yet simulated in well under a second.
pub const DEFAULT_SLICE_CAP: u64 = 1 << 25;

/// Host updater throughput used by every host-NVMe measurement.
pub fn default_host_cfg() -> HostNvmeConfig {
    HostNvmeConfig::default()
}

/// The host-NVMe tier at [`default_host_cfg`]'s updater throughput.
pub fn host_tier() -> OptimStoreConfig {
    OptimStoreConfig::host_nvme(default_host_cfg().update_bytes_per_sec)
}

/// The slice granule for a device: one update group per die.
pub fn granule(ssd: &SsdConfig) -> u64 {
    (ssd.nand.geometry.page_bytes as u64 / 2) * ssd.total_dies() as u64
}

/// Constructs the optimizer + spec pair used across experiments.
pub fn optimizer_and_spec(kind: OptimizerKind) -> (Box<dyn Optimizer>, StateLayoutSpec) {
    (
        make_optimizer(kind, AdamParams::default(), MomentumParams::default()),
        StateLayoutSpec::new(kind, GradDtype::F16),
    )
}

/// A measurement scaled to the full model.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Tier label.
    pub tier: &'static str,
    /// Full-model parameter count.
    pub params: u64,
    /// Full-model optimizer-step time.
    pub step_time: SimDuration,
    /// Full-model traffic.
    pub traffic: TrafficBytes,
    /// Full-model energy.
    pub energy: EnergyBreakdown,
    /// The analytic audit for the same configuration.
    pub audit: AuditReport,
    /// The busiest simulated resource during the measured step and its
    /// utilization (from the device's own accounting).
    pub sim_bottleneck: (&'static str, f64),
}

impl Measured {
    /// Relative disagreement between simulation and audit (fractional).
    pub fn audit_error(&self) -> f64 {
        let predicted = self.audit.step_time(self.params).as_secs_f64();
        let measured = self.step_time.as_secs_f64();
        if predicted == 0.0 {
            return 0.0;
        }
        (measured - predicted).abs() / predicted
    }
}

fn scale_energy(e: EnergyBreakdown, s: f64) -> EnergyBreakdown {
    EnergyBreakdown {
        array_read: e.array_read * s,
        array_program: e.array_program * s,
        erase: e.erase * s,
        bus: e.bus * s,
        pcie: e.pcie * s,
        dram: e.dram * s,
        host: e.host * s,
        compute: e.compute * s,
    }
}

fn scale_traffic(t: TrafficBytes, slice: &SlicedRun) -> TrafficBytes {
    TrafficBytes {
        pcie_in: slice.scale_count(t.pcie_in),
        pcie_out: slice.scale_count(t.pcie_out),
        bus: slice.scale_count(t.bus),
        array_read: slice.scale_count(t.array_read),
        array_program: slice.scale_count(t.array_program),
        dram: slice.scale_count(t.dram),
    }
}

/// Runs one phantom cell of any tier: plans the slice of a
/// `params`-parameter model on `ssd` (at most `cap` simulated parameters),
/// builds the device, lets `prepare` adjust it (wear, sparsity hints),
/// loads phantom state, then runs a warm-up step and the measured step.
/// Returns the slice, the measured step's report and the device.
///
/// The warm-up step fills the pipeline and seeds the FTL's steady state.
/// The host tier spills each step's gradients to flash first (backward
/// traffic, not charged to the step); the in-storage tiers start the
/// measured step once the device is quiet.
pub fn run_cell(
    ssd: &SsdConfig,
    cfg: &OptimStoreConfig,
    kind: OptimizerKind,
    params: u64,
    cap: u64,
    prepare: impl FnOnce(&mut OptimStoreDevice),
) -> (SlicedRun, StepReport, OptimStoreDevice) {
    let slice = SlicedRun::plan(params, cap, granule(ssd));
    let (optimizer, spec) = optimizer_and_spec(kind);
    let mut dev = OptimStoreDevice::new(*ssd, *cfg, slice.sim_params, optimizer, spec)
        .expect("experiment configuration must fit the device");
    prepare(&mut dev);
    let t0 = dev.load_phantom(SimTime::ZERO).expect("phantom load");
    let r2 = if cfg.tier == ExecutionTier::HostNvme {
        let t1 = dev.spill_gradients(None, t0).expect("spill 1");
        let r1 = dev.run_step(None, t1).expect("warm-up step");
        let t2 = dev.spill_gradients(None, r1.end).expect("spill 2");
        dev.run_step(None, t2).expect("measured step")
    } else {
        let r1 = dev.run_step(None, t0).expect("warm-up step");
        let t1 = dev.quiesce_time().max(r1.end);
        dev.run_step(None, t1).expect("measured step")
    };
    (slice, r2, dev)
}

/// Measures `cfg`'s tier on `ssd` for a `params`-parameter model,
/// simulating at most `cap` parameters ([`run_cell`] without preparation),
/// scaled to the full model. Simulates afresh on every call.
pub fn measure(
    ssd: &SsdConfig,
    cfg: &OptimStoreConfig,
    kind: OptimizerKind,
    params: u64,
    cap: u64,
) -> Measured {
    Context::new(cap).measure(ssd, cfg, kind, params)
}

/// Derives per-resource utilization of the *measured step* from its
/// traffic counters (cumulative link utilizations would be polluted by the
/// load and warm-up phases) and names the busiest one.
fn step_bottleneck(ssd: &SsdConfig, traffic: &TrafficBytes, dur_secs: f64) -> (&'static str, f64) {
    if dur_secs <= 0.0 {
        return ("idle", 0.0);
    }
    let frac = |bytes: u64, bw: u64| bytes as f64 / (bw as f64 * dur_secs);
    // Die planes serve reads and programs at different rates; busy time is
    // the sum of both services.
    let die_busy = traffic.array_read as f64 / ssd.aggregate_array_read_bytes_per_sec() as f64
        + traffic.array_program as f64 / ssd.aggregate_array_program_bytes_per_sec() as f64;
    let candidates: [(&'static str, f64); 5] = [
        ("pcie-in", frac(traffic.pcie_in, ssd.pcie.bytes_per_sec())),
        ("pcie-out", frac(traffic.pcie_out, ssd.pcie.bytes_per_sec())),
        ("ctrl-dram", frac(traffic.dram, ssd.dram_bytes_per_sec)),
        (
            "onfi-bus",
            frac(traffic.bus, ssd.aggregate_bus_bytes_per_sec()),
        ),
        ("die-planes", die_busy / dur_secs),
    ];
    candidates
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
}

/// What [`run_cell`] builds and simulates for a prepare-free cell: the
/// device, the tier, the optimizer and the simulated slice's size.
type CellKey = (SsdConfig, OptimStoreConfig, OptimizerKind, u64);

/// One invocation's shared measurement state: the slice cap and the
/// measured step of every prepare-free phantom cell simulated so far.
/// Every model above the cap simulates the same slice and differs only in
/// its scale, so a figure that sweeps the zoo, or revisits a tier another
/// figure measured, scales a shared cell instead of simulating it again.
#[derive(Debug)]
pub struct Context {
    /// Maximum simulated parameters per run.
    pub(crate) cap: u64,
    cells: Mutex<Vec<(CellKey, StepReport)>>,
}

impl Context {
    /// A context with no cells simulated yet.
    pub fn new(cap: u64) -> Self {
        Context {
            cap,
            cells: Mutex::new(Vec::new()),
        }
    }

    /// [`measure`] at this context's cap, simulating each distinct cell
    /// once. Cells are independent seeded simulations, so a cached report
    /// is the one a fresh run would produce. (Concurrent callers of one
    /// missing cell would each simulate and record it; the experiments'
    /// parallel grids measure distinct cells.)
    pub fn measure(
        &self,
        ssd: &SsdConfig,
        cfg: &OptimStoreConfig,
        kind: OptimizerKind,
        params: u64,
    ) -> Measured {
        let slice = SlicedRun::plan(params, self.cap, granule(ssd));
        let key = (*ssd, *cfg, kind, slice.sim_params);
        let cells = self.cells.lock().expect("cell cache");
        let hit = cells.iter().find(|(k, _)| *k == key).map(|&(_, r)| r);
        drop(cells);
        let r2 = hit.unwrap_or_else(|| {
            let (_, r2, _) = run_cell(ssd, cfg, kind, params, self.cap, |_| {});
            self.cells.lock().expect("cell cache").push((key, r2));
            r2
        });
        // Scale the measured step to the full model; pair it with the audit.
        Measured {
            sim_bottleneck: step_bottleneck(ssd, &r2.traffic, r2.duration.as_secs_f64()),
            tier: r2.tier,
            params,
            step_time: slice.scale_duration(r2.duration),
            traffic: scale_traffic(r2.traffic, &slice),
            energy: scale_energy(r2.energy, slice.scale),
            audit: audit(ssd, cfg, &StateLayoutSpec::new(kind, GradDtype::F16)),
        }
    }

    /// Simulated multi-device host-offload step time: each shard's I/O
    /// runs on its own SSD (simulated with an unconstrained per-device
    /// updater), while the single shared host updater processes every
    /// shard's state. The fleet step is the slower of the two — an
    /// optimistic (perfect-overlap) bound for the host side, which is the
    /// generous direction for a baseline.
    pub fn host_fleet(
        &self,
        ssd: &SsdConfig,
        kind: OptimizerKind,
        params: u64,
        devices: u32,
    ) -> SimDuration {
        let shard = ZeroPartition::new(params, devices).max_shard();
        let io_only = OptimStoreConfig::host_nvme(u64::MAX);
        let io = self.measure(ssd, &io_only, kind, shard).step_time;
        let spec = StateLayoutSpec::new(kind, GradDtype::F16);
        let update_bytes =
            params * (spec.state_read_bytes() + spec.state_write_bytes() + spec.grad_bytes());
        let update =
            SimDuration::for_transfer(update_bytes, default_host_cfg().update_bytes_per_sec);
        io.max(update)
    }
}

/// A seeded functional training run of a `params`-parameter model: weights
/// from `WeightInit::default()`, step `s`'s gradients from
/// `GradientGen::new(seed)`.
#[derive(Debug, Clone, Copy)]
pub struct SeededRun {
    /// Model parameters.
    pub params: u64,
    /// Gradient seed.
    pub seed: u64,
}

impl SeededRun {
    /// Step `step`'s gradients.
    pub fn grads(&self, step: u64) -> Vec<f32> {
        GradientGen::new(self.seed).generate(step, self.params as usize)
    }

    /// Builds a functional device of `kind` on `ssd` under `cfg` and loads
    /// the run's weights; returns the device and the load's end.
    pub fn load(
        &self,
        ssd: SsdConfig,
        cfg: OptimStoreConfig,
        kind: OptimizerKind,
    ) -> (OptimStoreDevice, SimTime) {
        let (optimizer, spec) = optimizer_and_spec(kind);
        let mut dev = OptimStoreDevice::new_functional(ssd, cfg, self.params, optimizer, spec)
            .expect("functional configuration must fit the device");
        let weights = WeightInit::default().generate(self.params as usize);
        let at = dev
            .load_weights(&weights, SimTime::ZERO)
            .expect("load weights");
        (dev, at)
    }

    /// Runs `steps` from `at` and returns the last one's end (`at` when
    /// `steps` is empty). The host tier spills each step's gradients first.
    pub fn train(
        &self,
        dev: &mut OptimStoreDevice,
        steps: RangeInclusive<u64>,
        at: SimTime,
    ) -> SimTime {
        steps.fold(at, |at, step| {
            let grads = self.grads(step);
            let r = if dev.config().tier == ExecutionTier::HostNvme {
                let t = dev.spill_gradients(Some(&grads), at).expect("spill");
                dev.run_step(None, t)
            } else {
                dev.run_step(Some(&grads), at)
            };
            r.expect("functional step").end
        })
    }

    /// The master weights after steps `1..=steps` of `kind` on the
    /// host-DRAM reference, fed the same fp16-encoded gradients.
    pub fn reference(&self, kind: OptimizerKind, steps: u64) -> Vec<f32> {
        let (optimizer, _) = optimizer_and_spec(kind);
        let weights = WeightInit::default().generate(self.params as usize);
        let mut state = StateBuffers::init(optimizer.as_ref(), &weights, GradDtype::F16);
        for step in 1..=steps {
            let grads = encode_grads(&self.grads(step), GradDtype::F16);
            state
                .step(optimizer.as_ref(), &grads, GradDtype::F16, step)
                .expect("reference step");
        }
        state.weights_f32()
    }
}

/// Whether two weight vectors agree bit for bit.
pub fn bit_exact(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Context {
        /// The distinct cells this context has simulated, in first-use order.
        pub(crate) fn simulated_cells(&self) -> Vec<CellKey> {
            self.cells
                .lock()
                .expect("cell cache")
                .iter()
                .map(|c| c.0)
                .collect()
        }
    }

    #[test]
    fn context_simulates_each_cell_once_and_matches_measure() {
        let ssd = SsdConfig::tiny();
        let die = OptimStoreConfig::die_ndp();
        let fresh = measure(&ssd, &die, OptimizerKind::Adam, 100_000, 1 << 20);
        let ctx = Context::new(1 << 20);
        let first = ctx.measure(&ssd, &die, OptimizerKind::Adam, 100_000);
        let again = ctx.measure(&ssd, &die, OptimizerKind::Adam, 100_000);
        assert_eq!(ctx.simulated_cells().len(), 1);
        for m in [first, again] {
            assert_eq!(m.step_time, fresh.step_time);
            assert_eq!(m.traffic, fresh.traffic);
        }
        // A different tier is a different cell.
        ctx.measure(&ssd, &host_tier(), OptimizerKind::Adam, 100_000);
        assert_eq!(ctx.simulated_cells().len(), 2);
    }

    #[test]
    fn seeded_runs_match_the_host_reference() {
        let run = SeededRun {
            params: 10_000,
            seed: 7,
        };
        for cfg in [OptimStoreConfig::die_ndp(), host_tier()] {
            let (mut dev, at) = run.load(SsdConfig::tiny(), cfg, OptimizerKind::Adam);
            let at = run.train(&mut dev, 1..=2, at);
            let got = dev.read_master_weights(at).unwrap();
            assert!(bit_exact(&got, &run.reference(OptimizerKind::Adam, 2)));
        }
        assert!(!bit_exact(&[1.0], &[1.0, 2.0]));
        assert!(!bit_exact(&[0.0], &[-0.0]));
    }

    #[test]
    fn ndp_measurement_agrees_with_audit() {
        let ssd = SsdConfig::base();
        let m = measure(
            &ssd,
            &OptimStoreConfig::die_ndp(),
            OptimizerKind::Adam,
            1_000_000_000,
            1 << 22,
        );
        assert!(
            m.audit_error() < 0.30,
            "sim {} vs audit {} ({:.1}% off, bottleneck {})",
            m.step_time,
            m.audit.step_time(m.params),
            m.audit_error() * 100.0,
            m.audit.bottleneck
        );
    }

    #[test]
    fn host_measurement_agrees_with_audit() {
        let ssd = SsdConfig::base();
        let m = measure(
            &ssd,
            &host_tier(),
            OptimizerKind::Adam,
            1_000_000_000,
            1 << 22,
        );
        assert!(
            m.audit_error() < 0.30,
            "sim {} vs audit {} ({:.1}% off, bottleneck {})",
            m.step_time,
            m.audit.step_time(m.params),
            m.audit_error() * 100.0,
            m.audit.bottleneck
        );
    }

    #[test]
    fn die_ndp_beats_host_in_simulation() {
        let ssd = SsdConfig::base();
        let die = measure(
            &ssd,
            &OptimStoreConfig::die_ndp(),
            OptimizerKind::Adam,
            1_000_000_000,
            1 << 22,
        );
        let host = measure(
            &ssd,
            &host_tier(),
            OptimizerKind::Adam,
            1_000_000_000,
            1 << 22,
        );
        let speedup = host.step_time.as_secs_f64() / die.step_time.as_secs_f64();
        assert!(
            speedup > 1.5,
            "die-ndp speedup over host = {speedup:.2} (die {}, host {})",
            die.step_time,
            host.step_time
        );
    }
}
