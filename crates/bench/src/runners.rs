//! Shared measurement machinery: build a system, run a warm-up step and a
//! measured steady-state step over a slice, scale to the full model, and
//! cross-check against the analytic audit.

use baselines::HostNvmeConfig;
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::{make_optimizer, AdamParams, MomentumParams, Optimizer, OptimizerKind};
use optimstore_core::audit::{audit, AuditReport};
use optimstore_core::energy::EnergyBreakdown;
use optimstore_core::report::TrafficBytes;
use optimstore_core::{ExecutionTier, OptimStoreConfig, OptimStoreDevice, StepReport};
use simkit::{SimDuration, SimTime};
use ssdsim::SsdConfig;
use workloads::SlicedRun;

/// Runs independent measurement jobs on the data-plane worker pool
/// ([`simkit::par`]), preserving input order. Each job builds its own
/// device, so simulations share nothing and per-run determinism is
/// unaffected — only harness wall-clock improves. Pool width follows
/// `par::set_threads` / `OPTIMSTORE_THREADS` / available parallelism, so
/// a grid of heavy sweeps no longer spawns one thread per cell.
pub fn run_parallel<'scope, T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send + 'scope>>) -> Vec<T> {
    type Slot<'s, T> = std::sync::Mutex<Option<Box<dyn FnOnce() -> T + Send + 's>>>;
    let slots: Vec<Slot<'scope, T>> = jobs
        .into_iter()
        .map(|j| std::sync::Mutex::new(Some(j)))
        .collect();
    simkit::par::map_indexed(&slots, |_, slot| {
        let job = slot
            .lock()
            .expect("job slot")
            .take()
            .expect("each job runs exactly once");
        job()
    })
}

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
    /// The slice that was simulated.
    pub slice: SlicedRun,
    /// Full-model optimizer-step time.
    pub step_time: SimDuration,
    /// Full-model parameters per second.
    pub params_per_sec: f64,
    /// Full-model traffic.
    pub traffic: TrafficBytes,
    /// Full-model energy.
    pub energy: EnergyBreakdown,
    /// Full-model erases per step.
    pub erases_per_step: f64,
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
/// scaled to the full model.
pub fn measure(
    ssd: &SsdConfig,
    cfg: &OptimStoreConfig,
    kind: OptimizerKind,
    params: u64,
    cap: u64,
) -> Measured {
    let (slice, r2, dev) = run_cell(ssd, cfg, kind, params, cap, |_| {});
    measured(ssd, cfg, dev.spec(), params, slice, &r2)
}

/// Scales the measured step `r2` of `slice` to the full `params`-parameter
/// model and pairs it with the audit of `cfg`.
fn measured(
    ssd: &SsdConfig,
    cfg: &OptimStoreConfig,
    spec: &StateLayoutSpec,
    params: u64,
    slice: SlicedRun,
    r2: &StepReport,
) -> Measured {
    let step_time = slice.scale_duration(r2.duration);
    Measured {
        sim_bottleneck: step_bottleneck(ssd, &r2.traffic, r2.duration.as_secs_f64()),
        tier: r2.tier,
        params,
        slice,
        step_time,
        params_per_sec: params as f64 / step_time.as_secs_f64(),
        traffic: scale_traffic(r2.traffic, &slice),
        energy: scale_energy(r2.energy, slice.scale),
        erases_per_step: slice.scale_f64(r2.erases as f64),
        audit: audit(ssd, cfg, spec),
    }
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

/// Simulated multi-device host-offload step time: each shard's I/O runs on
/// its own SSD (simulated with an unconstrained per-device updater), while
/// the single shared host updater processes every shard's state. The fleet
/// step is the slower of the two — an optimistic (perfect-overlap) bound
/// for the host side, which is the generous direction for a baseline.
pub fn run_host_fleet(
    ssd: &SsdConfig,
    host: &HostNvmeConfig,
    kind: OptimizerKind,
    params: u64,
    devices: u32,
    cap: u64,
) -> SimDuration {
    let shard = dnn_model::ZeroPartition::new(params, devices).max_shard();
    let io_only = OptimStoreConfig::host_nvme(u64::MAX);
    let io = measure(ssd, &io_only, kind, shard, cap).step_time;
    let (_, spec) = optimizer_and_spec(kind);
    let update_bytes =
        params * (spec.state_read_bytes() + spec.state_write_bytes() + spec.grad_bytes());
    let update = SimDuration::for_transfer(update_bytes, host.update_bytes_per_sec);
    io.max(update)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order_and_determinism() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16u64)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>)
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..16u64).map(|i| i * i).collect::<Vec<_>>());

        // Parallel measurement equals sequential measurement.
        let ssd = SsdConfig::tiny();
        let seq = measure(
            &ssd,
            &OptimStoreConfig::die_ndp(),
            OptimizerKind::Adam,
            100_000,
            1 << 20,
        );
        let par = run_parallel(vec![Box::new(move || {
            measure(
                &ssd,
                &OptimStoreConfig::die_ndp(),
                OptimizerKind::Adam,
                100_000,
                1 << 20,
            )
        }) as Box<dyn FnOnce() -> Measured + Send>]);
        assert_eq!(seq.step_time, par[0].step_time);
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
