//! Shared measurement machinery: build a system, run a warm-up step and a
//! measured steady-state step over a slice, scale to the full model, and
//! cross-check against the analytic audit. A [`Context`] simulates each
//! distinct phantom cell once per invocation; a [`SeededRun`] trains a
//! functional device for the bit-exactness checks. F25 and F26, their
//! tier-1 tests and `bench_hotpath` share the two functional cells: the
//! [`CrashCell`] (power cut, mount, replay) and the [`DegradedCell`]
//! (aging plus seeded page losses).

use std::collections::BTreeSet;
use std::ops::RangeInclusive;
use std::sync::Mutex;

use baselines::HostNvmeConfig;
use dnn_model::ZeroPartition;
use nandsim::wear::RberModel;
use optim_math::kernels::{encode_grads, StateBuffers};
use optim_math::state::{GradDtype, StateLayoutSpec};
use optim_math::{make_optimizer, AdamParams, MomentumParams, Optimizer, OptimizerKind};
use optimstore_core::audit::{audit, AuditReport};
use optimstore_core::energy::EnergyBreakdown;
use optimstore_core::report::TrafficBytes;
use optimstore_core::{
    CoreError, OptimStoreConfig, OptimStoreDevice, RecoveryReport, StateComponent, StepReport,
};
use simkit::{SimDuration, SimTime};
use ssdsim::trace::OpKind;
use ssdsim::{
    DeviceStats, JournalConfig, Lpn, PowerLossConfig, RainConfig, ScrubConfig, SsdConfig, SsdError,
};
use workloads::{AgingSchedule, CrashPhase, CrashSchedule, GradientGen, SlicedRun, WeightInit};

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

/// How a phantom cell's device is adjusted before its state load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prep {
    /// A fresh device with every group hot.
    None,
    /// The device aged by this many P/E cycles
    /// ([`OptimStoreDevice::simulate_wear`]).
    Wear(u64),
    /// Only this fraction of the groups receives non-zero gradients
    /// ([`OptimStoreDevice::set_phantom_hot_fraction`]).
    HotFraction(f64),
}

/// Runs one phantom cell of any tier: builds the device for a
/// `sim_params`-parameter slice, applies `prep`, loads phantom state, then
/// runs a warm-up step and the measured step. Returns the measured step's
/// report and the device's counters after it.
///
/// The warm-up step fills the pipeline and seeds the FTL's steady state;
/// the measured step starts once the device is quiet.
fn run_cell(
    ssd: &SsdConfig,
    cfg: &OptimStoreConfig,
    kind: OptimizerKind,
    sim_params: u64,
    prep: Prep,
) -> (StepReport, DeviceStats) {
    let (optimizer, spec) = optimizer_and_spec(kind);
    let mut dev = OptimStoreDevice::new(*ssd, *cfg, sim_params, optimizer, spec)
        .expect("experiment configuration must fit the device");
    match prep {
        Prep::None => {}
        Prep::Wear(pe) => dev.simulate_wear(pe),
        Prep::HotFraction(hot) => dev.set_phantom_hot_fraction(hot),
    }
    let t0 = dev.load_phantom(SimTime::ZERO).expect("phantom load");
    let r1 = dev.run_step(None, t0).expect("warm-up step");
    let t1 = dev.quiesce_time().max(r1.end);
    let r2 = dev.run_step(None, t1).expect("measured step");
    (r2, dev.ssd().stats().clone())
}

/// Measures `cfg`'s tier on `ssd` for a `params`-parameter model,
/// simulating at most `cap` parameters on a fresh device, scaled to the
/// full model. Simulates afresh on every call.
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

/// What [`run_cell`] builds and simulates: the device, the tier, the
/// optimizer, the simulated slice's size and the preparation.
type CellKey = (SsdConfig, OptimStoreConfig, OptimizerKind, u64, Prep);

/// One invocation's shared measurement state: the slice cap and the
/// measured step of every phantom cell simulated so far. Every model above
/// the cap simulates the same slice and differs only in its scale, so a
/// figure that sweeps the zoo, or revisits a cell another figure measured,
/// scales a shared cell instead of simulating it again.
#[derive(Debug)]
pub struct Context {
    /// Maximum simulated parameters per run.
    pub(crate) cap: u64,
    cells: Mutex<Vec<(CellKey, StepReport, DeviceStats)>>,
}

impl Context {
    /// A context with no cells simulated yet.
    pub fn new(cap: u64) -> Self {
        Context {
            cap,
            cells: Mutex::new(Vec::new()),
        }
    }

    /// The phantom cell of a `params`-parameter model of `kind` on `ssd`
    /// under `cfg`, its device adjusted by `prep`, at this context's cap:
    /// the planned slice, the measured step and the device's counters after
    /// it. Each distinct cell is simulated once. Cells are independent seeded
    /// simulations, so a cached cell is the one a fresh run would produce.
    /// (Concurrent callers of one missing cell would each simulate and
    /// record it; the experiments' parallel grids measure distinct cells.)
    pub fn cell(
        &self,
        ssd: &SsdConfig,
        cfg: &OptimStoreConfig,
        kind: OptimizerKind,
        params: u64,
        prep: Prep,
    ) -> (SlicedRun, StepReport, DeviceStats) {
        let slice = SlicedRun::plan(params, self.cap, granule(ssd));
        let key = (*ssd, *cfg, kind, slice.sim_params, prep);
        // The lock is not held while a missing cell simulates.
        let hit = self
            .cells
            .lock()
            .expect("cell cache")
            .iter()
            .find(|c| c.0 == key)
            .map(|c| (c.1, c.2.clone()));
        let (step, stats) = hit.unwrap_or_else(|| {
            let (step, stats) = run_cell(ssd, cfg, kind, slice.sim_params, prep);
            let cell = (key, step, stats.clone());
            self.cells.lock().expect("cell cache").push(cell);
            (step, stats)
        });
        (slice, step, stats)
    }

    /// [`measure`] at this context's cap, through [`Context::cell`].
    pub fn measure(
        &self,
        ssd: &SsdConfig,
        cfg: &OptimStoreConfig,
        kind: OptimizerKind,
        params: u64,
    ) -> Measured {
        let (slice, r2, _) = self.cell(ssd, cfg, kind, params, Prep::None);
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
    /// `steps` is empty).
    pub fn train(
        &self,
        dev: &mut OptimStoreDevice,
        steps: RangeInclusive<u64>,
        at: SimTime,
    ) -> SimTime {
        steps.fold(at, |at, step| {
            let r = dev.run_step(Some(&self.grads(step)), at);
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

/// Panics unless `got` and `expect` agree bit for bit, naming `label` and
/// the first differing parameter with both values and their bits.
#[track_caller]
pub fn assert_bit_exact(got: &[f32], expect: &[f32], label: &str) {
    assert_eq!(got.len(), expect.len(), "{label}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != expect[i].to_bits()) {
        let (a, b) = (got[i], expect[i]);
        panic!(
            "{label}: param {i} differs ({a} = {:#010x} vs {b} = {:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// What one crash → (second crash) → mount + replay sequence went
/// through, for callers to print or assert.
#[derive(Debug, Clone, Copy)]
pub struct Crash {
    /// The 1-based step whose `run_step` observed the power loss.
    pub step: u64,
    /// When the power failed.
    pub at: SimTime,
    /// Journal pages written before the power failed.
    pub journal_pages: u64,
    /// When the power failed again, during the first mount (double crash).
    pub mount_crash: Option<SimTime>,
    /// The mount that succeeded, and the replay of the crashed step.
    pub recovery: RecoveryReport,
}

impl SeededRun {
    /// Adam on the die-NDP tier: [`SeededRun::load`] for the crash and
    /// degraded-run cells.
    pub fn load_adam(&self, ssd: SsdConfig) -> (OptimStoreDevice, SimTime) {
        self.load(ssd, OptimStoreConfig::die_ndp(), OptimizerKind::Adam)
    }

    /// Arms `cut` on the in-storage-tier device `dev`, trains steps
    /// `1..=steps` from `at` into the power loss, then recovers
    /// ([`SeededRun::recover`]). Panics unless the loss fires.
    pub fn crash(
        &self,
        dev: &mut OptimStoreDevice,
        mut at: SimTime,
        steps: u64,
        cut: PowerLossConfig,
        double: bool,
    ) -> Crash {
        dev.ssd_mut().arm_power_loss(cut);
        for step in 1..=steps {
            match dev.run_step(Some(&self.grads(step)), at) {
                Ok(r) => at = r.end,
                Err(CoreError::Ssd(SsdError::PowerLoss { .. })) => {
                    return self.recover(dev, step, double)
                }
                Err(e) => panic!("step {step}: unexpected error {e}"),
            }
        }
        panic!("the armed power loss never fired")
    }

    /// Mounts `dev` 10 µs after the power loss that step `step` observed
    /// and replays that step. With `double`, the power fails again 50 µs
    /// into that first mount, which must fail cleanly; a second mount
    /// 10 µs after the second loss then recovers from scratch.
    pub fn recover(&self, dev: &mut OptimStoreDevice, step: u64, double: bool) -> Crash {
        let at = dev.ssd().power_failed_at().expect("the power failed");
        let journal_pages = dev.ssd().stats().journal_pages.get();
        let grads = self.grads(step);
        let mut mount_crash = None;
        if double {
            let mount_at = at + SimDuration::from_us(10);
            let cut = PowerLossConfig::at(mount_at + SimDuration::from_us(50));
            dev.ssd_mut().arm_power_loss(cut);
            match dev.recover(Some(&grads), mount_at) {
                Err(CoreError::Ssd(SsdError::PowerLoss { .. })) => {}
                other => panic!("the mount survived the second crash: {other:?}"),
            }
            mount_crash = dev.ssd().power_failed_at();
        }
        let mount_at = mount_crash.unwrap_or(at) + SimDuration::from_us(10);
        let recovery = dev
            .recover(Some(&grads), mount_at)
            .unwrap_or_else(|e| panic!("recovery failed: {e}"));
        Crash {
            step,
            at,
            journal_pages,
            mount_crash,
            recovery,
        }
    }
}

/// F25's crash cell: a seeded run on a journaled device small enough that
/// its steps force garbage collection, and the traced uncrashed reference
/// every crash is placed against and compared with. Identical
/// configurations and inputs give identical timing, so a window measured
/// on the reference pinpoints the same phase on a crashing run.
#[derive(Debug)]
pub struct CrashCell {
    run: SeededRun,
    ssd: SsdConfig,
    /// `(start, end)` of reference step `i + 1`.
    windows: Vec<(SimTime, SimTime)>,
    /// `(start, end)` of every reference block erase, in trace order.
    erases: Vec<(SimTime, SimTime)>,
    /// When the reference's weight load ended.
    pub loaded: SimTime,
    /// The reference's final master weights.
    pub master: Vec<f32>,
    /// The reference's final fp16 working weights.
    pub weights16: Vec<f32>,
}

impl CrashCell {
    /// Steps in every run: enough for GC to collect a committed epoch.
    pub const STEPS: u64 = 3;

    /// The tiny SSD with a journal flushed every `interval` programs and
    /// 12 blocks per plane: 200 k parameters of Adam state fill about a
    /// third of each die, so free blocks run out during step 2 and GC
    /// collects the previous epoch's pages while training runs.
    pub fn ssd(interval: u32) -> SsdConfig {
        let mut ssd = SsdConfig::tiny().with_journal(JournalConfig::every(interval));
        ssd.nand.geometry.blocks_per_plane = 12;
        ssd
    }

    /// Runs the uncrashed reference of [`CrashCell::STEPS`] steps of `run`
    /// on [`CrashCell::ssd`]`(interval)`, tracing its step and erase windows.
    pub fn new(run: SeededRun, interval: u32) -> Self {
        let ssd = Self::ssd(interval);
        let (mut dev, loaded) = run.load_adam(ssd);
        dev.enable_trace(1 << 17);
        let mut end = loaded;
        let windows = (1..=Self::STEPS)
            .map(|step| {
                let r = dev.run_step(Some(&run.grads(step)), end).expect("step");
                end = r.end;
                (r.start, r.end)
            })
            .collect();
        let erases: Vec<_> = dev
            .trace_events()
            .expect("traced")
            .iter()
            .filter(|e| e.kind == OpKind::Erase)
            .map(|e| (e.start, e.end))
            .collect();
        assert!(!erases.is_empty(), "the reference must garbage-collect");
        CrashCell {
            master: dev.read_master_weights(end).expect("readback"),
            weights16: dev.read_weights16(end).expect("readback"),
            run,
            ssd,
            windows,
            erases,
            loaded,
        }
    }

    /// The instant `s` cuts the power: inside its step's window, the last
    /// quarter of it for a write-back schedule, or inside the reference
    /// erase its fraction picks.
    pub fn instant(&self, s: &CrashSchedule) -> SimTime {
        let (start, end) = match s.phase {
            CrashPhase::Step { step } | CrashPhase::DuringMount { step } => {
                self.windows[(step - 1) as usize]
            }
            CrashPhase::WriteBack { step } => {
                let (start, end) = self.windows[(step - 1) as usize];
                (start + (end - start).saturating_mul(3) / 4, end)
            }
            CrashPhase::DuringGc => {
                let n = self.erases.len();
                self.erases[((s.fraction * n as f64) as usize).min(n - 1)]
            }
        };
        s.instant(start, end)
    }

    /// Loads a fresh device, cuts its power at `s`'s instant (a second
    /// time during the mount for a double-crash schedule), mounts and
    /// replays. Returns the recovered device, one step past the
    /// reference's committed epoch, and what the crash went through.
    pub fn crash(&self, s: &CrashSchedule) -> (OptimStoreDevice, Crash) {
        let (mut dev, at) = self.run.load_adam(self.ssd);
        let cut = PowerLossConfig::at(self.instant(s));
        let double = matches!(s.phase, CrashPhase::DuringMount { .. });
        let crash = self.run.crash(&mut dev, at, Self::STEPS, cut, double);
        (dev, crash)
    }
}

/// What one degraded run went through.
#[derive(Debug)]
pub struct Degraded {
    /// The last step's end, or the step whose hot reads or update failed
    /// and its error.
    pub outcome: Result<SimTime, (u64, CoreError)>,
    /// Pages lost before the run ended.
    pub injected: u64,
    /// The reports of the steps that completed.
    pub steps: Vec<StepReport>,
}

/// F26's degraded-run cell: a seeded run whose media ages under an
/// [`AgingSchedule`] while seeded page losses hit it between steps, and
/// the final weights of the same run on a pristine tiny SSD, which every
/// surviving run must match bit for bit.
#[derive(Debug)]
pub struct DegradedCell {
    /// The training run.
    pub run: SeededRun,
    /// The fault-free run's final master weights.
    pub master: Vec<f32>,
    /// The fault-free run's final fp16 working weights.
    pub weights16: Vec<f32>,
}

impl DegradedCell {
    /// Steps in every run, each preceded by one gap of losses.
    pub const STEPS: u64 = 4;
    /// Pages lost in each gap: 12 victims over the run.
    pub const LOSSES_PER_GAP: usize = 3;

    /// The tiny SSD aged by `sched`, with RAIN parity when `parity` and
    /// the given patrol scrub.
    pub fn ssd(sched: &AgingSchedule, parity: bool, scrub: Option<ScrubConfig>) -> SsdConfig {
        let mut ssd = SsdConfig::tiny();
        // The aging coefficients are relative to the part's ECC ceiling.
        let aging = sched.aging_config(RberModel::tlc().ecc_ceiling);
        ssd.aging = aging.is_active().then_some(aging);
        ssd.rain = parity.then(RainConfig::rotating);
        ssd.scrub = scrub;
        ssd
    }

    /// Trains the fault-free reference of [`DegradedCell::STEPS`] steps of
    /// `run`.
    pub fn new(run: SeededRun) -> Self {
        let (mut dev, at) = run.load_adam(SsdConfig::tiny());
        let at = run.train(&mut dev, 1..=Self::STEPS, at);
        DegradedCell {
            run,
            master: dev.read_master_weights(at).expect("readback"),
            weights16: dev.read_weights16(at).expect("readback"),
        }
    }

    /// The pages lost in each gap: master-weight pages of `sched`'s seeded
    /// groups, at most one per RAIN stripe across the whole run, so parity
    /// always faces single losses. An earlier batch's write-backs dirty
    /// every stripe they touch, and a dirty stripe cannot be rebuilt, so a
    /// victim's stripe must start in the victim's own executor batch: the
    /// loss is then read while the stripe still matches its last-committed
    /// parity. The picks are the same with parity on or off.
    fn victims(&self, sched: &AgingSchedule, dev: &OptimStoreDevice) -> Vec<Vec<Lpn>> {
        let ssd = dev.ssd().config().with_rain(RainConfig::rotating());
        let stripe_w = ssd.stripe_data_width().expect("RAIN is on");
        let batch = ssd.total_dies() as u64;
        let layout = dev.layout();
        let lpg = layout.lpns_per_group() as u64;
        let groups = layout.num_groups();
        let mut draw = sched.victims(groups, groups as usize).into_iter();
        let mut used = BTreeSet::new();
        let mut gaps = vec![Vec::new(); Self::STEPS as usize];
        'fill: for gap in gaps.iter_mut() {
            while gap.len() < Self::LOSSES_PER_GAP {
                let Some(g) = draw.next() else { break 'fill };
                let lpn = layout.lpn(g, StateComponent::Master, 0);
                let stripe = lpn.0 / stripe_w;
                let first_member_group = stripe * stripe_w / lpg;
                if first_member_group / batch == g / batch && used.insert(stripe) {
                    gap.push(lpn);
                }
            }
        }
        gaps
    }

    /// Runs `steps` on `dev` from `at`. Before each step comes its idle
    /// gap: `sched`'s hot pages re-read (read disturb), then the gap's
    /// losses, then the retention pause. Stops at the first failure.
    pub fn degrade(
        &self,
        dev: &mut OptimStoreDevice,
        sched: &AgingSchedule,
        steps: RangeInclusive<u64>,
        mut at: SimTime,
    ) -> Degraded {
        let victims = self.victims(sched, dev);
        let hot: Vec<Lpn> = sched
            .hot_pages(dev.layout().num_groups())
            .iter()
            .map(|&g| dev.layout().lpn(g, StateComponent::Weight16, 0))
            .collect();
        let (mut injected, mut reports) = (0, Vec::new());
        let run_steps = || {
            for step in steps {
                for lpn in &hot {
                    for _ in 0..sched.hot_reads_per_step {
                        let read = dev.ssd_mut().internal_read_array(*lpn, at);
                        at = read.map_err(|e| (step, CoreError::Ssd(e)))?.end;
                    }
                }
                for lpn in &victims[(step - 1) as usize] {
                    dev.ssd_mut().inject_page_loss(*lpn).expect("mapped victim");
                    injected += 1;
                }
                at += sched.pause_between_steps;
                let r = dev.run_step(Some(&self.run.grads(step)), at);
                let r = r.map_err(|e| (step, e))?;
                at = r.end;
                reports.push(r);
            }
            Ok(at)
        };
        Degraded {
            outcome: run_steps(),
            injected,
            steps: reports,
        }
    }
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
    #[should_panic(expected = "w16: param 1 differs (-0 = 0x80000000 vs 0 = 0x00000000)")]
    fn assert_bit_exact_names_the_first_differing_param() {
        assert_bit_exact(&[1.0, 1.0], &[1.0, 1.0], "same");
        assert_bit_exact(&[1.0, -0.0, 2.0], &[1.0, 0.0, 3.0], "w16");
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
