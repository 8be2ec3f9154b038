//! The optimizer-step executor, one for every [`ExecutionTier`].
//!
//! `OptimStoreDevice` owns a simulated SSD plus the update engines and
//! drives one full optimizer step: gradients reach the engines, every
//! update group's state pages are read, the engine applies the
//! element-wise rule, and fresh pages are programmed back out-of-place —
//! all pipelined per group, with the shared resources (PCIe, DRAM, buses,
//! planes, engines) arbitrating naturally through busy-until scheduling.
//! The tiers differ only in gradient delivery, engine placement and the
//! operand read and write-back paths, one small function each.
//!
//! In functional mode the executor really computes, and moves no page
//! byte it does not have to. Operand reads are timed and accounted but
//! deliver nothing; the kernel then reads each operand page where it rests
//! in its die's page store, resolved by its LPN, and writes the new state
//! into pooled pages ([`pages::Operands`], over
//! [`optim_math::kernels::update_chunk_into`]); each write-back program
//! adopts its page as it is. The integration tests demand bit-exact
//! agreement with a host-side reference.

use crate::config::{ExecutionTier, GradStaging, OptimStoreConfig};
use crate::layout::{GroupBase, StateComponent, StateLayout};
use crate::pages::{self, Operands};
use crate::protocol::{ProtocolError, UpdateCommand};
use crate::report::{CounterSnapshot, RecoveryReport, StepReport};
use optim_math::kernels::{widen_into, KernelError};
use optim_math::state::StateLayoutSpec;
use optim_math::Optimizer;
use simkit::pool::PageBuf;
use simkit::{SimDuration, SimTime, Timeline, Window};
use ssdsim::{Device, DieId, Lpn, ReadPath, ScrubReport, SsdConfig, SsdError};
use std::error::Error;
use std::fmt;

/// An error from the OptimStore engine.
#[derive(Debug)]
pub enum CoreError {
    /// The model's state does not fit the device.
    CapacityExceeded {
        /// Pages the layout needs.
        need: u64,
        /// Pages the device offers.
        have: u64,
    },
    /// Invalid configuration.
    Config(String),
    /// Gradient slice length does not match the parameter count.
    GradLength {
        /// Elements supplied.
        got: usize,
        /// Parameters expected.
        want: u64,
    },
    /// Weight slice length does not match the parameter count.
    WeightLength {
        /// Elements supplied.
        got: usize,
        /// Parameters expected.
        want: u64,
    },
    /// Functional operation requested on a phantom device (or vice versa).
    ModeMismatch(&'static str),
    /// The underlying SSD failed.
    Ssd(SsdError),
    /// The update kernel rejected a group's buffers.
    Kernel(KernelError),
    /// The step's update command did not decode.
    Protocol(ProtocolError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CapacityExceeded { need, have } => {
                write!(f, "layout needs {need} pages, device has {have}")
            }
            CoreError::Config(msg) => write!(f, "bad configuration: {msg}"),
            CoreError::GradLength { got, want } => {
                write!(f, "gradient has {got} elements, model has {want} params")
            }
            CoreError::WeightLength { got, want } => {
                write!(f, "weights have {got} elements, model has {want} params")
            }
            CoreError::ModeMismatch(msg) => write!(f, "mode mismatch: {msg}"),
            CoreError::Ssd(e) => write!(f, "ssd: {e}"),
            CoreError::Kernel(e) => write!(f, "update kernel: {e}"),
            CoreError::Protocol(e) => write!(f, "update command: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Ssd(e) => Some(e),
            CoreError::Kernel(e) => Some(e),
            CoreError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SsdError> for CoreError {
    fn from(e: SsdError) -> Self {
        CoreError::Ssd(e)
    }
}

/// A storage device whose optimizer update runs on one [`ExecutionTier`].
#[derive(Debug)]
pub struct OptimStoreDevice {
    device: Device,
    cfg: OptimStoreConfig,
    spec: StateLayoutSpec,
    layout: StateLayout,
    /// The page plan every group follows, built once from the layout: its
    /// pages in read order and in write-back order.
    read_set: Box<[PlanPage]>,
    write_set: Box<[PlanPage]>,
    optimizer: Box<dyn Optimizer>,
    engines: Vec<Timeline>,
    step: u64,
    /// Phantom-mode stand-in for gradient sparsity: groups with index at or
    /// above this count are treated as all-zero-gradient when
    /// `skip_zero_gradients` is on.
    phantom_hot_groups: Option<u64>,
}

/// One page of the plan every group follows: a component page and its
/// offset within a co-located group record.
#[derive(Debug, Clone, Copy)]
struct PlanPage {
    comp: StateComponent,
    idx: u32,
    offset: u32,
}

impl PlanPage {
    /// The plan of `(component, page-idx)` pages `set` on `layout`.
    fn plan(layout: &StateLayout, set: Vec<(StateComponent, u32)>) -> Box<[PlanPage]> {
        set.into_iter()
            .map(|(comp, idx)| PlanPage {
                comp,
                idx,
                offset: layout.page_offset(comp, idx),
            })
            .collect()
    }

    /// This page's LPN in group `g`, whose record starts at `base`
    /// ([`StateLayout::group_base`]; `None` for a striped layout).
    fn lpn(self, layout: &StateLayout, g: u64, base: Option<GroupBase>) -> Lpn {
        match base {
            Some(base) => base.lpn(self.offset),
            None => layout.lpn(g, self.comp, self.idx),
        }
    }
}

/// One group's gradient, prepared off the timing plane (phase A0).
struct GradPrep {
    /// Dense encoded gradient page (functional mode only).
    page: Option<PageBuf>,
    /// Bytes the delivery stream actually moves (compression-aware).
    wire_bytes: u64,
    /// The gradient is all-zero (only computed under
    /// `skip_zero_gradients`; the lazy-skip gate).
    cold: bool,
}

/// One group whose reads and engine time are issued (phase A1), waiting
/// for its kernel (A2) and write-back (B).
struct PendingWrite {
    g: u64,
    /// Engine completion per sub-group (fp32 page-pair); identical
    /// entries under group-granular scheduling.
    compute_end: [SimTime; 2],
    /// The streamed gradient page the A2 kernel consumes (functional
    /// devices only); a staged one rests in flash and is read there.
    grad_page: Option<PageBuf>,
    /// The kernel's output pages in write-set order (functional devices
    /// only; empty until A2), handed to the programs by B.
    out: Vec<PageBuf>,
}

/// What a step has done so far: when its last write persists, and how
/// many groups it skipped and replayed.
#[derive(Default)]
struct StepTally {
    end: SimTime,
    skipped: u64,
    replayed: u64,
}

impl OptimStoreDevice {
    /// Creates a phantom-mode (timing-only) device.
    pub fn new(
        ssd: SsdConfig,
        cfg: OptimStoreConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        Self::build(ssd, Device::new, cfg, params, optimizer, spec)
    }

    /// Creates a functional device (stores and updates real bytes).
    pub fn new_functional(
        ssd: SsdConfig,
        cfg: OptimStoreConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        Self::build(ssd, Device::new_functional, cfg, params, optimizer, spec)
    }

    /// Validates both configurations, so a bad SSD geometry surfaces as
    /// [`CoreError::Config`] rather than a panic in `device`, then builds
    /// the device and fits the layout.
    fn build(
        ssd: SsdConfig,
        device: fn(SsdConfig) -> Device,
        cfg: OptimStoreConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        ssd.validate().map_err(CoreError::Config)?;
        cfg.validate().map_err(CoreError::Config)?;
        let device = device(ssd);
        let grad_staged = cfg.grad_staging == GradStaging::StoreToFlash;
        let layout = pages::fit_layout(
            &device,
            cfg.layout,
            params,
            optimizer.as_ref(),
            &spec,
            grad_staged,
        )?;
        let read_set = PlanPage::plan(&layout, layout.read_set());
        let write_set = PlanPage::plan(&layout, layout.write_set());
        // An engine double-buffers update groups: one group's operands and
        // results must fit half its SRAM.
        let group_bytes = (read_set.len() + write_set.len()) as u64
            * device.config().nand.geometry.page_bytes as u64;
        if group_bytes > cfg.engine.buffer_bytes / 2 {
            return Err(CoreError::Config(format!(
                "an update group needs {group_bytes} B of engine buffer, but only \
                 {} B is available for double buffering (buffer_bytes / 2)",
                cfg.engine.buffer_bytes / 2
            )));
        }
        let engines = match cfg.tier {
            ExecutionTier::DieNdp => (0..device.config().total_dies())
                .map(|_| Timeline::new("ndp-die"))
                .collect(),
            ExecutionTier::ChannelNdp => (0..device.config().channels)
                .map(|_| Timeline::new("ndp-ch"))
                .collect(),
            ExecutionTier::HostNvme => vec![Timeline::new("host-updater")],
        };
        Ok(OptimStoreDevice {
            device,
            cfg,
            spec,
            layout,
            read_set,
            write_set,
            optimizer,
            engines,
            step: 0,
            phantom_hot_groups: None,
        })
    }

    /// The state layout in use.
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimStoreConfig {
        &self.cfg
    }

    /// The state layout spec (optimizer and gradient dtype) in use.
    pub fn spec(&self) -> &StateLayoutSpec {
        &self.spec
    }

    /// The underlying SSD (read-only).
    pub fn ssd(&self) -> &Device {
        &self.device
    }

    /// The underlying SSD, mutable (crash-injection tests arm power loss
    /// through this).
    pub fn ssd_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Completed optimizer steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Phantom-mode sparsity hint: treat only the first `fraction` of
    /// update groups as having non-zero gradients (frozen-layer fine-tune).
    /// Effective only with [`OptimStoreConfig::skip_zero_gradients`];
    /// functional devices detect zero pages directly and ignore this.
    ///
    /// # Panics
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn set_phantom_hot_fraction(&mut self, fraction: f64) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let hot = (self.layout.num_groups() as f64 * fraction).ceil() as u64;
        self.phantom_hot_groups = Some(hot);
    }

    /// Enables flash-operation tracing on the underlying device (see
    /// [`ssdsim::trace`]); events from subsequent steps can be rendered
    /// with [`ssdsim::trace::gantt`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.device.enable_trace(capacity);
    }

    /// The retained trace events, if tracing is enabled.
    pub fn trace_events(&self) -> Option<Vec<ssdsim::trace::TraceEvent>> {
        self.device.trace_events()
    }

    /// Updates the learning rate for subsequent steps (schedule-driven
    /// training; the new value travels in the next IST-UPDATE command).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.optimizer.set_lr(lr);
    }

    /// Ages the underlying NAND by `pe` artificial P/E cycles (end-of-life
    /// studies: worn cells read slower through retries).
    pub fn simulate_wear(&mut self, pe: u64) {
        self.device.simulate_wear(pe);
    }

    /// The instant at which every device resource is idle.
    pub fn quiesce_time(&self) -> SimTime {
        let mut t = self.device.quiesce_time();
        for e in &self.engines {
            t = t.max(e.free_at());
        }
        t
    }

    fn page_bytes(&self) -> usize {
        self.device.page_bytes()
    }

    /// Loads initial fp32 weights (functional mode): master weights, zeroed
    /// slots and narrowed working weights are written through the host
    /// interface. Returns the time the load completes.
    pub fn load_weights(&mut self, weights: &[f32], at: SimTime) -> Result<SimTime, CoreError> {
        if !self.device.is_functional() {
            return Err(CoreError::ModeMismatch(
                "load_weights needs a functional device",
            ));
        }
        self.load(Some(weights), at)
    }

    /// Initializes phantom state: every layout page is written (dataless)
    /// so subsequent reads are legal. Returns the completion time.
    pub fn load_phantom(&mut self, at: SimTime) -> Result<SimTime, CoreError> {
        if self.device.is_functional() {
            return Err(CoreError::ModeMismatch(
                "load_phantom needs a phantom device",
            ));
        }
        self.load(None, at)
    }

    /// Writes the state image ([`pages::load_state_image`]) and commits it.
    fn load(&mut self, weights: Option<&[f32]>, at: SimTime) -> Result<SimTime, CoreError> {
        let end = pages::load_state_image(
            &mut self.device,
            &self.layout,
            weights,
            self.spec.grad_dtype,
            at,
        )?;
        // The initial load is epoch 0, implicitly committed; flushing its
        // commit record makes the mapping journal-covered, so a crash
        // before the first step mounts without a full OOB scan.
        Ok(end.max(self.device.commit_epoch(end)?))
    }

    /// Spills gradients to flash (the host tier's backward-phase traffic;
    /// ZeRO-Infinity offloads gradients to NVMe), in the step's batches of
    /// one group per die, each encoded by `prep_grads`. Returns the spill
    /// completion time.
    fn spill_gradients(
        &mut self,
        grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<SimTime, CoreError> {
        let mut end = at;
        for groups in self.batches() {
            for (g, prep) in groups.iter().zip(self.prep_grads(grads, &groups)) {
                let lpn = self.layout.lpn(*g, StateComponent::Grad, 0);
                let win = self.device.host_write_buf(lpn, prep.page, at)?;
                end = end.max(win.end);
            }
        }
        Ok(end)
    }

    /// Executes one optimizer step.
    ///
    /// `grads` must be `Some` on functional devices (one f32 per
    /// parameter) and is ignored on phantom devices. Returns the step's
    /// report.
    ///
    /// The host tier first spills the gradients to flash from `at`
    /// (`spill_gradients`, ZeRO-Infinity's backward-phase offload) and
    /// starts the step when the spill persists; the report counts only
    /// the step, not the spill, which overlaps backward compute.
    ///
    /// After `begin_step`, groups are processed in *batches* of one
    /// group per die. Each batch runs in four phases, split along the
    /// data-plane/timing-plane boundary (see `simkit::par`):
    ///
    /// * A0. **parallel** gradient prep (`prep_grads`);
    /// * A1. **serial** issue (`issue_batch`) — gradient delivery,
    ///   operand reads and engine occupancy for every group, in group
    ///   order, exactly as a controller's command queue would issue them;
    /// * A2. **parallel** kernels (`run_kernels`);
    /// * B. **serial** write-backs for the batch (`write_back`).
    ///
    /// A0/A2 never touch a `Timeline`, and A1/B consume their results in
    /// input order, so the schedule of every shared resource (PCIe, DRAM,
    /// channel buses, planes, engines) is identical to the fully serial
    /// path: same seed ⇒ same bytes ⇒ same timings. Phase-batching (A
    /// before B) additionally keeps issue order consistent with start
    /// times — interleaving a group's late write-backs before the next
    /// group's early reads would otherwise create false convoys under
    /// busy-until arbitration. `commit_step` closes the step.
    pub fn run_step(
        &mut self,
        grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<StepReport, CoreError> {
        pages::check_grads(&self.device, &self.layout, grads)?;
        let (grads, at) = match self.cfg.tier {
            ExecutionTier::HostNvme => (None, self.spill_gradients(grads, at)?),
            ExecutionTier::ChannelNdp | ExecutionTier::DieNdp => (grads, at),
        };
        let (at, scrub, cmd) = self.begin_step(at)?;
        let before = CounterSnapshot::of(&self.device);
        let mut tally = StepTally {
            end: at,
            ..StepTally::default()
        };
        for groups in self.batches() {
            let preps = self.prep_grads(grads, &groups);
            let mut pending = self.issue_batch(&groups, preps, at, &mut tally)?;
            self.run_kernels(&mut pending, &cmd)?;
            self.write_back(pending, &mut tally)?;
        }
        self.commit_step(at, tally, scrub, &before)
    }

    /// Scrub and begin-epoch: patrols in the idle window, opens the
    /// step's crash-safe epoch and decodes its update command. Returns
    /// when the step starts, the patrol's report and the command.
    fn begin_step(
        &mut self,
        at: SimTime,
    ) -> Result<(SimTime, ScrubReport, UpdateCommand), CoreError> {
        // Patrol scrub in the idle window before the step begins: every
        // stripe is clean here (the previous commit rebuilt parity), so any
        // latent loss the sweep finds is still a *single* loss and
        // repairable. The step starts when the sweep's reads drain. No-op
        // unless `SsdConfig::scrub` is armed.
        let (at, scrub) = self.device.scrub_tick(at)?;
        self.step += 1;
        // Crash-safe epoch: every write-back of this step is stamped with
        // the step number and becomes visible only once the commit record
        // lands at the end of the step (no-op on journal-free devices).
        self.device.begin_epoch(self.step);

        // Exercise the command protocol end-to-end: what the executor runs
        // is the *decoded* command, exactly as device firmware would.
        let cmd = UpdateCommand {
            optimizer: self.optimizer.kind(),
            grad_dtype: self.spec.grad_dtype,
            step: self.step,
            group_start: 0,
            group_count: self.layout.num_groups(),
            hyper: self.optimizer.hyper_wire(),
        };
        let cmd = UpdateCommand::decode(&cmd.encode()).map_err(CoreError::Protocol)?;
        debug_assert_eq!(cmd.step, self.step);
        debug_assert_eq!(cmd.hyper, self.optimizer.hyper_wire());
        Ok((at, scrub, cmd))
    }

    /// The step's batches of group indices, in order, one group per die.
    fn batches(&self) -> impl Iterator<Item = Vec<u64>> {
        let batch = self.device.config().total_dies() as u64;
        let num_groups = self.layout.num_groups();
        (0..num_groups)
            .step_by(batch as usize)
            .map(move |start| (start..(start + batch).min(num_groups)).collect())
    }

    /// Phase A0: encode every group's gradient page, count its non-zeros
    /// and scan for all-zero pages — pure byte work, on the worker pool
    /// when there are bytes, merged back in group order.
    fn prep_grads(&self, grads: Option<&[f32]>, groups: &[u64]) -> Vec<GradPrep> {
        let prep = |&g: &u64| -> GradPrep {
            let page: Option<PageBuf> = grads
                .filter(|_| self.device.is_functional())
                .map(|grads| pages::encode_grad_page(&self.layout, g, grads, self.spec.grad_dtype));
            // Compressed gradients shrink the delivery stream: only the
            // selected (index, value) pairs cross PCIe/DRAM/bus; the engine
            // scatters them into a dense page in its buffer.
            let wire_bytes: u64 = match self.cfg.grad_topk_permille {
                None => self.page_bytes() as u64,
                Some(permille) => {
                    let nnz = match &page {
                        Some(page) => page
                            .chunks_exact(2)
                            .filter(|c| c[0] != 0 || c[1] != 0)
                            .count() as u64,
                        // Phantom: hot groups carry k‰ of their params.
                        None => match self.phantom_hot_groups {
                            Some(hot) if g >= hot => 0,
                            _ => self.layout.group(g).param_count * permille as u64 / 1000,
                        },
                    };
                    optim_math::compress::SPARSE_HEADER_BYTES
                        + optim_math::compress::SPARSE_ENTRY_BYTES * nnz
                }
            };
            let cold = self.cfg.skip_zero_gradients
                && match (&page, self.phantom_hot_groups) {
                    (Some(page), _) => page.iter().all(|&b| b == 0),
                    (None, Some(hot)) => g >= hot,
                    (None, None) => false,
                };
            GradPrep {
                page,
                wire_bytes,
                cold,
            }
        };
        if self.device.is_functional() {
            simkit::par::map_indexed(groups, |_, g| prep(g))
        } else {
            // Phantom prep is a handful of integer ops — not worth a trip
            // through the pool.
            groups.iter().map(prep).collect()
        }
    }

    /// Phase A1: gradient delivery, operand reads and engine time for
    /// every group of the batch, serially in group order. Returns the
    /// groups still to update; a lazily skipped one only costs its engine
    /// a gradient scan.
    fn issue_batch(
        &mut self,
        groups: &[u64],
        preps: Vec<GradPrep>,
        at: SimTime,
        tally: &mut StepTally,
    ) -> Result<Vec<PendingWrite>, CoreError> {
        // Engine service times are the same for every group of the batch:
        // a gradient scan, a sub-group half and a whole group.
        let pb = self.page_bytes() as u64;
        let rate = self.cfg.engine.bytes_per_sec;
        let work_bytes = (self.read_set.len() + self.write_set.len()) as u64 * pb;
        let scan = SimDuration::for_transfer(pb, rate);
        let half = SimDuration::for_transfer(work_bytes / 2, rate);
        let whole = SimDuration::for_transfer(work_bytes, rate);
        let mut pending = Vec::with_capacity(groups.len());
        for (&g, prep) in groups.iter().zip(preps) {
            let cold = prep.cold;
            let (grad_ready, grad_page) = self.deliver_grad(g, prep, at)?;
            let engine = self.engine_index(g);
            // Lazy skip: an all-zero gradient page leaves the group's state
            // untouched (the engine merely scanned the gradient).
            if cold {
                let w = self.engines[engine].acquire(grad_ready, scan);
                tally.end = tally.end.max(w.end);
                tally.skipped += 1;
                continue;
            }

            // Operand reads with bounded group replay. A read that stays
            // uncorrectable after the device's own bounded retries surfaces
            // as [`SsdError::UncorrectableRead`]. Nothing of the group has
            // been written back yet, so the executor replays the whole
            // group: every operand is re-read (fresh sense attempts against
            // fresh physical pages where recovery re-homed them) and the
            // update recomputed — bit-exact, since operand reads have no
            // side effects on state pages. Bounded by
            // [`OptimStoreConfig::max_group_replays`].
            let mut replays_left = self.cfg.max_group_replays;
            let sub_start = loop {
                match self.read_group_operands(g, grad_ready, at) {
                    Ok(ok) => break ok,
                    Err(CoreError::Ssd(SsdError::UncorrectableRead { .. })) if replays_left > 0 => {
                        replays_left -= 1;
                        tally.replayed += 1;
                    }
                    Err(e) => return Err(e),
                }
            };

            let engine = &mut self.engines[engine];
            let compute_end: [SimTime; 2] = if self.cfg.engine.subgroup_pipelining {
                let c0 = engine.acquire(sub_start[0], half);
                let c1 = engine.acquire(sub_start[1], half);
                [c0.end, c1.end]
            } else {
                let w = engine.acquire(sub_start[0].max(sub_start[1]), whole);
                [w.end, w.end]
            };
            pending.push(PendingWrite {
                g,
                compute_end,
                grad_page,
                out: Vec::new(),
            });
        }
        Ok(pending)
    }

    /// Phase A2: the optimizer kernel for every pending group of a
    /// functional device. Each operand is borrowed where it rests in the
    /// page store, resolved by its LPN now rather than by the page its
    /// read sensed: a staged-gradient program, a degraded read's re-home
    /// or a program-failure rescue later in the batch may have run GC,
    /// which relocates an operand's page and erases the source. The new
    /// state goes to fresh pooled pages. Each group's update depends only
    /// on its own operand pages and gradient — the paper's element-wise
    /// independence argument — so the kernels fan out on the pool before
    /// any write-back is issued.
    fn run_kernels(
        &self,
        pending: &mut [PendingWrite],
        cmd: &UpdateCommand,
    ) -> Result<(), CoreError> {
        if !self.device.is_functional() {
            return Ok(());
        }
        let write_set = self.write_set.iter().map(|page| (page.comp, page.idx));
        simkit::par::map_indexed_mut(pending, |_, p| {
            let mut ops = Operands::default();
            if let Some(grad) = &p.grad_page {
                ops.set(StateComponent::Grad, 0, grad);
            }
            let base = self.layout.group_base(p.g);
            for page in self.read_set.iter() {
                let lpn = page.lpn(&self.layout, p.g, base);
                ops.set(page.comp, page.idx, self.device.sensed_page(lpn)?);
            }
            p.out = ops
                .update(
                    self.optimizer.as_ref(),
                    write_set.clone(),
                    self.page_bytes(),
                    cmd.grad_dtype,
                    cmd.step,
                )
                .map_err(CoreError::Kernel)?;
            Ok(())
        })
        .into_iter()
        .collect()
    }

    /// Phase B: every pending group's write-backs, serially in group and
    /// write-set order, each program adopting its kernel output page.
    fn write_back(
        &mut self,
        pending: Vec<PendingWrite>,
        tally: &mut StepTally,
    ) -> Result<(), CoreError> {
        for p in pending {
            let base = self.layout.group_base(p.g);
            // The output pages, in write-set order — present exactly when
            // the device is functional.
            let mut out = p.out.into_iter();
            // Indexed, not iterated: `write_page` needs `&mut self`.
            for i in 0..self.write_set.len() {
                let page = self.write_set[i];
                let data = out.next();
                // The 16-bit weight page spans both sub-groups; fp32 pages
                // belong to their own sub-group.
                let ready = match page.comp {
                    StateComponent::Weight16 => p.compute_end[0].max(p.compute_end[1]),
                    _ => p.compute_end[(page.idx as usize).min(1)],
                };
                let lpn = page.lpn(&self.layout, p.g, base);
                let win = self.write_page(p.g, lpn, page, data, ready)?;
                tally.end = tally.end.max(win.end);
            }
        }
        Ok(())
    }

    /// Commit and report: the step's write-backs become authoritative only
    /// when the commit record is durable; a crash anywhere before this
    /// instant rolls the whole step back at mount.
    fn commit_step(
        &mut self,
        at: SimTime,
        tally: StepTally,
        scrub: ScrubReport,
        before: &CounterSnapshot,
    ) -> Result<StepReport, CoreError> {
        let end = tally.end.max(self.device.commit_epoch(tally.end)?);
        let delta = CounterSnapshot::of(&self.device).since(before);
        Ok(StepReport {
            groups_skipped: tally.skipped,
            groups_replayed: tally.replayed,
            scrub_reads: scrub.pages_read,
            scrub_repairs: scrub.repairs,
            scrub_refreshes: scrub.refreshes,
            ..StepReport::from_counters(
                self.cfg.tier,
                &self.layout,
                &self.spec,
                Window { start: at, end },
                delta,
            )
        })
    }

    /// The die holding group `g`.
    fn die(&self, g: u64) -> DieId {
        DieId::from_flat(
            self.layout.group(g).die_flat,
            self.device.config().dies_per_channel,
        )
    }

    /// Delivers group `g`'s prepared gradient to its engine, starting at
    /// `at`; returns when it is there, and the page when the engine holds
    /// it (streamed on a functional device). In-storage tiers
    /// store-and-forward it through controller DRAM, then stream it to the
    /// engine or stage it in flash, whose program adopts the page. The
    /// host tier spilled it to flash before the step.
    fn deliver_grad(
        &mut self,
        g: u64,
        prep: GradPrep,
        at: SimTime,
    ) -> Result<(SimTime, Option<PageBuf>), CoreError> {
        if self.cfg.tier == ExecutionTier::HostNvme {
            return Ok((at, prep.page));
        }
        let bytes = prep.wire_bytes;
        let (_, dram_out) = self.device.forward_from_host(bytes, at);
        Ok(match (self.cfg.grad_staging, self.cfg.tier) {
            // Stream over the channel bus into the die-side buffer.
            (GradStaging::Stream, ExecutionTier::DieNdp) => {
                let end = self.device.bus_transfer(self.die(g), bytes, dram_out).end;
                (end, prep.page)
            }
            (GradStaging::Stream, _) => (dram_out, prep.page),
            (GradStaging::StoreToFlash, _) => {
                let lpn = self.layout.lpn(g, StateComponent::Grad, 0);
                let win = self
                    .device
                    .internal_program_buf(lpn, None, prep.page, dram_out, true)?;
                (win.end, None)
            }
        })
    }

    /// The engine that updates group `g`: its die's, its channel's, or the
    /// one host updater.
    fn engine_index(&self, g: u64) -> usize {
        match self.cfg.tier {
            ExecutionTier::DieNdp => self.layout.group(g).die_flat as usize,
            ExecutionTier::ChannelNdp => self.die(g).channel as usize,
            ExecutionTier::HostNvme => 0,
        }
    }

    /// Issues every operand read of update group `g`: timed and
    /// accounted, but delivering no bytes — the kernel borrows them from
    /// the page store (`run_kernels`). Returns the per-sub-group readiness
    /// times (earliest engine start). Re-invoked verbatim by the replay
    /// loop of [`Self::issue_batch`] when a read surfaces an uncorrectable
    /// media fault.
    fn read_group_operands(
        &mut self,
        g: u64,
        grad_ready: SimTime,
        at: SimTime,
    ) -> Result<[SimTime; 2], CoreError> {
        // Track operand readiness per sub-group (fp32 page-pair): the grad
        // (and a staged grad page) feeds both.
        let mut sub_start = [grad_ready; 2];
        let base = self.layout.group_base(g);
        // Indexed, not iterated: `read_operand` needs `&mut self`.
        for i in 0..self.read_set.len() {
            let page = self.read_set[i];
            let lpn = page.lpn(&self.layout, g, base);
            let win = self.read_operand(g, lpn, page, at)?;
            match page.comp {
                StateComponent::Grad => {
                    sub_start[0] = sub_start[0].max(win.end);
                    sub_start[1] = sub_start[1].max(win.end);
                }
                _ => {
                    let k = (page.idx as usize).min(1);
                    sub_start[k] = sub_start[k].max(win.end);
                }
            }
        }
        Ok(sub_start)
    }

    /// Reads operand `page` of group `g`, at `lpn`, into the engine that
    /// updates it, issued at `at`.
    fn read_operand(
        &mut self,
        g: u64,
        lpn: Lpn,
        page: PlanPage,
        at: SimTime,
    ) -> Result<Window, CoreError> {
        let local = self.layout.is_local(g, page.comp, page.idx);
        let path = match (self.cfg.tier, local) {
            (ExecutionTier::DieNdp, true) => ReadPath::Array,
            (ExecutionTier::DieNdp, false) | (ExecutionTier::ChannelNdp, _) => ReadPath::Channel,
            (ExecutionTier::HostNvme, _) => ReadPath::Host,
        };
        let w = self.device.read(lpn, path, at)?;
        if self.cfg.tier != ExecutionTier::DieNdp || local {
            return Ok(w);
        }
        // Remote operand: array + source bus, then hop over the engine
        // die's bus into its buffer.
        let pb = self.page_bytes() as u64;
        let end = self.device.bus_transfer(self.die(g), pb, w.end).end;
        Ok(Window { end, ..w })
    }

    /// Writes updated `page` of group `g`, the kernel's output `data`,
    /// back out-of-place to `lpn` from its engine, once the engine is done
    /// at `ready`.
    fn write_page(
        &mut self,
        g: u64,
        lpn: Lpn,
        page: PlanPage,
        data: Option<PageBuf>,
        ready: SimTime,
    ) -> Result<Window, CoreError> {
        let local = self.layout.is_local(g, page.comp, page.idx);
        let (start, cross_bus) = match (self.cfg.tier, local) {
            (ExecutionTier::HostNvme, _) => {
                return Ok(self.device.host_write_buf(lpn, data, ready)?)
            }
            (ExecutionTier::ChannelNdp, _) => (ready, true),
            (ExecutionTier::DieNdp, true) => (ready, false),
            // Hop out of the engine die's channel first.
            (ExecutionTier::DieNdp, false) => {
                let pb = self.page_bytes() as u64;
                (self.device.bus_transfer(self.die(g), pb, ready).end, true)
            }
        };
        Ok(self
            .device
            .internal_program_buf(lpn, None, data, start, cross_bus)?)
    }

    /// Remounts the device after a sudden power loss and resynchronizes the
    /// executor with the recovered state: the step counter rewinds to the
    /// last step whose commit record survived, so the rolled-back step can
    /// simply be run again. When `grads` is supplied (functional mode),
    /// that replay happens here — afterwards, state is bit-identical to a
    /// run that never crashed. A device built without a journal has nothing
    /// to mount from and fails with [`SsdError::NoJournal`].
    pub fn recover(
        &mut self,
        grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<RecoveryReport, CoreError> {
        let mount = self.device.mount(at)?;
        self.step = mount.committed_epoch;
        let resumed_step = self.step;
        let mut end = mount.window.end;
        let replayed = match grads {
            Some(g) => {
                let r = self.run_step(Some(g), end)?;
                end = r.end;
                Some(r)
            }
            None => None,
        };
        Ok(RecoveryReport {
            mount,
            resumed_step,
            replayed,
            end,
        })
    }

    /// Reads back the fp32 master weights (functional mode, for
    /// verification): every group's two master pages, through the host
    /// interface on the host tier and straight from the array otherwise.
    /// Timing is incidental — this is a debug path.
    pub fn read_master_weights(&mut self, at: SimTime) -> Result<Vec<f32>, CoreError> {
        if !self.device.is_functional() {
            return Err(CoreError::ModeMismatch(
                "read_master_weights needs functional mode",
            ));
        }
        let path = match self.cfg.tier {
            ExecutionTier::HostNvme => ReadPath::Host,
            ExecutionTier::ChannelNdp | ExecutionTier::DieNdp => ReadPath::Array,
        };
        let per_page = self.layout.page_bytes() / 4;
        let mut out = Vec::with_capacity(self.layout.params() as usize);
        for g in 0..self.layout.num_groups() {
            let mut left = self.layout.group(g).param_count as usize;
            for idx in 0..2u32 {
                let lpn = self.layout.lpn(g, StateComponent::Master, idx);
                self.device.read(lpn, path, at)?;
                let page = self.device.sensed_page(lpn)?;
                let n = left.min(per_page);
                out.extend(
                    page[..4 * n]
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
                );
                left -= n;
            }
        }
        Ok(out)
    }

    /// Reads back the 16-bit working weights, widened to f32 (functional
    /// mode).
    pub fn read_weights16(&mut self, at: SimTime) -> Result<Vec<f32>, CoreError> {
        if !self.device.is_functional() {
            return Err(CoreError::ModeMismatch(
                "read_weights16 needs functional mode",
            ));
        }
        let mut out = vec![0.0; self.layout.params() as usize];
        for g in 0..self.layout.num_groups() {
            let r = self.layout.group(g).param_range();
            let lpn = self.layout.lpn(g, StateComponent::Weight16, 0);
            self.device.read(lpn, ReadPath::Array, at)?;
            widen_into(
                self.spec.grad_dtype,
                self.device.sensed_page(lpn)?,
                &mut out[r.start as usize..r.end as usize],
            );
        }
        Ok(out)
    }

    /// Streams the persistent optimizer state (masters, slots and working
    /// weights) out through the host interface — a full checkpoint read.
    /// Returns `(completion_time, bytes_read)`.
    ///
    /// Checkpointing is tier-independent: even with die-level engines, a
    /// checkpoint must cross PCIe, so this is the one recurring operation
    /// where in-storage processing buys nothing — the checkpoint-overhead
    /// experiment quantifies how much that matters.
    pub fn checkpoint(&mut self, at: SimTime) -> Result<(SimTime, u64), CoreError> {
        let mut end = at;
        let mut bytes = 0u64;
        for g in 0..self.layout.num_groups() {
            let base = self.layout.group_base(g);
            for &page in self.write_set.iter() {
                let lpn = page.lpn(&self.layout, g, base);
                let win = self.device.read(lpn, ReadPath::Host, at)?;
                end = end.max(win.end);
                bytes += self.page_bytes() as u64;
            }
        }
        Ok((end, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayoutPolicy;
    use optim_math::kernels::{encode_grads, StateBuffers};
    use optim_math::state::GradDtype;
    use optim_math::{Adam, OptimizerKind, F16};

    fn spec() -> StateLayoutSpec {
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
    }

    fn host_nvme() -> OptimStoreConfig {
        OptimStoreConfig::host_nvme(20_000_000_000)
    }

    fn functional(params: u64) -> OptimStoreDevice {
        OptimStoreDevice::new_functional(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            params,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap()
    }

    #[test]
    fn capacity_check_rejects_oversized_models() {
        let err = OptimStoreDevice::new(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            1_000_000_000,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::CapacityExceeded { .. }));
    }

    #[test]
    fn plan_pages_address_the_layout_lpns() {
        for policy in [LayoutPolicy::CoLocated, LayoutPolicy::TensorStriped] {
            for grad_staged in [false, true] {
                let layout = StateLayout::new(policy, 100_000, 2, 4096, 6, grad_staged);
                let read = PlanPage::plan(&layout, layout.read_set());
                let write = PlanPage::plan(&layout, layout.write_set());
                for g in 0..layout.num_groups() {
                    let base = layout.group_base(g);
                    for p in read.iter().chain(write.iter()) {
                        assert_eq!(
                            p.lpn(&layout, g, base),
                            layout.lpn(g, p.comp, p.idx),
                            "{policy:?} group {g} {:?}[{}]",
                            p.comp,
                            p.idx
                        );
                    }
                }
            }
        }
    }

    /// An invalid geometry comes back as a typed error from either
    /// constructor on every tier; nothing reaches `Device::new`'s panic.
    #[test]
    fn die_count_past_the_packed_ppa_limit_is_a_config_error() {
        let build = |channels, dies_per_channel, cfg, functional| {
            let ssd = SsdConfig {
                channels,
                dies_per_channel,
                ..SsdConfig::tiny()
            };
            let adam = Box::new(Adam::default());
            if functional {
                OptimStoreDevice::new_functional(ssd, cfg, 1000, adam, spec())
            } else {
                OptimStoreDevice::new(ssd, cfg, 1000, adam, spec())
            }
        };
        let max = ssdsim::DieId::MAX_CHANNELS;
        build(max, 1, OptimStoreConfig::die_ndp(), false).unwrap();
        for (channels, dies, want) in [
            (max + 1, 1, "channels"),
            (1, 1_025, "1025 dies per channel"),
        ] {
            for cfg in [OptimStoreConfig::die_ndp(), host_nvme()] {
                for functional in [false, true] {
                    let err = build(channels, dies, cfg, functional).unwrap_err();
                    assert!(
                        matches!(&err, CoreError::Config(msg) if msg.contains(want)),
                        "{err}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimizer_spec_mismatch_rejected() {
        let bad_spec = StateLayoutSpec::new(OptimizerKind::SgdMomentum, GradDtype::F16);
        let err = OptimStoreDevice::new(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            1000,
            Box::new(Adam::default()),
            bad_spec,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }

    #[test]
    fn functional_step_matches_reference_bit_exactly() {
        let params = 10_000usize;
        let weights: Vec<f32> = (0..params).map(|i| (i as f32 * 0.01).sin()).collect();
        let grads: Vec<f32> = (0..params)
            .map(|i| (i as f32 * 0.007).cos() * 0.1)
            .collect();

        let mut dev = functional(params as u64);
        let t0 = dev.load_weights(&weights, SimTime::ZERO).unwrap();
        let r1 = dev.run_step(Some(&grads), t0).unwrap();
        let r2 = dev.run_step(Some(&grads), r1.end).unwrap();
        let got = dev.read_master_weights(r2.end).unwrap();

        // Host-side reference with the same kernel semantics. The gradient
        // round-trips through f16 on both paths.
        let adam = Adam::default();
        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let grad_bytes = encode_grads(&grads, GradDtype::F16);
        reference
            .step(&adam, &grad_bytes, GradDtype::F16, 1)
            .unwrap();
        reference
            .step(&adam, &grad_bytes, GradDtype::F16, 2)
            .unwrap();
        let expect = reference.weights_f32();

        assert_eq!(got.len(), expect.len());
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "param {i}: {g} vs {e}");
        }

        // Working weights are the narrowed masters.
        let w16 = dev.read_weights16(r2.end).unwrap();
        for (i, (w, e)) in w16.iter().zip(&expect).enumerate() {
            assert_eq!(w.to_bits(), F16::from_f32(*e).to_f32().to_bits(), "w16 {i}");
        }
    }

    #[test]
    fn functional_and_phantom_loads_write_the_same_image() {
        let params = 20_000u64;
        let die_ndp = |grad_staging| OptimStoreConfig {
            grad_staging,
            ..OptimStoreConfig::die_ndp()
        };
        for cfg in [
            die_ndp(GradStaging::Stream),
            die_ndp(GradStaging::StoreToFlash),
            host_nvme(),
        ] {
            let adam = || Box::new(Adam::default());
            let mut func =
                OptimStoreDevice::new_functional(SsdConfig::tiny(), cfg, params, adam(), spec())
                    .unwrap();
            let mut phantom =
                OptimStoreDevice::new(SsdConfig::tiny(), cfg, params, adam(), spec()).unwrap();
            assert_eq!(func.layout(), phantom.layout());
            let weights = vec![0.5f32; params as usize];
            let t_func = func.load_weights(&weights, SimTime::ZERO).unwrap();
            let t_phantom = phantom.load_phantom(SimTime::ZERO).unwrap();
            assert_eq!(t_func, t_phantom, "{cfg:?}");

            let (a, b) = (func.ssd().stats(), phantom.ssd().stats());
            let layout = func.layout();
            let pages = layout.write_set().len() as u64 + u64::from(layout.grad_staged());
            assert_eq!(a.host_writes.get(), layout.num_groups() * pages);
            assert_eq!(a.host_writes, b.host_writes);
            assert_eq!(a.user_programs, b.user_programs);
        }
    }

    #[test]
    fn uncorrectable_operand_reads_replay_bit_exactly() {
        let params = 10_000usize;
        let weights: Vec<f32> = (0..params).map(|i| (i as f32 * 0.01).sin()).collect();
        let grads: Vec<f32> = (0..params)
            .map(|i| (i as f32 * 0.007).cos() * 0.1)
            .collect();

        // A raw fault rate of 0.55 makes a read stay uncorrectable through
        // the device's 5 sense attempts with probability 0.55^5 ≈ 5% — high
        // enough to exercise the replay path, low enough that a generous
        // replay bound always recovers. Seeded, hence deterministic.
        let fault = ssdsim::FaultConfig {
            seed: 11,
            program_fail: 0.0,
            erase_fail: 0.0,
            read_uncorrectable: 0.55,
            wear_coupling: false,
        };
        let cfg = OptimStoreConfig {
            max_group_replays: 16,
            ..OptimStoreConfig::die_ndp()
        };
        let mut dev = OptimStoreDevice::new_functional(
            SsdConfig::tiny().with_fault(fault),
            cfg,
            params as u64,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = dev.load_weights(&weights, SimTime::ZERO).unwrap();
        let r1 = dev.run_step(Some(&grads), t0).unwrap();
        let r2 = dev.run_step(Some(&grads), r1.end).unwrap();

        // The faults really surfaced and the executor masked every one.
        assert!(
            r1.groups_replayed + r2.groups_replayed > 0,
            "seed/rate chosen so at least one group replays"
        );
        assert!(dev.ssd().stats().uncorrectable_reads.get() > 0);

        // The readback path is a debug path without replay; retry it the
        // same way a caller with redundancy would.
        let got = (0..100)
            .find_map(|_| match dev.read_master_weights(r2.end) {
                Ok(w) => Some(w),
                Err(CoreError::Ssd(SsdError::UncorrectableRead { .. })) => None,
                Err(e) => panic!("unexpected error: {e}"),
            })
            .expect("readback recovers within 100 attempts");

        let adam = Adam::default();
        let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
        let grad_bytes = encode_grads(&grads, GradDtype::F16);
        reference
            .step(&adam, &grad_bytes, GradDtype::F16, 1)
            .unwrap();
        reference
            .step(&adam, &grad_bytes, GradDtype::F16, 2)
            .unwrap();
        let expect = reference.weights_f32();
        assert_eq!(got.len(), expect.len());
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "param {i}: {g} vs {e}");
        }
    }

    #[test]
    fn replay_exhaustion_surfaces_the_typed_error() {
        // Rate 1.0: every sense attempt fails, so every operand read
        // exhausts the device retries and every replay fails too.
        let fault = ssdsim::FaultConfig {
            seed: 3,
            program_fail: 0.0,
            erase_fail: 0.0,
            read_uncorrectable: 1.0,
            wear_coupling: false,
        };
        let cfg = OptimStoreConfig {
            max_group_replays: 1,
            ..OptimStoreConfig::die_ndp()
        };
        let mut dev = OptimStoreDevice::new_functional(
            SsdConfig::tiny().with_fault(fault),
            cfg,
            1000,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = dev.load_weights(&vec![0.5; 1000], SimTime::ZERO).unwrap();
        let err = dev.run_step(Some(&vec![0.1; 1000]), t0).unwrap_err();
        assert!(
            matches!(err, CoreError::Ssd(SsdError::UncorrectableRead { .. })),
            "{err}"
        );
    }

    /// The host tier takes its gradients in `run_step` like every tier:
    /// it spills them first and starts the step when the spill persists,
    /// and the report counts only the step — the whole state crosses PCIe
    /// up and back, the spilled gradient pages do not count.
    #[test]
    fn host_tier_spills_its_gradients_then_steps() {
        let params = 50_000usize;
        let weights: Vec<f32> = (0..params).map(|i| (i as f32 * 0.01).sin()).collect();
        let grads: Vec<f32> = (0..params)
            .map(|i| (i as f32 * 0.007).cos() * 0.1)
            .collect();
        for functional in [true, false] {
            let mk = || {
                let adam = Box::new(Adam::default());
                let (ssd, n) = (SsdConfig::tiny(), params as u64);
                let mut dev = if functional {
                    OptimStoreDevice::new_functional(ssd, host_nvme(), n, adam, spec())
                } else {
                    OptimStoreDevice::new(ssd, host_nvme(), n, adam, spec())
                }
                .unwrap();
                let t0 = if functional {
                    dev.load_weights(&weights, SimTime::ZERO)
                } else {
                    dev.load_phantom(SimTime::ZERO)
                };
                (t0.unwrap(), dev)
            };
            let grads = Some(&grads[..]).filter(|_| functional);
            let (t0, mut twin) = mk();
            let spilled = twin.spill_gradients(grads, t0).unwrap();
            assert!(spilled > t0);

            let (t0, mut dev) = mk();
            let r = dev.run_step(grads, t0).unwrap();
            assert_eq!(r.tier, "host-nvme");
            assert_eq!(r.start, spilled, "the step starts when the spill persists");
            assert_eq!(dev.step_count(), 1);
            assert_eq!(r.params, params as u64);
            let pages = |set: usize| dev.layout().num_groups() * set as u64;
            let pb = dev.ssd().page_bytes() as u64;
            assert_eq!(
                r.traffic.pcie_out,
                pages(dev.layout().read_set().len()) * pb
            );
            assert_eq!(
                r.traffic.pcie_in,
                pages(dev.layout().write_set().len()) * pb
            );
            assert!(r.traffic.bus > 0);
            if functional {
                let adam = Adam::default();
                let mut reference = StateBuffers::init(&adam, &weights, GradDtype::F16);
                let grad_bytes = encode_grads(grads.unwrap(), GradDtype::F16);
                reference
                    .step(&adam, &grad_bytes, GradDtype::F16, 1)
                    .unwrap();
                let got = dev.read_master_weights(r.end).unwrap();
                let expect = reference.weights_f32();
                assert_eq!(got.len(), expect.len());
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert_eq!(g.to_bits(), e.to_bits(), "param {i}: {g} vs {e}");
                }
            }
        }
    }

    #[test]
    fn die_ndp_keeps_state_off_pcie() {
        let params = 50_000u64;
        let mut dev = OptimStoreDevice::new(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            params,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
        let r = dev.run_step(None, t0).unwrap();
        // PCIe carries only gradients (one page per group).
        let expected_pcie = dev.layout().num_groups() * dev.ssd().page_bytes() as u64;
        assert_eq!(r.traffic.pcie_in, expected_pcie);
        assert_eq!(r.traffic.pcie_out, 0);
        // Array traffic covers the full state.
        let groups = dev.layout().num_groups();
        let pb = dev.ssd().page_bytes() as u64;
        assert_eq!(r.traffic.array_read, groups * 6 * pb);
        assert_eq!(r.traffic.array_program, groups * 7 * pb);
        // Die-local writes never crossed the bus: it carries the grads
        // only, one transfer per group, each charged the ONFI command
        // overhead's equivalent bytes exactly once.
        let t = dev.ssd().config().nand.timing;
        let rate = t.bus_bytes_per_sec() as f64;
        let overhead_bytes = (t.t_cmd_overhead.as_secs_f64() * rate).ceil() as u64;
        assert_eq!(r.traffic.bus, expected_pcie + groups * overhead_bytes);
        assert_eq!(r.params, params);
        assert!(r.energy.total() > 0.0);
        // No fault config armed: nothing to replay.
        assert_eq!(r.groups_replayed, 0);
    }

    #[test]
    fn channel_ndp_pays_bus_for_operands() {
        let params = 50_000u64;
        let mk = |cfg: OptimStoreConfig| {
            let mut dev = OptimStoreDevice::new(
                SsdConfig::tiny(),
                cfg,
                params,
                Box::new(Adam::default()),
                spec(),
            )
            .unwrap();
            let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
            dev.run_step(None, t0).unwrap()
        };
        let die = mk(OptimStoreConfig::die_ndp());
        let ch = mk(OptimStoreConfig::channel_ndp());
        assert!(
            ch.traffic.bus > 10 * die.traffic.bus,
            "channel ndp bus {} vs die ndp {}",
            ch.traffic.bus,
            die.traffic.bus
        );
        // And the step takes longer.
        assert!(ch.duration > die.duration);
    }

    #[test]
    fn grad_length_checked() {
        for cfg in [OptimStoreConfig::die_ndp(), host_nvme()] {
            let mut dev = OptimStoreDevice::new_functional(
                SsdConfig::tiny(),
                cfg,
                1000,
                Box::new(Adam::default()),
                spec(),
            )
            .unwrap();
            let t0 = dev.load_weights(&vec![0.0; 1000], SimTime::ZERO).unwrap();
            let writes = dev.ssd().stats().host_writes.get();
            assert!(matches!(
                dev.run_step(Some(&vec![0.0; 999]), t0),
                Err(CoreError::GradLength { got: 999, .. })
            ));
            assert!(matches!(
                dev.run_step(None, t0),
                Err(CoreError::ModeMismatch(_))
            ));
            assert_eq!(dev.step_count(), 0, "{cfg:?}");
            assert_eq!(
                dev.ssd().stats().host_writes.get(),
                writes,
                "nothing spilled"
            );
        }
    }

    #[test]
    fn weight_length_checked() {
        let mut dev = functional(1000);
        assert!(matches!(
            dev.load_weights(&vec![0.0; 999], SimTime::ZERO),
            Err(CoreError::WeightLength {
                got: 999,
                want: 1000
            })
        ));
        assert_eq!(dev.ssd().stats().host_writes.get(), 0, "nothing loaded");
    }

    #[test]
    fn step_counter_advances() {
        let mut dev = functional(1000);
        let t0 = dev.load_weights(&vec![0.1; 1000], SimTime::ZERO).unwrap();
        assert_eq!(dev.step_count(), 0);
        let r = dev.run_step(Some(&vec![0.0; 1000]), t0).unwrap();
        assert_eq!(dev.step_count(), 1);
        dev.run_step(Some(&vec![0.0; 1000]), r.end).unwrap();
        assert_eq!(dev.step_count(), 2);
    }

    #[test]
    fn grad_store_to_flash_adds_traffic_and_wear() {
        let params = 50_000u64;
        let mk = |staging: GradStaging| {
            let cfg = OptimStoreConfig {
                grad_staging: staging,
                ..OptimStoreConfig::die_ndp()
            };
            let mut dev = OptimStoreDevice::new(
                SsdConfig::tiny(),
                cfg,
                params,
                Box::new(Adam::default()),
                spec(),
            )
            .unwrap();
            let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
            dev.run_step(None, t0).unwrap()
        };
        let stream = mk(GradStaging::Stream);
        let store = mk(GradStaging::StoreToFlash);
        assert!(store.traffic.array_program > stream.traffic.array_program);
        assert!(store.traffic.array_read > stream.traffic.array_read);
    }

    #[test]
    fn striped_layout_is_slower_than_colocated() {
        // The striping penalty is bus occupancy, so this needs a device
        // where the channel buses — not the arrays — cap the striped rate:
        // the base device (64 dies behind 8 buses), not the tiny one.
        let params = 2_000_000u64;
        let mk = |layout: LayoutPolicy| {
            let cfg = OptimStoreConfig {
                layout,
                ..OptimStoreConfig::die_ndp()
            };
            let mut dev = OptimStoreDevice::new(
                SsdConfig::base(),
                cfg,
                params,
                Box::new(Adam::default()),
                spec(),
            )
            .unwrap();
            let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
            dev.run_step(None, t0).unwrap()
        };
        let co = mk(LayoutPolicy::CoLocated);
        let striped = mk(LayoutPolicy::TensorStriped);
        assert!(
            striped.duration > co.duration,
            "striped {} vs colocated {}",
            striped.duration,
            co.duration
        );
        assert!(striped.traffic.bus > co.traffic.bus);
    }

    #[test]
    fn lazy_skip_is_exact_for_never_trained_params_and_saves_work() {
        let params = 40_000usize;
        let hot = params / 4;
        let weights = vec![0.25f32; params];
        let mut grads = vec![0.5f32; hot];
        grads.resize(params, 0.0);

        let run = |skip: bool| {
            let cfg = OptimStoreConfig {
                skip_zero_gradients: skip,
                ..OptimStoreConfig::die_ndp()
            };
            let mut dev = OptimStoreDevice::new_functional(
                SsdConfig::tiny(),
                cfg,
                params as u64,
                Box::new(Adam::default()),
                spec(),
            )
            .unwrap();
            let mut at = dev.load_weights(&weights, SimTime::ZERO).unwrap();
            let mut last = None;
            for _ in 0..2 {
                let r = dev.run_step(Some(&grads), at).unwrap();
                at = r.end;
                last = Some(r);
            }
            (dev.read_master_weights(at).unwrap(), last.unwrap())
        };
        let (eager_w, eager_r) = run(false);
        let (lazy_w, lazy_r) = run(true);

        // Bit-exact: frozen params never trained, so their slots are zero.
        for (i, (a, b)) in lazy_w.iter().zip(&eager_w).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "param {i}");
        }
        // Reporting and savings.
        assert_eq!(eager_r.groups_skipped, 0);
        assert!(lazy_r.groups_skipped > 0);
        assert_eq!(lazy_r.groups_total, eager_r.groups_total);
        assert!(lazy_r.traffic.array_program < eager_r.traffic.array_program / 2);
        assert!(lazy_r.duration < eager_r.duration);
    }

    #[test]
    fn phantom_hot_fraction_scales_step_time() {
        let params = 80_000u64;
        let cfg = OptimStoreConfig {
            skip_zero_gradients: true,
            ..OptimStoreConfig::die_ndp()
        };
        let mut dev = OptimStoreDevice::new(
            SsdConfig::tiny(),
            cfg,
            params,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
        let full = dev.run_step(None, t0).unwrap();
        dev.set_phantom_hot_fraction(0.25);
        let sparse = dev.run_step(None, dev.quiesce_time()).unwrap();
        assert!(sparse.groups_skipped > 0);
        assert!(
            sparse.duration.as_secs_f64() < full.duration.as_secs_f64() * 0.6,
            "sparse {} vs full {}",
            sparse.duration,
            full.duration
        );
    }

    #[test]
    fn checkpoint_reads_full_persistent_state_over_pcie() {
        let params = 40_000u64;
        let mut dev = OptimStoreDevice::new(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            params,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = dev.load_phantom(SimTime::ZERO).unwrap();
        let pcie_before = dev.ssd().pcie_out().bytes_moved();
        let (end, bytes) = dev.checkpoint(t0).unwrap();
        assert!(end > t0);
        let expected = dev.layout().num_groups()
            * dev.layout().write_set().len() as u64
            * dev.ssd().page_bytes() as u64;
        assert_eq!(bytes, expected);
        assert_eq!(dev.ssd().pcie_out().bytes_moved() - pcie_before, bytes);
    }

    #[test]
    fn undersized_engine_buffer_rejected() {
        let mut cfg = OptimStoreConfig::die_ndp();
        cfg.engine.buffer_bytes = 8 * 1024; // 4 KiB per half < one group
        let err = OptimStoreDevice::new(
            SsdConfig::tiny(),
            cfg,
            1000,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "{err}");
        assert!(
            err.to_string()
                .contains("but only 4096 B is available for double buffering"),
            "{err}"
        );
    }

    fn journaled_functional(params: u64) -> OptimStoreDevice {
        OptimStoreDevice::new_functional(
            SsdConfig::tiny().with_journal(ssdsim::JournalConfig::every(16)),
            OptimStoreConfig::die_ndp(),
            params,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap()
    }

    #[test]
    fn crash_mid_step_recovers_bit_identically_to_uncrashed_run() {
        let params = 8_000usize;
        let weights: Vec<f32> = (0..params).map(|i| (i as f32 * 0.013).sin()).collect();
        let grad_for = |step: u64| -> Vec<f32> {
            (0..params)
                .map(|i| ((i as u64 + 31 * step) as f32 * 0.005).cos() * 0.1)
                .collect()
        };

        // Reference: never crashes. Remember each step's window.
        let mut reference = journaled_functional(params as u64);
        let t0 = reference.load_weights(&weights, SimTime::ZERO).unwrap();
        let mut windows = Vec::new();
        let mut at = t0;
        for step in 1..=3u64 {
            let r = reference.run_step(Some(&grad_for(step)), at).unwrap();
            windows.push((r.start, r.end));
            at = r.end;
        }
        let expect = reference.read_master_weights(at).unwrap();

        // Crashed run: identical until the armed instant in the middle of
        // step 2 (same config and inputs ⇒ same timing), then recovery.
        let mut dev = journaled_functional(params as u64);
        let t0b = dev.load_weights(&weights, SimTime::ZERO).unwrap();
        assert_eq!(t0, t0b, "identical runs share timing");
        let (s2, e2) = windows[1];
        let crash = s2 + (e2 - s2) / 2;
        dev.ssd_mut()
            .arm_power_loss(ssdsim::PowerLossConfig::at(crash));
        let r1 = dev.run_step(Some(&grad_for(1)), t0b).unwrap();
        let err = dev.run_step(Some(&grad_for(2)), r1.end).unwrap_err();
        assert!(
            matches!(err, CoreError::Ssd(SsdError::PowerLoss { .. })),
            "{err}"
        );

        // Recover with the interrupted step's gradients: mount rolls back
        // to step 1, the replay redoes step 2.
        let rec = dev.recover(Some(&grad_for(2)), crash).unwrap();
        assert_eq!(rec.resumed_step, 1, "step 2 never committed");
        assert_eq!(rec.mount.committed_epoch, 1);
        assert_eq!(dev.step_count(), 2, "replay redid the interrupted step");
        let replay = rec.replayed.unwrap();

        // Finish the run and compare bit-for-bit.
        let r3 = dev.run_step(Some(&grad_for(3)), replay.end).unwrap();
        let got = dev.read_master_weights(r3.end).unwrap();
        assert_eq!(got.len(), expect.len());
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "param {i}: {g} vs {e}");
        }
        assert_eq!(dev.ssd().stats().mounts.get(), 1);
    }

    #[test]
    fn recover_without_grads_only_resyncs_the_step_counter() {
        let params = 4_000usize;
        let weights = vec![0.5f32; params];
        let grads = vec![0.1f32; params];
        let mut dev = journaled_functional(params as u64);
        let t0 = dev.load_weights(&weights, SimTime::ZERO).unwrap();
        let r1 = dev.run_step(Some(&grads), t0).unwrap();
        // Crash between steps: step 1 is committed, nothing is in flight.
        dev.ssd_mut()
            .arm_power_loss(ssdsim::PowerLossConfig::at(r1.end));
        let err = dev.run_step(Some(&grads), r1.end).unwrap_err();
        assert!(matches!(err, CoreError::Ssd(SsdError::PowerLoss { .. })));
        let rec = dev
            .recover(None, r1.end + simkit::SimDuration::from_us(1))
            .unwrap();
        assert_eq!(rec.resumed_step, 1);
        assert!(rec.replayed.is_none());
        assert_eq!(dev.step_count(), 1);
        // The device is fully serviceable: the next step runs normally.
        let r2 = dev.run_step(Some(&grads), rec.end).unwrap();
        assert_eq!(dev.step_count(), 2);
        assert!(r2.end > rec.end);
    }

    #[test]
    fn recover_on_a_journal_free_device_is_a_typed_error() {
        let mut dev = functional(1000);
        let t0 = dev.load_weights(&vec![0.5; 1000], SimTime::ZERO).unwrap();
        let err = dev.recover(Some(&vec![0.1; 1000]), t0).unwrap_err();
        assert!(matches!(err, CoreError::Ssd(SsdError::NoJournal)), "{err}");
        assert_eq!(dev.step_count(), 0, "nothing was replayed");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn hot_fraction_out_of_range_panics() {
        let mut dev = OptimStoreDevice::new(
            SsdConfig::tiny(),
            OptimStoreConfig::die_ndp(),
            1000,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        dev.set_phantom_hot_fraction(1.5);
    }
}
