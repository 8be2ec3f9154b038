//! The ZeRO-Infinity-style host NVMe-offload baseline.
//!
//! Optimizer state lives on flash in the same layout OptimStore uses (the
//! layout is free either way); the difference is the update *path*:
//!
//! 1. during backward, fp16 gradients are **spilled** to flash
//!    ([`HostNvmeBaseline::spill_gradients`], not charged to the step);
//! 2. the step **reads** every state page and the gradient page to the
//!    host over `array → bus → DRAM → PCIe`;
//! 3. the host updater (a streaming CPU/GPU kernel, modelled as a
//!    throughput pipeline) applies the rule;
//! 4. the step **writes** every updated page back down the same path.
//!
//! Functionally the baseline runs the identical kernels, so its results
//! are bit-exact against the in-storage engine — the comparison is purely
//! about time, traffic and energy. The state image, the master-weight
//! decode and the step accounting are core's ([`optimstore_core::pages`],
//! [`optimstore_core::report`]); this module holds only the host path.

use optim_math::state::StateLayoutSpec;
use optim_math::Optimizer;
use optimstore_core::energy::EnergyModel;
use optimstore_core::pages::{self, OperandPage, UpdatePages};
use optimstore_core::report::CounterSnapshot;
use optimstore_core::{
    CoreError, ExecutionTier, LayoutPolicy, StateComponent, StateLayout, StepReport,
};
use simkit::pool::PageBuf;
use simkit::{SimDuration, SimTime, Timeline, Window};
use ssdsim::{Device, SsdConfig};

/// Host-side configuration of the offload baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostNvmeConfig {
    /// Host updater throughput over state bytes (a streaming
    /// read-modify-write over host DRAM; 20 GB/s ≈ dual-channel DDR4).
    pub update_bytes_per_sec: u64,
}

impl Default for HostNvmeConfig {
    fn default() -> Self {
        HostNvmeConfig {
            update_bytes_per_sec: 20_000_000_000,
        }
    }
}

/// The host NVMe-offload baseline system.
#[derive(Debug)]
pub struct HostNvmeBaseline {
    device: Device,
    layout: StateLayout,
    spec: StateLayoutSpec,
    optimizer: Box<dyn Optimizer>,
    host: Timeline,
    host_cfg: HostNvmeConfig,
    step: u64,
}

impl HostNvmeBaseline {
    /// Creates a phantom-mode (timing-only) baseline.
    pub fn new(
        ssd: SsdConfig,
        host_cfg: HostNvmeConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        Self::build(Device::new(ssd), host_cfg, params, optimizer, spec)
    }

    /// Creates a functional baseline.
    pub fn new_functional(
        ssd: SsdConfig,
        host_cfg: HostNvmeConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        Self::build(
            Device::new_functional(ssd),
            host_cfg,
            params,
            optimizer,
            spec,
        )
    }

    fn build(
        device: Device,
        host_cfg: HostNvmeConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        if host_cfg.update_bytes_per_sec == 0 {
            return Err(CoreError::Config(
                "host updater throughput must be positive".into(),
            ));
        }
        // Gradients are spilled to flash, so they occupy layout pages.
        let layout = pages::fit_layout(
            &device,
            LayoutPolicy::CoLocated,
            params,
            optimizer.as_ref(),
            &spec,
            true,
        )?;
        Ok(HostNvmeBaseline {
            device,
            layout,
            spec,
            optimizer,
            host: Timeline::new("host-updater"),
            host_cfg,
            step: 0,
        })
    }

    /// The state layout in use.
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// The underlying SSD.
    pub fn ssd(&self) -> &Device {
        &self.device
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Loads initial weights (functional mode): the same state image as
    /// [`optimstore_core::OptimStoreDevice::load_weights`].
    pub fn load_weights(&mut self, weights: &[f32], at: SimTime) -> Result<SimTime, CoreError> {
        pages::load_state_image(&mut self.device, &self.layout, Some(weights), at)
    }

    /// Initializes phantom state (dataless pages).
    pub fn load_phantom(&mut self, at: SimTime) -> Result<SimTime, CoreError> {
        pages::load_state_image(&mut self.device, &self.layout, None, at)
    }

    /// Spills gradients to flash (the backward-phase traffic; ZeRO-Infinity
    /// offloads gradients to NVMe). Not charged to the optimizer step —
    /// it overlaps backward compute. Returns the spill completion time.
    pub fn spill_gradients(
        &mut self,
        grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<SimTime, CoreError> {
        pages::check_grads(&self.device, &self.layout, grads)?;
        let mut end = at;
        for g in 0..self.layout.num_groups() {
            let data: Option<PageBuf> =
                grads.map(|gr| pages::encode_grad_page(&self.layout, g, gr, self.spec.grad_dtype));
            let lpn = self.layout.lpn(g, StateComponent::Grad, 0);
            end = end.max(self.device.host_write_page(lpn, data.as_deref(), at)?.end);
        }
        Ok(end)
    }

    /// Executes one host-offload optimizer step: read up, update on host,
    /// write back. Gradients must have been spilled for this step already.
    pub fn run_step(&mut self, at: SimTime) -> Result<StepReport, CoreError> {
        self.step += 1;
        let functional = self.device.is_functional();
        let pb = self.layout.page_bytes();
        let before = CounterSnapshot::of(&self.device);
        let mut step_end = at;

        // Batched two-phase issue, one group per die per batch: all of a
        // batch's reads (and the host updates they feed) are issued before
        // any of its write-backs, keeping issue order consistent with start
        // times on the shared PCIe/DRAM/bus resources. Interleaving each
        // group's late writes before the next group's early reads would
        // create false convoys under busy-until arbitration — an artifact a
        // real NVMe queue pair does not have.
        struct PendingWrite {
            g: u64,
            host_end: SimTime,
            /// Kernel output buffers (functional mode only) — write-back
            /// slices these in place.
            update: Option<UpdatePages>,
        }
        let batch = self.device.config().total_dies() as u64;
        let num_groups = self.layout.num_groups();
        let mut batch_start = 0u64;
        while batch_start < num_groups {
            let batch_end = (batch_start + batch).min(num_groups);
            let mut pending: Vec<PendingWrite> = Vec::with_capacity(batch as usize);

            for g in batch_start..batch_end {
                // ---- read state + gradient up to the host ------------------
                let mut host_start = at;
                let mut read_pages: Vec<OperandPage> = Vec::new();
                for (comp, idx) in self.layout.read_set() {
                    let lpn = self.layout.lpn(g, comp, idx);
                    let (win, data) = self.device.host_read_page(lpn, at)?;
                    host_start = host_start.max(win.end);
                    read_pages.push((comp, idx, data));
                }

                // ---- host update --------------------------------------------
                let work_bytes = (self.layout.read_set().len() + self.layout.write_set().len())
                    as u64
                    * pb as u64;
                let service =
                    SimDuration::for_transfer(work_bytes, self.host_cfg.update_bytes_per_sec);
                let host = self.host.acquire(host_start, service);

                // ---- functional update --------------------------------------
                let update: Option<UpdatePages> = if functional {
                    let mut up = UpdatePages::gather(pb, self.layout.slots(), &read_pages);
                    // The gradient page feeds the kernel straight from the
                    // read buffer — no staging copy.
                    up.apply(
                        self.optimizer.as_ref(),
                        pages::staged_grad(&read_pages),
                        self.spec.grad_dtype,
                        self.step,
                    )
                    .expect("layout-derived buffers are consistent");
                    Some(up)
                } else {
                    None
                };

                pending.push(PendingWrite {
                    g,
                    host_end: host.end,
                    update,
                });
            }

            // ---- write back ---------------------------------------------
            for p in &pending {
                for (comp, idx) in self.layout.write_set() {
                    let lpn = self.layout.lpn(p.g, comp, idx);
                    let data: Option<&[u8]> = p.update.as_ref().map(|up| up.page(comp, idx));
                    let win = self.device.host_write_page(lpn, data, p.host_end)?;
                    step_end = step_end.max(win.end);
                }
            }
            batch_start = batch_end;
        }

        let delta = CounterSnapshot::of(&self.device).since(&before);
        Ok(StepReport::from_counters(
            ExecutionTier::HostNvme,
            &self.layout,
            &self.spec,
            &EnergyModel::default(),
            Window {
                start: at,
                end: step_end,
            },
            delta,
        ))
    }

    /// Reads back fp32 master weights (functional mode, verification).
    pub fn read_master_weights(&mut self, at: SimTime) -> Result<Vec<f32>, CoreError> {
        pages::read_master_weights(&mut self.device, &self.layout, Device::host_read_page, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim_math::state::GradDtype;
    use optim_math::{Adam, OptimizerKind};

    fn spec() -> StateLayoutSpec {
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
    }

    #[test]
    fn functional_step_runs_and_decreases_weights() {
        let params = 5_000usize;
        let weights = vec![1.0f32; params];
        let grads = vec![0.5f32; params];
        let mut b = HostNvmeBaseline::new_functional(
            SsdConfig::tiny(),
            HostNvmeConfig::default(),
            params as u64,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = b.load_weights(&weights, SimTime::ZERO).unwrap();
        let t1 = b.spill_gradients(Some(&grads), t0).unwrap();
        let r = b.run_step(t1).unwrap();
        assert_eq!(b.step_count(), 1);
        let out = b.read_master_weights(r.end).unwrap();
        assert!(out.iter().all(|&w| w < 1.0));
    }

    #[test]
    fn functional_and_phantom_loads_write_the_same_image() {
        let params = 20_000u64;
        let adam = || Box::new(Adam::default());
        let host = HostNvmeConfig::default();
        let mut func =
            HostNvmeBaseline::new_functional(SsdConfig::tiny(), host, params, adam(), spec())
                .unwrap();
        let mut phantom =
            HostNvmeBaseline::new(SsdConfig::tiny(), host, params, adam(), spec()).unwrap();
        assert_eq!(func.layout(), phantom.layout());
        let weights = vec![0.5f32; params as usize];
        let t_func = func.load_weights(&weights, SimTime::ZERO).unwrap();
        let t_phantom = phantom.load_phantom(SimTime::ZERO).unwrap();
        assert_eq!(t_func, t_phantom);

        let (a, b) = (func.ssd().stats(), phantom.ssd().stats());
        // Every write-set page plus the spilled-gradient page per group.
        let layout = func.layout();
        let pages = layout.write_set().len() as u64 + 1;
        assert_eq!(a.host_writes.get(), layout.num_groups() * pages);
        assert_eq!(a.host_writes, b.host_writes);
        assert_eq!(a.user_programs, b.user_programs);
    }

    #[test]
    fn state_crosses_pcie_both_ways() {
        let params = 50_000u64;
        let mut b = HostNvmeBaseline::new(
            SsdConfig::tiny(),
            HostNvmeConfig::default(),
            params,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        let t0 = b.load_phantom(SimTime::ZERO).unwrap();
        let t1 = b.spill_gradients(None, t0).unwrap();
        let r = b.run_step(t1).unwrap();
        let pb = b.ssd().page_bytes() as u64;
        let groups = b.layout().num_groups();
        // Up: 6 state pages + 1 grad page per group. Down: 7 pages.
        assert_eq!(r.traffic.pcie_out, groups * 7 * pb);
        assert_eq!(r.traffic.pcie_in, groups * 7 * pb);
        assert!(r.traffic.bus > 0);
        assert_eq!(r.params, params);
    }

    #[test]
    fn grad_length_validated_on_spill() {
        let mut b = HostNvmeBaseline::new_functional(
            SsdConfig::tiny(),
            HostNvmeConfig::default(),
            1000,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap();
        b.load_weights(&vec![0.0; 1000], SimTime::ZERO).unwrap();
        assert!(matches!(
            b.spill_gradients(Some(&[0.0; 5]), SimTime::ZERO),
            Err(CoreError::GradLength { got: 5, .. })
        ));
    }

    #[test]
    fn zero_host_rate_rejected() {
        let err = HostNvmeBaseline::new(
            SsdConfig::tiny(),
            HostNvmeConfig {
                update_bytes_per_sec: 0,
            },
            1000,
            Box::new(Adam::default()),
            spec(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }
}
