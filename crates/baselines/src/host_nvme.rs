//! The ZeRO-Infinity-style host NVMe-offload baseline.
//!
//! Optimizer state lives on flash in the same layout OptimStore uses (the
//! layout is free either way); the difference is the update *path*:
//!
//! 1. during backward, fp16 gradients are **spilled** to flash
//!    ([`OptimStoreDevice::spill_gradients`], not charged to the step);
//! 2. the step **reads** every state page and the gradient page to the
//!    host over `array → bus → DRAM → PCIe`;
//! 3. the host updater (a streaming CPU/GPU kernel, modelled as a
//!    throughput pipeline) applies the rule;
//! 4. the step **writes** every updated page back down the same path.
//!
//! Steps 2–4 are the [`ExecutionTier::HostNvme`] arm of core's one step
//! executor ([`OptimStoreDevice`] under [`OptimStoreConfig::host_nvme`]),
//! so the baseline runs the identical kernels, state image and step
//! accounting as the in-storage tiers and its results are bit-exact
//! against them — the comparison is purely about time, traffic and
//! energy. This module holds only the configuration mapping.
//!
//! [`ExecutionTier::HostNvme`]: optimstore_core::ExecutionTier::HostNvme

use optim_math::state::StateLayoutSpec;
use optim_math::Optimizer;
use optimstore_core::{CoreError, OptimStoreConfig, OptimStoreDevice, StateLayout, StepReport};
use simkit::SimTime;
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
    dev: OptimStoreDevice,
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
        let cfg = OptimStoreConfig::host_nvme(host_cfg.update_bytes_per_sec);
        let dev = OptimStoreDevice::new(ssd, cfg, params, optimizer, spec)?;
        Ok(HostNvmeBaseline { dev })
    }

    /// Creates a functional baseline.
    pub fn new_functional(
        ssd: SsdConfig,
        host_cfg: HostNvmeConfig,
        params: u64,
        optimizer: Box<dyn Optimizer>,
        spec: StateLayoutSpec,
    ) -> Result<Self, CoreError> {
        let cfg = OptimStoreConfig::host_nvme(host_cfg.update_bytes_per_sec);
        let dev = OptimStoreDevice::new_functional(ssd, cfg, params, optimizer, spec)?;
        Ok(HostNvmeBaseline { dev })
    }

    /// The state layout in use.
    pub fn layout(&self) -> &StateLayout {
        self.dev.layout()
    }

    /// The underlying SSD.
    pub fn ssd(&self) -> &Device {
        self.dev.ssd()
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.dev.step_count()
    }

    /// Loads initial weights (functional mode): the same state image as
    /// [`OptimStoreDevice::load_weights`].
    pub fn load_weights(&mut self, weights: &[f32], at: SimTime) -> Result<SimTime, CoreError> {
        self.dev.load_weights(weights, at)
    }

    /// Initializes phantom state (dataless pages).
    pub fn load_phantom(&mut self, at: SimTime) -> Result<SimTime, CoreError> {
        self.dev.load_phantom(at)
    }

    /// Spills gradients to flash (the backward-phase traffic; see
    /// [`OptimStoreDevice::spill_gradients`]). Not charged to the step.
    pub fn spill_gradients(
        &mut self,
        grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<SimTime, CoreError> {
        self.dev.spill_gradients(grads, at)
    }

    /// Executes one host-offload optimizer step: read up, update on host,
    /// write back. Gradients must have been spilled for this step already.
    pub fn run_step(&mut self, at: SimTime) -> Result<StepReport, CoreError> {
        self.dev.run_step(None, at)
    }

    /// Reads back fp32 master weights (functional mode, verification).
    pub fn read_master_weights(&mut self, at: SimTime) -> Result<Vec<f32>, CoreError> {
        self.dev.read_master_weights(at)
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

    /// An invalid geometry comes back as a typed error from either
    /// constructor; nothing reaches `Device::new`'s panic.
    #[test]
    fn invalid_geometry_is_a_config_error() {
        let ssd = SsdConfig {
            dies_per_channel: 1_025,
            ..SsdConfig::tiny()
        };
        for functional in [false, true] {
            let built = if functional {
                HostNvmeBaseline::new_functional(
                    ssd,
                    HostNvmeConfig::default(),
                    1_000,
                    Box::new(Adam::default()),
                    spec(),
                )
            } else {
                HostNvmeBaseline::new(
                    ssd,
                    HostNvmeConfig::default(),
                    1_000,
                    Box::new(Adam::default()),
                    spec(),
                )
            };
            match built {
                Err(CoreError::Config(msg)) => {
                    assert!(msg.contains("1025 dies per channel"), "{msg}")
                }
                Err(e) => panic!("expected a config error, got {e}"),
                Ok(_) => panic!("an invalid geometry was accepted"),
            }
        }
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
