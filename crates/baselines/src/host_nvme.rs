//! The ZeRO-Infinity-style host NVMe-offload baseline.
//!
//! Optimizer state lives on flash in the same layout OptimStore uses (the
//! layout is free either way); the difference is the update *path*:
//!
//! 1. during backward, fp16 gradients are **spilled** to flash (not
//!    charged to the step: it overlaps backward compute);
//! 2. the step **reads** every state page and the gradient page to the
//!    host over `array → bus → DRAM → PCIe`;
//! 3. the host updater (a streaming CPU/GPU kernel, modelled as a
//!    throughput pipeline) applies the rule;
//! 4. the step **writes** every updated page back down the same path.
//!
//! All four are the [`ExecutionTier::HostNvme`] arm of core's one step
//! executor ([`OptimStoreDevice::run_step`] under
//! [`OptimStoreConfig::host_nvme`]), so the baseline runs the identical
//! kernels, state image and step accounting as the in-storage tiers and
//! its results are bit-exact against them — the comparison is purely
//! about time, traffic and energy. This module holds only the
//! configuration mapping and the phantom calls the repository benchmark
//! makes; everything else drives [`OptimStoreDevice`] under that
//! configuration directly.
//!
//! [`ExecutionTier::HostNvme`]: optimstore_core::ExecutionTier::HostNvme

use optim_math::state::StateLayoutSpec;
use optim_math::Optimizer;
use optimstore_core::{CoreError, OptimStoreConfig, OptimStoreDevice, StepReport};
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

    /// The underlying SSD.
    pub fn ssd(&self) -> &Device {
        self.dev.ssd()
    }

    /// Initializes phantom state (dataless pages).
    pub fn load_phantom(&mut self, at: SimTime) -> Result<SimTime, CoreError> {
        self.dev.load_phantom(at)
    }

    /// Returns `at`: [`HostNvmeBaseline::run_step`] spills the step's
    /// gradients itself. This and `run_step` exist only for `perfbench`'s
    /// spill-then-step call order, until it drives [`OptimStoreDevice`]
    /// directly.
    pub fn spill_gradients(
        &mut self,
        _grads: Option<&[f32]>,
        at: SimTime,
    ) -> Result<SimTime, CoreError> {
        Ok(at)
    }

    /// Executes one phantom host-offload step from `at`: spill the
    /// gradients, read up, update on host, write back
    /// ([`OptimStoreDevice::run_step`]). The report counts only the step.
    pub fn run_step(&mut self, at: SimTime) -> Result<StepReport, CoreError> {
        self.dev.run_step(None, at)
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

    /// The adapter's spill-then-step calls produce the same reports as
    /// the host tier of [`OptimStoreDevice`] stepped directly.
    #[test]
    fn adapter_reports_match_the_host_tier() {
        let params = 50_000u64;
        let host = HostNvmeConfig::default();
        let adam = || Box::new(Adam::default());
        let mut b = HostNvmeBaseline::new(SsdConfig::tiny(), host, params, adam(), spec()).unwrap();
        let cfg = OptimStoreConfig::host_nvme(host.update_bytes_per_sec);
        let mut dev =
            OptimStoreDevice::new(SsdConfig::tiny(), cfg, params, adam(), spec()).unwrap();
        let (mut at, t) = (
            b.load_phantom(SimTime::ZERO).unwrap(),
            dev.load_phantom(SimTime::ZERO).unwrap(),
        );
        assert_eq!(at, t);
        for step in 1..=3 {
            let t = b.spill_gradients(None, at).unwrap();
            let got = b.run_step(t).unwrap();
            let expect = dev.run_step(None, at).unwrap();
            assert_eq!(format!("{got:?}"), format!("{expect:?}"), "step {step}");
            at = got.end;
        }
        let stats = |d: &Device| format!("{:?}", d.stats());
        assert_eq!(stats(b.ssd()), stats(dev.ssd()));
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
