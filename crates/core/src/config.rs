//! Configuration of the in-storage execution engine.

use serde::{Deserialize, Serialize};

/// Where the optimizer update executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionTier {
    /// On the host: state streams out over PCIe and back (the
    /// ZeRO-Infinity-style baseline, [`OptimStoreConfig::host_nvme`]); one
    /// host updater is the engine.
    HostNvme,
    /// In the SSD controller, one engine per channel: operands cross the
    /// ONFI bus but not PCIe.
    ChannelNdp,
    /// On (next to) each NAND die: operands never leave the die; only
    /// gradients enter and nothing leaves during the step. The paper's
    /// proposal.
    DieNdp,
}

impl ExecutionTier {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionTier::HostNvme => "host-nvme",
            ExecutionTier::ChannelNdp => "channel-ndp",
            ExecutionTier::DieNdp => "die-ndp",
        }
    }
}

/// How parameter state is placed on flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutPolicy {
    /// Each die holds complete `(w32, slots, w16, grad)` records for its
    /// parameter shard — updates are die-local. OptimStore's layout.
    CoLocated,
    /// Each state tensor is striped page-by-page across dies in tensor
    /// order (the layout a layout-oblivious offload produces). A die-level
    /// engine then needs cross-die operand movement; used as the layout
    /// ablation.
    TensorStriped,
}

/// How gradients reach the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GradStaging {
    /// Streamed through controller DRAM into per-engine buffers and
    /// consumed on the fly (never programmed). Default.
    Stream,
    /// Programmed to flash on arrival and read back by the update (what a
    /// system without engine buffers must do); costs extra program/read
    /// traffic and wear.
    StoreToFlash,
}

/// Throughput model of one processing engine.
///
/// An engine is an element-wise fp32 pipeline plus narrow/widen units; its
/// service time for an update group is `state_bytes / bytes_per_sec`. The
/// default (a 4-lane FMA pipeline at 500 MHz ⇒ ~2 G elem/s ⇒ 28 GB/s of
/// state) makes the engine *not* the bottleneck, which is the design point
/// the paper argues for (the array is); the sensitivity experiment shrinks
/// it to find where compute begins to matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// State bytes processed per second per engine.
    pub bytes_per_sec: u64,
    /// Engine SRAM buffer in bytes (must hold a double-buffered update
    /// group: bounds the group size).
    pub buffer_bytes: u64,
    /// Pipeline at sub-group granularity: the engine starts computing on a
    /// group's first fp32 page-pair as soon as it is sensed, and its
    /// write-backs issue per sub-group rather than after the whole group.
    /// Off by default (group-granular scheduling, the simpler hardware);
    /// the scheduler-granularity ablation (F23) measures the difference.
    pub subgroup_pipelining: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            bytes_per_sec: 28_000_000_000,
            buffer_bytes: 512 * 1024,
            subgroup_pipelining: false,
        }
    }
}

/// Full configuration of the optimizer update path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimStoreConfig {
    /// Engine placement: every tier is an arm of the one step executor.
    pub tier: ExecutionTier,
    /// State placement policy.
    pub layout: LayoutPolicy,
    /// Engine throughput/buffer model.
    pub engine: EngineConfig,
    /// Gradient path.
    pub grad_staging: GradStaging,
    /// Gradient top-k compression: when `Some(k‰)`, the host transmits
    /// only the k-per-mille largest-magnitude gradient entries as
    /// `(index, value)` pairs (6 B each plus a small header); the engine
    /// scatters them back to dense pages before updating. Shrinks the one
    /// remaining PCIe stream; pair with error feedback
    /// ([`optim_math::compress::ErrorFeedback`]) for convergence.
    pub grad_topk_permille: Option<u16>,
    /// Bounded update-group replay: when an operand read stays
    /// ECC-uncorrectable after the device's own read-retries
    /// ([`ssdsim::SsdError::UncorrectableRead`]), the executor re-reads the
    /// group's operands and recomputes the update, up to this many times
    /// per group, before surfacing the error. Nothing has been written back
    /// when an operand read fails, so a replayed group is bit-exact with an
    /// undisturbed one. `0` disables replay (the first uncorrectable read
    /// aborts the step).
    pub max_group_replays: u32,
    /// Skip update groups whose gradient page is entirely zero (lazy-Adam
    /// semantics). The engine still scans the gradient, but state pages are
    /// neither read nor rewritten — saving array bandwidth *and* wear for
    /// frozen-layer fine-tuning and sparse embeddings. Bit-exact with the
    /// eager update exactly when skipped parameters' slots are zero (true
    /// for parameters that have never received a gradient); a documented
    /// semantic deviation otherwise.
    pub skip_zero_gradients: bool,
}

impl OptimStoreConfig {
    /// The paper's configuration: die-level engines, co-located layout,
    /// streamed gradients.
    pub fn die_ndp() -> Self {
        OptimStoreConfig {
            tier: ExecutionTier::DieNdp,
            layout: LayoutPolicy::CoLocated,
            engine: EngineConfig::default(),
            grad_staging: GradStaging::Stream,
            grad_topk_permille: None,
            max_group_replays: 2,
            skip_zero_gradients: false,
        }
    }

    /// The weaker placement: one engine per channel in the controller.
    pub fn channel_ndp() -> Self {
        OptimStoreConfig {
            tier: ExecutionTier::ChannelNdp,
            ..Self::die_ndp()
        }
    }

    /// The host-NVMe offload baseline: one host updater streaming
    /// `update_bytes_per_sec` of state (a CPU update is host-DRAM-bound; a
    /// GPU update adds another PCIe crossing — model either by choosing
    /// the rate), gradients spilled to flash during backward and read back
    /// with the state. Host DRAM holds any update group, the schedule is
    /// group-granular, and an uncorrectable read aborts the step (no
    /// replay).
    pub fn host_nvme(update_bytes_per_sec: u64) -> Self {
        OptimStoreConfig {
            tier: ExecutionTier::HostNvme,
            engine: EngineConfig {
                bytes_per_sec: update_bytes_per_sec,
                buffer_bytes: u64::MAX,
                subgroup_pipelining: false,
            },
            grad_staging: GradStaging::StoreToFlash,
            max_group_replays: 0,
            ..Self::die_ndp()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.tier == ExecutionTier::HostNvme && self.grad_staging != GradStaging::StoreToFlash {
            return Err("the host tier reads spilled gradients back from flash".into());
        }
        if self.engine.bytes_per_sec == 0 {
            return Err("engine throughput must be positive".into());
        }
        if self.engine.buffer_bytes == 0 {
            return Err("engine buffer must be positive".into());
        }
        if let Some(k) = self.grad_topk_permille {
            if k == 0 || k > 1000 {
                return Err(format!("grad_topk_permille must be in 1..=1000, got {k}"));
            }
            if self.grad_staging == GradStaging::StoreToFlash {
                return Err(
                    "compressed gradients cannot be staged to flash (pages are dense)".into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        OptimStoreConfig::die_ndp().validate().unwrap();
        OptimStoreConfig::channel_ndp().validate().unwrap();
        // The presets arm bounded replay; 0 (replay off) is also legal.
        assert_eq!(OptimStoreConfig::die_ndp().max_group_replays, 2);
        let c = OptimStoreConfig {
            max_group_replays: 0,
            ..OptimStoreConfig::die_ndp()
        };
        c.validate().unwrap();
    }

    #[test]
    fn host_tier_needs_spilled_gradients() {
        let host = OptimStoreConfig::host_nvme(20_000_000_000);
        host.validate().unwrap();
        let streamed = OptimStoreConfig {
            grad_staging: GradStaging::Stream,
            ..host
        };
        assert!(streamed.validate().is_err());
        let mut c = OptimStoreConfig::die_ndp();
        c.tier = ExecutionTier::HostNvme;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_engine_rejected() {
        let mut c = OptimStoreConfig::die_ndp();
        c.engine.bytes_per_sec = 0;
        assert!(c.validate().is_err());
        let mut c = OptimStoreConfig::die_ndp();
        c.engine.buffer_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn compression_validation() {
        let mut c = OptimStoreConfig::die_ndp();
        c.grad_topk_permille = Some(100);
        c.validate().unwrap();
        c.grad_topk_permille = Some(0);
        assert!(c.validate().is_err());
        c.grad_topk_permille = Some(1001);
        assert!(c.validate().is_err());
        c.grad_topk_permille = Some(100);
        c.grad_staging = GradStaging::StoreToFlash;
        assert!(c.validate().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecutionTier::HostNvme.label(), "host-nvme");
        assert_eq!(ExecutionTier::ChannelNdp.label(), "channel-ndp");
        assert_eq!(ExecutionTier::DieNdp.label(), "die-ndp");
    }
}
