//! # baselines — the systems OptimStore is compared against
//!
//! * [`HostNvmeBaseline`] — ZeRO-Infinity-style NVMe offload: optimizer
//!   state lives on the same simulated SSD, but every step streams it to
//!   the host over PCIe, updates it there, and streams it back. This is the
//!   paper's primary comparison point; its step is the host tier of core's
//!   one executor.
//! * [`HostDramBaseline`] — optimizer state held in host DRAM and updated
//!   by the CPU: no flash in the loop. An upper bound on host-side update
//!   speed (and a lower bound on capacity: it only exists when state fits
//!   in DRAM, which is exactly what large models violate).
//! * [`naive_striped_ndp`] — die-level NDP *without* OptimStore's
//!   co-located layout (each tensor striped independently): the layout
//!   ablation.
//!
//! The two flash-backed baselines are configurations of
//! [`OptimStoreDevice`], and the DRAM one runs the same [`optim_math`]
//! kernels, so functional results are bit-identical across systems — only
//! time, traffic and energy differ.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod dram_offload;
mod host_nvme;

pub use dram_offload::{HostDramBaseline, HostDramConfig};
pub use host_nvme::{HostNvmeBaseline, HostNvmeConfig};

use optim_math::state::StateLayoutSpec;
use optim_math::Optimizer;
use optimstore_core::{LayoutPolicy, OptimStoreConfig, OptimStoreDevice};
use ssdsim::SsdConfig;

/// Builds a die-level NDP device with the *naive* tensor-striped layout —
/// identical hardware to [`OptimStoreConfig::die_ndp`], wrong data
/// placement. Used by the layout-ablation experiment.
pub fn naive_striped_ndp(
    ssd: SsdConfig,
    params: u64,
    optimizer: Box<dyn Optimizer>,
    spec: StateLayoutSpec,
    functional: bool,
) -> Result<OptimStoreDevice, optimstore_core::CoreError> {
    let cfg = OptimStoreConfig {
        layout: LayoutPolicy::TensorStriped,
        ..OptimStoreConfig::die_ndp()
    };
    if functional {
        OptimStoreDevice::new_functional(ssd, cfg, params, optimizer, spec)
    } else {
        OptimStoreDevice::new(ssd, cfg, params, optimizer, spec)
    }
}
