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
//!
//! The flash-backed baseline is a configuration of [`OptimStoreDevice`],
//! and the DRAM one runs the same [`optim_math`] kernels, so functional
//! results are bit-identical across systems — only time, traffic and
//! energy differ. The crate keeps only what the repository benchmark
//! calls; everything else drives [`OptimStoreDevice`] directly.
//!
//! [`OptimStoreDevice`]: optimstore_core::OptimStoreDevice

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod dram_offload;
mod host_nvme;

pub use dram_offload::{HostDramBaseline, HostDramConfig};
pub use host_nvme::{HostNvmeBaseline, HostNvmeConfig};
