//! # ssdsim — a full SSD simulator
//!
//! Composes [`nandsim`] dies into a complete NVMe-class device:
//!
//! ```text
//!  host ──PCIe──► controller (DRAM, FTL) ──ONFI ch0──► die, die, …
//!                                        ──ONFI ch1──► die, die, …
//!                                        …
//! ```
//!
//! * [`SsdConfig`] — channels × dies, NAND part, PCIe generation,
//!   controller DRAM, over-provisioning, GC and wear-levelling policy.
//!   Presets match the reconstructed Table 2.
//! * [`Device`] — the device itself. Host-side page reads/writes with full
//!   timing (PCIe → DRAM → channel bus → array), a page-level FTL with
//!   out-of-place writes, greedy garbage collection, and wear-aware block
//!   allocation. Exposes *internal* operations (array-only reads, die-local
//!   programs) that the OptimStore engine uses to bypass the external
//!   interface — the whole point of in-storage processing.
//! * [`DeviceStats`] — host, NDP, GC and recovery counters and write
//!   amplification; with [`wear_imbalance`] over [`Device::erase_counts`]
//!   and each link's busy time, everything the evaluation section reports.
//! * **Fault recovery** — when [`SsdConfig::fault`] arms seeded injection
//!   (see [`nandsim::FaultConfig`]), the device recovers: failed programs
//!   retire the block and re-home the page (rescuing the block's valid
//!   pages), failed erases retire the GC victim, and uncorrectable reads
//!   are retried with backoff (four retries) before surfacing a typed
//!   [`SsdError::UncorrectableRead`].
//! * **Die-level parity (RAIN) + background scrub** — [`SsdConfig::rain`]
//!   stripes user pages across dies with one rotating XOR parity page per
//!   stripe, rebuilt at every [`Device::commit_epoch`]; a read that stays
//!   uncorrectable after every retry is reconstructed from its stripe
//!   peers, re-homed, and remapped, so only a double loss per stripe
//!   surfaces. [`SsdConfig::scrub`] adds a patrol sweep
//!   ([`Device::scrub_tick`]) that finds and repairs latent losses — and
//!   refreshes pages whose aged RBER (see [`nandsim::AgingConfig`])
//!   approaches the ECC ceiling — before a second loss lands
//!   (reconstructed Figure 26).
//!
//! ## Example
//!
//! ```
//! use ssdsim::{Device, SsdConfig, Lpn};
//! use simkit::SimTime;
//!
//! let mut dev = Device::new_functional(SsdConfig::tiny());
//! let page = vec![7u8; dev.config().nand.geometry.page_bytes as usize];
//! let w = dev.host_write_page(Lpn(0), Some(&page), SimTime::ZERO).unwrap();
//! let (r, data) = dev.host_read_page(Lpn(0), w.end).unwrap();
//! assert_eq!(&data.unwrap()[..], &page[..]);
//! assert!(r.end > w.end);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod address;
mod channel;
mod config;
mod device;
mod error;
mod stats;

pub mod ftl;
pub mod trace;

pub use address::{DieId, Lpn, Ppa, PpaCodec};
pub use channel::Channel;
pub use config::{GcPolicy, JournalConfig, PciGen, RainConfig, ScrubConfig, SsdConfig};
pub use device::{Device, MountReport, ReadPath, ScrubReport};
pub use error::SsdError;
pub use stats::{wear_imbalance, DeviceStats};

// Fault-injection configuration and counters, re-exported so clients that
// arm [`SsdConfig::fault`] or [`Device::arm_power_loss`] need not depend on
// `nandsim` directly.
pub use nandsim::{AgingConfig, FaultConfig, FaultStats, PageOob, PowerLossConfig};
