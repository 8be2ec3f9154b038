//! Device configuration and the Table-2 presets.

use crate::address::{DieId, PpaCodec};
use crate::device::GC_HIGH_WATERMARK;
use nandsim::{AgingConfig, FaultConfig, NandConfig, NandGeometry};
use serde::{Deserialize, Serialize};

/// PCIe host-link generation/width presets (per-direction bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PciGen {
    /// Gen3 ×4 ≈ 3.5 GB/s per direction (effective).
    Gen3x4,
    /// Gen4 ×4 ≈ 7 GB/s per direction (effective).
    Gen4x4,
    /// Gen5 ×4 ≈ 14 GB/s per direction (effective).
    Gen5x4,
    /// An arbitrary per-direction bandwidth in bytes/second.
    Custom(u64),
}

impl PciGen {
    /// Effective per-direction bandwidth in bytes per second.
    pub fn bytes_per_sec(self) -> u64 {
        match self {
            PciGen::Gen3x4 => 3_500_000_000,
            PciGen::Gen4x4 => 7_000_000_000,
            PciGen::Gen5x4 => 14_000_000_000,
            PciGen::Custom(bps) => bps,
        }
    }
}

/// Block-allocation policy knobs. (GC's free-block watermarks are fixed
/// in the device, not configured.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcPolicy {
    /// Pick the new active block by lowest erase count (dynamic wear
    /// levelling) instead of last-freed order.
    pub wear_leveling: bool,
    /// Static wear levelling: when the erase-count spread within a die
    /// exceeds this threshold, the coldest data block is migrated so its
    /// low-wear cells re-enter circulation. `None` disables (dynamic
    /// levelling alone cannot touch blocks that hold never-rewritten data).
    pub static_wl_threshold: Option<u64>,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            wear_leveling: true,
            static_wl_threshold: None,
        }
    }
}

/// Crash-consistency (mapping-journal) configuration.
///
/// When armed, the controller stamps every data-page program with OOB
/// metadata (owner LPN, optimizer-step epoch, device-wide seqno), buffers a
/// journal entry per program in controller RAM, and flushes the buffer to
/// dedicated journal blocks every `flush_interval` data programs. After a
/// sudden power-off, [`crate::Device::mount`] replays the durable journal
/// pages and OOB-scans only the pages the journal does not cover — the
/// interval trades journal write amplification against mount scan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalConfig {
    /// Flush the RAM journal to flash after this many data-page programs.
    pub flush_interval: u32,
}

impl JournalConfig {
    /// Flush every `n` data-page programs.
    pub fn every(n: u32) -> Self {
        JournalConfig { flush_interval: n }
    }
}

/// Die-level RAIN parity configuration.
///
/// When armed, logical pages are grouped into fixed stripes of
/// `total_dies - 1` data pages plus one XOR parity page, so each stripe
/// (data + parity) spans every die once — the classic rotating layout.
/// Parity pages live at logical addresses beyond the host-visible space and
/// flow through the ordinary FTL / journal / GC machinery, so they are
/// crash-consistent for free. A read that exhausts its retries is
/// reconstructed from the stripe peers instead of surfacing
/// `UncorrectableRead`; only a second loss in the same stripe is fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RainConfig;

impl RainConfig {
    /// The rotating full-device layout.
    pub fn rotating() -> Self {
        RainConfig
    }
}

/// Background-scrub (patrol read) configuration.
///
/// The device sweeps stripes during the idle window at the start of every
/// optimizer step, verifying that each mapped page is still readable and
/// repairing/refreshing it before a single loss can become a fatal double
/// loss. `pages_per_tick` is the rate budget; still-readable pages whose
/// aged RBER passes half the ECC ceiling are rewritten (which resets their
/// read-disturb and retention clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Patrol reads performed per scrub tick (one tick per optimizer step).
    pub pages_per_tick: u32,
}

impl ScrubConfig {
    /// A patrol budget of `n` pages per optimizer step.
    pub fn per_step(n: u32) -> Self {
        ScrubConfig { pages_per_tick: n }
    }
}

/// Static configuration of a simulated SSD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Number of ONFI channels.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// NAND part used for every die.
    pub nand: NandConfig,
    /// Host link.
    pub pcie: PciGen,
    /// Controller DRAM port bandwidth in bytes/second (shared by the read
    /// and write paths of the external interface).
    pub dram_bytes_per_sec: u64,
    /// Fraction of physical capacity reserved as over-provisioning
    /// (not host-visible).
    pub overprovision: f64,
    /// GC / allocation policy.
    pub gc: GcPolicy,
    /// Seeded media-fault injection, armed on every die at build time.
    /// `None` (all presets) keeps the device bit- and timing-identical to
    /// a faultless build: no injector exists and no PRNG draw happens.
    pub fault: Option<FaultConfig>,
    /// Crash-consistency journaling. `None` (all presets) keeps the device
    /// bit- and timing-identical to a journal-free build: no OOB stamping,
    /// no journal traffic, and `mount` is unavailable.
    pub journal: Option<JournalConfig>,
    /// Media-aging model (read disturb + retention), armed on every die at
    /// build time. `None` (all presets) keeps the pure P/E RBER curve.
    pub aging: Option<AgingConfig>,
    /// Die-level RAIN parity. `None` (all presets) keeps the device bit-
    /// and timing-identical to a parity-free build: no parity pages exist
    /// and retry exhaustion surfaces `UncorrectableRead` directly.
    pub rain: Option<RainConfig>,
    /// Background patrol scrub. `None` (all presets) performs no patrol
    /// reads; `scrub_tick` becomes a no-op.
    pub scrub: Option<ScrubConfig>,
}

impl SsdConfig {
    /// Reconstructed Table-2 "base" device: 8 channels × 8 dies of 1 Tbit
    /// TLC ≈ 8 TB raw, PCIe Gen3 ×4 — the datacenter NVMe SSD of the era
    /// the paper evaluates (ZeRO-Infinity's testbeds were Gen3 systems).
    pub fn base() -> Self {
        SsdConfig {
            channels: 8,
            dies_per_channel: 8,
            nand: NandConfig::tlc_1tb_die(),
            pcie: PciGen::Gen3x4,
            dram_bytes_per_sec: 25_600_000_000, // LPDDR4X-3200 ×64 controller memory
            overprovision: 0.07,
            gc: GcPolicy::default(),
            fault: None,
            journal: None,
            aging: None,
            rain: None,
            scrub: None,
        }
    }

    /// "Big" device: 16 channels × 8 dies ≈ 16 TB raw.
    pub fn big() -> Self {
        SsdConfig {
            channels: 16,
            ..Self::base()
        }
    }

    /// "Small" device: 4 channels × 4 dies ≈ 2 TB raw.
    pub fn small() -> Self {
        SsdConfig {
            channels: 4,
            dies_per_channel: 4,
            ..Self::base()
        }
    }

    /// Tiny functional-test device: 2 channels × 2 dies of 16 MiB test
    /// dies (64 MiB raw) — small enough to verify every byte.
    pub fn tiny() -> Self {
        SsdConfig {
            channels: 2,
            dies_per_channel: 2,
            nand: NandConfig::tiny_test_die(),
            pcie: PciGen::Gen4x4,
            dram_bytes_per_sec: 12_800_000_000,
            overprovision: 0.25,
            ..Self::base()
        }
    }

    /// The same configuration with seeded fault injection armed.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The same configuration with crash-consistency journaling armed.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The same configuration with RAIN parity armed.
    pub fn with_rain(mut self, rain: RainConfig) -> Self {
        self.rain = Some(rain);
        self
    }

    /// The same configuration with background scrub armed.
    pub fn with_scrub(mut self, scrub: ScrubConfig) -> Self {
        self.scrub = Some(scrub);
        self
    }

    /// Total dies in the device.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Raw physical capacity in bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.total_dies() as u64 * self.nand.geometry.die_bytes()
    }

    /// Host-visible capacity in bytes (raw minus over-provisioning).
    pub fn logical_bytes(&self) -> u64 {
        (self.raw_bytes() as f64 * (1.0 - self.overprovision)) as u64
    }

    /// Host-visible capacity in logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_bytes() / self.nand.geometry.page_bytes as u64
    }

    /// Data pages per RAIN stripe, `None` when parity is off:
    /// `total_dies - 1` (minimum 1).
    pub fn stripe_data_width(&self) -> Option<u64> {
        self.rain.map(|_| (self.total_dies() as u64 - 1).max(1))
    }

    /// Pages the FTL must be able to map: the host-visible space plus (with
    /// RAIN armed) one internal parity page per stripe — the last stripe
    /// may be partial, its absent members XOR as zero pages. Parity LPNs
    /// start at `logical_pages()` and are never host-addressable.
    pub fn addressable_pages(&self) -> u64 {
        let logical = self.logical_pages();
        logical + self.stripe_data_width().map_or(0, |w| logical.div_ceil(w))
    }

    /// Aggregate ONFI bus bandwidth across channels, bytes/second.
    pub fn aggregate_bus_bytes_per_sec(&self) -> u64 {
        self.channels as u64 * self.nand.timing.bus_bytes_per_sec()
    }

    /// Aggregate array **read** bandwidth across all dies, bytes/second.
    pub fn aggregate_array_read_bytes_per_sec(&self) -> u64 {
        self.total_dies() as u64 * self.nand.array_read_bytes_per_sec()
    }

    /// Aggregate array **program** bandwidth across all dies, bytes/second.
    pub fn aggregate_array_program_bytes_per_sec(&self) -> u64 {
        self.total_dies() as u64 * self.nand.array_program_bytes_per_sec()
    }

    /// Sanity-checks the configuration, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.dies_per_channel == 0 {
            return Err("device needs at least one channel and one die".into());
        }
        if self.channels > DieId::MAX_CHANNELS {
            return Err(format!(
                "{} channels exceed the device limit ({})",
                self.channels,
                DieId::MAX_CHANNELS
            ));
        }
        if self.dies_per_channel > DieId::MAX_DIES_PER_CHANNEL {
            return Err(format!(
                "{} dies per channel exceed the device limit ({})",
                self.dies_per_channel,
                DieId::MAX_DIES_PER_CHANNEL
            ));
        }
        if self.total_dies() > 0xFFFF {
            return Err("die count exceeds the device limit (65535)".into());
        }
        let geo = &self.nand.geometry;
        let bits = PpaCodec::new(self.channels, self.dies_per_channel, geo).entry_bits();
        if bits > u32::BITS {
            return Err(format!(
                "a physical page address needs {bits} bits, past the 32-bit L2P entry"
            ));
        }
        // A reverse-map entry holds `lpn + 1` in 32 bits.
        if self.addressable_pages() > u64::from(u32::MAX) {
            return Err(format!(
                "{} addressable pages exceed the 32-bit reverse-map entry (at most {})",
                self.addressable_pages(),
                u32::MAX
            ));
        }
        let pages_per_block = self.nand.geometry.pages_per_block;
        if pages_per_block > NandGeometry::MAX_PAGES_PER_BLOCK {
            return Err(format!(
                "{pages_per_block} pages per block exceed the block-state limit ({})",
                NandGeometry::MAX_PAGES_PER_BLOCK
            ));
        }
        if !(0.0..0.9).contains(&self.overprovision) {
            return Err(format!(
                "overprovision must be in [0, 0.9), got {}",
                self.overprovision
            ));
        }
        if GC_HIGH_WATERMARK as u64 >= self.nand.geometry.blocks_per_die() {
            return Err("GC high watermark exceeds blocks per die".into());
        }
        if self.dram_bytes_per_sec == 0 {
            return Err("controller DRAM bandwidth must be positive".into());
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        if self.journal.is_some_and(|j| j.flush_interval == 0) {
            return Err("journal flush interval must be positive".into());
        }
        if let Some(aging) = &self.aging {
            aging.validate()?;
        }
        if let Some(w) = self.stripe_data_width() {
            if w >= self.logical_pages() {
                return Err(format!(
                    "RAIN stripe width {w} is not smaller than the logical space"
                ));
            }
        }
        if let Some(scrub) = &self.scrub {
            if scrub.pages_per_tick == 0 {
                return Err("scrub budget must be positive (omit scrub to disable)".into());
            }
            if self.rain.is_none() {
                return Err("scrub requires RAIN parity (nothing to repair without it)".into());
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
        for cfg in [
            SsdConfig::base(),
            SsdConfig::big(),
            SsdConfig::small(),
            SsdConfig::tiny(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn die_fields_of_the_packed_ppa_bound_the_geometry() {
        let geometry = |channels, dies_per_channel| SsdConfig {
            channels,
            dies_per_channel,
            ..SsdConfig::tiny()
        };
        geometry(DieId::MAX_CHANNELS, 1).validate().unwrap();
        geometry(1, DieId::MAX_DIES_PER_CHANNEL).validate().unwrap();
        let err = geometry(DieId::MAX_CHANNELS + 1, 1).validate().unwrap_err();
        assert!(err.contains("1025 channels"), "{err}");
        let err = geometry(1, DieId::MAX_DIES_PER_CHANNEL + 1)
            .validate()
            .unwrap_err();
        assert!(err.contains("1025 dies per channel"), "{err}");
    }

    /// Every device the experiments, perfbench and the integration tests
    /// build fits both 32-bit entries: the presets, F7's channel × die
    /// sweep over the base SSD (perfbench's figure cells are three of its
    /// points, the random-device proptest's 2–16 × 2–8 grid lies inside
    /// it), and the smaller-block variants. F7's 32 × 8 base SSD is the
    /// widest at exactly 32 bits; one bit wider is a config error.
    #[test]
    fn every_built_geometry_fits_the_32_bit_entries() {
        let base = |channels, dies_per_channel| SsdConfig {
            channels,
            dies_per_channel,
            ..SsdConfig::base()
        };
        let bits = |cfg: &SsdConfig| {
            PpaCodec::new(cfg.channels, cfg.dies_per_channel, &cfg.nand.geometry).entry_bits()
        };
        let mut built = vec![
            SsdConfig::base(),
            SsdConfig::big(),
            SsdConfig::small(),
            SsdConfig::tiny(),
        ];
        for channels in [2, 4, 8, 16, 32] {
            for dies in [2, 4, 8] {
                built.push(base(channels, dies));
            }
        }
        for blocks_per_plane in [12, 64] {
            let mut cfg = base(16, 8);
            cfg.nand.geometry.blocks_per_plane = blocks_per_plane;
            built.push(cfg);
        }
        for &cfg in &built {
            cfg.validate().unwrap();
            cfg.with_rain(RainConfig::rotating()).validate().unwrap();
        }
        let widest = built.iter().max_by_key(|cfg| bits(cfg)).unwrap();
        assert_eq!((widest.channels, widest.dies_per_channel), (32, 8));
        assert_eq!(bits(widest), 32);

        let err = base(64, 8).validate().unwrap_err();
        assert!(err.contains("33 bits, past the 32-bit L2P entry"), "{err}");
        let err = base(32, 16).validate().unwrap_err();
        assert!(err.contains("33 bits"), "{err}");
    }

    /// A device whose addresses fit the L2P entry but whose logical pages
    /// plus RAIN parity pages do not fit the reverse-map entry: 2 dies of
    /// 4 planes × 16 383 blocks × 32 Ki pages, no over-provisioning.
    #[test]
    fn addressable_pages_past_the_reverse_map_entry_are_a_config_error() {
        let mut cfg = SsdConfig {
            channels: 1,
            dies_per_channel: 2,
            overprovision: 0.0,
            ..SsdConfig::base()
        };
        cfg.nand.geometry = NandGeometry {
            planes: 4,
            blocks_per_plane: (1 << 14) - 1,
            pages_per_block: 1 << 15,
            page_bytes: 4096,
        };
        cfg.validate().unwrap();
        let err = cfg
            .with_rain(RainConfig::rotating())
            .validate()
            .unwrap_err();
        assert!(err.contains("exceed the 32-bit reverse-map entry"), "{err}");
    }

    #[test]
    fn block_state_bounds_pages_per_block() {
        let with_pages = |pages_per_block| {
            let mut cfg = SsdConfig::tiny();
            cfg.nand.geometry.pages_per_block = pages_per_block;
            cfg
        };
        with_pages(NandGeometry::MAX_PAGES_PER_BLOCK)
            .validate()
            .unwrap();
        let err = with_pages(NandGeometry::MAX_PAGES_PER_BLOCK + 1)
            .validate()
            .unwrap_err();
        assert!(err.contains("65536 pages per block"), "{err}");
    }

    #[test]
    fn base_capacity_is_8tb_class() {
        let cfg = SsdConfig::base();
        let tb = cfg.raw_bytes() as f64 / 1e12;
        assert!((7.0..10.0).contains(&tb), "raw = {tb} TB");
        assert!(cfg.logical_bytes() < cfg.raw_bytes());
    }

    #[test]
    fn bandwidth_hierarchy_of_base_device() {
        let cfg = SsdConfig::base();
        // The OptimStore premise: aggregate internal read bandwidth exceeds
        // the external link.
        assert!(
            cfg.aggregate_array_read_bytes_per_sec() > 2 * cfg.pcie.bytes_per_sec(),
            "internal read {} vs pcie {}",
            cfg.aggregate_array_read_bytes_per_sec(),
            cfg.pcie.bytes_per_sec()
        );
        // Aggregate bus bandwidth also exceeds PCIe.
        assert!(cfg.aggregate_bus_bytes_per_sec() > cfg.pcie.bytes_per_sec());
        // Program bandwidth is the internal floor.
        assert!(
            cfg.aggregate_array_program_bytes_per_sec() < cfg.aggregate_array_read_bytes_per_sec()
        );
    }

    #[test]
    fn pcie_presets_ordered() {
        assert!(PciGen::Gen3x4.bytes_per_sec() < PciGen::Gen4x4.bytes_per_sec());
        assert!(PciGen::Gen4x4.bytes_per_sec() < PciGen::Gen5x4.bytes_per_sec());
        assert_eq!(PciGen::Custom(42).bytes_per_sec(), 42);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = SsdConfig::base();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::base();
        cfg.overprovision = 0.95;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::base();
        cfg.dram_bytes_per_sec = 0;
        assert!(cfg.validate().is_err());

        let cfg = SsdConfig::base().with_fault(FaultConfig::uniform(0, 1.5));
        assert!(cfg.validate().is_err());
        let cfg = SsdConfig::base().with_fault(FaultConfig::uniform(7, 0.01));
        cfg.validate().unwrap();

        let cfg = SsdConfig::base().with_journal(JournalConfig::every(0));
        assert!(cfg.validate().is_err());
        let cfg = SsdConfig::base().with_journal(JournalConfig::every(64));
        cfg.validate().unwrap();
        assert_eq!(cfg.journal, Some(JournalConfig { flush_interval: 64 }));

        let cfg = SsdConfig {
            aging: Some(AgingConfig {
                read_disturb_per_read: -1.0,
                retention_per_sec: 0.0,
            }),
            ..SsdConfig::base()
        };
        assert!(cfg.validate().is_err());

        let cfg = SsdConfig::base().with_scrub(ScrubConfig::per_step(8));
        assert!(
            cfg.validate().is_err(),
            "scrub without rain must be rejected"
        );
        let cfg = SsdConfig::base()
            .with_rain(RainConfig::rotating())
            .with_scrub(ScrubConfig::per_step(0));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn stripe_geometry_accounting() {
        let plain = SsdConfig::tiny();
        assert_eq!(plain.stripe_data_width(), None);
        assert_eq!(plain.addressable_pages(), plain.logical_pages());

        let cfg = SsdConfig::tiny().with_rain(RainConfig::rotating());
        cfg.validate().unwrap();
        // 2×2 dies → auto width 3 (dies − 1).
        assert_eq!(cfg.stripe_data_width(), Some(3));
        let l = cfg.logical_pages();
        assert_eq!(cfg.addressable_pages(), l + l.div_ceil(3));
        // Host-visible capacity is unchanged by parity.
        assert_eq!(cfg.logical_pages(), plain.logical_pages());

        // Full scrub-enabled config validates.
        SsdConfig::tiny()
            .with_rain(RainConfig::rotating())
            .with_scrub(ScrubConfig::per_step(16))
            .validate()
            .unwrap();
    }

    #[test]
    fn logical_page_accounting() {
        let cfg = SsdConfig::tiny();
        let pages = cfg.logical_pages();
        assert!(pages > 0);
        assert_eq!(
            pages,
            cfg.logical_bytes() / cfg.nand.geometry.page_bytes as u64
        );
    }
}
