//! NAND operation timing and full die configuration presets.
//!
//! Latency values follow the published range for 2020s-era 3D TLC NAND
//! (e.g. tR ≈ 40–90 µs depending on page type, tPROG ≈ 350–700 µs,
//! tBERS ≈ 3–5 ms, ONFI NV-DDR3 1200 MT/s). Exact vendor numbers are
//! proprietary; the experiments only depend on the *hierarchy* these values
//! induce (array program ≪ array read ≪ bus ≪ PCIe per-die share), which is
//! robust across the published range.

use crate::geometry::NandGeometry;
use crate::wear::RATED_PE_CYCLES;
use serde::{Deserialize, Serialize};
use simkit::SimDuration;

/// Cell-level role of a page within a multi-level-cell wordline.
///
/// TLC stores three logical pages per wordline; the lower page resolves with
/// one sense, the middle with two, the upper with four — hence the read
/// latency spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageType {
    /// Fastest-to-read page of a wordline (single sense level).
    Lower,
    /// Middle page of a wordline.
    Middle,
    /// Slowest-to-read page of a wordline.
    Upper,
}

/// Array and interface timing parameters of a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandTiming {
    /// Array read latency (tR) for a lower page.
    pub t_read_lower: SimDuration,
    /// Array read latency for a middle page.
    pub t_read_middle: SimDuration,
    /// Array read latency for an upper page.
    pub t_read_upper: SimDuration,
    /// Array program latency (tPROG), one-shot per page.
    pub t_program: SimDuration,
    /// Block erase latency (tBERS).
    pub t_erase: SimDuration,
    /// Fixed command/address cycle overhead per operation on the bus.
    pub t_cmd_overhead: SimDuration,
    /// ONFI interface speed in megatransfers per second (1 byte/transfer).
    pub io_mts: u32,
}

impl NandTiming {
    /// Mainstream 3D TLC timing.
    pub fn tlc() -> Self {
        NandTiming {
            t_read_lower: SimDuration::from_us(40),
            t_read_middle: SimDuration::from_us(60),
            t_read_upper: SimDuration::from_us(85),
            t_program: SimDuration::from_us(350),
            t_erase: SimDuration::from_ms(3),
            t_cmd_overhead: SimDuration::from_ns(400),
            io_mts: 1200,
        }
    }

    /// Array read latency for the given page type.
    pub fn t_read(&self, ty: PageType) -> SimDuration {
        match ty {
            PageType::Lower => self.t_read_lower,
            PageType::Middle => self.t_read_middle,
            PageType::Upper => self.t_read_upper,
        }
    }

    /// Average array read latency over a TLC block, whose lower, middle
    /// and upper pages are equally frequent.
    pub fn t_read_avg(&self) -> SimDuration {
        (self.t_read_lower + self.t_read_middle + self.t_read_upper) / 3
    }

    /// ONFI bus bandwidth in bytes per second.
    pub fn bus_bytes_per_sec(&self) -> u64 {
        self.io_mts as u64 * 1_000_000
    }
}

/// Complete static description of one 3D TLC die: geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandConfig {
    /// Physical layout.
    pub geometry: NandGeometry,
    /// Operation latencies and interface speed.
    pub timing: NandTiming,
}

impl NandConfig {
    /// A ~1 Tbit (128 GiB) 3D TLC die: 4 planes, 16 KiB pages — the default
    /// building block of the experiments' SSDs.
    pub fn tlc_1tb_die() -> Self {
        NandConfig {
            geometry: NandGeometry {
                planes: 4,
                blocks_per_plane: 1364,
                pages_per_block: 1536,
                page_bytes: 16 * 1024,
            },
            timing: NandTiming::tlc(),
        }
    }

    /// A tiny die for functional tests: 2 planes, 64 blocks/plane,
    /// 32 pages/block, 4 KiB pages (16 MiB total).
    pub fn tiny_test_die() -> Self {
        NandConfig {
            geometry: NandGeometry {
                planes: 2,
                blocks_per_plane: 64,
                pages_per_block: 32,
                page_bytes: 4 * 1024,
            },
            timing: NandTiming::tlc(),
        }
    }

    /// The page type of page index `page` within any block of this die:
    /// TLC wordlines hold a lower, a middle and an upper page in turn.
    pub fn page_type(&self, page: u32) -> PageType {
        match page % 3 {
            0 => PageType::Lower,
            1 => PageType::Middle,
            _ => PageType::Upper,
        }
    }

    /// Rated program/erase cycles before a block is retired
    /// ([`crate::wear::RATED_PE_CYCLES`]).
    pub fn rated_pe_cycles(&self) -> u64 {
        RATED_PE_CYCLES
    }

    /// Peak array **read** bandwidth of the whole die with all planes busy,
    /// in bytes per second (page_bytes / avg tR, × planes).
    pub fn array_read_bytes_per_sec(&self) -> u64 {
        let t = self.timing.t_read_avg().as_secs_f64();
        ((self.geometry.page_bytes as f64 / t) * self.geometry.planes as f64) as u64
    }

    /// Peak array **program** bandwidth of the whole die with all planes
    /// busy, in bytes per second.
    pub fn array_program_bytes_per_sec(&self) -> u64 {
        let t = self.timing.t_program.as_secs_f64();
        ((self.geometry.page_bytes as f64 / t) * self.geometry.planes as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlc_page_type_pattern() {
        let c = NandConfig::tiny_test_die();
        assert_eq!(c.page_type(0), PageType::Lower);
        assert_eq!(c.page_type(1), PageType::Middle);
        assert_eq!(c.page_type(2), PageType::Upper);
        assert_eq!(c.page_type(3), PageType::Lower);
    }

    #[test]
    fn read_latency_ordering() {
        let t = NandTiming::tlc();
        assert!(t.t_read(PageType::Lower) < t.t_read(PageType::Middle));
        assert!(t.t_read(PageType::Middle) < t.t_read(PageType::Upper));
        let avg = t.t_read_avg();
        assert!(avg > t.t_read_lower && avg < t.t_read_upper);
    }

    #[test]
    fn bus_bandwidth_from_mts() {
        let t = NandTiming::tlc();
        assert_eq!(t.bus_bytes_per_sec(), 1_200_000_000);
    }

    #[test]
    fn big_die_capacity_is_plausible() {
        let c = NandConfig::tlc_1tb_die();
        let gib = c.geometry.die_bytes() as f64 / (1u64 << 30) as f64;
        // ~128 GiB die.
        assert!((120.0..140.0).contains(&gib), "die is {gib} GiB");
    }

    #[test]
    fn array_bandwidth_hierarchy() {
        let c = NandConfig::tlc_1tb_die();
        // Reads are much faster than programs at the array.
        assert!(c.array_read_bytes_per_sec() > 3 * c.array_program_bytes_per_sec());
        // A single die's array read rate is below the channel bus rate
        // (several dies share a channel productively).
        assert!(c.array_read_bytes_per_sec() < c.timing.bus_bytes_per_sec());
    }
}
