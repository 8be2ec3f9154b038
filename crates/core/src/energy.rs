//! Activity-based energy model.
//!
//! HPCA papers derive system-level energy from per-component constants ×
//! activity counts; we do the same. The constants below are published-class
//! figures for 2020s hardware (NAND sense/program energy, ONFI and PCIe
//! per-bit link energy, LPDDR access energy), and every tier is charged
//! with the same ones. Absolute joules carry the usual factor-of-two
//! uncertainty — the *ratios* between tiers, which is what the energy
//! figure reports, are robust because the constants are shared.

use serde::{Deserialize, Serialize};

/// NAND array read, joules per byte sensed (~0.4 pJ/bit).
pub const ARRAY_READ_J_PER_BYTE: f64 = 3.2e-12;
/// NAND array program, joules per byte (~1.7 pJ/bit).
pub const ARRAY_PROGRAM_J_PER_BYTE: f64 = 13.6e-12;
/// Block erase, joules per block.
pub const ERASE_J_PER_BLOCK: f64 = 140e-6;
/// ONFI channel transfer, joules per byte (~2 pJ/bit).
pub const BUS_J_PER_BYTE: f64 = 16e-12;
/// PCIe transfer end-to-end, joules per byte (~6 pJ/bit).
pub const PCIE_J_PER_BYTE: f64 = 48e-12;
/// Controller DRAM access, joules per byte (~4 pJ/bit).
pub const DRAM_J_PER_BYTE: f64 = 32e-12;
/// Host-side staging (DRAM + cache hierarchy), joules per byte.
pub const HOST_J_PER_BYTE: f64 = 80e-12;
/// NDP engine compute, joules per state byte processed.
pub const NDP_COMPUTE_J_PER_BYTE: f64 = 1e-12;
/// Host (CPU/GPU) update compute, joules per state byte processed.
pub const HOST_COMPUTE_J_PER_BYTE: f64 = 5e-12;

/// Energy consumed, broken down by component (joules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// NAND array reads.
    pub array_read: f64,
    /// NAND array programs.
    pub array_program: f64,
    /// Block erases.
    pub erase: f64,
    /// ONFI channel transfers.
    pub bus: f64,
    /// PCIe transfers.
    pub pcie: f64,
    /// Controller DRAM traffic.
    pub dram: f64,
    /// Host staging traffic.
    pub host: f64,
    /// Update arithmetic (wherever it ran).
    pub compute: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total(&self) -> f64 {
        self.array_read
            + self.array_program
            + self.erase
            + self.bus
            + self.pcie
            + self.dram
            + self.host
            + self.compute
    }

    /// Joules per parameter given the step's parameter count.
    pub fn per_param(&self, params: u64) -> f64 {
        if params == 0 {
            return 0.0;
        }
        self.total() / params as f64
    }
}

/// Computes a breakdown from activity counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActivityCounts {
    /// Bytes sensed from NAND arrays.
    pub array_read_bytes: u64,
    /// Bytes programmed into NAND arrays.
    pub array_program_bytes: u64,
    /// Blocks erased.
    pub erase_blocks: u64,
    /// Bytes crossing ONFI buses.
    pub bus_bytes: u64,
    /// Bytes crossing PCIe (both directions summed).
    pub pcie_bytes: u64,
    /// Bytes through controller DRAM.
    pub dram_bytes: u64,
    /// Bytes staged through host memory.
    pub host_bytes: u64,
    /// State bytes processed by NDP engines.
    pub ndp_compute_bytes: u64,
    /// State bytes processed by the host.
    pub host_compute_bytes: u64,
}

impl ActivityCounts {
    /// Converts counts to joules under the constants above.
    pub fn energy(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            array_read: self.array_read_bytes as f64 * ARRAY_READ_J_PER_BYTE,
            array_program: self.array_program_bytes as f64 * ARRAY_PROGRAM_J_PER_BYTE,
            erase: self.erase_blocks as f64 * ERASE_J_PER_BLOCK,
            bus: self.bus_bytes as f64 * BUS_J_PER_BYTE,
            pcie: self.pcie_bytes as f64 * PCIE_J_PER_BYTE,
            dram: self.dram_bytes as f64 * DRAM_J_PER_BYTE,
            host: self.host_bytes as f64 * HOST_J_PER_BYTE,
            compute: self.ndp_compute_bytes as f64 * NDP_COMPUTE_J_PER_BYTE
                + self.host_compute_bytes as f64 * HOST_COMPUTE_J_PER_BYTE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let counts = ActivityCounts {
            array_read_bytes: 1 << 20,
            array_program_bytes: 1 << 20,
            erase_blocks: 2,
            bus_bytes: 1 << 20,
            pcie_bytes: 1 << 20,
            dram_bytes: 1 << 20,
            host_bytes: 0,
            ndp_compute_bytes: 1 << 20,
            host_compute_bytes: 0,
        };
        let e = counts.energy();
        let sum =
            e.array_read + e.array_program + e.erase + e.bus + e.pcie + e.dram + e.host + e.compute;
        assert!((e.total() - sum).abs() < 1e-15);
        assert!(e.erase > 0.0);
    }

    #[test]
    fn link_energy_hierarchy() {
        // Crossing PCIe must cost more per byte than staying on the bus,
        // which must cost more than staying in the array — the physical
        // fact the energy figure rests on.
        const {
            assert!(PCIE_J_PER_BYTE > BUS_J_PER_BYTE);
            assert!(BUS_J_PER_BYTE > ARRAY_READ_J_PER_BYTE);
            assert!(HOST_J_PER_BYTE > DRAM_J_PER_BYTE);
        }
    }

    #[test]
    fn per_param_normalization() {
        let e = EnergyBreakdown {
            pcie: 2.0,
            ..Default::default()
        };
        assert_eq!(e.per_param(4), 0.5);
        assert_eq!(e.per_param(0), 0.0);
    }
}
