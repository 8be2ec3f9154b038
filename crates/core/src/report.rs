//! Per-step measurement report and the step accounting behind it.
//!
//! The executor brackets every tier's step — die-NDP, channel-NDP and the
//! host-NVMe baseline — with two [`CounterSnapshot`]s and builds its
//! [`StepReport`] with [`StepReport::from_counters`], so traffic and energy
//! are counted the same way on every side of the comparison.

use crate::config::ExecutionTier;
use crate::energy::{ActivityCounts, EnergyBreakdown};
use crate::layout::StateLayout;
use optim_math::state::StateLayoutSpec;
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime, Window};
use ssdsim::Device;

/// Bytes moved per resource during one optimizer step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficBytes {
    /// Host→device PCIe bytes.
    pub pcie_in: u64,
    /// Device→host PCIe bytes.
    pub pcie_out: u64,
    /// ONFI channel-bus bytes (all channels summed).
    pub bus: u64,
    /// Bytes sensed from NAND arrays.
    pub array_read: u64,
    /// Bytes programmed into NAND arrays.
    pub array_program: u64,
    /// Controller-DRAM bytes.
    pub dram: u64,
}

impl TrafficBytes {
    /// Total external (PCIe) bytes.
    pub fn pcie_total(&self) -> u64 {
        self.pcie_in + self.pcie_out
    }
}

/// The outcome of one optimizer step (or one baseline step).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StepReport {
    /// Tier label (`"die-ndp"`, `"channel-ndp"`, `"host-nvme"`, …).
    pub tier: &'static str,
    /// Parameters updated.
    pub params: u64,
    /// When the step was issued.
    pub start: SimTime,
    /// When the last write persisted.
    pub end: SimTime,
    /// `end − start`.
    pub duration: SimDuration,
    /// Per-resource traffic.
    pub traffic: TrafficBytes,
    /// Energy by component.
    pub energy: EnergyBreakdown,
    /// Blocks erased during the step (GC + reclamation).
    pub erases: u64,
    /// GC page copies during the step.
    pub gc_copies: u64,
    /// Update groups in the step.
    pub groups_total: u64,
    /// Groups skipped by the zero-gradient (lazy) path.
    pub groups_skipped: u64,
    /// Replay attempts performed after uncorrectable operand reads (each
    /// re-reads a group's operands and recomputes its update; see
    /// [`crate::config::OptimStoreConfig::max_group_replays`]).
    pub groups_replayed: u64,
    /// Patrol-scrub pages read in the idle window before this step
    /// (zero unless [`ssdsim::SsdConfig::scrub`] is armed).
    pub scrub_reads: u64,
    /// Latent losses the pre-step patrol repaired from parity.
    pub scrub_repairs: u64,
    /// Aged pages the pre-step patrol refreshed (die-local copyback)
    /// before their RBER reached the ECC ceiling.
    pub scrub_refreshes: u64,
    /// RAIN parity pages rebuilt during the step's commit.
    pub parity_writes: u64,
    /// Uncorrectable operand reads reconstructed from stripe peers during
    /// the step (these did *not* surface to the executor; contrast
    /// [`StepReport::groups_replayed`], which counts reads that did).
    pub parity_reconstructions: u64,
}

/// The outcome of a post-crash recovery: what the device mount replayed,
/// scanned, and discarded, plus the optional step replay that brings state
/// back in line with a run that never crashed.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Device-level mount accounting.
    pub mount: ssdsim::MountReport,
    /// Optimizer step the recovered state corresponds to (the last step
    /// whose commit record was durable at the crash).
    pub resumed_step: u64,
    /// The replayed step, when gradients were supplied to
    /// [`crate::exec::OptimStoreDevice::recover`].
    pub replayed: Option<StepReport>,
    /// When recovery (including any replay) finished.
    pub end: SimTime,
}

/// Cumulative device counters at one instant; the difference of two
/// bracketing snapshots ([`CounterSnapshot::since`]) is a step's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    traffic: TrafficBytes,
    erases: u64,
    gc_copies: u64,
    parity_writes: u64,
    parity_reconstructions: u64,
}

impl CounterSnapshot {
    /// Reads `device`'s cumulative link, bus, array and FTL counters.
    pub fn of(device: &Device) -> Self {
        let mut traffic = TrafficBytes {
            pcie_in: device.pcie_in().bytes_moved(),
            pcie_out: device.pcie_out().bytes_moved(),
            dram: device.dram().bytes_moved(),
            ..TrafficBytes::default()
        };
        let page = device.page_bytes() as u64;
        for ch in device.channels() {
            traffic.bus += ch.bus().bytes_moved();
            for d in ch.dies() {
                traffic.array_read += d.stats().reads.get() * page;
                traffic.array_program += d.stats().programs.get() * page;
            }
        }
        let stats = device.stats();
        CounterSnapshot {
            traffic,
            erases: stats.erases.get(),
            gc_copies: stats.gc_copies.get(),
            parity_writes: stats.parity_writes.get(),
            parity_reconstructions: stats.parity_reconstructions.get(),
        }
    }

    /// The activity between `before` and this snapshot.
    pub fn since(&self, before: &CounterSnapshot) -> CounterSnapshot {
        let (a, b) = (&self.traffic, &before.traffic);
        CounterSnapshot {
            traffic: TrafficBytes {
                pcie_in: a.pcie_in - b.pcie_in,
                pcie_out: a.pcie_out - b.pcie_out,
                bus: a.bus - b.bus,
                array_read: a.array_read - b.array_read,
                array_program: a.array_program - b.array_program,
                dram: a.dram - b.dram,
            },
            erases: self.erases - before.erases,
            gc_copies: self.gc_copies - before.gc_copies,
            parity_writes: self.parity_writes - before.parity_writes,
            parity_reconstructions: self.parity_reconstructions - before.parity_reconstructions,
        }
    }
}

impl StepReport {
    /// The report of a step of `layout` on `tier` over `window`, during
    /// which the device did `delta` ([`CounterSnapshot::since`]). Energy is
    /// `delta` under the [`crate::energy`] constants, with the state update
    /// charged to the host (which also stages every PCIe byte) on
    /// [`ExecutionTier::HostNvme`] and to the NDP engines otherwise.
    /// Executor-side counts — skipped and replayed groups, scrub — are zero
    /// for the caller to fill in.
    pub fn from_counters(
        tier: ExecutionTier,
        layout: &StateLayout,
        spec: &StateLayoutSpec,
        window: Window,
        delta: CounterSnapshot,
    ) -> StepReport {
        let traffic = delta.traffic;
        let state_bytes = layout.params() * spec.state_write_bytes();
        let on_host = tier == ExecutionTier::HostNvme;
        let counts = ActivityCounts {
            array_read_bytes: traffic.array_read,
            array_program_bytes: traffic.array_program,
            erase_blocks: delta.erases,
            bus_bytes: traffic.bus,
            pcie_bytes: traffic.pcie_total(),
            dram_bytes: traffic.dram,
            host_bytes: if on_host { traffic.pcie_total() } else { 0 },
            ndp_compute_bytes: if on_host { 0 } else { state_bytes },
            host_compute_bytes: if on_host { state_bytes } else { 0 },
        };
        StepReport {
            tier: tier.label(),
            params: layout.params(),
            start: window.start,
            end: window.end,
            duration: window.duration(),
            traffic,
            energy: counts.energy(),
            erases: delta.erases,
            gc_copies: delta.gc_copies,
            groups_total: layout.num_groups(),
            groups_skipped: 0,
            groups_replayed: 0,
            scrub_reads: 0,
            scrub_repairs: 0,
            scrub_refreshes: 0,
            parity_writes: delta.parity_writes,
            parity_reconstructions: delta.parity_reconstructions,
        }
    }

    /// Parameters updated per second of simulated time.
    pub fn params_per_sec(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.params as f64 / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StepReport {
        /// Effective update bandwidth: state bytes (read+written) per second.
        fn state_bytes_per_sec(&self) -> f64 {
            let s = self.duration.as_secs_f64();
            if s == 0.0 {
                return 0.0;
            }
            (self.traffic.array_read + self.traffic.array_program) as f64 / s
        }

        /// Speedup of this step relative to `baseline`.
        fn speedup_over(&self, baseline: &StepReport) -> f64 {
            let mine = self.duration.as_secs_f64();
            if mine == 0.0 {
                return f64::INFINITY;
            }
            baseline.duration.as_secs_f64() / mine
        }
    }

    fn report(ms: u64) -> StepReport {
        StepReport {
            tier: "die-ndp",
            params: 1_000_000,
            start: SimTime::ZERO,
            end: SimTime::from_ms(ms),
            duration: SimDuration::from_ms(ms),
            traffic: TrafficBytes {
                pcie_in: 10,
                pcie_out: 20,
                bus: 0,
                array_read: 1000,
                array_program: 1000,
                dram: 0,
            },
            energy: EnergyBreakdown::default(),
            erases: 0,
            gc_copies: 0,
            groups_total: 10,
            groups_skipped: 0,
            groups_replayed: 0,
            scrub_reads: 0,
            scrub_repairs: 0,
            scrub_refreshes: 0,
            parity_writes: 0,
            parity_reconstructions: 0,
        }
    }

    #[test]
    fn rates() {
        let r = report(100);
        assert!((r.params_per_sec() - 1e7).abs() < 1.0);
        assert!((r.state_bytes_per_sec() - 20_000.0).abs() < 1.0);
        assert_eq!(r.traffic.pcie_total(), 30);
    }

    #[test]
    fn speedup() {
        let fast = report(100);
        let slow = report(400);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_is_guarded() {
        let mut r = report(0);
        r.duration = SimDuration::ZERO;
        assert_eq!(r.params_per_sec(), 0.0);
        assert_eq!(r.state_bytes_per_sec(), 0.0);
    }
}
