//! Analytic steady-state bandwidth audit.
//!
//! The optimizer step is a bandwidth problem: each tier moves a fixed
//! number of bytes per parameter across each shared resource, so its
//! steady-state rate is `min over resources (bandwidth / bytes-per-param)`.
//! This module computes that closed form. It serves two purposes:
//!
//! 1. **Validation** — the event-driven simulation must agree with the
//!    audit within a small tolerance (an integration test enforces it);
//!    disagreement means a scheduling bug, not a modelling choice.
//! 2. **Instant full-scale numbers** — the audit is O(1), so experiments
//!    can report 175 B-parameter predictions without simulating half a
//!    billion page operations.
//!
//! The audit covers the co-located layout (the paper's design point);
//! the striped-layout ablation is simulation-only.

use crate::config::{ExecutionTier, GradStaging, OptimStoreConfig};
use optim_math::state::StateLayoutSpec;
use serde::{Deserialize, Serialize};
use simkit::SimDuration;
use ssdsim::SsdConfig;

/// Bytes each parameter moves across each resource, per optimizer step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BytesPerParam {
    /// Host→device PCIe.
    pub pcie_in: f64,
    /// Device→host PCIe.
    pub pcie_out: f64,
    /// Controller DRAM port (both directions summed).
    pub dram: f64,
    /// ONFI channel buses (all channels summed — the cap is aggregate).
    pub bus: f64,
    /// NAND array reads.
    pub array_read: f64,
    /// NAND array programs.
    pub array_program: f64,
    /// Update-engine state bytes (NDP engines or the host updater).
    pub compute: f64,
}

/// The audit's verdict for one tier on one device.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AuditReport {
    /// Tier label.
    pub tier: &'static str,
    /// Per-parameter traffic.
    pub bytes_per_param: BytesPerParam,
    /// Name of the limiting resource.
    pub bottleneck: &'static str,
    /// Steady-state parameters per second.
    pub params_per_sec: f64,
}

impl AuditReport {
    /// Predicted step time for a model of `params` parameters.
    pub fn step_time(&self, params: u64) -> SimDuration {
        SimDuration::from_secs_f64(params as f64 / self.params_per_sec)
    }
}

/// Audits one tier of `core` on `ssd`.
pub fn audit(ssd: &SsdConfig, core: &OptimStoreConfig, spec: &StateLayoutSpec) -> AuditReport {
    let read = spec.state_read_bytes() as f64; // 12 for Adam
    let write = spec.state_write_bytes() as f64; // 14
    let grad = spec.grad_bytes() as f64; // 2
    let staged_extra = match core.grad_staging {
        GradStaging::Stream => 0.0,
        GradStaging::StoreToFlash => grad, // programmed once, read back once
    };

    let (bpp, engines) = match core.tier {
        ExecutionTier::DieNdp => (
            BytesPerParam {
                pcie_in: grad,
                pcie_out: 0.0,
                dram: 2.0 * grad, // store-and-forward: DRAM write + read
                bus: grad,
                array_read: read + staged_extra,
                array_program: write + staged_extra,
                compute: read + write + grad,
            },
            ssd.total_dies(),
        ),
        ExecutionTier::ChannelNdp => (
            BytesPerParam {
                pcie_in: grad,
                pcie_out: 0.0,
                dram: 2.0 * grad, // store-and-forward: DRAM write + read
                bus: grad + read + write + 2.0 * staged_extra,
                array_read: read + staged_extra,
                array_program: write + staged_extra,
                compute: read + write + grad,
            },
            ssd.channels,
        ),
        ExecutionTier::HostNvme => {
            // Gradients were spilled to flash during backward
            // (ZeRO-Infinity); the step reads state+grad up and writes
            // state+w16 down, through one host updater.
            let up = read + grad;
            let down = write;
            (
                BytesPerParam {
                    pcie_in: down,
                    pcie_out: up,
                    dram: 2.0 * (up + down), // store-and-forward both ways
                    bus: up + down,
                    array_read: up,
                    array_program: down,
                    compute: read + write + grad,
                },
                1,
            )
        }
    };
    let compute_cap = engines as f64 * core.engine.bytes_per_sec as f64;
    bottleneck(core.tier.label(), ssd, bpp, compute_cap)
}

fn bottleneck(
    tier: &'static str,
    ssd: &SsdConfig,
    bpp: BytesPerParam,
    compute_cap: f64,
) -> AuditReport {
    let caps: [(&'static str, f64, f64); 7] = [
        ("pcie-in", bpp.pcie_in, ssd.pcie.bytes_per_sec() as f64),
        ("pcie-out", bpp.pcie_out, ssd.pcie.bytes_per_sec() as f64),
        ("ctrl-dram", bpp.dram, ssd.dram_bytes_per_sec as f64),
        (
            "onfi-bus",
            bpp.bus,
            ssd.aggregate_bus_bytes_per_sec() as f64,
        ),
        (
            "array-read",
            bpp.array_read,
            ssd.aggregate_array_read_bytes_per_sec() as f64,
        ),
        (
            "array-program",
            bpp.array_program,
            ssd.aggregate_array_program_bytes_per_sec() as f64,
        ),
        ("compute", bpp.compute, compute_cap),
    ];
    let mut best: (&'static str, f64) = ("none", f64::INFINITY);
    for (name, bytes, cap) in caps {
        if bytes <= 0.0 {
            continue;
        }
        let rate = cap / bytes;
        if rate < best.1 {
            best = (name, rate);
        }
    }
    // Reads and programs share the *same* planes, so the array's true cap
    // is the serialized combination, which is tighter than either alone.
    let combined_secs_per_param = bpp.array_read / ssd.aggregate_array_read_bytes_per_sec() as f64
        + bpp.array_program / ssd.aggregate_array_program_bytes_per_sec() as f64;
    if combined_secs_per_param > 0.0 {
        let rate = 1.0 / combined_secs_per_param;
        if rate < best.1 {
            best = ("array-combined", rate);
        }
    }
    AuditReport {
        tier,
        bytes_per_param: bpp,
        bottleneck: best.0,
        params_per_sec: best.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim_math::state::GradDtype;
    use optim_math::OptimizerKind;

    fn spec() -> StateLayoutSpec {
        StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16)
    }

    /// Host updater at 20 GB/s of state (dual-channel DDR4-class streaming
    /// read-modify-write).
    const HOST_RATE: u64 = 20_000_000_000;

    fn host() -> OptimStoreConfig {
        OptimStoreConfig::host_nvme(HOST_RATE)
    }

    #[test]
    fn die_ndp_beats_channel_beats_host_on_base_device() {
        let ssd = SsdConfig::base();
        let die = audit(&ssd, &OptimStoreConfig::die_ndp(), &spec());
        let ch = audit(&ssd, &OptimStoreConfig::channel_ndp(), &spec());
        let host = audit(&ssd, &host(), &spec());
        assert!(
            die.params_per_sec > ch.params_per_sec,
            "die {} vs channel {}",
            die.params_per_sec,
            ch.params_per_sec
        );
        assert!(ch.params_per_sec > host.params_per_sec);
        // The paper's headline: die-level NDP is severalfold faster than
        // host offload.
        let speedup = die.params_per_sec / host.params_per_sec;
        assert!(
            (1.5..20.0).contains(&speedup),
            "die-ndp speedup over host = {speedup}"
        );
    }

    #[test]
    fn die_ndp_is_array_bound() {
        // The limiting resource for die-level NDP is the NAND array itself
        // (program-dominated, with reads sharing the planes) — exactly the
        // paper's claim that NDP unlocks all the bandwidth there is.
        let ssd = SsdConfig::base();
        let die = audit(&ssd, &OptimStoreConfig::die_ndp(), &spec());
        assert_eq!(die.bottleneck, "array-combined");
    }

    #[test]
    fn host_is_external_interface_bound() {
        let ssd = SsdConfig::base();
        let host = audit(&ssd, &host(), &spec());
        assert!(
            host.bottleneck == "onfi-bus"
                || host.bottleneck.starts_with("pcie")
                || host.bottleneck == "ctrl-dram",
            "host bottleneck = {}",
            host.bottleneck
        );
    }

    #[test]
    fn ndp_advantage_grows_with_weaker_pcie() {
        let mut gen3 = SsdConfig::base();
        gen3.pcie = ssdsim::PciGen::Gen3x4;
        let mut gen5 = SsdConfig::base();
        gen5.pcie = ssdsim::PciGen::Gen5x4;
        let s = spec();
        let sp3 = audit(&gen3, &OptimStoreConfig::die_ndp(), &s).params_per_sec
            / audit(&gen3, &host(), &s).params_per_sec;
        let sp5 = audit(&gen5, &OptimStoreConfig::die_ndp(), &s).params_per_sec
            / audit(&gen5, &host(), &s).params_per_sec;
        assert!(sp3 > sp5, "gen3 speedup {sp3} vs gen5 {sp5}");
    }

    #[test]
    fn die_ndp_scales_with_dies_host_does_not() {
        let small = SsdConfig::small(); // 16 dies
        let big = SsdConfig::big(); // 128 dies
        let s = spec();
        let die_ratio = audit(&big, &OptimStoreConfig::die_ndp(), &s).params_per_sec
            / audit(&small, &OptimStoreConfig::die_ndp(), &s).params_per_sec;
        let host_ratio =
            audit(&big, &host(), &s).params_per_sec / audit(&small, &host(), &s).params_per_sec;
        assert!(die_ratio > 4.0, "die scaling {die_ratio}");
        assert!(host_ratio < die_ratio, "host scaling {host_ratio}");
    }

    #[test]
    fn grad_staging_costs_array_bandwidth() {
        let ssd = SsdConfig::base();
        let stream = audit(&ssd, &OptimStoreConfig::die_ndp(), &spec());
        let stored = audit(
            &ssd,
            &OptimStoreConfig {
                grad_staging: GradStaging::StoreToFlash,
                ..OptimStoreConfig::die_ndp()
            },
            &spec(),
        );
        assert!(stored.params_per_sec < stream.params_per_sec);
    }

    #[test]
    fn step_time_scales_linearly() {
        let ssd = SsdConfig::base();
        let a = audit(&ssd, &OptimStoreConfig::die_ndp(), &spec());
        let t1 = a.step_time(1_000_000_000).as_secs_f64();
        let t2 = a.step_time(2_000_000_000).as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn host_arm_keeps_the_baseline_audit() {
        // Values of the host-offload audit before it became a tier arm.
        let base = audit(&SsdConfig::base(), &host(), &spec());
        assert_eq!(base.tier, "host-nvme");
        assert_eq!(base.bottleneck, "pcie-in");
        assert_eq!(base.params_per_sec, 250_000_000.0);
        let small = audit(&SsdConfig::small(), &host(), &spec());
        assert_eq!(small.bottleneck, "onfi-bus");
        assert_eq!(small.params_per_sec, 171_428_571.428_571_43);
        let tiny = audit(&SsdConfig::tiny(), &host(), &spec());
        assert_eq!(tiny.bottleneck, "array-combined");
        assert_eq!(tiny.params_per_sec, 5_685_607.757_791_699);
    }

    #[test]
    fn tiny_engine_becomes_the_bottleneck() {
        let ssd = SsdConfig::base();
        let mut cfg = OptimStoreConfig::die_ndp();
        cfg.engine.bytes_per_sec = 1_000_000; // 1 MB/s per engine
        let a = audit(&ssd, &cfg, &spec());
        assert_eq!(a.bottleneck, "compute");
    }
}
