//! Endurance accounting: the price of rewriting the full optimizer state
//! every training step.
//!
//! OptimStore turns the SSD into a write-intensive device: one Adam step
//! rewrites 14 bytes per parameter. This module converts measured device
//! wear into the lifetime projection of the reconstructed Figure 11 and
//! provides the closed-form erase-rate estimate it is validated against.

use nandsim::wear::LifetimeProjection;
use optim_math::state::StateLayoutSpec;
use serde::{Deserialize, Serialize};
use ssdsim::{wear_imbalance, Device, SsdConfig};

/// A device's endurance situation after a number of training steps.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnduranceReport {
    /// Training steps observed.
    pub steps: u64,
    /// Device-wide block erases per step (measured).
    pub erases_per_step: f64,
    /// Write amplification factor over the observation window.
    pub waf: f64,
    /// Max ÷ mean block erase count (1.0 = perfectly level).
    pub wear_imbalance: f64,
    /// Lifetime projection under the observed rate and imbalance.
    pub projection: LifetimeProjection,
}

impl EnduranceReport {
    /// Builds a report from a device after `steps` optimizer steps.
    pub fn measure(device: &Device, steps: u64) -> Self {
        let total_erases = device.total_erases();
        let erases_per_step = if steps == 0 {
            0.0
        } else {
            total_erases as f64 / steps as f64
        };
        let imbalance = wear_imbalance(device.erase_counts());
        let cfg = device.config();
        let blocks = cfg.total_dies() as u64 * cfg.nand.geometry.blocks_per_die();
        let projection = LifetimeProjection::project(
            blocks,
            cfg.nand.rated_pe_cycles(),
            erases_per_step,
            imbalance,
        );
        EnduranceReport {
            steps,
            erases_per_step,
            waf: device.stats().waf(),
            wear_imbalance: imbalance,
            projection,
        }
    }
}

/// Closed-form erase rate: an optimizer step programs
/// `params × state_write_bytes × waf` bytes, and in steady state every
/// programmed block eventually costs one erase.
pub fn analytic_erases_per_step(
    params: u64,
    spec: &StateLayoutSpec,
    ssd: &SsdConfig,
    waf: f64,
) -> f64 {
    let bytes = params as f64 * spec.state_write_bytes() as f64 * waf;
    bytes / ssd.nand.geometry.block_bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim_math::state::GradDtype;
    use optim_math::OptimizerKind;

    #[test]
    fn analytic_rate_matches_hand_computation() {
        let ssd = SsdConfig::base();
        let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
        let params = 13_000_000_000u64;
        let rate = analytic_erases_per_step(params, &spec, &ssd, 1.0);
        // 13e9 × 14 B = 182 GB per step; block = 1536 × 16 KiB = 24 MiB.
        let expect = 182e9 / (1536.0 * 16384.0);
        assert!((rate - expect).abs() / expect < 0.01, "{rate} vs {expect}");
    }

    #[test]
    fn waf_scales_the_rate() {
        let ssd = SsdConfig::base();
        let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
        let base = analytic_erases_per_step(1_000_000, &spec, &ssd, 1.0);
        let ampl = analytic_erases_per_step(1_000_000, &spec, &ssd, 1.5);
        assert!((ampl / base - 1.5).abs() < 1e-9);
    }

    #[test]
    fn measured_report_from_idle_device_is_clean() {
        let dev = Device::new(SsdConfig::tiny());
        let r = EnduranceReport::measure(&dev, 0);
        assert_eq!(r.erases_per_step, 0.0);
        assert_eq!(r.wear_imbalance, 1.0);
        assert!(r.projection.steps_to_exhaustion.is_infinite());
    }

    #[test]
    fn lifetime_is_finite_under_write_pressure() {
        use simkit::SimTime;
        use ssdsim::Lpn;
        let mut dev = Device::new(SsdConfig::tiny());
        // Hammer a small working set until GC erases blocks.
        let lpns = (dev.logical_pages() * 3) / 5;
        for round in 0..6u64 {
            for i in 0..lpns {
                let _ = round;
                dev.host_write_page(Lpn(i), None, SimTime::ZERO).unwrap();
            }
        }
        let r = EnduranceReport::measure(&dev, 6);
        assert!(r.erases_per_step > 0.0);
        assert!(r.projection.steps_to_exhaustion.is_finite());
        assert!(r.projection.steps_to_exhaustion_imbalanced <= r.projection.steps_to_exhaustion);
        assert!(r.projection.steps_to_exhaustion_imbalanced > 0.0);
    }
}
