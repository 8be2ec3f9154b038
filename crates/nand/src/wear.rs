//! Analytic wear and reliability model.
//!
//! The endurance experiment (reconstructed Figure 11) needs two things:
//! a raw-bit-error-rate curve as a function of program/erase cycles, and a
//! projection from erase-rate to device lifetime. Both follow the standard
//! empirical forms used in flash-reliability literature: RBER grows
//! super-linearly with P/E cycles, and a block is usable while the RBER
//! stays under the ECC correction ceiling.

use serde::{Deserialize, Serialize};

/// Rated program/erase cycles of a 3D TLC block: an erase at this count
/// retires the block.
pub const RATED_PE_CYCLES: u64 = 3_000;

/// Empirical raw-bit-error-rate model: `rber(pe) = a + b * pe^k`.
///
/// Defaults follow published TLC characterization (RBER ~1e-8 fresh,
/// ~1e-4 near rated endurance, exponent ≈ 2.4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RberModel {
    /// Fresh-block error floor.
    pub a: f64,
    /// Growth coefficient.
    pub b: f64,
    /// Growth exponent.
    pub k: f64,
    /// RBER the ECC can still correct (correction ceiling).
    pub ecc_ceiling: f64,
}

impl RberModel {
    /// The TLC model, calibrated so the ECC ceiling is reached near
    /// [`RATED_PE_CYCLES`].
    pub fn tlc() -> Self {
        let rated = RATED_PE_CYCLES as f64;
        let ceiling = 1e-3;
        let floor = 1e-8;
        let k = 2.4;
        // Solve b so that rber(rated) == ceiling.
        let b = (ceiling - floor) / rated.powf(k);
        RberModel {
            a: floor,
            b,
            k,
            ecc_ceiling: ceiling,
        }
    }

    /// Raw bit error rate after `pe` program/erase cycles.
    pub fn rber(&self, pe: u64) -> f64 {
        self.a + self.b * (pe as f64).powf(self.k)
    }
}

/// [`RberModel::rber`] memoized by erase count, so a sense or program pays
/// a table load instead of a `powf`.
///
/// The table holds `rber(pe)` for every `pe` below its length. It grows
/// through [`Self::cover`] as erase counts rise, never past `limit` (a
/// cell's rated P/E cycles: an erase there retires the block). A count the
/// table does not hold is computed, so every lookup returns the model's
/// value bit for bit.
#[derive(Debug, Clone)]
pub struct RberMemo {
    model: RberModel,
    limit: u64,
    table: Vec<f64>,
}

impl RberMemo {
    /// A memo over `model` holding erase count 0, growable to `limit`.
    pub fn new(model: RberModel, limit: u64) -> Self {
        RberMemo {
            model,
            limit,
            table: vec![model.rber(0)],
        }
    }

    /// The memoized model.
    pub fn model(&self) -> &RberModel {
        &self.model
    }

    /// Grows the table to hold every erase count up to `pe` (capped at the
    /// limit).
    pub fn cover(&mut self, pe: u64) {
        for p in self.table.len() as u64..=pe.min(self.limit) {
            self.table.push(self.model.rber(p));
        }
    }

    /// `RberModel::rber(pe)`, from the table when it holds `pe`.
    pub fn rber(&self, pe: u64) -> f64 {
        match usize::try_from(pe).ok().and_then(|i| self.table.get(i)) {
            Some(&r) => r,
            None => self.model.rber(pe),
        }
    }
}

/// Media-aging model: RBER growth beyond P/E wear.
///
/// Two additive mechanisms on top of [`RberModel::rber`]:
///
/// * **Read disturb** — every sense of a block slightly stresses its
///   neighbours; RBER grows linearly with the block's read count since the
///   last erase.
/// * **Retention loss** — charge leaks over (simulated) time; RBER grows
///   linearly with the seconds since the block was last programmed.
///
/// Both clocks reset on erase (and the retention clock restarts on every
/// program), matching real NAND behaviour where an erase/reprogram cycle
/// refreshes the cells. The model is deliberately additive and separate
/// from `RberModel` so the P/E calibration (Figure 11) is untouched when
/// aging is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingConfig {
    /// RBER added per read of the block since its last erase.
    pub read_disturb_per_read: f64,
    /// RBER added per simulated second since the block's last program.
    pub retention_per_sec: f64,
}

impl AgingConfig {
    /// True if either mechanism contributes.
    pub fn is_active(&self) -> bool {
        self.read_disturb_per_read > 0.0 || self.retention_per_sec > 0.0
    }

    /// Rejects negative or non-finite coefficients.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("read_disturb_per_read", self.read_disturb_per_read),
            ("retention_per_sec", self.retention_per_sec),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("aging {name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }

    /// RBER added on top of the P/E base for a block read `reads` times
    /// since erase whose data has sat for `retention_ns` nanoseconds since
    /// its last program.
    pub fn extra_rber(&self, reads: u64, retention_ns: u64) -> f64 {
        self.read_disturb_per_read * reads as f64
            + self.retention_per_sec * (retention_ns as f64 / 1e9)
    }
}

/// Read-retry count as a function of raw bit error rate.
///
/// As cells wear, the default read voltages mis-sense more bits and the
/// controller re-reads with shifted thresholds before ECC converges. The
/// standard empirical shape: no retries while RBER is far under the ECC
/// ceiling, then roughly one extra retry per doubling of RBER, saturating
/// near end of life.
pub fn read_retries(rber: f64, ecc_ceiling: f64) -> u32 {
    let floor = ecc_ceiling / 64.0;
    if rber <= floor {
        return 0;
    }
    let ratio = rber / floor;
    (ratio.log2().ceil() as u32).min(6)
}

/// Lifetime projection for a device under a steady erase workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LifetimeProjection {
    /// Total rated P/E budget of the device (blocks × rated cycles).
    pub total_pe_budget: u64,
    /// P/E cycles consumed per training step (device-wide erases).
    pub erases_per_step: f64,
    /// Training steps until the budget is exhausted (uniform wear).
    pub steps_to_exhaustion: f64,
    /// Steps until exhaustion with the observed wear *imbalance*:
    /// a hotter-than-average block exhausts early and strands the rest.
    pub steps_to_exhaustion_imbalanced: f64,
}

impl LifetimeProjection {
    /// Projects lifetime.
    ///
    /// * `blocks` — erase blocks in the device.
    /// * `rated_pe` — rated cycles per block.
    /// * `erases_per_step` — measured device-wide erases per training step.
    /// * `wear_imbalance` — max block erase count ÷ mean erase count
    ///   observed (1.0 = perfectly level).
    pub fn project(blocks: u64, rated_pe: u64, erases_per_step: f64, wear_imbalance: f64) -> Self {
        let total = blocks.saturating_mul(rated_pe);
        let uniform = if erases_per_step > 0.0 {
            total as f64 / erases_per_step
        } else {
            f64::INFINITY
        };
        let imb = wear_imbalance.max(1.0);
        LifetimeProjection {
            total_pe_budget: total,
            erases_per_step,
            steps_to_exhaustion: uniform,
            steps_to_exhaustion_imbalanced: uniform / imb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RberModel {
        /// Largest P/E count whose RBER is still within the ECC ceiling.
        pub fn usable_pe_cycles(&self) -> u64 {
            if self.ecc_ceiling <= self.a {
                return 0;
            }
            (((self.ecc_ceiling - self.a) / self.b).powf(1.0 / self.k)).floor() as u64
        }
    }

    impl LifetimeProjection {
        /// Lifetime in wall-clock days given a steady step time in seconds.
        pub fn days_at(&self, step_seconds: f64) -> f64 {
            self.steps_to_exhaustion_imbalanced * step_seconds / 86_400.0
        }
    }

    #[test]
    fn rber_is_monotone_in_pe() {
        let m = RberModel::tlc();
        let mut prev = 0.0;
        for pe in [0u64, 100, 500, 1000, 2000, 3000, 5000] {
            let r = m.rber(pe);
            assert!(r >= prev, "rber must not decrease");
            prev = r;
        }
    }

    #[test]
    fn memo_is_bit_exact_over_rated_endurance() {
        let model = RberModel::tlc();
        let rated = RATED_PE_CYCLES;
        let mut memo = RberMemo::new(model, rated);
        // A fresh table (count 0 only) and a full one agree with the model.
        for pe in [0, 1, rated, rated + 1] {
            assert_eq!(memo.rber(pe).to_bits(), model.rber(pe).to_bits());
        }
        memo.cover(u64::MAX);
        assert_eq!(memo.table.len() as u64, rated + 1, "cover is capped");
        for pe in 0..=rated {
            assert_eq!(
                memo.rber(pe).to_bits(),
                model.rber(pe).to_bits(),
                "rber({pe})"
            );
        }
    }

    #[test]
    fn ceiling_reached_near_rated_endurance() {
        let usable = RberModel::tlc().usable_pe_cycles();
        let rated = RATED_PE_CYCLES;
        assert!(
            (usable as f64 - rated as f64).abs() / rated as f64 <= 0.01,
            "usable {usable} vs rated {rated}"
        );
    }

    #[test]
    fn fresh_rber_is_tiny() {
        let m = RberModel::tlc();
        assert!(m.rber(0) < 1e-7);
        assert!(m.rber(RATED_PE_CYCLES) >= 9e-4);
    }

    #[test]
    fn rber_is_strictly_monotone_past_zero() {
        // The fault injector's wear coupling divides by rber ratios, so the
        // curve must strictly increase once pe > 0 (no flat segments).
        let m = RberModel::tlc();
        let mut prev = m.rber(0);
        for pe in (1..=6000u64).step_by(97) {
            let r = m.rber(pe);
            assert!(r > prev, "rber({pe}) = {r} did not grow past {prev}");
            prev = r;
        }
    }

    #[test]
    fn read_retries_threshold_behaviour() {
        let ceiling = 1e-3;
        let floor = ceiling / 64.0;
        // No retries at or below the quiet threshold (ceiling / 64).
        assert_eq!(read_retries(0.0, ceiling), 0);
        assert_eq!(read_retries(floor, ceiling), 0);
        assert_eq!(read_retries(floor * 0.999, ceiling), 0);
        // Roughly one extra retry per doubling of RBER above the threshold.
        assert_eq!(read_retries(floor * 2.0, ceiling), 1);
        assert_eq!(read_retries(floor * 4.0, ceiling), 2);
        assert_eq!(read_retries(floor * 8.0, ceiling), 3);
        // At the ECC ceiling itself: 64 = 2^6 doublings above the floor.
        assert_eq!(read_retries(ceiling, ceiling), 6);
        // Saturates at 6 — worn devices retry, they do not spin forever.
        assert_eq!(read_retries(ceiling * 1000.0, ceiling), 6);
        // Monotone in rber.
        let mut prev = 0;
        for i in 0..40 {
            let r = read_retries(floor * 1.3f64.powi(i), ceiling);
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn usable_pe_cycles_consistent_with_ceiling() {
        let m = RberModel::tlc();
        let usable = m.usable_pe_cycles();
        // The last usable cycle is still correctable; the next one is not
        // (floor() semantics of the inversion).
        assert!(
            m.rber(usable) <= m.ecc_ceiling,
            "rber({usable}) above ceiling"
        );
        assert!(
            m.rber(usable + 1) > m.ecc_ceiling,
            "rber({}) still under ceiling",
            usable + 1
        );
        // A ceiling at (or under) the fresh-block floor leaves no budget.
        let dead = RberModel {
            a: 1e-3,
            b: 1e-9,
            k: 2.0,
            ecc_ceiling: 1e-3,
        };
        assert_eq!(dead.usable_pe_cycles(), 0);
    }

    #[test]
    fn lifetime_projection_math() {
        // 1000 blocks × 3000 cycles = 3e6 budget; 3 erases/step → 1e6 steps.
        let p = LifetimeProjection::project(1000, 3000, 3.0, 1.0);
        assert_eq!(p.total_pe_budget, 3_000_000);
        assert!((p.steps_to_exhaustion - 1e6).abs() < 1e-6);
        assert_eq!(p.steps_to_exhaustion, p.steps_to_exhaustion_imbalanced);
        // 1 s/step → 1e6 s ≈ 11.57 days.
        assert!((p.days_at(1.0) - 11.574).abs() < 0.01);
    }

    #[test]
    fn imbalance_shortens_lifetime() {
        let level = LifetimeProjection::project(1000, 3000, 3.0, 1.0);
        let skewed = LifetimeProjection::project(1000, 3000, 3.0, 2.5);
        assert!(skewed.steps_to_exhaustion_imbalanced < level.steps_to_exhaustion_imbalanced / 2.0);
        // Imbalance below 1.0 is clamped.
        let clamped = LifetimeProjection::project(1000, 3000, 3.0, 0.5);
        assert_eq!(
            clamped.steps_to_exhaustion,
            clamped.steps_to_exhaustion_imbalanced
        );
    }

    #[test]
    fn zero_erase_rate_is_infinite_lifetime() {
        let p = LifetimeProjection::project(1000, 3000, 0.0, 1.0);
        assert!(p.steps_to_exhaustion.is_infinite());
    }

    #[test]
    fn disabled_aging_adds_nothing() {
        let a = AgingConfig {
            read_disturb_per_read: 0.0,
            retention_per_sec: 0.0,
        };
        assert!(!a.is_active());
        assert_eq!(a.extra_rber(1_000_000, u64::MAX), 0.0);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn aging_grows_with_reads_and_retention() {
        let a = AgingConfig {
            read_disturb_per_read: 1e-7,
            retention_per_sec: 1e-6,
        };
        assert!(a.is_active());
        assert!(a.validate().is_ok());
        // Linear in reads.
        assert!((a.extra_rber(10, 0) - 1e-6).abs() < 1e-15);
        assert!((a.extra_rber(20, 0) - 2e-6).abs() < 1e-15);
        // Linear in retention seconds (ns input).
        assert!((a.extra_rber(0, 1_000_000_000) - 1e-6).abs() < 1e-15);
        assert!((a.extra_rber(0, 3_000_000_000) - 3e-6).abs() < 1e-15);
        // Additive across mechanisms.
        let both = a.extra_rber(10, 1_000_000_000);
        assert!((both - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn aging_validate_rejects_bad_values() {
        let neg = AgingConfig {
            read_disturb_per_read: -1e-9,
            retention_per_sec: 0.0,
        };
        assert!(neg.validate().is_err());
        let nan = AgingConfig {
            read_disturb_per_read: 0.0,
            retention_per_sec: f64::NAN,
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn aged_rber_drives_retries_and_ceiling_crossing() {
        // A fresh TLC block (negligible P/E rber) pushed past the ECC
        // ceiling purely by read disturb: the retry count saturates.
        let m = RberModel::tlc();
        let a = AgingConfig {
            read_disturb_per_read: 1e-6,
            retention_per_sec: 0.0,
        };
        let fresh = m.rber(0);
        assert_eq!(read_retries(fresh, m.ecc_ceiling), 0);
        let aged = fresh + a.extra_rber(2000, 0); // 2e-3 > 1e-3 ceiling
        assert!(aged > m.ecc_ceiling);
        assert_eq!(read_retries(aged, m.ecc_ceiling), 6);
    }
}
