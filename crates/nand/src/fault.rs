//! Seeded, deterministic fault injection at the die state machine.
//!
//! Real NAND fails in three observable ways: a program reports bad status,
//! an erase reports bad status, and a read comes back with more raw bit
//! errors than the ECC can correct. OptimStore rewrites the full optimizer
//! state every training step, so these media faults are the dominant
//! reliability risk of the architecture — the recovery policy above (block
//! retirement, re-program, bounded read-retry, update-group replay) is
//! exercised against the faults injected here.
//!
//! Determinism is the design center: every die derives its own SplitMix64
//! stream from the configured seed, exactly one draw is consumed per array
//! operation, and rates are pure functions of the draw plus the block's
//! wear — so a given `(seed, workload)` pair always produces the identical
//! fault sequence, retired-block set, and final device state. A `None`
//! injector (the default) performs no draws at all, keeping the fault-free
//! path bit- and timing-identical to a build without this module.

use serde::{Deserialize, Serialize};

/// Per-operation fault probabilities plus the stream seed.
///
/// Rates are probabilities per array operation. When `wear_coupling` is
/// on, the read rate is interpreted as the uncorrectable probability *at
/// the ECC ceiling* (end of rated life) and scales down linearly with the
/// block's current RBER, while program/erase failures grow mildly (up to
/// 2×) as the block approaches the ceiling. With coupling off all three
/// rates apply verbatim regardless of wear.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the fault stream. Each die folds its id into this, so dies
    /// fail independently but reproducibly.
    pub seed: u64,
    /// Program-status failure probability per program operation.
    pub program_fail: f64,
    /// Erase-status failure probability per erase operation.
    pub erase_fail: f64,
    /// ECC-uncorrectable probability per read operation (at the ECC
    /// ceiling when `wear_coupling` is on).
    pub read_uncorrectable: f64,
    /// Couple rates to block wear through the die's
    /// [`RberModel`](crate::wear::RberModel).
    pub wear_coupling: bool,
}

impl FaultConfig {
    /// One uniform rate across all three fault classes.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            program_fail: rate,
            erase_fail: rate,
            read_uncorrectable: rate,
            wear_coupling: true,
        }
    }

    /// True when at least one rate can fire.
    pub fn is_active(&self) -> bool {
        self.program_fail > 0.0 || self.erase_fail > 0.0 || self.read_uncorrectable > 0.0
    }

    /// Validates that every rate is a probability.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("program_fail", self.program_fail),
            ("erase_fail", self.erase_fail),
            ("read_uncorrectable", self.read_uncorrectable),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("fault rate {name} = {p} is not a probability"));
            }
        }
        Ok(())
    }
}

/// Injected-fault counters for one die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Program operations that reported bad status.
    pub program_failures: u64,
    /// Erase operations that reported bad status.
    pub erase_failures: u64,
    /// Reads that came back ECC-uncorrectable.
    pub read_uncorrectable: u64,
}

impl FaultStats {
    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.program_failures + self.erase_failures + self.read_uncorrectable
    }
}

/// Deterministic per-die fault source.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    state: u64,
    stats: FaultStats,
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Builds the injector for die `die_id`, deriving an independent
    /// stream from the configured seed.
    pub fn new(cfg: FaultConfig, die_id: u32) -> Self {
        let state = splitmix(cfg.seed ^ splitmix(0x0D1E_0000_0000_0000 | die_id as u64));
        FaultInjector {
            cfg,
            state,
            stats: FaultStats::default(),
        }
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// One uniform draw in [0, 1). Exactly one draw per array operation.
    fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (splitmix(self.state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Wear multiplier in [0, 1]: how far the block's RBER has climbed
    /// toward the ECC ceiling.
    fn wear_ratio(rber: f64, ecc_ceiling: f64) -> f64 {
        if ecc_ceiling <= 0.0 {
            return 1.0;
        }
        (rber / ecc_ceiling).clamp(0.0, 1.0)
    }

    /// Rolls a program operation; true ⇒ the program reports bad status.
    pub fn roll_program(&mut self, rber: f64, ecc_ceiling: f64) -> bool {
        let mut p = self.cfg.program_fail;
        if self.cfg.wear_coupling {
            p *= 1.0 + Self::wear_ratio(rber, ecc_ceiling);
        }
        let hit = self.next_unit() < p.min(1.0);
        if hit {
            self.stats.program_failures += 1;
        }
        hit
    }

    /// Rolls an erase operation; true ⇒ the erase reports bad status.
    pub fn roll_erase(&mut self, rber: f64, ecc_ceiling: f64) -> bool {
        let mut p = self.cfg.erase_fail;
        if self.cfg.wear_coupling {
            p *= 1.0 + Self::wear_ratio(rber, ecc_ceiling);
        }
        let hit = self.next_unit() < p.min(1.0);
        if hit {
            self.stats.erase_failures += 1;
        }
        hit
    }

    /// Rolls a read operation; true ⇒ the read is ECC-uncorrectable.
    pub fn roll_read(&mut self, rber: f64, ecc_ceiling: f64) -> bool {
        let mut p = self.cfg.read_uncorrectable;
        if self.cfg.wear_coupling {
            p *= Self::wear_ratio(rber, ecc_ceiling);
        }
        let hit = self.next_unit() < p.min(1.0);
        if hit {
            self.stats.read_uncorrectable += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::uniform(0, 0.0), 3);
        for _ in 0..10_000 {
            assert!(!inj.roll_program(1e-3, 1e-3));
            assert!(!inj.roll_erase(1e-3, 1e-3));
            assert!(!inj.roll_read(1e-3, 1e-3));
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn always_fires_at_rate_one() {
        let mut inj = FaultInjector::new(FaultConfig::uniform(7, 1.0), 0);
        assert!(inj.roll_program(1e-3, 1e-3));
        assert!(inj.roll_erase(1e-3, 1e-3));
        assert!(inj.roll_read(1e-3, 1e-3));
        assert_eq!(
            *inj.stats(),
            FaultStats {
                program_failures: 1,
                erase_failures: 1,
                read_uncorrectable: 1
            }
        );
    }

    #[test]
    fn same_seed_same_stream_different_dies_differ() {
        let cfg = FaultConfig {
            wear_coupling: false,
            ..FaultConfig::uniform(42, 0.5)
        };
        let mut a = FaultInjector::new(cfg, 0);
        let mut b = FaultInjector::new(cfg, 0);
        let mut c = FaultInjector::new(cfg, 1);
        let seq_a: Vec<bool> = (0..256).map(|_| a.roll_program(1e-3, 1e-3)).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.roll_program(1e-3, 1e-3)).collect();
        let seq_c: Vec<bool> = (0..256).map(|_| c.roll_program(1e-3, 1e-3)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c, "per-die streams must be independent");
    }

    #[test]
    fn wear_coupling_scales_read_rate() {
        let cfg = FaultConfig {
            seed: 9,
            program_fail: 0.0,
            erase_fail: 0.0,
            read_uncorrectable: 0.5,
            wear_coupling: true,
        };
        // Fresh block (rber ≪ ceiling): essentially never fails.
        let mut fresh = FaultInjector::new(cfg, 0);
        let fresh_hits: u32 = (0..4096).map(|_| fresh.roll_read(1e-8, 1e-3) as u32).sum();
        // End-of-life block (rber = ceiling): fails at the full base rate.
        let mut worn = FaultInjector::new(cfg, 0);
        let worn_hits: u32 = (0..4096).map(|_| worn.roll_read(1e-3, 1e-3) as u32).sum();
        assert_eq!(fresh_hits, 0);
        assert!(
            (1500..2600).contains(&worn_hits),
            "worn hits {worn_hits} should be near half"
        );
    }

    #[test]
    fn rate_observed_matches_configured() {
        let mut inj = FaultInjector::new(FaultConfig::uniform(11, 0.1), 2);
        let n = 20_000;
        let hits: u32 = (0..n)
            .map(|_| {
                // Coupling off path: exercise the uncoupled branch too.
                inj.roll_erase(0.0, 1e-3) as u32
            })
            .sum();
        // erase rolls with coupling: ratio 0 ⇒ multiplier 1.0 ⇒ p = 0.1.
        let observed = hits as f64 / n as f64;
        assert!((observed - 0.1).abs() < 0.02, "observed {observed}");
    }

    #[test]
    fn validation_rejects_non_probabilities() {
        let mut c = FaultConfig::uniform(0, 0.5);
        c.validate().unwrap();
        c.program_fail = 1.5;
        assert!(c.validate().is_err());
        c.program_fail = f64::NAN;
        assert!(c.validate().is_err());
        c = FaultConfig::uniform(0, -0.1);
        assert!(c.validate().is_err());
        assert!(!FaultConfig::uniform(0, 0.0).is_active());
        assert!(FaultConfig::uniform(0, 0.1).is_active());
    }
}
