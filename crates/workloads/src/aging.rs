//! Named media-aging schedules for the reliability experiments.
//!
//! The reliability sweep (F26) and the RAIN/scrub tests need reproducible
//! ways to age a device toward uncorrectable reads. A schedule bundles the
//! [`AgingConfig`] coefficients (how fast RBER grows with reads and
//! retention time) with the *workload shape* that exercises them: which
//! pages absorb extra reads (read-disturb skew) and how much idle time
//! elapses between optimizer steps (retention). Defining the schedules
//! here keeps every consumer on identical rates and derived seeds, exactly
//! like [`crate::fault_sweep_grid`] does for discrete faults.

use nandsim::AgingConfig;
use serde::{Deserialize, Serialize};
use simkit::SimDuration;

/// A named, seeded media-aging scenario: aging-model coefficients plus the
/// access-pattern shape that drives them.
///
/// The coefficients are expressed relative to the ECC ceiling of the part
/// under test: callers scale [`AgingSchedule::read_disturb_ceiling_frac`]
/// and [`AgingSchedule::retention_ceiling_frac_per_pause`] by the die's
/// actual ceiling to obtain an [`AgingConfig`] (see
/// [`AgingSchedule::aging_config`]). That keeps one schedule meaningful
/// across NAND parts whose baseline RBER differs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingSchedule {
    /// Short display name for table rows.
    pub name: &'static str,
    /// Seed for the hot-page selection (kept per-schedule so scenarios
    /// stay decorrelated when an experiment varies them independently).
    pub seed: u64,
    /// Fraction of the ECC-ceiling headroom one *hot-page read* consumes.
    /// A page read `1 / frac` times since its block's last erase reaches
    /// the ceiling from read disturb alone.
    pub read_disturb_ceiling_frac: f64,
    /// Fraction of the ceiling headroom one inter-step pause consumes via
    /// retention loss. A page left unwritten for `1 / frac` pauses reaches
    /// the ceiling from retention alone.
    pub retention_ceiling_frac_per_pause: f64,
    /// Idle time inserted between optimizer steps (the retention clock and
    /// the scrub scheduler both live in this window).
    pub pause_between_steps: SimDuration,
    /// Fraction of logical pages that are *hot* — absorbing
    /// [`AgingSchedule::hot_reads_per_step`] extra patrol reads per step.
    pub hot_fraction: f64,
    /// Extra reads each hot page absorbs per optimizer step.
    pub hot_reads_per_step: u32,
}

impl AgingSchedule {
    /// No aging at all — the control row of every sweep.
    pub fn benign(seed: u64) -> Self {
        AgingSchedule {
            name: "benign",
            seed,
            read_disturb_ceiling_frac: 0.0,
            retention_ceiling_frac_per_pause: 0.0,
            pause_between_steps: SimDuration::from_ms(1),
            hot_fraction: 0.0,
            hot_reads_per_step: 0,
        }
    }

    /// A few pages are re-read hard every step: read disturb pushes them
    /// past the ECC ceiling within tens of steps while the rest of the
    /// device stays healthy. The classic case RAIN reconstruction and
    /// patrol scrub exist for.
    pub fn hot_read_skew(seed: u64) -> Self {
        AgingSchedule {
            name: "hot-read-skew",
            seed,
            read_disturb_ceiling_frac: 0.02,
            retention_ceiling_frac_per_pause: 0.0,
            pause_between_steps: SimDuration::from_ms(1),
            hot_fraction: 0.05,
            hot_reads_per_step: 4,
        }
    }

    /// Long idle gaps between steps: retention loss ages *every* block
    /// uniformly, landing each page past the default refresh threshold
    /// (half the ceiling) after a single pause — the schedule that makes
    /// the scrub's copyback refreshes visible, and that ages en masse
    /// (the hard case for the scrub budget) when the sweep rate is low.
    pub fn long_retention_pause(seed: u64) -> Self {
        AgingSchedule {
            name: "long-retention-pause",
            seed,
            read_disturb_ceiling_frac: 0.0,
            retention_ceiling_frac_per_pause: 0.6,
            pause_between_steps: SimDuration::from_secs(2),
            hot_fraction: 0.0,
            hot_reads_per_step: 0,
        }
    }

    /// Hot-read skew *and* retention running together, faster than any
    /// modest scrub budget can patrol: the schedule that demonstrates
    /// double losses when the sweep rate is too low (the scrub-rate axis
    /// of F26).
    pub fn scrub_starved(seed: u64) -> Self {
        AgingSchedule {
            name: "scrub-starved",
            seed,
            read_disturb_ceiling_frac: 0.01,
            retention_ceiling_frac_per_pause: 0.3,
            pause_between_steps: SimDuration::from_ms(500),
            hot_fraction: 0.12,
            hot_reads_per_step: 6,
        }
    }

    /// Resolves the relative coefficients against a part's actual ECC
    /// ceiling (`Die::rber_model().ecc_ceiling`), producing the config to
    /// arm through `SsdConfig::aging`.
    pub fn aging_config(&self, ecc_ceiling: f64) -> AgingConfig {
        let pause_s = self.pause_between_steps.as_secs_f64();
        AgingConfig {
            read_disturb_per_read: ecc_ceiling * self.read_disturb_ceiling_frac,
            retention_per_sec: if pause_s > 0.0 {
                ecc_ceiling * self.retention_ceiling_frac_per_pause / pause_s
            } else {
                0.0
            },
        }
    }

    /// The hot-page set over a device with `logical_pages` pages:
    /// `hot_fraction` of them, chosen by a seeded splitmix walk, sorted
    /// and deduplicated so iteration order is deterministic.
    pub fn hot_pages(&self, logical_pages: u64) -> Vec<u64> {
        let want = (logical_pages as f64 * self.hot_fraction).round() as usize;
        if want == 0 || logical_pages == 0 {
            return Vec::new();
        }
        let mut state = self.seed;
        let mut picks = std::collections::BTreeSet::new();
        // Splitmix64: enough draws to survive collisions on tiny devices.
        while picks.len() < want.min(logical_pages as usize) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            picks.insert(z % logical_pages);
        }
        picks.into_iter().collect()
    }

    /// A seeded pick of `count` distinct victim indices in `0..n` — the
    /// pages (or update groups) the reliability experiments corrupt
    /// between optimizer steps to provoke uncorrectable reads. Drawn from
    /// a stream independent of [`AgingSchedule::hot_pages`] so the two
    /// sets stay decorrelated; the draw *order* is preserved (victims are
    /// consumed sequentially across injection gaps).
    pub fn victims(&self, n: u64, count: usize) -> Vec<u64> {
        if n == 0 {
            return Vec::new();
        }
        let mut state = self.seed ^ 0xD6E8_FEB8_6659_FD93;
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        while out.len() < count.min(n as usize) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let pick = z % n;
            if seen.insert(pick) {
                out.push(pick);
            }
        }
        out
    }

    /// Sanity bounds on the shape parameters.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("read_disturb_ceiling_frac", self.read_disturb_ceiling_frac),
            (
                "retention_ceiling_frac_per_pause",
                self.retention_ceiling_frac_per_pause,
            ),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        if !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err(format!("hot_fraction {} outside [0,1]", self.hot_fraction));
        }
        Ok(())
    }
}

/// The canonical schedule set for the F26 reliability sweep and
/// `tests/reliability.rs`, each cell with its own seed derived from
/// `seed` so hot-page sets stay decorrelated across schedules while the
/// set as a whole is reproducible.
pub fn aging_schedules(seed: u64) -> Vec<AgingSchedule> {
    let s = |i: u64| {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i << 21 | i)
    };
    vec![
        AgingSchedule::benign(s(0)),
        AgingSchedule::hot_read_skew(s(1)),
        AgingSchedule::long_retention_pause(s(2)),
        AgingSchedule::scrub_starved(s(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_cover_both_mechanisms() {
        for s in aging_schedules(26) {
            s.validate().unwrap();
        }
        let hot = AgingSchedule::hot_read_skew(1);
        assert!(hot.read_disturb_ceiling_frac > 0.0);
        assert_eq!(hot.retention_ceiling_frac_per_pause, 0.0);
        let ret = AgingSchedule::long_retention_pause(1);
        assert_eq!(ret.read_disturb_ceiling_frac, 0.0);
        assert!(ret.retention_ceiling_frac_per_pause > 0.0);
        let starved = AgingSchedule::scrub_starved(1);
        assert!(starved.read_disturb_ceiling_frac > 0.0);
        assert!(starved.retention_ceiling_frac_per_pause > 0.0);
    }

    #[test]
    fn aging_config_scales_with_the_ceiling() {
        let s = AgingSchedule::hot_read_skew(3);
        let lo = s.aging_config(1e-4);
        let hi = s.aging_config(1e-3);
        assert!(hi.read_disturb_per_read > lo.read_disturb_per_read);
        assert!((hi.read_disturb_per_read / lo.read_disturb_per_read - 10.0).abs() < 1e-9);
        // Retention rate turns the per-pause fraction into a per-second one.
        let r = AgingSchedule::long_retention_pause(3);
        let cfg = r.aging_config(1e-3);
        let per_pause = cfg.retention_per_sec * r.pause_between_steps.as_secs_f64();
        assert!((per_pause / 1e-3 - r.retention_ceiling_frac_per_pause).abs() < 1e-12);
        cfg.validate().unwrap();
    }

    #[test]
    fn hot_pages_are_deterministic_in_bounds_and_seed_sensitive() {
        let s = AgingSchedule::hot_read_skew(7);
        let a = s.hot_pages(1000);
        assert_eq!(a, s.hot_pages(1000));
        assert_eq!(a.len(), 50, "5% of 1000 pages");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&p| p < 1000));
        let other = AgingSchedule::hot_read_skew(8);
        assert_ne!(a, other.hot_pages(1000));
        // Degenerate sizes don't hang or panic.
        assert!(AgingSchedule::benign(0).hot_pages(1000).is_empty());
        assert!(s.hot_pages(0).is_empty());
        assert_eq!(
            AgingSchedule {
                hot_fraction: 1.0,
                ..s
            }
            .hot_pages(4)
            .len(),
            4
        );
    }

    #[test]
    fn victims_are_deterministic_distinct_and_independent_of_hot_pages() {
        let s = AgingSchedule::scrub_starved(5);
        let v = s.victims(100, 12);
        assert_eq!(v, s.victims(100, 12));
        assert_eq!(v.len(), 12);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "victims must be distinct");
        assert!(v.iter().all(|&p| p < 100));
        // A longer draw extends the shorter one (victims are consumed
        // sequentially across gaps).
        assert_eq!(&s.victims(100, 20)[..12], &v[..]);
        assert_ne!(v, AgingSchedule::scrub_starved(6).victims(100, 12));
        // Saturates rather than hangs when count > n.
        assert_eq!(s.victims(3, 10).len(), 3);
        assert!(s.victims(0, 10).is_empty());
    }

    #[test]
    fn schedule_set_is_deterministic_named_and_decorrelated() {
        let a = aging_schedules(11);
        assert_eq!(a, aging_schedules(11));
        let mut names: Vec<&str> = a.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len(), "names must be unique");
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "seeds must be distinct");
        assert_ne!(a[0].seed, aging_schedules(12)[0].seed);
    }
}
