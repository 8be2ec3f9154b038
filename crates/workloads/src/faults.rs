//! Seeded media-fault scenarios for the reliability experiments.
//!
//! The fault-sweep experiment (F24) and the recovery tests need the same
//! seeded [`FaultConfig`] grids; defining them here keeps every consumer
//! on identical rates and seeds, so rows printed by the sweep binary are
//! reproducible across machines and sessions.

use nandsim::FaultConfig;
use serde::{Deserialize, Serialize};
use simkit::SimTime;

/// A seeded media-fault scenario plus the device age it models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Injection config to arm through `SsdConfig::fault`.
    pub fault: FaultConfig,
    /// Device age as a fraction of rated P/E cycles (0 = fresh, 1 = at
    /// end of rated life). The experiment pre-ages the device with
    /// `simulate_wear(pe_cycles(rated))` before measuring.
    pub age_fraction: f64,
}

impl FaultScenario {
    /// The P/E cycles this scenario's age corresponds to on a part rated
    /// for `rated_pe` cycles.
    pub fn pe_cycles(&self, rated_pe: u64) -> u64 {
        (rated_pe as f64 * self.age_fraction) as u64
    }
}

/// The raw per-operation fault rates the F24 sweep walks (first entry is
/// the fault-free control).
pub const SWEEP_RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];

/// The device ages (fractions of rated P/E cycles) the F24 sweep walks.
pub const SWEEP_AGES: [f64; 3] = [0.0, 0.5, 1.0];

/// The full F24 grid — every rate at every age, each cell with its own
/// seed derived from `seed` so dies fail independently across cells but
/// the grid is reproducible as a whole.
pub fn fault_sweep_grid(seed: u64) -> Vec<FaultScenario> {
    let mut grid = Vec::with_capacity(SWEEP_AGES.len() * SWEEP_RATES.len());
    for (i, &age) in SWEEP_AGES.iter().enumerate() {
        for (j, &rate) in SWEEP_RATES.iter().enumerate() {
            let cell_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i as u64) << 32 | j as u64);
            grid.push(FaultScenario {
                fault: FaultConfig::uniform(cell_seed, rate),
                age_fraction: age,
            });
        }
    }
    grid
}

/// The training phase a crash schedule targets.
///
/// Schedules name phases rather than absolute instants because where a
/// step's reads, write-backs, or GC land on the clock depends on the device
/// configuration. The experiment resolves each schedule against a
/// *reference* (uncrashed) run of the same configuration — identical
/// configs share identical timing, so a window measured on the reference
/// pinpoints the same activity on the crashing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPhase {
    /// Anywhere inside optimizer step `step` (gradient delivery, operand
    /// reads, or compute — whatever `fraction` lands on).
    Step {
        /// 1-based optimizer step to interrupt.
        step: u64,
    },
    /// Inside step `step`'s write-back tail: the last quarter of the step
    /// window, where the new epoch's state pages are mid-program.
    WriteBack {
        /// 1-based optimizer step to interrupt.
        step: u64,
    },
    /// During garbage collection — resolved against an erase window in the
    /// reference run's trace, so the reference run must collect.
    DuringGc,
    /// While the post-crash mount is itself running: the schedule's first
    /// crash interrupts `step`, and a second instant is armed inside the
    /// subsequent mount's replay/scan window (double crash).
    DuringMount {
        /// 1-based optimizer step the *first* crash interrupts.
        step: u64,
    },
}

/// One named, seeded sudden-power-off scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// Short display name for table rows.
    pub name: &'static str,
    /// Seed for any derived randomness (kept per-schedule so scenarios
    /// stay decorrelated when an experiment varies them independently).
    pub seed: u64,
    /// Which activity the crash interrupts.
    pub phase: CrashPhase,
    /// Where inside the resolved phase window the crash lands, in
    /// `[0, 1)` of the window's duration.
    pub fraction: f64,
}

impl CrashSchedule {
    /// Resolves the schedule to a concrete crash instant inside the phase
    /// window `[start, end)` measured on the reference run.
    pub fn instant(&self, start: SimTime, end: SimTime) -> SimTime {
        debug_assert!(end > start, "phase window must be non-empty");
        let span = (end - start).as_ns() as f64;
        start + simkit::SimDuration::from_ns((span * self.fraction) as u64)
    }

    /// Sanity bounds: `fraction` must stay inside the window.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.fraction) {
            return Err(format!("fraction {} outside [0,1)", self.fraction));
        }
        match self.phase {
            CrashPhase::Step { step }
            | CrashPhase::WriteBack { step }
            | CrashPhase::DuringMount { step }
                if step == 0 =>
            {
                Err("steps are 1-based".into())
            }
            _ => Ok(()),
        }
    }
}

/// The canonical crash-schedule set for the crash-consistency experiment
/// (F25) and the recovery proptests: early/mid/late instants inside three
/// different steps, write-back tails, a GC window, and a double crash —
/// twelve distinct instants in total, each deterministic in `seed`.
pub fn crash_schedules(seed: u64) -> Vec<CrashSchedule> {
    let s = |i: u64| {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i << 17 | i)
    };
    vec![
        CrashSchedule {
            name: "step1-early",
            seed: s(0),
            phase: CrashPhase::Step { step: 1 },
            fraction: 0.05,
        },
        CrashSchedule {
            name: "step1-mid",
            seed: s(1),
            phase: CrashPhase::Step { step: 1 },
            fraction: 0.5,
        },
        CrashSchedule {
            name: "step2-early",
            seed: s(2),
            phase: CrashPhase::Step { step: 2 },
            fraction: 0.1,
        },
        CrashSchedule {
            name: "step2-mid",
            seed: s(3),
            phase: CrashPhase::Step { step: 2 },
            fraction: 0.45,
        },
        CrashSchedule {
            name: "step3-mid",
            seed: s(4),
            phase: CrashPhase::Step { step: 3 },
            fraction: 0.55,
        },
        CrashSchedule {
            name: "step1-writeback",
            seed: s(5),
            phase: CrashPhase::WriteBack { step: 1 },
            fraction: 0.5,
        },
        CrashSchedule {
            name: "step2-writeback",
            seed: s(6),
            phase: CrashPhase::WriteBack { step: 2 },
            fraction: 0.3,
        },
        CrashSchedule {
            name: "step3-writeback-late",
            seed: s(7),
            phase: CrashPhase::WriteBack { step: 3 },
            fraction: 0.9,
        },
        CrashSchedule {
            name: "during-gc",
            seed: s(8),
            phase: CrashPhase::DuringGc,
            fraction: 0.5,
        },
        CrashSchedule {
            name: "during-gc-late",
            seed: s(9),
            phase: CrashPhase::DuringGc,
            fraction: 0.85,
        },
        CrashSchedule {
            name: "double-crash-step2",
            seed: s(10),
            phase: CrashPhase::DuringMount { step: 2 },
            fraction: 0.4,
        },
        CrashSchedule {
            name: "double-crash-step3",
            seed: s(11),
            phase: CrashPhase::DuringMount { step: 3 },
            fraction: 0.6,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_valid() {
        let a = fault_sweep_grid(24);
        let b = fault_sweep_grid(24);
        assert_eq!(a, b);
        assert_eq!(a.len(), SWEEP_AGES.len() * SWEEP_RATES.len());
        for s in &a {
            s.fault.validate().unwrap();
        }
        // Distinct seeds per cell keep die failures decorrelated.
        let mut seeds: Vec<u64> = a.iter().map(|s| s.fault.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
        // A different grid seed moves every cell seed.
        let c = fault_sweep_grid(25);
        assert_ne!(a[0].fault.seed, c[0].fault.seed);
    }

    #[test]
    fn pe_cycles_scale_with_age() {
        let at = |age_fraction| FaultScenario {
            fault: FaultConfig::uniform(0, 0.0),
            age_fraction,
        };
        assert_eq!(at(0.0).pe_cycles(3000), 0);
        assert_eq!(at(0.5).pe_cycles(3000), 1500);
        assert_eq!(at(1.0).pe_cycles(3000), 3000);
    }

    #[test]
    fn crash_schedules_are_deterministic_distinct_and_valid() {
        let a = crash_schedules(9);
        assert_eq!(a, crash_schedules(9));
        assert!(a.len() >= 10, "F25 needs at least ten distinct instants");
        for s in &a {
            s.validate().unwrap();
        }
        let mut names: Vec<&str> = a.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len(), "names must be unique");
        // The required phases are all covered.
        assert!(a
            .iter()
            .any(|s| matches!(s.phase, CrashPhase::WriteBack { .. })));
        assert!(a.iter().any(|s| s.phase == CrashPhase::DuringGc));
        assert!(a
            .iter()
            .any(|s| matches!(s.phase, CrashPhase::DuringMount { .. })));
        // Seeds move with the grid seed.
        assert_ne!(a[0].seed, crash_schedules(10)[0].seed);
    }

    #[test]
    fn crash_instant_lands_inside_the_window() {
        let s = CrashSchedule {
            name: "t",
            seed: 0,
            phase: CrashPhase::Step { step: 1 },
            fraction: 0.5,
        };
        let start = SimTime::from_us(10);
        let end = SimTime::from_us(20);
        let at = s.instant(start, end);
        assert!(at >= start && at < end);
        assert_eq!(at, SimTime::from_us(15));
    }

    #[test]
    fn zero_step_schedules_rejected() {
        let s = CrashSchedule {
            name: "bad",
            seed: 0,
            phase: CrashPhase::Step { step: 0 },
            fraction: 0.5,
        };
        assert!(s.validate().is_err());
        let f = CrashSchedule {
            name: "bad-frac",
            seed: 0,
            phase: CrashPhase::DuringGc,
            fraction: 1.0,
        };
        assert!(f.validate().is_err());
    }
}
