//! # workloads — synthetic training workloads for the experiments
//!
//! The paper's experiments need gradients and weights; real training traces
//! are not available (and the optimizer-step cost is data-independent), so
//! this crate generates **seeded synthetic tensors** with realistic
//! magnitudes:
//!
//! * [`WeightInit`] — scaled-normal weight initialization (the usual
//!   `N(0, 0.02)` of transformer checkpoints).
//! * [`GradientGen`] — per-step gradients, deterministic in
//!   `(seed, step)`: the same experiment always sees the same bytes, which
//!   the reproducibility tests rely on.
//! * [`SlicedRun`] — the measurement methodology for billion-parameter
//!   models: simulate a device-saturating slice of the step and scale,
//!   valid because the step is bandwidth-bound and steady-state.
//! * [`QuadraticTask`] — a real (convex, known-optimum) objective so
//!   end-to-end tests can verify that in-storage training *optimizes*,
//!   not merely that its arithmetic matches a reference.
//! * [`FaultScenario`] — seeded media-fault scenarios and the F24 sweep
//!   grid, so the reliability experiments and the recovery tests inject
//!   identical, reproducible fault streams.
//! * [`AgingSchedule`] — named, seeded media-aging scenarios (read-disturb
//!   skew, retention pauses) driving the RAIN/scrub reliability sweep
//!   (F26) the same way.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod aging;
mod faults;
mod gradients;
mod slicing;
mod task;

pub use aging::{aging_schedules, AgingSchedule};
pub use faults::{
    crash_schedules, fault_sweep_grid, CrashPhase, CrashSchedule, FaultScenario, SWEEP_AGES,
    SWEEP_RATES,
};
pub use gradients::{GradientGen, WeightInit};
pub use slicing::SlicedRun;
pub use task::QuadraticTask;
