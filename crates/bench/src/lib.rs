//! # optimstore-bench — the experiment harness
//!
//! One `experiments <id>|all [cap]` binary regenerates the reconstructed
//! tables and figures (see DESIGN.md §4), all built from the shared
//! machinery here:
//!
//! * [`runners`] — one phantom-cell runner for every tier: builds the
//!   device, applies its preparation (wear or hot fraction), runs a warm-up
//!   step and a measured step over a [`workloads::SlicedRun`] slice, and
//!   returns full-model-scaled results cross-checked against the analytic
//!   audit. A per-invocation [`runners::Context`] simulates each distinct
//!   cell once, and [`runners::SeededRun`] is the seeded functional run the
//!   bit-exactness checks train and compare. [`runners::CrashCell`] (F25)
//!   and [`runners::DegradedCell`] (F26) are the functional sweep cells
//!   that the figures, `tests/crash_consistency.rs`,
//!   `tests/reliability.rs` and `bench_hotpath`'s smoke cells share.
//! * [`table`] — fixed-width table rendering so every experiment's output
//!   is grep-able and diff-able (`tests/golden/all_experiments.txt` holds
//!   it byte for byte).
//! * [`experiments`] — the experiments, each returning its text; their
//!   ordered registry of ids and titles; the one place that prints a
//!   section header; and the binary's argument parser.
//!
//! `bench_hotpath` (kernel and hot-path gates), `bench_parallel` (pool
//! width) and `trace_view` (a gantt of one step) are the other binaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod runners;
pub mod table;
