//! # dnn-model — the training workload model
//!
//! OptimStore's unit of work is "one optimizer step of model *M*". This
//! crate describes *M*: how many parameters, how much optimizer state, how
//! long forward/backward takes on the accelerator, and how state shards
//! across devices. It has no simulation of its own — it produces the
//! numbers every experiment parameterizes over.
//!
//! * [`TransformerConfig`] / [`zoo`] — the model zoo of the reconstructed
//!   Table 1 (BERT-Large 0.34 B → GPT-3 175 B), with parameter counts
//!   derived from the architecture and checked against published sizes.
//! * [`TrainingFootprint`] — bytes of weights, gradients and optimizer
//!   state under mixed-precision training (drives capacity planning).
//! * [`GpuSpec`] and [`compute_time`](GpuSpec::iteration_time) — a roofline
//!   model of forward+backward time (the famous 6·N·D FLOPs estimate).
//! * [`IterationBreakdown`] — assembles compute and optimizer-step time
//!   into an end-to-end iteration (reconstructed Figures 3, 6, 12).
//! * [`ZeroPartition`] — ZeRO-style equal sharding of optimizer state
//!   across devices (reconstructed Figure 13).
//! * [`LrSchedule`] — warmup + cosine/linear decay learning-rate schedules
//!   (the hyperparameters the IST-UPDATE command re-issues every step).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod compute;
mod footprint;
mod partition;
mod schedule;
mod timeline;

pub mod zoo;

pub use compute::GpuSpec;
pub use footprint::TrainingFootprint;
pub use partition::ZeroPartition;
pub use schedule::{Decay, LrSchedule};
pub use timeline::IterationBreakdown;
pub use zoo::{LayerShape, TransformerConfig};
