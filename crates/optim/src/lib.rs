//! # optim-math — optimizer mathematics for mixed-precision DNN training
//!
//! The numerics substrate of the OptimStore reproduction. Everything the
//! in-storage engine and the host baselines compute flows through this
//! crate, so both paths are guaranteed to use the *same* arithmetic and the
//! integration tests can demand bit-exact agreement.
//!
//! Contents:
//!
//! * [`F16`] / [`Bf16`] — IEEE 754 binary16 and bfloat16 implemented from
//!   scratch (round-to-nearest-even, subnormals, infinities, NaN), since the
//!   dependency policy excludes the `half` crate.
//! * [`Optimizer`] and its implementations ([`Adam`], [`AdamW`],
//!   [`SgdMomentum`], [`Adagrad`], [`Lion`]) — scalar update rules with
//!   explicit per-parameter auxiliary state ("slots"), matching how
//!   optimizer state is laid out on flash.
//! * [`compress`] — top-k gradient compression with error feedback, the
//!   extension that shrinks the one remaining PCIe stream.
//! * [`kernels`] — byte-buffer update kernels: the element-wise pass over
//!   `(master weight, slots, gradient)` buffers that produces new state and
//!   a new fp16 working weight. This is the operation OptimStore executes
//!   inside the SSD.
//! * [`state::StateLayoutSpec`] — how many bytes per parameter each
//!   optimizer reads and writes; every bandwidth computation in the
//!   repository derives from it.
//!
//! ## Example
//!
//! ```
//! use optim_math::{Adam, Optimizer, F16};
//!
//! let adam = Adam::default();
//! let mut slots = [0.0f32; 2]; // m, v
//! let w = 1.0f32;
//! let g = F16::from_f32(0.5).to_f32();
//! let w1 = adam.update_scalar(w, &mut slots, g, 1);
//! assert!(w1 < w); // positive gradient decreases the weight
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod bf16;
mod f16;
mod hyper;
mod optimizer;

pub mod compress;
pub mod kernels;
pub mod norms;
// Audit-only for now: F22 prices 8-bit moments analytically, and these
// kernels' unit tests are the convergence evidence its note cites.
#[cfg(test)]
pub mod quant;
pub mod state;

pub use bf16::Bf16;
pub use f16::F16;
pub use hyper::{AdamParams, MomentumParams};
pub use optimizer::{
    make_optimizer, Adagrad, Adam, AdamW, Lion, Optimizer, OptimizerKind, SgdMomentum,
};
