//! # optimstore — in-storage optimization of large-scale DNNs
//!
//! This facade crate re-exports the whole OptimStore reproduction as one
//! dependency. The individual crates remain usable on their own:
//!
//! * [`simkit`] — discrete-event simulation kernel.
//! * [`nandsim`] — NAND flash die model.
//! * [`ssdsim`] — full SSD (FTL, channels, host interface).
//! * [`optim_math`] — optimizer kernels and fp16/bf16 numerics.
//! * [`dnn_model`] — transformer model zoo and training timeline model.
//! * [`optimstore_core`] — the paper's contribution: in-storage optimizer
//!   updates with on-die processing.
//! * [`baselines`] — host-offload comparison systems.
//! * [`workloads`] — synthetic gradient/scenario generators.
//!
//! See the repository README for a quickstart and DESIGN.md for the system
//! inventory and experiment index.
//!
//! ```
//! use optimstore::optim_math::state::{GradDtype, StateLayoutSpec};
//! use optimstore::optim_math::{Adam, OptimizerKind};
//! use optimstore::optimstore_core::{OptimStoreConfig, OptimStoreDevice};
//! use optimstore::simkit::SimTime;
//! use optimstore::ssdsim::SsdConfig;
//!
//! let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
//! let mut dev = OptimStoreDevice::new_functional(
//!     SsdConfig::tiny(),
//!     OptimStoreConfig::die_ndp(),
//!     10_000,
//!     Box::new(Adam::default()),
//!     spec,
//! )
//! .unwrap();
//! let t0 = dev.load_weights(&vec![0.02; 10_000], SimTime::ZERO).unwrap();
//! let report = dev.run_step(Some(&vec![0.01; 10_000]), t0).unwrap();
//! assert_eq!(report.tier, "die-ndp");
//! assert!(report.traffic.pcie_out == 0); // nothing leaves during the step
//! ```

#![deny(unsafe_code)]

pub use baselines;
pub use dnn_model;
pub use nandsim;
pub use optim_math;
pub use optimstore_core;
pub use simkit;
pub use ssdsim;
pub use workloads;
