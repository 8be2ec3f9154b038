//! # optimstore-core — in-storage DNN optimizer updates with on-die processing
//!
//! The paper's contribution. An [`OptimStoreDevice`] wraps a simulated SSD
//! ([`ssdsim::Device`]) with:
//!
//! * a **state layout** ([`StateLayout`]) that co-locates each parameter
//!   shard's master weight, optimizer slots, gradient and working weight on
//!   one NAND die, so the element-wise update is entirely die-local;
//! * **processing engines** placed per die ([`ExecutionTier::DieNdp`]), per
//!   channel ([`ExecutionTier::ChannelNdp`]) or on the host
//!   ([`ExecutionTier::HostNvme`], the offload baseline), modelled as
//!   throughput pipelines ([`EngineConfig`]) and driven by one step
//!   executor;
//! * an **in-storage command protocol** ([`protocol`]) the host uses to
//!   trigger updates without moving state;
//! * a **scheduler** that pipelines `read → update → program` per update
//!   group with gradient streaming over PCIe;
//! * **energy** ([`energy`]) and **endurance** ([`endurance`]) accounting;
//! * an **analytic bandwidth audit** ([`audit`]) that predicts steady-state
//!   step time from byte counts alone — the event simulation is validated
//!   against it.
//!
//! The device runs *functionally* (real bytes, bit-exact against
//! [`optim_math`] reference kernels) for small models, and in *phantom*
//! mode (timing only) for billion-parameter experiments.
//!
//! ## Example
//!
//! ```
//! use optimstore_core::{OptimStoreConfig, OptimStoreDevice};
//! use optim_math::{Adam, state::{GradDtype, StateLayoutSpec}, OptimizerKind};
//! use ssdsim::SsdConfig;
//! use simkit::SimTime;
//!
//! // 20 000 parameters, functional, on a tiny SSD with die-level engines.
//! let spec = StateLayoutSpec::new(OptimizerKind::Adam, GradDtype::F16);
//! let mut dev = OptimStoreDevice::new_functional(
//!     SsdConfig::tiny(),
//!     OptimStoreConfig::die_ndp(),
//!     20_000,
//!     Box::new(Adam::default()),
//!     spec,
//! ).unwrap();
//! let weights = vec![0.5f32; 20_000];
//! dev.load_weights(&weights, SimTime::ZERO).unwrap();
//! let grads = vec![0.1f32; 20_000];
//! let report = dev.run_step(Some(&grads), SimTime::from_ms(1)).unwrap();
//! assert!(report.duration.as_ns() > 0);
//! assert_eq!(dev.step_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod config;
mod exec;
mod layout;
pub mod pages;

pub mod report;

pub mod audit;
pub mod endurance;
pub mod energy;
pub mod protocol;

pub use config::{EngineConfig, ExecutionTier, GradStaging, LayoutPolicy, OptimStoreConfig};
pub use exec::{CoreError, OptimStoreDevice};
pub use layout::{StateComponent, StateLayout, UpdateGroup};
pub use report::{RecoveryReport, StepReport, TrafficBytes};
