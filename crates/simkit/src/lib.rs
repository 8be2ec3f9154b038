//! # simkit — deterministic discrete-event simulation kernel
//!
//! `simkit` is the timing substrate shared by every simulator crate in the
//! OptimStore reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock
//!   with saturating arithmetic, so timing code never silently wraps.
//! * [`Timeline`] and [`BandwidthLink`] — resource-occupancy models. A
//!   `Timeline` represents a unit that can do one thing at a time (a NAND
//!   plane, a DMA engine); a `BandwidthLink` represents a shared byte pipe
//!   (an ONFI channel, a PCIe link) that converts transfer sizes, plus any
//!   fixed per-transfer overhead, into busy windows.
//! * [`stats`] — the event counters every report the simulators produce
//!   is built from.
//! * [`slab`] — fixed-width `u64` slabs behind `u32` indices, recycled
//!   through a spare list, for per-block metadata that drop-free tables
//!   point into.
//! * [`par`] — the deterministic parallel *data plane*: a scoped worker
//!   pool whose [`par::map_indexed`] returns results in input order, so
//!   byte-level work parallelizes while the timing plane stays serial.
//!
//! The kernel deliberately avoids global state and interior mutability:
//! simulations own their clocks and resources, which keeps multi-device
//! experiments (e.g. the multi-SSD scaling study) trivially independent.
//!
//! ## Example
//!
//! ```
//! use simkit::{BandwidthLink, SimDuration, SimTime, Timeline};
//!
//! // A 1 GB/s link transferring 64 KiB starting at t = 1 µs.
//! let mut link = BandwidthLink::new(1_000_000_000);
//! let win = link.transfer(SimTime::from_us(1), 64 * 1024);
//! assert_eq!(win.start, SimTime::from_us(1));
//! assert_eq!(win.end - win.start, SimDuration::from_ns(65_536));
//!
//! // A unit resource serializes overlapping requests.
//! let mut plane = Timeline::new("plane");
//! let a = plane.acquire(SimTime::ZERO, SimDuration::from_us(40));
//! let b = plane.acquire(SimTime::ZERO, SimDuration::from_us(40));
//! assert_eq!(b.start, a.end);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod resource;
mod time;

pub mod par;
pub mod pool;
pub mod slab;
pub mod stats;

pub use resource::{BandwidthLink, Timeline, Window};
pub use time::{SimDuration, SimTime};
