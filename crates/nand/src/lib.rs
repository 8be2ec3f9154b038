//! # nandsim — NAND flash die model
//!
//! A functional **and** timing-accurate model of a single NAND flash die,
//! the unit of storage (and, in OptimStore, of compute placement) inside an
//! SSD. The `ssdsim` crate composes many dies into channels and a device;
//! the OptimStore core places per-die processing engines next to them.
//!
//! What is modelled, and why it matters for the paper's argument:
//!
//! * **Geometry** ([`NandGeometry`]): planes → blocks → pages. Plane count
//!   bounds intra-die parallelism; page size sets the granularity of every
//!   transfer the optimizer update performs.
//! * **Timing** ([`NandTiming`]): array read (`tR`), program (`tPROG`) and
//!   erase (`tBERS`) latencies, including per-page-type read latencies for
//!   TLC (lower pages read faster than upper pages). These latencies are
//!   what internal bandwidth — the quantity OptimStore exploits — is made of.
//! * **Program/erase discipline** ([`Die`]): pages within a block must be
//!   programmed sequentially and only after an erase; violating clients get
//!   a [`NandError`], which is how the FTL tests prove the mapping layer is
//!   honest.
//! * **Data** ([`store`]): pages can carry real bytes (functional mode,
//!   one pooled buffer per page, verified bit-exactly by the
//!   integration tests) or be *phantom* (timing/accounting only) so
//!   175-billion-parameter experiments fit in host memory.
//! * **Wear** ([`wear`]): per-block P/E counts and an analytic raw-bit-error
//!   model, feeding the endurance experiment (reconstructed Figure 11), plus
//!   an additive aging model ([`AgingConfig`]) where RBER also grows with
//!   per-block read counts (read disturb) and simulated time since last
//!   program (retention) — the substrate of the reliability sweep
//!   (reconstructed Figure 26).
//! * **Faults** ([`fault`]): seeded, deterministic injection of program/
//!   erase status failures and ECC-uncorrectable reads, wear-coupled
//!   through the RBER model — the substrate of the recovery subsystem and
//!   the fault sweep (reconstructed Figure 24).
//! * **Power loss** ([`power`]): a sudden-power-off instant, fixed by the
//!   caller, that tears an in-flight page program and refuses all later
//!   operations, plus the per-page OOB stamps (lpn, epoch, seqno) that
//!   mount recovery scans to rebuild the mapping — the substrate of the
//!   crash-consistency subsystem (reconstructed Figure 25).
//!
//! ## Example
//!
//! ```
//! use nandsim::{Die, NandConfig, PhysPage};
//! use simkit::{pool::PageBuf, SimTime};
//!
//! let mut die = Die::new_functional(0, NandConfig::tlc_1tb_die());
//! let page = PhysPage { plane: 0, block: 0, page: 0 };
//! // Program then read one page, functionally: the die stores the page
//! // buffer it is handed, a read senses the page into the page register,
//! // and the consumer borrows its bytes where they rest.
//! let data = vec![0xAB; die.config().geometry.page_bytes as usize];
//! let w = die
//!     .program_page(page, SimTime::ZERO, &mut Some(PageBuf::copy_of(&data)))
//!     .unwrap();
//! let r = die.read_page(page, w.end).unwrap();
//! assert!(r.end > w.end);
//! assert_eq!(die.page_data(page).unwrap(), &data[..]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod die;
mod error;
mod geometry;
mod timing;

pub mod fault;
pub mod power;
pub mod store;
pub mod wear;

pub use die::{Die, DieStats};
pub use error::NandError;
pub use fault::{FaultConfig, FaultInjector, FaultStats};
pub use geometry::{BlockAddr, NandGeometry, PhysPage};
pub use power::{PageOob, PowerLossConfig};
pub use timing::{NandConfig, NandTiming, PageType};
pub use wear::AgingConfig;

#[cfg(test)]
mod bus {
    //! A channel's ONFI bus is a [`simkit::BandwidthLink`] built with
    //! `with_overhead(timing.bus_bytes_per_sec(), timing.t_cmd_overhead)`;
    //! these tests pin its cost on the die timings this crate ships.

    mod tests {
        use crate::timing::{NandConfig, NandTiming};
        use simkit::{BandwidthLink, SimDuration, SimTime};

        fn onfi_bus(t: &NandTiming) -> BandwidthLink {
            BandwidthLink::with_overhead(t.bus_bytes_per_sec(), t.t_cmd_overhead)
        }

        #[test]
        fn transfer_includes_overhead() {
            let t = NandTiming::tlc();
            let mut bus = onfi_bus(&t);
            let w = bus.transfer(SimTime::ZERO, 16 * 1024);
            // 16 KiB at 1.2 GB/s ≈ 13.65 µs plus 400 ns overhead.
            let pure = SimDuration::for_transfer(16 * 1024, t.bus_bytes_per_sec());
            assert!(w.duration() >= pure + SimDuration::from_ns(399));
            assert!(w.duration() < pure + SimDuration::from_ns(800));
        }

        /// A page transfer holds the bus for its payload and then the
        /// overhead's equivalent bytes, each at the bus rate, on every die
        /// timing the simulator ships.
        #[test]
        fn page_window_is_payload_plus_overhead_bytes() {
            for config in [NandConfig::tlc_1tb_die(), NandConfig::tiny_test_die()] {
                let t = config.timing;
                let rate = t.bus_bytes_per_sec();
                let page = config.geometry.page_bytes as u64;
                let overhead_bytes = (t.t_cmd_overhead.as_secs_f64() * rate as f64).ceil() as u64;
                let want = SimDuration::for_transfer(page, rate)
                    + SimDuration::for_transfer(overhead_bytes, rate);
                let mut bus = onfi_bus(&t);
                let mut at = SimTime::ZERO;
                for _ in 0..3 {
                    let w = bus.transfer(at, page);
                    assert_eq!(w.start, at);
                    assert_eq!(w.duration(), want);
                    at = w.end + SimDuration::from_ns(5);
                }
                assert_eq!(bus.bytes_moved(), 3 * (page + overhead_bytes));
            }
        }

        #[test]
        fn transfers_serialize() {
            let t = NandTiming::tlc();
            let mut bus = onfi_bus(&t);
            let a = bus.transfer(SimTime::ZERO, 4096);
            let b = bus.transfer(SimTime::ZERO, 4096);
            assert!(b.start >= a.end);
        }

        /// A bare command (no payload) holds the bus for the overhead alone.
        #[test]
        fn command_occupies_briefly() {
            let t = NandTiming::tlc();
            let mut bus = onfi_bus(&t);
            let w = bus.transfer(SimTime::ZERO, 0);
            assert!(w.duration() >= SimDuration::from_ns(300));
            assert!(w.duration() <= SimDuration::from_us(1));
        }

        #[test]
        fn reset_clears() {
            let t = NandTiming::tlc();
            let mut bus = onfi_bus(&t);
            bus.transfer(SimTime::ZERO, 4096);
            bus.reset();
            assert_eq!(bus.bytes_moved(), 0);
            assert_eq!(bus.free_at(), SimTime::ZERO);
        }
    }
}
