//! The ONFI channel bus shared by all dies on a channel.
//!
//! Data moves between the controller and a die's page register over this
//! bus; array operations themselves do not occupy it. This split is the
//! physical fact OptimStore exploits: a die-level processing engine consumes
//! page-register contents *without* a bus transfer, so its operand bandwidth
//! is the array's, not the bus's.

use crate::timing::NandTiming;
use simkit::{BandwidthLink, SimDuration, SimTime, Window};

/// An ONFI bus: a [`BandwidthLink`] at the configured transfer rate plus a
/// fixed command/address overhead per operation.
///
/// The overhead is modelled as bus occupancy: it is converted once, at
/// construction, into equivalent bus bytes (rounded up) and their transfer
/// time, and every data transfer holds the bus for its payload followed by
/// that overhead.
#[derive(Debug, Clone)]
pub struct OnfiBus {
    link: BandwidthLink,
    /// The command/address overhead in equivalent bus bytes.
    overhead_bytes: u64,
    /// Bus time of `overhead_bytes`.
    overhead: SimDuration,
}

impl OnfiBus {
    /// Creates a bus from channel `timing` (rate = `io_mts` MT/s).
    pub fn new(timing: &NandTiming) -> Self {
        let rate = timing.bus_bytes_per_sec();
        let overhead_bytes = (timing.t_cmd_overhead.as_secs_f64() * rate as f64).ceil() as u64;
        OnfiBus {
            link: BandwidthLink::new(rate),
            overhead_bytes,
            overhead: SimDuration::for_transfer(overhead_bytes, rate),
        }
    }

    /// Schedules a data transfer of `bytes` (either direction) arriving at
    /// `earliest`; the window covers the payload and then the
    /// command/address overhead.
    pub fn transfer(&mut self, earliest: SimTime, bytes: u64) -> Window {
        self.link
            .transfer_then(earliest, bytes, self.overhead_bytes, self.overhead)
    }

    /// Schedules a pure command (no data payload), e.g. an erase issue.
    pub fn command(&mut self, earliest: SimTime) -> Window {
        self.link.transfer(earliest, self.overhead_bytes.max(1))
    }

    /// The instant at which the bus next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.link.free_at()
    }

    /// Total bytes moved (including command-overhead equivalents).
    pub fn bytes_moved(&self) -> u64 {
        self.link.bytes_moved()
    }

    /// Total busy time.
    pub fn busy_total(&self) -> SimDuration {
        self.link.busy_total()
    }

    /// Utilization over `[0, horizon)`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.link.utilization(horizon)
    }

    /// Bus bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.link.bytes_per_sec()
    }

    /// Resets occupancy and statistics.
    pub fn reset(&mut self) {
        self.link.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{NandConfig, NandTiming};

    #[test]
    fn transfer_includes_overhead() {
        let t = NandTiming::tlc();
        let mut bus = OnfiBus::new(&t);
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
            let mut bus = OnfiBus::new(&t);
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
        let mut bus = OnfiBus::new(&t);
        let a = bus.transfer(SimTime::ZERO, 4096);
        let b = bus.transfer(SimTime::ZERO, 4096);
        assert!(b.start >= a.end);
    }

    #[test]
    fn command_occupies_briefly() {
        let t = NandTiming::tlc();
        let mut bus = OnfiBus::new(&t);
        let w = bus.command(SimTime::ZERO);
        assert!(w.duration() >= SimDuration::from_ns(300));
        assert!(w.duration() <= SimDuration::from_us(1));
    }

    #[test]
    fn reset_clears() {
        let t = NandTiming::tlc();
        let mut bus = OnfiBus::new(&t);
        bus.transfer(SimTime::ZERO, 4096);
        bus.reset();
        assert_eq!(bus.bytes_moved(), 0);
        assert_eq!(bus.free_at(), SimTime::ZERO);
    }
}
