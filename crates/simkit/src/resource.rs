//! Resource-occupancy models: [`Timeline`] (a serially reusable unit) and
//! [`BandwidthLink`] (a shared byte pipe).
//!
//! The SSD and NDP simulators are bandwidth-dominated, so they model
//! contention with *busy-until* scheduling: a request arriving at time `t`
//! on a resource busy until `b` starts at `max(t, b)` and occupies the
//! resource for its service time. This is exactly the discrete-event
//! semantics of an M/D/1-style server, collapsed to closed form — it keeps
//! million-page experiments fast while remaining cycle-faithful for
//! serialized resources.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A half-open occupancy window `[start, end)` granted by a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// When the request actually began service (≥ its arrival time).
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

impl Window {
    /// Service duration of the window.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A serially reusable resource: one request at a time, FIFO by arrival.
///
/// Examples in this repository: a NAND plane executing an array operation,
/// an on-die processing engine's ALU pipe, a GC copy engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    busy_until: SimTime,
    busy_total: SimDuration,
    requests: u64,
}

impl Timeline {
    /// Creates an idle resource. `_class` says what it models (`"plane"`,
    /// `"pcie-in"`) at the call site; the timeline does not keep it.
    pub fn new(_class: &'static str) -> Self {
        Timeline {
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
            requests: 0,
        }
    }

    /// Reserves the resource for `dur`, no earlier than `earliest`.
    /// Returns the granted window.
    pub fn acquire(&mut self, earliest: SimTime, dur: SimDuration) -> Window {
        let start = earliest.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_total += dur;
        self.requests += 1;
        Window { start, end }
    }

    /// The instant at which the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total time the resource has spent busy.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Resets occupancy and statistics to the idle state.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.busy_total = SimDuration::ZERO;
        self.requests = 0;
    }
}

/// A shared byte pipe with a fixed bandwidth: transfers serialize FIFO and
/// each occupies the pipe for `bytes / bandwidth`, plus the link's fixed
/// per-transfer overhead.
///
/// Examples: the PCIe host link and a DRAM port (no overhead), and an ONFI
/// channel bus, whose command/address cycles hold the bus on every
/// transfer. Array operations do not occupy a bus: a die-level engine
/// consumes page-register contents without a transfer, so its operand
/// bandwidth is the array's, not the bus's.
///
/// A link's traffic is mostly one size (a flash page), so it keeps the
/// duration of the last size it moved and divides only when the size
/// changes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthLink {
    timeline: Timeline,
    bytes_per_sec: u64,
    bytes_moved: u64,
    /// The per-transfer overhead in equivalent bytes, and their duration.
    overhead_bytes: u64,
    overhead: SimDuration,
    /// The last transfer size, and its [`SimDuration::for_transfer`] plus
    /// `overhead`.
    memo_bytes: u64,
    memo: SimDuration,
}

impl BandwidthLink {
    /// Creates an idle link moving `bytes_per_sec` bytes per second, with
    /// no per-transfer overhead.
    pub fn new(bytes_per_sec: u64) -> Self {
        Self::with_overhead(bytes_per_sec, SimDuration::ZERO)
    }

    /// Creates an idle link that holds the pipe for a fixed `overhead` on
    /// every transfer, such as an ONFI bus's command/address cycles. The
    /// overhead is converted once into equivalent bytes (rounded up) and
    /// their transfer time; each window then covers the payload followed
    /// by those bytes, and both count in [`bytes_moved`](Self::bytes_moved).
    pub fn with_overhead(bytes_per_sec: u64, overhead: SimDuration) -> Self {
        let overhead_bytes = (overhead.as_secs_f64() * bytes_per_sec as f64).ceil() as u64;
        let overhead = SimDuration::for_transfer(overhead_bytes, bytes_per_sec);
        BandwidthLink {
            timeline: Timeline::new("link"),
            bytes_per_sec,
            bytes_moved: 0,
            overhead_bytes,
            overhead,
            memo_bytes: 0,
            memo: SimDuration::for_transfer(0, bytes_per_sec) + overhead,
        }
    }

    /// Schedules a transfer of `bytes` arriving at `earliest`; returns its
    /// occupancy window (payload, then the link's overhead).
    pub fn transfer(&mut self, earliest: SimTime, bytes: u64) -> Window {
        if bytes != self.memo_bytes {
            self.memo_bytes = bytes;
            self.memo = SimDuration::for_transfer(bytes, self.bytes_per_sec) + self.overhead;
        }
        self.bytes_moved = self
            .bytes_moved
            .saturating_add(bytes)
            .saturating_add(self.overhead_bytes);
        self.timeline.acquire(earliest, self.memo)
    }

    /// The instant at which the link next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.timeline.free_at()
    }

    /// Configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Total bytes moved since creation (or the last [`reset`](Self::reset)).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total time the link has spent busy.
    pub fn busy_total(&self) -> SimDuration {
        self.timeline.busy_total()
    }

    /// Number of transfers served.
    pub fn transfers(&self) -> u64 {
        self.timeline.requests()
    }

    /// Resets occupancy and statistics to the idle state.
    pub fn reset(&mut self) {
        self.timeline.reset();
        self.bytes_moved = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timeline_serializes_requests() {
        let mut t = Timeline::new("plane");
        let a = t.acquire(SimTime::ZERO, SimDuration::from_us(40));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_us(40));
        // Arrives while busy: queued behind `a`.
        let b = t.acquire(SimTime::from_us(10), SimDuration::from_us(40));
        assert_eq!(b.start, SimTime::from_us(40));
        assert_eq!(b.end, SimTime::from_us(80));
        // Arrives after the resource went idle: starts immediately.
        let c = t.acquire(SimTime::from_us(100), SimDuration::from_us(5));
        assert_eq!(c.start, SimTime::from_us(100));
        assert_eq!(t.requests(), 3);
        assert_eq!(t.busy_total(), SimDuration::from_us(85));
    }

    #[test]
    fn link_transfer_time_matches_bandwidth() {
        // 2 GB/s link, 1 MiB transfer → 524 288 ns.
        let mut l = BandwidthLink::new(2_000_000_000);
        let w = l.transfer(SimTime::ZERO, 1 << 20);
        assert_eq!(w.duration(), SimDuration::from_ns(524_288));
        assert_eq!(l.bytes_moved(), 1 << 20);
    }

    #[test]
    fn link_back_to_back_transfers_queue() {
        let mut l = BandwidthLink::new(1_000_000_000);
        let w1 = l.transfer(SimTime::ZERO, 1_000);
        let w2 = l.transfer(SimTime::ZERO, 1_000);
        assert_eq!(w1.end, w2.start);
        assert_eq!(l.transfers(), 2);
    }

    /// The cost of a transfer on a link that just moved another size.
    fn fresh_after(bps: u64, before: u64, bytes: u64) -> SimDuration {
        let mut l = BandwidthLink::new(bps);
        l.transfer(SimTime::ZERO, before);
        l.reset();
        l.transfer(SimTime::ZERO, bytes).duration()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over sizes on both sides of the point where `bytes · 10⁹`
        /// overflows a `u64`, repeated or alternating, every window equals
        /// `for_transfer`, and a link's overhead adds exactly the duration
        /// and bytes of its equivalent bytes to every transfer.
        #[test]
        fn memoized_transfers_match_for_transfer(
            which in 0usize..4,
            sizes in prop::collection::vec((0u8..4, -3i64..4), 1..12),
            rate in 1u64..u64::MAX,
            tail_ns in 0u64..2048,
        ) {
            const EDGE: u64 = u64::MAX / 1_000_000_000;
            let bps = [rate, 1, 1_200_000_000, u64::MAX][which];
            let overhead = SimDuration::from_ns(tail_ns);
            let tail_bytes = (overhead.as_secs_f64() * bps as f64).ceil() as u64;
            let tail = SimDuration::for_transfer(tail_bytes, bps);
            let mut link = BandwidthLink::new(bps);
            let mut bus = BandwidthLink::with_overhead(bps, overhead);
            for (base, delta) in sizes {
                let base = [0, 16_384, EDGE, u64::MAX - 3][base as usize];
                let bytes = base.saturating_add_signed(delta);
                let want = SimDuration::for_transfer(bytes, bps);
                // `reset` clears occupancy but keeps the memo, so each
                // window starts at zero and only saturates at `SimTime::MAX`.
                link.reset();
                let w = link.transfer(SimTime::ZERO, bytes);
                prop_assert_eq!(w.end, SimTime::ZERO + want, "{} B at {} B/s", bytes, bps);
                prop_assert_eq!(fresh_after(bps, bytes ^ 1, bytes), want);
                bus.reset();
                let w1 = bus.transfer(SimTime::ZERO, bytes);
                let w2 = bus.transfer(SimTime::ZERO, bytes);
                prop_assert_eq!(w1.end, SimTime::ZERO + (want + tail));
                prop_assert_eq!((w2.start, w2.end), (w1.end, w1.end + (want + tail)));
                let moved = bytes.saturating_add(tail_bytes);
                prop_assert_eq!(bus.bytes_moved(), moved.saturating_add(moved));
            }
        }
    }

    #[test]
    fn tail_counts_bytes_and_busy_time() {
        let mut l = BandwidthLink::with_overhead(1_000_000_000, SimDuration::from_ns(10));
        let w = l.transfer(SimTime::ZERO, 1_000);
        assert_eq!(w.duration(), SimDuration::from_ns(1_010));
        assert_eq!(l.bytes_moved(), 1_010);
        assert_eq!(l.busy_total(), SimDuration::from_ns(1_010));
        assert_eq!(l.transfers(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut l = BandwidthLink::new(1_000_000_000);
        l.transfer(SimTime::ZERO, 1_000);
        l.reset();
        assert_eq!(l.bytes_moved(), 0);
        assert_eq!(l.free_at(), SimTime::ZERO);
        assert_eq!(l.busy_total(), SimDuration::ZERO);
    }

    #[test]
    fn window_duration() {
        let w = Window {
            start: SimTime::from_ns(10),
            end: SimTime::from_ns(35),
        };
        assert_eq!(w.duration(), SimDuration::from_ns(25));
    }
}
