//! Device-level statistics: traffic, write amplification, wear spread.

use simkit::stats::Counter;
use simkit::SimDuration;

/// Counters a [`crate::Device`] maintains across its lifetime.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Host page reads served.
    pub host_reads: Counter,
    /// Host page writes served.
    pub host_writes: Counter,
    /// Pages programmed on behalf of the host (user writes).
    pub user_programs: Counter,
    /// Pages copied by garbage collection.
    pub gc_copies: Counter,
    /// Blocks erased by garbage collection (or reclamation).
    pub erases: Counter,
    /// Pages programmed by the in-storage (NDP) path.
    pub ndp_programs: Counter,
    /// Pages read by the in-storage (NDP) path.
    pub ndp_reads: Counter,
    /// Cumulative busy time of the host link, inbound.
    pub pcie_in_busy: SimDuration,
    /// Cumulative busy time of the host link, outbound.
    pub pcie_out_busy: SimDuration,
    /// Program operations that reported bad status (injected media faults).
    pub program_failures: Counter,
    /// Erase operations that reported bad status (injected media faults).
    pub erase_failures: Counter,
    /// Device-level read-retry attempts issued after uncorrectable reads.
    pub read_retries: Counter,
    /// Reads that stayed uncorrectable after all retries (surfaced to the
    /// caller as [`crate::SsdError::UncorrectableRead`]).
    pub uncorrectable_reads: Counter,
    /// Blocks retired by the recovery policy after a media fault (wear-out
    /// retirements inside the dies are not included).
    pub retired_blocks: Counter,
    /// Valid pages relocated off blocks the recovery policy retired.
    pub rescue_copies: Counter,
    /// Successful mounts (crash-recovery scans) the device performed.
    pub mounts: Counter,
    /// Mapping-journal flushes (each durably writes ≥1 journal page).
    pub journal_flushes: Counter,
    /// Journal pages programmed — the crash-consistency write overhead.
    pub journal_pages: Counter,
    /// Torn pages (in-flight programs at a power loss) discarded at mount.
    pub torn_pages_discarded: Counter,
    /// Pages whose OOB had to be sensed at mount because the flushed
    /// journal did not cover them — what the flush interval buys down.
    pub mount_scanned_pages: Counter,
    /// RAIN parity pages programmed (stripe rebuilds at epoch commit) —
    /// the parity write overhead.
    pub parity_writes: Counter,
    /// Pages served by XOR reconstruction from stripe peers after the
    /// retry policy exhausted. These do **not** count as
    /// [`Self::uncorrectable_reads`]: that counter keeps its terminal
    /// data-lost meaning, so the two together distinguish "reconstructed
    /// from parity" from "data lost".
    pub parity_reconstructions: Counter,
    /// Mapped pages the background scrub patrol-read.
    pub scrub_reads: Counter,
    /// Latent losses the scrub found and repaired from parity (subset of
    /// [`Self::parity_reconstructions`]).
    pub scrub_repairs: Counter,
    /// Pages the scrub proactively rewrote because aging pushed their RBER
    /// near the ECC ceiling.
    pub scrub_refreshes: Counter,
}

impl DeviceStats {
    /// Write amplification factor: total pages programmed ÷ pages the host
    /// (or NDP client) logically wrote. 1.0 is perfect; GC and fault
    /// recovery push it up.
    pub fn waf(&self) -> f64 {
        let logical = self.user_programs.get() + self.ndp_programs.get();
        if logical == 0 {
            return 1.0;
        }
        (logical + self.gc_copies.get() + self.rescue_copies.get()) as f64 / logical as f64
    }

    /// Serializes every counter to a stable multi-line `name=value` text
    /// snapshot, one line per field in declaration order (durations in
    /// nanoseconds).
    pub fn to_snapshot(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.fields() {
            out.push_str(&format!("{name}={value}\n"));
        }
        out
    }

    /// Every field as a `(name, value)` pair, in declaration order.
    /// Durations are reported in nanoseconds.
    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("host_reads", self.host_reads.get()),
            ("host_writes", self.host_writes.get()),
            ("user_programs", self.user_programs.get()),
            ("gc_copies", self.gc_copies.get()),
            ("erases", self.erases.get()),
            ("ndp_programs", self.ndp_programs.get()),
            ("ndp_reads", self.ndp_reads.get()),
            ("pcie_in_busy_ns", self.pcie_in_busy.as_ns()),
            ("pcie_out_busy_ns", self.pcie_out_busy.as_ns()),
            ("program_failures", self.program_failures.get()),
            ("erase_failures", self.erase_failures.get()),
            ("read_retries", self.read_retries.get()),
            ("uncorrectable_reads", self.uncorrectable_reads.get()),
            ("retired_blocks", self.retired_blocks.get()),
            ("rescue_copies", self.rescue_copies.get()),
            ("mounts", self.mounts.get()),
            ("journal_flushes", self.journal_flushes.get()),
            ("journal_pages", self.journal_pages.get()),
            ("torn_pages_discarded", self.torn_pages_discarded.get()),
            ("mount_scanned_pages", self.mount_scanned_pages.get()),
            ("parity_writes", self.parity_writes.get()),
            ("parity_reconstructions", self.parity_reconstructions.get()),
            ("scrub_reads", self.scrub_reads.get()),
            ("scrub_repairs", self.scrub_repairs.get()),
            ("scrub_refreshes", self.scrub_refreshes.get()),
        ]
    }
}

/// Wear imbalance: max block erase count ÷ mean (1.0 = perfectly level).
pub fn wear_imbalance(erase_counts: impl Iterator<Item = u64>) -> f64 {
    let mut max = 0u64;
    let mut sum = 0u64;
    let mut n = 0u64;
    for c in erase_counts {
        max = max.max(c);
        sum += c;
        n += 1;
    }
    if n == 0 || sum == 0 {
        return 1.0;
    }
    max as f64 / (sum as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waf_without_gc_is_one() {
        let mut s = DeviceStats::default();
        s.user_programs.add(100);
        assert_eq!(s.waf(), 1.0);
    }

    #[test]
    fn waf_counts_gc_copies() {
        let mut s = DeviceStats::default();
        s.user_programs.add(100);
        s.gc_copies.add(25);
        assert!((s.waf() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn waf_of_idle_device_is_one() {
        assert_eq!(DeviceStats::default().waf(), 1.0);
    }

    #[test]
    fn ndp_programs_count_as_logical_writes() {
        let mut s = DeviceStats::default();
        s.ndp_programs.add(100);
        s.gc_copies.add(10);
        assert!((s.waf() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn rescue_copies_raise_waf_like_gc() {
        let mut s = DeviceStats::default();
        s.user_programs.add(100);
        s.rescue_copies.add(15);
        assert!((s.waf() - 1.15).abs() < 1e-12);
    }

    #[test]
    fn snapshot_text_pins_every_counter() {
        let mut s = DeviceStats::default();
        // Touch every field with a distinct value so a swapped or dropped
        // field cannot cancel out.
        s.host_reads.add(1);
        s.host_writes.add(2);
        s.user_programs.add(3);
        s.gc_copies.add(4);
        s.erases.add(5);
        s.ndp_programs.add(6);
        s.ndp_reads.add(7);
        s.pcie_in_busy = SimDuration::from_us(8);
        s.pcie_out_busy = SimDuration::from_us(9);
        s.program_failures.add(10);
        s.erase_failures.add(11);
        s.read_retries.add(12);
        s.uncorrectable_reads.add(13);
        s.retired_blocks.add(14);
        s.rescue_copies.add(15);
        s.mounts.add(16);
        s.journal_flushes.add(17);
        s.journal_pages.add(18);
        s.torn_pages_discarded.add(19);
        s.mount_scanned_pages.add(20);
        s.parity_writes.add(21);
        s.parity_reconstructions.add(22);
        s.scrub_reads.add(23);
        s.scrub_repairs.add(24);
        s.scrub_refreshes.add(25);

        let want = "host_reads=1\nhost_writes=2\nuser_programs=3\ngc_copies=4\nerases=5\n\
                    ndp_programs=6\nndp_reads=7\npcie_in_busy_ns=8000\npcie_out_busy_ns=9000\n\
                    program_failures=10\nerase_failures=11\nread_retries=12\n\
                    uncorrectable_reads=13\nretired_blocks=14\nrescue_copies=15\nmounts=16\n\
                    journal_flushes=17\njournal_pages=18\ntorn_pages_discarded=19\n\
                    mount_scanned_pages=20\nparity_writes=21\nparity_reconstructions=22\n\
                    scrub_reads=23\nscrub_repairs=24\nscrub_refreshes=25\n";
        assert_eq!(s.to_snapshot(), want);
    }

    /// Imbalance over level and skewed erase-count distributions.
    #[test]
    fn erase_histogram_and_imbalance() {
        let counts = [3u64, 3, 3, 3];
        assert_eq!(wear_imbalance(counts.iter().copied()), 1.0);
        let skewed = [9u64, 1, 1, 1];
        assert_eq!(wear_imbalance(skewed.iter().copied()), 3.0);
        assert_eq!(wear_imbalance(std::iter::empty()), 1.0);
    }
}
