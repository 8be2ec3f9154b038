//! Sudden-power-off (SPO) injection and the per-page out-of-band (OOB)
//! metadata that makes recovery from it possible.
//!
//! A power fault is different in kind from the media faults in
//! [`crate::fault`]: it does not fail one operation, it kills the *whole
//! device* at an instant. Every operation that would start at or after the
//! crash instant is refused, and a page program that is in flight when the
//! power drops becomes a **torn page** — the cells hold a partial charge
//! pattern that fails every later read, exactly like real NAND after SPO.
//! An in-flight erase is conservatively modelled as not-happened (the block
//! keeps its old contents), which is the worst case for the FTL because a
//! stale copy of relocated data survives.
//!
//! The crash instant is fixed by the caller — a crash schedule or a test
//! picks it — so a given `(instant, workload)` pair always tears the same
//! page.
//!
//! OOB metadata is the durable half of the story: the controller stamps
//! every programmed page with its logical owner, the optimizer-step epoch,
//! and a device-wide sequence number. After power returns, a mount scan
//! reads these stamps back to rebuild the mapping tables; a torn page has
//! no trustworthy stamp (the die returns `None` for it) and is discarded.

use serde::{Deserialize, Serialize};
use simkit::SimTime;

/// Out-of-band metadata stamped alongside every data-page program.
///
/// 16 bytes of a real page's OOB area would hold this comfortably; the
/// simulator keeps it as a typed record. The mount scan trusts only these
/// stamps (plus the torn-page flag) — never RAM state — when rebuilding
/// the mapping tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageOob {
    /// Logical page that owns this physical page.
    pub lpn: u64,
    /// Optimizer-step epoch the write belongs to. Pages whose epoch
    /// exceeds the last durably committed epoch are rolled back at mount.
    pub epoch: u64,
    /// Device-wide monotonically increasing program sequence number.
    /// Among surviving copies of the same LPN, the highest committed
    /// seqno wins.
    pub seqno: u64,
}

/// When the simulated power fails: one fixed instant. One config describes
/// one crash; a double-crash test arms a second config after the first
/// mount begins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLossConfig {
    at: SimTime,
}

impl PowerLossConfig {
    /// Power fails at exactly `t`.
    pub fn at(t: SimTime) -> Self {
        PowerLossConfig { at: t }
    }

    /// The crash instant this configuration describes.
    pub fn crash_time(&self) -> SimTime {
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_instant_is_exact() {
        let cfg = PowerLossConfig::at(SimTime::from_us(42));
        assert_eq!(cfg.crash_time(), SimTime::from_us(42));
    }
}
