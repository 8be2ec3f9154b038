//! Error type for illegal NAND operations.
//!
//! NAND imposes a strict discipline — erase before program, program pages in
//! order, never reprogram — and the die model enforces it so that bugs in
//! the FTL or the in-storage update scheduler surface as errors instead of
//! silently corrupting simulated data.

use crate::geometry::{BlockAddr, PhysPage};
use simkit::SimTime;
use std::error::Error;
use std::fmt;

/// An illegal operation against the NAND array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// The address does not exist on this die.
    BadAddress(PhysPage),
    /// The block address does not exist on this die.
    BadBlock(BlockAddr),
    /// Attempted to read a page that has never been programmed since the
    /// last erase.
    ReadUnwritten(PhysPage),
    /// Attempted to program a page out of sequence within its block
    /// (`expected` is the next programmable page index).
    OutOfOrderProgram {
        /// The offending page.
        page: PhysPage,
        /// The page index that must be programmed next in that block.
        expected: u32,
    },
    /// Attempted to program a page that is already programmed.
    Reprogram(PhysPage),
    /// The block has exceeded its rated program/erase cycles and is retired.
    WornOut(BlockAddr),
    /// Functional data was required (e.g. a read in functional mode) but the
    /// page was programmed without data (phantom write).
    NoData(PhysPage),
    /// Data length does not match the page size.
    WrongLength {
        /// The offending page.
        page: PhysPage,
        /// Bytes supplied by the caller.
        got: usize,
        /// Page size in bytes.
        want: usize,
    },
    /// The program operation reported bad status (injected media fault).
    /// The plane stayed busy for the full program latency; nothing was
    /// written. The block must be treated as bad and the page re-homed.
    ProgramFailed {
        /// The page whose program failed.
        page: PhysPage,
        /// When the plane frees after the failed attempt.
        busy_until: SimTime,
    },
    /// The erase operation reported bad status (injected media fault).
    /// The plane stayed busy for the full erase latency; the block keeps
    /// its old state and must be retired.
    EraseFailed {
        /// The block whose erase failed.
        block: BlockAddr,
        /// When the plane frees after the failed attempt.
        busy_until: SimTime,
    },
    /// The read came back with more raw bit errors than the ECC can
    /// correct, even after on-die read-retries (injected media fault). The
    /// plane stayed busy for the full (retried) sense latency.
    ReadUncorrectable {
        /// The page whose read failed.
        page: PhysPage,
        /// When the plane frees after the failed attempt.
        busy_until: SimTime,
    },
    /// Power failed at `at` before (or while) the operation could run. If
    /// the victim was an in-flight program, the page is now *torn*; an
    /// in-flight erase did not happen. The die refuses all further work
    /// until the crash is disarmed by a mount.
    PowerLoss {
        /// The instant the power failed.
        at: SimTime,
    },
}

impl NandError {}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BadAddress(p) => write!(f, "page address {p} out of range"),
            NandError::BadBlock(b) => {
                write!(f, "block address pl{}/blk{} out of range", b.plane, b.block)
            }
            NandError::ReadUnwritten(p) => write!(f, "read of unwritten page {p}"),
            NandError::OutOfOrderProgram { page, expected } => write!(
                f,
                "out-of-order program of {page}: next programmable page is {expected}"
            ),
            NandError::Reprogram(p) => write!(f, "reprogram of already-written page {p}"),
            NandError::WornOut(b) => write!(
                f,
                "block pl{}/blk{} exceeded rated P/E cycles",
                b.plane, b.block
            ),
            NandError::NoData(p) => {
                write!(f, "page {p} was programmed without data (phantom)")
            }
            NandError::WrongLength { page, got, want } => {
                write!(f, "transfer of {page} with {got} bytes (page size {want})")
            }
            NandError::ProgramFailed { page, busy_until } => {
                write!(f, "program of {page} reported bad status at {busy_until}")
            }
            NandError::EraseFailed { block, busy_until } => write!(
                f,
                "erase of pl{}/blk{} reported bad status at {busy_until}",
                block.plane, block.block
            ),
            NandError::ReadUncorrectable { page, busy_until } => {
                write!(f, "read of {page} ECC-uncorrectable at {busy_until}")
            }
            NandError::PowerLoss { at } => {
                write!(f, "power failed at {at}")
            }
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    impl NandError {
        /// True for injected media faults (recoverable by device policy), as
        /// opposed to protocol violations (bugs in the caller).
        pub fn is_media_fault(&self) -> bool {
            matches!(
                self,
                NandError::ProgramFailed { .. }
                    | NandError::EraseFailed { .. }
                    | NandError::ReadUncorrectable { .. }
            )
        }
    }

    #[test]
    fn display_messages_are_informative() {
        let p = PhysPage {
            plane: 1,
            block: 2,
            page: 3,
        };
        assert!(NandError::BadAddress(p)
            .to_string()
            .contains("pl1/blk2/pg3"));
        assert!(NandError::OutOfOrderProgram {
            page: p,
            expected: 0
        }
        .to_string()
        .contains("next programmable page is 0"));
        assert!(NandError::WrongLength {
            page: p,
            got: 5,
            want: 4096
        }
        .to_string()
        .contains("5 bytes"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(NandError::ReadUnwritten(PhysPage {
            plane: 0,
            block: 0,
            page: 0,
        }));
        assert!(e.to_string().contains("unwritten"));
    }
}
