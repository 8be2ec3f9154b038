//! Device-level error type.

use crate::address::{DieId, Lpn, Ppa};
use nandsim::NandError;
use simkit::SimTime;
use std::error::Error;
use std::fmt;

/// An error from the device or its FTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// Logical page number beyond the host-visible capacity.
    LpnOutOfRange {
        /// The offending LPN.
        lpn: Lpn,
        /// Host-visible capacity in pages.
        capacity: u64,
    },
    /// Read of a logical page that has never been written.
    Unmapped(Lpn),
    /// A die ran out of free blocks even after garbage collection — the
    /// device is out of usable space (or over-provisioning is too small).
    OutOfSpace(DieId),
    /// The underlying NAND refused an operation (bug in the FTL or wear-out).
    Nand(NandError),
    /// Data length does not match the page size.
    WrongLength {
        /// Bytes supplied.
        got: usize,
        /// Page size.
        want: usize,
    },
    /// A read stayed ECC-uncorrectable after the device exhausted its
    /// bounded read-retries — the media fault could not be masked and the
    /// page's data is lost. Clients with redundancy (the in-storage
    /// optimizer replays the update group) recover above this layer.
    UncorrectableRead {
        /// The logical page whose data is unreadable.
        lpn: Lpn,
        /// Read attempts performed (initial read plus retries).
        attempts: u32,
    },
    /// The simulated power failed at `at`: the device refuses all work
    /// until [`crate::Device::mount`] brings it back. A page program that
    /// was in flight at the instant is now a torn page.
    PowerLoss {
        /// The instant the power failed.
        at: SimTime,
    },
    /// A physical page the die holds valid has no logical owner in the
    /// FTL's reverse map, so relocation cannot tell whose data it is: the
    /// mapping tables are inconsistent (a bug, not a media fault).
    OrphanPage(Ppa),
    /// [`crate::Device::mount`] was called on a device built without a
    /// journal ([`crate::SsdConfig::journal`]): there is nothing to replay.
    NoJournal,
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "{lpn} out of range (capacity {capacity} pages)")
            }
            SsdError::Unmapped(lpn) => write!(f, "read of unmapped {lpn}"),
            SsdError::OutOfSpace(d) => write!(f, "die {d} has no free blocks after GC"),
            SsdError::Nand(e) => write!(f, "nand: {e}"),
            SsdError::WrongLength { got, want } => {
                write!(f, "page data is {got} bytes, expected {want}")
            }
            SsdError::UncorrectableRead { lpn, attempts } => {
                write!(f, "{lpn} uncorrectable after {attempts} read attempts")
            }
            SsdError::PowerLoss { at } => {
                write!(f, "power failed at {at}; mount the device to recover")
            }
            SsdError::OrphanPage(ppa) => {
                write!(f, "valid page {ppa} has no logical owner")
            }
            SsdError::NoJournal => write!(f, "mount needs a journal-enabled device"),
        }
    }
}

impl Error for SsdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SsdError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for SsdError {
    fn from(e: NandError) -> Self {
        match e {
            // Power loss is a device-wide condition, not a per-die protocol
            // error: surface it typed so callers can mount-and-recover.
            NandError::PowerLoss { at } => SsdError::PowerLoss { at },
            other => SsdError::Nand(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nandsim::PhysPage;

    #[test]
    fn displays_and_sources() {
        let e = SsdError::LpnOutOfRange {
            lpn: Lpn(9),
            capacity: 4,
        };
        assert!(e.to_string().contains("lpn9"));
        let nand = SsdError::from(NandError::ReadUnwritten(PhysPage {
            plane: 0,
            block: 0,
            page: 0,
        }));
        assert!(nand.to_string().contains("unwritten"));
        assert!(Error::source(&nand).is_some());
        assert!(Error::source(&SsdError::Unmapped(Lpn(1))).is_none());
        let unc = SsdError::UncorrectableRead {
            lpn: Lpn(2),
            attempts: 5,
        };
        assert!(unc.to_string().contains("5 read attempts"));
        let orphan = SsdError::OrphanPage(Ppa {
            die: DieId {
                channel: 1,
                index: 0,
            },
            page: PhysPage {
                plane: 1,
                block: 3,
                page: 7,
            },
        });
        assert!(orphan.to_string().contains("has no logical owner"));
        assert!(Error::source(&orphan).is_none());
        assert!(SsdError::NoJournal.to_string().contains("journal"));
    }
}
