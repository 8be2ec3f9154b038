//! Device-level addressing: logical pages, die identifiers, and physical
//! page addresses spanning the whole device.

use nandsim::PhysPage;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A logical page number: the host-visible address unit (one NAND page of
/// user data). The FTL maps each `Lpn` to a [`Ppa`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Lpn(pub u64);

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpn{}", self.0)
    }
}

/// Identifies one die within the device by channel and position on that
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DieId {
    /// Channel index.
    pub channel: u32,
    /// Die index within the channel.
    pub index: u32,
}

impl DieId {
    /// Channels a packed [`Ppa`] can address (its channel field's range).
    pub const MAX_CHANNELS: u32 = 1 << PPA_DIE_FIELD_BITS;
    /// Dies per channel a packed [`Ppa`] can address (its die-index
    /// field's range).
    pub const MAX_DIES_PER_CHANNEL: u32 = 1 << PPA_DIE_FIELD_BITS;

    /// Flat die index given `dies_per_channel`.
    pub fn flat(&self, dies_per_channel: u32) -> u32 {
        self.channel * dies_per_channel + self.index
    }

    /// Inverse of [`flat`](Self::flat).
    pub fn from_flat(flat: u32, dies_per_channel: u32) -> DieId {
        DieId {
            channel: flat / dies_per_channel,
            index: flat % dies_per_channel,
        }
    }
}

impl fmt::Display for DieId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}.die{}", self.channel, self.index)
    }
}

/// Width of each of the packed [`Ppa`]'s channel and die-index fields.
const PPA_DIE_FIELD_BITS: u32 = 10;
const PPA_DIE_FIELD_MASK: u64 = (1 << PPA_DIE_FIELD_BITS) - 1;

/// A physical page address: a die plus a page within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ppa {
    /// Which die.
    pub die: DieId,
    /// Which page on that die.
    pub page: PhysPage,
}

impl Ppa {
    /// Packs the address into a `u64` for compact L2P tables.
    ///
    /// Layout (low→high): page 16 b | block 20 b | plane 4 b | die index
    /// 10 b | channel 10 b. The die keeps its two coordinates, so unpacking
    /// needs no division. A set bit 63 marks "present" so `0` can mean
    /// "unmapped". [`crate::SsdConfig::validate`] rejects geometries whose
    /// channels or dies per channel exceed the fields.
    pub fn pack(&self) -> u64 {
        debug_assert!(self.die.channel < DieId::MAX_CHANNELS);
        debug_assert!(self.die.index < DieId::MAX_DIES_PER_CHANNEL);
        (1u64 << 63)
            | ((self.die.channel as u64) << 50)
            | ((self.die.index as u64) << 40)
            | ((self.page.plane as u64) << 36)
            | ((self.page.block as u64) << 16)
            | self.page.page as u64
    }

    /// Inverse of [`pack`](Self::pack); `None` for the unmapped sentinel.
    pub fn unpack(packed: u64) -> Option<Ppa> {
        if packed & (1 << 63) == 0 {
            return None;
        }
        Some(Ppa {
            die: DieId {
                channel: ((packed >> 50) & PPA_DIE_FIELD_MASK) as u32,
                index: ((packed >> 40) & PPA_DIE_FIELD_MASK) as u32,
            },
            page: PhysPage {
                plane: ((packed >> 36) & 0xF) as u32,
                block: ((packed >> 16) & 0xF_FFFF) as u32,
                page: (packed & 0xFFFF) as u32,
            },
        })
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.die, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_id_flat_round_trips() {
        for ch in 0..16 {
            for idx in 0..8 {
                let d = DieId {
                    channel: ch,
                    index: idx,
                };
                assert_eq!(DieId::from_flat(d.flat(8), 8), d);
            }
        }
    }

    #[test]
    fn ppa_pack_round_trips() {
        let p = Ppa {
            die: DieId {
                channel: 15,
                index: 7,
            },
            page: PhysPage {
                plane: 3,
                block: 1363,
                page: 1535,
            },
        };
        // Every field at its maximum, and each field alone at its maximum
        // with the others zero: no field spills into a neighbour.
        let max = Ppa {
            die: DieId {
                channel: DieId::MAX_CHANNELS - 1,
                index: DieId::MAX_DIES_PER_CHANNEL - 1,
            },
            page: PhysPage {
                plane: 0xF,
                block: 0xF_FFFF,
                page: 0xFFFF,
            },
        };
        let zero = Ppa {
            die: DieId {
                channel: 0,
                index: 0,
            },
            page: PhysPage {
                plane: 0,
                block: 0,
                page: 0,
            },
        };
        let alone = [
            Ppa {
                die: DieId {
                    channel: max.die.channel,
                    ..zero.die
                },
                ..zero
            },
            Ppa {
                die: DieId {
                    index: max.die.index,
                    ..zero.die
                },
                ..zero
            },
            Ppa {
                page: PhysPage {
                    plane: max.page.plane,
                    ..zero.page
                },
                ..zero
            },
            Ppa {
                page: PhysPage {
                    block: max.page.block,
                    ..zero.page
                },
                ..zero
            },
            Ppa {
                page: PhysPage {
                    page: max.page.page,
                    ..zero.page
                },
                ..zero
            },
        ];
        for q in [p, max, zero].into_iter().chain(alone) {
            assert_eq!(Ppa::unpack(q.pack()), Some(q), "{q}");
        }
    }

    #[test]
    fn zero_is_unmapped() {
        assert_eq!(Ppa::unpack(0), None);
    }

    #[test]
    fn display_formats() {
        let p = Ppa {
            die: DieId {
                channel: 1,
                index: 2,
            },
            page: PhysPage {
                plane: 0,
                block: 5,
                page: 9,
            },
        };
        assert_eq!(p.to_string(), "ch1.die2/pl0/blk5/pg9");
        assert_eq!(Lpn(3).to_string(), "lpn3");
    }
}
