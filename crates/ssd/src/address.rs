//! Device-level addressing: logical pages, die identifiers, and physical
//! page addresses spanning the whole device.

use nandsim::{NandGeometry, PhysPage};
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
    /// The most channels a device may have.
    pub const MAX_CHANNELS: u32 = 1 << 10;
    /// The most dies a channel may carry.
    pub const MAX_DIES_PER_CHANNEL: u32 = 1 << 10;

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

/// A physical page address: a die plus a page within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ppa {
    /// Which die.
    pub die: DieId,
    /// Which page on that die.
    pub page: PhysPage,
}

/// The 32-bit L2P entry of a [`Ppa`] on one device.
///
/// The entry holds a bit-field code of the address, fields low→high page |
/// block | plane | die index | channel. Each field is ⌈log₂ n⌉ bits wide
/// for the n values it takes on this device, so a field with one possible
/// value takes none. The code is stored plus one, so an all-zero entry
/// means "unmapped" and a fresh table is zero-filled memory. Encoding and
/// decoding are shifts and masks only. [`crate::SsdConfig::validate`]
/// rejects a device whose largest entry needs more than 32 bits
/// ([`entry_bits`](Self::entry_bits)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpaCodec {
    /// Each field's shift, low→high: page, block, plane, die index,
    /// channel. The page field's is always 0, and a field of no bits
    /// takes shift 0 too, so every shift is below 32 on a device whose
    /// entries fit.
    shift: [u32; 5],
    /// Each field's mask, applied after shifting it down.
    mask: [u32; 5],
    /// Bits the largest entry (every field at its maximum, plus one)
    /// needs.
    entry_bits: u32,
}

impl PpaCodec {
    /// The code of a device of `channels` × `dies_per_channel` dies of
    /// geometry `geo`.
    pub fn new(channels: u32, dies_per_channel: u32, geo: &NandGeometry) -> Self {
        let ranges = [
            geo.pages_per_block,
            geo.blocks_per_plane,
            geo.planes,
            dies_per_channel,
            channels,
        ];
        let (mut shift, mut mask, mut at, mut top) = ([0; 5], [0; 5], 0, 0u64);
        for (i, n) in ranges.into_iter().enumerate() {
            let bits = u32::BITS - n.saturating_sub(1).leading_zeros();
            if bits > 0 {
                (shift[i], mask[i]) = (at, ((1u64 << bits) - 1) as u32);
            }
            top |= u64::from(n.saturating_sub(1)) << at;
            at += bits;
        }
        PpaCodec {
            shift,
            mask,
            entry_bits: u64::BITS - (top + 1).leading_zeros(),
        }
    }

    /// Bits the device's largest entry needs; it fits an L2P entry when
    /// this is at most 32.
    pub fn entry_bits(&self) -> u32 {
        self.entry_bits
    }

    /// The entry of `ppa`, never 0. The caller must hold a codec whose
    /// entries fit ([`entry_bits`](Self::entry_bits) at most 32), as
    /// [`L2pTable::new`](crate::ftl::L2pTable::new) checks.
    #[inline]
    pub fn encode(&self, ppa: Ppa) -> u32 {
        let [_, block, plane, index, channel] = self.shift;
        debug_assert!(self.entry_bits <= u32::BITS, "{} bits", self.entry_bits);
        debug_assert!(
            [
                ppa.page.page,
                ppa.page.block,
                ppa.page.plane,
                ppa.die.index,
                ppa.die.channel
            ]
            .iter()
            .zip(self.mask)
            .all(|(&f, m)| f <= m),
            "{ppa} is off the device"
        );
        (ppa.page.page
            | ppa.page.block << block
            | ppa.page.plane << plane
            | ppa.die.index << index
            | ppa.die.channel << channel)
            + 1
    }

    /// Inverse of [`encode`](Self::encode); `None` for the unmapped entry 0.
    #[inline]
    pub fn decode(&self, entry: u32) -> Option<Ppa> {
        let code = entry.checked_sub(1)?;
        let [_, block, plane, index, channel] = self.shift;
        let m = self.mask;
        Some(Ppa {
            die: DieId {
                channel: code >> channel & m[4],
                index: code >> index & m[3],
            },
            page: PhysPage {
                plane: code >> plane & m[2],
                block: code >> block & m[1],
                page: code & m[0],
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
    use proptest::prelude::*;

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

    fn geometry(pages_per_block: u32, blocks_per_plane: u32, planes: u32) -> NandGeometry {
        NandGeometry {
            planes,
            blocks_per_plane,
            pages_per_block,
            page_bytes: 4096,
        }
    }

    #[test]
    fn zero_is_unmapped() {
        let codec = PpaCodec::new(8, 8, &geometry(1536, 1364, 4));
        assert_eq!(codec.decode(0), None);
    }

    #[test]
    fn field_widths_are_ceil_log2_of_their_ranges() {
        // The base TLC die: 11 + 11 + 2 bits, then 3 + 3 for 8 × 8 dies;
        // F7's 32 × 8 base SSD is exactly 32 bits wide.
        let base = geometry(1536, 1364, 4);
        assert_eq!(PpaCodec::new(8, 8, &base).entry_bits(), 30);
        assert_eq!(PpaCodec::new(32, 8, &base).entry_bits(), 32);
        assert_eq!(PpaCodec::new(64, 8, &base).entry_bits(), 33);
        // One value takes no bits; a full 32-bit code plus one needs 33.
        assert_eq!(PpaCodec::new(1, 1, &geometry(1, 1, 1)).entry_bits(), 1);
        let full = geometry(1 << 16, 1 << 8, 1 << 2);
        assert_eq!(PpaCodec::new(1 << 3, 1 << 3, &full).entry_bits(), 33);
        assert_eq!(PpaCodec::new(1 << 3, (1 << 3) - 1, &full).entry_bits(), 32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random geometries whose entries fit 32 bits, every address
        /// round-trips: a random one, every field at its maximum, each
        /// field alone at its maximum, and the zero address. No entry is
        /// the unmapped 0.
        #[test]
        fn ppa_code_round_trips_on_random_geometries(
            widths in (0u32..17, 0u32..13, 0u32..5, 0u32..11, 0u32..11),
            draws in (any::<u64>(), any::<u64>()),
        ) {
            let (wp, wb, wl, wd, wc) = widths;
            // A range of exactly `w` bits: (2^(w-1), 2^w], drawn from `r`.
            let range = |w: u32, r: u64| match w {
                0 => 1,
                w => (1u32 << (w - 1)) + 1 + (r % (1u64 << (w - 1))) as u32,
            };
            let (r, s) = draws;
            let ranges = [
                range(wp, r),
                range(wb, r >> 16),
                range(wl, r >> 32),
                range(wd, r >> 40),
                range(wc, r >> 52),
            ];
            let codec = PpaCodec::new(ranges[4], ranges[3], &geometry(ranges[0], ranges[1], ranges[2]));
            if codec.entry_bits() > 32 {
                continue;
            }
            let ppa = |f: [u32; 5]| Ppa {
                die: DieId { channel: f[4], index: f[3] },
                page: PhysPage { plane: f[2], block: f[1], page: f[0] },
            };
            let max = ranges.map(|n| n - 1);
            let drawn: [u32; 5] =
                std::array::from_fn(|i| ((s >> (12 * i)) % u64::from(ranges[i])) as u32);
            let alone = (0..5).map(|i| {
                let mut f = [0; 5];
                f[i] = max[i];
                f
            });
            for f in [drawn, max, [0; 5]].into_iter().chain(alone) {
                let entry = codec.encode(ppa(f));
                prop_assert_ne!(entry, 0, "{:?} encodes as unmapped", f);
                prop_assert_eq!(codec.decode(entry), Some(ppa(f)));
            }
            prop_assert_eq!(codec.decode(0), None);
        }
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
