//! Logical→physical and physical→logical mapping tables.
//!
//! The L2P table is chunked and lazily allocated: an 8 TB device has half a
//! billion logical pages, but an experiment touches only the range holding
//! its optimizer state, so untouched chunks cost nothing.

use crate::address::{Lpn, Ppa, PpaCodec};
use nandsim::{BlockAddr, NandGeometry};
use simkit::slab::{Slabs, NO_SLAB};

/// Entries per lazily-allocated L2P chunk (64 Ki pages, 256 KiB per chunk).
const CHUNK: usize = 1 << 16;

/// The logical→physical page map: one 32-bit [`PpaCodec`] entry per page,
/// 0 for unmapped.
#[derive(Debug)]
pub struct L2pTable {
    chunks: Vec<Option<Box<[u32; CHUNK]>>>,
    codec: PpaCodec,
    mapped: u64,
}

impl L2pTable {
    /// Creates a table covering `logical_pages` pages whose entries are
    /// `codec`'s.
    ///
    /// # Panics
    /// If `codec`'s entries do not fit 32 bits.
    pub fn new(logical_pages: u64, codec: PpaCodec) -> Self {
        assert!(
            codec.entry_bits() <= u32::BITS,
            "an L2P entry of {} bits does not fit 32",
            codec.entry_bits()
        );
        let n_chunks = (logical_pages as usize).div_ceil(CHUNK);
        L2pTable {
            chunks: (0..n_chunks).map(|_| None).collect(),
            codec,
            mapped: 0,
        }
    }

    /// Current mapping of `lpn`, if any.
    #[inline]
    pub fn get(&self, lpn: Lpn) -> Option<Ppa> {
        let idx = lpn.0 as usize;
        let chunk = self.chunks.get(idx / CHUNK)?.as_ref()?;
        self.codec.decode(chunk[idx % CHUNK])
    }

    /// Sets the mapping of `lpn`, returning the previous one (now stale).
    pub fn set(&mut self, lpn: Lpn, ppa: Ppa) -> Option<Ppa> {
        let idx = lpn.0 as usize;
        let slot = &mut self.chunks[idx / CHUNK];
        // Zero means "unmapped": the codec stores every address plus one.
        let chunk =
            slot.get_or_insert_with(|| vec![0u32; CHUNK].into_boxed_slice().try_into().unwrap());
        let old = self.codec.decode(chunk[idx % CHUNK]);
        chunk[idx % CHUNK] = self.codec.encode(ppa);
        if old.is_none() {
            self.mapped += 1;
        }
        old
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Capacity in logical pages.
    pub fn capacity(&self) -> u64 {
        (self.chunks.len() * CHUNK) as u64
    }
}

/// The physical→logical reverse map, kept per block so garbage collection
/// can find the owner of each valid page.
///
/// Layout mirrors the chunked L2P: one lane per die, each entry the `u32`
/// index of a per-page slab of `u32` `lpn + 1` values (0 = none) in one
/// [`Slabs`] store shared by every die. A lane is stored
/// [block-major](NandGeometry::block_major_slot), like the die's block
/// table, and grows to the highest slot mapped, so a die pays only for
/// the low blocks its allocator opens first. A block takes a slab at its
/// first mapping, and an erased block's slab is zeroed and spared for the
/// next block that starts filling — so phantom terabyte geometries pay
/// only for blocks actually in use, steady-state GC recycles slabs instead
/// of allocating them, lanes have no drop glue, and every lookup is two
/// array indexings instead of a hash probe.
#[derive(Debug)]
pub struct ReverseMap {
    /// `dies[die_flat]` — slab indices by block-major slot ([`NO_SLAB`]
    /// for a block with no mapping), as long as the highest slot mapped.
    dies: Vec<Vec<u32>>,
    geo: NandGeometry,
    slabs: Slabs<u32>,
}

impl ReverseMap {
    /// Creates a reverse map for `total_dies` dies of geometry `geo`.
    pub fn new(total_dies: u32, geo: &NandGeometry) -> Self {
        ReverseMap {
            dies: (0..total_dies).map(|_| Vec::new()).collect(),
            geo: *geo,
            slabs: Slabs::new(geo.pages_per_block as usize),
        }
    }

    /// Records that page `page` of `block` on die `die_flat` now holds
    /// `lpn`.
    pub fn set(&mut self, die_flat: u32, block: BlockAddr, page: u32, lpn: Lpn) {
        let slot = self.geo.block_major_slot(block);
        let lane = &mut self.dies[die_flat as usize];
        if slot >= lane.len() {
            lane.resize(slot + 1, NO_SLAB);
        }
        let slab = &mut lane[slot];
        if *slab == NO_SLAB {
            *slab = self.slabs.alloc();
        }
        *self.slabs.word_mut(*slab, page as usize) = u32::try_from(lpn.0 + 1)
            .expect("a validated device's addressable pages fit a 32-bit entry");
    }

    /// The logical owner of a physical page, if recorded.
    pub fn get(&self, die_flat: u32, block: BlockAddr, page: u32) -> Option<Lpn> {
        let slab = *self
            .dies
            .get(die_flat as usize)?
            .get(self.geo.block_major_slot(block))?;
        if slab == NO_SLAB {
            return None;
        }
        let v = self.slabs.word(slab, page as usize);
        (v != 0).then(|| Lpn(u64::from(v) - 1))
    }

    /// Forgets a whole block (after erase): its slab is zeroed and spared.
    pub fn clear_block(&mut self, die_flat: u32, block: BlockAddr) {
        let slot = self.geo.block_major_slot(block);
        if let Some(slab) = self
            .dies
            .get_mut(die_flat as usize)
            .and_then(|lane| lane.get_mut(slot))
            .filter(|slab| **slab != NO_SLAB)
        {
            self.slabs.release(std::mem::replace(slab, NO_SLAB));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DieId;
    use nandsim::PhysPage;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    impl ReverseMap {
        /// Number of blocks currently tracked (live slabs).
        pub fn tracked_blocks(&self) -> usize {
            self.slabs.live()
        }
    }

    fn ppa(ch: u32, die: u32, block: u32, page: u32) -> Ppa {
        Ppa {
            die: DieId {
                channel: ch,
                index: die,
            },
            page: PhysPage {
                plane: 0,
                block,
                page,
            },
        }
    }

    /// The base SSD's code: 8 × 8 dies of 4 × 1 364 blocks × 1 536 pages.
    fn codec() -> PpaCodec {
        PpaCodec::new(8, 8, &geo(4, 1364, 1536))
    }

    #[test]
    fn l2p_set_get_overwrite() {
        let mut t = L2pTable::new(1 << 20, codec());
        assert_eq!(t.get(Lpn(12345)), None);
        assert_eq!(t.set(Lpn(12345), ppa(1, 2, 3, 4)), None);
        assert_eq!(t.get(Lpn(12345)), Some(ppa(1, 2, 3, 4)));
        assert_eq!(t.mapped_pages(), 1);
        // Overwrite returns the stale mapping.
        assert_eq!(t.set(Lpn(12345), ppa(0, 0, 9, 9)), Some(ppa(1, 2, 3, 4)));
        assert_eq!(t.get(Lpn(12345)), Some(ppa(0, 0, 9, 9)));
        assert_eq!(t.mapped_pages(), 1);
    }

    #[test]
    fn l2p_chunks_allocate_lazily() {
        let mut t = L2pTable::new(1 << 24, codec());
        let before = t.chunks.iter().filter(|c| c.is_some()).count();
        assert_eq!(before, 0);
        t.set(Lpn(0), ppa(0, 0, 0, 0));
        t.set(Lpn((1 << 24) - 1), ppa(0, 0, 0, 1));
        let after = t.chunks.iter().filter(|c| c.is_some()).count();
        assert_eq!(after, 2, "only touched chunks materialize");
    }

    #[test]
    fn l2p_capacity() {
        let t = L2pTable::new(100, codec());
        assert!(t.capacity() >= 100);
    }

    fn blk(plane: u32, block: u32) -> BlockAddr {
        BlockAddr { plane, block }
    }

    fn geo(planes: u32, blocks_per_plane: u32, pages_per_block: u32) -> NandGeometry {
        NandGeometry {
            planes,
            blocks_per_plane,
            pages_per_block,
            page_bytes: 512,
        }
    }

    #[test]
    fn reverse_map_round_trips() {
        let mut r = ReverseMap::new(8, &geo(4, 8, 64));
        assert_eq!(r.get(3, blk(2, 7), 5), None);
        r.set(3, blk(2, 7), 5, Lpn(0)); // lpn 0 must be representable
        r.set(3, blk(2, 7), 6, Lpn(99));
        assert_eq!(r.get(3, blk(2, 7), 5), Some(Lpn(0)));
        assert_eq!(r.get(3, blk(2, 7), 6), Some(Lpn(99)));
        assert_eq!(r.get(3, blk(1, 7), 5), None, "planes keep apart");
        assert_eq!(r.tracked_blocks(), 1);
        r.clear_block(3, blk(2, 7));
        assert_eq!(r.get(3, blk(2, 7), 5), None);
        assert_eq!(r.tracked_blocks(), 0);
    }

    #[test]
    fn reverse_map_slabs_allocate_lazily() {
        let mut r = ReverseMap::new(16, &geo(4, (1 << 20) + 1, 64));
        // Untouched dies carry no lane; a touched die's lane reaches only
        // its highest block-major slot.
        assert_eq!(r.tracked_blocks(), 0);
        assert!(r.dies.iter().all(|lane| lane.is_empty()));
        r.set(5, blk(3, 0), 0, Lpn(1));
        assert_eq!(r.dies[5].len(), 4, "block 0 of every plane is the prefix");
        r.set(5, blk(1, 9), 63, Lpn(2));
        assert_eq!(r.dies[5].len(), 9 * 4 + 2);
        assert_eq!(r.tracked_blocks(), 2, "only touched blocks materialize");
        assert_eq!(
            r.dies.iter().filter(|lane| !lane.is_empty()).count(),
            1,
            "only touched dies materialize a lane"
        );
        assert_eq!(r.get(5, blk(1, 9), 63), Some(Lpn(2)));
        assert_eq!(r.get(5, blk(3, 1 << 20), 0), None, "past the lane: none");
    }

    #[test]
    fn recycled_slab_reads_empty() {
        let mut r = ReverseMap::new(2, &geo(1, 4, 8));
        for page in 0..8 {
            r.set(0, blk(0, 1), page, Lpn(100 + page as u64));
        }
        let slab = r.dies[0][1];
        r.clear_block(0, blk(0, 1));
        assert_eq!(r.dies[0][1], NO_SLAB);
        // Another die's block starts filling and takes the spared slab.
        r.set(1, blk(0, 3), 0, Lpn(7));
        assert_eq!(r.dies[1][3], slab);
        assert_eq!(r.get(1, blk(0, 3), 0), Some(Lpn(7)));
        for page in 1..8 {
            assert_eq!(r.get(1, blk(0, 3), page), None, "page {page}");
        }
        assert_eq!(r.tracked_blocks(), 1);
    }

    #[test]
    fn reverse_map_clear_is_idempotent() {
        let mut r = ReverseMap::new(2, &geo(2, 4, 8));
        r.clear_block(0, blk(1, 3)); // never set: no-op
        r.set(1, blk(0, 2), 7, Lpn(5));
        r.clear_block(1, blk(0, 2));
        r.clear_block(1, blk(0, 2));
        assert_eq!(r.tracked_blocks(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sets and block clears across dies against a map model:
        /// every page reads its last owner, a cleared block reads empty,
        /// and a block that takes a recycled slab sees none of the previous
        /// block's owners. Owners come from both ends of the 32-bit entry:
        /// LPN 0 and LPNs up to `u32::MAX - 1`, the largest it holds.
        #[test]
        fn reverse_map_matches_a_map_model(
            ops in prop::collection::vec(
                (0u8..3, 0u32..3, 0u32..2, 0u32..3, 0u32..5, (0u64..1000, any::<bool>())),
                1..300,
            )
        ) {
            let mut r = ReverseMap::new(3, &geo(2, 3, 5));
            let mut model: HashMap<(u32, BlockAddr, u32), Lpn> = HashMap::new();
            for (op, die, plane, block, page, (offset, high)) in ops {
                let b = blk(plane, block);
                let lpn = if high { u64::from(u32::MAX) - 1 - offset } else { offset };
                if op == 0 {
                    r.clear_block(die, b);
                    model.retain(|&(d, mb, _), _| (d, mb) != (die, b));
                } else {
                    r.set(die, b, page, Lpn(lpn));
                    model.insert((die, b, page), Lpn(lpn));
                }
                for d in 0..3 {
                    for (plane, block) in (0..2).flat_map(|pl| (0..3).map(move |bl| (pl, bl))) {
                        for p in 0..5 {
                            let b = blk(plane, block);
                            prop_assert_eq!(r.get(d, b, p), model.get(&(d, b, p)).copied());
                        }
                    }
                }
                let blocks: HashSet<(u32, BlockAddr)> =
                    model.keys().map(|&(d, b, _)| (d, b)).collect();
                prop_assert_eq!(r.tracked_blocks(), blocks.len());
            }
        }
    }
}
