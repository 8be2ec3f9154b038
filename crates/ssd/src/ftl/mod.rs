//! The flash translation layer: mapping tables, block allocation, and the
//! bookkeeping shared by the host path, garbage collection, and the
//! in-storage update path.
//!
//! The FTL here is page-mapped with out-of-place writes — the scheme any
//! modern NVMe SSD uses — because OptimStore's full-state-rewrite-per-step
//! workload makes mapping and GC behaviour part of the result (write
//! amplification and wear are evaluated in the endurance experiment).
//!
//! The `Ftl` struct is pure bookkeeping: it owns no dies and performs no
//! timing. [`crate::Device`] drives it, passing in die references, so the
//! borrow structure stays simple and the FTL logic stays unit-testable.

mod allocator;
mod mapping;

pub use allocator::DieAlloc;
pub use mapping::{L2pTable, ReverseMap};

use crate::address::{Lpn, Ppa, PpaCodec};
use crate::config::SsdConfig;
use nandsim::Die;

/// FTL bookkeeping for a whole device.
#[derive(Debug)]
pub struct Ftl {
    l2p: L2pTable,
    rmap: ReverseMap,
    alloc: Vec<DieAlloc>,
    dies_per_channel: u32,
    /// Die geometry, for the flat block indices GC scans by.
    geometry: nandsim::NandGeometry,
}

impl Ftl {
    /// Creates the FTL for `config`, with every block of every die free.
    /// `dies` are the device's dies in flat order; only their geometry is
    /// read.
    pub fn new<'a>(config: &SsdConfig, dies: impl IntoIterator<Item = &'a Die>) -> Self {
        let alloc = dies
            .into_iter()
            .map(|die| DieAlloc::new(die, config.gc.wear_leveling))
            .collect();
        Self::with_allocators(config, alloc)
    }

    /// Creates the FTL for `config` with no page mapped and `alloc` as the
    /// allocation state of each die, in flat order (mount recovery passes
    /// the allocators it rebuilt from a physical scan).
    pub fn with_allocators(config: &SsdConfig, alloc: Vec<DieAlloc>) -> Self {
        debug_assert_eq!(alloc.len(), config.total_dies() as usize);
        let geo = config.nand.geometry;
        Ftl {
            // Sized to the addressable space: host-visible pages plus (with
            // RAIN armed) the internal parity LPNs beyond them.
            l2p: L2pTable::new(
                config.addressable_pages(),
                PpaCodec::new(config.channels, config.dies_per_channel, &geo),
            ),
            rmap: ReverseMap::new(config.total_dies(), &geo),
            alloc,
            dies_per_channel: config.dies_per_channel,
            geometry: geo,
        }
    }

    /// Current mapping of `lpn`.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppa> {
        self.l2p.get(lpn)
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.l2p.mapped_pages()
    }

    /// Erased blocks available on a die.
    pub fn free_blocks(&self, die_flat: u32) -> usize {
        self.alloc[die_flat as usize].free_blocks()
    }

    /// The blocks a die is currently filling (one per plane at most).
    pub fn active_blocks(&self, die_flat: u32) -> Vec<nandsim::BlockAddr> {
        self.alloc[die_flat as usize].active_blocks().collect()
    }

    /// True if the block with die-flat index `block_index` (as produced by
    /// [`nandsim::NandGeometry::block_index`]) is one `die_flat` is filling.
    pub fn is_active(&self, die_flat: u32, block_index: u64) -> bool {
        self.alloc[die_flat as usize]
            .active_blocks()
            .any(|a| self.geometry.block_index(a) == block_index)
    }

    /// Picks the next physical page to program on `die`, honouring the
    /// wear-levelling policy. Pure allocation — the caller programs it.
    pub fn allocate_page(&mut self, die_flat: u32, die: &Die) -> Option<nandsim::PhysPage> {
        self.alloc[die_flat as usize].next_page(die)
    }

    /// Picks the next physical page on `die`, preferring `plane` (used by
    /// media-fault recovery to re-home a failed program plane-locally).
    pub fn allocate_page_preferring(
        &mut self,
        die_flat: u32,
        die: &Die,
        plane: u32,
    ) -> Option<nandsim::PhysPage> {
        self.alloc[die_flat as usize].next_page_preferring(plane, die)
    }

    /// Removes a retired block of `die` from allocation permanently. Its
    /// reverse mappings stay until the rescue relocation supersedes them —
    /// retired blocks are never erased, so stale entries are unreachable.
    pub fn discard_block(&mut self, die_flat: u32, die: &Die, block: nandsim::BlockAddr) {
        self.alloc[die_flat as usize].discard_block(die, block);
    }

    /// Commits a completed program: maps `lpn → ppa`, records the reverse
    /// mapping, and returns the stale previous mapping (whose page the
    /// caller must invalidate on its die).
    pub fn commit_program(&mut self, lpn: Lpn, ppa: Ppa) -> Option<Ppa> {
        let die_flat = ppa.die.flat(self.dies_per_channel);
        self.rmap
            .set(die_flat, ppa.page.block_addr(), ppa.page.page, lpn);
        self.l2p.set(lpn, ppa)
    }

    /// The logical owner of a physical page (GC uses this to relocate
    /// valid pages).
    pub fn owner_of(&self, ppa: Ppa) -> Option<Lpn> {
        let die_flat = ppa.die.flat(self.dies_per_channel);
        self.rmap
            .get(die_flat, ppa.page.block_addr(), ppa.page.page)
    }

    /// Forgets a block's reverse mappings and returns it to the free pool
    /// (after the caller erased it on `die`).
    pub fn reclaim_block(&mut self, die_flat: u32, die: &Die, block: nandsim::BlockAddr) {
        self.rmap.clear_block(die_flat, block);
        self.alloc[die_flat as usize].reclaim_block(die, block);
    }

    /// Takes an erased block out of `die`'s pools entirely (journal blocks
    /// live outside data allocation and are never GC victims).
    pub fn take_free_block(&mut self, die_flat: u32, die: &Die) -> Option<nandsim::BlockAddr> {
        self.alloc[die_flat as usize].take_block(die)
    }

    /// Records the reverse mapping of a *shadow* copy: a relocated physical
    /// page whose logical owner currently maps elsewhere. The crash-safe
    /// commit protocol keeps the last committed version of a page alive
    /// (valid, reverse-mapped, but not the L2P target) until its epoch
    /// commits; GC moving such a page must re-home the reverse mapping
    /// without touching the L2P table.
    pub fn record_shadow(&mut self, lpn: Lpn, ppa: Ppa) {
        let die_flat = ppa.die.flat(self.dies_per_channel);
        self.rmap
            .set(die_flat, ppa.page.block_addr(), ppa.page.page, lpn);
    }

    /// Dies per channel (needed by callers converting flat die indices).
    pub fn dies_per_channel(&self) -> u32 {
        self.dies_per_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DieId;
    use nandsim::NandConfig;
    use simkit::SimTime;

    fn setup() -> (SsdConfig, Vec<Die>, Ftl) {
        let cfg = SsdConfig::tiny();
        let dies: Vec<Die> = (0..cfg.total_dies())
            .map(|i| Die::new(i, cfg.nand))
            .collect();
        let ftl = Ftl::new(&cfg, &dies);
        (cfg, dies, ftl)
    }

    #[test]
    fn allocate_program_commit_lookup() {
        let (_cfg, mut dies, mut ftl) = setup();
        let die_flat = 3u32;
        let page = ftl.allocate_page(die_flat, &dies[3]).unwrap();
        dies[3]
            .program_page(page, SimTime::ZERO, &mut None)
            .unwrap();
        let ppa = Ppa {
            die: DieId::from_flat(die_flat, ftl.dies_per_channel()),
            page,
        };
        assert_eq!(ftl.commit_program(Lpn(42), ppa), None);
        assert_eq!(ftl.lookup(Lpn(42)), Some(ppa));
        assert_eq!(ftl.owner_of(ppa), Some(Lpn(42)));
        assert_eq!(ftl.mapped_pages(), 1);
    }

    #[test]
    fn overwrite_returns_stale_ppa() {
        let (_cfg, mut dies, mut ftl) = setup();
        let p1 = ftl.allocate_page(0, &dies[0]).unwrap();
        dies[0].program_page(p1, SimTime::ZERO, &mut None).unwrap();
        let ppa1 = Ppa {
            die: DieId::from_flat(0, 2),
            page: p1,
        };
        ftl.commit_program(Lpn(7), ppa1);

        let p2 = ftl.allocate_page(0, &dies[0]).unwrap();
        dies[0].program_page(p2, SimTime::ZERO, &mut None).unwrap();
        let ppa2 = Ppa {
            die: DieId::from_flat(0, 2),
            page: p2,
        };
        let stale = ftl.commit_program(Lpn(7), ppa2);
        assert_eq!(stale, Some(ppa1));
        assert_eq!(ftl.lookup(Lpn(7)), Some(ppa2));
    }

    #[test]
    fn reclaim_returns_block_to_pool() {
        let (_cfg, mut dies, mut ftl) = setup();
        let before = ftl.free_blocks(0);
        let p = ftl.allocate_page(0, &dies[0]).unwrap();
        dies[0].program_page(p, SimTime::ZERO, &mut None).unwrap();
        assert_eq!(ftl.free_blocks(0), before - 1);
        dies[0].erase_block(p.block_addr(), SimTime::ZERO).unwrap();
        ftl.reclaim_block(0, &dies[0], p.block_addr());
        assert_eq!(ftl.free_blocks(0), before);
    }

    #[test]
    fn recycled_reverse_map_slab_has_no_owners() {
        let (_cfg, dies, mut ftl) = setup();
        let ppb = dies[0].config().geometry.pages_per_block;
        let die = DieId::from_flat(0, ftl.dies_per_channel());
        let a = ftl.take_free_block(0, &dies[0]).unwrap();
        for page in 0..ppb {
            let ppa = Ppa {
                die,
                page: a.page(page),
            };
            ftl.commit_program(Lpn(page as u64), ppa);
        }
        ftl.reclaim_block(0, &dies[0], a);
        // Block B's first program takes over A's spared slab.
        let b = nandsim::BlockAddr { plane: 1, block: 5 };
        let first = Ppa {
            die,
            page: b.page(0),
        };
        ftl.commit_program(Lpn(500), first);
        assert_eq!(ftl.owner_of(first), Some(Lpn(500)));
        for page in 1..ppb {
            let ppa = Ppa {
                die,
                page: b.page(page),
            };
            assert_eq!(ftl.owner_of(ppa), None, "unwritten page {page}");
        }
        assert_eq!(ftl.rmap.tracked_blocks(), 1);
    }

    #[test]
    fn shadow_mapping_sets_rmap_without_touching_l2p() {
        let (_cfg, mut dies, mut ftl) = setup();
        let p1 = ftl.allocate_page(0, &dies[0]).unwrap();
        dies[0].program_page(p1, SimTime::ZERO, &mut None).unwrap();
        let ppa1 = Ppa {
            die: DieId::from_flat(0, ftl.dies_per_channel()),
            page: p1,
        };
        ftl.commit_program(Lpn(3), ppa1);

        // Shadow copy of the same lpn at a second location: reverse-mapped
        // (GC can find the owner) but the L2P target is unchanged.
        let p2 = ftl.allocate_page(0, &dies[0]).unwrap();
        dies[0].program_page(p2, SimTime::ZERO, &mut None).unwrap();
        let ppa2 = Ppa {
            die: DieId::from_flat(0, ftl.dies_per_channel()),
            page: p2,
        };
        ftl.record_shadow(Lpn(3), ppa2);
        assert_eq!(ftl.lookup(Lpn(3)), Some(ppa1), "l2p must not move");
        assert_eq!(ftl.owner_of(ppa2), Some(Lpn(3)));
    }

    #[test]
    fn take_free_block_and_rebuild_from_scan() {
        let (cfg, dies, mut ftl) = setup();
        let before = ftl.free_blocks(1);
        let b = ftl.take_free_block(1, &dies[1]).unwrap();
        assert_eq!(ftl.free_blocks(1), before - 1);
        let taken = [b];
        let scanned: Vec<DieAlloc> = dies
            .iter()
            .enumerate()
            .map(|(i, d)| DieAlloc::from_scan(d, if i == 1 { &taken } else { &[] }, true))
            .collect();
        let rebuilt = Ftl::with_allocators(&cfg, scanned);
        assert_eq!(
            rebuilt.free_blocks(1),
            before - 1,
            "rebuilt allocator honours the exclusion"
        );
        assert_eq!(rebuilt.free_blocks(0), before);
        assert_eq!(rebuilt.mapped_pages(), 0);
    }

    #[test]
    fn allocator_spreads_only_on_requested_die() {
        let (cfg, dies, mut ftl) = setup();
        let _ = cfg;
        let p0 = ftl.allocate_page(0, &dies[0]).unwrap();
        let p1 = ftl.allocate_page(1, &dies[1]).unwrap();
        // Independent per-die cursors.
        assert_eq!(p0.page, 0);
        assert_eq!(p1.page, 0);
        let _ = NandConfig::tiny_test_die();
    }
}
