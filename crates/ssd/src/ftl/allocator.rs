//! Per-die block allocation: one append-only active block **per plane**
//! (superpage striping) plus, per plane, the erased blocks it may open
//! next, optionally wear-aware.
//!
//! Striping consecutive allocations across planes is what lets a die hit
//! its multi-plane program bandwidth — without it every write in a stream
//! would land in one plane's active block and serialize. This is the
//! standard "superblock" policy of production FTLs.
//!
//! A plane keeps its erased blocks in two places. The blocks it has never
//! opened are one range of block indices, which costs nothing however
//! large the die; blocks that GC reclaimed sit in the plane's pool. A
//! never-opened block has never been erased and [`Die::simulate_wear`]
//! ages every block alike, so the range's blocks share one erase count,
//! the lowest on the die.
//!
//! With wear levelling each pool is kept ordered by `(erase_count,
//! block)`: a reclaimed block is inserted where its key belongs (a binary
//! search over the pool). Opening a block takes the lower key of the
//! pool's front and the range's first block — what a scan of every erased
//! block would choose — at O(log pool) instead of O(blocks). The order
//! stays valid because an erased block is never erased again before it is
//! opened (GC erases only full blocks, the journal none) and
//! [`Die::simulate_wear`] ages every block alike. Without wear levelling
//! a plane's erased blocks are a LIFO stack with the range at the bottom:
//! reclaimed blocks go first, last in first, then the never-opened blocks
//! from the top down.

use nandsim::{BlockAddr, Die, PhysPage};
use std::collections::VecDeque;
use std::ops::Range;

/// Allocation state for one die.
#[derive(Debug)]
pub struct DieAlloc {
    /// Block currently being filled on each plane.
    actives: Vec<Option<BlockAddr>>,
    /// Erased blocks per plane held as a range of block indices, all of one
    /// erase count: at first the blocks the plane has never opened.
    fresh: Vec<Range<u32>>,
    /// The other erased blocks per plane (block index within the plane):
    /// ordered by `(erase_count, block)` when `wear_leveling`, in reclaim
    /// order otherwise.
    free: Vec<VecDeque<u32>>,
    /// Erased blocks across every plane's range and pool, kept by each
    /// mutation so the per-program space check reads one field.
    free_count: usize,
    /// Round-robin cursor over planes (always below the plane count).
    next_plane: u32,
    /// Open the least-worn block first (else the last reclaimed).
    wear_leveling: bool,
}

impl DieAlloc {
    /// Fresh allocator: every block of the die is erased and free.
    pub fn new(die: &Die, wear_leveling: bool) -> Self {
        // A die that has erased may carry uneven wear: read it block by
        // block.
        if die.stats().erases.get() > 0 {
            return Self::from_scan(die, &[], wear_leveling);
        }
        let geo = die.config().geometry;
        DieAlloc {
            fresh: vec![0..geo.blocks_per_plane; geo.planes as usize],
            free_count: geo.blocks_per_die() as usize,
            ..Self::empty(die, wear_leveling)
        }
    }

    /// An allocator for `die` with no active and no erased block.
    fn empty(die: &Die, wear_leveling: bool) -> Self {
        let planes = die.config().geometry.planes as usize;
        DieAlloc {
            actives: vec![None; planes],
            fresh: vec![0..0; planes],
            free: (0..planes).map(|_| VecDeque::new()).collect(),
            free_count: 0,
            next_plane: 0,
            wear_leveling,
        }
    }

    /// Number of erased blocks available (excluding active blocks).
    pub fn free_blocks(&self) -> usize {
        self.free_count
    }

    /// All currently active blocks.
    pub fn active_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.actives.iter().filter_map(|a| *a)
    }

    /// Returns `block`, which `die` has just erased, to its plane's pool.
    pub fn reclaim_block(&mut self, die: &Die, block: BlockAddr) {
        self.pool(die, block);
        self.free_count += 1;
    }

    /// Puts `block` in its plane's pool where the pick order wants it.
    fn pool(&mut self, die: &Die, block: BlockAddr) {
        let pool = &mut self.free[block.plane as usize];
        if self.wear_leveling {
            let key = wear_key(die, block.plane, block.block);
            let at = pool.partition_point(|&b| wear_key(die, block.plane, b) < key);
            pool.insert(at, block.block);
        } else {
            pool.push_back(block.block);
        }
    }

    /// Removes a block from allocation permanently (the device retired it
    /// after a media fault). The block may be a plane's active block or
    /// one of its erased blocks, opened before or not; afterwards its
    /// pages are never handed out again.
    pub fn discard_block(&mut self, die: &Die, block: BlockAddr) {
        let plane = block.plane as usize;
        if self.actives[plane] == Some(block) {
            self.actives[plane] = None;
        }
        self.remove_free(die, block);
    }

    /// Takes `block` out of its plane's erased blocks, if it is one.
    fn remove_free(&mut self, die: &Die, block: BlockAddr) {
        let plane = block.plane as usize;
        let fresh = &mut self.fresh[plane];
        if fresh.contains(&block.block) {
            if block.block == fresh.start {
                fresh.start += 1;
            } else {
                // The range stays one run: the blocks above `block` move
                // to the pool, where they keep their place in the order
                // (just above the range in a LIFO stack).
                let above = block.block + 1..fresh.end;
                fresh.end = block.block;
                for b in above.rev() {
                    if self.wear_leveling {
                        self.pool(die, BlockAddr { block: b, ..block });
                    } else {
                        self.free[plane].push_front(b);
                    }
                }
            }
        } else if let Some(at) = self.free[plane].iter().position(|&b| b == block.block) {
            self.free[plane].remove(at);
        } else {
            return;
        }
        self.free_count -= 1;
    }

    /// Takes an erased block out of allocation entirely. Journal blocks are
    /// carved out this way: they hold FTL metadata, are never handed to
    /// `next_page`, and never become GC victims. The pick mirrors
    /// `next_page`'s wear policy: with wear levelling the lowest erase
    /// count, then the lowest plane and block index; without, the lowest
    /// plane and block index.
    pub fn take_block(&mut self, die: &Die) -> Option<BlockAddr> {
        let wear_leveling = self.wear_leveling;
        let block = (0..self.actives.len() as u32)
            .flat_map(|plane| {
                // Each plane's candidates: its range's first block and its
                // pool's lowest (the front, with wear levelling).
                let pool = &self.free[plane as usize];
                let pooled = if wear_leveling {
                    pool.front()
                } else {
                    pool.iter().min()
                };
                let first = self.fresh[plane as usize].clone().next();
                pooled
                    .copied()
                    .into_iter()
                    .chain(first)
                    .map(move |block| BlockAddr { plane, block })
            })
            .min_by_key(|b| {
                let wear = if wear_leveling {
                    wear_key(die, b.plane, b.block).0
                } else {
                    0
                };
                (wear, b.plane, b.block)
            })?;
        self.remove_free(die, block);
        Some(block)
    }

    /// Rebuilds allocation state from physical block state (mount recovery:
    /// the RAM allocator died with the power). Erased blocks become free:
    /// on each plane the first run of consecutive ones (of one erase count,
    /// with wear levelling) is its range, the rest its pool. At most one
    /// partially written block per plane is re-adopted as the active block
    /// (lowest block index wins, deterministically — any other partial
    /// block simply leaves allocation until GC reclaims it); retired and
    /// `exclude`d blocks stay out.
    pub fn from_scan(die: &Die, exclude: &[BlockAddr], wear_leveling: bool) -> Self {
        let geo = die.config().geometry;
        let mut alloc = Self::empty(die, wear_leveling);
        for (flat, b) in die.iter_blocks() {
            let addr = geo.block_at(flat);
            if b.is_retired() || exclude.contains(&addr) {
                continue;
            }
            match b.next_programmable() {
                Some(0) => {
                    let plane = addr.plane as usize;
                    let (fresh, pool) = (&mut alloc.fresh[plane], &mut alloc.free[plane]);
                    if fresh.start == fresh.end {
                        *fresh = addr.block..addr.block;
                    }
                    if pool.is_empty()
                        && fresh.end == addr.block
                        && (!wear_leveling
                            || b.erase_count() == wear_key(die, addr.plane, fresh.start).0)
                    {
                        fresh.end += 1;
                    } else {
                        pool.push_back(addr.block);
                    }
                    alloc.free_count += 1;
                }
                Some(_) => {
                    let slot = &mut alloc.actives[addr.plane as usize];
                    if slot.map(|cur| addr.block < cur.block).unwrap_or(true) {
                        *slot = Some(addr);
                    }
                }
                None => {} // full: leaves allocation until GC reclaims it
            }
        }
        alloc.order_pools(die);
        alloc
    }

    /// Sorts every pool by `(erase_count, block)` under wear levelling.
    fn order_pools(&mut self, die: &Die) {
        if self.wear_leveling {
            for (plane, pool) in self.free.iter_mut().enumerate() {
                pool.make_contiguous()
                    .sort_by_key(|&b| wear_key(die, plane as u32, b));
            }
        }
    }

    /// Next physical page on a *specific* plane, falling back to any plane
    /// when it has nothing left. Media-fault recovery re-homes a failed
    /// program plane-locally when possible so the remap costs no extra
    /// plane switch.
    pub fn next_page_preferring(&mut self, plane: u32, die: &Die) -> Option<PhysPage> {
        self.next_page_on_plane(plane, die)
            .or_else(|| self.next_page(die))
    }

    /// Next physical page to program on this die.
    ///
    /// Planes are visited round-robin so a write stream stripes across all
    /// of them. Within a plane, the active block fills sequentially; a new
    /// block is opened from the plane's erased blocks when it fills (lowest
    /// erase count first with wear levelling, LIFO otherwise). Falls back
    /// to other planes when one runs dry; returns `None` only when the
    /// whole die has no erased block left.
    pub fn next_page(&mut self, die: &Die) -> Option<PhysPage> {
        let planes = self.actives.len() as u32;
        let wrap = |p: u32| if p + 1 == planes { 0 } else { p + 1 };
        let mut plane = self.next_plane;
        for _ in 0..planes {
            if let Some(page) = self.next_page_on_plane(plane, die) {
                self.next_plane = wrap(plane);
                return Some(page);
            }
            plane = wrap(plane);
        }
        None
    }

    fn next_page_on_plane(&mut self, plane: u32, die: &Die) -> Option<PhysPage> {
        if let Some(active) = self.actives[plane as usize] {
            if let Ok(block) = die.block(active) {
                if let Some(page) = block.next_programmable() {
                    return Some(active.page(page));
                }
            }
            // Full: the block leaves allocation until GC reclaims it.
            self.actives[plane as usize] = None;
        }
        let (pool, fresh) = (
            &mut self.free[plane as usize],
            &mut self.fresh[plane as usize],
        );
        let pick = if self.wear_leveling {
            let pooled_first = match pool.front() {
                Some(&b) if fresh.start < fresh.end => {
                    wear_key(die, plane, b) < wear_key(die, plane, fresh.start)
                }
                pooled => pooled.is_some(),
            };
            if pooled_first {
                pool.pop_front()
            } else {
                fresh.next()
            }
        } else {
            pool.pop_back().or_else(|| fresh.next_back())
        }?;
        self.free_count -= 1;
        let addr = BlockAddr { plane, block: pick };
        debug_assert!(
            die.block(addr)
                .map(|b| b.next_programmable() == Some(0))
                .unwrap_or(false),
            "free block must be erased"
        );
        self.actives[plane as usize] = Some(addr);
        Some(addr.page(0))
    }
}

/// The wear-aware pick order of block `block` on `plane`.
fn wear_key(die: &Die, plane: u32, block: u32) -> (u64, u32) {
    let state = die
        .block(BlockAddr { plane, block })
        .expect("free block exists");
    (state.erase_count(), block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nandsim::NandConfig;
    use simkit::SimTime;

    fn die() -> Die {
        Die::new(0, NandConfig::tiny_test_die())
    }

    #[test]
    fn fresh_allocator_has_all_blocks_free() {
        let d = die();
        let a = DieAlloc::new(&d, true);
        assert_eq!(a.free_blocks() as u64, d.config().geometry.blocks_per_die());
        assert_eq!(a.active_blocks().count(), 0);
    }

    #[test]
    fn consecutive_allocations_stripe_across_planes() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        let planes = d.config().geometry.planes;
        let mut seen = Vec::new();
        for _ in 0..planes * 2 {
            let p = a.next_page(&d).unwrap();
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
            seen.push(p.plane);
        }
        // First `planes` allocations hit every plane once, then repeat.
        let first: Vec<u32> = seen[..planes as usize].to_vec();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..planes).collect::<Vec<_>>());
        assert_eq!(&seen[planes as usize..], &first[..]);
    }

    #[test]
    fn within_a_plane_pages_are_sequential() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        let planes = d.config().geometry.planes;
        let ppb = d.config().geometry.pages_per_block;
        // Allocate planes × ppb pages: each plane's block fills fully and
        // sequentially.
        let mut per_plane_pages: Vec<Vec<u32>> = vec![Vec::new(); planes as usize];
        for _ in 0..planes * ppb {
            let p = a.next_page(&d).unwrap();
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
            per_plane_pages[p.plane as usize].push(p.page);
        }
        for pages in per_plane_pages {
            assert_eq!(pages, (0..ppb).collect::<Vec<_>>());
        }
        // Next allocation opens fresh blocks.
        let p = a.next_page(&d).unwrap();
        assert_eq!(p.page, 0);
    }

    #[test]
    fn wear_leveling_prefers_low_erase_blocks() {
        let mut d = die();
        // Erase block 0 of every plane five times so they carry wear.
        for plane in 0..d.config().geometry.planes {
            for _ in 0..5 {
                d.erase_block(BlockAddr { plane, block: 0 }, SimTime::ZERO)
                    .unwrap();
            }
        }
        let mut a = DieAlloc::new(&d, true);
        for _ in 0..d.config().geometry.planes {
            let p = a.next_page(&d).unwrap();
            assert_ne!(p.block, 0, "wear levelling must avoid the hot block");
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
        }
    }

    #[test]
    fn equal_wear_breaks_ties_to_the_lowest_block() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        while let Some(p) = a.next_page(&d) {
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
        }
        // Reclaim three plane-0 blocks out of index order, each erased once.
        for block in [5, 3, 4] {
            let b = BlockAddr { plane: 0, block };
            d.erase_block(b, SimTime::ZERO).unwrap();
            a.reclaim_block(&d, b);
        }
        let picks: Vec<u32> = (0..3)
            .map(|_| {
                let p = a.next_page_preferring(0, &d).unwrap();
                for page in 0..d.config().geometry.pages_per_block {
                    d.program_page(p.block_addr().page(page), SimTime::ZERO, &mut None)
                        .unwrap();
                }
                p.block
            })
            .collect();
        assert_eq!(picks, [3, 4, 5]);
    }

    #[test]
    fn lifo_policy_reuses_last_freed() {
        let d = die();
        let mut a = DieAlloc::new(&d, false);
        let last = d.config().geometry.blocks_per_plane - 1;
        let p = a.next_page(&d).unwrap();
        assert_eq!(p.block, last);
    }

    #[test]
    fn discard_removes_active_and_pooled_blocks() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        let total = a.free_blocks();
        // Open an active block on plane 0.
        let p = a.next_page(&d).unwrap();
        d.program_page(p, SimTime::ZERO, &mut None).unwrap();
        let active = p.block_addr();
        a.discard_block(&d, active);
        assert_eq!(a.actives[active.plane as usize], None);
        // Discard a never-opened pool block too.
        let pooled = BlockAddr { plane: 1, block: 5 };
        a.discard_block(&d, pooled);
        assert_eq!(a.free_blocks(), total - 2);
        // Neither block is ever allocated again.
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = a.next_page(&d) {
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
            seen.insert(p.block_addr());
        }
        assert!(!seen.contains(&active));
        assert!(!seen.contains(&pooled));
    }

    #[test]
    fn preferring_allocation_stays_plane_local_until_dry() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        let p = a.next_page_preferring(1, &d).unwrap();
        assert_eq!(p.plane, 1);
        d.program_page(p, SimTime::ZERO, &mut None).unwrap();
        // Drain plane 1 completely: the preference falls back to plane 0.
        loop {
            let q = a.next_page_preferring(1, &d).unwrap();
            d.program_page(q, SimTime::ZERO, &mut None).unwrap();
            if q.plane != 1 {
                assert_eq!(q.plane, 0);
                break;
            }
        }
    }

    #[test]
    fn take_block_removes_from_allocation_for_good() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        let total = a.free_blocks();
        let taken = a.take_block(&d).unwrap();
        assert_eq!(a.free_blocks(), total - 1);
        // Deterministic: a fresh die's pick is plane 0, block 0.
        assert_eq!(taken, BlockAddr { plane: 0, block: 0 });
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = a.next_page(&d) {
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
            seen.insert(p.block_addr());
        }
        assert!(
            !seen.contains(&taken),
            "taken block must never be allocated"
        );
    }

    #[test]
    fn from_scan_rebuilds_free_active_and_excluded_partition() {
        let mut d = die();
        let geo = d.config().geometry;
        // One partial block on plane 0 (two pages), one full block on
        // plane 1, one retired block, one excluded block.
        let partial = BlockAddr { plane: 0, block: 2 };
        for pg in 0..2 {
            d.program_page(partial.page(pg), SimTime::ZERO, &mut None)
                .unwrap();
        }
        let full = BlockAddr { plane: 1, block: 1 };
        for pg in 0..geo.pages_per_block {
            d.program_page(full.page(pg), SimTime::ZERO, &mut None)
                .unwrap();
        }
        let retired = BlockAddr { plane: 1, block: 3 };
        d.retire_block(retired).unwrap();
        let excluded = BlockAddr { plane: 0, block: 5 };

        let mut a = DieAlloc::from_scan(&d, &[excluded], true);
        assert_eq!(a.actives[0], Some(partial));
        assert_eq!(a.actives[1], None, "full blocks are not active");
        // free = all blocks minus {partial, full, retired, excluded}.
        assert_eq!(a.free_blocks() as u64, geo.blocks_per_die() - 4);
        // The adopted active block continues at its write cursor.
        let p = a.next_page_preferring(0, &d).unwrap();
        assert_eq!(p.block_addr(), partial);
        assert_eq!(p.page, 2);
    }

    /// The eager allocator, kept as the oracle of the on-demand ranges and
    /// the ordered pools: every plane's pool holds all its erased blocks
    /// from construction on, every wear-aware pick scans the pool for the
    /// lowest `(erase_count, block)`, and the LIFO policy pops a `Vec`.
    mod scan_oracle {
        use nandsim::{BlockAddr, Die, PhysPage};

        #[derive(Debug)]
        pub(super) struct ScanAlloc {
            pub(super) actives: Vec<Option<BlockAddr>>,
            pub(super) free: Vec<Vec<u32>>,
            next_plane: u32,
        }

        impl ScanAlloc {
            pub(super) fn new(die: &Die) -> Self {
                let geo = die.config().geometry;
                ScanAlloc {
                    actives: vec![None; geo.planes as usize],
                    free: (0..geo.planes)
                        .map(|_| (0..geo.blocks_per_plane).collect())
                        .collect(),
                    next_plane: 0,
                }
            }

            pub(super) fn push_free(&mut self, block: BlockAddr) {
                self.free[block.plane as usize].push(block.block);
            }

            pub(super) fn discard_block(&mut self, block: BlockAddr) {
                let plane = block.plane as usize;
                if self.actives[plane] == Some(block) {
                    self.actives[plane] = None;
                }
                self.free[plane].retain(|&b| b != block.block);
            }

            pub(super) fn take_block(
                &mut self,
                die: &Die,
                wear_leveling: bool,
            ) -> Option<BlockAddr> {
                let mut best: Option<(u64, u32, u32)> = None;
                for (plane, pool) in self.free.iter().enumerate() {
                    for &b in pool {
                        let wear = if wear_leveling {
                            let addr = BlockAddr {
                                plane: plane as u32,
                                block: b,
                            };
                            die.block(addr).unwrap().erase_count()
                        } else {
                            0
                        };
                        let key = (wear, plane as u32, b);
                        if best.map(|k| key < k).unwrap_or(true) {
                            best = Some(key);
                        }
                    }
                }
                let (_, plane, block) = best?;
                self.free[plane as usize].retain(|&b| b != block);
                Some(BlockAddr { plane, block })
            }

            pub(super) fn from_scan(die: &Die, exclude: &[BlockAddr]) -> Self {
                let geo = die.config().geometry;
                let mut alloc = ScanAlloc {
                    actives: vec![None; geo.planes as usize],
                    free: (0..geo.planes).map(|_| Vec::new()).collect(),
                    next_plane: 0,
                };
                for (flat, b) in die.iter_blocks() {
                    let addr = geo.block_at(flat);
                    if b.is_retired() || exclude.contains(&addr) {
                        continue;
                    }
                    match b.next_programmable() {
                        Some(0) => alloc.push_free(addr),
                        Some(_) => {
                            let slot = &mut alloc.actives[addr.plane as usize];
                            if slot.map(|cur| addr.block < cur.block).unwrap_or(true) {
                                *slot = Some(addr);
                            }
                        }
                        None => {}
                    }
                }
                alloc
            }

            pub(super) fn next_page_preferring(
                &mut self,
                plane: u32,
                die: &Die,
                wear_leveling: bool,
            ) -> Option<PhysPage> {
                self.next_page_on_plane(plane, die, wear_leveling)
                    .or_else(|| self.next_page(die, wear_leveling))
            }

            pub(super) fn next_page(&mut self, die: &Die, wear_leveling: bool) -> Option<PhysPage> {
                let planes = self.actives.len() as u32;
                let mut plane = self.next_plane;
                for _ in 0..planes {
                    if let Some(page) = self.next_page_on_plane(plane, die, wear_leveling) {
                        self.next_plane = (plane + 1) % planes;
                        return Some(page);
                    }
                    plane = (plane + 1) % planes;
                }
                None
            }

            fn next_page_on_plane(
                &mut self,
                plane: u32,
                die: &Die,
                wear_leveling: bool,
            ) -> Option<PhysPage> {
                if let Some(active) = self.actives[plane as usize] {
                    if let Some(page) = die.block(active).ok()?.next_programmable() {
                        return Some(active.page(page));
                    }
                    self.actives[plane as usize] = None;
                }
                let pool = &mut self.free[plane as usize];
                if pool.is_empty() {
                    return None;
                }
                let pick = if wear_leveling {
                    let best = pool
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &b)| {
                            let state = die.block(BlockAddr { plane, block: b }).unwrap();
                            (state.erase_count(), b)
                        })
                        .map(|(i, _)| i)
                        .unwrap();
                    pool.swap_remove(best)
                } else {
                    pool.pop().unwrap()
                };
                let addr = BlockAddr { plane, block: pick };
                self.actives[plane as usize] = Some(addr);
                Some(addr.page(0))
            }
        }
    }

    mod prop_model {
        use super::scan_oracle::ScanAlloc;
        use super::*;
        use nandsim::NandGeometry;
        use proptest::prelude::*;

        const PLANES: u32 = 2;
        const BLOCKS: u32 = 6;

        fn small_die() -> Die {
            Die::new(
                0,
                NandConfig {
                    geometry: NandGeometry {
                        planes: PLANES,
                        blocks_per_plane: BLOCKS,
                        pages_per_block: 4,
                        ..NandConfig::tiny_test_die().geometry
                    },
                    ..NandConfig::tiny_test_die()
                },
            )
        }

        /// Erases the full, unretired, inactive block `b` `times` times, as
        /// GC does once and a wear test more often. Returns `false` (and
        /// changes nothing) if `b` is not reclaimable.
        fn erase_victim(
            d: &mut Die,
            active: &[Option<BlockAddr>],
            b: BlockAddr,
            times: u8,
        ) -> bool {
            let state = d.block(b).unwrap();
            if state.next_programmable().is_some()
                || state.is_retired()
                || active.contains(&Some(b))
            {
                return false;
            }
            d.erase_block(b, SimTime::ZERO).unwrap();
            for _ in 1..times {
                if d.erase_block(b, SimTime::ZERO).is_err() {
                    break;
                }
            }
            true
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The kept free-block count equals the summed plane pools
            /// after every kind of pool mutation.
            #[test]
            fn free_count_matches_summed_pools(
                wl in 0u8..2,
                ops in prop::collection::vec((0u8..6, 0..PLANES, 0..BLOCKS), 1..200)
            ) {
                let mut d = small_die();
                let mut a = DieAlloc::new(&d, wl == 0);
                for (op, plane, block) in ops {
                    let b = BlockAddr { plane, block };
                    match op {
                        0 => {
                            if let Some(p) = a.next_page(&d) {
                                d.program_page(p, SimTime::ZERO, &mut None).unwrap();
                            }
                        }
                        1 => {
                            if let Some(p) = a.next_page_preferring(plane, &d) {
                                d.program_page(p, SimTime::ZERO, &mut None).unwrap();
                            }
                        }
                        2 => {
                            if erase_victim(&mut d, &a.actives, b, 1) {
                                a.reclaim_block(&d, b);
                            }
                        }
                        3 => {
                            d.retire_block(b).unwrap();
                            a.discard_block(&d, b);
                        }
                        4 => {
                            a.take_block(&d);
                        }
                        _ => a = DieAlloc::from_scan(&d, &[b], wl == 0),
                    }
                    let pooled: usize = a.free.iter().map(VecDeque::len).sum();
                    let fresh: usize = a.fresh.iter().map(|r| r.len()).sum();
                    prop_assert_eq!(a.free_blocks(), pooled + fresh);
                    prop_assert!(a.next_plane < PLANES);
                }
            }

            /// Over random allocation, reclaim at random erase counts,
            /// discard (of opened and never-opened blocks), take, rescan
            /// and uniform ageing, with wear levelling on and off, every
            /// pick equals the eager scan allocator's and each plane's
            /// range and pool hold the same blocks as its eager pool (in
            /// the same stack order without wear levelling).
            #[test]
            fn ordered_pools_pick_what_the_scan_picks(
                wl in 0u8..2,
                ops in prop::collection::vec((0u8..10, 0..PLANES, 0..BLOCKS, 1u8..3), 1..400)
            ) {
                let wear_leveling = wl == 0;
                let mut d = small_die();
                let mut a = DieAlloc::new(&d, wear_leveling);
                let mut o = ScanAlloc::new(&d);
                for (op, plane, block, times) in ops {
                    let b = BlockAddr { plane, block };
                    match op {
                        // Programs dominate, so blocks fill and get reclaimed
                        // at equal erase counts: ties the pick must break
                        // by block index.
                        0..=3 => {
                            let (got, want) = if op == 3 {
                                (
                                    a.next_page_preferring(plane, &d),
                                    o.next_page_preferring(plane, &d, wear_leveling),
                                )
                            } else {
                                (a.next_page(&d), o.next_page(&d, wear_leveling))
                            };
                            prop_assert_eq!(got, want);
                            if let Some(p) = got {
                                d.program_page(p, SimTime::ZERO, &mut None).unwrap();
                            }
                        }
                        4 | 5 => {
                            if erase_victim(&mut d, &a.actives, b, times) {
                                a.reclaim_block(&d, b);
                                o.push_free(b);
                                if d.block(b).unwrap().is_retired() {
                                    a.discard_block(&d, b);
                                    o.discard_block(b);
                                }
                            }
                        }
                        6 => {
                            d.retire_block(b).unwrap();
                            a.discard_block(&d, b);
                            o.discard_block(b);
                        }
                        7 => prop_assert_eq!(a.take_block(&d), o.take_block(&d, wear_leveling)),
                        8 => {
                            a = DieAlloc::from_scan(&d, &[b], wear_leveling);
                            o = ScanAlloc::from_scan(&d, &[b]);
                        }
                        _ => d.simulate_wear(times as u64),
                    }
                    prop_assert_eq!(&a.actives, &o.actives);
                    for ((fresh, pool), theirs) in a.fresh.iter().zip(&a.free).zip(&o.free) {
                        // The range lies below the pool in the LIFO stack.
                        let mut ours: Vec<u32> = fresh.clone().chain(pool.iter().copied()).collect();
                        let mut theirs = theirs.clone();
                        if wear_leveling {
                            ours.sort_unstable();
                            theirs.sort_unstable();
                        }
                        prop_assert_eq!(ours, theirs);
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustion_returns_none_then_push_free_revives() {
        let mut d = die();
        let mut a = DieAlloc::new(&d, true);
        while let Some(p) = a.next_page(&d) {
            d.program_page(p, SimTime::ZERO, &mut None).unwrap();
        }
        assert_eq!(a.free_blocks(), 0);
        assert_eq!(a.next_page(&d), None);
        // Reclaim one block: allocation works again on that plane.
        let b = BlockAddr { plane: 1, block: 3 };
        d.erase_block(b, SimTime::ZERO).unwrap();
        a.reclaim_block(&d, b);
        let p = a.next_page(&d).unwrap();
        assert_eq!(p.block_addr(), b);
    }
}
