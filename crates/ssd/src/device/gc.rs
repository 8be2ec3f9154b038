//! Space reclamation and block relocation: greedy garbage collection,
//! static wear levelling, and the retirement (with rescue of live pages) of
//! blocks that fail a program.

use super::{Device, ProgramKind, ReadRoute};
use crate::address::{DieId, Lpn, Ppa};
use crate::error::SsdError;
use crate::trace::OpKind;
use nandsim::store::{BlockState, PageState};
use nandsim::{BlockAddr, NandError, PhysPage};
use simkit::{SimTime, Window};

/// Static wear-levelling state, present when
/// [`crate::GcPolicy::static_wl_threshold`] is set.
#[derive(Debug)]
pub(super) struct StaticWl {
    /// Erase-count spread within a die that triggers a migration.
    pub(super) threshold: u64,
    /// Per-die erases since the die's last scan (cheap cadence gate).
    pub(super) erases_since_scan: Vec<u64>,
}

/// The GC victim among a die's blocks, given in flat order: the full,
/// unretired block with the fewest valid pages and at least one invalid
/// page, ties to the lowest flat index, that `excluded` (blocks being
/// filled, journal blocks) does not claim. The per-block filters run
/// first and `excluded` is asked only about a block that would beat the
/// best so far. A block with no valid page ends the scan: no later block
/// can beat `(0, flat)`, and in steady state every victim is all-stale.
fn pick_victim<'a>(
    blocks: impl Iterator<Item = (u64, &'a BlockState)>,
    pages_per_block: u32,
    mut excluded: impl FnMut(u64) -> bool,
) -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for (flat, b) in blocks {
        let valid = b.valid_pages();
        if b.next_programmable().is_some() || valid == pages_per_block || b.is_retired() {
            continue; // not full yet, nothing reclaimable, or out of service
        }
        if best.is_some_and(|best| (valid, flat) >= best) || excluded(flat) {
            continue;
        }
        best = Some((valid, flat));
        if valid == 0 {
            break;
        }
    }
    best.map(|(_, flat)| flat)
}

/// Start GC on a die when its free-block count drops below this.
pub(crate) const GC_LOW_WATERMARK: usize = 4;
/// Stop GC once the die has at least this many free blocks.
pub(crate) const GC_HIGH_WATERMARK: usize = 8;

impl Device {
    /// Runs garbage collection on a die until its free-block pool is back
    /// above [`GC_LOW_WATERMARK`].
    pub(super) fn ensure_space(&mut self, die_id: DieId, at: SimTime) -> Result<(), SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        if self.ftl.free_blocks(die_flat) >= GC_LOW_WATERMARK {
            return Ok(());
        }
        while self.ftl.free_blocks(die_flat) < GC_HIGH_WATERMARK {
            if !self.gc_once(die_id, at)? {
                // No reclaimable block. Fatal only if allocation is truly
                // impossible: no free blocks and no programmable page in
                // any active block.
                let die = self.die(die_id);
                let any_programmable = self
                    .ftl
                    .active_blocks(die_flat)
                    .iter()
                    .any(|&b| die.block(b).is_ok_and(|s| s.next_programmable().is_some()));
                if self.ftl.free_blocks(die_flat) == 0 && !any_programmable {
                    return Err(SsdError::OutOfSpace(die_id));
                }
                break;
            }
        }
        Ok(())
    }

    /// One GC pass on a die: pick the fullest-of-invalid victim, relocate
    /// its valid pages die-locally (copyback — no bus traffic), erase it.
    /// Returns `false` if no block was worth collecting.
    fn gc_once(&mut self, die_id: DieId, at: SimTime) -> Result<bool, SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let geo = self.config.nand.geometry;
        let pick = pick_victim(
            self.die(die_id).iter_blocks(),
            geo.pages_per_block,
            |flat| self.ftl.is_active(die_flat, flat) || self.is_journal_block(die_flat, flat),
        );
        let Some(flat) = pick else {
            return Ok(false);
        };
        self.relocate_and_erase(die_id, geo.block_at(flat), at)?;
        Ok(true)
    }

    /// Relocates every valid page of `victim` die-locally (copyback) and
    /// erases it, returning the block to the free pool. An erase that
    /// reports bad status retires the victim instead — its pages were all
    /// relocated or stale, so nothing else is lost.
    fn relocate_and_erase(
        &mut self,
        die_id: DieId,
        victim_addr: BlockAddr,
        at: SimTime,
    ) -> Result<(), SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let geo = self.config.nand.geometry;
        // A victim whose pages are all stale (the steady state of full-state
        // rewrites) has nothing to relocate.
        let pages = match self.die(die_id).block(victim_addr)?.valid_pages() {
            0 => 0,
            _ => geo.pages_per_block,
        };
        for page_idx in 0..pages {
            if self.die(die_id).page_state(victim_addr.page(page_idx))? != PageState::Valid {
                continue;
            }
            let src_ppa = Ppa {
                die: die_id,
                page: victim_addr.page(page_idx),
            };
            let owner = self
                .ftl
                .owner_of(src_ppa)
                .ok_or(SsdError::OrphanPage(src_ppa))?;
            // The program adopts a pooled copy of the page the read served:
            // the source, or the fresh page a reconstruction re-homed it on.
            let (read_win, served) = self.read_with_retry(owner, src_ppa, at, ReadRoute::Array)?;
            self.program_no_gc(
                owner,
                die_id,
                self.copy_page(served)?,
                read_win.end,
                false,
                None,
                ProgramKind::Relocate(src_ppa),
            )?;
            self.stats.gc_copies.incr();
        }

        let channel = &mut self.channels[die_id.channel as usize];
        match channel.die_mut(die_id.index).erase_block(victim_addr, at) {
            Ok(erase_win) => {
                self.trace_op(OpKind::Erase, None, die_id, erase_win);
                let die = self.channels[die_id.channel as usize].die(die_id.index);
                self.ftl.reclaim_block(die_flat, die, victim_addr);
                // The erase may have pushed the block past its rated P/E
                // cycles: a wear-retired block must not re-enter the pool.
                if die.block(victim_addr)?.is_retired() {
                    self.ftl.discard_block(die_flat, die, victim_addr);
                }
                self.stats.erases.incr();
                if let Some(wl) = &mut self.wl {
                    wl.erases_since_scan[die_flat as usize] += 1;
                }
            }
            Err(NandError::EraseFailed { busy_until, .. }) => {
                self.stats.erase_failures.incr();
                let t_erase = self.config.nand.timing.t_erase;
                self.trace_op(
                    OpKind::EraseFail,
                    None,
                    die_id,
                    Window {
                        start: busy_until - t_erase,
                        end: busy_until,
                    },
                );
                // Bad erase status: the block cannot be reclaimed. Retire
                // it and take it out of allocation for good.
                self.retire(die_id, victim_addr)?;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Static wear levelling: if the erase-count spread within a die
    /// exceeds the configured threshold, migrate the coldest *data* block
    /// (lowest erase count among full blocks holding valid pages) so its
    /// low-wear cells rejoin the free pool. Dynamic allocation alone can
    /// never recycle a block whose data is simply never rewritten. Without
    /// static wear levelling this is one inlined branch.
    #[inline]
    pub(super) fn maybe_static_wl(&mut self, die_id: DieId, at: SimTime) -> Result<(), SsdError> {
        if self.wl.is_none() {
            return Ok(());
        }
        self.static_wl_pass(die_id, at)
    }

    #[inline(never)]
    fn static_wl_pass(&mut self, die_id: DieId, at: SimTime) -> Result<(), SsdError> {
        let die_flat = die_id.flat(self.config.dies_per_channel);
        let Some(wl) = &mut self.wl else {
            return Ok(());
        };
        // Cheap cadence gate: scan at most once every few erases.
        let since_scan = &mut wl.erases_since_scan[die_flat as usize];
        if *since_scan < 4 {
            return Ok(());
        }
        *since_scan = 0;
        let threshold = wl.threshold;

        let geo = self.config.nand.geometry;
        let (mut max_erase, mut cold): (u64, Option<(u64, u64)>) = (0, None);
        for (flat, b) in self.die(die_id).iter_blocks() {
            max_erase = max_erase.max(b.erase_count());
            if b.is_retired()
                || b.next_programmable().is_some()
                || b.valid_pages() == 0
                || self.ftl.is_active(die_flat, flat)
                || self.is_journal_block(die_flat, flat)
            {
                continue;
            }
            if cold.map(|(e, _)| b.erase_count() < e).unwrap_or(true) {
                cold = Some((b.erase_count(), flat));
            }
        }
        if let Some((erases, flat)) = cold {
            if max_erase.saturating_sub(erases) > threshold {
                self.relocate_and_erase(die_id, geo.block_at(flat), at)?;
            }
        }
        Ok(())
    }

    /// Marks `block` bad on its die and takes it out of allocation forever.
    fn retire(&mut self, die_id: DieId, block: BlockAddr) -> Result<(), SsdError> {
        let channel = &mut self.channels[die_id.channel as usize];
        channel.die_mut(die_id.index).retire_block(block)?;
        self.ftl.discard_block(
            die_id.flat(self.config.dies_per_channel),
            channel.die(die_id.index),
            block,
        );
        self.stats.retired_blocks.incr();
        Ok(())
    }

    /// Retires `block` after a media fault and relocates its valid pages
    /// die-locally. Rescue reads run the bounded retry policy; rescue
    /// programs run the full recovery loop, so a failure *during* rescue
    /// retires further blocks before resuming. Returns the instant the
    /// rescue finished draining.
    pub(super) fn retire_and_rescue(
        &mut self,
        die_id: DieId,
        block: BlockAddr,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.retire(die_id, block)?;
        let geo = self.config.nand.geometry;
        let victims: Vec<(Lpn, PhysPage)> = (0..geo.pages_per_block)
            .filter_map(|idx| {
                let page = block.page(idx);
                if self.die(die_id).page_state(page).ok()? != PageState::Valid {
                    return None;
                }
                let ppa = Ppa { die: die_id, page };
                self.ftl.owner_of(ppa).map(|lpn| (lpn, page))
            })
            .collect();
        let mut t = at;
        for (owner, src) in victims {
            let src_ppa = Ppa {
                die: die_id,
                page: src,
            };
            let (read_win, served) = self.read_with_retry(owner, src_ppa, t, ReadRoute::Array)?;
            let (win, _) = self.program_no_gc(
                owner,
                die_id,
                self.copy_page(served)?,
                read_win.end,
                false,
                Some(src.plane),
                ProgramKind::Relocate(src_ppa),
            )?;
            self.stats.rescue_copies.incr();
            t = win.end;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::DieAlloc;
    use crate::{RainConfig, SsdConfig};
    use nandsim::{Die, NandConfig, NandGeometry};
    use proptest::prelude::*;

    /// A functional RAIN device whose LPNs `0..32` each hold a page of
    /// their own fill byte, committed, and the commit's end.
    fn rained_with_32_pages() -> (Device, SimTime) {
        let mut dev = Device::new_functional(SsdConfig::tiny().with_rain(RainConfig::rotating()));
        let mut t = SimTime::ZERO;
        for i in 0..32u8 {
            let data = vec![i; dev.page_bytes()];
            t = dev
                .host_write_page(Lpn(i.into()), Some(&data), t)
                .unwrap()
                .end;
        }
        let t = dev.commit_epoch(t).unwrap();
        (dev, t)
    }

    /// After Lpn 7's destroyed page was relocated: the relocation read it
    /// by one parity reconstruction, and the page it moved to holds the
    /// rebuilt bytes.
    fn assert_relocated_with_rebuilt_bytes(dev: &mut Device, src: Ppa, t: SimTime) {
        assert_eq!(dev.stats().parity_reconstructions.get(), 1);
        assert_ne!(dev.ftl.lookup(Lpn(7)), Some(src));
        let (_, out) = dev.host_read_page(Lpn(7), t).unwrap();
        assert_eq!(out.unwrap().as_ref(), &vec![7; dev.page_bytes()][..]);
    }

    #[test]
    fn gc_relocates_a_reconstructed_page_with_its_rebuilt_bytes() {
        let (mut dev, mut t) = rained_with_32_pages();
        let src = dev.ftl.lookup(Lpn(7)).unwrap();
        let block = src.page.block_addr();
        let die_flat = src.die.flat(dev.config.dies_per_channel);
        let flat = dev.config.nand.geometry.block_index(block);
        // GC takes only a full block that no allocator is filling: fill
        // Lpn 7's block with fresh pages on its die first.
        let fresh = vec![0xA5; dev.page_bytes()];
        let mut lpn = 32;
        while dev
            .die(src.die)
            .block(block)
            .unwrap()
            .next_programmable()
            .is_some()
            || dev.ftl.is_active(die_flat, flat)
        {
            if dev.die_for_lpn(Lpn(lpn)) == src.die {
                t = dev.host_write_page(Lpn(lpn), Some(&fresh), t).unwrap().end;
            }
            lpn += 1;
        }
        let t = dev.commit_epoch(t).unwrap();
        dev.inject_page_loss(Lpn(7)).unwrap();
        dev.relocate_and_erase(src.die, block, t).unwrap();
        assert_relocated_with_rebuilt_bytes(&mut dev, src, t);
    }

    #[test]
    fn rescue_relocates_a_reconstructed_page_with_its_rebuilt_bytes() {
        let (mut dev, t) = rained_with_32_pages();
        let src = dev.ftl.lookup(Lpn(7)).unwrap();
        dev.inject_page_loss(Lpn(7)).unwrap();
        dev.retire_and_rescue(src.die, src.page.block_addr(), t)
            .unwrap();
        assert_relocated_with_rebuilt_bytes(&mut dev, src, t);
    }

    /// The victim scan as it was before the early exit: every block is
    /// visited.
    fn pick_victim_full_scan<'a>(
        blocks: impl Iterator<Item = (u64, &'a BlockState)>,
        pages_per_block: u32,
        mut excluded: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let mut best: Option<(u32, u64)> = None;
        for (flat, b) in blocks {
            let valid = b.valid_pages();
            if b.next_programmable().is_some() || valid == pages_per_block || b.is_retired() {
                continue;
            }
            if best.is_some_and(|best| (valid, flat) >= best) || excluded(flat) {
                continue;
            }
            best = Some((valid, flat));
        }
        best.map(|(_, flat)| flat)
    }

    const PAGES: u32 = 4;

    /// A phantom die of `planes` × `blocks_per_plane` blocks of
    /// [`PAGES`] pages.
    fn small_die(planes: u32, blocks_per_plane: u32) -> Die {
        let geometry = NandGeometry {
            planes,
            blocks_per_plane,
            pages_per_block: PAGES,
            ..NandConfig::tiny_test_die().geometry
        };
        Die::new(
            0,
            NandConfig {
                geometry,
                ..NandConfig::tiny_test_die()
            },
        )
    }

    /// Every block of `die` in flat order, each looked up on its own
    /// rather than through [`Die::iter_blocks`].
    fn block_by_block(die: &Die) -> Vec<(u64, &BlockState)> {
        let geo = die.config().geometry;
        (0..geo.blocks_per_die())
            .map(|flat| (flat, die.block(geo.block_at(flat)).unwrap()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random full, partial, retired, active and never-written
        /// blocks with any valid count, on random geometries, the
        /// early-exit pick over the die's block walk equals the full
        /// scan's over block-by-block lookups.
        #[test]
        fn early_exit_pick_matches_full_scan(
            (planes, blocks_per_plane) in (1u32..=4, 1u32..=8),
            blocks in prop::collection::vec((0..=PAGES, 0..=PAGES, 0u8..8, 0u8..4), 32..33)
        ) {
            let mut die = small_die(planes, blocks_per_plane);
            let geometry = die.config().geometry;
            let mut active = Vec::new();
            for (flat, &(programmed, invalid, retired, act)) in
                blocks.iter().take(geometry.blocks_per_die() as usize).enumerate()
            {
                let addr = geometry.block_at(flat as u64);
                for page in 0..programmed {
                    die.program_page(addr.page(page), SimTime::ZERO, &mut None).unwrap();
                }
                for page in 0..invalid.min(programmed) {
                    die.invalidate(addr.page(page)).unwrap();
                }
                if retired == 0 {
                    die.retire_block(addr).unwrap();
                }
                if act == 0 {
                    active.push(flat as u64);
                }
            }
            let excluded = |flat: u64| active.contains(&flat);
            prop_assert_eq!(
                pick_victim(die.iter_blocks(), PAGES, excluded),
                pick_victim_full_scan(block_by_block(&die).into_iter(), PAGES, excluded)
            );
        }

        /// Blocks opened by the allocator — lowest index first with wear
        /// levelling, highest first without — then partly invalidated:
        /// the pick over the die's block walk equals the full scan's.
        #[test]
        fn allocator_filled_pick_matches_full_scan(
            (planes, blocks_per_plane, wear_leveling) in (1u32..=4, 1u32..=8, any::<bool>()),
            programs in 0u32..128,
            invalid in prop::collection::vec(any::<bool>(), 128..129)
        ) {
            let mut die = small_die(planes, blocks_per_plane);
            let mut alloc = DieAlloc::new(&die, wear_leveling);
            let mut written = Vec::new();
            for _ in 0..programs {
                let Some(page) = alloc.next_page(&die) else { break };
                die.program_page(page, SimTime::ZERO, &mut None).unwrap();
                written.push(page);
            }
            for (page, _) in written.iter().zip(&invalid).filter(|(_, &inv)| inv) {
                die.invalidate(*page).unwrap();
            }
            let active: Vec<u64> = alloc
                .active_blocks()
                .map(|b| die.config().geometry.block_index(b))
                .collect();
            let excluded = |flat: u64| active.contains(&flat);
            prop_assert_eq!(
                pick_victim(die.iter_blocks(), PAGES, excluded),
                pick_victim_full_scan(block_by_block(&die).into_iter(), PAGES, excluded)
            );
        }
    }
}
