//! The die itself: array operations with timing, legality checking,
//! functional data, and wear accounting.

use crate::error::NandError;
use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::geometry::{BlockAddr, PhysPage};
use crate::power::PageOob;
use crate::store::{new_invalid_bits, Backing, BlockState, BlockTable, PageState, PageStore};
use crate::timing::NandConfig;
use crate::wear::{read_retries, AgingConfig, RberMemo, RberModel};
use simkit::pool::PageBuf;
use simkit::slab::{Slabs, NO_SLAB};
use simkit::stats::Counter;
use simkit::{SimTime, Timeline, Window};

/// Operation counters for one die.
#[derive(Debug, Clone, Default)]
pub struct DieStats {
    /// Page reads executed.
    pub reads: Counter,
    /// Page programs executed.
    pub programs: Counter,
    /// Block erases executed.
    pub erases: Counter,
}

/// One NAND die: planes of blocks of pages, with timing and wear.
///
/// The die enforces NAND's physical discipline (erase-before-program,
/// sequential page programming within a block, no reprogramming) and tracks
/// per-block wear. Array operations occupy the owning plane for the
/// configured latency; concurrent operations on *different* planes proceed
/// in parallel, which is exactly the parallelism on-die processing engines
/// exploit.
#[derive(Debug)]
pub struct Die {
    id: u32,
    config: NandConfig,
    planes: Vec<Timeline>,
    blocks: BlockTable,
    /// Invalid-page bitsets of the blocks that hold an invalid page.
    invalid: Slabs,
    backing: Backing,
    stats: DieStats,
    /// The cells' P/E curve, memoized by erase count for this die's blocks.
    rber: RberMemo,
    /// Seeded fault source; `None` (the default) means the fault-free
    /// path performs no draws and stays bit-identical to a faultless die.
    fault: Option<FaultInjector>,
    /// Media-aging model (read disturb + retention); `None` (the default)
    /// leaves the pure P/E RBER curve untouched.
    aging: Option<AgingConfig>,
    /// Armed crash instant: operations starting at or after it fail with
    /// [`NandError::PowerLoss`] until a mount disarms it.
    power: Option<SimTime>,
    /// Per-page OOB state of the blocks that hold a stamp or a torn page:
    /// one slab of `pages_per_block` slots per such block, taken at its
    /// first stamp or tear and released by its erase.
    oob: Slabs<OobSlot>,
    /// `oob`'s slab of each block by its
    /// [block-major](crate::NandGeometry::block_major_slot) slot
    /// ([`NO_SLAB`] for none), as long as the highest slot that took one:
    /// empty on a die that never stamps or tears.
    oob_lane: Vec<u32>,
}

/// The out-of-band state of one page.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum OobSlot {
    /// No stamp: the page is free, or was programmed without one, and
    /// mount recovery does not trust it.
    #[default]
    Unstamped,
    /// The stamp the controller wrote after the page's program.
    Stamped(PageOob),
    /// Torn by a power loss mid-program, or corrupted: no stamp is
    /// trustworthy and every read fails until the block is erased.
    Torn,
}

impl Die {
    /// Creates a die in *phantom* mode (timing and state only, no data).
    pub fn new(id: u32, config: NandConfig) -> Self {
        Self::with_backing(id, config, Backing::Phantom)
    }

    /// Creates a die that stores real page contents (functional mode).
    pub fn new_functional(id: u32, config: NandConfig) -> Self {
        Self::with_backing(id, config, Backing::Data(PageStore::new(&config.geometry)))
    }

    fn with_backing(id: u32, config: NandConfig, backing: Backing) -> Self {
        let planes = (0..config.geometry.planes)
            .map(|_| Timeline::new("plane"))
            .collect();
        Die {
            id,
            config,
            planes,
            blocks: BlockTable::new(&config.geometry),
            invalid: new_invalid_bits(&config.geometry),
            backing,
            stats: DieStats::default(),
            rber: RberMemo::new(RberModel::tlc(), config.rated_pe_cycles()),
            fault: None,
            aging: None,
            power: None,
            oob: Slabs::new(config.geometry.pages_per_block as usize),
            oob_lane: Vec::new(),
        }
    }

    /// Arms deterministic fault injection: the die derives its own stream
    /// from `cfg.seed` and its id. Passing an inactive config disarms it.
    pub fn set_fault_config(&mut self, cfg: FaultConfig) {
        self.fault = cfg.is_active().then(|| FaultInjector::new(cfg, self.id));
    }

    /// Injected-fault counters, when fault injection is armed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(FaultInjector::stats)
    }

    /// Arms the media-aging model (read disturb + retention). Passing an
    /// inactive config disarms it, keeping the aging-free path identical
    /// to a die that never saw the call.
    pub fn set_aging(&mut self, cfg: AgingConfig) {
        self.aging = cfg.is_active().then_some(cfg);
    }

    /// The armed aging model, if any.
    pub fn aging(&self) -> Option<AgingConfig> {
        self.aging
    }

    /// The P/E reliability model of this die's cells.
    pub fn rber_model(&self) -> &RberModel {
        self.rber.model()
    }

    /// Effective RBER of block `b` if sensed at `now`: the P/E base curve
    /// plus (when aging is armed) read-disturb and retention growth.
    pub fn effective_rber(&self, b: BlockAddr, now: SimTime) -> Result<f64, NandError> {
        let block = self.block(b)?;
        Ok(self.block_rber(block, now))
    }

    fn block_rber(&self, block: &BlockState, now: SimTime) -> f64 {
        let base = self.rber.rber(block.erase_count());
        match &self.aging {
            None => base,
            Some(aging) => {
                let retention_ns = block
                    .last_program_ns()
                    .map_or(0, |t| now.as_ns().saturating_sub(t));
                base + aging.extra_rber(block.reads_since_erase(), retention_ns)
            }
        }
    }

    /// Forces page `p` into the unreadable (torn) state, as if its charge
    /// were lost to media damage: every later read fails with
    /// [`NandError::ReadUncorrectable`] — consuming no fault draw — until
    /// the block is erased. Deterministic hook for exercising the
    /// reconstruction path. The page must have been programmed.
    pub fn corrupt_page(&mut self, p: PhysPage) -> Result<(), NandError> {
        if self.page_state(p)? == PageState::Free {
            return Err(NandError::ReadUnwritten(p));
        }
        *self.oob_slot_mut(p) = OobSlot::Torn;
        Ok(())
    }

    /// Arms (or, with `None`, disarms) a crash instant. Operations whose
    /// start would fall at or after it fail with [`NandError::PowerLoss`];
    /// a program *in flight* across the instant tears its page. Mount
    /// recovery disarms the crash before scanning.
    pub fn set_power_loss(&mut self, at: Option<SimTime>) {
        self.power = at;
    }

    /// The armed crash instant, if any.
    pub fn power_loss(&self) -> Option<SimTime> {
        self.power
    }

    /// True if `p` was torn by a crash mid-program (unreadable until its
    /// block is erased).
    #[inline]
    pub fn is_torn(&self, p: PhysPage) -> bool {
        self.oob_slot(p) == OobSlot::Torn
    }

    /// Stamps page `p`'s out-of-band area (the controller calls this
    /// immediately after a successful program; a crash between the two is
    /// not observable because both happen within the program window).
    /// A torn page stays torn.
    pub fn put_oob(&mut self, p: PhysPage, oob: PageOob) {
        let slot = self.oob_slot_mut(p);
        if *slot != OobSlot::Torn {
            *slot = OobSlot::Stamped(oob);
        }
    }

    /// The OOB stamp of page `p`, if it has a trustworthy one. Torn pages
    /// and pages programmed without a stamp return `None`.
    pub fn oob(&self, p: PhysPage) -> Option<PageOob> {
        match self.oob_slot(p) {
            OobSlot::Stamped(oob) => Some(oob),
            OobSlot::Unstamped | OobSlot::Torn => None,
        }
    }

    /// The OOB state of page `p`: unstamped when its block has no slab,
    /// which a die that never stamps or tears answers without touching
    /// the store.
    #[inline]
    fn oob_slot(&self, p: PhysPage) -> OobSlot {
        let at = self.config.geometry.block_major_slot(p.block_addr());
        match self.oob_lane.get(at) {
            Some(&slab) if slab != NO_SLAB => self.oob.word(slab, p.page as usize),
            _ => OobSlot::Unstamped,
        }
    }

    /// Page `p`'s OOB state, mutably; its block takes a slab if it has
    /// none.
    fn oob_slot_mut(&mut self, p: PhysPage) -> &mut OobSlot {
        let at = self.config.geometry.block_major_slot(p.block_addr());
        if at >= self.oob_lane.len() {
            self.oob_lane.resize(at + 1, NO_SLAB);
        }
        let slab = &mut self.oob_lane[at];
        if *slab == NO_SLAB {
            *slab = self.oob.alloc();
        }
        self.oob.word_mut(*slab, p.page as usize)
    }

    /// Die identifier (assigned by the channel that owns it).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Static configuration.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// Operation counters.
    pub fn stats(&self) -> &DieStats {
        &self.stats
    }

    /// True if the die stores real page contents.
    pub fn is_functional(&self) -> bool {
        self.backing.is_functional()
    }

    /// The instant at which plane `plane` next becomes free.
    pub fn plane_free_at(&self, plane: u32) -> SimTime {
        self.planes[plane as usize].free_at()
    }

    /// Total time plane `plane` has spent busy.
    pub fn plane_busy_total(&self, plane: u32) -> simkit::SimDuration {
        self.planes[plane as usize].busy_total()
    }

    /// Per-block state (read-only).
    pub fn block(&self, b: BlockAddr) -> Result<&BlockState, NandError> {
        if !self.config.geometry.contains_block(b) {
            return Err(NandError::BadBlock(b));
        }
        Ok(self.blocks.get(b))
    }

    /// The block holding `p`, if `p` is on this die.
    #[inline]
    fn block_of(&self, p: PhysPage) -> Result<BlockAddr, NandError> {
        if !self.config.geometry.contains(p) {
            return Err(NandError::BadAddress(p));
        }
        Ok(p.block_addr())
    }

    /// Lifecycle state of page `p`.
    pub fn page_state(&self, p: PhysPage) -> Result<PageState, NandError> {
        let block = self.blocks.get(self.block_of(p)?);
        Ok(block.page_state(p.page, &self.invalid))
    }

    /// Marks a `Valid` page `Invalid` (its logical contents moved
    /// elsewhere; the FTL's invalidation bookkeeping). Returns `false` if
    /// the page was not valid.
    #[inline]
    pub fn invalidate(&mut self, p: PhysPage) -> Result<bool, NandError> {
        let block = self.block_of(p)?;
        Ok(self
            .blocks
            .get_mut(block)
            .invalidate(p.page, &mut self.invalid))
    }

    /// [`Self::invalidate`], and on a functional die the page's bytes go
    /// back to the page store now rather than at the block's erase: a
    /// later read of the page fails with [`NandError::NoData`]. For a
    /// superseded version that nothing may read again.
    #[inline]
    pub fn invalidate_and_release(&mut self, p: PhysPage) -> Result<bool, NandError> {
        let invalidated = self.invalidate(p)?;
        if let Backing::Data(store) = &mut self.backing {
            let block = self.config.geometry.block_index(p.block_addr()) as usize;
            store.release(block, p.page as usize);
        }
        Ok(invalidated)
    }

    /// Forces a programmed page's validity (mount recovery rebuilds the
    /// Valid/Invalid partition from scanned OOB stamps rather than the
    /// lost RAM state). Returns `false` — and changes nothing — for a
    /// `Free` page, which has no validity to rewrite.
    pub fn set_validity(&mut self, p: PhysPage, valid: bool) -> Result<bool, NandError> {
        let block = self.block_of(p)?;
        Ok(self
            .blocks
            .get_mut(block)
            .set_validity(p.page, valid, &mut self.invalid))
    }

    /// Retires block `b` (no further programs or erases), as the FTL does
    /// to a block that reported a media fault.
    pub fn retire_block(&mut self, b: BlockAddr) -> Result<(), NandError> {
        if !self.config.geometry.contains_block(b) {
            return Err(NandError::BadBlock(b));
        }
        self.blocks.get_mut(b).retire();
        Ok(())
    }

    /// Senses page `p` into the page register, starting no earlier than
    /// `at`, and returns the array occupancy window. The read delivers no
    /// bytes: whoever consumes them borrows them afterwards with
    /// [`Self::page_data`]. Reading a `Free` (never-programmed) page is an
    /// error, and so is a functional read of a page with no bytes
    /// ([`NandError::NoData`]).
    pub fn read_page(&mut self, p: PhysPage, at: SimTime) -> Result<Window, NandError> {
        if !self.config.geometry.contains(p) {
            return Err(NandError::BadAddress(p));
        }
        let block = self.blocks.get(p.block_addr());
        if block.page_state(p.page, &self.invalid) == PageState::Free {
            return Err(NandError::ReadUnwritten(p));
        }
        // Worn (and, with aging armed, disturbed/stale) cells need
        // read-retries: the base sense plus one full re-read per retry
        // level. The same effective RBER drives both the latency here and
        // the uncorrectable probability below, so aging makes hot pages
        // slower *before* it makes them lossy.
        let rber = self.block_rber(block, at);
        let ecc_ceiling = self.rber.model().ecc_ceiling;
        let retries = read_retries(rber, ecc_ceiling);
        let t_read = self
            .config
            .timing
            .t_read(self.config.page_type(p.page))
            .saturating_mul(1 + retries as u64);
        if let Some(crash) = self.power {
            let start = at.max(self.planes[p.plane as usize].free_at());
            if start + t_read > crash {
                // Either the power was already gone when the sense would
                // start, or it dropped mid-sense: no data leaves the die
                // and the attempt leaves no trace.
                return Err(NandError::PowerLoss { at: crash });
            }
        }
        let win = self.planes[p.plane as usize].acquire(at, t_read);
        self.stats.reads.incr();
        if self.aging.is_some() {
            // The sense disturbs the block's neighbouring cells; the clock
            // only ticks while the aging model is armed so the disarmed
            // path stays bit-identical to an aging-free die.
            self.blocks.get_mut(p.block_addr()).note_read();
        }
        if self.is_torn(p) {
            // A torn page holds a partial charge pattern no ECC can fix;
            // the sense still consumed the plane. No fault draw happens —
            // the outcome is certain.
            return Err(NandError::ReadUncorrectable {
                page: p,
                busy_until: win.end,
            });
        }
        if let Some(fault) = &mut self.fault {
            if fault.roll_read(rber, ecc_ceiling) {
                // The sense (and its retries) consumed the plane, but the
                // ECC could not converge: no data leaves the die.
                return Err(NandError::ReadUncorrectable {
                    page: p,
                    busy_until: win.end,
                });
            }
        }
        if let Backing::Data(store) = &self.backing {
            // A programmed page in functional mode must have contents.
            let block_idx = self.config.geometry.block_index(p.block_addr()) as usize;
            store
                .get(block_idx, p.page as usize)
                .ok_or(NandError::NoData(p))?;
        }
        Ok(win)
    }

    /// Borrows the bytes of page `p` where they rest in the page store,
    /// with no timing, no fault draw and no read accounting: for a page
    /// that a timed [`Self::read_page`] already sensed, whose bytes an
    /// engine consumes from the page register. Fails with
    /// [`NandError::NoData`] when the page holds no trustworthy bytes: on
    /// a phantom die, for a free, released or erased page, and for a torn
    /// one.
    pub fn page_data(&self, p: PhysPage) -> Result<&[u8], NandError> {
        if !self.config.geometry.contains(p) {
            return Err(NandError::BadAddress(p));
        }
        let block_idx = self.config.geometry.block_index(p.block_addr()) as usize;
        match &self.backing {
            Backing::Data(store) if !self.is_torn(p) => store
                .get(block_idx, p.page as usize)
                .ok_or(NandError::NoData(p)),
            _ => Err(NandError::NoData(p)),
        }
    }

    /// Programs page `p` with optional contents, starting no earlier than
    /// `at`.
    ///
    /// `data` must be exactly one page long when present. In functional mode
    /// data is required; in phantom mode it may be omitted. A functional die
    /// stores the page buffer itself, taking it out of `data` only when the
    /// program succeeds: after any error the caller still holds it, to
    /// re-home the page elsewhere. A phantom die leaves `data` alone.
    pub fn program_page(
        &mut self,
        p: PhysPage,
        at: SimTime,
        data: &mut Option<PageBuf>,
    ) -> Result<Window, NandError> {
        if !self.config.geometry.contains(p) {
            return Err(NandError::BadAddress(p));
        }
        let geo = self.config.geometry;
        let block = self.blocks.get_mut(p.block_addr());
        if block.is_retired() {
            return Err(NandError::WornOut(p.block_addr()));
        }
        match block.next_programmable() {
            None => return Err(NandError::Reprogram(p)),
            Some(next) if next != p.page => {
                if p.page < next {
                    return Err(NandError::Reprogram(p));
                }
                return Err(NandError::OutOfOrderProgram {
                    page: p,
                    expected: next,
                });
            }
            Some(_) => {}
        }
        if let Some(d) = data.as_deref() {
            if d.len() != geo.page_bytes as usize {
                return Err(NandError::WrongLength {
                    page: p,
                    got: d.len(),
                    want: geo.page_bytes as usize,
                });
            }
        } else if self.backing.is_functional() {
            return Err(NandError::NoData(p));
        }
        if let Some(crash) = self.power {
            let start = at.max(self.planes[p.plane as usize].free_at());
            if start >= crash {
                // Power was already gone: the program never started and
                // nothing changes.
                return Err(NandError::PowerLoss { at: crash });
            }
            if start + self.config.timing.t_program > crash {
                // The program was in flight when power dropped: the page is
                // torn. Its cells hold a partial pattern — the write cursor
                // advanced (the page is no longer erased) but no data and
                // no OOB stamp are trustworthy, and every later read fails
                // until the block is erased.
                self.planes[p.plane as usize].acquire(at, self.config.timing.t_program);
                block.mark_programmed(p.page);
                *self.oob_slot_mut(p) = OobSlot::Torn;
                return Err(NandError::PowerLoss { at: crash });
            }
        }
        let win = self.planes[p.plane as usize].acquire(at, self.config.timing.t_program);
        let rber = self.rber.rber(block.erase_count());
        if let Some(fault) = &mut self.fault {
            if fault.roll_program(rber, self.rber.model().ecc_ceiling) {
                // Bad program status: the plane was occupied for the full
                // tPROG but the page holds nothing usable. The caller must
                // treat the block as bad and re-home the page.
                return Err(NandError::ProgramFailed {
                    page: p,
                    busy_until: win.end,
                });
            }
        }
        block.mark_programmed(p.page);
        // Restart the block's retention clock: fresh charge.
        block.stamp_program(win.end.as_ns());
        if let Backing::Data(store) = &mut self.backing {
            if let Some(d) = data.take() {
                store.put(geo.block_index(p.block_addr()) as usize, p.page as usize, d);
            }
        }
        self.stats.programs.incr();
        Ok(win)
    }

    /// Erases block `b`, starting no earlier than `at`.
    ///
    /// All page contents are discarded and the wear counter advances. When
    /// the block reaches its rated P/E cycles it is retired and further
    /// programs/erases fail with [`NandError::WornOut`].
    pub fn erase_block(&mut self, b: BlockAddr, at: SimTime) -> Result<Window, NandError> {
        if !self.config.geometry.contains_block(b) {
            return Err(NandError::BadBlock(b));
        }
        let geo = self.config.geometry;
        let block_idx = geo.block_index(b) as usize;
        let block = self.blocks.get_mut(b);
        if block.is_retired() {
            return Err(NandError::WornOut(b));
        }
        if let Some(crash) = self.power {
            let start = at.max(self.planes[b.plane as usize].free_at());
            if start + self.config.timing.t_erase > crash {
                // Power gone before the erase could finish. NAND erase is
                // not atomic, but modelling the block as untouched is the
                // adversarial case for the FTL: stale copies of relocated
                // data survive and must lose by seqno at mount.
                return Err(NandError::PowerLoss { at: crash });
            }
        }
        let win = self.planes[b.plane as usize].acquire(at, self.config.timing.t_erase);
        let rber = self.rber.rber(block.erase_count());
        if let Some(fault) = &mut self.fault {
            if fault.roll_erase(rber, self.rber.model().ecc_ceiling) {
                // Bad erase status: the block keeps its stale contents and
                // must be retired by the caller.
                return Err(NandError::EraseFailed {
                    block: b,
                    busy_until: win.end,
                });
            }
        }
        block.mark_erased(&mut self.invalid);
        self.rber.cover(block.erase_count());
        if let Backing::Data(store) = &mut self.backing {
            store.erase_block(block_idx);
        }
        // One slab release clears every stamp and torn mark in the block.
        if let Some(slab) = self
            .oob_lane
            .get_mut(geo.block_major_slot(b))
            .filter(|slab| **slab != NO_SLAB)
        {
            self.oob.release(std::mem::replace(slab, NO_SLAB));
        }
        if block.erase_count() >= self.config.rated_pe_cycles() {
            block.retire();
        }
        self.stats.erases.incr();
        Ok(win)
    }

    /// Ages every block by `pe` artificial program/erase cycles (for
    /// end-of-life experiments; does not retire blocks or touch data).
    ///
    /// # Panics
    /// If a block's erase count would reach `u32::MAX`.
    pub fn simulate_wear(&mut self, pe: u64) {
        self.blocks.add_wear(pe);
    }

    /// Total erases across all blocks.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(BlockState::erase_count).sum()
    }

    /// Iterates `(flat_block_index, &BlockState)` in flat index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, &BlockState)> {
        self.blocks.iter().enumerate().map(|(i, b)| (i as u64, b))
    }

    /// Retired blocks on this die.
    pub fn retired_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.is_retired()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NandGeometry;
    use crate::timing::NandConfig;
    use simkit::SimDuration;

    impl Die {
        /// Number of currently torn pages on this die.
        pub fn torn_pages(&self) -> u64 {
            let pages = self.config.geometry.pages_per_block as usize;
            let slabs = self.oob_lane.iter().filter(|&&slab| slab != NO_SLAB);
            slabs
                .flat_map(|&slab| (0..pages).map(move |i| self.oob.word(slab, i)))
                .filter(|&slot| slot == OobSlot::Torn)
                .count() as u64
        }

        /// Maximum erase count across all blocks (wear-levelling metric).
        pub fn max_erase_count(&self) -> u64 {
            self.blocks
                .iter()
                .map(BlockState::erase_count)
                .max()
                .unwrap_or(0)
        }
    }

    fn die() -> Die {
        Die::new_functional(0, NandConfig::tiny_test_die())
    }

    fn page_of(die: &Die, plane: u32, block: u32, page: u32) -> PhysPage {
        let _ = die;
        PhysPage { plane, block, page }
    }

    fn fill(die: &Die, byte: u8) -> Vec<u8> {
        vec![byte; die.config().geometry.page_bytes as usize]
    }

    /// Senses `p`, then copies out the bytes the read served.
    fn read(d: &mut Die, p: PhysPage, at: SimTime) -> Result<(Window, Vec<u8>), NandError> {
        let w = d.read_page(p, at)?;
        Ok((w, d.page_data(p)?.to_vec()))
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        let data = fill(&d, 0x5A);
        let w = d
            .program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&data)))
            .unwrap();
        assert_eq!(w.duration(), d.config().timing.t_program);
        let (r, out) = read(&mut d, p, w.end).unwrap();
        assert_eq!(out, data);
        assert!(r.start >= w.end);
        assert_eq!(d.stats().reads.get(), 1);
        assert_eq!(d.stats().programs.get(), 1);
    }

    #[test]
    fn read_of_unwritten_page_fails() {
        let mut d = die();
        let err = d
            .read_page(page_of(&d, 0, 0, 0), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            NandError::ReadUnwritten(PhysPage {
                plane: 0,
                block: 0,
                page: 0
            })
        );
    }

    #[test]
    fn out_of_order_program_fails() {
        let mut d = die();
        let err = d
            .program_page(
                page_of(&d, 0, 0, 5),
                SimTime::ZERO,
                &mut Some(PageBuf::copy_of(&fill(&d, 0))),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            NandError::OutOfOrderProgram { expected: 0, .. }
        ));
    }

    #[test]
    fn reprogram_fails() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 1))))
            .unwrap();
        d.program_page(
            page_of(&d, 0, 0, 1),
            SimTime::ZERO,
            &mut Some(PageBuf::copy_of(&fill(&d, 2))),
        )
        .unwrap();
        let err = d
            .program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 3))))
            .unwrap_err();
        assert_eq!(err, NandError::Reprogram(p));
    }

    #[test]
    fn wrong_length_rejected() {
        let mut d = die();
        let err = d
            .program_page(
                page_of(&d, 0, 0, 0),
                SimTime::ZERO,
                &mut Some(PageBuf::copy_of(&[0u8; 3])),
            )
            .unwrap_err();
        assert!(matches!(err, NandError::WrongLength { got: 3, .. }));
    }

    #[test]
    fn functional_mode_requires_data() {
        let mut d = die();
        let err = d
            .program_page(page_of(&d, 0, 0, 0), SimTime::ZERO, &mut None)
            .unwrap_err();
        assert!(matches!(err, NandError::NoData(_)));
    }

    #[test]
    fn phantom_mode_allows_dataless_programs() {
        let mut d = Die::new(0, NandConfig::tiny_test_die());
        let p = PhysPage {
            plane: 0,
            block: 0,
            page: 0,
        };
        d.program_page(p, SimTime::ZERO, &mut None).unwrap();
        d.read_page(p, SimTime::ZERO).unwrap();
        assert_eq!(
            d.page_data(p),
            Err(NandError::NoData(p)),
            "a phantom page holds no bytes"
        );
    }

    #[test]
    fn erase_resets_block_and_discards_data() {
        let mut d = die();
        let p = page_of(&d, 0, 3, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 9))))
            .unwrap();
        let w = d
            .erase_block(BlockAddr { plane: 0, block: 3 }, SimTime::ZERO)
            .unwrap();
        assert_eq!(w.duration(), d.config().timing.t_erase);
        assert!(matches!(
            d.read_page(p, SimTime::ZERO).unwrap_err(),
            NandError::ReadUnwritten(_)
        ));
        // Programmable again from page 0.
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 10))))
            .unwrap();
    }

    #[test]
    fn planes_operate_in_parallel() {
        let mut d = die();
        let a = d
            .program_page(
                page_of(&d, 0, 0, 0),
                SimTime::ZERO,
                &mut Some(PageBuf::copy_of(&fill(&d, 0))),
            )
            .unwrap();
        let b = d
            .program_page(
                page_of(&d, 1, 0, 0),
                SimTime::ZERO,
                &mut Some(PageBuf::copy_of(&fill(&d, 1))),
            )
            .unwrap();
        // Different planes: both start at t=0.
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO);
        // Same plane: serialized.
        let c = d
            .program_page(
                page_of(&d, 0, 0, 1),
                SimTime::ZERO,
                &mut Some(PageBuf::copy_of(&fill(&d, 2))),
            )
            .unwrap();
        assert_eq!(c.start, a.end);
    }

    #[test]
    fn tlc_read_latency_depends_on_page_type() {
        let mut d = die();
        for pg in 0..3 {
            d.program_page(
                page_of(&d, 0, 0, pg),
                SimTime::ZERO,
                &mut Some(PageBuf::copy_of(&fill(&d, pg as u8))),
            )
            .unwrap();
        }
        let t0 = d
            .read_page(page_of(&d, 0, 0, 0), SimTime::from_secs(1))
            .unwrap();
        let t1 = d
            .read_page(page_of(&d, 0, 0, 1), SimTime::from_secs(2))
            .unwrap();
        let t2 = d
            .read_page(page_of(&d, 0, 0, 2), SimTime::from_secs(3))
            .unwrap();
        assert_eq!(t0.duration(), SimDuration::from_us(40));
        assert_eq!(t1.duration(), SimDuration::from_us(60));
        assert_eq!(t2.duration(), SimDuration::from_us(85));
    }

    #[test]
    fn block_retires_at_rated_endurance() {
        let mut d = Die::new(0, NandConfig::tiny_test_die());
        let b = BlockAddr { plane: 0, block: 0 };
        // Tiny rated count would take too long; drive the counter directly
        // by erasing rated_pe_cycles times.
        let rated = d.config().rated_pe_cycles();
        for _ in 0..rated {
            d.erase_block(b, SimTime::ZERO).unwrap();
        }
        assert!(d.block(b).unwrap().is_retired());
        assert_eq!(
            d.erase_block(b, SimTime::ZERO).unwrap_err(),
            NandError::WornOut(b)
        );
        assert_eq!(d.max_erase_count(), rated);
        assert_eq!(d.total_erases(), rated);
    }

    #[test]
    fn bad_addresses_rejected() {
        let mut d = die();
        let geo = d.config().geometry;
        let bad = PhysPage {
            plane: geo.planes,
            block: 0,
            page: 0,
        };
        assert!(matches!(
            d.read_page(bad, SimTime::ZERO),
            Err(NandError::BadAddress(_))
        ));
        assert!(matches!(
            d.erase_block(
                BlockAddr {
                    plane: 0,
                    block: geo.blocks_per_plane
                },
                SimTime::ZERO
            ),
            Err(NandError::BadBlock(_))
        ));
    }

    #[test]
    fn worn_blocks_read_slower_via_retries() {
        let mut d = die();
        let p0 = page_of(&d, 0, 0, 0);
        d.program_page(p0, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 1))))
            .unwrap();
        let fresh = d.read_page(p0, SimTime::from_secs(1)).unwrap().duration();
        // Age to rated endurance: reads need several retries.
        d.simulate_wear(d.config().rated_pe_cycles());
        let worn = d.read_page(p0, SimTime::from_secs(2)).unwrap().duration();
        assert!(
            worn >= fresh * 4,
            "worn read {worn} should be several times fresh {fresh}"
        );
        // Programs are unaffected by the retry model.
        let p1 = page_of(&d, 0, 0, 1);
        let w = d
            .program_page(
                p1,
                SimTime::from_secs(3),
                &mut Some(PageBuf::copy_of(&fill(&d, 2))),
            )
            .unwrap();
        assert_eq!(w.duration(), d.config().timing.t_program);
    }

    #[test]
    fn simulate_wear_does_not_retire() {
        let mut d = die();
        d.simulate_wear(10 * d.config().rated_pe_cycles());
        // Still programmable.
        d.program_page(
            page_of(&d, 0, 0, 0),
            SimTime::ZERO,
            &mut Some(PageBuf::copy_of(&fill(&d, 0))),
        )
        .unwrap();
    }

    #[test]
    fn injected_program_failure_charges_plane_and_writes_nothing() {
        let mut d = die();
        d.set_fault_config(crate::fault::FaultConfig {
            seed: 1,
            program_fail: 1.0,
            erase_fail: 0.0,
            read_uncorrectable: 0.0,
            wear_coupling: false,
        });
        let p = page_of(&d, 0, 0, 0);
        let err = d
            .program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 7))))
            .unwrap_err();
        let busy = match err {
            NandError::ProgramFailed { page, busy_until } => {
                assert_eq!(page, p);
                busy_until
            }
            other => panic!("expected ProgramFailed, got {other:?}"),
        };
        // The failed attempt occupied the plane for a full tPROG.
        assert_eq!(busy, SimTime::ZERO + d.config().timing.t_program);
        assert_eq!(d.plane_free_at(0), busy);
        // Nothing was written: page 0 is still the next programmable page.
        assert_eq!(
            d.block(BlockAddr { plane: 0, block: 0 })
                .unwrap()
                .next_programmable(),
            Some(0)
        );
        assert_eq!(d.fault_stats().unwrap().program_failures, 1);
    }

    #[test]
    fn injected_erase_failure_keeps_block_state() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 3))))
            .unwrap();
        d.set_fault_config(crate::fault::FaultConfig {
            seed: 1,
            program_fail: 0.0,
            erase_fail: 1.0,
            read_uncorrectable: 0.0,
            wear_coupling: false,
        });
        let b = BlockAddr { plane: 0, block: 0 };
        let err = d.erase_block(b, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, NandError::EraseFailed { block, .. } if block == b));
        // The block did not reset: its data is still readable.
        let (_, data) = read(&mut d, p, SimTime::ZERO).unwrap();
        assert_eq!(data, fill(&d, 3));
        assert_eq!(d.fault_stats().unwrap().erase_failures, 1);
    }

    #[test]
    fn injected_read_failure_still_charges_sense_time() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 5))))
            .unwrap();
        d.set_fault_config(crate::fault::FaultConfig {
            seed: 1,
            program_fail: 0.0,
            erase_fail: 0.0,
            read_uncorrectable: 1.0,
            wear_coupling: false,
        });
        let before = d.plane_free_at(0);
        let err = d.read_page(p, before).unwrap_err();
        match err {
            NandError::ReadUncorrectable { page, busy_until } => {
                assert_eq!(page, p);
                assert!(busy_until > before, "failed read must consume sense time");
                assert_eq!(d.plane_free_at(0), busy_until);
            }
            other => panic!("expected ReadUncorrectable, got {other:?}"),
        }
        assert!(err.is_media_fault());
        assert_eq!(d.fault_stats().unwrap().read_uncorrectable, 1);
    }

    #[test]
    fn inactive_fault_config_disarms() {
        let mut d = die();
        d.set_fault_config(crate::fault::FaultConfig::uniform(9, 1.0));
        d.set_fault_config(crate::fault::FaultConfig::uniform(0, 0.0));
        assert!(d.fault_stats().is_none());
        d.program_page(
            page_of(&d, 0, 0, 0),
            SimTime::ZERO,
            &mut Some(PageBuf::copy_of(&fill(&d, 0))),
        )
        .unwrap();
    }

    #[test]
    fn power_loss_refuses_ops_after_the_instant() {
        let mut d = die();
        d.set_power_loss(Some(SimTime::from_us(10)));
        let p = page_of(&d, 0, 0, 0);
        let err = d
            .program_page(
                p,
                SimTime::from_us(10),
                &mut Some(PageBuf::copy_of(&fill(&d, 1))),
            )
            .unwrap_err();
        assert_eq!(
            err,
            NandError::PowerLoss {
                at: SimTime::from_us(10)
            }
        );
        // Nothing changed: the page is still free.
        assert_eq!(
            d.block(BlockAddr { plane: 0, block: 0 })
                .unwrap()
                .next_programmable(),
            Some(0)
        );
        // Disarm: the device works again (power restored).
        d.set_power_loss(None);
        d.program_page(
            p,
            SimTime::from_us(10),
            &mut Some(PageBuf::copy_of(&fill(&d, 1))),
        )
        .unwrap();
    }

    #[test]
    fn in_flight_program_tears_the_page() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        let t_prog = d.config().timing.t_program;
        // Crash lands strictly inside the program window.
        let crash = SimTime::ZERO + t_prog - simkit::SimDuration::from_ns(1);
        d.set_power_loss(Some(crash));
        let err = d
            .program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 7))))
            .unwrap_err();
        assert_eq!(err, NandError::PowerLoss { at: crash });
        assert!(d.is_torn(p));
        assert_eq!(d.torn_pages(), 1);
        // The write cursor advanced — the page is no longer erased — but
        // there is no data and no OOB stamp.
        assert_eq!(
            d.block(BlockAddr { plane: 0, block: 0 })
                .unwrap()
                .next_programmable(),
            Some(1)
        );
        assert_eq!(d.oob(p), None);
        // After power returns, reading the torn page charges the sense but
        // always fails uncorrectable — without consuming any fault draw.
        d.set_power_loss(None);
        let err = d.read_page(p, crash).unwrap_err();
        assert!(matches!(err, NandError::ReadUncorrectable { page, .. } if page == p));
        // Erase heals the tear.
        d.erase_block(BlockAddr { plane: 0, block: 0 }, crash)
            .unwrap();
        assert!(!d.is_torn(p));
        assert_eq!(d.torn_pages(), 0);
    }

    #[test]
    fn in_flight_erase_keeps_contents() {
        let mut d = die();
        let p = page_of(&d, 0, 2, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 4))))
            .unwrap();
        let quiet = d.plane_free_at(0);
        let crash = quiet + simkit::SimDuration::from_ns(1);
        d.set_power_loss(Some(crash));
        let err = d
            .erase_block(BlockAddr { plane: 0, block: 2 }, quiet)
            .unwrap_err();
        assert_eq!(err, NandError::PowerLoss { at: crash });
        d.set_power_loss(None);
        let (_, data) = read(&mut d, p, quiet).unwrap();
        assert_eq!(data, fill(&d, 4));
    }

    #[test]
    fn completed_ops_before_the_crash_succeed() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        // Crash far enough out that the program completes first.
        d.set_power_loss(Some(SimTime::from_secs(1)));
        let w = d
            .program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 2))))
            .unwrap();
        assert!(w.end < SimTime::from_secs(1));
        let (r, data) = read(&mut d, p, w.end).unwrap();
        assert_eq!(data, fill(&d, 2));
        assert!(r.end < SimTime::from_secs(1));
    }

    #[test]
    fn oob_stamps_round_trip_and_clear_on_erase() {
        let mut d = die();
        let p = page_of(&d, 1, 0, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 1))))
            .unwrap();
        let stamp = crate::power::PageOob {
            lpn: 42,
            epoch: 3,
            seqno: 99,
        };
        d.put_oob(p, stamp);
        assert_eq!(d.oob(p), Some(stamp));
        d.erase_block(BlockAddr { plane: 1, block: 0 }, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(d.oob(p), None);
    }

    #[test]
    fn read_disturb_slows_hot_pages() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 1))))
            .unwrap();
        d.set_aging(AgingConfig {
            read_disturb_per_read: 1e-5,
            retention_per_sec: 0.0,
        });
        let b = BlockAddr { plane: 0, block: 0 };
        let fresh = d.read_page(p, SimTime::from_secs(1)).unwrap().duration();
        // Hammer the page: each sense raises the block's RBER.
        for i in 0..200u64 {
            let _ = d.read_page(p, SimTime::from_secs(2 + i));
        }
        assert_eq!(d.block(b).unwrap().reads_since_erase(), 201);
        let hot = d.read_page(p, SimTime::from_secs(500)).unwrap().duration();
        assert!(
            hot > fresh,
            "disturbed read {hot} should exceed fresh {fresh}"
        );
        assert!(
            d.effective_rber(b, SimTime::from_secs(500)).unwrap()
                > d.rber_model().rber(d.block(b).unwrap().erase_count())
        );
        // Erase resets the disturb clock.
        d.erase_block(b, SimTime::from_secs(600)).unwrap();
        assert_eq!(d.block(b).unwrap().reads_since_erase(), 0);
    }

    #[test]
    fn retention_ages_stale_data_and_reprogram_refreshes() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        d.set_aging(AgingConfig {
            read_disturb_per_read: 0.0,
            retention_per_sec: 1e-5,
        });
        let w = d
            .program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 1))))
            .unwrap();
        let b = BlockAddr { plane: 0, block: 0 };
        let soon = d.effective_rber(b, w.end).unwrap();
        let stale = d
            .effective_rber(b, w.end + SimDuration::from_secs(3600))
            .unwrap();
        assert!(
            stale > soon * 10.0,
            "hour-old data must age: {soon} -> {stale}"
        );
        // An hour-stale read takes retries; a fresh read does not.
        let aged_read = d
            .read_page(p, w.end + SimDuration::from_secs(3600))
            .unwrap()
            .duration();
        // Erase + reprogram refreshes the charge: fast again.
        d.erase_block(b, SimTime::from_secs(7200)).unwrap();
        let w2 = d
            .program_page(
                p,
                SimTime::from_secs(7300),
                &mut Some(PageBuf::copy_of(&fill(&d, 2))),
            )
            .unwrap();
        let fresh_read = d.read_page(p, w2.end).unwrap().duration();
        assert!(aged_read > fresh_read, "{aged_read} vs {fresh_read}");
    }

    #[test]
    fn inactive_aging_config_disarms_and_changes_nothing() {
        let mut d = die();
        d.set_aging(AgingConfig {
            read_disturb_per_read: 1e-5,
            retention_per_sec: 1e-5,
        });
        d.set_aging(AgingConfig {
            read_disturb_per_read: 0.0,
            retention_per_sec: 0.0,
        });
        assert!(d.aging().is_none());
        let p = page_of(&d, 0, 0, 0);
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 1))))
            .unwrap();
        for i in 0..50u64 {
            d.read_page(p, SimTime::from_secs(1 + i)).unwrap();
        }
        let b = BlockAddr { plane: 0, block: 0 };
        // Disarmed: the disturb clock never ticks and effective RBER is
        // exactly the P/E base.
        assert_eq!(d.block(b).unwrap().reads_since_erase(), 0);
        assert_eq!(
            d.effective_rber(b, SimTime::from_secs(1_000_000)).unwrap(),
            d.rber_model().rber(d.block(b).unwrap().erase_count())
        );
    }

    #[test]
    fn corrupt_page_is_deterministically_unreadable_until_erase() {
        let mut d = die();
        let p = page_of(&d, 0, 0, 0);
        assert!(matches!(
            d.corrupt_page(p),
            Err(NandError::ReadUnwritten(_))
        ));
        d.program_page(p, SimTime::ZERO, &mut Some(PageBuf::copy_of(&fill(&d, 7))))
            .unwrap();
        d.corrupt_page(p).unwrap();
        for i in 0..3u64 {
            let err = d.read_page(p, SimTime::from_secs(1 + i)).unwrap_err();
            assert!(matches!(err, NandError::ReadUncorrectable { page, .. } if page == p));
        }
        d.erase_block(BlockAddr { plane: 0, block: 0 }, SimTime::from_secs(10))
            .unwrap();
        d.program_page(
            p,
            SimTime::from_secs(11),
            &mut Some(PageBuf::copy_of(&fill(&d, 8))),
        )
        .unwrap();
        let (_, data) = read(&mut d, p, SimTime::from_secs(12)).unwrap();
        assert_eq!(data, fill(&d, 8));
    }

    #[test]
    fn retired_block_counting() {
        let mut d = die();
        assert_eq!(d.retired_blocks(), 0);
        d.retire_block(BlockAddr { plane: 0, block: 2 }).unwrap();
        assert_eq!(d.retired_blocks(), 1);
        assert_eq!(
            d.retire_block(BlockAddr { plane: 9, block: 0 }),
            Err(NandError::BadBlock(BlockAddr { plane: 9, block: 0 }))
        );
    }

    mod validity_model {
        //! Page validity against a `HashMap` model: random programs,
        //! invalidations, forced validity and erases across blocks, so
        //! invalid bitsets are taken, recycled between blocks and handed
        //! back.

        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn page_validity_matches_a_map_model(
                ops in prop::collection::vec((0u8..5, 0u32..2, 0u32..3, 0u32..70), 1..300)
            ) {
                // 70 pages per block: bitsets two words wide.
                let geometry = NandGeometry {
                    planes: 2,
                    blocks_per_plane: 3,
                    pages_per_block: 70,
                    ..NandConfig::tiny_test_die().geometry
                };
                let mut d = Die::new(0, NandConfig { geometry, ..NandConfig::tiny_test_die() });
                let mut model: HashMap<PhysPage, PageState> = HashMap::new();
                for (op, plane, block, page) in ops {
                    let b = BlockAddr { plane, block };
                    let p = b.page(page);
                    let state = model.get(&p).copied().unwrap_or(PageState::Free);
                    match op {
                        // Fill the block up to and including `page`.
                        0 => {
                            while let Some(next) = d.block(b).unwrap().next_programmable() {
                                if next > page {
                                    break;
                                }
                                d.program_page(b.page(next), SimTime::ZERO, &mut None).unwrap();
                                model.insert(b.page(next), PageState::Valid);
                            }
                        }
                        1 => {
                            prop_assert_eq!(d.invalidate(p).unwrap(), state == PageState::Valid);
                            if state == PageState::Valid {
                                model.insert(p, PageState::Invalid);
                            }
                        }
                        2 | 3 => {
                            let valid = op == 2;
                            prop_assert_eq!(d.set_validity(p, valid).unwrap(), state != PageState::Free);
                            if state != PageState::Free {
                                let now = if valid { PageState::Valid } else { PageState::Invalid };
                                model.insert(p, now);
                            }
                        }
                        _ => {
                            d.erase_block(b, SimTime::ZERO).unwrap();
                            model.retain(|q, _| q.block_addr() != b);
                        }
                    }
                    for q in (0..2).flat_map(|pl| (0..3).map(move |bl| BlockAddr { plane: pl, block: bl })) {
                        let mut valid = 0;
                        for pg in 0..70 {
                            let want = model.get(&q.page(pg)).copied().unwrap_or(PageState::Free);
                            prop_assert_eq!(d.page_state(q.page(pg)).unwrap(), want, "{:?}", q.page(pg));
                            valid += u32::from(want == PageState::Valid);
                        }
                        prop_assert_eq!(d.block(q).unwrap().valid_pages(), valid);
                    }
                    prop_assert!(d.invalid.live() <= 6, "at most one bitset per block");
                }
            }
        }
    }

    mod table_model {
        //! The grown block table against an eager one: random geometries and
        //! random programs, invalidations, forced validity, erases,
        //! retirements and artificial wear, with every block's state and the
        //! flat-order walk compared after each operation.

        use super::*;
        use crate::store::new_invalid_bits;
        use proptest::prelude::*;

        /// Every block's state built up front in flat order, as the die
        /// kept it before its table grew on first write.
        struct EagerTable {
            blocks: Vec<BlockState>,
            bits: Slabs,
        }

        impl EagerTable {
            fn new(geo: NandGeometry) -> Self {
                EagerTable {
                    blocks: (0..geo.blocks_per_die())
                        .map(|_| BlockState::new(geo.pages_per_block))
                        .collect(),
                    bits: new_invalid_bits(&geo),
                }
            }
        }

        type Observed = (
            Option<u32>,
            u32,
            u64,
            u64,
            Option<u64>,
            bool,
            Vec<PageState>,
        );

        /// Everything a caller can observe of a block of `pages` pages.
        fn observe(b: &BlockState, bits: &Slabs, pages: u32) -> Observed {
            let pages = (0..pages).map(|p| b.page_state(p, bits)).collect();
            (
                b.next_programmable(),
                b.valid_pages(),
                b.erase_count(),
                b.reads_since_erase(),
                b.last_program_ns(),
                b.is_retired(),
                pages,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn grown_table_matches_an_eager_one(
                (planes, blocks_per_plane, pages_per_block) in (1u32..=4, 1u32..=40, 1u32..=6),
                ops in prop::collection::vec((0u8..7, 0u32..4, 0u32..40, 0u32..6, 0u64..1_600), 1..120)
            ) {
                let geo = NandGeometry {
                    planes,
                    blocks_per_plane,
                    pages_per_block,
                    ..NandConfig::tiny_test_die().geometry
                };
                let mut d = Die::new(0, NandConfig { geometry: geo, ..NandConfig::tiny_test_die() });
                let mut eager = EagerTable::new(geo);
                let rated = d.config().rated_pe_cycles();
                let mut t = SimTime::ZERO;
                for (op, plane, block, page, pe) in ops {
                    t += SimDuration::from_ms(1);
                    let b = BlockAddr { plane: plane % geo.planes, block: block % geo.blocks_per_plane };
                    let p = b.page(page % geo.pages_per_block);
                    let (want, bits) = (&mut eager.blocks[geo.block_index(b) as usize], &mut eager.bits);
                    match op {
                        // Program the block's next page.
                        0 | 1 => {
                            let next = want.next_programmable();
                            let r = d.program_page(b.page(next.unwrap_or(0)), t, &mut None);
                            prop_assert_eq!(r.is_ok(), next.is_some() && !want.is_retired());
                            if let Ok(win) = r {
                                want.mark_programmed(next.unwrap());
                                want.stamp_program(win.end.as_ns());
                            }
                        }
                        2 => prop_assert_eq!(d.invalidate(p).unwrap(), want.invalidate(p.page, bits)),
                        3 => {
                            let valid = pe % 2 == 0;
                            prop_assert_eq!(d.set_validity(p, valid).unwrap(), want.set_validity(p.page, valid, bits));
                        }
                        4 => {
                            let r = d.erase_block(b, t);
                            prop_assert_eq!(r.is_ok(), !want.is_retired());
                            if r.is_ok() {
                                want.mark_erased(bits);
                                if want.erase_count() >= rated {
                                    want.retire();
                                }
                            }
                        }
                        5 => {
                            d.retire_block(b).unwrap();
                            want.retire();
                        }
                        _ => {
                            d.simulate_wear(pe);
                            for state in &mut eager.blocks {
                                state.add_wear(pe);
                            }
                        }
                    }
                    let ppb = geo.pages_per_block;
                    let want: Vec<_> = eager
                        .blocks
                        .iter()
                        .enumerate()
                        .map(|(flat, b)| (flat as u64, observe(b, &eager.bits, ppb)))
                        .collect();
                    for (flat, want) in &want {
                        let got = d.block(geo.block_at(*flat)).unwrap();
                        prop_assert_eq!(&observe(got, &d.invalid, ppb), want, "block {}", flat);
                    }
                    let walk: Vec<_> = d.iter_blocks().map(|(flat, b)| (flat, observe(b, &d.invalid, ppb))).collect();
                    prop_assert_eq!(walk, want);
                    prop_assert_eq!(d.total_erases(), eager.blocks.iter().map(BlockState::erase_count).sum::<u64>());
                    prop_assert_eq!(d.retired_blocks(), eager.blocks.iter().filter(|b| b.is_retired()).count() as u64);
                }
            }
        }
    }

    mod store_model {
        //! The functional page store and the OOB store against `HashMap`
        //! models: random program, erase, read, torn-program, invalidate,
        //! release, stamp and corrupt sequences on a small die.

        use super::*;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};

        const PLANES: u32 = 2;
        const BLOCKS: u32 = 3;
        const PAGES: u32 = 8;
        const PAGE_BYTES: usize = 32;

        fn small_die() -> Die {
            Die::new_functional(
                3,
                NandConfig {
                    geometry: NandGeometry {
                        planes: PLANES,
                        blocks_per_plane: BLOCKS,
                        pages_per_block: PAGES,
                        page_bytes: PAGE_BYTES as u32,
                    },
                    ..NandConfig::tiny_test_die()
                },
            )
        }

        /// Distinct contents for the `n`-th program of the run.
        fn contents(n: u32) -> Vec<u8> {
            (0..PAGE_BYTES)
                .map(|i| (n as usize * 31 + i * 7) as u8)
                .collect()
        }

        fn store(d: &Die) -> &PageStore {
            match &d.backing {
                Backing::Data(store) => store,
                Backing::Phantom => unreachable!("the model die is functional"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn page_store_matches_a_hashmap_model(
                ops in prop::collection::vec((0u8..12, 0..PLANES, 0..BLOCKS, 0..PAGES), 1..160)
            ) {
                let mut d = small_die();
                let geo = d.config().geometry;
                // Pages that hold bytes: programmed (a corrupted page
                // too, not one torn mid-program), not released, not erased
                // since.
                let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut torn: HashSet<u64> = HashSet::new();
                let mut stamps: HashMap<u64, PageOob> = HashMap::new();
                let mut released: HashSet<u64> = HashSet::new();
                let mut cursor: HashMap<(u32, u32), u32> = HashMap::new();
                let mut programs = 0u32;
                let mut t = SimTime::ZERO;
                for (op, plane, block, page) in ops {
                    t += SimDuration::from_ms(10);
                    let b = BlockAddr { plane, block };
                    let next = cursor.entry((plane, block)).or_insert(0);
                    match op {
                        // Program the block's next page (often), or tear it.
                        0..=3 | 7 if *next < PAGES => {
                            let p = b.page(*next);
                            let data = contents(programs);
                            programs += 1;
                            if op == 7 {
                                let start = t.max(d.plane_free_at(plane));
                                d.set_power_loss(Some(start + SimDuration::from_ns(1)));
                                let r = d.program_page(p, t, &mut Some(PageBuf::copy_of(&data)));
                                d.set_power_loss(None);
                                prop_assert!(matches!(r, Err(NandError::PowerLoss { .. })));
                                torn.insert(geo.page_index(p));
                            } else {
                                d.program_page(p, t, &mut Some(PageBuf::copy_of(&data))).unwrap();
                                model.insert(geo.page_index(p), data);
                            }
                            *next += 1;
                        }
                        4 => {
                            d.erase_block(b, t).unwrap();
                            for pg in 0..PAGES {
                                let idx = geo.page_index(b.page(pg));
                                model.remove(&idx);
                                torn.remove(&idx);
                                released.remove(&idx);
                                stamps.remove(&idx);
                            }
                            *next = 0;
                        }
                        // Stamp a programmed page (a torn one stays torn),
                        // or corrupt one; a free page refuses corruption.
                        10 if page < *next => {
                            let p = b.page(page);
                            let oob = PageOob { lpn: u64::from(programs), epoch: u64::from(page), seqno: t.as_ns() };
                            d.put_oob(p, oob);
                            stamps.insert(geo.page_index(p), oob);
                        }
                        10 | 11 => {
                            let p = b.page(page);
                            if page < *next {
                                // The page keeps its bytes, but no read
                                // returns them.
                                d.corrupt_page(p).unwrap();
                                torn.insert(geo.page_index(p));
                            } else {
                                prop_assert_eq!(d.corrupt_page(p), Err(NandError::ReadUnwritten(p)));
                            }
                        }
                        // An invalidation alone keeps the bytes.
                        8 => {
                            d.invalidate(b.page(page)).unwrap();
                        }
                        // A release frees a programmed page's bytes; a free
                        // page has none to free.
                        9 => {
                            let p = b.page(page);
                            d.invalidate_and_release(p).unwrap();
                            if page < *next {
                                let idx = geo.page_index(p);
                                model.remove(&idx);
                                released.insert(idx);
                                prop_assert_eq!(d.page_state(p), Ok(PageState::Invalid));
                            }
                        }
                        _ => {
                            let p = b.page(page);
                            let idx = geo.page_index(p);
                            let r = d.read_page(p, t);
                            if let Some(want) = model.get(&idx).filter(|_| !torn.contains(&idx)) {
                                prop_assert!(r.is_ok(), "read of {p} failed: {r:?}");
                                prop_assert_eq!(d.page_data(p), Ok(&want[..]), "bytes of {}", p);
                            } else {
                                if torn.contains(&idx) {
                                    prop_assert!(matches!(r, Err(NandError::ReadUncorrectable { .. })));
                                } else if released.contains(&idx) {
                                    prop_assert_eq!(r, Err(NandError::NoData(p)));
                                } else {
                                    prop_assert_eq!(r, Err(NandError::ReadUnwritten(p)));
                                }
                            }
                        }
                    }
                    for idx in 0..geo.pages_per_die() {
                        let p = geo.page_at(idx);
                        prop_assert_eq!(d.is_torn(p), torn.contains(&idx), "torn mark of {}", p);
                        let stamp = stamps.get(&idx).filter(|_| !torn.contains(&idx));
                        prop_assert_eq!(d.oob(p), stamp.copied(), "stamp of {}", p);
                        // The in-place borrow serves exactly the bytes a
                        // read would.
                        let bytes = model.get(&idx).filter(|_| !torn.contains(&idx));
                        match bytes {
                            Some(want) => prop_assert_eq!(d.page_data(p), Ok(&want[..])),
                            None => prop_assert_eq!(d.page_data(p), Err(NandError::NoData(p))),
                        }
                    }
                    // Torn pages store no buffer; released and erased ones
                    // drop theirs.
                    prop_assert_eq!(store(&d).live_pages(), model.len());
                }
            }
        }
    }
}
