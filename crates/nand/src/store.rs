//! Page lifecycle state and (optional) functional data storage.
//!
//! Every page moves through the `Free → Valid → Invalid → Free` lifecycle
//! (the FTL depends on it). A block stores no per-page state for it:
//! programs are sequential, so pages at or past the write cursor are
//! `Free`, and a page below it is `Invalid` exactly when its bit is set in
//! the block's invalid bitset. Bitsets live in the die's [`Slabs`] store,
//! taken on a block's first invalidation and handed back on erase; the
//! block holds only the slab index. A [`BlockState`] is therefore 32 bytes
//! of plain data with no drop glue.
//!
//! A die keeps its block states in a `BlockTable`: one vector in
//! block-major order (slot `block × planes + plane`) that grows to the
//! highest slot touched, while a block past its end reads as one shared
//! erased state. The wear-levelling allocator opens blocks 0, 1, 2, … on
//! every plane, so the touched blocks form a prefix of the vector and a
//! die pays only for them; a lookup stays one bounds check and one index.
//!
//! The *contents* of pages are optional: a functional die keeps real bytes
//! for functional verification, one pooled [`PageBuf`] per programmed page,
//! and a phantom die keeps none so that terabyte-scale timing experiments
//! fit in host memory. A program adopts the buffer it is handed and a read
//! may borrow it in place, so an on-die update reads its operands where
//! they rest and programs its results without copying a byte.
//!
//! A page's bytes outlive its validity only as long as someone may read
//! them. A version the FTL superseded for good drops its buffer back to the
//! pool when it goes invalid (`Die::invalidate_and_release`), so the store
//! holds about the die's valid pages and the next program takes the buffer
//! just dropped. Every other invalid page keeps its bytes until the block's
//! erase: after
//! a crash, mount picks each logical page's newest stamped version from
//! flash alone, and a relocation copy carries its source's stamp, so mount
//! may pick either twin. The FTL decides which invalidations release.

use crate::geometry::{BlockAddr, NandGeometry};
use simkit::pool::PageBuf;
use simkit::slab::{Slabs, NO_SLAB};

/// Lifecycle state of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded (awaiting garbage collection).
    Invalid,
}

/// `last_program_ns` of a block not programmed since its last erase.
const NEVER_PROGRAMMED: u64 = u64::MAX;

/// Per-block bookkeeping: sequential-program cursor, validity count, wear
/// and aging clocks.
///
/// Page-level validity lives in an invalid bitset in the die's slab store
/// (see the [module docs](self)); the die's page-state methods combine the
/// two.
#[derive(Debug)]
pub struct BlockState {
    /// Simulated time (ns) of the most recent program into this block
    /// (retention clock), or [`NEVER_PROGRAMMED`] since the last erase.
    last_program_ns: u64,
    /// Reads issued against any page of this block since its last erase
    /// (read-disturb clock).
    reads_since_erase: u64,
    /// Completed program/erase cycles.
    erase_count: u32,
    /// Slab of the invalid bitset (one bit per page, set for programmed
    /// pages that are `Invalid`), or [`NO_SLAB`] until the first
    /// invalidation since the last erase.
    invalid: u32,
    /// Index of the next page that may legally be programmed; every page
    /// at or past it is `Free`.
    write_cursor: u16,
    /// Number of pages currently `Valid`.
    valid_pages: u16,
    pages_per_block: u16,
    /// True once the block exceeded its rated endurance and was retired.
    retired: bool,
}

impl BlockState {
    /// A freshly erased block with zero wear.
    ///
    /// # Panics
    /// If `pages_per_block` exceeds [`NandGeometry::MAX_PAGES_PER_BLOCK`].
    pub fn new(pages_per_block: u32) -> Self {
        let pages_per_block = u16::try_from(pages_per_block)
            .ok()
            .filter(|&p| p as u32 <= NandGeometry::MAX_PAGES_PER_BLOCK)
            .unwrap_or_else(|| {
                panic!(
                    "{pages_per_block} pages per block exceed the limit ({})",
                    NandGeometry::MAX_PAGES_PER_BLOCK
                )
            });
        BlockState {
            last_program_ns: NEVER_PROGRAMMED,
            reads_since_erase: 0,
            erase_count: 0,
            invalid: NO_SLAB,
            write_cursor: 0,
            valid_pages: 0,
            pages_per_block,
            retired: false,
        }
    }

    /// State of page `page`, whose invalid bit (if any) is in `bits`.
    ///
    /// # Panics
    /// If `page` is not below the block's page count.
    pub(crate) fn page_state(&self, page: u32, bits: &Slabs) -> PageState {
        assert!(
            page < self.pages_per_block as u32,
            "page {page} out of range for a {}-page block",
            self.pages_per_block
        );
        if page >= self.write_cursor as u32 {
            PageState::Free
        } else if self.invalid_bit(page, bits) {
            PageState::Invalid
        } else {
            PageState::Valid
        }
    }

    fn invalid_bit(&self, page: u32, bits: &Slabs) -> bool {
        self.invalid != NO_SLAB
            && bits.word(self.invalid, page as usize / 64) & (1 << (page % 64)) != 0
    }

    /// Sets or clears `page`'s invalid bit, taking a slab only to set a
    /// bit.
    fn set_invalid_bit(&mut self, page: u32, invalid: bool, bits: &mut Slabs) {
        let (word, bit) = (page as usize / 64, 1u64 << (page % 64));
        if invalid {
            if self.invalid == NO_SLAB {
                self.invalid = bits.alloc();
            }
            *bits.word_mut(self.invalid, word) |= bit;
        } else if self.invalid != NO_SLAB {
            *bits.word_mut(self.invalid, word) &= !bit;
        }
    }

    /// The next page index that may legally be programmed, or `None` if the
    /// block is full.
    pub fn next_programmable(&self) -> Option<u32> {
        (self.write_cursor < self.pages_per_block).then_some(self.write_cursor as u32)
    }

    /// Number of `Valid` pages.
    pub fn valid_pages(&self) -> u32 {
        self.valid_pages as u32
    }

    /// Number of `Free` (programmable) pages remaining.
    pub fn free_pages(&self) -> u32 {
        (self.pages_per_block - self.write_cursor) as u32
    }

    /// Completed P/E cycles.
    pub fn erase_count(&self) -> u64 {
        self.erase_count as u64
    }

    /// Reads since the last erase (read-disturb clock).
    pub fn reads_since_erase(&self) -> u64 {
        self.reads_since_erase
    }

    /// Simulated time (ns) of the most recent program, if any since erase.
    /// A program that ended at `u64::MAX` ns (saturated time) reads as
    /// none; both give a retention age of zero.
    pub fn last_program_ns(&self) -> Option<u64> {
        (self.last_program_ns != NEVER_PROGRAMMED).then_some(self.last_program_ns)
    }

    /// Advances the read-disturb clock by one sense.
    pub(crate) fn note_read(&mut self) {
        self.reads_since_erase = self.reads_since_erase.saturating_add(1);
    }

    /// Restarts the retention clock at `now_ns` (called on every program).
    pub(crate) fn stamp_program(&mut self, now_ns: u64) {
        self.last_program_ns = now_ns;
    }

    /// True if the block was retired for wear.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Retires the block (no further programs or erases).
    pub(crate) fn retire(&mut self) {
        self.retired = true;
    }

    /// Marks `page` programmed. Caller must have validated ordering.
    pub(crate) fn mark_programmed(&mut self, page: u32) {
        debug_assert_eq!(page, self.write_cursor as u32);
        self.write_cursor += 1;
        self.valid_pages += 1;
    }

    /// Marks a `Valid` page `Invalid` (its logical contents moved elsewhere).
    /// Returns `false` if the page was not valid. One bitset lookup: a
    /// programmed page of a block without a bitset is valid.
    pub(crate) fn invalidate(&mut self, page: u32, bits: &mut Slabs) -> bool {
        assert!(
            page < self.pages_per_block as u32,
            "page {page} out of range for a {}-page block",
            self.pages_per_block
        );
        if page >= self.write_cursor as u32 {
            return false; // free
        }
        if self.invalid == NO_SLAB {
            self.invalid = bits.alloc();
        }
        let (word, bit) = (
            bits.word_mut(self.invalid, page as usize / 64),
            1 << (page % 64),
        );
        if *word & bit != 0 {
            return false; // already invalid
        }
        *word |= bit;
        self.valid_pages -= 1;
        true
    }

    /// Forces a programmed page's validity. Returns `false` — and changes
    /// nothing — for a `Free` page, which has no validity to rewrite.
    pub(crate) fn set_validity(&mut self, page: u32, valid: bool, bits: &mut Slabs) -> bool {
        match self.page_state(page, bits) {
            PageState::Free => false,
            current => {
                if current == PageState::Valid && !valid {
                    self.valid_pages -= 1;
                } else if current == PageState::Invalid && valid {
                    self.valid_pages += 1;
                }
                self.set_invalid_bit(page, !valid, bits);
                true
            }
        }
    }

    /// Adds artificial wear (experiments age a device without erasing it
    /// billions of times). Does not retire the block.
    ///
    /// # Panics
    /// If the erase count would reach `u32::MAX`. The bound leaves room
    /// for the one further erase a worn block takes before it retires.
    pub(crate) fn add_wear(&mut self, pe: u64) {
        self.erase_count = (self.erase_count as u64)
            .checked_add(pe)
            .filter(|&count| count < u32::MAX as u64)
            .unwrap_or_else(|| panic!("{pe} added P/E cycles overflow a block's erase count"))
            as u32;
    }

    /// Resets the block after an erase, hands its invalid bitset back to
    /// `bits` and bumps the wear counter.
    pub(crate) fn mark_erased(&mut self, bits: &mut Slabs) {
        if self.invalid != NO_SLAB {
            bits.release(self.invalid);
            self.invalid = NO_SLAB;
        }
        self.write_cursor = 0;
        self.valid_pages = 0;
        self.erase_count += 1;
        self.reads_since_erase = 0;
        self.last_program_ns = NEVER_PROGRAMMED;
    }
}

/// The invalid-bitset store for a die of geometry `geo`: one slab of
/// `⌈pages_per_block / 64⌉` words per block that holds an invalid page.
pub(crate) fn new_invalid_bits(geo: &NandGeometry) -> Slabs {
    Slabs::new(geo.pages_per_block.div_ceil(64).max(1) as usize)
}

/// Where page contents live.
#[derive(Debug)]
pub(crate) enum Backing {
    /// No data is stored; reads deliver none. Timing and state tracking
    /// still function. Use for capacity-scale experiments.
    Phantom,
    /// Real bytes per page, in pooled page buffers.
    Data(PageStore),
}

impl Backing {
    /// True if this store keeps real bytes.
    pub(crate) fn is_functional(&self) -> bool {
        matches!(self, Backing::Data(_))
    }
}

/// The functional page store of one die: pooled page buffers.
///
/// Each erase block has a table (created at its first program, kept
/// across erases) holding each page's [`PageBuf`], or `None` for a page
/// without bytes. A program stores the page it is handed, without a copy;
/// a release drops one page back to the [page pool](simkit::pool), an
/// erase every page its block still holds; a read borrows the page. The
/// pool recycles what the store drops, so in steady state a superseded
/// version's buffer becomes a later program's page and no operation
/// touches the allocator.
#[derive(Debug)]
pub(crate) struct PageStore {
    pages_per_block: usize,
    /// Per erase block, the bytes of each page (`None` when it holds none).
    tables: Vec<Option<Box<[Option<PageBuf>]>>>,
}

impl PageStore {
    /// An empty store for a die of geometry `geo`.
    pub(crate) fn new(geo: &NandGeometry) -> Self {
        PageStore {
            pages_per_block: geo.pages_per_block as usize,
            tables: (0..geo.blocks_per_die()).map(|_| None).collect(),
        }
    }

    /// Stores `data` (one page) as page `page` of flat block `block`.
    pub(crate) fn put(&mut self, block: usize, page: usize, data: PageBuf) {
        let ppb = self.pages_per_block;
        let table = self.tables[block].get_or_insert_with(|| (0..ppb).map(|_| None).collect());
        debug_assert!(table[page].is_none(), "page programmed twice");
        table[page] = Some(data);
    }

    /// The bytes of page `page` of flat block `block`, if it holds any.
    pub(crate) fn get(&self, block: usize, page: usize) -> Option<&[u8]> {
        self.tables[block].as_ref()?[page].as_deref()
    }

    /// Drops the bytes of page `page` of flat block `block`, if it holds
    /// any, back to the pool: the page then holds no bytes.
    #[inline]
    pub(crate) fn release(&mut self, block: usize, page: usize) {
        if let Some(table) = &mut self.tables[block] {
            table[page] = None;
        }
    }

    /// Drops every page of flat block `block` back to the pool.
    pub(crate) fn erase_block(&mut self, block: usize) {
        if let Some(table) = &mut self.tables[block] {
            table.iter_mut().for_each(|page| *page = None);
        }
    }
}

/// The block states of one die, grown on first write.
///
/// States are stored in [block-major](NandGeometry::block_major_slot)
/// order, so the blocks an allocator opens first (low indices on every
/// plane) share a short prefix. Slots past the end of `states` are
/// never-written blocks and read as `erased`. The die's flat (plane-major)
/// block index keeps its meaning for every caller; only the storage order
/// differs.
#[derive(Debug)]
pub(crate) struct BlockTable {
    states: Vec<BlockState>,
    /// What every block past the end of `states` reads as: erased, never
    /// programmed, never retired, with the uniform wear of
    /// [`add_wear`](Self::add_wear).
    erased: BlockState,
    geo: NandGeometry,
}

impl BlockTable {
    /// The table of a fresh die of geometry `geo`. Allocates nothing.
    ///
    /// # Panics
    /// If the geometry's pages per block exceed
    /// [`NandGeometry::MAX_PAGES_PER_BLOCK`].
    pub(crate) fn new(geo: &NandGeometry) -> Self {
        BlockTable {
            states: Vec::new(),
            erased: BlockState::new(geo.pages_per_block),
            geo: *geo,
        }
    }

    /// The state of block `b`, which must be on the die.
    #[inline]
    pub(crate) fn get(&self, b: BlockAddr) -> &BlockState {
        self.states
            .get(self.geo.block_major_slot(b))
            .unwrap_or(&self.erased)
    }

    /// The state of block `b`, mutably, growing the table to hold it.
    #[inline]
    pub(crate) fn get_mut(&mut self, b: BlockAddr) -> &mut BlockState {
        let slot = self.geo.block_major_slot(b);
        if slot >= self.states.len() {
            let erased = &self.erased;
            self.states
                .resize_with(slot + 1, || BlockState { ..*erased });
        }
        &mut self.states[slot]
    }

    /// Every block in flat (plane-major) order. Each plane is a strided
    /// walk of `states` (one multiply-add per block, no division).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &BlockState> {
        let geo = self.geo;
        (0..geo.planes).flat_map(move |plane| {
            (0..geo.blocks_per_plane).map(move |block| self.get(BlockAddr { plane, block }))
        })
    }

    /// Adds `pe` artificial P/E cycles to every block, written or not.
    ///
    /// # Panics
    /// If a block's erase count would reach `u32::MAX`.
    pub(crate) fn add_wear(&mut self, pe: u64) {
        self.erased.add_wear(pe);
        for b in &mut self.states {
            b.add_wear(pe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PageStore {
        /// Pages currently holding bytes.
        pub(crate) fn live_pages(&self) -> usize {
            let tables = self.tables.iter().flatten();
            tables
                .flat_map(|t| t.iter())
                .filter(|p| p.is_some())
                .count()
        }
    }

    /// A bitset store for blocks of `pages` pages.
    fn bits(pages: u32) -> Slabs {
        Slabs::new(pages.div_ceil(64) as usize)
    }

    #[test]
    fn block_state_is_compact_plain_data() {
        assert!(std::mem::size_of::<BlockState>() <= 32);
        assert!(!std::mem::needs_drop::<BlockState>());
    }

    #[test]
    fn block_lifecycle() {
        let mut s = bits(4);
        let mut b = BlockState::new(4);
        assert_eq!(b.next_programmable(), Some(0));
        assert_eq!(b.free_pages(), 4);
        b.mark_programmed(0);
        b.mark_programmed(1);
        assert_eq!(b.valid_pages(), 2);
        assert_eq!(b.next_programmable(), Some(2));
        assert!(b.invalidate(0, &mut s));
        assert!(
            !b.invalidate(0, &mut s),
            "double invalidate must be rejected"
        );
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.page_state(0, &s), PageState::Invalid);
        b.mark_erased(&mut s);
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.next_programmable(), Some(0));
        assert_eq!(b.page_state(0, &s), PageState::Free);
    }

    #[test]
    fn set_validity_rebuilds_partition() {
        let mut s = bits(4);
        let mut b = BlockState::new(4);
        assert!(
            !b.set_validity(0, true, &mut s),
            "free pages have no validity"
        );
        b.mark_programmed(0);
        b.mark_programmed(1);
        assert!(b.set_validity(0, false, &mut s));
        assert_eq!(b.valid_pages(), 1);
        assert!(b.set_validity(0, true, &mut s));
        assert_eq!(b.valid_pages(), 2);
        assert!(
            b.set_validity(0, true, &mut s),
            "idempotent re-set keeps the count"
        );
        assert_eq!(b.valid_pages(), 2);
    }

    #[test]
    fn invalid_bitset_is_lazy_and_dropped_on_erase() {
        let mut s = bits(130);
        let mut b = BlockState::new(130);
        for page in 0..130 {
            b.mark_programmed(page);
        }
        assert_eq!(b.invalid, NO_SLAB, "programs alone take no slab");
        assert!(b.set_validity(64, true, &mut s));
        assert_eq!(s.live(), 0, "re-validating a valid page takes nothing");
        assert!(b.invalidate(129, &mut s));
        assert_eq!(s.live(), 1);
        assert!(b.set_validity(63, false, &mut s));
        assert_eq!(b.page_state(63, &s), PageState::Invalid);
        assert_eq!(b.page_state(64, &s), PageState::Valid);
        assert_eq!(b.page_state(129, &s), PageState::Invalid);
        assert_eq!(b.valid_pages(), 128);
        b.mark_erased(&mut s);
        assert_eq!(
            (b.invalid, s.live()),
            (NO_SLAB, 0),
            "erase hands the slab back"
        );
        assert_eq!(b.page_state(129, &s), PageState::Free);
        // The next block to invalidate reuses the slab, cleared.
        let mut c = BlockState::new(130);
        for page in 0..130 {
            c.mark_programmed(page);
        }
        assert!(c.invalidate(0, &mut s));
        assert_eq!(c.page_state(63, &s), PageState::Valid);
        assert_eq!(c.page_state(129, &s), PageState::Valid);
        b.mark_programmed(0);
        assert_eq!(b.page_state(0, &s), PageState::Valid);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_past_the_block_panics() {
        BlockState::new(4).page_state(4, &bits(4));
    }

    #[test]
    #[should_panic(expected = "exceed the limit")]
    fn oversized_blocks_are_rejected() {
        BlockState::new(NandGeometry::MAX_PAGES_PER_BLOCK + 1);
    }

    #[test]
    fn wear_is_bounded_explicitly() {
        let mut b = BlockState::new(4);
        b.add_wear(u32::MAX as u64 - 1);
        assert_eq!(b.erase_count(), u32::MAX as u64 - 1);
        b.mark_erased(&mut bits(4));
        assert_eq!(b.erase_count(), u32::MAX as u64);
        let overflow = std::panic::catch_unwind(|| BlockState::new(4).add_wear(u32::MAX as u64));
        assert!(overflow.is_err(), "wear past the counter must panic");
    }

    #[test]
    fn aging_clocks_reset_on_erase() {
        let mut b = BlockState::new(4);
        assert_eq!(b.reads_since_erase(), 0);
        assert_eq!(b.last_program_ns(), None);
        b.mark_programmed(0);
        b.stamp_program(500);
        b.note_read();
        b.note_read();
        assert_eq!(b.reads_since_erase(), 2);
        assert_eq!(b.last_program_ns(), Some(500));
        b.stamp_program(900); // later program restarts retention
        assert_eq!(b.last_program_ns(), Some(900));
        b.mark_erased(&mut bits(4));
        assert_eq!(b.reads_since_erase(), 0);
        assert_eq!(b.last_program_ns(), None);
    }

    #[test]
    fn block_fills_up() {
        let mut b = BlockState::new(2);
        b.mark_programmed(0);
        b.mark_programmed(1);
        assert_eq!(b.next_programmable(), None);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn retirement() {
        let mut b = BlockState::new(2);
        assert!(!b.is_retired());
        b.retire();
        assert!(b.is_retired());
    }

    fn store_geo() -> NandGeometry {
        NandGeometry {
            planes: 1,
            blocks_per_plane: 4,
            pages_per_block: 40,
            page_bytes: 16,
        }
    }

    #[test]
    fn data_backing_round_trips() {
        let mut a = PageStore::new(&store_geo());
        assert_eq!(a.get(0, 0), None);
        for page in 0..40 {
            a.put(0, page, PageBuf::copy_of(&[page as u8; 16]));
        }
        a.put(1, 0, PageBuf::copy_of(&[0xAB; 16]));
        assert_eq!(a.get(0, 7), Some(&[7u8; 16][..]));
        assert_eq!(a.get(1, 0), Some(&[0xAB; 16][..]));
        assert_eq!(a.get(1, 1), None);
        assert_eq!(a.live_pages(), 41);
        a.erase_block(0);
        assert_eq!(a.get(0, 7), None);
        assert_eq!(a.live_pages(), 1);
        for page in 0..40 {
            a.put(0, page, PageBuf::copy_of(&[0x40 | page as u8; 16]));
        }
        assert_eq!(a.live_pages(), 41);
        assert_eq!(a.get(0, 39), Some(&[0x40 | 39u8; 16][..]));
        assert_eq!(a.get(1, 0), Some(&[0xAB; 16][..]), "other blocks untouched");
    }

    #[test]
    fn a_released_page_holds_no_bytes() {
        let mut a = PageStore::new(&store_geo());
        a.put(0, 0, PageBuf::copy_of(&[1; 16]));
        a.put(0, 1, PageBuf::copy_of(&[2; 16]));
        a.release(0, 0);
        a.release(0, 0); // a page without bytes has nothing to release
        a.release(3, 5); // nor does a block never programmed
        assert_eq!(a.get(0, 0), None);
        assert_eq!(a.get(0, 1), Some(&[2; 16][..]));
        assert_eq!(a.live_pages(), 1);
        a.put(0, 2, PageBuf::copy_of(&[3; 16]));
        assert_eq!(a.live_pages(), 2);
        a.erase_block(0);
        assert_eq!(a.live_pages(), 0);
    }

    /// A program stores the very buffer it is handed: no copy.
    #[test]
    fn a_program_adopts_its_buffer() {
        let mut a = PageStore::new(&store_geo());
        let page = PageBuf::copy_of(&[5; 16]);
        let at = page.as_ptr();
        a.put(2, 0, page);
        assert_eq!(a.get(2, 0).map(<[u8]>::as_ptr), Some(at));
    }

    #[test]
    fn phantom_backing_stores_nothing() {
        assert!(!Backing::Phantom.is_functional());
        assert!(Backing::Data(PageStore::new(&store_geo())).is_functional());
    }

    /// The table walks every block but stores only a block-major prefix.
    #[test]
    fn block_table_size() {
        let geo = NandGeometry {
            planes: 2,
            blocks_per_plane: 3,
            pages_per_block: 4,
            page_bytes: 512,
        };
        let mut t = BlockTable::new(&geo);
        assert_eq!(t.states.capacity(), 0, "a fresh table allocates nothing");
        assert_eq!(t.iter().count(), 6);
        t.get_mut(BlockAddr { plane: 1, block: 0 })
            .mark_programmed(0);
        assert_eq!(t.states.len(), 2, "block 0 of both planes is the prefix");
        t.get_mut(BlockAddr { plane: 0, block: 2 })
            .mark_programmed(0);
        assert_eq!(t.states.len(), 5);
        let cursors: Vec<u32> = t.iter().map(BlockState::free_pages).collect();
        assert_eq!(
            cursors,
            [4, 4, 3, 3, 4, 4],
            "flat order: plane 0, then plane 1"
        );
        t.add_wear(7);
        assert!(t.iter().all(|b| b.erase_count() == 7));
        assert_eq!(t.get(BlockAddr { plane: 1, block: 2 }).erase_count(), 7);
    }
}
