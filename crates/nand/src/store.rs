//! Page lifecycle state and (optional) functional data storage.
//!
//! Every page moves through the `Free → Valid → Invalid → Free` lifecycle
//! (the FTL depends on it). A block stores no per-page state for it:
//! programs are sequential, so pages at or past the write cursor are
//! `Free`, and a page below it is `Invalid` exactly when its bit is set in
//! a bitset allocated on the block's first invalidation and dropped on
//! erase. A block that was never invalidated costs no heap at all.
//!
//! The *contents* of pages are optional: a functional die keeps real bytes
//! in a slot arena for functional verification, a phantom die keeps none so
//! that terabyte-scale timing experiments fit in host memory.

use crate::geometry::NandGeometry;

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

/// Per-block bookkeeping: page states, sequential-program cursor, wear.
#[derive(Debug, Clone)]
pub struct BlockState {
    pages_per_block: u32,
    /// Index of the next page that may legally be programmed; every page
    /// at or past it is `Free`.
    write_cursor: u32,
    /// One bit per page, set for programmed pages that are `Invalid`.
    /// `None` until the first invalidation since the last erase.
    invalid: Option<Box<[u64]>>,
    /// Number of pages currently `Valid`.
    valid_pages: u32,
    /// Completed program/erase cycles.
    erase_count: u64,
    /// True once the block exceeded its rated endurance and was retired.
    retired: bool,
    /// Reads issued against any page of this block since its last erase
    /// (read-disturb clock).
    reads_since_erase: u64,
    /// Simulated time (ns) of the most recent program into this block
    /// (retention clock), or `None` if never programmed since erase.
    last_program_ns: Option<u64>,
}

impl BlockState {
    /// A freshly erased block with zero wear.
    pub fn new(pages_per_block: u32) -> Self {
        BlockState {
            pages_per_block,
            write_cursor: 0,
            invalid: None,
            valid_pages: 0,
            erase_count: 0,
            retired: false,
            reads_since_erase: 0,
            last_program_ns: None,
        }
    }

    /// State of page `page`.
    ///
    /// # Panics
    /// If `page` is not below the block's page count.
    pub fn page_state(&self, page: u32) -> PageState {
        assert!(
            page < self.pages_per_block,
            "page {page} out of range for a {}-page block",
            self.pages_per_block
        );
        if page >= self.write_cursor {
            PageState::Free
        } else if self.invalid_bit(page) {
            PageState::Invalid
        } else {
            PageState::Valid
        }
    }

    fn invalid_bit(&self, page: u32) -> bool {
        self.invalid
            .as_ref()
            .is_some_and(|w| w[page as usize / 64] & (1 << (page % 64)) != 0)
    }

    /// Sets or clears `page`'s invalid bit, allocating the bitset only to
    /// set a bit.
    fn set_invalid_bit(&mut self, page: u32, invalid: bool) {
        let (word, bit) = (page as usize / 64, 1u64 << (page % 64));
        if invalid {
            let words = self.pages_per_block.div_ceil(64) as usize;
            self.invalid.get_or_insert_with(|| vec![0; words].into())[word] |= bit;
        } else if let Some(w) = &mut self.invalid {
            w[word] &= !bit;
        }
    }

    /// The next page index that may legally be programmed, or `None` if the
    /// block is full.
    pub fn next_programmable(&self) -> Option<u32> {
        (self.write_cursor < self.pages_per_block).then_some(self.write_cursor)
    }

    /// Number of `Valid` pages.
    pub fn valid_pages(&self) -> u32 {
        self.valid_pages
    }

    /// Number of `Free` (programmable) pages remaining.
    pub fn free_pages(&self) -> u32 {
        self.pages_per_block - self.write_cursor
    }

    /// Completed P/E cycles.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Reads since the last erase (read-disturb clock).
    pub fn reads_since_erase(&self) -> u64 {
        self.reads_since_erase
    }

    /// Simulated time (ns) of the most recent program, if any since erase.
    pub fn last_program_ns(&self) -> Option<u64> {
        self.last_program_ns
    }

    /// Advances the read-disturb clock by one sense.
    pub(crate) fn note_read(&mut self) {
        self.reads_since_erase = self.reads_since_erase.saturating_add(1);
    }

    /// Restarts the retention clock at `now_ns` (called on every program).
    pub(crate) fn stamp_program(&mut self, now_ns: u64) {
        self.last_program_ns = Some(now_ns);
    }

    /// True if the block was retired for wear.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Retires the block (no further programs or erases).
    pub fn retire(&mut self) {
        self.retired = true;
    }

    /// Marks `page` programmed. Caller must have validated ordering.
    pub(crate) fn mark_programmed(&mut self, page: u32) {
        debug_assert_eq!(page, self.write_cursor);
        self.write_cursor += 1;
        self.valid_pages += 1;
    }

    /// Marks a `Valid` page `Invalid` (its logical contents moved elsewhere).
    /// Returns `false` if the page was not valid.
    pub fn invalidate(&mut self, page: u32) -> bool {
        if self.page_state(page) == PageState::Valid {
            self.set_invalid_bit(page, true);
            self.valid_pages -= 1;
            true
        } else {
            false
        }
    }

    /// Forces a programmed page's validity (mount recovery rebuilds the
    /// Valid/Invalid partition from scanned OOB stamps rather than the
    /// lost RAM state). Returns `false` — and changes nothing — for a
    /// `Free` page, which has no validity to rewrite.
    pub fn set_validity(&mut self, page: u32, valid: bool) -> bool {
        match self.page_state(page) {
            PageState::Free => false,
            current => {
                if current == PageState::Valid && !valid {
                    self.valid_pages -= 1;
                } else if current == PageState::Invalid && valid {
                    self.valid_pages += 1;
                }
                self.set_invalid_bit(page, !valid);
                true
            }
        }
    }

    /// Adds artificial wear (experiments age a device without erasing it
    /// billions of times). Does not retire the block.
    pub(crate) fn add_wear(&mut self, pe: u64) {
        self.erase_count += pe;
    }

    /// Resets the block after an erase and bumps the wear counter.
    pub(crate) fn mark_erased(&mut self) {
        self.write_cursor = 0;
        self.invalid = None;
        self.valid_pages = 0;
        self.erase_count += 1;
        self.reads_since_erase = 0;
        self.last_program_ns = None;
    }
}

/// Page slots per arena chunk. At 4 KiB pages a chunk is 32 KiB: small
/// enough that the system allocator serves it from its heap and hands a
/// dropped device's chunks to the next device, instead of mapping fresh
/// memory whose every page faults on first write (64-slot chunks more than
/// doubled a tiny functional device's build-and-load time on a 2-vCPU
/// x86-64 Linux host), and small enough that a die's partly used last
/// chunk wastes little.
const SLOTS_PER_CHUNK: usize = 8;

/// Slot-table entry of a page that holds no bytes.
const NO_SLOT: u32 = u32::MAX;

/// Where page contents live.
#[derive(Debug)]
pub(crate) enum Backing {
    /// No data is stored; reads deliver none. Timing and state tracking
    /// still function. Use for capacity-scale experiments.
    Phantom,
    /// Real bytes per page, in a slot arena.
    Data(PageArena),
}

impl Backing {
    /// True if this store keeps real bytes.
    pub(crate) fn is_functional(&self) -> bool {
        matches!(self, Backing::Data(_))
    }
}

/// The functional page store of one die: a slot arena.
///
/// Page bytes live in fixed-size chunks of [`SLOTS_PER_CHUNK`] page slots,
/// allocated zeroed when the arena first needs one and never moved or
/// grown afterwards. Each erase block has a slot table (created at its
/// first program, kept across erases) saying which slot holds each page. A
/// program copies into a slot from the free list, or the next never-used
/// one; an erase hands its block's slots back to the free list; a read
/// borrows the slot. In steady state no operation touches the allocator.
pub(crate) struct PageArena {
    page_bytes: usize,
    pages_per_block: usize,
    /// Per erase block, the slot of each page ([`NO_SLOT`] when the page
    /// holds no bytes).
    tables: Vec<Option<Box<[u32]>>>,
    chunks: Vec<Box<[u8]>>,
    /// Slots handed back by erases, reused before fresh ones.
    free: Vec<u32>,
    /// Slots ever handed out: the next fresh slot.
    used: u32,
}

impl PageArena {
    /// An empty store for a die of geometry `geo`.
    pub(crate) fn new(geo: &NandGeometry) -> Self {
        PageArena {
            page_bytes: geo.page_bytes as usize,
            pages_per_block: geo.pages_per_block as usize,
            tables: (0..geo.blocks_per_die()).map(|_| None).collect(),
            chunks: Vec::new(),
            free: Vec::new(),
            used: 0,
        }
    }

    /// Byte range of `slot` within its chunk.
    fn span(&self, slot: u32) -> (usize, std::ops::Range<usize>) {
        let slot = slot as usize;
        let at = (slot % SLOTS_PER_CHUNK) * self.page_bytes;
        (slot / SLOTS_PER_CHUNK, at..at + self.page_bytes)
    }

    /// Stores `data` (one page) as page `page` of flat block `block`.
    pub(crate) fn put(&mut self, block: usize, page: usize, data: &[u8]) {
        let slot = self.free.pop().unwrap_or_else(|| {
            if (self.used as usize).is_multiple_of(SLOTS_PER_CHUNK) {
                let chunk = vec![0u8; SLOTS_PER_CHUNK * self.page_bytes];
                self.chunks.push(chunk.into_boxed_slice());
            }
            self.used += 1;
            self.used - 1
        });
        let ppb = self.pages_per_block;
        let table = self.tables[block].get_or_insert_with(|| vec![NO_SLOT; ppb].into());
        debug_assert_eq!(table[page], NO_SLOT, "page programmed twice");
        table[page] = slot;
        let (chunk, span) = self.span(slot);
        self.chunks[chunk][span].copy_from_slice(data);
    }

    /// The bytes of page `page` of flat block `block`, if it holds any.
    pub(crate) fn get(&self, block: usize, page: usize) -> Option<&[u8]> {
        let slot = self.tables[block].as_ref()?[page];
        if slot == NO_SLOT {
            return None;
        }
        let (chunk, span) = self.span(slot);
        Some(&self.chunks[chunk][span])
    }

    /// Hands every slot of flat block `block` back to the free list.
    pub(crate) fn erase_block(&mut self, block: usize) {
        if let Some(table) = &mut self.tables[block] {
            for slot in table.iter_mut().filter(|s| **s != NO_SLOT) {
                self.free.push(std::mem::replace(slot, NO_SLOT));
            }
        }
    }

    /// Slots currently holding a page.
    #[cfg(test)]
    pub(crate) fn live_slots(&self) -> usize {
        self.used as usize - self.free.len()
    }

    /// Slots ever handed out (the arena's high-water mark).
    #[cfg(test)]
    pub(crate) fn slots_used(&self) -> usize {
        self.used as usize
    }
}

impl std::fmt::Debug for PageArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageArena")
            .field("page_bytes", &self.page_bytes)
            .field("chunks", &self.chunks.len())
            .field("slots_used", &self.used)
            .field("free", &self.free.len())
            .finish()
    }
}

/// Builds the per-block state table for a die of geometry `geo`.
pub fn new_block_table(geo: &NandGeometry) -> Vec<BlockState> {
    (0..geo.blocks_per_die())
        .map(|_| BlockState::new(geo.pages_per_block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_lifecycle() {
        let mut b = BlockState::new(4);
        assert_eq!(b.next_programmable(), Some(0));
        assert_eq!(b.free_pages(), 4);
        b.mark_programmed(0);
        b.mark_programmed(1);
        assert_eq!(b.valid_pages(), 2);
        assert_eq!(b.next_programmable(), Some(2));
        assert!(b.invalidate(0));
        assert!(!b.invalidate(0), "double invalidate must be rejected");
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.page_state(0), PageState::Invalid);
        b.mark_erased();
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.next_programmable(), Some(0));
        assert_eq!(b.page_state(0), PageState::Free);
    }

    #[test]
    fn set_validity_rebuilds_partition() {
        let mut b = BlockState::new(4);
        assert!(!b.set_validity(0, true), "free pages have no validity");
        b.mark_programmed(0);
        b.mark_programmed(1);
        assert!(b.set_validity(0, false));
        assert_eq!(b.valid_pages(), 1);
        assert!(b.set_validity(0, true));
        assert_eq!(b.valid_pages(), 2);
        assert!(b.set_validity(0, true), "idempotent re-set keeps the count");
        assert_eq!(b.valid_pages(), 2);
    }

    #[test]
    fn invalid_bitset_is_lazy_and_dropped_on_erase() {
        let mut b = BlockState::new(130);
        for page in 0..130 {
            b.mark_programmed(page);
        }
        assert!(b.invalid.is_none(), "programs alone allocate nothing");
        assert!(b.set_validity(64, true));
        assert!(
            b.invalid.is_none(),
            "re-validating a valid page allocates nothing"
        );
        assert!(b.invalidate(129));
        assert_eq!(b.invalid.as_ref().map(|w| w.len()), Some(3));
        assert!(b.set_validity(63, false));
        assert_eq!(b.page_state(63), PageState::Invalid);
        assert_eq!(b.page_state(64), PageState::Valid);
        assert_eq!(b.page_state(129), PageState::Invalid);
        assert_eq!(b.valid_pages(), 128);
        b.mark_erased();
        assert!(b.invalid.is_none(), "erase drops the bitset");
        assert_eq!(b.page_state(129), PageState::Free);
        b.mark_programmed(0);
        assert_eq!(b.page_state(0), PageState::Valid);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_past_the_block_panics() {
        BlockState::new(4).page_state(4);
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
        b.mark_erased();
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

    fn arena_geo() -> NandGeometry {
        NandGeometry {
            planes: 1,
            blocks_per_plane: 4,
            pages_per_block: 40,
            page_bytes: 16,
        }
    }

    #[test]
    fn data_backing_round_trips() {
        let mut a = PageArena::new(&arena_geo());
        assert_eq!(a.get(0, 0), None);
        for page in 0..40 {
            a.put(0, page, &[page as u8; 16]);
        }
        a.put(1, 0, &[0xAB; 16]);
        assert_eq!(a.chunks.len(), 6, "41 slots span six chunks");
        assert_eq!(a.get(0, 7), Some(&[7u8; 16][..]));
        assert_eq!(a.get(1, 0), Some(&[0xAB; 16][..]));
        assert_eq!(a.get(1, 1), None);
        assert_eq!((a.live_slots(), a.slots_used()), (41, 41));
        a.erase_block(0);
        assert_eq!(a.get(0, 7), None);
        assert_eq!((a.live_slots(), a.slots_used()), (1, 41));
        // Refilling the erased block reuses its slots: no growth.
        for page in 0..40 {
            a.put(0, page, &[0x40 | page as u8; 16]);
        }
        assert_eq!((a.live_slots(), a.slots_used()), (41, 41));
        assert_eq!(a.get(0, 39), Some(&[0x40 | 39u8; 16][..]));
        assert_eq!(a.get(1, 0), Some(&[0xAB; 16][..]), "other blocks untouched");
    }

    #[test]
    fn arena_chunks_never_move() {
        let mut a = PageArena::new(&arena_geo());
        a.put(2, 0, &[1; 16]);
        let first = a.chunks[0].as_ptr();
        for page in 0..40 {
            a.put(3, page, &[2; 16]);
        }
        for page in 1..40 {
            a.put(2, page, &[3; 16]);
        }
        assert_eq!(a.chunks.len(), 10, "80 slots span ten chunks");
        assert_eq!(
            a.chunks[0].as_ptr(),
            first,
            "a full chunk is never reallocated"
        );
        assert_eq!(a.get(2, 0), Some(&[1u8; 16][..]));
    }

    #[test]
    fn phantom_backing_stores_nothing() {
        assert!(!Backing::Phantom.is_functional());
        assert!(Backing::Data(PageArena::new(&arena_geo())).is_functional());
    }

    #[test]
    fn block_table_size() {
        let geo = NandGeometry {
            planes: 2,
            blocks_per_plane: 3,
            pages_per_block: 4,
            page_bytes: 512,
        };
        assert_eq!(new_block_table(&geo).len(), 6);
    }
}
