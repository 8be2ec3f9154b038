//! Page lifecycle state and (optional) functional data storage.
//!
//! Every page moves through the `Free → Valid → Invalid → Free` lifecycle
//! (the FTL depends on it). A block stores no per-page state for it:
//! programs are sequential, so pages at or past the write cursor are
//! `Free`, and a page below it is `Invalid` exactly when its bit is set in
//! a bitset allocated on the block's first invalidation and dropped on
//! erase. A block that was never invalidated costs no heap at all.
//!
//! The *contents* of pages are optional: [`Backing::Data`] keeps real bytes
//! for functional verification, [`Backing::Phantom`] keeps none so that
//! terabyte-scale timing experiments fit in host memory.

use crate::geometry::NandGeometry;
use bytes::Bytes;
use std::collections::HashMap;

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

/// Where page contents live.
#[derive(Debug, Clone)]
pub enum Backing {
    /// No data is stored; reads return `None`. Timing and state tracking
    /// still function. Use for capacity-scale experiments.
    Phantom,
    /// Real bytes per page, keyed by flat page index within the die.
    Data(HashMap<u64, Bytes>),
}

impl Backing {
    /// An empty functional store.
    pub fn data() -> Self {
        Backing::Data(HashMap::new())
    }

    /// True if this store keeps real bytes.
    pub fn is_functional(&self) -> bool {
        matches!(self, Backing::Data(_))
    }

    /// Stores `bytes` for page `index` (no-op for phantom).
    pub fn put(&mut self, index: u64, bytes: Bytes) {
        if let Backing::Data(map) = self {
            map.insert(index, bytes);
        }
    }

    /// Contents of page `index`, if stored.
    pub fn get(&self, index: u64) -> Option<Bytes> {
        match self {
            Backing::Phantom => None,
            Backing::Data(map) => map.get(&index).cloned(),
        }
    }

    /// Drops contents of page `index` (after erase).
    pub fn remove(&mut self, index: u64) {
        if let Backing::Data(map) = self {
            map.remove(&index);
        }
    }

    /// Number of pages with stored contents.
    pub fn stored_pages(&self) -> usize {
        match self {
            Backing::Phantom => 0,
            Backing::Data(map) => map.len(),
        }
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

    #[test]
    fn phantom_backing_stores_nothing() {
        let mut s = Backing::Phantom;
        s.put(7, Bytes::from_static(b"abc"));
        assert_eq!(s.get(7), None);
        assert_eq!(s.stored_pages(), 0);
        assert!(!s.is_functional());
    }

    #[test]
    fn data_backing_round_trips() {
        let mut s = Backing::data();
        assert!(s.is_functional());
        s.put(7, Bytes::from_static(b"abc"));
        assert_eq!(s.get(7).as_deref(), Some(&b"abc"[..]));
        assert_eq!(s.stored_pages(), 1);
        s.remove(7);
        assert_eq!(s.get(7), None);
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
