//! Die geometry: planes → blocks → pages, and physical addressing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Physical organization of one NAND die.
///
/// Capacity = `planes * blocks_per_plane * pages_per_block * page_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandGeometry {
    /// Planes per die. Independent array operations can proceed in parallel
    /// on different planes (multi-plane commands).
    pub planes: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per erase block. Pages must be programmed in order within a
    /// block.
    pub pages_per_block: u32,
    /// User-data bytes per page (spare/ECC area is not modelled as data).
    pub page_bytes: u32,
}

impl NandGeometry {
    /// The most pages an erase block may have: a block's write cursor and
    /// valid-page count are kept in 16 bits.
    pub const MAX_PAGES_PER_BLOCK: u32 = u16::MAX as u32;

    /// Total pages on the die.
    pub fn pages_per_die(&self) -> u64 {
        self.planes as u64 * self.blocks_per_plane as u64 * self.pages_per_block as u64
    }

    /// Total blocks on the die.
    pub fn blocks_per_die(&self) -> u64 {
        self.planes as u64 * self.blocks_per_plane as u64
    }

    /// User capacity of the die in bytes.
    pub fn die_bytes(&self) -> u64 {
        self.pages_per_die() * self.page_bytes as u64
    }

    /// Bytes per erase block.
    pub fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_bytes as u64
    }

    /// True if `p` addresses a page that exists on this die.
    pub fn contains(&self, p: PhysPage) -> bool {
        p.plane < self.planes && p.block < self.blocks_per_plane && p.page < self.pages_per_block
    }

    /// True if `b` addresses a block that exists on this die.
    pub fn contains_block(&self, b: BlockAddr) -> bool {
        b.plane < self.planes && b.block < self.blocks_per_plane
    }

    /// Flat index of a page within the die (`0..pages_per_die()`), in
    /// (plane, block, page) order.
    ///
    /// # Panics
    /// Panics in debug builds if `p` is out of range.
    pub fn page_index(&self, p: PhysPage) -> u64 {
        debug_assert!(self.contains(p), "page {p} out of range");
        (p.plane as u64 * self.blocks_per_plane as u64 + p.block as u64)
            * self.pages_per_block as u64
            + p.page as u64
    }

    /// Flat index of a block within the die (`0..blocks_per_die()`).
    pub fn block_index(&self, b: BlockAddr) -> u64 {
        debug_assert!(self.contains_block(b), "block {b:?} out of range");
        b.plane as u64 * self.blocks_per_plane as u64 + b.block as u64
    }

    /// Block-major slot of a block (`block × planes + plane`): the storage
    /// order of the tables that grow on first write. Blocks an allocator
    /// opens lowest-first on every plane share a short prefix of slots.
    #[inline]
    pub fn block_major_slot(&self, b: BlockAddr) -> usize {
        debug_assert!(self.contains_block(b), "block {b:?} out of range");
        b.block as usize * self.planes as usize + b.plane as usize
    }

    /// Inverse of [`block_index`](Self::block_index).
    pub fn block_at(&self, index: u64) -> BlockAddr {
        let blocks = self.blocks_per_plane as u64;
        BlockAddr {
            plane: (index / blocks) as u32,
            block: (index % blocks) as u32,
        }
    }
}

/// Address of one page on a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhysPage {
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl PhysPage {
    /// The block containing this page.
    pub fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            plane: self.plane,
            block: self.block,
        }
    }
}

impl fmt::Display for PhysPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pl{}/blk{}/pg{}", self.plane, self.block, self.page)
    }
}

/// Address of one erase block on a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockAddr {
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
}

impl BlockAddr {
    /// The `page`-th page of this block.
    pub fn page(&self, page: u32) -> PhysPage {
        PhysPage {
            plane: self.plane,
            block: self.block,
            page,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NandGeometry {
        /// Inverse of [`page_index`](Self::page_index).
        pub fn page_at(&self, index: u64) -> PhysPage {
            let pages = self.pages_per_block as u64;
            let blocks = self.blocks_per_plane as u64;
            let page = (index % pages) as u32;
            let block_flat = index / pages;
            let block = (block_flat % blocks) as u32;
            let plane = (block_flat / blocks) as u32;
            PhysPage { plane, block, page }
        }
    }

    fn geo() -> NandGeometry {
        NandGeometry {
            planes: 4,
            blocks_per_plane: 10,
            pages_per_block: 16,
            page_bytes: 4096,
        }
    }

    #[test]
    fn capacity_math() {
        let g = geo();
        assert_eq!(g.pages_per_die(), 4 * 10 * 16);
        assert_eq!(g.blocks_per_die(), 40);
        assert_eq!(g.die_bytes(), 640 * 4096);
        assert_eq!(g.block_bytes(), 16 * 4096);
    }

    #[test]
    fn page_index_round_trips() {
        let g = geo();
        for idx in 0..g.pages_per_die() {
            let p = g.page_at(idx);
            assert!(g.contains(p));
            assert_eq!(g.page_index(p), idx);
        }
    }

    #[test]
    fn block_index_round_trips() {
        let g = geo();
        for idx in 0..g.blocks_per_die() {
            let b = g.block_at(idx);
            assert!(g.contains_block(b));
            assert_eq!(g.block_index(b), idx);
        }
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = geo();
        assert!(!g.contains(PhysPage {
            plane: 4,
            block: 0,
            page: 0
        }));
        assert!(!g.contains(PhysPage {
            plane: 0,
            block: 10,
            page: 0
        }));
        assert!(!g.contains(PhysPage {
            plane: 0,
            block: 0,
            page: 16
        }));
        assert!(!g.contains_block(BlockAddr {
            plane: 0,
            block: 10
        }));
    }

    #[test]
    fn page_block_relationships() {
        let p = PhysPage {
            plane: 2,
            block: 7,
            page: 9,
        };
        assert_eq!(p.block_addr(), BlockAddr { plane: 2, block: 7 });
        assert_eq!(p.block_addr().page(9), p);
        assert_eq!(p.to_string(), "pl2/blk7/pg9");
    }
}
