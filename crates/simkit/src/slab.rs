//! Fixed-width slabs of `Copy` words addressed by `u32` index, recycled
//! through a spare list.
//!
//! Per-block metadata that only some blocks need — a block's invalid-page
//! bitset (`u64` words), its reverse-map page slots (`u32` words), its
//! pages' OOB stamps and torn marks — lives here instead of in a boxed
//! slice per block. A table of such blocks then
//! holds one `u32` per block ([`NO_SLAB`] until the block needs a slab)
//! and has no drop glue, so building and dropping it costs one allocation,
//! not one per block.
//!
//! All slabs share one flat `Vec`, so a word is one multiply and one
//! bounds check away from its index. Released slabs are zeroed and reused
//! before the vector grows ([`Slabs::release`]): a recycled slab reads
//! empty, exactly like a fresh one, and a store whose blocks cycle through
//! erase and refill stops growing once it holds its high-water mark.

/// The slab index of "no slab".
pub const NO_SLAB: u32 = u32::MAX;

/// A store of equal-width slabs of `W` words (`W::default()` is the
/// empty word).
#[derive(Debug)]
pub struct Slabs<W = u64> {
    width: usize,
    words: Vec<W>,
    /// Released slabs, zeroed, reused before fresh ones.
    spare: Vec<u32>,
}

impl<W: Copy + Default> Slabs<W> {
    /// An empty store of slabs `width` words wide. Allocates nothing.
    ///
    /// # Panics
    /// If `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "slabs must be at least one word wide");
        Slabs {
            width,
            words: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Hands out an all-zero slab: a spared one if any, else a fresh one.
    ///
    /// # Panics
    /// If every index but [`NO_SLAB`] is in use.
    pub fn alloc(&mut self) -> u32 {
        if let Some(slab) = self.spare.pop() {
            return slab;
        }
        let slab = self.words.len() / self.width;
        assert!(slab < NO_SLAB as usize, "slab store exhausted");
        self.words
            .resize(self.words.len() + self.width, W::default());
        slab as u32
    }

    /// Zeroes `slab` and spares it for the next [`alloc`](Self::alloc).
    /// The caller must drop every copy of the index.
    pub fn release(&mut self, slab: u32) {
        self.get_mut(slab).fill(W::default());
        self.spare.push(slab);
    }

    /// Word `i` of `slab`.
    ///
    /// # Panics
    /// If `i` is not below the slab width or `slab` was never handed out.
    #[inline]
    pub fn word(&self, slab: u32, i: usize) -> W {
        assert!(i < self.width, "word {i} past a {}-word slab", self.width);
        self.words[slab as usize * self.width + i]
    }

    /// Word `i` of `slab`, mutably.
    ///
    /// # Panics
    /// As [`word`](Self::word).
    #[inline]
    pub fn word_mut(&mut self, slab: u32, i: usize) -> &mut W {
        assert!(i < self.width, "word {i} past a {}-word slab", self.width);
        &mut self.words[slab as usize * self.width + i]
    }

    fn get_mut(&mut self, slab: u32) -> &mut [W] {
        let at = slab as usize * self.width;
        &mut self.words[at..at + self.width]
    }

    /// Slabs currently handed out.
    pub fn live(&self) -> usize {
        self.words.len() / self.width - self.spare.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl<W: Copy + Default> Slabs<W> {
        /// The words of `slab`.
        fn get(&self, slab: u32) -> &[W] {
            let at = slab as usize * self.width;
            &self.words[at..at + self.width]
        }
    }

    #[test]
    fn recycled_slab_reads_empty_and_the_store_does_not_grow() {
        let mut s = Slabs::<u64>::new(3);
        assert_eq!(s.words.capacity(), 0, "an empty store allocates nothing");
        let a = s.alloc();
        s.get_mut(a).copy_from_slice(&[1, 2, 3]);
        s.release(a);
        assert_eq!(s.live(), 0);
        let b = s.alloc();
        assert_eq!(b, a, "the spared slab is reused first");
        assert_eq!(s.get(b), &[0, 0, 0]);
        assert_eq!(s.words.len(), 3);
    }

    #[test]
    fn words_address_their_own_slab() {
        let mut s = Slabs::<u64>::new(4);
        let (a, b) = (s.alloc(), s.alloc());
        *s.word_mut(b, 0) = 7;
        *s.word_mut(a, 3) = 9;
        assert_eq!((s.word(a, 3), s.word(b, 0)), (9, 7));
        assert_eq!(s.get(a), &[0, 0, 0, 9]);
        assert_eq!(s.get(b), &[7, 0, 0, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random set/clear/release/reuse against a map model: every live
        /// slab reads what was written to it, and every slab handed out
        /// reads all-zero, recycled or not.
        #[test]
        fn slabs_match_a_map_model(
            width in 1usize..40,
            ops in prop::collection::vec((0u8..4, 0usize..16, 0usize..40, any::<u64>()), 1..300)
        ) {
            let mut s = Slabs::new(width);
            let mut live: Vec<u32> = Vec::new();
            let mut model: HashMap<(u32, usize), u64> = HashMap::new();
            for (op, pick, word, value) in ops {
                let word = word % width;
                match op {
                    0 => {
                        let slab = s.alloc();
                        prop_assert!(!live.contains(&slab), "slab {} handed out twice", slab);
                        prop_assert!(s.get(slab).iter().all(|&w| w == 0), "slab {} not empty", slab);
                        live.push(slab);
                    }
                    1 | 2 if !live.is_empty() => {
                        let slab = live[pick % live.len()];
                        let v = if op == 1 { value } else { 0 };
                        *s.word_mut(slab, word) = v;
                        model.insert((slab, word), v);
                    }
                    3 if !live.is_empty() => {
                        let slab = live.swap_remove(pick % live.len());
                        s.release(slab);
                        model.retain(|&(m, _), _| m != slab);
                    }
                    _ => {}
                }
                prop_assert_eq!(s.live(), live.len());
                for &slab in &live {
                    for i in 0..width {
                        prop_assert_eq!(s.word(slab, i), model.get(&(slab, i)).copied().unwrap_or(0));
                    }
                }
            }
        }
    }
}
