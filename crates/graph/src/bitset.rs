//! Word-packed fixed-capacity bitset.
//!
//! The sampling hot paths keep several "is index `i` in the current set?"
//! masks alive across millions of queries (reverse-BFS frontiers, covered-set
//! masks in the greedy cover). `Vec<bool>` spends a byte per flag and defeats
//! vectorized clearing; [`FixedBitSet`] packs 64 flags per word so clears,
//! batched inserts and population counts run a word at a time, and a
//! graph-sized mask fits in L2 where the byte vector would not.
//!
//! Complementary to [`GenStamp`](crate::stamp::GenStamp): the stamp wins when
//! a query touches few indices and resets every query; the bitset wins when
//! membership persists across many operations (covered sets accumulate over
//! a whole greedy run) or when whole-set operations (clear, count) matter.

/// A set of indices `0..len`, packed 64 per `u64` word.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// An empty set over indices `0..len`.
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices the set can hold.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set holds no capacity at all (`len == 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows capacity to at least `len` indices (never shrinks); new indices
    /// start unset. Existing membership is preserved.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(64), 0);
        }
    }

    /// Clears every bit in O(words) — one `memset`, not a per-flag loop.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Inserts `i`; returns `true` iff it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`; returns `true` iff it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Inserts the whole word-sized batch `mask` into word `wi` (indices
    /// `wi*64 + bit` for each set bit), returning the sub-mask of bits that
    /// were **not** already present. This is the 64-at-a-time form of
    /// [`insert`](FixedBitSet::insert) the coverage kernels batch on.
    #[inline]
    pub fn insert_word(&mut self, wi: usize, mask: u64) -> u64 {
        debug_assert!(wi < self.words.len(), "word index {wi} out of range");
        debug_assert!(
            mask == 0 || (wi << 6) + 63 - (mask.leading_zeros() as usize) < self.len,
            "mask sets bits beyond the capacity"
        );
        let w = &mut self.words[wi];
        let fresh = mask & !*w;
        *w |= mask;
        fresh
    }

    /// Number of set bits, one `popcnt` per word.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates set indices in increasing order, skipping empty words: an
    /// all-zero stretch costs one load + compare per 64 indices, and within
    /// a non-empty word each set bit is found by `trailing_zeros` — the
    /// iterator never probes indices bit by bit.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            current: 0,
            wi: 0,
        }
    }

    /// Heap bytes held by the backing storage.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Word-skipping iterator over the set indices of a [`FixedBitSet`]
/// (see [`FixedBitSet::ones`]).
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    /// Words not yet fully consumed (`words[0]`'s remaining bits live in
    /// `current`).
    words: &'a [u64],
    /// Unconsumed bits of the word *before* `words` starts.
    current: u64,
    /// Index of the word `current` was taken from.
    wi: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            let (&w, rest) = self.words.split_first()?;
            self.words = rest;
            self.wi += 1;
            self.current = w;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(((self.wi - 1) << 6) | bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let exact = self.current.count_ones() as usize
            + self
                .words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        (exact, Some(exact))
    }
}

impl ExactSizeIterator for Ones<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "double insert reports already-present");
        assert!(s.insert(129));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.count_ones(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = FixedBitSet::new(200);
        for i in (0..200).step_by(3) {
            s.insert(i);
        }
        s.clear();
        assert_eq!(s.count_ones(), 0);
        assert!((0..200).all(|i| !s.contains(i)));
    }

    #[test]
    fn grow_preserves_and_extends() {
        let mut s = FixedBitSet::new(10);
        s.insert(7);
        s.grow(100);
        assert_eq!(s.len(), 100);
        assert!(s.contains(7));
        assert!(!s.contains(99));
        s.insert(99);
        assert_eq!(s.count_ones(), 2);
        s.grow(5); // never shrinks
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn insert_word_returns_fresh_mask() {
        let mut s = FixedBitSet::new(200);
        s.insert(64);
        s.insert(67);
        // word 1 currently holds bits {0, 3}; inserting {0, 1, 3, 5} is
        // fresh only at {1, 5}
        let fresh = s.insert_word(1, 0b101011);
        assert_eq!(fresh, 0b100010);
        assert_eq!(s.count_ones(), 4);
        assert!(s.contains(65) && s.contains(69));
        // whole-word insert into an empty word is all fresh
        assert_eq!(s.insert_word(2, u64::MAX), u64::MAX);
        assert_eq!(s.count_ones(), 4 + 64);
        // empty mask is a no-op
        assert_eq!(s.insert_word(0, 0), 0);
    }

    #[test]
    fn ones_skips_empty_words_and_stays_exact() {
        // set bits only in the first and last of 8 words: the iterator must
        // report exactly those, in order, with an exact size_hint.
        let mut s = FixedBitSet::new(512);
        for i in [3usize, 17, 448, 511] {
            s.insert(i);
        }
        let it = s.ones();
        assert_eq!(it.len(), 4, "exact-size iterator");
        assert_eq!(it.collect::<Vec<_>>(), vec![3, 17, 448, 511]);
        // empty set yields nothing
        assert_eq!(FixedBitSet::new(512).ones().count(), 0);
    }
}
