//! Compact bit vector used for null masks and record-start markers.

/// A growable bitmap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Self {
        Bitmap::default()
    }

    pub fn with_capacity(bits: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all bits, keeping the allocation (reusable buffers).
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends every bit of `other`, leaving the words a bit-by-bit
    /// `push` of them would.
    pub(crate) fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &word in &other.words {
                *self.words.last_mut().expect("a partial word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Reads a bit. Panics if out of bounds (debug) / returns false
    /// (release, via masked indexing) — callers stay in bounds.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Backing words (bit `i` of the map is bit `i % 64` of word `i / 64`).
    /// Bits at positions `>= len()` are unspecified.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// True when every bit in `[0, len)` is set (e.g. a column with no
    /// nulls) — lets scans skip validity checks entirely.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::new();
        for bit in iter {
            bm.push(bit);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn append_equals_pushing_every_bit() {
        let bits = |n: usize, salt: usize| (0..n).map(move |i| (i * 7 + salt).is_multiple_of(3));
        for a in [0, 1, 63, 64, 65, 130] {
            for b in [0, 1, 63, 64, 65, 200] {
                let mut appended: Bitmap = bits(a, 0).collect();
                appended.append(&bits(b, 1).collect());
                let pushed: Bitmap = bits(a, 0).chain(bits(b, 1)).collect();
                assert_eq!(appended, pushed, "{a} + {b} bits");
            }
        }
    }

    #[test]
    fn count_ones() {
        let bm: Bitmap = (0..130).map(|i| i % 2 == 0).collect();
        assert_eq!(bm.count_ones(), 65);
    }

    #[test]
    fn byte_size_grows_by_words() {
        let mut bm = Bitmap::new();
        assert_eq!(bm.byte_size(), 0);
        bm.push(true);
        assert_eq!(bm.byte_size(), 8);
        for _ in 0..64 {
            bm.push(false);
        }
        assert_eq!(bm.byte_size(), 16);
    }
}
