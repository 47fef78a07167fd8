//! A fast word-at-a-time hasher for in-memory tables.
//!
//! The keys hashed in the hot paths of this workspace are built by the
//! program itself — vertex labels made of small integers, and sorted
//! lists of dense vertex ids — so SipHash's resistance to chosen keys
//! buys nothing there and costs a full round function per word.
//! [`WordHasher`] folds each written word in with one rotate, xor and
//! multiply (the FxHash step), and rotates the high, well-mixed bits of
//! the state down in [`Hasher::finish`] so that tables indexing by the
//! low bits see them.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the FxHash step (an odd constant with well-spread
/// bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style hasher: cheap, deterministic, not DoS-resistant.
/// Use it only for keys the program builds, never for untrusted input.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher {
    hash: u64,
}

impl WordHasher {
    /// Folds one word into the state.
    #[inline]
    pub fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The `BuildHasher` of [`WordHasher`], for `HashMap`/`HashSet`.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildWordHasher::default().hash_one(x)
    }

    #[test]
    fn deterministic_and_separating() {
        assert_eq!(hash_of(&(1u32, 2u64)), hash_of(&(1u32, 2u64)));
        assert_ne!(hash_of(&[1u32, 2]), hash_of(&[2u32, 1]));
        // byte slices whose lengths are not a multiple of eight
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&"abcdefghi"), hash_of(&"abcdefghj"));
    }

    #[test]
    fn drives_a_hash_map() {
        let mut m: HashMap<Vec<u32>, usize, BuildWordHasher> = HashMap::default();
        for i in 0..1000u32 {
            m.insert(vec![i, i + 1, i * 7], i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|i| m[&vec![i, i + 1, i * 7]] == i as usize));
    }
}
