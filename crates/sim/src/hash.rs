//! Multiply-rotate hashing for maps keyed by trusted integers.
//!
//! [`KeyHasher`] is rustc's FxHash scheme: one rotate, xor and multiply per
//! word. The simulator's hot maps are keyed by ids it hands out itself (the
//! fluid solver's link sets, the training engine's flow tags and iteration
//! numbers), so std's SipHash, which defends against crafted collisions,
//! costs time and buys nothing there. Iteration order is arbitrary (though,
//! unlike std's, the same in every run): a caller whose output depends on it
//! must sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic [`Hasher`] for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A [`HashMap`] hashed by [`KeyHasher`]; build one with `KeyMap::default()`.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(x: impl Hash) -> u64 {
        let mut h = KeyHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equally_and_small_keys_spread() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        let hashes: std::collections::HashSet<u64> = (0u64..1000).map(hash_of).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
