//! Identity tables: each distinct metric name or tag set is held once and
//! named by a dense `u32` id, as OpenTSDB's UID table names each metric and
//! tag once and a row key holds only the ids.
//!
//! An [`Interner`] keeps its values in one `Vec` (the id is the position)
//! and finds them through an open-addressed table of `(hash, id + 1)`
//! buckets: hash, then verify against the one stored copy. A
//! `HashMap<T, u32>` beside a `Vec<T>` would hold every value twice. The
//! hash is FNV-1a through [`Hash`], so probing is deterministic (no
//! `RandomState`) and needs no owned key.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// FNV-1a, 64-bit, fed through [`Hash`].
#[derive(Debug)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fnv<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    h.finish()
}

/// Each distinct value held once, named by a dense `u32` id in first-sight
/// order. Ids are never reused, so callers may keep them.
#[derive(Debug, Clone)]
pub(crate) struct Interner<T> {
    values: Vec<T>,
    /// `(hash, id + 1)`; zero marks a vacant bucket. The length is zero or
    /// a power of two at least twice `values.len()`, so a probe ends.
    buckets: Vec<(u64, u32)>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            values: Vec::new(),
            buckets: Vec::new(),
        }
    }
}

impl<T> Interner<T> {
    /// The value named by `id`, if it was issued.
    pub(crate) fn get(&self, id: u32) -> Option<&T> {
        self.values.get(id as usize)
    }

    /// The values in id order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, T> {
        self.values.iter()
    }

    /// The id of `key`, if it is held.
    pub(crate) fn find<Q>(&self, key: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.probe(fnv(key), key)
    }

    /// The id of `key`, storing one owned copy on first sight.
    pub(crate) fn intern<Q>(&mut self, key: &Q) -> u32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = T> + ?Sized,
    {
        let hash = fnv(key);
        if let Some(id) = self.probe(hash, key) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(key.to_owned());
        if self.buckets.len() < self.values.len() * 2 {
            self.grow();
        }
        self.place(hash, id + 1);
        id
    }

    fn probe<Q>(&self, hash: u64, key: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut i = (hash as usize) & mask;
        loop {
            let &(h, id1) = self.buckets.get(i)?;
            let id = id1.checked_sub(1)?;
            if h == hash && self.get(id).is_some_and(|v| v.borrow() == key) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Put `id1` in the first vacant bucket from `hash`'s home.
    fn place(&mut self, hash: u64, id1: u32) {
        let mask = self.buckets.len().saturating_sub(1);
        let mut i = (hash as usize) & mask;
        while let Some(b) = self.buckets.get_mut(i) {
            if b.1 == 0 {
                *b = (hash, id1);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the bucket array (to at least 8) and re-place every
    /// occupied bucket by its stored hash.
    fn grow(&mut self) {
        let len = (self.buckets.len() * 2).max(8);
        let old = std::mem::replace(&mut self.buckets, vec![(0, 0); len]);
        for (hash, id1) in old {
            if id1 != 0 {
                self.place(hash, id1);
            }
        }
    }
}
