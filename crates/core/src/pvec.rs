//! A persistent chunked vector with copy-on-write structural sharing.
//!
//! [`PVec`] stores elements in fixed-capacity chunks behind [`Arc`]s.
//! Cloning copies only the spine (one `Arc` per chunk), so a clone of a
//! large index costs a few hundred pointer bumps and the two copies
//! share every chunk. A `push` or in-place update copies at most one
//! chunk (the one it touches) when that chunk is shared with an older
//! clone, leaving all other chunks shared.
//!
//! This is the storage of what [`crate::Gkbms::capture`] publishes
//! beside the KB's version and updates in place: the design index, the
//! recall index and the history. (The proposition store itself is
//! append-only and needs no copies: see `telos::store`.)

use std::iter::FlatMap;
use std::ops::Index;
use std::slice;
use std::sync::Arc;

/// Elements per chunk. Large enough that the spine stays short, small
/// enough that a copy-on-write of one chunk is cheap.
const CHUNK: usize = 512;

/// Mutable access to the chunk behind `shared`, copying it first if a
/// clone still holds it. Unlike [`Arc::make_mut`], whose copy has
/// exactly `len` capacity, the copy is allocated once with room for a
/// whole chunk, so the append that usually follows does not reallocate
/// and copy a second time.
fn own<T: Clone>(shared: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::strong_count(shared) > 1 {
        let mut copy = Vec::with_capacity(CHUNK.max(shared.len()));
        copy.extend_from_slice(shared);
        *shared = Arc::new(copy);
    }
    // Unique by now (no `Weak` is ever taken, and nobody can clone
    // through our `&mut`), so this borrows without copying.
    Arc::make_mut(shared)
}

/// A persistent vector: O(1) indexed reads, amortized O(1) append,
/// O(len / CHUNK) clone, copy-on-write in-place updates.
#[derive(Debug, Clone)]
pub struct PVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        PVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> PVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        PVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element. Copies the tail chunk only if it is shared
    /// with a clone.
    pub fn push(&mut self, value: T) {
        if self.len == self.chunks.len() * CHUNK {
            let mut v = Vec::with_capacity(CHUNK);
            v.push(value);
            self.chunks.push(Arc::new(v));
        } else {
            let last = self.chunks.last_mut().expect("tail chunk exists");
            own(last).push(value);
        }
        self.len += 1;
    }

    /// The element at `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        Some(&self.chunks[i / CHUNK][i % CHUNK])
    }

    /// Mutable access to the element at `i`. Copies the containing
    /// chunk if it is shared (copy-on-write), so clones taken earlier
    /// are unaffected by the mutation.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let chunk = own(&mut self.chunks[i / CHUNK]);
        Some(&mut chunk[i % CHUNK])
    }

    /// Shortens the vector to `len` elements (no-op if it is not
    /// longer). Copies the new tail chunk only if it is shared and
    /// loses elements.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let chunks = len.div_ceil(CHUNK);
        self.chunks.truncate(chunks);
        if let Some(last) = self.chunks.last_mut() {
            let keep = len - (chunks - 1) * CHUNK;
            if last.len() > keep {
                own(last).truncate(keep);
            }
        }
        self.len = len;
    }

    /// Iterates over all elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.into_iter()
    }

    /// Number of chunks currently shared with at least one clone.
    /// Diagnostic only (used by tests to prove structural sharing).
    pub fn shared_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| Arc::strong_count(c) > 1)
            .count()
    }
}

/// The iterator of [`PVec::iter`].
pub type Iter<'a, T> = FlatMap<
    slice::Iter<'a, Arc<Vec<T>>>,
    slice::Iter<'a, T>,
    fn(&Arc<Vec<T>>) -> slice::Iter<'_, T>,
>;

impl<'a, T> IntoIterator for &'a PVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T: Clone> Index<usize> for PVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("PVec index out of bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> PVec<T> {
        /// The chunk spine, for tests that prove sharing by
        /// `Arc::ptr_eq`.
        pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
            &self.chunks
        }
    }

    #[test]
    fn push_get_roundtrip_across_chunks() {
        let mut v = PVec::new();
        for i in 0..(CHUNK * 3 + 17) {
            v.push(i);
        }
        assert_eq!(v.len(), CHUNK * 3 + 17);
        for i in 0..v.len() {
            assert_eq!(v[i], i);
        }
        assert_eq!(v.get(v.len()), None);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected.len(), v.len());
        assert_eq!(collected[CHUNK + 1], CHUNK + 1);
    }

    #[test]
    fn clone_is_isolated_from_later_pushes() {
        let mut v = PVec::new();
        for i in 0..(CHUNK + 10) {
            v.push(i);
        }
        let snap = v.clone();
        for i in 0..CHUNK {
            v.push(1_000_000 + i);
        }
        assert_eq!(snap.len(), CHUNK + 10);
        assert_eq!(snap.get(CHUNK + 10), None);
        assert_eq!(v.len(), 2 * CHUNK + 10);
        assert_eq!(v[CHUNK + 10], 1_000_000);
    }

    #[test]
    fn get_mut_copies_only_the_touched_chunk() {
        let mut v = PVec::new();
        for i in 0..(CHUNK * 4) {
            v.push(i);
        }
        let snap = v.clone();
        assert_eq!(v.shared_chunks(), 4, "all chunks shared after clone");
        *v.get_mut(0).unwrap() = 999;
        // Chunk 0 was copied for the write; chunks 1..4 stay shared.
        assert_eq!(v.shared_chunks(), 3);
        assert_eq!(snap[0], 0, "older clone unaffected");
        assert_eq!(v[0], 999);
        assert_eq!(v[CHUNK], snap[CHUNK], "untouched chunks identical");
    }

    /// A shared tail chunk is copied once, at full chunk capacity: the
    /// push that copied it does not reallocate it again, and the copy
    /// never grows past `CHUNK`.
    #[test]
    fn tail_copied_after_a_clone_keeps_chunk_capacity() {
        let mut v = PVec::new();
        for i in 0..(CHUNK + 300) {
            v.push(i);
        }
        let snap = v.clone();
        v.push(0);
        assert_eq!(v.shared_chunks(), 1, "only the full chunk stays shared");
        assert_eq!(v.chunks()[1].capacity(), CHUNK);
        assert_eq!(snap.chunks()[1].len(), 300, "older clone unaffected");
        while v.len() < 2 * CHUNK {
            v.push(0);
        }
        assert_eq!(v.chunks()[1].capacity(), CHUNK);
        // The same for an in-place update of a shared, partial tail.
        v.push(1);
        let snap = v.clone();
        *v.get_mut(2 * CHUNK).unwrap() = 2;
        assert_eq!(v.chunks()[2].capacity(), CHUNK);
        assert_eq!(snap[2 * CHUNK], 1, "older clone unaffected");
    }

    /// Truncation drops whole chunks past the new end and copies a
    /// shared tail before cutting it; older clones keep every element.
    #[test]
    fn truncate_leaves_clones_whole() {
        let mut v = PVec::new();
        for i in 0..(CHUNK * 2 + 5) {
            v.push(i);
        }
        let snap = v.clone();
        v.truncate(CHUNK + 3);
        assert_eq!(v.len(), CHUNK + 3);
        assert_eq!(v.chunks().len(), 2);
        assert_eq!(v.get(CHUNK + 3), None);
        assert_eq!(v[CHUNK + 2], CHUNK + 2);
        assert_eq!(v.shared_chunks(), 1, "the cut tail was copied");
        assert_eq!(snap.len(), CHUNK * 2 + 5, "older clone unaffected");
        assert_eq!(snap[CHUNK + 10], CHUNK + 10);
        v.push(7);
        assert_eq!(v[CHUNK + 3], 7);
        v.truncate(CHUNK);
        assert_eq!((v.len(), v.chunks().len()), (CHUNK, 1));
        v.truncate(0);
        assert!(v.is_empty() && v.chunks().is_empty());
    }

    #[test]
    fn empty_vector() {
        let v: PVec<u8> = PVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.get(0), None);
        assert_eq!(v.iter().count(), 0);
    }
}
