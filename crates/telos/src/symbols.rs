//! Interned strings for proposition labels and individual names.
//!
//! Propositions store a [`Symbol`] (a `u32`) instead of a `String`; the
//! store keeps each distinct string once and numbers it in order of
//! first interning. Indexing and comparison thus never touch string
//! data.
//!
//! Both directions live in the store's one append-only storage (see
//! [`crate::version`]), shared by the live KB and every captured
//! version: the names in a log indexed by symbol, and the string →
//! symbol map in `SymbolMap`. Interning appends to both and copies
//! nothing; a version answers a lookup only for the symbols below the
//! count it was captured at.
//!
//! # The pooled id
//!
//! A layer above may intern the same names a second time, in a pool of
//! its own (the datalog engine's process-wide pool, which telos does not
//! depend on). Each name therefore carries a write-once slot for its id
//! in that pool, stored beside the string (`Name::pooled`). Every
//! version reads the one copy of the name, so a name is looked up in
//! the other pool once, not once per export or per version.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// An interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// An empty pooled-id slot. The datalog pool never hands out this id;
/// a pool that did would only leave the slot empty.
const UNPOOLED: u32 = u32::MAX;

/// One interned name: its string and the write-once slot of its id in
/// the pool of a layer above (see the module doc).
#[derive(Debug)]
pub(crate) struct Name {
    pub(crate) text: Arc<str>,
    /// The pooled id, or [`UNPOOLED`]. Filled with `Release` and read
    /// with `Acquire`, so a reader of the id also sees what the pool
    /// published before handing it out.
    pooled: AtomicU32,
}

impl Name {
    /// A name with an empty pooled slot.
    pub(crate) fn new(text: Arc<str>) -> Self {
        Name {
            text,
            pooled: AtomicU32::new(UNPOOLED),
        }
    }

    /// The id of this name in a second pool: read from the slot, or
    /// filled by `pool` (given the string) on the first call. Every call
    /// must pass the same pool — the slot remembers one id per name, not
    /// one per pool. Callers racing on an empty slot may each ask the
    /// pool, but the first fill wins and every caller returns it.
    pub(crate) fn pooled(&self, pool: impl FnOnce(&str) -> u32) -> u32 {
        let known = self.pooled.load(Ordering::Acquire);
        if known != UNPOOLED {
            return known;
        }
        let id = pool(&self.text);
        match (self.pooled).compare_exchange(UNPOOLED, id, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => id,
            Err(winner) => winner,
        }
    }
}

/// How many shards the string → symbol map is split into: readers of
/// different names take different locks.
const SHARDS: usize = 16;

/// The shard `name` is filed in: the top bits of an Fx-style hash over
/// its bytes, a word at a time. It only spreads names over shards (the
/// shard's own map does the collision-resistant hashing), so it is
/// chosen to add next to nothing to a lookup.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0;
    for word in name.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..word.len()].copy_from_slice(word);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> (u64::BITS - SHARDS.ilog2())) as usize
}

/// The string → symbol map, one for the live KB and all its versions.
/// Each name is filed once, so a reader that finds a symbol at or above
/// its own count knows the name was interned after its capture. Only
/// the store's one writer inserts and removes.
#[derive(Debug, Default)]
pub(crate) struct SymbolMap {
    shards: [RwLock<HashMap<Arc<str>, Symbol>>; SHARDS],
}

impl SymbolMap {
    /// The symbol `name` is filed under, if any.
    pub(crate) fn get(&self, name: &str) -> Option<Symbol> {
        let shard = self.shards[shard_of(name)].read();
        shard
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
    }

    /// Files `name` under `sym`.
    pub(crate) fn insert(&self, name: Arc<str>, sym: Symbol) {
        let shard = self.shards[shard_of(&name)].write();
        shard
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name, sym);
    }

    /// Unfiles `name`.
    pub(crate) fn remove(&self, name: &str) {
        let shard = self.shards[shard_of(name)].write();
        shard.unwrap_or_else(PoisonError::into_inner).remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool that numbers names in order of first request, counting
    /// every request it serves.
    #[derive(Default)]
    struct CountingPool {
        ids: std::sync::Mutex<HashMap<String, u32>>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl CountingPool {
        fn id(&self, s: &str) -> u32 {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut ids = self.ids.lock().unwrap();
            let next = ids.len() as u32;
            *ids.entry(s.to_string()).or_insert(next)
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    /// One fill serves every later call; another name has a slot of its
    /// own.
    #[test]
    fn a_pooled_id_is_filled_once() {
        let pool = CountingPool::default();
        let (a, b) = (Name::new("alpha".into()), Name::new("beta".into()));
        let id = b.pooled(|s| pool.id(s));
        assert_eq!(pool.calls(), 1);
        let never = |_: &str| -> u32 { panic!("the slot was filled") };
        assert_eq!(b.pooled(never), id);
        assert_ne!(a.pooled(|s| pool.id(s)), id);
        assert_eq!(pool.calls(), 2);
    }

    /// Threads racing to fill one slot agree on the first fill, even
    /// with a pool that answers each of them anew.
    #[test]
    fn racing_fills_of_one_slot_agree() {
        const THREADS: usize = 4;
        let name = Name::new("contended".into());
        let next = AtomicU32::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        let ids: Vec<u32> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        name.pooled(|_| next.fetch_add(1, Ordering::SeqCst))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(ids.iter().all(|&id| id == ids[0]), "{ids:?}");
        assert_eq!(name.pooled(|_| unreachable!("filled")), ids[0]);
    }

    #[test]
    fn the_map_files_and_unfiles_names() {
        let map = SymbolMap::default();
        let names: Vec<String> = (0..200).map(|i| format!("name{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            map.insert(n.as_str().into(), Symbol(i as u32));
        }
        let used = (map.shards.iter()).filter(|s| !s.read().unwrap().is_empty());
        assert!(used.count() > SHARDS * 9 / 10, "names spread over shards");
        assert_eq!(map.get("name7"), Some(Symbol(7)));
        map.remove("name7");
        assert_eq!(map.get("name7"), None);
        assert_eq!(map.get("name8"), Some(Symbol(8)));
        assert_eq!(map.get("nosuch"), None);
    }
}
