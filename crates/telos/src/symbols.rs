//! Interned strings for proposition labels and individual names.
//!
//! Propositions store a [`Symbol`] (a `u32`) instead of a `String`; the
//! [`SymbolTable`] owns the strings and guarantees one id per distinct
//! string. Indexing and comparison thus never touch string data.
//!
//! Both directions are persistent, so cloning the table for an
//! immutable [`crate::KbVersion`] is O(spine): strings are held as
//! `Arc<str>` in a chunked vector ([`PVec`]), and the string → symbol
//! map is `SHARDS` copy-on-write hash maps, so a clone bumps one
//! `Arc` per chunk and per shard. Interning a new name afterwards
//! copies the tail chunk of strings and the one shard the name hashes
//! to (≈ n / `SHARDS` entries); every string stays shared between the
//! live table and all captured versions.

use crate::pvec::PVec;
use std::collections::HashMap;
use std::sync::Arc;

/// How many shards the string → symbol map is split into.
const SHARDS: usize = 256;

/// One shard of the string → symbol map.
type Shard = Arc<HashMap<Arc<str>, Symbol>>;

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

/// An interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// The intern table mapping strings to [`Symbol`]s and back.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    strings: PVec<Arc<str>>,
    /// `SHARDS` maps; `name` lives in `ids[shard_of(name)]`.
    ids: Vec<Shard>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable {
            strings: PVec::new(),
            // One empty map, shared until a shard's first insert.
            ids: vec![Shard::default(); SHARDS],
        }
    }
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Symbol {
        let shard = &mut self.ids[shard_of(s)];
        if let Some(&sym) = shard.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        let owned: Arc<str> = Arc::from(s);
        self.strings.push(owned.clone());
        Arc::make_mut(shard).insert(owned, sym);
        sym
    }

    /// Looks up an existing symbol without interning.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.ids[shard_of(s)].get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this table — that is a logic
    /// error, not a recoverable condition.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SymbolTable {
        /// The id shards, for tests (here and in `version`) that prove
        /// sharing by `Arc::ptr_eq`.
        pub(crate) fn shards(&self) -> &[Shard] {
            &self.ids
        }

        /// The string spine, for the same tests.
        pub(crate) fn strings(&self) -> &PVec<Arc<str>> {
            &self.strings
        }
    }

    /// A clone shares every shard; interning one new name afterwards
    /// copies exactly the shard it hashes to, and both tables keep
    /// answering for every name they hold.
    #[test]
    fn interning_after_a_clone_copies_one_shard() {
        let mut t = SymbolTable::new();
        let names: Vec<String> = (0..2_000).map(|i| format!("name{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        let used = t.ids.iter().filter(|s| !s.is_empty()).count();
        assert!(used > SHARDS * 9 / 10, "names spread over shards: {used}");
        let snap = t.clone();
        let fresh = t.intern("fresh");
        let copied: Vec<usize> = (0..SHARDS)
            .filter(|&i| !Arc::ptr_eq(&t.ids[i], &snap.ids[i]))
            .collect();
        assert_eq!(copied, vec![shard_of("fresh")]);
        for (name, &sym) in names.iter().zip(&syms) {
            assert_eq!(t.lookup(name), Some(sym));
            assert_eq!(snap.lookup(name), Some(sym));
            assert_eq!(snap.resolve(sym), name);
        }
        assert_eq!(t.lookup("fresh"), Some(fresh));
        assert_eq!(snap.lookup("fresh"), None);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("Invitation");
        let b = t.intern("Invitation");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("Paper");
        let b = t.intern("Minutes");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "Paper");
        assert_eq!(t.resolve(b), "Minutes");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("sender"), None);
        let s = t.intern("sender");
        assert_eq!(t.lookup("sender"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn clone_shares_strings_and_stays_isolated() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let snap = t.clone();
        let b = t.intern("beta");
        assert_eq!(snap.resolve(a), "alpha");
        assert_eq!(snap.lookup("beta"), None, "clone unaffected");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(snap.len() + 1, t.len());
    }
}
