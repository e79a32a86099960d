//! The extensional database: named relations of ground tuples, stored
//! interned with secondary hash indexes per binding pattern.
//!
//! Storage layout (the "set-oriented" representation of §3.1):
//!
//! * Tuples are rows of [`IVal`] (interned, `Copy`) laid out
//!   row-major in one flat vector per relation — cache-friendly scans,
//!   cheap row handles (`u32`).
//! * Duplicate detection is an allocation-free hash chain: a map from
//!   row hash to the newest row carrying it, and one `next` link per
//!   row to the previous row with the same hash. An insert hashes the
//!   row once (a word mix, not SipHash) and allocates nothing beyond
//!   amortised vector growth; clone and drop of a relation are a
//!   handful of `memcpy`s and `free`s.
//! * Secondary indexes are keyed by a **binding pattern**: a bitmask of
//!   argument positions. The index for mask `m` maps the values at
//!   `m`'s positions to the row ids carrying them. Indexes are built
//!   lazily the first time a join probes that pattern and are
//!   maintained incrementally by later inserts (an insert never leaves
//!   a built index stale; dropping them would force O(n) rebuilds every
//!   semi-naive round).
//! * A [`Database`] holds its relations behind `Arc`s and copies one
//!   only when it writes to it while another database shares it. A
//!   clone is O(#relations); a model that [`crate::seminaive::evaluate`]
//!   returns shares every input relation (and every index built on it)
//!   that no rule derives into.
//! * Reads are interned: [`Database::rows`] and
//!   [`Database::probe_rows`] borrow `&[IVal]` rows, and
//!   [`Database::copy_rows`] copies a relation's flat storage out as
//!   [`Rows`], which sort into the value order of their decoded tuples.
//!   [`Database::tuples`] and [`Database::probe`] decode those rows into
//!   [`Value`]s.
//! * A relation's **sorted order is a lemma of its state**, kept beside
//!   the indexes: [`Database::sorted_rows`] reads the rows in value
//!   order from a slot that the first sorted read of the state fills.
//!   The slot holds [`SortedRows`]: every value as the [`ValueRef`] the
//!   sort resolved it to, so its readers resolve no symbol.
//!   Unlike an index it is not maintained: the first insert or remove
//!   that changes the rows drops the slot (an assignment, nothing
//!   allocated on the write path), and the next sorted read sorts the
//!   new state. A clone shares the slot until either side writes.

use crate::ast::{Atom, Term, Value};
use crate::error::{DatalogError, DatalogResult};
use crate::intern::{intern, lookup, IVal, Symbol, ValueRef};
use crate::join::{mask_bit, MASK_WIDTH};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::{Arc, Mutex, OnceLock};

/// A secondary index: bound-position values (in position order) to the
/// row ids that carry them.
pub(crate) type Index = HashMap<Vec<IVal>, Vec<u32>, BuildHasherDefault<WordMix>>;

/// End of a dedup chain.
const NIL: u32 = u32::MAX;

/// Folded 64×64→128 multiply: every input bit reaches both the low
/// bits (a hash map's bucket) and the high bits (its control byte).
#[inline]
fn mix(x: u64) -> u64 {
    let m = u128::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
    (m as u64) ^ ((m >> 64) as u64)
}

/// The per-process random key of every row hash: integer constants
/// arrive from rule and frame text, and an unkeyed mix would let a
/// client craft rows that all land in one chain or bucket.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// One word-mixing step per value — a row costs a few multiplies, not a
/// SipHash.
fn hash_row(row: &[IVal]) -> u64 {
    let mut h = seed();
    for v in row {
        let word = match *v {
            IVal::Sym(s) => u64::from(s.id()),
            IVal::Int(i) => (i as u64) ^ 0xA5A5_A5A5_0000_0000,
        };
        h = mix(h ^ word);
    }
    #[cfg(test)]
    let h = h & tests::HASH_MASK.with(|m| m.get());
    h
}

/// The hasher of the relation's own maps: the same keyed word mix, one
/// step per integer written. The dedup map's keys are [`hash_row`]
/// values (one step); an index's keys are short `IVal` vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordMix(u64);

impl Default for WordMix {
    fn default() -> Self {
        WordMix(seed())
    }
}

impl Hasher for WordMix {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0 ^ v);
    }
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// Projects the values at `mask`'s positions, in position order, into
/// `key` (cleared first).
fn project(row: &[IVal], mask: u32, key: &mut Vec<IVal>) {
    key.clear();
    let mut m = mask;
    while m != 0 {
        key.push(row[m.trailing_zeros() as usize]);
        m &= m - 1;
    }
}

/// Projects the values at `mask`'s positions, in position order.
pub(crate) fn key_of(row: &[IVal], mask: u32) -> Vec<IVal> {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    project(row, mask, &mut key);
    key
}

/// One relation: arity, row-major tuple storage, dedup chains, indexes.
#[derive(Debug, Default)]
pub(crate) struct Relation {
    pub(crate) arity: usize,
    flat: Vec<IVal>,
    /// Row hash → the newest row with that hash, the head of its chain.
    heads: HashMap<u64, u32, BuildHasherDefault<WordMix>>,
    /// Per row, the next-older row with the same hash, or [`NIL`]. One
    /// entry per row, so its length is the row count (`flat` is empty
    /// for a zero-arity relation).
    next: Vec<u32>,
    /// Binding-pattern mask → secondary index, built lazily. Behind a
    /// mutex (not a `RefCell`) so a database embedded in shared server
    /// state stays `Sync`; evaluation is single-threaded, so the lock
    /// is uncontended.
    indexes: Mutex<HashMap<u32, Arc<Index>>>,
    /// The slot of this state's rows in value order, created by the
    /// first sorted read ([`Database::sorted_rows`]) and emptied by the
    /// first write after it. A reader holds the slot, not the relation,
    /// so a write while it sorts leaves it filling a slot that nobody
    /// will read again.
    sorted: OnceLock<Arc<OnceLock<SortedRows>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            flat: self.flat.clone(),
            heads: self.heads.clone(),
            next: self.next.clone(),
            // Arc-shallow: clones share built indexes until either
            // side inserts (copy-on-write via `Arc::make_mut`).
            indexes: Mutex::new(lock_indexes(&self.indexes).clone()),
            // Both sides hold the same rows, so they share the slot
            // until either side writes.
            sorted: self.sorted.clone(),
        }
    }
}

/// Locks an index cache, shrugging off poisoning: the guarded map is
/// only ever mutated through `HashMap` inserts, which leave it valid.
fn lock_indexes(
    indexes: &Mutex<HashMap<u32, Arc<Index>>>,
) -> std::sync::MutexGuard<'_, HashMap<u32, Arc<Index>>> {
    indexes.lock().unwrap_or_else(|e| e.into_inner())
}

/// The row equal to `row` in the dedup chain that starts at `head`. A
/// free function over the fields it reads, so [`Relation::insert`] can
/// call it while it holds the map entry the chain hangs from.
fn chain_find(flat: &[IVal], next: &[u32], arity: usize, head: u32, row: &[IVal]) -> Option<u32> {
    let mut i = head;
    while i != NIL {
        if &flat[i as usize * arity..(i as usize + 1) * arity] == row {
            return Some(i);
        }
        i = next[i as usize];
    }
    None
}

impl Relation {
    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    /// The `i`-th tuple.
    pub(crate) fn row(&self, i: u32) -> &[IVal] {
        let a = self.arity;
        &self.flat[i as usize * a..(i as usize + 1) * a]
    }

    /// Iterates all tuples.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[IVal]> {
        (0..self.len() as u32).map(|i| self.row(i))
    }

    fn find(&self, row: &[IVal]) -> Option<u32> {
        self.find_hashed(hash_row(row), row)
    }

    /// [`Relation::find`] for a caller that already holds `row`'s hash.
    fn find_hashed(&self, h: u64, row: &[IVal]) -> Option<u32> {
        let head = *self.heads.get(&h)?;
        chain_find(&self.flat, &self.next, self.arity, head, row)
    }

    /// Inserts a row, maintaining dedup and any built indexes; returns
    /// whether it was new.
    fn insert(&mut self, row: &[IVal]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let id = u32::try_from(self.len()).unwrap_or(NIL);
        assert!(id != NIL, "fewer than 2^32 - 1 rows per relation");
        // One map lookup serves both the duplicate check and the link.
        let older = match self.heads.entry(hash_row(row)) {
            Entry::Vacant(e) => {
                e.insert(id);
                NIL
            }
            Entry::Occupied(mut e) => {
                if chain_find(&self.flat, &self.next, self.arity, *e.get(), row).is_some() {
                    return false;
                }
                e.insert(id)
            }
        };
        self.sorted.take();
        self.next.push(older);
        self.flat.extend_from_slice(row);
        for (&mask, index) in self.indexes.get_mut().unwrap_or_else(|e| e.into_inner()) {
            Arc::make_mut(index)
                .entry(key_of(row, mask))
                .or_default()
                .push(id);
        }
        true
    }

    /// Makes whatever link of `h`'s chain names row `from` name `to`.
    fn relink(&mut self, h: u64, from: u32, to: u32) {
        let Some(head) = self.heads.get_mut(&h) else {
            return;
        };
        if *head == from {
            *head = to;
            return;
        }
        let mut i = *head;
        while i != NIL {
            let link = &mut self.next[i as usize];
            if *link == from {
                *link = to;
                return;
            }
            i = *link;
        }
    }

    /// Removes a row by value, maintaining dedup and any built indexes;
    /// returns whether it was present. The last row is swapped into the
    /// hole, so every bookkeeping structure that names a row id must be
    /// repointed: first the removed row is unlinked, then whatever
    /// named the moved row is redirected from the old last id — in that
    /// order, because the two rows may share a hash chain or index key.
    fn remove(&mut self, row: &[IVal]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let h = hash_row(row);
        let Some(id) = self.find_hashed(h, row) else {
            return false;
        };
        self.sorted.take();
        let last = self.len() as u32 - 1;
        let removed: Vec<IVal> = self.row(id).to_vec();
        let moved: Option<Vec<IVal>> = (id != last).then(|| self.row(last).to_vec());
        // Unlink `id`: its predecessor (or the chain head) skips to its
        // successor; a chain left empty gives up its map entry.
        let after = self.next[id as usize];
        if after == NIL && self.heads.get(&h) == Some(&id) {
            self.heads.remove(&h);
        } else {
            self.relink(h, id, after);
        }
        if let Some(m) = &moved {
            self.relink(hash_row(m), last, id);
            self.next[id as usize] = self.next[last as usize];
        }
        self.next.pop();
        for (&mask, index) in self.indexes.get_mut().unwrap_or_else(|e| e.into_inner()) {
            let index = Arc::make_mut(index);
            let key = key_of(&removed, mask);
            if let Some(bucket) = index.get_mut(&key) {
                bucket.retain(|&i| i != id);
                if bucket.is_empty() {
                    index.remove(&key);
                }
            }
            if let Some(m) = &moved {
                if let Some(bucket) = index.get_mut(&key_of(m, mask)) {
                    for i in bucket.iter_mut() {
                        if *i == last {
                            *i = id;
                        }
                    }
                }
            }
        }
        let a = self.arity;
        if id != last {
            self.flat
                .copy_within(last as usize * a..(last as usize + 1) * a, id as usize * a);
        }
        self.flat.truncate(last as usize * a);
        true
    }

    /// The secondary index for binding pattern `mask`, building it on
    /// first use. `mask` must be non-zero and within the arity.
    pub(crate) fn index_for(&self, mask: u32) -> Arc<Index> {
        debug_assert!(mask != 0);
        let mut indexes = lock_indexes(&self.indexes);
        Arc::clone(indexes.entry(mask).or_insert_with(|| {
            // One scratch key for the whole build: a key is allocated
            // per distinct value, not per row.
            let mut index = Index::default();
            let mut key = Vec::new();
            for i in 0..self.len() as u32 {
                project(self.row(i), mask, &mut key);
                match index.get_mut(key.as_slice()) {
                    Some(ids) => ids.push(i),
                    None => {
                        index.insert(key.clone(), vec![i]);
                    }
                }
            }
            Arc::new(index)
        }))
    }

    /// Number of binding patterns currently indexed (for tests/stats).
    pub(crate) fn index_count(&self) -> usize {
        lock_indexes(&self.indexes).len()
    }

    /// The rows copied out, in storage order.
    fn copy(&self) -> Rows {
        Rows {
            arity: self.arity,
            len: self.len(),
            flat: self.flat.clone(),
        }
    }
}

/// Decodes an interned row.
fn decode(row: &[IVal]) -> Vec<Value> {
    row.iter().map(|v| v.to_value()).collect()
}

/// The rows of one relation that match a binding pattern, borrowed
/// ([`Database::probe_rows`]). A pattern that binds a position keeps
/// the index it was served from, so the bucket of matching row ids is
/// read in place, not copied.
pub struct Matches<'a> {
    /// `None` when nothing can match.
    rel: Option<&'a Relation>,
    hits: Hits,
}

enum Hits {
    /// Every row that agrees with the pattern: nothing is bound, or the
    /// relation is too wide to index.
    Scan(Vec<Option<IVal>>),
    /// The rows an index files under the key of the bound positions.
    Bucket(Arc<Index>, Vec<IVal>),
}

impl<'a> Matches<'a> {
    /// The matching rows, in the relation's or the bucket's order.
    pub fn rows(&self) -> Box<dyn Iterator<Item = &'a [IVal]> + '_> {
        let Some(rel) = self.rel else {
            return Box::new(std::iter::empty());
        };
        match &self.hits {
            Hits::Scan(pattern) => Box::new(rel.rows().filter(move |row| {
                row.iter()
                    .zip(pattern)
                    .all(|(v, bound)| bound.is_none_or(|b| b == *v))
            })),
            Hits::Bucket(index, key) => Box::new(
                index
                    .get(key)
                    .into_iter()
                    .flatten()
                    .map(move |&i| rel.row(i)),
            ),
        }
    }
}

/// Tuples copied out of one relation ([`Database::copy_rows`]):
/// interned and row-major in one flat vector — one copy of the
/// relation's storage, nothing allocated per row — to be sorted
/// ([`Rows::sorted`]) once the reader has let go of the model. The rows
/// are distinct, because a relation is a set.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Rows {
    arity: usize,
    /// The row count, kept beside `flat` because a zero-arity row
    /// stores no value.
    len: usize,
    flat: Vec<IVal>,
}

impl Rows {
    /// The rows in *value order*: column by column, each value as its
    /// [`ValueRef`] orders — the order of the decoded tuples. The sort
    /// resolves every value once, and the sorted rows keep those
    /// resolutions in place of the interned copy.
    pub fn sorted(self) -> SortedRows {
        // Each value resolved once: a comparison then reads two
        // strings, not the symbol pool.
        let keys: Vec<ValueRef> = self.flat.iter().map(|v| v.resolve()).collect();
        let key = |i: usize| &keys[i * self.arity..(i + 1) * self.arity];
        // Most comparisons are settled by the rows' leads, held in the
        // array being sorted, without reading a string.
        let mut order: Vec<((u8, u64), usize)> =
            (0..self.len).map(|i| (lead(key(i).first()), i)).collect();
        order.sort_unstable_by(|(a, x), (b, y)| a.cmp(b).then_with(|| key(*x).cmp(key(*y))));
        SortedRows {
            arity: self.arity,
            len: self.len,
            flat: order.iter().flat_map(|&(_, i)| key(i)).copied().collect(),
        }
    }
}

/// One relation state's rows in value order ([`Rows::sorted`]), each
/// value resolved: a symbol is its interned string, borrowed. This is
/// what a sorted read ([`Database::sorted_rows`]) hands out, so a
/// reader of the rows never goes back to the symbol pool.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SortedRows {
    arity: usize,
    /// The row count, kept beside `flat` because a zero-arity row
    /// stores no value.
    len: usize,
    flat: Vec<ValueRef>,
}

impl SortedRows {
    /// The rows, in value order.
    pub fn iter(&self) -> impl Iterator<Item = &[ValueRef]> + '_ {
        (0..self.len).map(|i| &self.flat[i * self.arity..(i + 1) * self.arity])
    }

    /// The rows decoded, in value order.
    pub fn tuples(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.iter()
            .map(|row| row.iter().map(|v| v.to_value()).collect())
    }
}

/// A row's *lead*: a key of its first value whose order never
/// contradicts the value order — every symbol before every integer,
/// then a symbol's first eight bytes (zero-padded, so a prefix leads no
/// later than its extensions) or an integer's value. Rows with equal
/// leads must still be compared in full.
fn lead(first: Option<&ValueRef>) -> (u8, u64) {
    match first {
        None => (0, 0),
        Some(ValueRef::Sym(s)) => {
            let mut bytes = [0u8; 8];
            let n = s.len().min(8);
            bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
            (0, u64::from_be_bytes(bytes))
        }
        Some(ValueRef::Int(i)) => (1, (*i as u64) ^ (1 << 63)),
    }
}

/// A sorted read of one relation state ([`Database::sorted_rows`]): the
/// state's slot, and on a miss the copy of its rows to sort into it.
#[derive(Debug)]
pub struct SortedRead {
    slot: Arc<OnceLock<SortedRows>>,
    copy: Option<Rows>,
}

impl SortedRead {
    /// The rows in [`Rows::sorted`]'s value order. The first reader of
    /// a state sorts its copy into the slot; a concurrent reader of the
    /// same state waits for that sort instead of running its own, and
    /// every later reader finds the slot filled.
    pub fn rows(&mut self) -> &SortedRows {
        let copy = &mut self.copy;
        self.slot.get_or_init(|| {
            obs::counter!(
                "datalog_sorted_orders_built_total",
                "Relation states sorted for a view read: one per state read, however often it is read"
            )
            .inc();
            // A read that found the slot empty holds a copy, and a
            // filled slot is never emptied.
            copy.take().unwrap_or_default().sorted()
        })
    }
}

/// A database mapping predicate names to relations. Cloning shares the
/// relations; a write copies the one relation it touches if a clone
/// still holds it.
#[derive(Debug, Clone, Default)]
pub struct Database {
    pred_ids: HashMap<Symbol, usize>,
    rels: Vec<(Symbol, Arc<Relation>)>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    pub(crate) fn rel(&self, pred: Symbol) -> Option<&Relation> {
        self.pred_ids.get(&pred).map(|&i| &*self.rels[i].1)
    }

    fn rel_by_name(&self, pred: &str) -> Option<&Relation> {
        self.rel(lookup(pred)?)
    }

    /// Inserts an interned row under `pred`; returns whether it was new.
    /// This is the bulk-load entry: no string is hashed and nothing is
    /// allocated per row.
    pub fn insert_ivals(&mut self, pred: Symbol, row: &[IVal]) -> DatalogResult<bool> {
        match self.pred_ids.get(&pred) {
            Some(&i) => {
                let rel = &mut self.rels[i].1;
                if rel.arity != row.len() {
                    return Err(DatalogError::ArityMismatch {
                        pred: pred.as_str().to_string(),
                        expected: rel.arity,
                        found: row.len(),
                    });
                }
                Ok(match Arc::get_mut(rel) {
                    Some(own) => own.insert(row),
                    // Shared: a duplicate must not cost a copy.
                    None => rel.find(row).is_none() && Arc::make_mut(rel).insert(row),
                })
            }
            None => {
                let mut rel = Relation {
                    arity: row.len(),
                    ..Relation::default()
                };
                rel.insert(row);
                self.pred_ids.insert(pred, self.rels.len());
                self.rels.push((pred, Arc::new(rel)));
                Ok(true)
            }
        }
    }

    /// Makes room for `additional` more rows of `arity` under `pred`,
    /// registering the relation (empty) if it is absent: a bulk load
    /// that knows its size grows the rows, the chains and the dedup map
    /// once instead of doubling its way there. A relation another
    /// database shares is left as it is, so reserving never copies one.
    pub fn reserve(&mut self, pred: Symbol, arity: usize, additional: usize) -> DatalogResult<()> {
        let i = match self.pred_ids.get(&pred) {
            Some(&i) => i,
            None => {
                let rel = Relation {
                    arity,
                    ..Relation::default()
                };
                self.pred_ids.insert(pred, self.rels.len());
                self.rels.push((pred, Arc::new(rel)));
                self.rels.len() - 1
            }
        };
        let rel = &mut self.rels[i].1;
        if rel.arity != arity {
            return Err(DatalogError::ArityMismatch {
                pred: pred.as_str().to_string(),
                expected: rel.arity,
                found: arity,
            });
        }
        if let Some(own) = Arc::get_mut(rel) {
            own.flat.reserve(additional * arity);
            own.next.reserve(additional);
            own.heads.reserve(additional);
        }
        Ok(())
    }

    /// Ground membership test on an interned row.
    pub(crate) fn contains_ivals(&self, pred: Symbol, row: &[IVal]) -> bool {
        self.rel(pred)
            .is_some_and(|r| r.arity == row.len() && r.find(row).is_some())
    }

    /// Whether `pred` holds at least one tuple.
    pub(crate) fn has_tuples(&self, pred: Symbol) -> bool {
        self.rel(pred).is_some_and(|r| r.len() > 0)
    }

    /// Removes an interned row under `pred`; returns whether it was
    /// present. An empty relation stays registered (same arity).
    pub(crate) fn remove_ivals(&mut self, pred: Symbol, row: &[IVal]) -> bool {
        match self.pred_ids.get(&pred) {
            Some(&i) => {
                let rel = &mut self.rels[i].1;
                rel.arity == row.len()
                    && match Arc::get_mut(rel) {
                        Some(own) => own.remove(row),
                        None => rel.find(row).is_some() && Arc::make_mut(rel).remove(row),
                    }
            }
            None => false,
        }
    }

    /// Iterates the relations with their interned predicate symbols.
    pub(crate) fn iter_rels(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.rels.iter().map(|(s, r)| (*s, &**r))
    }

    /// The relations whose predicate passes `keep`, shared with `self`
    /// (not copied) until either side writes.
    pub(crate) fn project(&self, keep: impl Fn(Symbol) -> bool) -> Database {
        let mut out = Database::new();
        for (pred, rel) in self.rels.iter().filter(|(pred, _)| keep(*pred)) {
            out.pred_ids.insert(*pred, out.rels.len());
            out.rels.push((*pred, Arc::clone(rel)));
        }
        out
    }

    /// Whether `pred` is one relation shared by `self` and `other`.
    #[cfg(test)]
    pub(crate) fn shares_relation(&self, other: &Database, pred: Symbol) -> bool {
        let arc = |db: &Database| db.pred_ids.get(&pred).map(|&i| Arc::as_ptr(&db.rels[i].1));
        arc(self).is_some() && arc(self) == arc(other)
    }

    /// Inserts a ground tuple under `pred`; returns whether it was new.
    pub fn insert(&mut self, pred: &str, tuple: Vec<Value>) -> DatalogResult<bool> {
        let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
        self.insert_ivals(intern(pred), &row)
    }

    /// Inserts a ground fact given as an [`Atom`]; errors if not ground.
    pub fn insert_atom(&mut self, atom: &Atom) -> DatalogResult<bool> {
        let mut tuple = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                Term::Const(v) => tuple.push(v.clone()),
                Term::Var(v) => {
                    return Err(DatalogError::Parse(format!(
                        "fact `{atom}` contains variable `{v}`"
                    )))
                }
            }
        }
        self.insert(&atom.pred, tuple)
    }

    /// The tuples under `pred`, interned and borrowed, in storage order
    /// (empty if absent).
    pub fn rows<'a>(&'a self, pred: &str) -> impl Iterator<Item = &'a [IVal]> + 'a {
        self.rel_by_name(pred).into_iter().flat_map(Relation::rows)
    }

    /// [`Database::rows`], decoded.
    pub fn tuples<'a>(&'a self, pred: &str) -> impl Iterator<Item = Vec<Value>> + 'a {
        self.rows(pred).map(decode)
    }

    /// The tuples under `pred` copied out, in storage order (empty if
    /// absent).
    pub fn copy_rows(&self, pred: &str) -> Rows {
        self.rel_by_name(pred)
            .map_or_else(Rows::default, Relation::copy)
    }

    /// The first half of a sorted read of `pred` (empty if absent):
    /// the slot of the relation's current state, plus a copy of its
    /// rows if nobody has sorted this state yet. This is all a reader
    /// does while it holds the database; [`SortedRead::rows`] sorts, if
    /// it must, after the reader has let go.
    pub fn sorted_rows(&self, pred: &str) -> SortedRead {
        let Some(rel) = self.rel_by_name(pred) else {
            return SortedRead {
                slot: Arc::new(OnceLock::from(SortedRows::default())),
                copy: None,
            };
        };
        let slot = Arc::clone(rel.sorted.get_or_init(Arc::default));
        let copy = slot.get().is_none().then(|| rel.copy());
        SortedRead { slot, copy }
    }

    /// Removes a ground tuple under `pred`; returns whether it was
    /// present. Built indexes are maintained, not invalidated, so
    /// interleaved insert/remove churn keeps probes O(1).
    pub fn remove(&mut self, pred: &str, tuple: &[Value]) -> bool {
        let Some(sym) = lookup(pred) else {
            return false;
        };
        let row: Option<Vec<IVal>> = tuple.iter().map(IVal::from_value_if_known).collect();
        row.is_some_and(|row| self.remove_ivals(sym, &row))
    }

    /// Membership test for a ground tuple.
    pub fn contains(&self, pred: &str, tuple: &[Value]) -> bool {
        let Some(sym) = lookup(pred) else {
            return false;
        };
        let row: Option<Vec<IVal>> = tuple.iter().map(IVal::from_value_if_known).collect();
        row.is_some_and(|row| self.contains_ivals(sym, &row))
    }

    /// The arity of `pred`, if present.
    pub fn arity(&self, pred: &str) -> Option<usize> {
        self.rel_by_name(pred).map(|r| r.arity)
    }

    /// Number of tuples under `pred`.
    pub fn count(&self, pred: &str) -> usize {
        self.rel_by_name(pred).map_or(0, |r| r.len())
    }

    /// Total number of tuples.
    pub fn total(&self) -> usize {
        self.rels.iter().map(|(_, r)| r.len()).sum()
    }

    /// Predicate names present, sorted.
    pub fn preds(&self) -> Vec<&str> {
        let mut ps: Vec<&str> = self.rels.iter().map(|(s, _)| s.as_str()).collect();
        ps.sort_unstable();
        ps
    }

    /// Merges all tuples of `other` into `self` (interned fast path);
    /// returns how many were new. A non-empty relation `self` lacks is
    /// adopted whole: O(1), shared with `other` until either side
    /// writes to it, and counted as its length — every row is new.
    pub fn absorb(&mut self, other: &Database) -> DatalogResult<usize> {
        let mut added = 0;
        for (pred, rel) in &other.rels {
            if !self.pred_ids.contains_key(pred) {
                if rel.len() > 0 {
                    added += rel.len();
                    self.pred_ids.insert(*pred, self.rels.len());
                    self.rels.push((*pred, Arc::clone(rel)));
                }
                continue;
            }
            for row in rel.rows() {
                if self.insert_ivals(*pred, row)? {
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Rows of `pred` matching `pattern` (`Some` = bound position,
    /// `None` = free), served from the binding-pattern index when any
    /// position is bound. This is the point probe the engines and the
    /// object processor use instead of scan-and-filter.
    pub fn probe_rows(&self, pred: &str, pattern: &[Option<IVal>]) -> Matches<'_> {
        let rel = self.rel_by_name(pred).filter(|r| r.arity == pattern.len());
        let hits = match rel {
            Some(r) if r.arity <= MASK_WIDTH && pattern.iter().any(Option::is_some) => {
                let mask = (0..pattern.len())
                    .filter(|&j| pattern[j].is_some())
                    .fold(0, |m, j| m | mask_bit(j));
                let key = pattern.iter().flatten().copied().collect();
                Hits::Bucket(r.index_for(mask), key)
            }
            _ => Hits::Scan(pattern.to_vec()),
        };
        Matches { rel, hits }
    }

    /// [`Database::probe_rows`] with a pattern of [`Value`]s, decoded.
    pub fn probe(&self, pred: &str, pattern: &[Option<Value>]) -> Vec<Vec<Value>> {
        let interned: Option<Vec<Option<IVal>>> = pattern
            .iter()
            .map(|slot| match slot {
                None => Some(None),
                Some(v) => IVal::from_value_if_known(v).map(Some),
            })
            .collect();
        // A never-interned symbol matches nothing.
        interned.map_or_else(Vec::new, |p| {
            self.probe_rows(pred, &p).rows().map(decode).collect()
        })
    }

    /// Number of secondary indexes built across all relations.
    pub fn index_count(&self) -> usize {
        self.rels.iter().map(|(_, r)| r.index_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Narrows [`hash_row`] on the calling test's thread so dedup
        /// chains actually form: under `0` every row of a relation
        /// shares one chain, under `0b11` there are four.
        pub(super) static HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    fn narrow_hash_to(mask: u64) {
        HASH_MASK.with(|m| m.set(mask));
    }

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        assert!(db
            .insert("edge", vec![Value::sym("a"), Value::sym("b")])
            .unwrap());
        assert!(!db
            .insert("edge", vec![Value::sym("a"), Value::sym("b")])
            .unwrap());
        assert!(db.contains("edge", &[Value::sym("a"), Value::sym("b")]));
        assert!(!db.contains("edge", &[Value::sym("b"), Value::sym("a")]));
        assert_eq!(db.count("edge"), 1);
        assert_eq!(db.count("nosuch"), 0);
    }

    #[test]
    fn arity_enforced() {
        let mut db = Database::new();
        db.insert("p", vec![Value::Int(1)]).unwrap();
        assert!(matches!(
            db.insert("p", vec![Value::Int(1), Value::Int(2)]),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn insert_atom_requires_ground() {
        let mut db = Database::new();
        let ok = Atom::new("p", vec![Term::sym("a")]);
        let bad = Atom::new("p", vec![Term::var("X")]);
        assert!(db.insert_atom(&ok).unwrap());
        assert!(db.insert_atom(&bad).is_err());
    }

    #[test]
    fn absorb_merges() {
        let mut a = Database::new();
        let mut b = Database::new();
        a.insert("p", vec![Value::Int(1)]).unwrap();
        b.insert("p", vec![Value::Int(1)]).unwrap();
        b.insert("p", vec![Value::Int(2)]).unwrap();
        b.insert("q", vec![Value::Int(3)]).unwrap();
        let added = a.absorb(&b).unwrap();
        assert_eq!(added, 2);
        assert_eq!(a.total(), 3);
        assert_eq!(a.preds(), vec!["p", "q"]);
    }

    /// A relation the target lacks is adopted, not copied: the two
    /// databases share it until either writes, and the writer's copy
    /// leaves the other side as it was.
    #[test]
    fn an_adopted_relation_is_shared_until_either_side_writes() {
        let (p, q) = (intern("adopt-p"), intern("adopt-q"));
        let mut source = Database::new();
        for i in 0..3 {
            source.insert("adopt-q", vec![Value::Int(i)]).unwrap();
        }
        source.insert("adopt-p", vec![Value::Int(0)]).unwrap();
        let mut target = Database::new();
        target.insert("adopt-p", vec![Value::Int(9)]).unwrap();
        assert_eq!(target.absorb(&source).unwrap(), 4, "same count as a merge");
        assert!(target.shares_relation(&source, q), "adopted by reference");
        assert!(!target.shares_relation(&source, p), "merged row by row");
        assert_eq!(target.preds(), vec!["adopt-p", "adopt-q"]);

        // The target writes: it copies, the source keeps three rows.
        target.insert("adopt-q", vec![Value::Int(3)]).unwrap();
        assert!(!target.shares_relation(&source, q));
        assert_eq!(source.count("adopt-q"), 3);
        assert_eq!(target.count("adopt-q"), 4);

        // The source writes after a second adoption: the target keeps
        // what it adopted.
        let mut again = Database::new();
        again.absorb(&source).unwrap();
        assert!(again.shares_relation(&source, q));
        assert!(source.remove("adopt-q", &[Value::Int(0)]));
        assert!(!again.shares_relation(&source, q));
        assert_eq!(again.count("adopt-q"), 3);
        assert_eq!(source.count("adopt-q"), 2);

        // An empty relation is not adopted, as no row of it is merged.
        let mut empty = Database::new();
        empty.reserve(intern("adopt-empty"), 1, 8).unwrap();
        let mut into = Database::new();
        assert_eq!(into.absorb(&empty).unwrap(), 0);
        assert!(into.preds().is_empty());
    }

    /// Reserving registers the relation and checks its arity, and a
    /// shared relation is not copied for it.
    #[test]
    fn reserve_registers_and_never_copies() {
        let pred = intern("reserve-r");
        let mut db = Database::new();
        db.reserve(pred, 2, 100).unwrap();
        assert_eq!(db.arity("reserve-r"), Some(2));
        assert_eq!(db.count("reserve-r"), 0);
        assert!(matches!(
            db.reserve(pred, 3, 1),
            Err(DatalogError::ArityMismatch { .. })
        ));
        db.insert("reserve-r", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let clone = db.clone();
        db.reserve(pred, 2, 1_000).unwrap();
        assert!(db.shares_relation(&clone, pred));
    }

    #[test]
    fn probe_with_bound_prefix() {
        let mut db = Database::new();
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "c")] {
            db.insert("edge", vec![Value::sym(x), Value::sym(y)])
                .unwrap();
        }
        let hits: Vec<Vec<Value>> = db.probe("edge", &[Some(Value::sym("a")), None]);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t[0] == Value::sym("a")));
        assert_eq!(db.index_count(), 1);
        // Second-position probe builds a second index.
        let hits: Vec<Vec<Value>> = db.probe("edge", &[None, Some(Value::sym("c"))]);
        assert_eq!(hits.len(), 2);
        assert_eq!(db.index_count(), 2);
    }

    #[test]
    fn probe_unknown_symbol_is_empty() {
        let mut db = Database::new();
        db.insert("edge", vec![Value::sym("a"), Value::sym("b")])
            .unwrap();
        let hits = db.probe("edge", &[Some(Value::sym("zz-never-interned-zz")), None]);
        assert!(hits.is_empty());
    }

    #[test]
    fn indexes_stay_fresh_across_inserts() {
        let mut db = Database::new();
        db.insert("edge", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        // Build the first-position index…
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).len(), 1);
        // …then insert more tuples: the built index must see them.
        db.insert("edge", vec![Value::Int(1), Value::Int(3)])
            .unwrap();
        db.insert("edge", vec![Value::Int(4), Value::Int(5)])
            .unwrap();
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).len(), 2);
        assert_eq!(db.probe("edge", &[Some(Value::Int(4)), None]).len(), 1);
    }

    #[test]
    fn clones_do_not_share_index_growth() {
        let mut a = Database::new();
        a.insert("p", vec![Value::Int(1)]).unwrap();
        assert_eq!(a.probe("p", &[Some(Value::Int(1))]).len(), 1);
        let b = a.clone();
        a.insert("p", vec![Value::Int(2)]).unwrap();
        assert_eq!(a.probe("p", &[Some(Value::Int(2))]).len(), 1);
        assert_eq!(b.probe("p", &[Some(Value::Int(2))]).len(), 0);
        assert_eq!(b.count("p"), 1);
    }

    #[test]
    fn remove_then_membership_and_reinsert() {
        let mut db = Database::new();
        for i in 0..3 {
            db.insert("p", vec![Value::Int(i)]).unwrap();
        }
        assert!(db.remove("p", &[Value::Int(1)]));
        assert!(
            !db.remove("p", &[Value::Int(1)]),
            "second remove is a no-op"
        );
        assert!(!db.contains("p", &[Value::Int(1)]));
        assert_eq!(db.count("p"), 2);
        // The swapped-in row (the old last row) must still be found.
        assert!(db.contains("p", &[Value::Int(2)]));
        assert!(db.insert("p", vec![Value::Int(1)]).unwrap());
        assert_eq!(db.count("p"), 3);
    }

    #[test]
    fn remove_of_absent_or_unknown_is_false() {
        let mut db = Database::new();
        db.insert("p", vec![Value::Int(1)]).unwrap();
        assert!(!db.remove("p", &[Value::Int(9)]));
        assert!(!db.remove("nosuch", &[Value::Int(1)]));
        assert!(!db.remove("p", &[Value::sym("zz-never-interned-zz")]));
        assert_eq!(db.count("p"), 1);
    }

    #[test]
    fn indexes_stay_fresh_across_removes() {
        let mut db = Database::new();
        for (x, y) in [(1, 2), (1, 3), (4, 5), (1, 6)] {
            db.insert("edge", vec![Value::Int(x), Value::Int(y)])
                .unwrap();
        }
        // Build indexes on both positions before removing.
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).len(), 3);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(5))]).len(), 1);
        // Remove a middle row: the last row (1,6) is swapped into its
        // slot and must stay probeable under both masks.
        assert!(db.remove("edge", &[Value::Int(1), Value::Int(3)]));
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).len(), 2);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(6))]).len(), 1);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(3))]).len(), 0);
        // Remove the (new) last row too.
        assert!(db.remove("edge", &[Value::Int(1), Value::Int(6)]));
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).len(), 1);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(6))]).len(), 0);
        // Churn: remove everything, then refill through the same index.
        assert!(db.remove("edge", &[Value::Int(1), Value::Int(2)]));
        assert!(db.remove("edge", &[Value::Int(4), Value::Int(5)]));
        assert_eq!(db.count("edge"), 0);
        db.insert("edge", vec![Value::Int(1), Value::Int(7)])
            .unwrap();
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).len(), 1);
    }

    #[test]
    fn clones_do_not_observe_removes() {
        let mut a = Database::new();
        a.insert("p", vec![Value::Int(1)]).unwrap();
        a.insert("p", vec![Value::Int(2)]).unwrap();
        assert_eq!(a.probe("p", &[Some(Value::Int(1))]).len(), 1);
        let b = a.clone();
        a.remove("p", &[Value::Int(1)]);
        assert!(!a.contains("p", &[Value::Int(1)]));
        assert!(b.contains("p", &[Value::Int(1)]));
        assert_eq!(b.probe("p", &[Some(Value::Int(1))]).len(), 1);
    }

    // ----- dedup chains under swap-remove -------------------------------

    fn pair(a: i64, b: i64) -> Vec<IVal> {
        vec![IVal::Int(a), IVal::Int(b)]
    }

    /// Every row over `0..SIDE` × `0..SIDE`: small enough to sweep after
    /// every step, large enough for chains several rows long.
    const SIDE: i64 = 4;

    fn universe() -> Vec<Vec<IVal>> {
        (0..SIDE)
            .flat_map(|a| (0..SIDE).map(move |b| pair(a, b)))
            .collect()
    }

    /// Holds `db`'s relation `p` against `model`: membership of every
    /// row of the universe, the tuple set, the count — and, when
    /// `probing`, the probe under every mask with every key (which
    /// builds the three secondary indexes on first use).
    fn assert_matches(db: &Database, model: &BTreeSet<Vec<IVal>>, probing: bool, ctx: &str) {
        let p = intern("p");
        assert_eq!(db.count("p"), model.len(), "{ctx}: count");
        for row in universe() {
            assert_eq!(
                db.contains_ivals(p, &row),
                model.contains(&row),
                "{ctx}: contains {row:?}"
            );
        }
        let decode = |rows: &BTreeSet<Vec<IVal>>| -> BTreeSet<Vec<Value>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_value()).collect())
                .collect()
        };
        let listed: Vec<Vec<Value>> = db.tuples("p").collect();
        assert_eq!(listed.len(), model.len(), "{ctx}: a tuple is listed twice");
        assert_eq!(
            listed.into_iter().collect::<BTreeSet<_>>(),
            decode(model),
            "{ctx}: tuples"
        );
        if !probing {
            return;
        }
        for mask in 0u32..4 {
            for key in universe() {
                let pattern: Vec<Option<Value>> = (0..2)
                    .map(|j| (mask >> j & 1 == 1).then(|| key[j].to_value()))
                    .collect();
                let want: BTreeSet<Vec<IVal>> = model
                    .iter()
                    .filter(|r| (0..2).all(|j| mask >> j & 1 == 0 || r[j] == key[j]))
                    .cloned()
                    .collect();
                let hits: Vec<Vec<Value>> = db.probe("p", &pattern);
                assert_eq!(hits.len(), want.len(), "{ctx}: probe {pattern:?} count");
                assert_eq!(
                    hits.into_iter().collect::<BTreeSet<_>>(),
                    decode(&want),
                    "{ctx}: probe {pattern:?}"
                );
            }
        }
    }

    /// Inserts `rows` in order, removes `victim`, and sweeps the model
    /// check — with all indexes built before the removal.
    fn remove_one(rows: &[Vec<IVal>], setup_removes: &[Vec<IVal>], victim: &[IVal], ctx: &str) {
        let p = intern("p");
        let mut db = Database::new();
        let mut model = BTreeSet::new();
        for row in rows {
            assert!(db.insert_ivals(p, row).unwrap(), "{ctx}: setup insert");
            model.insert(row.clone());
        }
        for row in setup_removes {
            assert!(db.remove_ivals(p, row), "{ctx}: setup remove");
            model.remove(row);
        }
        assert_matches(&db, &model, true, &format!("{ctx}, before"));
        assert!(db.remove_ivals(p, victim), "{ctx}: the victim is present");
        model.remove(victim);
        assert_matches(&db, &model, true, &format!("{ctx}, after"));
        assert!(!db.remove_ivals(p, victim), "{ctx}: removed twice");
        // The slot is reusable and the chain still ends.
        assert!(db.insert_ivals(p, victim).unwrap());
        model.insert(victim.to_vec());
        assert_matches(&db, &model, true, &format!("{ctx}, re-inserted"));
    }

    /// Four rows sharing one chain and one row in a chain of its own,
    /// picked by their real (seeded) hashes under a one-bit mask.
    fn one_chain_and_a_stranger() -> (Vec<Vec<IVal>>, Vec<IVal>) {
        narrow_hash_to(1);
        let (zeros, ones): (Vec<_>, Vec<_>) =
            universe().into_iter().partition(|r| hash_row(r) == 0);
        let (chain, other) = if zeros.len() >= 4 {
            (zeros, ones)
        } else {
            (ones, zeros)
        };
        assert!(chain.len() >= 4, "16 rows over 2 hashes: one side has 8");
        let stranger = other
            .first()
            .cloned()
            .expect("a keyed hash that sends 16 rows one way is broken");
        (chain[..4].to_vec(), stranger)
    }

    #[test]
    fn removed_row_is_chain_head_middle_or_tail() {
        // Rows a0..a3 chain newest-first (a3 → a2 → a1 → a0); the
        // stranger is the last row, so it is the one swap-remove moves
        // and the victim's own chain is relinked in isolation.
        let (a, stranger) = one_chain_and_a_stranger();
        let mut rows = a.clone();
        rows.push(stranger);
        remove_one(&rows, &[], &a[3], "chain head");
        remove_one(&rows, &[], &a[2], "chain middle");
        remove_one(&rows, &[], &a[1], "chain middle, older");
        remove_one(&rows, &[], &a[0], "chain tail");
    }

    #[test]
    fn moved_row_is_the_victims_chain_neighbour() {
        let (a, _) = one_chain_and_a_stranger();
        // Chain a3 → a2 → a1 → a0, last row a3: removing a2 moves the
        // row that links *to* the victim.
        remove_one(&a, &[], &a[2], "moved row directly before the victim");
        // Removing a0 first moves a3 into slot 0, leaving the chain
        // a3 → a2 → a1 with a2 as the last row: removing a3 now moves
        // the row the victim links *to*.
        remove_one(
            &a,
            &[a[0].clone()],
            &a[3],
            "moved row directly after the victim",
        );
        // And with every row in one chain, whatever the seed.
        narrow_hash_to(0);
        let all = universe();
        for victim in &all {
            remove_one(&all, &[], victim, &format!("single chain, {victim:?}"));
        }
    }

    #[test]
    fn removing_the_last_and_the_only_row() {
        let (a, stranger) = one_chain_and_a_stranger();
        let mut rows = a.clone();
        rows.push(stranger.clone());
        remove_one(&rows, &[], &stranger, "last row, alone in its chain");
        remove_one(&a, &[], &a[3], "last row, head of a longer chain");
        remove_one(&a[..1], &[], &a[0], "only row");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 96 }))]

        /// Random insert/remove sequences against a `BTreeSet` model,
        /// with hashes narrowed to two bits so chains are several rows
        /// long, and the secondary indexes present from `index_from` on.
        #[test]
        fn relation_matches_a_set_model(
            ops in prop::collection::vec((0u8..5, 0i64..SIDE, 0i64..SIDE), 1..60),
            index_from in 0usize..60,
        ) {
            narrow_hash_to(0b11);
            let p = intern("p");
            let mut db = Database::new();
            let mut model: BTreeSet<Vec<IVal>> = BTreeSet::new();
            for (step, &(kind, a, b)) in ops.iter().enumerate() {
                let row = pair(a, b);
                if kind < 3 {
                    prop_assert_eq!(db.insert_ivals(p, &row).unwrap(), model.insert(row.clone()));
                } else {
                    prop_assert_eq!(db.remove_ivals(p, &row), model.remove(&row));
                }
                assert_matches(&db, &model, step >= index_from, &format!("step {step}"));
            }
        }
    }

    // ----- interned reads ------------------------------------------------

    /// Names on which the value order and the order of space-joined rows
    /// differ: a name that is a prefix of another followed by a space,
    /// link-style names, non-ASCII names and the empty name — and two
    /// that share their first eight bytes, so only their tails order
    /// them.
    const TRICKY: [&str; 11] = [
        "",
        "a",
        "a b",
        "a c",
        "ab",
        "<a l b>",
        "<a l b> m",
        "<a l b> n",
        "é",
        "é x",
        "Z",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        /// Copied rows sorted in value order come out in the order of
        /// their decoded tuples, over mixed symbol and integer columns.
        #[test]
        fn rows_sort_like_their_decoded_tuples(
            arity in 1usize..4,
            cells in prop::collection::vec((0u8..3, 0usize..TRICKY.len()), 0..48),
        ) {
            let mut db = Database::new();
            for row in cells.chunks_exact(arity) {
                let row = row
                    .iter()
                    .map(|&(kind, i)| match kind {
                        0 | 1 => Value::sym(TRICKY[i]),
                        _ => Value::Int(i as i64 - 3),
                    })
                    .collect();
                db.insert("r", row).unwrap();
            }
            let rows = db.copy_rows("r").sorted();
            let mut want: Vec<Vec<Value>> = db.tuples("r").collect();
            want.sort();
            prop_assert_eq!(rows.tuples().collect::<Vec<_>>(), want);
        }
    }

    /// `db`'s rows of `pred` copied out and sorted: what every sorted
    /// read must answer.
    fn sorted_copy(db: &Database, pred: &str) -> SortedRows {
        db.copy_rows(pred).sorted()
    }

    #[test]
    fn a_sorted_order_is_kept_until_the_state_changes() {
        let p = intern("p");
        let mut db = Database::new();
        for row in [pair(2, 0), pair(0, 1), pair(1, 1)] {
            db.insert_ivals(p, &row).unwrap();
        }
        let mut first = db.sorted_rows("p");
        assert!(first.copy.is_some(), "the first read of a state copies it");
        assert_eq!(first.rows(), &sorted_copy(&db, "p"));
        let again = db.sorted_rows("p");
        assert!(
            again.copy.is_none(),
            "a read of a sorted state copies nothing"
        );
        assert!(Arc::ptr_eq(&first.slot, &again.slot));

        // Neither a duplicate nor the remove of an absent row is a write.
        assert!(!db.insert_ivals(p, &pair(0, 1)).unwrap());
        assert!(!db.remove_ivals(p, &pair(3, 3)));
        assert!(db.sorted_rows("p").copy.is_none());

        // A miss taken before a write still sorts the state it copied;
        // the slot it fills is the old state's, which nobody reads.
        assert!(db.insert_ivals(p, &pair(0, 0)).unwrap());
        let mut late = db.sorted_rows("p");
        assert!(db.remove_ivals(p, &pair(2, 0)));
        let rows: Vec<_> = late.rows().iter().map(<[ValueRef]>::to_vec).collect();
        let resolved = |a, b| {
            pair(a, b)
                .into_iter()
                .map(IVal::resolve)
                .collect::<Vec<_>>()
        };
        let want = [
            resolved(0, 0),
            resolved(0, 1),
            resolved(1, 1),
            resolved(2, 0),
        ];
        assert_eq!(rows, want);
        let mut now = db.sorted_rows("p");
        assert!(now.copy.is_some(), "the remove dropped the slot");
        assert!(!Arc::ptr_eq(&late.slot, &now.slot));
        assert_eq!(now.rows(), &sorted_copy(&db, "p"));

        assert_eq!(db.sorted_rows("nosuch").rows(), &SortedRows::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        /// Random writes, clones, absorbs and sorted reads over a few
        /// databases, on relations of arity 0, 1 and 2 over symbols and
        /// integers mixed: every sorted read answers the sorted copy of
        /// the rows its database holds at that moment, and its resolved
        /// rows decode to that database's tuples sorted by `Value`
        /// order — so no clone sees another's write, no write leaves an
        /// old order behind, and no resolution names the wrong value.
        #[test]
        fn every_sorted_read_is_the_sorted_copy_of_its_state(
            ops in prop::collection::vec((0u8..6, 0usize..3, 0usize..4, 0i64..12, 0i64..12), 1..80),
        ) {
            let preds = [("z", 0), ("u", 1), ("p", 2), ("q", 2)];
            let mut dbs = vec![Database::new()];
            for &(kind, i, pred, a, b) in &ops {
                let i = i % dbs.len();
                let (name, arity) = preds[pred];
                let row = &[mixed(a), mixed(b)][..arity];
                match kind {
                    0 | 1 => {
                        dbs[i].insert_ivals(intern(name), row).unwrap();
                    }
                    2 => {
                        dbs[i].remove_ivals(intern(name), row);
                    }
                    3 if dbs.len() < 4 => dbs.push(dbs[i].clone()),
                    3 => dbs[i] = dbs[(a as usize) % dbs.len()].clone(),
                    4 => {
                        let other = dbs[(a as usize) % dbs.len()].clone();
                        dbs[i].absorb(&other).unwrap();
                    }
                    _ => check_sorted_reads(&dbs[i], &preds),
                }
            }
            for db in &dbs {
                check_sorted_reads(db, &preds);
            }
        }
    }

    /// A value of a mixed universe: integers, and symbols of which some
    /// only their tails tell apart.
    fn mixed(x: i64) -> IVal {
        match x % 3 {
            0 => IVal::Int(x / 3 - 2),
            _ => IVal::Sym(intern(TRICKY[x as usize % TRICKY.len()])),
        }
    }

    /// Every predicate's sorted read of `db` against its sorted copy and
    /// against its decoded tuples sorted by `Value` order.
    fn check_sorted_reads(db: &Database, preds: &[(&str, usize)]) {
        for &(name, _) in preds {
            let mut read = db.sorted_rows(name);
            let rows = read.rows();
            assert_eq!(rows, &sorted_copy(db, name), "{name}");
            let mut want: Vec<Vec<Value>> = db.tuples(name).collect();
            want.sort();
            assert_eq!(rows.tuples().collect::<Vec<_>>(), want, "{name}");
        }
    }

    #[test]
    fn copied_rows_of_zero_arity_and_absent_relations() {
        let mut db = Database::new();
        db.insert("flag", vec![]).unwrap();
        let flag = db.copy_rows("flag").sorted();
        assert_eq!(flag.tuples().collect::<Vec<_>>(), vec![Vec::<Value>::new()]);
        assert_eq!(db.copy_rows("nosuch"), Rows::default());
    }

    #[test]
    fn a_relation_too_wide_to_index_is_probed_by_its_bound_positions() {
        let wide = |first: i64| -> Vec<Value> {
            (0..=MASK_WIDTH as i64)
                .map(|j| Value::Int(if j == 0 { first } else { j }))
                .collect()
        };
        let mut db = Database::new();
        db.insert("w", wide(1)).unwrap();
        db.insert("w", wide(2)).unwrap();
        let mut pattern = vec![None; MASK_WIDTH + 1];
        pattern[0] = Some(Value::Int(2));
        assert_eq!(db.probe("w", &pattern), vec![wide(2)]);
        assert_eq!(db.index_count(), 0);
    }

    // ----- copy-on-write between clones ---------------------------------

    fn shares_relation(a: &Database, b: &Database) -> bool {
        Arc::ptr_eq(&a.rels[0].1, &b.rels[0].1)
    }

    #[test]
    fn a_clone_shares_relations_until_one_side_writes() {
        let p = intern("p");
        let mut a = Database::new();
        let mut model = BTreeSet::new();
        for row in [pair(0, 1), pair(0, 2), pair(1, 2)] {
            a.insert_ivals(p, &row).unwrap();
            model.insert(row);
        }
        let original = Arc::clone(&a.rels[0].1);
        let mut b = a.clone();
        assert!(shares_relation(&a, &b), "a clone copies no relation");

        // An index built through one side is built on the shared rows.
        assert_eq!(b.probe("p", &[Some(Value::Int(0)), None]).len(), 2);
        assert_eq!(a.index_count(), 1);
        assert!(shares_relation(&a, &b), "building an index copies nothing");

        // A duplicate (or a remove of an absent row) is not a write.
        assert!(!b.insert_ivals(p, &pair(0, 1)).unwrap());
        assert!(!b.remove_ivals(p, &pair(3, 3)));
        assert!(shares_relation(&a, &b));

        // A real insert copies the clone's relation, not the original's.
        assert!(b.insert_ivals(p, &pair(0, 3)).unwrap());
        assert!(!shares_relation(&a, &b));
        assert!(
            Arc::ptr_eq(&original, &a.rels[0].1),
            "the side that did not write was not copied"
        );
        assert_matches(&a, &model, true, "original after the clone's insert");
        let mut grown = model.clone();
        grown.insert(pair(0, 3));
        assert_matches(&b, &grown, true, "clone after its insert");

        // Same for a remove, from the other side.
        let mut c = a.clone();
        assert!(a.remove_ivals(p, &pair(0, 2)));
        assert!(!shares_relation(&a, &c));
        assert_matches(&c, &model, true, "clone after the original's remove");
        model.remove(&pair(0, 2));
        assert_matches(&a, &model, true, "original after its remove");
        // Once unshared, writes go in place.
        drop(original);
        let own = Arc::as_ptr(&c.rels[0].1);
        assert!(c.insert_ivals(p, &pair(2, 2)).unwrap());
        assert_eq!(own, Arc::as_ptr(&c.rels[0].1));
    }

    #[test]
    fn zero_arity_relations() {
        let mut db = Database::new();
        assert!(db.insert("flag", vec![]).unwrap());
        assert!(!db.insert("flag", vec![]).unwrap());
        assert_eq!(db.count("flag"), 1);
        assert!(db.contains("flag", &[]));
        assert_eq!(db.probe("flag", &[]).len(), 1);
        assert!(db.remove("flag", &[]));
        assert!(!db.contains("flag", &[]));
        assert!(db.insert("flag", vec![]).unwrap());
    }
}
