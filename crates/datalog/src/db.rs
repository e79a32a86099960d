//! The extensional database: named relations of ground tuples, stored
//! interned with secondary hash indexes per binding pattern.
//!
//! Storage layout (the "set-oriented" representation of §3.1):
//!
//! * Tuples are rows of [`IVal`] (interned, `Copy`) laid out
//!   row-major in one flat vector per relation — cache-friendly scans,
//!   cheap row handles (`u32`).
//! * Duplicate detection goes through a tuple-hash map, so inserts are
//!   O(arity) without storing each tuple twice.
//! * Secondary indexes are keyed by a **binding pattern**: a bitmask of
//!   argument positions. The index for mask `m` maps the values at
//!   `m`'s positions to the row ids carrying them. Indexes are built
//!   lazily the first time a join probes that pattern and are
//!   maintained incrementally by later inserts (an insert never leaves
//!   a built index stale; dropping them would force O(n) rebuilds every
//!   semi-naive round).

use crate::ast::{Atom, Term, Value};
use crate::error::{DatalogError, DatalogResult};
use crate::intern::{intern, lookup, IVal, Symbol};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A secondary index: bound-position values (in position order) to the
/// row ids that carry them.
pub(crate) type Index = HashMap<Vec<IVal>, Vec<u32>>;

/// Relations wider than this are never indexed (the binding-pattern
/// mask is a `u32`); joins over them fall back to scans.
const MAX_INDEXED_ARITY: usize = 32;

fn hash_row(row: &[IVal]) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// Projects the values at `mask`'s positions, in position order.
pub(crate) fn key_of(row: &[IVal], mask: u32) -> Vec<IVal> {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        let j = m.trailing_zeros() as usize;
        key.push(row[j]);
        m &= m - 1;
    }
    key
}

/// One relation: arity, row-major tuple storage, dedup map, indexes.
#[derive(Debug, Default)]
pub(crate) struct Relation {
    pub(crate) arity: usize,
    flat: Vec<IVal>,
    nrows: u32,
    /// Tuple hash → candidate row ids (collisions resolved by compare).
    dedup: HashMap<u64, Vec<u32>>,
    /// Binding-pattern mask → secondary index, built lazily. Behind a
    /// mutex (not a `RefCell`) so a database embedded in shared server
    /// state stays `Sync`; evaluation is single-threaded, so the lock
    /// is uncontended.
    indexes: Mutex<HashMap<u32, Arc<Index>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            flat: self.flat.clone(),
            nrows: self.nrows,
            dedup: self.dedup.clone(),
            // Arc-shallow: clones share built indexes until either
            // side inserts (copy-on-write via `Arc::make_mut`).
            indexes: Mutex::new(lock_indexes(&self.indexes).clone()),
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

impl Relation {
    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.nrows as usize
    }

    /// The `i`-th tuple.
    pub(crate) fn row(&self, i: u32) -> &[IVal] {
        let a = self.arity;
        &self.flat[i as usize * a..(i as usize + 1) * a]
    }

    /// Iterates all tuples.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[IVal]> {
        (0..self.nrows).map(|i| self.row(i))
    }

    fn find(&self, row: &[IVal]) -> Option<u32> {
        let h = hash_row(row);
        self.dedup
            .get(&h)?
            .iter()
            .copied()
            .find(|&i| self.row(i) == row)
    }

    /// Inserts a row, maintaining dedup and any built indexes; returns
    /// whether it was new.
    fn insert(&mut self, row: &[IVal]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        if self.find(row).is_some() {
            return false;
        }
        let id = self.nrows;
        self.flat.extend_from_slice(row);
        self.nrows += 1;
        self.dedup.entry(hash_row(row)).or_default().push(id);
        for (&mask, index) in self.indexes.get_mut().unwrap_or_else(|e| e.into_inner()) {
            Arc::make_mut(index)
                .entry(key_of(row, mask))
                .or_default()
                .push(id);
        }
        true
    }

    /// Removes a row by value, maintaining dedup and any built indexes;
    /// returns whether it was present. The last row is swapped into the
    /// hole, so every bookkeeping structure that names a row id must be
    /// repointed: first the removed row's entries are dropped, then the
    /// moved row's entries are redirected from the old last id — in that
    /// order, because the two rows may share a hash bucket or index key.
    fn remove(&mut self, row: &[IVal]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let Some(id) = self.find(row) else {
            return false;
        };
        let last = self.nrows - 1;
        let removed: Vec<IVal> = self.row(id).to_vec();
        let moved: Option<Vec<IVal>> = (id != last).then(|| self.row(last).to_vec());
        let h = hash_row(&removed);
        if let Some(bucket) = self.dedup.get_mut(&h) {
            bucket.retain(|&i| i != id);
            if bucket.is_empty() {
                self.dedup.remove(&h);
            }
        }
        if let Some(m) = &moved {
            if let Some(bucket) = self.dedup.get_mut(&hash_row(m)) {
                for i in bucket.iter_mut() {
                    if *i == last {
                        *i = id;
                    }
                }
            }
        }
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
            for j in 0..a {
                self.flat[id as usize * a + j] = self.flat[last as usize * a + j];
            }
        }
        self.flat.truncate(last as usize * a);
        self.nrows = last;
        true
    }

    /// The secondary index for binding pattern `mask`, building it on
    /// first use. `mask` must be non-zero and within the arity.
    pub(crate) fn index_for(&self, mask: u32) -> Arc<Index> {
        debug_assert!(mask != 0);
        let mut indexes = lock_indexes(&self.indexes);
        Arc::clone(indexes.entry(mask).or_insert_with(|| {
            let mut index = Index::new();
            for i in 0..self.nrows {
                index.entry(key_of(self.row(i), mask)).or_default().push(i);
            }
            Arc::new(index)
        }))
    }

    /// Number of binding patterns currently indexed (for tests/stats).
    pub(crate) fn index_count(&self) -> usize {
        lock_indexes(&self.indexes).len()
    }
}

/// A database mapping predicate names to relations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    pred_ids: HashMap<Symbol, usize>,
    rels: Vec<(Symbol, Relation)>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    pub(crate) fn rel(&self, pred: Symbol) -> Option<&Relation> {
        self.pred_ids.get(&pred).map(|&i| &self.rels[i].1)
    }

    fn rel_by_name(&self, pred: &str) -> Option<&Relation> {
        self.rel(lookup(pred)?)
    }

    /// Inserts an interned row under `pred`; returns whether it was new.
    pub(crate) fn insert_ivals(&mut self, pred: Symbol, row: &[IVal]) -> DatalogResult<bool> {
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
                Ok(rel.insert(row))
            }
            None => {
                let mut rel = Relation {
                    arity: row.len(),
                    ..Relation::default()
                };
                rel.insert(row);
                self.pred_ids.insert(pred, self.rels.len());
                self.rels.push((pred, rel));
                Ok(true)
            }
        }
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
                rel.arity == row.len() && rel.remove(row)
            }
            None => false,
        }
    }

    /// Iterates the relations with their interned predicate symbols.
    pub(crate) fn iter_rels(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.rels.iter().map(|(s, r)| (*s, r))
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

    /// The tuples under `pred`, decoded (empty if absent).
    pub fn tuples<'a>(&'a self, pred: &str) -> impl Iterator<Item = Vec<Value>> + 'a {
        self.rel_by_name(pred).into_iter().flat_map(|r| {
            r.rows()
                .map(|row| row.iter().map(|v| v.to_value()).collect())
        })
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

    /// Merges all tuples of `other` into `self` (interned fast path).
    pub fn absorb(&mut self, other: &Database) -> DatalogResult<usize> {
        let mut added = 0;
        for (pred, rel) in &other.rels {
            for i in 0..rel.nrows {
                if self.insert_ivals(*pred, rel.row(i))? {
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Tuples of `pred` matching `pattern` (`Some` = bound position,
    /// `None` = free), served from the binding-pattern index when any
    /// position is bound. This is the point probe the engines and the
    /// object processor use instead of scan-and-filter.
    pub fn probe<'a>(
        &'a self,
        pred: &str,
        pattern: &[Option<Value>],
    ) -> Box<dyn Iterator<Item = Vec<Value>> + 'a> {
        let Some(rel) = self.rel_by_name(pred) else {
            return Box::new(std::iter::empty());
        };
        if rel.arity != pattern.len() {
            return Box::new(std::iter::empty());
        }
        let mut mask: u32 = 0;
        let mut key = Vec::new();
        if rel.arity <= MAX_INDEXED_ARITY {
            for (j, slot) in pattern.iter().enumerate() {
                if let Some(v) = slot {
                    match IVal::from_value_if_known(v) {
                        // A never-interned symbol matches nothing.
                        None => return Box::new(std::iter::empty()),
                        Some(iv) => {
                            mask |= 1 << j;
                            key.push(iv);
                        }
                    }
                }
            }
        }
        if mask == 0 {
            return Box::new(
                rel.rows()
                    .map(|row| row.iter().map(|v| v.to_value()).collect()),
            );
        }
        let index = rel.index_for(mask);
        let ids = index.get(&key).cloned().unwrap_or_default();
        Box::new(
            ids.into_iter()
                .map(move |i| rel.row(i).iter().map(|v| v.to_value()).collect()),
        )
    }

    /// Number of secondary indexes built across all relations.
    pub fn index_count(&self) -> usize {
        self.rels.iter().map(|(_, r)| r.index_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn probe_with_bound_prefix() {
        let mut db = Database::new();
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "c")] {
            db.insert("edge", vec![Value::sym(x), Value::sym(y)])
                .unwrap();
        }
        let hits: Vec<Vec<Value>> = db.probe("edge", &[Some(Value::sym("a")), None]).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t[0] == Value::sym("a")));
        assert_eq!(db.index_count(), 1);
        // Second-position probe builds a second index.
        let hits: Vec<Vec<Value>> = db.probe("edge", &[None, Some(Value::sym("c"))]).collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(db.index_count(), 2);
    }

    #[test]
    fn probe_unknown_symbol_is_empty() {
        let mut db = Database::new();
        db.insert("edge", vec![Value::sym("a"), Value::sym("b")])
            .unwrap();
        let hits: Vec<_> = db
            .probe("edge", &[Some(Value::sym("zz-never-interned-zz")), None])
            .collect();
        assert!(hits.is_empty());
    }

    #[test]
    fn indexes_stay_fresh_across_inserts() {
        let mut db = Database::new();
        db.insert("edge", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        // Build the first-position index…
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).count(), 1);
        // …then insert more tuples: the built index must see them.
        db.insert("edge", vec![Value::Int(1), Value::Int(3)])
            .unwrap();
        db.insert("edge", vec![Value::Int(4), Value::Int(5)])
            .unwrap();
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).count(), 2);
        assert_eq!(db.probe("edge", &[Some(Value::Int(4)), None]).count(), 1);
    }

    #[test]
    fn clones_do_not_share_index_growth() {
        let mut a = Database::new();
        a.insert("p", vec![Value::Int(1)]).unwrap();
        assert_eq!(a.probe("p", &[Some(Value::Int(1))]).count(), 1);
        let b = a.clone();
        a.insert("p", vec![Value::Int(2)]).unwrap();
        assert_eq!(a.probe("p", &[Some(Value::Int(2))]).count(), 1);
        assert_eq!(b.probe("p", &[Some(Value::Int(2))]).count(), 0);
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
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).count(), 3);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(5))]).count(), 1);
        // Remove a middle row: the last row (1,6) is swapped into its
        // slot and must stay probeable under both masks.
        assert!(db.remove("edge", &[Value::Int(1), Value::Int(3)]));
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).count(), 2);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(6))]).count(), 1);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(3))]).count(), 0);
        // Remove the (new) last row too.
        assert!(db.remove("edge", &[Value::Int(1), Value::Int(6)]));
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).count(), 1);
        assert_eq!(db.probe("edge", &[None, Some(Value::Int(6))]).count(), 0);
        // Churn: remove everything, then refill through the same index.
        assert!(db.remove("edge", &[Value::Int(1), Value::Int(2)]));
        assert!(db.remove("edge", &[Value::Int(4), Value::Int(5)]));
        assert_eq!(db.count("edge"), 0);
        db.insert("edge", vec![Value::Int(1), Value::Int(7)])
            .unwrap();
        assert_eq!(db.probe("edge", &[Some(Value::Int(1)), None]).count(), 1);
    }

    #[test]
    fn clones_do_not_observe_removes() {
        let mut a = Database::new();
        a.insert("p", vec![Value::Int(1)]).unwrap();
        a.insert("p", vec![Value::Int(2)]).unwrap();
        assert_eq!(a.probe("p", &[Some(Value::Int(1))]).count(), 1);
        let b = a.clone();
        a.remove("p", &[Value::Int(1)]);
        assert!(!a.contains("p", &[Value::Int(1)]));
        assert!(b.contains("p", &[Value::Int(1)]));
        assert_eq!(b.probe("p", &[Some(Value::Int(1))]).count(), 1);
    }

    #[test]
    fn zero_arity_relations() {
        let mut db = Database::new();
        assert!(db.insert("flag", vec![]).unwrap());
        assert!(!db.insert("flag", vec![]).unwrap());
        assert_eq!(db.count("flag"), 1);
        assert!(db.contains("flag", &[]));
        assert_eq!(db.probe("flag", &[]).count(), 1);
        assert!(db.remove("flag", &[]));
        assert!(!db.contains("flag", &[]));
        assert!(db.insert("flag", vec![]).unwrap());
    }
}
