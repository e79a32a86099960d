//! The design index: the design record as `Gkbms` reads it (§2.2,
//! §3.3).
//!
//! The KB is the one copy of the design record, and a decision's
//! documentation never changes once told ([`crate::record`]): only
//! whether it was retracted. So [`DesignIndex`] is the fold of
//! [`Record::step`](crate::record::Record::step) over the anchors each
//! commit told ([`DesignIndex::file`]). It keeps per decision, by
//! *ordinal* (its position in execution order), the record
//! [`Record::decision`](crate::record::Record::decision) decodes and its
//! class's dimension; a name → ordinal map; per design object whether
//! it was registered, and the ordinals of the decisions that produced
//! and used it — the per-object dependencies along which Oussalah
//! (PAPERS.md) propagates a change; and the recall groups
//! ([`crate::recall`]). It stores no IN/OUT label: a retraction retracts
//! every other producer of what it takes OUT, so an object is current
//! iff it was registered or a decision not retracted produced it.
//! Replay commits the same ops, so recovery, snapshot + tail and a
//! follower refill the index as they rebuild the KB.
//!
//! # Persistence
//!
//! The index is published with every store version
//! ([`Gkbms::capture`](crate::Gkbms::capture)), so a reader pinned at a
//! version reads the design record of that version, and no later write
//! shows in it. It is built the way the proposition store is
//! (`telos::version`): every field is a [`PVec`] or an `Arc`, so a
//! clone bumps one `Arc` per 512-element chunk, and a write copies only
//! what it touches. The decisions are `Arc`s by ordinal, so a
//! retraction copies one chunk of pointers and the records it marks.
//! Names and objects are filed under the KB's dense name [`Symbol`],
//! one slot each, so reading one by name takes the store whose symbols
//! numbered it: every read by name takes a [`PropStore`].

use crate::decisions::DecisionDimension;
use crate::recall::RecallIndex;
use crate::record::{Record, Step};
use crate::system::DecisionRecord;
use std::sync::Arc;
use telos::pvec::PVec;
use telos::{PropId, PropStore, Symbol};

/// One design object: its name, whether it was registered (a premise,
/// current whatever is retracted) and the decisions that touch it.
#[derive(Debug, Clone, Default, PartialEq)]
struct DesignObject {
    name: String,
    registered: bool,
    /// Ordinals of the decisions that produced it, in execution order.
    producers: Vec<usize>,
    /// Ordinals of the decisions that used it, in execution order.
    users: Vec<usize>,
}

impl DesignObject {
    /// Its label: IN iff registered or produced by a live decision.
    fn is_current(&self, records: &PVec<Arc<DecisionRecord>>) -> bool {
        self.registered || self.producers.iter().any(|&at| !records[at].retracted)
    }
}

/// Pushes `at` onto `ordinals` unless it is already last: a decision
/// that names an object twice touches it once.
fn push_once(ordinals: &mut Vec<usize>, at: usize) {
    if ordinals.last() != Some(&at) {
        ordinals.push(at);
    }
}

/// The slot of `symbol` in `slots`, growing the slots to reach it: the
/// `PIndex` idiom of `telos::version`. Copies the slot's chunk if an
/// older clone shares it.
fn slot_mut<T: Clone>(slots: &mut PVec<Option<T>>, symbol: Symbol) -> Option<&mut Option<T>> {
    let at = symbol.0 as usize;
    while slots.len() <= at {
        slots.push(None);
    }
    slots.get_mut(at)
}

/// What `slots` files under `symbol`.
fn slot<T: Clone>(slots: &PVec<Option<T>>, symbol: Symbol) -> Option<&T> {
    slots.get(symbol.0 as usize)?.as_ref()
}

/// The executed decisions and the design objects of a [`Gkbms`](crate::Gkbms)
/// version. `Clone` is structural sharing, O(chunks) (see the module
/// doc).
#[derive(Debug, Clone, Default)]
pub struct DesignIndex {
    /// Per ordinal, the decision as decoded at its commit.
    records: PVec<Arc<DecisionRecord>>,
    /// Per ordinal, its class's dimension.
    dimensions: PVec<DecisionDimension>,
    /// Per name symbol, the ordinal of the decision of that name.
    ordinals: PVec<Option<usize>>,
    /// Per name symbol, the design object of that name.
    objects: PVec<Option<Arc<DesignObject>>>,
    /// The decisions grouped by structural signature.
    pub(crate) recall: RecallIndex,
}

/// Equal if they file the same decisions, dimensions, names and
/// objects, as two folds of one history do. The recall groups follow
/// from the decisions and their order.
impl PartialEq for DesignIndex {
    fn eq(&self, other: &Self) -> bool {
        fn same<T: Clone + PartialEq>(a: &PVec<T>, b: &PVec<T>) -> bool {
            a.iter().eq(b.iter())
        }
        same(&self.records, &other.records)
            && same(&self.dimensions, &other.dimensions)
            && same(&self.ordinals, &other.ordinals)
            && same(&self.objects, &other.objects)
    }
}

impl DesignIndex {
    /// Files the design steps among `told`, the ids of `store`'s
    /// propositions one commit told, in id order (commit order): an
    /// execution files its decision, a retraction marks it retracted, a
    /// registration marks its object registered. Called by
    /// `Gkbms::commit` only; every id of a store, filed into an empty
    /// index, gives the index of that store.
    pub fn file(&mut self, store: &PropStore, told: &[PropId]) {
        let record = Record::over(store.snapshot());
        for step in told.iter().filter_map(|&id| record.step(id)) {
            match step {
                Step::Executed(d) => {
                    let r = record.decision(d);
                    let r = r.and_then(|r| Some((record.dimension_of(&r)?, r)));
                    debug_assert!(r.is_some(), "a committed execution reads back");
                    if let Some((dimension, r)) = r {
                        self.push(store, r, dimension);
                    }
                }
                Step::Retracted(d) => {
                    let at = store.prop(d).and_then(|d| slot(&self.ordinals, d.label));
                    if let Some(r) = at.and_then(|&at| self.records.get_mut(at)) {
                        Arc::make_mut(r).retracted = true;
                    }
                }
                Step::Registered(o) => {
                    if let Some(o) = store.prop(o).and_then(|o| self.object_mut(store, o.label)) {
                        o.registered = true;
                    }
                }
            }
        }
    }

    /// The object of name `symbol` in `names`, filed if new. Copies it
    /// if an older clone shares it.
    fn object_mut(&mut self, names: &PropStore, symbol: Symbol) -> Option<&mut DesignObject> {
        let object = slot_mut(&mut self.objects, symbol)?.get_or_insert_with(|| {
            let name = names.resolve_sym(symbol).to_string();
            Arc::new(DesignObject {
                name,
                ..DesignObject::default()
            })
        });
        Some(Arc::make_mut(object))
    }

    /// Files the decision `r`, whose class has `dimension`, at the next
    /// ordinal: a user of each input (current, so filed already) and a
    /// producer of each output.
    fn push(&mut self, names: &PropStore, r: DecisionRecord, dimension: DecisionDimension) {
        let at = self.records.len();
        for input in &r.inputs {
            let object = names
                .lookup_sym(input)
                .and_then(|s| self.object_mut(names, s));
            if let Some(object) = object {
                push_once(&mut object.users, at);
            }
        }
        for output in &r.outputs {
            let object = names
                .lookup_sym(output)
                .and_then(|s| self.object_mut(names, s));
            if let Some(object) = object {
                push_once(&mut object.producers, at);
            }
        }
        self.recall.insert(&r, dimension, &self.records);
        if let Some(slot) =
            (names.lookup_sym(&r.name)).and_then(|s| slot_mut(&mut self.ordinals, s))
        {
            *slot = Some(at);
        }
        self.records.push(Arc::new(r));
        self.dimensions.push(dimension);
    }

    /// Every executed decision, in execution order.
    pub fn records(&self) -> &PVec<Arc<DecisionRecord>> {
        &self.records
    }

    /// The ordinal of the decision named `name`.
    pub(crate) fn ordinal(&self, names: &PropStore, name: &str) -> Option<usize> {
        slot(&self.ordinals, names.lookup_sym(name)?).copied()
    }

    /// The decision named `name`.
    pub(crate) fn get(&self, names: &PropStore, name: &str) -> Option<&DecisionRecord> {
        self.ordinal(names, name).map(|at| &*self.records[at])
    }

    /// The decision at ordinal `at`, with its class's dimension.
    pub(crate) fn at(&self, at: usize) -> (&DecisionRecord, DecisionDimension) {
        (&self.records[at], self.dimensions[at])
    }

    /// Every executed decision with its class's dimension, in execution
    /// order.
    pub(crate) fn with_dimensions(
        &self,
    ) -> impl Iterator<Item = (&DecisionRecord, DecisionDimension)> {
        let records = self.records.iter().map(|r| &**r);
        records.zip(self.dimensions.iter().copied())
    }

    fn object(&self, names: &PropStore, name: &str) -> Option<&DesignObject> {
        slot(&self.objects, names.lookup_sym(name)?).map(|o| &**o)
    }

    /// The ordinals of the decisions that produced `object`, in
    /// execution order.
    pub(crate) fn produced_by(&self, names: &PropStore, object: &str) -> &[usize] {
        self.object(names, object).map_or(&[], |o| &o.producers)
    }

    /// The ordinals of the decisions that used `object`, in execution
    /// order.
    pub(crate) fn used_by(&self, names: &PropStore, object: &str) -> &[usize] {
        self.object(names, object).map_or(&[], |o| &o.users)
    }

    /// The decisions that produced `object`, in execution order,
    /// retracted ones included. `names` is the store the index was
    /// captured with.
    pub fn producers(
        &self,
        names: &PropStore,
        object: &str,
    ) -> impl DoubleEndedIterator<Item = &DecisionRecord> {
        let ordinals = self.produced_by(names, object).iter();
        ordinals.map(|&at| &*self.records[at])
    }

    /// The decisions that used `object`, in execution order, retracted
    /// ones included. `names` is the store the index was captured with.
    pub fn users(
        &self,
        names: &PropStore,
        object: &str,
    ) -> impl DoubleEndedIterator<Item = &DecisionRecord> {
        let ordinals = self.used_by(names, object).iter();
        ordinals.map(|&at| &*self.records[at])
    }

    /// Whether `object` is current, if it was ever registered or produced.
    pub(crate) fn is_current(&self, names: &PropStore, object: &str) -> Option<bool> {
        (self.object(names, object)).map(|o| o.is_current(&self.records))
    }

    /// True if `object` was registered.
    pub(crate) fn registered(&self, names: &PropStore, object: &str) -> bool {
        self.object(names, object).is_some_and(|o| o.registered)
    }

    /// Every design object ever registered or produced, in name order.
    fn by_name(&self) -> Vec<&DesignObject> {
        let mut objects: Vec<&DesignObject> = self.objects.iter().flatten().map(|o| &**o).collect();
        objects.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        objects
    }

    /// Every design object ever registered or produced, in name order.
    pub(crate) fn objects(&self) -> impl Iterator<Item = &str> {
        self.by_name().into_iter().map(|o| o.name.as_str())
    }

    /// The current design objects in name order, each with the ordinals
    /// of the decisions that produced it.
    pub(crate) fn current(&self) -> impl Iterator<Item = (&str, &[usize])> {
        let current = self.by_name().into_iter();
        let current = current.filter(|o| o.is_current(&self.records));
        current.map(|o| (o.name.as_str(), &o.producers[..]))
    }
}
