//! The design index: the design record as `Gkbms` reads it (§2.2,
//! §3.3).
//!
//! The KB is the one copy of the design record, and a decision's
//! documentation never changes once told ([`crate::record`]): only
//! whether it was retracted, and the state of the objects it touches.
//! So [`DesignIndex`] keeps each executed decision as
//! [`Record::decision`](crate::record::Record::decision) decodes it
//! just after its execution committed — a decode of what the commit
//! told, never a copy of the request — by *ordinal*, its position in
//! execution order. Beside the decisions it keeps:
//!
//! * a name → ordinal map, and per ordinal its class's dimension;
//! * per design object its state — registered (a premise, current
//!   whatever is retracted), IN or OUT — and the ordinals of the
//!   decisions that produced it and of those that used it, read off the
//!   decoded records' outputs and inputs: the per-object dependencies
//!   along which Oussalah (PAPERS.md) propagates a change, and which
//!   the retraction and `consequences_of` walk;
//! * the recall groups ([`crate::recall`]).
//!
//! Three writers fill it, each after its op has committed:
//! `register_object`, `execute` and `retract_decision`. Replay goes
//! through the same three, so recovery, snapshot + tail and a follower
//! rebuild the index as they rebuild the KB, and `Record` over a
//! `Snapshot` stays its oracle.
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
use crate::system::DecisionRecord;
use std::sync::Arc;
use telos::pvec::PVec;
use telos::{PropStore, Symbol};

/// A design object's belief: `Registered` (a premise, current whatever
/// is retracted), or produced and `In` until a retraction takes it `Out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ObjectState {
    Registered,
    In,
    #[default]
    Out,
}

/// One design object: its name, its state and the decisions that touch
/// it.
#[derive(Debug, Clone)]
struct DesignObject {
    name: String,
    state: ObjectState,
    /// Ordinals of the decisions that produced it, in execution order.
    producers: Vec<usize>,
    /// Ordinals of the decisions that used it, in execution order.
    users: Vec<usize>,
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

/// What `slots` files under the symbol `names` numbers `name` by.
fn slot<'a, T: Clone>(slots: &'a PVec<Option<T>>, names: &PropStore, name: &str) -> Option<&'a T> {
    let symbol = names.lookup_sym(name)?;
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

impl DesignIndex {
    /// The object `name`, filed under its symbol in `names` — a new OUT
    /// one unless `existing`. Copies it if an older clone shares it.
    fn object_mut(
        &mut self,
        names: &PropStore,
        name: &str,
        existing: bool,
    ) -> Option<&mut DesignObject> {
        let symbol = names.lookup_sym(name);
        debug_assert!(symbol.is_some(), "a committed name `{name}` is interned");
        let slot = slot_mut(&mut self.objects, symbol?)?;
        if existing && slot.is_none() {
            return None;
        }
        let object = slot.get_or_insert_with(|| {
            Arc::new(DesignObject {
                name: name.to_string(),
                state: ObjectState::Out,
                producers: Vec::new(),
                users: Vec::new(),
            })
        });
        Some(Arc::make_mut(object))
    }

    /// Files `name` as registered: current whatever is retracted.
    pub(crate) fn register(&mut self, names: &PropStore, name: &str) {
        if let Some(object) = self.object_mut(names, name, false) {
            object.state = ObjectState::Registered;
        }
    }

    /// Files the decision `r` whose execution just committed; its class
    /// has `dimension`. Its inputs are current, so its outputs are IN
    /// (registered ones stay registered).
    pub(crate) fn execute(
        &mut self,
        names: &PropStore,
        r: DecisionRecord,
        dimension: DecisionDimension,
    ) {
        let at = self.records.len();
        for input in &r.inputs {
            if let Some(object) = self.object_mut(names, input, true) {
                push_once(&mut object.users, at);
            }
        }
        for output in &r.outputs {
            if let Some(object) = self.object_mut(names, output, false) {
                if object.state == ObjectState::Out {
                    object.state = ObjectState::In;
                }
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

    /// Marks the decisions at `ordinals` retracted and takes `affected`
    /// OUT, once their retraction has committed.
    pub(crate) fn retract(&mut self, names: &PropStore, ordinals: &[usize], affected: &[String]) {
        for &at in ordinals {
            if let Some(r) = self.records.get_mut(at) {
                Arc::make_mut(r).retracted = true;
            }
        }
        for name in affected {
            if let Some(object) = self.object_mut(names, name, true) {
                object.state = ObjectState::Out;
            }
        }
    }

    /// Every executed decision, in execution order.
    pub fn records(&self) -> &PVec<Arc<DecisionRecord>> {
        &self.records
    }

    /// The ordinal of the decision named `name`.
    pub(crate) fn ordinal(&self, names: &PropStore, name: &str) -> Option<usize> {
        slot(&self.ordinals, names, name).copied()
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
        slot(&self.objects, names, name).map(|o| &**o)
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

    /// The state of `object`, if it was ever registered or produced.
    pub(crate) fn state(&self, names: &PropStore, object: &str) -> Option<ObjectState> {
        self.object(names, object).map(|o| o.state)
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
        let current = current.filter(|o| o.state != ObjectState::Out);
        current.map(|o| (o.name.as_str(), &o.producers[..]))
    }
}
