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
//! `Snapshot` stays its oracle. The index describes the live head only.

use crate::decisions::DecisionDimension;
use crate::recall::RecallIndex;
use crate::system::DecisionRecord;
use std::collections::{BTreeMap, HashMap};

/// A design object's belief: `Registered` (a premise, current whatever
/// is retracted), or produced and `In` until a retraction takes it `Out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ObjectState {
    Registered,
    In,
    #[default]
    Out,
}

/// One design object: its state and the decisions that touch it.
#[derive(Debug, Default)]
struct DesignObject {
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

/// The executed decisions and the design objects of a [`Gkbms`](crate::Gkbms).
#[derive(Debug, Default)]
pub struct DesignIndex {
    /// Per ordinal, the decision as decoded at its commit.
    records: Vec<DecisionRecord>,
    /// Per ordinal, its class's dimension.
    dimensions: Vec<DecisionDimension>,
    /// Decision name → ordinal.
    ordinals: HashMap<String, usize>,
    /// Every registered or produced design object, in name order.
    objects: BTreeMap<String, DesignObject>,
    /// The decisions grouped by structural signature.
    pub(crate) recall: RecallIndex,
}

impl DesignIndex {
    /// Files `name` as registered: current whatever is retracted.
    pub(crate) fn register(&mut self, name: &str) {
        self.objects.entry(name.to_string()).or_default().state = ObjectState::Registered;
    }

    /// Files the decision `r` whose execution just committed; its class
    /// has `dimension`. Its inputs are current, so its outputs are IN
    /// (registered ones stay registered).
    pub(crate) fn execute(&mut self, r: DecisionRecord, dimension: DecisionDimension) {
        let at = self.records.len();
        for input in &r.inputs {
            if let Some(object) = self.objects.get_mut(input) {
                push_once(&mut object.users, at);
            }
        }
        for output in &r.outputs {
            let object = self.objects.entry(output.clone()).or_default();
            if object.state == ObjectState::Out {
                object.state = ObjectState::In;
            }
            push_once(&mut object.producers, at);
        }
        self.recall.insert(&r, dimension, &self.records);
        self.ordinals.insert(r.name.clone(), at);
        self.records.push(r);
        self.dimensions.push(dimension);
    }

    /// Marks the decisions at `ordinals` retracted and takes `affected`
    /// OUT, once their retraction has committed.
    pub(crate) fn retract(&mut self, ordinals: &[usize], affected: &[String]) {
        for &at in ordinals {
            self.records[at].retracted = true;
        }
        for name in affected {
            if let Some(object) = self.objects.get_mut(name) {
                object.state = ObjectState::Out;
            }
        }
    }

    /// Every executed decision, in execution order.
    pub(crate) fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// The ordinal of the decision named `name`.
    pub(crate) fn ordinal(&self, name: &str) -> Option<usize> {
        self.ordinals.get(name).copied()
    }

    /// The decision named `name`.
    pub(crate) fn get(&self, name: &str) -> Option<&DecisionRecord> {
        self.ordinal(name).map(|at| &self.records[at])
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
        self.records.iter().zip(self.dimensions.iter().copied())
    }

    /// The ordinals of the decisions that produced `object`, in
    /// execution order.
    pub(crate) fn produced_by(&self, object: &str) -> &[usize] {
        self.objects.get(object).map_or(&[], |o| &o.producers)
    }

    /// The ordinals of the decisions that used `object`, in execution
    /// order.
    pub(crate) fn used_by(&self, object: &str) -> &[usize] {
        self.objects.get(object).map_or(&[], |o| &o.users)
    }

    /// The decisions that produced `object`, in execution order,
    /// retracted ones included.
    pub fn producers(&self, object: &str) -> impl DoubleEndedIterator<Item = &DecisionRecord> {
        self.produced_by(object).iter().map(|&at| &self.records[at])
    }

    /// The decisions that used `object`, in execution order, retracted
    /// ones included.
    pub fn users(&self, object: &str) -> impl DoubleEndedIterator<Item = &DecisionRecord> {
        self.used_by(object).iter().map(|&at| &self.records[at])
    }

    /// The state of `object`, if it was ever registered or produced.
    pub(crate) fn state(&self, object: &str) -> Option<ObjectState> {
        self.objects.get(object).map(|o| o.state)
    }

    /// Every design object ever registered or produced, in name order.
    pub(crate) fn objects(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }

    /// The current design objects in name order, each with the ordinals
    /// of the decisions that produced it.
    pub(crate) fn current(&self) -> impl Iterator<Item = (&str, &[usize])> {
        let current = self
            .objects
            .iter()
            .filter(|(_, o)| o.state != ObjectState::Out);
        current.map(|(name, o)| (name.as_str(), &o.producers[..]))
    }
}
