//! The design index: the design record as `Gkbms` reads it (§2.2,
//! §3.3).
//!
//! The KB is the one copy of the design record, and a decision's
//! documentation never changes once told ([`crate::record`]): only
//! whether it was retracted. So the index is the fold of
//! [`Record::step`](crate::record::Record::step) over the anchors each
//! commit told ([`DesignWriter::file`]). It keeps per decision, by
//! *ordinal* (its position in execution order), the record
//! [`Record::decision`](crate::record::Record::decision) decodes, its
//! class's dimension and its recall group ([`crate::recall`]); a name →
//! ordinal map; per design object whether it was registered, and the
//! ordinals of the decisions that produced and used it — the per-object
//! dependencies along which Oussalah (PAPERS.md) propagates a change.
//! It stores no IN/OUT label: a retraction retracts every other
//! producer of what it takes OUT, so an object is current iff it was
//! registered or a decision not retracted produced it. Replay commits
//! the same ops, so recovery, snapshot + tail and a follower refill the
//! index as they rebuild the KB.
//!
//! # Persistence
//!
//! The design record only grows (§3.1), so the index is kept like the
//! proposition store: the decisions and the objects are append-only
//! [`Log`]s, and the maps by name and each object's producers and users
//! are chains of ascending positions in one [`Chains`]. A retraction
//! writes a write-once *retracted-at* tick into its filed decision and
//! a registration a *registered-at* tick into its object, as an UNTELL
//! writes a proposition's end tick. A [`DesignIndex`] is handles on
//! those logs plus its tick, at which a later retraction or
//! registration has not happened; [`Gkbms::capture`](crate::Gkbms::capture)
//! publishes a clone of it, and a later write appends above what the
//! clone reads and copies nothing. Names are filed under the KB's dense
//! name [`Symbol`], so every read by name takes the [`PropStore`] whose
//! symbols numbered it.

use crate::decisions::DecisionDimension;
use crate::recall::RecallIndex;
use crate::record::{Record, Step};
use crate::system::DecisionRecord;
use std::ops::Deref;
use std::sync::atomic::{AtomicI64, Ordering};
use telos::{Appender, Chains, Log, PropId, PropStore, Symbol};

/// The tick of what has not happened: a retracted-at or registered-at
/// tick until the index's writer writes it, once ([`write_once`]).
const NOT_YET: i64 = i64::MAX;

fn write_once(tick: &AtomicI64, at: i64) {
    let _ = tick.compare_exchange(NOT_YET, at, Ordering::Relaxed, Ordering::Relaxed);
}

/// True if what `tick` dates happened by `at`.
fn by(tick: &AtomicI64, at: i64) -> bool {
    tick.load(Ordering::Relaxed) <= at
}

/// One executed decision as the index files it.
struct Filed {
    record: DecisionRecord,
    dimension: DecisionDimension,
    group: usize,
    retracted: AtomicI64,
}

/// One design object.
struct DesignObject {
    name: String,
    registered: AtomicI64,
}

/// The chains of the index's one [`Chains`]: chain `c` of key `k` is
/// filed under `k * 4 + c`.
#[derive(Clone, Copy)]
enum Chain {
    /// Per name symbol, the ordinal of the decision of that name.
    Named,
    /// Per name symbol, the position of the object of that name.
    Object,
    /// Per object position, the ordinals of the decisions that produced it.
    Producers,
    /// Per object position, the ordinals of the decisions that used it.
    Users,
}

fn key(chain: Chain, k: usize) -> usize {
    k * 4 + chain as usize
}

/// An executed decision as one version of the index reads it; it
/// derefs to its record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision<'a> {
    /// The record decoded at its commit.
    pub record: &'a DecisionRecord,
    /// Its position in execution order.
    pub ordinal: usize,
    /// Its class's dimension.
    pub dimension: DecisionDimension,
    /// True if retracted at the version.
    pub retracted: bool,
    /// Its recall group.
    pub(crate) group: usize,
}

impl Deref for Decision<'_> {
    type Target = DecisionRecord;

    fn deref(&self) -> &DecisionRecord {
        self.record
    }
}

/// The executed decisions and the design objects of a
/// [`Gkbms`](crate::Gkbms) version (see the module doc).
#[derive(Clone)]
pub struct DesignIndex {
    decisions: Log<Filed>,
    objects: Log<DesignObject>,
    chains: Chains,
    pub(crate) recall: RecallIndex,
    /// The tick of the last commit filed.
    tick: i64,
}

/// The record at an ordinal below the index's decision count.
impl std::ops::Index<usize> for DesignIndex {
    type Output = DecisionRecord;

    fn index(&self, at: usize) -> &DecisionRecord {
        self.decision(at).expect("an ordinal in range").record
    }
}

/// Equal if they read the same decisions (recall groups included), and
/// the same objects with the same registrations, producers and users,
/// as two folds of one history do. The name maps follow from those.
impl PartialEq for DesignIndex {
    fn eq(&self, other: &Self) -> bool {
        let objects = |d: &DesignIndex| {
            let object = |(o, x): (usize, &DesignObject)| {
                let chain = |c| d.chain(c, o).map(|r| r.ordinal).collect::<Vec<_>>();
                let registered = by(&x.registered, d.tick);
                let chains = (chain(Chain::Producers), chain(Chain::Users));
                (x.name.clone(), registered, chains)
            };
            d.objects.iter().enumerate().map(object).collect::<Vec<_>>()
        };
        self.iter().eq(other.iter()) && objects(self) == objects(other)
    }
}

impl DesignIndex {
    /// The number of executed decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True if no decision was executed.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Every executed decision, in execution order.
    pub fn iter(&self) -> impl Iterator<Item = Decision<'_>> {
        (self.decisions.iter().enumerate()).map(|(at, filed)| self.read(at, filed))
    }

    fn read<'a>(&self, ordinal: usize, filed: &'a Filed) -> Decision<'a> {
        Decision {
            record: &filed.record,
            ordinal,
            dimension: filed.dimension,
            retracted: by(&filed.retracted, self.tick),
            group: filed.group,
        }
    }

    /// The decision at ordinal `at`.
    pub fn decision(&self, at: usize) -> Option<Decision<'_>> {
        Some(self.read(at, self.decisions.get(at)?))
    }

    /// The positions `chain` files under `k`: ordinals below the
    /// decision count, object positions below the object count.
    fn positions(&self, chain: Chain, k: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let bound = match chain {
            Chain::Object => self.objects.len(),
            _ => self.len(),
        };
        self.chains.get(key(chain, k), bound).map(|at| at as usize)
    }

    /// The ordinal of the decision named `name`.
    pub(crate) fn ordinal(&self, names: &PropStore, name: &str) -> Option<usize> {
        let symbol = names.lookup_sym(name)?;
        self.positions(Chain::Named, symbol.0 as usize).next_back()
    }

    /// The decision named `name`.
    pub fn get(&self, names: &PropStore, name: &str) -> Option<Decision<'_>> {
        self.decision(self.ordinal(names, name)?)
    }

    /// The position of the design object named `name`.
    fn object(&self, names: &PropStore, name: &str) -> Option<usize> {
        let symbol = names.lookup_sym(name)?;
        self.positions(Chain::Object, symbol.0 as usize).next()
    }

    /// The decisions `chain` files under object `o`, in execution order.
    fn chain(&self, chain: Chain, o: usize) -> impl DoubleEndedIterator<Item = Decision<'_>> {
        (self.positions(chain, o)).filter_map(|at| self.decision(at))
    }

    /// The decisions that produced `object`, in execution order,
    /// retracted ones included. `names` is the store the index was
    /// captured with.
    pub fn producers(
        &self,
        names: &PropStore,
        object: &str,
    ) -> impl DoubleEndedIterator<Item = Decision<'_>> {
        let o = self.object(names, object);
        o.into_iter().flat_map(|o| self.chain(Chain::Producers, o))
    }

    /// The decisions that used `object`, in execution order, retracted
    /// ones included. `names` is the store the index was captured with.
    pub fn users(
        &self,
        names: &PropStore,
        object: &str,
    ) -> impl DoubleEndedIterator<Item = Decision<'_>> {
        let o = self.object(names, object);
        o.into_iter().flat_map(|o| self.chain(Chain::Users, o))
    }

    /// True if object `o` was registered.
    fn registered_at(&self, o: usize) -> bool {
        (self.objects.get(o)).is_some_and(|x| by(&x.registered, self.tick))
    }

    /// Whether object `o` is current: registered, or produced by a
    /// decision not retracted.
    fn current_at(&self, o: usize) -> bool {
        self.registered_at(o) || self.chain(Chain::Producers, o).any(|r| !r.retracted)
    }

    /// Whether `object` is current, if it was ever registered or produced.
    pub fn is_current(&self, names: &PropStore, object: &str) -> Option<bool> {
        self.object(names, object).map(|o| self.current_at(o))
    }

    /// True if `object` was registered.
    pub fn registered(&self, names: &PropStore, object: &str) -> bool {
        self.object(names, object)
            .is_some_and(|o| self.registered_at(o))
    }

    /// Every design object ever registered or produced, in name order,
    /// with its position.
    fn by_name(&self) -> Vec<(&str, usize)> {
        let objects = self.objects.iter().enumerate();
        let mut objects: Vec<_> = objects.map(|(o, x)| (x.name.as_str(), o)).collect();
        objects.sort_unstable();
        objects
    }

    /// Every design object ever registered or produced, in name order.
    pub(crate) fn objects(&self) -> impl Iterator<Item = &str> {
        self.by_name().into_iter().map(|(name, _)| name)
    }

    /// The current design objects in name order, each with the
    /// decisions that produced it.
    pub(crate) fn current(
        &self,
    ) -> impl Iterator<Item = (&str, impl Iterator<Item = Decision<'_>>)> {
        let current = self.by_name().into_iter();
        let current = current.filter(|&(_, o)| self.current_at(o));
        current.map(|(name, o)| (name, self.chain(Chain::Producers, o)))
    }
}

/// The one writer of the design index: [`DesignWriter::file`] appends
/// what each commit told, and it derefs to the index as of the last
/// commit filed.
pub struct DesignWriter {
    decisions: Appender<Log<Filed>>,
    objects: Appender<Log<DesignObject>>,
    chains: Appender<Chains>,
    live: DesignIndex,
}

impl Default for DesignWriter {
    fn default() -> Self {
        let (decisions, objects, chains) = <(Appender<_>, Appender<_>, Appender<_>)>::default();
        let live = DesignIndex {
            decisions: Log::clone(&decisions),
            objects: Log::clone(&objects),
            chains: Chains::clone(&chains),
            recall: RecallIndex::default(),
            tick: 0,
        };
        DesignWriter {
            decisions,
            objects,
            chains,
            live,
        }
    }
}

impl Deref for DesignWriter {
    type Target = DesignIndex;

    fn deref(&self) -> &DesignIndex {
        &self.live
    }
}

impl DesignWriter {
    /// Files the design steps among `told`, the ids of `store`'s
    /// propositions one commit told, in id order (commit order): an
    /// execution files its decision, a retraction writes its decision's
    /// retracted-at tick and a registration its object's registered-at
    /// tick, both `store`'s now. Called by `Gkbms::commit` only; every
    /// id of a store, filed into an empty index, gives the index of
    /// that store.
    pub fn file(&mut self, store: &PropStore, told: &[PropId]) {
        let (record, tick) = (Record::over(store.snapshot()), store.now());
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
                    let d = store.prop(d).map(|d| key(Chain::Named, d.label.0 as usize));
                    let at = d.and_then(|d| self.chains.get(d, usize::MAX).next_back());
                    if let Some(filed) = at.and_then(|at| self.decisions.get(at as usize)) {
                        write_once(&filed.retracted, tick);
                    }
                }
                Step::Registered(o) => {
                    let o = store.prop(o).map(|o| self.object_of(store, o.label));
                    if let Some(o) = o.and_then(|o| self.objects.get(o)) {
                        write_once(&o.registered, tick);
                    }
                }
            }
        }
        self.live.decisions = Log::clone(&self.decisions);
        self.live.objects = Log::clone(&self.objects);
        self.live.tick = tick;
    }

    /// The position of the object of name `symbol`, filed if new.
    fn object_of(&mut self, names: &PropStore, symbol: Symbol) -> usize {
        let key = key(Chain::Object, symbol.0 as usize);
        if let Some(o) = self.chains.get(key, usize::MAX).next() {
            return o as usize;
        }
        let name = names.resolve_sym(symbol).to_string();
        let registered = AtomicI64::new(NOT_YET);
        let o = self.objects.push(DesignObject { name, registered });
        self.chains.insert(key, o as u32);
        o
    }

    /// Files the decision `r`, whose class has `dimension`, at the next
    /// ordinal: a user of each input (current, so filed already) and a
    /// producer of each output, once however often it names one.
    fn push(&mut self, names: &PropStore, r: DecisionRecord, dimension: DecisionDimension) {
        let at = self.decisions.len();
        for (objects, chain) in [(&r.inputs, Chain::Users), (&r.outputs, Chain::Producers)] {
            for symbol in objects.iter().filter_map(|name| names.lookup_sym(name)) {
                let key = key(chain, self.object_of(names, symbol));
                if self.chains.get(key, usize::MAX).next_back() != Some(at as u32) {
                    self.chains.insert(key, at as u32);
                }
            }
        }
        let decisions = &self.decisions;
        let name_of = |m: usize| decisions.get(m).map_or("", |d| d.record.name.as_str());
        let group = self.live.recall.insert(&r, dimension, at, name_of);
        if let Some(symbol) = names.lookup_sym(&r.name) {
            self.chains
                .insert(key(Chain::Named, symbol.0 as usize), at as u32);
        }
        let retracted = AtomicI64::new(NOT_YET);
        (self.decisions).push(Filed {
            record: r,
            dimension,
            group,
            retracted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::{DecisionRequest, Gkbms};
    use std::ptr;

    /// `n` decisions in a row over one registered root: `d{i}` uses
    /// `o{i}` and produces `o{i+1}`.
    fn chain(n: usize) -> Gkbms {
        let mut g = scenario_gkbms();
        g.register_object("o0", kernel::DBPL_REL, "src").unwrap();
        for i in 0..n {
            let req = DecisionRequest::new("DBPL_MappingDec", &format!("d{i}"), "dev")
                .input(&format!("o{i}"))
                .output(&format!("o{}", i + 1), kernel::DBPL_REL);
            g.execute(req).unwrap();
        }
        g
    }

    /// The twin of the store's address test for the rest of a published
    /// version: after a capture, a registration (of an object filed
    /// before it), an execution, a retraction and a raw TELL append
    /// above what the capture reads. Every filed decision, object entry,
    /// chain and history entry it reads stays at its address in the
    /// live instance, and it reads the later retraction and
    /// registration as not made.
    #[test]
    fn a_write_after_a_capture_copies_nothing_the_published_version_holds() {
        let n = if cfg!(miri) { 40 } else { 300 };
        let mut g = chain(n);
        let last = format!("o{n}");
        g.retract_decision(&format!("d{}", n - 1)).unwrap();
        let v = g.capture();
        g.register_object(&last, kernel::DBPL_REL, "src").unwrap();
        let req = DecisionRequest::new("DBPL_MappingDec", "dLate", "dev")
            .input(&last)
            .output("oLate", kernel::DBPL_REL);
        g.execute(req).unwrap();
        let victim = format!("d{}", n - 2);
        assert_eq!(
            g.retract_decision(&victim).unwrap(),
            [format!("o{}", n - 1)]
        );
        g.tell_src("TELL raw end").unwrap();

        let (held, live) = (&v.design, g.records());
        assert_eq!((held.len(), live.len()), (n, n + 1));
        for at in 0..held.len() {
            let (a, b) = (held.decisions.get(at), live.decisions.get(at));
            assert!(ptr::eq(a.unwrap(), b.unwrap()), "decision {at} copied");
        }
        assert!(held.objects.len() < live.objects.len());
        for o in 0..held.objects.len() {
            let (a, b) = (held.objects.get(o), live.objects.get(o));
            assert!(ptr::eq(a.unwrap(), b.unwrap()), "object {o} copied");
            for chain in [Chain::Producers, Chain::Users] {
                let held: Vec<usize> = held.positions(chain, o).collect();
                let live = live.positions(chain, o).take(held.len());
                assert!(live.eq(held), "chain {o} moved");
            }
        }
        assert!(held.chains.ptr_eq(&live.chains), "the chain index copied");
        assert!(v.history.len() < g.history.len());
        for i in 0..v.history.len() {
            let (a, b) = (v.history.get(i), g.history.get(i));
            assert!(ptr::eq(a.unwrap(), b.unwrap()), "history entry {i} copied");
        }

        let (then, now) = (&*v.kb, g.kb());
        let retracted = |d: &DesignIndex, names| d.get(names, &victim).map(|r| r.retracted);
        assert_eq!(retracted(held, then), Some(false), "a later retraction");
        assert_eq!(retracted(live, now), Some(true));
        assert!(!held.registered(then, &last), "a later registration");
        assert!(live.registered(now, &last));
        assert_eq!(held.is_current(then, &last), Some(false));
        assert_eq!(live.is_current(now, &last), Some(true));
        assert_eq!(held.get(then, "dLate"), None);
        assert!(*held == *fold(then), "the capture is the fold of its store");
    }

    /// The index every id of `store` files into an empty one.
    fn fold(store: &PropStore) -> DesignWriter {
        let every: Vec<PropId> = (0..store.len() as u32).map(PropId).collect();
        let mut folded = DesignWriter::default();
        folded.file(store, &every);
        folded
    }
}
