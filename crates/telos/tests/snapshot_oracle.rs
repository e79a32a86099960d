//! One reader needs a reference. Belief-time retrieval is written once,
//! on `Snapshot`; `Kb`'s current-belief methods, a `KbVersion` and every
//! `snapshot_at(w)` all run it. This model-based test drives random
//! write sequences and, after every step, holds all of those readings
//! equal to each other **and** to a naive oracle written here, which
//! filters every proposition by `believed_at` and closes `isa` by
//! fixpoint — it shares no code with `Snapshot`. Below the readers,
//! every captured version's raw postings and symbol lookups must be
//! the live store's cut to what existed at its capture.

use proptest::prelude::*;
use std::collections::BTreeSet;
use telos::{Kb, KbVersion, PropId, PropStore, Proposition, Symbol};

const NAMES: [&str; 5] = ["N0", "N1", "N2", "N3", "N4"];
const LABELS: [&str; 3] = ["l0", "l1", "l2"];
/// What reads are asked about: the labels above, the reserved ones
/// (never attributes) and one that was never interned.
const ASKED_LABELS: [&str; 6] = ["l0", "l1", "l2", "instanceof", "isa", "nosuch"];

/// Every answer of every read method over a fixed universe of
/// arguments, in the order the reader gave them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answers {
    lookup: Vec<Option<PropId>>,
    believed_count: usize,
    props_with_label: Vec<Vec<PropId>>,
    /// Per id: classes_of, instances_of, isa_parents, isa_children,
    /// isa_ancestors, isa_descendants, all_classes_of,
    /// all_instances_of, attrs_of, links_from, links_to.
    per_id: Vec<[Vec<PropId>; 11]>,
    attr_values: Vec<Vec<PropId>>,
    find_attr_class: Vec<Option<PropId>>,
    is_instance_of: Vec<bool>,
    find_link: Vec<Option<PropId>>,
}

impl Answers {
    /// Order-free form, for comparison with the oracle (which knows
    /// sets, not breadth-first order). `find_attr_class` picks the
    /// first match in that order, so the oracle checks it separately.
    fn unordered(mut self) -> Self {
        for row in &mut self.per_id {
            row.iter_mut().for_each(|v| v.sort());
        }
        self.find_attr_class.clear();
        self
    }
}

/// The same method calls on any reader: `Kb` and `Snapshot` share the
/// names, not a trait.
macro_rules! answers {
    ($reader:expr, $store:expr, $ids:expr) => {{
        let (r, store, ids): (_, &PropStore, &[PropId]) = (&$reader, $store, $ids);
        let pairs = || ids.iter().flat_map(|&x| ids.iter().map(move |&y| (x, y)));
        let labelled = || {
            ids.iter()
                .flat_map(|&x| ASKED_LABELS.iter().map(move |&l| (x, l)))
        };
        Answers {
            lookup: NAMES.iter().map(|n| r.lookup(n)).collect(),
            believed_count: r.believed_count(),
            props_with_label: ASKED_LABELS
                .iter()
                .chain(&NAMES)
                .map(|l| r.props_with_label(l))
                .collect(),
            per_id: ids
                .iter()
                .map(|&x| {
                    [
                        r.classes_of(x),
                        r.instances_of(x),
                        r.isa_parents(x),
                        r.isa_children(x),
                        r.isa_ancestors(x),
                        r.isa_descendants(x),
                        r.all_classes_of(x),
                        r.all_instances_of(x),
                        r.attrs_of(x),
                        r.links_from(x),
                        r.links_to(x),
                    ]
                })
                .collect(),
            attr_values: labelled().map(|(x, l)| r.attr_values(x, l)).collect(),
            find_attr_class: labelled().map(|(x, l)| r.find_attr_class(x, l)).collect(),
            is_instance_of: pairs().map(|(x, c)| r.is_instance_of(x, c)).collect(),
            // Every (source, label, dest) some proposition ever had.
            find_link: ids
                .iter()
                .filter_map(|&p| store.prop(p))
                .map(|p| r.find_link(p.source, p.label, p.dest))
                .collect(),
        }
    }};
}

/// The reference: a full scan filtered by `believed_at`, labels
/// compared as strings, closures by fixpoint over sets.
struct Oracle<'a> {
    store: &'a PropStore,
    at: i64,
}

impl Oracle<'_> {
    fn believed(&self) -> impl Iterator<Item = &Proposition> {
        let ids = (0..self.store.len()).map(|i| PropId(i as u32));
        ids.filter_map(|id| self.store.prop(id))
            .filter(|p| p.believed_at(self.at))
    }

    fn label(&self, p: &Proposition) -> &str {
        self.store.resolve_sym(p.label)
    }

    /// Believed links (never the node itself) from `x` carrying `label`.
    fn from(&self, x: PropId, label: &str) -> Vec<&Proposition> {
        self.believed()
            .filter(|p| p.source == x && p.id != x && self.label(p) == label)
            .collect()
    }

    fn to(&self, y: PropId, label: &str) -> Vec<&Proposition> {
        self.believed()
            .filter(|p| p.dest == y && p.id != y && self.label(p) == label)
            .collect()
    }

    fn dests(&self, x: PropId, label: &str) -> Vec<PropId> {
        self.from(x, label).iter().map(|p| p.dest).collect()
    }

    fn sources(&self, y: PropId, label: &str) -> Vec<PropId> {
        self.to(y, label).iter().map(|p| p.source).collect()
    }

    /// Least fixpoint of `step` from `start`, without `start` itself.
    fn reach(&self, start: PropId, step: impl Fn(PropId) -> Vec<PropId>) -> Vec<PropId> {
        let mut set: BTreeSet<PropId> = step(start).into_iter().collect();
        loop {
            let more: BTreeSet<PropId> = set.iter().flat_map(|&c| step(c)).collect();
            let before = set.len();
            set.extend(more);
            if set.len() == before {
                break;
            }
        }
        set.remove(&start);
        set.into_iter().collect()
    }

    fn all_classes_of(&self, x: PropId) -> Vec<PropId> {
        let mut set = BTreeSet::new();
        for c in self.dests(x, "instanceof") {
            set.insert(c);
            set.extend(self.reach(c, |c| self.dests(c, "isa")));
        }
        set.into_iter().collect()
    }

    fn answers(&self, ids: &[PropId]) -> Answers {
        let id_of = |p: &Proposition| p.id;
        let reserved = |l: &str| l == "instanceof" || l == "isa";
        let pairs = || ids.iter().flat_map(|&x| ids.iter().map(move |&y| (x, y)));
        let labelled = || {
            ids.iter()
                .flat_map(|&x| ASKED_LABELS.iter().map(move |&l| (x, l)))
        };
        Answers {
            lookup: NAMES
                .iter()
                .map(|n| {
                    let named = self.believed().filter(|p| p.is_individual());
                    named.filter(|p| self.label(p) == *n).map(id_of).last()
                })
                .collect(),
            believed_count: self.believed().count(),
            props_with_label: ASKED_LABELS
                .iter()
                .chain(&NAMES)
                .map(|l| {
                    let with = self.believed().filter(|p| self.label(p) == *l);
                    with.map(id_of).collect()
                })
                .collect(),
            per_id: ids
                .iter()
                .map(|&x| {
                    let mut all_instances: BTreeSet<PropId> =
                        self.sources(x, "instanceof").into_iter().collect();
                    for d in self.reach(x, |c| self.sources(c, "isa")) {
                        all_instances.extend(self.sources(d, "instanceof"));
                    }
                    let from: Vec<&Proposition> = self
                        .believed()
                        .filter(|p| p.source == x && p.id != x)
                        .collect();
                    let to = self.believed().filter(|p| p.dest == x && p.id != x);
                    [
                        self.dests(x, "instanceof"),
                        self.sources(x, "instanceof"),
                        self.dests(x, "isa"),
                        self.sources(x, "isa"),
                        self.reach(x, |c| self.dests(c, "isa")),
                        self.reach(x, |c| self.sources(c, "isa")),
                        self.all_classes_of(x),
                        all_instances.into_iter().collect(),
                        from.iter()
                            .filter(|p| !reserved(self.label(p)))
                            .map(|p| p.id)
                            .collect(),
                        from.iter().map(|p| p.id).collect(),
                        to.map(id_of).collect(),
                    ]
                })
                .collect(),
            attr_values: labelled()
                .map(|(x, l)| match reserved(l) {
                    true => Vec::new(),
                    false => self.dests(x, l),
                })
                .collect(),
            find_attr_class: Vec::new(),
            is_instance_of: pairs()
                .map(|(x, c)| self.all_classes_of(x).contains(&c))
                .collect(),
            find_link: ids
                .iter()
                .filter_map(|&p| self.store.prop(p))
                .map(|p| {
                    let label = self.label(p);
                    let mut hits = self.from(p.source, label).into_iter();
                    hits.find(|q| q.dest == p.dest).map(id_of)
                })
                .collect(),
        }
    }

    /// `find_attr_class` answers *some* believed proposition labelled
    /// `label` on one of `x`'s classes, and `None` only if there is none.
    fn admits_attr_class(&self, x: PropId, label: &str, got: Option<PropId>) -> bool {
        let reserved = label == "instanceof" || label == "isa";
        let candidates: Vec<PropId> = self
            .all_classes_of(x)
            .into_iter()
            .flat_map(|c| self.believed().filter(move |p| p.source == c))
            .filter(|p| !reserved && self.label(p) == label)
            .map(|p| p.id)
            .collect();
        match got {
            None => candidates.is_empty(),
            Some(id) => candidates.contains(&id),
        }
    }
}

/// The raw surface of a version is a prefix of the live store's, since
/// the store only ever appends: each posting list is the live one cut
/// to the ids the version holds, and a symbol lookup answers as live
/// if the symbol was interned before the capture, `None` otherwise.
/// This referees the persistent indexes and the sharded symbol map
/// without sharing their code: slot growth, empty slots, keys past the
/// end, and symbols interned after the capture.
fn check_prefix(kb: &Kb, ids: &[PropId], version: &KbVersion, when: &str) {
    let held = |list: &[PropId]| -> Vec<PropId> {
        let held = list.iter().filter(|p| p.idx() < version.len());
        held.copied().collect()
    };
    for &x in ids {
        let from = (version.postings_from(x), held(kb.postings_from(x)));
        assert_eq!(from.0, from.1, "{when}: postings_from({x:?})");
        let to = (version.postings_to(x), held(kb.postings_to(x)));
        assert_eq!(to.0, to.1, "{when}: postings_to({x:?})");
    }
    // Every symbol the live store has, and one past its last.
    for sym in (0..=kb.symbol_count() as u32).map(Symbol) {
        let label = (version.postings_label(sym), held(kb.postings_label(sym)));
        assert_eq!(label.0, label.1, "{when}: postings_label({sym:?})");
    }
    for name in NAMES.iter().chain(&ASKED_LABELS) {
        let live = kb.lookup_sym(name);
        let want = live.filter(|s| (s.0 as usize) < version.symbol_count());
        assert_eq!(version.lookup_sym(name), want, "{when}: lookup_sym({name})");
    }
}

/// All readings of the store as believed at a tick must agree, with
/// each other and with the oracle; `when` names the step in a failure.
fn check(kb: &Kb, ids: &[PropId], captured: &[(KbVersion, i64)], when: &str) {
    for p in (0..kb.len()).filter_map(|i| kb.prop(PropId(i as u32))) {
        assert_eq!(p.is_believed(), p.believed_at(kb.now()), "{when}: {p:?}");
    }
    let now = kb.now();
    let version = kb.version();
    let mut views = vec![
        ("Kb", now, answers!(kb, kb, ids)),
        ("Kb::snapshot", now, answers!(kb.snapshot(), kb, ids)),
        (
            "Kb::version().snapshot",
            now,
            answers!(version.snapshot(), kb, ids),
        ),
    ];
    for (version, w) in captured {
        check_prefix(kb, ids, version, when);
        let frozen = answers!(version.snapshot_at(*w), kb, ids);
        views.push(("version.snapshot_at(w)", *w, frozen));
        views.push((
            "kb.snapshot_at(w)",
            *w,
            answers!(kb.snapshot_at(*w), kb, ids),
        ));
    }
    for (who, at, got) in &views {
        let (first, _, reference) = views.iter().find(|(_, t, _)| t == at).unwrap();
        assert_eq!(got, reference, "{when}: {who} vs {first} at {at}");
        let oracle = Oracle { store: kb, at: *at };
        let labelled = ids
            .iter()
            .flat_map(|&x| ASKED_LABELS.iter().map(move |&l| (x, l)));
        for ((x, l), &found) in labelled.zip(&got.find_attr_class) {
            assert!(
                oracle.admits_attr_class(x, l, found),
                "{when}: {who} at {at}: find_attr_class({x:?}, {l}) = {found:?}"
            );
        }
        let (got, want) = (got.clone().unordered(), oracle.answers(ids).unordered());
        assert_eq!(got, want, "{when}: {who} at {at} vs the oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_reader_agrees_with_the_naive_oracle(
        ops in prop::collection::vec((0u8..9, any::<usize>(), any::<usize>(), any::<usize>()), 1..20),
    ) {
        let mut kb = Kb::new();
        let mut ids: Vec<PropId> = vec![PropId(kb.len() as u32 + 1_000)];
        let mut captured: Vec<(KbVersion, i64)> = Vec::new();
        // As a write transaction opens, the clock ticks after a
        // capture, so later beliefs start above its watermark.
        let capture = |kb: &mut Kb, captured: &mut Vec<(KbVersion, i64)>| {
            captured.push((kb.version(), kb.now()));
            kb.tick();
        };

        // Prologue: an attribute of a link, and an individual untold
        // and re-told under the same name (two generations).
        let a = kb.individual(NAMES[0]).unwrap();
        let b = kb.individual(NAMES[1]).unwrap();
        let ab = kb.put_attr(a, LABELS[0], b).unwrap();
        let about = kb.put_attr(ab, LABELS[1], b).unwrap();
        capture(&mut kb, &mut captured);
        kb.untell_cascade(a).unwrap();
        let a2 = kb.individual(NAMES[0]).unwrap();
        prop_assert_ne!(a, a2);
        ids.extend([a, b, ab, about, a2]);
        check(&kb, &ids, &captured, "after the prologue");

        for (step, (kind, i, j, k)) in ops.into_iter().enumerate() {
            let pick = |n: usize| ids[n % ids.len()];
            // Axiom violations and double untells are refusals, not
            // failures: the step then changed nothing.
            let created = match kind {
                0 => kb.individual(NAMES[i % NAMES.len()]).ok(),
                1 => kb.instantiate(pick(i), pick(j)).ok(),
                2 => kb.specialize(pick(i), pick(j)).ok(),
                3 | 4 => kb.put_attr(pick(i), LABELS[k % LABELS.len()], pick(j)).ok(),
                5 => kb.untell(pick(i)).ok().and(None),
                6 => kb.untell_cascade(pick(i)).ok().and(None),
                7 => Some(kb.tick()).and(None),
                _ => {
                    if captured.len() < 4 {
                        capture(&mut kb, &mut captured);
                    }
                    None
                }
            };
            if let Some(id) = created.filter(|id| !ids.contains(id)) {
                ids.push(id);
            }
            check(&kb, &ids, &captured, &format!("after step {step}"));
        }
    }
}
