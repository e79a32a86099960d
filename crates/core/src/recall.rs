//! Structure-similarity recall over the decision history.
//!
//! "Which past decisions looked like this one?" — the documentation-
//! service reading of the GKBMS (§3.1): development knowledge is only
//! reusable if a designer facing a decision can retrieve precedents.
//! Exact-match retrieval over names is useless across projects, so
//! recall works on *structural signatures*: the decision class and
//! dimension, the tool, the input count, the output design-object
//! class multiset, and the discharge shape. Retracted decisions are
//! included deliberately — a withdrawn precedent documents a dead end,
//! which is exactly the knowledge §3.3 wants preserved.
//!
//! Two decisions are compared by the weighted Jaccard similarity of
//! their signatures, Σmin / Σmax over the union of their features.
//!
//! # The index
//!
//! [`RecallIndex`] is part of the [`DesignIndex`](crate::design::DesignIndex),
//! filled by `execute` from the record the design index decoded at the
//! commit (the one place a decision is made, and the one replay goes
//! through, so recovery, snapshot + tail and followers rebuild it as a
//! side effect). A signature is a sorted list of `(Feature, weight)`
//! pairs, one per distinct feature; decisions with equal signatures
//! share one *group*, whose members are kept as ordinals in name order.
//! Each filed decision holds its group. Nothing else changes a
//! signature: documentation never changes once told, and a retraction
//! only writes the filed decision's retracted-at tick, which is read
//! when the answer is built.
//!
//! Unlike the rest of the design index, the group table and its member
//! lists are not append-only logs but copy-on-write `Arc`s, so a clone
//! shares them and a decision's insert after a capture copies the group
//! table and its own group's member list. An insert keeps a member list
//! in name order, which a log cannot; a list kept in ordinal order
//! instead would move the name-order merge into every query, over about
//! 1 200 members per score level on the benchmark's large corpus.
//!
//! A query scores each group once, by one merge of two short sorted
//! arrays, and then walks the groups best score first, merging the
//! member lists of equally scored groups by name until it has `limit`
//! hits. Its cost follows the number of distinct signatures, not of
//! decisions — a synthetic corpus of thousands of decisions has four —
//! and only the returned hits have their names cloned. An inverted
//! feature → decisions index would not help: `class` and `inputs`
//! features are shared so widely that the postings of any probe cover
//! nearly every decision.
//!
//! # Exactness
//!
//! Every weight is a small integer, so Σmin and Σmax are integers and
//! Σmax = *W*ₐ + *W*ᵦ − Σmin. A score is `Σmin as f64 / Σmax as f64`:
//! the same two exactly representable operands that a floating-point
//! sum over string-keyed feature bags produces, hence the same bits.
//! Scores are ranked by the integer cross products Σminₐ·Σmaxᵦ, so a
//! tie is an exact tie and broken by decision name; as long as a
//! signature weighs less than 2²⁶, distinct ratios are also distinct
//! `f64`s, and the ranking is the one the `f64` scores give.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::decisions::{DecisionDimension, Discharge};
use crate::design::DesignIndex;
use crate::error::{GkbmsError, GkbmsResult};
use crate::system::{DecisionRecord, Gkbms};
use telos::Snapshot;

/// A scored recall hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallHit {
    /// The matching decision's instance name.
    pub decision: String,
    /// Structural similarity in `(0, 1]`.
    pub score: f64,
    /// Whether the precedent was later retracted (a documented dead
    /// end rather than surviving design knowledge).
    pub retracted: bool,
}

/// One structural feature of a decision. Names are ids interned by the
/// index; the variant keeps a class, a tool and an obligation of the
/// same name apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Feature {
    Class(u32),
    /// A [`DecisionDimension`] discriminant.
    Dimension(u8),
    Tool(u32),
    Inputs(usize),
    Output(u32),
    Formal(u32),
    Signed(u32),
}

/// Features in ascending order, each once, with its summed weight.
/// Shared by a group and its key in the signature map.
type Signature = Arc<[(Feature, u32)]>;

/// The decisions that share one signature.
#[derive(Debug, Clone)]
struct Group {
    signature: Signature,
    /// The signature's total weight *W*.
    weight: u64,
    /// Member ordinals, in name order.
    members: Arc<Vec<usize>>,
}

/// The decisions of a [`Gkbms`] grouped by structural signature. A
/// clone shares everything: a decision's insert copies the group table
/// and its own group's member list, and a map only when a new key
/// arrives (see the module doc).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecallIndex {
    /// Class, tool and obligation names → feature ids.
    names: Arc<HashMap<String, u32>>,
    groups: Arc<Vec<Group>>,
    group_by_signature: Arc<HashMap<Signature, usize>>,
}

impl RecallIndex {
    /// Files `r`, the decision at ordinal `at`, and returns its group;
    /// its class has `dimension`, and `name_of` names each decision
    /// filed before it. Called once per decision, in execution order.
    pub(crate) fn insert<'n>(
        &mut self,
        r: &DecisionRecord,
        dimension: DecisionDimension,
        at: usize,
        name_of: impl Fn(usize) -> &'n str,
    ) -> usize {
        let signature = self.signature(r, dimension);
        let group = match self.group_by_signature.get(&signature[..]) {
            Some(&g) => g,
            None => {
                let weight = signature.iter().map(|&(_, w)| u64::from(w)).sum();
                let signature: Signature = signature.into();
                let g = self.groups.len();
                Arc::make_mut(&mut self.group_by_signature).insert(Arc::clone(&signature), g);
                Arc::make_mut(&mut self.groups).push(Group {
                    signature,
                    weight,
                    members: Arc::default(),
                });
                g
            }
        };
        if let Some(g) = Arc::make_mut(&mut self.groups).get_mut(group) {
            let members = Arc::make_mut(&mut g.members);
            members.insert(
                members.partition_point(|&m| name_of(m) < r.name.as_str()),
                at,
            );
        }
        group
    }

    /// Class identity weighs heaviest, then dimension and tool, then
    /// the input count and the class multiset of the outputs, and the
    /// kind and obligation of each discharge.
    fn signature(
        &mut self,
        r: &DecisionRecord,
        dimension: DecisionDimension,
    ) -> Vec<(Feature, u32)> {
        let names = &mut self.names;
        let mut id = |name: &str| match names.get(name) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(names.len()).expect("fewer than 2^32 distinct names");
                Arc::make_mut(names).insert(name.to_string(), id);
                id
            }
        };
        let mut sig = vec![
            (Feature::Class(id(&r.class)), 3),
            (Feature::Dimension(dimension as u8), 2),
            (Feature::Inputs(r.inputs.len()), 1),
        ];
        if let Some(t) = &r.tool {
            sig.push((Feature::Tool(id(t)), 2));
        }
        for c in &r.output_classes {
            sig.push((Feature::Output(id(c)), 1));
        }
        for d in &r.discharges {
            sig.push(match d {
                Discharge::Formal { obligation } => (Feature::Formal(id(obligation)), 1),
                Discharge::Signature { obligation, .. } => (Feature::Signed(id(obligation)), 1),
            });
        }
        sig.sort_unstable_by_key(|&(f, _)| f);
        sig.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        sig
    }

    /// The decisions most similar to the one at ordinal `probe` of
    /// `design`, best first and by name among equals, at most `limit`
    /// of them. Scores every group once.
    fn similar(&self, probe: usize, limit: usize, design: &DesignIndex) -> Vec<RecallHit> {
        let Some(mine) = design
            .decision(probe)
            .and_then(|d| self.groups.get(d.group))
        else {
            return Vec::new();
        };
        // (Σmin, Σmax, group) of every group sharing a feature.
        let mut scored: Vec<(u64, u64, &Group)> = (self.groups.iter())
            .filter_map(|g| {
                let min = shared_weight(&mine.signature, &g.signature);
                (min > 0).then(|| (min, mine.weight + g.weight - min, g))
            })
            .collect();
        let cross = |a: &(u64, u64, &Group), b: &(u64, u64, &Group)| (a.0 * b.1).cmp(&(b.0 * a.1));
        scored.sort_by(|a, b| cross(b, a));
        let mut hits = Vec::new();
        'levels: for level in scored.chunk_by(|a, b| cross(a, b) == Ordering::Equal) {
            if hits.len() == limit {
                break;
            }
            let score = level[0].0 as f64 / level[0].1 as f64;
            // A k-way merge of the level's name-ordered member lists.
            let head = |at: usize, i| Reverse((&design[at].name, at, i));
            let mut runs: Vec<_> = level.iter().map(|&(_, _, g)| g.members.iter()).collect();
            let mut heads: BinaryHeap<_> = (runs.iter_mut().enumerate())
                .filter_map(|(i, run)| run.next().map(|&at| head(at, i)))
                .collect();
            while let Some(Reverse((name, at, i))) = heads.pop() {
                if at != probe {
                    hits.push(RecallHit {
                        decision: name.clone(),
                        score,
                        retracted: design.decision(at).is_some_and(|d| d.retracted),
                    });
                    if hits.len() == limit {
                        break 'levels;
                    }
                }
                if let Some(&at) = runs[i].next() {
                    heads.push(head(at, i));
                }
            }
        }
        hits
    }
}

/// Σ of the smaller weight over the features two signatures share.
fn shared_weight(a: &[(Feature, u32)], b: &[(Feature, u32)]) -> u64 {
    let (mut i, mut j, mut sum) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                sum += u64::from(a[i].1.min(b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

impl Gkbms {
    /// [`recall_similar`] at the live head.
    pub fn recall_similar(&self, name: &str, limit: usize) -> GkbmsResult<Vec<RecallHit>> {
        recall_similar(self.kb.snapshot(), &self.design, name, limit)
    }
}

/// Ranks the decisions of `design`, the index captured with `snap`'s
/// store, by structural similarity with `name` — same class, dimension,
/// tool, input/output class shape and discharge shape count toward the
/// score; instance names never do. Returns at most `limit` hits with
/// nonzero score, best first; the queried decision itself is excluded.
/// Retracted precedents are reported with their flag set, not filtered.
pub fn recall_similar(
    snap: Snapshot<'_>,
    design: &DesignIndex,
    name: &str,
    limit: usize,
) -> GkbmsResult<Vec<RecallHit>> {
    let probe = (design.ordinal(snap.store(), name))
        .ok_or_else(|| GkbmsError::Unknown(format!("decision `{name}`")))?;
    let hits = design.recall.similar(probe, limit, design);
    obs::counter!(
        "gkbms_recall_queries_total",
        "Structure-similarity recall queries answered"
    )
    .inc();
    obs::counter!(
        "gkbms_recall_signatures_scored_total",
        "Distinct decision signatures scored by recall queries"
    )
    .add(design.recall.groups.len() as u64);
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionClass;
    use crate::metamodel::kernel;
    use crate::synth::{self, SynthConfig};
    use crate::system::tests::scenario_gkbms;
    use crate::system::DecisionRequest;

    fn corpus() -> Gkbms {
        let mut g = Gkbms::new().unwrap();
        synth::generate_into(
            &mut g,
            &SynthConfig {
                seed: 11,
                decisions: 40,
                retraction_rate: 0.15,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        g
    }

    /// The linear scan the index replaced: a string-keyed feature bag
    /// per record, weighted Jaccard against every record, sort.
    fn scan(g: &Gkbms, name: &str, limit: usize) -> Vec<RecallHit> {
        fn bag(g: &Gkbms, r: &DecisionRecord) -> HashMap<String, f64> {
            let mut bag: HashMap<String, f64> = HashMap::new();
            let mut add = |k: String, w: f64| *bag.entry(k).or_insert(0.0) += w;
            add(format!("class:{}", r.class), 3.0);
            if let Some(dc) = g.reader().class_of(r) {
                add(format!("dim:{}", dc.dimension), 2.0);
            }
            if let Some(t) = &r.tool {
                add(format!("tool:{t}"), 2.0);
            }
            add(format!("inputs:{}", r.inputs.len()), 1.0);
            for c in &r.output_classes {
                add(format!("out:{c}"), 1.0);
            }
            for d in &r.discharges {
                let (kind, obligation) = match d {
                    Discharge::Formal { obligation } => ("formal", obligation),
                    Discharge::Signature { obligation, .. } => ("signed", obligation),
                };
                add(format!("sig:{kind}:{obligation}"), 1.0);
            }
            bag
        }
        fn weighted_jaccard(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
            let mut min_sum = 0.0;
            let mut max_sum = 0.0;
            for (k, &wa) in a {
                let wb = b.get(k).copied().unwrap_or(0.0);
                min_sum += wa.min(wb);
                max_sum += wa.max(wb);
            }
            for (k, &wb) in b {
                if !a.contains_key(k) {
                    max_sum += wb;
                }
            }
            if max_sum == 0.0 {
                0.0
            } else {
                min_sum / max_sum
            }
        }
        let probe = bag(g, &g.record(name).unwrap());
        let mut hits: Vec<RecallHit> = (g.records().iter())
            .filter(|r| r.name != name)
            .map(|r| RecallHit {
                decision: r.name.clone(),
                score: weighted_jaccard(&probe, &bag(g, &r)),
                retracted: r.retracted,
            })
            .filter(|h| h.score > 0.0)
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.decision.cmp(&b.decision))
        });
        hits.truncate(limit);
        hits
    }

    /// `(decision, score bits, retracted)`: what two answers must share.
    fn rows(hits: &[RecallHit]) -> Vec<(String, u64, bool)> {
        let row = |h: &RecallHit| (h.decision.clone(), h.score.to_bits(), h.retracted);
        hits.iter().map(row).collect()
    }

    /// Every record as a probe, at several limits, equals the scan.
    fn assert_matches_scan(g: &Gkbms) {
        let n = g.records().len();
        for r in g.records().iter() {
            for limit in [0, 1, 2, 5, n.saturating_sub(1), usize::MAX] {
                let got = g.recall_similar(&r.name, limit).unwrap();
                assert_eq!(
                    rows(&got),
                    rows(&scan(g, &r.name, limit)),
                    "{} at {limit}",
                    r.name
                );
            }
        }
    }

    /// The scenario's classes plus three refinement classes — `DecPlain`
    /// with no obligation, `DecFormal` with an evaluable one and
    /// `DecSigned` with a prose one — over six registered relations.
    fn hand_built() -> Gkbms {
        let mut g = scenario_gkbms();
        for (class, obligation) in [
            ("DecPlain", None),
            ("DecFormal", Some("DBPL_Rel in DesignObject")),
            ("DecSigned", Some("prose only")),
        ] {
            let mut dc = DecisionClass::new(class, DecisionDimension::Refinement)
                .from_classes(&[kernel::DBPL_REL])
                .to_classes(&[kernel::DBPL_REL, kernel::DBPL_SELECTOR]);
            if let Some(statement) = obligation {
                dc = dc.obligation("self-holds", statement);
            }
            g.define_decision_class(dc).unwrap();
        }
        for r in ["R1", "R2", "R3", "R4", "R5", "R6"] {
            g.register_object(r, kernel::DBPL_REL, "src").unwrap();
        }
        g
    }

    fn exec(g: &mut Gkbms, class: &str, name: &str, input: &str, outputs: &[&str]) {
        exec_with(
            g,
            DecisionRequest::new(class, name, "dev").input(input),
            outputs,
        );
    }

    /// Executes `req` with one output of each class in `outputs`.
    fn exec_with(g: &mut Gkbms, mut req: DecisionRequest, outputs: &[&str]) {
        for (k, class) in outputs.iter().enumerate() {
            let name = format!("{}o{k}", req.name);
            req = req.output(&name, class);
        }
        g.execute(req).unwrap();
    }

    fn score_of(hits: &[RecallHit], name: &str) -> f64 {
        hits.iter().find(|h| h.decision == name).unwrap().score
    }

    #[test]
    fn unknown_probe_is_an_error() {
        let g = corpus();
        assert!(g.recall_similar("nope", 5).is_err());
    }

    #[test]
    fn same_class_decisions_rank_first() {
        let g = corpus();
        let probe = &g
            .records()
            .iter()
            .find(|r| r.class == synth::names::NORMALIZE)
            .expect("corpus has a normalization")
            .name;
        let hits = g.recall_similar(probe, 5).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.len() <= 5);
        // Best hit shares the decision class.
        let best = g.record(&hits[0].decision).unwrap();
        assert_eq!(best.class, synth::names::NORMALIZE);
        // Scores are in (0, 1], descending.
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        assert!(hits[0].score > 0.0 && hits[0].score <= 1.0);
        // The probe never recalls itself.
        assert!(hits.iter().all(|h| &h.decision != probe));
    }

    #[test]
    fn retracted_precedents_are_recalled_and_flagged() {
        let g = corpus();
        let retracted = g
            .records()
            .iter()
            .find(|r| r.retracted)
            .expect("corpus has retractions")
            .name
            .clone();
        // A retracted decision can still be used as a probe...
        let hits = g.recall_similar(&retracted, 10).unwrap();
        assert!(!hits.is_empty());
        // ...and shows up as a flagged hit for a live same-class probe.
        let class = g.record(&retracted).unwrap().class.clone();
        let live = g
            .records()
            .iter()
            .find(|r| r.class == class && !r.retracted && r.name != retracted);
        if let Some(live) = live {
            let hits = g.recall_similar(&live.name, usize::MAX).unwrap();
            let hit = hits.iter().find(|h| h.decision == retracted);
            assert!(hit.is_some_and(|h| h.retracted));
        }
    }

    #[test]
    fn identical_structure_scores_one() {
        let g = corpus();
        // Two distribute decisions with the same fanout have identical
        // signatures.
        let decisions = g.records();
        let mut distribs = decisions
            .iter()
            .filter(|r| r.class == synth::names::DISTRIBUTE || r.class == synth::names::MOVE_DOWN);
        let a = distribs.next().expect("mapping decisions exist");
        let twin = decisions
            .iter()
            .find(|r| {
                r.name != a.name && r.class == a.class && r.output_classes == a.output_classes
            })
            .expect("the mix produces structural twins");
        let hits = g.recall_similar(&a.name, usize::MAX).unwrap();
        let hit = hits.iter().find(|h| h.decision == twin.name).unwrap();
        assert!((hit.score - 1.0).abs() < 1e-9, "twin scored {}", hit.score);
    }

    #[test]
    fn the_synthetic_corpus_answers_like_the_scan() {
        assert_matches_scan(&corpus());
    }

    #[test]
    fn two_outputs_of_one_class_weigh_two() {
        let mut g = hand_built();
        let rel = kernel::DBPL_REL;
        exec(&mut g, "DBPL_MappingDec", "two", "R1", &[rel, rel]);
        exec(&mut g, "DBPL_MappingDec", "one", "R2", &[rel]);
        exec(&mut g, "DBPL_MappingDec", "three", "R3", &[rel, rel, rel]);
        // class 3 + dim 2 + inputs 1 + out 2 = 8 against 7 and 9.
        let hits = g.recall_similar("two", usize::MAX).unwrap();
        assert_eq!(score_of(&hits, "one"), 7.0 / 8.0);
        assert_eq!(score_of(&hits, "three"), 8.0 / 9.0);
        assert_eq!(hits[0].decision, "three");
        assert_matches_scan(&g);
    }

    #[test]
    fn formal_and_signed_discharges_of_one_obligation_differ() {
        let mut g = hand_built();
        let (rel, sel) = (kernel::DBPL_REL, kernel::DBPL_SELECTOR);
        let formal = |name: &str, input: &str| {
            DecisionRequest::new("DecFormal", name, "dev")
                .input(input)
                .discharge(Discharge::Formal {
                    obligation: "self-holds".into(),
                })
        };
        let signed = |class: &str, name: &str, input: &str| {
            DecisionRequest::new(class, name, "dev")
                .input(input)
                .discharge(Discharge::Signature {
                    obligation: "self-holds".into(),
                    by: "dev".into(),
                })
        };
        exec_with(&mut g, formal("f1", "R1"), &[rel]);
        exec_with(&mut g, formal("f2", "R2"), &[rel]);
        exec_with(&mut g, signed("DecFormal", "s1", "R3"), &[rel]);
        exec_with(&mut g, signed("DecSigned", "s2", "R4"), &[sel]);
        let hits = g.recall_similar("f1", usize::MAX).unwrap();
        // 8 shared of 8; 7 shared, the discharges differ (8 + 8 − 7).
        assert_eq!(score_of(&hits, "f2"), 1.0);
        assert_eq!(score_of(&hits, "s1"), 7.0 / 9.0);
        // Only dimension and inputs in common: 3 of 8 + 8 − 3.
        assert_eq!(score_of(&hits, "s2"), 3.0 / 13.0);
        assert_matches_scan(&g);
    }

    #[test]
    fn a_decision_without_a_tool_lacks_only_the_tool() {
        let mut g = hand_built();
        let sel = kernel::DBPL_SELECTOR;
        let req = |name: &str, input: &str| {
            DecisionRequest::new("DBPL_MappingDec", name, "dev").input(input)
        };
        exec_with(&mut g, req("tooled", "R1").with_tool("DBPLEditor"), &[sel]);
        exec_with(&mut g, req("manual", "R2"), &[sel]);
        let hits = g.recall_similar("manual", usize::MAX).unwrap();
        // class 3 + dim 2 + inputs 1 + out 1 = 7 of 9.
        assert_eq!(
            rows(&hits),
            [("tooled".to_string(), (7.0f64 / 9.0).to_bits(), false)]
        );
        assert_matches_scan(&g);
    }

    #[test]
    fn equal_scores_from_several_groups_merge_by_name() {
        let mut g = hand_built();
        let (rel, sel) = (kernel::DBPL_REL, kernel::DBPL_SELECTOR);
        let cons = kernel::DBPL_CONSTRUCTOR;
        exec(&mut g, "DBPL_MappingDec", "p", "R1", &[rel]);
        // Two groups one output class away from `p` (6 shared of 7 + 7
        // − 6), their members interleaved by name, and a third group
        // that shares only the input count.
        exec(&mut g, "DBPL_MappingDec", "b_sel", "R2", &[sel]);
        exec(&mut g, "DBPL_MappingDec", "d_sel", "R3", &[sel]);
        exec(&mut g, "DBPL_MappingDec", "a_cons", "R4", &[cons]);
        exec(&mut g, "DBPL_MappingDec", "c_cons", "R5", &[cons]);
        exec(&mut g, "DecPlain", "e_far", "R6", &[sel]);
        let hits = g.recall_similar("p", usize::MAX).unwrap();
        let names: Vec<&str> = hits.iter().map(|h| h.decision.as_str()).collect();
        assert_eq!(names, ["a_cons", "b_sel", "c_cons", "d_sel", "e_far"]);
        assert!(hits[..4].iter().all(|h| h.score == 6.0 / 8.0));
        assert_eq!(hits[4].score, 1.0 / 13.0);
        let top3 = g.recall_similar("p", 3).unwrap();
        assert_eq!(rows(&top3), rows(&hits[..3]));
        assert_eq!(g.design.recall.groups.len(), 4);
        assert_matches_scan(&g);
    }

    #[test]
    fn a_probe_alone_in_its_group_recalls_the_others() {
        let mut g = hand_built();
        let rel = kernel::DBPL_REL;
        exec(&mut g, "DBPL_MappingDec", "twin1", "R1", &[rel]);
        exec(&mut g, "DBPL_MappingDec", "twin2", "R2", &[rel]);
        exec(&mut g, "DecPlain", "alone", "R3", &[rel]);
        let recall = &g.design.recall;
        let alone = g.records().get(g.kb(), "alone").unwrap().group;
        assert_eq!(recall.groups[alone].members.len(), 1);
        let hits = g.recall_similar("alone", usize::MAX).unwrap();
        // inputs 1 + out 1 shared; 2 of 7 + 7 − 2.
        let want = (2.0f64 / 12.0).to_bits();
        let row = |d: &str| (d.to_string(), want, false);
        assert_eq!(rows(&hits), [row("twin1"), row("twin2")]);
        g.retract_decision("twin1").unwrap();
        assert!(g.recall_similar("alone", 1).unwrap()[0].retracted);
        assert_matches_scan(&g);
    }
}
