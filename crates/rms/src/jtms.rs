//! A justification-based truth maintenance system \[DOYL79\].
//!
//! Nodes carry IN/OUT labels. A justification `(in-list, out-list) ⊢
//! consequent` supports its consequent when every in-list node is IN
//! and every out-list node is OUT. Assumptions are nodes believed when
//! *enabled*. Labels are computed by grounded fixpoint from enabled
//! assumptions and premise justifications; retracting an assumption
//! (selective backtracking, fig 2-4) relabels the network, taking all
//! its consequences OUT in one propagation.
//!
//! Contradiction handling: when a contradiction node comes IN,
//! [`Jtms::backtrack`] performs dependency-directed backtracking —
//! finds the assumptions underlying the contradiction's support, picks
//! the most recent as culprit, retracts it and records the set as a
//! nogood so the same combination is not re-enabled blindly.

use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Identifier of a TMS node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JtmsNodeId(pub u32);

/// Belief status of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Believed: has well-founded support.
    In,
    /// Not believed.
    Out,
}

#[derive(Debug, Clone)]
struct Justification {
    in_list: Vec<JtmsNodeId>,
    out_list: Vec<JtmsNodeId>,
    consequent: JtmsNodeId,
}

#[derive(Debug, Clone)]
struct Node {
    datum: String,
    label: Label,
    is_assumption: bool,
    enabled: bool,
    is_contradiction: bool,
}

/// The justification-based TMS.
#[derive(Debug, Default)]
pub struct Jtms {
    nodes: Vec<Node>,
    justs: Vec<Justification>,
    /// For each node, the justifications it appears in as an in-list
    /// antecedent (one entry per occurrence) — the worklist fan-out.
    in_index: Vec<Vec<usize>>,
    /// Whether any justification carries a non-empty out-list. While
    /// false the network is monotone and labeling is incremental; the
    /// first non-monotonic justification switches every later change
    /// to the full grounded fixpoint.
    has_out_lists: bool,
    /// Recorded nogoods: assumption sets that led to contradictions.
    nogoods: Vec<Vec<JtmsNodeId>>,
    /// Statistics: label propagation rounds (for the E-3 bench).
    pub propagations: u64,
}

impl Jtms {
    /// An empty network.
    pub fn new() -> Self {
        Jtms::default()
    }

    /// Creates an ordinary node (OUT until justified).
    pub fn node(&mut self, datum: impl Into<String>) -> JtmsNodeId {
        let id = JtmsNodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            datum: datum.into(),
            label: Label::Out,
            is_assumption: false,
            enabled: false,
            is_contradiction: false,
        });
        self.in_index.push(Vec::new());
        id
    }

    /// Creates an assumption node, initially enabled. A fresh node is
    /// not yet referenced by any justification, so enabling it cannot
    /// affect other labels: IN directly, no propagation.
    pub fn assumption(&mut self, datum: impl Into<String>) -> JtmsNodeId {
        let id = self.node(datum);
        self.nodes[id.0 as usize].is_assumption = true;
        self.nodes[id.0 as usize].enabled = true;
        self.nodes[id.0 as usize].label = Label::In;
        id
    }

    /// Creates a contradiction node: when IN, the state is inconsistent.
    pub fn contradiction(&mut self, datum: impl Into<String>) -> JtmsNodeId {
        let id = self.node(datum);
        self.nodes[id.0 as usize].is_contradiction = true;
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node's datum.
    pub fn datum(&self, id: JtmsNodeId) -> &str {
        &self.nodes[id.0 as usize].datum
    }

    /// Current label.
    pub fn label(&self, id: JtmsNodeId) -> Label {
        self.nodes[id.0 as usize].label
    }

    /// True if the node is currently IN.
    pub fn is_in(&self, id: JtmsNodeId) -> bool {
        self.label(id) == Label::In
    }

    /// Adds a justification: `consequent` holds if all of `in_list` are
    /// IN and all of `out_list` are OUT. An empty justification makes
    /// the consequent a premise.
    pub fn justify(
        &mut self,
        consequent: JtmsNodeId,
        in_list: &[JtmsNodeId],
        out_list: &[JtmsNodeId],
    ) {
        let ji = self.justs.len();
        self.justs.push(Justification {
            in_list: in_list.to_vec(),
            out_list: out_list.to_vec(),
            consequent,
        });
        for n in in_list {
            self.in_index[n.0 as usize].push(ji);
        }
        if !out_list.is_empty() {
            self.has_out_lists = true;
        }
        if self.has_out_lists {
            self.relabel();
        } else {
            // Monotone network: adding a justification can only turn
            // labels IN, starting from the one just added.
            self.propagations += 1;
            if self.justs[ji]
                .in_list
                .iter()
                .all(|n| self.nodes[n.0 as usize].label == Label::In)
            {
                self.set_in_and_cascade(consequent);
            }
        }
    }

    /// Enables a (previously retracted) assumption.
    pub fn enable(&mut self, id: JtmsNodeId) {
        let n = &mut self.nodes[id.0 as usize];
        debug_assert!(n.is_assumption, "enable on non-assumption");
        n.enabled = true;
        if self.has_out_lists {
            self.relabel();
        } else {
            self.propagations += 1;
            self.set_in_and_cascade(id);
        }
    }

    /// Retracts an assumption: the selective-backtracking primitive.
    /// Returns the nodes it took from IN to OUT.
    pub fn retract(&mut self, id: JtmsNodeId) -> Vec<JtmsNodeId> {
        self.retract_all([id])
    }

    /// Retracts `ids` in one labelling (none if none of them was enabled):
    /// the union of what retracting them one by one would take OUT.
    pub fn retract_all(&mut self, ids: impl IntoIterator<Item = JtmsNodeId>) -> Vec<JtmsNodeId> {
        let mut any = false;
        for id in ids {
            let n = &mut self.nodes[id.0 as usize];
            debug_assert!(n.is_assumption, "retract on non-assumption");
            any |= std::mem::take(&mut n.enabled);
        }
        if !any {
            Vec::new()
        } else if self.has_out_lists {
            self.relabel()
        } else {
            // Labels only shrink; one grounded closure from scratch is
            // O(V + E) with the antecedent counters.
            self.relabel_monotone()
        }
    }

    /// Installs `labels`; returns the nodes that went from IN to OUT.
    fn install(&mut self, labels: &[Label]) -> Vec<JtmsNodeId> {
        let mut out = Vec::new();
        for (i, (n, &l)) in self.nodes.iter_mut().zip(labels).enumerate() {
            if n.label == Label::In && l == Label::Out {
                out.push(JtmsNodeId(i as u32));
            }
            n.label = l;
        }
        out
    }

    /// Sets `id` IN and closes monotonically over the justifications it
    /// feeds (worklist over `in_index`). Only sound while the network
    /// has no out-lists.
    fn set_in_and_cascade(&mut self, id: JtmsNodeId) {
        if self.nodes[id.0 as usize].label == Label::In {
            return;
        }
        self.nodes[id.0 as usize].label = Label::In;
        let mut queue = VecDeque::from([id]);
        while let Some(n) = queue.pop_front() {
            for i in 0..self.in_index[n.0 as usize].len() {
                let ji = self.in_index[n.0 as usize][i];
                let c = self.justs[ji].consequent;
                if self.nodes[c.0 as usize].label == Label::In {
                    continue;
                }
                if self.justs[ji]
                    .in_list
                    .iter()
                    .all(|m| self.nodes[m.0 as usize].label == Label::In)
                {
                    self.nodes[c.0 as usize].label = Label::In;
                    queue.push_back(c);
                }
            }
        }
    }

    /// Single-pass grounded closure for monotone (no out-list)
    /// networks: seed from enabled assumptions and zero-antecedent
    /// justifications, then drain a worklist with per-justification
    /// unsatisfied-antecedent counters. O(V + E).
    fn relabel_monotone(&mut self) -> Vec<JtmsNodeId> {
        self.propagations += 1;
        let mut counts: Vec<usize> = self.justs.iter().map(|j| j.in_list.len()).collect();
        let mut label = vec![Label::Out; self.nodes.len()];
        let mut queue: VecDeque<JtmsNodeId> = VecDeque::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.is_assumption && n.enabled {
                label[i] = Label::In;
                queue.push_back(JtmsNodeId(i as u32));
            }
        }
        for (ji, j) in self.justs.iter().enumerate() {
            if counts[ji] == 0 && label[j.consequent.0 as usize] == Label::Out {
                label[j.consequent.0 as usize] = Label::In;
                queue.push_back(j.consequent);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &ji in &self.in_index[n.0 as usize] {
                counts[ji] -= 1;
                if counts[ji] == 0 {
                    let c = self.justs[ji].consequent;
                    if label[c.0 as usize] == Label::Out {
                        label[c.0 as usize] = Label::In;
                        queue.push_back(c);
                    }
                }
            }
        }
        self.install(&label)
    }

    /// Grounded relabeling: start from enabled assumptions, then close
    /// monotonically under justifications, re-checking out-lists until
    /// a fixpoint of the whole two-phase step is reached. Networks with
    /// odd non-monotonic loops are resolved towards OUT (skeptically).
    fn relabel(&mut self) -> Vec<JtmsNodeId> {
        // Iterate outer phase because out-list conditions depend on the
        // final labels: each outer round recomputes the grounded closure
        // assuming the previous round's labels for out-list tests.
        let mut prev: Vec<Label> = self.nodes.iter().map(|n| n.label).collect();
        for _round in 0..self.nodes.len().max(2) {
            self.propagations += 1;
            let mut label: Vec<Label> = self
                .nodes
                .iter()
                .map(|n| {
                    if n.is_assumption && n.enabled {
                        Label::In
                    } else {
                        Label::Out
                    }
                })
                .collect();
            // Monotone closure under justifications, with out-list
            // checked against the *previous* stable labels.
            let mut changed = true;
            while changed {
                changed = false;
                for j in &self.justs {
                    if label[j.consequent.0 as usize] == Label::In {
                        continue;
                    }
                    let ins_ok = j.in_list.iter().all(|n| label[n.0 as usize] == Label::In);
                    let outs_ok = j.out_list.iter().all(|n| prev[n.0 as usize] == Label::Out);
                    if ins_ok && outs_ok {
                        label[j.consequent.0 as usize] = Label::In;
                        changed = true;
                    }
                }
            }
            if label == prev {
                break;
            }
            prev = label;
        }
        self.install(&prev)
    }

    /// The enabled assumptions underlying `id`'s current support
    /// (transitively, through IN justifications).
    pub fn supporting_assumptions(&self, id: JtmsNodeId) -> Vec<JtmsNodeId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            let n = &self.nodes[cur.0 as usize];
            if n.is_assumption && n.enabled {
                out.push(cur);
                continue;
            }
            // Any satisfied justification contributes its in-list.
            for j in self.justs.iter().filter(|j| j.consequent == cur) {
                let ins_ok = j.in_list.iter().all(|&m| self.is_in(m));
                let outs_ok = j.out_list.iter().all(|&m| !self.is_in(m));
                if ins_ok && outs_ok {
                    stack.extend(j.in_list.iter().copied());
                }
            }
        }
        out.sort();
        out
    }

    /// All IN contradiction nodes.
    pub fn active_contradictions(&self) -> Vec<JtmsNodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_contradiction && n.label == Label::In)
            .map(|(i, _)| JtmsNodeId(i as u32))
            .collect()
    }

    /// Dependency-directed backtracking: while a contradiction is IN,
    /// find its supporting assumptions, record them as a nogood, and
    /// retract the most recently created one. Returns the retracted
    /// culprits in order. Gives up (returning what it did) if a
    /// contradiction has no assumption support — then it is premise-
    /// level and not resolvable by retraction.
    pub fn backtrack(&mut self) -> Vec<JtmsNodeId> {
        let mut culprits = Vec::new();
        while let Some(&contra) = self.active_contradictions().first() {
            let support = self.supporting_assumptions(contra);
            let Some(&culprit) = support.last() else {
                break; // premise contradiction: cannot retract anything
            };
            self.nogoods.push(support.clone());
            self.retract(culprit);
            culprits.push(culprit);
        }
        culprits
    }

    /// The recorded nogoods.
    pub fn nogoods(&self) -> &[Vec<JtmsNodeId>] {
        &self.nogoods
    }

    /// True if enabling exactly `assumptions` would repeat a recorded
    /// nogood (i.e. some nogood is a subset of it).
    pub fn violates_nogood(&self, assumptions: &[JtmsNodeId]) -> bool {
        let set: HashSet<_> = assumptions.iter().collect();
        self.nogoods
            .iter()
            .any(|ng| ng.iter().all(|a| set.contains(a)))
    }

    /// All IN nodes, for inspection.
    pub fn in_nodes(&self) -> Vec<JtmsNodeId> {
        (0..self.nodes.len() as u32)
            .map(JtmsNodeId)
            .filter(|&n| self.is_in(n))
            .collect()
    }
}

impl fmt::Display for Jtms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(
                f,
                "{i:4} [{}] {}{}",
                if n.label == Label::In { "IN " } else { "OUT" },
                n.datum,
                if n.is_assumption {
                    if n.enabled {
                        " (assumption)"
                    } else {
                        " (retracted)"
                    }
                } else if n.is_contradiction {
                    " (contradiction)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn premise_justification_makes_node_in() {
        let mut tms = Jtms::new();
        let n = tms.node("fact");
        assert!(!tms.is_in(n));
        tms.justify(n, &[], &[]);
        assert!(tms.is_in(n));
    }

    #[test]
    fn chain_propagation() {
        let mut tms = Jtms::new();
        let a = tms.assumption("a");
        let b = tms.node("b");
        let c = tms.node("c");
        tms.justify(b, &[a], &[]);
        tms.justify(c, &[b], &[]);
        assert!(tms.is_in(c));
        tms.retract(a);
        assert!(!tms.is_in(b));
        assert!(!tms.is_in(c));
        tms.enable(a);
        assert!(tms.is_in(c));
    }

    #[test]
    fn conjunction_needs_all_antecedents() {
        let mut tms = Jtms::new();
        let a = tms.assumption("a");
        let b = tms.assumption("b");
        let c = tms.node("c");
        tms.justify(c, &[a, b], &[]);
        assert!(tms.is_in(c));
        tms.retract(b);
        assert!(!tms.is_in(c));
    }

    #[test]
    fn disjunction_multiple_justifications() {
        let mut tms = Jtms::new();
        let a = tms.assumption("a");
        let b = tms.assumption("b");
        let c = tms.node("c");
        tms.justify(c, &[a], &[]);
        tms.justify(c, &[b], &[]);
        tms.retract(a);
        assert!(tms.is_in(c), "second justification still supports c");
        tms.retract(b);
        assert!(!tms.is_in(c));
    }

    #[test]
    fn no_circular_self_support() {
        // b ⊢ c and c ⊢ b must not levitate without ground support.
        let mut tms = Jtms::new();
        let b = tms.node("b");
        let c = tms.node("c");
        tms.justify(b, &[c], &[]);
        tms.justify(c, &[b], &[]);
        assert!(!tms.is_in(b));
        assert!(!tms.is_in(c));
        // Grounding via an assumption brings both in.
        let a = tms.assumption("a");
        tms.justify(b, &[a], &[]);
        assert!(tms.is_in(b) && tms.is_in(c));
    }

    #[test]
    fn nonmonotonic_justification() {
        // default: "use surrogate keys unless associative keys chosen".
        let mut tms = Jtms::new();
        let assoc = tms.assumption("associative-keys");
        tms.retract(assoc);
        let surrogate = tms.node("surrogate-keys");
        tms.justify(surrogate, &[], &[assoc]);
        assert!(tms.is_in(surrogate), "default holds while assoc is OUT");
        tms.enable(assoc);
        assert!(!tms.is_in(surrogate), "default defeated");
        tms.retract(assoc);
        assert!(tms.is_in(surrogate), "default reinstated");
    }

    #[test]
    fn backtracking_retracts_latest_culprit() {
        // The fig 2-4 situation: the key decision (later assumption)
        // conflicts with the Minutes mapping.
        let mut tms = Jtms::new();
        let move_down = tms.assumption("move-down-mapping");
        let assoc_keys = tms.assumption("associative-keys");
        let minutes = tms.assumption("map-minutes");
        let contra = tms.contradiction("key-not-unique");
        tms.justify(contra, &[assoc_keys, minutes], &[]);
        assert_eq!(tms.active_contradictions().len(), 1);
        let culprits = tms.backtrack();
        assert_eq!(culprits, vec![minutes], "latest assumption retracted");
        assert!(tms.active_contradictions().is_empty());
        assert!(tms.is_in(move_down), "unrelated decision survives");
        assert!(tms.is_in(assoc_keys));
        // The nogood is recorded.
        assert_eq!(tms.nogoods().len(), 1);
        assert!(tms.violates_nogood(&[assoc_keys, minutes]));
        assert!(!tms.violates_nogood(&[assoc_keys]));
    }

    #[test]
    fn backtracking_cascades_until_consistent() {
        let mut tms = Jtms::new();
        let a = tms.assumption("a");
        let b = tms.assumption("b");
        let c1 = tms.contradiction("c1");
        let c2 = tms.contradiction("c2");
        tms.justify(c1, &[b], &[]);
        tms.justify(c2, &[a], &[]);
        let culprits = tms.backtrack();
        assert_eq!(culprits.len(), 2);
        assert!(tms.active_contradictions().is_empty());
    }

    #[test]
    fn premise_contradiction_unresolvable() {
        let mut tms = Jtms::new();
        let contra = tms.contradiction("hard");
        tms.justify(contra, &[], &[]);
        let culprits = tms.backtrack();
        assert!(culprits.is_empty());
        assert_eq!(tms.active_contradictions().len(), 1);
    }

    #[test]
    fn supporting_assumptions_are_transitive() {
        let mut tms = Jtms::new();
        let a1 = tms.assumption("a1");
        let a2 = tms.assumption("a2");
        let mid = tms.node("mid");
        let top = tms.node("top");
        tms.justify(mid, &[a1], &[]);
        tms.justify(top, &[mid, a2], &[]);
        assert_eq!(tms.supporting_assumptions(top), vec![a1, a2]);
    }

    #[test]
    fn retract_reports_exactly_the_in_to_out_nodes() {
        // a ⊢ b ⊢ c; d has a second support e; f never was IN.
        for out_lists in [false, true] {
            let mut tms = Jtms::new();
            let a = tms.assumption("a");
            let e = tms.assumption("e");
            let [b, c, d, f] = ["b", "c", "d", "f"].map(|n| tms.node(n));
            tms.justify(b, &[a], &[]);
            tms.justify(c, &[b], &[]);
            tms.justify(d, &[b], &[]);
            tms.justify(d, &[e], &[]);
            tms.justify(f, &[c, d], &[e][..usize::from(out_lists)]);
            assert_eq!(tms.has_out_lists, out_lists);
            assert_eq!(tms.is_in(f), !out_lists);
            let before = tms.in_nodes();
            let out = tms.retract(a);
            let mut expected = vec![a, b, c];
            expected.extend((!out_lists).then_some(f));
            assert_eq!(out, expected, "d keeps its support through e");
            let after = tms.in_nodes();
            let diff: Vec<_> = before.into_iter().filter(|n| !after.contains(n)).collect();
            assert_eq!(out, diff, "out_lists = {out_lists}");
            let ticks = tms.propagations;
            assert!(tms.retract(a).is_empty(), "already disabled");
            assert_eq!(tms.propagations, ticks, "and no labelling for it");
        }
    }

    #[test]
    fn retract_all_is_the_union_of_sequential_retracts_in_one_labelling() {
        let build = || {
            let mut tms = Jtms::new();
            let assumptions = ["a1", "a2", "a3"].map(|n| tms.assumption(n));
            let [x, y, z] = ["x", "y", "z"].map(|n| tms.node(n));
            tms.justify(x, &[assumptions[0]], &[]);
            tms.justify(x, &[assumptions[1]], &[]);
            tms.justify(y, &[x, assumptions[2]], &[]);
            tms.justify(z, &[assumptions[2]], &[]);
            (tms, assumptions)
        };
        let (mut one_by_one, [a1, a2, a3]) = build();
        let mut union: Vec<JtmsNodeId> = [a1, a2, a3]
            .iter()
            .flat_map(|&a| one_by_one.retract(a))
            .collect();
        union.sort();
        let (mut batch, _) = build();
        let ticks = batch.propagations;
        let mut out = batch.retract_all([a1, a2, a3]);
        out.sort();
        assert_eq!(out, union);
        assert_eq!(batch.propagations, ticks + 1);
        assert_eq!(batch.in_nodes(), one_by_one.in_nodes());
        assert!(batch.retract_all([]).is_empty());
        assert_eq!(batch.propagations, ticks + 1);
    }

    #[test]
    fn display_renders_every_node() {
        let mut tms = Jtms::new();
        tms.assumption("a");
        let n = tms.node("b");
        tms.contradiction("c");
        tms.justify(n, &[], &[]);
        let s = tms.to_string();
        assert!(s.contains("(assumption)"));
        assert!(s.contains("(contradiction)"));
        assert!(s.contains("[IN ] b"));
    }
}
