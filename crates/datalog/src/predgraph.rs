//! The predicate dependency graph of a program.
//!
//! Each rule `h :- b1, …, bn` contributes an edge `h → bi` per body
//! literal, flagged negative when the literal is negated. The graph is
//! the shared substrate of stratification (a program is stratifiable
//! iff no cycle passes through a negative edge) and of reachability
//! analyses such as dead-rule detection.

use crate::ast::Program;
use std::collections::{HashMap, HashSet, VecDeque};

/// A dependency edge from a rule head to one of its body predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Index of the body predicate in [`DepGraph::preds`].
    pub to: usize,
    /// Whether the body literal is negated.
    pub negated: bool,
}

/// The predicate dependency graph of a [`Program`].
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Every predicate mentioned by the program, in first-seen order.
    pub preds: Vec<String>,
    index: HashMap<String, usize>,
    /// Outgoing edges per predicate: `edges[h]` lists the body
    /// predicates the rules for `h` depend on.
    pub edges: Vec<Vec<DepEdge>>,
    /// Predicates that appear as a rule head (the IDB).
    pub defined: HashSet<usize>,
}

/// The strongly connected components of a [`DepGraph`], in dependency
/// order: every edge leaving a component points to a component at a
/// *smaller* index, so walking `comps` front to back visits each
/// predicate's dependencies before the predicate itself — the order
/// bottom-up analyses (signature inference, cardinality estimation,
/// incremental fingerprinting) want.
#[derive(Debug, Clone, Default)]
pub struct Sccs {
    /// The components: each is a list of predicate indices into
    /// [`DepGraph::preds`], sorted ascending for determinism.
    pub comps: Vec<Vec<usize>>,
    /// `comp_of[p]` is the index into `comps` of predicate `p`'s
    /// component.
    pub comp_of: Vec<usize>,
}

impl Sccs {
    /// Whether component `c` is recursive: more than one predicate, or
    /// a single predicate with a self-edge in `g`.
    pub fn is_recursive(&self, g: &DepGraph, c: usize) -> bool {
        let comp = &self.comps[c];
        comp.len() > 1 || g.edges[comp[0]].iter().any(|e| e.to == comp[0])
    }
}

impl DepGraph {
    /// Builds the dependency graph of `program`.
    pub fn of(program: &Program) -> Self {
        Self::of_rules(program.rules.iter())
    }

    /// Builds the dependency graph from borrowed rules, without
    /// requiring an owning [`Program`] (callers joining a large stored
    /// base with a small delta avoid cloning every rule).
    pub fn of_rules<'a>(rules: impl IntoIterator<Item = &'a crate::ast::Rule>) -> Self {
        let mut g = DepGraph::default();
        g.extend_rules(rules);
        g
    }

    /// Folds more rules into the graph. The result is identical to
    /// building from the concatenated rule sequence, so an incremental
    /// caller can keep the graph of a large stored base and extend a
    /// clone with the small delta under admission.
    pub fn extend_rules<'a>(&mut self, rules: impl IntoIterator<Item = &'a crate::ast::Rule>) {
        for r in rules {
            let h = self.intern(&r.head.pred);
            self.defined.insert(h);
            for l in &r.body {
                let b = self.intern(&l.atom.pred);
                let edge = DepEdge {
                    to: b,
                    negated: l.negated,
                };
                if !self.edges[h].contains(&edge) {
                    self.edges[h].push(edge);
                }
            }
        }
    }

    fn intern(&mut self, pred: &str) -> usize {
        if let Some(&i) = self.index.get(pred) {
            return i;
        }
        let i = self.preds.len();
        self.preds.push(pred.to_string());
        self.index.insert(pred.to_string(), i);
        self.edges.push(Vec::new());
        i
    }

    /// Index of `pred`, if the program mentions it.
    pub fn pred_index(&self, pred: &str) -> Option<usize> {
        self.index.get(pred).copied()
    }

    /// Name of the predicate at `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.preds[i]
    }

    /// The predicates reachable from `roots` by following dependency
    /// edges (a rule head reaches every predicate its body mentions).
    /// Roots unknown to the program are ignored.
    pub fn reachable_from<'a>(&self, roots: impl IntoIterator<Item = &'a str>) -> HashSet<usize> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<usize> = roots
            .into_iter()
            .filter_map(|r| self.pred_index(r))
            .collect();
        while let Some(p) = queue.pop_front() {
            if !seen.insert(p) {
                continue;
            }
            for e in &self.edges[p] {
                if !seen.contains(&e.to) {
                    queue.push_back(e.to);
                }
            }
        }
        seen
    }

    /// A cycle through at least one negative edge, if any: the witness
    /// that the program is not stratifiable. The returned path lists
    /// predicate names starting and ending on the same predicate, e.g.
    /// `["win", "win"]` for `win(X) :- move(X, Y), not win(Y).`
    pub fn negative_cycle(&self) -> Option<Vec<String>> {
        // For every negative edge u → v, a path v ⇝ u closes a cycle
        // through that edge. BFS keeps the witness short.
        for u in 0..self.preds.len() {
            for e in &self.edges[u] {
                if !e.negated {
                    continue;
                }
                if let Some(path) = self.path(e.to, u) {
                    let mut cycle = vec![self.preds[u].clone()];
                    cycle.extend(path.into_iter().map(|i| self.preds[i].clone()));
                    return Some(cycle);
                }
            }
        }
        None
    }

    /// The strongly connected components, via iterative Tarjan (deep
    /// rule chains must not overflow the stack). Components come out
    /// in dependency order — see [`Sccs`].
    pub fn sccs(&self) -> Sccs {
        let n = self.preds.len();
        const UNSEEN: usize = usize::MAX;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut comp_of = vec![0usize; n];
        let mut next_index = 0usize;
        // Explicit DFS frames: (node, next-edge cursor).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                if *cursor == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(e) = self.edges[v].get(*cursor) {
                    *cursor += 1;
                    let w = e.to;
                    if index[w] == UNSEEN {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                // v is finished: pop its frame, fold low into parent,
                // and emit a component if v is its root.
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    for &w in &comp {
                        comp_of[w] = comps.len();
                    }
                    comps.push(comp);
                }
            }
        }
        Sccs { comps, comp_of }
    }

    /// A cycle through at least one negative edge that stays inside
    /// the predicate set `within`, if any — the SCC-local form of
    /// [`DepGraph::negative_cycle`] (any cycle lies within one SCC, so
    /// per-component detection finds everything the global scan does).
    pub fn negative_cycle_within(&self, within: &HashSet<usize>) -> Option<Vec<String>> {
        let mut members: Vec<usize> = within.iter().copied().collect();
        members.sort_unstable();
        for u in members {
            for e in &self.edges[u] {
                if !e.negated || !within.contains(&e.to) {
                    continue;
                }
                if let Some(path) = self.path_within(e.to, u, within) {
                    let mut cycle = vec![self.preds[u].clone()];
                    cycle.extend(path.into_iter().map(|i| self.preds[i].clone()));
                    return Some(cycle);
                }
            }
        }
        None
    }

    /// BFS path from `from` to `to` restricted to `within`.
    fn path_within(&self, from: usize, to: usize, within: &HashSet<usize>) -> Option<Vec<usize>> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen = HashSet::from([from]);
        while let Some(p) = queue.pop_front() {
            if p == to {
                let mut path = vec![p];
                let mut cur = p;
                while cur != from {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for e in &self.edges[p] {
                if within.contains(&e.to) && seen.insert(e.to) {
                    parent.insert(e.to, p);
                    queue.push_back(e.to);
                }
            }
        }
        None
    }

    /// BFS path from `from` to `to` (inclusive), if one exists.
    fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen = HashSet::from([from]);
        while let Some(p) = queue.pop_front() {
            if p == to {
                let mut path = vec![p];
                let mut cur = p;
                while cur != from {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for e in &self.edges[p] {
                if seen.insert(e.to) {
                    parent.insert(e.to, p);
                    queue.push_back(e.to);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_preds_and_edges() {
        let p = Program::parse(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        let g = DepGraph::of(&p);
        assert_eq!(g.preds, vec!["path", "edge"]);
        let path = g.pred_index("path").unwrap();
        let edge = g.pred_index("edge").unwrap();
        assert!(g.defined.contains(&path));
        assert!(!g.defined.contains(&edge));
        // Duplicate edges are collapsed.
        assert_eq!(g.edges[path].len(), 2);
    }

    #[test]
    fn reachability_follows_rule_bodies() {
        let p = Program::parse(
            "a(X) :- b(X).\n\
             b(X) :- c(X).\n\
             orphan(X) :- d(X).",
        )
        .unwrap();
        let g = DepGraph::of(&p);
        let reach = g.reachable_from(["a"]);
        assert!(reach.contains(&g.pred_index("c").unwrap()));
        assert!(!reach.contains(&g.pred_index("orphan").unwrap()));
        assert!(g.reachable_from(["nosuch"]).is_empty());
    }

    #[test]
    fn self_negation_yields_unit_cycle() {
        let p = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        let g = DepGraph::of(&p);
        assert_eq!(g.negative_cycle().unwrap(), vec!["win", "win"]);
    }

    #[test]
    fn mutual_negation_yields_witness_path() {
        let p = Program::parse(
            "p(X) :- base(X), not q(X).\n\
             q(X) :- base(X), not p(X).",
        )
        .unwrap();
        let g = DepGraph::of(&p);
        let cycle = g.negative_cycle().unwrap();
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3, "cycle {cycle:?} should pass through both");
    }

    #[test]
    fn sccs_come_out_in_dependency_order() {
        let p = Program::parse(
            "a(X) :- b(X), c(X).\n\
             b(X) :- a(X).\n\
             c(X) :- d(X).\n\
             d(X) :- base(X).",
        )
        .unwrap();
        let g = DepGraph::of(&p);
        let s = g.sccs();
        let a = g.pred_index("a").unwrap();
        let b = g.pred_index("b").unwrap();
        assert_eq!(s.comp_of[a], s.comp_of[b], "a and b are one cycle");
        assert!(s.is_recursive(&g, s.comp_of[a]));
        // Every edge points to a component at a smaller or equal index.
        for (u, edges) in g.edges.iter().enumerate() {
            for e in edges {
                assert!(
                    s.comp_of[e.to] <= s.comp_of[u],
                    "dependency order violated: {} -> {}",
                    g.name(u),
                    g.name(e.to)
                );
            }
        }
        // Self-recursion is recursive; a plain chain node is not.
        let d = g.pred_index("d").unwrap();
        assert!(!s.is_recursive(&g, s.comp_of[d]));
        let p2 = Program::parse("t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let g2 = DepGraph::of(&p2);
        let s2 = g2.sccs();
        assert!(s2.is_recursive(&g2, s2.comp_of[g2.pred_index("t").unwrap()]));
    }

    #[test]
    fn sccs_survive_deep_chains_without_overflow() {
        let mut src = String::from("p0(X) :- base(X).\n");
        for i in 1..20_000 {
            src.push_str(&format!("p{i}(X) :- p{}(X).\n", i - 1));
        }
        let g = DepGraph::of(&Program::parse(&src).unwrap());
        let s = g.sccs();
        assert_eq!(s.comps.len(), 20_001, "every chain node is its own SCC");
    }

    #[test]
    fn negative_cycle_within_matches_global_detection() {
        let p = Program::parse(
            "p(X) :- base(X), not q(X).\n\
             q(X) :- base(X), not p(X).\n\
             safe(X) :- base(X).",
        )
        .unwrap();
        let g = DepGraph::of(&p);
        let s = g.sccs();
        let pq = s.comp_of[g.pred_index("p").unwrap()];
        let within: HashSet<usize> = s.comps[pq].iter().copied().collect();
        let cycle = g.negative_cycle_within(&within).unwrap();
        assert_eq!(cycle.first(), cycle.last());
        let safe = s.comp_of[g.pred_index("safe").unwrap()];
        let within: HashSet<usize> = s.comps[safe].iter().copied().collect();
        assert!(g.negative_cycle_within(&within).is_none());
    }

    #[test]
    fn stratified_negation_has_no_cycle() {
        let p = Program::parse(
            "reach(X) :- source(X).\n\
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        assert!(DepGraph::of(&p).negative_cycle().is_none());
    }
}
