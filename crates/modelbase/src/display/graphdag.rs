//! The graphical DAG browser, as a layered text layout.
//!
//! The dependency graphs of figs 2-2 … 2-4 are drawn by assigning each
//! node a layer (longest path from a source), printing the layers as
//! columns of labeled boxes, and listing the edges with their labels.
//! Highlighting (fig 2-4 "only highlights the objects to be changed")
//! marks nodes with `*`.

use std::collections::{HashMap, HashSet};

/// A labeled edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Source node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Edge label (e.g. the decision or rule name).
    pub label: String,
}

/// A graph to display.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<String>,
    /// Membership in `nodes`: every `edge` asks twice.
    known: HashSet<String>,
    edges: Vec<GraphEdge>,
    highlighted: HashSet<String>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node (idempotent).
    pub fn node(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.known.contains(&name) {
            self.known.insert(name.clone());
            self.nodes.push(name);
        }
    }

    /// Adds an edge, creating endpoints as needed.
    pub fn edge(
        &mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        label: impl Into<String>,
    ) {
        let (from, to) = (from.into(), to.into());
        self.node(from.clone());
        self.node(to.clone());
        self.edges.push(GraphEdge {
            from,
            to,
            label: label.into(),
        });
    }

    /// Highlights a node (fig 2-4 style).
    pub fn highlight(&mut self, name: &str) {
        self.highlighted.insert(name.to_string());
    }

    /// Node names in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The edges in insertion order.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Longest-path layer per node (sources at 0). Cycles are broken
    /// by capping at the node count.
    pub fn layers(&self) -> HashMap<String, usize> {
        let mut layer: HashMap<String, usize> = self.nodes.iter().map(|n| (n.clone(), 0)).collect();
        let cap = self.nodes.len();
        for _ in 0..cap {
            let mut changed = false;
            for e in &self.edges {
                let lf = layer[&e.from];
                let lt = layer[&e.to];
                if lt < lf + 1 && lf < cap {
                    layer.insert(e.to.clone(), lf + 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        layer
    }

    /// Renders the layered layout.
    pub fn render(&self) -> String {
        let layers = self.layers();
        let max_layer = layers.values().copied().max().unwrap_or(0);
        let mut out = String::new();
        for l in 0..=max_layer {
            let mut row: Vec<&str> = self
                .nodes
                .iter()
                .filter(|n| layers[*n] == l)
                .map(|n| n.as_str())
                .collect();
            row.sort_unstable();
            if row.is_empty() {
                continue;
            }
            out.push_str(&format!("layer {l}: "));
            let cells: Vec<String> = row
                .iter()
                .map(|n| {
                    if self.highlighted.contains(*n) {
                        format!("*[{n}]*")
                    } else {
                        format!("[{n}]")
                    }
                })
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        if !self.edges.is_empty() {
            out.push_str("edges:\n");
            for e in &self.edges {
                out.push_str(&format!("  {} --{}--> {}\n", e.from, e.label, e.to));
            }
        }
        out
    }

    /// Zoom: the sub-graph within `radius` edges (either direction) of
    /// `focus` — "the GKBMS must have some kind of zooming facility".
    pub fn zoom(&self, focus: &str, radius: usize) -> Graph {
        let mut keep: HashSet<&str> = HashSet::from([focus]);
        for _ in 0..radius {
            let mut next = keep.clone();
            for e in &self.edges {
                if keep.contains(e.from.as_str()) {
                    next.insert(&e.to);
                }
                if keep.contains(e.to.as_str()) {
                    next.insert(&e.from);
                }
            }
            keep = next;
        }
        let mut g = Graph::new();
        for n in &self.nodes {
            if keep.contains(n.as_str()) {
                g.node(n.clone());
                if self.highlighted.contains(n) {
                    g.highlight(n);
                }
            }
        }
        for e in &self.edges {
            if keep.contains(e.from.as_str()) && keep.contains(e.to.as_str()) {
                g.edges.push(e.clone());
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fig 2-2 dependency graph shape.
    fn fig_2_2() -> Graph {
        let mut g = Graph::new();
        g.edge("Papers", "ConsPapers", "move-down");
        g.edge("Invitations", "InvitationRel", "move-down");
        g.edge("MapTool", "InvitationRel", "by");
        g
    }

    #[test]
    fn layers_follow_edges() {
        let g = fig_2_2();
        let layers = g.layers();
        assert_eq!(layers["Papers"], 0);
        assert_eq!(layers["ConsPapers"], 1);
        assert_eq!(layers["InvitationRel"], 1);
    }

    #[test]
    fn render_lists_layers_and_edges() {
        let g = fig_2_2();
        let s = g.render();
        assert!(s.contains("layer 0: [Invitations]  [MapTool]  [Papers]"));
        assert!(s.contains("layer 1: [ConsPapers]  [InvitationRel]"));
        assert!(s.contains("Invitations --move-down--> InvitationRel"));
    }

    #[test]
    fn highlighting_marks_nodes() {
        let mut g = fig_2_2();
        g.highlight("InvitationRel");
        let s = g.render();
        assert!(s.contains("*[InvitationRel]*"));
        assert!(s.contains("[ConsPapers]"));
        assert!(!s.contains("*[ConsPapers]*"));
    }

    #[test]
    fn zoom_restricts_to_neighbourhood() {
        let mut g = Graph::new();
        g.edge("a", "b", "x");
        g.edge("b", "c", "x");
        g.edge("c", "d", "x");
        let z = g.zoom("b", 1);
        let names: Vec<&str> = z.nodes().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(z.edges().len(), 2);
        let z0 = g.zoom("b", 0);
        assert_eq!(z0.nodes().len(), 1);
        assert!(z0.edges().is_empty());
    }

    #[test]
    fn zoom_preserves_highlights() {
        let mut g = fig_2_2();
        g.highlight("InvitationRel");
        let z = g.zoom("InvitationRel", 1);
        assert!(z.render().contains("*[InvitationRel]*"));
    }

    #[test]
    fn cycles_do_not_hang_layout() {
        let mut g = Graph::new();
        g.edge("a", "b", "x");
        g.edge("b", "a", "x");
        let layers = g.layers();
        assert!(layers["a"] <= 2 && layers["b"] <= 2);
        let _ = g.render();
    }

    #[test]
    fn idempotent_nodes() {
        let mut g = Graph::new();
        g.node("a");
        g.node("a");
        assert_eq!(g.nodes().len(), 1);
    }
}
