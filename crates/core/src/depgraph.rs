//! Dependency-graph derivation (figs 2-2 … 2-4).
//!
//! "The inference engines may enhance their performance by lemma
//! generation; this capability is, e.g., used in creating dependency
//! graph objects of the GKBMS." The graph is one pass over the decisions
//! of the design index, built per call: every read here takes `&self`,
//! and there is nothing for a write to invalidate.

use crate::system::{DecisionRecord, Gkbms};
use modelbase::display::dot;
use modelbase::display::graphdag::Graph;
use std::collections::{HashSet, VecDeque};

impl Gkbms {
    /// Builds the dependency graph over all effective decisions:
    /// `input --from--> decision --to--> output`, plus
    /// `tool --by--> decision` edges.
    pub fn dependency_graph(&self) -> Graph {
        let effective = self.records().iter().filter(|r| !r.retracted);
        graph_of(effective.map(|r| r.record))
    }

    /// The fig 2-4 view: the dependency graph with the objects affected
    /// by a (hypothetical or performed) retraction highlighted.
    pub fn dependency_graph_highlighting(&self, affected: &[String]) -> Graph {
        let mut g = self.dependency_graph();
        for name in affected {
            g.highlight(name);
        }
        g
    }

    /// DOT export of the current dependency graph.
    pub fn dependency_dot(&self) -> String {
        dot::to_dot(&self.dependency_graph(), "gkbms-dependencies")
    }

    /// Objects transitively derived from `object` through effective
    /// decisions — what a change to `object` would touch, sorted: a
    /// breadth-first walk of the design index's user lists, so it costs
    /// the part of the graph downstream of `object`.
    pub fn consequences_of(&self, object: &str) -> Vec<String> {
        let mut seen: HashSet<&str> = HashSet::from([object]);
        let mut queue = VecDeque::from([object]);
        while let Some(cur) = queue.pop_front() {
            for r in self.design.users(&self.kb, cur).filter(|r| !r.retracted) {
                let outputs = r.record.outputs.iter().map(String::as_str);
                queue.extend(outputs.filter(|&o| seen.insert(o)));
            }
        }
        seen.remove(object);
        let mut out: Vec<String> = seen.into_iter().map(str::to_string).collect();
        out.sort();
        out
    }
}

/// The dependency graph of `decisions`.
fn graph_of<'a>(decisions: impl IntoIterator<Item = &'a DecisionRecord>) -> Graph {
    let mut g = Graph::new();
    for r in decisions {
        let dlabel = format!("{}:{}", r.class, r.name);
        g.node(dlabel.clone());
        for input in &r.inputs {
            g.edge(input.clone(), dlabel.clone(), "from");
        }
        for output in &r.outputs {
            g.edge(dlabel.clone(), output.clone(), "to");
        }
        if let Some(tool) = &r.tool {
            g.edge(tool.clone(), dlabel.clone(), "by");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::{DecisionRecord, DecisionRequest};

    #[test]
    fn graph_reflects_decisions() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        let graph = g.dependency_graph();
        let rendered = graph.render();
        assert!(rendered.contains("Invitation --from--> TDL_MappingDec:mapInvitations"));
        assert!(rendered.contains("TDL_MappingDec:mapInvitations --to--> InvitationRel"));
        assert!(rendered.contains("TDL-DBPL-Mapper --by--> TDL_MappingDec:mapInvitations"));
        let dot = g.dependency_dot();
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn retracted_decisions_leave_the_graph() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "m", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.retract_decision("m").unwrap();
        let rendered = g.dependency_graph().render();
        assert!(!rendered.contains("InvitationRel"));

        // And under churn: over a synthetic history, every retraction's
        // decision is gone from the next graph read.
        use crate::synth::{self, SynthConfig, SynthRng};
        let mut g = crate::system::Gkbms::new().unwrap();
        synth::generate_into(
            &mut g,
            &SynthConfig {
                seed: 3,
                decisions: 50,
                retraction_rate: 0.0,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        let mut rng = SynthRng::new(9);
        for _ in 0..5 {
            let name = loop {
                let i = rng.below(g.records().len());
                let r = &g.records()[i];
                if g.is_effective(&r.name) {
                    break r.name.clone();
                }
            };
            let token = format!(":{name}");
            let in_graph = |g: &crate::system::Gkbms| {
                let rendered = g.dependency_graph().render();
                rendered.split_whitespace().any(|w| w.ends_with(&token))
            };
            assert!(in_graph(&g), "effective decision `{name}` is in the graph");
            g.retract_decision(&name).unwrap();
            assert!(!in_graph(&g), "retracted decision `{name}` still in graph");
        }
    }

    #[test]
    fn consequences_are_transitive() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "m", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("DecNormalize", "n", "dev")
                .input("InvitationRel")
                .output("InvitationRel2", kernel::NORMALIZED_DBPL_REL)
                .output("InvReceivRel", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        assert_eq!(
            g.consequences_of("Invitation"),
            vec!["InvReceivRel", "InvitationRel", "InvitationRel2"]
        );
        assert_eq!(
            g.consequences_of("InvitationRel"),
            vec!["InvReceivRel", "InvitationRel2"]
        );
        assert!(g.consequences_of("InvReceivRel").is_empty());
    }

    /// Over a synthetic corpus with retractions and replays, the walk
    /// of the user lists answers for every object what the transitive
    /// closure of the effective decisions' `dep(Input, Output)` edges
    /// reaches from it (one bottom-up evaluation, probed per object),
    /// and the dependency graph is the one the `Record` decodes of the
    /// same decisions give.
    #[test]
    fn consequences_of_answers_like_the_reach_closure() {
        use crate::synth::{self, SynthConfig, SynthRng};
        use datalog::ast::{Program, Value};
        use datalog::db::Database;
        use datalog::seminaive;
        let mut g = crate::system::Gkbms::new().unwrap();
        let cfg = SynthConfig {
            seed: 5,
            decisions: 120,
            retraction_rate: 0.1,
            ..SynthConfig::default()
        };
        synth::generate_into(&mut g, &cfg).unwrap();
        let back = synth::drive_backtracking(&mut g, &mut SynthRng::new(6), 12).unwrap();
        assert!(back.retracted > 0 && back.replayed > 0);
        let reader = g.reader();
        let decoded: Vec<DecisionRecord> = (g.records().iter())
            .map(|r| reader.decision(r.prop).unwrap())
            .collect();
        let indexed: Vec<DecisionRecord> = g.records().iter().map(|r| r.record.clone()).collect();
        assert_eq!(decoded, indexed);
        let effective: Vec<&DecisionRecord> = (decoded.iter())
            .filter(|r| reader.retracted_at(r.prop).is_none())
            .collect();
        let mut edb = Database::new();
        for r in &effective {
            for (i, o) in (r.inputs.iter()).flat_map(|i| r.outputs.iter().map(move |o| (i, o))) {
                let edge = vec![Value::sym(i.clone()), Value::sym(o.clone())];
                edb.insert("dep", edge).unwrap();
            }
        }
        let reach = "reach(X, Y) :- dep(X, Y).\nreach(X, Z) :- dep(X, Y), reach(Y, Z).";
        let program = Program::parse(reach).unwrap();
        let (model, _) = seminaive::evaluate(&program, &edb).unwrap();
        let named = decoded
            .iter()
            .flat_map(|r| r.inputs.iter().chain(&r.outputs));
        let objects: std::collections::BTreeSet<&str> =
            named.map(String::as_str).chain(["Ghost"]).collect();
        for o in objects {
            let answers = model.probe("reach", &[Some(Value::sym(o)), None]);
            let mut want: Vec<String> = (answers.into_iter())
                .map(|t| t[1].to_string())
                .filter(|y| y != o)
                .collect();
            want.sort();
            want.dedup();
            assert_eq!(g.consequences_of(o), want, "downstream of {o}");
        }
        let (got, want) = (g.dependency_graph(), super::graph_of(effective));
        assert_eq!((got.nodes(), got.edges()), (want.nodes(), want.edges()));
    }

    #[test]
    fn highlighting_marks_affected() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "m", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        let affected = g.consequences_of("Invitation");
        let graph = g.dependency_graph_highlighting(&affected);
        assert!(graph.render().contains("*[InvitationRel]*"));
    }
}
