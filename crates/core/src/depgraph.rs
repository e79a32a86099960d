//! Dependency-graph derivation (figs 2-2 … 2-4).
//!
//! "The inference engines may enhance their performance by lemma
//! generation; this capability is, e.g., used in creating dependency
//! graph objects of the GKBMS." The graph is one pass over the decisions
//! the KB documents, built per call: every read here takes `&self`, and
//! there is nothing for a write to invalidate.

use crate::system::Gkbms;
use datalog::ast::{Atom, Program, Term, Value};
use datalog::db::Database;
use datalog::magic;
use modelbase::display::dot;
use modelbase::display::graphdag::Graph;

impl Gkbms {
    /// Builds the dependency graph over all effective decisions:
    /// `input --from--> decision --to--> output`, plus
    /// `tool --by--> decision` edges.
    pub fn dependency_graph(&self) -> Graph {
        let mut g = Graph::new();
        for r in self.decisions() {
            if r.retracted {
                continue;
            }
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
    /// decisions — what a change to `object` would touch.
    ///
    /// Derived by the inference engines: the effective decisions export
    /// as `dep(Input, Output)` edges, and the magic-sets transformation
    /// of transitive reachability (seeded with `object`) runs on the
    /// indexed bottom-up engine, so only the relevant part of the
    /// closure is computed.
    pub fn consequences_of(&self, object: &str) -> Vec<String> {
        let mut edb = Database::new();
        for r in self.decisions().iter().filter(|r| !r.retracted) {
            for input in &r.inputs {
                for output in &r.outputs {
                    edb.insert(
                        "dep",
                        vec![Value::sym(input.clone()), Value::sym(output.clone())],
                    )
                    .expect("dep/2 arity is fixed");
                }
            }
        }
        let program =
            Program::parse("reach(X, Y) :- dep(X, Y).\nreach(X, Z) :- dep(X, Y), reach(Y, Z).")
                .expect("reachability program parses");
        let query = Atom::new("reach", vec![Term::sym(object), Term::var("Y")]);
        let answers = magic::magic_evaluate(&program, &edb, &query)
            .expect("reachability evaluation cannot fail");
        let mut out: Vec<String> = answers
            .into_iter()
            .map(|t| t[1].to_string())
            .filter(|o| o != object)
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::DecisionRequest;

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
