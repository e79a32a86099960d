//! Shared workload generators for the benchmark harness.
//!
//! Every bench in `benches/` regenerates one figure of the paper or
//! one of its efficiency questions (see DESIGN.md §4 and
//! EXPERIMENTS.md). The generators here produce the synthetic design
//! histories, class hierarchies and rule bases the benches sweep over.

use gkbms::metamodel::kernel;
use gkbms::{DecisionClass, DecisionDimension, DecisionRequest, Discharge, Gkbms, ToolSpec};
use langs::taxisdl::{EntityClass, TdlAttribute, TdlModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telos::Kb;

pub mod engines;
pub mod rmsnet;

/// A deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A KB holding a class chain `C0 isa C1 isa … isa C{depth}` with
/// `fanout` instances at the bottom — the inheritance workload for the
/// deduction benches.
pub fn isa_chain_kb(depth: usize, fanout: usize) -> Kb {
    let mut kb = Kb::new();
    let mut classes = Vec::with_capacity(depth + 1);
    for i in 0..=depth {
        classes.push(kb.individual(&format!("C{i}")).expect("fresh name"));
    }
    for w in classes.windows(2) {
        kb.specialize(w[0], w[1]).expect("chain is acyclic");
    }
    for i in 0..fanout {
        let t = kb.individual(&format!("t{i}")).expect("fresh name");
        kb.instantiate(t, classes[0]).expect("classify token");
    }
    kb
}

/// A synthetic stored-rule base for the lint benches: `groups` chained
/// components, each a mutually recursive pair `p{g}`/`q{g}` with
/// `per_pred` rules per predicate. Every component joins the EDB
/// bridge relations, recurses (bounded by an extensional literal, so
/// CB011 stays quiet), carries several same-predicate `attr` literals
/// (real subsumption matching work) and feeds the next component —
/// rich enough that a from-scratch analysis does real per-SCC work
/// (subsumption, the sort fixpoint, termination, plan costing) on
/// every component, which is exactly the work the fingerprint cache
/// elides.
pub fn synthetic_rule_base(groups: usize, per_pred: usize) -> Vec<String> {
    let mut rules = Vec::with_capacity(groups * per_pred * 2);
    for g in 1..=groups {
        let prev = if g == 1 {
            "in_".to_string()
        } else {
            format!("p{}", g - 1)
        };
        for j in 0..per_pred {
            rules.push(match j {
                0 => format!("p{g}(X, Y) :- in_(X, C), attr(X, \"f{g}\", Y), isa(C, \"T{g}\")."),
                1 => format!("p{g}(X, Y) :- q{g}(X, Z), attr(Z, \"g{g}\", Y), in_(X, \"T{g}\")."),
                _ => format!(
                    "p{g}(X, Y) :- {prev}(X, Z), attr(X, \"a{g}_{j}\", V), \
                     attr(Z, \"b{g}_{j}\", W), attr(V, \"c{g}_{j}\", Y), \
                     in_(X, \"T{g}\"), isa(W, \"U{g}\")."
                ),
            });
        }
        for j in 0..per_pred {
            rules.push(match j {
                0 => format!("q{g}(X, Y) :- p{g}(X, Z), {prev}(Z, Y), in_(X, \"T{g}\")."),
                _ => format!(
                    "q{g}(X, Y) :- p{g}(X, Z), attr(Z, \"d{g}_{j}\", V), \
                     attr(X, \"e{g}_{j}\", W), attr(V, \"h{g}_{j}\", Y), \
                     in_(W, \"T{g}\")."
                ),
            });
        }
    }
    rules
}

/// A random TaxisDL hierarchy: `width` subclasses under a root, each
/// with `attrs` attributes, one of them possibly set-valued.
pub fn random_hierarchy(width: usize, attrs: usize, seed: u64) -> TdlModel {
    let mut r = rng(seed);
    let mut model = TdlModel::default();
    model.entities.push(EntityClass {
        name: "Domain".into(),
        isa: vec![],
        attributes: vec![],
    });
    model.entities.push(EntityClass {
        name: "Root".into(),
        isa: vec![],
        attributes: vec![TdlAttribute {
            label: "id".into(),
            target: "Domain".into(),
            set_valued: false,
        }],
    });
    for i in 0..width {
        let mut attributes = Vec::new();
        for a in 0..attrs {
            attributes.push(TdlAttribute {
                label: format!("a{i}_{a}"),
                target: "Domain".into(),
                set_valued: a == 0 && r.gen_bool(0.5),
            });
        }
        model.entities.push(EntityClass {
            name: format!("Sub{i}"),
            isa: vec!["Root".into()],
            attributes,
        });
    }
    model
}

/// A GKBMS with mapping / refinement / choice decision classes plus an
/// automatic tool for the first two.
pub fn bench_gkbms() -> Gkbms {
    let mut g = Gkbms::new().expect("bootstrap");
    g.define_decision_class(
        DecisionClass::new("DecMap", DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL]),
    )
    .expect("fresh class");
    g.define_decision_class(
        DecisionClass::new("DecRefine", DecisionDimension::Refinement)
            .from_classes(&[kernel::DBPL_REL])
            .to_classes(&[kernel::DBPL_REL]),
    )
    .expect("fresh class");
    g.define_decision_class(
        DecisionClass::new("DecChoose", DecisionDimension::Choice)
            .from_classes(&[kernel::DBPL_REL])
            .to_classes(&[kernel::DBPL_REL])
            .obligation("sound-choice", "the alternative is admissible"),
    )
    .expect("fresh class");
    g.register_tool(ToolSpec::new("Mapper", true).executes("DecMap"))
        .expect("fresh tool");
    g.register_tool(ToolSpec::new("Refiner", true).executes("DecRefine"))
        .expect("fresh tool");
    g
}

/// Builds a decision history: `n` entity classes each mapped, then each
/// relation refined `refines` times in a chain. Returns the GKBMS and
/// the names of all refinement decision instances.
pub fn decision_history(n: usize, refines: usize) -> (Gkbms, Vec<String>) {
    let mut g = bench_gkbms();
    let mut decisions = Vec::new();
    for i in 0..n {
        let class_name = format!("E{i}");
        g.register_object(&class_name, kernel::TDL_ENTITY_CLASS, "src")
            .expect("register");
        let rel = format!("E{i}Rel0");
        g.execute(
            DecisionRequest::new("DecMap", &format!("map{i}"), "dev")
                .with_tool("Mapper")
                .input(&class_name)
                .output(&rel, kernel::DBPL_REL),
        )
        .expect("map");
        let mut prev = rel;
        for r in 0..refines {
            let next = format!("E{i}Rel{}", r + 1);
            let dname = format!("refine{i}_{r}");
            g.execute(
                DecisionRequest::new("DecRefine", &dname, "dev")
                    .with_tool("Refiner")
                    .input(&prev)
                    .output(&next, kernel::DBPL_REL),
            )
            .expect("refine");
            decisions.push(dname);
            prev = next;
        }
    }
    (g, decisions)
}

/// A signed choice decision request (for choice-point benches).
pub fn choice_request(name: &str, input: &str, output: &str) -> DecisionRequest {
    DecisionRequest::new("DecChoose", name, "dev")
        .input(input)
        .output(output, kernel::DBPL_REL)
        .discharge(Discharge::Signature {
            obligation: "sound-choice".into(),
            by: "dev".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_chain_kb_has_expected_closure() {
        let kb = isa_chain_kb(10, 5);
        let c0 = kb.lookup("C0").unwrap();
        let c10 = kb.lookup("C10").unwrap();
        assert_eq!(kb.snapshot().isa_ancestors(c0).len(), 10);
        assert_eq!(kb.snapshot().all_instances_of(c10).len(), 5);
    }

    #[test]
    fn random_hierarchy_is_valid() {
        let m = random_hierarchy(8, 3, 42);
        m.validate().unwrap();
        assert_eq!(m.leaves("Root").unwrap().len(), 8);
    }

    #[test]
    fn decision_history_builds() {
        let (g, decisions) = decision_history(3, 2);
        assert_eq!(g.records().len(), 3 + 3 * 2);
        assert_eq!(decisions.len(), 6);
        assert!(g.is_current("E2Rel2"));
    }
}
