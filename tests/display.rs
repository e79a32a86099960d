//! Integration: the Model Configuration module and the display tools
//! over a real GKBMS state (§3.1 "Conceptual Model Processor").

use conceptbase::gkbms::scenario::Scenario;
use conceptbase::modelbase::display::relational::Table;
use conceptbase::modelbase::ModelLattice;

#[test]
fn gkbms_as_a_configured_model() {
    // "The GKBMS is implemented as a model in ConceptBase" — build the
    // model lattice of fig 3-1: the GKBMS model comprising the design
    // object, decision and tool bases, sharing the object base with a
    // hypothetical second application.
    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    let kb = s.gkbms.kb();

    let mut lattice = ModelLattice::new();
    let gkbms_model = lattice.define("GKBMS").unwrap();
    let objects = lattice.define("DesignObjectBase").unwrap();
    let decisions = lattice.define("DesignDecisionBase").unwrap();
    let tools = lattice.define("DesignToolBase").unwrap();
    lattice.include(gkbms_model, objects).unwrap();
    lattice.include(gkbms_model, decisions).unwrap();
    lattice.include(gkbms_model, tools).unwrap();

    // Populate from the KB.
    for name in s.gkbms.current_objects() {
        lattice.add_object(objects, kb.lookup(&name).unwrap());
    }
    lattice.add_object(decisions, kb.lookup("mapInvitations").unwrap());
    lattice.add_object(tools, kb.lookup("TDL-DBPL-Mapper").unwrap());

    // A second application sharing only the object base.
    let reporting = lattice.define("ReportingApp").unwrap();
    lattice.include(reporting, objects).unwrap();

    // Configure the GKBMS: everything accessible.
    lattice.configure(&[gkbms_model]);
    assert!(lattice.is_accessible(kb.lookup("mapInvitations").unwrap()));
    // Configure the reporting app: decisions are not accessible.
    lattice.configure(&[reporting]);
    assert!(lattice.is_accessible(kb.lookup("InvitationRel").unwrap()));
    assert!(!lattice.is_accessible(kb.lookup("mapInvitations").unwrap()));
    // Sharing is observable.
    assert!(!lattice.shared_objects(gkbms_model, reporting).is_empty());
}

#[test]
fn relational_display_of_decision_documentation() {
    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    s.step3_normalize().unwrap();
    // Build the fig 3-1 "relational display": one row per decision.
    let mut t = Table::new(&["decision", "class", "from", "to"]);
    for r in s.gkbms.records() {
        t.row(&[&r.name, &r.class, &r.inputs.join(","), &r.outputs.join(",")]);
    }
    let rendered = t.render_window(0, 10, 28);
    assert!(rendered.contains("mapInvitations"));
    assert!(rendered.contains("normalizeInvitations"));
    // Long cells are clipped with an ellipsis, per "variable column
    // width".
    assert!(rendered.contains('…'));
}

#[test]
fn dot_export_of_scenario_dependencies() {
    use conceptbase::modelbase::display::dot::to_dot;
    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    let graph = s.gkbms.dependency_graph();
    let dot = to_dot(&graph, "fig2-2");
    assert!(dot.contains("digraph \"fig2-2\""));
    assert!(dot.contains("\"Invitation\" -> \"DecMoveDown:mapInvitations\""));
    assert!(dot.contains("[label=\"to\"]"));
}

#[test]
fn browse_session_over_decision_instances() {
    use conceptbase::modelbase::BrowseSession;
    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    let kb = s.gkbms.kb();
    // Focus on the decision class, enumerate its instances.
    let session = BrowseSession::start(kb.snapshot(), "DecMoveDown").unwrap();
    let tree = session.instance_tree();
    assert!(tree.contains("mapInvitations"));
}
