//! Integration: group decision support (§3.3.3) combined with the
//! GKBMS — multiple developers, argumentation, conflict detection, and
//! the resolution recorded as a documented decision.

use conceptbase::gkbms::scenario::Scenario;
use conceptbase::rms::group::{GroupBoard, Stance};

#[test]
fn key_debate_resolution_drives_the_gkbms() {
    // The §2.1 key choice, deliberated by two developers.
    let mut board = GroupBoard::new();
    let dev = board.stakeholder("developer");
    let maintainer = board.stakeholder("maintainer");
    board.criterion("user-friendliness", 2.0);
    board.criterion("robustness", 3.0);
    let issue = board.issue("key of InvitationRel2");
    let surrogate = board.position(issue, "keep paperkey");
    let associative = board.position(issue, "use (date, author)");
    board.exclusive(surrogate, associative);
    board.score(surrogate, "robustness", 0.9);
    board.score(associative, "user-friendliness", 0.9);
    board.argue(associative, Stance::Pro, dev, "friendlier", 1.0);
    board.argue(
        associative,
        Stance::Con,
        maintainer,
        "fragile under evolution",
        1.5,
    );
    board.endorse(associative, dev);
    board.endorse(surrogate, maintainer);

    // The conflict is surfaced before anything is executed.
    assert_eq!(board.conflicts().len(), 1);

    // Multicriteria choice favours the surrogate; resolve and only
    // *then* execute the corresponding GKBMS path: the scenario without
    // the key substitution.
    let ranking = board.rank(issue);
    assert_eq!(ranking[0].0, surrogate);
    board.resolve(issue, surrogate);

    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    s.step3_normalize().unwrap();
    // The chosen position (surrogate) means step 4 is skipped; mapping
    // Minutes then raises no conflict.
    let (_, conflicts) = s.step5_map_minutes().unwrap();
    assert!(
        conflicts.is_empty(),
        "deliberation avoided fig 2-4 entirely"
    );
}

#[test]
fn losing_position_recorded_not_erased() {
    let mut board = GroupBoard::new();
    let dev = board.stakeholder("developer");
    board.criterion("c", 1.0);
    let issue = board.issue("i");
    let a = board.position(issue, "A");
    let b = board.position(issue, "B");
    board.score(a, "c", 0.9);
    board.score(b, "c", 0.1);
    board.argue(b, Stance::Pro, dev, "still documented", 0.2);
    board.resolve(issue, a);
    // The display still shows the losing position and its arguments —
    // the documentation discipline of the paper applied to debates.
    let rendered = board.to_string();
    assert!(rendered.contains("* P0: A"));
    assert!(rendered.contains("  P1: B"));
    assert!(rendered.contains("still documented"));
}

#[test]
fn multi_developer_decision_history() {
    // Decisions by different performers coexist in one history and the
    // process view names them.
    use conceptbase::gkbms::metamodel::kernel;
    use conceptbase::gkbms::{DecisionClass, DecisionDimension, DecisionRequest, Gkbms, ToolSpec};
    let mut g = Gkbms::new().unwrap();
    g.define_decision_class(
        DecisionClass::new("DecMap", DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL]),
    )
    .unwrap();
    g.register_tool(ToolSpec::new("Mapper", true).executes("DecMap"))
        .unwrap();
    g.register_object("A", kernel::TDL_ENTITY_CLASS, "src")
        .unwrap();
    g.register_object("B", kernel::TDL_ENTITY_CLASS, "src")
        .unwrap();
    g.execute(
        DecisionRequest::new("DecMap", "mapA", "alice")
            .with_tool("Mapper")
            .input("A")
            .output("ARel", kernel::DBPL_REL),
    )
    .unwrap();
    g.execute(
        DecisionRequest::new("DecMap", "mapB", "bob")
            .with_tool("Mapper")
            .input("B")
            .output("BRel", kernel::DBPL_REL),
    )
    .unwrap();
    assert_eq!(g.record("mapA").unwrap().performer, "alice");
    assert_eq!(g.record("mapB").unwrap().performer, "bob");
    // Both performers appear as Agent instances in the KB.
    let kb = g.kb();
    let agent = kb.lookup("Agent").unwrap();
    let agents: Vec<String> = kb
        .snapshot()
        .all_instances_of(agent)
        .into_iter()
        .map(|a| kb.display(a))
        .collect();
    assert!(agents.contains(&"alice".to_string()));
    assert!(agents.contains(&"bob".to_string()));
    // alice's retraction does not disturb bob's work.
    g.retract_decision("mapA").unwrap();
    assert!(g.is_current("BRel"));
    assert!(!g.is_current("ARel"));
}
