//! Integration: §3.3.1 — navigation in decision histories along the
//! three dimensions, and the display tools over a real history.

use conceptbase::gkbms::scenario::Scenario;
use conceptbase::modelbase::display::dot::to_dot;
use conceptbase::modelbase::display::textdag::Bounds;
use conceptbase::modelbase::BrowseSession;

fn full() -> Scenario {
    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    s.step3_normalize().unwrap();
    s.step4_substitute_keys().unwrap();
    let (_, c) = s.step5_map_minutes().unwrap();
    assert!(!c.is_empty());
    s.step6_backtrack().unwrap();
    s
}

#[test]
fn status_oriented_browsing() {
    let s = full();
    let table = s.gkbms.status_view();
    let rendered = table.render();
    assert!(rendered.contains("Design"));
    assert!(rendered.contains("Implementation"));
    assert!(rendered.contains("InvitationRel2"));
    // Scrolling works on the same table.
    let window = table.render_window(0, 3, 30);
    assert!(window.contains("rows shown"));
}

#[test]
fn process_oriented_browsing() {
    let s = full();
    let chain = s.gkbms.causal_chain("InvReceivRel").unwrap();
    assert_eq!(chain, vec!["mapInvitations", "normalizeInvitations"]);
    // Consequences run the other way.
    let consequences = s.gkbms.consequences_of("InvitationRel");
    assert!(consequences.contains(&"InvitationRel2".to_string()));
}

#[test]
fn temporal_browsing_follows_object_history() {
    let s = full();
    let history = s.gkbms.object_history("InvitationRel2").unwrap();
    let events: Vec<&str> = history.iter().map(|(_, e)| e.as_str()).collect();
    assert!(events.contains(&"created by normalizeInvitations"));
    assert!(events.contains(&"used by chooseAssociativeKeys"));
    // Ticks are monotone.
    let ticks: Vec<i64> = history.iter().map(|(t, _)| *t).collect();
    assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn switching_between_browsers_on_one_kb() {
    // "additionally, arbitrary switching between browsing of performed
    // decisions, design objects … and tool specifications is provided."
    let s = full();
    let kb = s.gkbms.kb();
    let mut session = BrowseSession::start(kb.snapshot(), "DBPL_Rel").unwrap();
    session.set_bounds(Bounds {
        depth: 2,
        width: 16,
    });
    let tree = session.instance_tree();
    assert!(tree.contains("NormalizedDBPL_Rel"));
    assert!(tree.contains("MinutesRel"));
    // Switch focus to a decision instance and inspect its links.
    session.focus_on("normalizeInvitations").unwrap();
    let attrs = session.attribute_table().render();
    assert!(attrs.contains("from"));
    assert!(attrs.contains("to"));
    assert!(attrs.contains("InvitationRel2"));
    // Back to where we came from.
    session.back().unwrap();
    assert_eq!(session.focus_name(), "DBPL_Rel");
}

#[test]
fn zooming_into_the_dependency_graph() {
    let s = full();
    let graph = s.gkbms.dependency_graph();
    let zoomed = graph.zoom("InvitationRel", 1);
    let rendered = zoomed.render();
    assert!(rendered.contains("InvitationRel"));
    assert!(rendered.contains("normalizeInvitations"));
    assert!(
        !rendered.contains("MinutesRel"),
        "outside the radius-1 neighbourhood"
    );
    // DOT export of the zoomed view.
    let dot = to_dot(&zoomed, "zoom");
    assert!(dot.contains("digraph"));
    assert!(dot.contains("InvitationRel"));
}

#[test]
fn exploration_starts_from_focus_and_shows_applicable_tools() {
    // "Such an exploration typically starts from a focus object or
    // decision; tool selection for this focus will also display which
    // of the above exploration directions are applicable."
    let s = full();
    let menu = s.gkbms.applicable_decisions("MinutesRel").unwrap();
    assert!(
        !menu.is_empty(),
        "a DBPL_Rel token has applicable decisions"
    );
    assert!(menu.iter().any(|(dc, _)| dc == "DecNormalize"));
}
