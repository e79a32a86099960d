//! Integration: fig 3-4 — decision-based configurations and versions.
//!
//! "The second implementation, whose mapping dependency is derived via
//! the refinement decision on keys, is based on an assumption which is
//! inconsistent under the expanded design version with respect to
//! candidate keys."

use conceptbase::gkbms::scenario::Scenario;
use conceptbase::gkbms::DecisionDimension;

fn scenario_after_backtracking() -> Scenario {
    let mut s = Scenario::setup().unwrap();
    s.step2_map_invitations().unwrap();
    s.step3_normalize().unwrap();
    s.step4_substitute_keys().unwrap();
    let (_, conflicts) = s.step5_map_minutes().unwrap();
    assert!(!conflicts.is_empty());
    s.step6_backtrack().unwrap();
    s
}

#[test]
fn fig_3_4_version_space_renders_all_dimensions() {
    let s = scenario_after_backtracking();
    let vs = s.gkbms.render_version_space();
    // Mapping decisions (vertical, `==`), refinement (`--`), choice (`%%`).
    assert!(vs.contains("== mapInvitations [mapping]"));
    assert!(vs.contains("-- normalizeInvitations [refinement]"));
    assert!(vs.contains("%% chooseAssociativeKeys [choice] (retracted)"));
    assert!(vs.contains("== mapMinutes [mapping]"));
    assert!(vs.contains("=== Implementation ==="));
    assert!(vs.contains("=== Design ==="));
}

#[test]
fn fig_3_4_alternative_versions_tracked() {
    let s = scenario_after_backtracking();
    let cps = s.gkbms.choice_points();
    assert_eq!(cps.len(), 1);
    let cp = &cps[0];
    assert_eq!(cp.over, vec!["InvitationRel2"]);
    assert_eq!(cp.alternatives.len(), 1);
    assert!(
        !cp.alternatives[0].current,
        "the associative-key version was retracted"
    );
    assert_eq!(cp.alternatives[0].decision, "chooseAssociativeKeys");
}

#[test]
fn latest_complete_implementation_configuration() {
    // "Configure the latest complete DBPL database program system
    // version: this involves excluding all non-used versions of design
    // objects and ensuring consistency and sufficient completeness."
    let s = scenario_after_backtracking();
    let config = s.gkbms.configure_level("Implementation").unwrap();
    // Excludes the retracted @assoc versions.
    assert!(config.objects.iter().all(|o| !o.contains("@assoc")));
    // Includes the surviving implementation objects.
    for o in [
        "InvitationRel2",
        "InvReceivRel",
        "MinutesRel",
        "ConsInvitation",
    ] {
        assert!(config.objects.contains(&o.to_string()), "{o} missing");
    }
    // Justified by surviving decisions only.
    assert!(!config
        .justified_by
        .contains(&"chooseAssociativeKeys".to_string()));
    assert!(config
        .justified_by
        .contains(&"normalizeInvitations".to_string()));
    // Vertical configuration is allowable.
    assert!(s.gkbms.vertical_gaps("Implementation").unwrap().is_empty());
}

#[test]
fn versioning_without_duplicating_the_implementation() {
    // The decision log is the version store: two versions of the
    // implementation exist in history, but the believed state holds
    // only the chosen one.
    let s = scenario_after_backtracking();
    let key_rec = s.gkbms.record("chooseAssociativeKeys").unwrap();
    // Temporal navigation reaches the other version.
    let then = s.gkbms.objects_at(key_rec.tick);
    assert!(then.iter().any(|o| o.contains("@assoc")));
    let now = s.gkbms.objects_at(s.gkbms.kb().now());
    assert!(!now.iter().any(|o| o.contains("@assoc")));
}

#[test]
fn dimensions_partition_the_history() {
    let s = scenario_after_backtracking();
    let mut mapping = 0;
    let mut refinement = 0;
    let mut choice = 0;
    for r in s.gkbms.records() {
        // Look up the dimension through the public view.
        let vs = s.gkbms.render_version_space();
        let _ = &vs;
        match r.class.as_str() {
            "DecMoveDown" | "DecDistribute" | "DBPL_MappingDec" => mapping += 1,
            "DecNormalize" => refinement += 1,
            "DecKeySubst" => choice += 1,
            other => panic!("unexpected class {other}"),
        }
    }
    assert_eq!((mapping, refinement, choice), (2, 1, 1));
    let _ = DecisionDimension::Mapping; // dimension enum is part of the public API
}
