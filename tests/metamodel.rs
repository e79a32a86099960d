//! Integration: the knowledge-structure figures — levels of design
//! object knowledge (fig 2-5), decision/tool interrelationships
//! (fig 2-6), and the proposition-level representation of design
//! decisions (fig 3-3).

use conceptbase::gkbms::metamodel::{self, kernel, names};
use conceptbase::gkbms::{
    DecisionClass, DecisionDimension, DecisionRequest, Discharge, Gkbms, ToolSpec,
};
use conceptbase::telos::Kb;

fn gkbms_with_normalize() -> Gkbms {
    let mut g = Gkbms::new().unwrap();
    g.define_decision_class(
        DecisionClass::new("TDL_MappingDec", DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL]),
    )
    .unwrap();
    g.define_decision_class(
        DecisionClass::new("DecNormalize", DecisionDimension::Refinement)
            .from_classes(&[kernel::DBPL_REL])
            .to_classes(&[
                kernel::NORMALIZED_DBPL_REL,
                kernel::DBPL_SELECTOR,
                kernel::DBPL_CONSTRUCTOR,
            ])
            .obligation("normalized", "1NF with correct keys"),
    )
    .unwrap();
    g.register_tool(
        ToolSpec::new("NormalizerTool", true)
            .executes("DecNormalize")
            .guarantees("normalized"),
    )
    .unwrap();
    g
}

#[test]
fn fig_2_5_levels() {
    // "Levels of design object knowledge base": metaclass / class /
    // instance, with sources outside the GKB.
    let mut kb = Kb::new();
    let pm = metamodel::bootstrap(&mut kb).unwrap();
    metamodel::install_kernel(&mut kb, &pm).unwrap();
    let design_object = kb.lookup("DesignObject").unwrap();
    let dbpl_rel = kb.lookup(kernel::DBPL_REL).unwrap();
    // Class level: DBPL_Rel in DesignObject.
    assert!(kb.snapshot().is_instance_of(dbpl_rel, design_object));
    // Instance level: a token in DBPL_Rel.
    let token = kb.individual("InvitationRel").unwrap();
    kb.instantiate(token, dbpl_rel).unwrap();
    assert!(kb.snapshot().is_instance_of(token, dbpl_rel));
    // The levels are strictly separated (no collapsing).
    assert!(!kb.snapshot().is_instance_of(token, design_object));
    assert!(!kb.snapshot().is_instance_of(design_object, dbpl_rel));
    // The uniform representation is abstract: sources live outside,
    // referenced by SOURCE links to SourceRef tokens.
    let src = kb.individual("dbpl://DocumentDB#InvitationRel").unwrap();
    kb.instantiate(src, pm.source_ref).unwrap();
    kb.put_attr(token, names::SOURCE_I, src).unwrap();
    assert_eq!(kb.snapshot().attr_values(token, names::SOURCE_I), vec![src]);
}

#[test]
fn fig_2_6_decision_mediates_tools() {
    // "Methods/tools are not directly associated with object classes
    // but only indirectly via the mediating concept of decision class."
    let mut g = gkbms_with_normalize();
    g.register_object("InvitationRel", kernel::DBPL_REL, "src")
        .unwrap();
    let menu = g.applicable_decisions("InvitationRel").unwrap();
    assert_eq!(menu.len(), 1);
    assert_eq!(menu[0].0, "DecNormalize");
    assert_eq!(menu[0].1, vec!["NormalizerTool"]);
    // The tool is reachable only through the decision class: an object
    // whose classes match no decision class gets an empty menu.
    g.register_object("SomeScript", kernel::TDL_TRANSACTION, "src")
        .unwrap();
    assert!(g.applicable_decisions("SomeScript").unwrap().is_empty());
}

#[test]
fn fig_3_3_proposition_level_decision_documentation() {
    let mut g = gkbms_with_normalize();
    g.register_object("InvitationRel", kernel::DBPL_REL, "src")
        .unwrap();
    g.execute(
        DecisionRequest::new("DecNormalize", "normalizeInvitations", "developer")
            .with_tool("NormalizerTool")
            .input("InvitationRel")
            .output("InvitationRel2", kernel::NORMALIZED_DBPL_REL)
            .output("InvReceivRel", kernel::NORMALIZED_DBPL_REL)
            .output("InvitationsPaperIC", kernel::DBPL_SELECTOR)
            .output("ConsInvitation", kernel::DBPL_CONSTRUCTOR),
    )
    .unwrap();
    let kb = g.kb();

    // Middle layer: DecNormalize has from/to links to DBPL_Rel and its
    // specialization — "there are two links relating decision class
    // DecNormalize to object class DBPL_Rel, one being an instance of
    // FROM, the other one of TO (NormalizedDBPL_Rel is a
    // specialization of DBPL_Rel)".
    let dec_class = kb.lookup("DecNormalize").unwrap();
    let dbpl_rel = kb.lookup(kernel::DBPL_REL).unwrap();
    let normalized = kb.lookup(kernel::NORMALIZED_DBPL_REL).unwrap();
    assert!(kb
        .snapshot()
        .attr_values(dec_class, names::FROM_I)
        .contains(&dbpl_rel));
    assert!(kb
        .snapshot()
        .attr_values(dec_class, names::TO_I)
        .contains(&normalized));
    assert!(kb.snapshot().isa_ancestors(normalized).contains(&dbpl_rel));

    // Bottom layer: the executed decision interrelates the object
    // instances, and each output's justification points at it.
    let dec = kb.lookup("normalizeInvitations").unwrap();
    assert!(kb.snapshot().is_instance_of(dec, dec_class));
    let from = kb.snapshot().attr_values(dec, names::FROM_I);
    assert_eq!(from, vec![kb.lookup("InvitationRel").unwrap()]);
    let to = kb.snapshot().attr_values(dec, names::TO_I);
    assert_eq!(to.len(), 4);
    let inv2 = kb.lookup("InvitationRel2").unwrap();
    assert_eq!(
        kb.snapshot().attr_values(inv2, names::JUSTIFICATION_I),
        vec![dec]
    );
    // The tool association at the instance level.
    let by = kb.snapshot().attr_values(dec, names::BY_I);
    assert_eq!(by, vec![kb.lookup("NormalizerTool").unwrap()]);

    // Top layer: everything is classified under the metaclasses.
    let design_decision = kb.lookup("DesignDecision").unwrap();
    assert!(kb.snapshot().is_instance_of(dec_class, design_decision));
    // And the whole construction satisfies the CML axioms.
    assert!(conceptbase::telos::axioms::check_all(kb.snapshot()).is_empty());
}

/// The value names of `x`'s attribute `label`.
fn values(kb: &Kb, x: &str, label: &str) -> Vec<String> {
    let x = kb.lookup(x).unwrap();
    let values = kb.snapshot().attr_values(x, label).into_iter();
    values.map(|v| kb.display(v)).collect()
}

#[test]
fn fig_3_3_layers_carry_obligations_and_discharges() {
    let mut g = gkbms_with_normalize();
    g.register_object("InvitationRel", kernel::DBPL_REL, "src")
        .unwrap();
    g.execute(
        DecisionRequest::new("DecNormalize", "manualNorm", "developer")
            .input("InvitationRel")
            .output("X", kernel::NORMALIZED_DBPL_REL)
            .discharge(Discharge::Signature {
                obligation: "normalized".into(),
                by: "developer".into(),
            }),
    )
    .unwrap();
    let kb = g.kb();
    // Middle layer: the class's obligation is an object of its own,
    // with a name and a statement; the tool guarantees it by name.
    // Documentation values are texts: individuals named in quotes.
    assert_eq!(values(kb, "DecNormalize", "dimension"), ["\"refinement\""]);
    let obligation = values(kb, "DecNormalize", "obligation");
    assert_eq!(obligation, ["DecNormalize!obligation0"]);
    assert_eq!(values(kb, &obligation[0], "name"), ["\"normalized\""]);
    assert_eq!(
        values(kb, &obligation[0], "statement"),
        ["\"1NF with correct keys\""]
    );
    assert_eq!(
        values(kb, "NormalizerTool", "guarantees"),
        ["\"normalized\""]
    );
    assert_eq!(values(kb, "NormalizerTool", "automatic"), ["\"true\""]);
    // Bottom layer: how the decision discharged it — by signature.
    let discharge = values(kb, "manualNorm", "discharge");
    assert_eq!(discharge, ["manualNorm!discharge0"]);
    assert_eq!(values(kb, &discharge[0], "obligation"), ["\"normalized\""]);
    assert_eq!(values(kb, &discharge[0], "kind"), ["\"signature\""]);
    assert_eq!(values(kb, &discharge[0], "signer"), ["\"developer\""]);
    assert_eq!(values(kb, "manualNorm", "performer"), ["developer"]);
    assert!(conceptbase::telos::axioms::check_all(kb.snapshot()).is_empty());
}

/// Documentation is read as believed when it was told: raw TELLs that
/// look like documentation, a raw UNTELL of an output and the
/// retraction's cascade leave it as it was. Only `retracted` and the
/// retraction event change.
#[test]
fn decision_documentation_is_immutable() {
    let mut g = gkbms_with_normalize();
    for r in ["InvitationRel", "Minutes"] {
        g.register_object(r, kernel::DBPL_REL, "src").unwrap();
    }
    g.execute(
        DecisionRequest::new("DecNormalize", "manualNorm", "developer")
            .input("InvitationRel")
            .output("X", kernel::NORMALIZED_DBPL_REL)
            .output("Y", kernel::DBPL_SELECTOR)
            .discharge(Discharge::Signature {
                obligation: "normalized".into(),
                by: "developer".into(),
            }),
    )
    .unwrap();
    let record = g.record("manualNorm").unwrap().record.clone();
    let explained = g.explain_decision("manualNorm").unwrap();
    let histories = |g: &Gkbms| {
        let of = |o| g.object_history(o).unwrap();
        [of("InvitationRel"), of("X"), of("Y")]
    };
    let before = histories(&g);

    g.tell_src(
        "TELL forged end\n\
         TELL manualNorm with attribute from : Minutes; discharge : forged end",
    )
    .unwrap();
    g.untell("Y").unwrap();
    let read = g.record("manualNorm").unwrap();
    assert_eq!((read.record, read.retracted), (&record, false));
    assert_eq!(g.explain_decision("manualNorm").unwrap(), explained);
    assert_eq!(histories(&g), before);

    assert_eq!(g.retract_decision("manualNorm").unwrap(), ["X", "Y"]);
    let read = g.record("manualNorm").unwrap();
    assert_eq!((read.record, read.retracted), (&record, true));
    assert_eq!(
        g.explain_decision("manualNorm").unwrap(),
        explained.replace("(effective)", "(retracted)")
    );
    let after = histories(&g);
    assert_eq!(after[0], before[0], "using it is not undone");
    for (after, before) in after[1..].iter().zip(&before[1..]) {
        let (retraction, rest): (Vec<_>, Vec<_>) = after
            .iter()
            .cloned()
            .partition(|(_, e)| e == "retracted with manualNorm");
        assert_eq!(&rest, before);
        assert_eq!(retraction.len(), 1);
    }
}

#[test]
fn verification_obligations_per_fig_3_3() {
    // "normalizeInvitations must satisfy that InvitationRel2 and
    // InvReceivRel are normalized DBPL relations with correct keys;
    // however … the key decision may be executed manually, thus
    // creating a proof obligation (the 'proof' may be either formal or
    // by 'signature' of the decision maker)."
    let mut g = gkbms_with_normalize();
    g.register_object("InvitationRel", kernel::DBPL_REL, "src")
        .unwrap();
    // Manual execution (no tool): obligation must be discharged.
    let err = g.execute(
        DecisionRequest::new("DecNormalize", "manualNorm", "developer")
            .input("InvitationRel")
            .output("X", kernel::NORMALIZED_DBPL_REL),
    );
    assert!(err.is_err());
    g.execute(
        DecisionRequest::new("DecNormalize", "manualNorm", "developer")
            .input("InvitationRel")
            .output("X", kernel::NORMALIZED_DBPL_REL)
            .discharge(Discharge::Signature {
                obligation: "normalized".into(),
                by: "developer".into(),
            }),
    )
    .unwrap();
    let rec = g.record("manualNorm").unwrap();
    assert!(matches!(rec.discharges[0], Discharge::Signature { .. }));
}

#[test]
fn metamodel_is_extensible_with_new_decision_knowledge() {
    // §2.2: "this development knowledge is extensible to capture
    // additionally evolved knowledge about languages, design decisions
    // and tools."
    let mut g = gkbms_with_normalize();
    // A new object class for a new language…
    g.define_object_class("SQL_View", "Implementation", Some(kernel::DBPL_CONSTRUCTOR))
        .unwrap();
    // …a new decision class over it…
    g.define_decision_class(
        DecisionClass::new("DecViewCompile", DecisionDimension::Mapping)
            .from_classes(&[kernel::DBPL_CONSTRUCTOR])
            .to_classes(&["SQL_View"]),
    )
    .unwrap();
    // …and a new tool, all without kernel changes.
    g.register_tool(ToolSpec::new("ViewCompiler", true).executes("DecViewCompile"))
        .unwrap();
    g.register_object("ConsPapers", kernel::DBPL_CONSTRUCTOR, "src")
        .unwrap();
    let menu = g.applicable_decisions("ConsPapers").unwrap();
    assert!(menu
        .iter()
        .any(|(dc, tools)| dc == "DecViewCompile" && tools.contains(&"ViewCompiler".to_string())));
    g.execute(
        DecisionRequest::new("DecViewCompile", "compilePapers", "dev")
            .with_tool("ViewCompiler")
            .input("ConsPapers")
            .output("PapersView", "SQL_View"),
    )
    .unwrap();
    assert!(g.is_current("PapersView"));
}
