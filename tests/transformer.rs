//! Integration: fig 3-2 — the propositional representation of
//! `Invitation` — plus frame round-trips over the full stack.

use conceptbase::objectbase::frame::ObjectFrame;
use conceptbase::objectbase::transform::{frame_of, tell, tell_all};
use conceptbase::telos::{Kb, PropId};

#[test]
fn fig_3_2_invitation_as_propositions() {
    // "Consider, for example, a class TDL_EntityClass called
    // Invitation, which relates invitations to persons by an attribute
    // sender. The Object Transformer transforms this class into a set
    // of propositions as shown in Fig 3-2."
    let mut kb = Kb::new();
    tell_all(
        &mut kb,
        &ObjectFrame::parse_all(
            "TELL TDL_EntityClass isA Class end\n\
             TELL Person end\n\
             TELL Invitation in TDL_EntityClass with attribute sender : Person end",
        )
        .unwrap(),
    )
    .unwrap();

    let invitation = kb.lookup("Invitation").unwrap();
    let tdl = kb.lookup("TDL_EntityClass").unwrap();
    let person = kb.lookup("Person").unwrap();

    // Node propositions are self-referential: Invitation = <Invitation,
    // "Invitation", Invitation>.
    let p = kb.get(invitation).unwrap();
    assert!(p.is_individual());
    assert_eq!(kb.resolve(p.label), "Invitation");

    // The unlabeled (instanceof) link of fig 3-2: Invitation → TDL_EntityClass.
    let class_links: Vec<PropId> = kb
        .snapshot()
        .links_from(invitation)
        .into_iter()
        .filter(|&l| {
            let lp = kb.get(l).unwrap();
            kb.resolve(lp.label) == "instanceof" && lp.dest == tdl
        })
        .collect();
    assert_eq!(class_links.len(), 1);

    // The attribute proposition <Invitation, sender, Person> — itself
    // an object that can be the source of further propositions.
    let sender_attr = kb
        .snapshot()
        .attrs_of(invitation)
        .into_iter()
        .find(|&a| kb.resolve(kb.get(a).unwrap().label) == "sender")
        .unwrap();
    let ap = kb.get(sender_attr).unwrap();
    assert_eq!(ap.source, invitation);
    assert_eq!(ap.dest, person);
    assert!(!ap.is_individual());
    // "p can appear as the source component of another proposition":
    let meta = kb.individual("annotation").unwrap();
    let about_attr = kb.put_attr(sender_attr, "notedBy", meta).unwrap();
    assert_eq!(kb.get(about_attr).unwrap().source, sender_attr);
    assert_eq!(
        kb.display(about_attr),
        "<<Invitation sender Person> notedBy annotation>"
    );
}

#[test]
fn fig_3_2_two_time_dimensions() {
    // "PI = <Invitation, instanceof CLASS, version17>; PI' asserts that
    // PI is known since 21-Sep-1987" — history time on the link,
    // belief time from the KB clock.
    use conceptbase::telos::Interval;
    let mut kb = Kb::new();
    let invitation = kb.individual("Invitation").unwrap();
    let class = kb.builtins().simple_class;
    let instanceof = kb.intern("instanceof");
    kb.tick(); // "21-Sep-1987": some belief instant
    let told_at = kb.now();
    let link = kb
        .create_raw(
            invitation,
            instanceof,
            class,
            Interval::between(17, 18).unwrap(),
        )
        .unwrap();
    let p = kb.get(link).unwrap();
    assert_eq!(p.history, Interval::between(17, 18).unwrap());
    assert!(p.believed_at(told_at));
    assert!(!p.believed_at(told_at - 1));
    assert!(
        p.belief(kb.now()).is_open_ended(),
        "belief open towards the future"
    );
}

#[test]
fn frame_roundtrip_with_constraints_and_tokens() {
    let mut kb = Kb::new();
    tell_all(
        &mut kb,
        &ObjectFrame::parse_all(
            "TELL TDL_EntityClass isA Class end\n\
             TELL Person end\n\
             TELL Paper in TDL_EntityClass with attribute author : Person end",
        )
        .unwrap(),
    )
    .unwrap();
    let src = "TELL Invitation in TDL_EntityClass isA Paper with\n\
               attribute sender : Person\n\
               constraint hasSender : $ forall i/Invitation i.sender defined $\n\
               end";
    let frame = ObjectFrame::parse(src).unwrap();
    tell(&mut kb, &frame).unwrap();
    let back = frame_of(&kb, kb.lookup("Invitation").unwrap()).unwrap();
    // Round-trip: re-parse the printed frame and compare structure.
    let reparsed = ObjectFrame::parse(&back.to_string()).unwrap();
    assert_eq!(reparsed.name, "Invitation");
    assert_eq!(reparsed.classes, vec!["TDL_EntityClass"]);
    assert_eq!(reparsed.isa, vec!["Paper"]);
    assert_eq!(reparsed.attrs.len(), 1);
    assert_eq!(reparsed.constraints.len(), 1);
    assert!(reparsed.constraints[0].1.contains("sender defined"));
}

#[test]
fn transformer_feeds_consistency_checker() {
    // The §3.1 pipeline: object transformer → proposition processor →
    // consistency checker.
    use conceptbase::objectbase::consistency::{check_touched, Violation};
    let mut kb = Kb::new();
    tell_all(
        &mut kb,
        &ObjectFrame::parse_all(
            "TELL Person end\n\
             TELL Invitation with\n\
               attribute sender : Person\n\
               constraint hasSender : $ forall i/Invitation i.sender defined $\n\
             end",
        )
        .unwrap(),
    )
    .unwrap();
    // A violating token…
    let receipt = tell(
        &mut kb,
        &ObjectFrame::parse("TELL inv1 in Invitation end").unwrap(),
    )
    .unwrap();
    let (violations, _) = check_touched(kb.snapshot(), &receipt.created);
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::Constraint { name, .. } if name == "hasSender")));
    // …fixed by a second TELL.
    tell(
        &mut kb,
        &ObjectFrame::parse("TELL maria in Person end").unwrap(),
    )
    .unwrap();
    let receipt = tell(
        &mut kb,
        &ObjectFrame::parse("TELL inv1 with attribute sender : maria end").unwrap(),
    )
    .unwrap();
    let (violations, _) = check_touched(kb.snapshot(), &receipt.created);
    assert!(violations.is_empty());
}
