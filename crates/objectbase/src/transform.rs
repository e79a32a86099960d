//! The Object Transformer: frames ⇄ propositions (fig 3-2).
//!
//! `TELL` turns a frame into propositions: one individual for the
//! object, `instanceof` links for its classes, `isa` links, attribute
//! propositions classified under matching attribute classes, and
//! constraint/rule links to assertion objects. `frame_of` is the
//! inverse: it groups the propositions around an object identifier
//! back into a frame.

use crate::error::{ObError, ObResult};
use crate::frame::{FrameAttr, ObjectFrame};
use telos::{Kb, PropId, Snapshot, TelosError, TelosResult};

/// Marker individuals installed on first use.
pub mod markers {
    /// Class of constraint assertion objects.
    pub const CONSTRAINT: &str = "ConstraintAssertion";
    /// Class of rule assertion objects.
    pub const RULE: &str = "RuleAssertion";
    /// Label of the text attribute on assertion objects.
    pub const TEXT: &str = "text";
}

fn marker(kb: &mut Kb, name: &str) -> TelosResult<PropId> {
    if let Some(id) = kb.lookup(name) {
        return Ok(id);
    }
    let id = kb.individual(name)?;
    let assertion = kb.builtins().assertion;
    kb.specialize(id, assertion)?;
    // Declare the `text` attribute class once, on Assertion itself, so
    // assertion objects' text links are well-typed under aggregation.
    if kb
        .snapshot()
        .attr_values(assertion, markers::TEXT)
        .is_empty()
    {
        let proposition = kb.builtins().proposition;
        kb.put_attr(assertion, markers::TEXT, proposition)?;
    }
    Ok(id)
}

/// What a TELL created.
#[derive(Debug, Clone)]
pub struct TellReceipt {
    /// The told object.
    pub object: PropId,
    /// Every proposition created by this TELL (object, links,
    /// assertion objects), in creation order.
    pub created: Vec<PropId>,
}

/// TELLs a frame into the KB.
pub fn tell(kb: &mut Kb, frame: &ObjectFrame) -> ObResult<TellReceipt> {
    let mark = kb.len();
    let object = kb.individual(&frame.name)?;
    for class in &frame.classes {
        let c = kb
            .lookup(class)
            .ok_or_else(|| ObError::Unknown(format!("class `{class}`")))?;
        kb.instantiate(object, c)?;
    }
    for sup in &frame.isa {
        let s = kb
            .lookup(sup)
            .ok_or_else(|| ObError::Unknown(format!("superclass `{sup}`")))?;
        kb.specialize(object, s)?;
    }
    for FrameAttr { label, value } in &frame.attrs {
        let v = kb
            .lookup(value)
            .ok_or_else(|| ObError::Unknown(format!("attribute value `{value}`")))?;
        match kb.snapshot().find_attr_class(object, label) {
            Some(ac) => {
                kb.put_attr_typed(object, label, v, ac)?;
            }
            None => {
                kb.put_attr(object, label, v)?;
            }
        }
    }
    for (name, text) in &frame.constraints {
        tell_assertion(kb, object, name, text, markers::CONSTRAINT)?;
    }
    for (name, text) in &frame.rules {
        tell_assertion(kb, object, name, text, markers::RULE)?;
    }
    let created = (mark..kb.len()).map(|i| PropId(i as u32)).collect();
    kb.tick();
    Ok(TellReceipt { object, created })
}

/// Whether an assertion text is a deductive rule in datalog notation
/// (`head :- body.`) rather than the assertion language.
pub fn is_datalog_text(text: &str) -> bool {
    text.contains(":-")
}

fn tell_assertion(
    kb: &mut Kb,
    object: PropId,
    name: &str,
    text: &str,
    kind: &str,
) -> ObResult<PropId> {
    // Validate the assertion text eagerly: a malformed constraint must
    // be rejected at TELL time, not at check time. Rule sections may
    // carry deductive rules in datalog notation, validated by the
    // datalog parser instead.
    if kind == markers::RULE && is_datalog_text(text) {
        let text = text.trim();
        let dotted = if text.ends_with('.') {
            text.to_string()
        } else {
            format!("{text}.")
        };
        datalog::Program::parse(&dotted)?;
    } else {
        telos::assertion::parse(text)?;
    }
    let owner_name = kb.display(object);
    let obj_name = format!("{owner_name}!{name}");
    let assertion_obj = kb.individual(&obj_name)?;
    let kind_class = marker(kb, kind)?;
    kb.instantiate(assertion_obj, kind_class)?;
    let text_obj = kb.individual(text)?;
    kb.put_attr(assertion_obj, markers::TEXT, text_obj)?;
    kb.put_attr(object, name, assertion_obj)?;
    Ok(assertion_obj)
}

/// TELLs several frames, in order.
pub fn tell_all(kb: &mut Kb, frames: &[ObjectFrame]) -> ObResult<Vec<TellReceipt>> {
    frames.iter().map(|f| tell(kb, f)).collect()
}

/// UNTELLs an object and all propositions depending on it.
pub fn untell_object(kb: &mut Kb, name: &str) -> ObResult<Vec<PropId>> {
    let id = kb
        .lookup(name)
        .ok_or_else(|| ObError::Unknown(format!("object `{name}`")))?;
    Ok(kb.untell_cascade(id)?)
}

/// The constraint assertions attached to `class` (name, text pairs).
pub fn constraints_of(snap: Snapshot<'_>, class: PropId) -> Vec<(String, String)> {
    assertions_of(snap, class, markers::CONSTRAINT)
}

/// The rule assertions attached to `class`.
pub fn rules_of(snap: Snapshot<'_>, class: PropId) -> Vec<(String, String)> {
    assertions_of(snap, class, markers::RULE)
}

fn assertions_of(snap: Snapshot<'_>, class: PropId, kind: &str) -> Vec<(String, String)> {
    let Some(kind_class) = snap.lookup(kind) else {
        return Vec::new();
    };
    let store = snap.store();
    let mut out = Vec::new();
    for attr in snap.attrs_of(class) {
        let Some(p) = store.prop(attr) else { continue };
        if !snap.is_instance_of(p.dest, kind_class) {
            continue;
        }
        let label = store.resolve_sym(p.label).to_string();
        let texts = snap.attr_values(p.dest, markers::TEXT);
        if let Some(&t) = texts.first() {
            out.push((label, store.display(t)));
        }
    }
    out
}

/// Every stored deductive rule in datalog notation, across all rule
/// assertion objects `snap` believes. Used by the static analyzer to
/// check a newly admitted rule against the rule base it joins (a
/// negative cycle can close over an old rule).
pub fn stored_datalog_rules(snap: Snapshot<'_>) -> Vec<String> {
    let Some(rule_class) = snap.lookup(markers::RULE) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for obj in snap.all_instances_of(rule_class) {
        for &t in &snap.attr_values(obj, markers::TEXT) {
            let text = snap.store().display(t);
            if is_datalog_text(&text) {
                out.push(text);
            }
        }
    }
    out
}

/// The inverse transformation: groups the propositions around an
/// object identifier back into a frame, as currently believed.
pub fn frame_of(kb: &Kb, object: PropId) -> ObResult<ObjectFrame> {
    frame_at(kb.snapshot(), object)
}

/// [`frame_of`] as of a snapshot's belief tick — over the live KB or a
/// pinned [`telos::KbVersion`] alike (what the server's `show` reads).
pub fn frame_at(snap: Snapshot<'_>, object: PropId) -> ObResult<ObjectFrame> {
    let store = snap.store();
    let prop = store
        .prop(object)
        .ok_or(TelosError::UnknownProposition(object))?;
    if !prop.is_individual() {
        return Err(ObError::Unknown(format!(
            "{} is a link, not an object",
            store.display(object)
        )));
    }
    let display_all = |ids: Vec<PropId>| ids.into_iter().map(|c| store.display(c)).collect();
    let mut frame = ObjectFrame::named(store.display(object));
    frame.classes = display_all(snap.classes_of(object));
    frame.isa = display_all(snap.isa_parents(object));
    let constraint_class = snap.lookup(markers::CONSTRAINT);
    let rule_class = snap.lookup(markers::RULE);
    for attr in snap.attrs_of(object) {
        let Some(p) = store.prop(attr) else { continue };
        let label = store.resolve_sym(p.label).to_string();
        let is_constraint = constraint_class.is_some_and(|c| snap.is_instance_of(p.dest, c));
        let is_rule = rule_class.is_some_and(|c| snap.is_instance_of(p.dest, c));
        if is_constraint || is_rule {
            let texts = snap.attr_values(p.dest, markers::TEXT);
            if let Some(&t) = texts.first() {
                let entry = (label, store.display(t));
                if is_constraint {
                    frame.constraints.push(entry);
                } else {
                    frame.rules.push(entry);
                }
            }
        } else {
            frame.attrs.push(FrameAttr {
                label,
                value: store.display(p.dest),
            });
        }
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb_with_document_classes() -> Kb {
        let mut kb = Kb::new();
        let frames = ObjectFrame::parse_all(
            "TELL TDL_EntityClass isA Class end\n\
             TELL Person end\n\
             TELL Paper in TDL_EntityClass with attribute author : Person end\n\
             TELL Invitation in TDL_EntityClass isA Paper with\n\
               attribute sender : Person\n\
             end",
        )
        .unwrap();
        tell_all(&mut kb, &frames).unwrap();
        kb
    }

    #[test]
    fn fig_3_2_propositional_representation() {
        // "Consider a class TDL_EntityClass called Invitation, which
        // relates invitations to persons by an attribute sender."
        let kb = kb_with_document_classes();
        let invitation = kb.lookup("Invitation").unwrap();
        let tdl = kb.lookup("TDL_EntityClass").unwrap();
        let person = kb.lookup("Person").unwrap();
        let paper = kb.lookup("Paper").unwrap();
        // Invitation instanceof TDL_EntityClass (fig 3-2's unlabeled link).
        assert!(kb.snapshot().classes_of(invitation).contains(&tdl));
        // Invitation isa Paper.
        assert!(kb.snapshot().isa_parents(invitation).contains(&paper));
        // The attribute proposition <Invitation, sender, Person>.
        let sender_attrs = kb.snapshot().attr_values(invitation, "sender");
        assert_eq!(sender_attrs, vec![person]);
        // The attribute proposition itself is an object with a
        // believed identity, per "nodes are also propositions".
        let attr_id = kb.snapshot().attrs_of(invitation)[0];
        assert!(kb.snapshot().sees(attr_id));
        assert_eq!(kb.display(attr_id), "<Invitation sender Person>");
    }

    #[test]
    fn token_attributes_are_classified() {
        let mut kb = kb_with_document_classes();
        tell(
            &mut kb,
            &ObjectFrame::parse("TELL maria in Person end").unwrap(),
        )
        .unwrap();
        tell(
            &mut kb,
            &ObjectFrame::parse("TELL inv42 in Invitation with attribute sender : maria end")
                .unwrap(),
        )
        .unwrap();
        let inv42 = kb.lookup("inv42").unwrap();
        let attr = kb.snapshot().attrs_of(inv42)[0];
        // Classified under <Invitation, sender, Person> as fig 3-2 shows.
        let ac = kb.snapshot().classes_of(attr).first().copied().unwrap();
        assert_eq!(kb.display(ac), "<Invitation sender Person>");
    }

    #[test]
    fn unknown_references_rejected() {
        let mut kb = Kb::new();
        let f = ObjectFrame::parse("TELL x in Ghost end").unwrap();
        assert!(matches!(tell(&mut kb, &f), Err(ObError::Unknown(_))));
        let f = ObjectFrame::parse("TELL x isA Ghost end").unwrap();
        assert!(matches!(tell(&mut kb, &f), Err(ObError::Unknown(_))));
        let f = ObjectFrame::parse("TELL x with attribute a : Ghost end").unwrap();
        assert!(matches!(tell(&mut kb, &f), Err(ObError::Unknown(_))));
    }

    #[test]
    fn constraints_stored_and_retrieved() {
        let mut kb = kb_with_document_classes();
        let f = ObjectFrame::parse(
            "TELL Minutes in TDL_EntityClass isA Paper with\n\
               constraint approved : $ forall m/Minutes m.approvedBy defined $\n\
             end",
        )
        .unwrap();
        tell(&mut kb, &f).unwrap();
        let minutes = kb.lookup("Minutes").unwrap();
        let cs = constraints_of(kb.snapshot(), minutes);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].0, "approved");
        assert!(cs[0].1.contains("approvedBy"));
        assert!(rules_of(kb.snapshot(), minutes).is_empty());
    }

    #[test]
    fn malformed_constraint_rejected_at_tell_time() {
        let mut kb = kb_with_document_classes();
        let f = ObjectFrame::parse(
            "TELL Bad in TDL_EntityClass with constraint c : $ forall broken $ end",
        )
        .unwrap();
        assert!(tell(&mut kb, &f).is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let mut kb = kb_with_document_classes();
        let src = ObjectFrame::parse(
            "TELL Minutes in TDL_EntityClass isA Paper with\n\
               attribute approvedBy : Person\n\
               constraint c : $ true $\n\
               rule r : $ true $\n\
             end",
        )
        .unwrap();
        tell(&mut kb, &src).unwrap();
        let minutes = kb.lookup("Minutes").unwrap();
        let back = frame_of(&kb, minutes).unwrap();
        assert_eq!(back.name, "Minutes");
        assert_eq!(back.classes, vec!["TDL_EntityClass"]);
        assert_eq!(back.isa, vec!["Paper"]);
        assert_eq!(back.attrs.len(), 1);
        assert_eq!(back.attrs[0].label, "approvedBy");
        assert_eq!(
            back.constraints,
            vec![("c".to_string(), "true".to_string())]
        );
        assert_eq!(back.rules, vec![("r".to_string(), "true".to_string())]);
    }

    #[test]
    fn frame_of_rejects_links() {
        let kb = kb_with_document_classes();
        let invitation = kb.lookup("Invitation").unwrap();
        let attr = kb.snapshot().attrs_of(invitation)[0];
        assert!(frame_of(&kb, attr).is_err());
    }

    #[test]
    fn untell_object_cascades() {
        let mut kb = kb_with_document_classes();
        let receipt = tell(
            &mut kb,
            &ObjectFrame::parse("TELL maria in Person end").unwrap(),
        )
        .unwrap();
        let untold = untell_object(&mut kb, "maria").unwrap();
        assert!(untold.contains(&receipt.object));
        assert!(kb.lookup("maria").is_none());
        assert!(untell_object(&mut kb, "maria").is_err());
    }

    #[test]
    fn receipt_lists_created_propositions() {
        let mut kb = kb_with_document_classes();
        let before = kb.len();
        let receipt = tell(
            &mut kb,
            &ObjectFrame::parse("TELL maria in Person end").unwrap(),
        )
        .unwrap();
        assert_eq!(receipt.created.len(), kb.len() - before);
        assert!(receipt.created.contains(&receipt.object));
        // maria + instanceof link
        assert_eq!(receipt.created.len(), 2);
    }

    #[test]
    fn retell_existing_object_is_additive() {
        let mut kb = kb_with_document_classes();
        tell(
            &mut kb,
            &ObjectFrame::parse("TELL maria in Person end").unwrap(),
        )
        .unwrap();
        // Telling more about maria adds to the same object.
        let receipt = tell(
            &mut kb,
            &ObjectFrame::parse("TELL maria in Person end").unwrap(),
        )
        .unwrap();
        assert_eq!(kb.display(receipt.object), "maria");
        assert_eq!(receipt.created.len(), 0, "nothing new to create");
    }
}
