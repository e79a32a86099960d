//! The CML axioms as checkable judgements.
//!
//! §3.1: "Axioms of CML restrict the set of well-formed networks and
//! help define their semantics." Construction-time checks in [`crate::kb`]
//! enforce the cheap ones (isa acyclicity, reserved labels); the
//! functions here validate a whole [`Snapshot`] — the live KB or any
//! version of it — and are what the object processor's Consistency
//! Checker calls, set-oriented, after a batch of TELLs. The typing and
//! aggregation judgements read class membership through one
//! [`ClassClosures`] memo per walk, so an object shared by many
//! propositions has its class closure computed once.

use crate::kb::{ClassClosures, Snapshot};
use crate::omega::names;
use crate::prop::{PropId, Proposition};
use std::fmt;

/// One detected axiom violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated axiom.
    pub axiom: &'static str,
    /// The offending proposition.
    pub prop: PropId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.axiom, self.message)
    }
}

/// Attribute typing (aggregation axiom): for every believed attribute
/// proposition `a = <x, l, y>` classified under an attribute class
/// `A = <C, m, D>`, `x` must be an instance of `C` and `y` an instance
/// of `D`.
pub fn check_attribute_typing(snap: Snapshot<'_>) -> Vec<Violation> {
    let mut classes = ClassClosures::new(snap);
    let mut out = Vec::new();
    for id in snap.believed() {
        typing_for(&mut classes, id, &mut out);
    }
    out
}

/// The proposition `id` if `snap` believes it.
fn seen(snap: Snapshot<'_>, id: PropId) -> Option<&Proposition> {
    snap.store().prop(id).filter(|p| p.believed_at(snap.at()))
}

fn typing_for(classes: &mut ClassClosures<'_>, id: PropId, out: &mut Vec<Violation>) {
    let snap = classes.snapshot();
    let store = snap.store();
    let Some(p) = seen(snap, id).filter(|p| !p.is_individual()) else {
        return;
    };
    let Some(attr_class_id) = snap.classes_of(id).into_iter().next() else {
        return;
    };
    let Some(attr_class) = store.prop(attr_class_id) else {
        return;
    };
    if attr_class.is_individual() {
        return; // classified under a plain class, not an attribute class
    }
    let (c, d) = (attr_class.source, attr_class.dest);
    if !classes.is_instance_of(p.source, c) {
        out.push(Violation {
            axiom: "attribute-typing/source",
            prop: id,
            message: format!(
                "{}: source `{}` is not an instance of `{}`",
                store.display(id),
                store.display(p.source),
                store.display(c)
            ),
        });
    }
    if !classes.is_instance_of(p.dest, d) {
        out.push(Violation {
            axiom: "attribute-typing/dest",
            prop: id,
            message: format!(
                "{}: destination `{}` is not an instance of `{}`",
                store.display(id),
                store.display(p.dest),
                store.display(d)
            ),
        });
    }
}

/// Strict aggregation: every believed attribute on an object that has
/// at least one class must be *declarable* — some class of the object
/// (transitively) carries an attribute class with the same label.
/// Objects with no classes at all (raw network nodes) are exempt.
pub fn check_attribute_declared(snap: Snapshot<'_>) -> Vec<Violation> {
    let mut classes = ClassClosures::new(snap);
    let mut out = Vec::new();
    for id in snap.believed() {
        declared_for(&mut classes, id, &mut out);
    }
    out
}

fn declared_for(classes: &mut ClassClosures<'_>, id: PropId, out: &mut Vec<Violation>) {
    let snap = classes.snapshot();
    let Some(p) = seen(snap, id).filter(|p| !p.is_individual()) else {
        return;
    };
    let label = snap.store().resolve_sym(p.label).to_string();
    if label == crate::kb::L_INSTANCEOF || label == crate::kb::L_ISA {
        return;
    }
    let owner = p.source;
    if classes.of(owner).is_empty() {
        return; // untyped node: class-level modelling, exempt
    }
    // An attribute *on a class* is an attribute class — a declaration,
    // not a use — and therefore exempt.
    let class = snap.lookup(names::CLASS);
    if class.is_some_and(|class| classes.is_instance_of(owner, class)) {
        return;
    }
    if classes.find_attr_class(owner, &label).is_none() {
        out.push(Violation {
            axiom: "aggregation/undeclared",
            prop: id,
            message: format!(
                "attribute `{}` on `{}` matches no attribute class",
                label,
                snap.store().display(owner)
            ),
        });
    }
}

/// Specialization soundness: the believed isa graph is acyclic. The
/// KB rejects cycles at TELL time, so a violation here indicates
/// memory corruption or a bad replay — checked anyway, defensively.
pub fn check_isa_acyclic(snap: Snapshot<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in snap.believed() {
        acyclic_for(snap, id, &mut out);
    }
    out
}

fn acyclic_for(snap: Snapshot<'_>, id: PropId, out: &mut Vec<Violation>) {
    let Some(p) = seen(snap, id).filter(|p| !p.is_individual()) else {
        return;
    };
    if snap.store().resolve_sym(p.label) != crate::kb::L_ISA {
        return;
    }
    if snap.isa_ancestors(p.dest).contains(&p.source) {
        out.push(Violation {
            axiom: "specialization/cycle",
            prop: id,
            message: format!("isa cycle through {}", snap.store().display(id)),
        });
    }
}

/// Attribute refinement: if `C isa D` and both declare an attribute
/// class with the same label, every declaration on `C` must refine
/// *some* declaration on `D` with that label — the value class equals
/// it, specializes it, or is an instance of it (value refinement).
/// Declarations are multi-valued, so the check is existential over
/// `D`'s declarations.
pub fn check_attribute_refinement(snap: Snapshot<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for c in snap.believed() {
        refinement_for(snap, c, &mut out);
    }
    out
}

fn refinement_for(snap: Snapshot<'_>, c: PropId, out: &mut Vec<Violation>) {
    let store = snap.store();
    if !seen(snap, c).is_some_and(Proposition::is_individual) {
        return;
    }
    for d in snap.isa_ancestors(c) {
        for attr_c in snap.attrs_of(c) {
            let Some(ac) = store.prop(attr_c) else {
                continue;
            };
            let label = store.resolve_sym(ac.label).to_string();
            let super_decls: Vec<PropId> = snap
                .attrs_of(d)
                .into_iter()
                .filter(|&a| {
                    snap.store()
                        .prop(a)
                        .is_some_and(|ad| store.resolve_sym(ad.label) == label)
                })
                .collect();
            if super_decls.is_empty() {
                continue; // label not declared above: nothing to refine
            }
            let refines_one = super_decls.iter().any(|&a| {
                let Some(ad) = store.prop(a) else {
                    return false;
                };
                ac.dest == ad.dest
                    || snap.isa_ancestors(ac.dest).contains(&ad.dest)
                    || snap.is_instance_of(ac.dest, ad.dest)
            });
            if !refines_one {
                out.push(Violation {
                    axiom: "specialization/attribute-refinement",
                    prop: attr_c,
                    message: format!(
                        "`{}`.{} : `{}` refines no `{}`.{} declaration",
                        store.display(c),
                        label,
                        store.display(ac.dest),
                        store.display(d),
                        label
                    ),
                });
            }
        }
    }
}

/// Runs every axiom check.
pub fn check_all(snap: Snapshot<'_>) -> Vec<Violation> {
    let mut out = check_attribute_typing(snap);
    out.extend(check_attribute_declared(snap));
    out.extend(check_isa_acyclic(snap));
    out.extend(check_attribute_refinement(snap));
    out
}

/// Set-oriented axiom check over a batch: only the given propositions
/// (and for refinement, the individuals they touch) are re-validated.
/// Sound for incremental use because every axiom here is *local* to a
/// proposition and the objects it connects: a fresh violation can only
/// involve a proposition of the batch. `classes` is the batch's memo
/// of class closures, which the caller may read on afterwards.
pub fn check_props(classes: &mut ClassClosures<'_>, ids: &[PropId]) -> Vec<Violation> {
    let snap = classes.snapshot();
    let store = snap.store();
    let mut out = Vec::new();
    let mut refinement_roots: Vec<PropId> = Vec::new();
    for &id in ids {
        typing_for(classes, id, &mut out);
        declared_for(classes, id, &mut out);
        acyclic_for(snap, id, &mut out);
        let Some(p) = store.prop(id) else { continue };
        let root = if p.is_individual() { id } else { p.source };
        if !refinement_roots.contains(&root) {
            refinement_roots.push(root);
        }
        // New isa links threaten refinement of the subclass side's
        // existing declarations (and its descendants'); a new attribute
        // declaration on a class likewise threatens every subclass that
        // redeclares the label.
        let is_isa = !p.is_individual() && store.resolve_sym(p.label) == crate::kb::L_ISA;
        let is_attr_decl =
            !p.is_individual() && store.resolve_sym(p.label) != crate::kb::L_INSTANCEOF && !is_isa;
        if is_isa || is_attr_decl {
            for desc in snap.isa_descendants(p.source) {
                if !refinement_roots.contains(&desc) {
                    refinement_roots.push(desc);
                }
            }
        }
    }
    for root in refinement_roots {
        refinement_for(snap, root, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kb;

    #[test]
    fn bootstrap_is_axiom_clean() {
        let kb = Kb::new();
        assert_eq!(check_all(kb.snapshot()), Vec::new());
    }

    #[test]
    fn well_typed_attribute_passes() {
        let mut kb = Kb::new();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        let maria = kb.individual("maria").unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        kb.instantiate(maria, person).unwrap();
        let sender = kb.put_attr(invitation, "sender", person).unwrap();
        kb.put_attr_typed(inv42, "sender", maria, sender).unwrap();
        assert!(check_attribute_typing(kb.snapshot()).is_empty());
        assert!(check_attribute_declared(kb.snapshot()).is_empty());
    }

    #[test]
    fn ill_typed_attribute_detected() {
        let mut kb = Kb::new();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let room = kb.individual("Room").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        let hall = kb.individual("hall").unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        kb.instantiate(hall, room).unwrap();
        let sender = kb.put_attr(invitation, "sender", person).unwrap();
        // hall is a Room, not a Person:
        kb.put_attr_typed(inv42, "sender", hall, sender).unwrap();
        let v = check_attribute_typing(kb.snapshot());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, "attribute-typing/dest");
        assert!(v[0].to_string().contains("hall"));
    }

    #[test]
    fn undeclared_attribute_detected() {
        let mut kb = Kb::new();
        let invitation = kb.individual("Invitation").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        let x = kb.individual("x").unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        kb.put_attr(inv42, "bogus", x).unwrap();
        let v = check_attribute_declared(kb.snapshot());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, "aggregation/undeclared");
    }

    #[test]
    fn refinement_violation_detected() {
        let mut kb = Kb::new();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let room = kb.individual("Room").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.put_attr(paper, "author", person).unwrap();
        // Invitation redeclares author with an unrelated class:
        kb.put_attr(invitation, "author", room).unwrap();
        let v = check_attribute_refinement(kb.snapshot());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, "specialization/attribute-refinement");
    }

    #[test]
    fn valid_refinement_passes() {
        let mut kb = Kb::new();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let organizer = kb.individual("Organizer").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.specialize(organizer, person).unwrap();
        kb.put_attr(paper, "author", person).unwrap();
        kb.put_attr(invitation, "author", organizer).unwrap();
        assert!(check_attribute_refinement(kb.snapshot()).is_empty());
    }

    #[test]
    fn batch_check_sees_superclass_declaration_conflicts() {
        // Incremental soundness: a new declaration on a parent class
        // must re-validate the subclasses' redeclarations.
        let mut kb = Kb::new();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let room = kb.individual("Room").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.put_attr(invitation, "author", room).unwrap();
        assert!(
            check_all(kb.snapshot()).is_empty(),
            "no conflict before the batch"
        );
        // The batch: a conflicting declaration on the superclass.
        let decl = kb.put_attr(paper, "author", person).unwrap();
        let v = check_props(&mut ClassClosures::new(kb.snapshot()), &[decl]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].axiom, "specialization/attribute-refinement");
    }

    #[test]
    fn untold_violations_disappear() {
        let mut kb = Kb::new();
        let invitation = kb.individual("Invitation").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        let x = kb.individual("x").unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        let bad = kb.put_attr(inv42, "bogus", x).unwrap();
        assert_eq!(check_all(kb.snapshot()).len(), 1);
        kb.untell(bad).unwrap();
        assert!(check_all(kb.snapshot()).is_empty());
    }
}
