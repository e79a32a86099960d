//! The ω-level bootstrap: CML's predefined objects.
//!
//! §3.1: "Axioms of CML … reflect the existence of propositions with
//! predefined interpretation" — classification (`instanceof`),
//! specialization (`isa`), aggregation (`attribute`), deduction
//! (`rule`), constraints (`constraint`) and behaviours (`behaviour`).
//! The predefined link classes (e.g. `InstanceOf_omega =
//! <PROPOSITION, instanceof, CLASS, Always>`) and the classification
//! levels (`Token`, `SimpleClass`, `MetaClass`, `MetametaClass`) are
//! themselves propositions, created here when a fresh KB is opened.
//!
//! Because everything is a proposition, the GKBMS metamodel of §3.2 is
//! built *on top of* this level with ordinary TELLs — no kernel change.

use crate::kb::{Kb, L_INSTANCEOF, L_ISA};
use crate::prop::PropId;
use crate::time::interval::Interval;

/// Names of the ω-level individuals.
pub mod names {
    /// The class of all propositions.
    pub const PROPOSITION: &str = "Proposition";
    /// The class of all classes.
    pub const CLASS: &str = "Class";
    /// Instance level.
    pub const TOKEN: &str = "Token";
    /// First class level.
    pub const SIMPLE_CLASS: &str = "SimpleClass";
    /// Second class level (classes of classes).
    pub const META_CLASS: &str = "MetaClass";
    /// Third class level.
    pub const METAMETA_CLASS: &str = "MetametaClass";
    /// Destination class of rule / constraint links.
    pub const ASSERTION: &str = "Assertion";
    /// Destination class of behaviour links.
    pub const BEHAVIOUR: &str = "Behaviour";
    /// ω classification link class.
    pub const INSTANCE_OF_OMEGA: &str = "InstanceOf_omega";
    /// ω specialization link class.
    pub const ISA_OMEGA: &str = "IsA_omega";
    /// ω aggregation link class.
    pub const ATTRIBUTE_OMEGA: &str = "Attribute_omega";
    /// The predefined simple-class-level isa class of the paper's
    /// `IsA_1 = <SimpleClass, isa, SimpleClass, Always>` example.
    pub const ISA_1: &str = "IsA_1";
}

/// Proposition ids of the ω-level objects.
#[derive(Debug, Clone, Copy)]
pub struct Builtins {
    /// `Proposition`, the class of everything.
    pub proposition: PropId,
    /// `Class`, the class of all classes.
    pub class: PropId,
    /// `Token` level.
    pub token: PropId,
    /// `SimpleClass` level.
    pub simple_class: PropId,
    /// `MetaClass` level.
    pub meta_class: PropId,
    /// `MetametaClass` level.
    pub metameta_class: PropId,
    /// `Assertion` (destinations of rule/constraint links).
    pub assertion: PropId,
    /// `Behaviour` (destinations of behaviour links).
    pub behaviour: PropId,
    /// The ω instanceof link class.
    pub instance_of_omega: PropId,
    /// The ω isa link class.
    pub isa_omega: PropId,
    /// The ω attribute link class.
    pub attribute_omega: PropId,
    /// `IsA_1`, the isa class between simple classes.
    pub isa_1: PropId,
}

impl Builtins {
    /// The value a [`Kb`] under construction holds until
    /// [`bootstrap`] has created the objects.
    pub(crate) fn placeholder() -> Self {
        let z = PropId(0);
        Builtins {
            proposition: z,
            class: z,
            token: z,
            simple_class: z,
            meta_class: z,
            metameta_class: z,
            assertion: z,
            behaviour: z,
            instance_of_omega: z,
            isa_omega: z,
            attribute_omega: z,
            isa_1: z,
        }
    }
}

/// Creates the individual `name` (the caller knows it is new).
fn node(kb: &mut Kb, name: &str) -> PropId {
    let id = kb.next_id();
    let label = kb.intern(name);
    kb.append(id, label, id, Interval::always())
}

/// Creates the link `<x, label, y, Always>` between existing objects
/// (the caller knows it is new and, for `isa`, acyclic).
fn link(kb: &mut Kb, x: PropId, label: &str, y: PropId) {
    let label = kb.intern(label);
    kb.append(x, label, y, Interval::always());
}

/// Creates the ω-level in an empty KB. The structure is fixed, so it
/// is appended directly: no lookup, duplicate or cycle check can fire.
pub(crate) fn bootstrap(kb: &mut Kb) -> Builtins {
    let proposition = node(kb, names::PROPOSITION);
    let class = node(kb, names::CLASS);
    let token = node(kb, names::TOKEN);
    let simple_class = node(kb, names::SIMPLE_CLASS);
    let meta_class = node(kb, names::META_CLASS);
    let metameta_class = node(kb, names::METAMETA_CLASS);
    let assertion = node(kb, names::ASSERTION);
    let behaviour = node(kb, names::BEHAVIOUR);

    // Every class is a proposition; every simple/meta/metameta class is
    // a class; tokens are plain propositions.
    link(kb, class, L_ISA, proposition);
    link(kb, token, L_ISA, proposition);
    for level in [simple_class, meta_class, metameta_class] {
        link(kb, level, L_ISA, class);
        link(kb, level, L_INSTANCEOF, class);
    }
    link(kb, assertion, L_INSTANCEOF, class);
    link(kb, behaviour, L_INSTANCEOF, class);

    // The predefined link classes, as the paper writes them:
    //   InstanceOf_omega = <PROPOSITION, instanceof, CLASS, Always>.
    // They are attribute-like propositions between builtin nodes, named
    // individually so they can be retrieved and extended.
    let instance_of_omega = node(kb, names::INSTANCE_OF_OMEGA);
    link(kb, instance_of_omega, "from", proposition);
    link(kb, instance_of_omega, "to", class);
    let isa_omega = node(kb, names::ISA_OMEGA);
    link(kb, isa_omega, "from", class);
    link(kb, isa_omega, "to", class);
    let attribute_omega = node(kb, names::ATTRIBUTE_OMEGA);
    link(kb, attribute_omega, "from", proposition);
    link(kb, attribute_omega, "to", proposition);
    let isa_1 = node(kb, names::ISA_1);
    link(kb, isa_1, "from", simple_class);
    link(kb, isa_1, "to", simple_class);
    link(kb, isa_1, L_ISA, isa_omega);

    kb.tick();
    Builtins {
        proposition,
        class,
        token,
        simple_class,
        meta_class,
        metameta_class,
        assertion,
        behaviour,
        instance_of_omega,
        isa_omega,
        attribute_omega,
        isa_1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_names_resolve() {
        let kb = Kb::new();
        let b = kb.builtins();
        assert_eq!(kb.display(b.proposition), names::PROPOSITION);
        assert_eq!(kb.display(b.class), names::CLASS);
        assert_eq!(kb.display(b.isa_1), names::ISA_1);
    }

    #[test]
    fn levels_are_classes_and_propositions() {
        let kb = Kb::new();
        let b = kb.builtins();
        assert!(kb.snapshot().is_instance_of(b.simple_class, b.class));
        assert!(kb
            .snapshot()
            .isa_ancestors(b.simple_class)
            .contains(&b.proposition));
        assert!(kb
            .snapshot()
            .isa_ancestors(b.class)
            .contains(&b.proposition));
    }

    #[test]
    fn link_classes_have_from_to() {
        let kb = Kb::new();
        let b = kb.builtins();
        assert_eq!(
            kb.snapshot().attr_values(b.instance_of_omega, "from"),
            vec![b.proposition]
        );
        assert_eq!(
            kb.snapshot().attr_values(b.instance_of_omega, "to"),
            vec![b.class]
        );
        assert_eq!(
            kb.snapshot().attr_values(b.isa_1, "from"),
            vec![b.simple_class]
        );
    }

    #[test]
    fn isa_1_specializes_isa_omega() {
        let kb = Kb::new();
        let b = kb.builtins();
        assert!(kb.snapshot().isa_ancestors(b.isa_1).contains(&b.isa_omega));
    }

    #[test]
    fn user_metaclasses_buildable_on_top() {
        // Fig 2-5 / 3-3: the GKBMS metamodel is ordinary TELLs.
        let mut kb = Kb::new();
        let b = *kb.builtins();
        let design_object = kb.individual("DesignObject").unwrap();
        kb.instantiate(design_object, b.meta_class).unwrap();
        let dbpl_rel = kb.individual("DBPL_Rel").unwrap();
        kb.instantiate(dbpl_rel, design_object).unwrap();
        let inv_rel = kb.individual("InvitationRel").unwrap();
        kb.instantiate(inv_rel, dbpl_rel).unwrap();
        assert!(kb.snapshot().is_instance_of(inv_rel, dbpl_rel));
        assert!(kb.snapshot().is_instance_of(dbpl_rel, design_object));
        assert!(kb.snapshot().is_instance_of(design_object, b.meta_class));
        // Three distinct levels, as fig 2-5 draws them.
        assert!(!kb.snapshot().is_instance_of(inv_rel, design_object));
    }
}
