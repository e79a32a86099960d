//! The conceptual process model (fig 2-6 top layer, fig 3-3).
//!
//! "At the conceptual level, the GKBMS introduces metaclasses to
//! express design object and design decision classes. Formally,
//! metaclass DesignDecision provides the expressive facilities to
//! build design decision classes upon input (FROM) and output (TO)
//! relationships … Conversely, metaclass DesignObject provides
//! facilities to express the justifying decision of a design object
//! and its source reference."
//!
//! Everything here is ordinary Telos TELLs — the ω-level of the
//! `telos` crate makes the metamodel expressible without kernel
//! changes, which is exactly the extensibility argument of §2.2.

use crate::error::GkbmsResult;
use telos::{Kb, PropId};

/// Names of the process-model metaclasses and link classes.
pub mod names {
    /// Metaclass of design object classes.
    pub const DESIGN_OBJECT: &str = "DesignObject";
    /// Metaclass of design decision classes.
    pub const DESIGN_DECISION: &str = "DesignDecision";
    /// Metaclass of design tool specifications.
    pub const DESIGN_TOOL: &str = "DesignTool";
    /// Input link metaattribute (capital per the paper's convention).
    pub const FROM: &str = "FROM";
    /// Output link metaattribute.
    pub const TO: &str = "TO";
    /// Tool link metaattribute.
    pub const BY: &str = "BY";
    /// Justification link metaattribute on design objects.
    pub const JUSTIFICATION: &str = "JUSTIFICATION";
    /// Source-reference link metaattribute on design objects.
    pub const SOURCE: &str = "SOURCE";
    /// Instance-level link labels ("links labeled with small letters
    /// are instances of those denoted by capitals").
    pub const FROM_I: &str = "from";
    /// Instance-level output link label.
    pub const TO_I: &str = "to";
    /// Instance-level tool link label.
    pub const BY_I: &str = "by";
    /// Instance-level justification label.
    pub const JUSTIFICATION_I: &str = "justification";
    /// Instance-level source-reference label.
    pub const SOURCE_I: &str = "source";
    /// Class of external source references.
    pub const SOURCE_REF: &str = "SourceRef";
    /// Class of developers / decision makers.
    pub const AGENT: &str = "Agent";
    /// A decision class's dimension (`mapping`, `refinement`, `choice`).
    pub const DIMENSION: &str = "dimension";
    /// A decision class's precondition (assertion text).
    pub const PRECONDITION: &str = "precondition";
    /// A decision class's proof obligations, one individual each.
    pub const OBLIGATION: &str = "obligation";
    /// An obligation's name.
    pub const NAME: &str = "name";
    /// An obligation's statement.
    pub const STATEMENT: &str = "statement";
    /// The obligations a tool guarantees, by name.
    pub const GUARANTEES: &str = "guarantees";
    /// Whether a tool executes automatically (`true`) or aids (`false`).
    pub const AUTOMATIC: &str = "automatic";
    /// The deciding agent of a decision instance.
    pub const PERFORMER: &str = "performer";
    /// A decision instance's status (`retracted` once retracted).
    pub const STATUS: &str = "status";
    /// A decision instance's discharges, one individual each.
    pub const DISCHARGE: &str = "discharge";
    /// How a discharge was made (`formal` or `signature`).
    pub const KIND: &str = "kind";
    /// Who signed a discharge.
    pub const SIGNER: &str = "signer";
    /// The class a decision's anchor or an output's `to` link names
    /// where the classifications do not say it (see `crate::record`).
    pub const CLASS: &str = "class";
}

/// Proposition ids of the process-model metaclasses.
#[derive(Debug, Clone, Copy)]
pub struct ProcessModel {
    /// `DesignObject` metaclass.
    pub design_object: PropId,
    /// `DesignDecision` metaclass.
    pub design_decision: PropId,
    /// `DesignTool` metaclass.
    pub design_tool: PropId,
    /// `SourceRef` class.
    pub source_ref: PropId,
    /// `Agent` class.
    pub agent: PropId,
}

/// Bootstraps the process model into a KB.
pub fn bootstrap(kb: &mut Kb) -> GkbmsResult<ProcessModel> {
    let meta = kb.builtins().meta_class;
    let simple = kb.builtins().simple_class;
    let class = kb.builtins().class;
    let design_object = kb.individual(names::DESIGN_OBJECT)?;
    kb.instantiate(design_object, meta)?;
    let design_decision = kb.individual(names::DESIGN_DECISION)?;
    kb.instantiate(design_decision, meta)?;
    let design_tool = kb.individual(names::DESIGN_TOOL)?;
    kb.instantiate(design_tool, meta)?;
    // Instances of these metaclasses are themselves classes (of design
    // object / decision / tool tokens).
    kb.specialize(design_object, class)?;
    kb.specialize(design_decision, class)?;
    kb.specialize(design_tool, class)?;
    let source_ref = kb.individual(names::SOURCE_REF)?;
    kb.instantiate(source_ref, simple)?;
    let agent = kb.individual(names::AGENT)?;
    kb.instantiate(agent, simple)?;

    // The metaattributes of fig 3-3: DesignDecision --FROM/TO-->
    // DesignObject, --BY--> DesignTool; DesignObject --JUSTIFICATION-->
    // DesignDecision, --SOURCE--> SourceRef.
    kb.put_attr(design_decision, names::FROM, design_object)?;
    kb.put_attr(design_decision, names::TO, design_object)?;
    kb.put_attr(design_decision, names::BY, design_tool)?;
    kb.put_attr(design_object, names::JUSTIFICATION, design_decision)?;
    kb.put_attr(design_object, names::SOURCE, source_ref)?;

    // Instance-level labels are declared on the metaclasses too, so
    // that concrete decision classes' from/to/by links are declared
    // attributes under the aggregation axiom.
    kb.put_attr(design_decision, names::FROM_I, design_object)?;
    kb.put_attr(design_decision, names::TO_I, design_object)?;
    kb.put_attr(design_decision, names::BY_I, design_tool)?;
    kb.put_attr(design_object, names::JUSTIFICATION_I, design_decision)?;
    kb.put_attr(design_object, names::SOURCE_I, source_ref)?;
    // Design-object classes carry a life-cycle `level` attribute.
    let proposition = kb.builtins().proposition;
    kb.put_attr(design_object, kernel::LEVEL, proposition)?;
    // What the design record tells of a decision class and a tool
    // besides its links (see `crate::record`).
    for label in [names::DIMENSION, names::PRECONDITION, names::OBLIGATION] {
        kb.put_attr(design_decision, label, proposition)?;
    }
    for label in [names::GUARANTEES, names::AUTOMATIC] {
        kb.put_attr(design_tool, label, proposition)?;
    }

    kb.tick();
    Ok(ProcessModel {
        design_object,
        design_decision,
        design_tool,
        source_ref,
        agent,
    })
}

/// The DAIDA kernel design-object classes (§2.2: "as a starting point,
/// design object classes follow an abstract syntax of applied
/// languages"), grouped by life-cycle level.
pub mod kernel {
    /// Requirements level (CML).
    pub const CML_CLASS: &str = "CML_Class";
    /// Conceptual design level: entity classes.
    pub const TDL_ENTITY_CLASS: &str = "TDL_EntityClass";
    /// Conceptual design level: transactions.
    pub const TDL_TRANSACTION: &str = "TDL_Transaction";
    /// Implementation level: relations.
    pub const DBPL_REL: &str = "DBPL_Rel";
    /// Implementation level: normalized relations (fig 3-3:
    /// "NormalizedDBPL_Rel is a specialization of DBPL_Rel").
    pub const NORMALIZED_DBPL_REL: &str = "NormalizedDBPL_Rel";
    /// Implementation level: selectors.
    pub const DBPL_SELECTOR: &str = "DBPL_Selector";
    /// Implementation level: constructors.
    pub const DBPL_CONSTRUCTOR: &str = "DBPL_Constructor";
    /// Implementation level: transactions.
    pub const DBPL_TRANSACTION: &str = "DBPL_Transaction";
    /// The level attribute label.
    pub const LEVEL: &str = "level";
    /// Level individuals.
    pub const LEVELS: [&str; 3] = ["Requirements", "Design", "Implementation"];

    /// `(class, level, isa-parent)` rows of the kernel.
    pub const CLASSES: [(&str, &str, Option<&str>); 8] = [
        (CML_CLASS, "Requirements", None),
        (TDL_ENTITY_CLASS, "Design", None),
        (TDL_TRANSACTION, "Design", None),
        (DBPL_REL, "Implementation", None),
        (NORMALIZED_DBPL_REL, "Implementation", Some(DBPL_REL)),
        (DBPL_SELECTOR, "Implementation", None),
        (DBPL_CONSTRUCTOR, "Implementation", None),
        (DBPL_TRANSACTION, "Implementation", None),
    ];
}

/// Installs the kernel design-object classes.
pub fn install_kernel(kb: &mut Kb, pm: &ProcessModel) -> GkbmsResult<()> {
    for level in kernel::LEVELS {
        kb.individual(level)?;
    }
    for (class, level, parent) in kernel::CLASSES {
        let c = kb.individual(class)?;
        kb.instantiate(c, pm.design_object)?;
        let l = kb.expect(level)?;
        kb.put_attr(c, kernel::LEVEL, l)?;
        // Declare the token-level link labels on the class, so tokens'
        // justification/source links are declared attributes.
        kb.put_attr(c, names::JUSTIFICATION_I, pm.design_decision)?;
        kb.put_attr(c, names::SOURCE_I, pm.source_ref)?;
        if let Some(p) = parent {
            let p = kb.expect(p)?;
            kb.specialize(c, p)?;
        }
    }
    kb.tick();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_builds_fig_3_3_top_layer() {
        let mut kb = Kb::new();
        let pm = bootstrap(&mut kb).unwrap();
        assert!(kb
            .snapshot()
            .is_instance_of(pm.design_decision, kb.builtins().meta_class));
        // DesignDecision --FROM--> DesignObject.
        assert_eq!(
            kb.snapshot().attr_values(pm.design_decision, names::FROM),
            vec![pm.design_object]
        );
        assert_eq!(
            kb.snapshot()
                .attr_values(pm.design_object, names::JUSTIFICATION),
            vec![pm.design_decision]
        );
        assert_eq!(
            kb.snapshot().attr_values(pm.design_decision, names::BY),
            vec![pm.design_tool]
        );
    }

    #[test]
    fn kernel_classes_installed_with_levels() {
        let mut kb = Kb::new();
        let pm = bootstrap(&mut kb).unwrap();
        install_kernel(&mut kb, &pm).unwrap();
        let rel = kb.lookup(kernel::DBPL_REL).unwrap();
        assert!(kb.snapshot().is_instance_of(rel, pm.design_object));
        let norm = kb.lookup(kernel::NORMALIZED_DBPL_REL).unwrap();
        assert!(
            kb.snapshot().isa_ancestors(norm).contains(&rel),
            "fig 3-3 isa link"
        );
        let impl_level = kb.lookup("Implementation").unwrap();
        assert_eq!(
            kb.snapshot().attr_values(rel, kernel::LEVEL),
            vec![impl_level]
        );
    }

    #[test]
    fn fig_2_5_three_levels_of_design_object_knowledge() {
        // metaclass (DesignObject) / design object classes (DBPL_Rel) /
        // design object instances (InvitationRel) — with the external
        // source outside the KB (a SourceRef token).
        let mut kb = Kb::new();
        let pm = bootstrap(&mut kb).unwrap();
        install_kernel(&mut kb, &pm).unwrap();
        let rel_class = kb.lookup(kernel::DBPL_REL).unwrap();
        let inv_rel = kb.individual("InvitationRel").unwrap();
        kb.instantiate(inv_rel, rel_class).unwrap();
        assert!(kb.snapshot().is_instance_of(inv_rel, rel_class));
        assert!(kb.snapshot().is_instance_of(rel_class, pm.design_object));
        assert!(
            !kb.snapshot().is_instance_of(inv_rel, pm.design_object),
            "levels distinct"
        );
    }

    #[test]
    fn bootstrap_is_axiom_clean() {
        let mut kb = Kb::new();
        let pm = bootstrap(&mut kb).unwrap();
        install_kernel(&mut kb, &pm).unwrap();
        assert!(telos::axioms::check_all(kb.snapshot()).is_empty());
    }
}
