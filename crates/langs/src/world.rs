//! The CML world/system model layer and its mapping to TaxisDL
//! (fig 1-1).
//!
//! "A world model represented in CML would give a general account of
//! meetings as an activity in a real world with time; a system model,
//! also described by CML (system) objects and activities, would be
//! embedded in the world model." [`WorldModel`] wraps a Telos KB,
//! distinguishing world classes from the embedded *system* classes,
//! and [`WorldModel::derive_taxisdl`] is the mapping assistant that
//! turns the system model into a TaxisDL conceptual design.

use crate::error::{LangError, LangResult};
use crate::taxisdl::{EntityClass, TdlAttribute, TdlModel};
use telos::{Kb, PropId, TelosError};

/// Marker metaclass names installed by [`WorldModel::new`].
pub mod meta {
    /// Metaclass of all world-model classes.
    pub const WORLD_CLASS: &str = "WorldClass";
    /// Metaclass of classes embedded in the system model.
    pub const SYSTEM_CLASS: &str = "SystemClass";
    /// Individual marking set-valued attribute classes.
    pub const MANY: &str = "Many";
    /// Label of the multiplicity marker attribute.
    pub const MULTIPLICITY: &str = "multiplicity";
}

/// A CML world model with an embedded system model.
pub struct WorldModel {
    kb: Kb,
    world_class: PropId,
    system_class: PropId,
    many: PropId,
}

impl From<TelosError> for LangError {
    fn from(e: TelosError) -> Self {
        LangError::Precondition(e.to_string())
    }
}

impl WorldModel {
    /// Bootstraps the marker metaclasses in a fresh KB.
    pub fn new() -> LangResult<Self> {
        let mut kb = Kb::new();
        let meta_class = kb.builtins().meta_class;
        let world_class = kb.individual(meta::WORLD_CLASS)?;
        kb.instantiate(world_class, meta_class)?;
        let system_class = kb.individual(meta::SYSTEM_CLASS)?;
        kb.instantiate(system_class, meta_class)?;
        // System classes are world classes (the system model is
        // embedded in the world model).
        kb.specialize(system_class, world_class)?;
        let many = kb.individual(meta::MANY)?;
        Ok(WorldModel {
            kb,
            world_class,
            system_class,
            many,
        })
    }

    /// Read access to the underlying KB.
    pub fn kb(&self) -> &Kb {
        &self.kb
    }

    /// Mutable access (for scenario-specific extensions).
    pub fn kb_mut(&mut self) -> &mut Kb {
        &mut self.kb
    }

    /// Declares a world-model class.
    pub fn world_class(&mut self, name: &str) -> LangResult<PropId> {
        let c = self.kb.individual(name)?;
        self.kb.instantiate(c, self.world_class)?;
        Ok(c)
    }

    /// Declares a class of the embedded system model.
    pub fn system_class(&mut self, name: &str) -> LangResult<PropId> {
        let c = self.kb.individual(name)?;
        self.kb.instantiate(c, self.system_class)?;
        Ok(c)
    }

    /// Adds an isa link between classes.
    pub fn isa(&mut self, sub: &str, sup: &str) -> LangResult<()> {
        let sub = self.kb.expect(sub)?;
        let sup = self.kb.expect(sup)?;
        self.kb.specialize(sub, sup)?;
        Ok(())
    }

    /// Declares a single-valued attribute class.
    pub fn attr(&mut self, class: &str, label: &str, target: &str) -> LangResult<PropId> {
        let c = self.kb.expect(class)?;
        let t = self.kb.expect(target)?;
        Ok(self.kb.put_attr(c, label, t)?)
    }

    /// Declares a set-valued attribute class (marked with the
    /// `multiplicity: Many` annotation — fig 3-2 style: the marker is
    /// an attribute *of the attribute proposition*).
    pub fn attr_many(&mut self, class: &str, label: &str, target: &str) -> LangResult<PropId> {
        let a = self.attr(class, label, target)?;
        self.kb.put_attr(a, meta::MULTIPLICITY, self.many)?;
        Ok(a)
    }

    /// Names of the system-model classes, in declaration order.
    pub fn system_classes(&self) -> Vec<String> {
        self.kb
            .snapshot()
            .all_instances_of(self.system_class)
            .into_iter()
            .map(|c| self.kb.display(c))
            .collect()
    }

    /// True if the class is in the world model but not the system model.
    pub fn is_world_only(&self, name: &str) -> bool {
        let snap = self.kb.snapshot();
        match snap.lookup(name) {
            None => false,
            Some(c) => {
                snap.is_instance_of(c, self.world_class)
                    && !snap.is_instance_of(c, self.system_class)
            }
        }
    }

    /// The CML → TaxisDL mapping assistant: derives an entity class per
    /// system class, carrying isa links (to other *system* classes) and
    /// attributes whose targets are system classes.
    pub fn derive_taxisdl(&self) -> LangResult<TdlModel> {
        let mut model = TdlModel::default();
        let snap = self.kb.snapshot();
        let system = snap.all_instances_of(self.system_class);
        for &c in &system {
            let name = self.kb.display(c);
            let isa: Vec<String> = snap
                .isa_parents(c)
                .into_iter()
                .filter(|p| system.contains(p))
                .map(|p| self.kb.display(p))
                .collect();
            let mut attributes = Vec::new();
            for attr in snap.attrs_of(c) {
                let p = self.kb.get(attr)?;
                let label = self.kb.resolve(p.label).to_string();
                if !system.contains(&p.dest) {
                    continue; // world-only targets stay outside the system
                }
                let set_valued = snap
                    .attr_values(attr, meta::MULTIPLICITY)
                    .contains(&self.many);
                attributes.push(TdlAttribute {
                    label,
                    target: self.kb.display(p.dest),
                    set_valued,
                });
            }
            model.entities.push(EntityClass {
                name,
                isa,
                attributes,
            });
        }
        // Order so that superclasses precede subclasses (the TaxisDL
        // validator tolerates forward references, but readers should
        // not have to).
        fn depth(model: &TdlModel, name: &str, fuel: usize) -> usize {
            if fuel == 0 {
                return usize::MAX / 2;
            }
            match model.entity(name) {
                None => 0,
                Some(e) => e
                    .isa
                    .iter()
                    .map(|p| depth(model, p, fuel - 1) + 1)
                    .max()
                    .unwrap_or(0),
            }
        }
        let depths: std::collections::HashMap<String, usize> = model
            .entities
            .iter()
            .map(|e| (e.name.clone(), depth(&model, &e.name, 32)))
            .collect();
        model.entities.sort_by_key(|e| depths[&e.name]);
        model.validate()?;
        Ok(model)
    }
}

/// The paper's meeting-organization world model (§1, \[BORG88, JJR87\]):
/// meetings are world activities; documents and persons form the
/// embedded system model.
pub fn meeting_world() -> LangResult<WorldModel> {
    let mut w = WorldModel::new()?;
    // Pure world model: real-world activities with time.
    w.world_class("Activity")?;
    w.world_class("Meeting")?;
    w.isa("Meeting", "Activity")?;
    w.world_class("Room")?;
    w.attr("Meeting", "venue", "Room")?;
    // The embedded system model: what the information system records.
    w.system_class("Person")?;
    w.system_class("Date")?;
    w.system_class("Paper")?;
    w.system_class("Invitation")?;
    w.system_class("Minutes")?;
    w.isa("Invitation", "Paper")?;
    w.isa("Minutes", "Paper")?;
    w.attr("Paper", "author", "Person")?;
    w.attr("Paper", "date", "Date")?;
    w.attr("Invitation", "sender", "Person")?;
    w.attr_many("Invitation", "receivers", "Person")?;
    w.attr("Minutes", "approvedBy", "Person")?;
    // Embedding: meetings produce papers (world ↔ system relationship).
    w.attr("Meeting", "produces", "Paper")?;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxisdl::document_model;

    #[test]
    fn world_and_system_classes_distinguished() {
        let w = meeting_world().unwrap();
        assert!(w.is_world_only("Meeting"));
        assert!(w.is_world_only("Room"));
        assert!(!w.is_world_only("Paper"));
        assert!(!w.is_world_only("NoSuch"));
        let sys = w.system_classes();
        assert!(sys.contains(&"Invitation".to_string()));
        assert!(!sys.contains(&"Meeting".to_string()));
    }

    #[test]
    fn derived_taxisdl_matches_builtin_document_model() {
        let w = meeting_world().unwrap();
        let derived = w.derive_taxisdl().unwrap();
        let reference = document_model();
        // Same entity classes (the built-in model also has a
        // transaction, which the world model does not define).
        let mut derived_names: Vec<&str> =
            derived.entities.iter().map(|e| e.name.as_str()).collect();
        let mut ref_names: Vec<&str> = reference.entities.iter().map(|e| e.name.as_str()).collect();
        derived_names.sort_unstable();
        ref_names.sort_unstable();
        assert_eq!(derived_names, ref_names);
        // Same attributes on Invitation, including the set marker.
        let inv = derived.entity("Invitation").unwrap();
        let recv = inv
            .attributes
            .iter()
            .find(|a| a.label == "receivers")
            .unwrap();
        assert!(recv.set_valued);
        assert_eq!(recv.target, "Person");
        assert_eq!(inv.isa, vec!["Paper"]);
    }

    #[test]
    fn world_only_targets_are_excluded() {
        let mut w = meeting_world().unwrap();
        // A system-class attribute pointing at a world-only class must
        // not leak into the conceptual design.
        w.attr("Paper", "discussedAt", "Meeting").unwrap();
        let derived = w.derive_taxisdl().unwrap();
        let paper = derived.entity("Paper").unwrap();
        assert!(paper.attributes.iter().all(|a| a.label != "discussedAt"));
    }

    #[test]
    fn derived_model_is_valid_and_ordered() {
        let w = meeting_world().unwrap();
        let derived = w.derive_taxisdl().unwrap();
        derived.validate().unwrap();
        let paper_at = derived
            .entities
            .iter()
            .position(|e| e.name == "Paper")
            .unwrap();
        let inv_at = derived
            .entities
            .iter()
            .position(|e| e.name == "Invitation")
            .unwrap();
        assert!(paper_at < inv_at, "superclass precedes subclass");
    }

    #[test]
    fn system_model_is_embedded_in_world_model() {
        let w = meeting_world().unwrap();
        let kb = w.kb();
        let paper = kb.lookup("Paper").unwrap();
        let world_class = kb.lookup(meta::WORLD_CLASS).unwrap();
        assert!(
            kb.snapshot().is_instance_of(paper, world_class),
            "system ⇒ world"
        );
    }
}
