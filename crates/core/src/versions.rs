//! Version and configuration management (§3.3.2, fig 3-4).
//!
//! "Allowable multi-level configurations of world/system models,
//! designs, and implementations are those which are interrelated by
//! mapping decisions (vertical configuration by means of
//! equivalences). Allowable one-level (sub)configurations must be
//! consistent, as documented by refinement decisions … (horizontal
//! configuration). Versioning rests upon choice decisions: an
//! alternative version is created each time an object is refined or
//! mapped alternatively … In this way, version and configuration
//! management come as a natural by-product of the decision-based
//! documentation approach."

use crate::decisions::DecisionDimension;
use crate::design::DesignIndex;
use crate::error::{GkbmsError, GkbmsResult};
use crate::metamodel::kernel;
use crate::system::{DecisionRecord, Gkbms};
use std::collections::HashMap;
use telos::Snapshot;

/// One configured level of the system: the current objects at a
/// life-cycle level plus the decisions that justify them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// Level name (`Requirements` / `Design` / `Implementation`).
    pub level: String,
    /// The member objects, sorted.
    pub objects: Vec<String>,
    /// The effective decisions whose outputs are members.
    pub justified_by: Vec<String>,
}

/// A version alternative at one choice point (fig 3-4's `%`-marked
/// branches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alternative {
    /// The choice decision creating the alternative.
    pub decision: String,
    /// Its output objects.
    pub objects: Vec<String>,
    /// Whether this alternative is currently chosen (not retracted).
    pub current: bool,
}

/// A choice point: alternatives competing over the same inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// The shared input objects.
    pub over: Vec<String>,
    /// The alternatives, in execution order.
    pub alternatives: Vec<Alternative>,
}

/// The life-cycle level of a design object of `design`, as believed at
/// `snap` (via its classes' `level` attribute). For objects not
/// believed there (retracted versions), the level is recovered from
/// the decision record that created them — history is never lost.
pub fn level_of(snap: Snapshot<'_>, design: &DesignIndex, object: &str) -> Option<String> {
    if let Some(obj) = snap.lookup(object) {
        for class in snap.all_classes_of(obj) {
            let levels = snap.attr_values(class, kernel::LEVEL);
            if let Some(&l) = levels.first() {
                return Some(snap.store().display(l));
            }
        }
    }
    // Historic object: find the class recorded at creation.
    let r = design.producers(snap.store(), object).next_back()?;
    let at = r.outputs.iter().position(|o| o == object)?;
    level_of_class(snap, r.output_classes.get(at)?)
}

/// The `level` attribute of a design-object class, as believed at
/// `snap`.
pub fn level_of_class(snap: Snapshot<'_>, class: &str) -> Option<String> {
    let c = snap.lookup(class)?;
    for cls in std::iter::once(c).chain(snap.isa_ancestors(c)) {
        let levels = snap.attr_values(cls, kernel::LEVEL);
        if let Some(&l) = levels.first() {
            return Some(snap.store().display(l));
        }
    }
    None
}

impl Gkbms {
    /// [`level_of`] at the live head.
    pub fn level_of(&self, object: &str) -> Option<String> {
        level_of(self.kb.snapshot(), &self.design, object)
    }

    /// [`level_of_class`] at the live head.
    pub fn level_of_class(&self, class: &str) -> Option<String> {
        level_of_class(self.kb.snapshot(), class)
    }

    /// "Configure the latest complete DBPL database program system
    /// version": the current objects of `level`, excluding all
    /// non-used (retracted) versions, with their justifying decisions.
    pub fn configure_level(&self, level: &str) -> GkbmsResult<Configuration> {
        if !kernel::LEVELS.contains(&level) && self.kb.lookup(level).is_none() {
            return Err(GkbmsError::Unknown(format!("level `{level}`")));
        }
        let objects: Vec<String> = self
            .current_objects()
            .into_iter()
            .filter(|o| self.level_of(o).as_deref() == Some(level))
            .collect();
        let mut justified_by: Vec<String> = objects
            .iter()
            .flat_map(|o| self.design.producers(&self.kb, o))
            .filter(|r| !r.retracted)
            .map(|r| r.name.clone())
            .collect();
        justified_by.sort();
        justified_by.dedup();
        Ok(Configuration {
            level: level.to_string(),
            objects,
            justified_by,
        })
    }

    /// Vertical configuration check: every derived object of `level`
    /// must be justified by an effective decision — a mapping from a
    /// higher level or a refinement within it — all of whose inputs are
    /// current (or be registered directly). Returns the unjustified
    /// objects — an empty result means the configuration is allowable.
    pub fn vertical_gaps(&self, level: &str) -> GkbmsResult<Vec<String>> {
        let config = self.configure_level(level)?;
        let mut gaps = Vec::new();
        for obj in &config.objects {
            let producers = (self.design.producers(&self.kb, obj)).filter(|r| !r.retracted);
            let producers: Vec<&DecisionRecord> = producers.collect();
            let supported = |r: &&DecisionRecord| r.inputs.iter().all(|i| self.is_current(i));
            if !producers.is_empty() && !producers.iter().any(supported) {
                gaps.push(obj.clone());
            }
        }
        gaps.sort();
        Ok(gaps)
    }

    /// The choice points of the history: groups of *choice* decisions
    /// sharing the same input set — each group's members are
    /// alternative versions (fig 3-4).
    pub fn choice_points(&self) -> Vec<ChoicePoint> {
        let mut groups: HashMap<Vec<String>, Vec<Alternative>> = HashMap::new();
        for (r, dimension) in self.design.with_dimensions() {
            if dimension != DecisionDimension::Choice {
                continue;
            }
            let mut key = r.inputs.clone();
            key.sort();
            groups.entry(key).or_default().push(Alternative {
                decision: r.name.clone(),
                objects: r.outputs.clone(),
                current: !r.retracted,
            });
        }
        let mut out: Vec<ChoicePoint> = groups
            .into_iter()
            .map(|(over, alternatives)| ChoicePoint { over, alternatives })
            .collect();
        out.sort_by(|a, b| a.over.cmp(&b.over));
        out
    }

    /// Renders the fig 3-4 view: the three levels with their current
    /// configurations, decision dimensions, and alternatives.
    pub fn render_version_space(&self) -> String {
        let mut out = String::new();
        for level in kernel::LEVELS {
            let Ok(config) = self.configure_level(level) else {
                continue;
            };
            out.push_str(&format!("=== {level} ===\n"));
            out.push_str(&format!("  objects: {}\n", config.objects.join(", ")));
            for (r, dimension) in self.design.with_dimensions() {
                let touches = r
                    .outputs
                    .iter()
                    .any(|o| self.level_of(o).as_deref() == Some(level));
                if !touches {
                    continue;
                }
                let marker = match dimension {
                    DecisionDimension::Mapping => "==",
                    DecisionDimension::Refinement => "--",
                    DecisionDimension::Choice => "%%",
                };
                let status = if r.retracted { " (retracted)" } else { "" };
                out.push_str(&format!(
                    "  {marker} {} [{}]{}: {} -> {}\n",
                    r.name,
                    dimension,
                    status,
                    r.inputs.join(", "),
                    r.outputs.join(", ")
                ));
            }
        }
        let choices = self.choice_points();
        if !choices.is_empty() {
            out.push_str("=== choice points ===\n");
            for cp in choices {
                out.push_str(&format!("  over {}:\n", cp.over.join(", ")));
                for alt in cp.alternatives {
                    out.push_str(&format!(
                        "    {} {} -> {}\n",
                        if alt.current { "[*]" } else { "[ ]" },
                        alt.decision,
                        alt.objects.join(", ")
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::decisions::{DecisionClass, DecisionDimension, Discharge};
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::{DecisionRequest, Gkbms};

    fn with_key_choice() -> Gkbms {
        let mut g = scenario_gkbms();
        g.define_decision_class(
            DecisionClass::new("DecKeyChoice", DecisionDimension::Choice)
                .from_classes(&[kernel::DBPL_REL])
                .to_classes(&[kernel::DBPL_REL]),
        )
        .unwrap();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g
    }

    #[test]
    fn levels_resolved_from_classes() {
        let g = with_key_choice();
        assert_eq!(g.level_of("Invitation").as_deref(), Some("Design"));
        assert_eq!(
            g.level_of("InvitationRel").as_deref(),
            Some("Implementation")
        );
        assert_eq!(g.level_of("NoSuch"), None);
    }

    #[test]
    fn configure_latest_level() {
        let g = with_key_choice();
        let config = g.configure_level("Implementation").unwrap();
        assert_eq!(config.objects, vec!["InvitationRel"]);
        assert_eq!(config.justified_by, vec!["mapInvitations"]);
        assert!(g.configure_level("NoLevel").is_err());
    }

    #[test]
    fn retracted_versions_excluded_from_configuration() {
        let mut g = with_key_choice();
        g.retract_decision("mapInvitations").unwrap();
        let config = g.configure_level("Implementation").unwrap();
        assert!(config.objects.is_empty());
        assert!(config.justified_by.is_empty());
    }

    #[test]
    fn choice_points_group_alternatives() {
        let mut g = with_key_choice();
        // Two alternative key choices over the same relation (fig 3-4's
        // two implementations).
        g.execute(
            DecisionRequest::new("DecKeyChoice", "keepSurrogate", "dev")
                .input("InvitationRel")
                .output("InvitationRelV1", kernel::DBPL_REL),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("DecKeyChoice", "useAssociative", "dev")
                .input("InvitationRel")
                .output("InvitationRelV2", kernel::DBPL_REL),
        )
        .unwrap();
        let cps = g.choice_points();
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].over, vec!["InvitationRel"]);
        assert_eq!(cps[0].alternatives.len(), 2);
        assert!(cps[0].alternatives.iter().all(|a| a.current));
        // Retracting one leaves the other chosen.
        g.retract_decision("useAssociative").unwrap();
        let cps = g.choice_points();
        let current: Vec<bool> = cps[0].alternatives.iter().map(|a| a.current).collect();
        assert_eq!(current.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn vertical_configuration_has_no_gaps_when_mapped() {
        let g = with_key_choice();
        assert!(g.vertical_gaps("Implementation").unwrap().is_empty());
    }

    #[test]
    fn render_version_space_shows_dimensions() {
        let mut g = with_key_choice();
        g.execute(
            DecisionRequest::new("DecNormalize", "normalizeInvitations", "dev")
                .input("InvitationRel")
                .output("InvitationRel2", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        let s = g.render_version_space();
        assert!(s.contains("=== Implementation ==="));
        assert!(s.contains("== mapInvitations [mapping]"));
        assert!(s.contains("-- normalizeInvitations [refinement]"));
        assert!(s.contains("InvitationRel2"));
    }
}
