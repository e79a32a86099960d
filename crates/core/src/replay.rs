//! Decision replay and re-applicability testing (§3.3).
//!
//! "Besides pure backtracking of decisions, tool specifications enable
//! some kind of revision support; for instance, adding an attribute in
//! the design could be processed by the GKBMS by replaying decisions
//! (GKBMS tests their re-applicability)."

use crate::error::{GkbmsError, GkbmsResult};
use crate::system::{parse_precondition, precondition_holds, DecisionRequest, Gkbms};

/// The outcome of testing one decision for re-applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replayability {
    /// Inputs current, precondition holds: can be replayed as-is.
    Replayable,
    /// Some input is gone; lists the missing inputs.
    MissingInputs(Vec<String>),
    /// The precondition no longer holds for the named input.
    PreconditionFails(String),
    /// Its outputs still exist: replay would collide.
    OutputsExist(Vec<String>),
}

impl Gkbms {
    /// Tests whether a (typically retracted) decision could be
    /// re-executed in the current state.
    pub fn replayability(&self, name: &str) -> GkbmsResult<Replayability> {
        let r = (self.design.get(&self.kb, name))
            .ok_or_else(|| GkbmsError::Unknown(format!("decision `{name}`")))?;
        let missing: Vec<String> = r
            .inputs
            .iter()
            .filter(|i| !self.is_current(i))
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Ok(Replayability::MissingInputs(missing));
        }
        let pre = self.reader().class_of(&r).and_then(|dc| dc.precondition);
        if let Some(pre) = pre.filter(|_| !r.inputs.is_empty()) {
            let expr = parse_precondition(&pre)?;
            for input in &r.inputs {
                if !precondition_holds(self.kb.snapshot(), &expr, self.kb.expect(input)?)? {
                    return Ok(Replayability::PreconditionFails(input.clone()));
                }
            }
        }
        let existing: Vec<String> = r
            .outputs
            .iter()
            .filter(|o| self.is_current(o))
            .cloned()
            .collect();
        if !existing.is_empty() {
            return Ok(Replayability::OutputsExist(existing));
        }
        Ok(Replayability::Replayable)
    }

    /// Replays a retracted decision under a new instance name,
    /// re-creating its outputs with the original class, tool and
    /// discharges. Fails if it is not replayable.
    pub fn replay_decision(&mut self, name: &str, as_name: &str) -> GkbmsResult<Vec<String>> {
        match self.replayability(name)? {
            Replayability::Replayable => {}
            other => {
                return Err(GkbmsError::Precondition(format!(
                    "decision `{name}` is not replayable: {other:?}"
                )))
            }
        }
        let r = self
            .record(name)
            .ok_or_else(|| GkbmsError::Unknown(format!("decision `{name}`")))?
            .record
            .clone();
        let mut req = DecisionRequest::new(&r.class, as_name, &r.performer);
        req.tool = r.tool;
        req.inputs = r.inputs;
        req.discharges = r.discharges;
        // Each output is re-created under the class the record says it
        // was created under.
        req.outputs = r.outputs.into_iter().zip(r.output_classes).collect();
        let summary = self.execute(req)?;
        Ok(summary.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;

    fn mapped() -> Gkbms {
        let mut g = scenario_gkbms();
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
    fn effective_decision_reports_outputs_exist() {
        let g = mapped();
        assert_eq!(
            g.replayability("mapInvitations").unwrap(),
            Replayability::OutputsExist(vec!["InvitationRel".into()])
        );
        assert!(g.replayability("ghost").is_err());
    }

    #[test]
    fn retracted_decision_is_replayable() {
        let mut g = mapped();
        g.retract_decision("mapInvitations").unwrap();
        assert_eq!(
            g.replayability("mapInvitations").unwrap(),
            Replayability::Replayable
        );
        let created = g
            .replay_decision("mapInvitations", "mapInvitations2")
            .unwrap();
        assert_eq!(created, vec!["InvitationRel"]);
        assert!(g.is_current("InvitationRel"));
        assert!(g.is_effective("mapInvitations2"));
        // The replayed output recovered its original class.
        let rel = g.kb().lookup("InvitationRel").unwrap();
        let class = g.kb().lookup(kernel::DBPL_REL).unwrap();
        assert!(g.kb().snapshot().is_instance_of(rel, class));
    }

    /// Each replayed output comes back under its *own* class, read from
    /// the record — not under the decision class's first TO class.
    #[test]
    fn replay_recreates_each_output_under_its_own_class() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapBoth", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL)
                .output("InvitationSel", kernel::DBPL_SELECTOR),
        )
        .unwrap();
        g.retract_decision("mapBoth").unwrap();
        assert!(!g.is_current("InvitationRel") && !g.is_current("InvitationSel"));
        let created = g.replay_decision("mapBoth", "mapBoth2").unwrap();
        assert_eq!(created, vec!["InvitationRel", "InvitationSel"]);
        let kb = g.kb();
        for (object, class, other) in [
            ("InvitationRel", kernel::DBPL_REL, kernel::DBPL_SELECTOR),
            ("InvitationSel", kernel::DBPL_SELECTOR, kernel::DBPL_REL),
        ] {
            let id = kb.lookup(object).unwrap();
            assert!(
                kb.snapshot().is_instance_of(id, kb.lookup(class).unwrap()),
                "{object}"
            );
            assert!(
                !kb.snapshot().is_instance_of(id, kb.lookup(other).unwrap()),
                "{object}"
            );
        }
    }

    #[test]
    fn missing_inputs_block_replay() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "map1", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("DecNormalize", "norm1", "dev")
                .input("InvitationRel")
                .output("InvitationRel2", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        // Retract the upstream mapping: norm1's input vanishes too.
        g.retract_decision("map1").unwrap();
        assert_eq!(
            g.replayability("norm1").unwrap(),
            Replayability::MissingInputs(vec!["InvitationRel".into()])
        );
        assert!(g.replay_decision("norm1", "norm2").is_err());
        // Replaying the mapping first unblocks the refinement — the
        // "revision support" pattern of §3.3.
        g.replay_decision("map1", "map2").unwrap();
        assert_eq!(g.replayability("norm1").unwrap(), Replayability::Replayable);
        g.replay_decision("norm1", "norm2").unwrap();
        assert!(g.is_current("InvitationRel2"));
    }
}
