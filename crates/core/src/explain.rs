//! The design explanation facility (§3.3.3).
//!
//! "As an enhancement of the navigation facilities, the predicative
//! specifications of tool and decision classes together with
//! ConceptBase rules and constraints will be used to develop a design
//! explanation facility." Given a design object, [`Gkbms::explain`]
//! renders *why it exists in its current form*: the justifying
//! decision, its class and dimension, the performing agent and tool,
//! how each verification obligation was covered, and — recursively —
//! the justification of every input.

use crate::decisions::Discharge;
use crate::error::{GkbmsError, GkbmsResult};
use crate::metamodel::names;
use crate::system::Gkbms;
use std::collections::HashSet;

impl Gkbms {
    /// Renders the justification tree of a design object.
    pub fn explain(&self, object: &str) -> GkbmsResult<String> {
        if self.kb.lookup(object).is_none() && self.design.produced_by(&self.kb, object).is_empty()
        {
            return Err(GkbmsError::Unknown(format!("design object `{object}`")));
        }
        let mut out = String::new();
        let mut seen = HashSet::new();
        self.explain_object(object, 0, &mut seen, &mut out);
        Ok(out)
    }

    fn explain_object(
        &self,
        object: &str,
        depth: usize,
        seen: &mut HashSet<String>,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        let status = if self.is_current(object) {
            "current"
        } else {
            "not current (retracted or superseded)"
        };
        out.push_str(&format!("{pad}{object} — {status}\n"));
        if !seen.insert(object.to_string()) {
            out.push_str(&format!("{pad}  (explained above)\n"));
            return;
        }
        // The creating decision, if any (latest record producing it).
        match self.design.produced_by(&self.kb, object).last() {
            None => {
                // A registered object: show its external source.
                if let Some(id) = self.kb.lookup(object) {
                    let sources = self.kb.snapshot().attr_values(id, names::SOURCE_I);
                    if let Some(&s) = sources.first() {
                        out.push_str(&format!(
                            "{pad}  registered design object (source: {})\n",
                            self.kb.display(s)
                        ));
                        return;
                    }
                }
                out.push_str(&format!("{pad}  registered design object\n"));
            }
            Some(&at) => {
                let (r, dimension) = self.design.at(at);
                let retracted = if r.retracted { ", RETRACTED" } else { "" };
                out.push_str(&format!(
                    "{pad}  justified by `{}` (class {}, {dimension}{retracted})\n",
                    r.name, r.class
                ));
                out.push_str(&format!(
                    "{pad}  performed by {} at tick {}{}\n",
                    r.performer,
                    r.tick,
                    r.tool
                        .as_ref()
                        .map(|t| format!(" using {t}"))
                        .unwrap_or_else(|| " (manually)".to_string())
                ));
                self.explain_obligations(r, &pad, out);
                for input in &r.inputs {
                    self.explain_object(input, depth + 1, seen, out);
                }
            }
        }
    }

    fn explain_obligations(
        &self,
        record: &crate::system::DecisionRecord,
        pad: &str,
        out: &mut String,
    ) {
        let reader = self.reader();
        let Some(dc) = reader.class_of(record) else {
            return;
        };
        if dc.obligations.is_empty() {
            return;
        }
        let guarantees = (record.tool.as_ref())
            .and_then(|t| reader.tool_named(t))
            .map_or_else(Vec::new, |t| reader.guarantees(t));
        for ob in &dc.obligations {
            let how = if guarantees.contains(&ob.name) {
                format!(
                    "guaranteed by tool {}",
                    record.tool.as_deref().unwrap_or("?")
                )
            } else {
                match record.discharges.iter().find(|d| d.obligation() == ob.name) {
                    Some(Discharge::Formal { .. }) => "proved formally".to_string(),
                    Some(Discharge::Signature { by, .. }) => {
                        format!("signed by {by}")
                    }
                    None => "UNCOVERED".to_string(),
                }
            };
            out.push_str(&format!(
                "{pad}  obligation `{}`: {how} — {}\n",
                ob.name, ob.statement
            ));
        }
    }

    /// Explains a decision instance: its documentation record rendered
    /// as prose.
    pub fn explain_decision(&self, name: &str) -> GkbmsResult<String> {
        let r = (self.design.get(&self.kb, name))
            .ok_or_else(|| GkbmsError::Unknown(format!("decision `{name}`")))?;
        let mut out = format!(
            "decision `{}` of class {} {}\n",
            r.name,
            r.class,
            if r.retracted {
                "(retracted)"
            } else {
                "(effective)"
            }
        );
        out.push_str(&format!(
            "  performed by {} at tick {}{}\n",
            r.performer,
            r.tick,
            r.tool
                .as_ref()
                .map(|t| format!(" using {t}"))
                .unwrap_or_else(|| " (manually)".to_string())
        ));
        out.push_str(&format!("  from: {}\n", r.inputs.join(", ")));
        out.push_str(&format!("  to:   {}\n", r.outputs.join(", ")));
        self.explain_obligations(r, "", &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::DecisionRequest;

    fn history() -> crate::system::Gkbms {
        let mut g = scenario_gkbms();
        g.register_object(
            "Invitation",
            kernel::TDL_ENTITY_CLASS,
            "design.tdl#Invitation",
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
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
        g
    }

    #[test]
    fn explanation_traces_to_registered_sources() {
        let g = history();
        let e = g.explain("InvitationRel2").unwrap();
        assert!(e.contains("InvitationRel2 — current"));
        assert!(e.contains("justified by `normalizeInvitations`"));
        assert!(e.contains("refinement"));
        assert!(e.contains("signed by dev"));
        assert!(e.contains("justified by `mapInvitations`"));
        assert!(e.contains("guaranteed by tool TDL-DBPL-Mapper"));
        assert!(e.contains("registered design object (source: design.tdl#Invitation)"));
        // Indentation grows with depth.
        assert!(e.contains("\n    Invitation — current"));
    }

    #[test]
    fn explanation_marks_retracted_objects() {
        let mut g = history();
        g.retract_decision("normalizeInvitations").unwrap();
        let e = g.explain("InvitationRel2").unwrap();
        assert!(e.contains("not current"));
        assert!(e.contains("RETRACTED"));
    }

    #[test]
    fn shared_subtrees_not_reexplained() {
        let mut g = history();
        g.execute(
            DecisionRequest::new("DecNormalize", "again", "dev")
                .input("InvitationRel")
                .output("Other", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        // Explain an object twice in one tree: second time marked.
        let e = g.explain("InvitationRel").unwrap();
        assert_eq!(e.matches("justified by `mapInvitations`").count(), 1);
    }

    #[test]
    fn explain_decision_renders_record() {
        let g = history();
        let e = g.explain_decision("mapInvitations").unwrap();
        assert!(e.contains("class TDL_MappingDec (effective)"));
        assert!(e.contains("from: Invitation"));
        assert!(e.contains("to:   InvitationRel"));
        assert!(g.explain_decision("ghost").is_err());
    }

    #[test]
    fn unknown_object_is_error() {
        let g = history();
        assert!(g.explain("Ghost").is_err());
    }
}
