//! Dependency-directed conflict resolution (\[DJ88\], §3.3.3).
//!
//! "The representation of decision structures supports the storage of
//! redundant dependency information as the basis of a reason
//! maintenance system which can contribute to the automatic
//! propagation of the consequences of high-level changes."
//!
//! [`Gkbms::report_conflict`] registers an inconsistency as depending
//! on a set of executed decisions, performs dependency-directed
//! backtracking at *decision granularity* (the abstraction the paper
//! proposes to keep RMS networks small): the most recent culprit
//! decision is retracted with all its consequences, and the decision
//! combination is recorded as a **nogood** so that replaying into the
//! same trap is flagged.

use crate::error::{GkbmsError, GkbmsResult};
use crate::persist::JournalOp;
use crate::system::Gkbms;

/// The outcome of an automatic conflict resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictResolution {
    /// The description of the inconsistency, as reported.
    pub description: String,
    /// The retracted culprit decision.
    pub culprit: String,
    /// Design objects that went out of belief.
    pub affected: Vec<String>,
    /// The nogood recorded (the conflicting decision set).
    pub nogood: Vec<String>,
}

impl Gkbms {
    /// Reports an inconsistency that holds whenever all of `among` are
    /// effective; retracts the most recent culprit (dependency-directed
    /// backtracking) and records the nogood. Errors if none of the
    /// named decisions is retractable.
    pub fn report_conflict(
        &mut self,
        description: &str,
        among: &[&str],
    ) -> GkbmsResult<ConflictResolution> {
        // Validate and order: the culprit is the most recent effective
        // decision in the set (Doyle's chronological heuristic).
        let mut candidates: Vec<(i64, String)> = Vec::new();
        for name in among {
            let r = self
                .record(name)
                .ok_or_else(|| GkbmsError::Unknown(format!("decision `{name}`")))?;
            if !r.retracted {
                candidates.push((r.tick, r.name.clone()));
            }
        }
        let Some((_, culprit)) = candidates.iter().max_by_key(|(t, _)| *t).cloned() else {
            return Err(GkbmsError::NotRetractable(format!(
                "no effective decision among {among:?} to retract for `{description}`"
            )));
        };
        let nogood: Vec<String> = among.iter().map(|s| s.to_string()).collect();
        self.record_nogood(nogood.clone())?;
        let affected = self.retract_decision(&culprit)?;
        Ok(ConflictResolution {
            description: description.to_string(),
            culprit,
            affected,
            nogood,
        })
    }

    /// Records a decision-level nogood — the first of the two ops a
    /// conflict report commits (the culprit's retraction is the other).
    pub(crate) fn record_nogood(&mut self, decisions: Vec<String>) -> GkbmsResult<()> {
        self.transaction(|g| {
            g.commit(JournalOp::Nogood {
                decisions: decisions.clone(),
            })?;
            g.nogoods.push(decisions);
            Ok(())
        })
    }

    /// True if making all of `decisions` effective would re-enter a
    /// recorded nogood (some nogood is a subset of the set).
    pub fn would_repeat_nogood(&self, decisions: &[&str]) -> bool {
        self.nogoods
            .iter()
            .any(|ng| ng.iter().all(|d| decisions.contains(&d.as_str())))
    }

    /// The recorded decision-level nogoods.
    pub fn nogoods(&self) -> &[Vec<String>] {
        &self.nogoods
    }
}

#[cfg(test)]
mod tests {
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::{DecisionRequest, Gkbms};

    fn key_conflict_history() -> Gkbms {
        // The fig 2-4 structure: a key decision and a Minutes mapping
        // that jointly produce an inconsistency.
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.register_object("Minutes", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("DecNormalize", "chooseKeys", "dev")
                .input("InvitationRel")
                .output("InvitationRelAK", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapMinutes", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Minutes")
                .output("MinutesRel", kernel::DBPL_REL),
        )
        .unwrap();
        g
    }

    #[test]
    fn ddb_retracts_most_recent_culprit() {
        let mut g = key_conflict_history();
        let res = g
            .report_conflict("candidate key lost at union", &["chooseKeys", "mapMinutes"])
            .unwrap();
        // Chronologically most recent: mapMinutes.
        assert_eq!(res.culprit, "mapMinutes");
        assert_eq!(res.affected, vec!["MinutesRel"]);
        assert!(g.is_current("InvitationRelAK"), "the other branch survives");
        assert!(!g.is_effective("mapMinutes"));
        // The nogood is recorded.
        assert_eq!(g.nogoods().len(), 1);
        assert!(g.would_repeat_nogood(&["chooseKeys", "mapMinutes"]));
        assert!(g.would_repeat_nogood(&["chooseKeys", "mapMinutes", "other"]));
        assert!(!g.would_repeat_nogood(&["chooseKeys"]));
    }

    #[test]
    fn caller_can_prefer_a_different_culprit_by_narrowing() {
        // The paper's scenario retracts the *key* decision, not the
        // Minutes mapping — the developer narrows the set.
        let mut g = key_conflict_history();
        let res = g
            .report_conflict("keys must stay unique", &["chooseKeys"])
            .unwrap();
        assert_eq!(res.culprit, "chooseKeys");
        assert!(g.is_effective("mapMinutes"));
        assert!(!g.is_current("InvitationRelAK"));
    }

    #[test]
    fn conflict_among_retracted_decisions_is_error() {
        let mut g = key_conflict_history();
        g.retract_decision("mapMinutes").unwrap();
        g.retract_decision("chooseKeys").unwrap();
        assert!(g
            .report_conflict("late report", &["chooseKeys", "mapMinutes"])
            .is_err());
    }

    #[test]
    fn unknown_decision_is_error() {
        let mut g = key_conflict_history();
        assert!(g.report_conflict("x", &["ghost"]).is_err());
    }

    #[test]
    fn repeated_conflicts_cascade() {
        let mut g = key_conflict_history();
        g.report_conflict("c1", &["chooseKeys", "mapMinutes"])
            .unwrap();
        // A second conflict among the survivors.
        let res = g
            .report_conflict("c2", &["mapInvitations", "chooseKeys"])
            .unwrap();
        assert_eq!(res.culprit, "chooseKeys");
        assert_eq!(g.nogoods().len(), 2);
        assert!(g.is_current("InvitationRel"));
        assert!(!g.is_current("InvitationRelAK"));
    }
}
