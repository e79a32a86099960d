//! Navigation in decision histories (§3.3.1).
//!
//! "The GKBMS enables browsing along and arbitrary switching between
//! several dimensions: status-oriented, by browsing requirements,
//! designs, implementations, and their interrelationships;
//! process-oriented, by following mapping and refinement relationships
//! and their causal ordering; temporal, by focusing on system versions
//! and following the history of design objects and design decisions."
//!
//! Each view is a function of one version of the state: a [`Snapshot`]
//! of its store and the [`DesignIndex`] captured with it
//! ([`Gkbms::capture`]). A served session reads them at its pinned
//! version; the same-named `Gkbms` methods read them at the live head.

use crate::design::DesignIndex;
use crate::error::{GkbmsError, GkbmsResult};
use crate::metamodel::names;
use crate::record::Record;
use crate::system::Gkbms;
use crate::versions::level_of;
use modelbase::display::relational::Table;
use modelbase::BrowseSession;
use telos::Snapshot;

impl Gkbms {
    /// [`status_view`] at the live head.
    pub fn status_view(&self) -> Table {
        status_view(self.kb.snapshot(), &self.design)
    }

    /// [`process_view`] at the live head.
    pub fn process_view(&self) -> Table {
        process_view(&self.design)
    }

    /// [`causal_chain`] at the live head.
    pub fn causal_chain(&self, object: &str) -> GkbmsResult<Vec<String>> {
        causal_chain(self.kb.snapshot(), &self.design, object)
    }

    /// [`objects_at`] belief tick `t` of the live store.
    pub fn objects_at(&self, t: i64) -> Vec<String> {
        objects_at(self.kb.snapshot_at(t), &self.design)
    }

    /// [`object_history`] at the live head.
    pub fn object_history(&self, object: &str) -> GkbmsResult<Vec<(i64, String)>> {
        object_history(self.kb.snapshot(), object)
    }
}

/// **Status-oriented** view of the version `snap` and `design` were
/// captured at: the current objects per life-cycle level, as a
/// relational display.
pub fn status_view(snap: Snapshot<'_>, design: &DesignIndex) -> Table {
    let mut t = Table::new(&["object", "level", "justified by"]);
    let records = design.records();
    for (obj, producers) in design.current() {
        let level = level_of(snap, design, obj).unwrap_or_else(|| "-".to_string());
        let mut producers = producers.iter().map(|&at| &records[at]);
        let justification = producers
            .find(|r| !r.retracted)
            .map_or("(registered)", |r| &r.name);
        t.row(&[obj, &level, justification]);
    }
    t
}

/// **Process-oriented** view of `design`: the effective decisions in
/// causal order (execution order restricted to effective ones), each
/// with its dimension, inputs and outputs. It reads the index alone.
pub fn process_view(design: &DesignIndex) -> Table {
    let mut t = Table::new(&["#", "decision", "dimension", "from", "to", "by"]);
    let effective = design.with_dimensions().filter(|(r, _)| !r.retracted);
    for (i, (r, dimension)) in effective.enumerate() {
        t.row(&[
            &(i + 1).to_string(),
            &r.name,
            &dimension.to_string(),
            &r.inputs.join(", "),
            &r.outputs.join(", "),
            r.tool.as_deref().unwrap_or("(manual)"),
        ]);
    }
    t
}

/// The decisions causally upstream of a design object of `design`,
/// current or retracted: the chain of justifications back to registered
/// objects.
pub fn causal_chain(
    snap: Snapshot<'_>,
    design: &DesignIndex,
    object: &str,
) -> GkbmsResult<Vec<String>> {
    let names = snap.store();
    if design.state(names, object).is_none() {
        return Err(GkbmsError::Unknown(format!("design object `{object}`")));
    }
    let mut chain = Vec::new();
    let mut frontier = vec![object];
    while let Some(cur) = frontier.pop() {
        for r in design.producers(names, cur) {
            if !chain.contains(&r.name) {
                chain.push(r.name.clone());
                frontier.extend(r.inputs.iter().map(String::as_str));
            }
        }
    }
    chain.reverse(); // earliest first
    Ok(chain)
}

/// **Temporal** view: the design objects of `design` believed at
/// `snap`'s tick (a past system version), sorted.
pub fn objects_at(snap: Snapshot<'_>, design: &DesignIndex) -> Vec<String> {
    let known = design.objects().filter(|o| snap.lookup(o).is_some());
    known.map(str::to_string).collect()
}

/// The history of one design object as believed at `snap`: `(tick,
/// event)` pairs, read off the `from`/`to` links into every incarnation
/// of the name, believed or closed — O(its links), not O(decisions). A
/// retraction is dated by the `status = retracted` it told.
pub fn object_history(snap: Snapshot<'_>, object: &str) -> GkbmsResult<Vec<(i64, String)>> {
    let reader = Record::over(snap);
    let decisions = reader.decisions_reaching(object, &[names::FROM_I, names::TO_I]);
    if decisions.is_empty() && snap.lookup(object).is_none() && !reader.registered(object) {
        return Err(GkbmsError::Unknown(format!("design object `{object}`")));
    }
    let mut out = Vec::new();
    for r in decisions {
        if r.outputs.iter().any(|o| o == object) {
            out.push((r.tick, format!("created by {}", r.name)));
            if let Some(at) = reader.retracted_at(r.prop) {
                out.push((at, format!("retracted with {}", r.name)));
            }
        }
        if r.inputs.iter().any(|i| i == object) {
            out.push((r.tick, format!("used by {}", r.name)));
        }
    }
    out.sort();
    Ok(out)
}

/// One Model Display view of `name` as believed at `snap` (§3.3.1):
/// `isa`, the specialization tree below it; `instances`, the
/// classification tree; `attrs`, the relational display of its
/// attributes. Another view, or an object not believed at `snap`, is
/// [`GkbmsError::Unknown`].
pub fn browse(snap: Snapshot<'_>, view: &str, name: &str) -> GkbmsResult<String> {
    let render: fn(&BrowseSession<'_>) -> String = match view {
        "isa" => |s| s.isa_tree(),
        "instances" => |s| s.instance_tree(),
        "attrs" => |s| s.attribute_table().render(),
        _ => {
            return Err(GkbmsError::Unknown(format!(
                "view `{view}` (isa, instances or attrs)"
            )))
        }
    };
    let session = BrowseSession::start(snap, name)
        .map_err(|_| GkbmsError::Unknown(format!("object `{name}`")))?;
    Ok(render(&session))
}

#[cfg(test)]
mod tests {
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::{DecisionRequest, Gkbms};

    fn history() -> Gkbms {
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
    fn status_view_lists_levels_and_justifications() {
        let g = history();
        let s = g.status_view().render();
        assert!(s.contains("Invitation"));
        assert!(s.contains("(registered)"));
        assert!(s.contains("Implementation"));
        assert!(s.contains("normalizeInvitations"));
    }

    #[test]
    fn process_view_in_causal_order() {
        let g = history();
        let s = g.process_view().render();
        let map_at = s.find("mapInvitations").unwrap();
        let norm_at = s.find("normalizeInvitations").unwrap();
        assert!(map_at < norm_at);
        assert!(s.contains("(manual)"));
        assert!(s.contains("TDL-DBPL-Mapper"));
    }

    #[test]
    fn causal_chain_traces_back() {
        let mut g = history();
        let chain = g.causal_chain("InvitationRel2").unwrap();
        assert_eq!(chain, vec!["mapInvitations", "normalizeInvitations"]);
        assert!(g.causal_chain("Ghost").is_err());
        assert!(g.causal_chain("Invitation").unwrap().is_empty());
        // A retracted object keeps its history.
        g.retract_decision("mapInvitations").unwrap();
        assert!(!g.is_current("InvitationRel2"));
        assert_eq!(g.causal_chain("InvitationRel2").unwrap(), chain);
    }

    #[test]
    fn temporal_view_sees_past_versions() {
        let mut g = history();
        let t_before = g.record("normalizeInvitations").unwrap().tick;
        g.retract_decision("normalizeInvitations").unwrap();
        assert!(!g.is_current("InvitationRel2"));
        // At the earlier tick, the object existed.
        let then = g.objects_at(t_before);
        assert!(then.contains(&"InvitationRel2".to_string()));
        let now = g.objects_at(g.kb().now());
        assert!(!now.contains(&"InvitationRel2".to_string()));
        assert!(now.contains(&"InvitationRel".to_string()));
    }

    #[test]
    fn object_history_lists_events() {
        let g = history();
        let h = g.object_history("InvitationRel").unwrap();
        let events: Vec<&str> = h.iter().map(|(_, e)| e.as_str()).collect();
        assert_eq!(
            events,
            vec!["created by mapInvitations", "used by normalizeInvitations"]
        );
        assert!(g.object_history("Ghost").is_err());
    }

    /// A retraction is dated when it happened, not when the retracted
    /// decision was executed: the tick is read from the belief interval
    /// of the `status = retracted` proposition, so it survives replay.
    #[test]
    fn object_history_dates_a_retraction_when_it_happened() {
        let mut g = history();
        let executed = g.record("normalizeInvitations").unwrap().tick;
        g.tell_src("TELL Unrelated end").unwrap();
        g.retract_decision("normalizeInvitations").unwrap();
        let h = g.object_history("InvitationRel2").unwrap();
        let tick_of = |event: &str| h.iter().find(|(_, e)| e == event).unwrap().0;
        let created = tick_of("created by normalizeInvitations");
        let retracted = tick_of("retracted with normalizeInvitations");
        assert_eq!(created, executed);
        assert!(retracted > executed, "{retracted} vs {executed}");
        assert!(retracted <= g.kb().now());

        let path = std::env::temp_dir().join(format!("gkbms-nav-{}.save", std::process::id()));
        g.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.object_history("InvitationRel2").unwrap(), h);
    }

    #[test]
    fn browse_renders_each_display_view_at_a_snapshot() {
        let mut g = history();
        let before = g.kb().now();
        g.tell_src("TELL LateRel in DBPL_Rel end").unwrap();
        let browse = |at, view| super::browse(g.kb().snapshot_at(at), view, "DBPL_Rel");
        let now = g.kb().now();
        assert!(browse(now, "instances").unwrap().contains("LateRel"));
        assert!(!browse(before, "instances").unwrap().contains("LateRel"));
        assert!(browse(now, "isa").unwrap().starts_with("DBPL_Rel\n"));
        assert!(browse(now, "attrs").unwrap().contains("attribute"));
        assert!(browse(now, "tree").is_err());
        assert!(super::browse(g.kb().snapshot_at(before), "isa", "LateRel").is_err());
    }

    #[test]
    fn arbitrary_switching_between_dimensions() {
        // The same KB answers all three views — "arbitrary switching".
        let g = history();
        assert!(!g.status_view().is_empty());
        assert!(!g.process_view().is_empty());
        assert!(!g.objects_at(g.kb().now()).is_empty());
    }
}
