//! The Consistency Checker (§3.1, \[GALL86\]).
//!
//! "After executing a decision, the knowledge base must be in a
//! consistent state (satisfying all the axioms of CML and the
//! constraints imposed on certain objects in the knowledge base)."
//!
//! Two entry points:
//!
//! * [`check_full`] — validate every axiom and every class constraint;
//! * [`check_touched`] — the set-oriented optimization: "since a whole
//!   set of operations is passed to the proposition processor,
//!   set-oriented optimization of the consistency check is being
//!   studied." Given the batch of propositions a decision created, only
//!   the constraints of classes reachable from the touched objects are
//!   re-evaluated, and a KB that believes no constraint assertion (read
//!   from the postings at each check, nothing stored) walks no class at
//!   all. Bench E-1 quantifies the difference.

use crate::transform::{constraints_of, markers};
use std::collections::BTreeSet;
use telos::assertion::{eval, parse, Env};
use telos::axioms;
use telos::{ClassClosures, PropId, Snapshot};

/// A consistency violation: an axiom violation or a failed constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A CML axiom violation (from `telos::axioms`).
    Axiom(String),
    /// A class constraint evaluated to false.
    Constraint {
        /// Class carrying the constraint.
        class: String,
        /// Constraint name.
        name: String,
        /// Constraint text.
        text: String,
    },
    /// A constraint could not be evaluated (unknown reference).
    Unevaluable {
        /// Class carrying the constraint.
        class: String,
        /// Constraint name.
        name: String,
        /// Error message.
        message: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Axiom(m) => write!(f, "axiom: {m}"),
            Violation::Constraint { class, name, text } => {
                write!(f, "constraint `{name}` on `{class}` violated: {text}")
            }
            Violation::Unevaluable {
                class,
                name,
                message,
            } => {
                write!(f, "constraint `{name}` on `{class}` unevaluable: {message}")
            }
        }
    }
}

/// Statistics of one check run (for bench E-1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Classes whose constraints were considered: every believed
    /// object for [`check_full`], the reached classes that own a
    /// constraint for [`check_touched`].
    pub classes_visited: usize,
    /// Constraints evaluated.
    pub constraints_evaluated: usize,
}

/// Whether `snap` believes `id` and it is an object (an individual),
/// so possibly a class with constraints.
fn is_object(snap: Snapshot<'_>, id: PropId) -> bool {
    let p = snap.store().prop(id);
    p.is_some_and(|p| p.believed_at(snap.at()) && p.is_individual())
}

fn check_class_constraints(
    snap: Snapshot<'_>,
    class: PropId,
    out: &mut Vec<Violation>,
    stats: &mut CheckStats,
) {
    let class_name = snap.store().display(class);
    for (name, text) in constraints_of(snap, class) {
        stats.constraints_evaluated += 1;
        match parse(&text) {
            Err(e) => out.push(Violation::Unevaluable {
                class: class_name.clone(),
                name,
                message: e.to_string(),
            }),
            Ok(expr) => match eval(&snap, &expr, &mut Env::new()) {
                Err(e) => out.push(Violation::Unevaluable {
                    class: class_name.clone(),
                    name,
                    message: e.to_string(),
                }),
                Ok(true) => {}
                Ok(false) => out.push(Violation::Constraint {
                    class: class_name.clone(),
                    name,
                    text,
                }),
            },
        }
    }
}

/// Full check: all CML axioms plus every constraint of every class
/// `snap` believes that has one.
pub fn check_full(snap: Snapshot<'_>) -> (Vec<Violation>, CheckStats) {
    let mut out: Vec<Violation> = axioms::check_all(snap)
        .into_iter()
        .map(|v| Violation::Axiom(v.to_string()))
        .collect();
    let mut stats = CheckStats::default();
    for id in snap.believed().filter(|&id| is_object(snap, id)) {
        stats.classes_visited += 1;
        check_class_constraints(snap, id, &mut out, &mut stats);
    }
    (out, stats)
}

/// Whether `snap` believes a constraint assertion: an instance of
/// `ConstraintAssertion` or of a specialization of it. Without one no
/// class owns a constraint. Reads the kinds' postings and stops at the
/// first instance; nothing is stored.
fn believes_a_constraint(snap: Snapshot<'_>) -> bool {
    let Some(kind) = snap.lookup(markers::CONSTRAINT) else {
        return false;
    };
    let store = snap.store();
    let instanceof = store.instanceof_sym();
    let has_instance = |k: PropId| {
        let mut links = store.postings_to(k).filter_map(|id| store.prop(id));
        links.any(|p| p.id != k && p.label == instanceof && p.believed_at(snap.at()))
    };
    std::iter::once(kind)
        .chain(snap.isa_descendants(kind))
        .any(has_instance)
}

/// Set-oriented check: CML axioms only for the batch
/// (`axioms::check_props`), and the constraints of the classes
/// *relevant to the batch* — the touched objects and their classes
/// (transitive, through isa). A KB that believes no constraint
/// assertion has no constrained class, and the check walks no class.
/// Otherwise the class closures the axiom check walked are the ones
/// the gather reads, one walk per touched object per batch, and
/// [`CheckStats::classes_visited`] counts the reached classes that own
/// a constraint.
pub fn check_touched(snap: Snapshot<'_>, touched: &[PropId]) -> (Vec<Violation>, CheckStats) {
    let mut stats = CheckStats::default();
    if touched.is_empty() {
        return (Vec::new(), stats);
    }
    let mut closures = ClassClosures::new(snap);
    let mut out: Vec<Violation> = axioms::check_props(&mut closures, touched)
        .into_iter()
        .map(|v| Violation::Axiom(v.to_string()))
        .collect();
    let mut reached: BTreeSet<PropId> = BTreeSet::new();
    if believes_a_constraint(snap) {
        for &t in touched {
            let Some(p) = snap.store().prop(t) else {
                continue;
            };
            // An individual is its own endpoint, a link's are the
            // objects it connects; either may itself be a class.
            for obj in [p.source, p.dest] {
                reached.insert(obj);
                reached.extend(closures.of(obj));
            }
        }
    }
    for class in reached.into_iter().filter(|&c| is_object(snap, c)) {
        let before = stats.constraints_evaluated;
        check_class_constraints(snap, class, &mut out, &mut stats);
        stats.classes_visited += usize::from(stats.constraints_evaluated > before);
    }
    obs::counter!(
        "objectbase_consistency_classes_visited_total",
        "Constrained classes a set-oriented consistency check visited"
    )
    .add(stats.classes_visited as u64);
    obs::counter!(
        "objectbase_constraints_evaluated_total",
        "Class constraints a set-oriented consistency check evaluated"
    )
    .add(stats.constraints_evaluated as u64);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ObjectFrame;
    use crate::transform::{tell, tell_all};
    use telos::Kb;

    fn scenario_kb() -> Kb {
        let mut kb = Kb::new();
        let frames = ObjectFrame::parse_all(
            "TELL Person end\n\
             TELL Paper with attribute author : Person end\n\
             TELL Invitation isA Paper with\n\
               attribute sender : Person\n\
               constraint hasSender : $ forall i/Invitation i.sender defined $\n\
             end\n\
             TELL maria in Person end",
        )
        .unwrap();
        tell_all(&mut kb, &frames).unwrap();
        kb
    }

    #[test]
    fn clean_kb_checks_clean() {
        let kb = scenario_kb();
        let (violations, stats) = check_full(kb.snapshot());
        assert_eq!(violations, Vec::new());
        assert!(stats.constraints_evaluated >= 1);
        assert!(stats.classes_visited > 3);
    }

    #[test]
    fn violated_constraint_reported() {
        let mut kb = scenario_kb();
        // An invitation without a sender violates hasSender.
        tell(
            &mut kb,
            &ObjectFrame::parse("TELL inv1 in Invitation end").unwrap(),
        )
        .unwrap();
        let (violations, _) = check_full(kb.snapshot());
        assert_eq!(violations.len(), 1);
        match &violations[0] {
            Violation::Constraint { class, name, .. } => {
                assert_eq!(class, "Invitation");
                assert_eq!(name, "hasSender");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Fixing the object clears the violation.
        tell(
            &mut kb,
            &ObjectFrame::parse("TELL inv1 with attribute sender : maria end").unwrap(),
        )
        .unwrap();
        let (violations, _) = check_full(kb.snapshot());
        assert!(violations.is_empty());
    }

    #[test]
    fn touched_check_visits_fewer_classes() {
        let mut kb = scenario_kb();
        // Many unrelated constrained classes.
        for i in 0..20 {
            tell(
                &mut kb,
                &ObjectFrame::parse(&format!("TELL Other{i} with constraint c : $ true $ end"))
                    .unwrap(),
            )
            .unwrap();
        }
        let receipt = tell(
            &mut kb,
            &ObjectFrame::parse("TELL inv1 in Invitation with attribute sender : maria end")
                .unwrap(),
        )
        .unwrap();
        let (v_full, s_full) = check_full(kb.snapshot());
        let (v_touched, s_touched) = check_touched(kb.snapshot(), &receipt.created);
        assert!(v_full.is_empty() && v_touched.is_empty());
        assert!(
            s_touched.constraints_evaluated < s_full.constraints_evaluated,
            "touched {s_touched:?} vs full {s_full:?}"
        );
        assert!(s_touched.classes_visited < s_full.classes_visited);
    }

    #[test]
    fn touched_check_still_catches_relevant_violation() {
        let mut kb = scenario_kb();
        let receipt = tell(
            &mut kb,
            &ObjectFrame::parse("TELL inv1 in Invitation end").unwrap(),
        )
        .unwrap();
        let (violations, _) = check_touched(kb.snapshot(), &receipt.created);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn touched_check_walks_isa_to_inherited_constraints() {
        // `r1` is an instance of a *subclass* of the constrained class:
        // only the closure step's walk through isa reaches `hasSender`.
        let mut kb = scenario_kb();
        let frames =
            ObjectFrame::parse_all("TELL Reminder isA Invitation end\nTELL r1 in Reminder end")
                .unwrap();
        let receipts = tell_all(&mut kb, &frames).unwrap();
        let (violations, _) = check_touched(kb.snapshot(), &receipts[1].created);
        assert_eq!(
            violations,
            vec![Violation::Constraint {
                class: "Invitation".into(),
                name: "hasSender".into(),
                text: "forall i/Invitation i.sender defined".into(),
            }]
        );
    }

    #[test]
    fn empty_batch_checks_nothing() {
        let kb = scenario_kb();
        let (violations, stats) = check_touched(kb.snapshot(), &[]);
        assert!(violations.is_empty());
        assert_eq!(stats.constraints_evaluated, 0);
    }

    #[test]
    fn axiom_violations_surface() {
        let mut kb = scenario_kb();
        let inv1 = kb.individual("inv1").unwrap();
        let invitation = kb.lookup("Invitation").unwrap();
        kb.instantiate(inv1, invitation).unwrap();
        let maria = kb.lookup("maria").unwrap();
        kb.put_attr(inv1, "sender", maria).unwrap();
        // An undeclared attribute on a classified object.
        let ghost = kb.individual("ghostvalue").unwrap();
        let bad = kb.put_attr(inv1, "bogus", ghost).unwrap();
        let (violations, _) = check_touched(kb.snapshot(), &[bad]);
        assert!(violations.iter().any(|v| matches!(v, Violation::Axiom(_))));
    }

    #[test]
    fn unevaluable_constraint_reported_not_crashed() {
        let mut kb = scenario_kb();
        // Reference a name that is later untold.
        tell(
            &mut kb,
            &ObjectFrame::parse("TELL Fragile with constraint c : $ ghostname in Person $ end")
                .unwrap(),
        )
        .unwrap();
        let (violations, _) = check_full(kb.snapshot());
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::Unevaluable { .. })));
    }
}
