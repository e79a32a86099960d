//! The correctness gate: a serial twin `Gkbms` is the specification.
//!
//! The twin holds the same corpus as the server and applies, serially
//! and through the same public calls the server's dispatcher makes,
//! every write the wire run acknowledged. Each observed answer is
//! compared — as an order-aware digest — with what the twin answers at
//! the observation's watermark. Asks are checked against
//! `objectbase::query::ask`, the assertion-language path, which does
//! not share the EDB bridge the server's ASK runs through.

use crate::schedule::{ReadOp, WriteStep, ASK_CLASSES, RECALL_LIMIT};
use crate::text;
use gkbms::synth::names;
use gkbms::{DecisionRequest, Gkbms};
use objectbase::transform::frame_of;
use telos::assertion;

/// Name, rule and predicate of the view every corpus registers.
pub const VIEW: (&str, &str, &str) = ("rels", "rel(X) :- inT(X, \"DBPL_Rel\").", "rel");

/// FNV-1a over the rows and their boundaries.
pub fn digest<S: AsRef<str>>(rows: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for row in rows {
        row.as_ref().bytes().for_each(&mut eat);
        eat(0xff);
    }
    h
}

/// Row count and digest of an answer, as both sides compute them.
pub type Answer = (usize, u64);

/// Digest of an ordered answer.
pub fn answer<S: AsRef<str>>(rows: &[S]) -> Answer {
    (rows.len(), digest(rows))
}

/// Digest of an answer *set*: rows are sorted first, since neither the
/// wire nor the oracle promises the other's order.
pub fn answer_set(mut rows: Vec<String>) -> Answer {
    rows.sort_unstable();
    answer(&rows)
}

/// One row per recall hit, as both sides render it.
pub fn recall_row(decision: &str, score: f64, retracted: bool) -> String {
    format!("{decision} {:016x} {retracted}", score.to_bits())
}

/// One row per object-history event, as the server renders it.
pub fn history_row(tick: i64, event: &str) -> String {
    format!("t{tick}: {event}")
}

/// One answer a client observed, to be checked against the twin.
#[derive(Debug, Clone)]
pub struct Check {
    /// The belief-time watermark the session was pinned at.
    pub watermark: i64,
    /// The request.
    pub op: ReadOp,
    /// Row count and digest of the reply.
    pub observed: Answer,
}

/// The twin's answer to `op` at `watermark`.
/// `Recall`, `ObjectHistory` and `Show` read the live state on the
/// server, so they are only checked while the twin *is* that state.
pub fn expected(twin: &Gkbms, watermark: i64, op: &ReadOp) -> Result<Answer, String> {
    let snap = twin.kb().snapshot_at(watermark);
    Ok(match op {
        ReadOp::Ask { class } => {
            answer_set(objectbase::query::ask(&snap, "x", class, "true").map_err(text)?)
        }
        // The view's contract: after a refresh it is the DBPL_Rel extent.
        ReadOp::ViewAsk => {
            answer_set(objectbase::query::ask(&snap, "x", ASK_CLASSES[0], "true").map_err(text)?)
        }
        ReadOp::Recall { decision } => answer(
            &twin
                .recall_similar(decision, RECALL_LIMIT as usize)
                .map_err(text)?
                .iter()
                .map(|h| recall_row(&h.decision, h.score, h.retracted))
                .collect::<Vec<_>>(),
        ),
        ReadOp::ObjectHistory { object } => answer(
            &twin
                .object_history(object)
                .map_err(text)?
                .iter()
                .map(|(tick, event)| history_row(*tick, event))
                .collect::<Vec<_>>(),
        ),
        ReadOp::Show { name } => {
            let id = twin
                .kb()
                .lookup(name)
                .ok_or_else(|| format!("twin has no object `{name}`"))?;
            answer(&[frame_of(twin.kb(), id).map_err(text)?.to_string()])
        }
        ReadOp::Holds { expr } => {
            let parsed = assertion::parse(expr).map_err(text)?;
            let mut env = assertion::Env::new();
            answer(&[assertion::eval(&snap, &parsed, &mut env)
                .map_err(text)?
                .to_string()])
        }
    })
}

/// Checks every observation against the twin; returns how many held.
pub fn verify(twin: &Gkbms, checks: &[Check]) -> Result<usize, String> {
    for c in checks {
        let want = expected(twin, c.watermark, &c.op)?;
        if want != c.observed {
            return Err(format!(
                "answer mismatch at watermark {}: {:?} observed {} rows (digest {:016x}), the \
                 serial twin says {} rows (digest {:016x})",
                c.watermark, c.op, c.observed.0, c.observed.1, want.0, want.1
            ));
        }
    }
    Ok(checks.len())
}

/// Applies one acknowledged writer step to the twin, through the calls
/// (and belief-clock ticks) the server's dispatcher makes for it.
pub fn apply_step(twin: &mut Gkbms, step: &WriteStep) -> Result<(), String> {
    match step {
        WriteStep::Tell { name } => {
            twin.tell_src_checked(&WriteStep::tell_src(name), false)
                .map_err(text)?;
        }
        WriteStep::Execute {
            entity,
            decision,
            outputs,
        } => {
            twin.begin_write();
            twin.register_object(
                entity,
                gkbms::metamodel::kernel::TDL_ENTITY_CLASS,
                &WriteStep::entity_source(entity),
            )
            .map_err(text)?;
            twin.begin_write();
            twin.execute(decision_request(entity, decision, outputs))
                .map_err(text)?;
        }
        WriteStep::Retract { decision } => {
            twin.begin_write();
            twin.retract_decision(decision).map_err(text)?;
        }
        WriteStep::Untell { name } => {
            twin.untell(name).map_err(text)?;
        }
    }
    Ok(())
}

/// The `SynDistribute` decision of an `Execute` step.
pub fn decision_request(entity: &str, decision: &str, outputs: &[String; 3]) -> DecisionRequest {
    let mut req = DecisionRequest::new(names::DISTRIBUTE, decision, names::AGENT)
        .with_tool(names::MAPPER)
        .input(entity);
    for o in outputs {
        req = req.output(o, gkbms::metamodel::kernel::DBPL_REL);
    }
    req
}

/// What every realization of one op stream must agree on. The belief
/// clock is not part of it: replay (recovery, a follower) re-executes
/// the ops under its own ticks.
#[derive(Debug, PartialEq, Eq)]
pub struct StateDigest {
    /// `records().len()`.
    pub records: usize,
    /// `current_objects()`.
    pub current_objects: Answer,
    /// Each of the five class extents.
    pub extents: [Answer; 5],
}

impl StateDigest {
    /// The digest of `g`'s current state.
    pub fn of(g: &Gkbms) -> Result<StateDigest, String> {
        let objects = g.current_objects();
        let mut extents = [(0, 0); 5];
        for (slot, class) in extents.iter_mut().zip(ASK_CLASSES) {
            *slot = answer_set(
                objectbase::query::ask(&g.kb().snapshot(), "x", class, "true").map_err(text)?,
            );
        }
        Ok(StateDigest {
            records: g.records().len(),
            current_objects: answer(&objects),
            extents,
        })
    }
}

/// Fails unless `other` (named `who`) is in the twin's state.
pub fn same_state(twin: &StateDigest, other: &Gkbms, who: &str) -> Result<(), String> {
    let got = StateDigest::of(other)?;
    if &got == twin {
        Ok(())
    } else {
        Err(format!(
            "{who} diverged from the serial twin:\n  twin: {twin:?}\n  {who}: {got:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_row_boundaries_and_order() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_eq!(
            answer_set(vec!["b".into(), "a".into()]),
            answer_set(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn twin_replay_of_writer_steps_never_fails_and_is_reproducible() {
        let build = || {
            let mut g = Gkbms::new().unwrap();
            gkbms::synth::generate_into(
                &mut g,
                &gkbms::synth::SynthConfig {
                    decisions: 30,
                    ..Default::default()
                },
            )
            .unwrap();
            g.register_view(VIEW.0, VIEW.1).unwrap();
            for step in crate::schedule::WriterSchedule::new(5).take(60) {
                apply_step(&mut g, &step).unwrap();
            }
            g
        };
        let (a, b) = (build(), build());
        let da = StateDigest::of(&a).unwrap();
        same_state(&da, &b, "second build").unwrap();
        // The view tracks the DBPL_Rel extent through tells, executes,
        // retractions and untells.
        let view: Vec<String> = a
            .view_tuples(VIEW.0, VIEW.2)
            .unwrap()
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        assert_eq!(
            answer_set(view),
            expected(&a, a.kb().now(), &ReadOp::ViewAsk).unwrap()
        );
    }
}
