//! Request dispatch: one exhaustive `match` from a decoded [`Request`]
//! to its [`Response`].
//!
//! Admission (the `class == Control` bypass, the in-flight bound, the
//! follower's redirect and staleness wrapper) has already happened in
//! the connection layer; what is left is one arm per row of the
//! [`Request`] table. The `match` has no wildcard arm, so a new table
//! row without a handler does not compile. Every arm that names a
//! session passes the one session gate ([`gate`]); every journaled
//! mutation runs through [`write_op`]. Every Read reads only the pinned
//! version the gate hands back.

use super::{lock_sessions, Shared, SlowQuery, SLOW_LOG_CAP};
use crate::proto::{ErrorCode, Request, Response, WireDiagnostic, WireRecallHit};
use crate::session::SessionErr;
use datalog::intern::ValueRef;
use gkbms::mvcc::Version;
use gkbms::{Applied, Gkbms, GkbmsError, GkbmsResult, JournalOp, Published};
use objectbase::transform::frame_at;
use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(super) fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn session_err(e: SessionErr, id: u64) -> Response {
    match e {
        SessionErr::Unknown => err(ErrorCode::UnknownSession, format!("session {id}")),
        SessionErr::Expired => err(ErrorCode::SessionExpired, format!("session {id} idled out")),
    }
}

fn done(text: impl Into<String>) -> Response {
    Response::Done { text: text.into() }
}

fn names<S: Into<Cow<'static, str>>>(list: impl IntoIterator<Item = S>) -> Response {
    Response::Names {
        probes: 0,
        scanned: 0,
        names: list.into_iter().map(Into::into).collect(),
    }
}

/// A view row as the wire names it: a one-symbol row is the symbol's
/// interned string, borrowed as the sorted rows resolved it; any other
/// row is its values joined by spaces.
fn row_name(row: &[ValueRef]) -> Cow<'static, str> {
    match row {
        [ValueRef::Sym(s)] => Cow::Borrowed(s),
        _ => Cow::Owned(
            row.iter()
                .map(ValueRef::to_string)
                .collect::<Vec<_>>()
                .join(" "),
        ),
    }
}

/// Maps a knowledge-base refusal to its response.
fn rejected(e: impl std::fmt::Display) -> Response {
    err(ErrorCode::Rejected, e.to_string())
}

fn one_lines(diags: &[analysis::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.one_line())
        .collect::<Vec<_>>()
        .join("; ")
}

/// The session gate: touches the session (bumping its counters, or
/// reaping it if it idled out) and returns a handle to its pinned
/// version, store and design index, whose capture tick is the session's
/// watermark. The `Arc` clone keeps the version alive for this request
/// even if the session is reaped mid-read; the chain mutex is never
/// taken on this path. An unknown or expired session is the request's
/// (typed) answer.
fn gate(shared: &Shared, id: u64) -> Result<Arc<Version<Published>>, Response> {
    let mut sessions = lock_sessions(shared);
    let s = sessions.touch(id).map_err(|e| session_err(e, id))?;
    Ok(s.pin.version())
}

/// A journaled mutation: session gate, writer, `op`, then the writer's
/// commit (version publish, auto-checkpoint, fsync policy) before the
/// outcome is acknowledged through `reply`.
fn write_op<T>(
    shared: &Shared,
    session: u64,
    op: impl FnOnce(&mut Gkbms) -> GkbmsResult<T>,
    reply: impl FnOnce(T) -> Response,
) -> Result<Response, Response> {
    gate(shared, session)?;
    let mut w = shared.writer()?;
    let outcome = op(&mut w);
    w.commit()?;
    Ok(match outcome {
        Ok(v) => reply(v),
        Err(GkbmsError::Lint(diags)) => err(ErrorCode::LintRejected, one_lines(&diags)),
        Err(e) => rejected(e),
    })
}

/// What the connection does once a response has been written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Then {
    /// Read the connection's next request.
    Serve,
    /// Begin the server's shutdown.
    Shutdown,
    /// Close the connection: its request panicked.
    Close,
}

/// Handles one decoded request. A panic is contained to it: the
/// request answers `Internal` and its connection is closed, while every
/// other connection keeps serving (a panic under the writer still
/// poisons the state, see `commit::poisoned`).
pub(super) fn dispatch(shared: &Shared, req: Request) -> (Response, Then) {
    let mut then = Then::Serve;
    match panic::catch_unwind(AssertUnwindSafe(|| handle(shared, req, &mut then))) {
        Ok(resp) => (resp.unwrap_or_else(|refusal| refusal), then),
        Err(_) => {
            obs::counter!(
                "gkbms_request_panics_total",
                "Requests whose handler panicked, answered Internal"
            )
            .inc();
            let resp = err(ErrorCode::Internal, "request panicked; connection closed");
            (resp, Then::Close)
        }
    }
}

/// The dispatch `match`. `Err` is an early answer (a failed session
/// gate, a failed commit) — a response like any other, split out only
/// so arms can use `?`.
fn handle(shared: &Shared, req: Request, then: &mut Then) -> Result<Response, Response> {
    let draining = || shared.shutdown.load(Ordering::SeqCst);
    #[cfg(test)]
    if req.class() == crate::proto::OpClass::Read
        && shared.panic_next_read.swap(false, Ordering::SeqCst)
    {
        panic!("a Read panicked");
    }
    Ok(match req {
        Request::Ping => done("pong"),
        Request::Metrics => {
            // The chain publishes its gauges whenever it is read; read
            // it, so the scrape counts versions freed by an unpin (which
            // never touches the chain) since the last publish or acquire.
            shared.chain.live_versions();
            Response::Metrics {
                text: obs::render_prometheus(),
            }
        }
        Request::Hello => {
            if draining() {
                return Err(err(ErrorCode::ShuttingDown, "server is draining"));
            }
            // Pin the chain head — a pointer clone, not the state
            // lock. Its capture clock is the session's watermark.
            let pin = shared.chain.acquire();
            let watermark = pin.data().kb.now();
            let session = lock_sessions(shared).open(watermark, pin);
            Response::Welcome { session, watermark }
        }
        Request::Bye { session } => {
            lock_sessions(shared).close(session);
            done(format!("session {session} closed"))
        }
        Request::Shutdown { session } => {
            // Validate the session unless we are already draining (a
            // repeated Shutdown should stay idempotent).
            if !draining() {
                gate(shared, session)?;
            }
            *then = Then::Shutdown;
            done("shutting down")
        }
        Request::Promote { session } => {
            gate(shared, session)?;
            promote(shared)
        }
        Request::ReplStatus => {
            let follower = shared.repl.follower.load(Ordering::SeqCst);
            // A leader's applied position is its committed one.
            let (applied_seq, epoch) = shared.commit.current();
            let leader_seq = if follower {
                shared.repl.leader_seq.load(Ordering::SeqCst)
            } else {
                applied_seq
            };
            Response::ReplInfo {
                is_leader: !follower,
                leader: shared.repl.leader_addr.clone(),
                applied_seq,
                leader_seq,
                epoch,
                connected: shared.repl.connected.load(Ordering::SeqCst),
            }
        }
        // Subscriptions are intercepted in the connection handler; one
        // arriving here was smuggled in a place it cannot take the
        // connection over (it never should be).
        Request::Replicate { .. } => {
            err(ErrorCode::BadRequest, "replication subscription rejected")
        }
        Request::Refresh { session } => {
            let pin = shared.chain.acquire();
            let now = pin.data().kb.now();
            match lock_sessions(shared).refresh(session, now, pin) {
                Ok(w) => done(format!("watermark {w}")),
                Err(e) => session_err(e, session),
            }
        }
        Request::Tell { session, src } => write_op(
            shared,
            session,
            |g| g.tell_src_checked(&src, shared.cfg.strict_lint),
            |(n, diags)| {
                if diags.is_empty() {
                    done(format!("told {n} object(s)"))
                } else {
                    done(format!(
                        "told {n} object(s); {} lint warning(s): {}",
                        diags.len(),
                        one_lines(&diags)
                    ))
                }
            },
        )?,
        Request::Write { session, op } => match op {
            JournalOp::Tell { .. }
            | JournalOp::CheckpointCovers { .. }
            | JournalOp::Seal { .. } => err(
                ErrorCode::BadRequest,
                format!("`{}` cannot be sent as a `write`", op.op_name()),
            ),
            op => {
                let asked = op.clone();
                write_op(shared, session, |g| g.apply(op), |a| written(&asked, a))?
            }
        },
        Request::Ask {
            session,
            var,
            class,
            expr,
        } => {
            let version = gate(shared, session)?;
            let started = Instant::now();
            // Served entirely from the session's pinned version: no
            // state lock, unaffected by concurrent writers.
            let kb = &version.data().kb;
            let result =
                objectbase::query::ask_with_stats_version(kb, kb.now(), &var, &class, &expr);
            let elapsed = started.elapsed();
            let (answers, stats) = result.map_err(rejected)?;
            if shared
                .cfg
                .slow_query_threshold
                .is_some_and(|t| elapsed >= t)
            {
                record_slow_query(shared, &var, &class, &expr, elapsed, &stats);
            }
            if let Some(s) = lock_sessions(shared).get_mut(session) {
                s.last_probes = stats.index_probes as u64;
                s.last_scanned = stats.tuples_scanned as u64;
            }
            Response::Names {
                probes: stats.index_probes as u64,
                scanned: stats.tuples_scanned as u64,
                names: answers,
            }
        }
        Request::Holds { session, expr } => {
            let version = gate(shared, session)?;
            let parsed = telos::assertion::parse(&expr).map_err(rejected)?;
            let snap = version.data().kb.snapshot();
            let mut env = telos::assertion::Env::new();
            let value = telos::assertion::eval(&snap, &parsed, &mut env).map_err(rejected)?;
            Response::Truth { value }
        }
        Request::Show { session, name } => {
            // Pinned like Ask: the frame as the session's version
            // believed it at the watermark, with no state guard.
            let version = gate(shared, session)?;
            let snap = version.data().kb.snapshot();
            let id = snap
                .lookup(&name)
                .ok_or_else(|| rejected(format!("unknown object `{name}`")))?;
            Response::Table {
                text: frame_at(snap, id).map_err(rejected)?.to_string(),
            }
        }
        Request::ApplicableDecisions { session, object } => {
            // Pinned: the process model is documented in the KB.
            let version = gate(shared, session)?;
            let snap = version.data().kb.snapshot();
            let rows = gkbms::system::applicable_decisions(snap, &object).map_err(rejected)?;
            names(rows.into_iter().map(|(class, tools)| {
                if tools.is_empty() {
                    class
                } else {
                    format!("{class} [{}]", tools.join(", "))
                }
            }))
        }
        Request::History { session } => {
            // Pinned: the design index is published with the version.
            let version = gate(shared, session)?;
            Response::Table {
                text: gkbms::navigate::process_view(&version.data().design).render(),
            }
        }
        Request::Status { session } => {
            let version = gate(shared, session)?;
            let Published { kb, design, .. } = version.data();
            Response::Table {
                text: gkbms::navigate::status_view(kb.snapshot(), design).render(),
            }
        }
        Request::ObjectHistory { session, object } => {
            // Pinned: every decision is documented in the KB.
            let version = gate(shared, session)?;
            let snap = version.data().kb.snapshot();
            let rows = gkbms::navigate::object_history(snap, &object).map_err(rejected)?;
            names(
                rows.into_iter()
                    .map(|(tick, event)| format!("t{tick}: {event}")),
            )
        }
        Request::SessionStats { session } => {
            let (requests, probes, scanned, version) = {
                let mut sessions = lock_sessions(shared);
                match sessions.touch(session) {
                    Ok(s) => (s.requests, s.last_probes, s.last_scanned, s.pin.version()),
                    Err(e) => return Err(session_err(e, session)),
                }
            };
            let kb = &version.data().kb;
            Response::SessionInfo {
                session,
                watermark: kb.now(),
                // The chain head is published per commit, so its
                // capture clock is the live clock — no state lock.
                kb_now: shared.chain.head().data().kb.now(),
                requests,
                believed: kb.snapshot().believed_count() as u64,
                probes,
                scanned,
            }
        }
        Request::Save { session, path } => {
            let version = gate(shared, session)?;
            gkbms::persist::save_history(&version.data().history, &path)
                .map_err(|e| err(ErrorCode::Internal, e.to_string()))?;
            done(format!("saved to {path}"))
        }
        Request::Load { session, path } => {
            gate(shared, session)?;
            if shared.journal_dir.is_some() {
                return Err(rejected(
                    "cannot load into a journaled server: state is owned by the journal \
                     (restart with a different --journal dir instead)",
                ));
            }
            let fresh = Gkbms::load(&path).map_err(|e| err(ErrorCode::Internal, e.to_string()))?;
            shared.writer()?.replace(fresh);
            done(format!("loaded from {path}"))
        }
        Request::Checkpoint { session } => {
            gate(shared, session)?;
            let mut w = shared.writer()?;
            let report = w.checkpoint();
            // The snapshot covers everything appended so far: the
            // commit releases waiting group committers.
            w.commit()?;
            let report = report.map_err(rejected)?;
            done(format!(
                "checkpointed: {} op(s) compacted into the snapshot",
                report.compacted_ops
            ))
        }
        Request::Lint { session, src } => {
            // Waits on the lint memo's mutex only, never on the writer.
            let version = gate(shared, session)?;
            let Published { kb, lint, .. } = version.data();
            let diags = gkbms::system::lint_src(kb.snapshot(), lint, &src);
            Response::Diagnostics {
                diags: diags.iter().map(WireDiagnostic::from_diagnostic).collect(),
            }
        }
        Request::Sleep { session, millis } => {
            gate(shared, session)?;
            let capped = Duration::from_millis(millis).min(shared.cfg.max_sleep);
            std::thread::sleep(capped);
            done(format!("slept {} ms", capped.as_millis()))
        }
        Request::ViewAsk {
            session,
            name,
            pred,
        } => {
            // Pinned like every Read: the views the session's version
            // was captured with — so one registered after the pin is
            // unknown at it — read from the lemmas that version holds.
            let version = gate(shared, session)?;
            let Published { kb, views, .. } = version.data();
            let view = (views.iter())
                .find(|v| v.name() == name)
                .ok_or_else(|| rejected(format!("unknown view `{name}`")))?;
            view.check_pred(&pred).map_err(rejected)?;
            let (mut rows, scratch) =
                gkbms::views::pinned_rows(kb, kb.now(), view, &pred).map_err(rejected)?;
            if scratch {
                obs::counter!(
                    "gkbms_view_asks_pinned_total",
                    "View reads that built the view's model from scratch at their pinned version"
                )
                .inc();
            } else {
                obs::counter!(
                    "gkbms_view_asks_materialized_total",
                    "View reads served from a model their pinned version built or carried over"
                )
                .inc();
            }
            names(rows.rows().iter().map(row_name))
        }
        Request::Recall {
            session,
            name,
            limit,
        } => {
            let version = gate(shared, session)?;
            let Published { kb, design, .. } = version.data();
            let snap = kb.snapshot();
            let hits = gkbms::recall::recall_similar(snap, design, &name, limit as usize)
                .map_err(rejected)?;
            Response::RecallHits {
                hits: hits
                    .into_iter()
                    .map(|h| WireRecallHit {
                        decision: h.decision,
                        score_bits: h.score.to_bits(),
                        retracted: h.retracted,
                    })
                    .collect(),
            }
        }
        Request::Explain { session, src } => {
            // Costed against the pinned version: the O(KB) EDB export
            // neither waits on a writer nor holds one up.
            let version = gate(shared, session)?;
            let ctx = analysis::LintContext::at(version.data().kb.snapshot());
            let plan = analysis::explain_source(&src, &ctx)
                .map_err(|e| rejected(GkbmsError::Precondition(format!("explain: {e}"))))?;
            done(plan)
        }
        Request::Browse {
            session,
            view,
            name,
        } => {
            // Pinned like Show: the views of the object as the
            // session's version believed it, with no state guard.
            let version = gate(shared, session)?;
            let snap = version.data().kb.snapshot();
            Response::Table {
                text: gkbms::navigate::browse(snap, &view, &name).map_err(rejected)?,
            }
        }
        Request::Check { session } => {
            // Like Explain: the full scan reads the pinned version.
            let version = gate(shared, session)?;
            let (violations, stats) =
                objectbase::consistency::check_full(version.data().kb.snapshot());
            let text = if violations.is_empty() {
                format!(
                    "consistent ({} constraints over {} classes)",
                    stats.constraints_evaluated, stats.classes_visited
                )
            } else {
                let lines: Vec<String> = violations.iter().map(ToString::to_string).collect();
                lines.join("\n")
            };
            Response::Table { text }
        }
    })
}

/// The reply to a committed `Write`: its op's name and what its
/// mutator returned, in the words each op has always been answered in.
fn written(op: &JournalOp, applied: Applied) -> Response {
    match (op, applied) {
        (_, Applied::Retracted(gone)) => names(gone),
        (_, Applied::Executed(summary)) => done(format!(
            "executed {}: created [{}] at tick {}",
            summary.name,
            summary.created.join(", "),
            summary.tick
        )),
        (JournalOp::Untell { name }, Applied::Count(gone)) => {
            done(format!("untold `{name}` ({gone} proposition(s))"))
        }
        (JournalOp::Register { name, class, .. }, _) => {
            done(format!("registered `{name}` in `{class}`"))
        }
        (JournalOp::RegisterView { name, .. }, Applied::View(registered, warnings)) => {
            // CB013 maintainability warnings ride back in the
            // confirmation text; they never block registration.
            let mut text = format!("registered view `{name}` as of tick {registered}");
            for d in &warnings {
                text.push_str(&format!("\nwarning[{}]: {}", d.code, d.message));
            }
            done(text)
        }
        (op, _) => done(format!("committed `{}`", op.op_name())),
    }
}

/// Seals this follower's log and makes it writable: bump the sequence
/// epoch, journal a durable seal record, and stop redirecting writes.
/// The old leader's records are fenced from here on — both by this
/// server's subscribers (frames carry the old epoch) and by its own
/// apply admission, should the deposed leader's stream still be live.
fn promote(shared: &Shared) -> Response {
    if !shared.repl.follower.load(Ordering::SeqCst) {
        return rejected("already the leader");
    }
    // Flip the role first so the apply loop stops taking batches, then
    // serialize behind any in-flight batch via the writer.
    shared.repl.follower.store(false, Ordering::SeqCst);
    let mut w = match shared.writer() {
        Ok(w) => w,
        Err(refusal) => {
            shared.repl.follower.store(true, Ordering::SeqCst);
            return refusal;
        }
    };
    let promoted = w.promote().map(|epoch| (epoch, w.applied_seq()));
    // The seal is a transaction like any write: its commit publishes
    // it and moves the watermark into the new epoch.
    match (promoted, w.commit()) {
        (Ok((epoch, applied)), Ok(())) => done(format!(
            "promoted: sequence epoch {epoch}, applied op {applied}"
        )),
        (Ok(_), Err(refusal)) => refusal,
        (Err(e), _) => {
            // Roll the role back: the seal is not durable.
            shared.repl.follower.store(true, Ordering::SeqCst);
            err(ErrorCode::Internal, format!("promote: {e}"))
        }
    }
}

/// Appends an over-threshold ASK to the bounded slow-query ring.
fn record_slow_query(
    shared: &Shared,
    var: &str,
    class: &str,
    expr: &str,
    duration: Duration,
    stats: &datalog::seminaive::EvalStats,
) {
    obs::counter!(
        "gkbms_slow_queries_total",
        "ASKs that crossed the slow-query threshold"
    )
    .inc();
    let mut log = shared.slow_log.lock().unwrap_or_else(|e| e.into_inner());
    if log.len() >= SLOW_LOG_CAP {
        log.pop_front();
    }
    log.push_back(SlowQuery {
        source: format!("ASK {var}/{class} WHERE {expr}"),
        duration,
        rounds: stats.rounds as u64,
        derivations: stats.derivations as u64,
        new_facts: stats.new_facts as u64,
        index_probes: stats.index_probes as u64,
        tuples_scanned: stats.tuples_scanned as u64,
    });
}
