//! The in-process half of the traced run: a fixed sample of the
//! schedule replayed against a serial twin, with one span around each
//! public call the server makes for the request.
//!
//! The functions timed here are the benchmark's pinned surface — a
//! change to one of their signatures is a benchmark change first. The
//! library crates are untouched, so the parts of an ASK that happen
//! *inside* `ask_with_stats_version` (EDB export, the `inT` closure)
//! are timed by re-executing them on the same pinned version right
//! after it; `query.filter_self_ms` is the total minus those two.
//! Counts come from `EvalStats`, return values and deltas of the
//! process-wide `obs` counters, read while nothing else is running.
//!
//! Like the end-to-end timings, every layer time is booked at the
//! reference pace (`pace.rs`): the probe ticks before each request it
//! replays and divides what it measures by the slowdown of that tick.
//! The span file keeps the wall-clock intervals.

use crate::harness::Workload;
use crate::oracle::{self, VIEW};
use crate::pace::Pace;
use crate::schedule::{Catalog, Kind, ReadOp, ReaderSchedule, WriteStep, WriterSchedule};
use crate::spans::{Recorder, SpanId};
use crate::stats;
use crate::text;
use datalog::seminaive;
use gkbms::journal::decode_framed;
use gkbms::metamodel::kernel;
use gkbms::mvcc::{Pin, VersionChain};
use gkbms::Gkbms;
use objectbase::query;
use objectbase::transform::frame_of;
use objectbase::ObjectFrame;
use server::session::SessionTable;
use server::{Request, Response};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use telos::{assertion, KbVersion};

/// Samples per layer measurement, keyed by the name they are booked
/// under (a per-layer metric name, or `inproc.<kind>` for the whole
/// in-process cost of one request kind).
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    pace: Pace,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            samples: BTreeMap::new(),
            pace: Pace::new(),
        }
    }

    /// Ticks if a tick is due; times booked from here on are corrected
    /// by the latest tick.
    fn tick(&mut self) {
        self.pace.tick_if_due();
    }

    fn book(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn us(&mut self, name: &'static str, d: Duration) {
        self.book(name, d.as_secs_f64() * 1e6 / self.pace.latest());
    }

    fn ms(&mut self, name: &'static str, d: Duration) {
        self.book(name, d.as_secs_f64() * 1e3 / self.pace.latest());
    }

    fn samples(&self, name: &str) -> Result<&[f64], String> {
        self.samples
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("the layer probe took no `{name}` sample"))
    }

    /// Median and sample count of `name`.
    pub fn median(&self, name: &str) -> Result<(f64, usize), String> {
        let v = self.samples(name)?;
        Ok((stats::median(v).expect("booked at least once"), v.len()))
    }

    /// Sum over all samples of `name` divided by their number.
    pub fn mean(&self, name: &str) -> Result<(f64, usize), String> {
        let v = self.samples(name)?;
        Ok((v.iter().sum::<f64>() / v.len() as f64, v.len()))
    }
}

fn counter(name: &str) -> u64 {
    obs::registry().counter_value(name).unwrap_or(0)
}

/// The session, version-chain and pinned-version state a server holds
/// for one connection, rebuilt from the server's own building blocks.
struct Serving {
    chain: VersionChain<KbVersion>,
    sessions: SessionTable<Pin<KbVersion>>,
    session: u64,
}

impl Serving {
    fn over(g: &Gkbms) -> Serving {
        let chain = VersionChain::new(g.kb().version());
        let mut sessions = SessionTable::new(Duration::from_secs(300));
        let pin = chain.acquire();
        let session = sessions.open(pin.data().now(), pin);
        Serving {
            chain,
            sessions,
            session,
        }
    }
}

/// Times the request codec both ways, as `handle_conn` and the client
/// run it, under the request's span.
fn request_codec(
    rec: &mut Recorder,
    parent: SpanId,
    req: &Request,
) -> Result<[Duration; 2], String> {
    let (bytes, enc) = rec.time("proto.Request::encode", parent, || req.encode());
    let (decoded, dec) = rec.time("proto.Request::decode", parent, || Request::decode(&bytes));
    decoded.map_err(text)?;
    Ok([enc, dec])
}

/// Times the response codec both ways; returns the encoded length too.
fn response_codec(
    rec: &mut Recorder,
    parent: SpanId,
    resp: &Response,
) -> Result<([Duration; 2], usize), String> {
    let (bytes, enc) = rec.time("proto.Response::encode", parent, || resp.encode());
    let (decoded, dec) = rec.time("proto.Response::decode", parent, || {
        Response::decode(&bytes)
    });
    decoded.map_err(text)?;
    Ok(([enc, dec], bytes.len()))
}

/// Replays the first `w.probe_reads` requests of reader 0's stream the
/// way `dispatch_inner` serves them.
fn probe_reads(
    w: &Workload,
    seed: u64,
    g: &Gkbms,
    catalog: &Catalog,
    rec: &mut Recorder,
    root: SpanId,
    out: &mut Layers,
) -> Result<(), String> {
    let mut sv = Serving::over(g);
    let session = sv.session;
    let program = query::base_program();
    for (seq, op) in ReaderSchedule::new(seed, 0, catalog)
        .take(w.probe_reads)
        .enumerate()
    {
        let id = (0, seq as u64);
        out.tick();
        let t0 = Instant::now();
        match &op {
            ReadOp::Ask { class } => {
                let span = rec.open("inproc.ask", root, id);
                let req = Request::Ask {
                    session,
                    var: "x".into(),
                    class: (*class).into(),
                    expr: "true".into(),
                };
                let [enc, dec] = request_codec(rec, span, &req)?;
                let (touched, touch) = rec.time("session.SessionTable::touch", span, || {
                    sv.sessions
                        .touch(session)
                        .map(|s| (s.watermark, s.pin.version()))
                });
                let (at, version) = touched.map_err(|e| format!("{e:?}"))?;
                let (asked, total) = rec.time("query.ask_with_stats_version", span, || {
                    query::ask_with_stats_version(version.data(), at, "x", class, "true")
                });
                let (answers, stats) = asked.map_err(text)?;
                let n_answers = answers.len();
                let resp = Response::Names {
                    probes: stats.index_probes as u64,
                    scanned: stats.tuples_scanned as u64,
                    names: answers,
                };
                let ([renc, rdec], bytes) = response_codec(rec, span, &resp)?;
                rec.close(span);
                out.ms("inproc.ask", t0.elapsed());
                out.us("proto.ask_request_encode_us", enc);
                out.us("proto.ask_request_decode_us", dec);
                out.us("proto.names_response_encode_us", renc);
                out.us("proto.names_response_decode_us", rdec);
                out.book("proto.names_response_bytes", bytes as f64);
                out.us("session.touch_us", touch);
                out.ms("query.ask_total_ms", total);

                // The two KB-proportional parts, re-executed.
                let parts = rec.open("inproc.ask.parts", root, id);
                let (edb, export) = rec.time("query.to_edb_at_store", parts, || {
                    query::to_edb_at_store(version.data(), at)
                });
                let edb = edb.map_err(text)?;
                let (closed, closure) = rec.time("seminaive.evaluate", parts, || {
                    seminaive::evaluate(&program, &edb)
                });
                let (_, again) = closed.map_err(text)?;
                rec.close(parts);
                if again != stats {
                    return Err(format!(
                        "re-executed closure counted {again:?}, the ask counted {stats:?}"
                    ));
                }
                out.ms("query.edb_export_ms", export);
                out.ms("seminaive.closure_ms", closure);
                out.ms(
                    "query.filter_self_ms",
                    total.saturating_sub(export).saturating_sub(closure),
                );
                out.book("query.edb_tuples", edb.total() as f64);
                out.book("seminaive.rounds", stats.rounds as f64);
                out.book("seminaive.derivations", stats.derivations as f64);
                out.book("seminaive.index_probes", stats.index_probes as f64);
                out.book("seminaive.tuples_scanned", stats.tuples_scanned as f64);
                out.book("query.answers", n_answers as f64);
            }
            ReadOp::Holds { expr } => {
                let span = rec.open("inproc.holds", root, id);
                let (touched, _) = rec.time("session.SessionTable::touch", span, || {
                    sv.sessions
                        .touch(session)
                        .map(|s| (s.watermark, s.pin.version()))
                });
                let (at, version) = touched.map_err(|e| format!("{e:?}"))?;
                let (value, holds) = rec.time("assertion.parse+eval", span, || {
                    let parsed = assertion::parse(expr)?;
                    let snap = version.data().snapshot_at(at);
                    assertion::eval(&snap, &parsed, &mut assertion::Env::new())
                });
                value.map_err(text)?;
                rec.close(span);
                out.us("assertion.holds_us", holds);
            }
            ReadOp::ViewAsk => {
                let span = rec.open("inproc.view_ask", root, id);
                let (tuples, d) = rec.time("views.Gkbms::view_tuples", span, || {
                    g.view_tuples(VIEW.0, VIEW.2)
                });
                let tuples = tuples.map_err(text)?;
                rec.close(span);
                out.ms("views.view_tuples_ms", d);
                out.book("views.tuples", tuples.len() as f64);
            }
            ReadOp::Recall { decision } => {
                let span = rec.open("inproc.recall", root, id);
                let (hits, d) = rec.time("recall.Gkbms::recall_similar", span, || {
                    g.recall_similar(decision, crate::schedule::RECALL_LIMIT as usize)
                });
                hits.map_err(text)?;
                rec.close(span);
                out.ms("recall.recall_similar_ms", d);
            }
            ReadOp::ObjectHistory { object } => {
                let span = rec.open("inproc.object_history", root, id);
                let (rows, d) = rec.time("navigate.Gkbms::object_history", span, || {
                    g.object_history(object)
                });
                rows.map_err(text)?;
                rec.close(span);
                out.us("navigate.object_history_us", d);
            }
            ReadOp::Show { name } => {
                let span = rec.open("inproc.show", root, id);
                let req = Request::Show {
                    session,
                    name: name.clone(),
                };
                request_codec(rec, span, &req)?;
                let (touched, _) = rec.time("session.SessionTable::touch", span, || {
                    sv.sessions.touch(session).map(|s| s.watermark)
                });
                touched.map_err(|e| format!("{e:?}"))?;
                let (frame, _) = rec.time("transform.frame_of", span, || {
                    let id = g.kb().lookup(name).ok_or("unknown object")?;
                    frame_of(g.kb(), id).map(|f| f.to_string()).map_err(text)
                });
                let resp = Response::Table { text: frame? };
                response_codec(rec, span, &resp)?;
                rec.close(span);
                out.us("inproc.show", t0.elapsed());
            }
        }
    }
    // What a `refresh` adds: one pin of the chain head.
    for _ in 0..w.probe_reads {
        out.tick();
        let (pin, d) = rec.time("mvcc.VersionChain::acquire", root, || sv.chain.acquire());
        drop(pin);
        out.us("mvcc.acquire_us", d);
    }
    Ok(())
}

/// Replays the first `w.probe_writes` steps of the writer's stream the
/// way `dispatch_inner` and `durable_commit` apply them, on a journaled
/// twin.
fn probe_writes(
    w: &Workload,
    seed: u64,
    g: &mut Gkbms,
    rec: &mut Recorder,
    root: SpanId,
    out: &mut Layers,
) -> Result<(), String> {
    let sv = Serving::over(g);
    for (seq, step) in WriterSchedule::new(seed).take(w.probe_writes).enumerate() {
        let id = (0, seq as u64);
        out.tick();
        let props = g.kb().len();
        let deltas = counter("datalog_ivm_delta_tuples_total");
        let wal = journal_position(g)?;
        let t0 = Instant::now();
        let (span, kind) = match &step {
            WriteStep::Tell { name } => {
                let span = rec.open("inproc.tell", root, id);
                let src = WriteStep::tell_src(name);
                let req = Request::Tell {
                    session: sv.session,
                    src: src.clone(),
                };
                request_codec(rec, span, &req)?;
                let (frames, parse) = rec.time("frame.ObjectFrame::parse_all", span, || {
                    ObjectFrame::parse_all(&src)
                });
                let frames = frames.map_err(text)?;
                // The previous write invalidated the lint context, so
                // this lint pays the O(KB) rebuild...
                let sccs = counter("gkbms_lint_incremental_sccs_reanalyzed_total");
                let (_, cold) = rec.time("analysis.Gkbms::lint_frames", span, || {
                    g.lint_frames(&frames)
                });
                let sccs = counter("gkbms_lint_incremental_sccs_reanalyzed_total") - sccs;
                // ...and the admission inside the TELL finds it warm.
                let (told, apply) = rec.time("system.Gkbms::tell_src_checked", span, || {
                    g.tell_src_checked(&src, false)
                });
                told.map_err(text)?;
                out.us("frame.parse_us", parse);
                out.ms("analysis.lint_cold_ms", cold);
                out.book("analysis.sccs_reanalyzed_per_tell", sccs as f64);
                out.ms("system.tell_apply_ms", apply);
                (span, Kind::Tell)
            }
            WriteStep::Execute {
                entity,
                decision,
                outputs,
            } => {
                let span = rec.open("inproc.register_object", root, id);
                let (registered, reg) = rec.time("system.Gkbms::register_object", span, || {
                    g.begin_write();
                    g.register_object(
                        entity,
                        kernel::TDL_ENTITY_CLASS,
                        &WriteStep::entity_source(entity),
                    )
                });
                registered.map_err(text)?;
                commit(g, &sv, rec, span, out)?;
                rec.close(span);
                out.ms("system.register_object_ms", reg);
                let span = rec.open("inproc.execute", root, id);
                let (executed, exec) = rec.time("system.Gkbms::execute", span, || {
                    g.begin_write();
                    g.execute(oracle::decision_request(entity, decision, outputs))
                });
                executed.map_err(text)?;
                out.ms("system.execute_ms", exec);
                (span, Kind::Execute)
            }
            WriteStep::Retract { decision } => {
                let span = rec.open("inproc.retract", root, id);
                let (retracted, d) = rec.time("system.Gkbms::retract_decision", span, || {
                    g.begin_write();
                    g.retract_decision(decision)
                });
                retracted.map_err(text)?;
                out.ms("system.retract_ms", d);
                (span, Kind::Retract)
            }
            WriteStep::Untell { name } => {
                let span = rec.open("inproc.untell", root, id);
                let (untold, d) = rec.time("system.Gkbms::untell", span, || g.untell(name));
                untold.map_err(text)?;
                out.ms("system.untell_ms", d);
                (span, Kind::Untell)
            }
        };
        commit(g, &sv, rec, span, out)?;
        if kind == Kind::Tell {
            response_codec(
                rec,
                span,
                &Response::Done {
                    text: "told 1 object(s)".into(),
                },
            )?;
        }
        rec.close(span);
        if kind == Kind::Tell {
            out.ms("inproc.tell", t0.elapsed());
        }
        let (ops, bytes) = journal_position(g)?;
        out.book("journal.wal_bytes", (bytes - wal.1) as f64);
        out.book("journal.ops", (ops - wal.0) as f64);
        out.book("system.props_per_write", (g.kb().len() - props) as f64);
        out.book(
            "views.delta_tuples_per_write",
            (counter("datalog_ivm_delta_tuples_total") - deltas) as f64,
        );
    }
    // What every later lint of an unchanged KB is spared.
    for _ in 0..w.probe_writes.min(20) {
        out.tick();
        let (ctx, d) = rec.time("analysis.LintContext::from_kb", root, || {
            analysis::LintContext::from_kb(g.kb())
        });
        drop(ctx);
        out.ms("analysis.lint_context_ms", d);
    }
    Ok(())
}

fn journal_position(g: &Gkbms) -> Result<(u64, u64), String> {
    let j = g.journal().ok_or("the probe twin has no journal")?;
    Ok((j.appended_ops(), j.wal_byte_len()))
}

/// `durable_commit` for a single writer: capture and publish the new
/// store version, then make the WAL durable.
fn commit(
    g: &mut Gkbms,
    sv: &Serving,
    rec: &mut Recorder,
    parent: SpanId,
    out: &mut Layers,
) -> Result<(), String> {
    let (version, capture) = rec.time("version.Kb::version", parent, || g.kb().version());
    let (_, publish) = rec.time("mvcc.VersionChain::publish", parent, || {
        sv.chain.publish(version)
    });
    let journal = g.journal_mut().ok_or("the probe twin has no journal")?;
    let (synced, sync) = rec.time("journal.Journal::sync", parent, || journal.sync());
    synced.map_err(text)?;
    out.ms("version.capture_ms", capture);
    out.us("mvcc.publish_us", publish);
    out.us("journal.sync_us", sync);
    Ok(())
}

/// Follower apply without a network: every record of the twin's WAL
/// decoded and applied to a scratch journal-less replica.
fn probe_replication(
    g: &mut Gkbms,
    rec: &mut Recorder,
    root: SpanId,
    out: &mut Layers,
) -> Result<(), String> {
    let wal = g
        .journal()
        .ok_or("the probe twin has no journal")?
        .wal_path();
    let mut log = storage::AppendLog::open(&wal).map_err(text)?;
    let records: Vec<Vec<u8>> = log
        .iter()
        .map_err(text)?
        .map(|r| r.map(|(_, bytes)| bytes))
        .collect::<Result<_, _>>()
        .map_err(text)?;
    let mut replica = Gkbms::new().map_err(text)?;
    let (applied, d) = rec.time("replication.decode_framed+apply_replicated", root, || {
        for bytes in &records {
            let (seq, epoch, payload) = decode_framed(bytes).map_err(text)?;
            replica
                .apply_replicated(seq, epoch, payload)
                .map_err(text)?;
        }
        Ok::<(), String>(())
    });
    applied?;
    let want = oracle::StateDigest::of(g)?;
    oracle::same_state(&want, &replica, "the scratch replica")?;
    out.book(
        "replication.apply_us_per_op",
        d.as_secs_f64() * 1e6 / records.len() as f64,
    );
    Ok(())
}

/// Runs every probe against `g`, the probe twin at corpus state.
pub fn probe(
    w: &Workload,
    seed: u64,
    mut g: Gkbms,
    catalog: &Catalog,
    rec: &mut Recorder,
) -> Result<Layers, String> {
    let mut out = Layers::new();
    let root = rec.open("inproc", 0, (0, 0));
    probe_reads(w, seed, &g, catalog, rec, root, &mut out)?;
    probe_writes(w, seed, &mut g, rec, root, &mut out)?;
    probe_replication(&mut g, rec, root, &mut out)?;
    rec.close(root);
    Ok(out)
}
