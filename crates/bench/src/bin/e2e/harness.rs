//! Set-up, the closed-loop wire clients, and the replication/recovery
//! tail of a run.
//!
//! Everything here talks to a real `server::Server` bound on loopback
//! inside the benchmark process, through `server::Client` — the code
//! path a `cbshell --connect` user runs. No `Sleep` request exists in
//! any schedule and no timed interval contains a `thread::sleep`,
//! except the stated poll of the catch-up measurement.
//!
//! One driver thread owns every client connection and keeps **one
//! request in flight**: the connections take turns. With two requests
//! in flight on the sandbox's two cores an ASK over `kb_large` took
//! 60 ms or 115 ms depending on what the other connection was doing at
//! that moment, the two closed loops locked into one phase or the other
//! for seconds at a time, and every median flipped between the modes
//! from run to run (25–60 % spread over ten runs). One in flight, the
//! same requests spread by a few per cent. Between requests the driver
//! times the reference kernel of [`crate::pace`], by which every wire
//! timing is corrected for the pace of the shared host.

use crate::oracle::{self, Answer, Check, StateDigest, VIEW};
use crate::pace::Pace;
use crate::schedule::{
    Catalog, Kind, ReadOp, ReaderSchedule, WriteStep, WriterSchedule, READ_ROUND, WRITE_ROUND,
    WRITE_ROUND_REQUESTS,
};
use crate::text;
use gkbms::metamodel::kernel;
use gkbms::synth::{self, names, SynthConfig};
use gkbms::Gkbms;
use server::{Client, ClientResult, Config, Server, WireDecision};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One benchmark workload: a corpus size. Every run drives the browse
/// phase and then the design phase over it.
///
/// Both phases execute a fixed number of *rounds* of the seeded
/// schedule — the counts below, frozen when the benchmark was
/// calibrated so that a run with `--seconds` [`NOMINAL_SECONDS`] took
/// 30 to 55 s on the commit that introduced it, and scaled by
/// `--seconds` otherwise. A round is one deck of the stratified mix, so
/// every round holds the same requests by kind. A fixed count keeps the
/// work, the final KB and the WAL that catch-up and recovery replay
/// identical on every run of a seed, however fast the commit under test
/// is. The design phase is kept short: every write grows the KB, and
/// the twin, the follower and recovery each re-execute all of them.
pub struct Workload {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Decisions the synthetic corpus executes.
    pub decisions: usize,
    /// Browse rounds; a round is [`READ_ROUND`] requests on each reader
    /// connection.
    pub browse_rounds: usize,
    /// Design rounds; a round is [`WRITE_ROUND`] writer steps, a fresh
    /// ask after each.
    pub design_rounds: usize,
    /// A pinned view read follows every so many writer steps; divides
    /// [`WRITE_ROUND`].
    pub pinned_every: usize,
    /// Independent set-ups per run (at least 3); `setup_s` is their
    /// median.
    pub setups: usize,
    /// Reader requests the traced run replays in-process, layer by layer.
    pub probe_reads: usize,
    /// Writer steps the traced run replays in-process, layer by layer.
    pub probe_writes: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "kb_small",
        why: "4.6k propositions: KB-proportional layers are cheap, so codec, dispatch, session, \
              socket and fsync cost is what the latencies show",
        decisions: 250,
        browse_rounds: 168,
        design_rounds: 80,
        pinned_every: 1,
        setups: 15,
        probe_reads: 1500,
        probe_writes: 500,
    },
    Workload {
        name: "kb_large",
        why: "90k propositions: EDB export, inT closure, recall scan, lint context and version \
              capture scale with the KB and dominate every ask and write",
        decisions: 5000,
        browse_rounds: 10,
        design_rounds: 10,
        pinned_every: 2,
        setups: 3,
        probe_reads: 150,
        probe_writes: 40,
    },
];

/// The `--seconds` the workloads' counts are calibrated for, and the
/// `run_seconds` of `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u64 = 24;
/// Seed of every corpus; `--seed` drives only the request schedule.
pub const CORPUS_SEED: u64 = 42;
/// Closed-loop reader connections of the browse phase.
pub const READERS: u32 = 2;
/// Leading share of each phase's rounds excluded from the samples (at
/// least one round).
pub const WARMUP_SHARE: f64 = 0.05;
/// Replies per request kind and client kept for the correctness gate.
pub const VERIFY_PER_KIND: usize = 200;
/// A follower answers `repl_status` only after its catch-up batch, so
/// the client's default 5 s read timeout is too short.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);
/// Sleep between two `repl_status` polls inside `replication.catchup_s`.
pub const CATCHUP_POLL: Duration = Duration::from_millis(1);

/// Where build products go: journals and traces live beside them, so
/// the benchmark writes nowhere outside its checkout.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A per-process scratch directory, removed when dropped — on success,
/// on error and on unwinding alike.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `<out_dir>/e2e-tmp/<pid>`, replacing any leftover.
    pub fn new() -> Result<Scratch, String> {
        let root = out_dir()
            .join("e2e-tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A fresh journal directory path under the scratch root.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// `major:minor` of the device holding the journals.
    pub fn device(&self) -> String {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(&self.root).map_or_else(
            |_| "unknown".into(),
            |m| format!("{}:{}", (m.dev() >> 8) & 0xfff, m.dev() & 0xff),
        )
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One served corpus.
pub struct Setup {
    /// The running server.
    pub server: Server,
    /// Its journal directory.
    pub dir: PathBuf,
    /// `History::fingerprint()` of the generated corpus.
    pub corpus_fingerprint: u64,
    /// When the set-up began.
    pub started: Instant,
    /// Corpus + view + bind.
    pub elapsed: Duration,
    /// `synth::generate_into` alone.
    pub generate: Duration,
    /// `register_view` alone.
    pub register_view: Duration,
}

/// Generates the workload's corpus into a fresh journal directory,
/// registers the `rels` view and binds a server over it.
pub fn setup(w: &Workload, dir: PathBuf) -> Result<Setup, String> {
    let started = Instant::now();
    let (mut g, _) = Gkbms::recover(&dir).map_err(text)?;
    let cfg = SynthConfig {
        seed: CORPUS_SEED,
        decisions: w.decisions,
        ..SynthConfig::default()
    };
    let t = Instant::now();
    let history = synth::generate_into(&mut g, &cfg).map_err(text)?;
    let generate = t.elapsed();
    let t = Instant::now();
    g.register_view(VIEW.0, VIEW.1).map_err(text)?;
    let register_view = t.elapsed();
    let server = Server::bind("127.0.0.1:0", g, Config::default()).map_err(text)?;
    Ok(Setup {
        server,
        dir,
        corpus_fingerprint: history.fingerprint(),
        started,
        elapsed: started.elapsed(),
        generate,
        register_view,
    })
}

/// The names the schedules draw from.
pub fn catalog(g: &Gkbms) -> Catalog {
    Catalog {
        decisions: g.records().iter().map(|r| r.name.clone()).collect(),
        objects: g.current_objects(),
    }
}

/// One timed wire interval.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What the interval covers.
    pub kind: Kind,
    /// Sequence number of the interval's first request on its client.
    pub seq: u64,
    /// Wire requests the interval covers (2 for a fresh ask).
    pub requests: u64,
    /// When the first request was sent.
    pub start: Instant,
    /// Round-trip time at the client, as the clock read it: the span
    /// the traced run writes.
    pub elapsed: Duration,
    /// `elapsed` as it would have been at the reference pace: what
    /// every reported metric is computed from.
    pub paced: Duration,
}

/// What one closed-loop client connection did.
#[derive(Default)]
pub struct ClientLog {
    /// Every timed interval after warm-up.
    pub samples: Vec<Sample>,
    /// Observations kept for the correctness gate.
    pub checks: Vec<Check>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
}

impl ClientLog {
    /// Milliseconds of every sample of `kind`, at the reference pace.
    pub fn millis(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.paced.as_secs_f64() * 1e3)
            .collect()
    }

    /// Requests completed and the time they were in flight at the
    /// reference pace, round by round: `per_round` consecutive samples
    /// are one deck of the mix, so every round holds the same requests
    /// by kind.
    pub fn rounds(&self, per_round: usize) -> Vec<(u64, Duration)> {
        self.samples
            .chunks_exact(per_round)
            .map(|round| {
                (
                    round.iter().map(|s| s.requests).sum(),
                    round.iter().map(|s| s.paced).sum(),
                )
            })
            .collect()
    }
}

/// Rounds of `rounds` that warm a phase up.
pub fn warmup_rounds(rounds: usize) -> usize {
    ((rounds as f64 * WARMUP_SHARE).ceil() as usize).max(1)
}

/// The running log of one client connection.
#[derive(Default)]
struct Tape {
    kept: HashMap<Kind, usize>,
    log: ClientLog,
}

impl Tape {
    /// Times `send`, which makes `requests` wire round trips, as one
    /// interval of `kind`.
    fn timed<T>(
        &mut self,
        kind: Kind,
        requests: u64,
        send: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let reply = send()?;
        let elapsed = start.elapsed();
        self.log.samples.push(Sample {
            kind,
            seq: self.log.attempted,
            requests,
            start,
            elapsed,
            paced: elapsed,
        });
        self.log.attempted += requests;
        Ok(reply)
    }

    /// Keeps the first [`VERIFY_PER_KIND`] observations of each kind.
    fn check(
        &mut self,
        kind: Kind,
        watermark: i64,
        op: &ReadOp,
        observed: impl FnOnce() -> Answer,
    ) {
        let kept = self.kept.entry(kind).or_insert(0);
        if *kept < VERIFY_PER_KIND {
            *kept += 1;
            self.log.checks.push(Check {
                watermark,
                op: op.clone(),
                observed: observed(),
            });
        }
    }

    /// The finished log, without its first `warmup` timed intervals
    /// and with every interval corrected for the host's pace.
    fn finish(mut self, warmup: usize, pace: &Pace) -> ClientLog {
        self.log.samples.drain(..warmup);
        for s in &mut self.log.samples {
            s.paced = pace.at_reference(s.start, s.elapsed);
        }
        self.log
    }
}

/// One open connection with its session.
struct Conn {
    client: Client,
    session: u64,
    /// The belief-time watermark `hello` pinned the session at.
    watermark: i64,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let mut client = Client::connect_with_timeout(addr, CLIENT_TIMEOUT).map_err(text)?;
        let (session, watermark) = wire(client.hello(), "hello")?;
        Ok(Conn {
            client,
            session,
            watermark,
        })
    }

    fn close(mut self) -> Result<(), String> {
        wire(self.client.bye(self.session), "bye").map(drop)
    }
}

/// A failed or refused request (`Overloaded` included) fails the run.
fn wire<T>(r: ClientResult<T>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("request `{what}` failed: {e}"))
}

/// Sends one read request; returns the digest of its reply, computed
/// lazily so that it stays outside the timed interval.
fn issue(c: &mut Client, session: u64, op: &ReadOp) -> Result<impl FnOnce() -> Answer, String> {
    enum Reply {
        Set(Vec<String>),
        Rows(Vec<String>),
    }
    let reply = match op {
        ReadOp::Ask { class } => {
            Reply::Set(wire(c.ask(session, "x", class, "true"), "ask")?.answers)
        }
        ReadOp::ViewAsk => Reply::Set(wire(c.view_ask(session, VIEW.0, VIEW.2), "view_ask")?),
        ReadOp::Recall { decision } => Reply::Rows(
            wire(
                c.recall(session, decision, crate::schedule::RECALL_LIMIT),
                "recall",
            )?
            .iter()
            .map(|(d, score, retracted)| oracle::recall_row(d, *score, *retracted))
            .collect(),
        ),
        ReadOp::ObjectHistory { object } => {
            Reply::Rows(wire(c.object_history(session, object), "object_history")?)
        }
        ReadOp::Show { name } => Reply::Rows(vec![wire(c.show(session, name), "show")?]),
        ReadOp::Holds { expr } => {
            Reply::Rows(vec![wire(c.holds(session, expr), "holds")?.to_string()])
        }
    };
    Ok(move || match reply {
        Reply::Set(rows) => oracle::answer_set(rows),
        Reply::Rows(rows) => oracle::answer(&rows),
    })
}

/// The browse phase: [`READERS`] reader connections, no writer. Each
/// connection has its own seeded stream; they take turns, one request
/// in flight, for `rounds` decks each.
pub fn browse_phase(
    addr: SocketAddr,
    seed: u64,
    catalog: &Catalog,
    rounds: usize,
) -> Result<(Vec<ClientLog>, Pace), String> {
    let mut readers = Vec::new();
    for client in 0..READERS {
        readers.push((
            Conn::open(addr)?,
            ReaderSchedule::new(seed, client, catalog),
            Tape::default(),
        ));
    }
    let mut pace = Pace::new();
    for _ in 0..rounds * READ_ROUND {
        for (conn, schedule, tape) in &mut readers {
            let op = schedule.next().expect("the stream is endless");
            pace.tick_if_due();
            let observed =
                tape.timed(op.kind(), 1, || issue(&mut conn.client, conn.session, &op))?;
            tape.check(op.kind(), conn.watermark, &op, observed);
        }
    }
    pace.tick();
    let warmup = warmup_rounds(rounds) * READ_ROUND;
    let logs = readers
        .into_iter()
        .map(|(conn, _, tape)| conn.close().map(|()| tape.finish(warmup, &pace)))
        .collect::<Result<_, _>>()?;
    Ok((logs, pace))
}

/// Sends the one or two write requests of `step` on the writer's
/// connection.
fn write_step(
    a: &mut Conn,
    step: &WriteStep,
    tape: &mut Tape,
    pace: &mut Pace,
) -> Result<(), String> {
    let (c, session) = (&mut a.client, a.session);
    pace.tick_if_due();
    match step {
        WriteStep::Tell { name } => {
            let src = WriteStep::tell_src(name);
            tape.timed(Kind::Tell, 1, || wire(c.tell(session, &src), "tell"))?;
        }
        WriteStep::Execute {
            entity,
            decision,
            outputs,
        } => {
            let source = WriteStep::entity_source(entity);
            tape.timed(Kind::RegisterObject, 1, || {
                wire(
                    c.register_object(session, entity, kernel::TDL_ENTITY_CLASS, &source),
                    "register_object",
                )
            })?;
            let wire_decision = WireDecision {
                class: names::DISTRIBUTE.into(),
                name: decision.clone(),
                performer: names::AGENT.into(),
                tool: Some(names::MAPPER.into()),
                inputs: vec![entity.clone()],
                outputs: outputs
                    .iter()
                    .map(|o| (o.clone(), kernel::DBPL_REL.to_string()))
                    .collect(),
                discharges: Vec::new(),
            };
            pace.tick_if_due();
            tape.timed(Kind::Execute, 1, || {
                wire(c.execute(session, wire_decision), "execute")
            })?;
        }
        WriteStep::Retract { decision } => {
            tape.timed(Kind::Retract, 1, || {
                wire(c.retract_decision(session, decision), "retract_decision")
            })?;
        }
        WriteStep::Untell { name } => {
            tape.timed(Kind::Untell, 1, || wire(c.untell(session, name), "untell"))?;
        }
    }
    Ok(())
}

/// What the design phase produced.
pub struct DesignLog {
    /// Client A, the only writer.
    pub writer: ClientLog,
    /// The steps A was acknowledged, for the twin to replay.
    pub steps: Vec<WriteStep>,
    /// Client B, the reader beside it.
    pub reader: ClientLog,
    /// Most store versions alive at once, read after every write step.
    pub versions_live_max: usize,
    /// The host's pace during the phase.
    pub pace: Pace,
}

/// The design phase: client A is the only writer; after each of its
/// steps client B pins the new version (`refresh`) and asks, the two
/// timed together as a fresh ask — so nothing cached per version is
/// ever reused.
///
/// After every `pinned_every`-th step B also reads the view from a
/// second session, pinned before the first write: the maintained model
/// has moved on, so each such read is a full re-evaluation at the old
/// watermark, under the state read lock.
pub fn design_phase(
    server: &Server,
    seed: u64,
    catalog: &Catalog,
    rounds: usize,
    pinned_every: usize,
) -> Result<DesignLog, String> {
    let addr = server.local_addr();
    let mut a = Conn::open(addr)?;
    let mut b = Conn::open(addr)?;
    let (old_session, old_watermark) = wire(b.client.hello(), "hello")?;
    let steps: Vec<WriteStep> = WriterSchedule::new(seed)
        .take(rounds * WRITE_ROUND)
        .collect();
    let mut classes = ReaderSchedule::new(seed, READERS, catalog);
    let (mut writer, mut reader) = (Tape::default(), Tape::default());
    let mut versions_live_max = 0;
    let mut pace = Pace::new();
    for (i, step) in steps.iter().enumerate() {
        write_step(&mut a, step, &mut writer, &mut pace)?;
        versions_live_max = versions_live_max.max(server.store_versions_live());
        let op = ReadOp::Ask {
            class: classes.ask_class(),
        };
        pace.tick_if_due();
        let (refreshed, observed) = reader.timed(Kind::FreshAsk, 2, || {
            let refreshed = wire(b.client.refresh(b.session), "refresh")?;
            Ok((refreshed, issue(&mut b.client, b.session, &op)?))
        })?;
        let watermark: i64 = refreshed
            .strip_prefix("watermark ")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("unexpected refresh reply `{refreshed}`"))?;
        reader.check(Kind::FreshAsk, watermark, &op, observed);
        if (i + 1) % pinned_every == 0 {
            pace.tick_if_due();
            let observed = reader.timed(Kind::PinnedViewAsk, 1, || {
                issue(&mut b.client, old_session, &ReadOp::ViewAsk)
            })?;
            reader.check(
                Kind::PinnedViewAsk,
                old_watermark,
                &ReadOp::ViewAsk,
                observed,
            );
        }
    }
    wire(b.client.bye(old_session), "bye")?;
    b.close()?;
    a.close()?;
    pace.tick();
    let warmup = warmup_rounds(rounds);
    Ok(DesignLog {
        writer: writer.finish(warmup * WRITE_ROUND_REQUESTS, &pace),
        steps,
        reader: reader.finish(warmup * (WRITE_ROUND + WRITE_ROUND / pinned_every), &pace),
        versions_live_max,
        pace,
    })
}

/// What the replication and recovery tail measured.
pub struct Tail {
    /// Fresh follower start to the leader's `applied_seq`.
    pub catchup: Duration,
    /// Ops the follower applied to get there.
    pub catchup_ops: u64,
    /// `Gkbms::recover` on the leader's journal directory.
    pub recover: Duration,
    /// WAL ops that recovery replayed.
    pub replayed_ops: u64,
}

/// After the timed loops: catch a fresh follower up, shut both servers
/// down, recover from the leader's WAL — and require the follower (over
/// the wire and in memory), the leader's final state and the recovered
/// state all to equal the twin.
pub fn tail(
    leader: Server,
    leader_dir: &Path,
    follower_dir: &Path,
    twin: &Gkbms,
) -> Result<Tail, String> {
    let want = StateDigest::of(twin)?;
    let addr = leader.local_addr();
    let target = {
        let mut c = Client::connect_with_timeout(addr, CLIENT_TIMEOUT).map_err(text)?;
        wire(c.repl_status(), "repl_status")?.applied_seq
    };

    let t0 = Instant::now();
    let (replica, _) = Gkbms::recover(follower_dir).map_err(text)?;
    let follower = Server::bind(
        "127.0.0.1:0",
        replica,
        Config {
            follow: Some(addr.to_string()),
            ..Config::default()
        },
    )
    .map_err(text)?;
    let mut c =
        Client::connect_with_timeout(follower.local_addr(), CLIENT_TIMEOUT).map_err(text)?;
    while wire(c.repl_status(), "repl_status")?.applied_seq < target {
        std::thread::sleep(CATCHUP_POLL);
    }
    let catchup = t0.elapsed();

    // The caught-up follower, queried over the wire. Its belief clock
    // is its own, so it is compared with the twin's current state.
    let (session, _) = wire(c.hello(), "hello")?;
    let watermark = twin.kb().now();
    let mut checks = Vec::new();
    for class in crate::schedule::ASK_CLASSES {
        let op = ReadOp::Ask { class };
        let observed = issue(&mut c, session, &op)?();
        checks.push(Check {
            watermark,
            op,
            observed,
        });
    }
    oracle::verify(twin, &checks)?;
    wire(c.bye(session), "bye")?;
    drop(c);

    oracle::same_state(
        &want,
        &follower.shutdown().map_err(text)?,
        "the caught-up follower",
    )?;
    // The leader's journal handle must be gone before recovery reopens
    // the WAL.
    {
        let served = leader.shutdown().map_err(text)?;
        oracle::same_state(&want, &served, "the leader's final state")?;
        let clocks = |g: &Gkbms| (g.kb().now(), g.kb().len());
        if clocks(&served) != clocks(twin) {
            return Err(format!(
                "the leader ended at (tick, propositions) {:?}, the serial twin at {:?}",
                clocks(&served),
                clocks(twin)
            ));
        }
    }

    let t0 = Instant::now();
    let (recovered, report) = Gkbms::recover(leader_dir).map_err(text)?;
    let recover = t0.elapsed();
    oracle::same_state(&want, &recovered, "the state recovered from the WAL")?;
    if report.replayed_ops != target {
        return Err(format!(
            "recovery replayed {} ops, the leader had acknowledged {target}",
            report.replayed_ops
        ));
    }
    Ok(Tail {
        catchup,
        catchup_ops: target,
        recover,
        replayed_ops: report.replayed_ops,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(text)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
