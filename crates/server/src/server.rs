//! The concurrent GKBMS service.
//!
//! # Concurrency model
//!
//! Writers (TELL, UNTELL, EXECUTE, …, and a follower's applied batches)
//! serialize behind the write guard of one [`RwLock`], taken as the one
//! `commit::Writer`. Every change ends in its commit, which publishes
//! an immutable [`gkbms::Published`] — the store's [`telos::KbVersion`]
//! and the design index, captured together — into a
//! [`gkbms::mvcc::VersionChain`] while still holding the guard, so
//! versions appear in commit order. The capture is structural sharing:
//! one `Arc` bump per 512-element chunk of the store and of the index
//! and per symbol-map shard, O(store / 512); the history and the lint
//! memo ride along. Every session read but VIEW ASK takes no lock: a
//! session pins the chain head at Hello (or Refresh) and reads its
//! pinned version at its watermark, however many commits land — so it
//! refreshes before it saves, lints or checks its own writes.
//!
//! Belief time supplies the isolation *semantics*: every write is one
//! `Gkbms` transaction that opens with a belief-clock tick, so nothing
//! a writer adds is visible below a pinned watermark, and nothing it
//! retracts disappears from one (UNTELL only closes belief intervals).
//! The chain supplies the *mechanics*: a superseded version is freed
//! when its last holder lets go (Bye, Refresh, or the idle-timeout
//! sweep run on every commit and idle connection poll). Replication
//! reads the commit watermark and the journal files, so it does not
//! wait on a writer either. Only VIEW ASK's materialized model takes
//! the read guard: the model lives on the state, not on a version.
//!
//! A panic inside a write poisons the lock, and may leave the state
//! half-applied. From then on the writer and the read guard are
//! refused with a typed `Internal` ("state poisoned; restart to
//! recover from the journal") and a follower stops applying; the
//! published versions, which hold only committed writes, keep serving.
//! A panic anywhere in a request's handling is contained to it: the
//! request answers `Internal`, its connection is closed and
//! `gkbms_request_panics_total` counts it.
//!
//! Each TCP connection gets a handler thread. An in-process server
//! ([`Server::in_process`]) has no listener: one handler thread serves
//! one end of a socket pair, and the caller holds the other end as its
//! [`Client`], so no other process can reach it. Work-carrying requests
//! pass an admission gate bounded by [`Config::max_inflight`]; beyond
//! the bound the server answers `Overloaded` immediately, without
//! queueing — the bounded "queue" is the set of in-flight requests,
//! and backpressure is pushed to the client. Requests whose table
//! class is [`OpClass::Control`] bypass the gate (and the draining
//! check), so a saturated server can still be managed and scraped.
//!
//! # Observability
//!
//! Every dispatched request lands in the process-wide [`obs`]
//! registry: per-op request counters and latency histograms, bytes
//! in/out, admission-gate rejections, writer-lock wait time, version
//! capture + publish time, session lifecycle counts. The registry is
//! scraped with a `Metrics` frame (or `\metrics` in cbshell) and
//! rendered in Prometheus text format.
//! ASKs slower than [`Config::slow_query_threshold`] additionally
//! land in a bounded slow-query log ([`Server::slow_queries`]).
//!
//! # Shutdown
//!
//! Graceful: the flag flips (via a `Shutdown` frame or
//! [`Server::initiate_shutdown`]), the accept loop stops taking
//! connections, in-flight requests run to completion and their
//! responses are written, later requests get `ShuttingDown`, and
//! handler threads exit at their next idle poll. [`Server::join`]
//! waits for all of that and hands the final [`Gkbms`] back.
//!
//! # Layout
//!
//! This module holds [`Config`], [`Server`], the accept and connection
//! loops and admission. The commit path lives in `commit`: the one
//! writer, whose commit publishes, checkpoints, moves the watermark and
//! sweeps sessions, and the one watermark (group commit's fsync
//! position, what ship loops may ship, a replica's applied position).
//! The one `match` over the request table is in `dispatch`; the
//! leader's replication shipper in `ship`; the follower loop in `follow`.

mod commit;
mod dispatch;
mod follow;
mod ship;

use crate::client::Client;
use crate::proto::{self, ErrorCode, FrameRead, OpClass, Request, Response};
use crate::session::SessionTable;
use commit::Watermark;
use dispatch::{dispatch, err, Then};
use gkbms::mvcc::VersionChain;
use gkbms::{FsyncPolicy, Gkbms, Published};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::record::{HEADER_LEN, MAX_RECORD_LEN};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Admission bound: work-carrying requests in flight beyond this
    /// get an immediate `Overloaded` reply.
    pub max_inflight: usize,
    /// Sessions idle longer than this are reaped.
    pub idle_timeout: Duration,
    /// How often blocked connection reads wake to poll the shutdown
    /// flag (also bounds how long drain waits for idle connections).
    pub poll_interval: Duration,
    /// Upper bound on the diagnostic `Sleep` request, so a misbehaving
    /// client cannot park an admission slot indefinitely.
    pub max_sleep: Duration,
    /// ASKs taking at least this long land in the slow-query log (and
    /// bump `gkbms_slow_queries_total`). `None` disables the log.
    pub slow_query_threshold: Option<Duration>,
    /// When journal WAL appends are forced to stable storage before a
    /// mutation is acknowledged. Only effective when the [`Gkbms`]
    /// handed to [`Server::bind`] has a journal attached (see
    /// [`Gkbms::recover`]). `Group` acknowledges a mutation once an
    /// fsync covers it, one fsync shared by concurrent writers (group
    /// commit); `Never` leaves durability to checkpoints.
    pub fsync: FsyncPolicy,
    /// Auto-checkpoint: compact the journal after this many WAL ops.
    /// `None` leaves checkpointing to explicit `Checkpoint` requests.
    pub checkpoint_every: Option<u64>,
    /// When true, TELLs carrying lint *warnings* are rejected like
    /// errors (errors always reject the batch at admission time).
    pub strict_lint: bool,
    /// Follower mode: subscribe to the leader at this address and
    /// apply its committed record stream. Writes are answered with
    /// [`Response::Redirect`] naming this address; reads are served at
    /// the applied watermark, wrapped in [`Response::Stale`].
    pub follow: Option<String>,
    /// Follower reads whose lag behind the leader exceeds this many
    /// ops are refused with [`ErrorCode::StaleRead`]. `None` serves
    /// reads at any staleness (still surfaced via the `Stale` wrapper).
    pub max_lag: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_inflight: 64,
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(100),
            max_sleep: Duration::from_secs(30),
            slow_query_threshold: Some(Duration::from_millis(250)),
            fsync: FsyncPolicy::Group,
            checkpoint_every: None,
            strict_lint: false,
            follow: None,
            max_lag: None,
        }
    }
}

/// One entry of the slow-query log: an ASK that crossed
/// [`Config::slow_query_threshold`], with its evaluation statistics.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query as issued (`ASK var/class WHERE expr`).
    pub source: String,
    /// Wall-clock evaluation time.
    pub duration: Duration,
    /// Semi-naive rounds of the evaluation.
    pub rounds: u64,
    /// Facts derived (including duplicates).
    pub derivations: u64,
    /// Genuinely new facts.
    pub new_facts: u64,
    /// Index probes performed.
    pub index_probes: u64,
    /// Tuples scanned.
    pub tuples_scanned: u64,
}

/// Bound on the slow-query ring: old entries fall off the front.
const SLOW_LOG_CAP: usize = 64;

/// The pin a session holds on a published version.
type SessionPin = gkbms::mvcc::Pin<Published>;

/// Replication bookkeeping, present on every server (leaders ship,
/// followers apply, and a promoted follower switches roles in place).
struct ReplState {
    /// True while this server applies a leader's stream instead of
    /// accepting writes. Cleared by `Promote`.
    follower: AtomicBool,
    /// The leader address a follower redirects writes to (empty on a
    /// born leader).
    leader_addr: String,
    /// Follower read-staleness bound, in ops ([`Config::max_lag`]).
    max_lag: Option<u64>,
    /// The *leader's* committed sequence as last observed by the
    /// follower's apply loop (0 until the first message arrives); this
    /// server's own position is [`Shared::commit`].
    leader_seq: AtomicU64,
    /// True while a follower's subscription to the leader is live.
    connected: AtomicBool,
    /// Test hook: the apply loop keeps observing `leader_seq` but
    /// defers applying batches while this is set, so stale-read
    /// enforcement can be exercised deterministically.
    apply_paused: AtomicBool,
}

struct Shared {
    state: RwLock<Gkbms>,
    /// Immutable versions of the state — store and design index — one
    /// published per acknowledged mutation (under the write guard, so
    /// in commit order). Session reads are served from pinned versions,
    /// never from `state`.
    chain: VersionChain<Published>,
    sessions: Mutex<SessionTable<SessionPin>>,
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// The committed `(seq, epoch)`: only records at or below it are
    /// ever shipped to subscribers.
    commit: Watermark,
    /// The journal directory, fixed at start: `Load` is refused on a
    /// journaled server and a snapshot install reuses it, so the ship
    /// planner reads the snapshot and WAL files here without the state.
    journal_dir: Option<PathBuf>,
    repl: ReplState,
    cfg: Config,
    /// The listener's address; `None` on an in-process server.
    addr: Option<SocketAddr>,
    /// Test hook: the next Read panics in dispatch.
    #[cfg(test)]
    panic_next_read: AtomicBool,
}

/// Decrements the in-flight count when a work-carrying request ends,
/// whichever way it ends.
struct AdmissionGuard<'a>(&'a Shared);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running GKBMS service.
pub struct Server {
    shared: Arc<Shared>,
    /// The accept loop, or an in-process server's one connection.
    serve: Option<JoinHandle<()>>,
    /// The follower apply thread, present in follower mode.
    follower: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), takes ownership of the
    /// knowledge base, and starts accepting connections. If the
    /// knowledge base has a journal attached (see [`Gkbms::recover`]),
    /// every acknowledged mutation is appended to the WAL and made
    /// durable per [`Config::fsync`].
    pub fn bind<A: ToSocketAddrs>(addr: A, state: Gkbms, cfg: Config) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Server::start(state, cfg, Some(local), "gkbms-accept", move |shared| {
            accept_loop(listener, shared)
        })
    }

    /// Serves `state` to exactly one client, in this process: the
    /// returned [`Client`] holds one end of a socket pair and a handler
    /// thread serves the other. There is no listener and no address,
    /// so no other process or user can open a session, and no network
    /// is needed. The server stops serving when the client is dropped;
    /// [`Server::shutdown`] then hands the knowledge base back.
    pub fn in_process(state: Gkbms, cfg: Config) -> io::Result<(Server, Client)> {
        let (ours, theirs) = UnixStream::pair()?;
        let server = Server::start(state, cfg, None, "gkbms-conn", move |shared| {
            let _ = theirs.set_read_timeout(Some(shared.cfg.poll_interval));
            serve_conn(theirs, &shared);
        })?;
        Ok((server, Client::over_pair(ours)))
    }

    /// Takes ownership of the knowledge base and starts `serve` — the
    /// accept loop or the one in-process connection — on its own
    /// thread, plus the follower apply loop in follower mode.
    fn start(
        mut state: Gkbms,
        cfg: Config,
        addr: Option<SocketAddr>,
        name: &str,
        serve: impl FnOnce(Arc<Shared>) + Send + 'static,
    ) -> io::Result<Server> {
        let file = match state.journal_mut() {
            Some(j) => {
                // Baseline: everything appended so far is made durable
                // now, so group commit only ever owes fsyncs for ops
                // appended while serving.
                j.sync().map_err(|e| io::Error::other(e.to_string()))?;
                Some(j.file().map_err(|e| io::Error::other(e.to_string()))?)
            }
            None => None,
        };
        // Everything recovered (and just fsynced) is committed.
        let commit = Watermark::new(file, state.applied_seq(), state.epoch());
        let journal_dir = state.journal().map(|j| j.dir().to_path_buf());
        let chain = VersionChain::new(state.capture());
        let repl = ReplState {
            follower: AtomicBool::new(cfg.follow.is_some()),
            leader_addr: cfg.follow.clone().unwrap_or_default(),
            max_lag: cfg.max_lag,
            leader_seq: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            apply_paused: AtomicBool::new(false),
        };
        let shared = Arc::new(Shared {
            state: RwLock::new(state),
            chain,
            sessions: Mutex::new(SessionTable::new(cfg.idle_timeout)),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            slow_log: Mutex::new(VecDeque::new()),
            commit,
            journal_dir,
            repl,
            cfg,
            addr,
            #[cfg(test)]
            panic_next_read: AtomicBool::new(false),
        });
        let follower = match shared.cfg.follow.clone() {
            Some(leader) => {
                let repl_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("gkbms-repl".into())
                        .spawn(move || follow::follower_loop(&repl_shared, &leader))?,
                )
            }
            None => None,
        };
        let serve_shared = Arc::clone(&shared);
        let serve = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(serve_shared))?;
        Ok(Server {
            shared,
            serve: Some(serve),
            follower,
        })
    }

    /// The bound address (useful with port 0). An in-process server
    /// listens nowhere and reports the unspecified address `0.0.0.0:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared
            .addr
            .unwrap_or_else(|| SocketAddr::from(([0, 0, 0, 0], 0)))
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and pokes the accept loop awake. Does
    /// not wait for drain; see [`Server::join`].
    pub fn initiate_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Number of store versions alive: the head plus every superseded
    /// version a session (or a request in flight) still holds.
    /// Converges to 1 when all sessions are closed, refreshed, or
    /// reaped.
    pub fn store_versions_live(&self) -> usize {
        self.shared.chain.live_versions()
    }

    /// Number of alive store versions held by a session or a request
    /// in flight (the head counts once it is pinned).
    pub fn pinned_store_epochs(&self) -> usize {
        self.shared.chain.pinned_epochs()
    }

    /// True while this server is a follower (applies a leader's
    /// stream, redirects writes). Flips to false on `Promote`.
    pub fn is_follower(&self) -> bool {
        self.shared.repl.follower.load(Ordering::SeqCst)
    }

    /// Test hook: pause or resume the follower apply loop. While
    /// paused the loop keeps observing the leader's committed
    /// sequence (so lag grows) but defers applying its batch, making
    /// stale-read enforcement deterministic to exercise.
    pub fn set_apply_paused(&self, paused: bool) {
        self.shared
            .repl
            .apply_paused
            .store(paused, Ordering::SeqCst);
    }

    /// The slow-query log, oldest first (bounded; see
    /// [`Config::slow_query_threshold`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        let log = self
            .shared
            .slow_log
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        log.iter().cloned().collect()
    }

    /// Blocks until shutdown has been initiated (locally or by a
    /// `Shutdown` frame) and everything has drained, then returns the
    /// final knowledge base. Fails with a typed [`JoinError`] — never
    /// a panic — if a handler thread outlives the drain grace period.
    pub fn join(mut self) -> Result<Gkbms, JoinError> {
        if let Some(h) = self.serve.take() {
            let _ = h.join();
        }
        // The follower apply thread polls the shutdown flag on every
        // idle read and exits on its own after promotion.
        if let Some(h) = self.follower.take() {
            let _ = h.join();
        }
        // The accept loop joins every handler before exiting, so the
        // remaining Arc references are gone or about to be; give
        // stragglers a short grace period instead of panicking.
        let mut shared = self.shared;
        for _ in 0..JOIN_GRACE_ROUNDS {
            match Arc::try_unwrap(shared) {
                Ok(s) => return Ok(s.state.into_inner().unwrap_or_else(|e| e.into_inner())),
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::sleep(JOIN_GRACE_STEP);
                }
            }
        }
        Err(JoinError::ConnectionsOutlivedJoin)
    }

    /// [`Server::initiate_shutdown`] then [`Server::join`].
    pub fn shutdown(self) -> Result<Gkbms, JoinError> {
        self.initiate_shutdown();
        self.join()
    }
}

/// How many [`JOIN_GRACE_STEP`]-long rounds [`Server::join`] waits for
/// connection threads to release the shared state (~2 s total).
const JOIN_GRACE_ROUNDS: u32 = 200;
const JOIN_GRACE_STEP: Duration = Duration::from_millis(10);

/// Failure to recover the knowledge base on [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// Connection threads still referenced the server state after the
    /// drain grace period; the knowledge base cannot be handed back.
    ConnectionsOutlivedJoin,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::ConnectionsOutlivedJoin => {
                f.write_str("connection threads outlived join; state still shared")
            }
        }
    }
}

impl std::error::Error for JoinError {}

fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Unblock the accept loop with a throwaway connection; it checks
    // the flag before handling anything.
    if let Some(addr) = shared.addr {
        let _ = TcpStream::connect(addr);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("gkbms-conn".into())
            .spawn(move || handle_conn(stream, &conn_shared))
        {
            handlers.push(h);
        }
        // Opportunistically reap finished handlers so a long-lived
        // server does not accumulate joinable threads.
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: every in-flight request completes and its response is
    // written before the handler notices the flag and exits.
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    serve_conn(stream, shared);
}

/// The request loop of one connection, whose reads time out every
/// [`Config::poll_interval`] so it can notice shutdown.
fn serve_conn<S: Read + Write>(mut stream: S, shared: &Shared) {
    loop {
        match proto::read_frame(&mut stream) {
            Ok(FrameRead::Frame(payload)) => {
                obs::counter!(
                    "gkbms_bytes_read_total",
                    "Request bytes received, including frame headers"
                )
                .add((payload.len() + HEADER_LEN) as u64);
                let started = Instant::now();
                let (resp, then) = match Request::decode(&payload) {
                    Ok(Request::Replicate { applied_seq, epoch }) => {
                        // A subscription takes the connection over: from
                        // here it is a one-way push stream of ReplMsg
                        // frames, never a request/response socket again.
                        ship::serve_replication(&mut stream, shared, applied_seq, epoch);
                        break;
                    }
                    Ok(req) => process(shared, req, started),
                    Err(e) => {
                        obs::counter!(
                            "gkbms_bad_requests_total",
                            "Frames that failed to decode as a request"
                        )
                        .inc();
                        (err(ErrorCode::BadRequest, e.to_string()), Then::Serve)
                    }
                };
                let Ok(written) = write_response(&mut stream, &resp) else {
                    break;
                };
                obs::counter!(
                    "gkbms_bytes_written_total",
                    "Response bytes sent, including frame headers"
                )
                .add(written as u64);
                match then {
                    Then::Serve => {}
                    Then::Shutdown => begin_shutdown(shared),
                    Then::Close => break,
                }
            }
            Ok(FrameRead::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Reap idled-out sessions even when no requests arrive:
                // a leaked session must not pin a store version (and
                // the history behind it) forever.
                sweep_sessions(shared);
            }
            Ok(FrameRead::Eof) | Err(_) => break,
        }
    }
}

/// Writes `resp` as one frame and returns the bytes sent, header
/// included. A response whose encoding exceeds the frame cap (a
/// `History` or `ViewAsk` over a large enough corpus) cannot be
/// framed; the client gets a typed `Rejected` naming the size rather
/// than a dropped connection.
fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<usize> {
    let mut encoded = resp.encode();
    if encoded.len() > MAX_RECORD_LEN {
        encoded = err(
            ErrorCode::Rejected,
            format!(
                "response of {} bytes exceeds the 16 MiB frame cap",
                encoded.len()
            ),
        )
        .encode();
    }
    proto::write_frame(w, &encoded)?;
    Ok(encoded.len() + HEADER_LEN)
}

/// Handles one decoded request, recording its per-op metrics
/// (`started` predates the decode, so latency covers it). [`Then`]
/// says what the caller does *after* the response has been written.
fn process(shared: &Shared, req: Request, started: Instant) -> (Response, Then) {
    let op = req.metric_label();
    let result = admit(shared, req);
    if obs::enabled() {
        let reg = obs::registry();
        reg.counter(
            &format!("gkbms_requests_total{{op=\"{op}\"}}"),
            "Requests dispatched, by operation",
        )
        .inc();
        reg.histogram(
            &format!("gkbms_request_seconds{{op=\"{op}\"}}"),
            "Request handling latency, by operation",
        )
        .observe(started.elapsed());
        if let Response::Error {
            code: ErrorCode::Overloaded,
            ..
        } = &result.0
        {
            obs::counter!(
                "gkbms_overloaded_total",
                "Requests rejected at the admission gate"
            )
            .inc();
        }
    }
    result
}

/// Admission, by the request's table class: `Control` goes straight
/// to dispatch; `Read` and `Write` are refused while draining and
/// bounded by the in-flight gate; on a follower a `Write` is
/// redirected to the leader and a `Read` is served within the lag
/// bound, stamped with its staleness.
fn admit(shared: &Shared, req: Request) -> (Response, Then) {
    let class = req.class();
    if class == OpClass::Control {
        return dispatch(shared, req);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return (
            err(ErrorCode::ShuttingDown, "server is draining"),
            Then::Serve,
        );
    }
    // Admission gate: bound the work in flight, reject the overflow.
    let in_flight = shared.inflight.fetch_add(1, Ordering::SeqCst);
    if in_flight >= shared.cfg.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return (
            err(
                ErrorCode::Overloaded,
                format!("{in_flight} requests in flight"),
            ),
            Then::Serve,
        );
    }
    let _permit = AdmissionGuard(shared);
    if !shared.repl.follower.load(Ordering::SeqCst) {
        return dispatch(shared, req);
    }
    if class == OpClass::Write {
        obs::counter!(
            "gkbms_replication_redirects_total",
            "Writes redirected from a follower to its leader"
        )
        .inc();
        return (
            Response::Redirect {
                leader: shared.repl.leader_addr.clone(),
            },
            Then::Serve,
        );
    }
    // Bounded staleness: refuse reads that have fallen too far
    // behind, and stamp every served one with its lag. The position is
    // read once: a batch applied while the read runs must not move
    // `applied_seq` without moving `lag`.
    let (applied_seq, lag) = replica_position(shared);
    if let Some(bound) = shared.repl.max_lag {
        if lag > bound {
            obs::counter!(
                "gkbms_replication_stale_rejects_total",
                "Follower reads refused for exceeding the lag bound"
            )
            .inc();
            return (
                err(
                    ErrorCode::StaleRead,
                    format!("replica lag {lag} op(s) exceeds bound {bound}"),
                ),
                Then::Serve,
            );
        }
    }
    let (inner, then) = dispatch(shared, req);
    (
        Response::Stale {
            applied_seq,
            lag,
            inner: inner.encode(),
        },
        then,
    )
}

/// The sequence this replica has applied, and the committed leader ops
/// it has not applied yet.
fn replica_position(shared: &Shared) -> (u64, u64) {
    let (applied, _) = shared.commit.current();
    let leader = shared.repl.leader_seq.load(Ordering::SeqCst);
    (applied, leader.saturating_sub(applied))
}

fn lock_sessions(shared: &Shared) -> std::sync::MutexGuard<'_, SessionTable<SessionPin>> {
    shared.sessions.lock().unwrap_or_else(|e| e.into_inner())
}

/// The read guard of the live state, for the one read that must see
/// the head itself rather than the session's pinned version: VIEW
/// ASK's maintained model. A poisoned state is refused like a write.
fn read_state(shared: &Shared) -> Result<std::sync::RwLockReadGuard<'_, Gkbms>, Response> {
    shared.state.read().map_err(|_| commit::poisoned())
}

/// Reaps idled-out sessions, dropping their version pins so the chain
/// can reclaim history they alone retained. Runs on every commit and
/// on idle connection polls; never called while holding the state
/// lock (sessions-then-state is the forbidden order, we take neither
/// together).
fn sweep_sessions(shared: &Shared) {
    lock_sessions(shared).sweep();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Table` encodes as opcode + length prefix + text.
    fn table_of_encoded_len(len: usize) -> Response {
        Response::Table {
            text: "x".repeat(len - 8),
        }
    }

    fn written_response(resp: &Response) -> (usize, Response) {
        let mut wire = Vec::new();
        let written = write_response(&mut wire, resp).expect("in-memory write");
        assert_eq!(written, wire.len());
        match proto::read_frame(&mut wire.as_slice()).expect("a well-formed frame") {
            FrameRead::Frame(p) => (written, Response::decode(&p).expect("a response")),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A served state with a told constraint violated by `inv1`, and two
    /// mapping decisions `d0` and `d1` of one shape.
    fn design_state() -> Gkbms {
        use gkbms::metamodel::kernel;
        use gkbms::{DecisionClass, DecisionDimension, DecisionRequest};
        let mut g = Gkbms::new().unwrap();
        g.tell_src(
            "TELL Person end\n\
             TELL Invitation with\n\
               attribute sender : Person\n\
               constraint hasSender : $ forall i/Invitation i.sender defined $\n\
             end",
        )
        .unwrap();
        g.define_decision_class(
            DecisionClass::new("MapDec", DecisionDimension::Mapping)
                .from_classes(&[kernel::TDL_ENTITY_CLASS])
                .to_classes(&[kernel::DBPL_REL]),
        )
        .unwrap();
        for k in 0..2 {
            let (e, d, r) = (format!("e{k}"), format!("d{k}"), format!("r{k}"));
            g.register_object(&e, kernel::TDL_ENTITY_CLASS, "src")
                .unwrap();
            let req = DecisionRequest::new("MapDec", &d, "dev").input(&e);
            g.execute(req.output(&r, kernel::DBPL_REL)).unwrap();
        }
        g
    }

    /// The reads of a published version take no state guard: `Check`,
    /// `Explain`, `History`, `Status`, `Recall`, `Lint` and `Save`
    /// answer from the session's pinned version. With the write guard
    /// held, a fresh session still gets all seven answers, and the same
    /// text it gets once the guard is dropped.
    #[test]
    fn published_version_reads_answer_while_the_writer_holds_the_state() {
        let server = Server::bind("127.0.0.1:0", design_state(), Config::default()).unwrap();
        let timeout = Duration::from_secs(2);
        let mut client = Client::connect_with_timeout(server.local_addr(), timeout).unwrap();
        let (session, _) = client.hello().unwrap();
        // A committed write: the version every read below answers from
        // is the one its commit published.
        client.tell(session, "TELL inv1 in Invitation end").unwrap();
        let saved = std::env::temp_dir().join(format!("cb-guard-save-{}", std::process::id()));
        let path = saved.to_str().unwrap();
        let unsafe_rule = "p(X, Y) :- in_(X, C).";

        let (check, explain, history, status, recall, lint) = {
            let _writer = server.shared.state.write().unwrap();
            let (session, _) = client.hello().unwrap();
            let under_guard = "answers under the write guard";
            client.save(session, path).expect(under_guard);
            (
                client.check(session).expect(under_guard),
                client.explain(session, "").expect(under_guard),
                client.history(session).expect(under_guard),
                client.status(session).expect(under_guard),
                client.recall(session, "d0", 5).expect(under_guard),
                client.lint(session, unsafe_rule).expect(under_guard),
            )
        };
        let loaded = Gkbms::load(&saved).unwrap();
        std::fs::remove_file(&saved).unwrap();
        assert!(
            loaded.kb().lookup("inv1").is_some(),
            "the save holds the TELL"
        );
        assert_eq!(loaded.records().len(), 2);
        assert!(lint.iter().any(|d| d.code == "CB001"), "{lint:?}");
        assert!(
            check.contains("`hasSender` on `Invitation` violated"),
            "{check}"
        );
        assert!(explain.contains("total estimated cost"), "{explain}");
        assert!(
            history.contains("d0") && history.contains("d1"),
            "{history}"
        );
        assert!(status.contains("r1"), "{status}");
        assert_eq!(recall, [("d1".to_string(), 1.0, false)]);
        let (session, _) = client.hello().unwrap();
        assert_eq!(client.check(session).unwrap(), check);
        assert_eq!(client.explain(session, "").unwrap(), explain);
        assert_eq!(client.history(session).unwrap(), history);
        assert_eq!(client.status(session).unwrap(), status);
        assert_eq!(client.recall(session, "d0", 5).unwrap(), recall);
        assert_eq!(client.lint(session, unsafe_rule).unwrap(), lint);
        server.shutdown().unwrap();
    }

    /// A panic inside a write poisons the state lock, and the write may
    /// be half-applied: later writes, and `ViewAsk` (the one read of the
    /// live state), are refused with a typed `Internal`, while the reads
    /// of published versions — `Lint` and `Save` too — keep answering.
    #[test]
    fn a_poisoned_state_refuses_writes_and_serves_published_versions() {
        use crate::client::ClientError;
        use gkbms::JournalOp;
        let server = Server::bind("127.0.0.1:0", design_state(), Config::default()).unwrap();
        let timeout = Duration::from_secs(2);
        let mut client = Client::connect_with_timeout(server.local_addr(), timeout).unwrap();
        let (session, _) = client.hello().unwrap();
        let shared = Arc::clone(&server.shared);
        let writer = std::thread::spawn(move || {
            let _guard = shared.state.write().unwrap();
            panic!("a write fails halfway");
        });
        assert!(writer.join().is_err(), "the writer panicked");

        let untell = JournalOp::Untell { name: "e0".into() };
        let refused = [
            client.write(session, untell).map(drop),
            client.view_ask(session, "v", "inT").map(drop),
        ];
        for outcome in refused {
            match outcome {
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, ErrorCode::Internal, "{e:?}");
                    assert!(e.message.contains("state poisoned"), "{e:?}");
                }
                other => panic!("a poisoned state answered {other:?}"),
            }
        }
        let answers = client
            .ask(session, "x", "DBPL_Rel", "true")
            .unwrap()
            .answers;
        assert_eq!(answers, ["r0", "r1"]);
        assert!(client.history(session).unwrap().contains("d1"));
        assert!(client.lint(session, "").unwrap().is_empty());
        let saved = std::env::temp_dir().join(format!("cb-poison-save-{}", std::process::id()));
        client.save(session, saved.to_str().unwrap()).unwrap();
        assert_eq!(Gkbms::load(&saved).unwrap().records().len(), 2);
        std::fs::remove_file(&saved).unwrap();
        assert_eq!(client.ping().unwrap(), "pong");
        drop(client);
        server.shutdown().unwrap();
    }

    /// A panic while handling a request is contained to it: the request
    /// answers `Internal`, its connection is closed, the panic is
    /// counted, and the server keeps serving other connections.
    #[test]
    fn a_panicking_read_answers_internal_and_the_server_keeps_serving() {
        use crate::client::ClientError;
        let server = Server::bind("127.0.0.1:0", design_state(), Config::default()).unwrap();
        let timeout = Duration::from_secs(2);
        let mut client = Client::connect_with_timeout(server.local_addr(), timeout).unwrap();
        let (session, _) = client.hello().unwrap();
        let panics = || {
            let text = obs::render_prometheus();
            let line = text
                .lines()
                .find(|l| l.starts_with("gkbms_request_panics_total "));
            line.and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let before = panics();
        server.shared.panic_next_read.store(true, Ordering::SeqCst);
        match client.ask(session, "x", "DBPL_Rel", "true") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Internal, "{e:?}"),
            other => panic!("a panicking read answered {other:?}"),
        }
        assert!(client.ping().is_err(), "the panicked connection is closed");
        assert!(panics() >= before + 1.0, "the panic is counted");

        let mut fresh = Client::connect_with_timeout(server.local_addr(), timeout).unwrap();
        assert_eq!(fresh.ping().unwrap(), "pong");
        let (session, _) = fresh.hello().unwrap();
        let answers = fresh.ask(session, "x", "DBPL_Rel", "true").unwrap().answers;
        assert_eq!(answers, ["r0", "r1"]);
        drop((client, fresh));
        server.shutdown().unwrap();
    }

    /// A subscription's handshake and `ReplStatus` read the watermark
    /// and the journal directory, not the state: with the write guard
    /// held, a subscriber still gets its `Hello` and a client its
    /// replication status.
    #[test]
    fn replication_answers_while_the_writer_holds_the_state() {
        let dir = std::env::temp_dir().join(format!("cb-repl-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut g, _) = Gkbms::recover(&dir).unwrap();
        g.tell_src("TELL Paper end").unwrap();
        let server = Server::bind("127.0.0.1:0", g, Config::default()).unwrap();
        let timeout = Duration::from_secs(2);
        let mut client = Client::connect_with_timeout(server.local_addr(), timeout).unwrap();
        {
            let _writer = server.shared.state.write().unwrap();
            let mut sub = TcpStream::connect(server.local_addr()).unwrap();
            sub.set_read_timeout(Some(timeout)).unwrap();
            let subscribe = Request::Replicate {
                applied_seq: 0,
                epoch: 1,
            };
            proto::write_frame(&mut sub, &subscribe.encode()).unwrap();
            match proto::read_frame(&mut sub).unwrap() {
                FrameRead::Frame(p) => assert!(
                    matches!(
                        replication::ReplMsg::decode(&p),
                        Ok(replication::ReplMsg::Hello { leader_seq: 1, .. })
                    ),
                    "{p:?}"
                ),
                other => panic!("no Hello under the write guard: {other:?}"),
            }
            let status = client
                .repl_status()
                .expect("repl_status answers under the write guard");
            assert_eq!((status.applied_seq, status.epoch), (1, 1));
        }
        drop(client);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_response_one_byte_over_the_frame_cap_is_a_typed_error() {
        let at_cap = table_of_encoded_len(MAX_RECORD_LEN);
        let (written, echoed) = written_response(&at_cap);
        assert_eq!(written, MAX_RECORD_LEN + HEADER_LEN);
        assert_eq!(echoed, at_cap);

        let (written, answer) = written_response(&table_of_encoded_len(MAX_RECORD_LEN + 1));
        assert!(written < 128, "only the error frame is counted: {written}");
        match answer {
            Response::Error {
                code: ErrorCode::Rejected,
                message,
            } => assert!(
                message.contains(&format!("{} bytes", MAX_RECORD_LEN + 1)),
                "{message}"
            ),
            other => panic!("expected a typed Rejected, got {other:?}"),
        }
    }
}
