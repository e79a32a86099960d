//! Blocking client library for the GKBMS service.
//!
//! Wraps a [`TcpStream`] — or one end of the socket pair an
//! in-process server ([`crate::Server::in_process`]) serves — with
//! typed request/response methods over the [`crate::proto`] frame
//! protocol. One [`Client`] drives one connection; the session id
//! returned by [`Client::hello`] is passed explicitly so a client can
//! multiplex several sessions over one connection (or reconnect and
//! keep a session).

use crate::proto::{
    self, ErrorCode, FrameRead, JournalOp, Request, Response, WireDecision, WireDiagnostic,
};
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// What the server said when it refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// Typed error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// A client-side failure: transport, protocol, timeout, or a typed
/// server error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes the server closing mid-call).
    Io(io::Error),
    /// The peer sent a frame that does not decode, or a response of
    /// the wrong shape for the request.
    Protocol(String),
    /// The server accepted the connection but produced no response
    /// within the configured read timeout.
    Timeout(Duration),
    /// The request needs the leader: this server is a read replica and
    /// refuses writes. Reconnect to `leader` and retry there.
    Redirect {
        /// Address of the leader this replica follows.
        leader: String,
    },
    /// The client was configured so the call can never succeed (e.g. a
    /// zero-attempt connect budget).
    Config(String),
    /// The server answered with a typed error.
    Server(ServerError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Timeout(t) => {
                write!(f, "no response within {} ms", t.as_millis())
            }
            ClientError::Redirect { leader } => {
                write!(f, "not the leader: writes go to {leader}")
            }
            ClientError::Config(m) => write!(f, "invalid client configuration: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client call result.
pub type ClientResult<T> = Result<T, ClientError>;

/// ASK answers plus the deductive evaluation counters: those of the
/// work that built the closure the answers were read from — the
/// fixpoint for a closure built from scratch, the refresh for one
/// carried over from the previous version's by the delta between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AskReply {
    /// The matching instance names.
    pub answers: Vec<String>,
    /// Secondary-index probes issued by the join core.
    pub probes: u64,
    /// Candidate tuples iterated while joining.
    pub scanned: u64,
}

/// Per-session statistics as reported by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Session id.
    pub session: u64,
    /// The session's pinned belief-time watermark.
    pub watermark: i64,
    /// The knowledge base's current belief time.
    pub kb_now: i64,
    /// Requests served for the session.
    pub requests: u64,
    /// Propositions believed at the watermark.
    pub believed: u64,
    /// `index_probes` of the session's last ASK (see [`AskReply`]: a
    /// carried closure reports its refresh, so this can be small or 0
    /// on a large KB).
    pub probes: u64,
    /// `tuples_scanned` of the session's last ASK (likewise).
    pub scanned: u64,
}

/// A replica's view of its own role and position, as reported by
/// [`Client::repl_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// True on the leader (or any standalone server).
    pub is_leader: bool,
    /// The leader address a follower ships from (empty on a leader).
    pub leader: String,
    /// Ops applied locally.
    pub applied_seq: u64,
    /// The leader's committed position as last observed (on a leader,
    /// equal to `applied_seq`).
    pub leader_seq: u64,
    /// The sequence epoch the server is serving under.
    pub epoch: u64,
    /// True while a follower's subscription to the leader is live.
    pub connected: bool,
}

impl ReplicaStatus {
    /// Committed leader ops not yet applied locally.
    pub fn lag(&self) -> u64 {
        self.leader_seq.saturating_sub(self.applied_seq)
    }
}

/// Default per-call read timeout; see [`Client::connect_with_timeout`].
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection attempts made by [`Client::connect`] before giving up.
pub const CONNECT_ATTEMPTS: u32 = 5;
/// First retry delay of [`Client::connect`]; doubles per attempt.
pub const CONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Largest receive buffer [`Client::roundtrip`] allocates ahead of a
/// reply; a longer reply grows it once its header is in.
const REPLY_PREALLOC_CAP: usize = 1 << 20;

/// The byte stream under a [`Client`]: a connection to a server's
/// listener, or one end of the socket pair an in-process server serves.
trait Conn: Read + Write + Send {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

impl Conn for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
}

/// One connection to a GKBMS server.
pub struct Client {
    stream: Box<dyn Conn>,
    read_timeout: Duration,
    /// `(applied_seq, lag)` from the most recent reply that came
    /// wrapped in a replica staleness header, if any.
    last_staleness: Option<(u64, u64)>,
    /// Payload length of the longest reply so far (at most
    /// [`REPLY_PREALLOC_CAP`]): the receive buffer allocated before
    /// the next call blocks.
    reply_capacity: usize,
}

impl Client {
    /// Connects to `addr` with the [`DEFAULT_READ_TIMEOUT`]: a stalled
    /// server fails each call with [`ClientError::Timeout`] instead of
    /// blocking the client forever. Retries refused connections with
    /// exponential backoff ([`CONNECT_ATTEMPTS`] attempts starting at
    /// [`CONNECT_BACKOFF`]) — a freshly (re)started or promoted server
    /// may not be listening yet.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<Client> {
        Client::connect_with_retry(addr, DEFAULT_READ_TIMEOUT, CONNECT_ATTEMPTS)
    }

    /// Connects with an explicit attempt budget; delays double from
    /// [`CONNECT_BACKOFF`] between attempts. A zero-attempt budget is
    /// a configuration error, not a silent single try: it fails with
    /// [`ClientError::Config`]. When every attempt fails, the *last*
    /// connect error is returned as [`ClientError::Io`].
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        read_timeout: Duration,
        attempts: u32,
    ) -> ClientResult<Client> {
        if attempts == 0 {
            return Err(ClientError::Config(
                "connect_with_retry needs a nonzero attempt budget".into(),
            ));
        }
        let mut backoff = CONNECT_BACKOFF;
        let mut attempt = 0;
        loop {
            match Client::connect_with_timeout(&addr, read_timeout) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(ClientError::Io(e));
                    }
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    /// Connects to `addr` with an explicit per-call read timeout and no
    /// retries. `Duration::ZERO` disables the timeout (reads block
    /// forever).
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        read_timeout: Duration,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client::over(Box::new(stream));
        client.set_read_timeout(read_timeout)?;
        Ok(client)
    }

    /// A client on this process's end of an in-process server's socket
    /// pair. It has no read timeout: the server runs in this process,
    /// so a slow answer is slow work, not a lost peer.
    pub(crate) fn over_pair(stream: UnixStream) -> Client {
        Client::over(Box::new(stream))
    }

    fn over(stream: Box<dyn Conn>) -> Client {
        Client {
            stream,
            read_timeout: Duration::ZERO,
            last_staleness: None,
            reply_capacity: 0,
        }
    }

    /// Changes the per-call read timeout (`Duration::ZERO` disables
    /// it). The socket polls in slices of roughly `read_timeout` /
    /// [`proto::MID_FRAME_TIMEOUT_RETRIES`], mirroring the server's
    /// tolerance for a peer that stalls mid-frame.
    pub fn set_read_timeout(&mut self, read_timeout: Duration) -> io::Result<()> {
        self.read_timeout = read_timeout;
        let slice = if read_timeout.is_zero() {
            None
        } else {
            Some(
                (read_timeout / proto::MID_FRAME_TIMEOUT_RETRIES)
                    .clamp(Duration::from_millis(10), Duration::from_secs(1)),
            )
        };
        self.stream.set_read_timeout(slice)
    }

    /// The configured per-call read timeout (zero = none).
    pub fn read_timeout(&self) -> Duration {
        self.read_timeout
    }

    /// Sends `req` and reads the matching response. The protocol is
    /// strictly request/response per connection, so ordering is trivial.
    /// With a read timeout configured, a server that accepts the
    /// request but never answers yields [`ClientError::Timeout`].
    pub fn roundtrip(&mut self, req: &Request) -> ClientResult<Response> {
        proto::write_frame(&mut self.stream, &req.encode())?;
        let deadline = (!self.read_timeout.is_zero()).then(|| Instant::now() + self.read_timeout);
        loop {
            // The receive buffer is allocated now, while the server is
            // working, not once the reply's header is in. An allocator
            // that defers work to its next large request (glibc sorts
            // there every chunk freed since the last one: the ten
            // thousand names of the previous reply, say, up to a
            // millisecond) then does it alongside the server instead
            // of between the reply's arrival and this call's return.
            let buf = Vec::with_capacity(self.reply_capacity);
            match proto::read_frame_into(&mut self.stream, buf) {
                Ok(FrameRead::Frame(payload)) => {
                    self.reply_capacity = self
                        .reply_capacity
                        .max(payload.len().min(REPLY_PREALLOC_CAP));
                    return Response::decode(&payload)
                        .map_err(|e| ClientError::Protocol(e.to_string()));
                }
                Ok(FrameRead::Eof) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(FrameRead::Idle) => match deadline {
                    Some(d) if Instant::now() >= d => {
                        return Err(ClientError::Timeout(self.read_timeout))
                    }
                    // Idle without a timeout configured cannot happen
                    // (the read blocks); with one, keep polling.
                    _ => {}
                },
                // A mid-frame stall exhausted its bounded retries.
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    return Err(ClientError::Timeout(self.read_timeout))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn expect(&mut self, req: &Request) -> ClientResult<Response> {
        let resp = self.roundtrip(req)?;
        self.finish(resp)
    }

    /// Strips replica framing from a response: unwraps staleness
    /// headers (recording the replica's position), surfaces redirects
    /// and typed errors as [`ClientError`]s.
    fn finish(&mut self, mut resp: Response) -> ClientResult<Response> {
        loop {
            match resp {
                Response::Stale {
                    applied_seq,
                    lag,
                    inner,
                } => {
                    self.last_staleness = Some((applied_seq, lag));
                    resp = Response::decode(&inner)
                        .map_err(|e| ClientError::Protocol(format!("stale inner: {e}")))?;
                }
                Response::Redirect { leader } => return Err(ClientError::Redirect { leader }),
                Response::Error { code, message } => {
                    return Err(ClientError::Server(ServerError { code, message }))
                }
                other => return Ok(other),
            }
        }
    }

    /// `(applied_seq, lag)` from the most recent reply that a replica
    /// wrapped in a staleness header; `None` until one arrives (e.g.
    /// when talking to the leader).
    pub fn last_staleness(&self) -> Option<(u64, u64)> {
        self.last_staleness
    }

    fn done(&mut self, req: &Request) -> ClientResult<String> {
        match self.expect(req)? {
            Response::Done { text } => Ok(text),
            other => Err(shape("Done", &other)),
        }
    }

    fn names(&mut self, req: &Request) -> ClientResult<Vec<String>> {
        match self.expect(req)? {
            Response::Names { names, .. } => Ok(owned(names)),
            other => Err(shape("Names", &other)),
        }
    }

    fn table(&mut self, req: &Request) -> ClientResult<String> {
        match self.expect(req)? {
            Response::Table { text } => Ok(text),
            other => Err(shape("Table", &other)),
        }
    }

    /// Opens a session; returns `(session, watermark)`.
    pub fn hello(&mut self) -> ClientResult<(u64, i64)> {
        match self.expect(&Request::Hello)? {
            Response::Welcome { session, watermark } => Ok((session, watermark)),
            other => Err(shape("Welcome", &other)),
        }
    }

    /// Closes a session.
    pub fn bye(&mut self, session: u64) -> ClientResult<String> {
        self.done(&Request::Bye { session })
    }

    /// Re-pins the session watermark to the current belief time.
    pub fn refresh(&mut self, session: u64) -> ClientResult<String> {
        self.done(&Request::Refresh { session })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<String> {
        self.done(&Request::Ping)
    }

    /// Commits one journal op — any write a client may send — and
    /// returns the server's reply. A `Tell` op travels on the `Tell`
    /// row, every other op on the `Write` row, as the typed writes
    /// below send theirs.
    pub fn write(&mut self, session: u64, op: JournalOp) -> ClientResult<Response> {
        self.expect(&match op {
            JournalOp::Tell { src } => Request::Tell { session, src },
            op => Request::Write { session, op },
        })
    }

    /// TELLs objectbase concrete syntax (`TELL … end`, possibly
    /// several frames).
    pub fn tell(&mut self, session: u64, src: &str) -> ClientResult<String> {
        self.done(&Request::Tell {
            session,
            src: src.into(),
        })
    }

    /// UNTELLs an object by name.
    pub fn untell(&mut self, session: u64, name: &str) -> ClientResult<String> {
        let op = JournalOp::Untell { name: name.into() };
        self.done(&Request::Write { session, op })
    }

    /// Snapshot-pinned deductive ASK.
    pub fn ask(
        &mut self,
        session: u64,
        var: &str,
        class: &str,
        expr: &str,
    ) -> ClientResult<AskReply> {
        let req = Request::Ask {
            session,
            var: var.into(),
            class: class.into(),
            expr: expr.into(),
        };
        match self.expect(&req)? {
            Response::Names {
                probes,
                scanned,
                names,
            } => Ok(AskReply {
                answers: owned(names),
                probes,
                scanned,
            }),
            other => Err(shape("Names", &other)),
        }
    }

    /// Evaluates a closed assertion against the session snapshot.
    pub fn holds(&mut self, session: u64, expr: &str) -> ClientResult<bool> {
        let req = Request::Holds {
            session,
            expr: expr.into(),
        };
        match self.expect(&req)? {
            Response::Truth { value } => Ok(value),
            other => Err(shape("Truth", &other)),
        }
    }

    /// Renders the current frame of an object.
    pub fn show(&mut self, session: u64, name: &str) -> ClientResult<String> {
        self.table(&Request::Show {
            session,
            name: name.into(),
        })
    }

    /// Decision classes applicable to a design object.
    pub fn applicable_decisions(
        &mut self,
        session: u64,
        object: &str,
    ) -> ClientResult<Vec<String>> {
        self.names(&Request::ApplicableDecisions {
            session,
            object: object.into(),
        })
    }

    /// Executes a design decision.
    pub fn execute(&mut self, session: u64, decision: WireDecision) -> ClientResult<String> {
        let op = JournalOp::Execute { request: decision };
        self.done(&Request::Write { session, op })
    }

    /// Retracts a decision; returns the affected objects.
    pub fn retract_decision(&mut self, session: u64, name: &str) -> ClientResult<Vec<String>> {
        let op = JournalOp::Retract { name: name.into() };
        self.names(&Request::Write { session, op })
    }

    /// The process view (all decisions in causal order).
    pub fn history(&mut self, session: u64) -> ClientResult<String> {
        self.table(&Request::History { session })
    }

    /// The status view of all design objects.
    pub fn status(&mut self, session: u64) -> ClientResult<String> {
        self.table(&Request::Status { session })
    }

    /// Belief-time history of one object, as `t<tick>: <event>` rows.
    pub fn object_history(&mut self, session: u64, object: &str) -> ClientResult<Vec<String>> {
        self.names(&Request::ObjectHistory {
            session,
            object: object.into(),
        })
    }

    /// Per-session statistics.
    pub fn session_stats(&mut self, session: u64) -> ClientResult<SessionStats> {
        match self.expect(&Request::SessionStats { session })? {
            Response::SessionInfo {
                session,
                watermark,
                kb_now,
                requests,
                believed,
                probes,
                scanned,
            } => Ok(SessionStats {
                session,
                watermark,
                kb_now,
                requests,
                believed,
                probes,
                scanned,
            }),
            other => Err(shape("SessionInfo", &other)),
        }
    }

    /// Persists the knowledge base to a server-side path.
    pub fn save(&mut self, session: u64, path: &str) -> ClientResult<String> {
        self.done(&Request::Save {
            session,
            path: path.into(),
        })
    }

    /// Replaces the knowledge base from a server-side path.
    pub fn load(&mut self, session: u64, path: &str) -> ClientResult<String> {
        self.done(&Request::Load {
            session,
            path: path.into(),
        })
    }

    /// Forces a journal checkpoint: the state is snapshotted atomically
    /// and the WAL is truncated. Errors if the server is not journaled.
    pub fn checkpoint(&mut self, session: u64) -> ClientResult<String> {
        self.done(&Request::Checkpoint { session })
    }

    /// Registers a design object.
    pub fn register_object(
        &mut self,
        session: u64,
        name: &str,
        class: &str,
        source: &str,
    ) -> ClientResult<String> {
        let op = JournalOp::Register {
            name: name.into(),
            class: class.into(),
            source: source.into(),
        };
        self.done(&Request::Write { session, op })
    }

    /// Diagnostic: hold a server admission slot for `millis` ms.
    pub fn sleep(&mut self, session: u64, millis: u64) -> ClientResult<String> {
        self.done(&Request::Sleep { session, millis })
    }

    /// Begins graceful server shutdown.
    pub fn shutdown_server(&mut self, session: u64) -> ClientResult<String> {
        self.done(&Request::Shutdown { session })
    }

    /// Statically analyzes source text against the live knowledge base
    /// without admitting anything. An empty list means a clean source.
    pub fn lint(&mut self, session: u64, src: &str) -> ClientResult<Vec<WireDiagnostic>> {
        let req = Request::Lint {
            session,
            src: src.into(),
        };
        match self.expect(&req)? {
            Response::Diagnostics { diags } => Ok(diags),
            other => Err(shape("Diagnostics", &other)),
        }
    }

    /// Scrapes the server's metrics registry (Prometheus text format).
    /// Sessionless and admission-exempt, so it works on a saturated
    /// server.
    pub fn metrics(&mut self) -> ClientResult<String> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(shape("Metrics", &other)),
        }
    }

    /// Promotes a follower to leader: its log is sealed under a new
    /// sequence epoch and it starts accepting writes. Errors with
    /// [`ErrorCode::Rejected`] on a server that is already the leader.
    pub fn promote(&mut self, session: u64) -> ClientResult<String> {
        self.done(&Request::Promote { session })
    }

    /// Registers a deductive view: the base closure rules plus `rules`
    /// (datalog source, may be empty), read at each session's pin. A
    /// write — on a replica it fails with [`ClientError::Redirect`].
    pub fn register_view(&mut self, session: u64, name: &str, rules: &str) -> ClientResult<String> {
        let op = JournalOp::RegisterView {
            name: name.into(),
            rules: rules.into(),
        };
        self.done(&Request::Write { session, op })
    }

    /// Reads one predicate of a registered view, each tuple rendered
    /// as one space-joined row. Snapshot-pinned: the answer is the
    /// view's model at the session's watermark, and a view registered
    /// after it is unknown.
    pub fn view_ask(&mut self, session: u64, name: &str, pred: &str) -> ClientResult<Vec<String>> {
        self.names(&Request::ViewAsk {
            session,
            name: name.into(),
            pred: pred.into(),
        })
    }

    /// Renders the deductive evaluator's join plan and cost estimate
    /// for the base program, the stored rules, and any extra rules in
    /// `src` (may be empty), against the EDB cardinalities of the newest
    /// published version (the head as of the last commit). Read-only.
    pub fn explain(&mut self, session: u64, src: &str) -> ClientResult<String> {
        self.done(&Request::Explain {
            session,
            src: src.into(),
        })
    }

    /// One Model Display view of an object at the session's pin:
    /// `isa`, `instances` or `attrs`.
    pub fn browse(&mut self, session: u64, view: &str, name: &str) -> ClientResult<String> {
        self.table(&Request::Browse {
            session,
            view: view.into(),
            name: name.into(),
        })
    }

    /// Runs the full consistency check over the newest published
    /// version (the head as of the last commit).
    pub fn check(&mut self, session: u64) -> ClientResult<String> {
        self.table(&Request::Check { session })
    }

    /// Structure-similarity recall: which past decisions looked like
    /// the named one? Returns `(decision, score, retracted)` triples,
    /// best first; retracted precedents are included and flagged.
    pub fn recall(
        &mut self,
        session: u64,
        name: &str,
        limit: u32,
    ) -> ClientResult<Vec<(String, f64, bool)>> {
        let req = Request::Recall {
            session,
            name: name.into(),
            limit,
        };
        match self.expect(&req)? {
            Response::RecallHits { hits } => Ok(hits
                .into_iter()
                .map(|h| (h.decision.clone(), h.score(), h.retracted))
                .collect()),
            other => Err(shape("RecallHits", &other)),
        }
    }

    /// The server's replication role and position. Sessionless and
    /// admission-exempt, like [`Client::metrics`].
    pub fn repl_status(&mut self) -> ClientResult<ReplicaStatus> {
        match self.expect(&Request::ReplStatus)? {
            Response::ReplInfo {
                is_leader,
                leader,
                applied_seq,
                leader_seq,
                epoch,
                connected,
            } => Ok(ReplicaStatus {
                is_leader,
                leader,
                applied_seq,
                leader_seq,
                epoch,
                connected,
            }),
            other => Err(shape("ReplInfo", &other)),
        }
    }
}

/// Decoded names own their strings, so this moves them out.
fn owned(names: Vec<Cow<'static, str>>) -> Vec<String> {
    names.into_iter().map(Cow::into_owned).collect()
}

fn shape(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_attempt_budget_is_a_typed_config_error() {
        let err = Client::connect_with_retry("127.0.0.1:1", Duration::from_millis(10), 0)
            .err()
            .expect("zero attempts must fail");
        match err {
            ClientError::Config(m) => assert!(m.contains("attempt"), "message: {m}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn the_receive_buffer_is_sized_by_the_longest_reply_so_far() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        let replies = ["x".repeat(5000), "short".to_string(), "y".repeat(2 << 20)];
        let sizes: Vec<usize> = replies
            .iter()
            .map(|text| Response::Done { text: text.clone() }.encode().len())
            .collect();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            for text in replies {
                match proto::read_frame(&mut stream).expect("request") {
                    FrameRead::Frame(_) => {}
                    other => panic!("unexpected {other:?}"),
                }
                proto::write_frame(&mut stream, &Response::Done { text }.encode()).expect("reply");
            }
        });
        let mut client = Client::connect_with_timeout(addr, Duration::from_secs(5)).expect("up");
        assert_eq!(client.reply_capacity, 0);
        // It never shrinks, and never exceeds the cap.
        for (size, want) in [
            (sizes[0], sizes[0]),
            (sizes[1], sizes[0]),
            (sizes[2], REPLY_PREALLOC_CAP),
        ] {
            match client.roundtrip(&Request::Ping).expect("reply") {
                Response::Done { text } => assert!(text.len() < size),
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(client.reply_capacity, want);
        }
        server.join().expect("server thread");
    }

    /// The wire bytes are unchanged: for every golden request row, what
    /// `roundtrip` sends is byte for byte `write_record` around the
    /// row's encoding.
    #[test]
    fn every_golden_request_is_sent_as_the_record_of_its_encoding() {
        let golden = include_str!("../../../tests/fixtures/wire/request.hex");
        let requests = Request::check_golden(golden);
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        let expected = requests.clone();
        let peer = std::thread::spawn(move || {
            for req in expected {
                let mut want = Vec::new();
                storage::record::write_record(&mut want, &req.encode()).expect("under the cap");
                let mut sent = vec![0; want.len()];
                theirs.read_exact(&mut sent).expect("the request's frame");
                assert_eq!(sent, want, "{req:?}");
                let done = Response::Done {
                    text: String::new(),
                };
                proto::write_frame(&mut theirs, &done.encode()).expect("reply");
            }
        });
        let mut client = Client::over_pair(ours);
        for req in &requests {
            client.roundtrip(req).expect("a reply");
        }
        peer.join().expect("every frame as recorded");
    }

    #[test]
    fn exhausted_attempts_surface_the_last_io_error() {
        // Port 1 refuses on loopback; one attempt, no backoff sleep.
        let err = Client::connect_with_retry("127.0.0.1:1", Duration::from_millis(10), 1)
            .err()
            .expect("nothing listens on port 1");
        match err {
            ClientError::Io(_) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
