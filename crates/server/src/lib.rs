//! The GKBMS as a network service (the "global KBMS" of §4 serving
//! many local workstations).
//!
//! The paper's architecture has decision-making tools at local
//! workstations talking to one *global* knowledge base that manages
//! the shared evolution history. This crate is that seam: a
//! multi-threaded TCP service exposing the [`gkbms::Gkbms`] over a
//! length-prefixed binary protocol ([`proto`]), with snapshot-isolated
//! read sessions ([`session`]), a single-writer/multi-reader engine
//! with bounded admission ([`server`]), and a blocking client library
//! ([`client`]).
//!
//! Snapshot isolation costs nothing here because the knowledge base
//! never destroys history: belief-time intervals make "the KB as of
//! tick t" a first-class read target ([`telos::Snapshot`]), so read
//! sessions pin a watermark instead of copying state, and writers
//! only ever add or close intervals above every pinned watermark.

// No panic on a serving path: a connection thread that unwinds takes
// its client's socket (and, mid-commit, a poisoned lock) with it.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::unreachable,
        clippy::panic
    )
)]

pub mod client;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{
    AskReply, Client, ClientError, ClientResult, ReplicaStatus, ServerError, SessionStats,
    DEFAULT_READ_TIMEOUT,
};
pub use proto::{
    ErrorCode, JournalOp, OpClass, Request, Response, WireDecision, WireDiagnostic, WireDischarge,
};
pub use server::{Config, JoinError, Server, SlowQuery};

#[cfg(test)]
mod tests {
    use super::*;
    use gkbms::Gkbms;
    use std::time::Duration;

    fn start(cfg: Config) -> (Server, std::net::SocketAddr) {
        let g = Gkbms::new().expect("fresh gkbms");
        let srv = Server::bind("127.0.0.1:0", g, cfg).expect("bind");
        let addr = srv.local_addr();
        (srv, addr)
    }

    fn quick_cfg() -> Config {
        Config {
            poll_interval: Duration::from_millis(20),
            ..Config::default()
        }
    }

    #[test]
    fn hello_tell_ask_roundtrip() {
        let (srv, addr) = start(quick_cfg());
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.ping().unwrap(), "pong");
        let (session, _) = c.hello().unwrap();
        c.tell(
            session,
            "TELL Paper end\nTELL Invitation isA Paper end\nTELL inv1 in Invitation end",
        )
        .unwrap();
        // The session watermark predates the TELL: refresh to see it.
        c.refresh(session).unwrap();
        let reply = c.ask(session, "p", "Paper", "true").unwrap();
        assert_eq!(reply.answers, vec!["inv1"]);
        assert!(reply.probes > 0, "deductive ASK probes indexes");
        assert!(c.holds(session, "(inv1 in Paper)").unwrap());
        let frame = c.show(session, "inv1").unwrap();
        assert!(frame.contains("inv1"));
        c.bye(session).unwrap();
        srv.shutdown().unwrap();
    }

    #[test]
    fn an_in_process_server_serves_only_its_own_client() {
        let (srv, mut c) = Server::in_process(Gkbms::new().unwrap(), quick_cfg()).unwrap();
        let (session, _) = c.hello().unwrap();
        c.tell(session, "TELL Paper end\nTELL p1 in Paper end")
            .unwrap();
        c.refresh(session).unwrap();
        assert_eq!(
            c.ask(session, "p", "Paper", "true").unwrap().answers,
            vec!["p1"]
        );
        // No listener: nothing else can open a session on it.
        let addr = srv.local_addr();
        assert!(addr.ip().is_unspecified() && addr.port() == 0, "{addr}");
        assert!(Client::connect_with_timeout(addr, Duration::from_secs(1)).is_err());
        // Dropping the client ends the one connection; the state
        // comes back without waiting out a poll.
        drop(c);
        let g = srv.shutdown().unwrap();
        assert!(g.kb().lookup("p1").is_some());
    }

    #[test]
    fn snapshot_isolation_between_sessions() {
        let (srv, addr) = start(quick_cfg());
        let mut writer = Client::connect(addr).unwrap();
        let (w, _) = writer.hello().unwrap();
        writer
            .tell(w, "TELL Paper end\nTELL p1 in Paper end")
            .unwrap();

        // Reader opens (and pins) before the second TELL.
        let mut reader = Client::connect(addr).unwrap();
        let (r, _) = reader.hello().unwrap();
        writer.refresh(w).unwrap();
        writer.tell(w, "TELL p2 in Paper end").unwrap();
        writer.refresh(w).unwrap();

        let pinned = reader.ask(r, "p", "Paper", "true").unwrap();
        assert_eq!(pinned.answers, vec!["p1"], "reader must not see p2");
        let live = writer.ask(w, "p", "Paper", "true").unwrap();
        assert_eq!(live.answers, vec!["p1", "p2"]);

        // After refresh the reader catches up.
        reader.refresh(r).unwrap();
        let fresh = reader.ask(r, "p", "Paper", "true").unwrap();
        assert_eq!(fresh.answers, vec!["p1", "p2"]);
        srv.shutdown().unwrap();
    }

    #[test]
    fn unknown_and_expired_sessions_are_typed_errors() {
        // poll_interval deliberately exceeds the sleep below: the
        // connection-idle sweep must not reap the session before the
        // request touches it, or we'd see UnknownSession instead of
        // the SessionExpired this test is about.
        let (srv, addr) = start(Config {
            idle_timeout: Duration::from_millis(30),
            poll_interval: Duration::from_millis(500),
            ..Config::default()
        });
        let mut c = Client::connect(addr).unwrap();
        match c.ask(999, "p", "Paper", "true") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("unexpected {other:?}"),
        }
        let (session, _) = c.hello().unwrap();
        std::thread::sleep(Duration::from_millis(70));
        match c.ask(session, "p", "Paper", "true") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::SessionExpired),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown().unwrap();
    }

    #[test]
    fn saturation_yields_overloaded() {
        let (srv, addr) = start(Config {
            max_inflight: 1,
            poll_interval: Duration::from_millis(20),
            ..Config::default()
        });
        let mut a = Client::connect(addr).unwrap();
        let (sa, _) = a.hello().unwrap();
        let mut b = Client::connect(addr).unwrap();
        let (sb, _) = b.hello().unwrap();
        // Occupy the single admission slot, then probe from another
        // connection while it is held.
        let hold = std::thread::spawn(move || a.sleep(sa, 400).unwrap());
        std::thread::sleep(Duration::from_millis(100));
        match b.ask(sb, "p", "Paper", "true") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        hold.join().unwrap();
        // Slot free again: the same request now succeeds (Paper is
        // unknown in an empty KB, so Rejected — but not Overloaded).
        match b.ask(sb, "p", "Paper", "true") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown().unwrap();
    }

    #[test]
    fn graceful_shutdown_drains_in_flight() {
        let (srv, addr) = start(quick_cfg());
        let mut a = Client::connect(addr).unwrap();
        let (sa, _) = a.hello().unwrap();
        let mut b = Client::connect(addr).unwrap();
        let (sb, _) = b.hello().unwrap();
        // A long request is in flight when shutdown begins; it must
        // complete and get its response.
        let inflight = std::thread::spawn(move || a.sleep(sa, 300).unwrap());
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(b.shutdown_server(sb).unwrap(), "shutting down");
        assert_eq!(inflight.join().unwrap(), "slept 300 ms");
        // New work is refused while draining.
        match b.ask(sb, "p", "Paper", "true") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown),
            Err(ClientError::Io(_)) => {} // connection already drained
            other => panic!("unexpected {other:?}"),
        }
        srv.join().unwrap();
    }

    #[test]
    fn shutdown_returns_final_state() {
        let (srv, addr) = start(quick_cfg());
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
        let g = srv.shutdown().unwrap();
        assert!(g.kb().lookup("p1").is_some());
        assert!(g.kb().lookup("Paper").is_some());
    }

    fn journal_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cb-server-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn start_journaled(dir: &std::path::Path, cfg: Config) -> (Server, std::net::SocketAddr) {
        let (g, _) = Gkbms::recover(dir).expect("recover");
        let srv = Server::bind("127.0.0.1:0", g, cfg).expect("bind");
        let addr = srv.local_addr();
        (srv, addr)
    }

    #[test]
    fn journaled_mutations_survive_without_save() {
        let dir = journal_dir("survive");
        {
            let (srv, addr) = start_journaled(&dir, quick_cfg());
            let mut c = Client::connect(addr).unwrap();
            let (s, _) = c.hello().unwrap();
            c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
            // Shutdown without any Save request: durability must come
            // from the journal alone.
            srv.shutdown().unwrap();
        }
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.replayed_ops > 0, "WAL had the TELLs");
        assert!(g.kb().lookup("p1").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let dir = journal_dir("group");
        {
            let (srv, addr) = start_journaled(
                &dir,
                Config {
                    fsync: gkbms::FsyncPolicy::Group,
                    ..quick_cfg()
                },
            );
            let mut c = Client::connect(addr).unwrap();
            let (s, _) = c.hello().unwrap();
            c.tell(s, "TELL Paper end").unwrap();
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    std::thread::spawn(move || {
                        let mut c = Client::connect(addr).unwrap();
                        let (s, _) = c.hello().unwrap();
                        for i in 0..10 {
                            c.tell(s, &format!("TELL w{w}x{i} in Paper end")).unwrap();
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            srv.shutdown().unwrap();
        }
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.replayed_ops >= 41);
        for w in 0..4 {
            for i in 0..10 {
                assert!(
                    g.kb().lookup(&format!("w{w}x{i}")).is_some(),
                    "acknowledged TELL w{w}x{i} must survive"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_request_compacts_wal_and_preserves_state() {
        let dir = journal_dir("checkpoint");
        {
            let (srv, addr) = start_journaled(&dir, quick_cfg());
            let mut c = Client::connect(addr).unwrap();
            let (s, _) = c.hello().unwrap();
            c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
            let text = c.checkpoint(s).unwrap();
            assert!(text.contains("compacted"), "got: {text}");
            // Post-checkpoint mutations land in the fresh WAL.
            c.tell(s, "TELL p2 in Paper end").unwrap();
            srv.shutdown().unwrap();
        }
        assert!(dir.join("snapshot").exists());
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_ops, 1, "only the post-checkpoint TELL");
        assert!(g.kb().lookup("p1").is_some());
        assert!(g.kb().lookup("p2").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_triggers_by_op_count() {
        let dir = journal_dir("autockpt");
        {
            let (srv, addr) = start_journaled(
                &dir,
                Config {
                    checkpoint_every: Some(3),
                    ..quick_cfg()
                },
            );
            let mut c = Client::connect(addr).unwrap();
            let (s, _) = c.hello().unwrap();
            for i in 0..7 {
                c.tell(s, &format!("TELL N{i} end")).unwrap();
            }
            srv.shutdown().unwrap();
        }
        assert!(
            dir.join("snapshot").exists(),
            "op threshold must have forced a checkpoint"
        );
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert!(report.replayed_ops < 7, "WAL was compacted at least once");
        for i in 0..7 {
            assert!(g.kb().lookup(&format!("N{i}")).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_without_journal_is_rejected() {
        let (srv, addr) = start(quick_cfg());
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        match c.checkpoint(s) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown().unwrap();
    }

    #[test]
    fn load_into_journaled_server_is_rejected() {
        let dir = journal_dir("noload");
        let (srv, addr) = start_journaled(&dir, quick_cfg());
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        match c.load(s, "/nonexistent/history") {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
