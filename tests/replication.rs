//! Integration: WAL shipping — read replicas, catch-up, and
//! promote-on-failure.
//!
//! The replication contract under test:
//!
//! * **convergence** — followers replay the leader's committed WAL
//!   prefix and end up byte-identical (same WAL file) and
//!   answer-identical to a serial replay of the same TELLs;
//! * **catch-up** — a follower that disconnects (or starts far behind
//!   the checkpoint truncation horizon) resubscribes from its applied
//!   position and converges, via the WAL tail or a shipped snapshot;
//! * **redirect** — writes against a follower fail fast with the
//!   leader's address, as a typed client error;
//! * **fencing** — after promotion the old sequence epoch is dead: a
//!   store that lived under the new epoch refuses the old leader;
//! * **bounded staleness** — replica reads carry the applied position,
//!   and a configured lag bound rejects reads on a lagging replica.

use conceptbase::gkbms::journal::WAL_FILE;
use conceptbase::gkbms::Gkbms;
use conceptbase::server::{Client, ClientError, Config, ErrorCode, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cb-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn quick() -> Config {
    Config {
        poll_interval: Duration::from_millis(20),
        ..Config::default()
    }
}

/// Starts a journaled leader recovering from `dir`.
fn leader(dir: &Path) -> (Server, SocketAddr) {
    let (g, _) = Gkbms::recover(dir).expect("recover leader");
    let srv = Server::bind("127.0.0.1:0", g, quick()).expect("bind leader");
    let addr = srv.local_addr();
    (srv, addr)
}

/// Starts a journaled follower recovering from `dir`, shipping from
/// `leader`.
fn follower(dir: &Path, leader: SocketAddr, max_lag: Option<u64>) -> (Server, SocketAddr) {
    let (g, _) = Gkbms::recover(dir).expect("recover follower");
    let cfg = Config {
        follow: Some(leader.to_string()),
        max_lag,
        ..quick()
    };
    let srv = Server::bind("127.0.0.1:0", g, cfg).expect("bind follower");
    let addr = srv.local_addr();
    (srv, addr)
}

/// Polls `cond` until it holds or a generous deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Blocks until the server at `addr` reports `applied_seq >= want`.
fn wait_applied(addr: SocketAddr, want: u64) {
    let mut c = Client::connect(addr).unwrap();
    wait_for(&format!("applied_seq >= {want} at {addr}"), || {
        c.repl_status()
            .map(|s| s.applied_seq >= want)
            .unwrap_or(false)
    });
}

fn ask_all(c: &mut Client, session: u64) -> Vec<String> {
    let mut names = c.ask(session, "p", "Paper", "true").unwrap().answers;
    names.sort();
    names
}

/// Two followers converge under concurrent TELL churn: both end up
/// answering exactly like a serial replay of the same TELLs, and their
/// WAL files are byte-identical to the leader's.
#[test]
fn two_followers_converge_byte_identical_under_churn() {
    const THREADS: usize = 3;
    const PER_THREAD: usize = 8;
    let ldir = tmp_dir("churn-l");
    let f1dir = tmp_dir("churn-f1");
    let f2dir = tmp_dir("churn-f2");
    let (lsrv, laddr) = leader(&ldir);
    let (f1srv, f1addr) = follower(&f1dir, laddr, None);
    let (f2srv, f2addr) = follower(&f2dir, laddr, None);

    {
        let mut c = Client::connect(laddr).unwrap();
        let (s, _) = c.hello().unwrap();
        c.tell(s, "TELL Paper end").unwrap();
        c.bye(s).unwrap();
    }
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(laddr).unwrap();
                let (s, _) = c.hello().unwrap();
                for i in 0..PER_THREAD {
                    c.tell(s, &format!("TELL p_{t}_{i} in Paper end")).unwrap();
                }
                c.bye(s).unwrap();
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }

    let committed = {
        let mut c = Client::connect(laddr).unwrap();
        let s = c.repl_status().unwrap();
        assert!(s.is_leader);
        s.applied_seq
    };
    assert_eq!(committed, (THREADS * PER_THREAD + 1) as u64);
    wait_applied(f1addr, committed);
    wait_applied(f2addr, committed);

    // Differential check: each follower answers like a serial replay.
    let mut serial = Gkbms::new().unwrap();
    serial.tell_src("TELL Paper end").unwrap();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let src = format!("TELL p_{t}_{i} in Paper end");
            serial.tell_src(&src).unwrap();
        }
    }
    let mut expected =
        conceptbase::objectbase::query::ask(&serial.kb().snapshot(), "p", "Paper", "true").unwrap();
    expected.sort();
    for addr in [f1addr, f2addr] {
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        assert_eq!(ask_all(&mut c, s), expected, "replica at {addr} diverged");
        // Replica reads carry the staleness header.
        assert_eq!(c.last_staleness(), Some((committed, 0)));
        c.bye(s).unwrap();
    }

    f1srv.shutdown().unwrap();
    f2srv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    let lwal = std::fs::read(ldir.join(WAL_FILE)).unwrap();
    assert!(!lwal.is_empty());
    for (name, dir) in [("f1", &f1dir), ("f2", &f2dir)] {
        let fwal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(lwal, fwal, "{name} WAL is not byte-identical");
    }
    for d in [ldir, f1dir, f2dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A replica of a replica: F2 follows F1, which follows the leader.
/// F1's applied batches move F1's own commit watermark, and that is what
/// wakes the ship loop serving F2 — so F2 converges byte-identical to
/// the leader, and once F1 is promoted F2 follows it into epoch 2.
#[test]
fn chained_replica_converges_and_follows_a_promotion() {
    const THREADS: usize = 2;
    const PER_THREAD: usize = 6;
    let ldir = tmp_dir("chain-l");
    let f1dir = tmp_dir("chain-f1");
    let f2dir = tmp_dir("chain-f2");
    let (lsrv, laddr) = leader(&ldir);
    let (f1srv, f1addr) = follower(&f1dir, laddr, None);
    let (f2srv, f2addr) = follower(&f2dir, f1addr, None);

    {
        let mut c = Client::connect(laddr).unwrap();
        let (s, _) = c.hello().unwrap();
        c.tell(s, "TELL Paper end").unwrap();
        c.bye(s).unwrap();
    }
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(laddr).unwrap();
                let (s, _) = c.hello().unwrap();
                for i in 0..PER_THREAD {
                    c.tell(s, &format!("TELL p_{t}_{i} in Paper end")).unwrap();
                }
                c.bye(s).unwrap();
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    let committed = (THREADS * PER_THREAD + 1) as u64;
    let status = Client::connect(laddr).unwrap().repl_status().unwrap();
    assert_eq!(status.applied_seq, committed);
    wait_applied(f2addr, committed);
    let wal = |dir: &Path| std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert_eq!(wal(&f2dir), wal(&ldir), "F2 WAL is not byte-identical");

    // The leader dies; F1 is promoted and takes one write.
    lsrv.shutdown().unwrap();
    let mut c = Client::connect(f1addr).unwrap();
    let (s, _) = c.hello().unwrap();
    assert!(c.promote(s).unwrap().contains("epoch 2"));
    c.tell(s, "TELL after in Paper end").unwrap();
    let f1_applied = c.repl_status().unwrap().applied_seq;
    assert_eq!(f1_applied, committed + 2, "the seal and the write");

    let mut f2c = Client::connect(f2addr).unwrap();
    wait_for("F2 to follow F1 into epoch 2", || {
        f2c.repl_status()
            .map(|st| st.epoch == 2 && st.applied_seq == f1_applied)
            .unwrap_or(false)
    });
    let (f2s, _) = f2c.hello().unwrap();
    assert!(ask_all(&mut f2c, f2s).contains(&"after".to_string()));

    f2srv.shutdown().unwrap();
    f1srv.shutdown().unwrap();
    assert_eq!(wal(&f2dir), wal(&f1dir), "F2 WAL diverged from F1's");
    for d in [ldir, f1dir, f2dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A follower that dies resubscribes from its applied position on
/// restart and converges on everything it missed.
#[test]
fn killed_follower_catches_up_on_restart() {
    let ldir = tmp_dir("kill-l");
    let fdir = tmp_dir("kill-f");
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, None);

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL before in Paper end")
        .unwrap();
    // A multi-frame TELL is one journaled op.
    wait_applied(faddr, 1);
    // The follower dies with 1 op applied; the leader keeps going.
    fsrv.shutdown().unwrap();
    c.tell(s, "TELL during1 in Paper end").unwrap();
    c.tell(s, "TELL during2 in Paper end").unwrap();

    let (fsrv, faddr) = follower(&fdir, laddr, None);
    wait_applied(faddr, 3);
    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    assert_eq!(ask_all(&mut fc, fs), vec!["before", "during1", "during2"]);

    fsrv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    assert_eq!(
        std::fs::read(ldir.join(WAL_FILE)).unwrap(),
        std::fs::read(fdir.join(WAL_FILE)).unwrap(),
        "catch-up must restore byte-identical WALs"
    );
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// A brand-new follower subscribing behind the checkpoint truncation
/// horizon gets the covering snapshot first, then the WAL tail; once
/// promoted, it fsyncs the WAL the install created.
#[test]
fn new_follower_catches_up_past_checkpoint_horizon() {
    let ldir = tmp_dir("snap-l");
    let fdir = tmp_dir("snap-f");
    let (lsrv, laddr) = leader(&ldir);
    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    for i in 0..5 {
        c.tell(s, &format!("TELL old{i} in Paper end")).unwrap();
    }
    // The checkpoint truncates the WAL: ops 1..=6 now live only in the
    // snapshot, so a fresh follower (applied 0) cannot tail its way up.
    c.checkpoint(s).unwrap();
    c.tell(s, "TELL fresh in Paper end").unwrap();

    let (fsrv, faddr) = follower(&fdir, laddr, None);
    wait_applied(faddr, 7);
    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    let names = ask_all(&mut fc, fs);
    assert_eq!(
        names,
        vec!["fresh", "old0", "old1", "old2", "old3", "old4"],
        "snapshot + tail must reconstruct the full state"
    );
    let status = fc.repl_status().unwrap();
    assert!(!status.is_leader);
    assert!(status.connected);
    assert_eq!(status.applied_seq, 7);

    // The replica keeps converging after the snapshot install.
    c.tell(s, "TELL after in Paper end").unwrap();
    wait_applied(faddr, 8);
    fc.refresh(fs).unwrap();
    assert!(ask_all(&mut fc, fs).contains(&"after".to_string()));

    // Promoted, the replica group-commits into the WAL the install
    // created: no handle of this process still names the one it
    // unlinked, so no write is acknowledged on an fsync of that file.
    lsrv.shutdown().unwrap();
    assert!(fc.promote(fs).unwrap().contains("epoch 2"));
    fc.tell(fs, "TELL promoted in Paper end").unwrap();
    let (real, deleted) = (
        fdir.canonicalize().unwrap(),
        format!("{WAL_FILE} (deleted)"),
    );
    let unlinked: Vec<PathBuf> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.starts_with(&real) && target.to_string_lossy().ends_with(&deleted))
        .collect();
    assert!(unlinked.is_empty(), "handles on deleted WALs: {unlinked:?}");

    fsrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// The snapshot a follower behind the horizon installs is the leader's
/// history in commit order — a class told by a raw TELL before the
/// object registered under it, an UNTELL before the registration that
/// reuses its name. Replayed in any other order the install fails (and
/// the follower resubscribes into the same snapshot forever) or takes
/// `Thing` back out.
#[test]
fn follower_behind_the_horizon_installs_a_commit_ordered_snapshot() {
    let ldir = tmp_dir("order-l");
    let fdir = tmp_dir("order-f");
    let (lsrv, laddr) = leader(&ldir);
    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Memo end").unwrap();
    c.register_object(s, "memo1", "Memo", "memos.txt#1")
        .unwrap();
    c.tell(s, "TELL Thing end").unwrap();
    c.untell(s, "Thing").unwrap();
    c.register_object(s, "Thing", "Memo", "memos.txt#2")
        .unwrap();
    // A batch that fails midway is rolled back and ships nothing.
    assert!(c.tell(s, "TELL A end\nTELL b in Nope end").is_err());
    c.checkpoint(s).unwrap();
    c.tell(s, "TELL memo2 in Memo end").unwrap();
    c.refresh(s).unwrap();
    let memos = |c: &mut Client, s| {
        let mut names = c.ask(s, "m", "Memo", "true").unwrap().answers;
        names.sort();
        names
    };
    let want = (memos(&mut c, s), c.session_stats(s).unwrap().believed);
    assert_eq!(want.0, ["Thing", "memo1", "memo2"]);

    // Ops 1..=5 live only in the snapshot: the fresh follower installs
    // it, then tails op 6.
    let (fsrv, faddr) = follower(&fdir, laddr, None);
    wait_applied(faddr, 6);
    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    assert_eq!(
        (memos(&mut fc, fs), fc.session_stats(fs).unwrap().believed),
        want
    );
    assert!(fc.show(fs, "A").is_err(), "the rolled-back batch shipped");

    fsrv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// Writes against a follower fail fast with the leader's address.
#[test]
fn writes_against_follower_redirect_to_leader() {
    let ldir = tmp_dir("redir-l");
    let fdir = tmp_dir("redir-f");
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, None);

    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    match fc.tell(fs, "TELL Paper end") {
        Err(ClientError::Redirect { leader }) => {
            assert_eq!(leader, laddr.to_string(), "redirect must name the leader")
        }
        other => panic!("expected redirect, got {other:?}"),
    }
    // Reads still work on the follower.
    assert!(fc.show(fs, "Proposition").unwrap().contains("Proposition"));

    fsrv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// A view registered on the leader is rebuilt on the follower by
/// replaying the shipped `RegisterView` record, and subsequent
/// replicated TELLs keep the replica's model maintained — so view
/// reads work against a follower, while view registration redirects.
#[test]
fn registered_views_replicate_to_followers() {
    let ldir = tmp_dir("view-l");
    let fdir = tmp_dir("view-f");
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, None);

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.register_view(s, "closure", "hasPaper(X) :- inT(X, \"Paper\").")
        .unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();
    c.tell(s, "TELL p2 in Paper end").unwrap();
    let applied = c.repl_status().unwrap().applied_seq;
    wait_applied(faddr, applied);

    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    let mut rows = fc.view_ask(fs, "closure", "hasPaper").unwrap();
    rows.sort();
    assert_eq!(rows, vec!["p1".to_string(), "p2".to_string()]);
    // Registering a view is a journaled write: a follower redirects it.
    match fc.register_view(fs, "local", "") {
        Err(ClientError::Redirect { leader }) => {
            assert_eq!(leader, laddr.to_string())
        }
        other => panic!("expected redirect, got {other:?}"),
    }
    // An UNTELL shipped after the registration flows a delete delta
    // through the replica's maintained model too.
    c.untell(s, "p2").unwrap();
    let applied = c.repl_status().unwrap().applied_seq;
    wait_applied(faddr, applied);
    fc.refresh(fs).unwrap();
    assert_eq!(
        fc.view_ask(fs, "closure", "hasPaper").unwrap(),
        vec!["p1".to_string()]
    );

    fsrv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// Reads the current value of a counter out of the Prometheus text.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().next_back())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Promote-on-failure: the surviving follower becomes writable under a
/// new sequence epoch, and the old epoch is fenced out — a store that
/// lived under the new epoch refuses to follow the restarted old
/// leader, so old-epoch records can never re-enter it.
#[test]
fn promotion_fences_out_the_old_leader() {
    let ldir = tmp_dir("fence-l");
    let fdir = tmp_dir("fence-f");
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, None);

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL shared in Paper end")
        .unwrap();
    wait_applied(faddr, 1);
    // The leader "fails".
    lsrv.shutdown().unwrap();

    // Manual promotion: the follower seals its log under epoch 2 and
    // starts accepting writes.
    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    let msg = fc.promote(fs).unwrap();
    assert!(msg.contains("epoch 2"), "{msg}");
    let status = fc.repl_status().unwrap();
    assert!(status.is_leader);
    assert_eq!(status.epoch, 2);
    fc.tell(fs, "TELL newera in Paper end").unwrap();
    // Promoting a leader is a no-op error, not a second epoch bump.
    match fc.promote(fs) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
        other => panic!("expected rejection, got {other:?}"),
    }
    fsrv.shutdown().unwrap();

    // The old leader comes back from its own directory, still under
    // epoch 1, and diverges with a write of its own.
    let (l2srv, l2addr) = leader(&ldir);
    let mut oc = Client::connect(l2addr).unwrap();
    let (os, _) = oc.hello().unwrap();
    oc.tell(os, "TELL oldera in Paper end").unwrap();

    // Restarting the promoted store as a follower of the old leader
    // must be fenced: its epoch (2) outranks the old leader's (1).
    let fenced_before = {
        let mut m = Client::connect(l2addr).unwrap();
        metric_value(&m.metrics().unwrap(), "gkbms_replication_fenced_total")
    };
    let (f2srv, f2addr) = follower(&fdir, l2addr, None);
    let mut f2c = Client::connect(f2addr).unwrap();
    wait_for("the fenced subscription to be refused", || {
        metric_value(&f2c.metrics().unwrap(), "gkbms_replication_fenced_total") > fenced_before
    });
    let status = f2c.repl_status().unwrap();
    assert!(!status.connected, "a fenced follower must not connect");
    assert_eq!(status.epoch, 2, "promotion survives restart");
    let (f2s, _) = f2c.hello().unwrap();
    let names = ask_all(&mut f2c, f2s);
    assert!(
        names.contains(&"newera".to_string()),
        "the promoted era must survive: {names:?}"
    );
    assert!(
        !names.contains(&"oldera".to_string()),
        "a fenced old-leader record leaked in: {names:?}"
    );

    f2srv.shutdown().unwrap();
    l2srv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// A promotion's seal is an op of the history like any other: a
/// journal-less follower counts it in its position exactly as a
/// journaled one does, in the promotion's reply and in `ReplStatus`.
#[test]
fn a_promoted_follower_counts_its_seal_with_or_without_a_journal() {
    let ldir = tmp_dir("seal-l");
    let fdir = tmp_dir("seal-f");
    let (lsrv, laddr) = leader(&ldir);
    let (jsrv, jaddr) = follower(&fdir, laddr, None);
    let cfg = Config {
        follow: Some(laddr.to_string()),
        ..quick()
    };
    let state = Gkbms::new().unwrap();
    let msrv = Server::bind("127.0.0.1:0", state, cfg).expect("bind follower");
    let maddr = msrv.local_addr();

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();
    wait_applied(jaddr, 2);
    wait_applied(maddr, 2);
    lsrv.shutdown().unwrap();

    for (what, addr) in [("journaled", jaddr), ("journal-less", maddr)] {
        let mut fc = Client::connect(addr).unwrap();
        let (fs, _) = fc.hello().unwrap();
        let msg = fc.promote(fs).unwrap();
        assert!(msg.ends_with("applied op 3"), "{what}: {msg}");
        let status = fc.repl_status().unwrap();
        assert!(status.is_leader, "{what}");
        assert_eq!((status.applied_seq, status.epoch), (3, 2), "{what}");
    }
    jsrv.shutdown().unwrap();
    msrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// A configured lag bound turns reads on a lagging replica into typed
/// `StaleRead` errors until the replica catches back up.
#[test]
fn stale_read_bound_rejects_a_lagging_replica() {
    let ldir = tmp_dir("stale-l");
    let fdir = tmp_dir("stale-f");
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, Some(0));

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
    wait_applied(faddr, 1);
    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    assert_eq!(ask_all(&mut fc, fs), vec!["p1"], "caught up: reads pass");

    // Wedge the apply loop, then commit on the leader: the replica
    // observes the leader's position without applying, so its lag
    // exceeds the bound of 0.
    fsrv.set_apply_paused(true);
    c.tell(s, "TELL p2 in Paper end").unwrap();
    wait_for("the replica to observe the leader's position", || {
        fc.repl_status()
            .map(|st| st.leader_seq >= 2)
            .unwrap_or(false)
    });
    match fc.ask(fs, "p", "Paper", "true") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::StaleRead);
            assert!(e.message.contains("exceeds bound"), "{}", e.message);
        }
        other => panic!("expected StaleRead, got {other:?}"),
    }

    // Unwedged, the replica converges and reads pass again.
    fsrv.set_apply_paused(false);
    wait_applied(faddr, 2);
    fc.refresh(fs).unwrap();
    assert_eq!(ask_all(&mut fc, fs), vec!["p1", "p2"]);
    assert_eq!(fc.last_staleness(), Some((2, 0)));

    fsrv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// A replica stamps a read with one reading of its position: a batch
/// applied while the read runs moves neither field, so `applied_seq +
/// lag` is the leader's sequence the replica saw when it admitted the
/// read, never more.
#[test]
fn a_stale_header_is_one_reading_of_the_replica_position() {
    let ldir = tmp_dir("stale-one-l");
    let fdir = tmp_dir("stale-one-f");
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, None);

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
    wait_applied(faddr, 1);
    // The leader moves to 2 while the replica stays at 1.
    fsrv.set_apply_paused(true);
    c.tell(s, "TELL p2 in Paper end").unwrap();
    let mut fc = Client::connect(faddr).unwrap();
    wait_for("the replica to observe the leader's position", || {
        fc.repl_status()
            .map(|st| st.leader_seq >= 2)
            .unwrap_or(false)
    });

    // A read admitted at (1, lag 1) that is still running when the
    // replica applies seq 2.
    let reader = std::thread::spawn(move || {
        let (fs, _) = fc.hello().unwrap();
        fc.sleep(fs, 400).unwrap();
        fc.last_staleness()
    });
    std::thread::sleep(Duration::from_millis(100));
    fsrv.set_apply_paused(false);
    wait_applied(faddr, 2);
    let (applied_seq, lag) = reader.join().unwrap().expect("a replica read is stamped");
    assert_eq!(applied_seq + lag, 2, "applied {applied_seq}, lag {lag}");

    fsrv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// One op stream over the wire — registration, an execution, an
/// execution that fails (wrong output class), a TELL that passes lint
/// but fails to apply, and a retraction — gives the leader and its
/// follower one clock: the same object histories, ticks included, the
/// same `kb_now`, and recovery from the leader's journal lands on the
/// clock and length the leader served.
#[test]
fn leader_follower_and_recovery_share_one_clock_across_failed_writes() {
    use conceptbase::gkbms::metamodel::kernel::{DBPL_REL, TDL_ENTITY_CLASS};
    use conceptbase::gkbms::{DecisionClass, DecisionDimension};
    use conceptbase::server::WireDecision;
    let ldir = tmp_dir("clock-l");
    let fdir = tmp_dir("clock-f");
    {
        let (mut g, _) = Gkbms::recover(&ldir).unwrap();
        let dc = DecisionClass::new("MapDec", DecisionDimension::Mapping)
            .from_classes(&[TDL_ENTITY_CLASS])
            .to_classes(&[DBPL_REL]);
        g.define_decision_class(dc).unwrap();
        g.journal_mut().unwrap().sync().unwrap();
    }
    let (lsrv, laddr) = leader(&ldir);
    let (fsrv, faddr) = follower(&fdir, laddr, None);

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    let map = |name, output, class| {
        WireDecision::new("MapDec", name, "dev")
            .input("Inv")
            .output(output, class)
    };
    c.register_object(s, "Inv", TDL_ENTITY_CLASS, "inv.tdl")
        .unwrap();
    c.execute(s, map("m1", "Rel", DBPL_REL)).unwrap();
    assert!(c.execute(s, map("m2", "Wrong", TDL_ENTITY_CLASS)).is_err());
    assert!(c.tell(s, "TELL Fresh end\nTELL ghost in Nope end").is_err());
    c.retract_decision(s, "m1").unwrap();
    let applied = c.repl_status().unwrap().applied_seq;
    wait_applied(faddr, applied);

    c.refresh(s).unwrap();
    let mut fc = Client::connect(faddr).unwrap();
    let (fs, _) = fc.hello().unwrap();
    for object in ["Inv", "Rel"] {
        let leader_rows = c.object_history(s, object).unwrap();
        assert!(!leader_rows.is_empty(), "{object}");
        assert_eq!(
            fc.object_history(fs, object).unwrap(),
            leader_rows,
            "{object}"
        );
    }
    let kb_now = c.session_stats(s).unwrap().kb_now;
    assert_eq!(fc.session_stats(fs).unwrap().kb_now, kb_now);
    drop((c, fc));

    fsrv.shutdown().unwrap();
    let served = lsrv.shutdown().unwrap();
    let clock = |g: &Gkbms| (g.kb().now(), g.kb().len());
    let want = clock(&served);
    assert_eq!(want.0, kb_now);
    drop(served);
    let (recovered, _) = Gkbms::recover(&ldir).unwrap();
    assert_eq!(clock(&recovered), want);
    drop(recovered);
    std::fs::remove_dir_all(ldir).unwrap();
    std::fs::remove_dir_all(fdir).unwrap();
}

/// A promotion is a commit: the seal ticks the clock, and the promoted
/// server publishes it like any write. With no write after the
/// promotion, F1's published head (`kb_now`) is the seal's tick — the
/// same one its chained follower F2 reaches by applying the seal, and
/// the one F1's own state holds.
#[test]
fn a_promotion_publishes_its_seal() {
    let ldir = tmp_dir("seal-l");
    let f1dir = tmp_dir("seal-f1");
    let f2dir = tmp_dir("seal-f2");
    let (lsrv, laddr) = leader(&ldir);
    let (f1srv, f1addr) = follower(&f1dir, laddr, None);
    let (f2srv, f2addr) = follower(&f2dir, f1addr, None);

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    wait_applied(f2addr, 1);
    drop(c);
    lsrv.shutdown().unwrap();

    let mut f1c = Client::connect(f1addr).unwrap();
    let (f1s, _) = f1c.hello().unwrap();
    assert!(f1c.promote(f1s).unwrap().contains("epoch 2"));
    let mut f2c = Client::connect(f2addr).unwrap();
    wait_for("F2 to apply F1's seal", || {
        f2c.repl_status()
            .map(|st| st.epoch == 2 && st.applied_seq == 2)
            .unwrap_or(false)
    });
    let (f2s, _) = f2c.hello().unwrap();
    let f1_now = f1c.session_stats(f1s).unwrap().kb_now;
    assert_eq!(f1_now, f2c.session_stats(f2s).unwrap().kb_now);
    drop((f1c, f2c));

    f2srv.shutdown().unwrap();
    let served = f1srv.shutdown().unwrap();
    assert_eq!(f1_now, served.kb().now(), "F1 published a stale head");
    drop(served);
    for d in [ldir, f1dir, f2dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A follower applies `checkpoint_every` like a leader: after 7 ops
/// applied one batch at a time with a threshold of 3, its directory
/// holds a snapshot covering op 6 and a WAL holding only op 7. A
/// replica chained to it from scratch is behind that horizon, so it
/// catches up through the snapshot.
#[test]
fn a_follower_checkpoints_every_n_applied_ops() {
    use conceptbase::gkbms::journal::{decode_framed, snapshot_past};
    let ldir = tmp_dir("fckpt-l");
    let f1dir = tmp_dir("fckpt-f1");
    let f2dir = tmp_dir("fckpt-f2");
    let (lsrv, laddr) = leader(&ldir);
    let (g, _) = Gkbms::recover(&f1dir).unwrap();
    let cfg = Config {
        follow: Some(laddr.to_string()),
        checkpoint_every: Some(3),
        ..quick()
    };
    let f1srv = Server::bind("127.0.0.1:0", g, cfg).unwrap();
    let f1addr = f1srv.local_addr();

    let mut c = Client::connect(laddr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    wait_applied(f1addr, 1);
    for i in 2..=7 {
        c.tell(s, &format!("TELL p{i} in Paper end")).unwrap();
        wait_applied(f1addr, i);
    }
    let (covered, _) = snapshot_past(&f1dir, 0)
        .unwrap()
        .expect("the follower checkpointed");
    assert_eq!(covered, 6);
    let (wal, _) = conceptbase::storage::log::read_payloads(f1dir.join(WAL_FILE)).unwrap();
    let seqs: Vec<u64> = wal.iter().map(|f| decode_framed(f).unwrap().0).collect();
    assert_eq!(seqs, [7], "the WAL holds only the tail");

    let (f2srv, f2addr) = follower(&f2dir, f1addr, None);
    wait_applied(f2addr, 7);
    assert!(
        f2dir.join("snapshot").exists(),
        "F2 installed F1's snapshot"
    );
    let mut f2c = Client::connect(f2addr).unwrap();
    let (f2s, _) = f2c.hello().unwrap();
    assert_eq!(ask_all(&mut f2c, f2s), ["p2", "p3", "p4", "p5", "p6", "p7"]);
    drop((c, f2c));

    f2srv.shutdown().unwrap();
    f1srv.shutdown().unwrap();
    lsrv.shutdown().unwrap();
    for d in [ldir, f1dir, f2dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
