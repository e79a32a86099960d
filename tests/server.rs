//! Integration: the GKBMS as a concurrent service — many client
//! threads against one global knowledge base, with snapshot-isolated
//! reads (§4's global KBMS serving local workstations).

use conceptbase::gkbms::journal::decode_framed;
use conceptbase::gkbms::Gkbms;
use conceptbase::server::{Client, ClientError, Config, ErrorCode, Server};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cb-srv-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn quick_cfg() -> Config {
    Config {
        poll_interval: Duration::from_millis(20),
        ..Config::default()
    }
}

fn start(cfg: Config) -> (Server, std::net::SocketAddr) {
    let state = Gkbms::new().expect("fresh gkbms");
    let server = Server::bind("127.0.0.1:0", state, cfg).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

/// N client threads interleave TELLs and ASKs; afterwards the served
/// KB must equal a serial replay of the same TELLs, and every ASK a
/// thread saw must have been a consistent snapshot: a prefix-closed
/// subset of that thread's own writes (its own completed TELLs are
/// visible after refresh) with never a torn/partial frame.
#[test]
fn concurrent_tells_equal_serial_replay() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 8;
    let (server, addr) = start(quick_cfg());

    // Shared schema first, serially.
    {
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        c.tell(s, "TELL Paper end").unwrap();
        c.bye(s).unwrap();
    }

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (s, _) = c.hello().unwrap();
                for i in 0..PER_THREAD {
                    c.tell(s, &format!("TELL p_{t}_{i} in Paper end")).unwrap();
                    c.refresh(s).unwrap();
                    let seen = c.ask(s, "p", "Paper", "true").unwrap().answers;
                    // Own writes are prefix-closed under refresh: all
                    // of this thread's TELLs so far must be visible.
                    for j in 0..=i {
                        let mine = format!("p_{t}_{j}");
                        assert!(seen.contains(&mine), "{mine} missing after refresh");
                    }
                }
                c.bye(s).unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let served = server.shutdown().unwrap();

    // Serial replay of the same TELLs into a fresh GKBMS.
    let mut serial = Gkbms::new().unwrap();
    serial.tell_src("TELL Paper end").unwrap();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let src = format!("TELL p_{t}_{i} in Paper end");
            serial.tell_src(&src).unwrap();
        }
    }

    let answers = |g: &Gkbms| {
        conceptbase::objectbase::query::ask(&g.kb().snapshot(), "p", "Paper", "true").unwrap()
    };
    let mut from_served = answers(&served);
    let mut from_serial = answers(&serial);
    from_served.sort();
    from_serial.sort();
    assert_eq!(from_served, from_serial, "final KB != serial replay");
    assert_eq!(from_served.len(), THREADS * PER_THREAD);
}

/// A reader session opened before a TELL must not observe it, however
/// many times it asks, until it refreshes.
#[test]
fn reader_opened_before_tell_does_not_observe_it() {
    let (server, addr) = start(quick_cfg());
    let mut writer = Client::connect(addr).unwrap();
    let (w, _) = writer.hello().unwrap();
    writer
        .tell(w, "TELL Paper end\nTELL before in Paper end")
        .unwrap();

    let mut reader = Client::connect(addr).unwrap();
    let (r, _) = reader.hello().unwrap();
    let baseline = reader.ask(r, "p", "Paper", "true").unwrap().answers;
    assert_eq!(baseline, vec!["before"]);

    writer.refresh(w).unwrap();
    writer.tell(w, "TELL after in Paper end").unwrap();
    writer.refresh(w).unwrap();
    assert_eq!(
        writer.ask(w, "p", "Paper", "true").unwrap().answers,
        vec!["after", "before"]
    );

    for _ in 0..3 {
        let pinned = reader.ask(r, "p", "Paper", "true").unwrap().answers;
        assert_eq!(pinned, vec!["before"], "snapshot must not move");
    }
    // UNTELL does not disturb the snapshot either.
    writer.untell(w, "before").unwrap();
    let pinned = reader.ask(r, "p", "Paper", "true").unwrap().answers;
    assert_eq!(pinned, vec!["before"], "snapshot survives UNTELL");

    reader.refresh(r).unwrap();
    assert_eq!(
        reader.ask(r, "p", "Paper", "true").unwrap().answers,
        vec!["after"]
    );
    server.shutdown().unwrap();
}

/// Saturating the admission gate yields typed Overloaded replies, and
/// the server recovers once load drains.
#[test]
fn overloaded_under_saturating_burst() {
    let (server, addr) = start(Config {
        max_inflight: 2,
        poll_interval: Duration::from_millis(20),
        ..Config::default()
    });
    {
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        c.tell(s, "TELL Paper end").unwrap();
        c.bye(s).unwrap();
    }
    // Two sleepers occupy both slots; a burst of asks must then see
    // at least one Overloaded, never a hang or a protocol error.
    let sleepers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (s, _) = c.hello().unwrap();
                c.sleep(s, 500).unwrap();
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    let mut overloaded = 0;
    for _ in 0..5 {
        match c.ask(s, "p", "Paper", "true") {
            Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => overloaded += 1,
            Ok(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(overloaded > 0, "saturated server must shed load");
    for sl in sleepers {
        sl.join().unwrap();
    }
    // Recovered: the same ask now succeeds.
    assert!(c.ask(s, "p", "Paper", "true").is_ok());
    server.shutdown().unwrap();
}

/// SAVE over the wire, shut the server down, start a new one, LOAD —
/// the state round-trips across the restart.
#[test]
fn save_shutdown_load_roundtrip() {
    let path = tmp("roundtrip");
    let path_str = path.to_str().unwrap().to_string();

    let (server, addr) = start(quick_cfg());
    {
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        c.tell(
            s,
            "TELL Paper end\nTELL kept in Paper end\nTELL gone in Paper end",
        )
        .unwrap();
        c.refresh(s).unwrap();
        c.untell(s, "gone").unwrap();
        c.refresh(s).unwrap();
        c.save(s, &path_str).unwrap();
        c.bye(s).unwrap();
    }
    server.shutdown().unwrap();

    // A brand-new server process-equivalent: fresh state, then LOAD.
    let (server, addr) = start(quick_cfg());
    {
        let mut c = Client::connect(addr).unwrap();
        let (s, _) = c.hello().unwrap();
        assert!(c.ask(s, "p", "Paper", "true").is_err(), "fresh KB is empty");
        c.load(s, &path_str).unwrap();
        let papers = c.ask(s, "p", "Paper", "true").unwrap().answers;
        assert_eq!(papers, vec!["kept"], "belief state survives restart");
        // The UNTELL replayed too: `gone` stays dead after the restart.
        assert!(c.holds(s, "kept in Paper").unwrap());
        assert!(c.holds(s, "gone in Paper").is_err(), "untold name unknown");
        c.bye(s).unwrap();
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// LOAD of a path that does not exist is a typed error: it neither
/// replaces the served state with an empty one nor leaves a file
/// behind at the mistyped path.
#[test]
fn load_of_a_missing_path_is_an_error_and_keeps_the_state() {
    let path = tmp("no-such-history");
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL kept in Paper end").unwrap();
    c.refresh(s).unwrap();
    let believed = c.session_stats(s).unwrap().believed;

    match c.load(s, path.to_str().unwrap()) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Internal);
            assert!(e.message.contains("No such file"), "{}", e.message);
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert!(!path.exists(), "LOAD created the file it could not find");
    c.refresh(s).unwrap();
    assert_eq!(c.session_stats(s).unwrap().believed, believed);
    assert_eq!(c.ask(s, "p", "Paper", "true").unwrap().answers, ["kept"]);
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// A journal-less server's position is its history's length, as a
/// journaled one's is: `ReplStatus` counts the ops committed, and a
/// `Load` positions the server at the loaded history's length — down
/// as well as up, since the replaced history names no state any more.
#[test]
fn a_journal_less_server_reports_its_history_length() {
    let path = tmp("position");
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.refresh(s).unwrap();
    c.save(s, path.to_str().unwrap()).unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();
    let status = c.repl_status().unwrap();
    assert!(status.is_leader);
    assert_eq!((status.applied_seq, status.leader_seq), (2, 2));
    c.load(s, path.to_str().unwrap()).unwrap();
    let status = c.repl_status().unwrap();
    assert_eq!((status.applied_seq, status.leader_seq), (1, 1));
    c.tell(s, "TELL p2 in Paper end").unwrap();
    assert_eq!(c.repl_status().unwrap().applied_seq, 2);
    c.bye(s).unwrap();
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// Graceful shutdown: an in-flight request completes with a response,
/// new work is refused, and join() drains everything.
#[test]
fn graceful_shutdown_drains() {
    let (server, addr) = start(quick_cfg());
    let mut a = Client::connect(addr).unwrap();
    let (sa, _) = a.hello().unwrap();
    let mut b = Client::connect(addr).unwrap();
    let (sb, _) = b.hello().unwrap();

    let inflight = std::thread::spawn(move || a.sleep(sa, 300));
    std::thread::sleep(Duration::from_millis(80));
    b.shutdown_server(sb).unwrap();
    // The in-flight sleep still gets its full response.
    assert_eq!(inflight.join().unwrap().unwrap(), "slept 300 ms");
    // New work on a draining server is refused (or the connection is
    // already gone, which is also a clean refusal).
    match b.ask(sb, "p", "Paper", "true") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown),
        Err(ClientError::Io(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
    server.join().unwrap();
}

/// Decision ops over the wire: register, query applicability, execute,
/// inspect history, retract.
#[test]
fn decision_lifecycle_over_the_wire() {
    use conceptbase::server::{WireDecision, WireDischarge};
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();

    // Set up a minimal design world directly in the served state is
    // not possible over the wire for class definitions, so drive the
    // generic object path: register + history + navigation queries.
    c.tell(s, "TELL Specification end").unwrap();
    c.refresh(s).unwrap();
    c.register_object(s, "Spec1", "Specification", "spec1_src")
        .unwrap();
    c.refresh(s).unwrap();

    let applicable = c.applicable_decisions(s, "Spec1").unwrap();
    assert!(applicable.is_empty(), "no decision classes defined yet");

    // No decision has touched Spec1 yet, so its history is empty but
    // the query itself succeeds (the object is known).
    let hist = c.object_history(s, "Spec1").unwrap();
    assert!(hist.is_empty());
    let status = c.status(s).unwrap();
    assert!(status.contains("Spec1"), "{status}");

    // Executing against a missing decision class is a typed rejection,
    // not a hang or protocol error.
    let refused = c.execute(
        s,
        WireDecision {
            class: "NoSuchDecision".into(),
            name: "D1".into(),
            performer: "maria".into(),
            tool: None,
            inputs: vec!["Spec1".into()],
            outputs: vec![],
            discharges: vec![WireDischarge::Formal {
                obligation: "Ob1".into(),
            }],
        },
    );
    match refused {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
        other => panic!("unexpected {other:?}"),
    }
    match c.retract_decision(s, "D1") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
        other => panic!("unexpected {other:?}"),
    }
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// Session statistics surface the snapshot watermark and the last
/// ASK's deductive counters.
#[test]
fn session_stats_reflect_last_ask() {
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, watermark) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
    c.refresh(s).unwrap();

    let reply = c.ask(s, "p", "Paper", "true").unwrap();
    assert!(reply.probes > 0);
    let stats = c.session_stats(s).unwrap();
    assert_eq!(stats.session, s);
    assert!(stats.watermark > watermark, "refresh moved the watermark");
    assert_eq!(stats.probes, reply.probes);
    assert_eq!(stats.scanned, reply.scanned);
    assert!(stats.believed > 0);
    // tell, refresh, ask and the stats request itself.
    assert_eq!(stats.requests, 4);

    // Recording an ASK's counters is not a request of its own: a fresh
    // session that asks `n` times has made `n` requests, plus the one
    // asking for its statistics.
    let (fresh, _) = c.hello().unwrap();
    let n = 5;
    let mut last = None;
    for _ in 0..n {
        last = Some(c.ask(fresh, "p", "Paper", "not (p = p1)").unwrap());
    }
    let last = last.unwrap();
    assert!(last.answers.is_empty(), "{:?}", last.answers);
    let stats = c.session_stats(fresh).unwrap();
    assert_eq!(stats.requests, n + 1);
    assert_eq!((stats.probes, stats.scanned), (last.probes, last.scanned));
    c.bye(fresh).unwrap();
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// Extracts the value of a Prometheus series from exposition text.
fn scrape(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}

/// A scripted session must show up in the metrics scrape: per-op
/// request counters, latency histogram counts, bytes in/out. The
/// registry is process-global and shared with concurrently running
/// tests, so every assertion compares deltas.
#[test]
fn metrics_observable_end_to_end() {
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let before = c.metrics().unwrap();
    let base = |s: &str| scrape(&before, s).unwrap_or(0.0);
    let (tell0, ask0, hist0, read0) = (
        base("gkbms_requests_total{op=\"tell\"}"),
        base("gkbms_requests_total{op=\"ask\"}"),
        base("gkbms_request_seconds_count{op=\"ask\"}"),
        base("gkbms_bytes_read_total"),
    );

    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
    c.refresh(s).unwrap();
    let reply = c.ask(s, "p", "Paper", "true").unwrap();
    assert_eq!(reply.answers, vec!["p1"]);

    let after = c.metrics().unwrap();
    let now = |s: &str| scrape(&after, s).unwrap_or(0.0);
    assert!(
        now("gkbms_requests_total{op=\"tell\"}") >= tell0 + 1.0,
        "tell counter:\n{after}"
    );
    assert!(
        now("gkbms_requests_total{op=\"ask\"}") >= ask0 + 1.0,
        "ask counter:\n{after}"
    );
    assert!(
        now("gkbms_request_seconds_count{op=\"ask\"}") >= hist0 + 1.0,
        "ask latency histogram:\n{after}"
    );
    assert!(
        now("gkbms_bytes_read_total") > read0,
        "request bytes:\n{after}"
    );
    // The deductive engine's cumulative counters moved with the ASK.
    assert!(
        now("datalog_index_probes_total") > 0.0,
        "datalog probes:\n{after}"
    );
    assert!(
        now("gkbms_sessions_opened_total") >= 1.0,
        "session counter:\n{after}"
    );
    // MVCC observability: Hello acquired a pinned version and the TELLs
    // published new ones (counters are global and monotone, so >= 1).
    assert!(
        now("gkbms_snapshot_acquires_total") >= 1.0,
        "snapshot acquires:\n{after}"
    );
    assert!(
        now("gkbms_versions_published_total") >= 1.0,
        "versions published:\n{after}"
    );
    assert!(
        scrape(&after, "gkbms_store_versions_live").is_some(),
        "live-version gauge:\n{after}"
    );
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// A `Write` request commits any client op and is counted under the
/// op's own label, so the labels of the rows it replaced still count
/// (and `write` never appears). It refuses the ops that are no client
/// write: a TELL, which keeps its own row, and the two replay headers.
#[test]
fn the_write_row_counts_by_op_and_refuses_non_client_ops() {
    use conceptbase::server::{JournalOp, Request, Response};
    let (server, mut c) = Server::in_process(Gkbms::new().unwrap(), quick_cfg()).unwrap();
    let (s, _) = c.hello().unwrap();
    let count = |c: &mut Client, op: &str| {
        let text = c.metrics().unwrap();
        scrape(&text, &format!("gkbms_requests_total{{op=\"{op}\"}}")).unwrap_or(0.0)
    };
    let before = count(&mut c, "untell");
    c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
    assert_eq!(
        c.untell(s, "p1").unwrap(),
        "untold `p1` (2 proposition(s))",
        "the reply text of the row `Write` replaced"
    );
    assert!(count(&mut c, "untell") >= before + 1.0);
    assert!(!c.metrics().unwrap().contains("op=\"write\""));
    for op in [
        JournalOp::Tell {
            src: "TELL Paper end".into(),
        },
        JournalOp::CheckpointCovers {
            covered_seq: 1,
            epoch: 1,
        },
        JournalOp::Seal { epoch: 2 },
    ] {
        match c.roundtrip(&Request::Write { session: s, op }).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    drop(c);
    let g = server.shutdown().unwrap();
    assert_eq!(g.epoch(), 1, "no seal was applied");
}

/// A saturated server still answers Metrics: the scrape is a control
/// request and bypasses the admission gate.
#[test]
fn metrics_scrape_bypasses_admission() {
    let (server, addr) = start(Config {
        max_inflight: 1,
        poll_interval: Duration::from_millis(20),
        ..Config::default()
    });
    let mut holder = Client::connect(addr).unwrap();
    let (hs, _) = holder.hello().unwrap();
    let hold = std::thread::spawn(move || holder.sleep(hs, 400).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(addr).unwrap();
    let text = c.metrics().unwrap();
    assert!(text.contains("# TYPE"), "{text}");
    hold.join().unwrap();
    server.shutdown().unwrap();
}

/// ASKs crossing the configured threshold land in the slow-query log
/// with their evaluation statistics.
#[test]
fn slow_query_log_records_over_threshold_asks() {
    let (server, addr) = start(Config {
        poll_interval: Duration::from_millis(20),
        // Zero threshold: every ASK is "slow".
        slow_query_threshold: Some(Duration::ZERO),
        ..Config::default()
    });
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end\nTELL p1 in Paper end").unwrap();
    c.refresh(s).unwrap();
    c.ask(s, "p", "Paper", "true").unwrap();
    let slow = server.slow_queries();
    assert!(!slow.is_empty(), "zero threshold must log the ASK");
    let q = slow.last().unwrap();
    assert_eq!(q.source, "ASK p/Paper WHERE true");
    assert!(q.index_probes > 0, "{q:?}");
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// Writes raw bytes to a fresh connection and returns whether the
/// write was accepted (the server may drop the connection at any
/// point, which is fine — what matters is the *other* session).
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    let _ = s.write_all(bytes);
    let _ = s.flush();
    // Give the server a moment to read and react.
    std::thread::sleep(Duration::from_millis(60));
}

/// Hostile wire input — an oversized length prefix, a CRC-corrupt
/// frame, a mid-frame disconnect — must at worst kill that connection,
/// never the server or another session.
#[test]
fn hostile_frames_do_not_poison_other_sessions() {
    use conceptbase::storage::record::{self, MAX_RECORD_LEN};
    let (server, addr) = start(quick_cfg());
    let mut good = Client::connect(addr).unwrap();
    let (s, _) = good.hello().unwrap();
    good.tell(s, "TELL Paper end\nTELL p1 in Paper end")
        .unwrap();
    good.refresh(s).unwrap();

    // 1. Length prefix beyond MAX_RECORD_LEN.
    let oversized = ((MAX_RECORD_LEN + 1) as u32).to_le_bytes();
    let mut frame = oversized.to_vec();
    frame.extend_from_slice(&[0u8; 4]); // bogus crc
    send_raw(addr, &frame);

    // 2. CRC-corrupt frame: valid header, flipped payload byte.
    let mut buf = Vec::new();
    record::write_record(&mut buf, b"not a request").unwrap();
    let last = buf.len() - 1;
    buf[last] ^= 0xFF;
    send_raw(addr, &buf);

    // 3. Mid-frame disconnect: header promises 64 bytes, send 5, hang up.
    let mut partial = 64u32.to_le_bytes().to_vec();
    partial.extend_from_slice(&0u32.to_le_bytes());
    partial.extend_from_slice(b"stub!");
    send_raw(addr, &partial);

    // 4. Well-framed garbage payload: decodes as BadRequest, the
    // connection survives and answers the next (valid) frame.
    {
        let mut s2 = Client::connect(addr).unwrap();
        match s2.roundtrip(&conceptbase::server::Request::Hello) {
            Ok(conceptbase::server::Response::Welcome { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    // The well-behaved session is unaffected by all of the above.
    let reply = good.ask(s, "p", "Paper", "true").unwrap();
    assert_eq!(reply.answers, vec!["p1"]);
    good.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// One `holds` of 20 000 nested `not`s — an 80 KB frame, far below the
/// frame cap — once overflowed the stack of the connection thread that
/// parsed it and aborted the process. The parser's depth bound refuses
/// it as `Rejected`, and the server answers the next request. A TELL
/// of a constraint nested as deep is refused the same way.
#[test]
fn a_deeply_nested_holds_is_rejected_and_the_server_stays_up() {
    let (server, mut c) = Server::in_process(Gkbms::new().unwrap(), quick_cfg()).unwrap();
    let (s, _) = c.hello().unwrap();
    let expr = format!("{}true", "not ".repeat(20_000));
    match c.holds(s, &expr) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Rejected);
            assert!(e.message.contains("nested deeper than"), "{e}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(c.ping().unwrap(), "pong");
    assert!(c.holds(s, "not not true").unwrap());
    // A TELLed constraint goes through the same parser, at TELL time
    // and in the lint before it.
    let constraint = format!("TELL Deep with constraint c : $ {expr} $ end");
    assert!(c.tell(s, &constraint).is_err());
    assert_eq!(c.ping().unwrap(), "pong");
    drop(c);
    server.shutdown().unwrap();
}

/// A view whose rule body is one literal over `datalog::ast::MAX_BODY`
/// is refused by the rule parser — before evaluation or lint recurse
/// over it — and the server keeps serving.
#[test]
fn a_view_body_past_the_bound_is_rejected_and_the_server_stays_up() {
    use conceptbase::datalog::ast::MAX_BODY;
    let (server, mut c) = Server::in_process(Gkbms::new().unwrap(), quick_cfg()).unwrap();
    let (s, _) = c.hello().unwrap();
    let rules = format!("wide(X) :- {}.", vec!["in_(X, X)"; MAX_BODY + 1].join(", "));
    match c.register_view(s, "wide", &rules) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Rejected);
            assert!(e.message.contains("longer than"), "{e}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(c.ping().unwrap(), "pong");
    drop(c);
    server.shutdown().unwrap();
}

/// Kills and reaps a spawned server if a test fails before it exits.
struct Reap(std::process::Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The same two requests against the served binary: a TCP server
/// answers each connection on a thread its accept loop spawns, which
/// the in-process test above does not reach. Both are refused with a
/// typed error — the `holds` by the assertion parser, the TELL already
/// by admission lint (CB008), which parses the constraint first — and
/// the process keeps serving until it is told to shut down.
#[test]
fn the_served_binary_survives_a_deeply_nested_request() {
    use std::io::BufRead;
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_cbshell"))
        .args(["--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut child = Reap(child);
    let mut stdout = std::io::BufReader::new(child.0.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "no listening line"
        );
        if let Some(addr) = line.trim().strip_prefix("gkbms: listening on ") {
            break addr.to_string();
        }
    };
    let mut c = Client::connect_with_timeout(addr.as_str(), Duration::from_secs(30)).unwrap();
    let (s, _) = c.hello().unwrap();
    let expr = format!("{}true", "not ".repeat(20_000));
    let constraint = format!("TELL Deep with constraint c : $ {expr} $ end");
    for (what, answer, code) in [
        ("holds", c.holds(s, &expr).map(|_| ()), ErrorCode::Rejected),
        (
            "tell",
            c.tell(s, &constraint).map(|_| ()),
            ErrorCode::LintRejected,
        ),
    ] {
        match answer {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, code, "{what}");
                assert!(e.message.contains("nested deeper than"), "{what}");
            }
            other => panic!("{what}: expected a typed refusal, got {other:?}"),
        }
    }
    assert_eq!(c.ping().unwrap(), "pong");
    c.shutdown_server(s).unwrap();
    let status = child.0.wait().unwrap();
    assert!(status.success(), "cbshell exited with {status}");
}

/// A server that accepts the connection but never answers must fail
/// the call with a typed Timeout within the configured budget — not
/// block forever (the bug this guards against: `Client::connect` +
/// blocking reads with no read timeout).
#[test]
fn stalled_server_yields_typed_timeout() {
    // A "server" that accepts and then sleeps, never writing a byte.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (_stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(10));
    });

    let timeout = Duration::from_millis(300);
    let mut c = Client::connect_with_timeout(addr, timeout).unwrap();
    assert_eq!(c.read_timeout(), timeout);
    let started = Instant::now();
    match c.ping() {
        Err(ClientError::Timeout(t)) => assert_eq!(t, timeout),
        other => panic!("expected Timeout, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= timeout && elapsed < Duration::from_secs(5),
        "timeout fired at {elapsed:?}, budget {timeout:?}"
    );
    drop(c);
    drop(stall); // detach; the sleeping thread dies with the process
}

/// `show` is snapshot-isolated like `ask`: a session pinned before a
/// TELL does not see the told object — in either — until it refreshes.
#[test]
fn show_answers_at_the_sessions_pin() {
    let (server, addr) = start(quick_cfg());
    let mut a = Client::connect(addr).unwrap();
    let (sa, _) = a.hello().unwrap();
    let mut b = Client::connect(addr).unwrap();
    let (sb, _) = b.hello().unwrap();
    b.tell(sb, "TELL Doc end").unwrap();

    match a.show(sa, "Doc") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Rejected);
            assert!(e.message.contains("unknown object `Doc`"), "{e:?}");
        }
        other => panic!("a pinned session saw a later TELL in show: {other:?}"),
    }
    a.refresh(sa).unwrap();
    assert!(a.show(sa, "Doc").unwrap().contains("Doc"));
    // And the other way round: an UNTELL does not take the frame away
    // from a session pinned before it.
    b.refresh(sb).unwrap();
    b.untell(sb, "Doc").unwrap();
    assert!(a.show(sa, "Doc").unwrap().contains("Doc"));
    assert!(
        b.show(sb, "Doc").is_ok(),
        "b is still pinned before its own untell"
    );
    b.refresh(sb).unwrap();
    assert!(b.show(sb, "Doc").is_err());
    server.shutdown().unwrap();
}

/// `history`, `status` and `recall` read the design index published
/// with the session's version: a session pinned before another executes
/// `d2` and retracts `d1` sees neither — in any of the three — until it
/// refreshes.
#[test]
fn history_status_and_recall_answer_at_the_sessions_pin() {
    use conceptbase::gkbms::metamodel::kernel;
    use conceptbase::server::WireDecision;
    let (server, addr) = decision_server();
    let mut b = Client::connect(addr).unwrap();
    let (sb, _) = b.hello().unwrap();
    let map = |c: &mut Client, k: usize| {
        let (e, d, r) = (format!("e{k}"), format!("d{k}"), format!("r{k}"));
        c.register_object(sb, &e, kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let req = WireDecision::new("MapDec", &d, "dev").input(&e);
        c.execute(sb, req.output(&r, kernel::DBPL_REL)).unwrap();
    };
    map(&mut b, 0);
    map(&mut b, 1);
    let mut a = Client::connect(addr).unwrap();
    let (sa, _) = a.hello().unwrap();
    map(&mut b, 2);
    b.retract_decision(sb, "d1").unwrap();

    // The row of `object` in a status table, if it has one.
    let row_of = |status: &str, object: &str| {
        let row = status
            .lines()
            .find(|l| l.split_whitespace().any(|c| c == object));
        row.map(str::to_string)
    };
    let history = a.history(sa).unwrap();
    assert!(
        history.contains("d1") && !history.contains("d2"),
        "{history}"
    );
    let status = a.status(sa).unwrap();
    let r1 = row_of(&status, "r1").unwrap_or_else(|| panic!("no r1 in {status}"));
    assert!(r1.contains("d1"), "{r1}");
    assert_eq!(row_of(&status, "r2"), None, "{status}");
    match a.recall(sa, "d2", 5) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected, "{e:?}"),
        other => panic!("a pinned session recalled a later decision: {other:?}"),
    }
    let hits = a.recall(sa, "d0", 5).unwrap();
    assert!(hits.contains(&("d1".to_string(), 1.0, false)), "{hits:?}");

    a.refresh(sa).unwrap();
    let history = a.history(sa).unwrap();
    assert!(
        !history.contains("d1") && history.contains("d2"),
        "{history}"
    );
    let status = a.status(sa).unwrap();
    assert_eq!(row_of(&status, "r1"), None, "{status}");
    assert!(
        row_of(&status, "r2").is_some_and(|r| r.contains("d2")),
        "{status}"
    );
    assert!(a.recall(sa, "d2", 5).is_ok());
    let hits = a.recall(sa, "d0", 5).unwrap();
    assert!(hits.contains(&("d1".to_string(), 1.0, true)), "{hits:?}");
    server.shutdown().unwrap();
}

/// `browse` is pinned like `show`: a session opened before `tell X isA
/// Paper end` does not see `X` under `isa Paper` until it refreshes.
/// `check` reads the pin too.
#[test]
fn browse_answers_at_the_sessions_pin() {
    let (server, addr) = start(quick_cfg());
    let mut writer = Client::connect(addr).unwrap();
    let (w, _) = writer.hello().unwrap();
    writer.tell(w, "TELL Paper end").unwrap();
    let mut reader = Client::connect(addr).unwrap();
    let (r, _) = reader.hello().unwrap();
    writer.tell(w, "TELL X isA Paper end").unwrap();

    assert_eq!(reader.browse(r, "isa", "Paper").unwrap(), "Paper\n");
    writer.refresh(w).unwrap();
    assert!(writer.browse(w, "isa", "Paper").unwrap().contains("- X"));
    reader.refresh(r).unwrap();
    assert!(reader.browse(r, "isa", "Paper").unwrap().contains("- X"));
    for (view, name) in [("tree", "Paper"), ("isa", "Ghost")] {
        match reader.browse(r, view, name) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected, "{e}"),
            other => panic!("browse {view} {name}: {other:?}"),
        }
    }

    writer.tell(w, "TELL Y isA Paper end").unwrap();
    let check = reader.check(r).unwrap();
    assert!(check.starts_with("consistent"), "{check}");
    let pinned = reader.browse(r, "instances", "Paper").unwrap();
    assert!(
        pinned.contains("- X") && !pinned.contains("- Y"),
        "{pinned}"
    );
    server.shutdown().unwrap();
}

/// Superseded store versions are retained exactly as long as a session
/// pins them, and the chain converges back to one live version once
/// every session has moved on (Refresh) or closed (Bye).
#[test]
fn store_versions_converge_after_sessions_quiesce() {
    let (server, addr) = start(quick_cfg());
    let mut a = Client::connect(addr).unwrap();
    let (sa, _) = a.hello().unwrap();
    let mut b = Client::connect(addr).unwrap();
    let (sb, _) = b.hello().unwrap();
    assert_eq!(server.store_versions_live(), 1, "nothing published yet");

    a.tell(sa, "TELL Paper end").unwrap();
    for i in 0..5 {
        a.tell(sa, &format!("TELL r{i} in Paper end")).unwrap();
    }
    // Both sessions still pin the pre-TELL version; the five
    // intermediate versions were never pinned and are already gone.
    assert_eq!(server.store_versions_live(), 2, "pinned epoch + head");
    assert_eq!(server.pinned_store_epochs(), 1);

    b.refresh(sb).unwrap();
    assert_eq!(
        server.store_versions_live(),
        2,
        "session a still pins the old epoch"
    );
    a.bye(sa).unwrap();
    assert_eq!(server.store_versions_live(), 1, "last pinned reader left");
    b.bye(sb).unwrap();
    assert_eq!(server.pinned_store_epochs(), 0);
    assert_eq!(server.store_versions_live(), 1);
    server.shutdown().unwrap();
}

/// The ISSUE 6 bugfix, end to end: a session that is *leaked* — Hello,
/// then the client vanishes without Bye — must not pin its store
/// version forever. The idle-timeout sweep reaps it and reclamation
/// proceeds.
#[test]
fn leaked_idle_session_releases_its_pinned_version() {
    let (server, addr) = start(Config {
        idle_timeout: Duration::from_millis(200),
        poll_interval: Duration::from_millis(20),
        ..Config::default()
    });
    // Leak a session pinned at the empty epoch-0 store.
    let leaked = {
        let mut leaker = Client::connect(addr).unwrap();
        let (s, _) = leaker.hello().unwrap();
        s
    };
    // A writer advances the store and keeps its own pin on the head,
    // so only the leaked session retains history.
    let mut writer = Client::connect(addr).unwrap();
    let (w, _) = writer.hello().unwrap();
    writer.tell(w, "TELL Paper end").unwrap();
    writer.refresh(w).unwrap();
    writer.tell(w, "TELL p1 in Paper end").unwrap();
    writer.refresh(w).unwrap();
    assert_eq!(
        server.store_versions_live(),
        2,
        "leaked session retains the old version"
    );

    // No Bye ever arrives. Sweeps (on publishes and idle connection
    // polls) must still reap the leaked session and free its version.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.store_versions_live() > 1 {
        assert!(
            Instant::now() < deadline,
            "leaked session never released its pinned version"
        );
        std::thread::sleep(Duration::from_millis(30));
        writer.refresh(w).unwrap();
    }
    assert_eq!(server.pinned_store_epochs(), 1, "only the writer remains");
    // The leaked session is really gone, not just unpinned.
    match writer.ask(leaked, "p", "Paper", "true") {
        Err(ClientError::Server(e)) => assert!(
            e.code == ErrorCode::UnknownSession || e.code == ErrorCode::SessionExpired,
            "unexpected code {:?}",
            e.code
        ),
        other => panic!("leaked session still serves requests: {other:?}"),
    }
    writer.bye(w).unwrap();
    server.shutdown().unwrap();
}

/// Materialized views over the wire: register, maintain under TELL and
/// UNTELL churn, and serve snapshot-pinned reads — a session pinned
/// before a refresh never observes answers from a newer tick.
#[test]
fn registered_view_maintains_and_pins_over_the_wire() {
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();
    let done = c
        .register_view(s, "closure", "hasPaper(X) :- inT(X, \"Paper\").")
        .unwrap();
    assert!(done.contains("registered view `closure`"), "{done}");
    assert!(
        matches!(
            c.register_view(s, "closure", ""),
            Err(ClientError::Server(e)) if e.code == ErrorCode::Rejected
        ),
        "duplicate view name must be rejected"
    );
    c.refresh(s).unwrap();

    // A reader pinned now, before any further churn: its first read is
    // served from the materialized model (watermark >= as_of).
    let mut pinned = Client::connect(addr).unwrap();
    let (ps, _) = pinned.hello().unwrap();
    let before = pinned.view_ask(ps, "closure", "hasPaper").unwrap();
    assert_eq!(before, vec!["p1".to_string()]);

    // Churn refreshes the view at newer ticks; the writer (refreshed)
    // sees the new model, the pinned session must not.
    c.tell(s, "TELL p2 in Paper end").unwrap();
    c.refresh(s).unwrap();
    assert_eq!(
        c.view_ask(s, "closure", "hasPaper").unwrap(),
        vec!["p1".to_string(), "p2".to_string()]
    );
    let after = pinned.view_ask(ps, "closure", "hasPaper").unwrap();
    assert_eq!(after, before, "pinned reader observed a newer refresh");

    // UNTELL flows a delete delta through the same maintenance path.
    c.untell(s, "p2").unwrap();
    c.refresh(s).unwrap();
    assert_eq!(
        c.view_ask(s, "closure", "hasPaper").unwrap(),
        vec!["p1".to_string()]
    );

    // Unknown views are typed rejections, not protocol errors.
    match c.view_ask(s, "ghost", "hasPaper") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
        other => panic!("unexpected {other:?}"),
    }
    // So is a predicate the view's program never names, read from the
    // model or at an older pin; a named one with no tuples is empty.
    c.register_view(s, "lonely", "lonely(X) :- inT(X, \"Nope\").")
        .unwrap();
    c.refresh(s).unwrap();
    let mut older = Client::connect(addr).unwrap();
    let (os, _) = older.hello().unwrap();
    // Moves every view's model past `older`'s pin.
    c.tell(s, "TELL p3 in Paper end").unwrap();
    c.refresh(s).unwrap();
    for (client, session) in [(&mut c, s), (&mut older, os)] {
        match client.view_ask(session, "closure", "inTT") {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::Rejected);
                assert!(e.message.contains("inTT"), "{}", e.message);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(client
            .view_ask(session, "lonely", "lonely")
            .unwrap()
            .is_empty());
    }

    // The maintenance engine is observable: refreshes ran and delta
    // tuples flowed (never a from-scratch recompute on the hot path).
    let text = c.metrics().unwrap();
    assert!(
        scrape(&text, "datalog_ivm_refreshes_total").unwrap_or(0.0) >= 2.0,
        "expected ivm refreshes in scrape"
    );
    assert!(
        scrape(&text, "datalog_ivm_delta_tuples_total").unwrap_or(0.0) >= 1.0,
        "expected ivm delta tuples in scrape"
    );
    assert!(
        scrape(&text, "datalog_sorted_orders_built_total").unwrap_or(0.0) >= 1.0,
        "expected sorted orders in scrape"
    );
    older.bye(os).unwrap();
    pinned.bye(ps).unwrap();
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// A view registered after a session's pin does not exist at it: the
/// pinned session's `view_ask` is `Rejected` as an unknown view, as its
/// `show` is for an object told after the pin, until it refreshes.
#[test]
fn a_view_registered_after_the_pin_is_unknown_at_it() {
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();
    let mut pinned = Client::connect(addr).unwrap();
    let (ps, _) = pinned.hello().unwrap();
    c.register_view(s, "rels", "hasPaper(X) :- inT(X, \"Paper\").")
        .unwrap();
    match pinned.view_ask(ps, "rels", "hasPaper") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Rejected);
            assert!(e.message.contains("unknown view"), "{}", e.message);
        }
        other => panic!("a view registered after the pin answered {other:?}"),
    }
    pinned.refresh(ps).unwrap();
    assert_eq!(pinned.view_ask(ps, "rels", "hasPaper").unwrap(), ["p1"]);
    server.shutdown().unwrap();
}

/// View reads over the wire — from the maintained model (a refreshed
/// session) and from the version of a session pinned before a write —
/// answer the serial `Gkbms::view_tuples` rows, each joined by spaces,
/// in the same order. `links` is read at `inT`, two columns, over a KB
/// whose classified attribute links display with spaces
/// (`<p1 sender maria>`); `tagged` is a user rule with an integer
/// constant, so one column holds both symbols and integers, which the
/// value order puts after every symbol and the joined strings before.
#[test]
fn view_rows_on_the_wire_equal_the_serial_view_tuples() {
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(
        s,
        "TELL Person end\nTELL Paper with attribute sender : Person end\n\
         TELL maria in Person end\nTELL anna in Person end\n\
         TELL p1 in Paper with attribute sender : maria end",
    )
    .unwrap();
    let tagged = "tagged(X, 42) :- in_(X, \"Paper\").\ntagged(42, X) :- in_(X, \"Paper\").";
    c.register_view(s, "links", "").unwrap();
    c.register_view(s, "tagged", tagged).unwrap();
    c.refresh(s).unwrap();
    let reads = [("links", "inT"), ("tagged", "tagged")];
    let read_all = |c: &mut Client, s: u64| -> Vec<Vec<String>> {
        reads
            .iter()
            .map(|(view, pred)| c.view_ask(s, view, pred).unwrap())
            .collect()
    };

    // A second read of one state answers the same rows and sorts
    // nothing. Other tests in this binary read views too and the counter
    // is process-global, so a try whose scrapes bracket one of their
    // sorts is retried; a lost order would move the counter every try.
    let sorts = |c: &mut Client| {
        scrape(&c.metrics().unwrap(), "datalog_sorted_orders_built_total").unwrap_or(0.0)
    };
    let reread_sorts_nothing = |c: &mut Client, s: u64, want: &[Vec<String>]| {
        (0..20).any(|_| {
            let at = sorts(c);
            assert_eq!(read_all(c, s), want, "a second read of one state");
            sorts(c) == at
        })
    };

    let mentions_p2 = |rows: &[String]| rows.iter().any(|r| r.split(' ').any(|v| v == "p2"));
    let mut pinned = Client::connect(addr).unwrap();
    let (ps, pin) = pinned.hello().unwrap();
    let before = read_all(&mut c, s);
    assert!(
        reread_sorts_nothing(&mut c, s, &before),
        "re-sorted a state"
    );
    assert!(
        before[0]
            .iter()
            .any(|row| row.starts_with("<p1 sender maria> ")),
        "{:?}",
        before[0]
    );
    // Each write moves both models. A refreshed session sees each
    // change, however often the state before it was read; a session
    // pinned before them sees neither.
    c.tell(s, "TELL p2 in Paper with attribute sender : anna end")
        .unwrap();
    c.refresh(s).unwrap();
    let (told_session, told_at) = pinned.hello().unwrap();
    let told = read_all(&mut c, s);
    assert!(reread_sorts_nothing(&mut c, s, &told), "re-sorted a state");
    let told_from_pin = read_all(&mut pinned, ps);
    c.untell(s, "p2").unwrap();
    c.refresh(s).unwrap();
    let from_model = read_all(&mut c, s);
    let from_pin = read_all(&mut pinned, ps);
    for i in 0..reads.len() {
        assert!(mentions_p2(&told[i]), "the TELL reached {:?}", reads[i]);
        assert!(
            !mentions_p2(&from_model[i]),
            "the UNTELL reached {:?}",
            reads[i]
        );
        assert_eq!(told_from_pin[i], before[i], "{:?} at the pin", reads[i]);
    }
    pinned.bye(told_session).unwrap();
    pinned.bye(ps).unwrap();
    c.bye(s).unwrap();

    let served = server.shutdown().unwrap();
    let joined = |tuples: Vec<Vec<conceptbase::datalog::Value>>| -> Vec<String> {
        tuples
            .iter()
            .map(|t| {
                t.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    for (i, (view, pred)) in reads.into_iter().enumerate() {
        let serial = joined(served.view_tuples(view, pred).unwrap());
        assert_eq!(from_model[i], serial, "{view}.{pred} from the model");
        let at_pin = served
            .view(view)
            .unwrap()
            .eval_pinned(served.kb(), pin, pred);
        assert_eq!(
            from_pin[i],
            joined(at_pin.unwrap()),
            "{view}.{pred} at the pin"
        );
        assert_eq!(
            from_pin[i], before[i],
            "{view}.{pred}: the pin is the model it saw"
        );
        let at_tell = served
            .view(view)
            .unwrap()
            .eval_pinned(served.kb(), told_at, pred);
        assert_eq!(
            told[i],
            joined(at_tell.unwrap()),
            "{view}.{pred} after the TELL"
        );
    }
    assert_eq!(
        told[1][..2],
        ["p1 42".to_string(), "p2 42".to_string()],
        "symbols before integers"
    );
}

/// A view whose rule body holds a literal wider than the 32-bit
/// binding mask (one ~300-byte `RegisterView` frame) registers, is
/// maintained under TELL/UNTELL, answers what a from-scratch scan
/// evaluation answers — and leaves the connection serving. The
/// maintenance join used to shift its mask past 32 bits and panic the
/// connection thread.
#[test]
fn wide_literal_view_registers_and_maintains_over_the_wire() {
    use conceptbase::datalog::{seminaive, Program};
    use conceptbase::objectbase::query::{base_program, to_edb_at_store};

    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();
    let cs = vec!["c"; 32].join(", ");
    let rules = format!("w({cs}, X) :- in_(X, C).\nq(X) :- in_(X, C), w({cs}, X).");
    let done = c.register_view(s, "wide", &rules).unwrap();
    assert!(done.contains("registered view `wide`"), "{done}");

    c.tell(s, "TELL p2 in Paper end").unwrap();
    c.tell(s, "TELL p3 in Paper end").unwrap();
    c.untell(s, "p2").unwrap();
    c.refresh(s).unwrap();
    let got = c.view_ask(s, "wide", "q").unwrap();
    assert!(got.contains(&"p3".to_string()) && !got.contains(&"p2".to_string()));
    assert!(c.ping().is_ok(), "the connection must still be served");
    c.bye(s).unwrap();

    let served = server.shutdown().unwrap();
    let mut program = base_program();
    program.rules.extend(Program::parse(&rules).unwrap().rules);
    let edb = to_edb_at_store(served.kb(), served.kb().now()).unwrap();
    let (model, _) = seminaive::evaluate_scan(&program, &edb).unwrap();
    let mut want: Vec<String> = model.tuples("q").map(|t| t[0].to_string()).collect();
    want.sort();
    assert_eq!(got, want, "maintained view != recomputation");
}

/// The `Explain` wire op renders the evaluator's join plan and cost
/// estimate against the live KB — and extra rules sent with the
/// request are costed alongside the stored base.
#[test]
fn explain_renders_cost_estimates_over_the_wire() {
    let (server, addr) = start(quick_cfg());
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    c.tell(s, "TELL Paper end").unwrap();
    c.tell(s, "TELL p1 in Paper end").unwrap();

    // The stored base alone: the closure strata are in the plan.
    let plan = c.explain(s, "").unwrap();
    assert!(plan.contains("estimated cost"), "{plan}");
    assert!(plan.contains("inT"), "{plan}");
    assert!(plan.contains("total estimated cost"), "{plan}");

    // Extra rules ride along and show up in the rendered plan.
    let plan = c.explain(s, "reach(X, Y) :- attr(X, next, Y).").unwrap();
    assert!(plan.contains("reach"), "{plan}");
    assert!(plan.contains("estimated cost"), "{plan}");

    // Broken extra rules are typed rejections, not protocol errors.
    match c.explain(s, "p(X) :- q(X") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Rejected),
        other => panic!("unexpected {other:?}"),
    }

    // Admission linting is incremental: the second lint of the same
    // rules is served from the fingerprint cache.
    c.lint(s, "win(X) :- in_(X, \"Paper\").").unwrap();
    c.lint(s, "win(X) :- in_(X, \"Paper\").").unwrap();
    let text = c.metrics().unwrap();
    assert!(
        scrape(&text, "gkbms_lint_fingerprint_hits_total").unwrap_or(0.0) >= 1.0,
        "expected fingerprint-cache hits in scrape"
    );
    c.bye(s).unwrap();
    server.shutdown().unwrap();
}

/// One step of a generated client script.
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Tell,
    Untell,
    /// `ask p/Paper : <body>`, the body one of [`ask_body`]'s.
    Ask(u8),
    Show,
    Refresh,
    /// Register a fresh entity and map it by a decision.
    Execute,
    /// Retract the thread's latest effective decision.
    Retract,
    /// `object_history` of every entity and output of the thread's.
    History,
    /// `history`: the process view of the effective decisions.
    Process,
    /// `check`: the full consistency scan.
    Check,
    /// `holds`: whether the thread's latest name is a `Paper`.
    Holds,
    /// `browse instances Paper`.
    Browse,
    /// `applicable_decisions` of the thread's latest object.
    Applicable,
    /// `status`: the status view of the current objects.
    Status,
    /// `recall` of the thread's latest effective decision.
    Recall,
    /// Register one of [`SCRIPT_VIEWS`] (a second registration of a
    /// name is refused).
    RegisterView(u8),
    /// `view_ask` of one of [`VIEW_READS`].
    ViewAsk(u8),
    /// `lint` of a frame instantiating the thread's latest name.
    Lint,
    /// `explain` of the base program against the pin's cardinalities.
    Explain,
    /// `save` at the pin, to a file of the case's own.
    Save,
}

/// The views a script registers: a user rule over the closure, and a
/// stratified negation.
const SCRIPT_VIEWS: [(&str, &str); 2] = [
    ("va", "hasPaper(X) :- inT(X, \"Paper\")."),
    (
        "vb",
        "authored(X) :- attr(X, author, _A).\nanon(X) :- in_(X, \"Paper\"), not authored(X).",
    ),
];

/// The `(view, predicate)` reads a script makes.
const VIEW_READS: [(&str, &str); 3] = [("va", "hasPaper"), ("vb", "anon"), ("va", "in_")];

/// Weighted op pick: 3 TELL : 1 UNTELL : 2 ASK : 2 SHOW : 2 REFRESH :
/// 2 EXECUTE : 2 RETRACT : 2 HISTORY : 1 PROCESS : 1 CHECK : 1 HOLDS :
/// 1 BROWSE : 1 APPLICABLE : 1 STATUS : 1 RECALL : 1 REGISTER VIEW :
/// 2 VIEW ASK : 1 LINT : 1 EXPLAIN : 1 SAVE.
fn script_op() -> impl Strategy<Value = ScriptOp> {
    (0u8..29, 0u8..3).prop_map(|(n, body)| match n {
        0..=2 => ScriptOp::Tell,
        3 => ScriptOp::Untell,
        4..=5 => ScriptOp::Ask(body),
        6..=7 => ScriptOp::Show,
        8..=9 => ScriptOp::Refresh,
        10..=11 => ScriptOp::Execute,
        12..=13 => ScriptOp::Retract,
        14..=15 => ScriptOp::History,
        16 => ScriptOp::Process,
        17 => ScriptOp::Check,
        18 => ScriptOp::Holds,
        19 => ScriptOp::Browse,
        20 => ScriptOp::Applicable,
        21 => ScriptOp::Status,
        22 => ScriptOp::Recall,
        23 => ScriptOp::RegisterView(body),
        24..=25 => ScriptOp::ViewAsk(body),
        26 => ScriptOp::Lint,
        27 => ScriptOp::Explain,
        _ => ScriptOp::Save,
    })
}

/// The body of a scripted ASK over `p/Paper`: one that holds without
/// reading `p`, one that fails without reading it, and one on `p` that
/// names the thread's latest name — told, untold or never told, so it
/// is unbound at some pins.
fn ask_body(body: u8, latest: &str) -> String {
    match body {
        0 => "true".into(),
        1 => "Paper in Person".into(),
        _ => format!("not (p = {latest})"),
    }
}

/// What one pinned read observed, to be replayed at its watermark.
#[derive(Debug)]
enum Observed {
    /// `ask p/Paper : body`: the answers, or `None` for `Rejected`.
    Ask(String, Option<Vec<String>>),
    /// `show name`: the frame text, or `None` for `unknown object`.
    Show(String, Option<String>),
    /// `object_history name`: its rows, or `None` for `unknown`.
    History(String, Option<Vec<String>>),
    /// `history`: the process view's text.
    Process(String),
    /// `check`: the report's text.
    Check(String),
    /// `holds expr`: its truth, or `None` for a rejected name.
    Holds(String, Option<bool>),
    /// `browse instances Paper`: the tree's text.
    Browse(String),
    /// `applicable_decisions object`: its rows, or `None` for `unknown`.
    Applicable(String, Option<Vec<String>>),
    /// `status`: the table's text.
    Status(String),
    /// `recall decision`: its hits, or `None` for `unknown`.
    Recall(String, Option<Vec<(String, f64, bool)>>),
    /// A view registration, observed at the tick its reply names, or
    /// `None` when it was refused as a duplicate.
    Registered(String, Option<i64>),
    /// `view_ask view pred`: its rows, or `None` for `Rejected` (a view
    /// unknown at the pin).
    ViewAsk(String, String, Option<Vec<String>>),
    /// `lint src`: its diagnostics.
    Lint(String, Vec<conceptbase::server::proto::WireDiagnostic>),
    /// `explain`: the plan text.
    Explain(String),
    /// `save`: the file it wrote.
    Saved(PathBuf),
}

/// The serial replay of a server's committed history, advanced op by op
/// to the state a watermark names: every committed op moves the belief
/// clock, and a replayed op lands on the tick it had when served.
struct SerialTwin {
    twin: Gkbms,
    history: Vec<std::sync::Arc<[u8]>>,
    applied: usize,
}

impl SerialTwin {
    fn of(served: &mut Gkbms) -> SerialTwin {
        SerialTwin {
            twin: Gkbms::new().expect("fresh gkbms"),
            history: served.capture().history.iter().cloned().collect(),
            applied: 0,
        }
    }

    /// The twin at watermark `w`; watermarks must come in order.
    fn at(&mut self, w: i64) -> &Gkbms {
        while self.twin.kb().now() < w {
            let (seq, epoch, op) = decode_framed(&self.history[self.applied]).expect("a frame");
            self.applied += 1;
            self.twin
                .apply_replicated(seq, epoch, op)
                .expect("a committed op replays");
        }
        assert_eq!(self.twin.kb().now(), w, "a watermark between two commits");
        &self.twin
    }
}

/// A served Read's answer, or `None` for a typed `Rejected`.
fn unless_rejected<T>(read: Result<T, ClientError>) -> Option<T> {
    match read {
        Ok(answer) => Some(answer),
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Rejected, "{e:?}");
            None
        }
        Err(e) => panic!("{e:?}"),
    }
}

/// The `check` reply as the server renders it from `snap`.
fn check_at(snap: conceptbase::telos::Snapshot<'_>) -> String {
    let (violations, stats) = conceptbase::objectbase::consistency::check_full(snap);
    if violations.is_empty() {
        format!(
            "consistent ({} constraints over {} classes)",
            stats.constraints_evaluated, stats.classes_visited
        )
    } else {
        let lines: Vec<String> = violations.iter().map(ToString::to_string).collect();
        lines.join("\n")
    }
}

/// The process view as the `Record` reader finds it in `g`'s store at
/// tick `w`: the decisions executed by `w` and not retracted at it, in
/// execution order, each with its class's dimension, its inputs, its
/// outputs and its tool — rendered like the `history` reply.
fn process_view_at(g: &Gkbms, w: i64) -> String {
    use conceptbase::gkbms::record::Record;
    use conceptbase::modelbase::display::relational::Table;
    let snap = g.kb().snapshot_at(w);
    let reader = Record::over(snap);
    let mut table = Table::new(&["#", "decision", "dimension", "from", "to", "by"]);
    let decisions = g.records().iter().filter_map(|r| reader.decision(r.prop));
    let effective = decisions.filter(|r| reader.retracted_at(r.prop).is_none());
    for (i, r) in effective.enumerate() {
        let class = snap.lookup(&r.class).and_then(|c| reader.decision_class(c));
        let dimension = class.expect("the decision's class reads back").dimension;
        table.row(&[
            &(i + 1).to_string(),
            &r.name,
            &dimension.to_string(),
            &r.inputs.join(", "),
            &r.outputs.join(", "),
            r.tool.as_deref().unwrap_or("(manual)"),
        ]);
    }
    table.render()
}

/// A served KB with one mapping decision class the scripts execute.
fn decision_server() -> (Server, std::net::SocketAddr) {
    use conceptbase::gkbms::metamodel::kernel;
    use conceptbase::gkbms::{DecisionClass, DecisionDimension};
    let mut state = Gkbms::new().expect("fresh gkbms");
    state
        .define_decision_class(
            DecisionClass::new("MapDec", DecisionDimension::Mapping)
                .from_classes(&[kernel::TDL_ENTITY_CLASS])
                .to_classes(&[kernel::DBPL_REL]),
        )
        .expect("decision class");
    let server = Server::bind("127.0.0.1:0", state, quick_cfg()).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential concurrency property, over the wire: N client
    /// threads run random TELL/UNTELL/ASK/SHOW/REFRESH scripts, with
    /// decisions executed, retracted and traced by OBJECT_HISTORY and
    /// HISTORY, views registered, and CHECK, HOLDS, BROWSE, APPLICABLE
    /// DECISIONS, STATUS, RECALL, VIEW ASK, LINT, EXPLAIN and SAVE reads,
    /// concurrently; every answer a pinned session observed must be
    /// byte-identical to a retrospective read of the final state at
    /// that session's watermark — or, for STATUS, RECALL and VIEW ASK,
    /// which read what is published with the version, to the serial
    /// replay of the committed history up to it; a SAVE file loads into
    /// that replay's tick and believed set. A view registered
    /// after a session's pin is unknown at it, and each registration is
    /// in the replay at the tick its reply names. Each
    /// version's ASK closure is carried over from its predecessor's, so
    /// the sessions read carried closures, some of them while another
    /// session still pins the predecessor. Every told `Paper` violates its
    /// constraint, so a `check` sees which of them its version holds. An
    /// ASK draws its body from [`ask_body`], so a body the server
    /// evaluates once and one it evaluates per candidate both meet
    /// serial replay. Belief time is append-only with respect to pinned
    /// watermarks, so the final state *is* the serial replay of the
    /// committed interleaving.
    #[test]
    fn concurrent_interleavings_match_serial_replay_at_watermark(
        scripts in prop::collection::vec(
            prop::collection::vec(script_op(), 1..10),
            2..4,
        ),
    ) {
        use conceptbase::gkbms::metamodel::kernel;
        use conceptbase::server::WireDecision;
        let (server, addr) = decision_server();
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let saves = tmp(&format!("saves-{case}"));
        let _ = std::fs::remove_dir_all(&saves);
        std::fs::create_dir_all(&saves).unwrap();
        {
            let mut c = Client::connect(addr).unwrap();
            let (s, _) = c.hello().unwrap();
            c.tell(
                s,
                "TELL Person end\n\
                 TELL Paper with\n\
                   attribute author : Person\n\
                   constraint hasAuthor : $ forall p/Paper p.author defined $\n\
                 end",
            )
            .unwrap();
            c.bye(s).unwrap();
        }
        let workers: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(t, script)| {
                let saves = saves.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let (s, mut watermark) = c.hello().unwrap();
                    let mut told: Vec<String> = Vec::new();
                    // The thread's effective decisions and the objects
                    // its decisions read and wrote, latest last.
                    let (mut effective, mut objects) = (Vec::new(), Vec::new());
                    let mut next = 0usize;
                    let mut observations = Vec::new();
                    for op in script {
                        match op {
                            ScriptOp::Execute => {
                                let (entity, rel) = (format!("e_{t}_{next}"), format!("r_{t}_{next}"));
                                let decision = format!("d_{t}_{next}");
                                next += 1;
                                c.register_object(s, &entity, kernel::TDL_ENTITY_CLASS, "src")
                                    .unwrap();
                                c.execute(s, WireDecision::new("MapDec", &decision, "dev")
                                    .input(&entity)
                                    .output(&rel, kernel::DBPL_REL))
                                    .unwrap();
                                effective.push(decision);
                                objects.extend([entity, rel]);
                                // Pin it, as the shell does after a write:
                                // a later retraction must not show here.
                                let done = c.refresh(s).unwrap();
                                watermark = done
                                    .strip_prefix("watermark ")
                                    .expect("refresh reply shape")
                                    .parse()
                                    .expect("watermark integer");
                            }
                            ScriptOp::Retract => {
                                if let Some(decision) = effective.pop() {
                                    c.retract_decision(s, &decision).unwrap();
                                }
                            }
                            ScriptOp::History => {
                                for name in &objects {
                                    let rows = match c.object_history(s, name) {
                                        Ok(rows) => Some(rows),
                                        Err(ClientError::Server(e)) => {
                                            assert_eq!(e.code, ErrorCode::Rejected, "{e:?}");
                                            None
                                        }
                                        Err(e) => panic!("object_history {name}: {e:?}"),
                                    };
                                    let seen = Observed::History(name.clone(), rows);
                                    observations.push((watermark, seen));
                                }
                            }
                            ScriptOp::Process => {
                                let seen = Observed::Process(c.history(s).unwrap());
                                observations.push((watermark, seen));
                            }
                            ScriptOp::Check => {
                                let seen = Observed::Check(c.check(s).unwrap());
                                observations.push((watermark, seen));
                            }
                            ScriptOp::Holds => {
                                let expr = format!("q_{t}_{} in Paper", next.saturating_sub(1));
                                let truth = unless_rejected(c.holds(s, &expr));
                                observations.push((watermark, Observed::Holds(expr, truth)));
                            }
                            ScriptOp::Browse => {
                                let tree = c.browse(s, "instances", "Paper").unwrap();
                                observations.push((watermark, Observed::Browse(tree)));
                            }
                            ScriptOp::Applicable => {
                                let object = objects
                                    .iter()
                                    .rev()
                                    .find(|o: &&String| o.starts_with("e_"))
                                    .cloned()
                                    .unwrap_or_else(|| format!("e_{t}_{next}"));
                                let rows = unless_rejected(c.applicable_decisions(s, &object));
                                observations.push((watermark, Observed::Applicable(object, rows)));
                            }
                            ScriptOp::Status => {
                                observations.push((watermark, Observed::Status(c.status(s).unwrap())));
                            }
                            ScriptOp::Recall => {
                                let decision = effective
                                    .last()
                                    .cloned()
                                    .unwrap_or_else(|| format!("d_{t}_{next}"));
                                let hits = unless_rejected(c.recall(s, &decision, 5));
                                observations.push((watermark, Observed::Recall(decision, hits)));
                            }
                            ScriptOp::RegisterView(which) => {
                                let (name, rules) = SCRIPT_VIEWS[usize::from(which) % 2];
                                let tick = unless_rejected(c.register_view(s, name, rules))
                                    .map(|done| {
                                        // `… as of tick N`, then any CB013 warnings.
                                        let first = done.lines().next().expect("reply shape");
                                        let tick = first.rsplit(' ').next().expect("reply shape");
                                        tick.parse().expect("registration tick")
                                    });
                                let seen = Observed::Registered(name.to_string(), tick);
                                observations.push((tick.unwrap_or(watermark), seen));
                            }
                            ScriptOp::ViewAsk(which) => {
                                let (view, pred) = VIEW_READS[usize::from(which)];
                                let rows = unless_rejected(c.view_ask(s, view, pred));
                                let seen = Observed::ViewAsk(view.into(), pred.into(), rows);
                                observations.push((watermark, seen));
                            }
                            ScriptOp::Lint => {
                                let latest = format!("q_{t}_{}", next.saturating_sub(1));
                                let src = format!("TELL z_{t} in {latest} end");
                                let diags = c.lint(s, &src).unwrap();
                                observations.push((watermark, Observed::Lint(src, diags)));
                            }
                            ScriptOp::Explain => {
                                let plan = c.explain(s, "").unwrap();
                                observations.push((watermark, Observed::Explain(plan)));
                            }
                            ScriptOp::Save => {
                                let path = saves.join(format!("{t}-{}", observations.len()));
                                c.save(s, path.to_str().unwrap()).unwrap();
                                observations.push((watermark, Observed::Saved(path)));
                            }
                            ScriptOp::Tell => {
                                let name = format!("q_{t}_{next}");
                                next += 1;
                                c.tell(s, &format!("TELL {name} in Paper end")).unwrap();
                                told.push(name);
                            }
                            ScriptOp::Untell => {
                                if let Some(name) = told.pop() {
                                    c.untell(s, &name).unwrap();
                                }
                            }
                            ScriptOp::Refresh => {
                                let done = c.refresh(s).unwrap();
                                watermark = done
                                    .strip_prefix("watermark ")
                                    .expect("refresh reply shape")
                                    .parse()
                                    .expect("watermark integer");
                            }
                            ScriptOp::Ask(body) => {
                                let latest = format!("q_{t}_{}", next.saturating_sub(1));
                                let body = ask_body(body, &latest);
                                let answers =
                                    unless_rejected(c.ask(s, "p", "Paper", &body)).map(|r| r.answers);
                                observations.push((watermark, Observed::Ask(body, answers)));
                            }
                            ScriptOp::Show => {
                                // The thread's latest name, told or
                                // untold by now — or never told at all.
                                let name = format!("q_{t}_{}", next.saturating_sub(1));
                                let frame = match c.show(s, &name) {
                                    Ok(text) => Some(text),
                                    Err(ClientError::Server(e)) => {
                                        assert_eq!(e.code, ErrorCode::Rejected, "{e:?}");
                                        None
                                    }
                                    Err(e) => panic!("show {name}: {e:?}"),
                                };
                                observations.push((watermark, Observed::Show(name, frame)));
                            }
                        }
                    }
                    c.bye(s).unwrap();
                    observations
                })
            })
            .collect();
        let mut observations = Vec::new();
        for w in workers {
            observations.extend(w.join().expect("client thread"));
        }
        prop_assert_eq!(server.store_versions_live(), 1, "sessions quiesced");
        let mut final_state = server.shutdown().unwrap();
        // The design index a watermark read is replayed serially.
        let mut twin = SerialTwin::of(&mut final_state);
        observations.sort_by_key(|(w, _)| *w);
        for (w, seen) in observations {
            match seen {
                Observed::Registered(name, Some(tick)) => {
                    let registered = twin.at(tick).view(&name).map(|v| v.registered());
                    prop_assert_eq!(registered, Some(tick), "view {} registered", name);
                }
                Observed::Registered(name, None) => {
                    prop_assert!(final_state.view(&name).is_some(), "a refused {} exists", name);
                }
                Observed::ViewAsk(view, pred, seen) => {
                    let g = twin.at(w);
                    let replayed = g.view_tuples(&view, &pred).ok().map(|rows| {
                        rows.iter()
                            .map(|row| row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" "))
                            .collect()
                    });
                    prop_assert_eq!(&replayed, &seen, "view {}.{} diverged at watermark {}", view, pred, w);
                }
                Observed::Lint(src, seen) => {
                    let memo = std::sync::Mutex::default();
                    let snap = final_state.kb().snapshot_at(w);
                    let replayed: Vec<_> = conceptbase::gkbms::system::lint_src(snap, &memo, &src)
                        .iter()
                        .map(conceptbase::server::proto::WireDiagnostic::from_diagnostic)
                        .collect();
                    prop_assert_eq!(&replayed, &seen, "lint {} diverged at watermark {}", src, w);
                }
                Observed::Saved(path) => {
                    let loaded = Gkbms::load(&path).expect("a saved file loads");
                    let state = |g: &Gkbms| {
                        let believed: Vec<_> = g.kb().snapshot().believed().collect();
                        (g.kb().now(), believed)
                    };
                    prop_assert_eq!(state(&loaded), state(twin.at(w)), "save diverged at watermark {}", w);
                }
                Observed::Explain(seen) => {
                    let ctx = conceptbase::analysis::LintContext::at(final_state.kb().snapshot_at(w));
                    let replayed = conceptbase::analysis::explain_source("", &ctx).unwrap();
                    prop_assert_eq!(&replayed, &seen, "explain diverged at watermark {}", w);
                }
                Observed::Status(seen) => {
                    let g = twin.at(w);
                    let replayed =
                        conceptbase::gkbms::navigate::status_view(g.kb().snapshot(), g.records())
                            .render();
                    prop_assert_eq!(&replayed, &seen, "status diverged at watermark {}", w);
                }
                Observed::Recall(decision, seen) => {
                    let g = twin.at(w);
                    let replayed = conceptbase::gkbms::recall::recall_similar(
                        g.kb().snapshot(),
                        g.records(),
                        &decision,
                        5,
                    )
                    .ok()
                    .map(|hits| {
                        hits.into_iter()
                            .map(|h| (h.decision, h.score, h.retracted))
                            .collect()
                    });
                    prop_assert_eq!(&replayed, &seen, "recall {} diverged at watermark {}", decision, w);
                }
                Observed::Ask(body, seen) => {
                    let snap = final_state.kb().snapshot_at(w);
                    let replayed = conceptbase::objectbase::query::ask(&snap, "p", "Paper", &body)
                        .ok()
                        .map(|mut names| {
                            names.sort();
                            names
                        });
                    prop_assert_eq!(&replayed, &seen, "ask {} diverged at watermark {}", body, w);
                }
                Observed::Show(name, seen) => {
                    let snap = final_state.kb().snapshot_at(w);
                    let replayed = snap.lookup(&name).map(|id| {
                        conceptbase::objectbase::transform::frame_at(snap, id)
                            .unwrap()
                            .to_string()
                    });
                    prop_assert_eq!(&replayed, &seen, "show {} diverged at watermark {}", name, w);
                }
                Observed::History(name, seen) => {
                    let snap = final_state.kb().snapshot_at(w);
                    let replayed = conceptbase::gkbms::navigate::object_history(snap, &name)
                        .ok()
                        .map(|rows| {
                            rows.into_iter().map(|(tick, event)| format!("t{tick}: {event}")).collect()
                        });
                    prop_assert_eq!(&replayed, &seen, "history of {} diverged at watermark {}", name, w);
                }
                Observed::Process(seen) => {
                    let replayed = process_view_at(&final_state, w);
                    prop_assert_eq!(&replayed, &seen, "history diverged at watermark {}", w);
                }
                Observed::Check(seen) => {
                    let replayed = check_at(final_state.kb().snapshot_at(w));
                    prop_assert_eq!(&replayed, &seen, "check diverged at watermark {}", w);
                }
                Observed::Holds(expr, seen) => {
                    use conceptbase::telos::assertion;
                    let snap = final_state.kb().snapshot_at(w);
                    let parsed = assertion::parse(&expr).unwrap();
                    let replayed = assertion::eval(&snap, &parsed, &mut assertion::Env::new()).ok();
                    prop_assert_eq!(replayed, seen, "holds {} diverged at watermark {}", expr, w);
                }
                Observed::Browse(seen) => {
                    let snap = final_state.kb().snapshot_at(w);
                    let replayed = conceptbase::gkbms::navigate::browse(snap, "instances", "Paper")
                        .unwrap();
                    prop_assert_eq!(&replayed, &seen, "browse diverged at watermark {}", w);
                }
                Observed::Applicable(object, seen) => {
                    let snap = final_state.kb().snapshot_at(w);
                    let replayed = conceptbase::gkbms::system::applicable_decisions(snap, &object)
                        .ok()
                        .map(|rows| {
                            rows.into_iter()
                                .map(|(class, tools)| {
                                    if tools.is_empty() {
                                        class
                                    } else {
                                        format!("{class} [{}]", tools.join(", "))
                                    }
                                })
                                .collect()
                        });
                    prop_assert_eq!(&replayed, &seen, "applicable decisions of {} diverged at watermark {}", object, w);
                }
            }
        }
        std::fs::remove_dir_all(&saves).unwrap();
    }
}

/// A peer that stalls *mid-frame* (sends a partial response header and
/// goes quiet) also times out instead of hanging the client.
#[test]
fn mid_frame_stall_yields_typed_timeout() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Send half a frame header, then stall.
        stream.write_all(&[9, 0]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_secs(10));
    });

    let mut c = Client::connect_with_timeout(addr, Duration::from_millis(300)).unwrap();
    let started = Instant::now();
    match c.ping() {
        Err(ClientError::Timeout(_)) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5));
    drop(c);
    drop(stall);
}
