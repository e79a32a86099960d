//! Integration: the persistent knowledge base. A KB reaches disk one
//! way — as an op journal (`Gkbms::recover` = snapshot + WAL tail) —
//! and what the object processor told must come back from it intact.

use conceptbase::gkbms::{Gkbms, GkbmsError};
use conceptbase::objectbase::transform::frame_of;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cb-int-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// Closes a journaled GKBMS the way a clean shutdown does.
fn close(mut g: Gkbms) {
    g.journal_mut().unwrap().sync().unwrap();
}

#[test]
fn frames_survive_reopen() {
    let dir = tmp("frames");
    let (mut g, _) = Gkbms::recover(&dir).unwrap();
    g.tell_src(
        "TELL TDL_EntityClass isA Class end\n\
         TELL Person end\n\
         TELL Paper in TDL_EntityClass with attribute author : Person end\n\
         TELL Invitation in TDL_EntityClass isA Paper with\n\
           attribute sender : Person\n\
           constraint hasSender : $ forall i/Invitation i.sender defined $\n\
         end",
    )
    .unwrap();
    close(g);
    let (g, report) = Gkbms::recover(&dir).unwrap();
    assert_eq!(report.replayed_ops, 1);
    let kb = g.kb();
    let invitation = kb.lookup("Invitation").unwrap();
    let back = frame_of(kb, invitation).unwrap();
    assert_eq!(back.classes, vec!["TDL_EntityClass"]);
    assert_eq!(back.isa, vec!["Paper"]);
    assert_eq!(back.attrs.len(), 1);
    assert_eq!(back.constraints.len(), 1);
    // The reopened KB is still axiom-clean and queryable.
    assert!(conceptbase::telos::axioms::check_all(kb.snapshot()).is_empty());
    let paper = kb.lookup("Paper").unwrap();
    assert!(kb.snapshot().isa_ancestors(invitation).contains(&paper));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn untold_history_survives_reopen() {
    let dir = tmp("history");
    let (mut g, _) = Gkbms::recover(&dir).unwrap();
    g.tell_src("TELL DBPL_Rel end TELL InvitationRel in DBPL_Rel end")
        .unwrap();
    let t_alive = g.kb().now();
    // Untelling the class cascades to the classification link only.
    g.untell("DBPL_Rel").unwrap();
    close(g);
    let (g, _) = Gkbms::recover(&dir).unwrap();
    let kb = g.kb();
    let a = kb.lookup("InvitationRel").unwrap();
    assert!(
        kb.snapshot().classes_of(a).is_empty(),
        "link no longer believed"
    );
    assert_eq!(
        kb.snapshot_at(t_alive).classes_of(a).len(),
        1,
        "temporal query sees it"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn many_objects_roundtrip_with_identical_ids_and_clock() {
    let dir = tmp("bulk");
    let (mut g, _) = Gkbms::recover(&dir).unwrap();
    g.tell_src("TELL DesignObjectToken end").unwrap();
    for batch in 0..10 {
        let src: String = (batch * 50..(batch + 1) * 50)
            .map(|i| format!("TELL obj{i} in DesignObjectToken end\n"))
            .collect();
        g.tell_src(&src).unwrap();
    }
    g.untell("obj7").unwrap();
    let names = ["DesignObjectToken", "obj0", "obj8", "obj250", "obj499"];
    let ids_before: Vec<_> = names.iter().map(|n| g.kb().lookup(n)).collect();
    let (len_before, now_before) = (g.kb().len(), g.kb().now());
    close(g);
    let (g, report) = Gkbms::recover(&dir).unwrap();
    assert_eq!(report.replayed_ops, 12);
    let kb = g.kb();
    let class = kb.lookup("DesignObjectToken").unwrap();
    assert_eq!(kb.snapshot().instances_of(class).len(), 499);
    // Replay rebuilds the very same proposition base: same ids for the
    // same names, same size, same belief tick.
    let ids_after: Vec<_> = names.iter().map(|n| kb.lookup(n)).collect();
    assert_eq!(ids_after, ids_before);
    assert!(ids_after.iter().all(Option::is_some));
    assert_eq!((kb.len(), kb.now()), (len_before, now_before));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_refuses_a_regular_file() {
    // E.g. a proposition log written by a pre-journal cbshell.
    let path = tmp("notdir");
    std::fs::write(&path, b"not a journal").unwrap();
    let err = match Gkbms::recover(&path) {
        Ok(_) => panic!("a regular file is not a journal"),
        Err(e) => e,
    };
    assert!(matches!(&err, GkbmsError::NotAJournal(p) if p == &path));
    let msg = err.to_string();
    assert!(msg.contains(path.to_str().unwrap()), "{msg}");
    assert!(msg.contains("directory"), "{msg}");
    assert!(msg.contains("snapshot") && msg.contains("wal"), "{msg}");
    assert_eq!(std::fs::read(&path).unwrap(), b"not a journal", "untouched");
    std::fs::remove_file(&path).unwrap();
}

/// Runs the `cbshell` binary on a piped script; returns (stdout, stderr, ok).
fn cbshell(args: &[&str], script: &str) -> (String, String, bool) {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbshell"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A child that rejects its arguments exits without reading stdin;
    // losing that race is a broken pipe, and means it has already
    // answered — status and stderr below say what.
    match child.stdin.take().unwrap().write_all(script.as_bytes()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        written => written.unwrap(),
    }
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        out.status.success(),
    )
}

/// `text` without the request counter of its `stats` lines, which
/// counts every command a session ran.
fn without_request_counts(text: &str) -> String {
    let line = |l: &str| {
        let fields = l.split(", ").filter(|f| !f.ends_with(" requests"));
        fields.collect::<Vec<_>>().join(", ")
    };
    text.lines().map(line).collect::<Vec<_>>().join("\n")
}

#[test]
fn local_shell_and_server_share_one_journal_format() {
    use conceptbase::server::{Client, Config, Server};
    let dir = tmp("shell");
    let d = dir.to_str().unwrap();
    const READS: &str = "show Invitation\nask p/Paper : true\nstats\n";
    let (first, _, ok) = cbshell(
        &["--journal", d],
        &format!(
            "tell Paper end\ntell Invitation isA Paper end\ntell inv1 in Invitation end\n\
             tell inv2 in Invitation end\nuntell inv2\n{READS}quit\n"
        ),
    );
    assert!(ok, "{first}");
    let answers = first.split_once("untold `inv2`").expect("untell ack").1;
    let answers = answers.split_once('\n').expect("one line").1;
    assert!(answers.contains("isA Paper") && answers.contains("inv1"));
    assert!(!answers.contains("inv2"), "{answers}");
    // A second session (ended by EOF, not `quit`) sees the same frame,
    // the same answers and the same belief tick.
    let (second, _, ok) = cbshell(&["--journal", d], READS);
    assert!(ok, "{second}");
    assert_eq!(
        without_request_counts(&second),
        without_request_counts(answers)
    );
    // What `cbshell --listen --journal <dir>` does with that directory.
    let (g, report) = Gkbms::recover(&dir).unwrap();
    assert_eq!(report.replayed_ops, 5);
    let server = Server::bind("127.0.0.1:0", g, Config::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (session, _) = client.hello().unwrap();
    let reply = client.ask(session, "p", "Paper", "true").unwrap();
    assert_eq!(reply.answers, vec!["inv1"]);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A script that reaches every kind of command: writes, the display
/// views, the consistency check, the design views, a maintained view,
/// queries and the session's statistics.
const EVERY_KIND: &str = "tell Person end
tell Paper end
tell Invitation isA Paper with attribute sender : Person end
tell inv1 in Invitation end
isa Paper
instances Paper
attrs Invitation
check
history
status
\\view closure
\\viewask closure inT
ask p/Paper : true
holds inv1 in Paper
show inv1
stats
";

/// The lines a `cbshell --listen` child prints.
type ServerLog = std::io::Lines<std::io::BufReader<std::process::ChildStdout>>;

/// Starts `cbshell --listen` over `dir` on a free loopback port; returns
/// the child, the address it reported and the rest of what it prints.
fn listen_on(dir: &str) -> (std::process::Child, String, ServerLog) {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbshell"))
        .args(["--listen", &format!("127.0.0.1:{port}"), "--journal", dir])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("the server reports its address")
            .unwrap();
        if let Some(addr) = line.strip_prefix("gkbms: listening on ") {
            break addr.to_string();
        }
    };
    (child, addr, lines)
}

/// The shell has one interpreter: a script gives the same bytes run
/// locally and run against a served KB.
#[test]
fn local_and_connected_shells_answer_a_script_byte_identically() {
    let (local_dir, served_dir) = (tmp("script-local"), tmp("script-served"));
    let (local, err, ok) = cbshell(&["--journal", local_dir.to_str().unwrap()], EVERY_KIND);
    assert!(ok, "{local}{err}");
    let (mut server, addr, mut log) = listen_on(served_dir.to_str().unwrap());
    let (served, err, ok) = cbshell(&["--connect", &addr], EVERY_KIND);
    assert!(ok, "{served}{err}");
    let (_, _, ok) = cbshell(&["--connect", &addr], "shutdown\n");
    assert!(ok);
    assert_eq!(log.next().unwrap().unwrap(), "gkbms: stopped");
    assert!(server.wait().unwrap().success());
    assert_eq!(local, served);
    for needle in [
        "`- Invitation",
        "sender",
        "consistent",
        "inv1 Paper",
        "session 1:",
    ] {
        assert!(local.contains(needle), "{needle}: {local}");
    }
    std::fs::remove_dir_all(&local_dir).unwrap();
    std::fs::remove_dir_all(&served_dir).unwrap();
}

/// A local shell serves its KB to itself alone: while it runs it owns
/// no TCP socket, so there is no port another process could connect
/// to.
#[cfg(target_os = "linux")]
#[test]
fn a_local_shell_owns_no_tcp_socket() {
    use std::io::{BufRead, Write};
    use std::process::{Command, Stdio};
    let dir = tmp("private");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbshell"))
        .args(["--journal", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"tell Paper end\n").unwrap();
    let mut answer = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut answer)
        .unwrap();
    assert!(answer.starts_with("told"), "{answer}");
    // The shell is serving now. Its sockets are the `socket:[inode]`
    // links of its fd table; no TCP table row may name one of them.
    let proc = format!("/proc/{}", child.id());
    let sockets: Vec<String> = std::fs::read_dir(format!("{proc}/fd"))
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter_map(|link| {
            let inode = link.to_str()?.strip_prefix("socket:[")?.strip_suffix(']')?;
            Some(inode.to_string())
        })
        .collect();
    assert!(
        !sockets.is_empty(),
        "the shell reaches its server by socket"
    );
    for table in ["tcp", "tcp6"] {
        let rows = std::fs::read_to_string(format!("{proc}/net/{table}")).unwrap_or_default();
        for row in rows.lines().skip(1) {
            let inode = row.split_whitespace().nth(9).unwrap();
            assert!(!sockets.iter().any(|s| s == inode), "{table}: {row}");
        }
    }
    drop(stdin);
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shell_rejects_a_positional_path_and_a_file_journal() {
    let path = tmp("oldlog");
    std::fs::write(&path, b"pre-journal proposition log").unwrap();
    let p = path.to_str().unwrap();
    let (_, err, ok) = cbshell(&[p], "stats\n");
    assert!(!ok);
    assert!(
        err.contains("usage") && err.contains("--journal <dir>"),
        "{err}"
    );
    let (_, err, ok) = cbshell(&["--journal", p], "stats\n");
    assert!(!ok);
    assert!(err.contains(p) && err.contains("not a journal"), "{err}");
    assert!(err.contains("hint:"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// A `save` file written before the history became the committed op
/// stream (PR 16: definitions, registrations, events by sequence
/// number, nogoods, views — in that order) is still a replayable
/// history: same record format, it loads into the state it was saved
/// from. The fixture is that file, hex-encoded.
#[test]
fn a_save_file_from_the_category_log_era_still_loads() {
    let hex = include_str!("fixtures/history/pr16_save.hex").trim();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect();
    let path = tmp("pr16-save");
    std::fs::write(&path, bytes).unwrap();
    let g = Gkbms::load(&path).expect("an old save file must load");
    assert_eq!(g.kb().snapshot().believed_count(), 154);
    assert_eq!(g.current_objects(), ["Invitation", "Minutes"]);
    let retracted: Vec<_> = g
        .records()
        .iter()
        .map(|r| (&*r.record.name, r.retracted))
        .collect();
    assert_eq!(retracted, [("mapInvitations", true), ("mapMinutes", true)]);
    assert_eq!(g.nogoods(), [["mapInvitations", "mapMinutes"]]);
    let papers =
        conceptbase::objectbase::query::ask(&g.kb().snapshot(), "p", "Paper", "true").unwrap();
    assert_eq!(papers, ["kept", "late"]);
    assert_eq!(g.view_tuples("closure", "tagged").unwrap().len(), 30);
    std::fs::remove_file(&path).unwrap();
}
