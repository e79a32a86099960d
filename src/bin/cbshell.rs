//! `cbshell` — an interactive shell over the proposition and object
//! processors, in the spirit of ConceptBase's dialog manager.
//!
//! ```sh
//! cargo run --bin cbshell                       # in-memory KB
//! cargo run --bin cbshell -- --journal kbdir    # persistent KB
//! echo 'ask p/Paper : true' | cargo run --bin cbshell
//! cargo run --bin cbshell -- --listen 127.0.0.1:4711   # serve a KB
//! cargo run --bin cbshell -- --listen 127.0.0.1:4711 --journal kbdir \
//!     --fsync group:2 --checkpoint-every 1000          # durable server
//! cargo run --bin cbshell -- --listen 127.0.0.1:4712 --journal replica \
//!     --follow 127.0.0.1:4711 --max-lag 100            # read replica
//! cargo run --bin cbshell -- --connect 127.0.0.1:4711  # talk to one
//! ```
//!
//! With `--journal <dir>` the KB — local or served — recovers from
//! `<dir>` (snapshot plus WAL tail) and journals every committed
//! mutation; it is the one on-disk format, so a directory written by a
//! local shell can be served with `--listen` and vice versa. The local
//! shell fsyncs the journal when it quits; the server journals before
//! it acknowledges, under the durability policy `--fsync` picks
//! (`always`, `group[:<ms>]`, `none`), and `--checkpoint-every <n>`
//! compacts the WAL into a fresh snapshot after every `n` journaled ops.
//!
//! With `--follow <addr>` the server starts as a read replica of the
//! leader at `<addr>`: it subscribes with its applied position, applies
//! the shipped log, serves reads at its applied watermark, and redirects
//! writes to the leader. `--max-lag <n>` rejects reads outright once the
//! replica falls more than `n` ops behind. `\promote` (connected mode)
//! turns a follower into a writable leader under a new sequence epoch.
//!
//! Commands (one per line; frames may span lines until `end`):
//!
//! ```text
//! tell <frame…> end        TELL a frame
//! untell <name>            UNTELL an object (cascading)
//! ask <var>/<class> : <expr>   open query
//! holds <expr>             closed query
//! show <name>              the object as a frame
//! isa <name>               the specialization tree below <name>
//! instances <name>         the classification tree below <name>
//! attrs <name>             relational display of the attributes
//! check                    full consistency check
//! stats                    KB statistics
//! \stats                   index probes / tuples scanned of the last ASK
//! \metrics                 process metrics (Prometheus text format)
//! \lint <file>             statically analyze a script without admitting it
//! \explain [rules…]        join plan + cost estimate of the rule base
//! help / quit
//! ```
//!
//! Connected mode additionally understands `refresh` (re-pin the
//! session snapshot), `history`, `status`, `save <path>`,
//! `load <path>`, `\checkpoint` (compact the server journal),
//! `\replstatus` (replication role and lag), `\promote` (make a
//! follower the writable leader),
//! `\view <name> [: <rules>]` (register a materialized deductive view,
//! maintained incrementally under TELL/UNTELL),
//! `\viewask <name> <pred>` (read one predicate of a view, snapshot
//! pinned at the session watermark),
//! `\register <name> <class> <source>` (register a design object),
//! `\explain [rules…]` (the evaluator's join plan and cost estimate,
//! via the `Explain` wire op), and
//! `shutdown`; reads are snapshot-isolated at the session watermark,
//! and the shell refreshes automatically after its own successful
//! writes so they stay visible.
//!
//! When a script is piped in (non-interactive), any `error:` response
//! makes the process exit non-zero, so CI can assert on scripts.

use conceptbase::gkbms::{Gkbms, GkbmsError, RecoveryReport};
use conceptbase::modelbase::BrowseSession;
use conceptbase::objectbase::consistency::check_full;
use conceptbase::objectbase::query::ask_with_stats;
use conceptbase::objectbase::transform::frame_of;
use conceptbase::server::{Client, ClientError, Config, Server};
use conceptbase::telos::assertion;
use std::io::{BufRead, IsTerminal, Write};

/// Local-mode shell state: the GKBMS (writes go through it so a
/// journaled one logs them; reads go to its KB) plus the counters of
/// the last ASK.
struct Shell {
    g: Gkbms,
    last_ask: Option<(usize, usize)>, // (index_probes, tuples_scanned)
}

/// Executes one complete command line; returns the response text or
/// `None` on `quit`.
fn dispatch(shell: &mut Shell, line: &str) -> Option<String> {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    let g = &mut shell.g;
    let out = match cmd {
        "" => String::new(),
        "quit" | "exit" => return None,
        "help" => "commands: tell untell ask holds show isa instances attrs check stats \\stats \
             \\metrics \\lint \\explain quit"
            .to_string(),
        "tell" => {
            let before = g.kb().len();
            match g.tell_src(&format!("TELL {rest}")) {
                Err(e) => format!("error: {e}"),
                Ok(n) => format!("ok: {n} object(s) ({} propositions)", g.kb().len() - before),
            }
        }
        "untell" => match g.untell(rest) {
            Err(e) => format!("error: {e}"),
            Ok(untold) => format!("ok: {untold} propositions untold"),
        },
        "ask" => {
            // ask <var>/<class> : <expr>
            let parts: Option<(&str, &str)> = rest.split_once(':');
            match parts {
                None => "usage: ask <var>/<class> : <expr>".to_string(),
                Some((binding, expr)) => match binding.trim().split_once('/') {
                    None => "usage: ask <var>/<class> : <expr>".to_string(),
                    Some((var, class)) => {
                        match ask_with_stats(g.kb(), var.trim(), class.trim(), expr.trim()) {
                            Err(e) => format!("error: {e}"),
                            Ok((hits, stats)) => {
                                shell.last_ask = Some((stats.index_probes, stats.tuples_scanned));
                                if hits.is_empty() {
                                    "no answers".to_string()
                                } else {
                                    hits.join("\n")
                                }
                            }
                        }
                    }
                },
            }
        }
        "holds" => match assertion::parse(rest) {
            Err(e) => format!("error: {e}"),
            Ok(expr) => match assertion::eval(g.kb(), &expr, &mut assertion::Env::new()) {
                Err(e) => format!("error: {e}"),
                Ok(v) => v.to_string(),
            },
        },
        "show" => match g.kb().lookup(rest) {
            None => format!("error: unknown object `{rest}`"),
            Some(id) => match frame_of(g.kb(), id) {
                Err(e) => format!("error: {e}"),
                Ok(frame) => frame.to_string(),
            },
        },
        "isa" | "instances" => match BrowseSession::start(g.kb(), rest) {
            Err(e) => format!("error: {e}"),
            Ok(session) => {
                if cmd == "isa" {
                    session.isa_tree()
                } else {
                    session.instance_tree()
                }
            }
        },
        "attrs" => match BrowseSession::start(g.kb(), rest) {
            Err(e) => format!("error: {e}"),
            Ok(session) => session.attribute_table().render(),
        },
        "check" => {
            let (violations, stats) = check_full(g.kb());
            if violations.is_empty() {
                format!(
                    "consistent ({} constraints over {} classes)",
                    stats.constraints_evaluated, stats.classes_visited
                )
            } else {
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            }
        }
        "stats" => format!(
            "propositions: {} total, {} believed; belief tick: {}",
            g.kb().len(),
            g.kb().believed_count(),
            g.kb().now()
        ),
        "\\stats" => match shell.last_ask {
            None => "no ASK yet".to_string(),
            Some((probes, scanned)) => {
                format!("last ask: {probes} index probes, {scanned} tuples scanned")
            }
        },
        "\\metrics" => conceptbase::obs::render_prometheus(),
        "\\lint" => {
            if rest.is_empty() {
                "usage: \\lint <file>".to_string()
            } else {
                match std::fs::read_to_string(rest) {
                    Err(e) => format!("error: cannot read {rest}: {e}"),
                    Ok(src) => conceptbase::analysis::render(rest, &src, &g.lint_src(&src))
                        .trim_end()
                        .to_string(),
                }
            }
        }
        // \explain [rules…] — the evaluator's join plan and cost
        // estimate for the base program, the stored rules, and any
        // extra inline rules.
        "\\explain" => match g.explain_src(rest) {
            Ok(plan) => plan.trim_end().to_string(),
            Err(e) => format!("error: {e}"),
        },
        other => format!("unknown command `{other}` (try `help`)"),
    };
    Some(out)
}

/// Executes one command against a remote server; `None` on `quit`.
fn dispatch_remote(client: &mut Client, session: u64, line: &str) -> Option<String> {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    let text = |r: Result<String, ClientError>| match r {
        Ok(t) => t,
        Err(e) => format!("error: {e}"),
    };
    // The session's reads are pinned at its watermark; refresh after a
    // successful write so the shell user sees their own work.
    let write_then_refresh = |client: &mut Client, r: Result<String, ClientError>| match r {
        Ok(t) => {
            let _ = client.refresh(session);
            t
        }
        Err(e) => format!("error: {e}"),
    };
    let out = match cmd {
        "" => String::new(),
        "quit" | "exit" => {
            let _ = client.bye(session);
            return None;
        }
        "help" => "commands: tell untell ask holds show refresh history status \\stats \
                   \\metrics \\lint \\explain \\view \\viewask \\recall \\register \
                   \\checkpoint \\replstatus \\promote save load shutdown quit"
            .to_string(),
        "tell" => {
            let r = client.tell(session, &format!("TELL {rest}"));
            write_then_refresh(client, r)
        }
        "untell" => {
            let r = client.untell(session, rest);
            write_then_refresh(client, r)
        }
        "ask" => match rest.split_once(':') {
            None => "usage: ask <var>/<class> : <expr>".to_string(),
            Some((binding, expr)) => match binding.trim().split_once('/') {
                None => "usage: ask <var>/<class> : <expr>".to_string(),
                Some((var, class)) => {
                    match client.ask(session, var.trim(), class.trim(), expr.trim()) {
                        Err(e) => format!("error: {e}"),
                        Ok(reply) if reply.answers.is_empty() => "no answers".to_string(),
                        Ok(reply) => reply.answers.join("\n"),
                    }
                }
            },
        },
        "holds" => match client.holds(session, rest) {
            Err(e) => format!("error: {e}"),
            Ok(v) => v.to_string(),
        },
        "show" => text(client.show(session, rest)),
        "refresh" => text(client.refresh(session)),
        "history" => text(client.history(session)),
        "status" => text(client.status(session)),
        "save" => text(client.save(session, rest)),
        "\\checkpoint" | "checkpoint" => text(client.checkpoint(session)),
        "\\register" | "register" => match rest.split_whitespace().collect::<Vec<_>>()[..] {
            [name, class, source] => {
                let r = client.register_object(session, name, class, source);
                write_then_refresh(client, r)
            }
            _ => "usage: \\register <name> <class> <source>".to_string(),
        },
        "load" => {
            let r = client.load(session, rest);
            write_then_refresh(client, r)
        }
        "shutdown" => text(client.shutdown_server(session)),
        "stats" | "\\stats" => match client.session_stats(session) {
            Err(e) => format!("error: {e}"),
            Ok(s) => format!(
                "session {}: watermark {}, kb tick {}, {} requests, {} believed; \
                 last ask: {} index probes, {} tuples scanned",
                s.session, s.watermark, s.kb_now, s.requests, s.believed, s.probes, s.scanned
            ),
        },
        "\\metrics" => text(client.metrics()),
        "\\promote" | "promote" => text(client.promote(session)),
        "\\replstatus" | "replstatus" => match client.repl_status() {
            Err(e) => format!("error: {e}"),
            Ok(s) if s.is_leader => {
                format!("leader: epoch {}, {} op(s) applied", s.epoch, s.applied_seq)
            }
            Ok(s) => format!(
                "replica of {} ({}): epoch {}, applied {} of {} ({} behind)",
                s.leader,
                if s.connected {
                    "connected"
                } else {
                    "disconnected"
                },
                s.epoch,
                s.applied_seq,
                s.leader_seq,
                s.lag()
            ),
        },
        "\\lint" => {
            if rest.is_empty() {
                "usage: \\lint <file>".to_string()
            } else {
                match std::fs::read_to_string(rest) {
                    Err(e) => format!("error: cannot read {rest}: {e}"),
                    Ok(src) => match client.lint(session, &src) {
                        Err(e) => format!("error: {e}"),
                        Ok(diags) => render_wire_diags(rest, &diags),
                    },
                }
            }
        }
        // \explain [rules…] — the server-side join plan and cost
        // estimate (the `Explain` wire op).
        "\\explain" | "explain" => text(client.explain(session, rest)),
        // \view <name> [: <datalog rules>] — register a maintained view.
        "\\view" | "view" => {
            let (name, rules) = match rest.split_once(':') {
                Some((n, r)) => (n.trim(), r.trim()),
                None => (rest, ""),
            };
            if name.is_empty() {
                "usage: \\view <name> [: <rules>]".to_string()
            } else {
                let r = client.register_view(session, name, rules);
                write_then_refresh(client, r)
            }
        }
        // \viewask <name> <pred> — read one predicate of a view.
        "\\viewask" | "viewask" => match rest.split_once(char::is_whitespace) {
            None => "usage: \\viewask <name> <pred>".to_string(),
            Some((name, pred)) => match client.view_ask(session, name.trim(), pred.trim()) {
                Err(e) => format!("error: {e}"),
                Ok(rows) if rows.is_empty() => "no tuples".to_string(),
                Ok(rows) => rows.join("\n"),
            },
        },
        // \recall <decision> [limit] — structurally similar precedents.
        "\\recall" | "recall" => {
            let (name, limit) = match rest.split_once(char::is_whitespace) {
                Some((n, l)) => (n.trim(), l.trim().parse().unwrap_or(10)),
                None => (rest, 10),
            };
            if name.is_empty() {
                "usage: \\recall <decision> [limit]".to_string()
            } else {
                match client.recall(session, name, limit) {
                    Err(e) => format!("error: {e}"),
                    Ok(hits) if hits.is_empty() => "no similar decisions".to_string(),
                    Ok(hits) => hits
                        .iter()
                        .map(|(d, score, retracted)| {
                            let mark = if *retracted { "  (retracted)" } else { "" };
                            format!("{d}  {score:.3}{mark}")
                        })
                        .collect::<Vec<_>>()
                        .join("\n"),
                }
            }
        }
        other => format!("unknown command `{other}` (try `help`)"),
    };
    Some(out)
}

/// Renders the server's lint verdict, one diagnostic per line plus a
/// summary, mirroring the offline `cblint` one-line form.
fn render_wire_diags(origin: &str, diags: &[conceptbase::server::WireDiagnostic]) -> String {
    let mut lines: Vec<String> = diags
        .iter()
        .map(|d| match d.line {
            Some(n) => format!("{origin}:{n}: {}", d.one_line()),
            None => format!("{origin}: {}", d.one_line()),
        })
        .collect();
    let errors = diags.iter().filter(|d| d.is_error).count();
    lines.push(format!(
        "{origin}: {} error(s), {} warning(s)",
        errors,
        diags.len() - errors
    ));
    lines.join("\n")
}

/// Accumulates lines of a multi-line `tell … end` command.
fn needs_more(buffer: &str) -> bool {
    let mut words = buffer.split_whitespace();
    let first = words.next().unwrap_or("");
    // The frame is complete only when `end` stands as its own word
    // (identifiers like `Friend` must not terminate accumulation).
    first == "tell" && buffer.split_whitespace().next_back() != Some("end")
}

const USAGE: &str = "usage: cbshell [--journal <dir>]\n       \
     cbshell --listen [<addr>] [--journal <dir>] [--fsync <policy>] …\n       \
     cbshell --connect <host:port>\n\
     a persistent KB is a journal directory: pass it with --journal <dir>";

fn main() {
    if let Err(e) = run() {
        eprintln!("cbshell: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let g = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--listen", ..] => return listen(&ListenOpts::parse(&args[1..])?),
        ["--connect", addr] => return connect(addr),
        [] => Gkbms::new()?,
        ["--journal", dir] => recover(dir.as_ref())?.0,
        _ => return Err(USAGE.into()),
    };
    let mut shell = Shell { g, last_ask: None };
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("ConceptBase-rs shell — `help` for commands, `quit` to leave.");
    }
    let outcome = repl(interactive, |line| dispatch(&mut shell, line));
    // The session's writes become durable on the way out, whether the
    // loop ended on `quit`, on EOF or on an I/O error.
    if let Some(journal) = shell.g.journal_mut() {
        journal.sync()?;
    }
    script_exit(interactive, outcome?)
}

/// [`Gkbms::recover`] with the error rendered for the command line.
fn recover(dir: &std::path::Path) -> Result<(Gkbms, RecoveryReport), String> {
    Gkbms::recover(dir).map_err(|e| match e {
        GkbmsError::NotAJournal(_) => format!(
            "{e}\nhint: name a directory; a missing one is created, and a file \
             written by another tool cannot be imported"
        ),
        e => e.to_string(),
    })
}

/// `--listen` options: address plus durability knobs.
struct ListenOpts {
    addr: String,
    journal: Option<std::path::PathBuf>,
    fsync: conceptbase::gkbms::FsyncPolicy,
    checkpoint_every: Option<u64>,
    strict_lint: bool,
    follow: Option<String>,
    max_lag: Option<u64>,
}

impl ListenOpts {
    /// Parses everything after `--listen`: an optional bare address
    /// followed by `--journal <dir>`, `--fsync <policy>`,
    /// `--checkpoint-every <n>`, `--strict-lint`, `--follow <addr>`
    /// and `--max-lag <n>` in any order.
    fn parse(args: &[String]) -> Result<ListenOpts, String> {
        let mut opts = ListenOpts {
            addr: "127.0.0.1:4711".to_string(),
            journal: None,
            fsync: Config::default().fsync,
            checkpoint_every: None,
            strict_lint: false,
            follow: None,
            max_lag: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--journal" => opts.journal = Some(value("--journal")?.into()),
                "--fsync" => {
                    let v = value("--fsync")?;
                    opts.fsync = conceptbase::gkbms::FsyncPolicy::parse(&v)
                        .map_err(|e| format!("--fsync: {e}"))?;
                }
                "--checkpoint-every" => {
                    let v = value("--checkpoint-every")?;
                    opts.checkpoint_every = Some(
                        v.parse()
                            .map_err(|_| format!("bad --checkpoint-every `{v}`"))?,
                    );
                }
                "--strict-lint" => opts.strict_lint = true,
                "--follow" => opts.follow = Some(value("--follow")?),
                "--max-lag" => {
                    let v = value("--max-lag")?;
                    opts.max_lag = Some(v.parse().map_err(|_| format!("bad --max-lag `{v}`"))?);
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown --listen flag `{other}`"));
                }
                addr => opts.addr = addr.to_string(),
            }
        }
        Ok(opts)
    }
}

/// Serves a GKBMS on the configured address until a client sends
/// `shutdown`. With `--journal` the state recovers from (and journals
/// into) the given directory; otherwise it is fresh and in-memory.
fn listen(opts: &ListenOpts) -> Result<(), Box<dyn std::error::Error>> {
    let state = match &opts.journal {
        Some(dir) => {
            let (g, report) = recover(dir)?;
            println!(
                "gkbms: recovered from {} (snapshot: {}, {} WAL op(s) replayed in {:?})",
                dir.display(),
                if report.snapshot_loaded { "yes" } else { "no" },
                report.replayed_ops,
                report.elapsed
            );
            if report.skipped_ops > 0 {
                println!(
                    "gkbms: completed an interrupted checkpoint ({} covered WAL op(s) dropped)",
                    report.skipped_ops
                );
            }
            g
        }
        None => Gkbms::new()?,
    };
    let cfg = Config {
        fsync: opts.fsync,
        checkpoint_every: opts.checkpoint_every,
        strict_lint: opts.strict_lint,
        follow: opts.follow.clone(),
        max_lag: opts.max_lag,
        ..Config::default()
    };
    let server = Server::bind(opts.addr.as_str(), state, cfg)?;
    if let Some(leader) = &opts.follow {
        println!("gkbms: replica of {leader}");
    }
    println!("gkbms: listening on {}", server.local_addr());
    server.join()?;
    println!("gkbms: stopped");
    Ok(())
}

/// Connects to a server and runs the shell loop against it.
fn connect(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = Client::connect(addr)?;
    let (session, watermark) = client
        .hello()
        .map_err(|e| format!("handshake failed: {e}"))?;
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("connected to {addr} — session {session}, snapshot at tick {watermark}");
    }
    let had_error = repl(interactive, |line| {
        dispatch_remote(&mut client, session, line)
    })?;
    script_exit(interactive, had_error)
}

/// The line loop shared by local and connected modes. Returns whether
/// any command produced an `error:` response.
fn repl(
    interactive: bool,
    mut dispatch_one: impl FnMut(&str) -> Option<String>,
) -> Result<bool, Box<dyn std::error::Error>> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    let mut buffer = String::new();
    let mut had_error = false;
    loop {
        if interactive {
            print!("{}", if buffer.is_empty() { "cb> " } else { "...> " });
            out.flush()?;
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        buffer.push_str(&line);
        if needs_more(&buffer) {
            continue;
        }
        let complete = std::mem::take(&mut buffer);
        match dispatch_one(&complete) {
            None => break,
            Some(response) => {
                if response.starts_with("error:") || response.starts_with("unknown command") {
                    had_error = true;
                }
                if !response.is_empty() {
                    println!("{response}");
                }
            }
        }
    }
    Ok(had_error)
}

/// Scripted runs (stdin redirected) exit non-zero on any error so CI
/// can assert on piped scripts; interactive sessions always exit 0.
fn script_exit(interactive: bool, had_error: bool) -> Result<(), Box<dyn std::error::Error>> {
    if !interactive && had_error {
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_shell() -> Shell {
        let mut shell = Shell {
            g: Gkbms::new().unwrap(),
            last_ask: None,
        };
        for cmd in [
            "tell Person end",
            "tell Paper end",
            "tell Invitation isA Paper end",
            "tell inv1 in Invitation end",
        ] {
            dispatch(&mut shell, cmd).unwrap();
        }
        shell
    }

    #[test]
    fn tell_and_show() {
        let mut shell = seeded_shell();
        let shown = dispatch(&mut shell, "show Invitation").unwrap();
        assert!(shown.contains("isA Paper"));
        let r = dispatch(&mut shell, "tell x in Ghost end").unwrap();
        assert!(r.starts_with("error"));
    }

    #[test]
    fn ask_and_holds() {
        let mut shell = seeded_shell();
        let hits = dispatch(&mut shell, "ask p/Paper : true").unwrap();
        assert_eq!(hits, "inv1");
        assert_eq!(dispatch(&mut shell, "holds inv1 in Paper").unwrap(), "true");
        assert_eq!(
            dispatch(&mut shell, "holds inv1 in Person").unwrap(),
            "false"
        );
        assert!(dispatch(&mut shell, "ask nonsense")
            .unwrap()
            .starts_with("usage"));
    }

    #[test]
    fn browse_commands() {
        let mut shell = seeded_shell();
        let isa = dispatch(&mut shell, "isa Paper").unwrap();
        assert!(isa.contains("`- Invitation"));
        let inst = dispatch(&mut shell, "instances Paper").unwrap();
        assert!(inst.contains("inv1"));
        assert!(dispatch(&mut shell, "attrs Invitation")
            .unwrap()
            .contains("attribute"));
    }

    #[test]
    fn untell_check_stats() {
        let mut shell = seeded_shell();
        assert!(dispatch(&mut shell, "check")
            .unwrap()
            .starts_with("consistent"));
        let r = dispatch(&mut shell, "untell inv1").unwrap();
        assert!(r.starts_with("ok"));
        assert!(dispatch(&mut shell, "stats").unwrap().contains("believed"));
        assert!(dispatch(&mut shell, "untell inv1")
            .unwrap()
            .starts_with("error"));
    }

    #[test]
    fn backslash_stats_tracks_last_ask() {
        let mut shell = seeded_shell();
        assert_eq!(dispatch(&mut shell, "\\stats").unwrap(), "no ASK yet");
        dispatch(&mut shell, "ask p/Paper : true").unwrap();
        let stats = dispatch(&mut shell, "\\stats").unwrap();
        assert!(stats.contains("index probes"), "{stats}");
        assert!(stats.contains("tuples scanned"), "{stats}");
        assert!(
            !stats.contains(" 0 index probes"),
            "deductive ask must probe indexes: {stats}"
        );
    }

    #[test]
    fn quit_and_unknown() {
        let mut shell = seeded_shell();
        assert!(dispatch(&mut shell, "quit").is_none());
        assert!(dispatch(&mut shell, "frobnicate")
            .unwrap()
            .contains("unknown command"));
        assert_eq!(dispatch(&mut shell, "").unwrap(), "");
    }

    #[test]
    fn multiline_accumulation() {
        assert!(needs_more("tell Invitation isA Paper with"));
        assert!(
            needs_more("tell x in Friend"),
            "identifiers ending in 'end' must not terminate the frame"
        );
        assert!(!needs_more("tell x in Friend end"));
        assert!(!needs_more(
            "tell Invitation isA Paper with attribute s : P end"
        ));
        assert!(!needs_more("ask p/Paper : true"));
    }

    #[test]
    fn remote_shell_roundtrip() {
        let state = Gkbms::new().unwrap();
        let server = Server::bind("127.0.0.1:0", state, Config::default()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let (session, _) = client.hello().unwrap();
        let r = dispatch_remote(&mut client, session, "tell Paper end").unwrap();
        assert!(r.starts_with("told"), "{r}");
        let r = dispatch_remote(&mut client, session, "tell p1 in Paper end").unwrap();
        assert!(r.starts_with("told"), "{r}");
        let hits = dispatch_remote(&mut client, session, "ask p/Paper : true").unwrap();
        assert_eq!(hits, "p1");
        let stats = dispatch_remote(&mut client, session, "\\stats").unwrap();
        assert!(stats.contains("index probes"), "{stats}");
        let bad = dispatch_remote(&mut client, session, "ask x/Ghost : true").unwrap();
        assert!(bad.starts_with("error:"), "{bad}");
        assert!(dispatch_remote(&mut client, session, "quit").is_none());
        server.shutdown().unwrap();
    }

    #[test]
    fn listen_opts_parse_flags() {
        let opts = ListenOpts::parse(&[]).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:4711");
        assert!(opts.journal.is_none());
        assert!(opts.checkpoint_every.is_none());

        let args: Vec<String> = [
            "127.0.0.1:9999",
            "--journal",
            "/tmp/kbdir",
            "--fsync",
            "group:5",
            "--checkpoint-every",
            "1000",
            "--follow",
            "127.0.0.1:4711",
            "--max-lag",
            "64",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = ListenOpts::parse(&args).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:9999");
        assert_eq!(opts.follow.as_deref(), Some("127.0.0.1:4711"));
        assert_eq!(opts.max_lag, Some(64));
        assert_eq!(
            opts.journal.as_deref(),
            Some(std::path::Path::new("/tmp/kbdir"))
        );
        assert_eq!(
            opts.fsync,
            conceptbase::gkbms::FsyncPolicy::Group(std::time::Duration::from_millis(5))
        );
        assert_eq!(opts.checkpoint_every, Some(1000));

        assert!(ListenOpts::parse(&["--fsync".to_string(), "bogus".to_string()]).is_err());
        assert!(ListenOpts::parse(&["--journal".to_string()]).is_err());
        assert!(ListenOpts::parse(&["--frob".to_string()]).is_err());
        assert!(ListenOpts::parse(&["--follow".to_string()]).is_err());
        assert!(ListenOpts::parse(&["--max-lag".to_string(), "lots".to_string()]).is_err());
        assert!(ListenOpts::parse(&[]).unwrap().follow.is_none());
        assert!(ListenOpts::parse(&[]).unwrap().max_lag.is_none());

        assert!(!ListenOpts::parse(&[]).unwrap().strict_lint);
        assert!(
            ListenOpts::parse(&["--strict-lint".to_string()])
                .unwrap()
                .strict_lint
        );
    }

    #[test]
    fn remote_checkpoint_against_journaled_server() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("cb-shell-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (state, _) = Gkbms::recover(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0", state, Config::default()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let (session, _) = client.hello().unwrap();
        let r = dispatch_remote(&mut client, session, "tell Paper end").unwrap();
        assert!(r.starts_with("told"), "{r}");
        let r = dispatch_remote(&mut client, session, "\\register p1 Paper papers#1").unwrap();
        assert!(r.starts_with("registered"), "{r}");
        let r = dispatch_remote(&mut client, session, "\\register p1").unwrap();
        assert!(r.starts_with("usage"), "{r}");
        let r = dispatch_remote(&mut client, session, "\\checkpoint").unwrap();
        assert!(r.contains("compacted"), "{r}");
        server.shutdown().unwrap();
        assert!(dir.join("snapshot").exists());
        // The snapshot replays in commit order: the told class first,
        // then the object registered under it.
        let (restarted, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert!(restarted.is_current("p1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lint_command_local_and_remote() {
        let mut path = std::env::temp_dir();
        path.push(format!("cb-shell-lint-{}.dl", std::process::id()));
        std::fs::write(&path, "% query: p\np(X) :- q(X, Y), not r(Y, Z).\n").unwrap();
        let file = path.to_str().unwrap().to_string();

        let mut shell = seeded_shell();
        let local = dispatch(&mut shell, &format!("\\lint {file}")).unwrap();
        assert!(local.contains("error[CB001]"), "{local}");
        assert!(
            dispatch(&mut shell, "\\lint").unwrap().starts_with("usage"),
            "bare \\lint needs a usage hint"
        );

        let state = Gkbms::new().unwrap();
        let server = Server::bind("127.0.0.1:0", state, Config::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (session, _) = client.hello().unwrap();
        let remote = dispatch_remote(&mut client, session, &format!("\\lint {file}")).unwrap();
        assert!(remote.contains("error[CB001]"), "{remote}");
        assert!(remote.contains("error(s)"), "{remote}");
        server.shutdown().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn explain_command_local_and_remote() {
        let mut shell = seeded_shell();
        let local = dispatch(&mut shell, "\\explain").unwrap();
        assert!(local.contains("estimated cost"), "{local}");
        assert!(local.contains("inT"), "{local}");
        let with_rules = dispatch(&mut shell, "\\explain reach(X, Y) :- attr(X, n, Y).").unwrap();
        assert!(with_rules.contains("reach"), "{with_rules}");
        let bad = dispatch(&mut shell, "\\explain p(X) :- q(X").unwrap();
        assert!(bad.starts_with("error"), "{bad}");

        let state = Gkbms::new().unwrap();
        let server = Server::bind("127.0.0.1:0", state, Config::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (session, _) = client.hello().unwrap();
        let remote = dispatch_remote(&mut client, session, "\\explain").unwrap();
        assert!(remote.contains("estimated cost"), "{remote}");
        let bad = dispatch_remote(&mut client, session, "\\explain p(X) :- q(X").unwrap();
        assert!(bad.starts_with("error"), "{bad}");
        server.shutdown().unwrap();
    }

    #[test]
    fn view_commands_remote() {
        let state = Gkbms::new().unwrap();
        let server = Server::bind("127.0.0.1:0", state, Config::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (session, _) = client.hello().unwrap();
        dispatch_remote(&mut client, session, "tell Paper end").unwrap();
        let r = dispatch_remote(&mut client, session, "\\view closure").unwrap();
        assert!(r.contains("registered view"), "{r}");
        let dup = dispatch_remote(&mut client, session, "\\view closure").unwrap();
        assert!(dup.starts_with("error"), "{dup}");
        dispatch_remote(&mut client, session, "tell p1 in Paper end").unwrap();
        let rows = dispatch_remote(&mut client, session, "\\viewask closure inT").unwrap();
        assert!(rows.contains("p1 Paper"), "{rows}");
        assert!(dispatch_remote(&mut client, session, "\\viewask closure")
            .unwrap()
            .starts_with("usage"));
        assert!(dispatch_remote(&mut client, session, "\\view")
            .unwrap()
            .starts_with("usage"));
        server.shutdown().unwrap();
    }

    #[test]
    fn recall_command_remote() {
        use conceptbase::gkbms::synth;
        let mut state = Gkbms::new().unwrap();
        let h = synth::generate_into(
            &mut state,
            &synth::SynthConfig {
                seed: 5,
                decisions: 30,
                ..synth::SynthConfig::default()
            },
        )
        .unwrap();
        assert!(h.executed() > 1, "corpus needs precedents");
        let server = Server::bind("127.0.0.1:0", state, Config::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (session, _) = client.hello().unwrap();
        // `syn0` is always the first executed decision of a corpus.
        let out = dispatch_remote(&mut client, session, "\\recall syn0 5").unwrap();
        assert!(!out.starts_with("error"), "{out}");
        assert!(out.contains("syn"), "hits name decisions: {out}");
        assert!(
            dispatch_remote(&mut client, session, "\\recall")
                .unwrap()
                .starts_with("usage"),
            "bare \\recall needs a usage hint"
        );
        let bad = dispatch_remote(&mut client, session, "\\recall ghost").unwrap();
        assert!(bad.starts_with("error"), "{bad}");
        server.shutdown().unwrap();
    }

    #[test]
    fn local_metrics_render() {
        let mut shell = seeded_shell();
        dispatch(&mut shell, "ask p/Paper : true").unwrap();
        let text = dispatch(&mut shell, "\\metrics").unwrap();
        assert!(text.contains("# TYPE"), "{text}");
        assert!(text.contains("objectbase_asks_total"), "{text}");
    }
}
