//! `cbshell` — an interactive shell over the GKBMS, in the spirit of
//! ConceptBase's dialog manager.
//!
//! ```sh
//! cargo run --bin cbshell                       # in-memory KB
//! cargo run --bin cbshell -- --journal kbdir    # persistent KB
//! echo 'ask p/Paper : true' | cargo run --bin cbshell
//! cargo run --bin cbshell -- --listen 127.0.0.1:4711   # serve a KB
//! cargo run --bin cbshell -- --listen 127.0.0.1:4711 --journal kbdir \
//!     --fsync group --checkpoint-every 1000            # durable server
//! cargo run --bin cbshell -- --listen 127.0.0.1:4712 --journal replica \
//!     --follow 127.0.0.1:4711 --max-lag 100            # read replica
//! cargo run --bin cbshell -- --connect 127.0.0.1:4711  # talk to one
//! ```
//!
//! The shell has one command interpreter, and it is a client of the
//! served system. `--connect` runs it against a server elsewhere;
//! without `--connect` the shell serves the KB itself, in this process
//! and to itself alone (over a socket pair: no listener, no port), and
//! runs the same interpreter against that server: same commands, same
//! output, same session semantics. On `quit` or end of input it closes
//! its session, stops the server and fsyncs the journal.
//!
//! With `--journal <dir>` the KB — local or served — recovers from
//! `<dir>` (snapshot plus WAL tail) and journals every committed
//! mutation; it is the one on-disk format, so a directory written by a
//! local shell can be served with `--listen` and vice versa. A served
//! KB journals before it acknowledges, under the durability policy
//! `--fsync` picks (`group`, the default: a mutation is acknowledged
//! once an fsync covers it, one fsync shared by concurrent writers; or
//! `none`), and `--checkpoint-every <n>` compacts the WAL into a fresh
//! snapshot after every `n` journaled ops. A local shell journals under
//! `none` and fsyncs once, when it quits.
//!
//! With `--follow <addr>` the server starts as a read replica of the
//! leader at `<addr>`: it subscribes with its applied position, applies
//! the shipped log, serves reads at its applied watermark, and redirects
//! writes to the leader. `--max-lag <n>` rejects reads outright once the
//! replica falls more than `n` ops behind. `\promote` turns a follower
//! into a writable leader under a new sequence epoch.
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
//! check                    full consistency check of the session's KB
//! refresh                  re-pin the session snapshot
//! history / status         the process and status views of the design
//! stats / \stats           the session, and the counters of its last ASK
//! \metrics                 process metrics (Prometheus text format)
//! \lint <file>             statically analyze a script without admitting it
//! \explain [rules…]        join plan + cost estimate of the rule base
//! \view <name> [: <rules>] register a materialized deductive view
//! \viewask <name> <pred>   read one predicate of a view
//! \recall <decision> [n]   structurally similar precedents
//! \register <name> <class> <source>   register a design object
//! save <path> / load <path>   write the session's history / replay one (server-side)
//! \checkpoint              compact the journal
//! \replstatus / \promote   replication role and lag / promote a follower
//! shutdown / help / quit
//! ```
//!
//! Reads are snapshot-isolated at the session watermark — `history`,
//! `status` and `\recall` from the design index published with the
//! session's version, `save` from its history, `check`, `\lint` and
//! `\explain` from its KB; only `\viewask` reads a view's live model —
//! and the shell refreshes after its own successful writes, so a
//! `save`, `\lint` or `check` after them sees them. A
//! session the server no longer knows — it idled out, or the server
//! restarted — is replaced once, with a notice on stderr, and the
//! command retried.
//!
//! When a script is piped in (non-interactive), any `error:` response
//! makes the process exit non-zero, so CI can assert on scripts.

use conceptbase::gkbms::{FsyncPolicy, Gkbms, GkbmsError, RecoveryReport};
use conceptbase::server::{Client, ClientError, ClientResult, Config, ErrorCode, Server};
use std::io::{BufRead, IsTerminal, Write};

const HELP: &str = "commands: tell untell ask holds show isa instances attrs check refresh \
     history status stats \\stats \\metrics \\lint \\explain \\view \\viewask \\recall \
     \\register \\checkpoint \\replstatus \\promote save load shutdown quit";

const ASK_USAGE: &str = "usage: ask <var>/<class> : <expr>";

/// The shell: one connection, and the session its commands run in.
struct Shell {
    client: Client,
    session: u64,
}

impl Shell {
    /// Opens a session on `client`; returns the shell and the
    /// session's watermark.
    fn open(mut client: Client) -> ClientResult<(Shell, i64)> {
        let (session, watermark) = client.hello()?;
        Ok((Shell { client, session }, watermark))
    }

    /// Executes one complete command line; returns the response text or
    /// `None` on `quit`.
    fn dispatch(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        Some(match cmd {
            "quit" | "exit" => return None,
            "" => String::new(),
            "help" => HELP.to_string(),
            _ => self
                .run(cmd, rest)
                .unwrap_or_else(|e| format!("error: {e}")),
        })
    }

    /// Runs one command in the session. A session the server no longer
    /// knows is replaced once and the command retried: the session gate
    /// refuses a request before it does anything, so the refused one
    /// never ran.
    fn run(&mut self, cmd: &str, rest: &str) -> ClientResult<String> {
        match command(&mut self.client, self.session, cmd, rest) {
            Err(ClientError::Server(e))
                if matches!(
                    e.code,
                    ErrorCode::SessionExpired | ErrorCode::UnknownSession
                ) =>
            {
                let (session, watermark) = self.client.hello()?;
                eprintln!("cbshell: {e}; continuing in session {session} at tick {watermark}");
                self.session = session;
                command(&mut self.client, session, cmd, rest)
            }
            outcome => outcome,
        }
    }

    /// Closes the session, if the server is still there to hear it.
    fn close(mut self) {
        let _ = self.client.bye(self.session);
    }
}

/// The outcome of a write, after which the session re-pins so that the
/// user reads their own work.
fn refreshed(c: &mut Client, session: u64, written: ClientResult<String>) -> ClientResult<String> {
    let text = written?;
    let _ = c.refresh(session);
    Ok(text)
}

/// One command of `session`. A usage mistake is an answer, not an
/// error.
fn command(c: &mut Client, session: u64, cmd: &str, rest: &str) -> ClientResult<String> {
    match cmd {
        "tell" => {
            let told = c.tell(session, &format!("TELL {rest}"));
            refreshed(c, session, told)
        }
        "untell" => {
            let untold = c.untell(session, rest);
            refreshed(c, session, untold)
        }
        "ask" => {
            let query = rest.split_once(':').and_then(|(binding, expr)| {
                let (var, class) = binding.trim().split_once('/')?;
                Some((var.trim(), class.trim(), expr.trim()))
            });
            let Some((var, class, expr)) = query else {
                return Ok(ASK_USAGE.to_string());
            };
            let reply = c.ask(session, var, class, expr)?;
            Ok(if reply.answers.is_empty() {
                "no answers".to_string()
            } else {
                reply.answers.join("\n")
            })
        }
        "holds" => Ok(c.holds(session, rest)?.to_string()),
        "show" => c.show(session, rest),
        "isa" | "instances" | "attrs" => c.browse(session, cmd, rest),
        "check" => c.check(session),
        "refresh" => c.refresh(session),
        "history" => c.history(session),
        "status" => c.status(session),
        "save" => c.save(session, rest),
        "load" => {
            let loaded = c.load(session, rest);
            refreshed(c, session, loaded)
        }
        "\\checkpoint" | "checkpoint" => c.checkpoint(session),
        "\\register" | "register" => match rest.split_whitespace().collect::<Vec<_>>()[..] {
            [name, class, source] => {
                let registered = c.register_object(session, name, class, source);
                refreshed(c, session, registered)
            }
            _ => Ok("usage: \\register <name> <class> <source>".to_string()),
        },
        "shutdown" => c.shutdown_server(session),
        "stats" | "\\stats" => {
            let s = c.session_stats(session)?;
            Ok(format!(
                "session {}: watermark {}, kb tick {}, {} requests, {} believed; \
                 last ask: {} index probes, {} tuples scanned",
                s.session, s.watermark, s.kb_now, s.requests, s.believed, s.probes, s.scanned
            ))
        }
        "\\metrics" => c.metrics(),
        "\\promote" | "promote" => c.promote(session),
        "\\replstatus" | "replstatus" => {
            let s = c.repl_status()?;
            Ok(if s.is_leader {
                format!("leader: epoch {}, {} op(s) applied", s.epoch, s.applied_seq)
            } else {
                let link = if s.connected {
                    "connected"
                } else {
                    "disconnected"
                };
                format!(
                    "replica of {} ({link}): epoch {}, applied {} of {} ({} behind)",
                    s.leader,
                    s.epoch,
                    s.applied_seq,
                    s.leader_seq,
                    s.lag()
                )
            })
        }
        "\\lint" => {
            if rest.is_empty() {
                return Ok("usage: \\lint <file>".to_string());
            }
            match std::fs::read_to_string(rest) {
                Err(e) => Ok(format!("error: cannot read {rest}: {e}")),
                Ok(src) => Ok(render_wire_diags(rest, &c.lint(session, &src)?)),
            }
        }
        // \explain [rules…] — the join plan and cost estimate of the
        // base program, the stored rules and any extra inline rules.
        "\\explain" | "explain" => c.explain(session, rest),
        // \view <name> [: <datalog rules>] — register a maintained view.
        "\\view" | "view" => {
            let (name, rules) = match rest.split_once(':') {
                Some((n, r)) => (n.trim(), r.trim()),
                None => (rest, ""),
            };
            if name.is_empty() {
                return Ok("usage: \\view <name> [: <rules>]".to_string());
            }
            let registered = c.register_view(session, name, rules);
            refreshed(c, session, registered)
        }
        // \viewask <name> <pred> — read one predicate of a view.
        "\\viewask" | "viewask" => {
            let Some((name, pred)) = rest.split_once(char::is_whitespace) else {
                return Ok("usage: \\viewask <name> <pred>".to_string());
            };
            let rows = c.view_ask(session, name.trim(), pred.trim())?;
            Ok(if rows.is_empty() {
                "no tuples".to_string()
            } else {
                rows.join("\n")
            })
        }
        // \recall <decision> [limit] — structurally similar precedents.
        "\\recall" | "recall" => {
            let (name, limit) = match rest.split_once(char::is_whitespace) {
                Some((n, l)) => (n.trim(), l.trim().parse().unwrap_or(10)),
                None => (rest, 10),
            };
            if name.is_empty() {
                return Ok("usage: \\recall <decision> [limit]".to_string());
            }
            let hits = c.recall(session, name, limit)?;
            if hits.is_empty() {
                return Ok("no similar decisions".to_string());
            }
            let lines: Vec<String> = hits
                .iter()
                .map(|(d, score, retracted)| {
                    let mark = if *retracted { "  (retracted)" } else { "" };
                    format!("{d}  {score:.3}{mark}")
                })
                .collect();
            Ok(lines.join("\n"))
        }
        other => Ok(format!("unknown command `{other}` (try `help`)")),
    }
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
     cbshell --listen [<addr>] [--journal <dir>] [--fsync group|none] …\n       \
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
    local(g)
}

/// Serves `g` to this shell alone, over a socket pair in this process,
/// and runs the shell against that server. On the way out — on `quit`,
/// at end of input or on an I/O error — the session closes, the server
/// drains and hands the KB back, and its journal, if any, is fsynced:
/// the one fsync of a local run, so writes do not wait for one each.
fn local(g: Gkbms) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = Config {
        fsync: FsyncPolicy::Never,
        ..Config::default()
    };
    let (server, client) = Server::in_process(g, cfg)?;
    let (mut shell, _) = Shell::open(client)?;
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("ConceptBase-rs shell — `help` for commands, `quit` to leave.");
    }
    let outcome = repl(interactive, |line| shell.dispatch(line));
    shell.close();
    if let Some(journal) = server.shutdown()?.journal_mut() {
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
    fsync: FsyncPolicy,
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
                    opts.fsync = FsyncPolicy::parse(&v).map_err(|e| format!("--fsync: {e}"))?;
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

/// Connects to a server and runs the shell against it.
fn connect(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let client = Client::connect(addr)?;
    let (mut shell, watermark) =
        Shell::open(client).map_err(|e| format!("handshake failed: {e}"))?;
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!(
            "connected to {addr} — session {}, snapshot at tick {watermark}",
            shell.session
        );
    }
    let outcome = repl(interactive, |line| shell.dispatch(line));
    shell.close();
    script_exit(interactive, outcome?)
}

/// The line loop. Returns whether any command produced an `error:`
/// response.
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
    use std::time::Duration;

    /// A shell against a server in this process, as `cbshell` runs one
    /// without `--connect`.
    fn shell_over(g: Gkbms, cfg: Config) -> (Server, Shell) {
        let (server, client) = Server::in_process(g, cfg).unwrap();
        (server, Shell::open(client).unwrap().0)
    }

    fn local_shell() -> (Server, Shell) {
        shell_over(Gkbms::new().unwrap(), Config::default())
    }

    fn seeded_shell() -> (Server, Shell) {
        let (server, mut shell) = local_shell();
        for cmd in [
            "tell Person end",
            "tell Paper end",
            "tell Invitation isA Paper end",
            "tell inv1 in Invitation end",
        ] {
            let r = shell.dispatch(cmd).unwrap();
            assert!(r.starts_with("told"), "{cmd}: {r}");
        }
        (server, shell)
    }

    fn stop(server: Server, shell: Shell) {
        shell.close();
        server.shutdown().unwrap();
    }

    #[test]
    fn tell_and_show() {
        let (server, mut shell) = seeded_shell();
        let shown = shell.dispatch("show Invitation").unwrap();
        assert!(shown.contains("isA Paper"), "{shown}");
        let r = shell.dispatch("tell x in Ghost end").unwrap();
        assert!(r.starts_with("error:"), "{r}");
        stop(server, shell);
    }

    #[test]
    fn ask_and_holds() {
        let (server, mut shell) = seeded_shell();
        assert_eq!(shell.dispatch("ask p/Paper : true").unwrap(), "inv1");
        assert_eq!(shell.dispatch("holds inv1 in Paper").unwrap(), "true");
        assert_eq!(shell.dispatch("holds inv1 in Person").unwrap(), "false");
        assert_eq!(shell.dispatch("ask nonsense").unwrap(), ASK_USAGE);
        let bad = shell.dispatch("ask x/Ghost : true").unwrap();
        assert!(bad.starts_with("error:"), "{bad}");
        stop(server, shell);
    }

    #[test]
    fn browse_commands() {
        let (server, mut shell) = seeded_shell();
        let isa = shell.dispatch("isa Paper").unwrap();
        assert!(isa.contains("`- Invitation"), "{isa}");
        let inst = shell.dispatch("instances Paper").unwrap();
        assert!(inst.contains("inv1"), "{inst}");
        let attrs = shell.dispatch("attrs Invitation").unwrap();
        assert!(attrs.contains("attribute"), "{attrs}");
        let ghost = shell.dispatch("isa Ghost").unwrap();
        assert!(
            ghost.starts_with("error:") && ghost.contains("Ghost"),
            "{ghost}"
        );
        stop(server, shell);
    }

    #[test]
    fn untell_check_stats() {
        let (server, mut shell) = seeded_shell();
        let check = shell.dispatch("check").unwrap();
        assert!(check.starts_with("consistent"), "{check}");
        let r = shell.dispatch("untell inv1").unwrap();
        assert!(r.starts_with("untold `inv1`"), "{r}");
        assert!(shell.dispatch("stats").unwrap().contains("believed"));
        assert!(shell.dispatch("untell inv1").unwrap().starts_with("error:"));
        stop(server, shell);
    }

    #[test]
    fn backslash_stats_tracks_last_ask() {
        let (server, mut shell) = seeded_shell();
        let before = shell.dispatch("\\stats").unwrap();
        assert!(before.contains("last ask: 0 index probes"), "{before}");
        shell.dispatch("ask p/Paper : true").unwrap();
        let stats = shell.dispatch("\\stats").unwrap();
        assert!(stats.contains("tuples scanned"), "{stats}");
        assert!(
            !stats.contains(" 0 index probes"),
            "deductive ask must probe indexes: {stats}"
        );
        stop(server, shell);
    }

    #[test]
    fn quit_and_unknown() {
        let (server, mut shell) = seeded_shell();
        assert!(shell.dispatch("quit").is_none());
        assert!(shell
            .dispatch("frobnicate")
            .unwrap()
            .contains("unknown command"));
        assert_eq!(shell.dispatch("").unwrap(), "");
        stop(server, shell);
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
        let server = Server::bind("127.0.0.1:0", Gkbms::new().unwrap(), Config::default()).unwrap();
        let (mut shell, _) = Shell::open(Client::connect(server.local_addr()).unwrap()).unwrap();
        let r = shell.dispatch("tell Paper end").unwrap();
        assert!(r.starts_with("told"), "{r}");
        let r = shell.dispatch("tell p1 in Paper end").unwrap();
        assert!(r.starts_with("told"), "{r}");
        assert_eq!(shell.dispatch("ask p/Paper : true").unwrap(), "p1");
        let stats = shell.dispatch("\\stats").unwrap();
        assert!(stats.contains("index probes"), "{stats}");
        assert!(shell.dispatch("quit").is_none());
        stop(server, shell);
    }

    /// A session that idled out — reaped when next touched, or by the
    /// idle sweep — is replaced, and the command it refused is run in
    /// the new one.
    #[test]
    fn an_idled_out_session_is_replaced_and_the_command_retried() {
        // A poll slower than the sleep: the session is reaped only when
        // the next request touches it (`session expired`). A fast poll:
        // the idle sweep reaps it first (`unknown session`).
        for poll in [500, 5] {
            let cfg = Config {
                idle_timeout: Duration::from_millis(30),
                poll_interval: Duration::from_millis(poll),
                ..Config::default()
            };
            let (server, mut shell) = shell_over(Gkbms::new().unwrap(), cfg);
            assert!(shell
                .dispatch("tell Paper end")
                .unwrap()
                .starts_with("told"));
            let first = shell.session;
            std::thread::sleep(Duration::from_millis(100));
            let r = shell.dispatch("tell p1 in Paper end").unwrap();
            assert!(r.starts_with("told"), "poll {poll}: {r}");
            assert_ne!(shell.session, first, "poll {poll}");
            assert_eq!(shell.dispatch("ask p/Paper : true").unwrap(), "p1");
            std::thread::sleep(Duration::from_millis(100));
            let r = shell.dispatch("refresh").unwrap();
            assert!(r.starts_with("watermark"), "poll {poll}: {r}");
            stop(server, shell);
        }
    }

    #[test]
    fn listen_opts_parse_flags() {
        let opts = ListenOpts::parse(&[]).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:4711");
        assert!(opts.journal.is_none());
        assert!(opts.checkpoint_every.is_none());
        assert_eq!(opts.fsync, FsyncPolicy::Group);

        let args: Vec<String> = [
            "127.0.0.1:9999",
            "--journal",
            "/tmp/kbdir",
            "--fsync",
            "none",
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
        assert_eq!(opts.fsync, FsyncPolicy::Never);
        assert_eq!(opts.checkpoint_every, Some(1000));

        for gone in ["bogus", "always", "group:5"] {
            let err = ListenOpts::parse(&["--fsync".to_string(), gone.to_string()]);
            assert!(err.is_err_and(|e| e.contains("group or none")), "{gone}");
        }
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
        let (server, mut shell) = shell_over(state, Config::default());
        let r = shell.dispatch("tell Paper end").unwrap();
        assert!(r.starts_with("told"), "{r}");
        let r = shell.dispatch("\\register p1 Paper papers#1").unwrap();
        assert!(r.starts_with("registered"), "{r}");
        let r = shell.dispatch("\\register p1").unwrap();
        assert!(r.starts_with("usage"), "{r}");
        let r = shell.dispatch("\\checkpoint").unwrap();
        assert!(r.contains("compacted"), "{r}");
        let history = shell.dispatch("status").unwrap();
        assert!(history.contains("p1"), "{history}");
        stop(server, shell);
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

        let (server, mut shell) = seeded_shell();
        let local = shell.dispatch(&format!("\\lint {file}")).unwrap();
        assert!(local.contains("error[CB001]"), "{local}");
        assert!(local.contains("error(s)"), "{local}");
        assert!(
            shell.dispatch("\\lint").unwrap().starts_with("usage"),
            "bare \\lint needs a usage hint"
        );
        let missing = shell.dispatch("\\lint /no/such/file.dl").unwrap();
        assert!(missing.starts_with("error: cannot read"), "{missing}");
        stop(server, shell);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn explain_command_local_and_remote() {
        let (server, mut shell) = seeded_shell();
        let plan = shell.dispatch("\\explain").unwrap();
        assert!(plan.contains("estimated cost"), "{plan}");
        assert!(plan.contains("inT"), "{plan}");
        let with_rules = shell
            .dispatch("\\explain reach(X, Y) :- attr(X, n, Y).")
            .unwrap();
        assert!(with_rules.contains("reach"), "{with_rules}");
        let bad = shell.dispatch("\\explain p(X) :- q(X").unwrap();
        assert!(bad.starts_with("error"), "{bad}");
        stop(server, shell);
    }

    #[test]
    fn view_commands_remote() {
        let (server, mut shell) = local_shell();
        shell.dispatch("tell Paper end").unwrap();
        let r = shell.dispatch("\\view closure").unwrap();
        assert!(r.contains("registered view"), "{r}");
        let dup = shell.dispatch("\\view closure").unwrap();
        assert!(dup.starts_with("error"), "{dup}");
        shell.dispatch("tell p1 in Paper end").unwrap();
        let rows = shell.dispatch("\\viewask closure inT").unwrap();
        assert!(rows.contains("p1 Paper"), "{rows}");
        assert!(shell
            .dispatch("\\viewask closure")
            .unwrap()
            .starts_with("usage"));
        assert!(shell.dispatch("\\view").unwrap().starts_with("usage"));
        stop(server, shell);
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
        let (server, mut shell) = shell_over(state, Config::default());
        // `syn0` is always the first executed decision of a corpus.
        let out = shell.dispatch("\\recall syn0 5").unwrap();
        assert!(!out.starts_with("error"), "{out}");
        assert!(out.contains("syn"), "hits name decisions: {out}");
        assert!(
            shell.dispatch("\\recall").unwrap().starts_with("usage"),
            "bare \\recall needs a usage hint"
        );
        let bad = shell.dispatch("\\recall ghost").unwrap();
        assert!(bad.starts_with("error"), "{bad}");
        let history = shell.dispatch("history").unwrap();
        assert!(history.contains("syn0"), "{history}");
        stop(server, shell);
    }

    #[test]
    fn local_metrics_render() {
        let (server, mut shell) = seeded_shell();
        shell.dispatch("ask p/Paper : true").unwrap();
        let text = shell.dispatch("\\metrics").unwrap();
        assert!(text.contains("# TYPE"), "{text}");
        assert!(text.contains("objectbase_asks_total"), "{text}");
        assert!(text.contains("gkbms_requests_total{op=\"ask\"}"), "{text}");
        stop(server, shell);
    }
}
