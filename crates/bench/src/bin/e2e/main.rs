//! `e2e` — the repository's benchmark: an undelayed request through
//! the whole stack, with a per-layer budget (`BENCHMARK.json`).
//!
//! A real `server::Server` on loopback, driven through
//! `server::Client` by closed-loop client connections over seeded
//! `gkbms::synth` corpora; every answer checked against a serial twin
//! `Gkbms` before a single number is printed. See `README.md` beside
//! this file for the metric glossary, the workloads and how the layer
//! metrics are expected to move the end-to-end ones.
//!
//! ```text
//! e2e --workload <kb_small|kb_large> --seed <n> --seconds <s> --trace <0|1>
//! e2e --sets 2        # repeatability: the whole suite twice, compared
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! metrics: the end-to-end table with `--trace 0`, the per-layer table
//! with `--trace 1`. Any failed request, wrong answer or divergent
//! replica makes the command exit non-zero and print no metrics.

mod harness;
mod layers;
mod metrics;
mod oracle;
mod pace;
mod schedule;
mod spans;
mod stats;

use harness::{ClientLog, Scratch, Workload, NOMINAL_SECONDS, READERS, WORKLOADS};
use metrics::{RunResult, Values, END_TO_END, PER_LAYER};
use pace::Pace;
use schedule::{Kind, READ_ROUND, WRITE_ROUND, WRITE_ROUND_REQUESTS};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 7;
/// Default `--seconds`; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: u64 = NOMINAL_SECONDS;

struct Args {
    /// Index into [`WORKLOADS`].
    workload: Option<usize>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}`: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--sets" => args.sets = number()?.max(1) as usize,
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2e: {e}\nusage: e2e [--workload <{}>] [--seed <n>] [--seconds <s>] \
                 [--trace <0|1>] [--sets <n>]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) if args.sets == 1 => one_run(&WORKLOADS[w], &args),
        _ => suite(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: FAILED, no metrics reported: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run in this process; the result line comes last.
///
/// The run has a spawned thread to itself, as the server's handlers
/// do. On the main thread the allocator serves the same calls from the
/// brk heap, which it trims and regrows around every large free: the
/// in-process replay of an ASK over kb_large took 142 ms there and
/// 84 ms on a spawned thread (85 ms over the wire).
fn one_run(w: &'static Workload, args: &Args) -> Result<(), String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = std::thread::Builder::new()
        .name("e2e".into())
        .spawn(move || run(w, seed, seconds, trace))
        .map_err(text)?
        .join()
        .unwrap_or_else(|_| Err("the benchmark thread panicked".into()))?;
    print!("{}", result.table_text());
    println!("{}", result.json_line());
    Ok(())
}

/// Runs one workload in a child process of its own — a fresh allocator
/// and a `VmHWM` that means this run — and returns the metrics of its
/// result line.
fn child_run(w: &Workload, args: &Args, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(text)?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(text)?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("the {} run exited with {}", w.name, out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(metrics::parse_json_line)
        .ok_or_else(|| format!("the {} run printed no result line", w.name))
}

/// Without `--workload`: every workload once, in the mode `--trace`
/// names. With `--sets n`: the whole suite `n` times in both modes,
/// workload order alternating, every end-to-end metric compared with
/// its bound and every exact per-layer count required to repeat.
fn suite(args: &Args) -> Result<(), String> {
    let selected: Vec<usize> = match args.workload {
        Some(w) => vec![w],
        None => (0..WORKLOADS.len()).collect(),
    };
    let modes: &[bool] = if args.sets > 1 {
        &[false, true]
    } else {
        std::slice::from_ref(&args.trace)
    };
    // results[workload][mode][set] = that run's metrics.
    let mut results = vec![vec![Vec::new(); 2]; WORKLOADS.len()];
    for set in 0..args.sets {
        let mut order = selected.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            for &trace in modes {
                results[wi][usize::from(trace)].push(child_run(&WORKLOADS[wi], args, trace)?);
            }
        }
    }
    if args.sets == 1 {
        return Ok(());
    }
    let mut failures = 0;
    for wi in selected {
        for (table, runs) in [END_TO_END, PER_LAYER].into_iter().zip(&results[wi]) {
            for def in table.iter().filter(|d| d.bound > 0.0 || d.exact) {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|m| m.iter().find(|(name, _)| name == def.name))
                    .map(|(_, v)| *v)
                    .collect();
                let worst = values[1..]
                    .iter()
                    .map(|v| (v - values[0]).abs() / values[0].abs().max(f64::MIN_POSITIVE))
                    .fold(0.0, f64::max);
                let pass = if def.exact {
                    values.iter().all(|v| *v == values[0])
                } else {
                    worst <= def.bound
                };
                failures += usize::from(!pass);
                println!(
                    "{:<9} {:<36} {:<48} diff {:>6.2}%  {}",
                    WORKLOADS[wi].name,
                    def.name,
                    values
                        .iter()
                        .map(|v| format!("{v:.4}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                    worst * 100.0,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
        }
    }
    match failures {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) did not repeat within their bound")),
    }
}

/// Pools one kind's samples over several clients, in milliseconds.
fn pooled(logs: &[&ClientLog], kind: Kind) -> Vec<f64> {
    logs.iter().flat_map(|l| l.millis(kind)).collect()
}

/// Median of one kind's wire samples, with its sample count.
fn p50(logs: &[&ClientLog], kind: Kind) -> Result<(f64, usize), String> {
    let v = pooled(logs, kind);
    stats::median(&v)
        .map(|m| (m, v.len()))
        .ok_or_else(|| format!("no {kind:?} request completed after warm-up"))
}

/// Nearest-rank p95. The choosing-metrics rule wants ten samples
/// beyond it; a run too short for that still reports, and says so.
fn p95(logs: &[&ClientLog], kind: Kind) -> Result<(f64, usize), String> {
    let mut v = pooled(logs, kind);
    v.sort_by(f64::total_cmp);
    if !stats::supports(v.len(), 95.0) {
        println!(
            "note: {kind:?} p95 rests on {} samples, fewer than {} lie beyond it",
            v.len(),
            stats::MIN_BEYOND
        );
    }
    stats::percentile(&v, 95.0)
        .map(|p| (p, v.len()))
        .ok_or_else(|| format!("no {kind:?} request completed after warm-up"))
}

/// Requests completed per second a request was in flight: the median
/// over the rounds after warm-up, each round the same mix of requests.
/// The connections of `logs` take turns, so a round is the sum of
/// theirs.
fn throughput(logs: &[&ClientLog], per_round: usize) -> Result<(f64, usize), String> {
    let per_client: Vec<_> = logs.iter().map(|l| l.rounds(per_round)).collect();
    let rates: Vec<f64> = (0..per_client[0].len())
        .map(|r| {
            let requests: u64 = per_client.iter().map(|c| c[r].0).sum();
            let in_flight: Duration = per_client.iter().map(|c| c[r].1).sum();
            requests as f64 / in_flight.as_secs_f64()
        })
        .collect();
    stats::median(&rates)
        .map(|m| (m, rates.len()))
        .ok_or_else(|| "no round completed after warm-up".into())
}

/// Process-wide `obs` counters the per-layer table reads as deltas
/// over the wire run, while nothing but the leader is running.
#[derive(Clone, Copy)]
struct ObsCounts {
    /// WAL fsyncs issued.
    fsyncs: u64,
    /// Microseconds writers waited for the state lock, and how often.
    lock_wait: (u64, u64),
    /// View reads served from the maintained model / by pinned
    /// re-evaluation.
    view_asks: (u64, u64),
}

impl ObsCounts {
    fn now() -> ObsCounts {
        let reg = obs::registry();
        let fsyncs = reg.histogram(
            "gkbms_journal_fsync_seconds",
            "Latency of WAL fsyncs (per-op and group-commit)",
        );
        let lock = reg.histogram(
            "gkbms_writer_lock_wait_seconds",
            "Time spent waiting to acquire the single-writer state lock",
        );
        let counter = |name| reg.counter_value(name).unwrap_or(0);
        ObsCounts {
            fsyncs: fsyncs.count(),
            lock_wait: (lock.sum_micros(), lock.count()),
            view_asks: (
                counter("gkbms_view_asks_materialized_total"),
                counter("gkbms_view_asks_pinned_total"),
            ),
        }
    }

    fn since(self, before: ObsCounts) -> ObsCounts {
        ObsCounts {
            fsyncs: self.fsyncs - before.fsyncs,
            lock_wait: (
                self.lock_wait.0 - before.lock_wait.0,
                self.lock_wait.1 - before.lock_wait.1,
            ),
            view_asks: (
                self.view_asks.0 - before.view_asks.0,
                self.view_asks.1 - before.view_asks.1,
            ),
        }
    }
}

/// Everything one wire run of a workload observed.
struct Wire {
    setups: usize,
    setup_s: f64,
    generate_s: f64,
    register_s: f64,
    propositions: usize,
    decisions: usize,
    effective: usize,
    browse: Vec<ClientLog>,
    design: harness::DesignLog,
    tail: harness::Tail,
    obs: ObsCounts,
    /// When the last wire request completed.
    end: Instant,
}

impl Wire {
    fn readers(&self) -> Vec<&ClientLog> {
        self.browse.iter().collect()
    }

    fn attempted(&self) -> u64 {
        self.browse.iter().map(|l| l.attempted).sum::<u64>()
            + self.design.writer.attempted
            + self.design.reader.attempted
    }
}

/// One run of one workload: set-up, browse phase, design phase, the
/// replication/recovery tail and — when tracing — the layer probes.
fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let scratch = Scratch::new()?;
    let epoch = Instant::now();

    // One corpus serves, one is the oracle, one is taken apart by the
    // layer probes; the rest only time their set-up.
    let mut timed = Vec::new();
    let mut kept: Vec<harness::Setup> = Vec::new();
    let mut pace = Pace::new();
    for i in 0..w.setups {
        pace.tick();
        let setup = harness::setup(w, scratch.dir(&format!("kb{i}")))?;
        timed.push((
            setup.started,
            [setup.elapsed, setup.generate, setup.register_view],
        ));
        match kept.first() {
            Some(first) if first.corpus_fingerprint != setup.corpus_fingerprint => {
                return Err("the same corpus seed generated different histories".into());
            }
            _ if kept.len() < 3 => kept.push(setup),
            _ => drop(setup.server.shutdown().map_err(text)?),
        }
    }
    pace.tick();
    let corpus_fingerprint = kept[0].corpus_fingerprint;
    // Whole set-up, corpus generation and view registration, each at
    // the pace around its set-up.
    let [setup_s, generate_s, register_s] = [0, 1, 2].map(|part| {
        let paced: Vec<f64> = timed
            .iter()
            .map(|(at, took)| pace.at_reference(*at, took[part]).as_secs_f64())
            .collect();
        stats::median(&paced).expect("at least one set-up")
    });
    let mut kept = kept.into_iter();
    let mut next = || {
        kept.next()
            .expect("a workload sets up at least three times")
    };
    let leader = next();
    let mut twin = next().server.shutdown().map_err(text)?;
    let probe_twin = next().server.shutdown().map_err(text)?;
    let catalog = harness::catalog(&twin);
    let propositions = twin.kb().len();
    let effective = twin.records().iter().filter(|r| !r.retracted).count();

    println!(
        "workload {} ({}): {} propositions, {} decisions ({} effective); corpus fingerprint \
         {:016x}; schedule seed {seed}, fingerprint {:016x}",
        w.name,
        w.why,
        propositions,
        catalog.decisions.len(),
        effective,
        corpus_fingerprint,
        schedule::fingerprint(seed, READERS + 1, &catalog),
    );
    println!(
        "  {} closed-loop client connections taking turns, one request in flight, on {} core(s); \
         loopback TCP; fsync policy {} (one fsync per acknowledged write), journals under {} on \
         device {}; obs enabled: {}",
        READERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        server::Config::default().fsync,
        harness::out_dir().join("e2e-tmp").display(),
        scratch.device(),
        obs::enabled(),
    );

    // The traced run sends half the requests over the wire and spends
    // the rest of its time on the in-process probes.
    let halves = seconds as usize * if trace { 1 } else { 2 };
    let count = |nominal: usize| (nominal * halves).div_ceil(2 * NOMINAL_SECONDS as usize);
    let (browse_rounds, design_rounds) = (count(w.browse_rounds), count(w.design_rounds));
    let before = ObsCounts::now();

    let t0 = Instant::now();
    let (browse, browse_pace) =
        harness::browse_phase(leader.server.local_addr(), seed, &catalog, browse_rounds)?;
    let browse_took = t0.elapsed();
    let mut verified = 0;
    for log in &browse {
        verified += oracle::verify(&twin, &log.checks)?;
    }

    let t0 = Instant::now();
    let design = harness::design_phase(
        &leader.server,
        seed,
        &catalog,
        design_rounds,
        w.pinned_every,
    )?;
    let end = Instant::now();
    let obs = ObsCounts::now().since(before);
    for step in &design.steps {
        oracle::apply_step(&mut twin, step)?;
    }
    let replay_took = end.elapsed();
    verified += oracle::verify(&twin, &design.reader.checks)?;

    let tail = harness::tail(leader.server, &leader.dir, &scratch.dir("follower"), &twin)?;
    println!(
        "  browse phase: {READERS} x {} requests in {:.1} s; design phase: {} writer steps in \
         {:.1} s; the twin replayed them in {:.1} s",
        browse_rounds * READ_ROUND,
        browse_took.as_secs_f64(),
        design_rounds * WRITE_ROUND,
        (end - t0).as_secs_f64(),
        replay_took.as_secs_f64(),
    );
    println!(
        "  correctness gate passed: {verified} sampled answers equal the serial twin; follower, \
         final and recovered state equal it too ({} ops replayed; catch-up polled every {} ms)",
        tail.replayed_ops,
        harness::CATCHUP_POLL.as_millis(),
    );
    let paces = [
        ("set-up", &pace),
        ("browse", &browse_pace),
        ("design", &design.pace),
    ]
    .map(|(phase, pace)| {
        let (ticks, median) = pace.summary();
        format!(
            "{phase} {:.2} x ({ticks} ticks)",
            median.as_secs_f64() / pace::REFERENCE.as_secs_f64()
        )
    });
    println!(
        "  host pace, median tick of the reference kernel over its {} us when no neighbour is \
         busy: {}; every timing below is reported at the reference pace",
        pace::REFERENCE.as_micros(),
        paces.join(", "),
    );

    let wire = Wire {
        setups: w.setups,
        setup_s,
        generate_s,
        register_s,
        propositions,
        decisions: catalog.decisions.len(),
        effective,
        browse,
        design,
        tail,
        obs,
        end,
    };
    let (table, values) = if trace {
        let mut rec = spans::Recorder::new(epoch);
        wire_spans(&wire, &mut rec);
        // On a thread of its own, like each connection's handler: the
        // allocator arena of this thread has a run's worth of churn
        // behind it, and the same calls are ~10 % slower on it.
        let layers = std::thread::scope(|s| {
            s.spawn(|| layers::probe(w, seed, probe_twin, &catalog, &mut rec))
                .join()
                .unwrap_or_else(|_| Err("the layer probe panicked".into()))
        })?;
        let path = harness::out_dir()
            .join("e2e-trace")
            .join(format!("{}.jsonl", w.name));
        spans::write_jsonl(&path, rec.spans()).map_err(text)?;
        println!(
            "  {} spans written to {}",
            rec.spans().len(),
            path.display()
        );
        println!("  span                                           count  median us    self us");
        for (name, count, median, own) in spans::summary(rec.spans()) {
            println!("  {name:<46} {count:>5} {median:>10} {own:>10}");
        }
        (PER_LAYER, per_layer(&wire, &layers)?)
    } else {
        drop(probe_twin);
        (END_TO_END, end_to_end(&wire)?)
    };
    values.check_against(table)?;
    Ok(RunResult {
        attempted: wire.attempted(),
        failed: 0,
        table,
        values,
    })
}

/// One span per wire request, under one span for the workload.
fn wire_spans(wire: &Wire, rec: &mut spans::Recorder) {
    let root = rec.push("workload", 0, (0, 0), 0, rec.offset_us(wire.end));
    let clients = wire
        .browse
        .iter()
        .chain([&wire.design.writer, &wire.design.reader]);
    for (client, log) in clients.enumerate() {
        for s in &log.samples {
            rec.push(
                s.kind.wire_span(),
                root,
                (client as u32 + 1, s.seq),
                rec.offset_us(s.start),
                rec.offset_us(s.start + s.elapsed),
            );
        }
    }
}

/// The end-to-end table of a measured run.
fn end_to_end(wire: &Wire) -> Result<Values, String> {
    let readers = wire.readers();
    let writer = [&wire.design.writer];
    let beside = [&wire.design.reader];
    let mut values = Values::default();
    let mut set = |name, (v, n): (f64, usize)| values.set(name, v, n);
    set("setup_s", (wire.setup_s, wire.setups));
    set("ask_p50_ms", p50(&readers, Kind::Ask)?);
    set("view_ask_p50_ms", p50(&readers, Kind::ViewAsk)?);
    set("recall_p50_ms", p50(&readers, Kind::Recall)?);
    set("read_ops_per_s", throughput(&readers, READ_ROUND)?);
    set("tell_p50_ms", p50(&writer, Kind::Tell)?);
    set("fresh_ask_p50_ms", p50(&beside, Kind::FreshAsk)?);
    set("pinned_view_ask_p50_ms", p50(&beside, Kind::PinnedViewAsk)?);
    set(
        "write_ops_per_s",
        throughput(&writer, WRITE_ROUND_REQUESTS)?,
    );
    set("peak_rss_mb", (harness::peak_rss_mib()?, 1));
    Ok(values)
}

/// The per-layer table of a traced run.
fn per_layer(wire: &Wire, layers: &layers::Layers) -> Result<Values, String> {
    let readers = wire.readers();
    let writer = [&wire.design.writer];
    let mut values = Values::default();
    for def in PER_LAYER {
        // Everything not set explicitly below is the median of the
        // probe samples booked under the metric's own name.
        if let Ok((v, n)) = layers.median(def.name) {
            values.set(def.name, v, n);
        }
    }
    let mut set = |name, (v, n): (f64, usize)| values.set(name, v, n);
    let ask = p50(&readers, Kind::Ask)?;
    let tell = p50(&writer, Kind::Tell)?;
    let show = p50(&readers, Kind::Show).map(|(ms, n)| (ms * 1e3, n))?;
    set("server.ask_wire_p50_ms", ask);
    set("server.tell_wire_p50_ms", tell);
    set("server.show_wire_p50_us", show);
    set("server.execute_wire_p50_ms", p50(&writer, Kind::Execute)?);
    set("server.retract_wire_p50_ms", p50(&writer, Kind::Retract)?);
    set("server.ask_p95_ms", p95(&readers, Kind::Ask)?);
    set("server.tell_p95_ms", p95(&writer, Kind::Tell)?);
    set(
        "server.ask_residual_ms",
        (ask.0 - layers.median("inproc.ask")?.0, ask.1),
    );
    set(
        "server.tell_residual_ms",
        (tell.0 - layers.median("inproc.tell")?.0, tell.1),
    );
    set(
        "server.show_residual_us",
        (show.0 - layers.median("inproc.show")?.0, show.1),
    );
    let (derivations, asks) = layers.mean("seminaive.derivations")?;
    set(
        "query.derivations_per_answer",
        (derivations / layers.mean("query.answers")?.0, asks),
    );
    let (bytes, writes) = layers.mean("journal.wal_bytes")?;
    set(
        "journal.wal_bytes_per_op",
        (bytes / layers.mean("journal.ops")?.0, writes),
    );
    set(
        "mvcc.versions_live_max",
        (wire.design.versions_live_max as f64, 1),
    );
    let (materialized, pinned) = wire.obs.view_asks;
    set(
        "views.materialized_share",
        (
            materialized as f64 / (materialized + pinned) as f64,
            (materialized + pinned) as usize,
        ),
    );
    let writes = writer[0].attempted;
    set(
        "journal.fsyncs_per_write",
        (wire.obs.fsyncs as f64 / writes as f64, writes as usize),
    );
    let (waited_us, waits) = wire.obs.lock_wait;
    set(
        "server.writer_lock_wait_us",
        (waited_us as f64 / waits as f64, waits as usize),
    );
    set("views.register_s", (wire.register_s, wire.setups));
    set("recall.signatures_scanned", (wire.decisions as f64, 1));
    set("journal.replayed_ops", (wire.tail.replayed_ops as f64, 1));
    set("journal.recover_s", (wire.tail.recover.as_secs_f64(), 1));
    set(
        "replication.catchup_s",
        (wire.tail.catchup.as_secs_f64(), 1),
    );
    set(
        "journal.recover_ops_per_s",
        (
            wire.tail.replayed_ops as f64 / wire.tail.recover.as_secs_f64(),
            1,
        ),
    );
    set(
        "replication.catchup_ops_per_s",
        (
            wire.tail.catchup_ops as f64 / wire.tail.catchup.as_secs_f64(),
            1,
        ),
    );
    set("synth.generate_s", (wire.generate_s, wire.setups));
    set("synth.propositions", (wire.propositions as f64, 1));
    set("synth.decisions_effective", (wire.effective as f64, 1));
    Ok(values)
}

/// Any error, as the message the run fails with.
fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = parse_args(&argv("--workload kb_large --seed 3 --seconds 12 --trace 1")).unwrap();
        assert_eq!(WORKLOADS[a.workload.unwrap()].name, "kb_large");
        assert_eq!((a.seed, a.seconds, a.trace, a.sets), (3, 12, true, 1));
        let d = parse_args(&[]).unwrap();
        assert!(d.workload.is_none());
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--ops 5")).is_err());
    }

    #[test]
    fn throughput_is_the_median_round_of_the_connections_together() {
        let log = |millis: &[u64]| ClientLog {
            samples: millis
                .iter()
                .map(|&ms| harness::Sample {
                    kind: Kind::Ask,
                    seq: 0,
                    requests: 1,
                    start: Instant::now(),
                    elapsed: Duration::ZERO,
                    paced: Duration::from_millis(ms),
                })
                .collect(),
            ..ClientLog::default()
        };
        // Rounds of two requests per connection: 4 requests in flight
        // for 40 ms, 400 ms and 80 ms; the slow round is an outlier the
        // median ignores, and the trailing half round is dropped.
        let (a, b) = (
            log(&[10, 10, 100, 100, 20, 20, 5]),
            log(&[10, 10, 100, 100, 20, 20, 5]),
        );
        let (rate, rounds) = throughput(&[&a, &b], 2).unwrap();
        assert_eq!(rounds, 3);
        assert!((rate - 50.0).abs() < 1e-9, "{rate}");
        assert!(throughput(&[&log(&[10])], 2).is_err());
    }

    #[test]
    fn workloads_set_up_often_enough_and_warm_up_whole_rounds() {
        for w in &WORKLOADS {
            assert!(w.setups >= 3 && w.setups % 2 == 1, "{}", w.name);
            assert_eq!(WRITE_ROUND % w.pinned_every, 0, "{}", w.name);
            // Enough rounds after warm-up for a median of rounds.
            assert!(w.browse_rounds - harness::warmup_rounds(w.browse_rounds) >= 9);
            assert!(w.design_rounds - harness::warmup_rounds(w.design_rounds) >= 9);
        }
        assert_eq!(harness::warmup_rounds(12), 1);
        assert_eq!(harness::warmup_rounds(168), 9);
    }

    #[test]
    fn workload_names_fit_the_contract_and_are_distinct() {
        for w in &WORKLOADS {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_ne!(WORKLOADS[0].name, WORKLOADS[1].name);
    }
}
