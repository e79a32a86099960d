//! Writes `BENCH_replay.json`: how fast the benchmark's `kb_large`
//! corpus re-executes, in process, with no wire and no follower.
//!
//! Each round generates the synth corpus (seed 42, 5 000 decisions:
//! the `kb_large` stream) into a fresh journal directory, timing
//! `synth::generate_into`, and then replays its WAL two ways:
//!
//! - `Gkbms::recover` of the directory, timed whole — what a restart
//!   and a follower's catch-up pay;
//! - op by op: every WAL record decoded and handed to
//!   `Gkbms::apply_replicated` on a fresh in-memory system, each call
//!   timed and filed under its op's journal label (`execute`,
//!   `register`, `retract`, …) — what a follower pays per shipped op.
//!
//! Both replays must reach the generating system's state (believed
//! propositions and history length). The JSON holds every round's
//! rates and, for the median round by op-by-op rate, the p50/p99/max of
//! each op kind. Timings move with the host: compare two builds only
//! by alternating their runs on one machine.
//!
//! Run with `cargo run --release -p bench --bin replay_snapshot --
//! [seed] [decisions] [rounds]` from the repo root.

use gkbms::journal::{decode_framed, WAL_FILE};
use gkbms::synth::{self, SynthConfig};
use gkbms::{Gkbms, JournalOp};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn journal_dir(round: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cb-bench-replay-{round}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// What a replayed system must agree on with the generating one.
fn state(g: &Gkbms) -> (usize, u64) {
    (g.kb().snapshot().believed_count(), g.applied_seq())
}

struct Round {
    ops: usize,
    generate: Duration,
    recover: Duration,
    apply: Duration,
    /// Per op label, every apply's duration.
    kinds: BTreeMap<&'static str, Vec<Duration>>,
}

impl Round {
    fn apply_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.apply.as_secs_f64()
    }

    fn recover_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.recover.as_secs_f64()
    }
}

fn wal_records(dir: &Path) -> Vec<Vec<u8>> {
    let mut log = storage::AppendLog::open(dir.join(WAL_FILE)).expect("open WAL");
    let records = log
        .iter()
        .expect("read WAL")
        .map(|r| r.expect("WAL record").1);
    records.collect()
}

fn run_round(cfg: &SynthConfig, round: usize) -> Round {
    let dir = journal_dir(round);
    let (mut g, _) = Gkbms::recover(&dir).expect("fresh journal");
    let t = Instant::now();
    synth::generate_into(&mut g, cfg).expect("generate");
    let generate = t.elapsed();
    let want = state(&g);
    drop(g);

    let t = Instant::now();
    let (recovered, report) = Gkbms::recover(&dir).expect("recover");
    let recover = t.elapsed();
    assert_eq!(state(&recovered), want, "recovery diverged");
    drop(recovered);

    let records = wal_records(&dir);
    assert_eq!(records.len() as u64, report.replayed_ops);
    let mut replica = Gkbms::new().expect("gkbms");
    let mut kinds: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    let mut apply = Duration::ZERO;
    for bytes in &records {
        let (seq, epoch, payload) = decode_framed(bytes).expect("frame");
        let kind = JournalOp::decode(payload).expect("op").op_name();
        let t = Instant::now();
        replica
            .apply_replicated(seq, epoch, payload)
            .expect("apply");
        let d = t.elapsed();
        apply += d;
        kinds.entry(kind).or_default().push(d);
    }
    assert_eq!(state(&replica), want, "op-by-op apply diverged");
    drop(replica);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    Round {
        ops: records.len(),
        generate,
        recover,
        apply,
        kinds,
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile of sorted `xs` (nearest rank).
fn quantile(xs: &[Duration], q: f64) -> Duration {
    xs[((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len()) - 1]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(42, |s| s.parse().expect("seed"));
    let decisions: usize = args.next().map_or(5000, |s| s.parse().expect("decisions"));
    let rounds: usize = args.next().map_or(3, |s| s.parse().expect("rounds"));
    let cfg = SynthConfig {
        seed,
        decisions,
        ..SynthConfig::default()
    };

    let mut all: Vec<Round> = (0..rounds.max(1)).map(|r| run_round(&cfg, r)).collect();
    let mut rows = Vec::new();
    for (i, r) in all.iter().enumerate() {
        println!(
            "round {i}: {} ops; generate {:.3} s; recover {:.3} s ({:.0} op/s); \
             op-by-op apply {:.3} s ({:.0} op/s)",
            r.ops,
            r.generate.as_secs_f64(),
            r.recover.as_secs_f64(),
            r.recover_ops_per_s(),
            r.apply.as_secs_f64(),
            r.apply_ops_per_s()
        );
        rows.push(format!(
            "    {{\"generate_s\": {:.4}, \"recover_s\": {:.4}, \"recover_ops_per_s\": {:.0}, \
             \"apply_s\": {:.4}, \"apply_ops_per_s\": {:.0}}}",
            r.generate.as_secs_f64(),
            r.recover.as_secs_f64(),
            r.recover_ops_per_s(),
            r.apply.as_secs_f64(),
            r.apply_ops_per_s()
        ));
    }

    all.sort_by_key(|r| r.apply);
    let median = &mut all[rounds.max(1) / 2];
    let mut kinds = Vec::new();
    for (kind, times) in &mut median.kinds {
        times.sort();
        let total: Duration = times.iter().sum();
        let (p50, p99, max) = (
            quantile(times, 0.5),
            quantile(times, 0.99),
            times[times.len() - 1],
        );
        println!(
            "  {kind:>14}: {:>5} ops, total {:.1} ms, p50 {:.1} us, p99 {:.1} us, max {:.1} us",
            times.len(),
            total.as_secs_f64() * 1e3,
            micros(p50),
            micros(p99),
            micros(max)
        );
        kinds.push(format!(
            "    \"{kind}\": {{\"ops\": {}, \"total_ms\": {:.2}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"max_us\": {:.1}}}",
            times.len(),
            total.as_secs_f64() * 1e3,
            micros(p50),
            micros(p99),
            micros(max)
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"replay\",\n  \"seed\": {seed},\n  \"decisions\": {decisions},\n  \
         \"ops\": {},\n  \
         \"note\": \"the synth corpus generated into a journal, then its WAL replayed by \
         Gkbms::recover and op by op through apply_replicated on a fresh in-memory system; \
         both must reach the generated state; per-kind quantiles are of the median round \
         by op-by-op apply time\",\n  \
         \"rounds\": [\n{}\n  ],\n  \"apply_by_kind\": {{\n{}\n  }}\n}}\n",
        median.ops,
        rows.join(",\n"),
        kinds.join(",\n")
    );
    std::fs::write("BENCH_replay.json", &json).expect("write BENCH_replay.json");
    println!("wrote BENCH_replay.json");
}
