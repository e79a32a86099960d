//! Writes `BENCH_durability.json`: write throughput of the journaled
//! GKBMS service under its two fsync policies.
//!
//! Each round binds a server over a fresh journal directory and lets N
//! concurrent client threads TELL design objects. `group` acknowledges
//! a mutation once an fsync covers it, one leader fsync batched across
//! every op appended while the previous fsync ran (group commit);
//! `never` leaves durability to checkpoints (the no-fsync upper bound).
//! The headline number is `group_vs_never`: the share of the no-fsync
//! throughput that group commit keeps while acknowledging only durable
//! mutations.
//!
//! Every round ends with a `Gkbms::recover` of the journal directory,
//! asserting that all acknowledged ops actually survived and recording
//! the replay rate.
//!
//! Run with `cargo run --release -p bench --bin durability_snapshot`.

use gkbms::{FsyncPolicy, Gkbms};
use server::{Client, Config, Server};
use std::path::PathBuf;
use std::time::Instant;

const OPS_PER_WRITER: usize = 250;

fn journal_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cb-bench-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

struct Round {
    ops_per_sec: f64,
    replayed_ops: u64,
    replay_secs: f64,
}

fn run_round(policy: FsyncPolicy, writers: usize, tag: &str) -> Round {
    let dir = journal_dir(tag);
    let (mut g, _) = Gkbms::recover(&dir).expect("fresh journal");
    g.tell_src("TELL Paper end").expect("schema");
    let cfg = Config {
        fsync: policy,
        ..Config::default()
    };
    let server = Server::bind("127.0.0.1:0", g, cfg).expect("bind");
    let addr = server.local_addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let (s, _) = c.hello().expect("hello");
                for i in 0..OPS_PER_WRITER {
                    c.tell(s, &format!("TELL w{w}_{i} in Paper end"))
                        .expect("tell");
                }
                c.bye(s).expect("bye");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    let wall = start.elapsed().as_secs_f64();
    server.shutdown().expect("shutdown");

    // Validity: everything acknowledged must be recoverable from disk.
    let t0 = Instant::now();
    let (g, report) = Gkbms::recover(&dir).expect("recover");
    let replay_secs = t0.elapsed().as_secs_f64();
    for w in 0..writers {
        for i in 0..OPS_PER_WRITER {
            assert!(
                g.kb().lookup(&format!("w{w}_{i}")).is_some(),
                "acknowledged TELL w{w}_{i} missing after recovery ({policy})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");

    Round {
        ops_per_sec: (writers * OPS_PER_WRITER) as f64 / wall,
        replayed_ops: report.replayed_ops,
        replay_secs,
    }
}

/// Median of three rounds: fsync latency on a shared host is noisy
/// enough that single runs misrank the policies.
fn median_round(policy: FsyncPolicy, writers: usize, tag: &str) -> Round {
    let mut rounds: Vec<Round> = (0..3)
        .map(|rep| run_round(policy, writers, &format!("{tag}-{rep}")))
        .collect();
    rounds.sort_by(|a, b| a.ops_per_sec.partial_cmp(&b.ops_per_sec).expect("finite"));
    rounds.swap_remove(1)
}

fn main() {
    let mut entries = Vec::new();
    for writers in [1usize, 4, 8, 16] {
        let group = median_round(FsyncPolicy::Group, writers, &format!("group-{writers}"));
        let never = median_round(FsyncPolicy::Never, writers, &format!("never-{writers}"));
        let ratio = group.ops_per_sec / never.ops_per_sec;
        let replay_rate = group.replayed_ops as f64 / group.replay_secs;
        println!(
            "{writers} writer(s): group {:.0} op/s, never {:.0} op/s ({ratio:.2}x); \
             recovery replayed {} ops at {replay_rate:.0} op/s",
            group.ops_per_sec, never.ops_per_sec, group.replayed_ops
        );
        entries.push(format!(
            "    {{\n      \"writers\": {writers},\n      \
             \"ops_per_writer\": {OPS_PER_WRITER},\n      \
             \"fsync_group_ops_per_sec\": {:.1},\n      \
             \"fsync_never_ops_per_sec\": {:.1},\n      \
             \"group_vs_never\": {ratio:.2},\n      \
             \"recovery_replayed_ops\": {},\n      \
             \"recovery_replay_ops_per_sec\": {replay_rate:.0}\n    }}",
            group.ops_per_sec, never.ops_per_sec, group.replayed_ops
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"durability\",\n  \"issue\": 4,\n  \
         \"note\": \"concurrent client threads TELLing through the journaled server; \
         'group' acknowledges each op once an fsync covers it, one leader fsync batched \
         across concurrent commits, 'never' defers to checkpoints; each cell is the median \
         of 3 rounds, and every round is verified by recovering the journal and checking \
         all acknowledged ops survived; with strictly one outstanding op per synchronous \
         writer, group commit can batch at most W ops per fsync\",\n  \
         \"rounds\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json");
}
