//! Scenario-fleet smoke driver (ISSUE 9, CI `scenario-fleet` job).
//!
//! Generates a seeded synthetic design history into a *journaled*
//! GKBMS, then pushes the two workloads the fleet exists to exercise —
//! selective backtracking with decision replay, and the 3-D history
//! navigation sweep — and verifies along the way:
//!
//! - same-seed determinism: two independent generations of the same
//!   config are operation-for-operation identical;
//! - the observability counters the generator and drivers bump are
//!   nonzero afterwards (the CI job re-asserts them over the wire via
//!   `\metrics` after recovering the journal under `cbshell --listen`),
//!   and the consistency check's class and constraint counters are
//!   printed (zero on a corpus without constraints);
//! - the journal directory recovers to the driven state, so a server
//!   can serve recall queries, the documented decision history and
//!   the status of every design object against the corpus.
//!
//! Right after generation it times the design reads once each —
//! `status_view`, `process_view`, `choice_points`, `dependency_graph`
//! and `consequences_of` (per object, over 50 sampled objects) — and,
//! after the backtracking drive, its median and slowest retraction. Each
//! prints one `timing <name> <ms>` line; nothing is asserted on them.
//! `scenario_fleet <dir> 42 5000` generates the benchmark's `kb_large`
//! corpus.
//!
//! Run with `cargo run --release -p bench --bin scenario_fleet -- \
//! <journal-dir> [seed] [decisions]`. Exits nonzero on any violation.

use gkbms::synth::{self, SynthConfig, SynthRng};
use gkbms::Gkbms;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| "scenario-fleet-kb".into());
    let seed: u64 = args.next().map_or(42, |s| s.parse().expect("seed"));
    let decisions: usize = args.next().map_or(250, |s| s.parse().expect("decisions"));
    let cfg = SynthConfig {
        seed,
        decisions,
        retraction_rate: 0.05,
        ..SynthConfig::default()
    };

    // Same-seed determinism, checked on throwaway in-memory instances
    // before anything touches the journal.
    let mut a = Gkbms::new().expect("gkbms");
    let mut b = Gkbms::new().expect("gkbms");
    let ha = synth::generate_into(&mut a, &cfg).expect("generate");
    let hb = synth::generate_into(&mut b, &cfg).expect("generate");
    assert_eq!(ha, hb, "same-seed generations must be identical");
    assert_eq!(ha.fingerprint(), hb.fingerprint());
    println!(
        "determinism: seed {seed} -> fingerprint {:016x}, {} ops",
        ha.fingerprint(),
        ha.ops.len()
    );

    // The journaled corpus the server job recovers from.
    let (mut g, _) = Gkbms::recover(&dir).expect("recover journal dir");
    let history = synth::generate_into(&mut g, &cfg).expect("generate into journal");
    assert_eq!(history, ha, "journaled generation diverged");
    time_design_reads(&g, seed);

    let mut rng = SynthRng::new(seed ^ 0x5eed);
    let rounds = (decisions / 10).max(5);
    let back = synth::drive_backtracking(&mut g, &mut rng, rounds).expect("backtracking");
    println!(
        "backtracking: {} retracted ({} objects out), {} replayed ({} objects back)",
        back.retracted, back.objects_taken_out, back.replayed, back.objects_recreated
    );
    assert!(back.retracted > 0, "fleet must exercise retraction");
    let mut retractions = back.retract_times;
    retractions.sort();
    timing("retract_p50", retractions[retractions.len() / 2]);
    timing("retract_max", retractions[retractions.len() - 1]);

    let nav = synth::sweep_navigation(&g, &mut rng, 8).expect("navigation");
    println!(
        "navigation: {} status rows, {} process rows, {} causal hops, \
         {} version objects, {} history events",
        nav.status_rows, nav.process_rows, nav.causal_hops, nav.version_objects, nav.history_events
    );
    assert!(nav.status_rows > 0 && nav.process_rows > 0);
    assert!(nav.history_events > 0, "sweep must walk object histories");

    // One recall probe in-process, its rows printed as `\recall syn0 5`
    // prints them; the CI job diffs them against the recovered server.
    let hits = g.recall_similar("syn0", 5).expect("recall");
    assert!(
        !hits.is_empty(),
        "a {decisions}-decision corpus has precedents"
    );
    println!("recall syn0: {} hits", hits.len());
    for h in &hits {
        let mark = if h.retracted { "  (retracted)" } else { "" };
        println!("recall row: {}  {:.3}{mark}", h.decision, h.score);
    }
    // The process view, as `history` prints it: every effective decision
    // with its class's dimension, read back from the KB. The CI job
    // diffs it against the recovered server's.
    for line in g.process_view().render().lines() {
        println!("history row: {line}");
    }
    // The status view, as `status` prints it: every current object with
    // its level and the producer that justifies it. The CI job diffs it
    // against the recovered server's, which replayed every retraction.
    for line in g.status_view().render().lines() {
        println!("status row: {line}");
    }

    // The counters the `\metrics` scrape asserts on.
    for name in [
        "gkbms_synth_decisions_total",
        "gkbms_synth_retractions_total",
        "gkbms_synth_backtrack_rounds_total",
        "gkbms_synth_nav_sweeps_total",
        "gkbms_recall_queries_total",
        "gkbms_recall_signatures_scored_total",
    ] {
        let v = obs::registry().counter_value(name).unwrap_or(0);
        println!("counter {name} = {v}");
        assert!(v > 0, "{name} must be nonzero after the fleet run");
    }
    // The consistency check's work: zero on a corpus that carries no
    // constraint, so printed and not asserted nonzero.
    for name in [
        "objectbase_consistency_classes_visited_total",
        "objectbase_constraints_evaluated_total",
    ] {
        let v = obs::registry().counter_value(name).unwrap_or(0);
        println!("counter {name} = {v}");
    }

    // The journal must recover to the driven state.
    drop(g);
    let (recovered, report) = Gkbms::recover(&dir).expect("re-recover");
    assert!(
        recovered.records().len() > decisions / 2,
        "recovered corpus lost its decisions"
    );
    println!(
        "recovered: {} decision records, {} current objects ({} WAL ops replayed)",
        recovered.records().len(),
        recovered.current_objects().len(),
        report.replayed_ops
    );
    println!("scenario fleet ok");
}

/// Prints one `timing <name> <ms>` line.
fn timing(name: &str, elapsed: Duration) {
    println!("timing {name} {:.3}", elapsed.as_secs_f64() * 1e3);
}

/// Times each design read once over the freshly generated corpus:
/// `consequences_of` per object, averaged over 50 sampled current
/// objects.
fn time_design_reads(g: &Gkbms, seed: u64) {
    fn time<T>(read: impl FnOnce() -> T) -> Duration {
        let start = Instant::now();
        std::hint::black_box(read());
        start.elapsed()
    }
    timing("status_view", time(|| g.status_view()));
    timing("process_view", time(|| g.process_view()));
    timing("choice_points", time(|| g.choice_points()));
    timing("dependency_graph", time(|| g.dependency_graph()));
    let current = g.current_objects();
    let mut rng = SynthRng::new(seed ^ 0x7153);
    let sampled: Vec<&String> = (0..50)
        .map(|_| &current[rng.below(current.len())])
        .collect();
    let all = time(|| {
        sampled
            .iter()
            .map(|o| g.consequences_of(o).len())
            .sum::<usize>()
    });
    timing("consequences_of", all / 50);
}
