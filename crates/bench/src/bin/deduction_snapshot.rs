//! Writes `BENCH_deduction.json`: a machine-readable snapshot of the
//! deduction workloads — the scan oracle vs the join kernel of the
//! bottom-up engine (ISSUE 1 acceptance) and a TELL-heavy churn
//! workload pitting incremental view maintenance against full
//! recomputation (ISSUE 8 acceptance: >= 100x at depth-64 chains).
//!
//! Doubles as a CI gate: exits non-zero when the kernel's model
//! differs from the scan oracle's on any predicate, or when the churn
//! speedup falls below the ISSUE 8 floor.
//!
//! Run with `cargo run --release -p bench --bin deduction_snapshot`.

use datalog::ast::{Program, Value};
use datalog::db::Database;
use datalog::ivm::{Fact, MaterializedView};
use datalog::seminaive;
use objectbase::query::{base_program, to_edb};
use std::time::Instant;

fn median_secs(mut f: impl FnMut(), samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Every predicate of `db` with its sorted tuples.
fn listing(db: &Database) -> Vec<(&str, Vec<Vec<Value>>)> {
    db.preds()
        .into_iter()
        .map(|pred| {
            let mut tuples: Vec<Vec<Value>> = db.tuples(pred).collect();
            tuples.sort();
            (pred, tuples)
        })
        .collect()
}

fn main() {
    let mut entries = Vec::new();
    for (depth, fanout) in [(16usize, 250usize), (64, 1000)] {
        let kb = bench::isa_chain_kb(depth, fanout);
        let edb = to_edb(&kb).expect("edb");
        let program = base_program();

        let (model, stats) = seminaive::evaluate(&program, &edb).expect("indexed eval");
        let (scan_model, _) = seminaive::evaluate_scan(&program, &edb).expect("scan eval");
        if listing(&model) != listing(&scan_model) {
            eprintln!(
                "isa_chain_kb(depth={depth}, fanout={fanout}): the join kernel's model \
                 differs from the scan oracle's"
            );
            std::process::exit(1);
        }
        let expected = model.count("inT");
        let scan_time = median_secs(
            || {
                let (m, _) = seminaive::evaluate_scan(&program, &edb).expect("scan eval");
                assert_eq!(m.count("inT"), expected);
            },
            3,
        );
        let indexed_time = median_secs(
            || {
                let (m, _) = seminaive::evaluate(&program, &edb).expect("indexed eval");
                assert_eq!(m.count("inT"), expected);
            },
            3,
        );
        let speedup = scan_time / indexed_time;
        println!(
            "isa_chain_kb(depth={depth}, fanout={fanout}): scan {scan_time:.3}s, \
             indexed {indexed_time:.3}s, speedup {speedup:.1}x \
             (inT tuples: {expected}, probes: {}, scanned: {})",
            stats.index_probes, stats.tuples_scanned
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"isa_chain_kb\",\n      \"depth\": {depth},\n      \
             \"fanout\": {fanout},\n      \"inT_tuples\": {expected},\n      \
             \"scan_seconds\": {scan_time:.6},\n      \"indexed_seconds\": {indexed_time:.6},\n      \
             \"speedup\": {speedup:.2},\n      \"index_probes\": {},\n      \
             \"tuples_scanned\": {}\n    }}",
            stats.index_probes, stats.tuples_scanned
        ));
    }
    entries.push(churn_entry(64, 128, 40));
    let json = format!(
        "{{\n  \"bench\": \"deduction\",\n  \"issue\": 1,\n  \
         \"note\": \"scan = per-tuple matching, the independent oracle (seminaive::evaluate_scan); indexed = the shared join kernel, delta-driven with run-time binding masks (seminaive::evaluate), its model checked equal to the oracle's; ivm_churn = incremental maintenance (MaterializedView::apply) vs full recompute under interleaved TELL/UNTELL (ISSUE 8)\",\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_deduction.json", &json).expect("write BENCH_deduction.json");
    println!("wrote BENCH_deduction.json");
}

/// TELL-heavy churn over `chains` disjoint depth-`depth` edge chains:
/// alternating TELLs extending a chain tail and UNTELLs taking the
/// extension back, each folded into the transitive closure by the
/// maintained view, against a from-scratch evaluation of the same
/// program over the same extensional state.
fn churn_entry(depth: usize, chains: usize, ops: usize) -> String {
    let program =
        Program::parse("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).")
            .expect("churn program");
    let node = |c: usize, d: usize| Value::Int((c * (depth + 2) + d) as i64);
    let mut view = MaterializedView::new(program.clone()).expect("view");
    let load: Vec<Fact> = (0..chains)
        .flat_map(|c| {
            (0..depth).map(move |d| ("edge".to_string(), vec![node(c, d), node(c, d + 1)]))
        })
        .collect();
    view.apply(&load, &[]).expect("initial load");
    let path_tuples = view.model().count("path");

    // Median per-operation incremental cost: each op is one TELL of a
    // tail-extension edge or the UNTELL taking it back, so the view
    // returns to the loaded state every second op.
    let mut delta_tuples = 0usize;
    let mut times = Vec::with_capacity(ops);
    for i in 0..ops {
        let c = (i / 2) % chains;
        let ext: Fact = ("edge".to_string(), vec![node(c, depth), node(c, depth + 1)]);
        let start = Instant::now();
        let stats = if i % 2 == 0 {
            view.apply(std::slice::from_ref(&ext), &[])
                .expect("churn TELL")
        } else {
            view.apply(&[], std::slice::from_ref(&ext))
                .expect("churn UNTELL")
        };
        times.push(start.elapsed().as_secs_f64());
        delta_tuples += stats.delta_tuples();
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let incremental_time = times[times.len() / 2];

    let recompute_time = median_secs(
        || {
            let (m, _) = seminaive::evaluate(&program, view.edb()).expect("full recompute");
            assert_eq!(m.count("path"), path_tuples);
        },
        3,
    );
    let speedup = recompute_time / incremental_time;
    println!(
        "ivm_churn(depth={depth}, chains={chains}, ops={ops}): recompute {recompute_time:.4}s, \
         incremental {incremental_time:.7}s/op, speedup {speedup:.0}x \
         (path tuples: {path_tuples}, delta tuples: {delta_tuples})"
    );
    assert!(
        speedup >= 100.0,
        "ISSUE 8 acceptance: churn must be >= 100x faster than recompute, got {speedup:.0}x"
    );
    format!(
        "    {{\n      \"workload\": \"ivm_churn\",\n      \"depth\": {depth},\n      \
         \"chains\": {chains},\n      \"churn_ops\": {ops},\n      \
         \"path_tuples\": {path_tuples},\n      \"delta_tuples\": {delta_tuples},\n      \
         \"recompute_seconds\": {recompute_time:.6},\n      \
         \"incremental_seconds_per_op\": {incremental_time:.9},\n      \
         \"speedup\": {speedup:.1}\n    }}"
    )
}
