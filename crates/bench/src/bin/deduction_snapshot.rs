//! Writes `BENCH_deduction.json`: a machine-readable snapshot of the
//! deduction workloads — the scan oracle vs the join kernel of the
//! bottom-up engine (ISSUE 1 acceptance), two TELL-heavy churn
//! workloads pitting incremental view maintenance against full
//! recomputation (ISSUE 8 acceptance: >= 100x at depth 64) — one
//! through a recursive stratum, one through a non-recursive join — and
//! the time to load a maintained view from a KB.
//!
//! Doubles as a CI gate: exits non-zero when the kernel's or a loaded
//! view's model differs from the scan oracle's on any predicate, or
//! when either churn speedup falls below the ISSUE 8 floor.
//!
//! Run with `cargo run --release -p bench --bin deduction_snapshot`.

use datalog::ast::{Program, Value};
use datalog::db::Database;
use datalog::ivm::{Fact, MaterializedView};
use datalog::seminaive;
use objectbase::query::{base_program, to_edb_at_store, to_edb_counted};
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
        let edb = to_edb_at_store(&kb, kb.now()).expect("edb");
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
    entries.push(join_churn_entry(64, 1000, 40));
    entries.push(view_load_entry(64, 1000));
    let json = format!(
        "{{\n  \"bench\": \"deduction\",\n  \"issue\": 1,\n  \
         \"note\": \"scan = per-tuple matching, the independent oracle (seminaive::evaluate_scan); indexed = the shared join kernel, delta-driven with run-time binding masks (seminaive::evaluate), its model checked equal to the oracle's; ivm_churn = incremental maintenance (MaterializedView::apply) vs full recompute under interleaved TELL/UNTELL of chain edges, through a recursive stratum (ISSUE 8); ivm_churn_join = the same under TELL/UNTELL of instances of the chain's bottom class, through the non-recursive inT join of the base program; view_load = KB to maintained model (one export + MaterializedView::load), checked equal to the oracle's\",\n  \
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
    let mut view = MaterializedView::new(program).expect("view");
    let load: Vec<Fact> = (0..chains)
        .flat_map(|c| {
            (0..depth).map(move |d| ("edge".to_string(), vec![node(c, d), node(c, d + 1)]))
        })
        .collect();
    view.apply(&load, &[]).expect("initial load");
    churn_row(
        "ivm_churn",
        &format!("\"depth\": {depth},\n      \"chains\": {chains}"),
        &mut view,
        "path",
        ops,
        |i| {
            let c = (i / 2) % chains;
            ("edge".to_string(), vec![node(c, depth), node(c, depth + 1)])
        },
    )
}

/// The same churn through a non-recursive stratum: the base program's
/// `inT(X, D) :- in_(X, C), isaT(C, D)` over a depth-`depth` class
/// chain, under TELL/UNTELL of one more instance of the bottom class —
/// every op moves one `in_` tuple and the `depth + 1` memberships it
/// inherits.
fn join_churn_entry(depth: usize, fanout: usize, ops: usize) -> String {
    let kb = bench::isa_chain_kb(depth, fanout);
    let edb = to_edb_at_store(&kb, kb.now()).expect("edb");
    let mut view = MaterializedView::load(base_program(), &edb, &[]).expect("view");
    churn_row(
        "ivm_churn_join",
        &format!("\"depth\": {depth},\n      \"fanout\": {fanout}"),
        &mut view,
        "inT",
        ops,
        |i| {
            let token = Value::sym(format!("churn{}", i / 2));
            ("in_".to_string(), vec![token, Value::sym("C0")])
        },
    )
}

/// One churn row: op `i` TELLs `ext(i)` when `i` is even and UNTELLs it
/// when odd (`ext(i) == ext(i + 1)` for even `i`), so the view returns
/// to the loaded state every second op. Asserts the ISSUE 8 floor.
fn churn_row(
    workload: &str,
    shape: &str,
    view: &mut MaterializedView,
    counted: &str,
    ops: usize,
    ext: impl Fn(usize) -> Fact,
) -> String {
    let tuples = view.model().count(counted);
    // Median per-operation incremental cost.
    let mut delta_tuples = 0usize;
    let mut times = Vec::with_capacity(ops);
    for i in 0..ops {
        let ext = ext(i);
        let start = Instant::now();
        let applied = if i % 2 == 0 {
            view.apply(std::slice::from_ref(&ext), &[])
                .expect("churn TELL")
        } else {
            view.apply(&[], std::slice::from_ref(&ext))
                .expect("churn UNTELL")
        };
        times.push(start.elapsed().as_secs_f64());
        delta_tuples += applied.stats.delta_tuples();
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let incremental_time = times[times.len() / 2];

    let edb = view.edb();
    let recompute_time = median_secs(
        || {
            let (m, _) = seminaive::evaluate(view.program(), &edb).expect("full recompute");
            assert_eq!(m.count(counted), tuples);
        },
        3,
    );
    let speedup = recompute_time / incremental_time;
    println!(
        "{workload}: recompute {recompute_time:.4}s, incremental {incremental_time:.7}s/op, \
         speedup {speedup:.0}x ({counted} tuples: {tuples}, delta tuples: {delta_tuples})"
    );
    assert!(
        speedup >= 100.0,
        "ISSUE 8 acceptance: {workload} must be >= 100x faster than recompute, got {speedup:.0}x"
    );
    format!(
        "    {{\n      \"workload\": \"{workload}\",\n      {shape},\n      \
         \"churn_ops\": {ops},\n      \
         \"{counted}_tuples\": {tuples},\n      \"delta_tuples\": {delta_tuples},\n      \
         \"recompute_seconds\": {recompute_time:.6},\n      \
         \"incremental_seconds_per_op\": {incremental_time:.9},\n      \
         \"speedup\": {speedup:.1}\n    }}"
    )
}

/// KB to maintained model, the way `register_view` gets there: one
/// export of the KB, then [`MaterializedView::load`] of the base
/// program plus one user rule. The loaded model must be the oracle's.
fn view_load_entry(depth: usize, fanout: usize) -> String {
    let kb = bench::isa_chain_kb(depth, fanout);
    let mut program = base_program();
    let top = Program::parse(&format!("top(X) :- inT(X, \"C{depth}\").")).expect("user rule");
    program.rules.extend(top.rules);
    let load = || {
        let (edb, duplicates) = to_edb_counted(kb.snapshot()).expect("edb");
        MaterializedView::load(program.clone(), &edb, &duplicates).expect("load")
    };
    let view = load();
    let (oracle, _) = seminaive::evaluate_scan(&program, &view.edb()).expect("scan eval");
    if listing(view.model()) != listing(&oracle) {
        eprintln!("view_load(depth={depth}, fanout={fanout}): the loaded model differs from the scan oracle's");
        std::process::exit(1);
    }
    let tuples = view.model().total();
    let load_time = median_secs(
        || {
            assert_eq!(load().model().total(), tuples);
        },
        5,
    );
    println!("view_load(depth={depth}, fanout={fanout}): {load_time:.4}s ({tuples} model tuples)");
    format!(
        "    {{\n      \"workload\": \"view_load\",\n      \"depth\": {depth},\n      \
         \"fanout\": {fanout},\n      \"model_tuples\": {tuples},\n      \
         \"load_seconds\": {load_time:.6}\n    }}"
    )
}
