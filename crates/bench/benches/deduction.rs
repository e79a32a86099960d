//! **E-2** — "the inference engines may enhance their performance by
//! lemma generation" (§3.1).
//!
//! Transitive-closure queries over isa chains of growing depth,
//! comparing: bottom-up semi-naive, top-down with tabling (lemmas),
//! top-down without tabling, and magic sets. The expected shape:
//! tabling beats plain SLD as soon as subgoals repeat; magic beats
//! full bottom-up on bound queries. The served system runs only the
//! bottom-up kernel; the other strategies are `bench::engines`.

use bench::engines::{magic, topdown};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datalog::ast::{Atom, Program, Term, Value};
use datalog::db::Database;
use datalog::seminaive;
use objectbase::query::{base_program, to_edb_at_store};
use std::time::Duration;

const TC: &str = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";

fn chain_db(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
            .expect("insert");
    }
    db
}

fn bench_engines(c: &mut Criterion) {
    let program = Program::parse(TC).expect("parse");
    let mut group = c.benchmark_group("deduction/engines");
    for n in [20i64, 60, 120] {
        let db = chain_db(n);
        group.bench_with_input(BenchmarkId::new("bottom_up_full", n), &n, |b, _| {
            b.iter(|| {
                let (model, _) = seminaive::evaluate(&program, &db).expect("eval");
                std::hint::black_box(model.count("path"))
            })
        });
        let bound = Atom::new("path", vec![Term::int(0), Term::var("Y")]);
        group.bench_with_input(BenchmarkId::new("topdown_tabled", n), &n, |b, _| {
            b.iter(|| {
                let mut td = topdown::TopDown::new(&program, &db);
                std::hint::black_box(td.query(&bound).expect("query").len())
            })
        });
        group.bench_with_input(BenchmarkId::new("magic_bound", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    magic::magic_evaluate(&program, &db, &bound)
                        .expect("magic")
                        .len(),
                )
            })
        });
    }
    group.finish();
}

/// A ladder graph: between consecutive rungs there are two parallel
/// 2-edge routes, so `path(rung 0, rung n)` has 2^n derivations. Plain
/// SLD enumerates every derivation; tabling dedupes answers.
fn ladder_db(rungs: i64) -> (Database, i64) {
    let mut db = Database::new();
    let mut add = |a: i64, b: i64| {
        db.insert("edge", vec![Value::Int(a), Value::Int(b)])
            .expect("insert");
    };
    for i in 0..rungs {
        let (l, a, bn, next) = (i * 3, i * 3 + 1, i * 3 + 2, (i + 1) * 3);
        add(l, a);
        add(a, next);
        add(l, bn);
        add(bn, next);
    }
    (db, rungs * 3)
}

fn bench_derivation_blowup(c: &mut Criterion) {
    // E-2's core ablation: lemma generation versus derivation
    // enumeration on a workload with exponentially many proofs.
    let program = Program::parse(TC).expect("parse");
    let mut group = c.benchmark_group("deduction/derivation_blowup");
    for rungs in [6i64, 8, 10] {
        let (db, goal_node) = ladder_db(rungs);
        let bound = Atom::new("path", vec![Term::int(0), Term::int(goal_node)]);
        group.bench_with_input(BenchmarkId::new("tabled", rungs), &rungs, |b, _| {
            b.iter(|| {
                let mut td = topdown::TopDown::new(&program, &db);
                std::hint::black_box(td.holds(&bound).expect("query"))
            })
        });
        group.bench_with_input(BenchmarkId::new("untabled", rungs), &rungs, |b, &r| {
            b.iter(|| {
                let mut td =
                    topdown::TopDown::new(&program, &db).without_tabling(2 * r as usize + 2);
                std::hint::black_box(td.query(&bound).expect("query").len())
            })
        });
    }
    group.finish();
}

fn bench_lemma_reuse(c: &mut Criterion) {
    // Repeated queries: lemmas amortize across queries.
    let program = Program::parse(TC).expect("parse");
    let db = chain_db(40);
    let goals: Vec<Atom> = (0..10)
        .map(|i| Atom::new("path", vec![Term::int(i), Term::var("Y")]))
        .collect();
    let mut group = c.benchmark_group("deduction/lemma_reuse");
    group.bench_function("10_queries_one_engine", |b| {
        b.iter(|| {
            let mut td = topdown::TopDown::new(&program, &db);
            let mut total = 0;
            for g in &goals {
                total += td.query(g).expect("query").len();
            }
            std::hint::black_box(total)
        })
    });
    group.bench_function("10_queries_fresh_engines", |b| {
        b.iter(|| {
            let mut total = 0;
            for g in &goals {
                let mut td = topdown::TopDown::new(&program, &db);
                total += td.query(g).expect("query").len();
            }
            std::hint::black_box(total)
        })
    });
    group.finish();
}

fn bench_index_ablation(c: &mut Criterion) {
    // ISSUE 1: hash-join evaluation through binding-pattern indexes
    // versus the pre-index scan core, on the CML closure rules over
    // deep isa chains.
    let program = base_program();
    let mut group = c.benchmark_group("deduction/index_ablation");
    for (depth, fanout) in [(16usize, 250usize), (64, 1000)] {
        let kb = bench::isa_chain_kb(depth, fanout);
        let edb = to_edb_at_store(&kb, kb.now()).expect("edb");
        let label = format!("d{depth}_f{fanout}");
        group.bench_with_input(BenchmarkId::new("indexed", &label), &edb, |b, edb| {
            b.iter(|| {
                let (model, _) = seminaive::evaluate(&program, edb).expect("eval");
                std::hint::black_box(model.count("inT"))
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", &label), &edb, |b, edb| {
            b.iter(|| {
                let (model, _) = seminaive::evaluate_scan(&program, edb).expect("eval");
                std::hint::black_box(model.count("inT"))
            })
        });
    }
    group.finish();
}

/// The distinct names in column `at` of `tuples`, sorted.
fn names(tuples: impl IntoIterator<Item = Vec<Value>>, at: usize) -> Vec<String> {
    let mut out: Vec<String> = tuples.into_iter().map(|t| t[at].to_string()).collect();
    out.sort();
    out.dedup();
    out
}

fn bench_kb_deduction(c: &mut Criterion) {
    // The deductive-relational view over a real KB (object processor):
    // every instance of the top class, inheritance included, by each
    // strategy over the base program and the KB's export.
    let kb = bench::isa_chain_kb(30, 300);
    let edb = to_edb_at_store(&kb, kb.now()).expect("edb");
    let program = base_program();
    let goal = Atom::new("inT", vec![Term::var("X"), Term::sym("C30")]);
    let pattern = [None, Some(Value::sym("C30"))];
    let mut group = c.benchmark_group("deduction/kb_view");
    group.bench_function("BottomUp", |b| {
        b.iter(|| {
            let (model, _) = seminaive::evaluate(&program, &edb).expect("eval");
            std::hint::black_box(names(model.probe("inT", &pattern), 0).len())
        })
    });
    group.bench_function("TopDown", |b| {
        b.iter(|| {
            let mut td = topdown::TopDown::new(&program, &edb);
            let answers = td.query(&goal).expect("query");
            let tuples = answers.into_iter().map(|env| vec![env["X"].clone()]);
            std::hint::black_box(names(tuples, 0).len())
        })
    });
    group.bench_function("Magic", |b| {
        b.iter(|| {
            let answers = magic::magic_evaluate(&program, &edb, &goal).expect("magic");
            std::hint::black_box(names(answers, 0).len())
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engines, bench_derivation_blowup, bench_lemma_reuse, bench_index_ablation, bench_kb_deduction
}
criterion_main!(benches);
