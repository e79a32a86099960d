//! **E-7** — the embedded time calculus (§3.1 cites \[ALLE83\] and
//! \[KS86\]).
//!
//! Path-consistency propagation cost vs network size (Allen), event-
//! calculus query cost vs event count, and temporal KB queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use telos::time::allen::{AllenNetwork, AllenRel, RelSet};
use telos::time::events::{EventCalculus, Fluent};

fn bench_path_consistency(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal/path_consistency");
    for n in [5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                // A chain of `before` constraints plus one `during`.
                let mut net = AllenNetwork::new(n);
                for i in 0..n - 1 {
                    net.assert_rel(i, i + 1, RelSet::of(AllenRel::Before));
                }
                net.assert_rel(n - 1, 0, RelSet::of(AllenRel::After));
                let ok = net.propagate();
                std::hint::black_box((ok, net.get(0, n - 1)))
            })
        });
    }
    group.finish();
}

fn bench_inconsistency_detection(c: &mut Criterion) {
    c.bench_function("temporal/detect_inconsistent_cycle", |b| {
        b.iter(|| {
            let mut net = AllenNetwork::new(6);
            for i in 0..5 {
                net.assert_rel(i, i + 1, RelSet::of(AllenRel::Before));
            }
            net.assert_rel(5, 0, RelSet::of(AllenRel::Before));
            std::hint::black_box(net.propagate())
        })
    });
}

fn bench_event_calculus(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal/event_calculus");
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("holds_at", n), &n, |b, &n| {
            let mut ec = EventCalculus::new();
            let f = Fluent(0);
            for i in 0..n as i64 {
                if i % 2 == 0 {
                    ec.happens(i, &[f], &[]);
                } else {
                    ec.happens(i, &[], &[f]);
                }
            }
            ec.holds_at(f, 0); // build the timeline once
            b.iter(|| std::hint::black_box(ec.holds_at(f, (n / 2) as i64)))
        });
        group.bench_with_input(BenchmarkId::new("periods", n), &n, |b, &n| {
            let mut ec = EventCalculus::new();
            let f = Fluent(0);
            for i in 0..n as i64 {
                if i % 2 == 0 {
                    ec.happens(i, &[f], &[]);
                } else {
                    ec.happens(i, &[], &[f]);
                }
            }
            ec.holds_at(f, 0);
            b.iter(|| std::hint::black_box(ec.periods(f).len()))
        });
    }
    group.finish();
}

fn bench_temporal_kb_queries(c: &mut Criterion) {
    // `*_at` retrieval over a KB with churn (tell + untell).
    let mut kb = telos::Kb::new();
    let class = kb.individual("C").expect("fresh");
    let mut links = Vec::new();
    for i in 0..500 {
        let t = kb.individual(&format!("t{i}")).expect("fresh");
        links.push(kb.instantiate(t, class).expect("link"));
        kb.tick();
    }
    let mid = kb.now() / 2;
    for l in links.iter().take(250) {
        kb.untell(*l).expect("untell");
    }
    let mut group = c.benchmark_group("temporal/kb");
    group.bench_function("instances_now", |b| {
        b.iter(|| std::hint::black_box(kb.snapshot().instances_of(class).len()))
    });
    group.bench_function("believed_at_mid", |b| {
        b.iter(|| std::hint::black_box(kb.snapshot_at(mid).believed_count()))
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
    targets = bench_path_consistency, bench_inconsistency_detection, bench_event_calculus, bench_temporal_kb_queries
}
criterion_main!(benches);
