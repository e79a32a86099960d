//! **ISSUE 10** — admission-time linting at scale: a TELL against a
//! large stored rule base must pay O(delta), not O(rule base).
//!
//! Sweeps the stored-base size and measures a one-rule delta linted
//! from scratch (fresh `AnalysisCache`) vs through the long-lived
//! fingerprint cache. `lint_snapshot` records the 10k-rule acceptance
//! figure in `BENCH_lint.json`.

use analysis::{lint_source_cached, AnalysisCache, LintContext};
use bench::synthetic_rule_base;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn context(groups: usize) -> LintContext<'static> {
    let mut ctx = LintContext::offline();
    ctx.stored_rules = synthetic_rule_base(groups, 5);
    ctx.assume_new_heads_queryable = true;
    ctx
}

fn probe(groups: usize) -> String {
    format!("probe(X, Y) :- p{groups}(X, Y), in_(X, C), isa(C, \"T{groups}\").")
}

fn bench_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint/full_relint");
    for groups in [100usize, 400] {
        let ctx = context(groups);
        let src = probe(groups);
        group.bench_with_input(BenchmarkId::new("rules", groups * 10), &groups, |b, _| {
            b.iter(|| {
                let mut cache = AnalysisCache::new();
                std::hint::black_box(lint_source_cached(&src, &ctx, &mut cache).len())
            })
        });
    }
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint/incremental");
    for groups in [100usize, 400] {
        let ctx = context(groups);
        let src = probe(groups);
        let mut cache = AnalysisCache::new();
        lint_source_cached(&src, &ctx, &mut cache);
        group.bench_with_input(BenchmarkId::new("rules", groups * 10), &groups, |b, _| {
            b.iter(|| std::hint::black_box(lint_source_cached(&src, &ctx, &mut cache).len()))
        });
    }
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
    targets = bench_full, bench_incremental
}
criterion_main!(benches);
