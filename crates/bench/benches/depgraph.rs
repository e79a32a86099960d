//! **Fig 3-3** — dependency-graph derivation with lemma generation:
//! "this capability is, e.g., used in creating dependency graph
//! objects of the GKBMS" (§3.1).
//!
//! Measures graph construction vs history size, and zooming.

use bench::decision_history;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("depgraph/build");
    for n in [5usize, 20, 50] {
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, &n| {
            let (g, _) = decision_history(n, 2);
            b.iter(|| std::hint::black_box(g.dependency_graph().nodes().len()))
        });
    }
    group.finish();
}

fn bench_zoom_and_render(c: &mut Criterion) {
    let (g, _) = decision_history(30, 3);
    let graph = g.dependency_graph();
    let mut group = c.benchmark_group("depgraph/display");
    group.bench_function("render_full", |b| {
        b.iter(|| std::hint::black_box(graph.render().len()))
    });
    group.bench_function("zoom_radius_2", |b| {
        b.iter(|| std::hint::black_box(graph.zoom("E5Rel1", 2).nodes().len()))
    });
    group.bench_function("consequences_of", |b| {
        b.iter(|| std::hint::black_box(g.consequences_of("E5Rel0").len()))
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
    targets = bench_build, bench_zoom_and_render
}
criterion_main!(benches);
