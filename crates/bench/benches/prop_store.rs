//! **E-6** — proposition store throughput (§3.1's "Proposition Base").
//!
//! Measures TELL throughput of the in-memory proposition store, what
//! the op journal — the one way a KB reaches disk — adds to a `Gkbms`
//! TELL stream, journal recovery, and the four access paths. fsync
//! policies are `BENCH_durability.json`'s subject, and the per-layer
//! `journal.*` metrics of the e2e benchmark decompose a served write.

use bench::isa_chain_kb;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gkbms::Gkbms;
use std::path::PathBuf;
use std::time::Duration;
use telos::Kb;

fn tell_n(kb: &mut Kb, n: usize) {
    let class = kb.individual("TokenClass").expect("fresh");
    for i in 0..n {
        let t = kb.individual(&format!("tok{i}")).expect("fresh");
        kb.instantiate(t, class).expect("classify");
    }
}

/// The same workload as [`tell_n`] through the GKBMS: one TELL op per
/// object (linted, applied, and — when a journal is attached — logged),
/// made durable by one fsync at the end.
fn tell_n_ops(g: &mut Gkbms, n: usize) {
    g.tell_src_checked("TELL TokenClass end", false)
        .expect("fresh");
    for i in 0..n {
        g.tell_src_checked(&format!("TELL tok{i} in TokenClass end"), false)
            .expect("classify");
    }
    if let Some(journal) = g.journal_mut() {
        journal.sync().expect("sync");
    }
}

fn journal_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("cb-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_tell(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop_store/tell");
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("memory", n), &n, |b, &n| {
            b.iter_batched(Kb::new, |mut kb| tell_n(&mut kb, n), BatchSize::SmallInput);
        });
        group.bench_with_input(BenchmarkId::new("gkbms_memory", n), &n, |b, &n| {
            b.iter_batched(
                || Gkbms::new().expect("boot"),
                |mut g| tell_n_ops(&mut g, n),
                BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("gkbms_journal", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let dir = journal_dir(&format!("tell-{n}"));
                    (Gkbms::recover(&dir).expect("open").0, dir)
                },
                |(mut g, dir)| {
                    tell_n_ops(&mut g, n);
                    drop(g);
                    let _ = std::fs::remove_dir_all(dir);
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_access_paths(c: &mut Criterion) {
    let kb = isa_chain_kb(20, 500);
    let c0 = kb.lookup("C0").expect("exists");
    let c20 = kb.lookup("C20").expect("exists");
    let tok = kb.lookup("t250").expect("exists");
    let mut group = c.benchmark_group("prop_store/access");
    group.bench_function("by_name_lookup", |b| {
        b.iter(|| std::hint::black_box(kb.lookup("t250")))
    });
    group.bench_function("direct_instances", |b| {
        b.iter(|| std::hint::black_box(kb.snapshot().instances_of(c0).len()))
    });
    group.bench_function("inherited_instances", |b| {
        b.iter(|| std::hint::black_box(kb.snapshot().all_instances_of(c20).len()))
    });
    group.bench_function("classes_closure", |b| {
        b.iter(|| std::hint::black_box(kb.snapshot().all_classes_of(tok).len()))
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    // Replay cost: recover a journal of 1001 TELL ops (2001 propositions).
    let dir = journal_dir("recover");
    tell_n_ops(&mut Gkbms::recover(&dir).expect("open").0, 1000);
    c.bench_function("prop_store/recovery_1000", |b| {
        b.iter(|| {
            let (g, report) = Gkbms::recover(&dir).expect("replay");
            assert_eq!(report.replayed_ops, 1001);
            std::hint::black_box(g.kb().len())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
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
    targets = bench_tell, bench_access_paths, bench_recovery
}
criterion_main!(benches);
