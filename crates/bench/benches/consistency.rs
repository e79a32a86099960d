//! **E-1** — "set-oriented optimization of the consistency check is
//! being studied" (§3.1).
//!
//! A KB with many constrained classes; one batch of TELLs touches a
//! single class. Compares full checking against the set-oriented
//! touched-only check, sweeping the number of unrelated constrained
//! classes. Expected shape: full checking grows linearly with KB
//! size, touched-only stays flat. `unconstrained_batch` checks a batch
//! that reaches no constrained class, in a KB with 200 constrained
//! classes and in one with none, where the check walks no class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use objectbase::consistency::{check_full, check_touched};
use objectbase::frame::ObjectFrame;
use objectbase::transform::tell;
use std::time::Duration;
use telos::{Kb, PropId};

/// A KB with `n` constrained classes plus the Invitation class, and a
/// fresh invitation token whose TELL batch is returned.
fn kb_with_classes(n: usize) -> (Kb, Vec<PropId>) {
    let mut kb = Kb::new();
    tell(
        &mut kb,
        &ObjectFrame::parse("TELL Person end").expect("parse"),
    )
    .expect("tell");
    tell(
        &mut kb,
        &ObjectFrame::parse("TELL maria in Person end").expect("parse"),
    )
    .expect("tell");
    for i in 0..n {
        tell(
            &mut kb,
            &ObjectFrame::parse(&format!(
                "TELL Other{i} with constraint c : $ forall x/Other{i} x = x $ end"
            ))
            .expect("parse"),
        )
        .expect("tell");
    }
    tell(
        &mut kb,
        &ObjectFrame::parse(
            "TELL Invitation with\n\
               attribute sender : Person\n\
               constraint hasSender : $ forall i/Invitation i.sender defined $\n\
             end",
        )
        .expect("parse"),
    )
    .expect("tell");
    let receipt = tell(
        &mut kb,
        &ObjectFrame::parse("TELL inv1 in Invitation with attribute sender : maria end")
            .expect("parse"),
    )
    .expect("tell");
    (kb, receipt.created)
}

fn bench_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency");
    for n in [10usize, 50, 200] {
        let (kb, batch) = kb_with_classes(n);
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| {
                let (v, stats) = check_full(kb.snapshot());
                std::hint::black_box((v.len(), stats.constraints_evaluated))
            })
        });
        group.bench_with_input(BenchmarkId::new("set_oriented", n), &n, |b, _| {
            b.iter(|| {
                let (v, stats) = check_touched(kb.snapshot(), &batch);
                std::hint::black_box((v.len(), stats.constraints_evaluated))
            })
        });
    }
    group.finish();
}

/// A KB with `n` constrained classes and an unconstrained `Memo`, and
/// the TELL batch of a fresh memo: a batch that reaches no constrained
/// class, so the set-oriented check evaluates nothing whatever `n` is.
fn kb_with_unconstrained_batch(n: usize) -> (Kb, Vec<PropId>) {
    let mut kb = Kb::new();
    for i in 0..n {
        let src = format!("TELL Other{i} with constraint c : $ forall x/Other{i} x = x $ end");
        tell(&mut kb, &ObjectFrame::parse(&src).expect("parse")).expect("tell");
    }
    let memo = ObjectFrame::parse("TELL Memo isA Proposition end").expect("parse");
    tell(&mut kb, &memo).expect("tell");
    let frame = ObjectFrame::parse("TELL memo1 in Memo end").expect("parse");
    let receipt = tell(&mut kb, &frame).expect("tell");
    (kb, receipt.created)
}

fn bench_unconstrained_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency/unconstrained_batch");
    for n in [0usize, 200] {
        let (kb, batch) = kb_with_unconstrained_batch(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let (v, stats) = check_touched(kb.snapshot(), &batch);
                std::hint::black_box((v.len(), stats.classes_visited))
            })
        });
    }
    group.finish();
}

fn bench_per_update_vs_batch(c: &mut Criterion) {
    // One decision creates k propositions: checking after each update
    // vs once for the whole set.
    let mut group = c.benchmark_group("consistency/batching");
    let (kb, batch) = kb_with_classes(50);
    group.bench_function("once_per_batch", |b| {
        b.iter(|| {
            let (v, _) = check_touched(kb.snapshot(), &batch);
            std::hint::black_box(v.len())
        })
    });
    group.bench_function("once_per_proposition", |b| {
        b.iter(|| {
            let mut total = 0;
            for &p in &batch {
                let (v, _) = check_touched(kb.snapshot(), &[p]);
                total += v.len();
            }
            std::hint::black_box(total)
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
    targets = bench_checking, bench_unconstrained_batch, bench_per_update_vs_batch
}
criterion_main!(benches);
