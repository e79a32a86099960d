//! A published version read on one thread while the writer moves on.
//!
//! What `Gkbms::capture` publishes beside the store's version — the
//! design index and the op history — is a set of handles over logs the
//! writer only appends to. A reader iterating a captured version while
//! the writer executes, retracts, registers and rolls failed writes
//! back must read the same answers throughout: every decision with its
//! retraction, every object with its registration and producers, the
//! status and process views, and every history entry.

use conceptbase::gkbms::metamodel::kernel;
use conceptbase::gkbms::navigate::{process_view, status_view};
use conceptbase::gkbms::{DecisionClass, DecisionDimension, DecisionRequest, Gkbms, Published};

/// What a reader reads of a version: each decision with whether it is
/// retracted, each object with whether it is current and its
/// producers, both views and the history's bytes.
type Observed = (
    Vec<(String, bool)>,
    Vec<(bool, Vec<String>)>,
    String,
    Vec<u8>,
);

fn observe(p: &Published, objects: &[String]) -> Observed {
    let (design, names) = (&p.design, &*p.kb);
    let decisions = (design.iter()).map(|r| (r.name.clone(), r.retracted));
    let objects = objects.iter().map(|o| {
        let producers = design.producers(names, o).map(|r| r.name.clone());
        let current = design.is_current(names, o) == Some(true);
        (current || design.registered(names, o), producers.collect())
    });
    let views = status_view(p.kb.snapshot(), design).render() + &process_view(design).render();
    let history = p.history.iter().flat_map(|op| op.iter().copied());
    (
        decisions.collect(),
        objects.collect(),
        views,
        history.collect(),
    )
}

fn map(name: &str, input: &str, output: &str) -> DecisionRequest {
    DecisionRequest::new("Map", name, "dev")
        .input(input)
        .output(output, kernel::DBPL_REL)
}

#[test]
fn a_reader_thread_reads_a_captured_version_while_the_writer_moves_on() {
    let (n, rounds) = (60, 40);
    let mut g = Gkbms::new().unwrap();
    let class = DecisionClass::new("Map", DecisionDimension::Mapping)
        .from_classes(&[kernel::DBPL_REL])
        .to_classes(&[kernel::DBPL_REL]);
    g.define_decision_class(class).unwrap();
    g.register_object("r0", kernel::DBPL_REL, "src").unwrap();
    for i in 0..n {
        g.execute(map(
            &format!("d{i}"),
            &format!("r{i}"),
            &format!("r{}", i + 1),
        ))
        .unwrap();
    }
    g.retract_decision(&format!("d{}", n - 1)).unwrap();
    let p = g.capture();
    let objects: Vec<String> = (0..=n + rounds).map(|i| format!("r{i}")).collect();
    let want = observe(&p, &objects);
    assert_eq!(want.0.len(), n);
    std::thread::scope(|s| {
        let reader = s.spawn(|| (0..4 * rounds).all(|_| observe(&p, &objects) == want));
        // Re-registers the retracted output, extends the chain past it,
        // retracts below the capture's head and fails two writes: a
        // duplicate decision and a TELL whose second frame names no
        // class, both rolled back.
        g.register_object(&format!("r{n}"), kernel::DBPL_REL, "src")
            .unwrap();
        for i in n..n + rounds {
            g.execute(map(
                &format!("d{i}"),
                &format!("r{i}"),
                &format!("r{}", i + 1),
            ))
            .unwrap();
            let victim = format!("d{}", n - 2 - (i - n));
            if i - n < n / 2 {
                g.retract_decision(&victim).unwrap();
            }
            assert!(g.execute(map("d0", "r0", "again")).is_err());
            let failed = format!("TELL t{i} end\nTELL u{i} in NoSuchClass end");
            assert!(g.tell_src(&failed).is_err());
            assert!(g.kb().lookup(&format!("t{i}")).is_none(), "rolled back");
            g.tell_src(&format!("TELL raw{i} end")).unwrap();
        }
        assert!(reader.join().unwrap(), "the captured version changed");
    });
    assert_eq!(observe(&p, &objects), want);
    let now = g.capture();
    assert_ne!(observe(&now, &objects), want, "the writer moved on");
}
