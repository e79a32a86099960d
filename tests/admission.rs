//! Admission costs what the write touches: a write that carries no
//! rule and registers no view never exports the EDB (an O(KB) scan,
//! counted by `objectbase_edb_exports_total`), while the callers that
//! do cost a rule or a view still measure it. Reads are held to the
//! same counter: an ASK that cannot be answered exports nothing, and a
//! store version is exported once however often it is asked. One
//! `#[test]` on purpose: the counter is process-global and this file is
//! its own process.

use conceptbase::analysis::cost::approx;
use conceptbase::gkbms::metamodel::kernel;
use conceptbase::gkbms::synth::{self, names, SynthConfig};
use conceptbase::gkbms::{DecisionRequest, Gkbms, GkbmsError};
use conceptbase::objectbase::query::{self, ask_with_stats_version, to_edb_at_store};
use conceptbase::objectbase::ObjectFrame;

fn counter(name: &str) -> u64 {
    conceptbase::obs::registry()
        .counter_value(name)
        .unwrap_or(0)
}

fn exports() -> u64 {
    counter("objectbase_edb_exports_total")
}

/// An ASK pays for a closure only once it is known to be answerable,
/// and a version's closure is built by the first ASK against it.
fn asks_export_once_per_version(g: &mut Gkbms) {
    let class = kernel::DBPL_REL;
    let version = g.kb().version();
    let at = version.now();
    let before = exports();
    for (class, body) in [
        ("NoSuchClass", "true"),
        (class, "x.justification defined and"),
    ] {
        assert!(ask_with_stats_version(&version, at, "x", class, body).is_err());
        assert!(ask_with_stats_version(&version, at - 1, "x", class, body).is_err());
    }
    assert_eq!(exports(), before, "a rejected ASK exports nothing");

    let (builds, hits) = (
        counter("objectbase_closure_builds_total"),
        counter("objectbase_closure_hits_total"),
    );
    let first = ask_with_stats_version(&version, at, "x", class, "true").unwrap();
    assert_eq!(exports(), before + 1, "the first ASK builds the closure");
    let again = ask_with_stats_version(&version, at, "x", class, "x.justification defined");
    let (subset, stats) = again.unwrap();
    assert_eq!(exports(), before + 1, "two ASKs on one version export once");
    assert_eq!(stats, first.1, "a hit reports the evaluation it read from");
    assert!(subset.iter().all(|name| first.0.contains(name)));
    assert_eq!(counter("objectbase_closure_builds_total"), builds + 1);
    assert_eq!(counter("objectbase_closure_hits_total"), hits + 1);

    g.tell_src_checked("TELL askedRel in DBPL_Rel end", false)
        .unwrap();
    let next = g.kb().version();
    let (grown, _) = ask_with_stats_version(&next, next.now(), "x", class, "true").unwrap();
    assert_eq!(exports(), before + 2, "the next version is exported anew");
    assert_eq!(grown.len(), first.0.len() + 1);
    // The older version still answers from its own lemmas.
    let (old, _) = ask_with_stats_version(&version, at, "x", class, "true").unwrap();
    assert_eq!(old, first.0);
    let mut indexed = query::ask(&version.snapshot(), "x", class, "true").unwrap();
    indexed.sort();
    assert_eq!(old, indexed, "the index path agrees");
    assert_eq!(exports(), before + 2);
    g.untell("askedRel").unwrap();
}

fn distribute(entity: &str, decision: &str, output: &str, class: &str) -> DecisionRequest {
    DecisionRequest::new(names::DISTRIBUTE, decision, names::AGENT)
        .with_tool(names::MAPPER)
        .input(entity)
        .output(output, class)
}

/// Believed propositions plus every view's tuples — what a failed write
/// must leave untouched.
fn visible_state(g: &Gkbms) -> (usize, Vec<String>) {
    let tuples = g
        .views()
        .iter()
        .flat_map(|v| ["in_", "isa", "attr", "inT", "isaT"].map(|p| format!("{:?}", v.tuples(p))))
        .collect();
    (g.kb().believed_count(), tuples)
}

/// Executes a decision whose output lands in a subclass of `DBPL_Rel`
/// carrying a constraint the output violates. Returns the abort text.
fn aborting_decision(g: &mut Gkbms) -> String {
    g.tell_src(
        "TELL KeyedRel isA DBPL_Rel with\n\
           attribute key : Proposition\n\
           constraint keyed : $ forall r/KeyedRel r.key defined $\n\
         end",
    )
    .unwrap();
    g.register_object("Keyless", kernel::TDL_ENTITY_CLASS, "design.tdl#Keyless")
        .unwrap();
    let before = visible_state(g);
    let exported = exports();
    g.begin_write();
    let err = g
        .execute(distribute(
            "Keyless",
            "mapKeyless",
            "keylessRel",
            "KeyedRel",
        ))
        .unwrap_err();
    assert!(matches!(err, GkbmsError::Aborted { .. }), "{err}");
    assert_eq!(
        visible_state(g),
        before,
        "an aborted decision leaves no trace"
    );
    assert_eq!(exports(), exported, "the consistency check reads the KB");
    assert!(g.record("mapKeyless").is_none());
    err.to_string()
}

#[test]
fn rule_less_writes_export_nothing_and_costed_ones_measure() {
    let mut g = Gkbms::new().unwrap();
    synth::generate_into(
        &mut g,
        &SynthConfig {
            decisions: 20,
            ..SynthConfig::default()
        },
    )
    .unwrap();

    // Registering a view costs it (CB013) against the rows of the one
    // export its model is loaded from.
    let before = exports();
    g.register_view("rels", "").unwrap();
    assert_eq!(exports(), before + 1, "register_view exports the EDB once");

    // The write mix of the benchmark: none of it costs a rule or a view.
    let before = exports();
    let state = visible_state(&g);
    g.tell_src_checked("TELL told1 in DBPL_Rel end", false)
        .unwrap();
    g.begin_write();
    g.register_object("Fresh", kernel::TDL_ENTITY_CLASS, "design.tdl#Fresh")
        .unwrap();
    g.begin_write();
    g.execute(distribute(
        "Fresh",
        "mapFresh",
        "freshRel",
        kernel::DBPL_REL,
    ))
    .unwrap();
    assert_ne!(visible_state(&g), state, "the writes did land");
    g.untell("told1").unwrap();
    g.begin_write();
    g.retract_decision("mapFresh").unwrap();
    let state = visible_state(&g);
    let failed = g.tell_src("TELL told2 in DBPL_Rel end\nTELL told3 in NoSuchClass end");
    assert!(failed.is_err());
    assert_eq!(visible_state(&g), state, "a failed batch is rolled back");
    let frames = ObjectFrame::parse_all(
        "TELL Probe with constraint c : $ forall r/DBPL_Rel r.justification defined $ end",
    )
    .unwrap();
    assert!(g.lint_frames(&frames).is_empty());
    assert_eq!(exports(), before, "rule-less writes export nothing");

    asks_export_once_per_version(&mut g);

    // A rule is costed against what the KB holds, not against the
    // offline default of 1000 rows per relation — under which this
    // cross join would reach the CB012 threshold of 1e6 rows.
    let edb = to_edb_at_store(g.kb(), g.kb().now()).unwrap();
    let (in_rows, isa_rows) = (edb.count("in_"), edb.count("isa"));
    assert!(in_rows * isa_rows < 1_000_000);
    let before = exports();
    let (_, diags) = g
        .tell_src_checked(
            "TELL Pairing with rule pairs : $ pairs(X, Y) :- in_(X, C), isa(Y, D) $ end",
            false,
        )
        .unwrap();
    assert!(exports() > before, "a rule-carrying TELL measures the EDB");
    assert!(diags.iter().all(|d| d.code != "CB012"), "{diags:?}");

    let isa_rows = to_edb_at_store(g.kb(), g.kb().now()).unwrap().count("isa");
    let before = exports();
    let plan = g.explain_src("").unwrap();
    assert!(exports() > before, "explain measures the EDB");
    let scan = format!("`isa(C, D)`: scan ~{} rows", approx(isa_rows as f64));
    assert!(plan.contains(&scan), "{plan}");

    // The consistency check of `execute`, with a view registered and
    // without one: same abort, same text.
    let with_view = aborting_decision(&mut g);
    let mut bare = Gkbms::new().unwrap();
    synth::setup(&mut bare).unwrap();
    assert!(bare.views().is_empty());
    assert_eq!(aborting_decision(&mut bare), with_view);
    assert_eq!(
        with_view,
        "decision aborted, 1 violation(s): constraint `keyed` on `KeyedRel` violated: \
         forall r/KeyedRel r.key defined"
    );
}
