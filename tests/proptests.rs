//! Property-based tests over the core invariants (DESIGN.md §6).

use bench::engines::{magic, topdown};
use conceptbase::analysis::{lint_source, LintContext};
use conceptbase::datalog::ast::{Atom, Program, Term, Value};
use conceptbase::datalog::db::Database;
use conceptbase::datalog::seminaive;
use conceptbase::rms::atms::Atms;
use conceptbase::rms::jtms::{Jtms, JtmsNodeId};
use conceptbase::storage::record;
use conceptbase::telos::time::allen::{AllenNetwork, AllenRel, RelSet};
use conceptbase::telos::{Interval, Kb, PropId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0i64..50, 1i64..20).prop_map(|(a, d)| Interval::between(a, a + d).expect("d > 0"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------- time calculus ----------

    #[test]
    fn allen_relation_is_total_and_converse_correct(
        a in interval_strategy(),
        b in interval_strategy(),
    ) {
        let r = AllenRel::between(&a, &b);
        prop_assert_eq!(r.converse(), AllenRel::between(&b, &a));
        // Exactly one basic relation holds: its converse's converse is it.
        prop_assert_eq!(r.converse().converse(), r);
    }

    #[test]
    fn allen_composition_is_sound(
        a in interval_strategy(),
        b in interval_strategy(),
        c in interval_strategy(),
    ) {
        let rab = RelSet::of(AllenRel::between(&a, &b));
        let rbc = RelSet::of(AllenRel::between(&b, &c));
        let rac = AllenRel::between(&a, &c);
        prop_assert!(rab.compose(rbc).contains(rac),
            "composition must contain the realized relation");
    }

    #[test]
    fn path_consistency_preserves_realizable_scenarios(
        ivals in prop::collection::vec(interval_strategy(), 2..6),
    ) {
        // Build the network from a concrete realization; propagation
        // must keep every realized relation possible.
        let n = ivals.len();
        let mut net = AllenNetwork::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    net.assert_rel(i, j, RelSet::of(AllenRel::between(&ivals[i], &ivals[j])));
                }
            }
        }
        prop_assert!(net.propagate(), "a realized network is consistent");
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    prop_assert!(net
                        .get(i, j)
                        .contains(AllenRel::between(&ivals[i], &ivals[j])));
                }
            }
        }
    }

    #[test]
    fn interval_intersection_is_contained_in_both(
        a in interval_strategy(),
        b in interval_strategy(),
    ) {
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!(a.overlaps(&b));
        } else {
            prop_assert!(!a.overlaps(&b));
        }
        let s = a.span(&b);
        prop_assert!(s.contains(&a) && s.contains(&b));
    }

    // ---------- storage ----------

    #[test]
    fn record_codec_roundtrips(payload in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut buf = Vec::new();
        record::encode(&payload, &mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match record::read_record(&mut cursor, 0).unwrap() {
            record::ReadOutcome::Record(p) => prop_assert_eq!(p, payload),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    // ---------- inference engines ----------

    #[test]
    fn engines_agree_on_transitive_closure(
        edges in prop::collection::vec((0i64..8, 0i64..8), 0..20)
    ) {
        let program = Program::parse(
            "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).",
        ).unwrap();
        let mut db = Database::new();
        for (a, b) in &edges {
            db.insert("edge", vec![Value::Int(*a), Value::Int(*b)]).unwrap();
        }
        let bottom = seminaive::evaluate_pred(&program, &db, "path").unwrap();
        // Top-down, fully open query.
        let mut td = topdown::TopDown::new(&program, &db);
        let mut top: Vec<Vec<Value>> = td
            .query(&Atom::new("path", vec![Term::var("X"), Term::var("Y")]))
            .unwrap()
            .into_iter()
            .map(|e| vec![e["X"].clone(), e["Y"].clone()])
            .collect();
        top.sort();
        top.dedup();
        prop_assert_eq!(&top, &bottom);
        // Magic with a bound first argument agrees with the filtered model.
        if let Some((a, _)) = edges.first() {
            let q = Atom::new("path", vec![Term::int(*a), Term::var("Y")]);
            let magic_answers = magic::magic_evaluate(&program, &db, &q).unwrap();
            let filtered: Vec<Vec<Value>> = bottom
                .iter()
                .filter(|t| t[0] == Value::Int(*a))
                .cloned()
                .collect();
            prop_assert_eq!(magic_answers, filtered);
        }
    }

    // ---------- reason maintenance ----------

    #[test]
    fn jtms_labels_are_a_fixpoint(
        chains in prop::collection::vec((0usize..4, 0usize..4), 1..12),
        retract_mask in any::<u8>(),
    ) {
        // 4 assumptions, nodes justified by random pairs of them.
        let mut tms = Jtms::new();
        let assumptions: Vec<_> = (0..4).map(|i| tms.assumption(format!("a{i}"))).collect();
        let mut derived = Vec::new();
        for (i, (x, y)) in chains.iter().enumerate() {
            let n = tms.node(format!("d{i}"));
            tms.justify(n, &[assumptions[*x], assumptions[*y]], &[]);
            derived.push((n, *x, *y));
        }
        for (i, a) in assumptions.iter().enumerate() {
            if retract_mask & (1 << i) != 0 {
                tms.retract(*a);
            }
        }
        for (n, x, y) in derived {
            let expect = tms.is_in(assumptions[x]) && tms.is_in(assumptions[y]);
            prop_assert_eq!(tms.is_in(n), expect);
        }
    }

    #[test]
    fn atms_labels_are_minimal_and_consistent(
        justs in prop::collection::vec(
            (0usize..4, 0usize..4, 0usize..3),
            1..10,
        )
    ) {
        let mut atms = Atms::new();
        let assumptions: Vec<_> = (0..4).map(|i| atms.assumption(format!("a{i}"))).collect();
        let nodes: Vec<_> = (0..3).map(|i| atms.node(format!("n{i}"))).collect();
        for (x, y, n) in &justs {
            atms.justify(nodes[*n], &[assumptions[*x], assumptions[*y]]);
        }
        // Make one combination a nogood.
        let bad = atms.contradiction("bad");
        atms.justify(bad, &[assumptions[0], assumptions[1]]);
        for &n in &nodes {
            let label = atms.label(n);
            for (i, e1) in label.iter().enumerate() {
                prop_assert!(atms.consistent(e1), "label env must be consistent");
                for (j, e2) in label.iter().enumerate() {
                    if i != j {
                        prop_assert!(!e1.subset_of(e2), "label must be minimal");
                    }
                }
            }
        }
    }

    // ---------- proposition processor ----------

    #[test]
    fn isa_closure_is_monotone_and_acyclic(
        links in prop::collection::vec((0usize..6, 0usize..6), 0..15)
    ) {
        let mut kb = Kb::new();
        let classes: Vec<_> = (0..6)
            .map(|i| kb.individual(&format!("C{i}")).unwrap())
            .collect();
        for (a, b) in links {
            // Cycle-creating links are rejected; accepted ones keep the
            // graph a DAG.
            let _ = kb.specialize(classes[a], classes[b]);
        }
        for &c in &classes {
            let ancestors = kb.snapshot().isa_ancestors(c);
            prop_assert!(!ancestors.contains(&c), "no reflexive ancestry");
            for &a in &ancestors {
                // Ancestors of ancestors are ancestors (transitivity).
                for &aa in &kb.snapshot().isa_ancestors(a) {
                    prop_assert!(ancestors.contains(&aa));
                }
            }
        }
    }

    // ---------- GKBMS backtracking invariant ----------

    /// Random designs against the JTMS, driven with the justifications
    /// the design record documents ([`JtmsOracle`]): registered roots,
    /// decisions with 1–3 inputs whose outputs are new or reused names
    /// (so support cycles and shared outputs occur), retractions,
    /// replays, raw UNTELLs and raw TELLs of the links a design step
    /// tells (forgeries, which the oracle never sees). After every op,
    /// what a retraction took out, the retracted and effective decisions
    /// and the current objects agree.
    #[test]
    fn selective_backtracking_partitions_exactly(
        steps in prop::collection::vec((0u8..11, any::<u64>()), 8..32),
    ) {
        use conceptbase::gkbms::metamodel::kernel;
        use conceptbase::gkbms::{DecisionClass, DecisionDimension, DecisionRequest, Gkbms};
        const POOL: [&str; 9] = ["R0", "R1", "R2", "O0", "O1", "O2", "O3", "O4", "O5"];
        let mut g = Gkbms::new().unwrap();
        g.define_decision_class(
            DecisionClass::new("DecRefine", DecisionDimension::Refinement)
                .from_classes(&[kernel::DBPL_REL])
                .to_classes(&[kernel::DBPL_REL]),
        )
        .unwrap();
        let mut oracle = JtmsOracle::default();
        for (k, (kind, seed)) in steps.into_iter().enumerate() {
            let mut pick = Pick(seed);
            let name = format!("d{k}");
            let executed = g.records().len();
            match kind {
                // A root, or now and then any name, produced or not.
                0..=2 => {
                    let object = POOL[pick.below(if kind == 2 { POOL.len() } else { 3 })];
                    if g.register_object(object, kernel::DBPL_REL, "src").is_ok() {
                        oracle.register(object);
                    }
                }
                // Inputs mostly among the current objects.
                3..=5 => {
                    let current = g.current_objects();
                    let mut req = DecisionRequest::new("DecRefine", &name, "dev");
                    for _ in 0..1 + pick.below(3) {
                        req = match (kind, current.len()) {
                            (5, _) | (_, 0) => req.input(POOL[pick.below(POOL.len())]),
                            (_, n) => req.input(&current[pick.below(n)]),
                        };
                    }
                    for _ in 0..1 + pick.below(2) {
                        req = req.output(POOL[pick.below(POOL.len())], kernel::DBPL_REL);
                    }
                    let outputs: Vec<String> = req.outputs.iter().map(|(o, _)| o.clone()).collect();
                    let inputs = req.inputs.clone();
                    if g.execute(req).is_ok() {
                        oracle.execute(&name, &inputs, &outputs);
                    }
                }
                6 | 7 if executed > 0 => {
                    let victim = g.records()[pick.below(executed)].name.clone();
                    match g.retract_decision(&victim) {
                        Ok(affected) => prop_assert_eq!(
                            affected, oracle.retract(&victim), "retracting {} at step {}", victim, k
                        ),
                        Err(e) => prop_assert!(oracle.retracted().contains(&victim), "{}", e),
                    }
                }
                8 if executed > 0 => {
                    let original = g.records()[pick.below(executed)].name.clone();
                    if g.replay_decision(&original, &name).is_ok() {
                        oracle.replay(&original, &name);
                    }
                }
                // A forged design step: a raw `source`, `performer`,
                // `status`, `from` or `to` link on a pool name.
                10 => {
                    const LINKS: [&str; 5] = ["source", "performer", "status", "from", "to"];
                    let label = LINKS[pick.below(LINKS.len())];
                    let object = POOL[pick.below(POOL.len())];
                    let value = if label == "status" { "retracted" } else { POOL[pick.below(POOL.len())] };
                    let _ = g.tell_src(&format!(
                        "TELL {value} end\nTELL {object} with attribute {label} : {value} end"
                    ));
                }
                _ => {
                    let _ = g.untell(POOL[pick.below(POOL.len())]);
                }
            }
            let retracted = g.records().iter().filter(|r| r.retracted).map(|r| r.name.clone());
            prop_assert_eq!(retracted.collect::<Vec<_>>(), oracle.retracted(), "step {}", k);
            prop_assert_eq!(g.current_objects(), oracle.current(), "step {}", k);
            let effective = g.records().iter().filter(|r| g.is_effective(&r.name));
            let effective: Vec<String> = effective.map(|r| r.name.clone()).collect();
            prop_assert_eq!(effective, oracle.effective(), "step {}", k);
        }
    }

    // ---------- language layer ----------

    #[test]
    fn tdl_display_reparses(
        width in 1usize..8,
        attrs in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Reuse the bench generator shape inline: a root with `width`
        // subclasses carrying `attrs` attributes each.
        use conceptbase::langs::taxisdl::{EntityClass, TdlAttribute, TdlModel};
        let mut model = TdlModel::default();
        model.entities.push(EntityClass {
            name: "Domain".into(), isa: vec![], attributes: vec![],
        });
        model.entities.push(EntityClass {
            name: "Root".into(), isa: vec![], attributes: vec![],
        });
        for i in 0..width {
            let attributes = (0..attrs)
                .map(|a| TdlAttribute {
                    label: format!("a{i}_{a}"),
                    target: "Domain".into(),
                    set_valued: (seed + a as u64).is_multiple_of(3),
                })
                .collect();
            model.entities.push(EntityClass {
                name: format!("Sub{i}"),
                isa: vec!["Root".into()],
                attributes,
            });
        }
        let printed = model.to_string();
        let reparsed = TdlModel::parse(&printed).unwrap();
        prop_assert_eq!(model, reparsed);
    }

    #[test]
    fn dbpl_mapping_display_reparses(
        width in 1usize..6,
        seed in 0u64..1000,
    ) {
        use conceptbase::langs::dbpl::DbplModule;
        use conceptbase::langs::mapping::{Distribute, MappingStrategy, MoveDown};
        use conceptbase::langs::taxisdl::{EntityClass, TdlAttribute, TdlModel};
        let mut model = TdlModel::default();
        model.entities.push(EntityClass { name: "Domain".into(), isa: vec![], attributes: vec![] });
        model.entities.push(EntityClass { name: "Root".into(), isa: vec![], attributes: vec![] });
        for i in 0..width {
            model.entities.push(EntityClass {
                name: format!("Sub{i}"),
                isa: vec!["Root".into()],
                attributes: vec![TdlAttribute {
                    label: format!("a{i}"),
                    target: "Domain".into(),
                    set_valued: seed % 2 == 0,
                }],
            });
        }
        for strategy in [&MoveDown as &dyn MappingStrategy, &Distribute] {
            let out = strategy.map_hierarchy(&model, "Root").unwrap();
            let mut module = DbplModule::new("M");
            for d in out.decls {
                module.add(d).unwrap();
            }
            let printed = module.to_string();
            let reparsed = DbplModule::parse(&printed).unwrap();
            prop_assert_eq!(&module, &reparsed, "{}", strategy.name());
        }
    }

    // ---------- MVCC versions (ISSUE 6) ----------

    /// Differential concurrency property at the store level: versions
    /// captured at random points of a random TELL/UNTELL history, read
    /// concurrently from their own threads, must answer byte-identically
    /// to a serial retrospective query on the final KB at their
    /// watermark — the assertion language over a snapshot, which shares
    /// no EDB bridge with the served ASK. This is the equivalence the
    /// server's lock-free ASK path rests on.
    #[test]
    fn pinned_versions_answer_like_serial_replay_at_their_watermark(
        ops in prop::collection::vec((0u8..5, 0usize..8), 1..40),
    ) {
        use conceptbase::objectbase::query::{ask, ask_with_stats_version};
        let mut kb = Kb::new();
        let class = kb.individual("K").unwrap();
        let mut links = Vec::new();
        let mut counter = 0usize;
        let mut captured = Vec::new();
        for (op, sel) in ops {
            match op {
                // TELL (ticking first, as every write transaction opens).
                0..=2 => {
                    kb.tick();
                    let x = kb.individual(&format!("x{counter}")).unwrap();
                    counter += 1;
                    links.push(kb.instantiate(x, class).unwrap());
                }
                // UNTELL a surviving instance link.
                3 => {
                    if !links.is_empty() {
                        kb.tick();
                        let l = links.remove(sel % links.len());
                        kb.untell(l).unwrap();
                    }
                }
                // Capture a version pinned at the current watermark.
                _ => captured.push((kb.version(), kb.now())),
            }
        }
        captured.push((kb.version(), kb.now()));

        // Concurrent pinned readers: each captured version answers from
        // its own thread, no lock, while the main thread replays the
        // same queries serially against the final KB.
        let results: Vec<Vec<std::borrow::Cow<'static, str>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = captured
                .iter()
                .map(|(v, w)| {
                    scope.spawn(move || {
                        ask_with_stats_version(v, *w, "x", "K", "true").unwrap().0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ((_, w), from_version) in captured.iter().zip(results) {
            let mut serial = ask(&kb.snapshot_at(*w), "x", "K", "true").unwrap();
            serial.sort();
            prop_assert_eq!(from_version, serial, "diverged at watermark {}", w);
        }
    }

    // ---------- incremental views (ISSUE 8) ----------

    /// Differential property: incremental maintenance against
    /// from-scratch recomputation over random TELL/UNTELL
    /// interleavings. The program composes a recursive stratum (DRed
    /// territory) with stratified negation over it (counting
    /// territory), and the oracle rebuilds the extensional database
    /// from an independent support multiset — so the view's own EDB
    /// bookkeeping (re-TELL raises support, UNTELL of absent is a
    /// no-op) is checked too, not assumed.
    #[test]
    fn incremental_maintenance_matches_recompute_under_churn(
        ops in prop::collection::vec((0u8..3, 0i64..5, 0i64..5), 1..30),
    ) {
        use conceptbase::datalog::ivm::{Fact, MaterializedView};
        let program = Program::parse(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             node(X) :- edge(X, _Y).\n\
             node(Y) :- edge(_X, Y).\n\
             cut(X, Y) :- node(X), node(Y), not path(X, Y).",
        )
        .unwrap();
        let mut view = MaterializedView::new(program.clone()).unwrap();
        let mut support: std::collections::HashMap<Fact, i64> =
            std::collections::HashMap::new();
        for (op, a, b) in ops {
            let f: Fact = ("edge".to_string(), vec![Value::Int(a), Value::Int(b)]);
            match op {
                // TELL, weighted 2:1 so the model actually grows.
                0 | 1 => {
                    view.apply(std::slice::from_ref(&f), &[]).unwrap();
                    *support.entry(f).or_insert(0) += 1;
                }
                // UNTELL, possibly of an absent fact (must be a no-op).
                _ => {
                    view.apply(&[], std::slice::from_ref(&f)).unwrap();
                    let e = support.entry(f).or_insert(0);
                    *e = (*e - 1).max(0);
                }
            }
            let mut edb = Database::new();
            for ((pred, tuple), n) in &support {
                if *n > 0 {
                    edb.insert(pred, tuple.clone()).unwrap();
                }
            }
            // The scan core: the view and `seminaive::evaluate` share
            // a join kernel, so only this oracle is independent.
            let (expect, _) = seminaive::evaluate_scan(&program, &edb).unwrap();
            let mut preds: Vec<&str> = expect.preds();
            preds.extend(view.model().preds());
            preds.sort_unstable();
            preds.dedup();
            for pred in preds {
                let mut got: Vec<Vec<Value>> = view.model().tuples(pred).collect();
                let mut want: Vec<Vec<Value>> = expect.tuples(pred).collect();
                got.sort();
                want.sort();
                prop_assert_eq!(got, want, "maintained and recomputed `{}` differ", pred);
            }
        }
    }

    /// Regression: pinned belief-time reads must not observe view
    /// refreshes. Answers at a watermark — through
    /// `ask_with_stats_version` and a view read on the version captured
    /// there, and through the assertion language over a snapshot of the
    /// live KB — stay byte-identical while the registered view's model
    /// is carried to every newer version of random TELL/UNTELL churn.
    #[test]
    fn pinned_asks_are_byte_identical_across_view_refreshes(
        churn in prop::collection::vec((any::<bool>(), 0usize..4), 1..8),
    ) {
        use conceptbase::gkbms::views::pinned_rows;
        use conceptbase::gkbms::Gkbms;
        use conceptbase::objectbase::query::{ask, ask_with_stats_version};
        let mut g = Gkbms::new().unwrap();
        g.tell_src("TELL Person end\nTELL maria in Person end").unwrap();
        g.register_view("closure", "hasSelf(X) :- in_(X, _C).").unwrap();
        let view = g.view("closure").unwrap().clone();
        let watermark = g.kb().now();
        let pinned = g.capture();
        let view_rows = |p: &conceptbase::gkbms::Published, pred| {
            let (mut rows, scratch) = pinned_rows(&p.kb, p.kb.now(), &view, pred).unwrap();
            (rows.rows().tuples().collect::<Vec<_>>(), scratch)
        };
        let serial = |g: &Gkbms| {
            let mut names = ask(&g.kb().snapshot_at(watermark), "x", "Person", "true").unwrap();
            names.sort();
            names
        };
        let before = serial(&g);
        let (view_before, _) = view_rows(&pinned, "hasSelf");
        let mut told: Vec<String> = Vec::new();
        let mut counter = 0usize;
        for (tell, sel) in churn {
            if tell || told.is_empty() {
                let name = format!("p{counter}");
                counter += 1;
                g.tell_src(&format!("TELL {name} in Person end")).unwrap();
                told.push(name);
            } else {
                let name = told.remove(sel % told.len());
                g.untell(&name).unwrap();
            }
            let head = g.capture();
            let (rows, scratch) = view_rows(&head, "hasSelf");
            prop_assert!(!scratch, "the view's model was carried past the watermark");
            prop_assert_eq!(rows, view.eval_pinned(g.kb(), g.kb().now(), "hasSelf").unwrap());
        }
        let (from_version, _) =
            ask_with_stats_version(&pinned.kb, watermark, "x", "Person", "true").unwrap();
        prop_assert_eq!(&serial(&g), &before, "the snapshot leaked a refresh");
        prop_assert_eq!(&from_version, &before, "ask_with_stats_version leaked a refresh");
        prop_assert_eq!(&view_rows(&pinned, "hasSelf").0, &view_before, "the pinned view leaked a refresh");
    }

    #[test]
    fn untell_restores_previous_query_results(
        n_attrs in 1usize..6,
    ) {
        let mut kb = Kb::new();
        let obj = kb.individual("obj").unwrap();
        let val = kb.individual("val").unwrap();
        let mut links = Vec::new();
        for i in 0..n_attrs {
            links.push(kb.put_attr(obj, &format!("l{i}"), val).unwrap());
        }
        let before = kb.snapshot().believed_count();
        for l in links {
            kb.untell(l).unwrap();
        }
        prop_assert_eq!(kb.snapshot().believed_count(), before - n_attrs);
        prop_assert!(kb.snapshot().attrs_of(obj).is_empty());
        prop_assert_eq!(kb.len() - 2, n_attrs + kb.builtins_len_offset());
    }
}

/// Small numbers drawn off one seed, each below its bound.
struct Pick(u64);

impl Pick {
    fn below(&mut self, n: usize) -> usize {
        let drawn = self.0 % n as u64;
        self.0 /= n as u64;
        drawn as usize
    }
}

/// The JTMS `Gkbms` once embedded, driven as it drove it: a premise per
/// registration, per execution an assumption and one justification
/// `decision ∧ inputs ⊢ output` per output, and per retraction the
/// decision's assumption retracted, then in one more labelling those of
/// the other non-retracted producers of what went OUT.
#[derive(Default)]
struct JtmsOracle {
    tms: Jtms,
    objects: HashMap<String, JtmsNodeId>,
    /// The executed decisions, in execution order.
    decisions: Vec<OracleDecision>,
}

#[derive(Clone)]
struct OracleDecision {
    name: String,
    assumption: JtmsNodeId,
    inputs: Vec<String>,
    outputs: Vec<String>,
    retracted: bool,
}

impl JtmsOracle {
    fn node(&mut self, object: &str) -> JtmsNodeId {
        let tms = &mut self.tms;
        *(self.objects)
            .entry(object.to_string())
            .or_insert_with(|| tms.node(object))
    }

    fn register(&mut self, object: &str) {
        let n = self.node(object);
        self.tms.justify(n, &[], &[]);
    }

    fn execute(&mut self, name: &str, inputs: &[String], outputs: &[String]) {
        let assumption = self.tms.assumption(format!("decision:{name}"));
        let mut antecedents = vec![assumption];
        antecedents.extend(inputs.iter().map(|i| self.node(i)));
        for o in outputs {
            let n = self.node(o);
            self.tms.justify(n, &antecedents, &[]);
        }
        self.decisions.push(OracleDecision {
            name: name.into(),
            assumption,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            retracted: false,
        });
    }

    fn position(&self, name: &str) -> usize {
        let at = self.decisions.iter().position(|d| d.name == name);
        at.expect("an executed decision")
    }

    fn replay(&mut self, original: &str, name: &str) {
        let d = self.decisions[self.position(original)].clone();
        self.execute(name, &d.inputs, &d.outputs);
    }

    /// The objects among `nodes`, sorted.
    fn objects_among(&self, nodes: &[JtmsNodeId]) -> Vec<String> {
        let objects = self.objects.iter().filter(|(_, n)| nodes.contains(n));
        let mut names: Vec<String> = objects.map(|(o, _)| o.clone()).collect();
        names.sort();
        names
    }

    fn retract(&mut self, name: &str) -> Vec<String> {
        let at = self.position(name);
        let out = self.tms.retract(self.decisions[at].assumption);
        let mut affected = self.objects_among(&out);
        let dangling: Vec<usize> = (self.decisions.iter().enumerate())
            .filter(|(i, d)| *i != at && !d.retracted)
            .filter(|(_, d)| d.outputs.iter().any(|o| affected.contains(o)))
            .map(|(i, _)| i)
            .collect();
        let assumptions = dangling.iter().map(|&i| self.decisions[i].assumption);
        let out = self.tms.retract_all(assumptions);
        affected.extend(self.objects_among(&out));
        affected.sort();
        for i in std::iter::once(at).chain(dangling) {
            self.decisions[i].retracted = true;
        }
        affected
    }

    /// The retracted decisions, in execution order.
    fn retracted(&self) -> Vec<String> {
        let retracted = self.decisions.iter().filter(|d| d.retracted);
        retracted.map(|d| d.name.clone()).collect()
    }

    /// The decisions not retracted whose outputs are all IN, in
    /// execution order.
    fn effective(&self) -> Vec<String> {
        let is_in = |o: &String| self.tms.is_in(self.objects[o]);
        let effective =
            (self.decisions.iter()).filter(|d| !d.retracted && d.outputs.iter().all(is_in));
        effective.map(|d| d.name.clone()).collect()
    }

    /// The objects IN, sorted.
    fn current(&self) -> Vec<String> {
        let current = self.objects.iter().filter(|(_, &n)| self.tms.is_in(n));
        let mut names: Vec<String> = current.map(|(o, _)| o.clone()).collect();
        names.sort();
        names
    }
}

/// Helper trait to make the last property readable without exposing
/// internals: the number of bootstrap propositions.
trait BuiltinsLen {
    fn builtins_len_offset(&self) -> usize;
}

impl BuiltinsLen for Kb {
    fn builtins_len_offset(&self) -> usize {
        // Everything created before "obj": total - obj - val - attrs.
        // Computed from a fresh bootstrap for stability.
        static OFFSET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *OFFSET.get_or_init(|| Kb::new().len())
    }
}

/// One step of the TELL/UNTELL history the lint properties replay. A
/// TELL (forced while nothing is told) carries a rule every other
/// time, so the stored rule base (and with it the SCC structure)
/// really churns; the rest alternate between an instance carrying the
/// attribute `knows` and a plain one, so names and labels churn too.
fn lint_churn_step(
    g: &mut conceptbase::gkbms::Gkbms,
    told: &mut Vec<String>,
    counter: &mut usize,
    tell: bool,
    sel: usize,
) {
    if tell || told.is_empty() {
        *counter += 1;
        let n = *counter;
        let (name, src) = if n.is_multiple_of(2) {
            (
                format!("C{n}"),
                format!("TELL C{n} with rule r{n} : $ p{n}(X) :- in_(X, \"Person\") $ end"),
            )
        } else if n % 4 == 1 {
            (
                format!("q{n}"),
                format!("TELL q{n} in Person with attribute knows : Person end"),
            )
        } else {
            (format!("q{n}"), format!("TELL q{n} in Person end"))
        };
        g.tell_src(&src).unwrap();
        told.push(name);
    } else {
        let name = told.remove(sel % told.len());
        g.untell(&name).unwrap();
    }
}

/// The scan `LintContext::from_kb` used to copy the KB with, kept as
/// the oracle of what the borrowed context must answer: the names of
/// the believed individuals (plus the offline ω seed), the labels of
/// their believed attributes, and the EDB cardinalities.
fn reference_vocabulary(kb: &Kb) -> (HashSet<String>, HashSet<String>, HashMap<String, f64>) {
    let mut names: HashSet<String> = [
        "Proposition",
        "Class",
        "Token",
        "SimpleClass",
        "MetaClass",
        "Individual",
        "Assertion",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let mut labels = HashSet::new();
    for i in 0..kb.len() {
        let id = PropId(i as u32);
        let Ok(p) = kb.get(id) else { continue };
        if !p.believed_at(kb.now()) {
            continue;
        }
        if p.is_individual() {
            names.insert(kb.display(id));
            for attr in kb.snapshot().attrs_of(id) {
                if let Ok(a) = kb.get(attr) {
                    labels.insert(kb.resolve(a.label).to_string());
                }
            }
        }
    }
    let mut cards = HashMap::new();
    if let Ok(edb) = conceptbase::objectbase::query::to_edb_at_store(kb, kb.now()) {
        for pred in edb.preds() {
            cards.insert(pred.to_string(), edb.count(pred) as f64);
        }
    }
    (names, labels, cards)
}

/// What the borrowed context answers for `sym` as a name and as a
/// label — after asserting that the reference scan answers the same,
/// and measures the same cardinalities.
fn vocabulary_of(kb: &Kb, sym: &str) -> (bool, bool) {
    let ctx = LintContext::from_kb(kb);
    let (names, labels, cards) = reference_vocabulary(kb);
    let got = (ctx.knows_name(sym), ctx.knows_label(sym));
    assert_eq!(got, (names.contains(sym), labels.contains(sym)), "`{sym}`");
    assert_eq!(ctx.edb_cards(), cards);
    got
}

#[test]
fn an_individual_named_like_a_label_does_not_declare_it() {
    let mut kb = Kb::new();
    kb.individual("sender").unwrap();
    assert_eq!(vocabulary_of(&kb, "sender"), (true, false));
}

#[test]
fn a_label_whose_only_carrier_was_untold_is_unknown() {
    let mut kb = Kb::new();
    let (x, y) = (kb.individual("x").unwrap(), kb.individual("y").unwrap());
    let carrier = kb.put_attr(x, "sender", y).unwrap();
    assert_eq!(vocabulary_of(&kb, "sender"), (false, true));
    kb.untell(carrier).unwrap();
    assert_eq!(vocabulary_of(&kb, "sender"), (false, false));
}

#[test]
fn a_label_carried_only_by_an_untold_individual_is_unknown() {
    let mut kb = Kb::new();
    let (x, y) = (kb.individual("x").unwrap(), kb.individual("y").unwrap());
    let carrier = kb.put_attr(x, "sender", y).unwrap();
    // Not a cascade: the attribute stays believed, its owner does not.
    kb.untell(x).unwrap();
    assert!(kb.snapshot().sees(carrier));
    assert_eq!(vocabulary_of(&kb, "sender"), (false, false));
    assert_eq!(vocabulary_of(&kb, "x"), (false, false));
}

#[test]
fn link_labels_and_attributes_of_links_declare_nothing() {
    let mut kb = Kb::new();
    let (x, c) = (kb.individual("x").unwrap(), kb.individual("C").unwrap());
    let link = kb.instantiate(x, c).unwrap();
    kb.put_attr(link, "weight", c).unwrap();
    assert_eq!(vocabulary_of(&kb, "weight"), (false, false));
    kb.specialize(c, kb.builtins().class).unwrap();
    assert_eq!(vocabulary_of(&kb, "instanceof"), (false, false));
    assert_eq!(vocabulary_of(&kb, "isa"), (false, false));
}

#[test]
fn omega_classes_are_known_offline_and_online() {
    let offline = LintContext::offline();
    for name in ["Proposition", "Class"] {
        assert!(offline.knows_name(name));
        assert_eq!(vocabulary_of(&Kb::new(), name), (true, false));
    }
    assert!(!offline.knows_name("Person") && !offline.knows_label("attribute"));
}

// ---------- synthetic histories (gkbms::synth) ----------
//
// A separate block with few cases: each case boots three full GKBMS
// instances and persists two of them, which is orders of magnitude
// heavier than the calculus properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn synthetic_history_is_seed_deterministic_and_replays_byte_identical(
        seed in 0u64..1_000,
        decisions in 10usize..40,
        retraction_steps in 0u32..4,
    ) {
        use conceptbase::gkbms::synth::{self, SynthConfig};
        use conceptbase::gkbms::Gkbms;
        let cfg = SynthConfig {
            seed,
            decisions,
            fanout: 2,
            retraction_rate: f64::from(retraction_steps) * 0.05,
            ..SynthConfig::default()
        };
        // Same seed, same corpus: the generator is deterministic.
        let mut g1 = Gkbms::new().unwrap();
        let h1 = synth::generate_into(&mut g1, &cfg).unwrap();
        let mut g2 = Gkbms::new().unwrap();
        let h2 = synth::generate_into(&mut g2, &cfg).unwrap();
        prop_assert_eq!(&h1, &h2, "same-seed corpora must be identical");
        prop_assert_eq!(h1.fingerprint(), h2.fingerprint());
        // Serial re-execution of the recorded ops is replay-equivalent.
        let mut g3 = Gkbms::new().unwrap();
        synth::apply(&mut g3, &h1).unwrap();
        prop_assert_eq!(g1.records().len(), g3.records().len());
        prop_assert_eq!(g1.current_objects(), g3.current_objects());
        prop_assert_eq!(g1.kb().len(), g3.kb().len());
        // ...and persists byte-identically with the generating run.
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("cb-synth-{}-{seed}-{decisions}-gen.kb", std::process::id()));
        let p3 = dir.join(format!("cb-synth-{}-{seed}-{decisions}-rep.kb", std::process::id()));
        g1.save(&p1).unwrap();
        g3.save(&p3).unwrap();
        let b1 = std::fs::read(&p1).unwrap();
        let b3 = std::fs::read(&p3).unwrap();
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p3);
        prop_assert_eq!(b1, b3, "replayed history must persist byte-identically");
    }

    /// ISSUE 10 tentpole: the incremental analyzer (per-SCC
    /// fingerprint cache, reused across admissions) must agree with a
    /// from-scratch lint after every step of a random TELL/UNTELL
    /// sequence — same diagnostics, same order.
    #[test]
    fn incremental_lint_matches_from_scratch_under_churn(
        ops in prop::collection::vec((any::<bool>(), 0usize..5), 1..8),
    ) {
        use conceptbase::analysis::{lint_source_cached, AnalysisCache};
        use conceptbase::gkbms::Gkbms;
        let mut g = Gkbms::new().unwrap();
        g.tell_src("TELL Person end").unwrap();
        let mut cache = AnalysisCache::new();
        let mut told: Vec<String> = Vec::new();
        let mut counter = 0usize;
        for (tell, sel) in ops {
            lint_churn_step(&mut g, &mut told, &mut counter, tell, sel);
            for probe in [
                "good(X) :- in_(X, \"Person\").",
                "spin(X, Y) :- spin(Y, X).",
                "pairs(X, Y) :- in_(X, C), isa(Y, D).",
            ] {
                let ctx = LintContext::from_kb(g.kb());
                let warm = lint_source_cached(probe, &ctx, &mut cache);
                let cold = lint_source(probe, &ctx);
                prop_assert_eq!(warm, cold,
                    "incremental and from-scratch lint diverged on `{}`", probe);
            }
        }
    }

    /// One lint memo serves every version: warmed at the head under a
    /// random rule TELL/UNTELL history, the memo every published
    /// version carries lints random sources at random earlier pins —
    /// and the head again after each — exactly as a fresh memo does.
    #[test]
    fn one_lint_memo_lints_every_pin_like_a_fresh_one(
        ops in prop::collection::vec((any::<bool>(), 0usize..5), 1..8),
        reads in prop::collection::vec((0usize..16, 0usize..4), 1..12),
    ) {
        use conceptbase::gkbms::system::lint_src;
        use conceptbase::gkbms::Gkbms;
        let probes = [
            "good(X) :- in_(X, \"Person\").",
            "spin(X, Y) :- spin(Y, X).",
            "late(X) :- p2(X), p4(X).",
            "TELL Probe with rule z : $ z(X) :- p2(X), in_(X, \"Person\") $ end",
        ];
        let mut g = Gkbms::new().unwrap();
        g.tell_src("TELL Person end").unwrap();
        let memo = g.capture().lint;
        let mut pins = vec![g.kb().now()];
        let (mut told, mut counter) = (Vec::new(), 0usize);
        for (tell, sel) in ops {
            lint_churn_step(&mut g, &mut told, &mut counter, tell, sel);
            for probe in probes {
                lint_src(g.kb().snapshot(), &memo, probe);
            }
            pins.push(g.kb().now());
        }
        for (pin, probe) in reads {
            let (pin, probe) = (pins[pin % pins.len()], probes[probe]);
            let snap = g.kb().snapshot_at(pin);
            let fresh = lint_source(probe, &LintContext::at(snap));
            prop_assert_eq!(lint_src(snap, &memo, probe), fresh,
                "the shared memo diverged on `{}` at pin {}", probe, pin);
            let fresh = lint_source(probe, &LintContext::from_kb(g.kb()));
            prop_assert_eq!(lint_src(g.kb().snapshot(), &memo, probe), fresh,
                "the shared memo diverged on `{}` at the head", probe);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The admission context borrows the KB instead of copying it:
    /// after every step of the same TELL/UNTELL history, what it
    /// answers by lookup must equal membership in the sets the deleted
    /// scan built — for every symbol the history can use plus some it
    /// never does, in both roles — its on-demand cardinalities must
    /// equal the scan's, and a constraint-carrying script must draw
    /// exactly the CB009s the reference sets imply.
    #[test]
    fn borrowed_vocabulary_matches_the_reference_scan_under_churn(
        ops in prop::collection::vec((any::<bool>(), 0usize..5), 1..8),
    ) {
        use conceptbase::analysis::{sort_diagnostics, Diagnostic};
        use conceptbase::gkbms::Gkbms;
        use conceptbase::telos::assertion;
        let mut universe: Vec<String> = [
            "Person", "knows", "Ghost", "phantom", "Token", "instanceof", "isa", "attribute",
            "Probe",
        ]
        .map(String::from)
        .to_vec();
        for n in 1..8 {
            universe.extend([
                format!("C{n}"),
                format!("q{n}"),
                format!("r{n}"),
                format!("C{n}!r{n}"),
                format!("p{n}(X) :- in_(X, \"Person\")"),
            ]);
        }
        // Known and unknown of each kind, and a pair that comes and goes.
        let constraints = [
            ("c1", "forall p/Person p.knows defined"),
            ("c2", "forall g/Ghost g.phantom defined"),
            ("c3", "forall q/q1 q.r2 defined"),
        ];
        let probe = format!(
            "TELL Probe with\n{}end",
            constraints.map(|(n, t)| format!("  constraint {n} : $ {t} $\n")).concat()
        );
        let mut g = Gkbms::new().unwrap();
        g.tell_src("TELL Person end").unwrap();
        let mut told: Vec<String> = Vec::new();
        let mut counter = 0usize;
        for (tell, sel) in ops {
            lint_churn_step(&mut g, &mut told, &mut counter, tell, sel);
            let ctx = LintContext::from_kb(g.kb());
            let (names, labels, cards) = reference_vocabulary(g.kb());
            for sym in universe.iter().chain(&names).chain(&labels) {
                prop_assert_eq!(ctx.knows_name(sym), names.contains(sym), "name `{}`", sym);
                prop_assert_eq!(ctx.knows_label(sym), labels.contains(sym), "label `{}`", sym);
            }
            prop_assert_eq!(ctx.edb_cards(), cards);
            let mut expected = Vec::new();
            for (i, (name, text)) in constraints.iter().enumerate() {
                let expr = assertion::parse(text).unwrap();
                for issue in assertion::sort_check(
                    &expr,
                    &|c| c == "Probe" || names.contains(c),
                    &|l| constraints.iter().any(|(own, _)| *own == l) || labels.contains(l),
                ) {
                    let subject = format!("constraint `Probe!{name}`");
                    expected.push(
                        Diagnostic::warning("CB009", subject, issue.to_string())
                            .with_witness(*text)
                            .at_line(Some(i + 2)),
                    );
                }
            }
            sort_diagnostics(&mut expected);
            prop_assert_eq!(lint_source(&probe, &ctx), expected);
        }
    }
}

// ---------- structural recall (gkbms::recall) ----------

/// The dimension of each of `synth`'s decision classes, as the
/// generator defines them.
fn synth_dimension(class: &str) -> &'static str {
    use conceptbase::gkbms::synth::names;
    match class {
        names::DISTRIBUTE | names::MOVE_DOWN => "mapping",
        names::NORMALIZE => "refinement",
        names::KEY_SUBST => "choice",
        other => panic!("`{other}` is not a synthetic decision class"),
    }
}

/// Recall as a linear scan over `records()`: a string-keyed feature bag
/// per decision, weighted Jaccard against the probe's, sorted by score
/// and then name. Returns `(decision, score bits, retracted)` rows.
fn recall_by_scan(
    g: &conceptbase::gkbms::Gkbms,
    name: &str,
    limit: usize,
) -> Vec<(String, u64, bool)> {
    use conceptbase::gkbms::{system::DecisionRecord, Discharge};
    fn bag(r: &DecisionRecord) -> HashMap<String, f64> {
        let mut bag = HashMap::new();
        let mut add = |k: String, w: f64| *bag.entry(k).or_insert(0.0) += w;
        add(format!("class:{}", r.class), 3.0);
        add(format!("dim:{}", synth_dimension(&r.class)), 2.0);
        if let Some(t) = &r.tool {
            add(format!("tool:{t}"), 2.0);
        }
        add(format!("inputs:{}", r.inputs.len()), 1.0);
        for c in &r.output_classes {
            add(format!("out:{c}"), 1.0);
        }
        for d in &r.discharges {
            let kind = match d {
                Discharge::Formal { .. } => "formal",
                Discharge::Signature { .. } => "signed",
            };
            add(format!("sig:{kind}:{}", d.obligation()), 1.0);
        }
        bag
    }
    let probe = bag(&g.record(name).expect("probe is recorded"));
    let mut hits: Vec<(String, f64, bool)> = Vec::new();
    for r in g.records().iter().filter(|r| r.name != name) {
        let other = bag(&r);
        let keys: HashSet<&String> = probe.keys().chain(other.keys()).collect();
        let (mut min, mut max) = (0.0, 0.0);
        for k in keys {
            let (a, b) = (probe.get(k).copied(), other.get(k).copied());
            let (a, b) = (a.unwrap_or(0.0), b.unwrap_or(0.0));
            min += f64::min(a, b);
            max += f64::max(a, b);
        }
        if min > 0.0 {
            hits.push((r.name.clone(), min / max, r.retracted));
        }
    }
    hits.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    hits.truncate(limit);
    hits.into_iter()
        .map(|(d, s, r)| (d, s.to_bits(), r))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The recall index answers every probe of a synthetic corpus like
    /// the scan over its records: same decisions, order, score bits
    /// and retraction flags, at every limit.
    #[test]
    fn recall_matches_the_linear_scan(
        seed in 0u64..1_000,
        decisions in 10usize..40,
        rate in 0usize..3,
    ) {
        use conceptbase::gkbms::synth::{self, SynthConfig};
        use conceptbase::gkbms::Gkbms;
        let mut g = Gkbms::new().unwrap();
        synth::generate_into(&mut g, &SynthConfig {
            seed,
            decisions,
            retraction_rate: [0.0, 0.15, 0.4][rate],
            ..SynthConfig::default()
        })
        .unwrap();
        let n = g.records().len();
        for r in g.records().iter() {
            for limit in [0, 1, 5, n - 1, usize::MAX] {
                let got: Vec<(String, u64, bool)> = g
                    .recall_similar(&r.name, limit)
                    .unwrap()
                    .into_iter()
                    .map(|h| (h.decision, h.score.to_bits(), h.retracted))
                    .collect();
                prop_assert_eq!(got, recall_by_scan(&g, &r.name, limit),
                    "probe {} at limit {}", &r.name, limit);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The served ASK reads a class's extent from the closure it
    /// memoizes it in, and evaluates a body that never reads the
    /// variable once. Over random histories with multi-level `isa`, the
    /// first ASK of a class (which builds its extent) and the second
    /// (which reads it) both answer like the assertion language over
    /// the same snapshot, in name order — and fail exactly when it
    /// does: an unbound name errors only for a class with a candidate.
    /// Off the capture tick the closure is the call's own, and the same
    /// holds.
    #[test]
    fn memoized_asks_answer_like_the_assertion_language(
        ops in prop::collection::vec((0u8..6, 0usize..5, 0usize..5), 1..30),
    ) {
        use conceptbase::objectbase::query::{ask, ask_with_stats_version};
        const BODIES: [&str; 7] = [
            "true",
            "C0 isa C0",
            "C0 in C1",
            "x in C1",
            "exists x/C2 (x in C3)",
            "forall x/C3 (x in C2)",
            "ghost in C0",
        ];
        let mut kb = Kb::new();
        let classes: Vec<PropId> = (0..5)
            .map(|i| kb.individual(&format!("C{i}")).unwrap())
            .collect();
        let (mut links, mut counter, mut captured) = (Vec::new(), 0usize, Vec::new());
        for (op, a, b) in ops {
            match op {
                // A specialization; cycle-creating ones are refused.
                0 => {
                    kb.tick();
                    if let Ok(l) = kb.specialize(classes[a], classes[b]) {
                        links.push(l);
                    }
                }
                1 | 2 => {
                    kb.tick();
                    let x = kb.individual(&format!("x{counter}")).unwrap();
                    counter += 1;
                    links.push(kb.instantiate(x, classes[a]).unwrap());
                }
                // UNTELL an instance or specialization link.
                3 => {
                    if !links.is_empty() {
                        kb.tick();
                        let l = links.remove((a * 5 + b) % links.len());
                        kb.untell(l).unwrap();
                    }
                }
                _ => captured.push(kb.version()),
            }
        }
        captured.push(kb.version());
        for version in &captured {
            for at in [version.now(), version.now() - 1] {
                let snap = version.snapshot_at(at);
                for class in (0..5).map(|i| format!("C{i}")) {
                    for body in BODIES {
                        let oracle = ask(&snap, "x", &class, body).map(|mut names| {
                            names.sort();
                            names
                        });
                        for pass in ["builds", "reads"] {
                            let served = ask_with_stats_version(version, at, "x", &class, body);
                            match (&served, &oracle) {
                                (Ok((names, _)), Ok(want)) => prop_assert_eq!(
                                    names, want,
                                    "{} the extent: ask x/{} : {} at {}", pass, class, body, at
                                ),
                                (Err(_), Err(_)) => {}
                                _ => prop_assert!(
                                    false,
                                    "{} the extent: ask x/{} : {} at {}: served {:?}, oracle {:?}",
                                    pass, class, body, at, served, oracle
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}
