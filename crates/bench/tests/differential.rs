//! Differential testing of the inference engines.
//!
//! Random stratified programs and fact sets are thrown at all
//! evaluation paths — indexed semi-naive ([`seminaive::evaluate`]),
//! the pre-index scan core ([`seminaive::evaluate_scan`]), incremental
//! maintenance ([`MaterializedView`]), and the E-2 strategies the
//! served system does not run: top-down with tabling and magic sets
//! ([`bench::engines`]) — and the answer sets must be identical.
//! `evaluate` and the maintained view run on one join kernel, so the
//! scan core, which shares no code with it, is the oracle that keeps
//! the comparison independent. The generator builds programs that are stratified and
//! safe *by construction*: predicates carry levels, positive literals
//! may reference any level up to the head's (so recursion is
//! generated), negated literals only strictly lower levels, and head /
//! negated-literal variables are drawn from the positive body
//! variables.

use bench::engines::{magic, topdown};
use datalog::ast::{Atom, Literal, Program, Rule, Term, Value};
use datalog::db::Database;
use datalog::intern::{intern, IVal};
use datalog::ivm::{Fact, MaterializedView};
use datalog::seminaive;
use proptest::prelude::*;
use std::collections::BTreeMap;

// -------------------------------------------------------------------
// Random stratified program generation
// -------------------------------------------------------------------

/// splitmix64 over a case seed: program shape must be a pure function
/// of the generated inputs so failures reproduce.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
const CONSTS: [&str; 5] = ["c0", "c1", "c2", "c3", "c4"];

/// `(name, arity, level)`: EDB predicates are level 0, IDB levels 1-3.
const EDB_PREDS: [(&str, usize); 2] = [("edge", 2), ("node", 1)];
const IDB_PREDS: [(&str, usize, u8); 3] = [("p", 2, 1), ("q", 1, 2), ("r", 2, 3)];

fn gen_rule(g: &mut Gen, head: (&str, usize), level: u8, allow_neg: bool) -> Rule {
    // Positive pool: EDB plus IDB predicates up to this level
    // (including the head's own level, so recursion happens).
    let pos_pool: Vec<(&str, usize)> = EDB_PREDS
        .iter()
        .copied()
        .chain(
            IDB_PREDS
                .iter()
                .filter(|&&(_, _, l)| l <= level)
                .map(|&(n, a, _)| (n, a)),
        )
        .collect();
    let mut body: Vec<Literal> = Vec::new();
    let mut posvars: Vec<&str> = Vec::new();
    let npos = 1 + g.below(2);
    for _ in 0..npos {
        let (pred, arity) = pos_pool[g.below(pos_pool.len())];
        let args: Vec<Term> = (0..arity)
            .map(|_| {
                if g.chance(7, 10) {
                    let v = VARS[g.below(VARS.len())];
                    if !posvars.contains(&v) {
                        posvars.push(v);
                    }
                    Term::var(v)
                } else {
                    Term::sym(CONSTS[g.below(CONSTS.len())])
                }
            })
            .collect();
        body.push(Literal {
            atom: Atom::new(pred, args),
            negated: false,
        });
    }
    if posvars.is_empty() {
        // Guarantee at least one binding literal so heads stay safe.
        posvars.push("X");
        body.push(Literal {
            atom: Atom::new("node", vec![Term::var("X")]),
            negated: false,
        });
    }
    // Optional negated literal over a strictly lower stratum, its
    // variables drawn from the positives so it is ground when reached.
    if allow_neg && level > 1 && g.chance(1, 3) {
        let neg_pool: Vec<(&str, usize)> = EDB_PREDS
            .iter()
            .copied()
            .chain(
                IDB_PREDS
                    .iter()
                    .filter(|&&(_, _, l)| l < level)
                    .map(|&(n, a, _)| (n, a)),
            )
            .collect();
        let (pred, arity) = neg_pool[g.below(neg_pool.len())];
        let args: Vec<Term> = (0..arity)
            .map(|_| {
                if g.chance(3, 4) {
                    Term::var(posvars[g.below(posvars.len())])
                } else {
                    Term::sym(CONSTS[g.below(CONSTS.len())])
                }
            })
            .collect();
        body.push(Literal {
            atom: Atom::new(pred, args),
            negated: true,
        });
    }
    let head_args: Vec<Term> = (0..head.1)
        .map(|_| {
            if g.chance(17, 20) {
                Term::var(posvars[g.below(posvars.len())])
            } else {
                Term::sym(CONSTS[g.below(CONSTS.len())])
            }
        })
        .collect();
    Rule::new(Atom::new(head.0, head_args), body)
}

/// A random stratified, safe program with up to two rules per IDB
/// predicate. With `allow_neg` false the program is purely positive
/// (magic sets supports only those).
fn gen_program(seed: u64, allow_neg: bool) -> Program {
    let mut g = Gen::new(seed);
    let mut rules = Vec::new();
    for &(name, arity, level) in &IDB_PREDS {
        let n = if level == 1 {
            1 + g.below(2)
        } else {
            g.below(3) // possibly none
        };
        for _ in 0..n {
            rules.push(gen_rule(&mut g, (name, arity), level, allow_neg));
        }
    }
    Program { rules }
}

fn build_edb(edges: &[(u8, u8)], nodes: &[u8]) -> Database {
    let c = |n: u8| Value::sym(format!("c{}", n % 5));
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert("edge", vec![c(a), c(b)]).unwrap();
    }
    for &n in nodes {
        db.insert("node", vec![c(n)]).unwrap();
    }
    db
}

fn program_text(program: &Program) -> String {
    program
        .rules
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn sorted_tuples(db: &Database, pred: &str) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = db.tuples(pred).collect();
    out.sort();
    out
}

/// Every non-empty predicate of `db` with its sorted tuples.
fn all_tuples(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    db.preds()
        .into_iter()
        .map(|pred| (pred.to_string(), sorted_tuples(db, pred)))
        .filter(|(_, tuples)| !tuples.is_empty())
        .collect()
}

/// A view loaded the way a KB export loads one: the facts told at
/// least once as a de-duplicated database, and every further telling
/// reported beside it.
fn load_twin(program: &Program, told: &BTreeMap<Fact, i64>) -> MaterializedView {
    let mut edb = Database::new();
    let mut duplicates = Vec::new();
    for ((pred, tuple), &n) in told {
        if n > 0 {
            edb.insert(pred, tuple.clone()).expect("insert");
        }
        let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
        duplicates.extend((1..n).map(|_| (intern(pred), row.clone())));
    }
    MaterializedView::load(program.clone(), &edb, &duplicates).expect("load")
}

/// All answers to the fully-open goal for `pred/arity` via tabled
/// top-down resolution, as sorted ground tuples.
fn topdown_tuples(program: &Program, edb: &Database, pred: &str, arity: usize) -> Vec<Vec<Value>> {
    let mut td = topdown::TopDown::new(program, edb);
    let goal = Atom::new(
        pred,
        (0..arity).map(|i| Term::var(format!("V{i}"))).collect(),
    );
    let answers = td.query(&goal).expect("stratified program evaluates");
    let mut out: Vec<Vec<Value>> = answers
        .iter()
        .map(|env| {
            (0..arity)
                .map(|i| {
                    env.get(&format!("V{i}"))
                        .cloned()
                        .expect("datalog answers are ground")
                })
                .collect()
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The indexed join core computes exactly the model of the scan
    /// core, on every predicate, for random stratified programs.
    #[test]
    fn indexed_and_scan_semi_naive_agree(
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..25),
        nodes in prop::collection::vec(0u8..5, 0..8),
        seed in any::<u64>(),
    ) {
        let program = gen_program(seed, true);
        let edb = build_edb(&edges, &nodes);
        let (indexed, indexed_stats) = seminaive::evaluate(&program, &edb).expect("indexed");
        let (scan, scan_stats) = seminaive::evaluate_scan(&program, &edb).expect("scan");
        for pred in scan.preds() {
            prop_assert_eq!(
                sorted_tuples(&indexed, pred),
                sorted_tuples(&scan, pred),
                "pred `{}` differs for program:\n{}", pred, program_text(&program)
            );
        }
        prop_assert_eq!(indexed.total(), scan.total());
        // Both cores attempt each rule instantiation exactly once.
        prop_assert_eq!(
            indexed_stats.derivations, scan_stats.derivations,
            "derivation counts differ for program:\n{}", program_text(&program)
        );
    }

    /// A view maintained through random insert/delete batches equals,
    /// after every batch and on every predicate, both recomputations
    /// over its extensional state — the kernel's and the scan oracle's
    /// — and its TELL multiplicities equal a naive multiset count. From
    /// batch `load_at` on, a twin *loaded* from the extensional state
    /// of that moment is churned alongside and must stay equal to the
    /// view that got everything through `apply`. A `twice` insert is
    /// told twice in its batch (a later delete leaves it); a `twice`
    /// delete is re-told in the same batch (the two net out).
    #[test]
    fn maintained_view_equals_both_recomputations_under_churn(
        batches in prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), any::<bool>(), any::<bool>(), 0u8..5, 0u8..5),
                1..6,
            ),
            1..8,
        ),
        load_at in 0usize..8,
        seed in any::<u64>(),
    ) {
        let program = gen_program(seed, true);
        let mut view = MaterializedView::new(program.clone()).expect("view");
        let mut loaded: Option<MaterializedView> = None;
        let mut told: BTreeMap<Fact, i64> = BTreeMap::new();
        for (at, batch) in batches.iter().enumerate() {
            if at == load_at {
                loaded = Some(load_twin(&program, &told));
            }
            let (mut inserts, mut deletes): (Vec<Fact>, Vec<Fact>) = (Vec::new(), Vec::new());
            for &(insert, twice, is_edge, a, b) in batch {
                let c = |n: u8| Value::sym(format!("c{n}"));
                let fact: Fact = if is_edge {
                    ("edge".to_string(), vec![c(a), c(b)])
                } else {
                    ("node".to_string(), vec![c(a)])
                };
                if !insert { deletes.push(fact.clone()) }
                if insert || twice { inserts.push(fact.clone()) }
                if insert && twice { inserts.push(fact) }
            }
            for d in &deletes {
                if let Some(n) = told.get_mut(d) {
                    *n = (*n - 1).max(0);
                }
            }
            for i in &inserts {
                *told.entry(i.clone()).or_insert(0) += 1;
            }
            view.apply(&inserts, &deletes).expect("apply");
            let (kernel, _) = seminaive::evaluate(&program, &view.edb()).expect("indexed");
            let (scan, _) = seminaive::evaluate_scan(&program, &view.edb()).expect("scan");
            prop_assert_eq!(
                all_tuples(view.model()), all_tuples(&scan),
                "view differs from the scan oracle for program:\n{}", program_text(&program)
            );
            prop_assert_eq!(
                all_tuples(&kernel), all_tuples(&scan),
                "kernel differs from the scan oracle for program:\n{}", program_text(&program)
            );
            for ((pred, tuple), &n) in &told {
                prop_assert_eq!(view.support(pred, tuple), n, "{}{:?}", pred, tuple);
            }
            if let Some(twin) = &mut loaded {
                twin.apply(&inserts, &deletes).expect("apply to the loaded twin");
                prop_assert_eq!(
                    all_tuples(twin.model()), all_tuples(view.model()),
                    "loaded twin differs for program:\n{}", program_text(&program)
                );
                for (pred, tuple) in told.keys() {
                    prop_assert_eq!(twin.support(pred, tuple), view.support(pred, tuple));
                }
            }
        }
    }

    /// Tabled top-down resolution enumerates exactly the bottom-up
    /// model of each IDB predicate.
    #[test]
    fn topdown_agrees_with_bottom_up(
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..20),
        nodes in prop::collection::vec(0u8..5, 0..8),
        seed in any::<u64>(),
    ) {
        let program = gen_program(seed, true);
        let edb = build_edb(&edges, &nodes);
        let (model, _) = seminaive::evaluate(&program, &edb).expect("bottom-up");
        for &(pred, arity, _) in &IDB_PREDS {
            prop_assert_eq!(
                topdown_tuples(&program, &edb, pred, arity),
                sorted_tuples(&model, pred),
                "pred `{}` differs for program:\n{}", pred, program_text(&program)
            );
        }
    }

    /// Magic-sets evaluation answers open and bound queries exactly
    /// like full bottom-up evaluation (positive programs).
    #[test]
    fn magic_agrees_with_bottom_up(
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..20),
        nodes in prop::collection::vec(0u8..5, 0..8),
        seed in any::<u64>(),
    ) {
        let program = gen_program(seed, false);
        let edb = build_edb(&edges, &nodes);
        let (model, _) = seminaive::evaluate(&program, &edb).expect("bottom-up");
        for &(pred, arity, _) in &IDB_PREDS {
            let expected = sorted_tuples(&model, pred);
            // Fully open query.
            let open = Atom::new(
                pred,
                (0..arity).map(|i| Term::var(format!("V{i}"))).collect(),
            );
            let open_answers = magic::magic_evaluate(&program, &edb, &open).expect("magic open");
            prop_assert_eq!(
                &open_answers, &expected,
                "open query on `{}` differs for program:\n{}", pred, program_text(&program)
            );
            // Bound query on the first answer's first argument.
            if let Some(first) = expected.first() {
                let mut args: Vec<Term> = (0..arity)
                    .map(|i| Term::var(format!("V{i}")))
                    .collect();
                args[0] = Term::Const(first[0].clone());
                let bound = Atom::new(pred, args);
                let bound_answers =
                    magic::magic_evaluate(&program, &edb, &bound).expect("magic bound");
                let filtered: Vec<Vec<Value>> = expected
                    .iter()
                    .filter(|t| t[0] == first[0])
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    &bound_answers, &filtered,
                    "bound query on `{}` differs for program:\n{}", pred, program_text(&program)
                );
            }
        }
    }

    /// `Database::probe` returns exactly the scan-and-filter answer for
    /// every binding pattern of a binary relation.
    #[test]
    fn probe_equals_scan_filter(
        edges in prop::collection::vec((0u8..5, 0u8..5), 0..30),
        qx in 0u8..5,
        qy in 0u8..5,
    ) {
        let edb = build_edb(&edges, &[]);
        let x = Value::sym(format!("c{qx}"));
        let y = Value::sym(format!("c{qy}"));
        let all: Vec<Vec<Value>> = edb.tuples("edge").collect();
        let patterns: [Vec<Option<Value>>; 4] = [
            vec![None, None],
            vec![Some(x.clone()), None],
            vec![None, Some(y.clone())],
            vec![Some(x.clone()), Some(y.clone())],
        ];
        for pattern in patterns {
            let mut probed = edb.probe("edge", &pattern);
            probed.sort();
            let mut filtered: Vec<Vec<Value>> = all
                .iter()
                .filter(|t| {
                    pattern
                        .iter()
                        .zip(t.iter())
                        .all(|(p, v)| p.as_ref().is_none_or(|pv| pv == v))
                })
                .cloned()
                .collect();
            filtered.sort();
            prop_assert_eq!(probed, filtered, "pattern {:?}", pattern);
        }
    }
}

// -------------------------------------------------------------------
// Regression cases
// -------------------------------------------------------------------

/// Negation written *first* in the body: the bottom-up engines reorder
/// positives before negatives, so the rule still evaluates, and the
/// indexed and scan cores agree on the result.
#[test]
fn regression_negation_ordering() {
    let program = Program::parse(
        "reach(X) :- source(X).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         dead(X) :- not reach(X), node(X).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [("a", "b"), ("c", "d")] {
        edb.insert("edge", vec![Value::sym(a), Value::sym(b)])
            .unwrap();
    }
    for n in ["a", "b", "c", "d"] {
        edb.insert("node", vec![Value::sym(n)]).unwrap();
    }
    edb.insert("source", vec![Value::sym("a")]).unwrap();
    let (indexed, _) = seminaive::evaluate(&program, &edb).unwrap();
    let (scan, _) = seminaive::evaluate_scan(&program, &edb).unwrap();
    let expected = vec![vec![Value::sym("c")], vec![Value::sym("d")]];
    assert_eq!(sorted_tuples(&indexed, "dead"), expected);
    assert_eq!(sorted_tuples(&scan, "dead"), expected);
    // Negation sandwiched between positives reorders identically.
    let sandwich = Program::parse(
        "reach(X) :- source(X).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         dead2(X) :- node(X), not reach(X), node(X).",
    )
    .unwrap();
    let (m1, _) = seminaive::evaluate(&sandwich, &edb).unwrap();
    let (m2, _) = seminaive::evaluate_scan(&sandwich, &edb).unwrap();
    assert_eq!(sorted_tuples(&m1, "dead2"), expected);
    assert_eq!(sorted_tuples(&m2, "dead2"), expected);
}

/// Repeated variables — `p(X, X)` in bodies and heads — must be
/// checked at match time on every path; only the first occurrence may
/// enter a probe key.
#[test]
fn regression_repeated_variables() {
    let program = Program::parse(
        "loop(X) :- edge(X, X).\n\
         refl(X, X) :- node(X).\n\
         both(X) :- edge(X, Y), edge(Y, X).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "c")] {
        edb.insert("edge", vec![Value::sym(a), Value::sym(b)])
            .unwrap();
    }
    edb.insert("node", vec![Value::sym("n")]).unwrap();

    let (indexed, _) = seminaive::evaluate(&program, &edb).unwrap();
    let (scan, _) = seminaive::evaluate_scan(&program, &edb).unwrap();
    for pred in ["loop", "refl", "both"] {
        assert_eq!(
            sorted_tuples(&indexed, pred),
            sorted_tuples(&scan, pred),
            "scan/indexed disagree on `{pred}`"
        );
    }
    assert_eq!(sorted_tuples(&indexed, "loop"), vec![vec![Value::sym("a")]]);
    assert_eq!(
        sorted_tuples(&indexed, "refl"),
        vec![vec![Value::sym("n"), Value::sym("n")]]
    );
    assert_eq!(
        sorted_tuples(&indexed, "both"),
        vec![vec![Value::sym("a")], vec![Value::sym("b")]]
    );

    // Top-down and magic agree, including on a goal with a repeated
    // variable: loop-style goals `edge(V, V)`.
    assert_eq!(
        topdown_tuples(&program, &edb, "loop", 1),
        sorted_tuples(&indexed, "loop")
    );
    assert_eq!(
        topdown_tuples(&program, &edb, "both", 1),
        sorted_tuples(&indexed, "both")
    );
    let open = Atom::new("both", vec![Term::var("V")]);
    assert_eq!(
        magic::magic_evaluate(&program, &edb, &open).unwrap(),
        sorted_tuples(&indexed, "both")
    );
    let mut td = topdown::TopDown::new(&program, &edb);
    let same_var_goal = Atom::new("edge", vec![Term::var("V"), Term::var("V")]);
    let hits = td.query(&same_var_goal).unwrap();
    assert_eq!(hits.len(), 1, "only edge(a, a) matches edge(V, V)");
}

/// A body literal wider than the 32-bit binding mask, reached with its
/// *last* argument already bound: positions ≥ 32 never enter a probe
/// key, on any path. `w` is reached fully ground (a membership test),
/// `v` with its first argument free (an index probe on the 31 maskable
/// constants, the bound 33rd argument checked against each row). The
/// maintained view used to shift its mask past 32 bits here.
#[test]
fn regression_literal_wider_than_the_binding_mask() {
    let cs = vec!["c"; 31].join(", ");
    let program = Program::parse(&format!(
        "w(c, {cs}, X) :- in_(X, C).\n\
         q(X) :- in_(X, C), w(c, {cs}, X).\n\
         v(C, {cs}, X) :- in_(X, C).\n\
         r(X, Y) :- in_(X, C), v(Y, {cs}, X)."
    ))
    .unwrap();
    let in_ =
        |x: &str, c: &str| -> Fact { ("in_".to_string(), vec![Value::sym(x), Value::sym(c)]) };
    let mut view = MaterializedView::new(program.clone()).unwrap();
    let check = |view: &MaterializedView, q: &[&str]| {
        let (indexed, _) = seminaive::evaluate(&program, &view.edb()).unwrap();
        let (scan, _) = seminaive::evaluate_scan(&program, &view.edb()).unwrap();
        assert_eq!(all_tuples(&indexed), all_tuples(&scan));
        assert_eq!(all_tuples(view.model()), all_tuples(&scan));
        let expect: Vec<Vec<Value>> = q.iter().map(|x| vec![Value::sym(*x)]).collect();
        assert_eq!(sorted_tuples(&scan, "q"), expect);
        assert_eq!(scan.count("r"), q.len());
    };
    check(&view, &[]);
    view.apply(&[in_("a", "k"), in_("b", "k")], &[]).unwrap();
    check(&view, &["a", "b"]);
    view.apply(&[], &[in_("a", "k")]).unwrap();
    check(&view, &["b"]);
    view.apply(&[in_("a", "j")], &[in_("b", "k")]).unwrap();
    check(&view, &["a"]);
}

/// The KB's own rules over a KB export: `objectbase::query`'s base
/// program (transitive `isa`, inherited `in`) plus one user rule, over
/// the class chain `C0 isa C1 isa … isa C4` with three tokens in `C0`.
/// Every strategy answers open and bound goals alike, and the open
/// `inT` goal on the top class is the KB's own inheritance closure.
#[test]
fn engines_agree_on_the_base_program_over_a_kb_export() {
    use objectbase::query::{base_program, to_edb_at_store};
    let kb = bench::isa_chain_kb(4, 3);
    let edb = to_edb_at_store(&kb, kb.now()).unwrap();
    let mut program = base_program();
    let user = Program::parse("above(D) :- in_(_X, C), isaT(C, D).").unwrap();
    program.rules.extend(user.rules);
    let (model, _) = seminaive::evaluate(&program, &edb).unwrap();
    for (pred, arity) in [("isaT", 2), ("inT", 2), ("above", 1)] {
        let expected = sorted_tuples(&model, pred);
        assert!(!expected.is_empty(), "`{pred}` derives something");
        assert_eq!(topdown_tuples(&program, &edb, pred, arity), expected);
        let open = Atom::new(
            pred,
            (0..arity).map(|i| Term::var(format!("V{i}"))).collect(),
        );
        assert_eq!(
            magic::magic_evaluate(&program, &edb, &open).unwrap(),
            expected
        );
    }
    let names = |tuples: Vec<Vec<Value>>, at: usize| -> Vec<String> {
        tuples.iter().map(|t| t[at].to_string()).collect()
    };
    // The chain above `C0`, and `Proposition`, which the predefined
    // ω-level classes of every KB specialize.
    let chain: Vec<String> = (0..=4).map(|i| format!("C{i}")).collect();
    let mut above = chain[1..].to_vec();
    above.push("Proposition".into());
    assert_eq!(names(sorted_tuples(&model, "above"), 0), above);

    // Instances of the top class, deductively and from the KB.
    let top = kb.lookup("C4").unwrap();
    let mut from_kb: Vec<String> = kb
        .all_instances_of(top)
        .into_iter()
        .map(|x| kb.display(x))
        .collect();
    from_kb.sort();
    assert_eq!(from_kb, ["t0", "t1", "t2"]);
    let of_top = Atom::new("inT", vec![Term::var("X"), Term::sym("C4")]);
    let magic_top = magic::magic_evaluate(&program, &edb, &of_top).unwrap();
    assert_eq!(names(magic_top, 0), from_kb);
    let mut td = topdown::TopDown::new(&program, &edb);
    let mut td_top: Vec<String> = td
        .query(&of_top)
        .unwrap()
        .iter()
        .map(|env| env["X"].to_string())
        .collect();
    td_top.sort();
    assert_eq!(td_top, from_kb);

    // A bound goal: every class of one token.
    let of_t0 = Atom::new("inT", vec![Term::sym("t0"), Term::var("C")]);
    let magic_t0 = magic::magic_evaluate(&program, &edb, &of_t0).unwrap();
    assert_eq!(names(magic_t0, 1), chain);
    let mut td_t0: Vec<String> = td
        .query(&of_t0)
        .unwrap()
        .iter()
        .map(|env| env["C"].to_string())
        .collect();
    td_t0.sort();
    assert_eq!(td_t0, chain);
}
