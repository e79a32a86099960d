//! Bottom-up, semi-naive fixpoint evaluation with stratified negation.
//!
//! This is the deductive-relational view of the object processor: "the
//! object processor understands the knowledge base as a deductive
//! relational database; in this way, large sets of similarly structured
//! objects can be managed more efficiently" (§3.1).
//!
//! Strata are evaluated in order; inside a stratum the classic
//! semi-naive optimization restricts one positive recursive literal per
//! rule instantiation to the previous round's delta, so each derivation
//! is attempted once.
//!
//! # Join evaluation
//!
//! [`evaluate`] compiles each rule once per stratum and runs it through
//! the crate's one join kernel (`datalog::join`, shared with
//! [`crate::ivm`]): this module only decides *which source each body
//! position reads*. In the naive first round of a stratum every
//! position reads the model so far; in a semi-naive round with the
//! delta at position *p*, positions before *p* read the model minus the
//! delta, *p* reads the delta — and drives the join, so a round costs
//! in proportion to what the previous one derived — and positions
//! after *p* read the model. The kernel probes the [`Database`]'s
//! secondary index for whatever is bound when it reaches a literal
//! instead of scanning the relation. The pre-index scan evaluator
//! survives as [`evaluate_scan`]: it shares no code with the kernel,
//! which makes it the independent oracle of the differential tests.

use crate::ast::{Literal, Program, Rule, Term, Value};
use crate::db::Database;
use crate::error::{DatalogError, DatalogResult};
use crate::intern::{IVal, Symbol};
use crate::join::{compile, join_order, mask_bit, CRule, Join, Source};
use crate::stratify::stratify;
use std::collections::{HashMap, HashSet};

/// Evaluation statistics, exposed for the benches (E-2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds across all strata.
    pub rounds: usize,
    /// Successful rule-body instantiations (head tuples produced,
    /// including duplicates rediscovered). Always `>= new_facts`.
    pub derivations: usize,
    /// Facts that were new.
    pub new_facts: usize,
    /// Secondary-index probes issued by the join core (0 for the scan
    /// evaluator).
    pub index_probes: usize,
    /// Candidate tuples iterated while joining — index hits plus full
    /// scans where no argument was bound.
    pub tuples_scanned: usize,
}

impl EvalStats {
    /// Accumulates this evaluation's counters into the process-wide
    /// [`obs`] registry, so the per-query numbers the engines already
    /// report become cumulative service metrics. They count work done:
    /// an ASK answered from a closure its store version already holds
    /// runs no evaluation and moves none of them.
    pub fn publish(&self) {
        obs::counter!(
            "datalog_evaluations_total",
            "Bottom-up evaluations (indexed or scan) completed: one per closure built, not one per ASK"
        )
        .inc();
        obs::counter!(
            "datalog_rounds_total",
            "Fixpoint rounds across all strata, per evaluation run"
        )
        .add(self.rounds as u64);
        obs::counter!(
            "datalog_derivations_total",
            "Successful rule-body instantiations, per evaluation run"
        )
        .add(self.derivations as u64);
        obs::counter!(
            "datalog_new_facts_total",
            "Facts newly derived, per evaluation run"
        )
        .add(self.new_facts as u64);
        obs::counter!(
            "datalog_index_probes_total",
            "Secondary-index probes issued by the join cores, per evaluation run"
        )
        .add(self.index_probes as u64);
        obs::counter!(
            "datalog_tuples_scanned_total",
            "Candidate tuples iterated while joining, per evaluation run"
        )
        .add(self.tuples_scanned as u64);
    }
}

/// Evaluates `program` over `edb` through the join kernel, returning
/// the full model (EDB + derived facts) and statistics. The model
/// starts as a clone of `edb`, which copies no tuple: relations are
/// shared copy-on-write ([`crate::db`]), so the model holds the input's
/// relations — and the indexes the joins build on them — by reference,
/// and owns only what it derived.
pub fn evaluate(program: &Program, edb: &Database) -> DatalogResult<(Database, EvalStats)> {
    program.validate()?;
    let strat = stratify(program)?;
    let mut total = edb.clone();
    let mut stats = EvalStats::default();

    for stratum_rules in &strat.rules_per_stratum {
        let rules: Vec<CRule> = stratum_rules
            .iter()
            .map(|&i| compile(&program.rules[i]))
            .collect::<DatalogResult<_>>()?;
        let idb: HashSet<Symbol> = rules.iter().map(|r| r.head_pred).collect();

        // Round 1 is naive: every rule once, against everything known
        // so far. Each later round runs one version of a rule per
        // positive literal over an IDB predicate of this stratum, that
        // literal restricted to the previous round's delta.
        let mut delta: Option<Database> = None;
        loop {
            stats.rounds += 1;
            let mut next = Database::new();
            for rule in &rules {
                // `None` is the naive version, `Some(p)` the one whose
                // delta position is `p`.
                let versions: Vec<Option<usize>> = match &delta {
                    None => vec![None],
                    Some(d) => (0..rule.lits.len())
                        .filter(|&p| {
                            let lit = &rule.lits[p];
                            !lit.negated && idb.contains(&lit.pred) && d.has_tuples(lit.pred)
                        })
                        .map(Some)
                        .collect(),
                };
                for p in versions {
                    let sources = version_sources(rule, &total, p.zip(delta.as_ref()));
                    let mut emit = |row: &[IVal]| {
                        if !total.contains_ivals(rule.head_pred, row) {
                            next.insert_ivals(rule.head_pred, row)?;
                        }
                        Ok(())
                    };
                    Join::new(rule, sources).run(&mut rule.fresh_env(), &mut stats, &mut emit)?;
                }
            }
            // The previous delta goes first: a relation `total` adopted
            // from it is then `total`'s alone again, and grows in place.
            drop(delta.take());
            stats.new_facts += total.absorb(&next)?;
            if next.total() == 0 {
                break;
            }
            delta = Some(next);
        }
    }
    stats.publish();
    Ok((total, stats))
}

/// Where each body position of one rule version reads from: `total`
/// everywhere in the naive version; with the delta at position `p`,
/// `p` reads the delta and the positive positions before it read the
/// *old* state, `total` minus the delta. An instantiation whose earlier
/// literal also matches a delta tuple belongs to the version whose
/// delta position is that earlier literal, so producing it here would
/// attempt — and count — the same derivation twice.
fn version_sources<'a>(
    rule: &CRule,
    total: &'a Database,
    delta: Option<(usize, &'a Database)>,
) -> Vec<Source<'a>> {
    rule.lits
        .iter()
        .enumerate()
        .map(|(j, lit)| match delta {
            Some((p, d)) if j == p => Source::Delta(d),
            Some((p, d)) if j < p && !lit.negated => Source::State(vec![total], vec![d]),
            _ => Source::State(vec![total], vec![]),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The legacy scan evaluator (pre-index join core), kept verbatim for
// ablation benchmarks and differential testing.
// ---------------------------------------------------------------------

type Env = HashMap<String, Value>;

fn bind(term: &Term, env: &Env) -> Option<Value> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Var(v) => env.get(v).cloned(),
    }
}

fn match_tuple(args: &[Term], tuple: &[Value], env: &Env) -> Option<Env> {
    let mut env = env.clone();
    for (t, v) in args.iter().zip(tuple) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(name) => match env.get(name) {
                Some(bound) if bound != v => return None,
                Some(_) => {}
                None => {
                    env.insert(name.clone(), v.clone());
                }
            },
        }
    }
    Some(env)
}

/// Orders body literals: positives first (source order), negatives
/// last, so safety guarantees groundness when a negation is reached.
fn ordered_body(rule: &Rule) -> Vec<&Literal> {
    let mut out: Vec<&Literal> = rule.body.iter().filter(|l| !l.negated).collect();
    out.extend(rule.body.iter().filter(|l| l.negated));
    out
}

/// The join order and binding-pattern masks of `rule` when no position
/// is a delta, exposed for cost estimation: one entry per body literal
/// in evaluation order, carrying the index of the literal in `rule.body`
/// and the bound-positions mask the join probes with (constants plus
/// variables bound by earlier literals). The order and the mask width
/// are the join kernel's own (`join_order`, `mask_bit`), so this is what
/// it does in [`evaluate`]'s naive round.
pub fn plan_masks(rule: &Rule) -> Vec<(usize, u32)> {
    let order = join_order(rule.body.len(), |i| rule.body[i].negated, |_| false);
    let mut bound: HashSet<&str> = HashSet::new();
    let mut out = Vec::with_capacity(order.len());
    for i in order {
        let mut mask: u32 = 0;
        let mut newly = Vec::new();
        for (j, t) in rule.body[i].atom.args.iter().enumerate() {
            match t {
                Term::Var(name) if !bound.contains(name.as_str()) => newly.push(name.as_str()),
                _ => mask |= mask_bit(j),
            }
        }
        bound.extend(newly);
        out.push((i, mask));
    }
    out
}

/// Joins the rule body against `total` by scanning each relation, with
/// body position `delta_pos` restricted to `delta` if given.
fn join_body(
    body: &[&Literal],
    pos: usize,
    env: &Env,
    total: &Database,
    delta: Option<(&Database, usize)>,
    out: &mut Vec<Env>,
    stats: &mut EvalStats,
) -> DatalogResult<()> {
    if pos == body.len() {
        stats.derivations += 1;
        out.push(env.clone());
        return Ok(());
    }
    let lit = body[pos];
    if lit.negated {
        let mut tuple = Vec::with_capacity(lit.atom.args.len());
        for t in &lit.atom.args {
            match bind(t, env) {
                Some(v) => tuple.push(v),
                None => {
                    return Err(DatalogError::NonGroundNegation(lit.atom.to_string()));
                }
            }
        }
        if !total.contains(&lit.atom.pred, &tuple) {
            join_body(body, pos + 1, env, total, delta, out, stats)?;
        }
        return Ok(());
    }
    let source = match delta {
        Some((d, dp)) if dp == pos => d,
        _ => total,
    };
    // Same old-state discipline as the indexed core: positions before
    // the delta position skip tuples from this round's delta, so each
    // derivation is attempted by exactly one rule version.
    let exclude = match delta {
        Some((d, dp)) if pos < dp => Some(d),
        _ => None,
    };
    for tuple in source.tuples(&lit.atom.pred) {
        stats.tuples_scanned += 1;
        if exclude.is_some_and(|d| d.contains(&lit.atom.pred, &tuple)) {
            continue;
        }
        if let Some(env2) = match_tuple(&lit.atom.args, &tuple, env) {
            join_body(body, pos + 1, &env2, total, delta, out, stats)?;
        }
    }
    Ok(())
}

fn head_tuple(rule: &Rule, env: &Env) -> DatalogResult<Vec<Value>> {
    rule.head
        .args
        .iter()
        .map(|t| {
            bind(t, env).ok_or_else(|| {
                DatalogError::UnsafeRule(format!("unbound head variable in `{rule}`"))
            })
        })
        .collect()
}

/// Evaluates `program` over `edb` with the pre-index scan join core:
/// every literal scans its whole relation and unifies tuple by tuple.
/// Same model as [`evaluate`]; kept for ablation and differential
/// testing. `index_probes` stays 0 on this path.
pub fn evaluate_scan(program: &Program, edb: &Database) -> DatalogResult<(Database, EvalStats)> {
    program.validate()?;
    let strat = stratify(program)?;
    let mut total = edb.clone();
    let mut stats = EvalStats::default();

    for stratum_rules in &strat.rules_per_stratum {
        let rules: Vec<&Rule> = stratum_rules.iter().map(|&i| &program.rules[i]).collect();
        let idb: Vec<&str> = rules.iter().map(|r| r.head.pred.as_str()).collect();

        // Round 1: naive evaluation against everything known so far.
        let mut delta = Database::new();
        stats.rounds += 1;
        for rule in &rules {
            let body = ordered_body(rule);
            let mut envs = Vec::new();
            join_body(&body, 0, &Env::new(), &total, None, &mut envs, &mut stats)?;
            for env in envs {
                let t = head_tuple(rule, &env)?;
                if !total.contains(&rule.head.pred, &t) {
                    delta.insert(&rule.head.pred, t)?;
                }
            }
        }
        stats.new_facts += total.absorb(&delta)?;

        // Semi-naive rounds.
        while delta.total() > 0 {
            stats.rounds += 1;
            let mut next = Database::new();
            for rule in &rules {
                let body = ordered_body(rule);
                for (pos, lit) in body.iter().enumerate() {
                    if lit.negated || !idb.contains(&lit.atom.pred.as_str()) {
                        continue;
                    }
                    if delta.count(&lit.atom.pred) == 0 {
                        continue;
                    }
                    let mut envs = Vec::new();
                    join_body(
                        &body,
                        0,
                        &Env::new(),
                        &total,
                        Some((&delta, pos)),
                        &mut envs,
                        &mut stats,
                    )?;
                    for env in envs {
                        let t = head_tuple(rule, &env)?;
                        if !total.contains(&rule.head.pred, &t) {
                            next.insert(&rule.head.pred, t)?;
                        }
                    }
                }
            }
            stats.new_facts += total.absorb(&next)?;
            delta = next;
        }
    }
    stats.publish();
    Ok((total, stats))
}

/// Convenience: evaluates and returns the tuples of one predicate,
/// sorted for deterministic comparison.
pub fn evaluate_pred(
    program: &Program,
    edb: &Database,
    pred: &str,
) -> DatalogResult<Vec<Vec<Value>>> {
    let (model, _) = evaluate(program, edb)?;
    let mut out: Vec<Vec<Value>> = model.tuples(pred).collect();
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (a, b) in pairs {
            db.insert("edge", vec![Value::sym(*a), Value::sym(*b)])
                .unwrap();
        }
        db
    }

    const TC: &str = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";

    #[test]
    fn transitive_closure() {
        let p = Program::parse(TC).unwrap();
        let db = edges(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let paths = evaluate_pred(&p, &db, "path").unwrap();
        assert_eq!(paths.len(), 6); // ab ac ad bc bd cd
        assert!(paths.contains(&vec![Value::sym("a"), Value::sym("d")]));
    }

    #[test]
    fn cyclic_graph_terminates() {
        let p = Program::parse(TC).unwrap();
        let db = edges(&[("a", "b"), ("b", "a")]);
        let paths = evaluate_pred(&p, &db, "path").unwrap();
        // aa ab ba bb
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn stratified_negation() {
        let p = Program::parse(
            "reach(X) :- source(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut db = edges(&[("a", "b"), ("c", "d")]);
        for n in ["a", "b", "c", "d"] {
            db.insert("node", vec![Value::sym(n)]).unwrap();
        }
        db.insert("source", vec![Value::sym("a")]).unwrap();
        let unreached = evaluate_pred(&p, &db, "unreached").unwrap();
        assert_eq!(
            unreached,
            vec![vec![Value::sym("c")], vec![Value::sym("d")]]
        );
    }

    #[test]
    fn facts_in_program() {
        let p = Program::parse(
            "edge(a, b).\nedge(b, c).\npath(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        let paths = evaluate_pred(&p, &Database::new(), "path").unwrap();
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn same_generation() {
        let p = Program::parse(
            "sg(X, X) :- person(X).\n\
             sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).",
        )
        .unwrap();
        let mut db = Database::new();
        for x in ["ann", "bob", "cal", "dee"] {
            db.insert("person", vec![Value::sym(x)]).unwrap();
        }
        db.insert("parent", vec![Value::sym("ann"), Value::sym("cal")])
            .unwrap();
        db.insert("parent", vec![Value::sym("bob"), Value::sym("cal")])
            .unwrap();
        let sg = evaluate_pred(&p, &db, "sg").unwrap();
        assert!(sg.contains(&vec![Value::sym("ann"), Value::sym("bob")]));
        assert!(sg.contains(&vec![Value::sym("bob"), Value::sym("ann")]));
        assert!(!sg.contains(&vec![Value::sym("ann"), Value::sym("dee")]));
    }

    #[test]
    fn constants_in_rule_bodies() {
        let p = Program::parse("special(X) :- edge(a, X).").unwrap();
        let db = edges(&[("a", "b"), ("b", "c")]);
        let s = evaluate_pred(&p, &db, "special").unwrap();
        assert_eq!(s, vec![vec![Value::sym("b")]]);
    }

    #[test]
    fn repeated_head_and_body_variables() {
        // p(X, X)-style literals must check equality at match time, not
        // through the probe key (only the first occurrence binds).
        let p = Program::parse("loop(X) :- edge(X, X).\nrefl(X, X) :- node(X).").unwrap();
        let mut db = edges(&[("a", "a"), ("a", "b"), ("b", "b")]);
        db.insert("node", vec![Value::sym("n")]).unwrap();
        let loops = evaluate_pred(&p, &db, "loop").unwrap();
        assert_eq!(loops, vec![vec![Value::sym("a")], vec![Value::sym("b")]]);
        let refl = evaluate_pred(&p, &db, "refl").unwrap();
        assert_eq!(refl, vec![vec![Value::sym("n"), Value::sym("n")]]);
    }

    #[test]
    fn stats_report_semi_naive_rounds() {
        let p = Program::parse(TC).unwrap();
        // A chain of length 20 needs ~20 rounds.
        let mut db = Database::new();
        for i in 0..20 {
            db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        let (model, stats) = evaluate(&p, &db).unwrap();
        assert_eq!(model.count("path"), 20 * 21 / 2);
        assert!(stats.rounds >= 20, "rounds = {}", stats.rounds);
        assert_eq!(stats.new_facts, model.count("path"));
    }

    #[test]
    fn indexed_join_probes_indexes() {
        let p = Program::parse(TC).unwrap();
        let mut db = Database::new();
        for i in 0..20 {
            db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        let (_, stats) = evaluate(&p, &db).unwrap();
        assert!(stats.index_probes > 0, "recursive rule must probe");
        let (_, scan_stats) = evaluate_scan(&p, &db).unwrap();
        assert_eq!(scan_stats.index_probes, 0);
        assert!(
            stats.tuples_scanned < scan_stats.tuples_scanned,
            "indexed: {} vs scan: {}",
            stats.tuples_scanned,
            scan_stats.tuples_scanned
        );
    }

    #[test]
    fn stats_invariants_new_facts_bounded_by_derivations() {
        let programs = [
            TC,
            "sg(X, X) :- person(X).\nsg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).",
            "reach(X) :- source(X).\nreach(Y) :- reach(X), edge(X, Y).\n\
             unreached(X) :- node(X), not reach(X).",
        ];
        let mut db = edges(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
        for n in ["a", "b", "c", "d"] {
            db.insert("node", vec![Value::sym(n)]).unwrap();
            db.insert("person", vec![Value::sym(n)]).unwrap();
        }
        db.insert("source", vec![Value::sym("a")]).unwrap();
        db.insert("parent", vec![Value::sym("a"), Value::sym("c")])
            .unwrap();
        db.insert("parent", vec![Value::sym("b"), Value::sym("c")])
            .unwrap();
        for src in programs {
            let p = Program::parse(src).unwrap();
            let mut counts = Vec::new();
            for eval in [evaluate, evaluate_scan] {
                let (model, stats) = eval(&p, &db).unwrap();
                assert!(
                    stats.new_facts <= stats.derivations,
                    "new_facts {} > derivations {} for `{src}`",
                    stats.new_facts,
                    stats.derivations
                );
                assert!(stats.new_facts <= model.total());
                assert!(stats.rounds >= 1);
                counts.push(stats.derivations);
            }
            // Exactly-once counting is an engine invariant, not an
            // artifact of the join order: both cores must agree.
            assert_eq!(
                counts[0], counts[1],
                "indexed and scan derivation counts diverge for `{src}`"
            );
        }
    }

    #[test]
    fn derivations_count_each_instantiation_exactly_once() {
        // p is both directly derived from e and closed transitively:
        //   p(X, Y) :- e(X, Y).
        //   p(X, Z) :- p(X, Y), p(Y, Z).
        // Over the chain 1→2→3→4 the correct exactly-once count is 7:
        // three rule-1 instantiations plus the four composable pairs
        // Σ_y |p(*, y)| · |p(y, *)| = (12,23) (12,24) (13,34) (23,34).
        // A join that reads the absorbed total at every non-delta
        // position counts pairs with both sides in the same delta
        // round twice (9 here).
        let p = Program::parse("p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut db = Database::new();
        for i in 1..4 {
            db.insert("e", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        for eval in [evaluate, evaluate_scan] {
            let (model, stats) = eval(&p, &db).unwrap();
            assert_eq!(model.count("p"), 6);
            assert_eq!(stats.new_facts, 6);
            assert_eq!(
                stats.derivations, 7,
                "each instantiation must be attempted exactly once"
            );
        }
    }

    #[test]
    fn derivations_exactly_once_on_same_generation() {
        // The recursive literal flanked by EDB literals: the delta
        // version at position 1 must keep reading the full parent
        // relation on both sides, so the old-state discipline only
        // filters same-stratum delta tuples, never EDB tuples.
        let p = Program::parse(
            "sg(X, X) :- person(X).\n\
             sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).",
        )
        .unwrap();
        let mut db = Database::new();
        for x in ["ann", "bob", "cal"] {
            db.insert("person", vec![Value::sym(x)]).unwrap();
        }
        db.insert("parent", vec![Value::sym("ann"), Value::sym("cal")])
            .unwrap();
        db.insert("parent", vec![Value::sym("bob"), Value::sym("cal")])
            .unwrap();
        // Round 1: 3 person seeds, sg join finds nothing (sg empty).
        // Round 2 (delta = {aa, bb, cc}): rule 2 derives aa, ab, ba, bb
        // through sg(cal, cal) — 4 instantiations, each via exactly one
        // delta position. Round 3 (delta = {ab, ba}): sg(cal, ·) has no
        // new pairs. Exactly-once total: 3 + 4 = 7.
        for eval in [evaluate, evaluate_scan] {
            let (model, stats) = eval(&p, &db).unwrap();
            assert_eq!(model.count("sg"), 5); // aa bb cc ab ba
            assert_eq!(stats.derivations, 7, "seed 3 + pair joins 4");
        }
    }

    #[test]
    fn stats_rounds_monotone_in_chain_depth() {
        let p = Program::parse(TC).unwrap();
        let mut prev_rounds = 0;
        for depth in [4, 8, 16, 32] {
            let mut db = Database::new();
            for i in 0..depth {
                db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                    .unwrap();
            }
            let (_, stats) = evaluate(&p, &db).unwrap();
            assert!(
                stats.rounds > prev_rounds,
                "depth {depth}: rounds {} not > {prev_rounds}",
                stats.rounds
            );
            prev_rounds = stats.rounds;
        }
    }

    #[test]
    fn scan_and_indexed_agree() {
        let sources = [
            TC,
            "special(X) :- edge(a, X).",
            "reach(X) :- source(X).\nreach(Y) :- reach(X), edge(X, Y).\n\
             unreached(X) :- node(X), not reach(X).",
        ];
        let mut db = edges(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]);
        for n in ["a", "b", "c", "d", "e"] {
            db.insert("node", vec![Value::sym(n)]).unwrap();
        }
        db.insert("source", vec![Value::sym("a")]).unwrap();
        for src in sources {
            let p = Program::parse(src).unwrap();
            let (m1, _) = evaluate(&p, &db).unwrap();
            let (m2, _) = evaluate_scan(&p, &db).unwrap();
            for pred in m2.preds() {
                let mut a: Vec<Vec<Value>> = m1.tuples(pred).collect();
                let mut b: Vec<Vec<Value>> = m2.tuples(pred).collect();
                a.sort();
                b.sort();
                assert_eq!(a, b, "engines disagree on `{pred}` for `{src}`");
            }
        }
    }

    #[test]
    fn unstratifiable_rejected() {
        let p = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        assert!(evaluate(&p, &Database::new()).is_err());
    }

    #[test]
    fn empty_program_returns_edb() {
        let db = edges(&[("a", "b")]);
        let (model, stats) = evaluate(&Program::default(), &db).unwrap();
        assert_eq!(model.count("edge"), 1);
        assert_eq!(stats.new_facts, 0);
    }
}
