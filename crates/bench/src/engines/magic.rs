//! The magic-sets transformation.
//!
//! Rewrites a positive datalog program so that bottom-up evaluation
//! only derives facts *relevant to a given query* — recovering the
//! goal-directedness of top-down evaluation while keeping set-oriented
//! execution. Used by the E-2 bench to compare the three strategies.
//!
//! The implementation uses left-to-right sideways information passing
//! and supports positive programs only (negation would require the
//! stratified variant, which the paper's setting does not need).

use datalog::ast::{Atom, Literal, Program, Rule, Term};
use datalog::db::Database;
use datalog::error::{DatalogError, DatalogResult};
use datalog::seminaive;
use std::collections::{HashSet, VecDeque};

/// An adornment: for each argument, is it bound (`true`) or free?
type Adornment = Vec<bool>;

fn adorn_suffix(a: &Adornment) -> String {
    a.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

fn magic_pred(pred: &str, a: &Adornment) -> String {
    format!("magic_{pred}_{}", adorn_suffix(a))
}

fn adorned_pred(pred: &str, a: &Adornment) -> String {
    format!("{pred}_{}", adorn_suffix(a))
}

/// The result of the transformation: a rewritten program plus the seed
/// magic fact and the adorned name of the query predicate.
#[derive(Debug, Clone)]
pub struct MagicProgram {
    /// The transformed rules (adorned + magic rules).
    pub program: Program,
    /// Seed fact to insert into the EDB before evaluation.
    pub seed: Atom,
    /// The adorned predicate holding the query's answers.
    pub answer_pred: String,
}

/// Applies the magic-sets transformation of `program` for `query`.
/// Arguments of `query` that are constants are bound; variables free.
pub fn magic_transform(program: &Program, query: &Atom) -> DatalogResult<MagicProgram> {
    program.validate()?;
    if program
        .rules
        .iter()
        .any(|r| r.body.iter().any(|l| l.negated))
    {
        return Err(DatalogError::NotStratifiable(
            "magic transformation supports positive programs only".into(),
        ));
    }
    let idb: HashSet<&str> = program.idb_preds().into_iter().collect();

    let query_adornment: Adornment = query
        .args
        .iter()
        .map(|t| matches!(t, Term::Const(_)))
        .collect();

    let mut out_rules: Vec<Rule> = Vec::new();
    let mut todo: VecDeque<(String, Adornment)> = VecDeque::new();
    let mut done: HashSet<(String, Adornment)> = HashSet::new();
    todo.push_back((query.pred.clone(), query_adornment.clone()));

    while let Some((pred, adornment)) = todo.pop_front() {
        if !done.insert((pred.clone(), adornment.clone())) {
            continue;
        }
        for rule in program.rules.iter().filter(|r| r.head.pred == pred) {
            // Bound variables: those in bound head positions.
            let mut bound_vars: HashSet<String> = HashSet::new();
            for (arg, &b) in rule.head.args.iter().zip(&adornment) {
                if b {
                    if let Term::Var(v) = arg {
                        bound_vars.insert(v.clone());
                    }
                }
            }
            let magic_head_args: Vec<Term> = rule
                .head
                .args
                .iter()
                .zip(&adornment)
                .filter(|(_, &b)| b)
                .map(|(t, _)| t.clone())
                .collect();
            let magic_lit = Literal::pos(Atom::new(
                magic_pred(&pred, &adornment),
                magic_head_args.clone(),
            ));

            let mut new_body = vec![magic_lit.clone()];
            for lit in &rule.body {
                let atom = &lit.atom;
                if idb.contains(atom.pred.as_str()) {
                    // Adornment of this subgoal under current bindings.
                    let sub_adornment: Adornment = atom
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound_vars.contains(v),
                        })
                        .collect();
                    // Magic rule: magic_sub(bound args) :- magic_head, prefix.
                    let magic_sub_args: Vec<Term> = atom
                        .args
                        .iter()
                        .zip(&sub_adornment)
                        .filter(|(_, &b)| b)
                        .map(|(t, _)| t.clone())
                        .collect();
                    out_rules.push(Rule::new(
                        Atom::new(magic_pred(&atom.pred, &sub_adornment), magic_sub_args),
                        new_body.clone(),
                    ));
                    todo.push_back((atom.pred.clone(), sub_adornment.clone()));
                    // The subgoal itself becomes adorned.
                    new_body.push(Literal::pos(Atom::new(
                        adorned_pred(&atom.pred, &sub_adornment),
                        atom.args.clone(),
                    )));
                } else {
                    new_body.push(lit.clone());
                }
                // All subgoal variables become bound afterwards.
                for v in atom.vars() {
                    bound_vars.insert(v.to_string());
                }
            }
            out_rules.push(Rule::new(
                Atom::new(adorned_pred(&pred, &adornment), rule.head.args.clone()),
                new_body,
            ));
        }
    }

    let seed_args: Vec<Term> = query
        .args
        .iter()
        .filter(|t| matches!(t, Term::Const(_)))
        .cloned()
        .collect();
    Ok(MagicProgram {
        program: Program { rules: out_rules },
        seed: Atom::new(magic_pred(&query.pred, &query_adornment), seed_args),
        answer_pred: adorned_pred(&query.pred, &query_adornment),
    })
}

/// Evaluates `query` against `program` + `edb` via magic sets; returns
/// the matching tuples (full argument lists), sorted.
pub fn magic_evaluate(
    program: &Program,
    edb: &Database,
    query: &Atom,
) -> DatalogResult<Vec<Vec<datalog::ast::Value>>> {
    magic_evaluate_stats(program, edb, query).map(|(answers, _)| answers)
}

/// Like [`magic_evaluate`], also returning the bottom-up engine's
/// [`EvalStats`](seminaive::EvalStats) for the transformed program.
/// The answer relation is filtered with an indexed point probe on the
/// query's bound positions rather than a scan.
pub fn magic_evaluate_stats(
    program: &Program,
    edb: &Database,
    query: &Atom,
) -> DatalogResult<(Vec<Vec<datalog::ast::Value>>, seminaive::EvalStats)> {
    let magic = magic_transform(program, query)?;
    let mut db = edb.clone();
    db.insert_atom(&magic.seed)?;
    let (model, stats) = seminaive::evaluate(&magic.program, &db)?;
    let pattern: Vec<Option<datalog::ast::Value>> = query
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(_) => None,
        })
        .collect();
    let mut out = model.probe(&magic.answer_pred, &pattern);
    out.sort();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::ast::Value;

    fn chain(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        db
    }

    const TC: &str = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";

    #[test]
    fn bound_free_query_matches_direct_eval() {
        let p = Program::parse(TC).unwrap();
        let db = chain(10);
        let q = Atom::new("path", vec![Term::int(7), Term::var("Y")]);
        let magic = magic_evaluate(&p, &db, &q).unwrap();
        let direct: Vec<Vec<Value>> = seminaive::evaluate_pred(&p, &db, "path")
            .unwrap()
            .into_iter()
            .filter(|t| t[0] == Value::Int(7))
            .collect();
        assert_eq!(magic, direct);
        assert_eq!(magic.len(), 3); // 7→8, 7→9, 7→10
    }

    #[test]
    fn magic_derives_fewer_facts() {
        let p = Program::parse(TC).unwrap();
        let db = chain(50);
        let q = Atom::new("path", vec![Term::int(45), Term::var("Y")]);
        let magic = magic_transform(&p, &q).unwrap();
        let mut seeded = db.clone();
        seeded.insert_atom(&magic.seed).unwrap();
        let (magic_model, _) = seminaive::evaluate(&magic.program, &seeded).unwrap();
        let (full_model, _) = seminaive::evaluate(&p, &db).unwrap();
        let magic_paths = magic_model.count(&magic.answer_pred);
        let full_paths = full_model.count("path");
        assert!(
            magic_paths * 10 < full_paths,
            "magic {magic_paths} vs full {full_paths}"
        );
    }

    #[test]
    fn fully_bound_query() {
        let p = Program::parse(TC).unwrap();
        let db = chain(10);
        let yes = Atom::new("path", vec![Term::int(2), Term::int(9)]);
        let no = Atom::new("path", vec![Term::int(9), Term::int(2)]);
        assert_eq!(magic_evaluate(&p, &db, &yes).unwrap().len(), 1);
        assert_eq!(magic_evaluate(&p, &db, &no).unwrap().len(), 0);
    }

    #[test]
    fn fully_free_query_degrades_to_full_eval() {
        let p = Program::parse(TC).unwrap();
        let db = chain(6);
        let q = Atom::new("path", vec![Term::var("X"), Term::var("Y")]);
        let magic = magic_evaluate(&p, &db, &q).unwrap();
        let direct = seminaive::evaluate_pred(&p, &db, "path").unwrap();
        assert_eq!(magic, direct);
    }

    #[test]
    fn negation_rejected() {
        let p = Program::parse("q(X) :- node(X), not bad(X).").unwrap();
        let q = Atom::new("q", vec![Term::var("X")]);
        assert!(magic_transform(&p, &q).is_err());
    }

    #[test]
    fn same_generation_bound_query() {
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
        let q = Atom::new("sg", vec![Term::sym("ann"), Term::var("Y")]);
        let answers = magic_evaluate(&p, &db, &q).unwrap();
        let ys: Vec<String> = answers.iter().map(|t| t[1].to_string()).collect();
        assert!(ys.contains(&"ann".to_string()));
        assert!(ys.contains(&"bob".to_string()));
        assert!(!ys.contains(&"cal".to_string()));
    }
}
