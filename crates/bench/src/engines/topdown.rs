//! Goal-directed SLD resolution with tabling (lemma generation).
//!
//! §3.1: "The inference engines may enhance their performance by lemma
//! generation; this capability is, e.g., used in creating dependency
//! graph objects of the GKBMS." Here lemmas are *tables*: answers to a
//! canonicalized subgoal are stored and reused, which (a) avoids
//! re-derivation and (b) guarantees termination on recursive rules,
//! where plain SLD resolution would loop.
//!
//! Tabling can be switched off ([`TopDown::without_tabling`]) for the
//! E-2 ablation bench; in that mode evaluation is depth-bounded to keep
//! left-recursive programs from diverging.

use datalog::ast::{Atom, Literal, Program, Rule, Term, Value};
use datalog::db::Database;
use datalog::error::{DatalogError, DatalogResult};
use std::collections::{HashMap, HashSet};

type Env = HashMap<String, Value>;

/// Canonical key of a subgoal: predicate plus bound-argument pattern.
/// `path(a, X)` and `path(a, Y)` share a key; `path(b, X)` does not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CallKey {
    pred: String,
    bound: Vec<Option<Value>>,
}

/// The top-down engine.
pub struct TopDown<'a> {
    program: &'a Program,
    edb: &'a Database,
    rules_by_pred: HashMap<&'a str, Vec<&'a Rule>>,
    tabling: bool,
    /// Answer tables (lemmas): full argument tuples per call key.
    tables: HashMap<CallKey, HashSet<Vec<Value>>>,
    complete: HashSet<CallKey>,
    active: HashSet<CallKey>,
    /// Call stack of active keys, innermost last (for SCC detection).
    active_stack: Vec<CallKey>,
    /// Keys observed to participate in recursion (re-entered, or on the
    /// stack above a re-entered key).
    scc_pending: HashSet<CallKey>,
    /// Recursion-involved keys finished but not yet promotable;
    /// promoted to `complete` en bloc at the SCC leader.
    touched: HashSet<CallKey>,
    /// Depth bound used only when tabling is off.
    depth_limit: usize,
    /// Statistics: subgoal invocations.
    pub calls: u64,
    /// Statistics: answers served from tables.
    pub lemma_hits: u64,
    /// Statistics: EDB index probes issued (one per subgoal reaching
    /// the extensional database).
    pub index_probes: u64,
    fresh: u64,
}

impl<'a> TopDown<'a> {
    /// A tabling engine over `program` and `edb`.
    pub fn new(program: &'a Program, edb: &'a Database) -> Self {
        let mut rules_by_pred: HashMap<&str, Vec<&Rule>> = HashMap::new();
        for r in &program.rules {
            rules_by_pred
                .entry(r.head.pred.as_str())
                .or_default()
                .push(r);
        }
        TopDown {
            program,
            edb,
            rules_by_pred,
            tabling: true,
            tables: HashMap::new(),
            complete: HashSet::new(),
            active: HashSet::new(),
            active_stack: Vec::new(),
            scc_pending: HashSet::new(),
            touched: HashSet::new(),
            depth_limit: 64,
            calls: 0,
            lemma_hits: 0,
            index_probes: 0,
            fresh: 0,
        }
    }

    /// Disables tabling (plain depth-bounded SLD) for ablation.
    pub fn without_tabling(mut self, depth_limit: usize) -> Self {
        self.tabling = false;
        self.depth_limit = depth_limit;
        self
    }

    /// Number of tabled lemmas.
    pub fn lemma_count(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    fn key_of(goal: &Atom, env: &Env) -> CallKey {
        CallKey {
            pred: goal.pred.clone(),
            bound: goal
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => Some(v.clone()),
                    Term::Var(v) => env.get(v).cloned(),
                })
                .collect(),
        }
    }

    /// All answers to `goal` under `env`: returns extended
    /// environments, one per solution.
    pub fn query(&mut self, goal: &Atom) -> DatalogResult<Vec<Env>> {
        self.program.validate()?;
        datalog::stratify::stratify(self.program)?;
        self.solve(goal, &Env::new(), 0)
    }

    /// Ground query: does `goal` (fully bound) hold?
    pub fn holds(&mut self, goal: &Atom) -> DatalogResult<bool> {
        Ok(!self.query(goal)?.is_empty())
    }

    fn solve(&mut self, goal: &Atom, env: &Env, depth: usize) -> DatalogResult<Vec<Env>> {
        self.calls += 1;
        let mut out = Vec::new();

        // EDB tuples first, via a binding-pattern index probe: argument
        // positions that are constants (or goal variables already bound
        // in `env`) key the relation's secondary index, so only the
        // matching tuples are unified.
        let pattern: Vec<Option<Value>> = goal
            .args
            .iter()
            .map(|t| match t {
                Term::Const(v) => Some(v.clone()),
                Term::Var(v) => env.get(v).cloned(),
            })
            .collect();
        self.index_probes += 1;
        for tuple in self.edb.probe(&goal.pred, &pattern) {
            if let Some(env2) = unify_tuple(&goal.args, &tuple, env) {
                out.push(env2);
            }
        }
        if !self.rules_by_pred.contains_key(goal.pred.as_str()) {
            return Ok(out);
        }

        if !self.tabling {
            if depth >= self.depth_limit {
                return Ok(out);
            }
            let rules = self.rules_by_pred[goal.pred.as_str()].clone();
            for rule in rules {
                let (head, body) = self.rename(rule);
                if let Some(env2) = unify_atoms(&head, goal, env) {
                    self.solve_body(&body, 0, &env2, depth + 1, &mut |e| {
                        out.push(project(goal, e, env));
                    })?;
                }
            }
            return Ok(out);
        }

        // Tabled evaluation: compute (or reuse) the answer table for the
        // canonicalized call, then unify each answer tuple with the goal.
        let key = Self::key_of(goal, env);
        if self.complete.contains(&key) {
            self.lemma_hits += 1;
            obs::counter!(
                "datalog_lemma_hits_total",
                "Subgoals answered from a completed lemma table"
            )
            .inc();
        } else if let Some(at) = self.active_stack.iter().position(|k| *k == key) {
            // Recursive re-entry: serve current (partial) answers; the
            // enclosing fixpoint loop will pick up growth. Every key
            // from the re-entered one up the stack belongs to a
            // potential SCC and may only complete at the SCC leader.
            for k in self.active_stack[at..].iter() {
                self.scc_pending.insert(k.clone());
            }
        } else {
            self.active.insert(key.clone());
            self.active_stack.push(key.clone());
            loop {
                // Global quiescence: iterate until *no* table grew in a
                // full pass, so the en-bloc promotion at the SCC leader
                // is sound even for mutual recursion across keys.
                let before: usize = self.tables.values().map(|t| t.len()).sum();
                let rules = self.rules_by_pred[goal.pred.as_str()].clone();
                for rule in rules {
                    let (head, body) = self.rename(rule);
                    if let Some(env2) = unify_atoms(&head, goal, env) {
                        let mut answers: Vec<Vec<Value>> = Vec::new();
                        self.solve_body(&body, 0, &env2, depth + 1, &mut |e| {
                            if let Some(t) = ground_atom(&head, e) {
                                answers.push(t);
                            }
                        })?;
                        let table = self.tables.entry(key.clone()).or_default();
                        let mut tabled = 0u64;
                        for t in answers {
                            if table.insert(t) {
                                tabled += 1;
                            }
                        }
                        obs::counter!(
                            "datalog_lemmas_tabled_total",
                            "Answer tuples added to lemma tables"
                        )
                        .add(tabled);
                    }
                }
                let after: usize = self.tables.values().map(|t| t.len()).sum();
                if after == before {
                    break;
                }
            }
            self.active_stack.pop();
            self.active.remove(&key);
            if !self.scc_pending.contains(&key) {
                // Never re-entered: the table is already a final lemma.
                self.complete.insert(key.clone());
            } else {
                self.touched.insert(key.clone());
                if self.active.is_empty() {
                    // SCC leader finished: the global fixpoint over the
                    // pending keys has been reached, so their tables
                    // are final lemmas too.
                    self.complete.extend(self.touched.drain());
                    self.scc_pending.clear();
                }
            }
        }
        if let Some(table) = self.tables.get(&key) {
            for tuple in table.clone() {
                if let Some(env2) = unify_tuple(&goal.args, &tuple, env) {
                    out.push(env2);
                }
            }
        }
        // Dedup environments (EDB facts may coincide with derived ones).
        dedup_envs(&mut out);
        Ok(out)
    }

    fn solve_body(
        &mut self,
        body: &[Literal],
        pos: usize,
        env: &Env,
        depth: usize,
        emit: &mut dyn FnMut(&Env),
    ) -> DatalogResult<()> {
        if pos == body.len() {
            emit(env);
            return Ok(());
        }
        let lit = &body[pos];
        if lit.negated {
            match ground_atom(&lit.atom, env) {
                None => return Err(DatalogError::NonGroundNegation(lit.atom.to_string())),
                Some(tuple) => {
                    let ground = Atom::new(
                        lit.atom.pred.clone(),
                        tuple.into_iter().map(Term::Const).collect(),
                    );
                    let holds = !self.solve(&ground, &Env::new(), depth)?.is_empty();
                    if !holds {
                        self.solve_body(body, pos + 1, env, depth, emit)?;
                    }
                    return Ok(());
                }
            }
        }
        let solutions = self.solve(&lit.atom, env, depth)?;
        for env2 in solutions {
            self.solve_body(body, pos + 1, &env2, depth, emit)?;
        }
        Ok(())
    }

    /// Renames rule variables apart with a fresh suffix.
    fn rename(&mut self, rule: &Rule) -> (Atom, Vec<Literal>) {
        self.fresh += 1;
        let suffix = format!("#{}", self.fresh);
        let fix = |t: &Term| match t {
            Term::Var(v) => Term::Var(format!("{v}{suffix}")),
            c => c.clone(),
        };
        let head = Atom::new(
            rule.head.pred.clone(),
            rule.head.args.iter().map(fix).collect(),
        );
        let body = rule
            .body
            .iter()
            .map(|l| Literal {
                atom: Atom::new(l.atom.pred.clone(), l.atom.args.iter().map(fix).collect()),
                negated: l.negated,
            })
            .collect();
        (head, body)
    }
}

fn unify_tuple(args: &[Term], tuple: &[Value], env: &Env) -> Option<Env> {
    if args.len() != tuple.len() {
        return None;
    }
    let mut env = env.clone();
    for (t, v) in args.iter().zip(tuple) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(name) => match env.get(name) {
                Some(b) if b != v => return None,
                Some(_) => {}
                None => {
                    env.insert(name.clone(), v.clone());
                }
            },
        }
    }
    Some(env)
}

/// Unifies a renamed head with a goal atom under `env` (goal vars may
/// be bound in env; head vars are fresh).
fn unify_atoms(head: &Atom, goal: &Atom, env: &Env) -> Option<Env> {
    if head.pred != goal.pred || head.args.len() != goal.args.len() {
        return None;
    }
    let mut env = env.clone();
    for (h, g) in head.args.iter().zip(&goal.args) {
        let gval = match g {
            Term::Const(v) => Some(v.clone()),
            Term::Var(v) => env.get(v).cloned(),
        };
        match (h, gval) {
            (Term::Const(hv), Some(gv)) => {
                if *hv != gv {
                    return None;
                }
            }
            (Term::Const(hv), None) => {
                if let Term::Var(gv) = g {
                    env.insert(gv.clone(), hv.clone());
                }
            }
            (Term::Var(hv), Some(gv)) => match env.get(hv) {
                Some(b) if *b != gv => return None,
                Some(_) => {}
                None => {
                    env.insert(hv.clone(), gv);
                }
            },
            (Term::Var(_), None) => {
                // Both free: answers are projected from ground heads, so
                // leaving this unlinked is sound for datalog (no function
                // symbols; every successful body grounds the head).
            }
        }
    }
    Some(env)
}

fn ground_atom(atom: &Atom, env: &Env) -> Option<Vec<Value>> {
    atom.args
        .iter()
        .map(|t| match t {
            Term::Const(v) => Some(v.clone()),
            Term::Var(v) => env.get(v).cloned(),
        })
        .collect()
}

/// Projects the solved (renamed) environment back onto the goal's
/// variables.
fn project(goal: &Atom, solved: &Env, base: &Env) -> Env {
    let mut out = base.clone();
    for t in &goal.args {
        if let Term::Var(v) = t {
            if let Some(val) = solved.get(v) {
                out.insert(v.clone(), val.clone());
            }
        }
    }
    out
}

fn dedup_envs(envs: &mut Vec<Env>) {
    let mut seen: HashSet<Vec<(String, Value)>> = HashSet::new();
    envs.retain(|e| {
        let mut key: Vec<(String, Value)> = e.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        key.sort();
        seen.insert(key)
    });
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

    const TC_RIGHT: &str = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";
    const TC_LEFT: &str = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).";

    #[test]
    fn ground_queries() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c")]);
        let mut td = TopDown::new(&p, &db);
        assert!(td
            .holds(&Atom::new("path", vec![Term::sym("a"), Term::sym("c")]))
            .unwrap());
        assert!(!td
            .holds(&Atom::new("path", vec![Term::sym("c"), Term::sym("a")]))
            .unwrap());
    }

    #[test]
    fn open_queries_enumerate_answers() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c"), ("b", "d")]);
        let mut td = TopDown::new(&p, &db);
        let answers = td
            .query(&Atom::new("path", vec![Term::sym("a"), Term::var("X")]))
            .unwrap();
        let mut xs: Vec<String> = answers.iter().map(|e| e["X"].to_string()).collect();
        xs.sort();
        assert_eq!(xs, vec!["b", "c", "d"]);
    }

    #[test]
    fn left_recursion_terminates_with_tabling() {
        let p = Program::parse(TC_LEFT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c"), ("c", "a")]); // cycle
        let mut td = TopDown::new(&p, &db);
        let answers = td
            .query(&Atom::new("path", vec![Term::sym("a"), Term::var("X")]))
            .unwrap();
        assert_eq!(answers.len(), 3, "a reaches a, b, c");
    }

    #[test]
    fn fully_open_query() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c")]);
        let mut td = TopDown::new(&p, &db);
        let answers = td
            .query(&Atom::new("path", vec![Term::var("X"), Term::var("Y")]))
            .unwrap();
        assert_eq!(answers.len(), 3); // ab bc ac
    }

    #[test]
    fn agrees_with_bottom_up() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]);
        let bottom = datalog::seminaive::evaluate_pred(&p, &db, "path").unwrap();
        let mut td = TopDown::new(&p, &db);
        let mut top: Vec<Vec<Value>> = td
            .query(&Atom::new("path", vec![Term::var("X"), Term::var("Y")]))
            .unwrap()
            .into_iter()
            .map(|e| vec![e["X"].clone(), e["Y"].clone()])
            .collect();
        top.sort();
        top.dedup();
        assert_eq!(top, bottom);
    }

    #[test]
    fn negation_on_ground_subgoals() {
        let p = Program::parse(
            "reach(X) :- source(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut db = edges(&[("a", "b")]);
        for n in ["a", "b", "c"] {
            db.insert("node", vec![Value::sym(n)]).unwrap();
        }
        db.insert("source", vec![Value::sym("a")]).unwrap();
        let mut td = TopDown::new(&p, &db);
        let answers = td
            .query(&Atom::new("unreached", vec![Term::var("X")]))
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0]["X"], Value::sym("c"));
    }

    #[test]
    fn lemmas_are_reused_across_queries() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let mut db = Database::new();
        for i in 0..30 {
            db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        let mut td = TopDown::new(&p, &db);
        let g = Atom::new("path", vec![Term::int(0), Term::var("X")]);
        td.query(&g).unwrap();
        let calls_first = td.calls;
        td.query(&g).unwrap();
        let calls_second = td.calls - calls_first;
        assert!(
            calls_second * 4 < calls_first,
            "second query should be served from the table: {calls_first} vs {calls_second}"
        );
        assert!(td.lemma_hits > 0);
        assert!(td.lemma_count() > 0);
    }

    #[test]
    fn lemma_hits_and_count_agree() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let mut db = Database::new();
        for i in 0..20 {
            db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        let mut td = TopDown::new(&p, &db);
        let g = Atom::new("path", vec![Term::int(0), Term::var("X")]);
        let first = td.query(&g).unwrap();
        let lemmas_after_first = td.lemma_count();
        assert!(lemmas_after_first >= first.len(), "answers are tabled");
        assert!(td.index_probes > 0, "EDB subgoals go through index probes");
        // Re-asking the same goal must be answered from the tables:
        // lemma_hits grows, the lemma store does not.
        let hits_before = td.lemma_hits;
        let second = td.query(&g).unwrap();
        assert_eq!(first.len(), second.len());
        assert!(td.lemma_hits > hits_before);
        assert_eq!(td.lemma_count(), lemmas_after_first);
    }

    #[test]
    fn without_tabling_terminates_on_dag() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c")]);
        let mut td = TopDown::new(&p, &db).without_tabling(32);
        assert!(td
            .holds(&Atom::new("path", vec![Term::sym("a"), Term::sym("c")]))
            .unwrap());
    }

    #[test]
    fn bound_second_argument() {
        let p = Program::parse(TC_RIGHT).unwrap();
        let db = edges(&[("a", "b"), ("b", "c"), ("x", "c")]);
        let mut td = TopDown::new(&p, &db);
        let answers = td
            .query(&Atom::new("path", vec![Term::var("X"), Term::sym("c")]))
            .unwrap();
        let mut xs: Vec<String> = answers.iter().map(|e| e["X"].to_string()).collect();
        xs.sort();
        assert_eq!(xs, vec!["a", "b", "x"]);
    }

    #[test]
    fn unstratifiable_rejected() {
        let p = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        let db = Database::new();
        let mut td = TopDown::new(&p, &db);
        assert!(td.query(&Atom::new("win", vec![Term::var("X")])).is_err());
    }
}
