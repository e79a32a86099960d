//! The join kernel: compiled rules and the one indexed join every
//! bottom-up path evaluates through.
//!
//! A rule is compiled once ([`compile`]): variables become numbered
//! slots and constants are interned. A [`Join`] then pairs the compiled
//! rule with one [`Source`] per body position — *where* that literal
//! reads from — and enumerates the rule's instantiations. The callers
//! differ only in the sources they supply:
//!
//! * [`crate::seminaive::evaluate`] reads the model so far, with one
//!   position per rule version restricted to the previous round's
//!   delta;
//! * [`crate::ivm`] reads overlays of the maintained model and the
//!   pending insert/delete sets (old state, new state, old ∩ new), with
//!   one position restricted to a change set.
//!
//! # Join order and binding patterns
//!
//! The positive delta literal (if any) runs first, so a join is driven
//! by the change rather than by a scan of the full state; then the
//! remaining positive literals in rule order; then the negations, which
//! rule safety makes ground by that point. The result of a join does
//! not depend on literal order.
//!
//! The binding pattern of a literal — which argument positions are
//! ground when the join reaches it — is read off the run-time
//! environment, because the order above (and an environment pre-seeded
//! from a head tuple) is not the rule's textual order. Positions below
//! [`MASK_WIDTH`] form the `u32` mask and probe key of the secondary
//! index ([`crate::db`]); bound positions beyond that are checked row by
//! row. [`join_order`] and [`mask_bit`] are shared with the cost
//! estimator's plan ([`crate::seminaive::plan_masks`]).
//! A fully ground literal is a membership test, so no full-mask index
//! is ever built (the maintained model would have to update it on every
//! insert and remove).

use crate::ast::{Rule, Term};
use crate::db::Database;
use crate::error::{DatalogError, DatalogResult};
use crate::intern::{intern, IVal, Symbol};
use crate::seminaive::EvalStats;
use std::collections::HashMap;

/// Index masks key on argument positions below this width (a `u32`):
/// a join checks bound positions past it row by row, and
/// `Database::probe_rows` scans a relation wider than it.
pub(crate) const MASK_WIDTH: usize = 32;

/// The mask bit of argument position `j`; none at or past
/// [`MASK_WIDTH`].
#[inline]
pub(crate) fn mask_bit(j: usize) -> u32 {
    if j < MASK_WIDTH {
        1 << j
    } else {
        0
    }
}

/// The evaluation order of a body of `n` literals: the positive
/// literals that `drives` first, then the other positive literals in
/// rule order, then the negations.
pub(crate) fn join_order(
    n: usize,
    negated: impl Fn(usize) -> bool,
    drives: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).filter(|&i| !negated(i) && drives(i)).collect();
    order.extend((0..n).filter(|&i| !negated(i) && !drives(i)));
    order.extend((0..n).filter(|&i| negated(i)));
    order
}

/// A compiled argument: interned constant or variable slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArgSpec {
    Const(IVal),
    Var(u16),
}

impl ArgSpec {
    fn value(self, env: &[Option<IVal>]) -> Option<IVal> {
        match self {
            ArgSpec::Const(c) => Some(c),
            ArgSpec::Var(s) => env[s as usize],
        }
    }
}

/// A compiled body literal.
#[derive(Debug, Clone)]
pub(crate) struct CLit {
    pub(crate) pred: Symbol,
    pub(crate) negated: bool,
    pub(crate) args: Vec<ArgSpec>,
}

/// A compiled rule: body literals in source order, variables renamed
/// to slots.
#[derive(Debug, Clone)]
pub(crate) struct CRule {
    pub(crate) head_pred: Symbol,
    pub(crate) head: Vec<ArgSpec>,
    pub(crate) lits: Vec<CLit>,
    pub(crate) nslots: usize,
}

impl CRule {
    /// An environment with every slot unbound.
    pub(crate) fn fresh_env(&self) -> Vec<Option<IVal>> {
        vec![None; self.nslots]
    }

    /// An environment with the head unified against `row`, from which
    /// a body join rederives that tuple; `None` when a head constant
    /// or repeated variable does not match.
    pub(crate) fn env_for_head(&self, row: &[IVal]) -> Option<Vec<Option<IVal>>> {
        let mut env = self.fresh_env();
        match_row(&self.head, row, &mut env, &mut Vec::new()).then_some(env)
    }
}

/// Compiles `rule` to slot form. Rule text arrives over the wire, so a
/// rule with more variables than a slot number can name is an error,
/// not a panic.
pub(crate) fn compile(rule: &Rule) -> DatalogResult<CRule> {
    let mut slots: HashMap<&str, u16> = HashMap::new();
    let mut lits = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        let mut args = Vec::with_capacity(lit.atom.args.len());
        for t in &lit.atom.args {
            args.push(match t {
                Term::Const(v) => ArgSpec::Const(IVal::from_value(v)),
                Term::Var(name) => match slots.get(name.as_str()) {
                    Some(&s) => ArgSpec::Var(s),
                    None => {
                        let s = u16::try_from(slots.len()).map_err(|_| {
                            DatalogError::Parse(format!(
                                "rule for `{}` has more than {} distinct variables",
                                rule.head.pred,
                                usize::from(u16::MAX) + 1
                            ))
                        })?;
                        slots.insert(name, s);
                        ArgSpec::Var(s)
                    }
                },
            });
        }
        lits.push(CLit {
            pred: intern(&lit.atom.pred),
            negated: lit.negated,
            args,
        });
    }
    let head = rule
        .head
        .args
        .iter()
        .map(|t| match t {
            Term::Const(v) => Ok(ArgSpec::Const(IVal::from_value(v))),
            Term::Var(name) => slots
                .get(name.as_str())
                .map(|&s| ArgSpec::Var(s))
                .ok_or_else(|| {
                    DatalogError::UnsafeRule(format!("unbound head variable in `{rule}`"))
                }),
        })
        .collect::<DatalogResult<Vec<_>>>()?;
    Ok(CRule {
        head_pred: intern(&rule.head.pred),
        head,
        lits,
        nslots: slots.len(),
    })
}

/// Where one body position reads from.
///
/// The literal's polarity decides how the source is read: a positive
/// literal iterates the matching tuples of its source, a negated one is
/// a ground test against it.
#[derive(Debug, Clone)]
pub(crate) enum Source<'a> {
    /// `State(parts, minus)`: the state `(∪ parts) \ (∪ minus)`. The
    /// parts must be pairwise disjoint, so no tuple is visited twice
    /// and the kernel's counters report each candidate once. A negated
    /// literal holds when its tuple is *absent* from the state.
    State(Vec<&'a Database>, Vec<&'a Database>),
    /// The delta role: a positive literal is restricted to this change
    /// set and drives the join; a negated literal holds when its tuple
    /// is *in* the set (the tuples whose absence flipped).
    Delta(&'a Database),
}

/// One rule paired with its per-position sources, ready to run.
pub(crate) struct Join<'a> {
    rule: &'a CRule,
    sources: Vec<Source<'a>>,
    /// Body positions in evaluation order.
    order: Vec<usize>,
}

impl<'a> Join<'a> {
    /// Plans the join of `rule` with `sources[i]` feeding `rule.lits[i]`.
    pub(crate) fn new(rule: &'a CRule, sources: Vec<Source<'a>>) -> Self {
        debug_assert_eq!(sources.len(), rule.lits.len());
        let order = join_order(
            rule.lits.len(),
            |i| rule.lits[i].negated,
            |i| matches!(sources[i], Source::Delta(_)),
        );
        Join {
            rule,
            sources,
            order,
        }
    }

    /// Enumerates every instantiation of the body that extends `env`
    /// (all-unbound, or pre-seeded from a head tuple), handing each
    /// head row — duplicates included — to `emit`. The row is borrowed
    /// from one buffer the run reuses, so a derivation allocates
    /// nothing; `emit` copies what it keeps. Probes, candidate tuples
    /// and instantiations are counted into `stats`; on success `env` is
    /// left as it was found.
    pub(crate) fn run(
        &self,
        env: &mut [Option<IVal>],
        stats: &mut EvalStats,
        emit: &mut dyn FnMut(&[IVal]) -> DatalogResult<()>,
    ) -> DatalogResult<()> {
        let mut run = Run {
            env,
            trail: Vec::new(),
            head: Vec::with_capacity(self.rule.head.len()),
            stats,
            emit,
        };
        self.step(0, &mut run)
    }

    /// Extends the environment through `order[pos..]`.
    fn step(&self, pos: usize, run: &mut Run) -> DatalogResult<()> {
        let Some(&at) = self.order.get(pos) else {
            run.stats.derivations += 1;
            run.head.clear();
            run.head.extend(
                self.rule
                    .head
                    .iter()
                    .map(|a| a.value(run.env).expect("safety: head var bound")),
            );
            return (run.emit)(&run.head);
        };
        let lit = &self.rule.lits[at];
        let (parts, minus): (&[&Database], &[&Database]) = match &self.sources[at] {
            Source::State(parts, minus) => (parts, minus),
            Source::Delta(d) => (std::slice::from_ref(d), &[]),
        };
        let in_source = |row: &[IVal]| {
            parts.iter().any(|d| d.contains_ivals(lit.pred, row))
                && !minus.iter().any(|d| d.contains_ivals(lit.pred, row))
        };

        // The binding pattern under the current env: `bound` collects
        // the ground argument values in position order, `mask` flags
        // those at positions the index can key on.
        let mut mask: u32 = 0;
        let mut bound = Vec::with_capacity(lit.args.len());
        for (j, a) in lit.args.iter().enumerate() {
            if let Some(v) = a.value(run.env) {
                mask |= mask_bit(j);
                bound.push(v);
            }
        }
        let ground = bound.len() == lit.args.len();

        if lit.negated {
            if !ground {
                return Err(DatalogError::NonGroundNegation(
                    lit.pred.as_str().to_string(),
                ));
            }
            let holds = match self.sources[at] {
                Source::State(..) => !in_source(&bound),
                Source::Delta(_) => in_source(&bound),
            };
            if holds {
                self.step(pos + 1, run)?;
            }
            return Ok(());
        }
        if ground {
            run.stats.index_probes += 1;
            if in_source(&bound) {
                run.stats.tuples_scanned += 1;
                self.step(pos + 1, run)?;
            }
            return Ok(());
        }
        // The probe key is the bound values at `mask`'s positions:
        // a prefix of `bound`, all of it unless the literal is wider
        // than the mask.
        bound.truncate(mask.count_ones() as usize);
        for part in parts {
            let Some(rel) = part.rel(lit.pred) else {
                continue;
            };
            if rel.arity != lit.args.len() {
                continue;
            }
            if mask != 0 {
                run.stats.index_probes += 1;
                if let Some(ids) = rel.index_for(mask).get(&bound) {
                    run.stats.tuples_scanned += ids.len();
                    for &id in ids {
                        self.candidate(pos, rel.row(id), minus, run)?;
                    }
                }
            } else {
                run.stats.tuples_scanned += rel.len();
                for row in rel.rows() {
                    self.candidate(pos, row, minus, run)?;
                }
            }
        }
        Ok(())
    }

    /// Tries one candidate `row` for the literal at `order[pos]`: skips
    /// it when `minus` subtracts it, otherwise unifies, recurses and
    /// unwinds.
    fn candidate(
        &self,
        pos: usize,
        row: &[IVal],
        minus: &[&Database],
        run: &mut Run,
    ) -> DatalogResult<()> {
        let lit = &self.rule.lits[self.order[pos]];
        if minus.iter().any(|d| d.contains_ivals(lit.pred, row)) {
            return Ok(());
        }
        let mark = run.trail.len();
        if match_row(&lit.args, row, run.env, &mut run.trail) {
            self.step(pos + 1, run)?;
        }
        unwind(run.env, &mut run.trail, mark);
        Ok(())
    }
}

/// The mutable side of one [`Join::run`]: the environment, the trail
/// of slots bound since the run began (so each candidate row can be
/// unwound), the buffer head rows are built in, the counters and the
/// sink for head rows.
struct Run<'r> {
    env: &'r mut [Option<IVal>],
    trail: Vec<u16>,
    head: Vec<IVal>,
    stats: &'r mut EvalStats,
    emit: &'r mut dyn FnMut(&[IVal]) -> DatalogResult<()>,
}

/// Matches `row` against `args`, binding fresh slots (recorded on
/// `trail`). On mismatch the caller unwinds to its mark.
fn match_row(
    args: &[ArgSpec],
    row: &[IVal],
    env: &mut [Option<IVal>],
    trail: &mut Vec<u16>,
) -> bool {
    for (a, &v) in args.iter().zip(row) {
        match a {
            ArgSpec::Const(c) => {
                if *c != v {
                    return false;
                }
            }
            ArgSpec::Var(s) => match env[*s as usize] {
                Some(b) => {
                    if b != v {
                        return false;
                    }
                }
                None => {
                    env[*s as usize] = Some(v);
                    trail.push(*s);
                }
            },
        }
    }
    true
}

fn unwind(env: &mut [Option<IVal>], trail: &mut Vec<u16>, mark: usize) {
    for &s in &trail[mark..] {
        env[s as usize] = None;
    }
    trail.truncate(mark);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Program, Value};
    use crate::ivm::MaterializedView;
    use crate::seminaive::evaluate;

    fn rule(src: &str) -> CRule {
        compile(&Program::parse(src).unwrap().rules[0]).unwrap()
    }

    fn edges(pairs: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in pairs {
            db.insert("e", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        db
    }

    fn state(db: &Database) -> Source<'_> {
        Source::State(vec![db], vec![])
    }

    fn rows(join: &Join, env: &mut [Option<IVal>]) -> (Vec<Vec<Value>>, EvalStats) {
        let mut stats = EvalStats::default();
        let mut out = Vec::new();
        join.run(env, &mut stats, &mut |row| {
            out.push(row.iter().map(|v| v.to_value()).collect());
            Ok(())
        })
        .unwrap();
        out.sort();
        (out, stats)
    }

    #[test]
    fn slot_overflow_is_an_error_not_a_panic() {
        // 2^16 distinct variables still fit u16 slot numbers; one
        // more does not. Built as AST: a frame-sized rule text can carry this,
        // but parsing it is too slow for a unit test.
        let wide = |n: usize| {
            let vars: Vec<Term> = (0..n).map(|i| Term::var(format!("V{i}"))).collect();
            Rule::new(
                Atom::new("p", vec![vars[0].clone()]),
                vec![Literal {
                    atom: Atom::new("wide", vars),
                    negated: false,
                }],
            )
        };
        let slots = usize::from(u16::MAX) + 1;
        assert_eq!(compile(&wide(slots)).unwrap().nslots, slots);
        let over = wide(slots + 1);
        assert!(matches!(compile(&over), Err(DatalogError::Parse(_))));
        let program = Program { rules: vec![over] };
        assert!(MaterializedView::new(program.clone()).is_err());
        assert!(evaluate(&program, &Database::new()).is_err());
    }

    #[test]
    fn plan_masks_reports_the_join_order() {
        // Constants, a repeated variable, negations written before
        // positive literals, and a literal wider than the mask whose
        // last position (a constant) lies past it.
        let wide: Vec<String> = (0..=MASK_WIDTH).map(|j| format!("W{j}")).collect();
        let wide_rule = format!(
            "p(W0) :- not f(W0), e(W0, W1), wide({}, c), g(W0, W{MASK_WIDTH}).",
            wide.join(", ")
        );
        let sources = [
            "p(X) :- e(X, a), not f(X), g(X, X), not h(X, b), k(b, X).",
            "p(X) :- not f(X), e(X, Y), e(Y, Y).",
            wide_rule.as_str(),
        ];
        let db = Database::new();
        for src in sources {
            let ast = &Program::parse(src).unwrap().rules[0];
            let r = compile(ast).unwrap();
            let join = Join::new(&r, vec![state(&db); r.lits.len()]);
            let planned = crate::seminaive::plan_masks(ast);
            let order: Vec<usize> = planned.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, join.order, "{src}");
        }
        // W0 and W1 are bound when `wide` runs; its constant at
        // position MASK_WIDTH + 1 is not masked.
        let planned = crate::seminaive::plan_masks(&Program::parse(&wide_rule).unwrap().rules[0]);
        assert_eq!(planned[1], (2, 0b11));
    }

    #[test]
    fn delta_literal_drives_the_join() {
        // Rule order would scan all of `e` and probe `d` per row; the
        // kernel starts from the one-tuple delta and probes `e` once.
        let r = rule("p(X, Z) :- e(X, Y), d(Y, Z).");
        let e = edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut d = Database::new();
        d.insert("d", vec![Value::Int(3), Value::Int(9)]).unwrap();
        let join = Join::new(&r, vec![state(&e), Source::Delta(&d)]);
        let (out, stats) = rows(&join, &mut r.fresh_env());
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(9)]]);
        assert_eq!(
            (stats.index_probes, stats.tuples_scanned, stats.derivations),
            (1, 2, 1),
            "scan the delta (1 tuple), probe e on Y (1 hit)"
        );
    }

    #[test]
    fn fully_bound_literal_is_a_membership_test_without_an_index() {
        let r = rule("p(X, Y) :- e(X, Y).");
        let e = edges(&[(1, 2), (2, 3)]);
        let join = Join::new(&r, vec![state(&e)]);
        let mut env = r.env_for_head(&[IVal::Int(2), IVal::Int(3)]).unwrap();
        let (out, stats) = rows(&join, &mut env);
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(3)]]);
        assert_eq!((stats.index_probes, stats.tuples_scanned), (1, 1));
        assert_eq!(e.index_count(), 0, "no full-mask index was built");
        // The seeded slots survive the run; a miss derives nothing.
        assert_eq!(env, vec![Some(IVal::Int(2)), Some(IVal::Int(3))]);
        let mut env = r.env_for_head(&[IVal::Int(3), IVal::Int(2)]).unwrap();
        assert_eq!(rows(&join, &mut env).0, Vec::<Vec<Value>>::new());
        // A repeated head variable must agree with the tuple.
        let refl = rule("p(X, X) :- e(X, X).");
        assert!(refl.env_for_head(&[IVal::Int(1), IVal::Int(2)]).is_none());
    }

    #[test]
    fn overlay_minus_and_negation_read_the_same_state() {
        // state = (a ∪ b) \ gone; `not e(..)` holds on what the state
        // lacks, and in the delta role on what the change set holds.
        let pos = rule("p(X, Y) :- e(X, Y).");
        let neg = rule("p(X, Y) :- n(X, Y), not e(X, Y).");
        let a = edges(&[(1, 2), (2, 3)]);
        let b = edges(&[(3, 4)]);
        let gone = edges(&[(2, 3)]);
        let overlay = Source::State(vec![&a, &b], vec![&gone]);
        let pair = |x, y| vec![Value::Int(x), Value::Int(y)];
        let (out, _) = rows(
            &Join::new(&pos, vec![overlay.clone()]),
            &mut pos.fresh_env(),
        );
        assert_eq!(out, vec![pair(1, 2), pair(3, 4)]);

        let mut n = Database::new();
        for (x, y) in [(1, 2), (2, 3), (7, 8)] {
            n.insert("n", vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        let (out, _) = rows(
            &Join::new(&neg, vec![state(&n), overlay]),
            &mut neg.fresh_env(),
        );
        assert_eq!(out, vec![pair(2, 3), pair(7, 8)]);
        let (out, _) = rows(
            &Join::new(&neg, vec![state(&n), Source::Delta(&gone)]),
            &mut neg.fresh_env(),
        );
        assert_eq!(out, vec![pair(2, 3)]);
    }
}
