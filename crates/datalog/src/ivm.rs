//! Incremental view maintenance: maintain the deduced model under
//! TELL/UNTELL deltas instead of recomputing it.
//!
//! The paper names deductive query efficiency as *the* open problem
//! (§4); a [`MaterializedView`] keeps the full model of a program
//! materialized and folds every extensional change into it:
//!
//! * **Counting** for non-recursive strata: each derived tuple carries
//!   the number of rule instantiations supporting it, an instantiation
//!   delta is computed exactly once per changed body position, and the
//!   tuple's presence flips only on 0↔1 support transitions.
//! * **DRed** (delete-and-rederive) for recursive strata: deletions are
//!   over-approximated through the old state, survivors with an
//!   alternative derivation in the new state are rederived, then a
//!   semi-naive insertion pass folds in the new tuples.
//!
//! Strata here are finer than [`crate::stratify`]'s negation levels:
//! each level is split into strongly connected components of the
//! head-predicate dependency graph, so `q(X) :- p(X).` stays a cheap
//! counting stratum even when `p` is recursive. Negated predicates are
//! always in an earlier stratum (guaranteed by stratification), so a
//! negated literal is a ground membership test against a finished
//! state by the time a join reaches it.
//!
//! The extensional base itself is counted: re-telling a present fact
//! raises its support, and an UNTELL only removes the fact — and
//! propagates a deletion delta — when no independent support remains.

use crate::ast::{Program, Value};
use crate::db::Database;
use crate::error::{DatalogError, DatalogResult};
use crate::intern::{intern, IVal, Symbol};
use crate::predgraph::DepGraph;
use crate::seminaive::{compile, match_row, unwind, ArgSpec, CRule};
use crate::stratify::stratify;
use std::collections::{HashMap, HashSet};

/// A ground fact addressed by predicate name: one TELL or UNTELL unit.
pub type Fact = (String, Vec<Value>);

/// Statistics for one [`MaterializedView::apply`] refresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Extensional tuples whose presence flipped to present.
    pub edb_inserts: usize,
    /// Extensional tuples whose presence flipped to absent.
    pub edb_deletes: usize,
    /// Derived tuples whose presence flipped either way.
    pub derived_changes: usize,
}

impl ApplyStats {
    /// Total presence-changing delta tuples this refresh moved.
    pub fn delta_tuples(&self) -> usize {
        self.edb_inserts + self.edb_deletes + self.derived_changes
    }

    /// Accumulates the refresh into the process-wide [`obs`] registry.
    pub fn publish(&self) {
        obs::counter!(
            "datalog_ivm_refreshes_total",
            "Incremental view refreshes applied"
        )
        .inc();
        obs::counter!(
            "datalog_ivm_delta_tuples_total",
            "Presence-changing delta tuples propagated through views"
        )
        .add(self.delta_tuples() as u64);
    }
}

/// One maintenance stratum: the rules of one SCC of the head-predicate
/// dependency graph, with the maintenance strategy chosen for it.
#[derive(Debug, Clone)]
struct Stratum {
    rules: Vec<CRule>,
    heads: HashSet<Symbol>,
    /// Recursive strata are maintained with DRed, the rest by counting.
    recursive: bool,
}

/// A materialized model of a datalog program, maintained incrementally.
///
/// Built empty from a program; the extensional database is loaded (and
/// later churned) through [`MaterializedView::apply`], which propagates
/// the change through every stratum and leaves [`MaterializedView::model`]
/// equal to what [`crate::seminaive::evaluate`] would recompute.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    program: Program,
    strata: Vec<Stratum>,
    idb: HashSet<Symbol>,
    edb: Database,
    /// TELL multiplicity per extensional tuple.
    edb_support: HashMap<(Symbol, Vec<IVal>), i64>,
    model: Database,
    /// Instantiation counts per derived tuple of the counting strata.
    idb_support: HashMap<(Symbol, Vec<IVal>), i64>,
}

impl MaterializedView {
    /// Compiles `program` into maintenance strata. The view starts with
    /// an empty extensional database: the initial load is just the
    /// first [`MaterializedView::apply`] batch.
    pub fn new(program: Program) -> DatalogResult<Self> {
        program.validate()?;
        stratify(&program)?;
        let strata = build_strata(&program)?;
        let idb = strata
            .iter()
            .flat_map(|s| s.heads.iter().copied())
            .collect();
        Ok(MaterializedView {
            program,
            strata,
            idb,
            edb: Database::new(),
            edb_support: HashMap::new(),
            model: Database::new(),
            idb_support: HashMap::new(),
        })
    }

    /// The program this view materializes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The maintained model: extensional plus derived tuples. Probe it
    /// with the usual [`Database`] reads; it is never stale between
    /// [`MaterializedView::apply`] calls.
    pub fn model(&self) -> &Database {
        &self.model
    }

    /// The current extensional database (presence, not multiplicity).
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// TELL multiplicity of an extensional tuple (0 when absent).
    pub fn support(&self, pred: &str, tuple: &[Value]) -> i64 {
        let sym = intern(pred);
        let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
        self.edb_support.get(&(sym, row)).copied().unwrap_or(0)
    }

    /// Folds one batch of extensional changes into the model. Deletes
    /// are processed before inserts. A delete of an absent fact is a
    /// no-op; a re-insert of a present fact only raises its support.
    /// Returns the presence-change statistics (also published to
    /// [`obs`]).
    pub fn apply(&mut self, inserts: &[Fact], deletes: &[Fact]) -> DatalogResult<ApplyStats> {
        let mut stats = ApplyStats::default();
        let mut i_all = Database::new();
        let mut d_all = Database::new();

        // Extensional support: presence flips only on 0↔1 transitions,
        // reconciled so a delete+insert of the same fact in one batch
        // nets out instead of reporting both.
        for (pred, tuple) in deletes {
            let sym = intern(pred);
            if self.idb.contains(&sym) {
                return Err(DatalogError::Parse(format!(
                    "`{pred}` is a derived predicate of this view; only extensional facts can be untold"
                )));
            }
            let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
            let was = self
                .edb_support
                .get(&(sym, row.clone()))
                .copied()
                .unwrap_or(0);
            if was == 0 {
                continue;
            }
            if was == 1 {
                self.edb_support.remove(&(sym, row.clone()));
                self.edb.remove_ivals(sym, &row);
                if i_all.contains_ivals(sym, &row) {
                    i_all.remove_ivals(sym, &row);
                } else {
                    d_all.insert_ivals(sym, &row)?;
                }
            } else {
                self.edb_support.insert((sym, row), was - 1);
            }
        }
        for (pred, tuple) in inserts {
            let sym = intern(pred);
            if self.idb.contains(&sym) {
                return Err(DatalogError::Parse(format!(
                    "`{pred}` is a derived predicate of this view; only extensional facts can be told"
                )));
            }
            let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
            let was = self
                .edb_support
                .get(&(sym, row.clone()))
                .copied()
                .unwrap_or(0);
            self.edb_support.insert((sym, row.clone()), was + 1);
            if was == 0 {
                self.edb.insert_ivals(sym, &row)?;
                if d_all.contains_ivals(sym, &row) {
                    d_all.remove_ivals(sym, &row);
                } else {
                    i_all.insert_ivals(sym, &row)?;
                }
            }
        }
        stats.edb_inserts = i_all.total();
        stats.edb_deletes = d_all.total();

        // Propagate stratum by stratum. `model` stays the old state
        // throughout; `i_all`/`d_all` carry old→new presence changes of
        // every already-processed predicate.
        let MaterializedView {
            strata,
            model,
            idb_support,
            ..
        } = self;
        for st in strata.iter() {
            stats.derived_changes += if st.recursive {
                dred_apply(st, model, &mut i_all, &mut d_all)?
            } else {
                counting_apply(st, model, &mut i_all, &mut d_all, idb_support)?
            };
        }

        // Commit: the old model becomes the new one.
        let removals: Vec<(Symbol, Vec<IVal>)> = d_all
            .iter_rels()
            .flat_map(|(sym, rel)| rel.rows().map(move |r| (sym, r.to_vec())))
            .collect();
        for (sym, row) in removals {
            self.model.remove_ivals(sym, &row);
        }
        self.model.absorb(&i_all)?;
        stats.publish();
        Ok(stats)
    }

    /// Rebuilds the model from scratch (used after changes too coarse
    /// to express as deltas); the extensional support is preserved.
    pub fn rebuild(&mut self) -> DatalogResult<()> {
        let (model, _) = crate::seminaive::evaluate(&self.program, &self.edb)?;
        self.model = model;
        self.idb_support.clear();
        let MaterializedView {
            strata,
            model,
            idb_support,
            ..
        } = self;
        for st in strata.iter().filter(|s| !s.recursive) {
            recount_stratum(st, model, idb_support)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Stratum construction: SCCs of the head-predicate dependency graph.
// ---------------------------------------------------------------------

fn build_strata(program: &Program) -> DatalogResult<Vec<Stratum>> {
    // `sccs()` lists components dependencies-first along head → body
    // edges, which is exactly evaluation order. Negated body predicates
    // land in an earlier component because stratification already
    // rejected any cycle through a negative edge. Components of purely
    // extensional predicates define nothing and are skipped.
    let graph = DepGraph::of(program);
    let sccs = graph.sccs();
    let mut rules_of: Vec<Vec<CRule>> = vec![Vec::new(); sccs.comps.len()];
    for r in &program.rules {
        let head = graph.pred_index(&r.head.pred).expect("head is in graph");
        rules_of[sccs.comp_of[head]].push(compile(r)?);
    }
    let mut strata = Vec::new();
    for (c, rules) in rules_of.into_iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        strata.push(Stratum {
            rules,
            heads: sccs.comps[c]
                .iter()
                .map(|&p| intern(graph.name(p)))
                .collect(),
            recursive: sccs.is_recursive(&graph, c),
        });
    }
    Ok(strata)
}

// ---------------------------------------------------------------------
// The delta join core: one join over per-position source overlays.
// ---------------------------------------------------------------------

/// Where one body position reads from during a delta join. Positive
/// sources are overlays `(∪ parts) \ (∪ minus)` with pairwise-disjoint
/// parts, so iteration never visits a tuple twice.
enum PosCfg<'a> {
    /// Positive literal over an overlay state.
    Pos {
        parts: Vec<&'a Database>,
        minus: Vec<&'a Database>,
    },
    /// Positive literal restricted to a delta relation.
    PosDelta(&'a Database),
    /// Negated literal: the ground tuple must be absent from the state.
    NegAbsent {
        parts: Vec<&'a Database>,
        minus: Vec<&'a Database>,
    },
    /// Negated literal in the delta role: the ground tuple must be in
    /// the flipped set (inserts when deleting, deletes when inserting).
    NegIn(&'a Database),
}

fn ground_lit(args: &[ArgSpec], pred: Symbol, env: &[Option<IVal>]) -> DatalogResult<Vec<IVal>> {
    let mut row = Vec::with_capacity(args.len());
    for a in args {
        match a {
            ArgSpec::Const(c) => row.push(*c),
            ArgSpec::Var(s) => match env[*s as usize] {
                Some(v) => row.push(v),
                None => return Err(DatalogError::NonGroundNegation(pred.as_str().to_string())),
            },
        }
    }
    Ok(row)
}

fn in_state(parts: &[&Database], minus: &[&Database], pred: Symbol, row: &[IVal]) -> bool {
    parts.iter().any(|d| d.contains_ivals(pred, row))
        && !minus.iter().any(|d| d.contains_ivals(pred, row))
}

/// The join order for one delta rule: the delta literal (when
/// positive) first, so the join is driven by the change rather than by
/// a scan of the full state, then the remaining positive literals in
/// rule order, then the negations — ground by rule safety once every
/// positive literal has run. The result multiset of a join does not
/// depend on literal order, so counting semantics are unaffected.
fn join_order(rule: &CRule, cfgs: &[PosCfg]) -> Vec<usize> {
    let delta_pos = cfgs.iter().position(|c| matches!(c, PosCfg::PosDelta(_)));
    let mut order = Vec::with_capacity(rule.lits.len());
    order.extend(delta_pos);
    for (i, l) in rule.lits.iter().enumerate() {
        if Some(i) != delta_pos && !l.negated {
            order.push(i);
        }
    }
    for (i, l) in rule.lits.iter().enumerate() {
        if Some(i) != delta_pos && l.negated {
            order.push(i);
        }
    }
    order
}

/// Joins the literals `order[pos..]` with each position reading its
/// configured source, pushing every complete head instantiation
/// (duplicates included — counting needs them) onto `out`.
fn join_cfg(
    rule: &CRule,
    cfgs: &[PosCfg],
    order: &[usize],
    pos: usize,
    env: &mut [Option<IVal>],
    trail: &mut Vec<u16>,
    out: &mut Vec<Vec<IVal>>,
) -> DatalogResult<()> {
    if pos == order.len() {
        let row: Vec<IVal> = rule
            .head
            .iter()
            .map(|a| match a {
                ArgSpec::Const(c) => *c,
                ArgSpec::Var(s) => env[*s as usize].expect("safety: head var bound"),
            })
            .collect();
        out.push(row);
        return Ok(());
    }
    let lit = &rule.lits[order[pos]];
    match &cfgs[order[pos]] {
        PosCfg::NegAbsent { parts, minus } => {
            let row = ground_lit(&lit.args, lit.pred, env)?;
            if !in_state(parts, minus, lit.pred, &row) {
                join_cfg(rule, cfgs, order, pos + 1, env, trail, out)?;
            }
        }
        PosCfg::NegIn(db) => {
            let row = ground_lit(&lit.args, lit.pred, env)?;
            if db.contains_ivals(lit.pred, &row) {
                join_cfg(rule, cfgs, order, pos + 1, env, trail, out)?;
            }
        }
        PosCfg::Pos { parts, minus } => {
            for part in parts {
                scan_part(rule, cfgs, order, pos, part, minus, env, trail, out)?;
            }
        }
        PosCfg::PosDelta(db) => scan_part(rule, cfgs, order, pos, db, &[], env, trail, out)?,
    }
    Ok(())
}

/// Iterates the matches of `rule.lits[order[pos]]` in one overlay
/// part, skipping rows subtracted by `minus`, and recurses.
///
/// The binding-pattern mask is computed from the *runtime* env, not
/// taken from the compiled literal: delta joins run the literals out
/// of rule order (delta first, or seeded from a head tuple during
/// rederivation), so the compile-time left-to-right mask would miss
/// bindings and degrade indexed probes to full scans of the model.
#[allow(clippy::too_many_arguments)]
fn scan_part(
    rule: &CRule,
    cfgs: &[PosCfg],
    order: &[usize],
    pos: usize,
    part: &Database,
    minus: &[&Database],
    env: &mut [Option<IVal>],
    trail: &mut Vec<u16>,
    out: &mut Vec<Vec<IVal>>,
) -> DatalogResult<()> {
    let lit = &rule.lits[order[pos]];
    let Some(rel) = part.rel(lit.pred) else {
        return Ok(());
    };
    if rel.arity != lit.args.len() {
        return Ok(());
    }
    let mut mask: u32 = 0;
    for (j, a) in lit.args.iter().enumerate() {
        let bound = match a {
            ArgSpec::Const(_) => true,
            ArgSpec::Var(s) => env[*s as usize].is_some(),
        };
        if bound {
            mask |= 1 << j;
        }
    }
    let mark = trail.len();
    if mask != 0 && mask.count_ones() as usize == lit.args.len() {
        // Fully ground: a membership probe, no index needed.
        let row = ground_lit(&lit.args, lit.pred, env)?;
        if part.contains_ivals(lit.pred, &row)
            && !minus.iter().any(|d| d.contains_ivals(lit.pred, &row))
        {
            join_cfg(rule, cfgs, order, pos + 1, env, trail, out)?;
        }
    } else if mask != 0 {
        let key: Vec<IVal> = lit
            .args
            .iter()
            .enumerate()
            .filter(|(j, _)| mask & (1 << j) != 0)
            .map(|(_, a)| match a {
                ArgSpec::Const(c) => *c,
                ArgSpec::Var(s) => env[*s as usize].expect("masked var bound"),
            })
            .collect();
        let index = rel.index_for(mask);
        if let Some(ids) = index.get(&key) {
            for &id in ids {
                let row = rel.row(id);
                if minus.iter().any(|d| d.contains_ivals(lit.pred, row)) {
                    continue;
                }
                if match_row(&lit.args, row, env, trail) {
                    join_cfg(rule, cfgs, order, pos + 1, env, trail, out)?;
                }
                unwind(env, trail, mark);
            }
        }
    } else {
        for row in rel.rows() {
            if minus.iter().any(|d| d.contains_ivals(lit.pred, row)) {
                continue;
            }
            if match_row(&lit.args, row, env, trail) {
                join_cfg(rule, cfgs, order, pos + 1, env, trail, out)?;
            }
            unwind(env, trail, mark);
        }
    }
    Ok(())
}

fn run_join(rule: &CRule, cfgs: &[PosCfg]) -> DatalogResult<Vec<Vec<IVal>>> {
    let order = join_order(rule, cfgs);
    let mut env = vec![None; rule.nslots];
    let mut trail = Vec::new();
    let mut out = Vec::new();
    join_cfg(rule, cfgs, &order, 0, &mut env, &mut trail, &mut out)?;
    Ok(out)
}

fn has_pred(db: &Database, pred: Symbol) -> bool {
    db.rel(pred).is_some_and(|r| r.len() > 0)
}

// ---------------------------------------------------------------------
// Counting maintenance (non-recursive strata).
// ---------------------------------------------------------------------

/// Maintains one counting stratum. For each rule and changed position
/// `i`, lost instantiations join old∩new before `i`, the deletions at
/// `i`, and the old state after; gained instantiations join old∩new,
/// the insertions, and the new state. With `i` ranging over the
/// *minimal* changed position, each instantiation delta is counted
/// exactly once, so the per-tuple instantiation counts stay exact and
/// presence flips exactly on 0↔1 support transitions.
fn counting_apply(
    st: &Stratum,
    model: &Database,
    i_all: &mut Database,
    d_all: &mut Database,
    support: &mut HashMap<(Symbol, Vec<IVal>), i64>,
) -> DatalogResult<usize> {
    let mut net: HashMap<(Symbol, Vec<IVal>), i64> = HashMap::new();
    for rule in &st.rules {
        for (i, lit) in rule.lits.iter().enumerate() {
            for deleting in [true, false] {
                let delta_src: &Database = match (deleting, lit.negated) {
                    (true, false) => d_all,
                    (true, true) => i_all,
                    (false, false) => i_all,
                    (false, true) => d_all,
                };
                if !has_pred(delta_src, lit.pred) {
                    continue;
                }
                let cfgs: Vec<PosCfg> = rule
                    .lits
                    .iter()
                    .enumerate()
                    .map(|(j, l)| match j.cmp(&i) {
                        std::cmp::Ordering::Less => {
                            if l.negated {
                                // Holds in both old and new: absent
                                // from old ∪ new = model ∪ inserts.
                                PosCfg::NegAbsent {
                                    parts: vec![model, i_all],
                                    minus: vec![],
                                }
                            } else {
                                // old ∩ new = model \ deletes.
                                PosCfg::Pos {
                                    parts: vec![model],
                                    minus: vec![d_all],
                                }
                            }
                        }
                        std::cmp::Ordering::Equal => {
                            if l.negated {
                                PosCfg::NegIn(delta_src)
                            } else {
                                PosCfg::PosDelta(delta_src)
                            }
                        }
                        std::cmp::Ordering::Greater => {
                            let (parts, minus): (Vec<&Database>, Vec<&Database>) = if deleting {
                                (vec![model], vec![]) // old
                            } else {
                                (vec![model, i_all], vec![d_all]) // new
                            };
                            if l.negated {
                                PosCfg::NegAbsent { parts, minus }
                            } else {
                                PosCfg::Pos { parts, minus }
                            }
                        }
                    })
                    .collect();
                let sign = if deleting { -1 } else { 1 };
                for row in run_join(rule, &cfgs)? {
                    *net.entry((rule.head_pred, row)).or_insert(0) += sign;
                }
            }
        }
    }
    let mut changes = 0;
    for ((sym, row), dn) in net {
        if dn == 0 {
            continue;
        }
        let was = support.get(&(sym, row.clone())).copied().unwrap_or(0);
        let now = was + dn;
        debug_assert!(now >= 0, "support underflow for {}", sym.as_str());
        if now <= 0 {
            support.remove(&(sym, row.clone()));
        } else {
            support.insert((sym, row.clone()), now);
        }
        if was == 0 && now > 0 {
            i_all.insert_ivals(sym, &row)?;
            changes += 1;
        } else if was > 0 && now <= 0 {
            d_all.insert_ivals(sym, &row)?;
            changes += 1;
        }
    }
    Ok(changes)
}

/// Recounts a counting stratum's supports from a settled model (used
/// by [`MaterializedView::rebuild`]).
fn recount_stratum(
    st: &Stratum,
    model: &Database,
    support: &mut HashMap<(Symbol, Vec<IVal>), i64>,
) -> DatalogResult<()> {
    for rule in &st.rules {
        let cfgs: Vec<PosCfg> = rule
            .lits
            .iter()
            .map(|l| {
                if l.negated {
                    PosCfg::NegAbsent {
                        parts: vec![model],
                        minus: vec![],
                    }
                } else {
                    PosCfg::Pos {
                        parts: vec![model],
                        minus: vec![],
                    }
                }
            })
            .collect();
        for row in run_join(rule, &cfgs)? {
            *support.entry((rule.head_pred, row)).or_insert(0) += 1;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// DRed maintenance (recursive strata).
// ---------------------------------------------------------------------

/// Maintains one recursive stratum by delete-and-rederive:
///
/// 1. **Over-delete**: a fixpoint over the *old* state marks every
///    stratum tuple with a derivation consuming a deleted tuple.
/// 2. **Rederive**: marked tuples with an alternative derivation in the
///    new state (which excludes still-marked tuples, so no tuple
///    supports itself) are kept; rederivals cascade until settled.
/// 3. **Insert**: a semi-naive pass folds in derivations enabled by
///    lower-stratum changes, restoring over-deleted tuples or adding
///    brand-new ones, and propagating through the recursion.
fn dred_apply(
    st: &Stratum,
    model: &Database,
    i_all: &mut Database,
    d_all: &mut Database,
) -> DatalogResult<usize> {
    // Over-delete.
    let mut pending = Database::new();
    let mut removed_list: Vec<(Symbol, Vec<IVal>)> = Vec::new();
    let mut frontier = Database::new();
    for rule in &st.rules {
        for (i, lit) in rule.lits.iter().enumerate() {
            if st.heads.contains(&lit.pred) {
                continue; // same-stratum deltas are handled in rounds
            }
            let delta_src: &Database = if lit.negated { i_all } else { d_all };
            if !has_pred(delta_src, lit.pred) {
                continue;
            }
            let cfgs = old_state_cfgs(rule, model, Some((i, delta_src)));
            for row in run_join(rule, &cfgs)? {
                mark_deleted(
                    rule.head_pred,
                    row,
                    model,
                    &mut pending,
                    &mut frontier,
                    &mut removed_list,
                )?;
            }
        }
    }
    while frontier.total() > 0 {
        let mut next = Database::new();
        for rule in &st.rules {
            for (i, lit) in rule.lits.iter().enumerate() {
                if lit.negated || !st.heads.contains(&lit.pred) || !has_pred(&frontier, lit.pred) {
                    continue;
                }
                let cfgs = old_state_cfgs(rule, model, Some((i, &frontier)));
                for row in run_join(rule, &cfgs)? {
                    mark_deleted(
                        rule.head_pred,
                        row,
                        model,
                        &mut pending,
                        &mut next,
                        &mut removed_list,
                    )?;
                }
            }
        }
        frontier = next;
    }

    // Rederive: keep over-deleted tuples that still have a derivation
    // in the new state. A pass can unlock further rederivals, so loop
    // to a fixpoint.
    loop {
        let mut progress = false;
        for (sym, row) in &removed_list {
            if !pending.contains_ivals(*sym, row) {
                continue;
            }
            let mut found = false;
            for rule in st.rules.iter().filter(|r| r.head_pred == *sym) {
                let mut env = vec![None; rule.nslots];
                if !seed_head(rule, row, &mut env) {
                    continue;
                }
                let cfgs = new_state_cfgs(rule, model, i_all, d_all, &pending, None, None);
                let order = join_order(rule, &cfgs);
                let mut trail = Vec::new();
                let mut out = Vec::new();
                join_cfg(rule, &cfgs, &order, 0, &mut env, &mut trail, &mut out)?;
                if !out.is_empty() {
                    found = true;
                    break;
                }
            }
            if found {
                pending.remove_ivals(*sym, row);
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }

    // Insert: semi-naive over the new state, seeded by lower-stratum
    // changes (inserts at positive positions, deletes under negation).
    let mut inserted = Database::new();
    let mut frontier = Database::new();
    for rule in &st.rules {
        for (i, lit) in rule.lits.iter().enumerate() {
            if st.heads.contains(&lit.pred) {
                continue;
            }
            let delta_src: &Database = if lit.negated { d_all } else { i_all };
            if !has_pred(delta_src, lit.pred) {
                continue;
            }
            let out = {
                let cfgs = new_state_cfgs(
                    rule,
                    model,
                    i_all,
                    d_all,
                    &pending,
                    Some(&inserted),
                    Some((i, delta_src)),
                );
                run_join(rule, &cfgs)?
            };
            for row in out {
                admit_insert(
                    rule.head_pred,
                    row,
                    model,
                    &mut pending,
                    &mut inserted,
                    &mut frontier,
                )?;
            }
        }
    }
    while frontier.total() > 0 {
        let mut next = Database::new();
        for rule in &st.rules {
            for (i, lit) in rule.lits.iter().enumerate() {
                if lit.negated || !st.heads.contains(&lit.pred) || !has_pred(&frontier, lit.pred) {
                    continue;
                }
                let out = {
                    let cfgs = new_state_cfgs(
                        rule,
                        model,
                        i_all,
                        d_all,
                        &pending,
                        Some(&inserted),
                        Some((i, &frontier)),
                    );
                    run_join(rule, &cfgs)?
                };
                for row in out {
                    admit_insert(
                        rule.head_pred,
                        row,
                        model,
                        &mut pending,
                        &mut inserted,
                        &mut next,
                    )?;
                }
            }
        }
        frontier = next;
    }

    let changes = pending.total() + inserted.total();
    d_all.absorb(&pending)?;
    i_all.absorb(&inserted)?;
    Ok(changes)
}

/// Every position reads the old state (`model`), except an optional
/// delta position.
fn old_state_cfgs<'a>(
    rule: &CRule,
    model: &'a Database,
    delta: Option<(usize, &'a Database)>,
) -> Vec<PosCfg<'a>> {
    rule.lits
        .iter()
        .enumerate()
        .map(|(j, l)| {
            if let Some((i, d)) = delta {
                if j == i {
                    return if l.negated {
                        PosCfg::NegIn(d)
                    } else {
                        PosCfg::PosDelta(d)
                    };
                }
            }
            if l.negated {
                PosCfg::NegAbsent {
                    parts: vec![model],
                    minus: vec![],
                }
            } else {
                PosCfg::Pos {
                    parts: vec![model],
                    minus: vec![],
                }
            }
        })
        .collect()
}

/// Every position reads the in-progress new state — lower strata as
/// `(model ∪ i_all) \ d_all`, this stratum as
/// `(model \ pending) ∪ inserted` — except an optional delta position.
fn new_state_cfgs<'a>(
    rule: &CRule,
    model: &'a Database,
    i_all: &'a Database,
    d_all: &'a Database,
    pending: &'a Database,
    inserted: Option<&'a Database>,
    delta: Option<(usize, &'a Database)>,
) -> Vec<PosCfg<'a>> {
    rule.lits
        .iter()
        .enumerate()
        .map(|(j, l)| {
            if let Some((i, d)) = delta {
                if j == i {
                    return if l.negated {
                        PosCfg::NegIn(d)
                    } else {
                        PosCfg::PosDelta(d)
                    };
                }
            }
            let mut parts = vec![model, i_all];
            if let Some(ins) = inserted {
                parts.push(ins);
            }
            let minus = vec![d_all, pending];
            if l.negated {
                PosCfg::NegAbsent { parts, minus }
            } else {
                PosCfg::Pos { parts, minus }
            }
        })
        .collect()
}

/// Binds a rule's head against a concrete tuple, seeding the slots the
/// body join starts from. Fails on constant or repeated-variable
/// mismatch.
fn seed_head(rule: &CRule, row: &[IVal], env: &mut [Option<IVal>]) -> bool {
    for (a, &v) in rule.head.iter().zip(row) {
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
                None => env[*s as usize] = Some(v),
            },
        }
    }
    true
}

fn mark_deleted(
    head: Symbol,
    row: Vec<IVal>,
    model: &Database,
    pending: &mut Database,
    frontier: &mut Database,
    removed_list: &mut Vec<(Symbol, Vec<IVal>)>,
) -> DatalogResult<()> {
    if model.contains_ivals(head, &row) && !pending.contains_ivals(head, &row) {
        pending.insert_ivals(head, &row)?;
        frontier.insert_ivals(head, &row)?;
        removed_list.push((head, row));
    }
    Ok(())
}

fn admit_insert(
    head: Symbol,
    row: Vec<IVal>,
    model: &Database,
    pending: &mut Database,
    inserted: &mut Database,
    frontier: &mut Database,
) -> DatalogResult<()> {
    let present = inserted.contains_ivals(head, &row)
        || (model.contains_ivals(head, &row) && !pending.contains_ivals(head, &row));
    if present {
        return Ok(());
    }
    if pending.contains_ivals(head, &row) {
        // Over-deleted, now rederived through an insert: net no-op at
        // commit time, but the recursion must still see it as new.
        pending.remove_ivals(head, &row);
    } else {
        inserted.insert_ivals(head, &row)?;
    }
    frontier.insert_ivals(head, &row)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::evaluate;

    fn fact(pred: &str, vals: &[i64]) -> Fact {
        (
            pred.to_string(),
            vals.iter().map(|&v| Value::Int(v)).collect(),
        )
    }

    fn sfact(pred: &str, vals: &[&str]) -> Fact {
        (
            pred.to_string(),
            vals.iter().map(|v| Value::sym(*v)).collect(),
        )
    }

    /// The view's model must equal a from-scratch evaluation over the
    /// same extensional database, predicate by predicate.
    fn assert_matches_recompute(view: &MaterializedView) {
        let (expect, _) = evaluate(view.program(), view.edb()).unwrap();
        let mut preds: Vec<&str> = expect.preds();
        preds.extend(view.model().preds());
        preds.sort_unstable();
        preds.dedup();
        for pred in preds {
            let mut a: Vec<Vec<Value>> = view.model().tuples(pred).collect();
            let mut b: Vec<Vec<Value>> = expect.tuples(pred).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "view and recompute disagree on `{pred}`");
        }
    }

    const TC: &str = "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), p(Y, Z).";

    #[test]
    fn strata_split_into_sccs() {
        // p is recursive, q on top of it is not: the level-based
        // stratification lumps both into level 0, but maintenance must
        // count q and DRed p.
        let prog = Program::parse(&format!("{TC}\nq(X) :- p(X, X).")).unwrap();
        let v = MaterializedView::new(prog).unwrap();
        assert_eq!(v.strata.len(), 2);
        assert!(v.strata[0].recursive, "p is recursive");
        assert!(!v.strata[1].recursive, "q is not");
    }

    #[test]
    fn deep_rule_chain_compiles_on_a_connection_sized_stack() {
        // One `RegisterView` request can carry this program (≈1.2 MB,
        // under the 16 MiB frame cap), and the server compiles it on a
        // connection thread with the default 2 MiB stack: stratum
        // construction must not recurse once per chain link.
        // The chain is written top-first, so a depth-first walk from
        // the first head descends through every link.
        const LINKS: usize = 50_000;
        let mut src = String::new();
        for i in (1..LINKS).rev() {
            src.push_str(&format!("p{i}(X) :- p{}(X).\n", i - 1));
        }
        src.push_str("p0(X) :- base(X).\n");
        let strata = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let view = MaterializedView::new(Program::parse(&src).unwrap()).unwrap();
                // p_i's stratum directly precedes p_{i+1}'s.
                let order_ok = view
                    .strata
                    .windows(2)
                    .all(|w| w[0].heads.contains(&w[1].rules[0].lits[0].pred));
                (view.strata.len(), order_ok)
            })
            .unwrap()
            .join()
            .expect("view compilation must not overflow the stack");
        assert_eq!(strata, (LINKS, true));
    }

    #[test]
    fn initial_load_is_incremental_build() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        let inserts: Vec<Fact> = (1..5).map(|i| fact("e", &[i, i + 1])).collect();
        let stats = v.apply(&inserts, &[]).unwrap();
        assert_eq!(stats.edb_inserts, 4);
        assert_eq!(v.model().count("p"), 10);
        assert_matches_recompute(&v);
    }

    #[test]
    fn counting_insert_and_delete() {
        let prog = Program::parse("q(X) :- e(X, Y).\nr(X) :- q(X), n(X).").unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[fact("e", &[1, 2]), fact("e", &[1, 3]), fact("n", &[1])],
            &[],
        )
        .unwrap();
        assert!(v.model().contains("r", &[Value::Int(1)]));
        // q(1) has two supports; deleting one edge must not drop it.
        v.apply(&[], &[fact("e", &[1, 2])]).unwrap();
        assert!(v.model().contains("q", &[Value::Int(1)]));
        assert!(v.model().contains("r", &[Value::Int(1)]));
        assert_matches_recompute(&v);
        // Deleting the second support drops the chain.
        v.apply(&[], &[fact("e", &[1, 3])]).unwrap();
        assert!(!v.model().contains("q", &[Value::Int(1)]));
        assert!(!v.model().contains("r", &[Value::Int(1)]));
        assert_matches_recompute(&v);
    }

    #[test]
    fn tell_untell_idempotence_on_edb_support() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        // TELL the same fact twice: presence once, support 2.
        v.apply(&[fact("e", &[1, 2]), fact("e", &[1, 2])], &[])
            .unwrap();
        assert_eq!(v.support("e", &[Value::Int(1), Value::Int(2)]), 2);
        assert_eq!(v.model().count("e"), 1);
        // One UNTELL must not delete a fact with independent support.
        let stats = v.apply(&[], &[fact("e", &[1, 2])]).unwrap();
        assert_eq!(stats.delta_tuples(), 0, "no presence change");
        assert!(v.model().contains("p", &[Value::Int(1), Value::Int(2)]));
        // The second UNTELL removes it; a third is a no-op.
        v.apply(&[], &[fact("e", &[1, 2])]).unwrap();
        assert!(!v.model().contains("p", &[Value::Int(1), Value::Int(2)]));
        let stats = v.apply(&[], &[fact("e", &[1, 2])]).unwrap();
        assert_eq!(stats.delta_tuples(), 0, "UNTELL of an absent fact");
        assert_matches_recompute(&v);
    }

    #[test]
    fn dred_deletes_paths_but_keeps_rederivable() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        // Diamond plus tail: 1→2→4, 1→3→4, 4→5.
        v.apply(
            &[
                fact("e", &[1, 2]),
                fact("e", &[2, 4]),
                fact("e", &[1, 3]),
                fact("e", &[3, 4]),
                fact("e", &[4, 5]),
            ],
            &[],
        )
        .unwrap();
        assert!(v.model().contains("p", &[Value::Int(1), Value::Int(5)]));
        // Cutting 2→4 over-deletes p(1,4) and p(1,5), but both are
        // rederivable through 3.
        v.apply(&[], &[fact("e", &[2, 4])]).unwrap();
        assert!(v.model().contains("p", &[Value::Int(1), Value::Int(4)]));
        assert!(v.model().contains("p", &[Value::Int(1), Value::Int(5)]));
        assert!(!v.model().contains("p", &[Value::Int(2), Value::Int(4)]));
        assert_matches_recompute(&v);
        // Cutting the second branch actually severs them.
        v.apply(&[], &[fact("e", &[3, 4])]).unwrap();
        assert!(!v.model().contains("p", &[Value::Int(1), Value::Int(4)]));
        assert!(!v.model().contains("p", &[Value::Int(1), Value::Int(5)]));
        assert_matches_recompute(&v);
    }

    #[test]
    fn dred_cycles_collapse_on_cut() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[fact("e", &[1, 2]), fact("e", &[2, 3]), fact("e", &[3, 1])],
            &[],
        )
        .unwrap();
        assert_eq!(v.model().count("p"), 9, "full 3-cycle closure");
        // Cutting one cycle edge must not leave mutually-supporting
        // ghosts alive (the classic DRed trap).
        v.apply(&[], &[fact("e", &[3, 1])]).unwrap();
        assert_matches_recompute(&v);
        assert_eq!(v.model().count("p"), 3); // 12 13 23
    }

    #[test]
    fn stratified_negation_maintained() {
        let prog = Program::parse(
            "reach(Y) :- source(Y).\n\
             reach(Y) :- reach(X), e(X, Y).\n\
             island(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[
                sfact("node", &["a"]),
                sfact("node", &["b"]),
                sfact("node", &["c"]),
                sfact("source", &["a"]),
                sfact("e", &["a", "b"]),
            ],
            &[],
        )
        .unwrap();
        assert!(v.model().contains("island", &[Value::sym("c")]));
        assert!(!v.model().contains("island", &[Value::sym("b")]));
        assert_matches_recompute(&v);
        // Connecting c flips the negation; cutting a→b flips b back.
        v.apply(&[sfact("e", &["b", "c"])], &[]).unwrap();
        assert!(!v.model().contains("island", &[Value::sym("c")]));
        assert_matches_recompute(&v);
        v.apply(&[], &[sfact("e", &["a", "b"])]).unwrap();
        assert!(v.model().contains("island", &[Value::sym("b")]));
        assert!(v.model().contains("island", &[Value::sym("c")]));
        assert_matches_recompute(&v);
    }

    #[test]
    fn mixed_strata_propagate_in_order() {
        // DRed stratum (isaT) feeding a counting stratum (inT) — the
        // shape the object base's deductive closure takes.
        let prog = Program::parse(
            "isaT(X, Y) :- isa(X, Y).\n\
             isaT(X, Z) :- isa(X, Y), isaT(Y, Z).\n\
             inT(X, C) :- in_(X, C).\n\
             inT(X, C) :- in_(X, B), isaT(B, C).",
        )
        .unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[
                sfact("isa", &["Emp", "Agent"]),
                sfact("isa", &["Agent", "Obj"]),
                sfact("in_", &["mary", "Emp"]),
            ],
            &[],
        )
        .unwrap();
        assert!(v
            .model()
            .contains("inT", &[Value::sym("mary"), Value::sym("Obj")]));
        assert_matches_recompute(&v);
        // Cutting the middle ISA link prunes the transitive membership.
        v.apply(&[], &[sfact("isa", &["Agent", "Obj"])]).unwrap();
        assert!(!v
            .model()
            .contains("inT", &[Value::sym("mary"), Value::sym("Obj")]));
        assert!(v
            .model()
            .contains("inT", &[Value::sym("mary"), Value::sym("Agent")]));
        assert_matches_recompute(&v);
    }

    #[test]
    fn batch_delete_and_insert_nets_out() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(&[fact("e", &[1, 2])], &[]).unwrap();
        // Same fact deleted and re-inserted in one batch: no churn.
        let stats = v
            .apply(&[fact("e", &[1, 2])], &[fact("e", &[1, 2])])
            .unwrap();
        assert_eq!(stats.delta_tuples(), 0);
        assert!(v.model().contains("p", &[Value::Int(1), Value::Int(2)]));
        assert_matches_recompute(&v);
    }

    #[test]
    fn telling_a_derived_predicate_is_refused() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        assert!(v.apply(&[fact("p", &[1, 2])], &[]).is_err());
        assert!(v.apply(&[], &[fact("p", &[1, 2])]).is_err());
    }

    #[test]
    fn rebuild_agrees_with_maintained_state() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[fact("e", &[1, 2]), fact("e", &[2, 3]), fact("e", &[3, 4])],
            &[],
        )
        .unwrap();
        v.apply(&[], &[fact("e", &[2, 3])]).unwrap();
        let maintained: Vec<Vec<Value>> = {
            let mut t: Vec<_> = v.model().tuples("p").collect();
            t.sort();
            t
        };
        v.rebuild().unwrap();
        let rebuilt: Vec<Vec<Value>> = {
            let mut t: Vec<_> = v.model().tuples("p").collect();
            t.sort();
            t
        };
        assert_eq!(maintained, rebuilt);
    }

    #[test]
    fn unstratifiable_program_rejected() {
        let prog = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        assert!(MaterializedView::new(prog).is_err());
    }

    #[test]
    fn random_churn_matches_recompute() {
        // A deterministic xorshift walk over a small universe: the
        // cheap in-crate cousin of the differential proptest.
        let prog = Program::parse(&format!("{TC}\nq(X) :- p(X, X).")).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..200 {
            let x = (step() % 5) as i64;
            let y = (step() % 5) as i64;
            let f = fact("e", &[x, y]);
            if step() % 3 == 0 {
                v.apply(&[], &[f]).unwrap();
            } else {
                v.apply(&[f], &[]).unwrap();
            }
            if round % 20 == 19 {
                assert_matches_recompute(&v);
            }
        }
        assert_matches_recompute(&v);
    }
}
