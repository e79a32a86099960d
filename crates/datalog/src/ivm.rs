//! Incremental view maintenance: maintain the deduced model under
//! TELL/UNTELL deltas instead of recomputing it.
//!
//! The paper names deductive query efficiency as *the* open problem
//! (§4); a [`MaterializedView`] keeps the full model of a program
//! materialized and folds every extensional change into it.
//!
//! # One algorithm
//!
//! Every stratum is maintained by **DRed** (delete-and-rederive):
//! deletions are over-approximated through the old state, survivors
//! with an alternative derivation in the new state are rederived, then
//! a semi-naive insertion pass folds in the new tuples. Nothing in it
//! needs the stratum to be recursive — on a non-recursive one the
//! round seeded by the lower strata finds every affected tuple and the
//! fixpoints that follow it find no same-stratum literal to continue
//! from — so there is no second strategy and no per-tuple derivation
//! count to keep: a tuple with two derivations that loses one is
//! over-deleted and rederived from the other.
//!
//! Strata here are finer than [`crate::stratify`]'s negation levels:
//! each level is split into strongly connected components of the
//! head-predicate dependency graph, so `q(X) :- p(X).` is maintained
//! after `p` has settled, by joins driven by `p`'s changes alone, even
//! when `p` is recursive. Negated predicates are always in an earlier
//! stratum (guaranteed by stratification), so a negated literal is a
//! ground membership test against a finished state by the time a join
//! reaches it.
//!
//! # One store
//!
//! The model is the view's only copy of the tuples. Its relations of
//! predicates no rule derives *are* the extensional database
//! ([`MaterializedView::edb`] projects them, sharing the relations),
//! and an extensional tuple is present iff the model holds it. The one
//! thing the model cannot say is how often a tuple was told: re-telling
//! a present fact raises its multiplicity, and an UNTELL only removes
//! the fact — and propagates a deletion delta — when no independent
//! telling remains. Those multiplicities are kept for the tuples told
//! more than once and for nothing else.
//!
//! # Two ways in
//!
//! [`MaterializedView::load`] builds the model of a whole extensional
//! database with [`crate::seminaive::evaluate`] — the crate's one way
//! to build a model from scratch. [`MaterializedView::new`] starts
//! empty and takes everything through [`MaterializedView::apply`]; the
//! differential tests hold the two against each other and against
//! [`crate::seminaive::evaluate_scan`].
//!
//! # Delta joins
//!
//! Every join here runs on the crate's one join kernel
//! (`datalog::join`, shared with [`crate::seminaive::evaluate`]); this
//! module only says which state each body position reads. The committed
//! `model` stays the *old* state for a whole refresh, and the states a
//! delta rule needs are overlays on it: new = `(model ∪ inserts) \
//! deletes`, and inside the stratum being maintained additionally `\
//! pending ∪ inserted`. The overlay parts are pairwise disjoint, so no
//! tuple is visited twice. The kernel's probe, scan and instantiation
//! counters for a refresh are returned in [`ApplyStats`].
//!
//! # What a refresh changed
//!
//! The old→new presence changes of every predicate are what DRed works
//! with anyway, so [`MaterializedView::apply`] hands them back
//! ([`Applied`]): per predicate, the tuples that became present and
//! those that became absent. They are net — a tuple is in at most one
//! of the two, and only if its presence flipped — so a caller can patch
//! what it derived from the model by them instead of re-reading it.

use crate::ast::{Program, Value};
use crate::db::Database;
use crate::error::{DatalogError, DatalogResult};
use crate::intern::{intern, IVal, Symbol};
use crate::join::{compile, CRule, Join, Source};
use crate::predgraph::DepGraph;
use crate::seminaive::EvalStats;
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
    /// Index probes issued by the refresh's delta joins.
    pub index_probes: usize,
    /// Candidate tuples the refresh's delta joins iterated.
    pub tuples_scanned: usize,
    /// Rule-body instantiations the refresh's delta joins completed
    /// (lost, gained, over-deleted and rederived alike).
    pub derivations: usize,
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
        obs::counter!(
            "datalog_ivm_index_probes_total",
            "Index probes issued by view-maintenance joins"
        )
        .add(self.index_probes as u64);
        obs::counter!(
            "datalog_ivm_tuples_scanned_total",
            "Candidate tuples iterated by view-maintenance joins"
        )
        .add(self.tuples_scanned as u64);
        obs::counter!(
            "datalog_ivm_derivations_total",
            "Rule-body instantiations completed by view-maintenance joins"
        )
        .add(self.derivations as u64);
    }
}

/// What one [`MaterializedView::apply`] refresh changed, and its
/// counters.
#[derive(Debug, Default)]
pub struct Applied {
    /// Per predicate, the tuples the model did not hold before the
    /// batch and holds after it.
    pub inserted: Database,
    /// Per predicate, the tuples the model held before the batch and
    /// does not hold after it.
    pub deleted: Database,
    /// What the refresh cost and how many tuples it moved.
    pub stats: ApplyStats,
}

/// One maintenance stratum: the rules of one SCC of the head-predicate
/// dependency graph.
#[derive(Debug, Clone)]
struct Stratum {
    rules: Vec<CRule>,
    heads: HashSet<Symbol>,
}

/// A materialized model of a datalog program, maintained incrementally.
///
/// Built over an extensional database with [`MaterializedView::load`],
/// or empty with [`MaterializedView::new`]; churned through
/// [`MaterializedView::apply`], which propagates the change through
/// every stratum and leaves [`MaterializedView::model`] equal to what
/// [`crate::seminaive::evaluate`] would recompute.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    program: Program,
    strata: Vec<Stratum>,
    idb: HashSet<Symbol>,
    /// Extensional and derived tuples: the only copy of either.
    model: Database,
    /// TELL multiplicity of the extensional tuples told more than once
    /// (every entry is ≥ 2); any other tuple of the model counts once.
    multiplicity: HashMap<(Symbol, Vec<IVal>), i64>,
}

impl MaterializedView {
    /// Compiles `program` into maintenance strata. The view starts with
    /// an empty extensional database.
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
            model: Database::new(),
            multiplicity: HashMap::new(),
        })
    }

    /// The view of `program` over the extensional database `edb`: its
    /// model is [`crate::seminaive::evaluate`]'s, sharing `edb`'s
    /// relations. `edb` holds each tuple once; `duplicates` names a
    /// tuple once per *further* telling of it, so that as many UNTELLs
    /// leave it present.
    pub fn load(
        program: Program,
        edb: &Database,
        duplicates: &[(Symbol, Vec<IVal>)],
    ) -> DatalogResult<Self> {
        Self::load_counted(program, edb, duplicates).map(|(view, _)| view)
    }

    /// [`MaterializedView::load`], also returning the counters of the
    /// [`crate::seminaive::evaluate`] run that built the model.
    pub fn load_counted(
        program: Program,
        edb: &Database,
        duplicates: &[(Symbol, Vec<IVal>)],
    ) -> DatalogResult<(Self, EvalStats)> {
        let mut view = Self::new(program)?;
        if let Some((pred, _)) = edb.iter_rels().find(|(pred, _)| view.idb.contains(pred)) {
            return Err(derived(pred.as_str()));
        }
        let (model, stats) = crate::seminaive::evaluate(&view.program, edb)?;
        view.model = model;
        for (pred, row) in duplicates {
            if !edb.contains_ivals(*pred, row) {
                return Err(DatalogError::Parse(format!(
                    "a duplicate of a `{}` tuple the database does not hold",
                    pred.as_str()
                )));
            }
            *view.multiplicity.entry((*pred, row.clone())).or_insert(1) += 1;
        }
        Ok((view, stats))
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

    /// The current extensional database (presence, not multiplicity):
    /// the model's relations of the predicates no rule derives, shared
    /// with the model rather than copied.
    pub fn edb(&self) -> Database {
        self.model.project(|pred| !self.idb.contains(&pred))
    }

    /// TELL multiplicity of an extensional tuple (0 when absent).
    pub fn support(&self, pred: &str, tuple: &[Value]) -> i64 {
        let sym = intern(pred);
        let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
        let present = !self.idb.contains(&sym) && self.model.contains_ivals(sym, &row);
        self.multiplicity
            .get(&(sym, row))
            .copied()
            .unwrap_or(i64::from(present))
    }

    /// `fact` interned, if it may be told to or untold from this view:
    /// its predicate is extensional and its arity is the relation's —
    /// or, for a predicate the model does not hold yet, the arity
    /// `batch` recorded for it at its first fact in this batch.
    fn extensional(
        &self,
        (pred, tuple): &Fact,
        batch: &mut HashMap<Symbol, usize>,
    ) -> DatalogResult<(Symbol, Vec<IVal>)> {
        let sym = intern(pred);
        if self.idb.contains(&sym) {
            return Err(derived(pred));
        }
        let expected = match self.model.rel(sym) {
            Some(rel) => rel.arity,
            None => *batch.entry(sym).or_insert(tuple.len()),
        };
        if expected != tuple.len() {
            return Err(DatalogError::ArityMismatch {
                pred: pred.clone(),
                expected,
                found: tuple.len(),
            });
        }
        Ok((sym, tuple.iter().map(IVal::from_value).collect()))
    }

    /// Folds one batch of extensional changes into the model. Deletes
    /// are processed before inserts. A delete of an absent fact is a
    /// no-op; a re-insert of a present fact only raises its
    /// multiplicity. A batch naming a derived predicate is refused
    /// whole. Returns the presence changes of every predicate and the
    /// refresh's counters (also published to [`obs`]).
    pub fn apply(&mut self, inserts: &[Fact], deletes: &[Fact]) -> DatalogResult<Applied> {
        let mut batch = HashMap::new();
        let mut intern_all = |facts: &[Fact]| -> DatalogResult<Vec<(Symbol, Vec<IVal>)>> {
            facts
                .iter()
                .map(|f| self.extensional(f, &mut batch))
                .collect()
        };
        let (deletes, inserts) = (intern_all(deletes)?, intern_all(inserts)?);
        let mut stats = ApplyStats::default();
        let mut i_all = Database::new();
        let mut d_all = Database::new();

        // Extensional multiplicity: presence flips only on 0↔1
        // transitions, reconciled so a delete+insert of the same fact
        // in one batch nets out instead of reporting both.
        for key in deletes {
            match self.multiplicity.get_mut(&key) {
                Some(n) if *n > 2 => *n -= 1,
                Some(_) => {
                    self.multiplicity.remove(&key);
                }
                None if self.model.contains_ivals(key.0, &key.1) => {
                    d_all.insert_ivals(key.0, &key.1)?;
                }
                None => {}
            }
        }
        for key in inserts {
            let (sym, row) = (key.0, &key.1);
            if d_all.remove_ivals(sym, row) {
                continue; // untold above: the two net out
            }
            // Present already — in the model, or told earlier in this
            // batch — means one more telling of a fact counted once.
            if self.model.contains_ivals(sym, row) || !i_all.insert_ivals(sym, row)? {
                *self.multiplicity.entry(key).or_insert(1) += 1;
            }
        }
        stats.edb_inserts = i_all.total();
        stats.edb_deletes = d_all.total();

        // Propagate stratum by stratum. `model` stays the old state
        // throughout; `i_all`/`d_all` carry old→new presence changes of
        // every already-processed predicate.
        let mut work = EvalStats::default();
        for st in &self.strata {
            stats.derived_changes +=
                dred_apply(st, &self.model, &mut i_all, &mut d_all, &mut work)?;
        }
        stats.index_probes = work.index_probes;
        stats.tuples_scanned = work.tuples_scanned;
        stats.derivations = work.derivations;

        // Commit: the old model becomes the new one.
        for (sym, rel) in d_all.iter_rels() {
            for row in rel.rows() {
                self.model.remove_ivals(sym, row);
            }
        }
        self.model.absorb(&i_all)?;
        stats.publish();
        Ok(Applied {
            inserted: i_all,
            deleted: d_all,
            stats,
        })
    }
}

fn derived(pred: &str) -> DatalogError {
    DatalogError::Parse(format!(
        "`{pred}` is a derived predicate of this view; only extensional facts can be told or untold"
    ))
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
        });
    }
    Ok(strata)
}

// ---------------------------------------------------------------------
// Delta joins: the shared kernel over overlays of the maintained state.
// ---------------------------------------------------------------------

/// Runs one delta join, returning every head instantiation. Collected
/// rather than streamed because the callers go on to update sets the
/// sources read.
fn run_join(
    rule: &CRule,
    sources: Vec<Source>,
    work: &mut EvalStats,
) -> DatalogResult<Vec<Vec<IVal>>> {
    let mut out = Vec::new();
    Join::new(rule, sources).run(&mut rule.fresh_env(), work, &mut |row| {
        out.push(row.to_vec());
        Ok(())
    })?;
    Ok(out)
}

/// Every position reads `state`, except an optional delta position.
fn with_delta<'a>(
    rule: &CRule,
    state: &Source<'a>,
    delta: Option<(usize, &'a Database)>,
) -> Vec<Source<'a>> {
    (0..rule.lits.len())
        .map(|j| match delta {
            Some((i, d)) if i == j => Source::Delta(d),
            _ => state.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// DRed maintenance.
// ---------------------------------------------------------------------

/// Maintains one stratum by delete-and-rederive:
///
/// 1. **Over-delete**: a fixpoint over the *old* state marks every
///    stratum tuple with a derivation consuming a deleted tuple.
/// 2. **Rederive**: marked tuples with an alternative derivation in the
///    new state (which excludes still-marked tuples, so no tuple
///    supports itself) are kept; rederivals cascade until settled.
/// 3. **Insert**: a semi-naive pass folds in derivations enabled by
///    lower-stratum changes, restoring over-deleted tuples or adding
///    brand-new ones, and propagating through the recursion.
///
/// Both fixpoints open with a round seeded by the lower-stratum changes
/// (`frontier` is `None`) and continue with rounds driven by what the
/// previous round marked or admitted in this stratum — on a
/// non-recursive stratum no literal reads that, so the seeded round is
/// the only one that joins.
fn dred_apply(
    st: &Stratum,
    model: &Database,
    i_all: &mut Database,
    d_all: &mut Database,
    work: &mut EvalStats,
) -> DatalogResult<usize> {
    // Over-delete: deletes at positive positions, inserts under
    // negation.
    let old_state = Source::State(vec![model], vec![]);
    let mut pending = Database::new();
    let mut removed_list: Vec<(Symbol, Vec<IVal>)> = Vec::new();
    let mut frontier: Option<Database> = None;
    loop {
        let mut next = Database::new();
        for rule in &st.rules {
            for (i, lit) in rule.lits.iter().enumerate() {
                let same_stratum = st.heads.contains(&lit.pred);
                let delta_src: &Database = match &frontier {
                    None if same_stratum => continue,
                    None if lit.negated => i_all,
                    None => d_all,
                    Some(_) if lit.negated || !same_stratum => continue,
                    Some(f) => f,
                };
                if !delta_src.has_tuples(lit.pred) {
                    continue;
                }
                let sources = with_delta(rule, &old_state, Some((i, delta_src)));
                for row in run_join(rule, sources, work)? {
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
        if next.total() == 0 {
            break;
        }
        frontier = Some(next);
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
                let Some(mut env) = rule.env_for_head(row) else {
                    continue;
                };
                let state = new_state(model, i_all, d_all, &pending, None);
                Join::new(rule, with_delta(rule, &state, None)).run(&mut env, work, &mut |_| {
                    found = true;
                    Ok(())
                })?;
                if found {
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
    // inserts at positive positions and deletes under negation.
    let mut inserted = Database::new();
    let mut frontier: Option<Database> = None;
    loop {
        let mut next = Database::new();
        for rule in &st.rules {
            for (i, lit) in rule.lits.iter().enumerate() {
                let same_stratum = st.heads.contains(&lit.pred);
                let delta_src: &Database = match &frontier {
                    None if same_stratum => continue,
                    None if lit.negated => d_all,
                    None => i_all,
                    Some(_) if lit.negated || !same_stratum => continue,
                    Some(f) => f,
                };
                if !delta_src.has_tuples(lit.pred) {
                    continue;
                }
                let out = {
                    let state = new_state(model, i_all, d_all, &pending, Some(&inserted));
                    run_join(rule, with_delta(rule, &state, Some((i, delta_src))), work)?
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
        if next.total() == 0 {
            break;
        }
        frontier = Some(next);
    }

    let changes = pending.total() + inserted.total();
    d_all.absorb(&pending)?;
    i_all.absorb(&inserted)?;
    Ok(changes)
}

/// The in-progress new state: lower strata as `(model ∪ i_all) \ d_all`,
/// this stratum as `(model \ pending) ∪ inserted`.
fn new_state<'a>(
    model: &'a Database,
    i_all: &'a Database,
    d_all: &'a Database,
    pending: &'a Database,
    inserted: Option<&'a Database>,
) -> Source<'a> {
    let mut parts = vec![model, i_all];
    parts.extend(inserted);
    Source::State(parts, vec![d_all, pending])
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
    use crate::seminaive::evaluate_scan;

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

    /// The view's model must equal the scan oracle's from-scratch
    /// evaluation over the same extensional database, predicate by
    /// predicate.
    fn assert_matches_recompute(view: &MaterializedView) {
        let (expect, _) = evaluate_scan(view.program(), &view.edb()).unwrap();
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
        // stratification lumps both into level 0, but maintenance
        // settles p before q's joins read it.
        let prog = Program::parse(&format!("{TC}\nq(X) :- p(X, X).")).unwrap();
        let v = MaterializedView::new(prog).unwrap();
        let heads: Vec<Vec<&str>> = v
            .strata
            .iter()
            .map(|st| st.heads.iter().map(|h| h.as_str()).collect())
            .collect();
        assert_eq!(heads, vec![vec!["p"], vec!["q"]]);
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
    fn apply_from_empty_builds_the_model() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        let inserts: Vec<Fact> = (1..5).map(|i| fact("e", &[i, i + 1])).collect();
        let stats = v.apply(&inserts, &[]).unwrap().stats;
        assert_eq!(stats.edb_inserts, 4);
        assert_eq!(v.model().count("p"), 10);
        assert_matches_recompute(&v);
    }

    #[test]
    fn a_tuple_with_two_derivations_outlives_the_loss_of_one() {
        let prog = Program::parse("q(X) :- e(X, Y).\nr(X) :- q(X), n(X).").unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[fact("e", &[1, 2]), fact("e", &[1, 3]), fact("n", &[1])],
            &[],
        )
        .unwrap();
        assert!(v.model().contains("r", &[Value::Int(1)]));
        // q(1) has two derivations; deleting one edge over-deletes it
        // and the other rederives it.
        v.apply(&[], &[fact("e", &[1, 2])]).unwrap();
        assert!(v.model().contains("q", &[Value::Int(1)]));
        assert!(v.model().contains("r", &[Value::Int(1)]));
        assert_matches_recompute(&v);
        // Deleting the second derivation drops the chain.
        v.apply(&[], &[fact("e", &[1, 3])]).unwrap();
        assert!(!v.model().contains("q", &[Value::Int(1)]));
        assert!(!v.model().contains("r", &[Value::Int(1)]));
        assert_matches_recompute(&v);
    }

    #[test]
    fn tell_untell_idempotence_on_multiplicity() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        let e12 = [Value::Int(1), Value::Int(2)];
        // TELL the same fact twice: presence once, multiplicity 2.
        v.apply(&[fact("e", &[1, 2]), fact("e", &[1, 2])], &[])
            .unwrap();
        assert_eq!(v.support("e", &e12), 2);
        assert_eq!(v.model().count("e"), 1);
        // One UNTELL must not delete a fact told independently; told
        // once again, it no longer needs a multiplicity entry.
        let stats = v.apply(&[], &[fact("e", &[1, 2])]).unwrap().stats;
        assert_eq!(stats.delta_tuples(), 0, "no presence change");
        assert!(v.model().contains("p", &e12));
        assert_eq!(v.support("e", &e12), 1);
        assert!(v.multiplicity.is_empty());
        // The second UNTELL removes it; a third is a no-op.
        v.apply(&[], &[fact("e", &[1, 2])]).unwrap();
        assert!(!v.model().contains("p", &e12));
        assert_eq!(v.support("e", &e12), 0);
        let stats = v.apply(&[], &[fact("e", &[1, 2])]).unwrap().stats;
        assert_eq!(stats.delta_tuples(), 0, "UNTELL of an absent fact");
        assert_eq!(v.support("p", &e12), 0, "derived tuples are never told");
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
        // A recursive stratum (isaT) feeding a non-recursive one (inT)
        // — the shape the object base's deductive closure takes.
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
        // Same fact deleted and re-inserted in one batch: no churn, and
        // neither change is reported.
        let applied = v
            .apply(&[fact("e", &[1, 2])], &[fact("e", &[1, 2])])
            .unwrap();
        assert_eq!(applied.stats.delta_tuples(), 0);
        assert_eq!((applied.inserted.total(), applied.deleted.total()), (0, 0));
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
    fn a_refused_batch_changes_nothing() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(&[fact("e", &[1, 2]), fact("e", &[1, 2])], &[])
            .unwrap();
        // A derived predicate or a wrong arity anywhere in the batch
        // refuses it before the good facts in front are counted.
        assert!(v
            .apply(
                &[fact("e", &[2, 3]), fact("p", &[1, 2])],
                &[fact("e", &[1, 2])]
            )
            .is_err());
        assert!(v
            .apply(&[fact("e", &[1, 2]), fact("e", &[7])], &[])
            .is_err());
        assert_eq!(v.support("e", &[Value::Int(1), Value::Int(2)]), 2);
        assert_eq!(v.model().count("e"), 1);
        assert_matches_recompute(&v);
    }

    #[test]
    fn a_new_predicate_at_two_arities_is_refused_before_anything_changes() {
        let prog = Program::parse(TC).unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        v.apply(
            &[fact("e", &[1, 2]), fact("e", &[1, 2]), fact("e", &[2, 3])],
            &[],
        )
        .unwrap();
        let model = |v: &MaterializedView| {
            let mut t: Vec<_> = ["e", "p", "n"]
                .iter()
                .flat_map(|pred| v.model().tuples(pred).map(move |row| (*pred, row)))
                .collect();
            t.sort();
            t
        };
        let before = model(&v);
        // `n` is new to the model, so only the batch fixes its arity;
        // the refusal must come before the deletes in front are counted.
        let err = v.apply(
            &[fact("e", &[3, 4]), fact("n", &[1]), fact("n", &[1, 2])],
            &[fact("e", &[1, 2]), fact("e", &[2, 3])],
        );
        assert!(
            matches!(err, Err(DatalogError::ArityMismatch { .. })),
            "{err:?}"
        );
        assert!(v
            .apply(&[], &[fact("n", &[1]), fact("n", &[1, 2])])
            .is_err());
        assert_eq!(model(&v), before);
        assert_eq!(v.support("e", &[Value::Int(1), Value::Int(2)]), 2);
        assert_eq!(v.support("e", &[Value::Int(2), Value::Int(3)]), 1);
        assert_eq!(v.support("n", &[Value::Int(1)]), 0);
        assert_matches_recompute(&v);
        // One arity per new predicate is accepted.
        v.apply(&[fact("n", &[1]), fact("n", &[2])], &[]).unwrap();
        assert_eq!(v.model().count("n"), 2);
    }

    #[test]
    fn load_builds_what_apply_from_empty_builds() {
        let prog = Program::parse(&format!("{TC}\nq(X) :- p(X, X).")).unwrap();
        let facts = [fact("e", &[1, 2]), fact("e", &[2, 1]), fact("e", &[2, 3])];
        let mut applied = MaterializedView::new(prog.clone()).unwrap();
        applied.apply(&facts, &[]).unwrap();
        let loaded = MaterializedView::load(prog.clone(), &applied.edb(), &[]).unwrap();
        assert!(loaded.multiplicity.is_empty(), "no fact was told twice");
        assert_matches_recompute(&loaded);
        for pred in ["e", "p", "q"] {
            let sorted = |v: &MaterializedView| {
                let mut t: Vec<_> = v.model().tuples(pred).collect();
                t.sort();
                t
            };
            assert_eq!(sorted(&loaded), sorted(&applied), "`{pred}`");
        }
        // One store: the extensional database is the model's own
        // relations, and the model took them from what it was loaded
        // from without copying.
        let e = intern("e");
        assert!(loaded.edb().shares_relation(loaded.model(), e));
        assert!(loaded.model().shares_relation(&applied.edb(), e));
        assert!(applied.edb().shares_relation(applied.model(), e));
        assert_eq!(loaded.edb().preds(), vec!["e"]);

        // A duplicate is one more telling of a tuple the database holds.
        let e23 = (e, vec![IVal::Int(2), IVal::Int(3)]);
        let mut twice =
            MaterializedView::load(prog.clone(), &applied.edb(), &[e23.clone(), e23]).unwrap();
        assert_eq!(twice.support("e", &[Value::Int(2), Value::Int(3)]), 3);
        twice
            .apply(&[], &[fact("e", &[2, 3]), fact("e", &[2, 3])])
            .unwrap();
        assert!(twice.model().contains("p", &[Value::Int(1), Value::Int(3)]));
        twice.apply(&[], &[fact("e", &[2, 3])]).unwrap();
        assert!(!twice.model().contains("p", &[Value::Int(1), Value::Int(3)]));
        assert_matches_recompute(&twice);
        let absent = (e, vec![IVal::Int(9), IVal::Int(9)]);
        assert!(MaterializedView::load(prog.clone(), &applied.edb(), &[absent]).is_err());
        // Tuples of a predicate the program derives are not extensional.
        let mut derived = applied.edb();
        derived
            .insert("p", vec![Value::Int(5), Value::Int(6)])
            .unwrap();
        assert!(MaterializedView::load(prog, &derived, &[]).is_err());
    }

    #[test]
    fn apply_reports_the_join_work_of_the_refresh() {
        // 16 disjoint depth-64 chains; untelling the last edge of one
        // of them must cost joins over that chain only, and say so.
        const DEPTH: i64 = 64;
        let prog =
            Program::parse("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).")
                .unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        let load: Vec<Fact> = (0..16)
            .flat_map(|c| (0..DEPTH).map(move |d| fact("edge", &[c * 100 + d, c * 100 + d + 1])))
            .collect();
        let loaded = v.apply(&load, &[]).unwrap().stats;
        assert!(loaded.derivations >= loaded.derived_changes);
        let paths = v.model().count("path");
        assert_eq!(paths, 16 * 64 * 65 / 2);

        let stats = v
            .apply(&[], &[fact("edge", &[DEPTH - 1, DEPTH])])
            .unwrap()
            .stats;
        assert_eq!(stats.derived_changes, 64, "path(x, 64) for every x < 64");
        assert!(stats.derivations >= 64, "each lost path was derived once");
        assert!(stats.index_probes > 0);
        assert!(
            stats.tuples_scanned * 10 < paths,
            "scanned {} of {paths} path tuples",
            stats.tuples_scanned
        );
        assert_matches_recompute(&v);
    }

    #[test]
    fn unstratifiable_program_rejected() {
        let prog = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        assert!(MaterializedView::new(prog).is_err());
    }

    #[test]
    fn random_churn_matches_recompute() {
        // A deterministic xorshift walk over a small universe: the
        // cheap in-crate cousin of the differential proptest. Beside
        // the recursive `p` the program has what a derivation count
        // used to maintain: `some` with one derivation per out-edge
        // and one more through `f` (they go one by one, the tuple with
        // the last), `q` over a recursive predicate, and negation over
        // both of these maintained predicates.
        let prog = Program::parse(&format!(
            "{TC}\n\
             q(X) :- p(X, X).\n\
             some(X) :- e(X, Y).\n\
             some(X) :- f(X).\n\
             lonely(X) :- n(X), not some(X).\n\
             acyclic(X, Y) :- e(X, Y), n(Y), not q(Y)."
        ))
        .unwrap();
        let mut v = MaterializedView::new(prog).unwrap();
        let mut told: HashMap<Fact, i64> = HashMap::new();
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let universe: Vec<Fact> = (0..4)
            .flat_map(|x| (0..4).map(move |y| fact("e", &[x, y])))
            .chain((0..4).flat_map(|x| [fact("f", &[x]), fact("n", &[x])]))
            .collect();
        for _ in 0..300 {
            let f = universe[(step() % universe.len() as u64) as usize].clone();
            let g = universe[(step() % universe.len() as u64) as usize].clone();
            let (inserts, deletes) = match step() % 6 {
                0 | 1 => (vec![f], vec![]),
                2 => (vec![], vec![f]),
                // Told twice in one batch; a later UNTELL leaves it.
                3 => (vec![f.clone(), f], vec![g]),
                // Untold and told in one batch: nets out if present.
                4 => (vec![f.clone()], vec![f]),
                _ => (vec![f], vec![g]),
            };
            v.apply(&inserts, &deletes).unwrap();
            for d in &deletes {
                if let Some(n) = told.get_mut(d) {
                    *n = (*n - 1).max(0);
                }
            }
            for i in inserts {
                *told.entry(i).or_insert(0) += 1;
            }
            assert_matches_recompute(&v);
            for fact in &universe {
                let naive = told.get(fact).copied().unwrap_or(0);
                assert_eq!(v.support(&fact.0, &fact.1), naive, "{fact:?}");
            }
            assert!(v.multiplicity.values().all(|&n| n >= 2));
        }
        assert!(!told.is_empty() && v.model().count("some") > 0);
    }
}
