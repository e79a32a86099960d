//! The datalog-side checks — safety, stratification, predicate
//! references, dead rules, duplicates/subsumption, and the dataflow
//! tier (sorts, termination, cost) — organized as an **incremental
//! per-SCC engine**.
//!
//! The combined rule base (deductive base program + stored rules +
//! the units under admission) is condensed into strongly connected
//! components, processed in dependency order. Each component's
//! analysis result is cached under a fingerprint of everything it can
//! observe: its own rules (text, subject, line), the arity/defined
//! authority for every predicate it references, and the sort/
//! cardinality exports of its upstream dependencies. A TELL that adds
//! one rule therefore re-analyzes only the dirty component and the
//! components whose fingerprints its exports change — O(delta), not
//! O(rule base). The two checks that are inherently global —
//! CB005 dead rules (a reachability sweep) and the authority maps —
//! are linear passes that run every call.

use crate::{cost, dataflow, source, Diagnostic, LintContext};
use datalog::ast::{Atom, Program, Rule, Term};
use datalog::predgraph::DepGraph;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One rule under analysis, with its reporting identity.
#[derive(Debug, Clone)]
pub struct RuleUnit {
    /// How diagnostics refer to the rule (e.g. ``rule `Game!w` `` or
    /// the rule text itself).
    pub subject: String,
    /// 1-based source line, when known.
    pub line: Option<usize>,
    /// The parsed rule.
    pub rule: Rule,
}

/// A rule inside one SCC's analysis group. Base rules (trusted at
/// their own admission) carry no subject and produce no diagnostics;
/// they still contribute to inference and cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SccRule<'a> {
    /// The parsed rule.
    pub rule: &'a Rule,
    /// Reporting identity; `None` for trusted base rules.
    pub subject: Option<&'a str>,
    /// 1-based source line, when known.
    pub line: Option<usize>,
    /// Hash of the rule's rendering, precomputed once (for base rules,
    /// once per base refresh) so the per-call fingerprint sweep does
    /// not re-render O(rule base) text.
    pub text_hash: u64,
}

/// The per-SCC fingerprint cache, keyed by content: an entry's
/// fingerprint covers everything its analysis read, and the base is
/// rebuilt whenever the stored rules or the schema change, so one
/// instance serves lints against any version of a KB (the GKBMS holds
/// one behind a mutex, for admission at the head and `Lint` at any
/// pin). A fresh instance makes every entry point behave like a full
/// from-scratch lint.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    entries: HashMap<u64, CacheEntry>,
    base_key: Option<u64>,
    base: Vec<Rule>,
    /// Per-rule [`rule_hash`] for `base`, parallel to it.
    base_hashes: Vec<u64>,
    /// First-seen arities over schema + base (heads and body atoms).
    base_arities: HashMap<String, usize>,
    /// Schema predicates plus base rule heads.
    base_defined: HashSet<String>,
    /// Dependency graph over the base alone; per call a clone is
    /// extended with the delta instead of re-interning O(rule base).
    base_graph: DepGraph,
    generation: u64,
    /// Cumulative count of SCCs actually (re-)analyzed.
    pub sccs_reanalyzed: u64,
    /// Cumulative count of SCCs served from the fingerprint cache.
    pub fingerprint_hits: u64,
}

#[derive(Debug)]
struct CacheEntry {
    diags: Vec<Diagnostic>,
    sorts: Vec<(String, Vec<dataflow::Sort>)>,
    cards: Vec<(String, f64)>,
    generation: u64,
}

impl AnalysisCache {
    /// An empty cache — the first lint through it is a full analysis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-parses the trusted base (deductive base program + stored
    /// rules) — and re-derives everything O(base) that only depends on
    /// it: per-rule text hashes and the arity/defined authorities —
    /// only when the stored rule texts or the schema change.
    fn refresh_base(&mut self, ctx: &LintContext) {
        let mut h = DefaultHasher::new();
        for t in &ctx.stored_rules {
            t.hash(&mut h);
        }
        let mut schema: Vec<(&String, &usize)> = ctx.schema.iter().collect();
        schema.sort_unstable();
        schema.hash(&mut h);
        let key = h.finish();
        if self.base_key == Some(key) {
            return;
        }
        let mut base = objectbase::query::base_program().rules;
        for text in &ctx.stored_rules {
            // Unparsable stored text is skipped — it was validated at
            // its own admission.
            if let Ok(p) = Program::parse_unchecked(&dotted(text)) {
                base.extend(p.rules);
            }
        }
        self.base_hashes = base.iter().map(rule_hash).collect();
        self.base_arities = ctx.schema.clone();
        self.base_defined = ctx.schema.keys().cloned().collect();
        for rule in &base {
            self.base_defined.insert(rule.head.pred.clone());
            for a in atoms_of(rule) {
                if !self.base_arities.contains_key(&a.pred) {
                    self.base_arities.insert(a.pred.clone(), a.args.len());
                }
            }
        }
        self.base_graph = DepGraph::of_rules(base.iter());
        self.base = base;
        self.base_key = Some(key);
    }

    /// Drops entries not touched in the last couple of generations so
    /// retracted rules do not pin their analyses forever.
    fn evict(&mut self) {
        let generation = self.generation;
        self.entries
            .retain(|_, e| generation.saturating_sub(e.generation) <= 2);
    }
}

/// Lints a standalone datalog source: the rules in `src` joined with
/// the context's stored rules and the deductive base program.
/// `% query: p` directives name extra reachability roots; `% view:` /
/// `% churn:` directives run the CB013 view-maintainability lint.
pub fn lint_datalog_src(src: &str, ctx: &LintContext) -> Vec<Diagnostic> {
    lint_datalog_src_cached(src, ctx, &mut AnalysisCache::new())
}

/// [`lint_datalog_src`] through a long-lived [`AnalysisCache`].
pub fn lint_datalog_src_cached(
    src: &str,
    ctx: &LintContext,
    cache: &mut AnalysisCache,
) -> Vec<Diagnostic> {
    let program = match Program::parse_unchecked(src) {
        Ok(p) => p,
        Err(e) => {
            return vec![Diagnostic::error("CB000", "program", e.to_string())];
        }
    };
    let lines = source::statement_lines(src);
    let units: Vec<RuleUnit> = program
        .rules
        .into_iter()
        .enumerate()
        .map(|(i, rule)| RuleUnit {
            subject: format!("rule `{rule}`"),
            line: lines.get(i).copied(),
            rule,
        })
        .collect();
    let mut roots = source::query_directives(src);
    let explicit_roots = !roots.is_empty();
    roots.extend(ctx.roots.iter().cloned());
    let mut diags = lint_rules_cached(
        &units,
        ctx,
        &roots,
        explicit_roots || ctx.assume_new_heads_queryable,
        cache,
    );
    if let Some(view) = source::view_directive(src) {
        let program = Program {
            rules: units.iter().map(|u| u.rule.clone()).collect(),
        };
        let (tells, untells) = source::churn_directive(src).unwrap_or((0, 0));
        let cards = ctx.edb_cards();
        cost::lint_view(&view, &program, &cards, tells, untells, &mut diags);
    }
    crate::sort_diagnostics(&mut diags);
    diags
}

/// Runs the datalog checks over `units` in the context of the stored
/// rule base, from scratch. `check_reachability` gates the dead-rule
/// check: offline it only makes sense when the file says what is
/// queried.
pub fn lint_rules(
    units: &[RuleUnit],
    ctx: &LintContext,
    roots: &[String],
    check_reachability: bool,
) -> Vec<Diagnostic> {
    lint_rules_cached(
        units,
        ctx,
        roots,
        check_reachability,
        &mut AnalysisCache::new(),
    )
}

/// The incremental engine: [`lint_rules`] through a long-lived
/// [`AnalysisCache`]. With a fresh cache the result is identical to a
/// full analysis (the differential proptest in `tests/` holds the two
/// equal under random TELL/UNTELL mixes).
pub fn lint_rules_cached(
    units: &[RuleUnit],
    ctx: &LintContext,
    roots: &[String],
    check_reachability: bool,
    cache: &mut AnalysisCache,
) -> Vec<Diagnostic> {
    cache.generation += 1;
    cache.refresh_base(ctx);
    let generation = cache.generation;

    // Every rule under analysis: the trusted base first, then the
    // units, so "earlier rule wins" tie-breaks match admission order.
    let all: Vec<SccRule<'_>> = cache
        .base
        .iter()
        .zip(cache.base_hashes.iter())
        .map(|(rule, &text_hash)| SccRule {
            rule,
            subject: None,
            line: None,
            text_hash,
        })
        .chain(units.iter().map(|u| SccRule {
            rule: &u.rule,
            subject: Some(u.subject.as_str()),
            line: u.line,
            text_hash: rule_hash(&u.rule),
        }))
        .collect();

    let mut graph = cache.base_graph.clone();
    graph.extend_rules(units.iter().map(|u| &u.rule));
    let sccs = graph.sccs();

    // Rules grouped by the component their head belongs to, in
    // admission order within each group.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); sccs.comps.len()];
    for (i, s) in all.iter().enumerate() {
        if let Some(n) = graph.pred_index(&s.rule.head.pred) {
            groups[sccs.comp_of[n]].push(i);
        }
    }

    // Global reference authorities: the schema + base portion is
    // cached in `refresh_base`; only the units' O(delta) contribution
    // is folded in per call.
    let mut arities = cache.base_arities.clone();
    let mut defined = cache.base_defined.clone();
    for u in units {
        defined.insert(u.rule.head.pred.clone());
    }
    for u in units {
        for a in atoms_of(&u.rule) {
            if !arities.contains_key(&a.pred) {
                arities.insert(a.pred.clone(), a.args.len());
            }
        }
    }

    // Exports accumulate dependency-first: `sccs()` emits components
    // so every edge points at an earlier-or-equal index.
    let mut sigs: HashMap<String, Vec<dataflow::Sort>> = HashMap::new();
    // Measured only when there is a delta to cost: the trusted base
    // produces no cost diagnostics of its own.
    let mut cards = if units.is_empty() {
        HashMap::new()
    } else {
        ctx.edb_cards()
    };

    let mut diags = Vec::new();
    for (c, group) in groups.iter().enumerate() {
        if group.is_empty() {
            // A pure-EDB predicate: nothing to analyze, nothing to
            // export beyond the measured cardinality already seeded.
            continue;
        }
        let scc_preds: Vec<&str> = sccs.comps[c].iter().map(|&n| graph.name(n)).collect();
        let recursive = sccs.is_recursive(&graph, c);
        let fp = fingerprint(
            &scc_preds, group, &all, recursive, &arities, &defined, &sigs, &cards,
        );
        if let Some(e) = cache.entries.get_mut(&fp) {
            e.generation = generation;
            cache.fingerprint_hits += 1;
            for (p, s) in &e.sorts {
                sigs.insert(p.clone(), s.clone());
            }
            for (p, v) in &e.cards {
                cards.insert(p.clone(), *v);
            }
            diags.extend(e.diags.iter().cloned());
            continue;
        }
        cache.sccs_reanalyzed += 1;
        let rules: Vec<SccRule<'_>> = group.iter().map(|&i| all[i]).collect();
        let mut scc_diags = Vec::new();
        for r in &rules {
            check_safety(r, &mut scc_diags);
            check_predicates_rule(r, &arities, &defined, &mut scc_diags);
        }
        check_stratification_scc(&graph, &sccs.comps[c], &rules, &mut scc_diags);
        check_duplicates(&rules, &mut scc_diags);
        dataflow::infer_scc_sorts(&scc_preds, &rules, &mut sigs, &mut scc_diags);
        if recursive {
            let pred_set: HashSet<&str> = scc_preds.iter().copied().collect();
            dataflow::check_termination(&pred_set, &rules, &mut scc_diags);
        }
        cost::estimate_scc(&scc_preds, &rules, recursive, &mut cards, &mut scc_diags);
        let sorts = scc_preds
            .iter()
            .filter_map(|p| sigs.get(*p).map(|s| ((*p).to_string(), s.clone())))
            .collect();
        let exported_cards = scc_preds
            .iter()
            .filter_map(|p| cards.get(*p).map(|v| ((*p).to_string(), *v)))
            .collect();
        cache.entries.insert(
            fp,
            CacheEntry {
                diags: scc_diags.clone(),
                sorts,
                cards: exported_cards,
                generation,
            },
        );
        diags.extend(scc_diags);
    }

    // CB005 is inherently global (reachability from the query roots):
    // a linear sweep over the graph we already built, never cached.
    if check_reachability {
        check_dead_rules(units, &graph, ctx, roots, &mut diags);
    }

    cache.evict();
    crate::sort_diagnostics(&mut diags);
    diags
}

/// Everything one component's analysis can observe, hashed: its rules
/// (text, subject, line), whether the component is recursive, and per
/// referenced predicate the arity/defined authority plus the upstream
/// sort and cardinality exports. Equal fingerprint ⇒ equal analysis.
#[allow(clippy::too_many_arguments)]
fn fingerprint(
    scc_preds: &[&str],
    group: &[usize],
    all: &[SccRule<'_>],
    recursive: bool,
    arities: &HashMap<String, usize>,
    defined: &HashSet<String>,
    sigs: &HashMap<String, Vec<dataflow::Sort>>,
    cards: &HashMap<String, f64>,
) -> u64 {
    let mut h = DefaultHasher::new();
    recursive.hash(&mut h);
    let mut names: Vec<&str> = scc_preds.to_vec();
    names.sort_unstable();
    for p in &names {
        p.hash(&mut h);
    }
    for &i in group {
        let s = &all[i];
        match s.subject {
            None => 0u8.hash(&mut h),
            Some(sub) => {
                1u8.hash(&mut h);
                sub.hash(&mut h);
            }
        }
        s.line.hash(&mut h);
        s.text_hash.hash(&mut h);
    }
    let mut refs: Vec<&str> = group
        .iter()
        .flat_map(|&i| atoms_of(all[i].rule).map(|a| a.pred.as_str()))
        .collect();
    refs.sort_unstable();
    refs.dedup();
    for p in refs {
        p.hash(&mut h);
        arities.get(p).hash(&mut h);
        defined.contains(p).hash(&mut h);
        match sigs.get(p) {
            Some(sig) => {
                1u8.hash(&mut h);
                sig.hash(&mut h);
            }
            None => match dataflow::declared_sorts(p) {
                Some(sig) => {
                    1u8.hash(&mut h);
                    sig.hash(&mut h);
                }
                None => 0u8.hash(&mut h),
            },
        }
        cost::card(cards, p).to_bits().hash(&mut h);
    }
    h.finish()
}

/// Hash of a rule's rendering, streamed without allocating a String.
fn rule_hash(rule: &Rule) -> u64 {
    let mut h = DefaultHasher::new();
    let _ = fmt::write(&mut HashWriter(&mut h), format_args!("{rule}"));
    h.finish()
}

struct HashWriter<'a, H: Hasher>(&'a mut H);

impl<H: Hasher> fmt::Write for HashWriter<'_, H> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn atoms_of(r: &Rule) -> impl Iterator<Item = &Atom> {
    std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom))
}

/// Appends the terminating dot datalog requires, if missing.
pub fn dotted(text: &str) -> String {
    let t = text.trim();
    if t.ends_with('.') {
        t.to_string()
    } else {
        format!("{t}.")
    }
}

/// CB001 — range restriction: every head variable and every variable
/// under negation must be bound by a positive body literal.
fn check_safety(u: &SccRule<'_>, diags: &mut Vec<Diagnostic>) {
    let Some(subject) = u.subject else { return };
    let positive: Vec<&str> = u
        .rule
        .body
        .iter()
        .filter(|l| !l.negated)
        .flat_map(|l| l.atom.vars())
        .collect();
    for v in u.rule.head.vars() {
        if !positive.contains(&v) {
            diags.push(
                Diagnostic::error(
                    "CB001",
                    subject,
                    format!(
                        "unsafe rule: head variable `{v}` of `{}` is not bound by any \
                         positive body literal",
                        u.rule.head.pred
                    ),
                )
                .with_witness(format!("variable `{v}` in `{}`", u.rule))
                .at_line(u.line),
            );
        }
    }
    for lit in u.rule.body.iter().filter(|l| l.negated) {
        for v in lit.atom.vars() {
            if !positive.contains(&v) {
                diags.push(
                    Diagnostic::error(
                        "CB001",
                        subject,
                        format!(
                            "unsafe rule: variable `{v}` under negation in a rule for \
                             `{}` is not bound by any positive body literal",
                            u.rule.head.pred
                        ),
                    )
                    .with_witness(format!("`not {}` in `{}`", lit.atom, u.rule))
                    .at_line(u.line),
                );
            }
        }
    }
}

/// CB003/CB004 — every referenced predicate must be defined (by the
/// schema, the base, or some rule) and used with one arity. The
/// authority maps are first-seen over the whole admission-ordered rule
/// base, so checking against the final maps equals the sequential
/// check: the first occurrence *is* the map entry it is checked
/// against.
fn check_predicates_rule(
    u: &SccRule<'_>,
    arities: &HashMap<String, usize>,
    defined: &HashSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(subject) = u.subject else { return };
    for atom in atoms_of(u.rule) {
        if let Some(&n) = arities.get(&atom.pred) {
            if n != atom.args.len() {
                diags.push(
                    Diagnostic::error(
                        "CB004",
                        subject,
                        format!(
                            "predicate `{}` used with arity {}, but it is declared \
                             with arity {n}",
                            atom.pred,
                            atom.args.len()
                        ),
                    )
                    .with_witness(format!("`{atom}` in `{}`", u.rule))
                    .at_line(u.line),
                );
            }
        }
    }
    for lit in &u.rule.body {
        if !defined.contains(&lit.atom.pred) {
            diags.push(
                Diagnostic::warning(
                    "CB003",
                    subject,
                    format!(
                        "references predicate `{}`, which no rule defines and the \
                         schema does not declare",
                        lit.atom.pred
                    ),
                )
                .with_witness(format!("`{}` in `{}`", lit.atom, u.rule))
                .at_line(u.line),
            );
        }
    }
}

/// CB002 — recursion through negation. Every cycle of the dependency
/// graph lies within one SCC, so scanning each component finds every
/// negative cycle the global scan would.
fn check_stratification_scc(
    graph: &DepGraph,
    comp: &[usize],
    rules: &[SccRule<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    let within: HashSet<usize> = comp.iter().copied().collect();
    let Some(cycle) = graph.negative_cycle_within(&within) else {
        return;
    };
    let on_cycle: HashSet<&str> = cycle.iter().map(|s| s.as_str()).collect();
    let culprit = rules
        .iter()
        .find(|r| r.subject.is_some() && on_cycle.contains(r.rule.head.pred.as_str()));
    let (subject, line) = match culprit {
        Some(r) => (r.subject.unwrap_or_default().to_string(), r.line),
        None => ("rule base".to_string(), None),
    };
    diags.push(
        Diagnostic::error(
            "CB002",
            subject,
            "the rule base is not stratifiable: recursion through negation",
        )
        .with_witness(format!("negative cycle {}", cycle.join(" -> ")))
        .at_line(line),
    );
}

/// CB005 — a rule is dead when its head predicate is unreachable from
/// every query root.
fn check_dead_rules(
    units: &[RuleUnit],
    graph: &DepGraph,
    ctx: &LintContext,
    roots: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    let mut all_roots: Vec<String> = roots.to_vec();
    if ctx.assume_new_heads_queryable {
        all_roots.extend(units.iter().map(|u| u.rule.head.pred.clone()));
    }
    if all_roots.is_empty() {
        return;
    }
    let live = graph.reachable_from(all_roots.iter().map(|s| s.as_str()));
    for u in units {
        let Some(i) = graph.pred_index(&u.rule.head.pred) else {
            continue;
        };
        if !live.contains(&i) {
            diags.push(
                Diagnostic::warning(
                    "CB005",
                    &u.subject,
                    format!(
                        "dead rule: no query or other rule can reach predicate `{}`",
                        u.rule.head.pred
                    ),
                )
                .with_witness(format!("query roots: {}", all_roots.join(", ")))
                .at_line(u.line),
            );
        }
    }
}

/// CB006 — a rule that duplicates, is subsumed by, or subsumes an
/// earlier rule is redundant. Duplication and θ-subsumption both
/// require identical head predicates, so comparing within the head's
/// component group sees every pair the global quadratic scan would.
fn check_duplicates(rules: &[SccRule<'_>], diags: &mut Vec<Diagnostic>) {
    let mut earlier: Vec<&SccRule<'_>> = Vec::new();
    for r in rules {
        let Some(subject) = r.subject else {
            earlier.push(r);
            continue;
        };
        let mut flagged = false;
        for other in &earlier {
            if other.rule.head.pred != r.rule.head.pred {
                continue;
            }
            let (kind, witness) = if canonical(r.rule) == canonical(other.rule) {
                ("duplicate of", format!("both read `{}`", other.rule))
            } else if subsumes(other.rule, r.rule) {
                (
                    "subsumed by",
                    format!("`{}` already derives every instance", other.rule),
                )
            } else if subsumes(r.rule, other.rule) {
                ("subsumes", format!("`{}` becomes redundant", other.rule))
            } else {
                continue;
            };
            diags.push(
                Diagnostic::warning(
                    "CB006",
                    subject,
                    format!("redundant rule: {kind} `{}`", other.rule),
                )
                .with_witness(witness)
                .at_line(r.line),
            );
            flagged = true;
            break;
        }
        if !flagged {
            earlier.push(r);
        }
    }
}

/// The rule with variables renamed `V0, V1, …` in order of first
/// occurrence, so α-equivalent rules print identically.
fn canonical(rule: &Rule) -> String {
    let mut names: HashMap<String, String> = HashMap::new();
    let rename = |t: &Term, names: &mut HashMap<String, String>| match t {
        Term::Var(v) => {
            let n = names.len();
            Term::var(
                names
                    .entry(v.clone())
                    .or_insert_with(|| format!("V{n}"))
                    .clone(),
            )
        }
        c => c.clone(),
    };
    let mut r = rule.clone();
    r.head.args = r.head.args.iter().map(|t| rename(t, &mut names)).collect();
    for l in &mut r.body {
        l.atom.args = l.atom.args.iter().map(|t| rename(t, &mut names)).collect();
    }
    r.to_string()
}

/// θ-subsumption: `a` subsumes `b` when a substitution maps `a`'s head
/// onto `b`'s head and every literal of `a`'s body onto some literal
/// of `b`'s body. Then `a` derives everything `b` does.
fn subsumes(a: &Rule, b: &Rule) -> bool {
    let mut sub = HashMap::new();
    if !match_atom(&a.head, &b.head, &mut sub) {
        return false;
    }
    match_body(&a.body, &b.body, &sub)
}

fn match_body(
    rest: &[datalog::ast::Literal],
    targets: &[datalog::ast::Literal],
    sub: &HashMap<String, Term>,
) -> bool {
    let Some((first, tail)) = rest.split_first() else {
        return true;
    };
    for t in targets {
        if t.negated != first.negated {
            continue;
        }
        let mut trial = sub.clone();
        if match_atom(&first.atom, &t.atom, &mut trial) && match_body(tail, targets, &trial) {
            return true;
        }
    }
    false
}

fn match_atom(a: &Atom, b: &Atom, sub: &mut HashMap<String, Term>) -> bool {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return false;
    }
    for (x, y) in a.args.iter().zip(&b.args) {
        match x {
            Term::Const(_) => {
                if x != y {
                    return false;
                }
            }
            Term::Var(v) => match sub.get(v) {
                Some(bound) => {
                    if bound != y {
                        return false;
                    }
                }
                None => {
                    sub.insert(v.clone(), y.clone());
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_datalog_src(src, &LintContext::offline())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let d = lint(
            "% query: path\n\
             edge(a, b).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_rule_names_variable_and_predicate() {
        let d = lint("q(X, Y) :- r(X).\nr(a).");
        assert_eq!(codes(&d), vec!["CB001"]);
        assert!(d[0].message.contains("`Y`"));
        assert!(d[0].message.contains("`q`"));
        assert_eq!(d[0].line, Some(1));
    }

    #[test]
    fn negative_cycle_witnessed() {
        let d = lint("move(a, b).\nwin(X) :- move(X, Y), not win(Y).");
        assert!(codes(&d).contains(&"CB002"), "{d:?}");
        let cb002 = d.iter().find(|d| d.code == "CB002").unwrap();
        assert!(cb002.witness.contains("win -> win"), "{cb002:?}");
        assert_eq!(cb002.severity, Severity::Error);
    }

    #[test]
    fn undeclared_predicate_warned() {
        let d = lint("q(X) :- ghost(X).");
        assert_eq!(codes(&d), vec!["CB003"]);
        assert!(d[0].message.contains("`ghost`"));
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn schema_arity_mismatch_rejected() {
        let d = lint("q(X) :- attr(X, author).");
        assert!(codes(&d).contains(&"CB004"), "{d:?}");
    }

    #[test]
    fn dead_rule_flagged_only_with_roots() {
        let live = "edge(a, b).\npath(X, Y) :- edge(X, Y).";
        assert!(lint(live).is_empty(), "no directive, no dead-check");
        let dead = "% query: path\n\
                    edge(a, b).\n\
                    path(X, Y) :- edge(X, Y).\n\
                    orphan(X) :- edge(X, X).";
        let d = lint(dead);
        assert_eq!(codes(&d), vec!["CB005"]);
        assert!(d[0].message.contains("`orphan`"));
    }

    #[test]
    fn duplicate_and_subsumed_rules_flagged() {
        let d = lint(
            "edge(a, b).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(U, V) :- edge(U, V).",
        );
        assert_eq!(codes(&d), vec!["CB006"]);
        assert!(d[0].message.contains("duplicate"));
        let d = lint(
            "edge(a, b).\nred(a).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Y), red(X).",
        );
        assert_eq!(codes(&d), vec!["CB006"]);
        assert!(d[0].message.contains("subsumed"), "{d:?}");
    }

    #[test]
    fn subsumption_matcher() {
        let p = Program::parse_unchecked(
            "p(X, Y) :- e(X, Y).\n\
             p(a, Y) :- e(a, Y), f(Y).",
        )
        .unwrap();
        assert!(subsumes(&p.rules[0], &p.rules[1]));
        assert!(!subsumes(&p.rules[1], &p.rules[0]));
    }

    #[test]
    fn syntax_error_is_cb000() {
        let d = lint("p(");
        assert_eq!(codes(&d), vec!["CB000"]);
    }

    #[test]
    fn new_rule_closing_cycle_over_stored_rule_caught() {
        let mut ctx = LintContext::offline();
        ctx.stored_rules
            .push("odd(X) :- succ(Y, X), not even(Y)".into());
        let d = lint_datalog_src("even(X) :- succ(Y, X), not odd(Y).", &ctx);
        assert!(codes(&d).contains(&"CB002"), "{d:?}");
    }

    #[test]
    fn warm_cache_hits_every_clean_component() {
        let ctx = LintContext::offline();
        let src = "edge(a, b).\npath(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).";
        let mut cache = AnalysisCache::new();
        let cold = lint_datalog_src_cached(src, &ctx, &mut cache);
        let analyzed_cold = cache.sccs_reanalyzed;
        assert!(analyzed_cold > 0);
        let warm = lint_datalog_src_cached(src, &ctx, &mut cache);
        assert_eq!(cold, warm);
        assert_eq!(cache.sccs_reanalyzed, analyzed_cold, "warm run re-analyzed");
        assert!(cache.fingerprint_hits >= analyzed_cold);
    }

    #[test]
    fn incremental_matches_full_when_rules_change() {
        let ctx = LintContext::offline();
        let v1 = "edge(a, b).\npath(X, Y) :- edge(X, Y).";
        let v2 = "edge(a, b).\npath(X, Y) :- edge(X, Y).\nq(X, Y) :- path(X, Y), r(X).";
        let mut cache = AnalysisCache::new();
        lint_datalog_src_cached(v1, &ctx, &mut cache);
        let incr = lint_datalog_src_cached(v2, &ctx, &mut cache);
        let full = lint_datalog_src(v2, &ctx);
        assert_eq!(incr, full);
    }

    #[test]
    fn view_directive_runs_cb013() {
        let d = lint(
            "% view: closure\n\
             % churn: 30 20\n\
             r(X, Y) :- e(X, Y).\n\
             r(X, Z) :- e(X, Y), r(Y, Z).",
        );
        assert!(
            d.iter()
                .any(|d| d.code == "CB013" && d.message.contains("churn")),
            "{d:?}"
        );
    }
}
