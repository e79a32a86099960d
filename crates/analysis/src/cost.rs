//! The cost tier of the analyzer: **cardinality and join-cost
//! estimation** (CB012) over the indexed hash-join planner, and the
//! **IVM-maintainability lint** (CB013) for registered views.
//!
//! # CB012 — join-cost estimation
//!
//! The model mirrors the plan the shared join kernel follows in the
//! naive round of an evaluation ([`datalog::seminaive::plan_masks`]):
//! positive literals first, each probing the per-predicate hash index
//! on the binding-pattern mask the kernel derives when it reaches the
//! literal. (Semi-naive rounds and view maintenance start from the
//! delta literal instead, which only makes them cheaper than this
//! estimate.) Costs follow a textbook System-R-style estimate:
//!
//! * a literal with an empty mask is a **scan** — every tuple of the
//!   relation joins with every intermediate row (a cross join unless it
//!   is the first literal);
//! * a literal with `k` bound positions is a **probe** — assuming
//!   `√n` distinct values per column, each probe matches
//!   `n / (√n)^k` tuples;
//! * negated literals are semijoin filters: one probe per row, no
//!   growth.
//!
//! Recursive components iterate to fixpoint; the worst-case stratum
//! cost multiplies the per-round cost by `√rows` estimated rounds.
//! Rules whose worst-case cost exceeds [`COST_BUDGET`] and joins that
//! cross-multiply past [`CROSS_ROWS_WARN`] intermediate rows are
//! flagged. The same machinery renders `\explain` plans.
//!
//! # CB013 — IVM maintainability
//!
//! A registered view's model is carried from one version to the next
//! incrementally (DRed for deletions).
//! Two situations make that expensive enough to warn about at
//! `register_view` time: a recursive stratum estimated at
//! [`DRED_WARN_TUPLES`] or more tuples (every UNTELL triggers
//! overdelete/rederive over it), and an observed TELL/UNTELL mix with a
//! high deletion share (the view will churn).

use crate::checks::SccRule;
use crate::Diagnostic;
use datalog::ast::{Program, Rule};
use datalog::predgraph::DepGraph;
use datalog::seminaive::plan_masks;
use std::collections::HashMap;

/// Assumed rows per EDB relation when no measured cardinality is
/// available (offline `cblint` runs).
pub const DEFAULT_EDB_ROWS: f64 = 1000.0;

/// The measured cardinalities of `edb` (predicate → rows), the form
/// the estimator takes them in.
pub fn cardinalities(edb: &datalog::Database) -> HashMap<String, f64> {
    edb.preds()
        .into_iter()
        .map(|pred| (pred.to_string(), edb.count(pred) as f64))
        .collect()
}

/// Worst-case per-stratum cost above which CB012 warns.
pub const COST_BUDGET: f64 = 1e8;

/// Estimated intermediate rows after an unbound (cross) join above
/// which CB012 warns.
pub const CROSS_ROWS_WARN: f64 = 1e6;

/// Estimated tuples in a recursive stratum above which CB013 warns
/// that DRed maintenance will be expensive.
pub const DRED_WARN_TUPLES: f64 = 10_000.0;

/// Minimum observed TELL/UNTELL events before CB013 trusts the mix.
pub const CHURN_MIN_EVENTS: u64 = 20;

/// Deletion share of the observed mix above which CB013 warns.
pub const CHURN_DELETE_SHARE: f64 = 0.2;

/// Measured or assumed cardinalities, predicate name → estimated rows.
/// Unknown predicates estimate [`DEFAULT_EDB_ROWS`].
pub fn card(cards: &HashMap<String, f64>, pred: &str) -> f64 {
    cards
        .get(pred)
        .copied()
        .unwrap_or(DEFAULT_EDB_ROWS)
        .max(1.0)
}

/// The cost estimate for one rule under the planner's join order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleCost {
    /// Estimated output rows (before head projection).
    pub rows: f64,
    /// Estimated probe/scan work to produce them, one fixpoint round.
    pub cost: f64,
}

/// Estimates one rule bottom-up along the join order and binding masks
/// of the evaluator's naive round ([`plan_masks`]). When `diags` is
/// given, cross joins past [`CROSS_ROWS_WARN`] are reported against
/// `subject` as CB012.
pub fn rule_cost(
    rule: &Rule,
    cards: &HashMap<String, f64>,
    mut report: Option<(&str, Option<usize>, &mut Vec<Diagnostic>)>,
) -> RuleCost {
    let mut rows = 1.0f64;
    let mut cost = 0.0f64;
    for (i, mask) in plan_masks(rule) {
        let lit = &rule.body[i];
        let n = card(cards, &lit.atom.pred);
        if lit.negated {
            // Semijoin filter: one probe per intermediate row.
            cost += rows;
            continue;
        }
        if mask == 0 {
            // Scan: every tuple pairs with every intermediate row.
            cost += rows * n;
            let before = rows;
            rows *= n;
            if before > 1.0 && rows >= CROSS_ROWS_WARN {
                if let Some((subject, line, diags)) = report.as_mut() {
                    diags.push(
                        Diagnostic::warning(
                            "CB012",
                            *subject,
                            format!(
                                "cross join: `{}` has no bound argument at its turn \
                                 in the plan (~{} intermediate rows)",
                                lit.atom,
                                approx(rows)
                            ),
                        )
                        .with_witness(format!("`{}` in `{rule}`", lit.atom))
                        .at_line(*line),
                    );
                }
            }
        } else {
            // Probe on `k` bound columns; √n distinct values per
            // column ⇒ n / (√n)^k matches per probe.
            let k = mask.count_ones() as f64;
            let matches = (n / n.sqrt().powf(k)).max(1.0).min(n);
            cost += rows * (1.0 + matches);
            rows *= matches;
        }
    }
    RuleCost { rows, cost }
}

/// CB012 over one SCC: estimates every rule, derives the component's
/// head cardinalities into `cards`, and reports unit rules whose
/// worst-case stratum cost exceeds [`COST_BUDGET`].
pub(crate) fn estimate_scc(
    scc_preds: &[&str],
    rules: &[SccRule<'_>],
    recursive: bool,
    cards: &mut HashMap<String, f64>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut head_rows: HashMap<&str, f64> = scc_preds.iter().map(|p| (*p, 0.0)).collect();
    let mut round_cost = 0.0f64;
    let mut per_rule: Vec<RuleCost> = Vec::with_capacity(rules.len());
    for r in rules {
        let rc = rule_cost(r.rule, cards, r.subject.map(|s| (s, r.line, &mut *diags)));
        round_cost += rc.cost;
        if let Some(e) = head_rows.get_mut(r.rule.head.pred.as_str()) {
            *e += rc.rows;
        }
        per_rule.push(rc);
    }
    let max_rows = head_rows.values().fold(0.0f64, |a, &b| a.max(b));
    // Fixpoint rounds until nothing new derives: √rows is the classic
    // heuristic between best case (1 round) and worst (rows rounds).
    let rounds = if recursive {
        max_rows.sqrt().max(1.0)
    } else {
        1.0
    };
    let stratum_cost = round_cost * rounds;
    if stratum_cost >= COST_BUDGET {
        // Charge the most expensive unit rule of the component.
        if let Some((r, subject, rc)) = rules
            .iter()
            .zip(&per_rule)
            .filter_map(|(r, rc)| r.subject.map(|s| (r, s, rc)))
            .max_by(|a, b| a.2.cost.total_cmp(&b.2.cost))
        {
            diags.push(
                Diagnostic::warning(
                    "CB012",
                    subject,
                    format!(
                        "estimated evaluation cost ~{} exceeds the budget of {} \
                         (rule contributes ~{} per fixpoint round{})",
                        approx(stratum_cost),
                        approx(COST_BUDGET),
                        approx(rc.cost),
                        if recursive {
                            format!(", ~{} rounds", approx(rounds))
                        } else {
                            String::new()
                        }
                    ),
                )
                .with_witness(format!("`{}`", r.rule))
                .at_line(r.line),
            );
        }
    }
    // Export head cardinalities for downstream components.
    for (p, r) in head_rows {
        cards.insert(p.to_string(), r.max(1.0));
    }
}

/// Renders the evaluator's plan and cost estimate for every rule of
/// `program` — the payload of the `Explain` wire op and `\explain`.
pub fn explain(program: &Program, cards: &HashMap<String, f64>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let graph = DepGraph::of(program);
    let sccs = graph.sccs();
    let mut local: HashMap<String, f64> = cards.clone();
    let mut total = 0.0f64;
    for c in 0..sccs.comps.len() {
        let recursive = sccs.is_recursive(&graph, c);
        let preds: Vec<&str> = sccs.comps[c].iter().map(|&n| graph.name(n)).collect();
        if !program
            .rules
            .iter()
            .any(|r| preds.contains(&r.head.pred.as_str()))
        {
            // Pure-EDB component: keep the measured cardinality.
            continue;
        }
        let mut round_cost = 0.0f64;
        let mut head_rows: HashMap<&str, f64> = preds.iter().map(|p| (*p, 0.0)).collect();
        for rule in program
            .rules
            .iter()
            .filter(|r| preds.contains(&r.head.pred.as_str()))
        {
            let rc = rule_cost(rule, &local, None);
            let _ = writeln!(out, "rule `{rule}`");
            for (i, mask) in plan_masks(rule) {
                let lit = &rule.body[i];
                let n = card(&local, &lit.atom.pred);
                let how = if lit.negated {
                    "filter (negated)".to_string()
                } else if mask == 0 {
                    format!("scan ~{} rows", approx(n))
                } else {
                    format!("probe index on {} bound arg(s)", mask.count_ones())
                };
                let _ = writeln!(out, "  {} `{}`: {how}", i + 1, lit.atom);
            }
            let _ = writeln!(
                out,
                "  => ~{} rows, cost ~{} per round",
                approx(rc.rows),
                approx(rc.cost)
            );
            round_cost += rc.cost;
            if let Some(e) = head_rows.get_mut(rule.head.pred.as_str()) {
                *e += rc.rows;
            }
        }
        let max_rows = head_rows.values().fold(0.0f64, |a, &b| a.max(b));
        let rounds = if recursive {
            max_rows.sqrt().max(1.0)
        } else {
            1.0
        };
        let stratum = round_cost * rounds;
        if round_cost > 0.0 {
            let mut names: Vec<&str> = preds.clone();
            names.sort_unstable();
            let _ = writeln!(
                out,
                "stratum {{{}}}: {}estimated cost ~{}",
                names.join(", "),
                if recursive {
                    format!("recursive, ~{} rounds, ", approx(rounds))
                } else {
                    String::new()
                },
                approx(stratum)
            );
        }
        total += stratum;
        for (p, r) in head_rows {
            local.insert(p.to_string(), r.max(1.0));
        }
    }
    let _ = writeln!(
        out,
        "total estimated cost ~{} (budget {})",
        approx(total),
        approx(COST_BUDGET)
    );
    out
}

/// CB013 over a view's rule program. `cards` carries measured EDB (and
/// stored-IDB) cardinalities; `tells`/`untells` the observed write mix.
pub fn lint_view(
    name: &str,
    program: &Program,
    cards: &HashMap<String, f64>,
    tells: u64,
    untells: u64,
    diags: &mut Vec<Diagnostic>,
) {
    let subject = format!("view `{name}`");
    let graph = DepGraph::of(program);
    let sccs = graph.sccs();
    let mut local: HashMap<String, f64> = cards.clone();
    for c in 0..sccs.comps.len() {
        let preds: Vec<&str> = sccs.comps[c].iter().map(|&n| graph.name(n)).collect();
        if !program
            .rules
            .iter()
            .any(|r| preds.contains(&r.head.pred.as_str()))
        {
            continue;
        }
        let mut head_rows: HashMap<&str, f64> = preds.iter().map(|p| (*p, 0.0)).collect();
        for rule in program
            .rules
            .iter()
            .filter(|r| preds.contains(&r.head.pred.as_str()))
        {
            let rc = rule_cost(rule, &local, None);
            if let Some(e) = head_rows.get_mut(rule.head.pred.as_str()) {
                *e += rc.rows;
            }
        }
        let stratum_rows: f64 = head_rows.values().sum();
        if sccs.is_recursive(&graph, c) && stratum_rows >= DRED_WARN_TUPLES {
            let mut names: Vec<&str> = preds.clone();
            names.sort_unstable();
            diags.push(
                Diagnostic::warning(
                    "CB013",
                    &subject,
                    format!(
                        "every UNTELL will run DRed (overdelete + rederive) over the \
                         recursive stratum {{{}}}, estimated at ~{} tuples",
                        names.join(", "),
                        approx(stratum_rows)
                    ),
                )
                .with_witness(format!("recursive stratum {{{}}}", names.join(", "))),
            );
        }
        for (p, r) in head_rows {
            local.insert(p.to_string(), r.max(1.0));
        }
    }
    let total = tells + untells;
    if total >= CHURN_MIN_EVENTS {
        let share = untells as f64 / total as f64;
        if share >= CHURN_DELETE_SHARE {
            diags.push(
                Diagnostic::warning(
                    "CB013",
                    &subject,
                    format!(
                        "observed write mix is {untells} UNTELLs in {total} events \
                         ({:.0}% deletions): this view will churn under DRed \
                         maintenance",
                        share * 100.0
                    ),
                )
                .with_witness(format!("{tells} TELLs / {untells} UNTELLs observed")),
            );
        }
    }
}

/// `1234567.0` → `"1.2e6"`; small numbers render plainly. Diagnostics
/// stay stable across platforms because the mantissa is rounded to one
/// decimal before formatting.
pub fn approx(x: f64) -> String {
    if !x.is_finite() {
        return "inf".to_string();
    }
    if x < 10_000.0 {
        let r = (x * 10.0).round() / 10.0;
        if (r - r.trunc()).abs() < f64::EPSILON {
            return format!("{}", r.trunc() as i64);
        }
        return format!("{r:.1}");
    }
    let exp = x.abs().log10().floor() as i32;
    let mantissa = (x / 10f64.powi(exp) * 10.0).round() / 10.0;
    // Rounding can push the mantissa to 10.0 — renormalize.
    if mantissa >= 10.0 {
        format!("1e{}", exp + 1)
    } else if (mantissa - mantissa.trunc()).abs() < f64::EPSILON {
        format!("{}e{exp}", mantissa.trunc() as i64)
    } else {
        format!("{mantissa:.1}e{exp}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scc_rules(p: &Program) -> Vec<SccRule<'_>> {
        p.rules
            .iter()
            .map(|rule| SccRule {
                rule,
                subject: Some("rule"),
                line: None,
                text_hash: 0,
            })
            .collect()
    }

    #[test]
    fn approx_is_stable() {
        assert_eq!(approx(0.0), "0");
        assert_eq!(approx(31.6227), "31.6");
        assert_eq!(approx(1000.0), "1000");
        assert_eq!(approx(1_234_567.0), "1.2e6");
        assert_eq!(approx(1e8), "1e8");
        assert_eq!(approx(9.97e7), "1e8");
    }

    #[test]
    fn transitive_closure_stays_under_budget() {
        let p = Program::parse(
            "isaT(X, Y) :- isa(X, Y).\n\
             isaT(X, Z) :- isa(X, Y), isaT(Y, Z).",
        )
        .unwrap();
        let rules = scc_rules(&p);
        let mut cards = HashMap::new();
        let mut diags = Vec::new();
        estimate_scc(&["isaT"], &rules, true, &mut cards, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(cards["isaT"] > 1.0);
    }

    #[test]
    fn two_way_cartesian_product_warns() {
        let p = Program::parse("pairs(X, Y) :- obj(X), obj(Y).").unwrap();
        let rules = scc_rules(&p);
        let mut cards = HashMap::new();
        let mut diags = Vec::new();
        estimate_scc(&["pairs"], &rules, false, &mut cards, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "CB012" && d.message.contains("cross join")),
            "{diags:?}"
        );
    }

    #[test]
    fn three_way_cartesian_blows_the_budget() {
        let p = Program::parse("triples(X, Y, Z) :- a(X), b(Y), c(Z).").unwrap();
        let rules = scc_rules(&p);
        let mut cards = HashMap::new();
        let mut diags = Vec::new();
        estimate_scc(&["triples"], &rules, false, &mut cards, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "CB012" && d.message.contains("exceeds the budget")),
            "{diags:?}"
        );
    }

    #[test]
    fn explain_mentions_cost_and_plan() {
        let p = Program::parse("isaT(X, Z) :- isa(X, Y), isaT(Y, Z).").unwrap();
        let text = explain(&p, &HashMap::new());
        assert!(text.contains("estimated cost"), "{text}");
        assert!(text.contains("probe index"), "{text}");
        assert!(text.contains("recursive"), "{text}");
    }

    #[test]
    fn small_views_register_quietly() {
        let p = Program::parse("r(X, Z) :- e(X, Y), r(Y, Z).").unwrap();
        let mut cards = HashMap::new();
        cards.insert("e".to_string(), 50.0);
        let mut diags = Vec::new();
        lint_view("small", &p, &cards, 100, 1, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn big_recursive_view_warns_dred() {
        let p = Program::parse("r(X, Z) :- e(X, Y), r(Y, Z).").unwrap();
        let mut cards = HashMap::new();
        cards.insert("e".to_string(), 200_000.0);
        let mut diags = Vec::new();
        lint_view("big", &p, &cards, 5, 0, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "CB013" && d.message.contains("DRed")),
            "{diags:?}"
        );
    }

    #[test]
    fn churny_mix_warns() {
        let p = Program::parse("v(X) :- obj(X).").unwrap();
        let mut diags = Vec::new();
        lint_view("churny", &p, &HashMap::new(), 30, 15, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "CB013" && d.message.contains("churn")),
            "{diags:?}"
        );
    }
}
