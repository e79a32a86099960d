//! The CML-side checks: assertion texts of constraints and rules in
//! `TELL … end` frames — well-formedness, sort correctness, datalog
//! rule admission, and ground constraint contradiction.

use crate::checks::{self, AnalysisCache, RuleUnit};
use crate::{source, Diagnostic, LintContext};
use datalog::ast::Program;
use objectbase::transform::is_datalog_text;
use objectbase::ObjectFrame;
use std::collections::{HashMap, HashSet};
use telos::assertion::{self, Atom, Expr};

/// One constraint's contribution to the contradiction check:
/// (owner reference, implied ground literals, source line).
type Implication = (String, Vec<(String, bool)>, Option<usize>);

/// Lints a CML script: parses the frames, then runs
/// [`lint_frames`] with frame start lines attached.
pub fn lint_frames_src(src: &str, ctx: &LintContext) -> Vec<Diagnostic> {
    lint_frames_src_cached(src, ctx, &mut AnalysisCache::new())
}

/// [`lint_frames_src`] through a long-lived [`AnalysisCache`].
pub fn lint_frames_src_cached(
    src: &str,
    ctx: &LintContext,
    cache: &mut AnalysisCache,
) -> Vec<Diagnostic> {
    let frames = match ObjectFrame::parse_all(src) {
        Ok(f) => f,
        Err(e) => {
            return vec![Diagnostic::error("CB000", "script", e.to_string())];
        }
    };
    let lines = source::frame_lines(src);
    let with_lines: Vec<(&ObjectFrame, Option<usize>)> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (f, lines.get(i).copied()))
        .collect();
    lint_frames_spanned(&with_lines, Some(src), ctx, cache)
}

/// Lints frames without source text (the admission path: the frames
/// are already parsed and spans are unknown).
pub fn lint_frames(frames: &[ObjectFrame], ctx: &LintContext) -> Vec<Diagnostic> {
    lint_frames_cached(frames, ctx, &mut AnalysisCache::new())
}

/// [`lint_frames`] through a long-lived [`AnalysisCache`] — the GKBMS
/// admission path, where O(delta) matters.
pub fn lint_frames_cached(
    frames: &[ObjectFrame],
    ctx: &LintContext,
    cache: &mut AnalysisCache,
) -> Vec<Diagnostic> {
    let with_lines: Vec<(&ObjectFrame, Option<usize>)> = frames.iter().map(|f| (f, None)).collect();
    lint_frames_spanned(&with_lines, None, ctx, cache)
}

fn lint_frames_spanned(
    frames: &[(&ObjectFrame, Option<usize>)],
    src: Option<&str>,
    ctx: &LintContext,
    cache: &mut AnalysisCache,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // The script's own vocabulary joins the context's.
    let mut classes: HashSet<&str> = HashSet::new();
    let mut labels: HashSet<&str> = HashSet::new();
    for (f, _) in frames {
        classes.insert(&f.name);
        for a in &f.attrs {
            labels.insert(&a.label);
        }
        for (name, _) in f.constraints.iter().chain(&f.rules) {
            labels.insert(name);
        }
    }
    let known_class = |c: &str| classes.contains(c) || ctx.knows_name(c);
    let known_label = |l: &str| labels.contains(l) || ctx.knows_label(l);

    let mut rule_units: Vec<RuleUnit> = Vec::new();
    // (owner reference, implied ground literals) per constraint.
    let mut implications: Vec<Implication> = Vec::new();

    for (f, frame_line) in frames {
        for (kind, name, text) in f
            .constraints
            .iter()
            .map(|(n, t)| ("constraint", n, t))
            .chain(f.rules.iter().map(|(n, t)| ("rule", n, t)))
        {
            let subject = format!("{kind} `{}!{name}`", f.name);
            let line = src
                .and_then(|s| source::find_from(s, frame_line.unwrap_or(1), name))
                .or(*frame_line);
            if kind == "rule" && is_datalog_text(text) {
                match Program::parse_unchecked(&checks::dotted(text)) {
                    Ok(p) => rule_units.extend(p.rules.into_iter().map(|rule| RuleUnit {
                        subject: subject.clone(),
                        line,
                        rule,
                    })),
                    Err(e) => diags.push(
                        Diagnostic::error("CB008", &subject, e.to_string())
                            .with_witness(text.clone())
                            .at_line(line),
                    ),
                }
                continue;
            }
            let expr = match assertion::parse(text) {
                Ok(e) => e,
                Err(e) => {
                    diags.push(
                        Diagnostic::error("CB008", &subject, format!("malformed assertion: {e}"))
                            .with_witness(text.clone())
                            .at_line(line),
                    );
                    continue;
                }
            };
            for issue in assertion::sort_check(&expr, &known_class, &known_label) {
                diags.push(
                    Diagnostic::warning("CB009", &subject, issue.to_string())
                        .with_witness(text.clone())
                        .at_line(line),
                );
            }
            if kind == "constraint" {
                implications.push((subject.clone(), implied_literals(&expr), line));
            }
        }
    }

    check_contradictions(&implications, ctx, &mut diags);

    if !rule_units.is_empty() {
        // A frame-attached rule is queryable by name, so its head is a
        // reachability root: the dead-rule check bites on datalog
        // programs with `% query:` directives, not here.
        let mut roots = ctx.roots.clone();
        roots.extend(rule_units.iter().map(|u| u.rule.head.pred.clone()));
        diags.extend(checks::lint_rules_cached(
            &rule_units,
            ctx,
            &roots,
            true,
            cache,
        ));
    }
    crate::sort_diagnostics(&mut diags);
    diags
}

/// CB007 — two constraints that can never hold together: one implies a
/// ground atom the other implies the negation of.
fn check_contradictions(
    implications: &[Implication],
    ctx: &LintContext,
    diags: &mut Vec<Diagnostic>,
) {
    // polarity per ground-atom key, with the first constraint that
    // asserted it.
    let mut asserted: HashMap<(String, bool), String> = HashMap::new();
    for (owner, text) in &ctx.stored_constraints {
        if let Ok(expr) = assertion::parse(text) {
            for (key, pol) in implied_literals(&expr) {
                asserted
                    .entry((key, pol))
                    .or_insert_with(|| format!("stored constraint `{owner}`"));
            }
        }
    }
    for (subject, literals, line) in implications {
        for (key, pol) in literals {
            if let Some(other) = asserted.get(&(key.clone(), !pol)) {
                let (pos, neg) = if *pol {
                    (subject.as_str(), other.as_str())
                } else {
                    (other.as_str(), subject.as_str())
                };
                diags.push(
                    Diagnostic::error(
                        "CB007",
                        subject,
                        format!("can never hold together with {other}"),
                    )
                    .with_witness(format!("{pos} asserts `{key}`; {neg} asserts its negation"))
                    .at_line(*line),
                );
            }
            asserted
                .entry((key.clone(), *pol))
                .or_insert_with(|| subject.clone());
        }
    }
}

/// The ground literals a constraint certainly implies: the polarity-
/// aware walk stops at quantifiers, so every term it sees denotes a
/// specific object. `Ne` normalizes to negated `Eq` (with sorted
/// operands) and a positive `x.l = y` also implies `x.l defined`.
fn implied_literals(expr: &Expr) -> Vec<(String, bool)> {
    fn walk(e: &Expr, positive: bool, out: &mut Vec<(String, bool)>) {
        match e {
            Expr::And(a, b) if positive => {
                walk(a, true, out);
                walk(b, true, out);
            }
            Expr::Or(a, b) if !positive => {
                walk(a, false, out);
                walk(b, false, out);
            }
            Expr::Implies(a, b) if !positive => {
                // ¬(a ⟹ b) ⟺ a ∧ ¬b
                walk(a, true, out);
                walk(b, false, out);
            }
            Expr::Not(a) => walk(a, !positive, out),
            Expr::Atom(atom) => out.extend(atom_key(atom, positive)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(expr, true, &mut out);
    out
}

fn atom_key(atom: &Atom, positive: bool) -> Vec<(String, bool)> {
    match atom {
        Atom::In(x, c) => vec![(format!("{x} in {c}"), positive)],
        Atom::Isa(c, d) => vec![(format!("{c} isa {d}"), positive)],
        Atom::Eq(x, y) => vec![(eq_key(&x.0, &y.0), positive)],
        Atom::Ne(x, y) => vec![(eq_key(&x.0, &y.0), !positive)],
        Atom::HasAttr(x, l, y) => {
            let mut keys = vec![(format!("{x}.{l} = {y}"), positive)];
            if positive {
                keys.push((format!("{x}.{l} defined"), true));
            }
            keys
        }
        Atom::AttrDefined(x, l) => vec![(format!("{x}.{l} defined"), positive)],
    }
}

fn eq_key(x: &str, y: &str) -> String {
    let (a, b) = if x <= y { (x, y) } else { (y, x) };
    format!("{a} = {b}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{has_errors, Severity};

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_frames_src(src, &LintContext::offline())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_script_is_clean() {
        let d = lint(
            "TELL Person end\n\
             TELL Paper with\n\
               attribute author : Person\n\
               constraint authored : $ forall p/Paper p.author defined $\n\
             end",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn malformed_assertion_is_cb008() {
        let d = lint("TELL Paper with constraint c : $ forall broken $ end");
        assert_eq!(codes(&d), vec!["CB008"]);
        assert!(has_errors(&d));
    }

    #[test]
    fn sort_errors_are_cb009_warnings() {
        let d = lint(
            "TELL Paper with\n\
               constraint c : $ forall g/Ghost g.phantom defined $\n\
             end",
        );
        assert_eq!(codes(&d), vec!["CB009", "CB009"]);
        assert!(d.iter().all(|d| d.severity == Severity::Warning));
        assert_eq!(d[0].line, Some(2));
    }

    #[test]
    fn ground_contradiction_is_cb007() {
        let d = lint(
            "TELL Paper end\n\
             TELL p1 in Paper end\n\
             TELL Review with\n\
               constraint yes : $ p1.status = approved $\n\
             end\n\
             TELL Audit with\n\
               constraint no : $ not (p1.status = approved) $\n\
             end",
        );
        let cb007: Vec<_> = d.iter().filter(|d| d.code == "CB007").collect();
        assert_eq!(cb007.len(), 1, "{d:?}");
        assert!(cb007[0].witness.contains("p1.status = approved"));
        assert!(has_errors(&d));
    }

    #[test]
    fn eq_ne_contradiction_detected() {
        let d = lint(
            "TELL A with constraint c1 : $ x = y $ end\n\
             TELL B with constraint c2 : $ y <> x $ end",
        );
        assert!(codes(&d).contains(&"CB007"), "{d:?}");
    }

    #[test]
    fn hasattr_implies_defined() {
        let d = lint(
            "TELL A with constraint c1 : $ p.status = ok $ end\n\
             TELL B with constraint c2 : $ not (p.status defined) $ end",
        );
        assert!(codes(&d).contains(&"CB007"), "{d:?}");
    }

    #[test]
    fn datalog_rule_sections_run_datalog_checks() {
        let d = lint(
            "TELL Game with\n\
               rule w : $ win(X) :- move(X, Y), not win(Y) $\n\
             end",
        );
        assert!(codes(&d).contains(&"CB002"), "{d:?}");
        let cb002 = d.iter().find(|d| d.code == "CB002").unwrap();
        assert!(cb002.subject.contains("Game!w"));
    }

    #[test]
    fn contradiction_against_stored_constraint() {
        let mut ctx = LintContext::offline();
        ctx.stored_constraints
            .push(("Review!yes".into(), "p1 in Approved".into()));
        let d = lint_frames_src(
            "TELL Audit with constraint no : $ not (p1 in Approved) $ end",
            &ctx,
        );
        assert!(codes(&d).contains(&"CB007"), "{d:?}");
        let cb007 = d.iter().find(|d| d.code == "CB007").unwrap();
        assert!(cb007.message.contains("Review!yes"));
    }

    #[test]
    fn quantified_constraints_do_not_contradict() {
        let d = lint(
            "TELL Paper with\n\
               attribute author : Paper\n\
               constraint c1 : $ forall p/Paper p.author defined $\n\
               constraint c2 : $ forall p/Paper (not (p.author defined)) $\n\
             end",
        );
        // Both constraints are quantified: the trivial-unification
        // check stays silent (no ground witness).
        assert!(!codes(&d).contains(&"CB007"), "{d:?}");
    }
}
