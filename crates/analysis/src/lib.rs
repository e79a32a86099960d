#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Static analysis of the rule/constraint base (`cblint`).
//!
//! The paper's Consistency Checker (§3.1) validates integrity
//! *set-oriented and ahead of use*; this crate is the corresponding
//! correctness tooling for the reproduction. It turns problems that
//! would otherwise surface at the first ASK — or never — into
//! [`Diagnostic`]s at admission time:
//!
//! * **CB001** unsafe rule (range restriction violated),
//! * **CB002** recursion through negation, with the negative cycle as
//!   witness,
//! * **CB003** reference to a predicate nothing defines,
//! * **CB004** predicate used with mismatching arities,
//! * **CB005** dead rule: its head predicate is unreachable from every
//!   query root,
//! * **CB006** duplicate or subsumed rule,
//! * **CB007** two constraints contradict on ground atoms,
//! * **CB008** malformed assertion text,
//! * **CB009** sort error in an assertion (unknown class or attribute
//!   label),
//! * **CB000** the source does not parse at all,
//!
//! and the dataflow tier ([`dataflow`], [`cost`]):
//!
//! * **CB010** sort/type inference: declared Telos sorts propagate
//!   through rule bodies; unification conflicts are reported with the
//!   two witness literals,
//! * **CB011** termination: recursive cycles with no size-decreasing
//!   argument position are divergence risks,
//! * **CB012** cardinality/join-cost estimation over the evaluator's
//!   own plan; cross joins and budget-busting strata are flagged,
//! * **CB013** IVM maintainability: a registered view forcing DRed
//!   over a large recursive stratum, or churning under the observed
//!   TELL/UNTELL mix.
//!
//! The engine is **incremental**: per-SCC results are fingerprinted
//! ([`AnalysisCache`]) so admission-time linting re-analyzes only
//! dirty components — O(delta), not O(rule base).
//!
//! The same engine backs three surfaces: the offline `cblint` binary,
//! the GKBMS admission path (`Gkbms::tell_src`), and the server's
//! `Lint` wire op (`\lint` in cbshell).

pub mod checks;
pub mod cost;
pub mod dataflow;
pub mod frames;
pub mod source;

pub use checks::AnalysisCache;

use std::collections::HashMap;
use std::fmt;

/// How bad a finding is. Errors reject the batch at admission time;
/// warnings are reported but admitted (unless the server runs with
/// `strict_lint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but admissible.
    Warning,
    /// Definitely wrong; the batch is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable check code (`CB001` …).
    pub code: &'static str,
    /// What the finding is about: a rule or constraint reference such
    /// as ``rule `Minutes!closed` `` or the offending rule text.
    pub subject: String,
    /// One-line statement of the problem.
    pub message: String,
    /// Human-readable witness: the offending variable, the negative
    /// cycle path, the contradicting pair, …
    pub witness: String,
    /// 1-based line in the linted source, when known.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            subject: subject.into(),
            message: message.into(),
            witness: String::new(),
            line: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            ..Diagnostic::error(code, subject, message)
        }
    }

    /// Attaches a witness.
    pub fn with_witness(mut self, witness: impl Into<String>) -> Self {
        self.witness = witness.into();
        self
    }

    /// Attaches a source line.
    pub fn at_line(mut self, line: Option<usize>) -> Self {
        self.line = line;
        self
    }

    /// The compact one-line form used on the wire and in logs:
    /// `error[CB001] rule `r`: message (witness)`.
    pub fn one_line(&self) -> String {
        let mut s = format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.subject, self.message
        );
        if !self.witness.is_empty() {
            s.push_str(&format!(" (witness: {})", self.witness));
        }
        s
    }
}

/// Whether any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// The ω builtin class names every KB bootstraps with — the names an
/// assertion may mention offline, with no KB to ask.
const OMEGA_CLASSES: [&str; 7] = [
    "Proposition",
    "Class",
    "Token",
    "SimpleClass",
    "MetaClass",
    "Individual",
    "Assertion",
];

/// What the analyzer checks references against: the EDB schema, the
/// query roots, the rules/constraints already stored (a new rule can
/// close a negative cycle over an old one) and — at admission — the KB
/// itself, as a [`telos::Snapshot`]: the live head or any published
/// version. The context is a view over that snapshot, not a copy of
/// it: names and labels are answered by lookup, cardinalities are
/// measured only when a rule or view is costed, and nothing is rebuilt
/// per write.
#[derive(Clone, Default)]
pub struct LintContext<'a> {
    /// The KB under admission; `None` offline.
    snap: Option<telos::Snapshot<'a>>,
    /// Declared predicates with arities (EDB schema plus base IDB).
    pub schema: HashMap<String, usize>,
    /// Predicates queries probe; reachability roots of the dead-rule
    /// check.
    pub roots: Vec<String>,
    /// Datalog rules already stored in the KB (textual).
    pub stored_rules: Vec<String>,
    /// Constraints already stored in the KB: (reference, text).
    pub stored_constraints: Vec<(String, String)>,
    /// Treat heads of newly admitted rules as queryable roots (the
    /// admission path does; offline lint relies on `% query:`
    /// directives instead).
    pub assume_new_heads_queryable: bool,
}

impl<'a> LintContext<'a> {
    /// The context for offline linting: the deductive-relational
    /// bridge's EDB schema and base IDB, the ω builtin class names,
    /// and nothing stored.
    pub fn offline() -> Self {
        let mut ctx = LintContext::default();
        for (pred, arity) in [
            (objectbase::query::preds::IN, 2),
            (objectbase::query::preds::ISA, 2),
            (objectbase::query::preds::ATTR, 3),
            ("inT", 2),
            ("isaT", 2),
        ] {
            ctx.schema.insert(pred.to_string(), arity);
        }
        ctx.roots = vec!["inT".to_string(), "isaT".to_string()];
        ctx
    }

    /// The admission context: [`LintContext::offline`] plus everything
    /// `snap` already knows — object names and attribute labels (asked
    /// of `snap` when a check needs one), stored datalog rules and
    /// stored constraints.
    pub fn at(snap: telos::Snapshot<'a>) -> Self {
        LintContext {
            snap: Some(snap),
            stored_rules: objectbase::transform::stored_datalog_rules(snap),
            stored_constraints: stored_constraints(snap),
            assume_new_heads_queryable: true,
            ..Self::offline()
        }
    }

    /// [`LintContext::at`] the live head of `kb`.
    pub fn from_kb(kb: &'a telos::Kb) -> Self {
        Self::at(kb.snapshot())
    }

    /// Whether `name` is a known object/class name: an ω builtin, or a
    /// believed individual of the KB.
    pub fn knows_name(&self, name: &str) -> bool {
        OMEGA_CLASSES.contains(&name) || self.snap.is_some_and(|s| s.lookup(name).is_some())
    }

    /// Whether `label` is a declared attribute label: some believed
    /// individual of the KB has a believed attribute proposition
    /// carrying it. Walks the label's postings and stops at the first
    /// carrier.
    pub fn knows_label(&self, label: &str) -> bool {
        let Some(snap) = self.snap else { return false };
        let store = snap.store();
        let Some(sym) = store.lookup_sym(label).filter(|&s| !store.is_link_sym(s)) else {
            return false;
        };
        store.postings_label(sym).any(|p| {
            store.prop(p).is_some_and(|attr| {
                attr.source != p
                    && snap.sees(p)
                    && snap.sees(attr.source)
                    && store.prop(attr.source).is_some_and(|x| x.is_individual())
            })
        })
    }

    /// Measured EDB cardinalities (predicate → rows) for the cost
    /// estimator; empty offline, where [`cost::DEFAULT_EDB_ROWS`]
    /// applies. A full EDB export — O(KB) — so only the callers that
    /// cost a rule or a view ask for it.
    pub fn edb_cards(&self) -> HashMap<String, f64> {
        self.snap
            .and_then(|s| objectbase::query::to_edb_at_store(s.store(), s.at()).ok())
            .map(|edb| cost::cardinalities(&edb))
            .unwrap_or_default()
    }
}

/// Every stored constraint assertion: (reference, text).
fn stored_constraints(snap: telos::Snapshot<'_>) -> Vec<(String, String)> {
    use objectbase::transform::markers;
    let Some(class) = snap.lookup(markers::CONSTRAINT) else {
        return Vec::new();
    };
    let store = snap.store();
    let mut out = Vec::new();
    for obj in snap.all_instances_of(class) {
        let name = store.display(obj);
        for &t in &snap.attr_values(obj, markers::TEXT) {
            out.push((name.clone(), store.display(t)));
        }
    }
    out
}

/// Lints `src`, which is either a CML script (`TELL … end` frames) or
/// a datalog program — detected by whether any line opens a frame.
pub fn lint_source(src: &str, ctx: &LintContext) -> Vec<Diagnostic> {
    lint_source_cached(src, ctx, &mut AnalysisCache::new())
}

/// [`lint_source`] through a long-lived [`AnalysisCache`], so repeat
/// admissions re-analyze only dirty SCCs.
pub fn lint_source_cached(
    src: &str,
    ctx: &LintContext,
    cache: &mut AnalysisCache,
) -> Vec<Diagnostic> {
    if source::looks_like_frames(src) {
        frames::lint_frames_src_cached(src, ctx, cache)
    } else {
        checks::lint_datalog_src_cached(src, ctx, cache)
    }
}

/// Renders the deductive evaluator's join plan and cost estimate for
/// the base closure program, the context's stored rules, and any extra
/// rules in `src` (may be empty), against the context's measured EDB
/// cardinalities — the engine behind the `Explain` wire op and
/// `\explain` in cbshell. Errors are the parse failure of `src`.
pub fn explain_source(src: &str, ctx: &LintContext) -> Result<String, String> {
    let mut program = objectbase::query::base_program();
    for text in &ctx.stored_rules {
        if let Ok(p) = datalog::ast::Program::parse_unchecked(&checks::dotted(text)) {
            program.rules.extend(p.rules);
        }
    }
    if !src.trim().is_empty() {
        let extra = datalog::ast::Program::parse_unchecked(src).map_err(|e| e.to_string())?;
        program.rules.extend(extra.rules);
    }
    Ok(cost::explain(&program, &ctx.edb_cards()))
}

/// Sorts diagnostics into the stable reporting order: (line, code,
/// subject, message). Ties keep insertion order (stable sort), so
/// output no longer depends on hash-map iteration.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.line
            .unwrap_or(0)
            .cmp(&b.line.unwrap_or(0))
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.subject.cmp(&b.subject))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Renders diagnostics rustc-style against the source they were found
/// in. `origin` names the file (or stream) in the `-->` lines.
pub fn render(origin: &str, src: &str, diags: &[Diagnostic]) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
        out.push_str(&format!("  subject: {}\n", d.subject));
        if let Some(n) = d.line {
            out.push_str(&format!("  --> {origin}:{n}\n"));
            if let Some(text) = lines.get(n - 1) {
                let gutter = n.to_string().len();
                out.push_str(&format!("  {:gutter$} |\n", ""));
                out.push_str(&format!("  {n} | {}\n", text.trim_end()));
                out.push_str(&format!("  {:gutter$} |\n", ""));
            }
        }
        if !d.witness.is_empty() {
            out.push_str(&format!("  = witness: {}\n", d.witness));
        }
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "{origin}: {errors} error(s), {warnings} warning(s)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_form() {
        let d = Diagnostic::error("CB001", "rule `r`", "bad").with_witness("variable `X`");
        assert_eq!(
            d.one_line(),
            "error[CB001] rule `r`: bad (witness: variable `X`)"
        );
        assert!(has_errors(&[d]));
        assert!(!has_errors(&[]));
    }

    #[test]
    fn offline_context_declares_edb_schema() {
        let ctx = LintContext::offline();
        assert_eq!(ctx.schema["attr"], 3);
        assert_eq!(ctx.schema["inT"], 2);
        assert!(ctx.knows_name("Proposition"));
    }

    #[test]
    fn render_includes_snippet_and_summary() {
        let src = "p(a).\nq(X) :- r(X).";
        let d = Diagnostic::warning("CB003", "rule `q(X) :- r(X).`", "nothing defines `r`")
            .at_line(Some(2));
        let s = render("test.dl", src, &[d]);
        assert!(s.contains("--> test.dl:2"));
        assert!(s.contains("2 | q(X) :- r(X)."));
        assert!(s.contains("0 error(s), 1 warning(s)"));
    }
}
