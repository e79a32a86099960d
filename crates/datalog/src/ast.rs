//! Rule language: terms, atoms, literals, rules, programs — and a
//! textual syntax.
//!
//! ```text
//! path(X, Y) :- edge(X, Y).
//! path(X, Z) :- edge(X, Y), path(Y, Z).
//! unmapped(X) :- object(X), not mapped(X).
//! ```
//!
//! Identifiers starting with an upper-case letter (or `_`) are
//! variables; others are symbol constants; integer literals and
//! double-quoted strings are constants too. A program is a sequence of
//! rules and facts (rules with empty bodies), each terminated by `.`.

use crate::error::{DatalogError, DatalogResult};
use std::fmt;

/// The most literals a parsed rule body may have; a longer body is a
/// [`DatalogError::Parse`]. Evaluation (`join::Join::step` and the scan
/// oracle's `seminaive::join_body`) and lint's subsumption check
/// recurse once per body literal, so this bounds their depth for every
/// rule that reaches them as text. The longest body among the
/// repository's own rules has 6 literals.
pub const MAX_BODY: usize = 64;

/// A constant value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A symbolic constant.
    Sym(String),
    /// An integer constant.
    Int(i64),
}

impl Value {
    /// Symbol constructor.
    pub fn sym(s: impl Into<String>) -> Value {
        Value::Sym(s.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, identified by name.
    Var(String),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Variable constructor.
    pub fn var(s: impl Into<String>) -> Term {
        Term::Var(s.into())
    }

    /// Symbol-constant constructor.
    pub fn sym(s: impl Into<String>) -> Term {
        Term::Const(Value::Sym(s.into()))
    }

    /// Integer-constant constructor.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An atom `pred(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Constructor.
    pub fn new(pred: impl Into<String>, args: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            args,
        }
    }

    /// Variables occurring in the atom, in order, with duplicates.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.args.iter().filter_map(|t| match t {
            Term::Var(v) => Some(v.as_str()),
            Term::Const(_) => None,
        })
    }

    /// True if no argument is a variable.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| matches!(t, Term::Const(_)))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    /// The atom.
    pub atom: Atom,
    /// True for `not atom`.
    pub negated: bool,
}

impl Literal {
    /// Positive literal.
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            atom,
            negated: false,
        }
    }

    /// Negative literal.
    pub fn neg(atom: Atom) -> Literal {
        Literal {
            atom,
            negated: true,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "not ")?;
        }
        write!(f, "{}", self.atom)
    }
}

/// A rule `head :- body.`; an empty body makes it a fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body literals.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Constructor.
    pub fn new(head: Atom, body: Vec<Literal>) -> Rule {
        Rule { head, body }
    }

    /// Safety: every head variable and every variable in a negated
    /// literal must occur in some positive body literal.
    pub fn check_safety(&self) -> DatalogResult<()> {
        let positive_vars: Vec<&str> = self
            .body
            .iter()
            .filter(|l| !l.negated)
            .flat_map(|l| l.atom.vars())
            .collect();
        for v in self.head.vars() {
            if !positive_vars.contains(&v) {
                return Err(DatalogError::UnsafeRule(format!(
                    "variable `{v}` in the head of `{p}` occurs in no positive \
                     body literal of `{self}`",
                    p = self.head.pred
                )));
            }
        }
        for lit in self.body.iter().filter(|l| l.negated) {
            for v in lit.atom.vars() {
                if !positive_vars.contains(&v) {
                    return Err(DatalogError::UnsafeRule(format!(
                        "variable `{v}` under negation in a rule for `{p}` \
                         occurs in no positive body literal of `{self}`",
                        p = self.head.pred
                    )));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A datalog program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Parses a textual program.
    pub fn parse(src: &str) -> DatalogResult<Program> {
        let program = Self::parse_unchecked(src)?;
        program.validate()?;
        Ok(program)
    }

    /// Parses without running [`Program::validate`]: the linter wants
    /// the syntax tree of an unsafe or arity-inconsistent program so it
    /// can report *all* problems as diagnostics, not just the first.
    pub fn parse_unchecked(src: &str) -> DatalogResult<Program> {
        parse_program(src)
    }

    /// Safety check over all rules plus arity consistency.
    pub fn validate(&self) -> DatalogResult<()> {
        let mut arities: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for rule in &self.rules {
            rule.check_safety()?;
            for atom in std::iter::once(&rule.head).chain(self.body_atoms(rule)) {
                match arities.get(atom.pred.as_str()) {
                    Some(&n) if n != atom.args.len() => {
                        return Err(DatalogError::ArityMismatch {
                            pred: atom.pred.clone(),
                            expected: n,
                            found: atom.args.len(),
                        })
                    }
                    _ => {
                        arities.insert(&atom.pred, atom.args.len());
                    }
                }
            }
        }
        Ok(())
    }

    fn body_atoms<'a>(&self, rule: &'a Rule) -> impl Iterator<Item = &'a Atom> {
        rule.body.iter().map(|l| &l.atom)
    }

    /// Predicates defined by rule heads (the intensional predicates).
    pub fn idb_preds(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.pred.as_str()) {
                out.push(&r.head.pred);
            }
        }
        out
    }

    /// Whether some rule names `pred` in its head or its body.
    pub fn mentions(&self, pred: &str) -> bool {
        self.rules
            .iter()
            .any(|r| r.head.pred == pred || self.body_atoms(r).any(|atom| atom.pred == pred))
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct P<'a> {
    chars: Vec<char>,
    pos: usize,
    src: &'a str,
}

impl<'a> P<'a> {
    fn err(&self, msg: &str) -> DatalogError {
        DatalogError::Parse(format!("{msg} at byte {} of `{}`", self.pos, self.src))
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
                self.pos += 1;
            }
            // % line comments
            if self.pos < self.chars.len() && self.chars[self.pos] == '%' {
                while self.pos < self.chars.len() && self.chars[self.pos] != '\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        let cs: Vec<char> = s.chars().collect();
        if self.chars[self.pos..].starts_with(&cs) {
            self.pos += cs.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> DatalogResult<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.chars.len()
            && (self.chars[self.pos].is_ascii_alphanumeric() || self.chars[self.pos] == '_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected identifier"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn term(&mut self) -> DatalogResult<Term> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some('"') => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.chars.len() && self.chars[self.pos] != '"' {
                    self.pos += 1;
                }
                if self.pos == self.chars.len() {
                    return Err(self.err("unterminated string"));
                }
                let s: String = self.chars[start..self.pos].iter().collect();
                self.pos += 1;
                Ok(Term::sym(s))
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let start = self.pos;
                self.pos += 1;
                while self.pos < self.chars.len() && self.chars[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let s: String = self.chars[start..self.pos].iter().collect();
                s.parse::<i64>()
                    .map(Term::int)
                    .map_err(|_| self.err("bad integer"))
            }
            Some(c) if c.is_ascii_alphabetic() || *c == '_' => {
                let id = self.ident()?;
                let first = id.chars().next().expect("nonempty ident");
                if first.is_ascii_uppercase() || first == '_' {
                    Ok(Term::var(id))
                } else {
                    Ok(Term::sym(id))
                }
            }
            _ => Err(self.err("expected term")),
        }
    }

    fn atom(&mut self) -> DatalogResult<Atom> {
        let pred = self.ident()?;
        if !self.eat('(') {
            return Err(self.err("expected `(`"));
        }
        let mut args = Vec::new();
        if !self.eat(')') {
            loop {
                args.push(self.term()?);
                if self.eat(')') {
                    break;
                }
                if !self.eat(',') {
                    return Err(self.err("expected `,` or `)`"));
                }
            }
        }
        Ok(Atom { pred, args })
    }

    fn literal(&mut self) -> DatalogResult<Literal> {
        self.skip_ws();
        if self.eat_str("not ") || self.eat_str("not\t") {
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    fn rule(&mut self) -> DatalogResult<Rule> {
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.eat_str(":-") {
            loop {
                if body.len() == MAX_BODY {
                    return Err(self.err(&format!("rule body longer than {MAX_BODY} literals")));
                }
                body.push(self.literal()?);
                if !self.eat(',') {
                    break;
                }
            }
        }
        if !self.eat('.') {
            return Err(self.err("expected `.`"));
        }
        Ok(Rule { head, body })
    }
}

fn parse_program(src: &str) -> DatalogResult<Program> {
    let mut p = P {
        chars: src.chars().collect(),
        pos: 0,
        src,
    };
    let mut rules = Vec::new();
    loop {
        p.skip_ws();
        if p.pos >= p.chars.len() {
            break;
        }
        rules.push(p.rule()?);
    }
    Ok(Program { rules })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_facts_and_rules() {
        let p = Program::parse(
            "edge(a, b).\n\
             edge(b, c).\n\
             % transitive closure\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert!(p.rules[0].body.is_empty());
        assert_eq!(p.rules[3].body.len(), 2);
        assert_eq!(p.idb_preds(), vec!["edge", "path"]);
    }

    #[test]
    fn variables_vs_constants() {
        let p = Program::parse("q(X, abc, 42, \"Quoted Name\", _G) :- r(X, _G).").unwrap();
        let args = &p.rules[0].head.args;
        assert_eq!(args[0], Term::var("X"));
        assert_eq!(args[1], Term::sym("abc"));
        assert_eq!(args[2], Term::int(42));
        assert_eq!(args[3], Term::sym("Quoted Name"));
        assert_eq!(args[4], Term::var("_G"));
    }

    #[test]
    fn negation_parses() {
        let p = Program::parse("u(X) :- obj(X), not mapped(X).").unwrap();
        assert!(p.rules[0].body[1].negated);
    }

    #[test]
    fn unsafe_head_variable_rejected() {
        assert!(matches!(
            Program::parse("q(X, Y) :- r(X)."),
            Err(DatalogError::UnsafeRule(_))
        ));
    }

    #[test]
    fn unsafe_rule_error_names_variable_and_head_predicate() {
        let err = Program::parse("q(X, Y) :- r(X).").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("variable `Y`"), "got: {msg}");
        assert!(msg.contains("head of `q`"), "got: {msg}");
        let err = Program::parse("q(X) :- r(X), not s(Y).").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("variable `Y`"), "got: {msg}");
        assert!(msg.contains("rule for `q`"), "got: {msg}");
    }

    #[test]
    fn unsafe_negated_variable_rejected() {
        assert!(matches!(
            Program::parse("q(X) :- r(X), not s(Y)."),
            Err(DatalogError::UnsafeRule(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(matches!(
            Program::parse("p(a). p(a, b)."),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn syntax_errors() {
        assert!(Program::parse("p(a)").is_err(), "missing dot");
        assert!(Program::parse("p(.").is_err());
        assert!(Program::parse("p(\"unterminated).").is_err());
        assert!(Program::parse("(a).").is_err());
        assert!(Program::parse("p(a) :- .").is_err());
    }

    #[test]
    fn zero_arity_atoms() {
        let p = Program::parse("flag() :- cond(a).\ncond(a).").unwrap();
        assert_eq!(p.rules[0].head.args.len(), 0);
    }

    #[test]
    fn display_reparses() {
        let src = "path(X, Z) :- edge(X, Y), path(Y, Z), not blocked(X).";
        let p1 = Program::parse(src).unwrap();
        let printed = p1.rules[0].to_string();
        let p2 = Program::parse(&printed).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn negative_integers() {
        let p = Program::parse("p(-7).").unwrap();
        assert_eq!(p.rules[0].head.args[0], Term::int(-7));
    }

    #[test]
    fn a_body_past_max_body_is_a_parse_error() {
        let rule = |n| format!("p(X) :- {}.", vec!["e(X)"; n].join(", "));
        let p = Program::parse(&rule(MAX_BODY)).unwrap();
        assert_eq!(p.rules[0].body.len(), MAX_BODY);
        match Program::parse(&rule(MAX_BODY + 1)) {
            Err(DatalogError::Parse(m)) => assert!(m.contains("longer than"), "{m}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
