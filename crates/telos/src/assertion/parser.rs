//! Recursive-descent parser for the assertion language.
//!
//! Grammar (binding strength grows downwards; `==>` is right-
//! associative and binds weakest):
//!
//! ```text
//! expr    := 'forall' IDENT '/' IDENT expr
//!          | 'exists' IDENT '/' IDENT expr
//!          | implies
//! implies := disj ('==>' implies)?
//! disj    := conj ('or' conj)*
//! conj    := unary ('and' unary)*
//! unary   := 'not' unary | '(' expr ')' | atom
//! atom    := IDENT '.' IDENT ('=' IDENT | 'defined')
//!          | IDENT ('in' | 'isa' | '=' | '<>') IDENT
//!          | 'true'
//! ```
//!
//! Identifiers are `[A-Za-z_][A-Za-z0-9_]*`; names containing other
//! characters can be written in double quotes.
//!
//! Every recursion of the grammar — a `not`, a parenthesis, a
//! quantifier's body, the right side of `==>` — descends one level, and
//! the parser refuses to descend past [`MAX_DEPTH`] with
//! [`TelosError::TooDeep`]. So a parsed expression is at most that deep,
//! and the sort checker and the evaluator, which recurse over it, are
//! bounded too — whether the text came from a `holds` request, a TELLed
//! constraint or the linter.

use super::ast::{Atom, Expr, Term};
use crate::error::{TelosError, TelosResult};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Dot,
    Slash,
    LParen,
    RParen,
    Eq,
    Ne,
    Implies,
}

fn lex(input: &str) -> TelosResult<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '=' => {
                if chars.get(i + 1) == Some(&'=') && chars.get(i + 2) == Some(&'>') {
                    toks.push(Tok::Implies);
                    i += 3;
                } else {
                    toks.push(Tok::Eq);
                    i += 1;
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'>') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(TelosError::Assertion(format!(
                        "unexpected `<` at position {i}"
                    )));
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                if j == chars.len() {
                    return Err(TelosError::Assertion("unterminated string".into()));
                }
                toks.push(Tok::Ident(chars[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(TelosError::Assertion(format!(
                    "unexpected character `{other}` at position {i}"
                )))
            }
        }
    }
    Ok(toks)
}

/// The deepest nesting an assertion may have. Constraints nest a few
/// levels; thousands would overflow a thread's stack.
pub const MAX_DEPTH: usize = 256;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Levels of nesting around the current position.
    depth: usize,
}

impl Parser {
    /// Runs `inner` one level of nesting deeper.
    fn nested(&mut self, inner: fn(&mut Self) -> TelosResult<Expr>) -> TelosResult<Expr> {
        if self.depth == MAX_DEPTH {
            return Err(TelosError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let e = inner(self);
        self.depth -= 1;
        e
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_ident(&mut self) -> TelosResult<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(TelosError::Assertion(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn expect(&mut self, t: Tok) -> TelosResult<()> {
        match self.bump() {
            Some(found) if found == t => Ok(()),
            other => Err(TelosError::Assertion(format!(
                "expected {t:?}, found {other:?}"
            ))),
        }
    }

    fn expr(&mut self) -> TelosResult<Expr> {
        match self.peek_ident() {
            Some("forall") | Some("exists") => {
                let kw = self.expect_ident()?;
                let var = self.expect_ident()?;
                self.expect(Tok::Slash)?;
                let class = self.expect_ident()?;
                let body = Box::new(self.nested(Self::expr)?);
                Ok(if kw == "forall" {
                    Expr::Forall(var, class, body)
                } else {
                    Expr::Exists(var, class, body)
                })
            }
            _ => self.implies(),
        }
    }

    fn implies(&mut self) -> TelosResult<Expr> {
        let lhs = self.disj()?;
        if self.peek() == Some(&Tok::Implies) {
            self.bump();
            let rhs = self.nested(Self::implies)?; // right-assoc
            Ok(Expr::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn disj(&mut self) -> TelosResult<Expr> {
        let mut e = self.conj()?;
        while self.peek_ident() == Some("or") {
            self.bump();
            let rhs = self.conj()?;
            e = Expr::Or(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn conj(&mut self) -> TelosResult<Expr> {
        let mut e = self.unary()?;
        while self.peek_ident() == Some("and") {
            self.bump();
            let rhs = self.unary()?;
            e = Expr::And(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn unary(&mut self) -> TelosResult<Expr> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == "not" => {
                self.bump();
                Ok(Expr::Not(Box::new(self.nested(Self::unary)?)))
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> TelosResult<Expr> {
        if self.peek_ident() == Some("true") {
            self.bump();
            return Ok(Expr::True);
        }
        // Quantifier appearing mid-formula (e.g. rhs of `and`):
        if matches!(self.peek_ident(), Some("forall") | Some("exists")) {
            return self.expr();
        }
        let lhs = Term(self.expect_ident()?);
        match self.bump() {
            Some(Tok::Dot) => {
                let label = self.expect_ident()?;
                match self.peek() {
                    Some(Tok::Eq) => {
                        self.bump();
                        let rhs = Term(self.expect_ident()?);
                        Ok(Expr::Atom(Atom::HasAttr(lhs, label, rhs)))
                    }
                    Some(Tok::Ident(s)) if s == "defined" => {
                        self.bump();
                        Ok(Expr::Atom(Atom::AttrDefined(lhs, label)))
                    }
                    other => Err(TelosError::Assertion(format!(
                        "expected `=` or `defined` after attribute, found {other:?}"
                    ))),
                }
            }
            Some(Tok::Eq) => Ok(Expr::Atom(Atom::Eq(lhs, Term(self.expect_ident()?)))),
            Some(Tok::Ne) => Ok(Expr::Atom(Atom::Ne(lhs, Term(self.expect_ident()?)))),
            Some(Tok::Ident(s)) if s == "in" => {
                Ok(Expr::Atom(Atom::In(lhs, Term(self.expect_ident()?))))
            }
            Some(Tok::Ident(s)) if s == "isa" => {
                Ok(Expr::Atom(Atom::Isa(lhs, Term(self.expect_ident()?))))
            }
            other => Err(TelosError::Assertion(format!(
                "expected relation after `{lhs}`, found {other:?}"
            ))),
        }
    }
}

/// Parses an assertion-language expression.
pub fn parse(input: &str) -> TelosResult<Expr> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(TelosError::Assertion(format!(
            "trailing input after expression at token {}",
            p.pos
        )));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quantified_constraint() {
        let e = parse("forall i/Invitation exists p/Person i.sender = p").unwrap();
        match e {
            Expr::Forall(v, c, body) => {
                assert_eq!((v.as_str(), c.as_str()), ("i", "Invitation"));
                assert!(matches!(*body, Expr::Exists(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = parse("a = b or c = d and e = f").unwrap();
        // or(a=b, and(c=d, e=f))
        match e {
            Expr::Or(lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Atom(_)));
                assert!(matches!(*rhs, Expr::And(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn implies_is_weakest_and_right_assoc() {
        let e = parse("a = b ==> c = d ==> e = f").unwrap();
        match e {
            Expr::Implies(_, rhs) => assert!(matches!(*rhs, Expr::Implies(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_all_atom_forms() {
        assert!(parse("x in Invitation").is_ok());
        assert!(parse("Invitation isa Paper").is_ok());
        assert!(parse("x = y").is_ok());
        assert!(parse("x <> y").is_ok());
        assert!(parse("x.sender = maria").is_ok());
        assert!(parse("x.sender defined").is_ok());
        assert!(parse("true").is_ok());
        assert!(parse("not x in C").is_ok());
        assert!(parse("(x in C)").is_ok());
    }

    #[test]
    fn quoted_identifiers() {
        let e = parse("\"Invitation Rel 2\" in DBPL_Rel").unwrap();
        assert_eq!(
            e,
            Expr::Atom(Atom::In(
                Term("Invitation Rel 2".into()),
                Term("DBPL_Rel".into())
            ))
        );
    }

    #[test]
    fn quantifier_on_rhs_of_connective() {
        let e = parse("x in C and forall y/D y = x").unwrap();
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("x in").is_err());
        assert!(parse("x ! y").is_err());
        assert!(parse("x = y z = w").is_err(), "trailing input");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("forall x C x = x").is_err(), "missing slash");
        assert!(parse("x.label").is_err(), "attribute needs = or defined");
        assert!(parse("x < y").is_err());
        assert!(parse("(x = y").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_refused_not_a_stack_overflow() {
        let too_deep =
            |src: String| matches!(parse(&src), Err(TelosError::TooDeep { limit: MAX_DEPTH }));
        let nots = |n: usize| format!("{}x in C", "not ".repeat(n));
        assert!(parse(&nots(MAX_DEPTH)).is_ok());
        // 20 000 `not`s: an 80 KB `holds` that overflowed the stack of
        // the thread that parsed it.
        assert!(too_deep(nots(MAX_DEPTH + 1)));
        assert!(too_deep(nots(20_000)));
        let wrapped = |open: &str, close: &str, n: usize| {
            format!("{}x in C{}", open.repeat(n), close.repeat(n))
        };
        assert!(parse(&wrapped("(", ")", MAX_DEPTH)).is_ok());
        assert!(too_deep(wrapped("(", ")", 20_000)));
        assert!(too_deep(wrapped("forall x/C ", "", 20_000)));
        assert!(too_deep(wrapped("x in C ==> ", "", 20_000)));
        assert!(too_deep(wrapped("x in C and not (", ")", 20_000)));
    }

    #[test]
    fn display_reparses() {
        let inputs = [
            "forall i/Invitation exists p/Person i.sender = p",
            "x in C and (y isa D or not z = w)",
            "a = b ==> c <> d",
        ];
        for input in inputs {
            let e1 = parse(input).unwrap();
            let e2 = parse(&e1.to_string()).unwrap();
            assert_eq!(e1, e2, "{input}");
        }
    }
}
