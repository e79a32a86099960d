//! The logic-based assertion language of CML (§3.1).
//!
//! "Queries are built using (open or closed) first-order logic
//! expressions over CML objects. Since the same assertion language is
//! used in rules …, the inference engines are also capable of
//! evaluating rules." Constraint propositions point to objects
//! representing such expressions; here they are parsed ([`parser`]),
//! represented ([`ast`]) and evaluated ([`mod@eval`]) against a
//! [`crate::Snapshot`].

pub mod ast;
pub mod eval;
pub mod parser;
pub mod sortck;

pub use ast::{Atom, Expr, Term};
pub use eval::{eval, find, Env};
pub use parser::{parse, MAX_DEPTH};
pub use sortck::{sort_check, SortIssue};
