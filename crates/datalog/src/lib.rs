#![warn(missing_docs)]

//! The **inference engine** of ConceptBase (paper §3.1).
//!
//! "The Inference Engines support various proof strategies for
//! question-answering on the KB … The inference engines may enhance
//! their performance by lemma generation." The served system answers
//! through one proof strategy, [`seminaive`]: bottom-up, semi-naive
//! fixpoint evaluation with stratified negation (the
//! deductive-relational view of the object processor). Its lemmas are
//! kept per KB version by `objectbase::query` and per maintained view
//! by [`ivm`]. The goal-directed strategies E-2 contrasts with it live
//! in the benchmark crate (`bench::engines`), beside the benches that
//! measure them.
//!
//! The rule language is classic datalog with negation: see [`ast`] for
//! the textual syntax.
//!
//! # Storage and join evaluation
//!
//! Evaluation runs on one storage layer ([`db`]): predicate names and
//! symbolic constants are interned into a global pool ([`intern`]), so
//! relations hold rows of `Copy` ids rather than strings, and every
//! relation carries **secondary hash indexes keyed on binding
//! patterns** — bitmasks of bound argument positions. An index is
//! built lazily the first time a join probes its pattern and is
//! maintained incrementally on insert and remove.
//!
//! Bottom-up evaluation has **one join kernel** (the private `join`
//! module): a rule compiled to slot form, one *source* per body
//! position saying where that literal reads from, and a single
//! recursive indexed join — the positive delta literal first, binding
//! mask and probe key taken from the run-time environment, a fully
//! ground literal a plain membership test. Its callers only choose
//! sources:
//!
//! * [`seminaive::evaluate`] — the model so far, one position per rule
//!   version restricted to the previous round's delta;
//! * [`ivm`] — overlays of the maintained model and the pending
//!   insert/delete sets (old state, new state, old ∩ new), one position
//!   restricted to a change set, or the environment pre-seeded from a
//!   head tuple for rederivation.
//!
//! Off that kernel by design: [`seminaive::evaluate_scan`], the
//! pre-index scan core kept as the independent oracle of the
//! differential tests, the deduction gate and the E-2 ablation.
//!
//! [`seminaive::EvalStats`] reports `index_probes`, `tuples_scanned`
//! and `derivations` for every kernel run; [`ivm::ApplyStats`] carries
//! the same three per view refresh.
//!
//! # Incremental view maintenance
//!
//! [`ivm`] keeps a program's full model materialized under TELL/UNTELL
//! churn instead of recomputing it per query: delete-and-rederive
//! (DRed) for every stratum, recursive or not, over a model that is
//! the view's only copy of the tuples — first built by
//! [`seminaive::evaluate`] — with a TELL multiplicity kept for the
//! extensional tuples told more than once, so re-telling and untelling
//! facts compose idempotently.

pub mod ast;
pub mod db;
pub mod error;
pub mod intern;
pub mod ivm;
mod join;
pub mod predgraph;
pub mod seminaive;
pub mod stratify;

pub use ast::{Atom, Literal, Program, Rule, Term, Value};
pub use db::Database;
pub use error::{DatalogError, DatalogResult};
pub use ivm::MaterializedView;
