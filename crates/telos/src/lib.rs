#![warn(missing_docs)]

//! The CML/Telos **proposition processor** (paper §3.1).
//!
//! The knowledge base is a semantic network of quadruple propositions
//! `p = <x, l, y, t>`: node `x` has a link labelled `l` to node `y` at
//! time `t`, and the link itself is the object named `p`. Nodes are also
//! propositions (self-referential ones), classes are propositions, and
//! the CML axioms are attached to propositions — "enabling very flexible
//! modification and extension of the language".
//!
//! Modules:
//!
//! * [`symbols`] — interned labels and names;
//! * [`time`] — two-dimensional time (history/valid + belief/transaction),
//!   the Allen interval algebra \[ALLE83\] and an event calculus \[KS86\];
//! * [`prop`] — the proposition quadruple itself;
//! * [`kb`] — the proposition base with its four access paths, TELL /
//!   UNTELL, and typed retrieval;
//! * [`omega`] — the ω-level bootstrap (PROPOSITION, CLASS, the six
//!   predefined link classes, classification levels);
//! * [`axioms`] — the CML axioms (classification, specialization,
//!   aggregation/typing) as checkable judgements;
//! * [`assertion`] — the logic-based assertion language used by rule and
//!   constraint propositions;
//! * [`pvec`] / [`version`] — the persistent chunked store and its
//!   immutable [`version::KbVersion`] clones, the basis of the server's
//!   MVCC read path (readers pin a version; the writer publishes new
//!   ones).
//!
//! The proposition base is one in-memory [`PropStore`]: [`Kb`] writes
//! it, a [`KbVersion`] is a frozen clone of it, and every belief-time
//! read is a [`Snapshot`] of it. It does no I/O — a KB is made durable
//! one level up, by `gkbms::journal` logging the operations that built
//! it.

pub mod assertion;
pub mod axioms;
pub mod error;
pub mod kb;
pub mod omega;
pub mod prop;
pub mod pvec;
pub mod symbols;
pub mod time;
pub mod version;

pub use error::{TelosError, TelosResult};
pub use kb::{Committed, Kb, KbRead, Snapshot};
pub use prop::{PropId, Proposition};
pub use symbols::{Symbol, SymbolTable};
pub use time::interval::Interval;
pub use time::point::TimePoint;
pub use version::{KbVersion, PropStore};
