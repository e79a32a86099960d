#![warn(missing_docs)]

//! The **object processor** of ConceptBase (paper §3.1).
//!
//! "The Object Processor groups propositions around a common source —
//! the object identifier. … The Object Transformer transforms this
//! class into a set of propositions. … After executing a decision, the
//! knowledge base must be in a consistent state … verified by a
//! Consistency Checker."
//!
//! * [`frame`] — the CML frame syntax (`TELL Class Invitation in
//!   TDL_EntityClass isA Paper with attribute sender : Person end`);
//! * [`transform`] — the Object Transformer: frames ⇄ proposition sets
//!   (fig 3-2);
//! * [`consistency`] — the Consistency Checker: CML axioms plus class
//!   constraints, with the set-oriented batch optimization §3.1 says
//!   "is being studied" (benchmarked as E-1);
//! * [`query`] — ASK evaluation and the deductive-relational bridge to
//!   the `datalog` inference engine.

pub mod behaviour;
pub mod consistency;
pub mod error;
pub mod frame;
pub mod query;
pub mod transform;

pub use error::{ObError, ObResult};
pub use frame::ObjectFrame;
pub use transform::{frame_of, tell, untell_object, TellReceipt};
