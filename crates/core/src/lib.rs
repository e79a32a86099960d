#![warn(missing_docs)]

//! The **Global Knowledge Base Management System** (GKBMS) — the
//! paper's primary contribution (§2.2, §3.2, §3.3).
//!
//! The GKBMS "views the software development and maintenance process
//! as a history of tool-supported decisions. These decisions are
//! directly represented; they can be planned for, reasoned about, and
//! selectively backtracked in case of errors or requirements changes.
//! Ex ante, the GKBMS can be seen as an integrative tool server …; ex
//! post, it plays the role of a documentation service in which
//! development objects are related to the decisions and tools that
//! created or changed them (i.e., justify their current status)."
//!
//! * [`metamodel`] — the conceptual process model: metaclasses
//!   `DesignObject`, `DesignDecision`, `DesignTool` with FROM/TO/BY
//!   links, bootstrapped as ordinary Telos TELLs (fig 3-3), plus the
//!   DAIDA kernel classes;
//! * [`decisions`] — decision classes, tool specifications, and
//!   system-guided tool selection (fig 2-6);
//! * [`system`] — the [`Gkbms`] itself: registering design objects,
//!   executing decisions as nested transactions with proof
//!   obligations, and **selective backtracking** over the design
//!   record;
//! * [`record`] — the design record: every decision class, tool and
//!   decision as the KB documents it, read back from any snapshot;
//! * [`design`] — the design index, the fold of what each commit told:
//!   each executed decision as the record decodes it, and each design
//!   object's registration with its producers and users;
//! * [`depgraph`] — dependency-graph derivation, one pass over the
//!   design index per call (figs 2-2 … 2-4);
//! * [`versions`] — version & configuration management from mapping /
//!   refinement / choice decisions (§3.3.2, fig 3-4);
//! * [`navigate`] — status-, process- and temporally-oriented browsing
//!   of decision histories, and the Model Display views of one object
//!   at a snapshot (§3.3.1);
//! * [`replay`] — decision replay and re-applicability testing
//!   ("revision support", §3.3);
//! * [`synth`] — seeded synthetic DAIDA-style histories at
//!   configurable scale, with backtracking / replay / navigation
//!   drivers (the E-3 workload machine);
//! * [`scenario`] — the §2.1 meeting-documents scenario as a reusable
//!   driver (used by the examples, the integration tests and the
//!   benches that regenerate figs 2-1 … 2-4 and 3-4).

pub mod conflict;
pub mod decisions;
pub mod depgraph;
pub mod design;
pub mod error;
pub mod explain;
pub mod journal;
pub mod metamodel;
pub mod mvcc;
pub mod navigate;
pub mod persist;
pub mod recall;
pub mod record;
pub mod replay;
pub mod scenario;
pub mod synth;
pub mod system;
pub mod versions;
pub mod views;

pub use decisions::{DecisionClass, DecisionDimension, Discharge, ToolSpec};
pub use error::{GkbmsError, GkbmsResult};
pub use journal::{CheckpointReport, FsyncPolicy, Journal, RecoveryReport};
pub use persist::{Applied, JournalOp};
pub use recall::RecallHit;
pub use system::{DecisionRequest, DecisionSummary, Gkbms, Published};
pub use views::RegisteredView;
