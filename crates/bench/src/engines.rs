//! The E-2 proof strategies the served system does not run.
//!
//! §3.1: "The Inference Engines support various proof strategies for
//! question-answering on the KB … [and] may enhance their performance
//! by lemma generation." The served ASK and every view answer through
//! one bottom-up kernel, `datalog::seminaive` (lemmas per version,
//! `datalog::ivm` for maintained views). The strategies E-2 contrasts
//! with it live here, beside the benches that measure them:
//!
//! * [`topdown`] — goal-directed SLD resolution with *tabling*, answers
//!   to subgoals kept as reusable lemmas;
//! * [`magic`] — the magic-sets transformation, letting the bottom-up
//!   kernel profit from query constants like the top-down one does.
//!
//! `tests/differential.rs` holds both to the kernel's model on random
//! stratified programs.

pub mod magic;
pub mod topdown;
