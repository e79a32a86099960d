//! Stratification: layering a program so that negation is only applied
//! to fully computed predicates.
//!
//! A program is stratifiable iff its predicate dependency graph has no
//! cycle through a negative edge. The returned strata are evaluated in
//! order by the bottom-up engine; a negative cycle is reported as
//! [`DatalogError::NotStratifiable`].

use crate::ast::Program;
use crate::error::{DatalogError, DatalogResult};
use crate::predgraph::DepGraph;
use std::collections::HashMap;

/// The stratification result: for each IDB predicate its stratum, and
/// the rules grouped per stratum.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Stratum index per predicate (EDB predicates get stratum 0).
    pub stratum_of: HashMap<String, usize>,
    /// For each stratum, the indices of the program's rules in it.
    pub rules_per_stratum: Vec<Vec<usize>>,
}

/// Computes a stratification, or an error if the program has recursion
/// through negation.
pub fn stratify(program: &Program) -> DatalogResult<Stratification> {
    let graph = DepGraph::of(program);
    let preds = &graph.preds;

    // Iteratively raise strata: head >= body (positive), head > body
    // (negative). Converges in at most |preds| rounds; one more round
    // of change means a negative cycle.
    let mut stratum: HashMap<String, usize> = preds.iter().map(|p| (p.clone(), 0)).collect();
    let max_rounds = preds.len() + 1;
    for round in 0..=max_rounds {
        let mut changed = false;
        for r in &program.rules {
            let head_s = stratum[&r.head.pred];
            let mut needed = head_s;
            for l in &r.body {
                let body_s = stratum[&l.atom.pred];
                let min = if l.negated { body_s + 1 } else { body_s };
                needed = needed.max(min);
            }
            if needed > head_s {
                stratum.insert(r.head.pred.clone(), needed);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Detect divergence: one round past |preds|, or any stratum
        // beyond |preds|, implies a cycle through a negative edge. The
        // dependency graph names the actual cycle as the witness.
        if round == max_rounds || stratum.values().any(|&s| s > preds.len()) {
            let culprit = graph
                .negative_cycle()
                .map(|cycle| cycle.join(" -> "))
                .unwrap_or_else(|| "?".to_string());
            return Err(DatalogError::NotStratifiable(culprit));
        }
    }

    let max_stratum = stratum.values().copied().max().unwrap_or(0);
    let mut rules_per_stratum = vec![Vec::new(); max_stratum + 1];
    for (i, r) in program.rules.iter().enumerate() {
        rules_per_stratum[stratum[&r.head.pred]].push(i);
    }
    Ok(Stratification {
        stratum_of: stratum,
        rules_per_stratum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_program_single_stratum() {
        let p = Program::parse(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.rules_per_stratum.len(), 1);
        assert_eq!(s.stratum_of["path"], 0);
        assert_eq!(s.stratum_of["edge"], 0);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let p = Program::parse(
            "reach(X) :- source(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             unreached(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_of["reach"], 0);
        assert_eq!(s.stratum_of["unreached"], 1);
        assert_eq!(s.rules_per_stratum.len(), 2);
        assert_eq!(s.rules_per_stratum[1], vec![2]);
    }

    #[test]
    fn chained_negation_stacks_strata() {
        let p = Program::parse(
            "a(X) :- base(X).\n\
             b(X) :- base(X), not a(X).\n\
             c(X) :- base(X), not b(X).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_of["a"], 0);
        assert_eq!(s.stratum_of["b"], 1);
        assert_eq!(s.stratum_of["c"], 2);
    }

    #[test]
    fn recursion_through_negation_rejected() {
        let p = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        assert!(matches!(
            stratify(&p),
            Err(DatalogError::NotStratifiable(_))
        ));
    }

    #[test]
    fn negative_cycle_witness_in_error() {
        let p = Program::parse("win(X) :- move(X, Y), not win(Y).").unwrap();
        let Err(DatalogError::NotStratifiable(witness)) = stratify(&p) else {
            panic!("expected NotStratifiable");
        };
        assert_eq!(witness, "win -> win");
    }

    #[test]
    fn mutual_negative_recursion_rejected() {
        let p = Program::parse(
            "p(X) :- base(X), not q(X).\n\
             q(X) :- base(X), not p(X).",
        )
        .unwrap();
        assert!(stratify(&p).is_err());
    }

    #[test]
    fn empty_program() {
        let p = Program::default();
        let s = stratify(&p).unwrap();
        assert_eq!(s.rules_per_stratum.len(), 1);
        assert!(s.rules_per_stratum[0].is_empty());
    }
}
