//! Evaluation of assertion-language expressions against a KB.
//!
//! Closed expressions evaluate to a boolean; open queries are answered
//! by [`find`], which enumerates the instances of a class satisfying a
//! body — the "open first-order logic expressions over CML objects" of
//! §3.1. Quantifiers range over *believed* instances, closed under
//! specialization.
//!
//! Both entry points read a [`Snapshot`], so the same evaluator answers
//! against the live KB (`kb.snapshot()`, current belief) or against a
//! pinned version at its watermark — the server's snapshot-isolated
//! ASK path.

use super::ast::{Atom, Expr, Term};
use crate::error::{TelosError, TelosResult};
use crate::kb::Snapshot;
use crate::prop::PropId;
use std::collections::HashMap;

/// A variable environment: bindings introduced by quantifiers (or by
/// the caller, for parameterized constraints).
pub type Env = HashMap<String, PropId>;

fn resolve(snap: &Snapshot<'_>, env: &Env, t: &Term) -> TelosResult<PropId> {
    if let Some(&id) = env.get(&t.0) {
        return Ok(id);
    }
    snap.lookup(&t.0)
        .ok_or_else(|| TelosError::Assertion(format!("unbound identifier `{}`", t.0)))
}

fn eval_atom(snap: &Snapshot<'_>, env: &Env, atom: &Atom) -> TelosResult<bool> {
    Ok(match atom {
        Atom::In(x, c) => {
            let x = resolve(snap, env, x)?;
            let c = resolve(snap, env, c)?;
            snap.is_instance_of(x, c)
        }
        Atom::Isa(c, d) => {
            let c = resolve(snap, env, c)?;
            let d = resolve(snap, env, d)?;
            c == d || snap.isa_ancestors(c).contains(&d)
        }
        Atom::Eq(x, y) => resolve(snap, env, x)? == resolve(snap, env, y)?,
        Atom::Ne(x, y) => resolve(snap, env, x)? != resolve(snap, env, y)?,
        Atom::HasAttr(x, label, y) => {
            let x = resolve(snap, env, x)?;
            let y = resolve(snap, env, y)?;
            snap.attr_values(x, label).contains(&y)
        }
        Atom::AttrDefined(x, label) => {
            let x = resolve(snap, env, x)?;
            !snap.attr_values(x, label).is_empty()
        }
    })
}

/// Evaluates a closed expression (given `env` for any caller-supplied
/// bindings).
pub fn eval(snap: &Snapshot<'_>, expr: &Expr, env: &mut Env) -> TelosResult<bool> {
    match expr {
        Expr::True => Ok(true),
        Expr::Atom(a) => eval_atom(snap, env, a),
        Expr::Not(e) => Ok(!eval(snap, e, env)?),
        Expr::And(a, b) => Ok(eval(snap, a, env)? && eval(snap, b, env)?),
        Expr::Or(a, b) => Ok(eval(snap, a, env)? || eval(snap, b, env)?),
        Expr::Implies(a, b) => Ok(!eval(snap, a, env)? || eval(snap, b, env)?),
        Expr::Forall(v, class, body) => {
            let class_id = snap
                .lookup(class)
                .ok_or_else(|| TelosError::Assertion(format!("unknown class `{class}`")))?;
            let shadowed = env.get(v).copied();
            for inst in snap.all_instances_of(class_id) {
                env.insert(v.clone(), inst);
                let ok = eval(snap, body, env)?;
                if !ok {
                    restore(env, v, shadowed);
                    return Ok(false);
                }
            }
            restore(env, v, shadowed);
            Ok(true)
        }
        Expr::Exists(v, class, body) => {
            let class_id = snap
                .lookup(class)
                .ok_or_else(|| TelosError::Assertion(format!("unknown class `{class}`")))?;
            let shadowed = env.get(v).copied();
            for inst in snap.all_instances_of(class_id) {
                env.insert(v.clone(), inst);
                let ok = eval(snap, body, env)?;
                if ok {
                    restore(env, v, shadowed);
                    return Ok(true);
                }
            }
            restore(env, v, shadowed);
            Ok(false)
        }
    }
}

fn restore(env: &mut Env, v: &str, shadowed: Option<PropId>) {
    match shadowed {
        Some(old) => {
            env.insert(v.to_string(), old);
        }
        None => {
            env.remove(v);
        }
    }
}

/// Open query: the believed instances `x` of `class` for which `body`
/// holds with `var ↦ x`.
pub fn find(snap: &Snapshot<'_>, var: &str, class: &str, body: &Expr) -> TelosResult<Vec<PropId>> {
    let class_id = snap
        .lookup(class)
        .ok_or_else(|| TelosError::Assertion(format!("unknown class `{class}`")))?;
    let mut out = Vec::new();
    let mut env = Env::new();
    for inst in snap.all_instances_of(class_id) {
        env.insert(var.to_string(), inst);
        if eval(snap, body, &mut env)? {
            out.push(inst);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::parser::parse;
    use crate::kb::Kb;

    /// The §2.1 document world: Papers with Invitation and Minutes
    /// subclasses, senders and receivers.
    fn scenario_kb() -> Kb {
        let mut kb = Kb::new();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let minutes = kb.individual("Minutes").unwrap();
        let person = kb.individual("Person").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.specialize(minutes, paper).unwrap();
        kb.put_attr(invitation, "sender", person).unwrap();
        let maria = kb.individual("maria").unwrap();
        let joe = kb.individual("joe").unwrap();
        kb.instantiate(maria, person).unwrap();
        kb.instantiate(joe, person).unwrap();
        let inv1 = kb.individual("inv1").unwrap();
        let inv2 = kb.individual("inv2").unwrap();
        kb.instantiate(inv1, invitation).unwrap();
        kb.instantiate(inv2, invitation).unwrap();
        let sender_class = kb.snapshot().find_attr_class(inv1, "sender").unwrap();
        kb.put_attr_typed(inv1, "sender", maria, sender_class)
            .unwrap();
        kb.put_attr_typed(inv2, "sender", joe, sender_class)
            .unwrap();
        kb
    }

    fn holds(kb: &Kb, src: &str) -> bool {
        eval(&kb.snapshot(), &parse(src).unwrap(), &mut Env::new()).unwrap()
    }

    #[test]
    fn atoms_evaluate() {
        let kb = scenario_kb();
        assert!(holds(&kb, "inv1 in Invitation"));
        assert!(holds(&kb, "inv1 in Paper"), "inheritance");
        assert!(!holds(&kb, "maria in Paper"));
        assert!(holds(&kb, "Invitation isa Paper"));
        assert!(holds(&kb, "Invitation isa Invitation"), "reflexive");
        assert!(!holds(&kb, "Paper isa Invitation"));
        assert!(holds(&kb, "inv1.sender = maria"));
        assert!(!holds(&kb, "inv1.sender = joe"));
        assert!(holds(&kb, "inv1.sender defined"));
        assert!(holds(&kb, "maria <> joe"));
        assert!(holds(&kb, "maria = maria"));
    }

    #[test]
    fn quantifiers_evaluate() {
        let kb = scenario_kb();
        assert!(holds(&kb, "forall i/Invitation i.sender defined"));
        assert!(holds(
            &kb,
            "forall i/Invitation exists p/Person i.sender = p"
        ));
        assert!(holds(&kb, "exists i/Invitation i.sender = maria"));
        assert!(!holds(&kb, "forall i/Invitation i.sender = maria"));
        assert!(
            !holds(&kb, "exists m/Minutes m in Paper"),
            "no Minutes instances"
        );
    }

    #[test]
    fn forall_over_superclass_sees_subclass_instances() {
        let kb = scenario_kb();
        // All Papers are Invitations right now — the assumption whose
        // failure drives fig 2-4.
        assert!(holds(&kb, "forall p/Paper p in Invitation"));
    }

    #[test]
    fn connectives() {
        let kb = scenario_kb();
        assert!(holds(&kb, "inv1 in Invitation and inv2 in Invitation"));
        assert!(holds(&kb, "inv1 in Minutes or inv1 in Invitation"));
        assert!(holds(&kb, "not inv1 in Minutes"));
        assert!(holds(&kb, "inv1 in Minutes ==> maria = joe"), "vacuous");
        assert!(holds(&kb, "true"));
    }

    #[test]
    fn variable_shadowing_restores() {
        let kb = scenario_kb();
        let mut env = Env::new();
        let maria = kb.lookup("maria").unwrap();
        env.insert("p".into(), maria);
        // The quantifier shadows p, then the binding is restored.
        let e = parse("exists p/Invitation p.sender defined").unwrap();
        assert!(eval(&kb.snapshot(), &e, &mut env).unwrap());
        assert_eq!(env.get("p"), Some(&maria));
    }

    #[test]
    fn find_answers_open_queries() {
        let kb = scenario_kb();
        let body = parse("i.sender = maria").unwrap();
        let hits = find(&kb.snapshot(), "i", "Invitation", &body).unwrap();
        assert_eq!(hits, vec![kb.lookup("inv1").unwrap()]);
        let all = find(&kb.snapshot(), "i", "Paper", &parse("true").unwrap()).unwrap();
        assert_eq!(all.len(), 2, "both invitations are papers");
    }

    #[test]
    fn unbound_identifier_is_error() {
        let kb = scenario_kb();
        let e = parse("ghost in Paper").unwrap();
        assert!(matches!(
            eval(&kb.snapshot(), &e, &mut Env::new()),
            Err(TelosError::Assertion(_))
        ));
        let e = parse("forall x/NoSuchClass x = x").unwrap();
        assert!(eval(&kb.snapshot(), &e, &mut Env::new()).is_err());
    }
}
