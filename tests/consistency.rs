//! The set-oriented consistency check walks no class when the KB
//! believes no constraint, and reads each object's class closure once
//! per batch. Both are optimizations, so they are held to the plain
//! algorithm here: a gather of *every* class the batch's objects reach,
//! and axiom walkers that compute every class closure afresh, are
//! copied below and must report the same violations, in the same order,
//! with the same number of constraints evaluated, on random KBs with
//! multi-level specialization, metaclasses, constraints on classes,
//! superclasses and metaclasses, constraints told inside the checked
//! batch and constraints untold again.

use conceptbase::gkbms::metamodel::kernel;
use conceptbase::gkbms::synth::names;
use conceptbase::gkbms::{DecisionRequest, Gkbms, GkbmsError};
use conceptbase::objectbase::consistency::{check_touched, Violation};
use conceptbase::objectbase::frame::FrameAttr;
use conceptbase::objectbase::transform::{constraints_of, markers, tell, untell_object};
use conceptbase::objectbase::ObjectFrame;
use conceptbase::telos::assertion::{eval, parse, Env};
use conceptbase::telos::axioms;
use conceptbase::telos::kb::{L_INSTANCEOF, L_ISA};
use conceptbase::telos::omega::names::CLASS;
use conceptbase::telos::{ClassClosures, Kb, PropId, Snapshot};
use std::collections::HashSet;

/// The plain algorithm, as the set-oriented check ran before it asked
/// whether any class carries a constraint.
mod reference {
    use super::*;
    use conceptbase::telos::Proposition;

    fn seen(snap: Snapshot<'_>, id: PropId) -> Option<&Proposition> {
        snap.store().prop(id).filter(|p| p.believed_at(snap.at()))
    }

    fn typing_for(snap: Snapshot<'_>, id: PropId, out: &mut Vec<axioms::Violation>) {
        let store = snap.store();
        let Some(p) = seen(snap, id).filter(|p| !p.is_individual()) else {
            return;
        };
        let Some(attr_class_id) = snap.classes_of(id).into_iter().next() else {
            return;
        };
        let Some(attr_class) = store.prop(attr_class_id) else {
            return;
        };
        if attr_class.is_individual() {
            return;
        }
        let (c, d) = (attr_class.source, attr_class.dest);
        if !snap.is_instance_of(p.source, c) {
            out.push(axioms::Violation {
                axiom: "attribute-typing/source",
                prop: id,
                message: format!(
                    "{}: source `{}` is not an instance of `{}`",
                    store.display(id),
                    store.display(p.source),
                    store.display(c)
                ),
            });
        }
        if !snap.is_instance_of(p.dest, d) {
            out.push(axioms::Violation {
                axiom: "attribute-typing/dest",
                prop: id,
                message: format!(
                    "{}: destination `{}` is not an instance of `{}`",
                    store.display(id),
                    store.display(p.dest),
                    store.display(d)
                ),
            });
        }
    }

    fn declared_for(snap: Snapshot<'_>, id: PropId, out: &mut Vec<axioms::Violation>) {
        let Some(p) = seen(snap, id).filter(|p| !p.is_individual()) else {
            return;
        };
        let label = snap.store().resolve_sym(p.label).to_string();
        if label == L_INSTANCEOF || label == L_ISA {
            return;
        }
        let owner = p.source;
        if snap.classes_of(owner).is_empty() {
            return;
        }
        let class = snap.lookup(CLASS);
        if class.is_some_and(|class| snap.is_instance_of(owner, class)) {
            return;
        }
        if snap.find_attr_class(owner, &label).is_none() {
            out.push(axioms::Violation {
                axiom: "aggregation/undeclared",
                prop: id,
                message: format!(
                    "attribute `{}` on `{}` matches no attribute class",
                    label,
                    snap.store().display(owner)
                ),
            });
        }
    }

    fn acyclic_for(snap: Snapshot<'_>, id: PropId, out: &mut Vec<axioms::Violation>) {
        let Some(p) = seen(snap, id).filter(|p| !p.is_individual()) else {
            return;
        };
        if snap.store().resolve_sym(p.label) != L_ISA {
            return;
        }
        if snap.isa_ancestors(p.dest).contains(&p.source) {
            out.push(axioms::Violation {
                axiom: "specialization/cycle",
                prop: id,
                message: format!("isa cycle through {}", snap.store().display(id)),
            });
        }
    }

    fn refinement_for(snap: Snapshot<'_>, c: PropId, out: &mut Vec<axioms::Violation>) {
        let store = snap.store();
        if !seen(snap, c).is_some_and(Proposition::is_individual) {
            return;
        }
        for d in snap.isa_ancestors(c) {
            for attr_c in snap.attrs_of(c) {
                let Some(ac) = store.prop(attr_c) else {
                    continue;
                };
                let label = store.resolve_sym(ac.label).to_string();
                let super_decls: Vec<PropId> = snap
                    .attrs_of(d)
                    .into_iter()
                    .filter(|&a| {
                        store
                            .prop(a)
                            .is_some_and(|ad| store.resolve_sym(ad.label) == label)
                    })
                    .collect();
                if super_decls.is_empty() {
                    continue;
                }
                let refines_one = super_decls.iter().any(|&a| {
                    let Some(ad) = store.prop(a) else {
                        return false;
                    };
                    ac.dest == ad.dest
                        || snap.isa_ancestors(ac.dest).contains(&ad.dest)
                        || snap.is_instance_of(ac.dest, ad.dest)
                });
                if !refines_one {
                    out.push(axioms::Violation {
                        axiom: "specialization/attribute-refinement",
                        prop: attr_c,
                        message: format!(
                            "`{}`.{} : `{}` refines no `{}`.{} declaration",
                            store.display(c),
                            label,
                            store.display(ac.dest),
                            store.display(d),
                            label
                        ),
                    });
                }
            }
        }
    }

    /// The batch axiom check with every class closure walked afresh
    /// for each question asked of it.
    pub fn check_props(snap: Snapshot<'_>, ids: &[PropId]) -> Vec<axioms::Violation> {
        let store = snap.store();
        let mut out = Vec::new();
        let mut refinement_roots: Vec<PropId> = Vec::new();
        for &id in ids {
            typing_for(snap, id, &mut out);
            declared_for(snap, id, &mut out);
            acyclic_for(snap, id, &mut out);
            let Some(p) = store.prop(id) else { continue };
            let root = if p.is_individual() { id } else { p.source };
            if !refinement_roots.contains(&root) {
                refinement_roots.push(root);
            }
            let is_isa = !p.is_individual() && store.resolve_sym(p.label) == L_ISA;
            let is_attr_decl =
                !p.is_individual() && store.resolve_sym(p.label) != L_INSTANCEOF && !is_isa;
            if is_isa || is_attr_decl {
                for desc in snap.isa_descendants(p.source) {
                    if !refinement_roots.contains(&desc) {
                        refinement_roots.push(desc);
                    }
                }
            }
        }
        for root in refinement_roots {
            refinement_for(snap, root, &mut out);
        }
        out
    }

    fn check_class_constraints(
        snap: Snapshot<'_>,
        class: PropId,
        out: &mut Vec<Violation>,
        evaluated: &mut usize,
    ) {
        let class_name = snap.store().display(class);
        for (name, text) in constraints_of(snap, class) {
            *evaluated += 1;
            match parse(&text) {
                Err(e) => out.push(Violation::Unevaluable {
                    class: class_name.clone(),
                    name,
                    message: e.to_string(),
                }),
                Ok(expr) => match eval(&snap, &expr, &mut Env::new()) {
                    Err(e) => out.push(Violation::Unevaluable {
                        class: class_name.clone(),
                        name,
                        message: e.to_string(),
                    }),
                    Ok(true) => {}
                    Ok(false) => out.push(Violation::Constraint {
                        class: class_name.clone(),
                        name,
                        text,
                    }),
                },
            }
        }
    }

    /// The constraint half of the check: every class every touched
    /// object reaches, sorted, each asked for its constraints.
    /// Returns the violations, the classes visited and the
    /// constraints evaluated.
    pub fn check_constraints(
        snap: Snapshot<'_>,
        touched: &[PropId],
    ) -> (Vec<Violation>, usize, usize) {
        let mut classes: HashSet<PropId> = HashSet::new();
        for &t in touched {
            let Some(p) = snap.store().prop(t) else {
                continue;
            };
            let objects = if p.is_individual() {
                vec![t]
            } else {
                vec![p.source, p.dest]
            };
            for obj in objects {
                classes.insert(obj);
                classes.extend(snap.all_classes_of(obj));
            }
        }
        let mut ordered: Vec<PropId> = classes.into_iter().collect();
        ordered.sort();
        let (mut out, mut visited, mut evaluated) = (Vec::new(), 0, 0);
        for class in ordered {
            let object = snap.store().prop(class);
            if !object.is_some_and(|p| p.believed_at(snap.at()) && p.is_individual()) {
                continue;
            }
            visited += 1;
            check_class_constraints(snap, class, &mut out, &mut evaluated);
        }
        (out, visited, evaluated)
    }
}

/// splitmix64: the generator's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, names: &'a [String]) -> &'a str {
        &names[self.below(names.len())]
    }
}

/// A random KB and the batch to check in it.
struct Case {
    kb: Kb,
    batch: Vec<PropId>,
}

/// Constraint texts over owner `t`: true, false, either, and
/// unevaluable ones.
fn constraint_text(rng: &mut Rng, t: &str, names: &[String]) -> String {
    let u = rng.pick(names);
    match rng.below(6) {
        0 => "true".to_string(),
        1 => format!("forall x/{t} x.a{} defined", rng.below(3)),
        2 => format!("exists x/{t} x in {t}"),
        3 => format!("forall x/{t} x in {u}"),
        4 => format!("not ({t} isa {u})"),
        _ => format!("ghost{} in {t}", rng.below(3)),
    }
}

fn frame(name: &str) -> ObjectFrame {
    ObjectFrame {
        name: name.to_string(),
        ..ObjectFrame::default()
    }
}

/// Metaclasses `M*` (some specializing others), classes `C*` in them
/// under a multi-level isa forest with attribute declarations, tokens
/// `o*` in the classes with declared and undeclared attributes, and
/// constraints on all three levels — some through a specialization of
/// `ConstraintAssertion`, some untold again. The batch is what the last
/// few TELLs created plus a sample of older propositions, so
/// constraints are told inside it too.
fn generate(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let mut kb = Kb::new();
    let metas: Vec<String> = (0..1 + rng.below(3)).map(|i| format!("M{i}")).collect();
    for (i, m) in metas.iter().enumerate() {
        let mut f = frame(m);
        if i > 0 && rng.chance(40) {
            f.isa.push(metas[rng.below(i)].clone());
        }
        let _ = tell(&mut kb, &f);
    }
    let classes: Vec<String> = (0..3 + rng.below(6)).map(|i| format!("C{i}")).collect();
    for (i, c) in classes.iter().enumerate() {
        let mut f = frame(c);
        f.classes.push(rng.pick(&metas).to_string());
        if i > 0 && rng.chance(70) {
            f.isa.push(classes[rng.below(i)].clone());
        }
        if i > 1 && rng.chance(25) {
            f.isa.push(classes[rng.below(i)].clone());
            f.isa.dedup();
        }
        for a in 0..3 {
            if rng.chance(40) {
                f.attrs
                    .push(attr(&format!("a{a}"), rng.pick(&classes[..=i])));
            }
        }
        let _ = tell(&mut kb, &f);
    }
    let mut levels: Vec<String> = metas.clone();
    levels.extend(classes.iter().cloned());

    let mut tokens: Vec<String> = Vec::new();
    let mut constrained: Vec<(String, String)> = Vec::new();
    let steps = 6 + rng.below(14);
    let batch_from = steps - 1 - rng.below(4);
    let mut mark = kb.len();
    for step in 0..steps {
        if step == batch_from {
            mark = kb.len();
        }
        match rng.below(10) {
            // A token, its attributes declared or not.
            0..=3 => {
                let name = format!("o{}", tokens.len());
                let mut f = frame(&name);
                f.classes.push(rng.pick(&classes).to_string());
                if !tokens.is_empty() && rng.chance(60) {
                    let value = rng.pick(&tokens).to_string();
                    f.attrs.push(attr(&format!("a{}", rng.below(4)), &value));
                }
                let _ = tell(&mut kb, &f);
                tokens.push(name);
            }
            // A constraint on a metaclass, a class or a superclass.
            4..=6 => {
                let owner = rng.pick(&levels).to_string();
                let name = format!("k{step}");
                let mut f = frame(&owner);
                f.constraints
                    .push((name.clone(), constraint_text(&mut rng, &owner, &levels)));
                if tell(&mut kb, &f).is_ok() {
                    constrained.push((owner, name));
                }
            }
            // A constraint through a specialization of the marker class.
            7 if kb.lookup(markers::CONSTRAINT).is_some() => {
                let owner = kb.lookup(rng.pick(&levels)).expect("told");
                let marker = kb.lookup(markers::CONSTRAINT).expect("marker");
                let special = kb.individual("SpecialConstraint").expect("individual");
                kb.specialize(special, marker).expect("isa");
                let assertion = kb
                    .individual(&format!("special{step}"))
                    .expect("individual");
                kb.instantiate(assertion, special).expect("in");
                let text = constraint_text(&mut rng, &kb.display(owner), &levels);
                let text = kb.individual(&text).expect("individual");
                kb.put_attr(assertion, markers::TEXT, text).expect("text");
                kb.put_attr(owner, &format!("s{step}"), assertion)
                    .expect("link");
                kb.tick();
            }
            // A constraint untold again.
            8 if !constrained.is_empty() => {
                let (owner, name) = constrained.swap_remove(rng.below(constrained.len()));
                let _ = untell_object(&mut kb, &format!("{owner}!{name}"));
                kb.tick();
            }
            // A class gains a metaclass.
            _ => {
                let mut f = frame(rng.pick(&classes));
                f.classes.push(rng.pick(&metas).to_string());
                let _ = tell(&mut kb, &f);
            }
        }
    }
    let mut batch: Vec<PropId> = (mark..kb.len()).map(|i| PropId(i as u32)).collect();
    for _ in 0..rng.below(6) {
        batch.push(PropId(rng.below(kb.len()) as u32));
    }
    Case { kb, batch }
}

fn attr(label: &str, value: &str) -> FrameAttr {
    FrameAttr {
        label: label.to_string(),
        value: value.to_string(),
    }
}

/// What the cases covered, so the property cannot pass vacuously.
#[derive(Default)]
struct Coverage {
    evaluated: usize,
    constraint_violations: usize,
    unevaluable: usize,
    axiom_violations: usize,
    metaclass_evaluations: usize,
    fewer_classes: usize,
}

fn check_case(seed: u64, coverage: &mut Coverage) {
    let Case { kb, batch } = generate(seed);
    let snap = kb.snapshot();

    let memoized = axioms::check_props(&mut ClassClosures::new(snap), &batch);
    let plain = reference::check_props(snap, &batch);
    assert_eq!(memoized, plain, "seed {seed}: memoized axiom check");

    let (violations, stats) = check_touched(snap, &batch);
    let (constraint_violations, visited, evaluated) = reference::check_constraints(snap, &batch);
    let mut expected: Vec<Violation> = memoized
        .iter()
        .map(|v| Violation::Axiom(v.to_string()))
        .collect();
    expected.extend(constraint_violations);
    assert_eq!(violations, expected, "seed {seed}: violations");
    assert_eq!(
        stats.constraints_evaluated, evaluated,
        "seed {seed}: constraints evaluated"
    );
    assert!(
        stats.classes_visited <= visited,
        "seed {seed}: {stats:?} vs {visited} classes"
    );

    coverage.evaluated += evaluated;
    coverage.fewer_classes += usize::from(stats.classes_visited < visited);
    for v in &violations {
        match v {
            Violation::Axiom(_) => coverage.axiom_violations += 1,
            Violation::Constraint { .. } => coverage.constraint_violations += 1,
            Violation::Unevaluable { .. } => coverage.unevaluable += 1,
        }
    }
    let metaclass = |class: &str| class.starts_with('M');
    let touched_metaclasses = violations.iter().any(|v| match v {
        Violation::Constraint { class, .. } | Violation::Unevaluable { class, .. } => {
            metaclass(class)
        }
        Violation::Axiom(_) => false,
    });
    coverage.metaclass_evaluations += usize::from(touched_metaclasses);
}

#[test]
fn set_oriented_check_equals_the_gather_of_every_class() {
    let mut coverage = Coverage::default();
    for seed in 0..300 {
        check_case(seed, &mut coverage);
    }
    assert!(
        coverage.evaluated > 100,
        "constraints evaluated: {}",
        coverage.evaluated
    );
    assert!(coverage.constraint_violations > 10);
    assert!(coverage.unevaluable > 10);
    assert!(coverage.axiom_violations > 10);
    assert!(coverage.metaclass_evaluations > 10);
    assert!(
        coverage.fewer_classes > 100,
        "only constrained classes count"
    );
}

fn counter(name: &str) -> u64 {
    conceptbase::obs::registry()
        .counter_value(name)
        .unwrap_or(0)
}

/// The decision `tests/admission.rs` aborts: its output lands in a
/// subclass of `DBPL_Rel` whose constraint it violates. The check
/// visits that class and evaluates its constraint — the counters move —
/// and the decision is still aborted.
#[test]
fn a_constrained_decision_moves_the_check_counters() {
    let mut g = Gkbms::new().unwrap();
    conceptbase::gkbms::synth::setup(&mut g).unwrap();
    g.tell_src(
        "TELL KeyedRel isA DBPL_Rel with\n\
           attribute key : Proposition\n\
           constraint keyed : $ forall r/KeyedRel r.key defined $\n\
         end",
    )
    .unwrap();
    g.register_object("Keyless", kernel::TDL_ENTITY_CLASS, "design.tdl#Keyless")
        .unwrap();
    let visited = counter("objectbase_consistency_classes_visited_total");
    let evaluated = counter("objectbase_constraints_evaluated_total");
    let request = DecisionRequest::new(names::DISTRIBUTE, "mapKeyless", names::AGENT)
        .with_tool(names::MAPPER)
        .input("Keyless")
        .output("keylessRel", "KeyedRel");
    let err = g.execute(request).unwrap_err();
    assert!(matches!(err, GkbmsError::Aborted { .. }), "{err}");
    assert!(counter("objectbase_consistency_classes_visited_total") > visited);
    assert!(counter("objectbase_constraints_evaluated_total") > evaluated);
}

/// With no constraint in the KB, a decision's check visits no class.
#[test]
fn an_unconstrained_batch_visits_no_class() {
    let mut kb = Kb::new();
    let receipt = tell(&mut kb, &ObjectFrame::parse("TELL Paper end").unwrap()).unwrap();
    let (violations, stats) = check_touched(kb.snapshot(), &receipt.created);
    assert!(violations.is_empty());
    assert_eq!(stats.classes_visited, 0);
    assert_eq!(stats.constraints_evaluated, 0);
}
