//! Behaviours (§3.1): "Behaviours … are much like methods of classes
//! in SMALLTALK. They associate operations such as create or display
//! to the instances of a class by appropriate behaviour links."
//!
//! A [`BehaviourRegistry`] binds named operations (Rust closures) to
//! classes; the binding is documented in the KB as an attribute link
//! from the class to a behaviour object (an instance of the builtin
//! `Behaviour`). Invocation on an instance dispatches along its
//! classes, most specific first (direct classes before isa ancestors),
//! mirroring method lookup.

use crate::error::{ObError, ObResult};
use std::collections::HashMap;
use telos::{Kb, PropId, Snapshot};

/// The result type of a behaviour body.
pub type BehaviourResult = ObResult<String>;

/// A behaviour body: receives the snapshot it runs against and the
/// receiver object.
pub type BehaviourFn = Box<dyn Fn(Snapshot<'_>, PropId) -> BehaviourResult>;

/// Registry of behaviour implementations keyed by `(class, operation)`.
#[derive(Default)]
pub struct BehaviourRegistry {
    bodies: HashMap<(PropId, String), BehaviourFn>,
}

impl BehaviourRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BehaviourRegistry::default()
    }

    /// Binds `operation` on `class`: documents the behaviour link in
    /// the KB and stores the body. Rebinding replaces the body.
    pub fn bind(
        &mut self,
        kb: &mut Kb,
        class: &str,
        operation: &str,
        body: impl Fn(Snapshot<'_>, PropId) -> BehaviourResult + 'static,
    ) -> ObResult<()> {
        let class_id = kb
            .lookup(class)
            .ok_or_else(|| ObError::Unknown(format!("class `{class}`")))?;
        // Document the link: class --operation--> behaviour object.
        let obj_name = format!("{class}!{operation}");
        let already = kb.lookup(&obj_name).is_some();
        let b_obj = kb.individual(&obj_name)?;
        if !already {
            let behaviour_class = kb.builtins().behaviour;
            kb.instantiate(b_obj, behaviour_class)?;
            kb.put_attr(class_id, operation, b_obj)?;
        }
        self.bodies
            .insert((class_id, operation.to_string()), Box::new(body));
        Ok(())
    }

    /// The classes of `obj` in dispatch order: direct classes first (in
    /// KB order), then their isa ancestors breadth-first.
    fn dispatch_order(snap: Snapshot<'_>, obj: PropId) -> Vec<PropId> {
        let mut out = Vec::new();
        let direct = snap.classes_of(obj);
        for &c in &direct {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        for &c in &direct {
            for a in snap.isa_ancestors(c) {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Invokes `operation` on the object named `receiver` as `snap`
    /// believes it, dispatching along its classes. Errors if no class
    /// of the receiver binds the operation (a "message not understood").
    pub fn invoke(&self, snap: Snapshot<'_>, receiver: &str, operation: &str) -> BehaviourResult {
        let obj = snap
            .lookup(receiver)
            .ok_or_else(|| ObError::Unknown(format!("object `{receiver}`")))?;
        for class in Self::dispatch_order(snap, obj) {
            if let Some(body) = self.bodies.get(&(class, operation.to_string())) {
                return body(snap, obj);
            }
        }
        Err(ObError::Unknown(format!(
            "no behaviour `{operation}` understood by `{receiver}`"
        )))
    }

    /// The operations the object understands, sorted.
    pub fn understood(&self, snap: Snapshot<'_>, receiver: &str) -> ObResult<Vec<String>> {
        let obj = snap
            .lookup(receiver)
            .ok_or_else(|| ObError::Unknown(format!("object `{receiver}`")))?;
        let mut out: Vec<String> = Vec::new();
        for class in Self::dispatch_order(snap, obj) {
            for ((c, op), _) in self.bodies.iter() {
                if *c == class && !out.contains(op) {
                    out.push(op.clone());
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ObjectFrame;
    use crate::transform::{frame_at, tell_all};

    fn kb() -> Kb {
        let mut kb = Kb::new();
        tell_all(
            &mut kb,
            &ObjectFrame::parse_all(
                "TELL Paper isA Class end\n\
                 TELL Invitation isA Paper end\n\
                 TELL inv1 in Invitation end",
            )
            .unwrap(),
        )
        .unwrap();
        kb
    }

    #[test]
    fn display_behaviour_dispatches() {
        let mut kb = kb();
        let mut reg = BehaviourRegistry::new();
        reg.bind(&mut kb, "Paper", "display", |snap, obj| {
            Ok(frame_at(snap, obj)?.to_string())
        })
        .unwrap();
        // inv1 is an Invitation, display is inherited from Paper.
        let shown = reg.invoke(kb.snapshot(), "inv1", "display").unwrap();
        assert!(shown.contains("TELL inv1 in Invitation"));
    }

    #[test]
    fn most_specific_class_wins() {
        let mut kb = kb();
        let mut reg = BehaviourRegistry::new();
        reg.bind(&mut kb, "Paper", "kind", |_, _| Ok("paper".into()))
            .unwrap();
        reg.bind(
            &mut kb,
            "Invitation",
            "kind",
            |_, _| Ok("invitation".into()),
        )
        .unwrap();
        assert_eq!(
            reg.invoke(kb.snapshot(), "inv1", "kind").unwrap(),
            "invitation"
        );
    }

    #[test]
    fn message_not_understood() {
        let mut kb = kb();
        let reg = BehaviourRegistry::new();
        assert!(reg.invoke(kb.snapshot(), "inv1", "fly").is_err());
        assert!(reg.invoke(kb.snapshot(), "ghost", "display").is_err());
        let mut reg = BehaviourRegistry::new();
        reg.bind(&mut kb, "Paper", "display", |_, _| Ok("ok".into()))
            .unwrap();
        assert!(reg
            .bind(&mut kb, "Ghost", "x", |_, _| Ok(String::new()))
            .is_err());
    }

    #[test]
    fn behaviour_links_documented_in_kb() {
        let mut kb = kb();
        let mut reg = BehaviourRegistry::new();
        reg.bind(&mut kb, "Paper", "display", |_, _| Ok(String::new()))
            .unwrap();
        let paper = kb.lookup("Paper").unwrap();
        let targets = kb.snapshot().attr_values(paper, "display");
        assert_eq!(targets.len(), 1);
        let behaviour = kb.builtins().behaviour;
        assert!(kb.snapshot().is_instance_of(targets[0], behaviour));
        // Rebinding does not duplicate the link.
        reg.bind(&mut kb, "Paper", "display", |_, _| Ok("v2".into()))
            .unwrap();
        assert_eq!(kb.snapshot().attr_values(paper, "display").len(), 1);
        assert_eq!(reg.invoke(kb.snapshot(), "inv1", "display").unwrap(), "v2");
    }

    #[test]
    fn understood_lists_operations() {
        let mut kb = kb();
        let mut reg = BehaviourRegistry::new();
        reg.bind(&mut kb, "Paper", "display", |_, _| Ok(String::new()))
            .unwrap();
        reg.bind(&mut kb, "Invitation", "send", |_, _| Ok(String::new()))
            .unwrap();
        assert_eq!(
            reg.understood(kb.snapshot(), "inv1").unwrap(),
            vec!["display".to_string(), "send".to_string()]
        );
    }
}
