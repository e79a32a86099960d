//! Focusing, browsing and zooming over a KB (§3.3.1).
//!
//! "Such an exploration typically starts from a focus object or
//! decision … Focusing in any of these structures is done by mouse
//! selection" — here, by API calls. The session keeps a focus history
//! (for "recovery facilities") and renders the neighbourhood of the
//! focus with the text DAG browser or the relational display.

use crate::display::relational::Table;
use crate::display::textdag::{self, Bounds};
use telos::{PropId, Snapshot};

/// An interactive browse session over a KB as believed at one tick.
pub struct BrowseSession<'a> {
    kb: Snapshot<'a>,
    focus: PropId,
    history: Vec<PropId>,
    bounds: Bounds,
}

/// Errors of the browse session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowseError {
    /// The requested focus does not exist.
    UnknownObject(String),
    /// No earlier focus to return to.
    HistoryEmpty,
}

impl std::fmt::Display for BrowseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrowseError::UnknownObject(n) => write!(f, "unknown object `{n}`"),
            BrowseError::HistoryEmpty => write!(f, "focus history is empty"),
        }
    }
}

impl std::error::Error for BrowseError {}

impl<'a> BrowseSession<'a> {
    /// Starts a session over `kb` focused on `name`.
    pub fn start(kb: Snapshot<'a>, name: &str) -> Result<Self, BrowseError> {
        let focus = kb
            .lookup(name)
            .ok_or_else(|| BrowseError::UnknownObject(name.to_string()))?;
        Ok(BrowseSession {
            kb,
            focus,
            history: Vec::new(),
            bounds: Bounds::default(),
        })
    }

    /// The current focus.
    pub fn focus(&self) -> PropId {
        self.focus
    }

    /// The current focus name.
    pub fn focus_name(&self) -> String {
        self.kb.store().display(self.focus)
    }

    /// Changes the display bounds.
    pub fn set_bounds(&mut self, bounds: Bounds) {
        self.bounds = bounds;
    }

    /// Moves the focus, pushing the old one onto the history.
    pub fn focus_on(&mut self, name: &str) -> Result<(), BrowseError> {
        let next = self
            .kb
            .lookup(name)
            .ok_or_else(|| BrowseError::UnknownObject(name.to_string()))?;
        self.history.push(self.focus);
        self.focus = next;
        Ok(())
    }

    /// Returns to the previous focus.
    pub fn back(&mut self) -> Result<(), BrowseError> {
        let prev = self.history.pop().ok_or(BrowseError::HistoryEmpty)?;
        self.focus = prev;
        Ok(())
    }

    /// The specialization view: the isa sub-hierarchy below the focus,
    /// rendered with the text DAG browser (fig 2-1's IsA window).
    pub fn isa_tree(&self) -> String {
        let kb = self.kb;
        textdag::render(&self.focus_name(), self.bounds, |name| {
            match kb.lookup(name) {
                None => Vec::new(),
                Some(id) => {
                    let mut kids: Vec<String> = kb
                        .isa_children(id)
                        .into_iter()
                        .map(|c| kb.store().display(c))
                        .collect();
                    kids.sort();
                    kids
                }
            }
        })
    }

    /// The classification view: instances below the focus class.
    pub fn instance_tree(&self) -> String {
        let kb = self.kb;
        textdag::render(&self.focus_name(), self.bounds, |name| {
            match kb.lookup(name) {
                None => Vec::new(),
                Some(id) => {
                    let mut kids: Vec<String> = kb
                        .isa_children(id)
                        .into_iter()
                        .chain(kb.instances_of(id))
                        .map(|c| kb.store().display(c))
                        .collect();
                    kids.sort();
                    kids.dedup();
                    kids
                }
            }
        })
    }

    /// The relational view of the focus: one row per attribute
    /// (fig 3-1's Object Processor level).
    pub fn attribute_table(&self) -> Table {
        let mut t = Table::new(&["attribute", "value"]);
        let store = self.kb.store();
        for attr in self.kb.attrs_of(self.focus) {
            if let Some(p) = store.prop(attr) {
                t.row(&[store.resolve_sym(p.label), &store.display(p.dest)]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telos::Kb;

    fn kb() -> Kb {
        let mut kb = Kb::new();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let minutes = kb.individual("Minutes").unwrap();
        let person = kb.individual("Person").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.specialize(minutes, paper).unwrap();
        kb.put_attr(invitation, "sender", person).unwrap();
        let inv1 = kb.individual("inv1").unwrap();
        kb.instantiate(inv1, invitation).unwrap();
        kb
    }

    #[test]
    fn focus_and_history() {
        let kb = kb();
        let mut s = BrowseSession::start(kb.snapshot(), "Paper").unwrap();
        assert_eq!(s.focus_name(), "Paper");
        s.focus_on("Invitation").unwrap();
        assert_eq!(s.focus_name(), "Invitation");
        s.back().unwrap();
        assert_eq!(s.focus_name(), "Paper");
        assert_eq!(s.back(), Err(BrowseError::HistoryEmpty));
        assert!(matches!(
            s.focus_on("Ghost"),
            Err(BrowseError::UnknownObject(_))
        ));
        assert!(BrowseSession::start(kb.snapshot(), "Ghost").is_err());
    }

    #[test]
    fn isa_tree_renders_hierarchy() {
        let kb = kb();
        let s = BrowseSession::start(kb.snapshot(), "Paper").unwrap();
        let tree = s.isa_tree();
        assert!(tree.starts_with("Paper\n"));
        assert!(tree.contains("|- Invitation"));
        assert!(tree.contains("`- Minutes"));
    }

    #[test]
    fn instance_tree_includes_instances() {
        let kb = kb();
        let s = BrowseSession::start(kb.snapshot(), "Paper").unwrap();
        let tree = s.instance_tree();
        assert!(tree.contains("inv1"));
    }

    #[test]
    fn attribute_table_lists_attrs() {
        let kb = kb();
        let mut s = BrowseSession::start(kb.snapshot(), "Paper").unwrap();
        s.focus_on("Invitation").unwrap();
        let t = s.attribute_table();
        let rendered = t.render();
        assert!(rendered.contains("sender"));
        assert!(rendered.contains("Person"));
    }

    #[test]
    fn bounds_are_respected() {
        let kb = kb();
        let mut s = BrowseSession::start(kb.snapshot(), "Paper").unwrap();
        s.set_bounds(Bounds { depth: 0, width: 8 });
        assert_eq!(s.isa_tree(), "Paper\n");
    }
}
