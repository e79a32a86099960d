//! Decision classes, tool specifications and tool selection (fig 2-6).
//!
//! "Design decision classes specify how to transform an existing set
//! of design objects into another set of objects … each design
//! decision class is linked to a set of tool specifications. A
//! decision class may be fully supported by a tool, or the tool may
//! just aid manual decision execution. In the latter case,
//! verification obligations are defined by the decision class for
//! those constraints not guaranteed by the tool."

use std::fmt;

/// The §3.3.2 decision dimensions driving version and configuration
/// management: "Allowable multi-level configurations … are those which
/// are interrelated by mapping decisions (vertical configuration) …
/// Allowable one-level (sub)configurations must be consistent, as
/// documented by refinement decisions … Versioning rests upon choice
/// decisions."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionDimension {
    /// Maps objects between life-cycle levels (vertical configuration).
    Mapping,
    /// Refines objects within one level (horizontal configuration).
    Refinement,
    /// Chooses among alternatives (versioning).
    Choice,
}

impl fmt::Display for DecisionDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl DecisionDimension {
    /// Its [`Display`](fmt::Display) name.
    fn name(self) -> &'static str {
        match self {
            DecisionDimension::Mapping => "mapping",
            DecisionDimension::Refinement => "refinement",
            DecisionDimension::Choice => "choice",
        }
    }

    /// The dimension whose [`Display`](fmt::Display) name is `name`.
    pub(crate) fn named(name: &str) -> Option<Self> {
        let all = [Self::Mapping, Self::Refinement, Self::Choice];
        all.into_iter().find(|d| d.name() == name)
    }
}

/// A verification obligation of a decision class: a constraint that
/// must hold after execution, unless a tool specification guarantees
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Obligation name (e.g. `keys-unique`).
    pub name: String,
    /// Assertion text (evaluable) or prose description (checked by
    /// signature only).
    pub statement: String,
}

/// A design decision class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionClass {
    /// Class name (e.g. `DecNormalize`).
    pub name: String,
    /// Optional more general decision class this one specializes
    /// ("normally the most specific one" wins at tool selection).
    pub specializes: Option<String>,
    /// Decision dimension.
    pub dimension: DecisionDimension,
    /// Design-object classes accepted as inputs (FROM).
    pub from_classes: Vec<String>,
    /// Design-object classes produced as outputs (TO).
    pub to_classes: Vec<String>,
    /// Precondition over the focus object, in the assertion language
    /// with free variable `x` (e.g. `x in TDL_EntityClass`).
    pub precondition: Option<String>,
    /// Verification obligations.
    pub obligations: Vec<Obligation>,
}

impl DecisionClass {
    /// A builder-style constructor.
    pub fn new(name: impl Into<String>, dimension: DecisionDimension) -> Self {
        DecisionClass {
            name: name.into(),
            specializes: None,
            dimension,
            from_classes: Vec::new(),
            to_classes: Vec::new(),
            precondition: None,
            obligations: Vec::new(),
        }
    }

    /// Sets the FROM classes.
    pub fn from_classes(mut self, classes: &[&str]) -> Self {
        self.from_classes = classes.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the TO classes.
    pub fn to_classes(mut self, classes: &[&str]) -> Self {
        self.to_classes = classes.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the precondition.
    pub fn precondition(mut self, expr: impl Into<String>) -> Self {
        self.precondition = Some(expr.into());
        self
    }

    /// Adds a verification obligation.
    pub fn obligation(mut self, name: &str, statement: &str) -> Self {
        self.obligations.push(Obligation {
            name: name.to_string(),
            statement: statement.to_string(),
        });
        self
    }

    /// Marks this class as a specialization of `parent`.
    pub fn specializing(mut self, parent: &str) -> Self {
        self.specializes = Some(parent.to_string());
        self
    }
}

/// A tool specification: which decision classes the tool can execute
/// and which obligations it guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolSpec {
    /// Tool name (e.g. `TDL-DBPL-Mapper`, `DBPLEditor`).
    pub name: String,
    /// Decision classes the tool is associated with (BY links).
    pub executes: Vec<String>,
    /// Obligation names the tool's behaviour guarantees — "only those
    /// parts of the constraints not guaranteed by tool specifications
    /// have to be tested".
    pub guarantees: Vec<String>,
    /// True for fully automatic execution, false for "just aids manual
    /// decision execution".
    pub automatic: bool,
}

impl ToolSpec {
    /// Constructor.
    pub fn new(name: impl Into<String>, automatic: bool) -> Self {
        ToolSpec {
            name: name.into(),
            executes: Vec::new(),
            guarantees: Vec::new(),
            automatic,
        }
    }

    /// Associates the tool with a decision class.
    pub fn executes(mut self, decision_class: &str) -> Self {
        self.executes.push(decision_class.to_string());
        self
    }

    /// Records a guaranteed obligation.
    pub fn guarantees(mut self, obligation: &str) -> Self {
        self.guarantees.push(obligation.to_string());
        self
    }
}

/// How a pending obligation was discharged: "the 'proof' may be either
/// formal or by 'signature' of the decision maker".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discharge {
    /// Formally: the obligation's statement was evaluated and holds.
    Formal {
        /// The obligation name.
        obligation: String,
    },
    /// By signature of a decision maker.
    Signature {
        /// The obligation name.
        obligation: String,
        /// Who signed.
        by: String,
    },
}

impl Discharge {
    /// The discharged obligation's name.
    pub fn obligation(&self) -> &str {
        match self {
            Discharge::Formal { obligation } => obligation,
            Discharge::Signature { obligation, .. } => obligation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_class() {
        let dc = DecisionClass::new("DecNormalize", DecisionDimension::Refinement)
            .from_classes(&["DBPL_Rel"])
            .to_classes(&["NormalizedDBPL_Rel", "DBPL_Selector", "DBPL_Constructor"])
            .precondition("x in DBPL_Rel")
            .obligation(
                "normalized",
                "output relations are in 1NF with correct keys",
            )
            .specializing("DBPL_MappingDec");
        assert_eq!(dc.name, "DecNormalize");
        assert_eq!(dc.from_classes, vec!["DBPL_Rel"]);
        assert_eq!(dc.to_classes.len(), 3);
        assert_eq!(dc.obligations.len(), 1);
        assert_eq!(dc.specializes.as_deref(), Some("DBPL_MappingDec"));
        assert_eq!(dc.dimension.to_string(), "refinement");
    }

    #[test]
    fn tool_spec_builder() {
        let t = ToolSpec::new("TDL-DBPL-Mapper", true)
            .executes("TDL_MappingDec")
            .guarantees("well-typed");
        assert!(t.automatic);
        assert_eq!(t.executes, vec!["TDL_MappingDec"]);
        assert_eq!(t.guarantees, vec!["well-typed"]);
    }

    #[test]
    fn discharge_names() {
        let f = Discharge::Formal {
            obligation: "normalized".into(),
        };
        let s = Discharge::Signature {
            obligation: "keys".into(),
            by: "developer".into(),
        };
        assert_eq!(f.obligation(), "normalized");
        assert_eq!(s.obligation(), "keys");
    }
}
