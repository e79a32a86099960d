//! Synthetic DAIDA-style design histories at configurable scale.
//!
//! The paper concedes that "current RMS can handle only fairly small
//! dependency networks efficiently" (§3.3.3) and proposes decision-
//! granularity abstraction as the fix — a claim that cannot be tested
//! against the §2.1 meeting scenario alone. This module is the
//! workload machine behind experiment E-3: a seeded, deterministic
//! generator emitting design histories with the four DAIDA decision
//! kinds (*distribute*, *move-down*, *normalize*, *key-substitution*),
//! configurable fan-out, refinement depth and retraction rate, plus
//! drivers that push backtracking, decision replay and 3-D history
//! navigation over the generated corpora.
//!
//! Two layers:
//! - [`plan`] is pure: it emits the decision stream as abstract
//!   object/decision indices, with no knowledge base behind it. The
//!   RMS benches build flat and decision-abstracted JTMS/ATMS networks
//!   straight from a plan, so labeling cost can be measured at
//!   million-decision scale without paying for KB bookkeeping.
//! - [`generate_into`] drives a real [`Gkbms`]: every planned step
//!   becomes a registered object, an executed decision or a selective
//!   retraction, producing a replayable, journaled history.

use crate::decisions::{DecisionClass, DecisionDimension, Discharge, ToolSpec};
use crate::error::GkbmsResult;
use crate::metamodel::kernel;
use crate::system::{DecisionRequest, Gkbms};
use std::time::{Duration, Instant};

/// Deterministic splitmix64 generator — no dependencies, stable
/// across platforms, and cheap enough to sit inside the hot loop.
#[derive(Debug, Clone)]
pub struct SynthRng {
    state: u64,
}

impl SynthRng {
    /// A generator seeded with `seed`; equal seeds yield equal streams.
    pub fn new(seed: u64) -> SynthRng {
        SynthRng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n` must be nonzero).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }
}

/// Relative weights of the four DAIDA decision kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionMix {
    /// Map an entity hierarchy by *distribute* (one relation per
    /// class).
    pub distribute: u32,
    /// Map by *move-down* (attributes pushed to the leaves).
    pub move_down: u32,
    /// Refine a relation to first normal form.
    pub normalize: u32,
    /// Substitute an associative key for a surrogate (a choice with a
    /// signed `keys-unique` obligation).
    pub key_subst: u32,
}

impl Default for DecisionMix {
    fn default() -> Self {
        DecisionMix {
            distribute: 3,
            move_down: 3,
            normalize: 2,
            key_subst: 2,
        }
    }
}

/// Shape of a generated history.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// RNG seed; identical seeds reproduce identical corpora.
    pub seed: u64,
    /// Number of executed decisions (retractions come on top).
    pub decisions: usize,
    /// Outputs per mapping decision.
    pub fanout: usize,
    /// Refinement chain length cap per object.
    pub max_depth: usize,
    /// Probability that a step retracts an effective decision instead
    /// of executing a new one.
    pub retraction_rate: f64,
    /// Decision-kind weights.
    pub mix: DecisionMix,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 42,
            decisions: 200,
            fanout: 3,
            max_depth: 4,
            retraction_rate: 0.05,
            mix: DecisionMix::default(),
        }
    }
}

/// The four decision kinds, as picked by the weighted mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distribute-mapping of a fresh entity.
    Distribute,
    /// Move-down-mapping of a fresh entity.
    MoveDown,
    /// Normalization of a mapped relation.
    Normalize,
    /// Key substitution on a mapped relation.
    KeySubst,
}

impl Kind {
    fn pick(mix: &DecisionMix, rng: &mut SynthRng) -> Kind {
        let total = mix.distribute + mix.move_down + mix.normalize + mix.key_subst;
        let mut roll = (rng.next_u64() % u64::from(total.max(1))) as u32;
        for (kind, w) in [
            (Kind::Distribute, mix.distribute),
            (Kind::MoveDown, mix.move_down),
            (Kind::Normalize, mix.normalize),
            (Kind::KeySubst, mix.key_subst),
        ] {
            if roll < w {
                return kind;
            }
            roll -= w;
        }
        Kind::Distribute
    }
}

/// One step of a *pure* plan: abstract indices only, no KB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedOp {
    /// Execute a decision: consume `inputs` (object indices), create
    /// `outputs` fresh objects.
    Execute {
        /// The decision kind.
        kind: Kind,
        /// Indices of consumed objects.
        inputs: Vec<usize>,
        /// Indices of created objects (contiguous, ascending).
        outputs: Vec<usize>,
    },
    /// Retract decision number `decision` (an index into the executed
    /// prefix of the plan).
    Retract {
        /// Index of the retracted decision.
        decision: usize,
    },
}

/// A pure decision stream: `ops` over `objects` abstract objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The steps, in order.
    pub ops: Vec<PlannedOp>,
    /// Total number of abstract objects minted.
    pub objects: usize,
    /// Total number of executed decisions.
    pub decisions: usize,
}

impl Plan {
    /// An order-sensitive FNV-1a fingerprint of the stream, for cheap
    /// same-seed identity checks.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for op in &self.ops {
            match op {
                PlannedOp::Execute {
                    kind,
                    inputs,
                    outputs,
                } => {
                    eat(1 + *kind as u64);
                    for &i in inputs {
                        eat(i as u64);
                    }
                    eat(u64::MAX);
                    for &o in outputs {
                        eat(o as u64);
                    }
                }
                PlannedOp::Retract { decision } => {
                    eat(0);
                    eat(*decision as u64);
                }
            }
            eat(u64::MAX - 1);
        }
        h
    }
}

/// Emits the pure decision stream for `cfg`. Deterministic: equal
/// configs yield equal plans. Retractions target a uniformly sampled
/// not-yet-retracted decision (cascades are the RMS's business, not
/// the planner's).
pub fn plan(cfg: &SynthConfig) -> Plan {
    let mut rng = SynthRng::new(cfg.seed);
    let mut ops = Vec::new();
    let mut objects = 0usize;
    let mut decisions = 0usize;
    // (object, refinement depth) pool for normalize / key-subst.
    let mut refinable: Vec<(usize, usize)> = Vec::new();
    let mut retracted: Vec<bool> = Vec::new();
    let mint = |n: usize, objects: &mut usize| -> Vec<usize> {
        let out: Vec<usize> = (*objects..*objects + n).collect();
        *objects += n;
        out
    };
    while decisions < cfg.decisions {
        if decisions > 0 && rng.chance(cfg.retraction_rate) {
            // Sample a handful of candidates; skip if all retracted.
            let mut found = None;
            for _ in 0..8 {
                let d = rng.below(decisions);
                if !retracted[d] {
                    found = Some(d);
                    break;
                }
            }
            if let Some(d) = found {
                retracted[d] = true;
                ops.push(PlannedOp::Retract { decision: d });
                continue;
            }
        }
        let mut kind = Kind::pick(&cfg.mix, &mut rng);
        let deep_enough = |r: &[(usize, usize)]| r.iter().any(|&(_, d)| d < cfg.max_depth);
        if matches!(kind, Kind::Normalize | Kind::KeySubst) && !deep_enough(&refinable) {
            kind = Kind::MoveDown; // nothing to refine yet: map instead
        }
        let op = match kind {
            Kind::Distribute | Kind::MoveDown => {
                let entity = mint(1, &mut objects)[0];
                let outs = mint(cfg.fanout.max(1), &mut objects);
                for &o in &outs {
                    refinable.push((o, 1));
                }
                PlannedOp::Execute {
                    kind,
                    inputs: vec![entity],
                    outputs: outs,
                }
            }
            Kind::Normalize | Kind::KeySubst => {
                // Uniform pick among refinable objects below max depth.
                let at = loop {
                    let i = rng.below(refinable.len());
                    if refinable[i].1 < cfg.max_depth {
                        break i;
                    }
                };
                let (input, depth) = refinable[at];
                let n = if kind == Kind::Normalize { 3 } else { 1 };
                let outs = mint(n, &mut objects);
                refinable.push((outs[0], depth + 1));
                PlannedOp::Execute {
                    kind,
                    inputs: vec![input],
                    outputs: outs,
                }
            }
        };
        ops.push(op);
        retracted.push(false);
        decisions += 1;
    }
    Plan {
        ops,
        objects,
        decisions,
    }
}

/// One step of a *concrete* generated history, replayable into a
/// fresh [`Gkbms`] with [`apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthOp {
    /// Register a fresh TDL entity as a design object.
    Register {
        /// Object name.
        name: String,
    },
    /// Execute one decision.
    Execute {
        /// Decision class name.
        class: String,
        /// Decision instance name.
        name: String,
        /// Tool name.
        tool: String,
        /// Consumed design objects.
        inputs: Vec<String>,
        /// `(name, design-object class)` pairs created.
        outputs: Vec<(String, String)>,
        /// Whether a `keys-unique` signature discharge is attached.
        signed: bool,
    },
    /// Selectively retract a decision.
    Retract {
        /// Decision instance name.
        decision: String,
    },
}

/// A concrete generated history: the op stream actually executed
/// against the generating [`Gkbms`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    /// The seed it was generated from.
    pub seed: u64,
    /// The steps, in order.
    pub ops: Vec<SynthOp>,
}

impl History {
    /// Number of executed decisions.
    pub fn executed(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, SynthOp::Execute { .. }))
            .count()
    }

    /// Number of explicit retractions.
    pub fn retractions(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, SynthOp::Retract { .. }))
            .count()
    }

    /// Order-sensitive FNV-1a fingerprint over the rendered ops.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for op in &self.ops {
            for b in format!("{op:?}").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// Decision-class and tool names installed by [`setup`].
pub mod names {
    /// Distribute-mapping decision class.
    pub const DISTRIBUTE: &str = "SynDistribute";
    /// Move-down-mapping decision class.
    pub const MOVE_DOWN: &str = "SynMoveDown";
    /// Normalization decision class.
    pub const NORMALIZE: &str = "SynNormalize";
    /// Key-substitution decision class.
    pub const KEY_SUBST: &str = "SynKeySubst";
    /// Automatic mapping tool (guarantees `complete-mapping`).
    pub const MAPPER: &str = "SynMapper";
    /// Automatic normalizer (guarantees `normalized`).
    pub const NORMALIZER: &str = "SynNormalizer";
    /// Manual key editor (obligation discharged by signature).
    pub const KEY_EDITOR: &str = "SynKeyEditor";
    /// The deciding agent.
    pub const AGENT: &str = "synth";
}

/// Installs the synthetic decision classes and tools into `g` — the
/// DAIDA middle layer the generator executes against. Idempotent
/// setup is not attempted: call once on a fresh system.
pub fn setup(g: &mut Gkbms) -> GkbmsResult<()> {
    g.define_decision_class(
        DecisionClass::new(names::DISTRIBUTE, DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL])
            .precondition("x in TDL_EntityClass")
            .obligation("complete-mapping", "every selected entity class is mapped"),
    )?;
    g.define_decision_class(
        DecisionClass::new(names::MOVE_DOWN, DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL])
            .precondition("x in TDL_EntityClass")
            .obligation("complete-mapping", "every selected entity class is mapped"),
    )?;
    g.define_decision_class(
        DecisionClass::new(names::NORMALIZE, DecisionDimension::Refinement)
            .from_classes(&[kernel::DBPL_REL])
            .to_classes(&[
                kernel::NORMALIZED_DBPL_REL,
                kernel::DBPL_SELECTOR,
                kernel::DBPL_CONSTRUCTOR,
            ])
            .obligation("normalized", "outputs are 1NF relations with correct keys"),
    )?;
    g.define_decision_class(
        DecisionClass::new(names::KEY_SUBST, DecisionDimension::Choice)
            .from_classes(&[kernel::DBPL_REL])
            .to_classes(&[kernel::DBPL_REL])
            .obligation(
                "keys-unique",
                "the chosen key identifies objects across the whole hierarchy",
            ),
    )?;
    g.register_tool(
        ToolSpec::new(names::MAPPER, true)
            .executes(names::DISTRIBUTE)
            .executes(names::MOVE_DOWN)
            .guarantees("complete-mapping"),
    )?;
    g.register_tool(
        ToolSpec::new(names::NORMALIZER, true)
            .executes(names::NORMALIZE)
            .guarantees("normalized"),
    )?;
    g.register_tool(ToolSpec::new(names::KEY_EDITOR, false).executes(names::KEY_SUBST))?;
    Ok(())
}

/// Generates a history for `cfg` *into* `g` (which must be fresh):
/// installs the classes and tools, then realizes the pure plan as
/// registered objects, executed decisions and selective retractions.
/// Returns the concrete op stream, replayable with [`apply`].
pub fn generate_into(g: &mut Gkbms, cfg: &SynthConfig) -> GkbmsResult<History> {
    setup(g)?;
    let p = plan(cfg);
    let mut ops = Vec::with_capacity(p.ops.len());
    // Planned object index -> concrete name and design-object class.
    // Pre-sized: a skipped decision (input lost to a retraction
    // cascade) leaves its planned outputs as empty names, and later
    // refinements over them are skipped by the currency check below.
    let mut obj: Vec<(String, String)> = vec![(String::new(), String::new()); p.objects];
    let mut decision_names: Vec<String> = Vec::with_capacity(p.decisions);
    for planned in &p.ops {
        match planned {
            PlannedOp::Retract { decision } => {
                let name = decision_names[*decision].clone();
                // Cascades may have retracted it already; the planner
                // cannot see cascades, so skip silently.
                if !g.is_effective(&name) {
                    continue;
                }
                g.retract_decision(&name)?;
                ops.push(SynthOp::Retract { decision: name });
                obs::counter!(
                    "gkbms_synth_retractions_total",
                    "Selective retractions issued by the synthetic generator"
                )
                .inc();
            }
            PlannedOp::Execute {
                kind,
                inputs,
                outputs,
            } => {
                let d = decision_names.len();
                let dname = format!("syn{d}");
                let (class, tool) = match kind {
                    Kind::Distribute => (names::DISTRIBUTE, names::MAPPER),
                    Kind::MoveDown => (names::MOVE_DOWN, names::MAPPER),
                    Kind::Normalize => (names::NORMALIZE, names::NORMALIZER),
                    Kind::KeySubst => (names::KEY_SUBST, names::KEY_EDITOR),
                };
                let mut in_names = Vec::with_capacity(inputs.len());
                for &i in inputs {
                    if matches!(kind, Kind::Distribute | Kind::MoveDown) {
                        // Mapping inputs are fresh entities: register.
                        let ename = format!("SynE{i}");
                        g.register_object(
                            &ename,
                            kernel::TDL_ENTITY_CLASS,
                            &format!("design.tdl#{ename}"),
                        )?;
                        ops.push(SynthOp::Register {
                            name: ename.clone(),
                        });
                        obj[i] = (ename.clone(), kernel::TDL_ENTITY_CLASS.to_string());
                        in_names.push(ename);
                    } else {
                        in_names.push(obj[i].0.clone());
                    }
                }
                // A retraction cascade may have taken a planned input
                // out from under a refinement: skip the decision, the
                // plan index is burned (mirrors a designer whose
                // working object vanished).
                if !in_names.iter().all(|n| g.is_current(n)) {
                    decision_names.push(dname);
                    continue;
                }
                let mut out_pairs = Vec::with_capacity(outputs.len());
                for (k, &o) in outputs.iter().enumerate() {
                    let (oname, oclass) = match kind {
                        Kind::Distribute | Kind::MoveDown => (format!("SynR{o}"), kernel::DBPL_REL),
                        Kind::Normalize => match k {
                            0 => (format!("SynN{o}"), kernel::NORMALIZED_DBPL_REL),
                            1 => (format!("SynS{o}"), kernel::DBPL_SELECTOR),
                            _ => (format!("SynC{o}"), kernel::DBPL_CONSTRUCTOR),
                        },
                        Kind::KeySubst => (format!("SynK{o}"), kernel::DBPL_REL),
                    };
                    obj[o] = (oname.clone(), oclass.to_string());
                    out_pairs.push((oname, oclass.to_string()));
                }
                let mut req = DecisionRequest::new(class, &dname, names::AGENT).with_tool(tool);
                for i in &in_names {
                    req = req.input(i);
                }
                for (o, c) in &out_pairs {
                    req = req.output(o, c);
                }
                let signed = *kind == Kind::KeySubst;
                if signed {
                    req = req.discharge(Discharge::Signature {
                        obligation: "keys-unique".into(),
                        by: names::AGENT.into(),
                    });
                }
                g.execute(req)?;
                ops.push(SynthOp::Execute {
                    class: class.to_string(),
                    name: dname.clone(),
                    tool: tool.to_string(),
                    inputs: in_names,
                    outputs: out_pairs,
                    signed,
                });
                decision_names.push(dname);
                obs::counter!(
                    "gkbms_synth_decisions_total",
                    "Decisions executed by the synthetic generator"
                )
                .inc();
            }
        }
    }
    Ok(History {
        seed: cfg.seed,
        ops,
    })
}

/// Replays a concrete history into a fresh [`Gkbms`]: installs the
/// classes and tools, then re-executes every op serially. The final
/// state is byte-identical with the generating system's (the replay-
/// equivalence property the proptests pin down).
pub fn apply(g: &mut Gkbms, history: &History) -> GkbmsResult<()> {
    setup(g)?;
    for op in &history.ops {
        match op {
            SynthOp::Register { name } => {
                g.register_object(
                    name,
                    kernel::TDL_ENTITY_CLASS,
                    &format!("design.tdl#{name}"),
                )?;
            }
            SynthOp::Execute {
                class,
                name,
                tool,
                inputs,
                outputs,
                signed,
            } => {
                let mut req = DecisionRequest::new(class, name, names::AGENT).with_tool(tool);
                for i in inputs {
                    req = req.input(i);
                }
                for (o, c) in outputs {
                    req = req.output(o, c);
                }
                if *signed {
                    req = req.discharge(Discharge::Signature {
                        obligation: "keys-unique".into(),
                        by: names::AGENT.into(),
                    });
                }
                g.execute(req)?;
            }
            SynthOp::Retract { decision } => {
                g.retract_decision(decision)?;
            }
        }
    }
    Ok(())
}

/// Counters from one navigation sweep over a generated corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NavReport {
    /// Rows of the status-oriented view.
    pub status_rows: usize,
    /// Rows of the process-oriented view.
    pub process_rows: usize,
    /// Total causal-chain hops over the sampled objects.
    pub causal_hops: usize,
    /// Objects alive at the sampled past version.
    pub version_objects: usize,
    /// Events across the sampled objects' histories.
    pub history_events: usize,
}

/// Sweeps all three navigation dimensions (§3.3.1) over `g`: the
/// status and process views in full, and `samples` randomly chosen
/// current objects for causal chains, per-object histories and one
/// past-version (temporal) cut.
pub fn sweep_navigation(g: &Gkbms, rng: &mut SynthRng, samples: usize) -> GkbmsResult<NavReport> {
    let mut report = NavReport {
        status_rows: g.status_view().len(),
        process_rows: g.process_view().len(),
        ..NavReport::default()
    };
    let current = g.current_objects();
    if !current.is_empty() {
        for _ in 0..samples {
            let name = &current[rng.below(current.len())];
            report.causal_hops += g.causal_chain(name)?.len();
            report.history_events += g.object_history(name)?.len();
        }
    }
    // One temporal cut at a uniformly sampled past tick.
    let now = g.kb().now();
    if now > 0 {
        let t = rng.below(now as usize) as i64 + 1;
        report.version_objects = g.objects_at(t).len();
    }
    obs::counter!(
        "gkbms_synth_nav_sweeps_total",
        "Navigation sweeps driven over synthetic corpora"
    )
    .inc();
    Ok(report)
}

/// Counters from one backtracking-and-replay drive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BacktrackReport {
    /// Decisions selectively retracted.
    pub retracted: usize,
    /// Objects taken out by those retractions (incl. cascades).
    pub objects_taken_out: usize,
    /// Retracted decisions successfully replayed under a new name.
    pub replayed: usize,
    /// Objects re-created by the replays.
    pub objects_recreated: usize,
    /// Wall-clock time of each retraction, in the order driven.
    pub retract_times: Vec<Duration>,
}

/// Drives `rounds` of selective backtracking over `g`: retract a
/// sampled effective decision, then immediately test the retracted
/// decision for re-applicability and replay it when possible — the
/// §3.3 revision-support loop, at generator scale.
pub fn drive_backtracking(
    g: &mut Gkbms,
    rng: &mut SynthRng,
    rounds: usize,
) -> GkbmsResult<BacktrackReport> {
    let mut report = BacktrackReport::default();
    for round in 0..rounds {
        let total = g.records().len();
        if total == 0 {
            break;
        }
        let mut picked = None;
        for _ in 0..16 {
            let i = rng.below(total);
            let name = g.records()[i].name.clone();
            if g.is_effective(&name) {
                picked = Some(name);
                break;
            }
        }
        let Some(name) = picked else { continue };
        let start = Instant::now();
        let affected = g.retract_decision(&name)?;
        report.retract_times.push(start.elapsed());
        report.retracted += 1;
        report.objects_taken_out += affected.len();
        if let crate::replay::Replayability::Replayable = g.replayability(&name)? {
            let created = g.replay_decision(&name, &format!("{name}r{round}"))?;
            report.replayed += 1;
            report.objects_recreated += created.len();
        }
    }
    obs::counter!(
        "gkbms_synth_backtrack_rounds_total",
        "Backtracking rounds driven over synthetic corpora"
    )
    .add(rounds as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthConfig {
        SynthConfig {
            seed: 7,
            decisions: 60,
            fanout: 2,
            max_depth: 3,
            retraction_rate: 0.1,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SynthRng::new(99);
        let mut b = SynthRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SynthRng::new(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn plan_is_deterministic_and_scaled() {
        let cfg = small();
        let p1 = plan(&cfg);
        let p2 = plan(&cfg);
        assert_eq!(p1, p2);
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        assert_eq!(p1.decisions, cfg.decisions);
        let other = plan(&SynthConfig {
            seed: 8,
            ..cfg.clone()
        });
        assert_ne!(p1.fingerprint(), other.fingerprint());
    }

    #[test]
    fn plan_respects_mix_extremes() {
        let cfg = SynthConfig {
            mix: DecisionMix {
                distribute: 1,
                move_down: 0,
                normalize: 0,
                key_subst: 0,
            },
            retraction_rate: 0.0,
            decisions: 20,
            ..SynthConfig::default()
        };
        let p = plan(&cfg);
        assert!(p.ops.iter().all(|op| matches!(
            op,
            PlannedOp::Execute {
                kind: Kind::Distribute,
                ..
            }
        )));
    }

    #[test]
    fn generate_into_executes_the_plan() {
        let mut g = Gkbms::new().unwrap();
        let h = generate_into(&mut g, &small()).unwrap();
        assert!(h.executed() > 0);
        assert!(h.retractions() > 0, "retraction rate 0.1 over 60 steps");
        assert_eq!(
            g.records().len(),
            g.records()
                .iter()
                .map(|r| &r.record.name)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            "decision names unique"
        );
        // The corpus contains all four kinds... or at least mapping and
        // one refinement kind at this size.
        assert!(h
            .ops
            .iter()
            .any(|op| matches!(op, SynthOp::Execute { class, .. } if class == names::NORMALIZE)));
    }

    #[test]
    fn same_seed_same_history_and_state() {
        let cfg = small();
        let mut g1 = Gkbms::new().unwrap();
        let mut g2 = Gkbms::new().unwrap();
        let h1 = generate_into(&mut g1, &cfg).unwrap();
        let h2 = generate_into(&mut g2, &cfg).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(h1.fingerprint(), h2.fingerprint());
    }

    #[test]
    fn apply_replays_to_equivalent_state() {
        let cfg = small();
        let mut g1 = Gkbms::new().unwrap();
        let h = generate_into(&mut g1, &cfg).unwrap();
        let mut g2 = Gkbms::new().unwrap();
        apply(&mut g2, &h).unwrap();
        assert_eq!(g1.records().len(), g2.records().len());
        assert_eq!(g1.current_objects(), g2.current_objects());
        assert_eq!(g1.kb().len(), g2.kb().len());
    }

    #[test]
    fn navigation_sweep_reports_nonzero() {
        let mut g = Gkbms::new().unwrap();
        generate_into(&mut g, &small()).unwrap();
        let mut rng = SynthRng::new(1);
        let nav = sweep_navigation(&g, &mut rng, 8).unwrap();
        assert!(nav.status_rows > 0);
        assert!(nav.process_rows > 0);
        assert!(nav.history_events > 0);
        assert!(nav.version_objects > 0);
    }

    #[test]
    fn backtracking_drive_retracts_and_replays() {
        let mut g = Gkbms::new().unwrap();
        generate_into(&mut g, &small()).unwrap();
        let mut rng = SynthRng::new(2);
        let report = drive_backtracking(&mut g, &mut rng, 6).unwrap();
        assert!(report.retracted > 0);
        assert!(report.objects_taken_out > 0);
        assert!(report.replayed > 0, "at least one retraction replays");
    }
}
