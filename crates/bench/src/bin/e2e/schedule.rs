//! Seeded request schedules.
//!
//! `--seed` drives only these generators; the server sees nothing but
//! the requests they emit. A schedule is an endless deterministic
//! stream of which a run executes a fixed-length prefix.
//!
//! The mixes are *stratified*: each stream deals its request kinds from
//! a shuffled deck that holds every kind in its exact share, and starts
//! a new deck when one is used up. The seed decides the order and the
//! objects, never how many requests of a kind a run contains — drawn
//! independently, the number of tells among 168 writer steps varied by
//! ±9 % between seeds, and `write_ops_per_s`, catch-up and
//! recovery with it.

use gkbms::synth::SynthRng;

/// The classes an `ask` draws from: four extents that grow with the
/// corpus and the three-instance `DesignTool`.
pub const ASK_CLASSES: [&str; 5] = [
    "DBPL_Rel",
    "NormalizedDBPL_Rel",
    "DBPL_Selector",
    "TDL_EntityClass",
    "DesignTool",
];

/// The browse mix: cards per deck of 20 requests (40 / 15 / 15 / 10 /
/// 10 / 10 %).
pub const READ_MIX: [(Kind, usize); 6] = [
    (Kind::Ask, 8),
    (Kind::ViewAsk, 3),
    (Kind::Recall, 3),
    (Kind::ObjectHistory, 2),
    (Kind::Show, 2),
    (Kind::Holds, 2),
];

/// The writer's mix: cards per deck of 10 steps (40 / 40 / 10 / 10 %).
pub const WRITE_MIX: [(Kind, usize); 4] = [
    (Kind::Tell, 4),
    (Kind::Execute, 4),
    (Kind::Retract, 1),
    (Kind::Untell, 1),
];

/// Requests in one round of the browse mix.
pub const READ_ROUND: usize = 20;
/// Writer steps in one round of the writer's mix.
pub const WRITE_ROUND: usize = 10;
/// Wire requests in one round of the writer's mix: an `Execute` step is
/// a `register_object` and an `execute`.
pub const WRITE_ROUND_REQUESTS: usize = 14;

/// How many hits a `recall` asks for.
pub const RECALL_LIMIT: u32 = 5;

/// Names the schedules draw from, read off the generated corpus.
pub struct Catalog {
    /// Decision names, from `Gkbms::records()`.
    pub decisions: Vec<String>,
    /// Current design objects, from `Gkbms::current_objects()`.
    pub objects: Vec<String>,
}

/// What a timed wire interval covers, for grouping samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `ask x/<class> WHERE true`.
    Ask,
    /// `view_ask rels rel`.
    ViewAsk,
    /// `recall <decision>`.
    Recall,
    /// `object_history <object>`.
    ObjectHistory,
    /// `show <object>`.
    Show,
    /// `holds (<object> in DBPL_Rel)`.
    Holds,
    /// `refresh` then `ask`, beside the writer, timed together.
    FreshAsk,
    /// `view_ask rels rel` from a session pinned before the writes.
    PinnedViewAsk,
    /// `tell` of one frame.
    Tell,
    /// `register_object` of a decision's input entity.
    RegisterObject,
    /// `execute` of a decision.
    Execute,
    /// `retract_decision`.
    Retract,
    /// `untell`.
    Untell,
}

impl Kind {
    /// Span name of a wire request of this kind.
    pub fn wire_span(self) -> &'static str {
        match self {
            Kind::Ask => "wire.ask",
            Kind::ViewAsk => "wire.view_ask",
            Kind::Recall => "wire.recall",
            Kind::ObjectHistory => "wire.object_history",
            Kind::Show => "wire.show",
            Kind::Holds => "wire.holds",
            Kind::FreshAsk => "wire.fresh_ask",
            Kind::PinnedViewAsk => "wire.pinned_view_ask",
            Kind::Tell => "wire.tell",
            Kind::RegisterObject => "wire.register_object",
            Kind::Execute => "wire.execute",
            Kind::Retract => "wire.retract",
            Kind::Untell => "wire.untell",
        }
    }
}

/// One read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// Deductive ASK over one of [`ASK_CLASSES`], body `true`.
    Ask {
        /// The class asked.
        class: &'static str,
    },
    /// Read the `rels` view.
    ViewAsk,
    /// Structural recall of a past decision.
    Recall {
        /// The probe decision.
        decision: String,
    },
    /// History of one design object.
    ObjectHistory {
        /// The object traced.
        object: String,
    },
    /// Current frame of one design object.
    Show {
        /// The object shown.
        name: String,
    },
    /// A closed assertion.
    Holds {
        /// Assertion-language text.
        expr: String,
    },
}

impl ReadOp {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            ReadOp::Ask { .. } => Kind::Ask,
            ReadOp::ViewAsk => Kind::ViewAsk,
            ReadOp::Recall { .. } => Kind::Recall,
            ReadOp::ObjectHistory { .. } => Kind::ObjectHistory,
            ReadOp::Show { .. } => Kind::Show,
            ReadOp::Holds { .. } => Kind::Holds,
        }
    }
}

/// A deck that deals every card of its pattern once per round, in an
/// order the stream's generator shuffles.
struct Deck<T> {
    pattern: Vec<T>,
    hand: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn of(mix: &[(T, usize)]) -> Deck<T> {
        Deck {
            pattern: mix
                .iter()
                .flat_map(|&(card, n)| std::iter::repeat_n(card, n))
                .collect(),
            hand: Vec::new(),
        }
    }

    /// Deals the next card that `playable` accepts. A fresh round always
    /// holds one: the writer's decks carry additions, which never wait.
    fn deal(&mut self, rng: &mut SynthRng, playable: impl Fn(T) -> bool) -> T {
        if self.hand.is_empty() {
            self.hand.clone_from(&self.pattern);
            for i in (1..self.hand.len()).rev() {
                self.hand.swap(i, rng.below(i + 1));
            }
        }
        let at = self
            .hand
            .iter()
            .rposition(|&card| playable(card))
            .expect("a round never ends on cards that cannot be played");
        self.hand.remove(at)
    }
}

/// The browse stream of one reader client.
pub struct ReaderSchedule<'a> {
    rng: SynthRng,
    kinds: Deck<Kind>,
    classes: Deck<&'static str>,
    catalog: &'a Catalog,
}

impl<'a> ReaderSchedule<'a> {
    /// The stream of reader `client` under `seed`.
    pub fn new(seed: u64, client: u32, catalog: &'a Catalog) -> Self {
        ReaderSchedule {
            rng: SynthRng::new(stream_seed(seed, u64::from(client))),
            kinds: Deck::of(&READ_MIX),
            classes: Deck::of(&ASK_CLASSES.map(|c| (c, 1))),
            catalog,
        }
    }

    /// The next ask class: each of the five once per round.
    pub fn ask_class(&mut self) -> &'static str {
        self.classes.deal(&mut self.rng, |_| true)
    }
}

impl Iterator for ReaderSchedule<'_> {
    type Item = ReadOp;

    fn next(&mut self) -> Option<ReadOp> {
        let kind = self.kinds.deal(&mut self.rng, |_| true);
        let c = self.catalog;
        Some(match kind {
            Kind::Ask => ReadOp::Ask {
                class: self.ask_class(),
            },
            Kind::ViewAsk => ReadOp::ViewAsk,
            Kind::Recall => ReadOp::Recall {
                decision: c.decisions[self.rng.below(c.decisions.len())].clone(),
            },
            Kind::ObjectHistory => ReadOp::ObjectHistory {
                object: c.objects[self.rng.below(c.objects.len())].clone(),
            },
            Kind::Show => ReadOp::Show {
                name: c.objects[self.rng.below(c.objects.len())].clone(),
            },
            _ => ReadOp::Holds {
                expr: format!(
                    "({} in DBPL_Rel)",
                    c.objects[self.rng.below(c.objects.len())]
                ),
            },
        })
    }
}

/// One step of the single writer. Every step succeeds by construction:
/// the schedule only retracts decisions it executed and only untells
/// objects it told.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteStep {
    /// TELL a fresh `DBPL_Rel` instance.
    Tell {
        /// The new object.
        name: String,
    },
    /// Register a fresh entity, then map it with a `SynDistribute`
    /// decision creating three relations.
    Execute {
        /// The entity registered as the decision's input.
        entity: String,
        /// The decision's name.
        decision: String,
        /// The three `DBPL_Rel` outputs.
        outputs: [String; 3],
    },
    /// Retract one of the writer's own effective decisions.
    Retract {
        /// The decision retracted.
        decision: String,
    },
    /// UNTELL one of the writer's own told objects.
    Untell {
        /// The object untold.
        name: String,
    },
}

impl WriteStep {
    /// Concrete syntax of a `Tell` step's frame.
    pub fn tell_src(name: &str) -> String {
        format!("TELL {name} in DBPL_Rel end")
    }

    /// The `source` text registered with an `Execute` step's entity.
    pub fn entity_source(entity: &str) -> String {
        format!("design.tdl#{entity}")
    }
}

/// The design stream of the writer client.
pub struct WriterSchedule {
    rng: SynthRng,
    kinds: Deck<Kind>,
    next: u64,
    told: Vec<String>,
    effective: Vec<String>,
}

impl WriterSchedule {
    /// The writer's stream under `seed`.
    pub fn new(seed: u64) -> Self {
        WriterSchedule {
            rng: SynthRng::new(stream_seed(seed, 0xD51)),
            kinds: Deck::of(&WRITE_MIX),
            next: 0,
            told: Vec::new(),
            effective: Vec::new(),
        }
    }
}

impl Iterator for WriterSchedule {
    type Item = WriteStep;

    fn next(&mut self) -> Option<WriteStep> {
        let n = self.next;
        self.next += 1;
        // With nothing of its own to take back yet, the writer first
        // plays an addition from the same round.
        let (told, effective) = (self.told.len(), self.effective.len());
        let kind = self.kinds.deal(&mut self.rng, |card| match card {
            Kind::Retract => effective > 0,
            Kind::Untell => told > 0,
            _ => true,
        });
        Some(match kind {
            Kind::Retract => {
                let at = self.rng.below(effective);
                WriteStep::Retract {
                    decision: self.effective.swap_remove(at),
                }
            }
            Kind::Untell => {
                let at = self.rng.below(told);
                WriteStep::Untell {
                    name: self.told.swap_remove(at),
                }
            }
            Kind::Tell => {
                let name = format!("E2eT{n}");
                self.told.push(name.clone());
                WriteStep::Tell { name }
            }
            _ => {
                let decision = format!("e2eD{n}");
                self.effective.push(decision.clone());
                WriteStep::Execute {
                    entity: format!("E2eE{n}"),
                    decision,
                    outputs: [0, 1, 2].map(|k| format!("E2eR{n}x{k}")),
                }
            }
        })
    }
}

/// Independent sub-stream seeds from one `--seed`.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// How many requests of each stream the fingerprint covers.
pub const FINGERPRINT_OPS: usize = 1000;

/// Order-sensitive FNV-1a fingerprint of the first [`FINGERPRINT_OPS`]
/// requests of every stream of `seed` — the identity of the schedule
/// a run consumed a prefix of.
pub fn fingerprint(seed: u64, readers: u32, catalog: &Catalog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |text: String| {
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for client in 0..readers {
        for op in ReaderSchedule::new(seed, client, catalog).take(FINGERPRINT_OPS) {
            eat(format!("{op:?}"));
        }
    }
    for step in WriterSchedule::new(seed).take(FINGERPRINT_OPS) {
        eat(format!("{step:?}"));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn catalog() -> Catalog {
        Catalog {
            decisions: (0..50).map(|i| format!("syn{i}")).collect(),
            objects: (0..80).map(|i| format!("SynR{i}")).collect(),
        }
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let c = catalog();
        let a: Vec<_> = ReaderSchedule::new(7, 0, &c).take(500).collect();
        let b: Vec<_> = ReaderSchedule::new(7, 0, &c).take(500).collect();
        assert_eq!(a, b);
        let other_client: Vec<_> = ReaderSchedule::new(7, 1, &c).take(500).collect();
        assert_ne!(a, other_client, "clients draw independent streams");
        let wa: Vec<_> = WriterSchedule::new(7).take(500).collect();
        let wb: Vec<_> = WriterSchedule::new(7).take(500).collect();
        assert_eq!(wa, wb);
        assert_eq!(fingerprint(7, 2, &c), fingerprint(7, 2, &c));
        assert_ne!(fingerprint(7, 2, &c), fingerprint(8, 2, &c));
    }

    #[test]
    fn reader_mix_holds_exactly_in_every_round_for_every_seed() {
        let c = catalog();
        assert_eq!(READ_MIX.iter().map(|(_, n)| n).sum::<usize>(), READ_ROUND);
        for seed in 0..20 {
            let ops: Vec<_> = ReaderSchedule::new(seed, 0, &c).take(200).collect();
            for round in ops.chunks(20) {
                let mut counts: HashMap<Kind, usize> = HashMap::new();
                for op in round {
                    *counts.entry(op.kind()).or_default() += 1;
                }
                for (kind, want) in READ_MIX {
                    assert_eq!(counts[&kind], want, "{kind:?} in a round of seed {seed}");
                }
            }
            // 80 asks: every class exactly 16 times.
            for class in ASK_CLASSES {
                let asked = ops
                    .iter()
                    .filter(|op| **op == ReadOp::Ask { class })
                    .count();
                assert_eq!(asked, 16, "{class} under seed {seed}");
            }
        }
    }

    #[test]
    fn writer_only_takes_back_what_it_added_and_keeps_its_mix() {
        assert_eq!(WRITE_MIX.iter().map(|(_, n)| n).sum::<usize>(), WRITE_ROUND);
        let executes = WRITE_MIX
            .iter()
            .find(|(k, _)| *k == Kind::Execute)
            .unwrap()
            .1;
        assert_eq!(WRITE_ROUND + executes, WRITE_ROUND_REQUESTS);
        for seed in 0..20 {
            writer_invariants(seed);
        }
    }

    fn writer_invariants(seed: u64) {
        let n = 500;
        let mut told = HashSet::new();
        let mut effective = HashSet::new();
        let mut counts = [0usize; 4];
        for step in WriterSchedule::new(seed).take(n) {
            match step {
                WriteStep::Tell { name } => {
                    counts[0] += 1;
                    assert!(told.insert(name), "told names are fresh");
                }
                WriteStep::Execute {
                    decision, outputs, ..
                } => {
                    counts[1] += 1;
                    assert_eq!(outputs.iter().collect::<HashSet<_>>().len(), 3);
                    assert!(effective.insert(decision), "decision names are fresh");
                }
                WriteStep::Retract { decision } => {
                    counts[2] += 1;
                    assert!(effective.remove(&decision), "retracts only its own");
                }
                WriteStep::Untell { name } => {
                    counts[3] += 1;
                    assert!(told.remove(&name), "untells only its own");
                }
            }
        }
        // Whole rounds: the mix is exact, whatever the seed.
        for (got, (kind, per_round)) in counts.iter().zip(WRITE_MIX) {
            assert_eq!(*got, per_round * n / 10, "{kind:?} under seed {seed}");
        }
        // Every round sends the same number of wire requests — the
        // first too, which has to add before it can take back.
        let steps: Vec<_> = WriterSchedule::new(seed).take(n).collect();
        for round in steps.chunks(WRITE_ROUND) {
            let executes = round
                .iter()
                .filter(|s| matches!(s, WriteStep::Execute { .. }))
                .count();
            assert_eq!(round.len() + executes, WRITE_ROUND_REQUESTS);
        }
    }
}
