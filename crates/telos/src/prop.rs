//! The proposition quadruple.

use crate::error::{TelosError, TelosResult};
use crate::symbols::Symbol;
use crate::time::interval::Interval;
use crate::time::point::TimePoint;
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};

/// Identifier of a proposition — the `p` in `p = <x, l, y, t>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropId(pub u32);

impl PropId {
    /// Index into dense per-proposition arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The end tick of a belief interval not closed (yet).
const OPEN: i64 = i64::MAX;

/// A CML proposition `p = <x, l, y, t>` plus its belief time.
///
/// * `source` (`x`) and `dest` (`y`) are other propositions — nodes are
///   self-referential propositions, so the network is closed;
/// * `label` (`l`) is an interned string;
/// * `history` (`t`) is the *history time*: the interval during which
///   the asserted relationship holds in the modelled world (the paper's
///   `version17`);
/// * the *belief time* is the interval during which the KB believes the
///   proposition (the paper's `21-Sep-1987+`), from the tick it was told
///   to the tick it was untold. UNTELL closes it; propositions are never
///   destroyed.
///
/// The store keeps one copy of each proposition, shared by the live KB
/// and every version captured from it, so UNTELL writes the end tick in
/// place, once. A version captured at tick `V` reads an end after `V` as
/// open: [`Proposition::believed_at`] needs no such care for `t ≤ V`
/// (the interval ends after `t` either way), and
/// [`Proposition::belief`] takes the reader's tick to clamp by.
pub struct Proposition {
    /// The proposition's own identifier (it is itself an object).
    pub id: PropId,
    /// Source node `x`.
    pub source: PropId,
    /// Link label `l`.
    pub label: Symbol,
    /// Destination node `y`.
    pub dest: PropId,
    /// History (valid) time `t`.
    pub history: Interval,
    /// The tick the KB began believing it.
    told: i64,
    /// The tick the KB stopped believing it, or [`OPEN`]: written once
    /// by UNTELL (and set back by the rollback of that UNTELL).
    untold: AtomicI64,
}

impl Proposition {
    /// `<id, source, label, dest, history>`, believed from tick `told`.
    pub(crate) fn told(
        id: PropId,
        source: PropId,
        label: Symbol,
        dest: PropId,
        history: Interval,
        told: i64,
    ) -> Self {
        Proposition {
            id,
            source,
            label,
            dest,
            history,
            told,
            untold: AtomicI64::new(OPEN),
        }
    }

    /// True if the proposition is a node: it denotes an individual
    /// rather than a link (source and destination are itself).
    pub fn is_individual(&self) -> bool {
        self.source == self.id && self.dest == self.id
    }

    /// The tick the KB began believing the proposition.
    pub fn told_at(&self) -> i64 {
        self.told
    }

    /// True if the proposition was believed at belief tick `t`.
    pub fn believed_at(&self, t: i64) -> bool {
        self.told <= t && t < self.untold.load(Ordering::Relaxed)
    }

    /// The belief interval as a store at tick `now` reads it: an end
    /// after `now` — an UNTELL later than a version's capture — is
    /// still `+∞` there.
    pub fn belief(&self, now: i64) -> Interval {
        match self.untold.load(Ordering::Relaxed) {
            end if end <= now => Interval::between(self.told, end).expect("told before untold"),
            _ => Interval::from_tick(self.told),
        }
    }

    /// Closes the belief interval at tick `at` (UNTELL); an error unless
    /// `at` is after the tick it was told at.
    pub(crate) fn close(&self, at: i64) -> TelosResult<()> {
        if at <= self.told {
            return Err(TelosError::BadInterval(format!("[{}, {at})", self.told)));
        }
        self.untold.store(at, Ordering::Relaxed);
        Ok(())
    }

    /// Opens the belief interval towards `+∞` again: the undo of
    /// [`Proposition::close`].
    pub(crate) fn reopen(&self) {
        self.untold.store(OPEN, Ordering::Relaxed);
    }

    /// True if the proposition's history time covers tick `t`.
    pub fn valid_at(&self, t: i64) -> bool {
        self.history.contains_point(t)
    }
}

impl fmt::Debug for Proposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let end = match self.untold.load(Ordering::Relaxed) {
            OPEN => TimePoint::PosInf,
            end => TimePoint::At(end),
        };
        f.debug_struct("Proposition")
            .field("id", &self.id)
            .field("source", &self.source)
            .field("label", &self.label)
            .field("dest", &self.dest)
            .field("history", &self.history)
            .field("belief", &format_args!("[{}, {end})", self.told))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prop(id: u32, src: u32, dst: u32) -> Proposition {
        let (id, src, dst) = (PropId(id), PropId(src), PropId(dst));
        Proposition::told(id, src, Symbol(0), dst, Interval::always(), 5)
    }

    #[test]
    fn individual_detection() {
        assert!(prop(3, 3, 3).is_individual());
        assert!(!prop(3, 3, 4).is_individual());
        assert!(!prop(3, 2, 3).is_individual());
    }

    #[test]
    fn belief_lifecycle() {
        let p = prop(1, 1, 1);
        assert!(p.believed_at(5));
        assert!(p.believed_at(100));
        assert!(!p.believed_at(4));
        assert!(p.close(5).is_err(), "an interval is never empty");
        p.close(9).unwrap();
        assert!(p.believed_at(8));
        assert!(!p.believed_at(9));
        assert_eq!(p.belief(9), Interval::between(5, 9).unwrap());
        // A reader at a tick before the close reads the interval open.
        assert_eq!(p.belief(8), Interval::from_tick(5));
        p.reopen();
        assert!(p.believed_at(9));
        assert_eq!(p.belief(9), Interval::from_tick(5));
    }

    #[test]
    fn validity_uses_history_time() {
        let mut p = prop(1, 1, 1);
        p.history = Interval::between(10, 20).unwrap();
        assert!(p.valid_at(10));
        assert!(p.valid_at(19));
        assert!(!p.valid_at(20));
        assert!(!p.valid_at(9));
    }
}
