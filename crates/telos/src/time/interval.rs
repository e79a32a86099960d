//! Half-open time intervals `[start, end)` over [`TimePoint`]s.

use crate::error::{TelosError, TelosResult};
use crate::time::point::TimePoint;
use std::fmt;

/// A non-empty half-open interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    start: TimePoint,
    end: TimePoint,
}

impl Interval {
    /// Constructs `[start, end)`; errors unless `start < end`.
    pub fn new(start: TimePoint, end: TimePoint) -> TelosResult<Self> {
        if start < end {
            Ok(Interval { start, end })
        } else {
            Err(TelosError::BadInterval(format!("[{start}, {end})")))
        }
    }

    /// The whole timeline: the paper's `Always`.
    pub fn always() -> Self {
        Interval {
            start: TimePoint::NegInf,
            end: TimePoint::PosInf,
        }
    }

    /// `[t, +inf)` — e.g. a belief interval opened at tick `t`.
    pub fn from_tick(t: i64) -> Self {
        Interval {
            start: TimePoint::At(t),
            end: TimePoint::PosInf,
        }
    }

    /// `[a, b)`; errors unless `a < b`.
    pub fn between(a: i64, b: i64) -> TelosResult<Self> {
        Interval::new(TimePoint::At(a), TimePoint::At(b))
    }

    /// The single-tick interval `[t, t+1)`.
    pub fn at(t: i64) -> Self {
        Interval {
            start: TimePoint::At(t),
            end: TimePoint::At(t.saturating_add(1)),
        }
    }

    /// Returns a copy whose end is closed at tick `t` (UNTELL); errors
    /// if `t` is not strictly after the start.
    pub fn closed_at(self, t: i64) -> TelosResult<Self> {
        Interval::new(self.start, TimePoint::At(t))
    }

    /// Start point.
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// End point (exclusive).
    pub fn end(&self) -> TimePoint {
        self.end
    }

    /// True if the interval extends to `+inf`.
    pub fn is_open_ended(&self) -> bool {
        self.end == TimePoint::PosInf
    }

    /// True if tick `t` lies inside.
    pub fn contains_point(&self, t: i64) -> bool {
        self.start <= TimePoint::At(t) && TimePoint::At(t) < self.end
    }

    /// True if `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True if the two intervals share at least one point.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The common sub-interval, if the intervals overlap.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// The smallest interval covering both.
    pub fn span(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Duration in ticks; `None` if either endpoint is infinite.
    pub fn duration(&self) -> Option<i64> {
        match (self.start, self.end) {
            (TimePoint::At(a), TimePoint::At(b)) => Some(b - a),
            _ => None,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Interval::always() {
            write!(f, "Always")
        } else {
            write!(f, "[{}, {})", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_order() {
        assert!(Interval::between(3, 3).is_err());
        assert!(Interval::between(4, 3).is_err());
        assert!(Interval::between(3, 4).is_ok());
        assert!(Interval::new(TimePoint::PosInf, TimePoint::PosInf).is_err());
    }

    #[test]
    fn containment() {
        let i = Interval::between(10, 20).unwrap();
        assert!(i.contains_point(10));
        assert!(i.contains_point(19));
        assert!(!i.contains_point(20));
        assert!(!i.contains_point(9));
        assert!(Interval::always().contains(&i));
        assert!(!i.contains(&Interval::always()));
        assert!(i.contains(&Interval::at(15)));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Interval::between(0, 10).unwrap();
        let b = Interval::between(5, 15).unwrap();
        let c = Interval::between(10, 20).unwrap();
        assert!(a.overlaps(&b));
        assert!(
            !a.overlaps(&c),
            "half-open: [0,10) and [10,20) are disjoint"
        );
        assert_eq!(a.intersect(&b), Some(Interval::between(5, 10).unwrap()));
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn span_covers_both() {
        let a = Interval::between(0, 5).unwrap();
        let b = Interval::between(10, 12).unwrap();
        assert_eq!(a.span(&b), Interval::between(0, 12).unwrap());
        assert_eq!(a.span(&Interval::always()), Interval::always());
    }

    #[test]
    fn closing_an_interval() {
        let open = Interval::from_tick(5);
        assert!(open.is_open_ended());
        let closed = open.closed_at(9).unwrap();
        assert!(!closed.is_open_ended());
        assert!(closed.contains_point(8));
        assert!(!closed.contains_point(9));
        assert!(
            open.closed_at(5).is_err(),
            "cannot close at or before start"
        );
    }

    #[test]
    fn duration() {
        assert_eq!(Interval::between(3, 8).unwrap().duration(), Some(5));
        assert_eq!(Interval::always().duration(), None);
        assert_eq!(Interval::at(7).duration(), Some(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Interval::always().to_string(), "Always");
        assert_eq!(Interval::between(1, 2).unwrap().to_string(), "[1, 2)");
        assert_eq!(Interval::from_tick(3).to_string(), "[3, +inf)");
    }
}
