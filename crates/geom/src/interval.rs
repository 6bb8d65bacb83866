use std::fmt;

/// A closed 1-D integer range `[lo, hi]` with `lo <= hi`.
///
/// Intervals are the workhorse of the line-expansion router: the swept
/// range of an active segment is split against obstacle intervals track
/// by track.
///
/// # Examples
///
/// ```
/// use netart_geom::Interval;
///
/// let a = Interval::new(0, 10);
/// let b = Interval::new(4, 6);
/// assert_eq!(a.intersect(b), Some(b));
/// assert_eq!(a.subtract(b), (Some(Interval::new(0, 3)), Some(Interval::new(7, 10))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    lo: i32,
    hi: i32,
}

impl Interval {
    /// Creates the closed interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i32, hi: i32) -> Self {
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval containing a single value.
    pub fn point(v: i32) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Lower bound (inclusive).
    pub fn lo(self) -> i32 {
        self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(self) -> i32 {
        self.hi
    }

    /// Number of integer points spanned minus one (`hi - lo`).
    ///
    /// This matches wire length on a grid: a segment covering `[a, b]`
    /// has length `b - a`. A closed interval is never empty, so there
    /// is deliberately no `is_empty`; see [`Interval::is_point`].
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u32 {
        self.hi.abs_diff(self.lo)
    }

    /// `true` when the interval is a single point.
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// `true` when `v` lies within the interval.
    pub fn contains(self, v: i32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` when `other` lies entirely within `self`.
    pub fn contains_interval(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// `true` when the two closed intervals share at least one point.
    pub fn overlaps(self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The common part of two intervals, if any.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Removes `other` from `self`, returning the (possibly empty) parts
    /// left of and right of `other`.
    ///
    /// This is the splitting step of `EXPAND_SEGMENT`: when a swept range
    /// meets an obstacle, the overlap is cut out and the remaining pieces
    /// keep sweeping.
    pub fn subtract(self, other: Interval) -> (Option<Interval>, Option<Interval>) {
        if !self.overlaps(other) {
            return (Some(self), None);
        }
        let left = (self.lo < other.lo).then(|| Interval::new(self.lo, other.lo - 1));
        let right = (self.hi > other.hi).then(|| Interval::new(other.hi + 1, self.hi));
        (left, right)
    }

    /// The smallest interval containing both.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps `v` into the interval.
    pub fn clamp(self, v: i32) -> i32 {
        v.clamp(self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_inverted_bounds() {
        let _ = Interval::new(3, 2);
    }

    #[test]
    fn point_interval() {
        let p = Interval::point(5);
        assert!(p.is_point());
        assert_eq!(p.len(), 0);
        assert!(p.contains(5));
        assert!(!p.contains(4));
    }

    #[test]
    fn overlap_cases() {
        let a = Interval::new(0, 5);
        assert!(a.overlaps(Interval::new(5, 9))); // touch at endpoint
        assert!(a.overlaps(Interval::new(-3, 0)));
        assert!(!a.overlaps(Interval::new(6, 9)));
        assert!(a.overlaps(Interval::new(2, 3)));
    }

    #[test]
    fn intersect_cases() {
        let a = Interval::new(0, 10);
        assert_eq!(a.intersect(Interval::new(5, 20)), Some(Interval::new(5, 10)));
        assert_eq!(a.intersect(Interval::new(11, 20)), None);
        assert_eq!(a.intersect(a), Some(a));
    }

    #[test]
    fn subtract_middle_splits_in_two() {
        let a = Interval::new(0, 10);
        let (l, r) = a.subtract(Interval::new(4, 6));
        assert_eq!(l, Some(Interval::new(0, 3)));
        assert_eq!(r, Some(Interval::new(7, 10)));
    }

    #[test]
    fn subtract_edge_and_cover() {
        let a = Interval::new(0, 10);
        assert_eq!(a.subtract(Interval::new(0, 4)), (None, Some(Interval::new(5, 10))));
        assert_eq!(a.subtract(Interval::new(7, 10)), (Some(Interval::new(0, 6)), None));
        assert_eq!(a.subtract(Interval::new(-5, 15)), (None, None));
        assert_eq!(a.subtract(Interval::new(20, 30)), (Some(a), None));
    }

    #[test]
    fn hull_and_clamp() {
        let a = Interval::new(2, 4);
        let b = Interval::new(8, 9);
        assert_eq!(a.hull(b), Interval::new(2, 9));
        assert_eq!(a.clamp(0), 2);
        assert_eq!(a.clamp(9), 4);
        assert_eq!(a.clamp(3), 3);
    }
}
