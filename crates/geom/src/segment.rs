use std::fmt;

use crate::{Axis, Interval, Point};

/// An axis-aligned segment on an integer track.
///
/// A segment lies along an [`Axis`] at a fixed perpendicular coordinate
/// (its *track*) and spans an [`Interval`] along the axis. This mirrors
/// the paper's obstacle tuples `(i, x, y, ...)` where `i` is the track
/// index and `[x, y]` the range.
///
/// A horizontal segment at track `t` covers the points `(span, t)`;
/// a vertical segment at track `t` covers the points `(t, span)`.
///
/// # Examples
///
/// ```
/// use netart_geom::{Point, Segment};
///
/// let h = Segment::horizontal(3, 0, 5);
/// let v = Segment::vertical(2, 1, 8);
/// assert_eq!(h.crossing(&v), Some(Point::new(2, 3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Segment {
    axis: Axis,
    track: i32,
    span: Interval,
}

impl Segment {
    /// A horizontal segment at `y = track` spanning `[x0, x1]`.
    ///
    /// # Panics
    ///
    /// Panics if `x0 > x1`.
    pub fn horizontal(track: i32, x0: i32, x1: i32) -> Self {
        Segment {
            axis: Axis::Horizontal,
            track,
            span: Interval::new(x0, x1),
        }
    }

    /// A vertical segment at `x = track` spanning `[y0, y1]`.
    ///
    /// # Panics
    ///
    /// Panics if `y0 > y1`.
    pub fn vertical(track: i32, y0: i32, y1: i32) -> Self {
        Segment {
            axis: Axis::Vertical,
            track,
            span: Interval::new(y0, y1),
        }
    }

    /// A segment along `axis` at the given track spanning `span`.
    pub fn on_axis(axis: Axis, track: i32, span: Interval) -> Self {
        Segment { axis, track, span }
    }

    /// The degenerate segment covering a single point, oriented along
    /// `axis`.
    pub fn point(axis: Axis, p: Point) -> Self {
        match axis {
            Axis::Horizontal => Segment::horizontal(p.y, p.x, p.x),
            Axis::Vertical => Segment::vertical(p.x, p.y, p.y),
        }
    }

    /// The segment between two points sharing a coordinate.
    ///
    /// Returns `None` if the points are not axis-aligned. Two identical
    /// points yield a degenerate horizontal segment.
    pub fn between(a: Point, b: Point) -> Option<Segment> {
        if a.y == b.y {
            Some(Segment::horizontal(a.y, a.x.min(b.x), a.x.max(b.x)))
        } else if a.x == b.x {
            Some(Segment::vertical(a.x, a.y.min(b.y), a.y.max(b.y)))
        } else {
            None
        }
    }

    /// The axis this segment lies along.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The fixed perpendicular coordinate.
    pub fn track(&self) -> i32 {
        self.track
    }

    /// The range along the axis.
    pub fn span(&self) -> Interval {
        self.span
    }

    /// Wire length of the segment (`0` for a point).
    ///
    /// A segment always covers at least one grid point, so there is
    /// deliberately no `is_empty`; see [`Segment::is_point`].
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        self.span.len()
    }

    /// `true` when the segment is a single point.
    pub fn is_point(&self) -> bool {
        self.span.is_point()
    }

    /// The two endpoints `(low, high)` along the axis.
    pub fn endpoints(&self) -> (Point, Point) {
        (self.point_at(self.span.lo()), self.point_at(self.span.hi()))
    }

    /// The point at axis coordinate `v` on this segment's track.
    ///
    /// `v` need not lie within the span; the point is simply on the
    /// segment's carrier line.
    pub fn point_at(&self, v: i32) -> Point {
        match self.axis {
            Axis::Horizontal => Point::new(v, self.track),
            Axis::Vertical => Point::new(self.track, v),
        }
    }

    /// `true` when `p` lies on the segment.
    pub fn contains(&self, p: Point) -> bool {
        match self.axis {
            Axis::Horizontal => p.y == self.track && self.span.contains(p.x),
            Axis::Vertical => p.x == self.track && self.span.contains(p.y),
        }
    }

    /// The intersection point with a perpendicular segment, if the two
    /// segments cross or touch.
    ///
    /// Collinear segments return `None`; use [`Segment::overlap`] for
    /// those.
    pub fn crossing(&self, other: &Segment) -> Option<Point> {
        if self.axis == other.axis {
            return None;
        }
        (self.span.contains(other.track) && other.span.contains(self.track)).then(|| {
            match self.axis {
                Axis::Horizontal => Point::new(other.track, self.track),
                Axis::Vertical => Point::new(self.track, other.track),
            }
        })
    }

    /// `true` when a perpendicular crossing with `other` happens strictly
    /// inside both segments (not at an endpoint of either). This is the
    /// crossover notion counted by the diagram quality metrics: nets are
    /// allowed to cross, touching endpoints would be an electrical join.
    pub fn crosses_interior(&self, other: &Segment) -> bool {
        if self.axis == other.axis {
            return false;
        }
        self.span.lo() < other.track
            && other.track < self.span.hi()
            && other.span.lo() < self.track
            && self.track < other.span.hi()
    }

    /// The shared part of two collinear segments on the same track.
    pub fn overlap(&self, other: &Segment) -> Option<Segment> {
        if self.axis != other.axis || self.track != other.track {
            return None;
        }
        self.span.intersect(other.span).map(|span| Segment {
            axis: self.axis,
            track: self.track,
            span,
        })
    }
}

/// Sorts `segments` and coalesces them in place into maximal *runs*: a
/// segment joins the run before it when both lie on one axis and track
/// and share a point. The runs come out sorted by axis, track and
/// start, and the runs of one track share no point. O(n log n). The
/// join test is `next.lo <= run.hi`, so it holds up to `i32::MAX`.
///
/// # Examples
///
/// ```
/// use netart_geom::{coalesce, Segment};
///
/// let mut runs = vec![
///     Segment::horizontal(0, 4, 9),
///     Segment::horizontal(0, 11, 12),
///     Segment::horizontal(0, 0, 4),
/// ];
/// coalesce(&mut runs);
/// assert_eq!(runs, [Segment::horizontal(0, 0, 9), Segment::horizontal(0, 11, 12)]);
/// ```
pub fn coalesce(segments: &mut Vec<Segment>) {
    segments.sort_unstable();
    segments.dedup_by(|s, run| {
        let joins = (run.axis, run.track) == (s.axis, s.track) && s.span.lo() <= run.span.hi();
        if joins {
            run.span = run.span.hull(s.span);
        }
        joins
    });
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.axis {
            Axis::Horizontal => write!(f, "h@y={} x{}", self.track, self.span),
            Axis::Vertical => write!(f, "v@x={} y{}", self.track, self.span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_and_points() {
        let h = Segment::horizontal(2, -1, 4);
        assert_eq!(h.endpoints(), (Point::new(-1, 2), Point::new(4, 2)));
        assert_eq!(h.point_at(3), Point::new(3, 2));
        let v = Segment::vertical(7, 0, 3);
        assert_eq!(v.endpoints(), (Point::new(7, 0), Point::new(7, 3)));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn between_points() {
        assert_eq!(
            Segment::between(Point::new(3, 1), Point::new(0, 1)),
            Some(Segment::horizontal(1, 0, 3))
        );
        assert_eq!(
            Segment::between(Point::new(2, 5), Point::new(2, 2)),
            Some(Segment::vertical(2, 2, 5))
        );
        assert_eq!(Segment::between(Point::new(0, 0), Point::new(1, 1)), None);
    }

    #[test]
    fn containment() {
        let h = Segment::horizontal(2, 0, 4);
        assert!(h.contains(Point::new(0, 2)));
        assert!(h.contains(Point::new(4, 2)));
        assert!(!h.contains(Point::new(5, 2)));
        assert!(!h.contains(Point::new(2, 3)));
    }

    #[test]
    fn perpendicular_crossing() {
        let h = Segment::horizontal(3, 0, 5);
        let v = Segment::vertical(2, 1, 8);
        assert_eq!(h.crossing(&v), Some(Point::new(2, 3)));
        assert_eq!(v.crossing(&h), Some(Point::new(2, 3)));
        let miss = Segment::vertical(9, 1, 8);
        assert_eq!(h.crossing(&miss), None);
        // Parallel segments never report a crossing.
        assert_eq!(h.crossing(&Segment::horizontal(3, 0, 5)), None);
    }

    #[test]
    fn interior_crossing_excludes_endpoints() {
        let h = Segment::horizontal(3, 0, 5);
        assert!(h.crosses_interior(&Segment::vertical(2, 0, 6)));
        // Touching at h's endpoint x=0.
        assert!(!h.crosses_interior(&Segment::vertical(0, 0, 6)));
        // Touching at v's endpoint y=3.
        assert!(!h.crosses_interior(&Segment::vertical(2, 3, 6)));
    }

    #[test]
    fn collinear_overlap_and_merge() {
        let a = Segment::horizontal(1, 0, 5);
        let b = Segment::horizontal(1, 3, 9);
        assert_eq!(a.overlap(&b), Some(Segment::horizontal(1, 3, 5)));
        let other_track = Segment::horizontal(2, 0, 5);
        assert_eq!(a.overlap(&other_track), None);
        // Overlapping and touching pieces merge; a gap, another track
        // or another axis keeps them apart.
        let merged = |pieces: &[Segment]| {
            let mut runs = pieces.to_vec();
            coalesce(&mut runs);
            runs
        };
        assert_eq!(merged(&[b, a]), [Segment::horizontal(1, 0, 9)]);
        let touching = Segment::horizontal(1, 5, 7);
        assert_eq!(merged(&[a, touching]), [Segment::horizontal(1, 0, 7)]);
        let gap = Segment::horizontal(1, 7, 9);
        assert_eq!(merged(&[gap, a]), [a, gap]);
        assert_eq!(merged(&[other_track, a]), [a, other_track]);
        let across = Segment::vertical(1, 0, 5);
        assert_eq!(merged(&[across, a]), [a, across]);
        // Runs reaching the ends of the plane merge without overflow.
        let top = Segment::horizontal(i32::MAX, i32::MAX - 1, i32::MAX);
        let bottom = Segment::horizontal(i32::MAX, i32::MIN, i32::MAX - 1);
        assert_eq!(
            merged(&[top, bottom]),
            [Segment::horizontal(i32::MAX, i32::MIN, i32::MAX)]
        );
    }

    #[test]
    fn degenerate_point_segment() {
        let p = Segment::point(Axis::Vertical, Point::new(4, 4));
        assert!(p.is_point());
        assert_eq!(p.len(), 0);
        assert!(p.contains(Point::new(4, 4)));
    }
}
