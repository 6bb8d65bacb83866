use std::fmt;

use crate::{Interval, Point, Segment, Side};

/// An axis-aligned rectangle given by its lower-left and upper-right
/// corners.
///
/// Modules, box bounding-boxes, partition bounding-boxes and the routing
/// plane itself are all rectangles. Width and height may be zero (a
/// degenerate rectangle still has a well-defined boundary), matching the
/// paper where system terminals are treated as zero-size obstacles.
///
/// The corners are stored, not the size, so any two points of the
/// `i32` plane span a rectangle: its corners, spans, containment,
/// overlap, hull and [`Rect::area`] take no differences, and nothing
/// overflows for a rectangle wider than `i32::MAX`.
///
/// # Examples
///
/// ```
/// use netart_geom::{Point, Rect};
///
/// let r = Rect::new(Point::new(1, 2), 4, 3);
/// assert_eq!(r.upper_right(), Point::new(5, 5));
/// assert!(r.overlaps(&Rect::new(Point::new(4, 4), 2, 2)));
/// let wide = Rect::from_corners(Point::new(-2_000_000_000, 0), Point::new(2_000_000_000, 1));
/// assert_eq!(wide.area(), 4_000_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn new(origin: Point, width: i32, height: i32) -> Self {
        assert!(width >= 0 && height >= 0, "negative rectangle size {width}x{height}");
        Rect { lo: origin, hi: Point::new(origin.x + width, origin.y + height) }
    }

    /// The smallest rectangle containing both corner points.
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Lower-left corner.
    pub fn lower_left(&self) -> Point {
        self.lo
    }

    /// Upper-right corner.
    pub fn upper_right(&self) -> Point {
        self.hi
    }

    /// Width (x extent). Overflows for a rectangle wider than
    /// `i32::MAX`; [`Rect::area`] does not.
    pub fn width(&self) -> i32 {
        self.hi.x - self.lo.x
    }

    /// Height (y extent). Overflows for a rectangle taller than
    /// `i32::MAX`; [`Rect::area`] does not.
    pub fn height(&self) -> i32 {
        self.hi.y - self.lo.y
    }

    /// Width times height, exact for any rectangle of the `i32` plane.
    pub fn area(&self) -> u64 {
        u64::from(self.hi.x.abs_diff(self.lo.x)) * u64::from(self.hi.y.abs_diff(self.lo.y))
    }

    /// The horizontal span `[left, right]`.
    pub fn x_span(&self) -> Interval {
        Interval::new(self.lo.x, self.hi.x)
    }

    /// The vertical span `[bottom, top]`.
    pub fn y_span(&self) -> Interval {
        Interval::new(self.lo.y, self.hi.y)
    }

    /// Geometric centre, rounded towards the lower-left.
    pub fn center(&self) -> Point {
        let mid = |lo: i32, hi: i32| ((i64::from(lo) + i64::from(hi)) >> 1) as i32;
        Point::new(mid(self.lo.x, self.hi.x), mid(self.lo.y, self.hi.y))
    }

    /// `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        self.x_span().contains(p.x) && self.y_span().contains(p.y)
    }

    /// `true` when `p` lies strictly inside (not on the boundary).
    pub fn contains_strictly(&self, p: Point) -> bool {
        self.lo.x < p.x && p.x < self.hi.x && self.lo.y < p.y && p.y < self.hi.y
    }

    /// `true` when the closed rectangles share at least one point.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x_span().overlaps(other.x_span()) && self.y_span().overlaps(other.y_span())
    }

    /// `true` when the rectangles intersect in more than a shared edge:
    /// touching boundaries do not count, while a degenerate rectangle
    /// (zero width or height) strictly overlaps when it reaches into the
    /// other's interior. The placement non-overlap postcondition uses
    /// this: two modules may share a boundary track but not interior
    /// area, and a system terminal (a point) may sit on a module edge but
    /// not inside it.
    pub fn overlaps_strictly(&self, other: &Rect) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// The rectangle grown by `margin` tracks on every side.
    ///
    /// # Panics
    ///
    /// Panics if a negative `margin` would invert the rectangle.
    pub fn inflate(&self, margin: i32) -> Rect {
        let lo = Point::new(self.lo.x - margin, self.lo.y - margin);
        let hi = Point::new(self.hi.x + margin, self.hi.y + margin);
        assert!(lo.x <= hi.x && lo.y <= hi.y, "margin {margin} inverts {self}");
        Rect { lo, hi }
    }

    /// The rectangle translated by `delta`.
    pub fn translate(&self, delta: Point) -> Rect {
        Rect { lo: self.lo + delta, hi: self.hi + delta }
    }

    /// The smallest rectangle containing both.
    pub fn hull(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// The boundary edge on the given side, as a segment.
    ///
    /// `Left`/`Right` return vertical segments, `Up`/`Down` horizontal
    /// ones. These are exactly the obstacle segments a module contributes
    /// to the router (`ADD_OBSTACLE_BOUNDINGS` in the paper).
    pub fn edge(&self, side: Side) -> Segment {
        let (lo, hi) = (self.lo, self.hi);
        match side {
            Side::Left => Segment::vertical(lo.x, lo.y, hi.y),
            Side::Right => Segment::vertical(hi.x, lo.y, hi.y),
            Side::Down => Segment::horizontal(lo.y, lo.x, hi.x),
            Side::Up => Segment::horizontal(hi.y, lo.x, hi.x),
        }
    }

    /// All four boundary edges in `[left, right, down, up]` order.
    pub fn edges(&self) -> [Segment; 4] {
        [
            self.edge(Side::Left),
            self.edge(Side::Right),
            self.edge(Side::Down),
            self.edge(Side::Up),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, h) = (self.hi.x.abs_diff(self.lo.x), self.hi.y.abs_diff(self.lo.y));
        write!(f, "{}+{w}x{h}", self.lo)
    }
}

/// The lower-left corner and the size, as the fields read before the
/// corners were stored.
impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rect")
            .field("origin", &self.lo)
            .field("width", &self.hi.x.abs_diff(self.lo.x))
            .field("height", &self.hi.y.abs_diff(self.lo.y))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_and_spans() {
        let r = Rect::new(Point::new(-2, 1), 5, 4);
        assert_eq!(r.lower_left(), Point::new(-2, 1));
        assert_eq!(r.upper_right(), Point::new(3, 5));
        assert_eq!(r.x_span(), Interval::new(-2, 3));
        assert_eq!(r.y_span(), Interval::new(1, 5));
        assert_eq!(r.center(), Point::new(0, 3));
    }

    #[test]
    fn from_corners_normalises() {
        let r = Rect::from_corners(Point::new(4, 7), Point::new(1, 2));
        assert_eq!(r, Rect::new(Point::new(1, 2), 3, 5));
    }

    #[test]
    fn containment() {
        let r = Rect::new(Point::new(0, 0), 4, 4);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(4, 4)));
        assert!(!r.contains(Point::new(5, 2)));
        assert!(!r.contains_strictly(Point::new(0, 2)));
        assert!(r.contains_strictly(Point::new(1, 1)));
    }

    #[test]
    fn overlap_vs_strict_overlap() {
        let a = Rect::new(Point::new(0, 0), 4, 4);
        let touching = Rect::new(Point::new(4, 0), 3, 3);
        assert!(a.overlaps(&touching));
        assert!(!a.overlaps_strictly(&touching));
        let inside = Rect::new(Point::new(1, 1), 1, 1);
        assert!(a.overlaps_strictly(&inside));
        let away = Rect::new(Point::new(9, 9), 1, 1);
        assert!(!a.overlaps(&away));
    }

    #[test]
    fn zero_size_rect_behaves_like_a_point() {
        let p = Rect::new(Point::new(3, 3), 0, 0);
        assert!(p.contains(Point::new(3, 3)));
        assert!(!p.contains(Point::new(3, 4)));
        let a = Rect::new(Point::new(0, 0), 4, 4);
        assert!(a.overlaps(&p));
        // A point in the interior of `a` strictly overlaps it...
        assert!(a.overlaps_strictly(&p));
        // ...but a point on the boundary does not.
        let edge = Rect::new(Point::new(0, 2), 0, 0);
        assert!(!a.overlaps_strictly(&edge));
    }

    #[test]
    fn inflate_translate_hull() {
        let r = Rect::new(Point::new(2, 2), 2, 2);
        assert_eq!(r.inflate(1), Rect::new(Point::new(1, 1), 4, 4));
        assert_eq!(r.translate(Point::new(-2, 3)), Rect::new(Point::new(0, 5), 2, 2));
        let h = r.hull(&Rect::new(Point::new(10, 0), 1, 1));
        assert_eq!(h, Rect::from_corners(Point::new(2, 0), Point::new(11, 4)));
    }

    #[test]
    fn edges_bound_the_rectangle() {
        let r = Rect::new(Point::new(1, 2), 3, 4);
        assert_eq!(r.edge(Side::Left), Segment::vertical(1, 2, 6));
        assert_eq!(r.edge(Side::Right), Segment::vertical(4, 2, 6));
        assert_eq!(r.edge(Side::Down), Segment::horizontal(2, 1, 4));
        assert_eq!(r.edge(Side::Up), Segment::horizontal(6, 1, 4));
        assert_eq!(r.edges().len(), 4);
    }

    #[test]
    fn corners_wider_than_i32_do_not_overflow() {
        let (a, b) = (Point::new(-1_090_000_000, -5), Point::new(1_090_000_004, 7));
        let r = Rect::from_corners(b, a);
        assert_eq!((r.lower_left(), r.upper_right()), (a, b));
        assert_eq!(r.area(), 2_180_000_004 * 12);
        assert_eq!(r.center(), Point::new(2, 1));
        assert!(r.contains_strictly(Point::ORIGIN));
        let grown = r.hull(&Rect::new(Point::new(0, 100), 1, 1)).inflate(1);
        assert_eq!(grown.upper_right(), Point::new(1_090_000_005, 102));
        assert_eq!(grown.to_string(), "(-1090000001, -6)+2180000006x108");
    }
}
