use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::Dir;

/// A point on the integer grid of a schematic diagram.
///
/// # Examples
///
/// ```
/// use netart_geom::Point;
///
/// let a = Point::new(2, 3);
/// let b = Point::new(-1, 4);
/// assert_eq!(a + b, Point::new(1, 7));
/// assert_eq!(a.manhattan(b), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate, growing to the right.
    pub x: i32,
    /// Vertical coordinate, growing upward.
    pub y: i32,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Manhattan (rectilinear) distance to `other`.
    ///
    /// This is the natural wire-length metric for rectilinear routing.
    /// It is a `u64`: two points of the `i32` plane lie up to
    /// 2 × `u32::MAX` apart.
    pub fn manhattan(self, other: Point) -> u64 {
        u64::from(self.x.abs_diff(other.x)) + u64::from(self.y.abs_diff(other.y))
    }

    /// Squared Euclidean distance to `other`, saturating at `i64::MAX`.
    ///
    /// The placement phase minimises this quantity between
    /// centre-of-gravity points, following `PLACE_BOX` in the paper.
    /// Saturation only kicks in for coordinates near the `i32` extremes,
    /// far outside any realistic diagram.
    pub fn dist2(self, other: Point) -> i64 {
        let dx = i128::from(self.x) - i128::from(other.x);
        let dy = i128::from(self.y) - i128::from(other.y);
        i64::try_from(dx * dx + dy * dy).unwrap_or(i64::MAX)
    }

    /// The neighbouring point one step in direction `dir`.
    ///
    /// ```
    /// use netart_geom::{Dir, Point};
    /// assert_eq!(Point::new(0, 0).step(Dir::Up), Point::new(0, 1));
    /// ```
    pub fn step(self, dir: Dir) -> Point {
        self.step_by(dir, 1)
    }

    /// The point `n` steps in direction `dir`.
    pub fn step_by(self, dir: Dir, n: i32) -> Point {
        match dir {
            Dir::Left => Point::new(self.x - n, self.y),
            Dir::Right => Point::new(self.x + n, self.y),
            Dir::Down => Point::new(self.x, self.y - n),
            Dir::Up => Point::new(self.x, self.y + n),
        }
    }
}

impl From<(i32, i32)> for Point {
    fn from((x, y): (i32, i32)) -> Self {
        Point::new(x, y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(3, -2);
        let b = Point::new(1, 5);
        assert_eq!(a + b, Point::new(4, 3));
        assert_eq!(a - b, Point::new(2, -7));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(-3, 7);
        let b = Point::new(4, -1);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(b), 7 + 8);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn dist2_matches_squares() {
        assert_eq!(Point::new(0, 0).dist2(Point::new(3, 4)), 25);
        assert_eq!(Point::new(-1, -1).dist2(Point::new(-1, -1)), 0);
    }

    #[test]
    fn dist2_does_not_overflow_at_extremes() {
        let a = Point::new(i32::MIN, i32::MIN);
        let b = Point::new(i32::MAX, i32::MAX);
        // Would overflow i32 arithmetic by a wide margin.
        assert!(a.dist2(b) > 0);
    }

    #[test]
    fn step_in_each_direction() {
        let p = Point::new(5, 5);
        assert_eq!(p.step(Dir::Left), Point::new(4, 5));
        assert_eq!(p.step(Dir::Right), Point::new(6, 5));
        assert_eq!(p.step(Dir::Down), Point::new(5, 4));
        assert_eq!(p.step(Dir::Up), Point::new(5, 6));
        assert_eq!(p.step_by(Dir::Up, 3), Point::new(5, 8));
        assert_eq!(p.step_by(Dir::Left, -2), Point::new(7, 5));
    }

    #[test]
    fn display_and_from_tuple() {
        let p: Point = (2, 9).into();
        assert_eq!(p.to_string(), "(2, 9)");
    }
}
