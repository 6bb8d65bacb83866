//! Centre-of-gravity placement of rectangular clusters (§4.6.5/§4.6.6).
//!
//! `PLACE_BOX` and `PLACE_PARTITION` both solve the same sub-problem:
//! given already-placed rectangles, put a new rectangle at the free
//! position minimising the squared distance between two gravity centres.
//! [`GravityField`] implements that search. The paper quantifies over
//! *all* integer positions; we exploit that the quadratic objective over
//! the free region attains its minimum either at the unconstrained
//! optimum or on the boundary of an inflated obstacle, where it is found
//! by clamping — twelve candidate origins per placed rectangle, of which
//! the free one with the least `(distance², origin)` wins.
//!
//! Placed rectangles are kept in a uniform bucket grid whose cells are
//! at least as large as any of them, so an overlap test looks at a
//! few cells. Candidates are generated obstacle by obstacle in rings of
//! cells around the desired origin, and the scan stops once a ring is
//! too far away to hold a better candidate than the best free one; a
//! candidate is tested for overlap only if it beats that best. When
//! placements pack outward from an anchor, the best free candidate is
//! a rectangle or two away, so a placement costs a bounded number of
//! candidates and tests, where testing every candidate against every
//! placed rectangle cost O(P²) for P placed rectangles. A desired
//! origin deep inside a packed region still scans out to the region's
//! edge, O(P) for that placement.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use netart_geom::{Point, Rect};

/// The rectangle a `size` rectangle at `origin` claims with `spacing`
/// tracks around it.
fn effective(origin: Point, size: (i32, i32), spacing: i32) -> Rect {
    Rect::new(
        origin - Point::new(spacing, spacing),
        size.0 + 2 * spacing,
        size.1 + 2 * spacing,
    )
}

/// Placed rectangles in a uniform bucket grid.
#[derive(Debug, Clone, Default)]
struct Grid {
    rects: Vec<Rect>,
    /// The cells are `2^shift` units square, at least as large as any
    /// rectangle stored or searched for.
    shift: u32,
    /// Indices into `rects` of the rectangles touching each cell.
    cells: HashMap<(i32, i32), Vec<u32>>,
}

impl Grid {
    /// The cells touched by `[lo, hi]` on one axis.
    fn span(&self, lo: i32, hi: i32) -> RangeInclusive<i32> {
        (lo >> self.shift)..=(hi >> self.shift)
    }

    /// Grows the cells, if needed, to hold a `width`×`height`
    /// rectangle in at most two cells per axis.
    fn fit(&mut self, width: i32, height: i32) {
        let extent = width.max(height).max(1) as u32;
        let shift = extent.next_power_of_two().trailing_zeros();
        if shift > self.shift {
            self.shift = shift;
            self.cells.clear();
            for i in 0..self.rects.len() {
                self.register(i);
            }
        }
    }

    fn insert(&mut self, rect: Rect) {
        self.fit(rect.width(), rect.height());
        self.rects.push(rect);
        self.register(self.rects.len() - 1);
    }

    fn register(&mut self, i: usize) {
        let (ll, ur) = (self.rects[i].lower_left(), self.rects[i].upper_right());
        for cx in self.span(ll.x, ur.x) {
            for cy in self.span(ll.y, ur.y) {
                self.cells.entry((cx, cy)).or_default().push(i as u32);
            }
        }
    }

    fn cell(&self, x: i32, y: i32) -> &[u32] {
        self.cells.get(&(x, y)).map_or(&[], Vec::as_slice)
    }

    /// `true` when `rect` strictly overlaps a placed rectangle; counts
    /// each test in `work`.
    fn collides(&self, rect: &Rect, work: &mut u64) -> bool {
        let (ll, ur) = (rect.lower_left(), rect.upper_right());
        for cx in self.span(ll.x, ur.x) {
            for cy in self.span(ll.y, ur.y) {
                for &i in self.cell(cx, cy) {
                    *work += 1;
                    if self.rects[i as usize].overlaps_strictly(rect) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Incremental occupancy map for gravity placement.
#[derive(Debug, Clone)]
pub(crate) struct GravityField {
    /// Everything placed, each grown by `spacing`.
    grid: Grid,
    spacing: i32,
    hull: Option<Rect>,
    /// Per placed rectangle: the last search that generated its
    /// candidates.
    visited: Vec<u32>,
    search: u32,
    /// Candidates considered plus overlap tests made, a deterministic
    /// measure of the work done.
    work: u64,
}

impl GravityField {
    /// An empty field where every rectangle keeps `spacing` extra
    /// tracks around itself.
    pub(crate) fn new(spacing: i32) -> Self {
        GravityField {
            grid: Grid::default(),
            spacing: spacing.max(0),
            hull: None,
            visited: Vec::new(),
            search: 0,
            work: 0,
        }
    }

    /// Candidates considered plus overlap tests made so far.
    pub(crate) fn work(&self) -> u64 {
        self.work
    }

    /// Marks a rectangle as occupied without searching (used for the
    /// first, anchor cluster and for preplaced parts).
    pub(crate) fn occupy(&mut self, rect: Rect) {
        let rect = rect.inflate(self.spacing);
        self.grid.insert(rect);
        self.visited.push(0);
        self.hull = Some(self.hull.map_or(rect, |h| h.hull(&rect)));
    }

    /// Finds the free origin for a `size` rectangle closest (squared
    /// Euclidean) to `desired`, marks it occupied, and returns it.
    pub(crate) fn place(&mut self, size: (i32, i32), desired: Point) -> Point {
        let origin = self.best_position(size, desired);
        self.occupy(Rect::new(origin, size.0, size.1));
        origin
    }

    fn best_position(&mut self, size: (i32, i32), desired: Point) -> Point {
        let Some(hull) = self.hull else {
            return desired;
        };
        let at_desired = effective(desired, size, self.spacing);
        self.grid.fit(at_desired.width(), at_desired.height());
        if !self.grid.collides(&at_desired, &mut self.work) {
            return desired;
        }
        self.search += 1;
        let (grid, spacing) = (&self.grid, self.spacing);
        // An obstacle first met in ring k of cells around the desired
        // origin's cell lies at least k cells away on some axis, so
        // each of its candidates is more than `reach(k)` away.
        let reach = |k: i32| {
            i64::from(k - 1) * (1i64 << grid.shift) + 1
                - i64::from(size.0.max(size.1))
                - i64::from(spacing)
        };
        let (ll, ur) = (hull.lower_left(), hull.upper_right());
        let (xs, ys) = (grid.span(ll.x, ur.x), grid.span(ll.y, ur.y));
        let (cx, cy) = (desired.x >> grid.shift, desired.y >> grid.shift);
        // Rings from the nearest to the farthest cell of the hull.
        let first_ring = (xs.start() - cx)
            .max(cx - xs.end())
            .max(ys.start() - cy)
            .max(cy - ys.end())
            .max(0);
        let last_ring = (cx - xs.start())
            .max(xs.end() - cx)
            .max(cy - ys.start())
            .max(ys.end() - cy);
        // The twelve origins touching an obstacle: the sliding
        // coordinate's optimum is the clamp of the desired coordinate,
        // and corners cover configurations blocked by neighbours.
        let consider_around = |obstacle: Rect, best: &mut Option<(i64, Point)>, work: &mut u64| {
            let s = spacing;
            let (w, h) = (size.0 + 2 * s, size.1 + 2 * s);
            let (ll, ur) = (obstacle.lower_left(), obstacle.upper_right());
            // Every candidate lies in `[ll - (w, h), ur] + s`: skip the
            // obstacle when even the nearest point of that box is
            // farther than the best.
            *work += 1;
            let nearest = Point::new(
                desired.x.clamp(ll.x - w + s, ur.x + s),
                desired.y.clamp(ll.y - h + s, ur.y + s),
            );
            if best.is_some_and(|(d, _)| nearest.dist2(desired) > d) {
                return;
            }
            let mut consider = |origin: Point| {
                *work += 1;
                let score = (origin.dist2(desired), origin);
                if best.is_some_and(|b| b <= score) {
                    return;
                }
                if !grid.collides(&effective(origin, size, s), work) {
                    *best = Some(score);
                }
            };
            // Touch from the left / right.
            for x in [ll.x - w + s, ur.x + s] {
                for y in [
                    desired.y.clamp(ll.y - h + s, ur.y + s),
                    ll.y - h + s,
                    ur.y + s,
                ] {
                    consider(Point::new(x, y));
                }
            }
            // Touch from below / above.
            for y in [ll.y - h + s, ur.y + s] {
                for x in [
                    desired.x.clamp(ll.x - w + s, ur.x + s),
                    ll.x - w + s,
                    ur.x + s,
                ] {
                    consider(Point::new(x, y));
                }
            }
        };
        let mut best: Option<(i64, Point)> = None;
        for k in first_ring..=last_ring {
            if let Some((d, _)) = best {
                let r = reach(k);
                if r > 0 && i128::from(r) * i128::from(r) > i128::from(d) {
                    break;
                }
            }
            // The cells of ring k inside the hull's span, each once.
            for y in (cy - k).max(*ys.start())..=(cy + k).min(*ys.end()) {
                let (row, step) = if y == cy - k || y == cy + k {
                    ((cx - k).max(*xs.start())..=(cx + k).min(*xs.end()), 1)
                } else {
                    (cx - k..=cx + k, 2 * k as usize)
                };
                for x in row.step_by(step).filter(|x| xs.contains(x)) {
                    for &i in grid.cell(x, y) {
                        let i = i as usize;
                        if std::mem::replace(&mut self.visited[i], self.search) != self.search {
                            consider_around(grid.rects[i], &mut best, &mut self.work);
                        }
                    }
                }
            }
        }
        // The candidates right of the rightmost obstacle are always
        // free, so the scan above always finds one.
        let (_, origin) = best.expect("a free candidate touches the rightmost obstacle");
        origin
    }

    /// The bounding rectangle over everything placed (including
    /// spacing), if anything is placed.
    pub(crate) fn bounding(&self) -> Option<Rect> {
        self.hull
    }
}

/// A running sum of points, for centroids kept up to date as points
/// arrive.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PointSum {
    x: i64,
    y: i64,
    n: i64,
}

impl PointSum {
    /// Adds one point.
    pub(crate) fn add(&mut self, p: Point) {
        self.x += i64::from(p.x);
        self.y += i64::from(p.y);
        self.n += 1;
    }

    /// Adds every point of another sum.
    pub(crate) fn merge(&mut self, other: PointSum) {
        self.x += other.x;
        self.y += other.y;
        self.n += other.n;
    }

    /// The integer (floor) centroid; `None` when empty.
    pub(crate) fn centroid(&self) -> Option<Point> {
        if self.n == 0 {
            return None;
        }
        Some(Point::new(
            self.x.div_euclid(self.n) as i32,
            self.y.div_euclid(self.n) as i32,
        ))
    }
}

/// Integer centroid of a set of points; `None` when empty.
pub(crate) fn centroid(points: &[Point]) -> Option<Point> {
    let mut sum = PointSum::default();
    for &p in points {
        sum.add(p);
    }
    sum.centroid()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_desired_position_is_taken() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        let p = f.place((2, 2), Point::new(10, 10));
        assert_eq!(p, Point::new(10, 10));
    }

    #[test]
    fn blocked_position_slides_to_touching() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        // Desired right in the middle of the obstacle.
        let p = f.place((2, 2), Point::new(1, 1));
        let placed = Rect::new(p, 2, 2);
        assert!(!placed.overlaps_strictly(&Rect::new(Point::new(0, 0), 4, 4)));
        // The result touches the obstacle (as close as possible).
        assert!(placed.overlaps(&Rect::new(Point::new(0, 0), 4, 4)));
    }

    #[test]
    fn spacing_keeps_gap() {
        let mut f = GravityField::new(2);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        let p = f.place((2, 2), Point::new(1, 1));
        let placed = Rect::new(p, 2, 2);
        // Gap of at least 2 tracks on the approach axis... measured as
        // no strict overlap even after inflating both by 2.
        assert!(!placed
            .inflate(2)
            .overlaps_strictly(&Rect::new(Point::new(0, 0), 4, 4).inflate(2)));
    }

    #[test]
    fn successive_placements_do_not_overlap() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 6, 6));
        let mut rects = vec![Rect::new(Point::new(0, 0), 6, 6)];
        for _ in 0..12 {
            let p = f.place((5, 3), Point::new(3, 3));
            let r = Rect::new(p, 5, 3);
            for existing in &rects {
                assert!(!r.overlaps_strictly(existing), "{r} vs {existing}");
            }
            rects.push(r);
        }
    }

    #[test]
    fn placements_stay_near_gravity() {
        let mut f = GravityField::new(0);
        f.occupy(Rect::new(Point::new(0, 0), 4, 4));
        let p = f.place((2, 2), Point::new(5, 1));
        // Best free spot at the right edge of the obstacle.
        assert_eq!(p, Point::new(5, 1));
        let q = f.place((2, 2), Point::new(5, 1));
        // Next one can't take the same spot; it must touch either rect.
        assert_ne!(q, p);
        assert!(q.dist2(Point::new(5, 1)) <= 25, "{q} too far from gravity");
    }

    #[test]
    fn bounding_covers_all() {
        let mut f = GravityField::new(1);
        assert!(f.bounding().is_none());
        f.occupy(Rect::new(Point::new(0, 0), 2, 2));
        f.occupy(Rect::new(Point::new(10, 10), 2, 2));
        let b = f.bounding().unwrap();
        assert!(b.contains(Point::new(-1, -1)));
        assert!(b.contains(Point::new(13, 13)));
    }

    #[test]
    fn centroid_basics() {
        assert_eq!(centroid(&[]), None);
        assert_eq!(centroid(&[Point::new(2, 4)]), Some(Point::new(2, 4)));
        assert_eq!(
            centroid(&[Point::new(0, 0), Point::new(4, 2)]),
            Some(Point::new(2, 1))
        );
        assert_eq!(
            centroid(&[Point::new(-3, -3), Point::new(0, 0)]),
            Some(Point::new(-2, -2)) // floor division keeps determinism
        );
    }
}
