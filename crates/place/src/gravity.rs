//! Centre-of-gravity placement of rectangular clusters (§4.6.5/§4.6.6).
//!
//! `PLACE_BOX` and `PLACE_PARTITION` both solve the same sub-problem:
//! given already-placed rectangles, put a new rectangle at the free
//! position minimising the squared distance between two gravity centres.
//! [`GravityField`] implements that search. The paper quantifies over
//! *all* integer positions; we exploit that the quadratic objective over
//! the free region attains its minimum either at the unconstrained
//! optimum or on the boundary of an inflated obstacle, where it is found
//! by clamping — giving the same answer in O(#placed) candidates. Each
//! candidate is then tested against every placed rectangle, so one
//! placement costs O(P²) for P placed rectangles, and placing a whole
//! cluster of P rectangles O(P³).

use netart_geom::{Point, Rect};

/// Incremental occupancy map for gravity placement.
#[derive(Debug, Clone)]
pub(crate) struct GravityField {
    placed: Vec<Rect>,
    spacing: i32,
}

impl GravityField {
    /// An empty field where every rectangle keeps `spacing` extra
    /// tracks around itself.
    pub(crate) fn new(spacing: i32) -> Self {
        GravityField {
            placed: Vec::new(),
            spacing: spacing.max(0),
        }
    }

    /// Marks a rectangle as occupied without searching (used for the
    /// first, anchor cluster and for preplaced parts).
    pub(crate) fn occupy(&mut self, rect: Rect) {
        self.placed.push(rect.inflate(self.spacing));
    }

    fn collides(&self, rect: &Rect) -> bool {
        self.placed.iter().any(|p| p.overlaps_strictly(rect))
    }

    fn effective(&self, origin: Point, size: (i32, i32)) -> Rect {
        Rect::new(
            origin - Point::new(self.spacing, self.spacing),
            size.0 + 2 * self.spacing,
            size.1 + 2 * self.spacing,
        )
    }

    /// Finds the free origin for a `size` rectangle closest (squared
    /// Euclidean) to `desired`, marks it occupied, and returns it.
    pub(crate) fn place(&mut self, size: (i32, i32), desired: Point) -> Point {
        let origin = self.best_position(size, desired);
        self.occupy(Rect::new(origin, size.0, size.1));
        origin
    }

    fn best_position(&self, size: (i32, i32), desired: Point) -> Point {
        if !self.collides(&self.effective(desired, size)) {
            return desired;
        }
        let (w, h) = (size.0 + 2 * self.spacing, size.1 + 2 * self.spacing);
        let mut best: Option<(i64, Point)> = None;
        let mut consider = |origin: Point| {
            let rect = self.effective(origin, size);
            if self.collides(&rect) {
                return;
            }
            let score = (origin.dist2(desired), origin);
            match &mut best {
                Some((s, b)) if (*s, *b) <= (score.0, origin) => {}
                _ => best = Some(score),
            }
        };
        for obstacle in &self.placed {
            let ll = obstacle.lower_left();
            let ur = obstacle.upper_right();
            // Touch from the left / right: the sliding coordinate's
            // optimum is the clamp of the desired coordinate; corners
            // cover configurations blocked by neighbours.
            for x in [ll.x - w, ur.x] {
                let x = x + self.spacing; // convert effective to true origin
                for y in [
                    desired.y.clamp(ll.y - h + self.spacing, ur.y + self.spacing),
                    ll.y - h + self.spacing,
                    ur.y + self.spacing,
                ] {
                    consider(Point::new(x, y));
                }
            }
            // Touch from below / above.
            for y in [ll.y - h, ur.y] {
                let y = y + self.spacing;
                for x in [
                    desired.x.clamp(ll.x - w + self.spacing, ur.x + self.spacing),
                    ll.x - w + self.spacing,
                    ur.x + self.spacing,
                ] {
                    consider(Point::new(x, y));
                }
            }
        }
        if let Some((_, origin)) = best {
            return origin;
        }
        // Dense corner cases (every touching position blocked by a
        // neighbour): fall back to the first free spot right of
        // everything, which always exists on the open plane.
        let hull = self
            .placed
            .iter()
            .skip(1)
            .fold(self.placed[0], |acc, r| acc.hull(r));
        Point::new(hull.upper_right().x + self.spacing, desired.y)
    }

    /// The bounding rectangle over everything placed (including
    /// spacing), if anything is placed.
    pub(crate) fn bounding(&self) -> Option<Rect> {
        let mut it = self.placed.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.hull(r)))
    }
}

/// Integer centroid of a set of points; `None` when empty.
pub(crate) fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as i64;
    let sx: i64 = points.iter().map(|p| i64::from(p.x)).sum();
    let sy: i64 = points.iter().map(|p| i64::from(p.y)).sum();
    Some(Point::new(
        (sx.div_euclid(n)) as i32,
        (sy.div_euclid(n)) as i32,
    ))
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
