//! Property-based tests for the geometry substrate.

use netart_geom::{coalesce, Axis, Interval, Point, Rect, Rotation, Segment};
use proptest::prelude::*;

const C: i32 = 10_000; // coordinate bound keeping arithmetic far from overflow

fn interval() -> impl Strategy<Value = Interval> {
    (-C..C, 0..200i32).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn point() -> impl Strategy<Value = Point> {
    (-C..C, -C..C).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (point(), 0..100i32, 0..100i32).prop_map(|(p, w, h)| Rect::new(p, w, h))
}

proptest! {
    #[test]
    fn interval_subtract_preserves_points(a in interval(), b in interval()) {
        let (l, r) = a.subtract(b);
        for v in a.lo()..=a.hi() {
            let kept = l.is_some_and(|i| i.contains(v)) || r.is_some_and(|i| i.contains(v));
            prop_assert_eq!(kept, !b.contains(v), "point {} of {} vs {}", v, a, b);
        }
        // The removed parts never reappear.
        if let Some(l) = l { prop_assert!(!l.overlaps(b)); }
        if let Some(r) = r { prop_assert!(!r.overlaps(b)); }
    }

    #[test]
    fn interval_intersection_is_commutative(a in interval(), b in interval()) {
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.overlaps(b), b.overlaps(a));
        prop_assert_eq!(a.overlaps(b), a.intersect(b).is_some());
    }

    #[test]
    fn hull_contains_both(a in interval(), b in interval()) {
        let h = a.hull(b);
        prop_assert!(h.contains_interval(a));
        prop_assert!(h.contains_interval(b));
    }

    #[test]
    fn manhattan_triangle_inequality(a in point(), b in point(), c in point()) {
        prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
    }

    #[test]
    fn rect_overlap_is_symmetric(a in rect(), b in rect()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlaps_strictly(&b), b.overlaps_strictly(&a));
        // Strict overlap implies overlap.
        if a.overlaps_strictly(&b) {
            prop_assert!(a.overlaps(&b));
        }
    }

    #[test]
    fn rect_edges_lie_on_rect(r in rect()) {
        for e in r.edges() {
            let (a, b) = e.endpoints();
            prop_assert!(r.contains(a) && r.contains(b));
            prop_assert!(!r.contains_strictly(a) && !r.contains_strictly(b));
        }
    }

    #[test]
    fn rotation_preserves_boundary(
        r in prop::sample::select(Rotation::ALL.to_vec()),
        w in 1..50i32,
        h in 1..50i32,
        t in 0..200i32,
    ) {
        // Pick a boundary point of the w x h module.
        let perimeter = 2 * (w + h);
        let t = t % perimeter;
        let p = if t < w {
            Point::new(t, 0)
        } else if t < w + h {
            Point::new(w, t - w)
        } else if t < 2 * w + h {
            Point::new(2 * w + h - t, h)
        } else {
            Point::new(0, perimeter - t)
        };
        let (rw, rh) = r.apply_size((w, h));
        let rp = r.apply_point(p, (w, h));
        let on_boundary = rp.x == 0 || rp.x == rw || rp.y == 0 || rp.y == rh;
        prop_assert!(on_boundary, "{} under {} gave {}", p, r, rp);
        prop_assert!(Rect::new(Point::ORIGIN, rw, rh).contains(rp));
    }

    #[test]
    fn segment_crossing_lies_on_both(
        ht in -C..C, hx0 in -C..C, hlen in 0..100i32,
        vt in -C..C, vy0 in -C..C, vlen in 0..100i32,
    ) {
        let hseg = Segment::horizontal(ht, hx0, hx0 + hlen);
        let vseg = Segment::vertical(vt, vy0, vy0 + vlen);
        if let Some(p) = hseg.crossing(&vseg) {
            prop_assert!(hseg.contains(p));
            prop_assert!(vseg.contains(p));
        } else {
            prop_assert!(!(hseg.span().contains(vt) && vseg.span().contains(ht)));
        }
    }

    #[test]
    fn coalesced_runs_cover_exactly_the_union(
        pieces in prop::collection::vec(extreme_piece(), 0..24),
    ) {
        let mut runs = pieces.clone();
        coalesce(&mut runs);
        let line = |s: &Segment| (s.axis(), s.track());
        // Sorted, and the runs of one line share no point.
        for w in runs.windows(2) {
            let (a, b) = (w[0], w[1]);
            let apart = line(&a) == line(&b) && a.span().hi() < b.span().lo();
            prop_assert!(line(&a) < line(&b) || apart, "{} and {} are unsorted or touch", a, b);
        }
        for &run in &runs {
            // Every piece on the run lies inside it.
            let mut inside: Vec<Interval> = pieces.iter()
                .filter(|p| line(p) == line(&run) && p.span().overlaps(run.span()))
                .map(|p| p.span())
                .collect();
            let within = |s: &Interval| run.span().contains_interval(*s);
            prop_assert!(inside.iter().all(within), "{} cuts a piece", run);
            // The pieces chain from one end of the run to the other,
            // each sharing a point with those before it: no gap.
            inside.sort_unstable();
            let mut reach = run.span().lo();
            prop_assert_eq!(inside[0].lo(), reach);
            for s in &inside {
                prop_assert!(s.lo() <= reach, "gap before {} in {}", s, run);
                reach = reach.max(s.hi());
            }
            prop_assert_eq!(reach, run.span().hi());
        }
        // Every piece lies on some run.
        for p in &pieces {
            let holds = |r: &Segment| line(r) == line(p) && r.span().contains_interval(p.span());
            prop_assert!(runs.iter().any(holds), "no run holds {}", p);
        }
    }
}

/// A coordinate near either end of `i32` or near zero.
fn extreme() -> impl Strategy<Value = i32> {
    let centres = vec![i32::MIN, -6, i32::MAX - 12];
    (prop::sample::select(centres), 0..13i32).prop_map(|(c, d)| c + d)
}

/// A piece on one of a few tracks, its ends near either end of `i32`
/// or near zero, so pieces overlap, touch and leave gaps.
fn extreme_piece() -> impl Strategy<Value = Segment> {
    let track = prop::sample::select(vec![i32::MIN, -1, 0, 1, i32::MAX]);
    (any::<bool>(), track, extreme(), extreme()).prop_map(|(horizontal, track, a, b)| {
        let axis = if horizontal {
            Axis::Horizontal
        } else {
            Axis::Vertical
        };
        Segment::on_axis(axis, track, Interval::new(a.min(b), a.max(b)))
    })
}
