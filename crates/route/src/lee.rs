//! The Lee maze router (§5.2.2, after Lee 1961).
//!
//! Wave propagation on the unit grid: breadth-first expansion from the
//! source until the target is reached, guaranteeing a *minimum-length*
//! path whenever one exists. The schematic-diagram twist — nets may be
//! crossed perpendicular but never overlapped or turned upon — is
//! handled by searching over `(point, entry direction)` states: a step
//! onto a foreign net point must cross it straight.
//!
//! This is the comparison baseline of §5.4: complete like line
//! expansion, but optimising length instead of bends and scanning cell
//! by cell (slower on sparse planes, and its paths zig-zag).

use std::collections::{HashMap, VecDeque};

use netart_geom::{Axis, Dir, Point, Rect, Segment};
use netart_netlist::NetId;

use netart_diagram::NetPath;

use crate::budget::BudgetMeter;
use crate::expand::merge_collinear;
use crate::{ObstacleKind, ObstacleMap};

/// How a point may be used by a travelling wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Free to enter, stop or turn.
    Free,
    /// Hard obstacle.
    Blocked,
    /// On a foreign net's interior running along `axis`: may only be
    /// crossed straight, perpendicular to that axis.
    NetInterior(Axis),
}

fn classify(map: &ObstacleMap, p: Point, net: NetId) -> Cell {
    let mut cell = Cell::Free;
    for (axis, track, coord) in [
        (Axis::Horizontal, p.y, p.x),
        (Axis::Vertical, p.x, p.y),
    ] {
        for o in map.at(axis, track) {
            if !o.span.contains(coord) {
                continue;
            }
            match o.kind {
                // The net's own claims (§5.7) and terminal points never
                // block it.
                ObstacleKind::Claim(n) | ObstacleKind::Terminal(n) if n == net => {}
                ObstacleKind::Module | ObstacleKind::Terminal(_) | ObstacleKind::Claim(_) => {
                    return Cell::Blocked
                }
                ObstacleKind::Net(n) if n == net => return Cell::Blocked,
                ObstacleKind::Net(_) => {
                    // Endpoints (bends) block; interiors are crossable.
                    if coord == o.span.lo() || coord == o.span.hi() {
                        return Cell::Blocked;
                    }
                    cell = match cell {
                        // On two nets at once (their crossing point):
                        // nothing may pass through.
                        Cell::NetInterior(_) => return Cell::Blocked,
                        _ => Cell::NetInterior(axis),
                    };
                }
            }
        }
    }
    cell
}

/// Routes a two-point connection with wave propagation.
///
/// `bounds` limits the searched grid (the routing plane). `net` names
/// the connection so its own claim/terminal bookkeeping does not block
/// it; foreign nets are crossed per the schematic rules. Returns the
/// minimum-length path, or `None` when the target is unreachable.
pub fn route_two_points(
    map: &ObstacleMap,
    bounds: Rect,
    from: Point,
    to: Point,
    net: NetId,
) -> Option<NetPath> {
    route_two_points_metered(map, bounds, from, to, net, &mut BudgetMeter::unlimited())
}

/// Like [`route_two_points`], charging one budget unit per expanded
/// wave cell. A tripped meter abandons the search (`None`); check
/// [`BudgetMeter::breach`] to tell exhaustion from unreachability.
pub fn route_two_points_metered(
    map: &ObstacleMap,
    bounds: Rect,
    from: Point,
    to: Point,
    net: NetId,
    meter: &mut BudgetMeter,
) -> Option<NetPath> {
    if from == to {
        return Some(NetPath::from_segments(vec![Segment::point(Axis::Horizontal, from)]));
    }
    // State: (point, axis of motion that entered it).
    type State = (Point, Axis);
    let mut parent: HashMap<State, State> = HashMap::new();
    let mut queue: VecDeque<State> = VecDeque::new();

    let start_ok = |q: Point| bounds.contains(q);
    for d in Dir::ALL {
        let q = from.step(d);
        if !start_ok(q) {
            continue;
        }
        let cell = if q == to { Cell::Free } else { classify(map, q, net) };
        let enterable = match cell {
            Cell::Free => true,
            Cell::Blocked => false,
            Cell::NetInterior(axis) => d.axis() != axis,
        };
        if enterable {
            let s = (q, d.axis());
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert((from, d.axis()));
                queue.push_back(s);
            }
        }
    }

    let mut goal: Option<State> = None;
    'bfs: while let Some((p, entered)) = queue.pop_front() {
        if p == to {
            goal = Some((p, entered));
            break 'bfs;
        }
        if meter.charge().is_some() {
            return None;
        }
        let here = classify(map, p, net);
        for d in Dir::ALL {
            // On a net interior we must keep going straight.
            if let Cell::NetInterior(axis) = here {
                if d.axis() == axis {
                    continue;
                }
                if d.axis() != entered {
                    continue;
                }
            }
            // Never immediately backtrack; BFS already saw it.
            let q = p.step(d);
            if !bounds.contains(q) {
                continue;
            }
            let cell = if q == to { Cell::Free } else { classify(map, q, net) };
            let enterable = match cell {
                Cell::Free => true,
                Cell::Blocked => false,
                Cell::NetInterior(axis) => d.axis() != axis,
            };
            if !enterable {
                continue;
            }
            let s = (q, d.axis());
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert((p, entered));
                queue.push_back(s);
            }
        }
    }

    let (mut p, mut axis) = goal?;
    // Trace back unit steps, then compact into segments.
    let mut pts = vec![p];
    while p != from {
        let &(q, qaxis) = parent.get(&(p, axis)).expect("reached states have parents");
        pts.push(q);
        p = q;
        axis = qaxis;
    }
    pts.reverse();
    let mut segs = Vec::new();
    for w in pts.windows(2) {
        if let Some(s) = Segment::between(w[0], w[1]) {
            segs.push(s);
        }
    }
    Some(NetPath::from_segments(merge_collinear(segs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_expansion;

    fn nid(i: usize) -> NetId {
        NetId::from_index(i)
    }

    fn plane(w: i32, h: i32) -> (ObstacleMap, Rect) {
        let bounds = Rect::new(Point::new(0, 0), w, h);
        let mut m = ObstacleMap::new();
        m.add_rect(&bounds, ObstacleKind::Module);
        // Search strictly inside the border.
        (m, bounds.inflate(-1))
    }

    #[test]
    fn straight_minimum_path() {
        let (m, b) = plane(20, 10);
        let p = route_two_points(&m, b, Point::new(2, 5), Point::new(15, 5), nid(0)).unwrap();
        assert_eq!(p.length(), 13);
        assert_eq!(p.bends(), 0);
    }

    #[test]
    fn l_path_is_minimal_length() {
        let (m, b) = plane(20, 20);
        let p = route_two_points(&m, b, Point::new(2, 2), Point::new(10, 9), nid(0)).unwrap();
        assert_eq!(p.length(), 8 + 7, "manhattan distance");
        assert!(p.connects(&[Point::new(2, 2), Point::new(10, 9)]));
    }

    #[test]
    fn detours_around_walls() {
        let (mut m, b) = plane(30, 20);
        m.add(Segment::vertical(15, 0, 16), ObstacleKind::Module);
        let p = route_two_points(&m, b, Point::new(5, 5), Point::new(25, 5), nid(0)).unwrap();
        assert!(p.connects(&[Point::new(5, 5), Point::new(25, 5)]));
        // Minimal length: out and back above y=16.
        assert_eq!(p.length(), 20 + 2 * (17 - 5));
    }

    #[test]
    fn unreachable_returns_none() {
        let (mut m, b) = plane(30, 20);
        m.add_rect(&Rect::new(Point::new(20, 5), 6, 6), ObstacleKind::Module);
        assert!(route_two_points(&m, b, Point::new(5, 8), Point::new(23, 8), nid(0)).is_none());
    }

    #[test]
    fn crosses_foreign_net_straight() {
        let (mut m, b) = plane(20, 10);
        m.add(Segment::vertical(10, 1, 9), ObstacleKind::Net(nid(7)));
        let p = route_two_points(&m, b, Point::new(2, 5), Point::new(17, 5), nid(0)).unwrap();
        assert_eq!(p.length(), 15, "straight across the net");
        assert_eq!(p.bends(), 0);
    }

    #[test]
    fn never_turns_on_a_net() {
        let (mut m, b) = plane(20, 10);
        // Foreign net along the shortest path's would-be corner.
        m.add(Segment::vertical(10, 1, 9), ObstacleKind::Net(nid(7)));
        let p = route_two_points(&m, b, Point::new(2, 5), Point::new(10, 9), nid(0));
        // Target itself is an endpoint of the foreign net: 10,9 lies on
        // the net at its endpoint... choose a clean target instead.
        let p2 = route_two_points(&m, b, Point::new(2, 5), Point::new(12, 8), nid(0)).unwrap();
        for seg in p2.segments() {
            // No bend at x=10 (on the foreign net).
            let _ = seg;
        }
        let path_pts_on_net: Vec<Point> = (1..=9)
            .map(|y| Point::new(10, y))
            .filter(|&q| p2.contains(q))
            .collect();
        // Crossing points are fine; but none of them may be a bend.
        let bends = p2.bends();
        let _ = bends;
        for q in path_pts_on_net {
            let on_h = p2
                .segments()
                .iter()
                .any(|s| s.axis() == Axis::Horizontal && s.contains(q) && !s.is_point());
            assert!(on_h, "point {q} on the net must be crossed horizontally");
        }
        let _ = p;
    }

    #[test]
    fn budget_abandons_search() {
        let (m, b) = plane(30, 20);
        let mut meter = BudgetMeter::start(crate::Budget::new().with_node_limit(3));
        let p = route_two_points_metered(
            &m,
            b,
            Point::new(2, 2),
            Point::new(27, 17),
            nid(0),
            &mut meter,
        );
        assert!(p.is_none());
        assert!(meter.breach().is_some());
    }

    /// A wall at x = 10 whose only gap, (10, 5), holds a system terminal
    /// point of net 0: both line expansion and the Lee wave take net 0
    /// through it, and neither takes net 1.
    #[test]
    fn a_terminal_point_passes_its_own_net_and_blocks_others() {
        let (mut m, b) = plane(20, 10);
        m.add(Segment::vertical(10, 0, 4), ObstacleKind::Module);
        m.add(Segment::vertical(10, 6, 10), ObstacleKind::Module);
        m.add_point(Point::new(10, 5), ObstacleKind::Terminal(nid(0)));
        let (from, to) = (Point::new(2, 5), Point::new(17, 5));
        let line = |net| {
            line_expansion::route_two_points(&m, (from, &[Dir::Right]), (to, &[Dir::Left]), net)
        };
        let own = line(nid(0)).expect("the net passes its own terminal");
        assert_eq!((own.bends(), own.length()), (0, 15), "{:?}", own.segments());
        assert!(line(nid(1)).is_none(), "another net's terminal blocks");
        let own = route_two_points(&m, b, from, to, nid(0)).expect("the wave passes it too");
        assert_eq!((own.bends(), own.length()), (0, 15), "{:?}", own.segments());
        assert!(route_two_points(&m, b, from, to, nid(1)).is_none());
    }

    #[test]
    fn coincident_endpoints() {
        let (m, b) = plane(10, 10);
        let p = route_two_points(&m, b, Point::new(5, 5), Point::new(5, 5), nid(0)).unwrap();
        assert_eq!(p.length(), 0);
        assert!(p.connects(&[Point::new(5, 5)]));
    }
}
