//! Direct two-point access to the line-expansion engine.
//!
//! [`crate::Eureka`] drives the engine net by net over a whole diagram;
//! this module exposes the same search for a single connection over a
//! bare [`ObstacleMap`], signature-compatible with the [`crate::lee`]
//! and [`crate::hightower`] baselines — which is exactly what the
//! paper's §5.4 comparison and the benchmark suite need.

use netart_geom::{Dir, Point};
use netart_netlist::NetId;

use netart_diagram::NetPath;

use crate::budget::BudgetMeter;
use crate::expand::{Front, Search, SearchResult, Workspace};
use crate::ObstacleMap;

/// Routes a two-point connection with line expansion.
///
/// `from`/`to` pair each terminal point with its allowed exit
/// directions (a module terminal exits through its side; a free point
/// may use all four). `net` names the connection: obstacles of kind
/// [`crate::ObstacleKind::Net`] with this id act as additional targets,
/// its claims are ignored by the caller's bookkeeping. Returns the
/// minimum-bend path (crossovers, then length as tie-breaks), or
/// `None` when no path exists.
///
/// # Examples
///
/// ```
/// use netart_geom::{Dir, Point, Rect};
/// use netart_netlist::NetId;
/// use netart_route::{line_expansion, ObstacleKind, ObstacleMap};
///
/// let mut map = ObstacleMap::new();
/// map.add_rect(&Rect::new(Point::new(0, 0), 20, 10), ObstacleKind::Module);
/// let path = line_expansion::route_two_points(
///     &map,
///     (Point::new(2, 5), &[Dir::Right]),
///     (Point::new(15, 5), &[Dir::Left]),
///     NetId::from_index(0),
/// ).expect("straight corridor");
/// assert_eq!(path.bends(), 0);
/// ```
pub fn route_two_points(
    map: &ObstacleMap,
    from: (Point, &[Dir]),
    to: (Point, &[Dir]),
    net: NetId,
) -> Option<NetPath> {
    route_two_points_with(map, from, to, net, false, 64)
}

/// Like [`route_two_points`] with explicit tie-break order (`-s`) and
/// bend budget.
pub fn route_two_points_with(
    map: &ObstacleMap,
    from: (Point, &[Dir]),
    to: (Point, &[Dir]),
    net: NetId,
    swap_tiebreak: bool,
    max_bends: u32,
) -> Option<NetPath> {
    let mut ws = Workspace::default();
    let mut search = Search::new(map, net, swap_tiebreak, max_bends, &mut ws);
    for &d in from.1 {
        search.seed(Front::A, from.0, d);
    }
    for &d in to.1 {
        search.seed(Front::B, to.0, d);
    }
    match search.run(&mut BudgetMeter::unlimited()) {
        SearchResult::Connected(conn) => Some(NetPath::from_segments(conn.segments)),
        SearchResult::Unreachable | SearchResult::OverBudget => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObstacleKind;
    use netart_geom::Rect;

    #[test]
    fn free_point_uses_all_directions() {
        let mut map = ObstacleMap::new();
        map.add_rect(&Rect::new(Point::new(0, 0), 20, 20), ObstacleKind::Module);
        let path = route_two_points(
            &map,
            (Point::new(5, 5), &Dir::ALL),
            (Point::new(15, 12), &Dir::ALL),
            NetId::from_index(0),
        )
        .expect("open plane");
        assert!(path.connects(&[Point::new(5, 5), Point::new(15, 12)]));
        assert_eq!(path.bends(), 1, "{:?}", path.segments());
    }

    #[test]
    fn restricted_exit_costs_bends() {
        let mut map = ObstacleMap::new();
        map.add_rect(&Rect::new(Point::new(0, 0), 20, 20), ObstacleKind::Module);
        // Both terminals forced to exit upward although they face each
        // other horizontally.
        let path = route_two_points(
            &map,
            (Point::new(5, 5), &[Dir::Up]),
            (Point::new(15, 5), &[Dir::Up]),
            NetId::from_index(0),
        )
        .expect("up-and-over");
        assert!(path.connects(&[Point::new(5, 5), Point::new(15, 5)]));
        assert_eq!(path.bends(), 2, "{:?}", path.segments());
    }

    #[test]
    fn zero_bend_budget_only_finds_straight_lines() {
        let mut map = ObstacleMap::new();
        map.add_rect(&Rect::new(Point::new(0, 0), 20, 20), ObstacleKind::Module);
        let straight = route_two_points_with(
            &map,
            (Point::new(2, 5), &[Dir::Right]),
            (Point::new(15, 5), &[Dir::Left]),
            NetId::from_index(0),
            false,
            0,
        );
        assert!(straight.is_some());
        let bent = route_two_points_with(
            &map,
            (Point::new(2, 5), &[Dir::Right]),
            (Point::new(15, 9), &[Dir::Left]),
            NetId::from_index(0),
            false,
            0,
        );
        assert!(bent.is_none(), "an offset pair needs bends");
    }
}
