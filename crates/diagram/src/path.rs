#[cfg(test)]
use std::collections::{HashMap, HashSet};

#[cfg(test)]
use netart_geom::{Axis, Dir};
use netart_geom::{Point, Segment};

use crate::sweep::{self, Wire};

/// The routed geometry of one net: a set of axis-aligned segments that
/// together form the net's wires.
///
/// All metrics are defined on the *unit-edge graph* covered by the
/// segments — every grid step covered by some segment is an edge — which
/// makes them robust against overlapping or touching segment
/// representations of the same wire.
///
/// None of them builds that graph: they read the segments' *runs*, the
/// maximal pieces per axis and track, and the *meets* of horizontal and
/// vertical runs found by one plane sweep, in O(k log k + meets) for k
/// segments and nothing per unit of wire length.
///
/// # Examples
///
/// ```
/// use netart_diagram::NetPath;
/// use netart_geom::{Point, Segment};
///
/// // An L from (0,0) to (3,2).
/// let path = NetPath::from_segments(vec![
///     Segment::horizontal(0, 0, 3),
///     Segment::vertical(3, 0, 2),
/// ]);
/// assert_eq!(path.length(), 5);
/// assert_eq!(path.bends(), 1);
/// assert_eq!(path.branch_points().len(), 0);
/// assert!(path.connects(&[Point::new(0, 0), Point::new(3, 2)]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetPath {
    segments: Vec<Segment>,
}

impl NetPath {
    /// An empty path (an unrouted net).
    pub fn new() -> Self {
        NetPath::default()
    }

    /// Wraps a list of segments. Degenerate (zero-length) segments are
    /// kept; they can carry a terminal that coincides with a wire end.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        NetPath { segments }
    }

    /// The raw segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Appends a segment.
    pub fn push(&mut self, seg: Segment) {
        self.segments.push(seg);
    }

    /// `true` when the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total wire length: the distinct unit edges covered, at most `u32::MAX`.
    pub fn length(&self) -> u32 {
        u32::try_from(Wire::new(&self.segments).length()).unwrap_or(u32::MAX)
    }

    /// Number of bends: points where the wire turns a corner (degree-2
    /// points whose two incident edges are perpendicular).
    ///
    /// Rule 6 of the paper asks to keep this low; the line-expansion
    /// router minimises it per net.
    pub fn bends(&self) -> u32 {
        Wire::new(&self.segments).bends()
    }

    /// Points where the net branches (degree ≥ 3): the paper's
    /// "branching nodes", kept low by Rule 6.
    pub fn branch_points(&self) -> Vec<Point> {
        Wire::new(&self.segments).branch_points()
    }

    /// `true` when `p` lies on the path.
    pub fn contains(&self, p: Point) -> bool {
        self.segments.iter().any(|s| s.contains(p))
    }

    /// `true` when the covered geometry is connected and touches every
    /// point of `terminals`.
    ///
    /// This is the electrical soundness check: a routed net must be one
    /// connected tree through all its pins.
    pub fn connects(&self, terminals: &[Point]) -> bool {
        Wire::new(&self.segments).connects(terminals)
    }

    /// `true` when the covered geometry contains a cycle, in any
    /// connected component. Partial preroutes may be disconnected (the
    /// router completes them) but Appendix F forbids cycles.
    pub fn has_cycle(&self) -> bool {
        Wire::new(&self.segments).has_cycle()
    }

    /// `true` when the covered geometry is a tree (connected and without
    /// cycles). An empty path is trivially a tree.
    pub fn is_tree(&self) -> bool {
        Wire::new(&self.segments).is_tree()
    }

    /// Interior crossing points between this path and another net's
    /// path: the "crossovers" of Rule 6. Each geometric point is
    /// reported once.
    pub fn crossings_with(&self, other: &NetPath) -> Vec<Point> {
        let found = sweep::crossings(&[&self.segments, &other.segments]);
        found.into_iter().map(|(_, _, p)| p).collect()
    }
}

/// The unit-edge graph measures the sweep replaced, kept as the
/// reference their tests compare against.
#[cfg(test)]
impl NetPath {
    /// The set of unit edges covered, as (point, direction-right-or-up)
    /// pairs, deduplicated.
    fn unit_edges(&self) -> HashSet<(Point, Axis)> {
        let mut edges = HashSet::new();
        for seg in &self.segments {
            let span = seg.span();
            for v in span.lo()..span.hi() {
                edges.insert((seg.point_at(v), seg.axis()));
            }
        }
        edges
    }

    /// Adjacency of the unit-edge graph: every covered point mapped to
    /// the directions in which a unit edge leaves it.
    fn adjacency(&self) -> HashMap<Point, Vec<Dir>> {
        let mut adj: HashMap<Point, Vec<Dir>> = HashMap::new();
        let mut connect = |p: Point, d: Dir| {
            let dirs = adj.entry(p).or_default();
            if !dirs.contains(&d) {
                dirs.push(d);
            }
        };
        for (p, axis) in self.unit_edges() {
            match axis {
                Axis::Horizontal => {
                    connect(p, Dir::Right);
                    connect(p.step(Dir::Right), Dir::Left);
                }
                Axis::Vertical => {
                    connect(p, Dir::Up);
                    connect(p.step(Dir::Up), Dir::Down);
                }
            }
        }
        // Degenerate segments contribute isolated points.
        for seg in &self.segments {
            if seg.is_point() {
                adj.entry(seg.endpoints().0).or_default();
            }
        }
        adj
    }

    /// Total wire length: the number of distinct unit edges covered.
    pub(crate) fn length_by_unit_edges(&self) -> u32 {
        self.unit_edges().len() as u32
    }

    /// Points where the net branches (degree ≥ 3): the paper's
    /// "branching nodes", kept low by Rule 6.
    pub(crate) fn branch_points_by_adjacency(&self) -> Vec<Point> {
        let mut pts: Vec<Point> = self
            .adjacency()
            .into_iter()
            .filter(|(_, dirs)| dirs.len() >= 3)
            .map(|(p, _)| p)
            .collect();
        pts.sort_unstable();
        pts
    }

    /// `true` when the covered geometry contains a cycle, in any
    /// connected component. Partial preroutes may be disconnected (the
    /// router completes them) but Appendix F forbids cycles.
    pub(crate) fn has_cycle_by_adjacency(&self) -> bool {
        let adj = self.adjacency();
        let edges = self.unit_edges().len();
        // Count connected components over the covered points.
        let mut seen: HashSet<Point> = HashSet::new();
        let mut components = 0;
        for &start in adj.keys() {
            if !seen.insert(start) {
                continue;
            }
            components += 1;
            let mut queue = vec![start];
            while let Some(p) = queue.pop() {
                for &d in &adj[&p] {
                    let q = p.step(d);
                    if seen.insert(q) {
                        queue.push(q);
                    }
                }
            }
        }
        edges + components != adj.len()
    }

    /// `true` when the covered geometry is a tree (connected and without
    /// cycles). An empty path is trivially a tree.
    pub(crate) fn is_tree_by_adjacency(&self) -> bool {
        let adj = self.adjacency();
        if adj.is_empty() {
            return true;
        }
        let nodes = adj.len();
        let edges = self.unit_edges().len();
        if edges + 1 != nodes {
            return false;
        }
        // Connectivity: reach all nodes from any one.
        let start = *adj.keys().next().expect("non-empty");
        let mut seen = HashSet::new();
        let mut queue = vec![start];
        seen.insert(start);
        while let Some(p) = queue.pop() {
            for &d in &adj[&p] {
                let q = p.step(d);
                if seen.insert(q) {
                    queue.push(q);
                }
            }
        }
        seen.len() == nodes
    }

    /// Interior crossing points between this path and another net's
    /// path: the "crossovers" of Rule 6. Each geometric point is
    /// reported once.
    pub(crate) fn crossings_by_pairs(&self, other: &NetPath) -> Vec<Point> {
        let mut pts = HashSet::new();
        for a in &self.segments {
            for b in &other.segments {
                if a.crosses_interior(b) {
                    if let Some(p) = a.crossing(b) {
                        pts.insert(p);
                    }
                }
            }
        }
        let mut v: Vec<Point> = pts.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Points shared with another path that are *not* legal perpendicular
    /// crossings — i.e. overlaps or T-touches between different nets,
    /// which the routing postcondition forbids ("the only common points
    /// of different nets are crossing points", §5.3).
    pub(crate) fn illegal_contacts_with(&self, other: &NetPath) -> Vec<Point> {
        let my_adj = self.adjacency();
        let their_adj = other.adjacency();
        let mut bad: Vec<Point> = my_adj
            .iter()
            .filter_map(|(p, my_dirs)| {
                let their_dirs = their_adj.get(p)?;
                // A legal crossing: this net passes straight through on
                // one axis, the other net straight through on the other.
                let straight = |dirs: &[Dir]| -> Option<Axis> {
                    (dirs.len() == 2 && dirs[0].axis() == dirs[1].axis())
                        .then(|| dirs[0].axis())
                };
                match (straight(my_dirs), straight(their_dirs)) {
                    (Some(a), Some(b)) if a != b => None,
                    _ => Some(*p),
                }
            })
            .collect();
        bad.sort_unstable();
        bad
    }
}

impl FromIterator<Segment> for NetPath {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        NetPath::from_segments(iter.into_iter().collect())
    }
}

impl Extend<Segment> for NetPath {
    fn extend<I: IntoIterator<Item = Segment>>(&mut self, iter: I) {
        self.segments.extend(iter);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The unit-edge adjacency count that `bends` replaced, kept as its
    /// oracle: every covered point whose two edges are perpendicular.
    pub(crate) fn bends_by_adjacency(path: &NetPath) -> u32 {
        path.adjacency()
            .values()
            .filter(|dirs| dirs.len() == 2 && dirs[0].axis() != dirs[1].axis())
            .count() as u32
    }

    /// The unit-edge search that `connects` replaced, kept as its
    /// oracle: a walk from the first terminal over the covered unit
    /// edges must reach every terminal.
    pub(crate) fn connects_by_unit_edges(path: &NetPath, terminals: &[Point]) -> bool {
        if terminals.is_empty() {
            return true;
        }
        let adj = path.adjacency();
        if terminals.iter().any(|t| !adj.contains_key(t)) {
            return false;
        }
        let mut seen = HashSet::new();
        let mut queue = vec![terminals[0]];
        seen.insert(terminals[0]);
        while let Some(p) = queue.pop() {
            if let Some(dirs) = adj.get(&p) {
                for &d in dirs {
                    let q = p.step(d);
                    if seen.insert(q) {
                        queue.push(q);
                    }
                }
            }
        }
        terminals.iter().all(|t| seen.contains(t))
    }

    /// Segments on a small grid, so overlaps, collinear touches,
    /// zero-length pieces, self-crossings and T-junctions are common.
    fn segment_strategy() -> impl Strategy<Value = Segment> {
        (any::<bool>(), 0i32..7, 0i32..7, 0i32..4).prop_map(|(horizontal, track, lo, len)| {
            let axis = if horizontal { Axis::Horizontal } else { Axis::Vertical };
            Segment::on_axis(axis, track, netart_geom::Interval::new(lo, lo + len))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The endpoint count equals the unit-edge adjacency count on
        /// any segment soup.
        #[test]
        fn bends_match_the_unit_edge_oracle(
            segments in prop::collection::vec(segment_strategy(), 0..9),
        ) {
            let path = NetPath::from_segments(segments);
            prop_assert_eq!(path.bends(), bends_by_adjacency(&path), "{:?}", path.segments());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The segment union-find agrees with the unit-edge walk on any
        /// segment soup and any terminals, on or off the wire.
        #[test]
        fn connects_matches_the_unit_edge_oracle(
            segments in prop::collection::vec(segment_strategy(), 0..9),
            terminals in prop::collection::vec((any::<bool>(), 0i32..11, 0i32..11, 0usize..9), 0..4),
        ) {
            // Half the terminals sit on a segment's endpoint.
            let terminals: Vec<Point> = terminals
                .into_iter()
                .map(|(free, x, y, i)| match segments.get(i) {
                    Some(s) if !free => s.endpoints().1,
                    _ => Point::new(x, y),
                })
                .collect();
            let path = NetPath::from_segments(segments);
            prop_assert_eq!(
                path.connects(&terminals),
                connects_by_unit_edges(&path, &terminals),
                "{:?} {:?}",
                path.segments(),
                terminals
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On three segment soups, near the origin or an `i32` extreme,
        /// every per-net measure and the crossings and first contact of
        /// each pair agree with the unit-edge graph.
        #[test]
        fn measures_match_the_unit_edge_oracles(
            base in prop::sample::select(vec![0, i32::MIN, i32::MAX - 10]),
            nets in prop::collection::vec(prop::collection::vec(segment_strategy(), 0..7), 3),
            terminals in prop::collection::vec((any::<bool>(), 0i32..11, 0i32..11, 0usize..7), 0..4),
        ) {
            let shift = |s: &Segment| {
                let span = netart_geom::Interval::new(s.span().lo() + base, s.span().hi() + base);
                Segment::on_axis(s.axis(), s.track() + base, span)
            };
            // Half the terminals sit on an endpoint of the first net.
            let terminals: Vec<Point> = terminals
                .into_iter()
                .map(|(free, x, y, i)| match nets[0].get(i) {
                    Some(s) if !free => shift(s).endpoints().0,
                    _ => Point::new(x + base, y + base),
                })
                .collect();
            let paths: Vec<NetPath> = nets.iter().map(|n| n.iter().map(shift).collect()).collect();
            let mut first_contacts = Vec::new();
            for (i, a) in paths.iter().enumerate() {
                prop_assert_eq!(a.length(), a.length_by_unit_edges());
                prop_assert_eq!(a.bends(), bends_by_adjacency(a));
                prop_assert_eq!(a.branch_points(), a.branch_points_by_adjacency());
                prop_assert_eq!(a.connects(&terminals), connects_by_unit_edges(a, &terminals));
                prop_assert_eq!(a.has_cycle(), a.has_cycle_by_adjacency());
                prop_assert_eq!(a.is_tree(), a.is_tree_by_adjacency());
                for (j, b) in paths.iter().enumerate().skip(i + 1) {
                    prop_assert_eq!(a.crossings_with(b), a.crossings_by_pairs(b));
                    if let Some(&p) = a.illegal_contacts_with(b).first() {
                        first_contacts.push((i, j, p));
                    }
                }
            }
            let wires: Vec<Wire> = paths.iter().map(|p| Wire::new(p.segments())).collect();
            prop_assert_eq!(sweep::contacts(wires.iter()), first_contacts);
        }
    }

    #[test]
    fn bends_match_the_oracle_on_named_shapes() {
        let shapes: Vec<Vec<Segment>> = vec![
            // Overlapping collinear pieces with a corner at one end.
            vec![
                Segment::horizontal(0, 0, 4),
                Segment::horizontal(0, 2, 6),
                Segment::vertical(6, 0, 3),
            ],
            // Collinear pieces touching end to end: no corner at the joint.
            vec![Segment::horizontal(0, 0, 3), Segment::horizontal(0, 3, 6)],
            // A zero-length piece at a corner and one on its own.
            vec![
                Segment::horizontal(0, 0, 3),
                Segment::vertical(3, 0, 2),
                Segment::point(Axis::Vertical, Point::new(3, 0)),
                Segment::point(Axis::Horizontal, Point::new(9, 9)),
            ],
            // A self-crossing loop: the crossing point is no corner.
            vec![
                Segment::horizontal(2, 0, 4),
                Segment::vertical(2, 0, 4),
                Segment::horizontal(0, 2, 5),
                Segment::vertical(5, 0, 2),
            ],
            // A T-junction and a corner hidden under an overlap.
            vec![
                Segment::horizontal(0, 0, 4),
                Segment::vertical(2, 0, 3),
                Segment::vertical(4, 0, 2),
                Segment::vertical(4, 0, 1),
            ],
        ];
        for segments in shapes {
            let path = NetPath::from_segments(segments);
            assert_eq!(path.bends(), bends_by_adjacency(&path), "{:?}", path.segments());
        }
    }

    fn l_path() -> NetPath {
        NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 3),
            Segment::vertical(3, 0, 2),
        ])
    }

    #[test]
    fn length_dedups_overlaps() {
        let p = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 4),
            Segment::horizontal(0, 2, 6), // overlaps [2,4]
        ]);
        assert_eq!(p.length(), 6);
    }

    #[test]
    fn bends_on_l_and_z() {
        assert_eq!(l_path().bends(), 1);
        let z = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::vertical(2, 0, 2),
            Segment::horizontal(2, 2, 4),
        ]);
        assert_eq!(z.bends(), 2);
        let straight = NetPath::from_segments(vec![Segment::horizontal(0, 0, 9)]);
        assert_eq!(straight.bends(), 0);
    }

    #[test]
    fn branch_points_on_t() {
        let t = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 4),
            Segment::vertical(2, 0, 3),
        ]);
        assert_eq!(t.branch_points(), vec![Point::new(2, 0)]);
        assert_eq!(t.bends(), 0);
    }

    #[test]
    fn connectivity() {
        let p = l_path();
        assert!(p.connects(&[Point::new(0, 0), Point::new(3, 2)]));
        assert!(p.connects(&[Point::new(2, 0)])); // mid point on the wire
        assert!(!p.connects(&[Point::new(0, 0), Point::new(5, 5)]));
        let disconnected = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 1),
            Segment::horizontal(5, 0, 1),
        ]);
        assert!(!disconnected.connects(&[Point::new(0, 0), Point::new(0, 5)]));
    }

    #[test]
    fn tree_detection() {
        assert!(l_path().is_tree());
        assert!(NetPath::new().is_tree());
        let cycle = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::horizontal(2, 0, 2),
            Segment::vertical(0, 0, 2),
            Segment::vertical(2, 0, 2),
        ]);
        assert!(!cycle.is_tree());
        let forest = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 1),
            Segment::horizontal(5, 0, 1),
        ]);
        assert!(!forest.is_tree());
    }

    #[test]
    fn cycle_detection_distinguishes_forests() {
        assert!(!l_path().has_cycle());
        assert!(!NetPath::new().has_cycle());
        // A disconnected forest is cycle-free (a legal partial preroute).
        let forest = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 1),
            Segment::horizontal(5, 0, 1),
        ]);
        assert!(!forest.has_cycle());
        // A square is a cycle.
        let cycle = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::horizontal(2, 0, 2),
            Segment::vertical(0, 0, 2),
            Segment::vertical(2, 0, 2),
        ]);
        assert!(cycle.has_cycle());
        // A forest with one cyclic component is still cyclic.
        let mixed = NetPath::from_segments(vec![
            Segment::horizontal(0, 0, 2),
            Segment::horizontal(2, 0, 2),
            Segment::vertical(0, 0, 2),
            Segment::vertical(2, 0, 2),
            Segment::horizontal(9, 0, 3),
        ]);
        assert!(mixed.has_cycle());
    }

    #[test]
    fn crossings_between_nets() {
        let h = NetPath::from_segments(vec![Segment::horizontal(1, 0, 4)]);
        let v = NetPath::from_segments(vec![Segment::vertical(2, 0, 3)]);
        assert_eq!(h.crossings_with(&v), vec![Point::new(2, 1)]);
        assert_eq!(v.crossings_with(&h), vec![Point::new(2, 1)]);
        // Touch at an endpoint is not a crossing.
        let touch = NetPath::from_segments(vec![Segment::vertical(0, 0, 3)]);
        assert!(h.crossings_with(&touch).is_empty());
    }

    #[test]
    fn crossings_count_once_per_pair_of_nets() {
        let p = Point::new(2, 2);
        let h = [Segment::horizontal(2, 0, 4)];
        // Two pieces of one net cross `h` at `p`, and so does a third net.
        let v = [Segment::vertical(2, 0, 4), Segment::vertical(2, 1, 3)];
        let w = [Segment::vertical(2, 1, 4)];
        assert_eq!(sweep::crossings(&[&h, &v, &w]), vec![(0, 1, p), (0, 2, p)]);
    }

    #[test]
    fn illegal_contacts() {
        let h = NetPath::from_segments(vec![Segment::horizontal(1, 0, 4)]);
        let v = NetPath::from_segments(vec![Segment::vertical(2, 0, 3)]);
        // A clean perpendicular crossing is legal.
        assert!(h.illegal_contacts_with(&v).is_empty());
        // A T-touch is illegal.
        let t = NetPath::from_segments(vec![Segment::vertical(2, 1, 3)]);
        assert_eq!(h.illegal_contacts_with(&t), vec![Point::new(2, 1)]);
        // Overlap along a track is illegal.
        let along = NetPath::from_segments(vec![Segment::horizontal(1, 2, 6)]);
        assert!(!h.illegal_contacts_with(&along).is_empty());
    }

    #[test]
    fn degenerate_segment_keeps_terminal_point() {
        let p = NetPath::from_segments(vec![Segment::point(Axis::Horizontal, Point::new(3, 3))]);
        assert_eq!(p.length(), 0);
        assert!(p.connects(&[Point::new(3, 3)]));
    }

    #[test]
    fn collect_and_extend() {
        let mut p: NetPath = vec![Segment::horizontal(0, 0, 1)].into_iter().collect();
        p.extend(vec![Segment::vertical(1, 0, 1)]);
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.bends(), 1);
    }
}
