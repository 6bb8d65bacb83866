//! The obstacle configuration of the routing plane (§5.6.2).
//!
//! Obstacles are axis-aligned segments indexed per axis and track:
//! `horizontal-segments` and `vertical-segments` in the paper. Module
//! boundary edges, the plane border, system terminal points, routed net
//! segments and claimpoints all live here. A sweep moving vertically
//! consults horizontal obstacles and vice versa.
//!
//! Each track holds a multiset: the router reads what a track holds,
//! never the order its edits left it in. Once built, the map changes
//! only when a net's wires are rewired or removed, or a claim is made
//! or lifted.
//!
//! Each axis keeps its lanes in one [`TrackTable`]: tracks grouped in
//! chunks of 64 coordinates, each with an occupancy word. A lookup is a
//! binary search over the chunks, and the sweep's "next track with
//! obstacles" step is a bit scan, so neither depends on how far apart
//! the tracks lie.
//!
//! The map also remembers, per net, which tracks hold that net's
//! segments, caps and claims, so ripping a net up or lifting its claims
//! visits only those tracks instead of the whole plane.

use netart_geom::{Axis, Interval, Point, Rect, Segment};
use netart_netlist::NetId;

use crate::expand::{merge_collinear, split_at_junctions};
use crate::tracks::TrackTable;

/// What an obstacle is; the router reacts differently to each kind
/// (§5.6.3 `EXPAND_SEGMENT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObstacleKind {
    /// A module bounding edge, the plane border or a system terminal
    /// point on no net: blocks expansion outright.
    Module,
    /// A system terminal point of the given net: blocks every other
    /// net like a module edge, and its own net passes it.
    Terminal(NetId),
    /// A routed net segment: its endpoints (bends) block, its interior
    /// may be crossed perpendicular.
    Net(NetId),
    /// A claimpoint reserving the track in front of a terminal of the
    /// given net (§5.7): blocks like a module until lifted.
    Claim(NetId),
}

impl ObstacleKind {
    /// The net a wire or claim belongs to, whose per-net removals reach
    /// it; `None` for module edges and terminal points, which stay.
    fn net(self) -> Option<NetId> {
        match self {
            ObstacleKind::Module | ObstacleKind::Terminal(_) => None,
            ObstacleKind::Net(n) | ObstacleKind::Claim(n) => Some(n),
        }
    }
}

/// One obstacle: a span on a track with a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obstacle {
    /// The range along the track's axis.
    pub span: Interval,
    /// What it is.
    pub kind: ObstacleKind,
}

/// Per-axis, per-track obstacle store.
///
/// # Examples
///
/// ```
/// use netart_geom::{Axis, Interval, Point, Rect};
/// use netart_route::{ObstacleKind, ObstacleMap};
///
/// let mut map = ObstacleMap::new();
/// map.add_rect(&Rect::new(Point::new(2, 2), 4, 2), ObstacleKind::Module);
/// // The module's bottom edge blocks an upward sweep at y = 2.
/// let hit = map.at(Axis::Horizontal, 2);
/// assert_eq!(hit.len(), 1);
/// assert_eq!(hit[0].span, Interval::new(2, 6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObstacleMap {
    horizontal: TrackTable<Obstacle>, // key: y; spans are x ranges
    vertical: TrackTable<Obstacle>,   // key: x; spans are y ranges
    /// Indexed by net: every `(axis, track)` that may hold one of the
    /// net's segments, caps or claims. A superset with repeats; the
    /// per-net removals compact it.
    net_tracks: Vec<Vec<(Axis, i32)>>,
    /// Test-only switch back to the first-fit merge and the scanning
    /// split, the oracle of [`ObstacleMap::rewire_net`].
    #[cfg(test)]
    pub(crate) old_bookkeeping: bool,
    /// Test-only: the state of the generator that `shuffle_tracks` in
    /// the tests draws from, when it shuffles.
    #[cfg(test)]
    pub(crate) shuffle: Option<u64>,
}

impl ObstacleMap {
    /// An empty plane.
    pub fn new() -> Self {
        ObstacleMap::default()
    }

    pub(crate) fn lanes(&self, axis: Axis) -> &TrackTable<Obstacle> {
        match axis {
            Axis::Horizontal => &self.horizontal,
            Axis::Vertical => &self.vertical,
        }
    }

    fn lanes_mut(&mut self, axis: Axis) -> &mut TrackTable<Obstacle> {
        match axis {
            Axis::Horizontal => &mut self.horizontal,
            Axis::Vertical => &mut self.vertical,
        }
    }

    /// Adds a segment obstacle.
    ///
    /// Net segments are automatically *capped*: their two endpoints are
    /// also registered as degenerate obstacles on the perpendicular
    /// axis. Endpoints are the bends/terminals of a wire, which the
    /// paper's model blocks from every direction — without the caps, a
    /// sweep running parallel to the segment could slide onto it past
    /// an endpoint. (Wires produced by the router are structurally
    /// capped already; the explicit caps make hand-built maps equally
    /// safe.)
    pub fn add(&mut self, seg: Segment, kind: ObstacleKind) {
        self.push(seg, kind);
        if matches!(kind, ObstacleKind::Net(_)) && !seg.is_point() {
            let (a, b) = seg.endpoints();
            for p in [a, b] {
                self.push(Segment::point(seg.axis().perpendicular(), p), kind);
            }
        }
    }

    /// Stores one obstacle and records its track under its net.
    fn push(&mut self, seg: Segment, kind: ObstacleKind) {
        self.lanes_mut(seg.axis())
            .push(seg.track(), Obstacle { span: seg.span(), kind });
        if let Some(net) = kind.net() {
            if self.net_tracks.len() <= net.index() {
                self.net_tracks.resize_with(net.index() + 1, Vec::new);
            }
            self.net_tracks[net.index()].push((seg.axis(), seg.track()));
        }
    }

    /// Adds the four boundary edges of a rectangle (a module bounding
    /// or the plane border). A degenerate rectangle adds point
    /// obstacles on both axes, matching the paper's treatment of system
    /// terminals.
    pub fn add_rect(&mut self, rect: &Rect, kind: ObstacleKind) {
        if rect.lower_left() == rect.upper_right() {
            self.add_point(rect.lower_left(), kind);
            return;
        }
        for e in rect.edges() {
            self.add(e, kind);
        }
    }

    /// Adds a point obstacle visible to sweeps on both axes.
    pub fn add_point(&mut self, p: Point, kind: ObstacleKind) {
        self.add(Segment::horizontal(p.y, p.x, p.x), kind);
        self.add(Segment::vertical(p.x, p.y, p.y), kind);
    }

    /// The obstacles on a track (empty slice when the track is clear).
    /// Their order is not part of the map's state: an edit may reorder
    /// them, and the sweep orders them itself.
    pub fn at(&self, axis: Axis, track: i32) -> &[Obstacle] {
        self.lanes(axis).get(track)
    }

    /// The next track strictly beyond `from` in direction `dir` that
    /// holds any obstacle of the axis perpendicular to `dir` — the "next
    /// row with obstacles" step of the sweep. For `Dir::Up`/`Down` this
    /// walks horizontal tracks, for `Left`/`Right` vertical ones. The
    /// sweep walks the tracks with a cursor instead; this lookup is its
    /// oracle.
    #[cfg(test)]
    pub(crate) fn next_track(&self, dir: netart_geom::Dir, from: i32) -> Option<i32> {
        use netart_geom::Dir;
        let lanes = self.lanes(dir.segment_axis());
        match dir {
            Dir::Up | Dir::Right => lanes.next_above(from),
            Dir::Down | Dir::Left => lanes.next_below(from),
        }
    }

    /// Removes every obstacle matching `pred`, visiting the whole map.
    /// Returns how many were dropped.
    fn retain_not(&mut self, pred: impl Fn(&Obstacle) -> bool) -> usize {
        self.horizontal.remove_all_where(|_, o| pred(o))
            + self.vertical.remove_all_where(|_, o| pred(o))
    }

    /// Removes the obstacles of `net` whose kind matches `pred`,
    /// visiting only the tracks recorded for that net.
    fn remove_owned(&mut self, net: NetId, pred: impl Fn(ObstacleKind) -> bool) -> usize {
        let Some(tracks) = self.net_tracks.get_mut(net.index()) else {
            return 0;
        };
        let mut tracks = std::mem::take(tracks);
        tracks.sort_unstable();
        tracks.dedup();
        let mut removed = 0;
        let owned = |o: &Obstacle| o.kind.net() == Some(net);
        tracks.retain(|&(axis, track)| {
            removed += self.lanes_mut(axis).remove_where(track, |o| owned(o) && pred(o.kind));
            // Keep the track while the net still holds something there.
            self.at(axis, track).iter().any(owned)
        });
        self.net_tracks[net.index()] = tracks;
        removed
    }

    /// Removes the wires of a net (its segments and their caps); its
    /// claims stay.
    pub fn remove_net(&mut self, net: NetId) -> usize {
        self.remove_owned(net, |k| matches!(k, ObstacleKind::Net(_)))
    }

    /// Lifts the claimpoints of one net (§5.7: "when the routing of A
    /// and B starts, both their claimpoints are removed").
    pub fn remove_claims_of(&mut self, net: NetId) -> usize {
        self.remove_owned(net, |k| matches!(k, ObstacleKind::Claim(_)))
    }

    /// Lifts every remaining claimpoint (before the retry pass). Runs
    /// once per pass, so it walks the whole map.
    pub fn remove_all_claims(&mut self) -> usize {
        self.retain_not(|o| matches!(o.kind, ObstacleKind::Claim(_)))
    }

    /// Replaces the wires of `net` with `wired`, merged and then split
    /// at bends and junctions so every turn of the net blocks other
    /// sweeps. Claims of the net stay. This is the only way a net's
    /// wires enter the map.
    pub(crate) fn rewire_net(&mut self, net: NetId, wired: &[Segment]) {
        self.remove_net(net);
        #[cfg(test)]
        if self.old_bookkeeping {
            for seg in crate::expand::split_scanning(&crate::expand::merge_first_fit(wired)) {
                self.add(seg, ObstacleKind::Net(net));
            }
            return;
        }
        for seg in split_at_junctions(&merge_collinear(wired.iter().copied())) {
            self.add(seg, ObstacleKind::Net(net));
        }
    }

    /// `true` when `p` lies on an obstacle for which `pred` holds, on
    /// either axis.
    pub fn point_matches(&self, p: Point, mut pred: impl FnMut(&Obstacle) -> bool) -> bool {
        self.at(Axis::Horizontal, p.y)
            .iter()
            .any(|o| o.span.contains(p.x) && pred(o))
            || self
                .at(Axis::Vertical, p.x)
                .iter()
                .any(|o| o.span.contains(p.y) && pred(o))
    }

    /// Total number of stored obstacles (diagnostics).
    pub fn len(&self) -> usize {
        [&self.horizontal, &self.vertical]
            .iter()
            .flat_map(|lanes| lanes.iter())
            .map(|(_, v)| v.len())
            .sum()
    }

    /// `true` when the plane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use netart_geom::Dir;
    use proptest::prelude::*;

    use super::*;
    use crate::tracks::tests::shuffle_lists;

    /// Reorders every track's list of `map` by a seeded shuffle, when
    /// its `shuffle` state is set: the oracle that routing depends on
    /// what the map holds, not on the order its edits left it in.
    pub(crate) fn shuffle_tracks(map: &mut ObstacleMap) {
        let Some(state) = &mut map.shuffle else { return };
        // SplitMix64.
        let mut random = || {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        shuffle_lists(&mut map.horizontal, &mut random);
        shuffle_lists(&mut map.vertical, &mut random);
    }

    fn net(i: usize) -> NetId {
        NetId::from_index(i)
    }

    /// One step of a random map history.
    #[derive(Debug, Clone)]
    enum Op {
        Add(Segment, ObstacleKind),
        AddRect(Rect, ObstacleKind),
        AddPoint(Point, ObstacleKind),
        RemoveNet(NetId),
        RemoveClaimsOf(NetId),
        RemoveAllClaims,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..7, 0usize..3, 0u8..3, 0i32..9, 0i32..9, 0i32..4, any::<bool>()).prop_map(
            |(op, n, kind, a, b, c, flag)| {
                let kind = match kind {
                    0 => ObstacleKind::Module,
                    1 => ObstacleKind::Net(net(n)),
                    _ => ObstacleKind::Claim(net(n)),
                };
                let p = Point::new(a, b);
                match op {
                    0 | 1 => {
                        let axis = if flag { Axis::Horizontal } else { Axis::Vertical };
                        Op::Add(Segment::on_axis(axis, a, Interval::new(b, b + c)), kind)
                    }
                    2 => Op::AddRect(Rect::new(p, c, c / 2), kind),
                    3 => Op::AddPoint(p, if flag { ObstacleKind::Terminal(net(n)) } else { kind }),
                    4 => Op::RemoveNet(net(n)),
                    5 => Op::RemoveClaimsOf(net(n)),
                    _ => Op::RemoveAllClaims,
                }
            },
        )
    }

    /// The whole-map removals the per-net table replaced, kept as the
    /// oracle.
    fn apply_oracle(m: &mut ObstacleMap, op: &Op) -> usize {
        match op {
            Op::RemoveNet(id) => {
                m.retain_not(|o| matches!(o.kind, ObstacleKind::Net(n) if n == *id))
            }
            Op::RemoveClaimsOf(id) => {
                m.retain_not(|o| matches!(o.kind, ObstacleKind::Claim(n) if n == *id))
            }
            _ => apply(m, op),
        }
    }

    fn apply(m: &mut ObstacleMap, op: &Op) -> usize {
        match op {
            Op::Add(seg, kind) => m.add(*seg, *kind),
            Op::AddRect(rect, kind) => m.add_rect(rect, *kind),
            Op::AddPoint(p, kind) => m.add_point(*p, *kind),
            Op::RemoveNet(n) => return m.remove_net(*n),
            Op::RemoveClaimsOf(n) => return m.remove_claims_of(*n),
            Op::RemoveAllClaims => return m.remove_all_claims(),
        }
        0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Per-net upkeep leaves every track, every `next_track` answer
        /// and the size exactly as the whole-map removals do.
        #[test]
        fn per_net_upkeep_matches_whole_map_removal(
            ops in prop::collection::vec(op_strategy(), 0..40),
        ) {
            let mut new = ObstacleMap::new();
            let mut old = ObstacleMap::new();
            for op in &ops {
                prop_assert_eq!(apply(&mut new, op), apply_oracle(&mut old, op), "{:?}", op);
                for track in -2..=14 {
                    for axis in [Axis::Horizontal, Axis::Vertical] {
                        prop_assert_eq!(new.at(axis, track), old.at(axis, track), "{:?}", op);
                    }
                    for dir in Dir::ALL {
                        prop_assert_eq!(new.next_track(dir, track), old.next_track(dir, track));
                    }
                }
                prop_assert_eq!(new.len(), old.len());
            }
        }
    }

    #[test]
    fn rect_contributes_four_edges() {
        let mut m = ObstacleMap::new();
        m.add_rect(&Rect::new(Point::new(0, 0), 4, 2), ObstacleKind::Module);
        assert_eq!(m.len(), 4);
        assert_eq!(m.at(Axis::Horizontal, 0).len(), 1); // bottom
        assert_eq!(m.at(Axis::Horizontal, 2).len(), 1); // top
        assert_eq!(m.at(Axis::Vertical, 0).len(), 1); // left
        assert_eq!(m.at(Axis::Vertical, 4).len(), 1); // right
        assert!(m.at(Axis::Horizontal, 1).is_empty());
    }

    #[test]
    fn degenerate_rect_is_a_point_obstacle() {
        let mut m = ObstacleMap::new();
        m.add_rect(&Rect::new(Point::new(3, 5), 0, 0), ObstacleKind::Module);
        assert_eq!(m.at(Axis::Horizontal, 5).len(), 1);
        assert_eq!(m.at(Axis::Vertical, 3).len(), 1);
        assert!(m.point_matches(Point::new(3, 5), |_| true));
        assert!(!m.point_matches(Point::new(3, 6), |_| true));
    }

    #[test]
    fn next_track_walks_in_both_directions() {
        let mut m = ObstacleMap::new();
        m.add(Segment::horizontal(2, 0, 4), ObstacleKind::Module);
        m.add(Segment::horizontal(7, 0, 4), ObstacleKind::Module);
        assert_eq!(m.next_track(Dir::Up, 0), Some(2));
        assert_eq!(m.next_track(Dir::Up, 2), Some(7));
        assert_eq!(m.next_track(Dir::Up, 7), None);
        assert_eq!(m.next_track(Dir::Down, 9), Some(7));
        assert_eq!(m.next_track(Dir::Down, 2), None);
        // Vertical walks look at the other lane set.
        assert_eq!(m.next_track(Dir::Right, 0), None);
        m.add(Segment::vertical(5, 0, 4), ObstacleKind::Module);
        assert_eq!(m.next_track(Dir::Right, 0), Some(5));
        assert_eq!(m.next_track(Dir::Left, 9), Some(5));
    }

    #[test]
    fn removal_by_net_and_claims() {
        let mut m = ObstacleMap::new();
        // Each non-degenerate net segment also registers two endpoint
        // caps on the perpendicular axis: 3 entries per net.
        m.add(Segment::horizontal(0, 0, 4), ObstacleKind::Net(net(0)));
        m.add(Segment::horizontal(1, 0, 4), ObstacleKind::Net(net(1)));
        m.add_point(Point::new(9, 9), ObstacleKind::Claim(net(0)));
        m.add_point(Point::new(8, 8), ObstacleKind::Claim(net(1)));
        assert_eq!(m.len(), 10);
        assert_eq!(m.remove_claims_of(net(0)), 2);
        assert_eq!(m.remove_net(net(0)), 3);
        assert_eq!(m.remove_all_claims(), 2);
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.at(Axis::Horizontal, 1)[0].kind,
            ObstacleKind::Net(net(1))
        );
        // The caps sit on the vertical axis at the endpoints.
        assert_eq!(m.at(Axis::Vertical, 0).len(), 1);
        assert_eq!(m.at(Axis::Vertical, 4).len(), 1);
    }

    #[test]
    fn net_caps_block_sliding_along() {
        let mut m = ObstacleMap::new();
        m.add(Segment::vertical(5, 2, 8), ObstacleKind::Net(net(0)));
        // The endpoints appear in the horizontal lanes as degenerate
        // obstacles, so vertical sweeps at x=5 stop there.
        assert!(m
            .at(Axis::Horizontal, 2)
            .iter()
            .any(|o| o.span == Interval::point(5)));
        assert!(m
            .at(Axis::Horizontal, 8)
            .iter()
            .any(|o| o.span == Interval::point(5)));
    }

    #[test]
    fn point_matches_filters_by_kind() {
        let mut m = ObstacleMap::new();
        m.add(Segment::vertical(2, 0, 5), ObstacleKind::Net(net(3)));
        let on_net = |o: &Obstacle| matches!(o.kind, ObstacleKind::Net(_));
        assert!(m.point_matches(Point::new(2, 3), on_net));
        assert!(!m.point_matches(Point::new(2, 3), |o| o.kind == ObstacleKind::Module));
    }

    #[test]
    fn empty_map() {
        let m = ObstacleMap::new();
        assert!(m.is_empty());
        assert_eq!(m.next_track(Dir::Up, 0), None);
        assert!(m.at(Axis::Vertical, 0).is_empty());
    }
}
