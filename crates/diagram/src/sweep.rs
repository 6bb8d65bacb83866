//! The segment geometry every diagram measure is read from: a net's
//! runs, and one plane sweep for the points where horizontal and
//! vertical segments meet.

use std::collections::BTreeSet;

use netart_geom::{coalesce, Axis, Interval, Point, Segment};

/// Calls `meet(h, v, p)` for every horizontal `hs[h]` and vertical
/// `vs[v]` that share the point `p`, in x order: O((n + meets) log n).
pub(crate) fn meets(hs: &[Segment], vs: &[Segment], mut meet: impl FnMut(usize, usize, Point)) {
    // At one x, horizontals open (0) before the verticals there are
    // queried (1), and close (2) after.
    let ends = hs.iter().zip(0..).flat_map(|(h, i)| [(h.span().lo(), 0, i), (h.span().hi(), 2, i)]);
    let queries = vs.iter().zip(0..).map(|(v, i)| (v.track(), 1, i));
    let mut events: Vec<_> = ends.chain(queries).collect();
    events.sort_unstable();
    let mut active = BTreeSet::new();
    for (x, kind, i) in events {
        match kind {
            0 => _ = active.insert((hs[i].track(), i)),
            2 => _ = active.remove(&(hs[i].track(), i)),
            _ => {
                let span = vs[i].span();
                for &(y, h) in active.range((span.lo(), 0)..=(span.hi(), usize::MAX)) {
                    meet(h, i, Point::new(x, y));
                }
            }
        }
    }
}

/// The maximal runs of `segments` along `axis`, sorted by track and
/// start; the runs of one track share no point.
fn runs(segments: &[Segment], axis: Axis) -> Vec<Segment> {
    let mut pieces: Vec<Segment> = segments.iter().filter(|s| s.axis() == axis).copied().collect();
    coalesce(&mut pieces);
    pieces
}

/// The index of the run that covers coordinate `v` on `track`.
fn run_at(runs: &[Segment], track: i32, v: i32) -> Option<usize> {
    let i = runs.partition_point(|r| (r.track(), r.span().lo()) <= (track, v));
    let r = runs.get(i.checked_sub(1)?)?;
    (r.track() == track && v <= r.span().hi()).then_some(i - 1)
}

/// One net's *runs*, its segments coalesced into maximal pieces per axis
/// and track, and the meets of its runs. A zero-length piece counts as
/// horizontal, and is dropped where a vertical run covers it. Only a
/// meet carries unit edges on both axes, and as two runs meet at most
/// once, the unit-edge graph has a cycle exactly when the runs joined
/// at meets do.
pub(crate) struct Wire {
    h: Vec<Segment>,
    v: Vec<Segment>,
    /// Every (horizontal run, vertical run, shared point), in point order.
    meets: Vec<(usize, usize, Point)>,
}

impl Wire {
    pub(crate) fn new(segments: &[Segment]) -> Wire {
        let flat = |s: &Segment| {
            if s.is_point() { Segment::point(Axis::Horizontal, s.endpoints().0) } else { *s }
        };
        let segments: Vec<Segment> = segments.iter().map(flat).collect();
        let (mut h, v) = (runs(&segments, Axis::Horizontal), runs(&segments, Axis::Vertical));
        h.retain(|r| !r.is_point() || run_at(&v, r.span().lo(), r.track()).is_none());
        let mut found = Vec::new();
        meets(&h, &v, |i, j, p| found.push((i, j, p)));
        Wire { h, v, meets: found }
    }

    pub(crate) fn length(&self) -> u64 {
        self.h.iter().chain(&self.v).map(|r| u64::from(r.len())).sum()
    }

    /// The meets whose `(horizontal, vertical)` edge counts `keep` accepts.
    fn meets_with(&self, keep: impl Fn(u8, u8) -> bool) -> Vec<Point> {
        let edges = |r: &Segment, v: i32| u8::from(v > r.span().lo()) + u8::from(v < r.span().hi());
        self.meets
            .iter()
            .filter(|&&(h, v, p)| keep(edges(&self.h[h], p.x), edges(&self.v[v], p.y)))
            .map(|m| m.2)
            .collect()
    }

    pub(crate) fn bends(&self) -> u32 {
        self.meets_with(|h, v| h == 1 && v == 1).len() as u32
    }

    pub(crate) fn branch_points(&self) -> Vec<Point> {
        self.meets_with(|h, v| h + v >= 3)
    }

    /// A union-find forest over the horizontal, then the vertical runs,
    /// joined at the meets; and whether a meet joined two runs already
    /// joined, closing a cycle.
    fn forest(&self) -> (Vec<usize>, bool) {
        let mut parent: Vec<usize> = (0..self.h.len() + self.v.len()).collect();
        let mut cyclic = false;
        for &(h, v, _) in &self.meets {
            let (a, b) = (root(&mut parent, h), root(&mut parent, self.h.len() + v));
            cyclic |= a == b;
            parent[a] = b;
        }
        (parent, cyclic)
    }

    pub(crate) fn has_cycle(&self) -> bool {
        self.forest().1
    }

    pub(crate) fn is_tree(&self) -> bool {
        let (mut parent, cyclic) = self.forest();
        !cyclic && (0..parent.len()).filter(|&i| root(&mut parent, i) == i).count() <= 1
    }

    pub(crate) fn connects(&self, terminals: &[Point]) -> bool {
        let (mut parent, _) = self.forest();
        let component = |t: &Point| {
            let piece = run_at(&self.h, t.y, t.x)
                .or_else(|| Some(self.h.len() + run_at(&self.v, t.x, t.y)?))?;
            Some(root(&mut parent, piece))
        };
        let components: Option<Vec<usize>> = terminals.iter().map(component).collect();
        components.is_some_and(|c| c.windows(2).all(|w| w[0] == w[1]))
    }
}

/// The representative of `i`'s set in a union-find forest, halving the
/// path on the way.
fn root(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// The meets between `(segment, owner)` pieces of different owners that
/// `keep` accepts, as `(a, b, p)` with the owners in ascending order.
fn meets_between(
    pieces: &[(Segment, usize)],
    keep: impl Fn(Segment, Segment, Point) -> bool,
) -> Vec<(usize, usize, Point)> {
    let (hs, vs): (Vec<_>, Vec<_>) = pieces.iter().partition(|(s, _)| s.axis() == Axis::Horizontal);
    let segments = |pieces: &[&(Segment, usize)]| pieces.iter().map(|p| p.0).collect::<Vec<_>>();
    let mut found = Vec::new();
    meets(&segments(&hs), &segments(&vs), |h, v, p| {
        let (&(h, a), &(v, b)) = (hs[h], vs[v]);
        if a != b && keep(h, v, p) {
            found.push((a.min(b), a.max(b), p));
        }
    });
    found
}

/// Every point where segments of two different nets cross strictly
/// inside both, once per pair: `(i, j, p)` with `i < j` indexing `nets`,
/// sorted. Read from the raw segments, not the runs, so a crossing at
/// the joint of two collinear pieces of one net is no crossover.
pub(crate) fn crossings(nets: &[&[Segment]]) -> Vec<(usize, usize, Point)> {
    // Such a crossing is a meet of the two segments' interiors.
    let interior = |s: &Segment| {
        let (lo, hi) = (s.span().lo(), s.span().hi());
        (s.len() >= 2).then(|| Segment::on_axis(s.axis(), s.track(), Interval::new(lo + 1, hi - 1)))
    };
    let pieces: Vec<_> = nets
        .iter()
        .enumerate()
        .flat_map(|(n, s)| s.iter().filter_map(interior).map(move |s| (s, n)))
        .collect();
    let mut found = meets_between(&pieces, |_, _, _| true);
    found.sort_unstable();
    found.dedup();
    found
}

/// The least point each pair of wires shares other than by crossing
/// straight through each other (§5.3), as `(i, j, p)` with `i < j`
/// indexing `wires`, sorted: a point covered by collinear runs of both,
/// or a meet at an end of either run (a zero-length run's one point is
/// both its ends).
pub(crate) fn contacts<'a>(wires: impl Iterator<Item = &'a Wire>) -> Vec<(usize, usize, Point)> {
    let mut pieces: Vec<(Segment, usize)> = wires
        .enumerate()
        .flat_map(|(n, w)| w.h.iter().chain(&w.v).map(move |&s| (s, n)))
        .collect();
    pieces.sort_unstable();
    let mut found = Vec::new();
    // The pieces still open at a start all cover it, and one wire's
    // pieces on a line share no point.
    let mut open: Vec<(Segment, usize)> = Vec::new();
    for &(s, n) in &pieces {
        let line = |s: &Segment| (s.axis(), s.track());
        open.retain(|(o, _)| line(o) == line(&s) && s.span().lo() <= o.span().hi());
        found.extend(open.iter().map(|&(_, m)| (m.min(n), m.max(n), s.endpoints().0)));
        open.push((s, n));
    }
    let is_end = |s: Segment, p: Point| p == s.endpoints().0 || p == s.endpoints().1;
    found.extend(meets_between(&pieces, |h, v, p| is_end(h, p) || is_end(v, p)));
    found.sort_unstable();
    found.dedup_by_key(|&mut (a, b, _)| (a, b));
    found
}
