//! The line-expansion search engine (§5.5–§5.6).
//!
//! One [`Search`] routes one connection: either a two-terminal
//! initiation with two wavefronts (`INIT_NET`) or a single front
//! expanding towards the already-routed part of the net (`EXPAND_NET`).
//!
//! An *active segment* is a set of reached collinear points with an
//! expansion direction. Expanding it sweeps the whole span
//! perpendicular, track by track, splitting at obstacles:
//!
//! * module edges, the plane border, claimpoints and other nets'
//!   system terminal points block,
//! * other nets block at their endpoints (bends) and are crossed in
//!   their interior (counted),
//! * same-front actives block and are trimmed (every zone is searched
//!   once),
//! * opposite-front actives and segments of the net under construction
//!   are solutions.
//!
//! The borders of the newly reached zone become the next generation of
//! active segments (one more bend). Fronts advance a generation at a
//! time, alternating, so the first generation that produces solution
//! candidates contains the minimum-bend paths; among those candidates
//! the best (fewest crossovers, then shortest — or swapped under `-s`)
//! is reconstructed by walking originator links.
//!
//! The search keeps its per-track state in the same chunked
//! [`TrackTable`] as the obstacle map: the actives of each front per
//! axis (swept against and scanned for meetings) and the coverage
//! ledger per front and direction. A ledger track stays sorted and
//! coalesced, so [`cover`] finds the uncovered pieces of a new active
//! by binary search, and merges the span into the ledger where the
//! ledger sits in its table's store.
//!
//! An expansion walks the map's lane and both fronts' active tables
//! with one forward [`Walk`] each, merged into its [`Stops`], so a
//! sweep stop costs no search. A front's actives are read only on the
//! tracks that front occupies.
//!
//! Every list a search grows lives in a [`Workspace`] that outlives it:
//! the router keeps one per routing run, and each search clears it
//! instead of freeing it, so sweep steps and candidates allocate
//! nothing and a typical search little. Its track tables keep each
//! track's list in the table's own store, so a track a search touches
//! costs no allocation either.

use std::ops::Range;

use netart_geom::{coalesce, Axis, Dir, Interval, Point, Segment};
use netart_netlist::NetId;

use crate::budget::BudgetMeter;
use crate::tracks::{Stop, TrackMut, TrackTable, Walk};
use crate::{Obstacle, ObstacleKind, ObstacleMap};

/// Which wavefront an active segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Front {
    /// The front grown from the first terminal (the only front in
    /// `EXPAND_NET` mode).
    A,
    /// The front grown from the second terminal.
    B,
}

impl Front {
    fn idx(self) -> usize {
        match self {
            Front::A => 0,
            Front::B => 1,
        }
    }

    fn other(self) -> Front {
        match self {
            Front::A => Front::B,
            Front::B => Front::A,
        }
    }
}

/// An active segment (the paper's ten-tuple, with the originator held
/// as an arena link).
#[derive(Debug, Clone)]
struct Active {
    parent: Option<usize>,
    front: Front,
    dir: Dir,
    /// Fixed coordinate: y for horizontal segments (dir up/down), x for
    /// vertical ones (dir left/right).
    track: i32,
    /// Range along the segment.
    span: Interval,
    /// Wave number: bends used to reach this segment.
    bends: u32,
    /// Nets crossed on the way here.
    crossings: u32,
    alive: bool,
    expanded: bool,
}

impl Active {
    fn axis(&self) -> Axis {
        self.dir.segment_axis()
    }

    /// The plane point at span-coordinate `s`.
    fn point_at(&self, s: i32) -> Point {
        match self.axis() {
            Axis::Horizontal => Point::new(s, self.track),
            Axis::Vertical => Point::new(self.track, s),
        }
    }
}

/// What an entry met on a swept track does to the pieces it overlaps,
/// in the order [`Action::rank`] applies them.
#[derive(Clone, Copy)]
enum Action {
    /// A module edge, the plane border or a claimpoint.
    Block,
    /// An active of the sweeping front: trimmed, its zone is covered.
    BlockOwn(usize),
    /// A segment of the net under construction.
    Target,
    /// An active of the opposite front.
    Meet(usize),
    /// Another net's segment: crossed in its interior.
    Cross,
}

impl Action {
    /// Blocking kinds first, so a module edge shadowing a net wins.
    fn rank(self) -> u8 {
        match self {
            Action::Block => 0,
            Action::BlockOwn(_) => 1,
            Action::Target => 2,
            Action::Meet(_) => 3,
            Action::Cross => 4,
        }
    }
}

/// How the far side of a solution candidate connects.
#[derive(Debug, Clone, Copy)]
enum FarSide {
    /// Met an active of the opposite front: trace it back too.
    Active { id: usize, entry: i32 },
    /// Met a segment of the net under construction: just join it.
    Net,
}

#[derive(Debug, Clone)]
struct Candidate {
    /// Geometric bends of the reconstructed wire (computed at creation).
    bends: u32,
    crossings: u32,
    length: u64,
    /// `false` when the joint avoids creating a branching node.
    branches: bool,
    near: usize,
    near_entry: i32,
    bridge: Option<Segment>,
    far: FarSide,
}

/// How one connection search ended.
#[derive(Debug, Clone)]
pub(crate) enum SearchResult {
    /// The fronts met; here is the wire.
    Connected(Connection),
    /// The reachable zone is exhausted and the fronts never met.
    Unreachable,
    /// The budget ran out before the search could decide (the meter
    /// records which limit tripped). When the meter trips while
    /// candidates exist, the best one found so far is returned as
    /// [`SearchResult::Connected`] instead — a possibly non-minimal
    /// wire beats no wire.
    OverBudget,
}

impl SearchResult {
    /// The connection, if any (used by engine-level tests).
    #[cfg(test)]
    pub(crate) fn connected(self) -> Option<Connection> {
        match self {
            SearchResult::Connected(c) => Some(c),
            _ => None,
        }
    }
}

/// The routed geometry of one successful connection.
#[derive(Debug, Clone)]
pub(crate) struct Connection {
    /// The wire segments, collinear-merged, zero-length pieces dropped.
    pub segments: Vec<Segment>,
    /// Crossings with other nets along the chosen path (exposed for
    /// the engine's own tests; diagrams recount crossings from
    /// geometry).
    #[cfg_attr(not(test), allow(dead_code))]
    pub crossings: u32,
}

/// One connection search over a fixed obstacle configuration.
pub(crate) struct Search<'a> {
    map: &'a ObstacleMap,
    net: NetId,
    swap_tiebreak: bool,
    max_bends: u32,
    /// Everything the search grows, cleared when it starts and ends.
    ws: &'a mut Workspace,
    /// Bounding box of every activated piece, as
    /// `(min_x, min_y, max_x, max_y)` — the spatial extent the search
    /// touched, fed to the `netart profile` heat map. Deterministic
    /// for a given obstacle configuration.
    explored: Option<(i32, i32, i32, i32)>,
    /// Test-only switch back to unpruned sweeps, the oracle of the hull
    /// test in `sweep_track`.
    #[cfg(test)]
    full_sweeps: bool,
}

/// How many entries a [`Workspace`] list keeps across searches at most:
/// more than a typical search needs, little next to a large one.
const RETAINED: usize = 128;

/// The state of a search, kept across the searches of one routing run
/// so its capacity is reused. A search clears it when it starts and
/// when it ends. The twelve track tables hold their lists in stores of
/// their own, which a clear empties but keeps a little of (see
/// [`TrackTable::clear`]).
#[derive(Default)]
pub(crate) struct Workspace {
    arena: Vec<Active>,
    /// `index[front][axis]`: occupied tracks → active ids, for sweeps
    /// and meet detection.
    index: [[TrackTable<usize>; 2]; 2],
    /// `covered[front][dir]`: track → union of spans ever activated
    /// *with that expansion direction*. A front never re-activates
    /// covered ground — the paper's "every zone is searched just once"
    /// made airtight, which also bounds the total work of an exhaustive
    /// (unroutable) search by four times the plane area. Keyed per
    /// direction because the same segment expanding up and expanding
    /// down explores different half-planes. Each track's ledger is
    /// sorted and coalesced (see [`cover`]).
    covered: [[TrackTable<Interval>; 4]; 2],
    pending: [Vec<usize>; 2],
    /// The actives of the generation `run` expands next.
    batch: Vec<usize>,
    candidates: Vec<Candidate>,
    /// Reused buffers of `expand` and the steps below it, taken out of
    /// the workspace while in use.
    bufs: Buffers,
}

impl Workspace {
    /// Empties every list. The lists that grow with the search give
    /// back what they hold beyond [`RETAINED`] entries, and the tables
    /// what their stores hold beyond a few kilobytes, so a large search
    /// does not raise the memory held through the rest of the run.
    fn clear(&mut self) {
        for table in self.index.iter_mut().flatten() {
            table.clear();
        }
        for table in self.covered.iter_mut().flatten() {
            table.clear();
        }
        self.arena.clear();
        self.arena.shrink_to(RETAINED);
        self.candidates.clear();
        self.candidates.shrink_to(RETAINED);
        for list in self.pending.iter_mut().chain([&mut self.batch]) {
            list.clear();
            list.shrink_to(RETAINED);
        }
    }

    /// Both fronts' active tables for `axis`.
    fn fronts(&self, axis: Axis) -> [&TrackTable<usize>; 2] {
        [&self.index[0][axis_idx(axis)], &self.index[1][axis_idx(axis)]]
    }
}

/// The working lists of one expansion, kept across expansions so their
/// capacity is reused.
#[derive(Default)]
struct Buffers {
    /// The entries of the track being swept.
    entries: Vec<(Interval, Action)>,
    /// The swept pieces: (columns, crossings accumulated).
    work: Vec<(Interval, u32)>,
    /// The pieces that continue past the entry being applied.
    next_work: Vec<(Interval, u32)>,
    /// Where each group of columns stopped: (columns, last reached track).
    ends: Vec<(Interval, i32)>,
    /// Nets crossed during the sweep: (track, columns).
    crossed: Vec<(i32, Interval)>,
    /// `make_borders`' end events: (columns, progress).
    events: Vec<(Interval, i64)>,
    /// The tracks where the sweep crossed a net at a border's column.
    cuts: Vec<i32>,
    /// The pieces of one border between those crossings.
    borders: Vec<Interval>,
    /// The uncovered pieces of an active being pushed.
    uncovered: Vec<Interval>,
    /// Meetings found by `check_meets`: (far id, near entry, far entry).
    meets: Vec<(usize, i32, i32)>,
    /// The wire of the candidate being scored.
    trace: Vec<Segment>,
}

/// The tracks an expansion stops at, in sweep order: one [`Walk`] over
/// the map's lane and one over each front's active table, merged.
///
/// The walks stay valid for the whole sweep. The map cannot change
/// during a search, and a front's table gains values during a sweep
/// only on the track being swept, where `trim` re-registers a sibling:
/// that track is occupied already, so no chunk or occupancy bit moves.
struct Stops {
    up: bool,
    /// The map's walk, then front A's and front B's.
    walks: [Walk; 3],
    /// The nearest track each walk has not yet handed out.
    heads: [Option<Stop>; 3],
}

impl Stops {
    /// The stops strictly beyond `from` in `dir`, over the map's lane
    /// and the fronts' tables for the sweep's axis.
    fn new(
        map: &TrackTable<Obstacle>,
        fronts: [&TrackTable<usize>; 2],
        dir: Dir,
        from: i32,
    ) -> Stops {
        let up = matches!(dir, Dir::Up | Dir::Right);
        let mut walks = [map.walk(from, up), fronts[0].walk(from, up), fronts[1].walk(from, up)];
        let heads = [walks[0].next(map), walks[1].next(fronts[0]), walks[2].next(fronts[1])];
        Stops { up, walks, heads }
    }

    /// The next track, with where the map and each front hold it: at
    /// least one of the three is present.
    fn next(
        &mut self,
        map: &TrackTable<Obstacle>,
        fronts: [&TrackTable<usize>; 2],
    ) -> Option<(i32, [Option<Stop>; 3])> {
        let up = self.up;
        let track = self
            .heads
            .iter()
            .flatten()
            .map(|s| s.track)
            .reduce(|x, y| if up { x.min(y) } else { x.max(y) })?;
        let mut at = [None; 3];
        for (i, head) in self.heads.iter_mut().enumerate() {
            if head.is_some_and(|s| s.track == track) {
                at[i] = *head;
                *head = match i {
                    0 => self.walks[0].next(map),
                    _ => self.walks[i].next(fronts[i - 1]),
                };
            }
        }
        Some((track, at))
    }
}

/// A coverage ledger that [`cover`] edits in place: sorted, and
/// coalesced, so no two of its intervals overlap or touch.
pub(crate) trait Ledger {
    fn intervals(&self) -> &[Interval];
    /// Replaces the intervals at `range` with `merged`.
    fn merge(&mut self, range: Range<usize>, merged: Interval);
}

/// One track of a coverage table, edited where it sits in the table's
/// store.
impl Ledger for TrackMut<'_, Interval> {
    fn intervals(&self) -> &[Interval] {
        self.get()
    }

    fn merge(&mut self, range: Range<usize>, merged: Interval) {
        self.replace(range, merged);
    }
}

/// Adds `span` to a coverage ledger and appends to `out` the pieces of
/// `span` that were not covered before, ascending.
///
/// The intervals that meet `span` are found by binary search and
/// replaced by their union with it, so each new piece is a maximal
/// uncovered run, as subtracting the ledger one interval at a time
/// would leave it.
pub(crate) fn cover(ledger: &mut impl Ledger, span: Interval, out: &mut Vec<Interval>) {
    let covered = ledger.intervals();
    let (lo, hi) = (i64::from(span.lo()), i64::from(span.hi()));
    let first = covered.partition_point(|c| i64::from(c.hi()) + 1 < lo);
    let last = first + covered[first..].partition_point(|c| i64::from(c.lo()) <= hi + 1);
    // The lowest point of `span` not yet known to be covered.
    let mut next = lo;
    for c in &covered[first..last] {
        if i64::from(c.lo()) > next {
            out.push(Interval::new(next as i32, (i64::from(c.lo()) - 1).min(hi) as i32));
        }
        next = next.max(i64::from(c.hi()) + 1);
    }
    if next <= hi {
        out.push(Interval::new(next as i32, span.hi()));
    }
    let merged = match covered[first..last] {
        [] => span,
        [a, ..] => span.hull(a).hull(covered[last - 1]),
    };
    ledger.merge(first..last, merged);
}

/// Appends to `out` the pieces of `span` left after cutting out the
/// points `cuts` (in any order, repeats allowed), ascending.
fn cut_border(span: Interval, cuts: &mut [i32], out: &mut Vec<Interval>) {
    cuts.sort_unstable();
    let mut next = i64::from(span.lo());
    for &c in cuts.iter() {
        let c = i64::from(c);
        if c < next || c > i64::from(span.hi()) {
            continue;
        }
        if c > next {
            out.push(Interval::new(next as i32, (c - 1) as i32));
        }
        next = c + 1;
    }
    if next <= i64::from(span.hi()) {
        out.push(Interval::new(next as i32, span.hi()));
    }
}

/// `values` without consecutive repeats, as `Vec::dedup` leaves them.
fn dedup<const N: usize>(values: [i32; N]) -> impl Iterator<Item = i32> {
    (0..N).filter(move |&i| i == 0 || values[i - 1] != values[i]).map(move |i| values[i])
}

fn axis_idx(axis: Axis) -> usize {
    match axis {
        Axis::Horizontal => 0,
        Axis::Vertical => 1,
    }
}

fn dir_idx(dir: Dir) -> usize {
    match dir {
        Dir::Left => 0,
        Dir::Right => 1,
        Dir::Up => 2,
        Dir::Down => 3,
    }
}

impl<'a> Search<'a> {
    /// A search on `map` for `net` that keeps its state in `ws`,
    /// clearing whatever an earlier search left there.
    pub(crate) fn new(
        map: &'a ObstacleMap,
        net: NetId,
        swap_tiebreak: bool,
        max_bends: u32,
        ws: &'a mut Workspace,
    ) -> Self {
        ws.clear();
        Search {
            map,
            net,
            swap_tiebreak,
            max_bends,
            ws,
            explored: None,
            #[cfg(test)]
            full_sweeps: false,
        }
    }

    /// The bounding box of everything this search activated, as
    /// `(min_x, min_y, max_x, max_y)`; `None` when nothing was.
    pub(crate) fn explored_rect(&self) -> Option<(i32, i32, i32, i32)> {
        self.explored
    }

    /// Seeds a front with the degenerate active of a terminal point
    /// expanding towards `dir` (`INIT_ACTIVES`). System terminals call
    /// this once per direction.
    pub(crate) fn seed(&mut self, front: Front, p: Point, dir: Dir) {
        let (track, coord) = match dir.segment_axis() {
            Axis::Horizontal => (p.y, p.x),
            Axis::Vertical => (p.x, p.y),
        };
        self.push_active(Active {
            parent: None,
            front,
            dir,
            track,
            span: Interval::point(coord),
            bends: 0,
            crossings: 0,
            alive: true,
            expanded: false,
        });
    }

    fn push_active(&mut self, a: Active) {
        // Only the uncovered parts of the span become active; the rest
        // was reached before with no more bends than now.
        let mut pieces = std::mem::take(&mut self.ws.bufs.uncovered);
        pieces.clear();
        let ledger = &mut self.ws.covered[a.front.idx()][dir_idx(a.dir)].track_mut(a.track);
        cover(ledger, a.span, &mut pieces);
        for &span in &pieces {
            let id = self.ws.arena.len();
            let mut piece = a.clone();
            piece.span = span;
            let (x0, y0, x1, y1) = match piece.axis() {
                Axis::Horizontal => (span.lo(), piece.track, span.hi(), piece.track),
                Axis::Vertical => (piece.track, span.lo(), piece.track, span.hi()),
            };
            self.explored = Some(match self.explored {
                None => (x0, y0, x1, y1),
                Some((ex0, ey0, ex1, ey1)) => {
                    (ex0.min(x0), ey0.min(y0), ex1.max(x1), ey1.max(y1))
                }
            });
            self.ws.index[piece.front.idx()][axis_idx(piece.axis())].push(piece.track, id);
            self.ws.pending[piece.front.idx()].push(id);
            self.ws.arena.push(piece);
            self.check_meets(id);
        }
        self.ws.bufs.uncovered = pieces;
    }

    /// Runs the alternating wavefront search. `two_front` distinguishes
    /// `INIT_NET` (meet the other front) from `EXPAND_NET` (meet the
    /// net's own routed segments). Every expanded active charges one
    /// node on `meter`; a tripped meter ends the search with the best
    /// candidate found so far, or [`SearchResult::OverBudget`] when
    /// there is none.
    ///
    /// The workspace is cleared on the way out, so what a large search
    /// grew is not held through the work that follows it, such as the
    /// salvage cascade's maze router.
    pub(crate) fn run(&mut self, meter: &mut BudgetMeter) -> SearchResult {
        let result = self.generations(meter);
        self.ws.clear();
        result
    }

    /// The generation loop of [`Search::run`].
    fn generations(&mut self, meter: &mut BudgetMeter) -> SearchResult {
        let mut gen = 0u32;
        loop {
            // A candidate is final once no unexpanded active (all of
            // bend generation >= gen) can start a cheaper path.
            // A candidate becomes final once the generation counter
            // reaches its geometric bend count: zero-length trace hops
            // can merge segments, so later generations occasionally
            // hold a path with fewer geometric bends, which is why the
            // paper promises minimal bends only "in most cases" (§5.8).
            let best = self.ws.candidates.iter().map(|c| c.bends).min();
            if let Some(best) = best {
                if best <= gen {
                    return SearchResult::Connected(self.reconstruct());
                }
            }
            if gen > self.max_bends {
                return self.best_or_unreachable();
            }
            let mut any = false;
            for front in [Front::A, Front::B] {
                loop {
                    let ws = &mut *self.ws;
                    ws.batch.clear();
                    ws.pending[front.idx()].retain(|&id| {
                        let a = &ws.arena[id];
                        let live = a.alive && !a.expanded;
                        if live && a.bends == gen {
                            ws.batch.push(id);
                        }
                        live && a.bends != gen
                    });
                    if ws.batch.is_empty() {
                        break;
                    }
                    any = true;
                    for i in 0..self.ws.batch.len() {
                        let id = self.ws.batch[i];
                        if self.ws.arena[id].alive && !self.ws.arena[id].expanded {
                            if meter.charge().is_some() {
                                return match self.best_or_unreachable() {
                                    SearchResult::Connected(c) => SearchResult::Connected(c),
                                    _ => SearchResult::OverBudget,
                                };
                            }
                            self.expand(id);
                        }
                    }
                }
            }
            if !any {
                // Both fronts exhausted: the best meeting found, if any.
                return self.best_or_unreachable();
            }
            gen += 1;
        }
    }

    /// The best candidate found so far, or unreachability.
    fn best_or_unreachable(&mut self) -> SearchResult {
        if self.ws.candidates.is_empty() {
            SearchResult::Unreachable
        } else {
            SearchResult::Connected(self.reconstruct())
        }
    }

    /// Expands one active segment (`EXPAND_SEGMENT`).
    fn expand(&mut self, id: usize) {
        self.ws.arena[id].expanded = true;
        let a = self.ws.arena[id].clone();
        let mut work = std::mem::take(&mut self.ws.bufs.work);
        let mut ends = std::mem::take(&mut self.ws.bufs.ends);
        let mut crossed = std::mem::take(&mut self.ws.bufs.crossed);
        work.clear();
        ends.clear();
        crossed.clear();
        work.push((a.span, a.crossings));

        let map = self.map.lanes(a.axis());
        let mut stops = Stops::new(map, self.ws.fronts(a.axis()), a.dir, a.track);
        let mut track = a.track;
        while !work.is_empty() {
            let Some((next, at)) = stops.next(map, self.ws.fronts(a.axis())) else {
                // No plane border? Terminate everything here (the
                // router always installs a border, so this is a guard).
                ends.extend(work.drain(..).map(|(iv, _)| (iv, track)));
                break;
            };
            track = next;
            let obstacles = at[0].map_or(&[][..], |stop| map.list(stop));
            let fronts = [at[1], at[2]];
            self.sweep_track(&a, id, track, obstacles, fronts, &mut work, &mut ends, &mut crossed);
        }

        self.make_borders(&a, id, &ends, &crossed);
        self.ws.bufs.work = work;
        self.ws.bufs.ends = ends;
        self.ws.bufs.crossed = crossed;
    }

    /// Processes all obstacles on one track against the live pieces in
    /// `work`, leaving there the pieces that continue past it.
    /// `obstacles` are the map's entries on the track, in any order,
    /// and `fronts` say where each front's table holds it, if it does.
    #[allow(clippy::too_many_arguments)]
    fn sweep_track(
        &mut self,
        a: &Active,
        a_id: usize,
        track: i32,
        obstacles: &[Obstacle],
        fronts: [Option<Stop>; 2],
        work: &mut Vec<(Interval, u32)>,
        ends: &mut Vec<(Interval, i32)>,
        crossed: &mut Vec<(i32, Interval)>,
    ) {
        // Pieces only shrink inside their starting hull (even `Cross`
        // keeps just an interior), so an entry outside it can never act
        // and skipping it is exact: the kept entries are sorted below.
        let Some(hull) = work.iter().map(|&(iv, _)| iv).reduce(Interval::hull) else {
            return;
        };
        #[cfg(test)]
        let hull = if self.full_sweeps { Interval::new(i32::MIN, i32::MAX) } else { hull };
        let mut entries = std::mem::take(&mut self.ws.bufs.entries);
        entries.clear();
        for o in obstacles {
            if !o.span.overlaps(hull) {
                continue;
            }
            let action = match o.kind {
                // The net's own terminal points are its pins, not walls.
                ObstacleKind::Terminal(n) if n == self.net => continue,
                ObstacleKind::Module | ObstacleKind::Terminal(_) | ObstacleKind::Claim(_) => {
                    Action::Block
                }
                ObstacleKind::Net(n) if n == self.net => Action::Target,
                ObstacleKind::Net(_) => Action::Cross,
            };
            entries.push((o.span, action));
        }
        for f in [a.front, a.front.other()] {
            let Some(stop) = fronts[f.idx()] else { continue };
            for &oid in self.ws.index[f.idx()][axis_idx(a.axis())].list(stop) {
                let act = &self.ws.arena[oid];
                if oid == a_id || !act.alive || !act.span.overlaps(hull) {
                    continue;
                }
                let action = if f == a.front {
                    Action::BlockOwn(oid)
                } else {
                    Action::Meet(oid)
                };
                entries.push((act.span, action));
            }
        }
        // One order decides ties, whatever order the track's list holds:
        // the map's entries by (rank, lo, hi), where equal keys act
        // alike, and the fronts' actives by rank in index order. Their
        // ranks (1, 3) never tie with the map's (0, 2, 4).
        entries.sort_by_key(|&(span, action)| match action {
            Action::BlockOwn(_) | Action::Meet(_) => (action.rank(), 0, 0),
            _ => (action.rank(), span.lo(), span.hi()),
        });

        let stop = track - a.dir.sign();
        let mut next_work = std::mem::take(&mut self.ws.bufs.next_work);
        for &(span, action) in &entries {
            next_work.clear();
            for &(iv, cr) in work.iter() {
                let Some(ov) = iv.intersect(span) else {
                    next_work.push((iv, cr));
                    continue;
                };
                let (left, right) = iv.subtract(span);
                next_work.extend(left.map(|l| (l, cr)));
                next_work.extend(right.map(|r| (r, cr)));
                match action {
                    Action::Block => ends.push((ov, stop)),
                    Action::BlockOwn(oid) => {
                        ends.push((ov, stop));
                        self.trim(oid, ov);
                    }
                    Action::Target => {
                        ends.push((ov, stop));
                        self.candidate_net(a, a_id, ov, span, track, cr);
                    }
                    Action::Meet(oid) => {
                        ends.push((ov, stop));
                        self.candidate_meet(a, a_id, oid, ov, track, cr);
                    }
                    Action::Cross => {
                        // Net endpoints (bends) block; the interior is
                        // crossed and counted.
                        for e in [span.lo(), span.hi()] {
                            if ov.contains(e) {
                                ends.push((Interval::point(e), stop));
                            }
                        }
                        let lo = if ov.contains(span.lo()) { span.lo() + 1 } else { ov.lo() };
                        let hi = if ov.contains(span.hi()) { span.hi() - 1 } else { ov.hi() };
                        if lo <= hi {
                            let interior = Interval::new(lo, hi);
                            crossed.push((track, interior));
                            next_work.push((interior, cr + 1));
                        }
                    }
                }
            }
            std::mem::swap(work, &mut next_work);
        }
        self.ws.bufs.next_work = next_work;
        self.ws.bufs.entries = entries;
    }

    /// Cuts `ov` out of a same-front active reached by a sweep
    /// (`OWN_OBSTACLE`): its zone is already covered.
    fn trim(&mut self, id: usize, ov: Interval) {
        let (left, right) = self.ws.arena[id].span.subtract(ov);
        match (left, right) {
            (Some(l), Some(r)) => {
                self.ws.arena[id].span = l;
                let mut sibling = self.ws.arena[id].clone();
                sibling.span = r;
                // Re-register the sibling; `push_active` puts it back in
                // the pending list when still unexpanded.
                let sid = self.ws.arena.len();
                // The sibling's track is the one being swept, which
                // holds this active already: the sweep's walks stay valid.
                debug_assert!(!self.ws.index[sibling.front.idx()][axis_idx(sibling.axis())]
                    .get(sibling.track)
                    .is_empty());
                self.ws.index[sibling.front.idx()][axis_idx(sibling.axis())].push(sibling.track, sid);
                if !sibling.expanded {
                    self.ws.pending[sibling.front.idx()].push(sid);
                }
                self.ws.arena.push(sibling);
            }
            (Some(l), None) => self.ws.arena[id].span = l,
            (None, Some(r)) => self.ws.arena[id].span = r,
            (None, None) => self.ws.arena[id].alive = false,
        }
    }

    /// Completes a candidate by counting the geometric bends of its
    /// wire, traced into a reused buffer, then records it.
    fn push_candidate(&mut self, mut c: Candidate) {
        let mut trace = std::mem::take(&mut self.ws.bufs.trace);
        trace.clear();
        self.trace_candidate(&c, &mut trace);
        c.bends = corners(&mut trace);
        self.ws.bufs.trace = trace;
        self.ws.candidates.push(c);
    }

    /// Length of the path from the point at span-coordinate `s` on
    /// active `id` back to its root (`PATH_LENGTH`).
    fn trace_len(&self, id: usize, s: i32) -> u64 {
        let mut len = 0u64;
        let mut cur = id;
        let mut coord = s;
        while let Some(parent) = self.ws.arena[cur].parent {
            let pt = self.ws.arena[parent].track;
            len += u64::from(coord.abs_diff(pt));
            coord = self.ws.arena[cur].track;
            cur = parent;
        }
        len
    }

    /// First-hop kink: the span coordinate towards which the trace from
    /// this active gets shorter (the parent's track, or the root point).
    fn pull(&self, id: usize) -> i32 {
        match self.ws.arena[id].parent {
            Some(p) => self.ws.arena[p].track,
            None => self.ws.arena[id].span.lo(), // roots are points
        }
    }

    /// Candidate against a segment of the net under construction.
    fn candidate_net(
        &mut self,
        a: &Active,
        near: usize,
        ov: Interval,
        target: Interval,
        track: i32,
        cr: u32,
    ) {
        for s in dedup([ov.clamp(self.pull(near)), ov.lo(), ov.hi()]) {
            // Joining at an endpoint of the existing segment avoids a
            // new branching node (§5.6.3 UPDATE_SOLUTION).
            let branches = s != target.lo() && s != target.hi();
            let bridge = self.bridge(a, s, track);
            self.push_candidate(Candidate {
                bends: 0,
                crossings: cr,
                length: u64::from(a.track.abs_diff(track)) + self.trace_len(near, s),
                branches,
                near,
                near_entry: s,
                bridge,
                far: FarSide::Net,
            });
        }
    }

    /// Candidate against an opposite-front active.
    fn candidate_meet(
        &mut self,
        a: &Active,
        near: usize,
        oid: usize,
        ov: Interval,
        track: i32,
        cr: u32,
    ) {
        let far_cross = self.ws.arena[oid].crossings;
        let mut entries = [
            ov.clamp(self.pull(near)),
            ov.clamp(self.pull(oid)),
            ov.lo(),
            ov.hi(),
        ];
        entries.sort_unstable();
        for s in dedup(entries) {
            let bridge = self.bridge(a, s, track);
            self.push_candidate(Candidate {
                bends: 0,
                crossings: cr + far_cross,
                length: u64::from(a.track.abs_diff(track))
                    + self.trace_len(near, s)
                    + self.trace_len(oid, s),
                branches: false,
                near,
                near_entry: s,
                bridge,
                far: FarSide::Active { id: oid, entry: s },
            });
        }
    }

    /// The bridging segment from active `a` to the meeting track, at
    /// span coordinate `s`.
    fn bridge(&self, a: &Active, s: i32, track: i32) -> Option<Segment> {
        let from = a.point_at(s);
        let to = match a.axis() {
            Axis::Horizontal => Point::new(s, track),
            Axis::Vertical => Point::new(track, s),
        };
        Segment::between(from, to)
    }

    /// Creates the next generation from the sweep's end events
    /// (`NEW_ACTIVES`): the perpendicular borders of the reached zone,
    /// with crossing points cut out.
    fn make_borders(&mut self, a: &Active, id: usize, ends: &[(Interval, i32)], crossed: &[(i32, Interval)]) {
        if a.bends + 1 > self.max_bends {
            return;
        }
        let step = a.dir.sign();
        // reach(column) relative: convert "last reached track" into a
        // signed progression so one code path serves all directions
        // (0 = no progress). In `i64`: a sweep may run further than
        // `i32::MAX`.
        let prog = |t: i32| (i64::from(t) - i64::from(a.track)) * i64::from(step);
        let track_at = |p: i64| (i64::from(a.track) + p * i64::from(step)) as i32;
        let mut events = std::mem::take(&mut self.ws.bufs.events);
        let mut cuts = std::mem::take(&mut self.ws.bufs.cuts);
        let mut borders = std::mem::take(&mut self.ws.bufs.borders);
        events.clear();
        events.extend(ends.iter().map(|&(iv, reach)| (iv, prog(reach))));
        events.push((Interval::point(a.span.lo() - 1), 0));
        events.push((Interval::point(a.span.hi() + 1), 0));
        events.sort_by_key(|&(iv, _)| iv.lo());

        for w in events.windows(2) {
            let (iv1, r1) = w[0];
            let (iv2, r2) = w[1];
            if r1 == r2 {
                continue;
            }
            // Border at the edge column of the taller side, spanning the
            // rows the shorter side did not reach, expanding towards the
            // shorter side.
            let (col, lo_p, hi_p, out_dir) = if r1 < r2 {
                (iv2.lo(), r1 + 1, r2, border_dir(a.dir, true))
            } else {
                (iv1.hi(), r2 + 1, r1, border_dir(a.dir, false))
            };
            if lo_p > hi_p {
                continue;
            }
            // Back to absolute tracks along the sweep direction.
            let (t0, t1) = (track_at(lo_p), track_at(hi_p));
            let span = Interval::new(t0.min(t1), t0.max(t1));
            // Cut out the rows where this sweep crossed a net at `col`.
            cuts.clear();
            cuts.extend(crossed.iter().filter(|&&(_, civ)| civ.contains(col)).map(|&(ct, _)| ct));
            borders.clear();
            cut_border(span, &mut cuts, &mut borders);
            for &sp in &borders {
                // Crossings below the border piece: nets crossed by the
                // escape line from the originator up to the piece.
                let nearest = prog(sp.lo()).min(prog(sp.hi()));
                let cr = a.crossings + cuts.iter().filter(|&&ct| prog(ct) < nearest).count() as u32;
                self.push_active(Active {
                    parent: Some(id),
                    front: a.front,
                    dir: out_dir,
                    track: col,
                    span: sp,
                    bends: a.bends + 1,
                    crossings: cr,
                    alive: true,
                    expanded: false,
                });
            }
        }
        self.ws.bufs.events = events;
        self.ws.bufs.cuts = cuts;
        self.ws.bufs.borders = borders;
    }

    /// Completeness backstop: a freshly created active that geometrically
    /// touches the opposite front (collinear or crossing) is a meeting
    /// the track sweeps may only discover a generation later.
    fn check_meets(&mut self, id: usize) {
        let a = self.ws.arena[id].clone();
        if a.parent.is_none() {
            return; // roots are seeded before the other front exists
        }
        let other = a.front.other();
        let mut meets = std::mem::take(&mut self.ws.bufs.meets);
        meets.clear();
        // Collinear: same axis, same track, overlapping span.
        for &oid in self.ws.index[other.idx()][axis_idx(a.axis())].get(a.track) {
            let b = &self.ws.arena[oid];
            if !b.alive {
                continue;
            }
            if let Some(ov) = a.span.intersect(b.span) {
                for s in [ov.clamp(self.pull(id)), ov.clamp(self.pull(oid))] {
                    meets.push((oid, s, s));
                }
            }
        }
        // Crossing: perpendicular active of the other front through us.
        let perp = a.axis().perpendicular();
        for (t, ids) in self.ws.index[other.idx()][axis_idx(perp)].range(a.span.lo(), a.span.hi()) {
            for &oid in ids {
                let b = &self.ws.arena[oid];
                if b.alive && b.span.contains(a.track) {
                    meets.push((oid, t, a.track));
                }
            }
        }
        for &(oid, s_near, s_far) in &meets {
            let b_cross = self.ws.arena[oid].crossings;
            self.push_candidate(Candidate {
                bends: 0,
                crossings: a.crossings + b_cross,
                length: self.trace_len(id, s_near) + self.trace_len(oid, s_far),
                branches: false,
                near: id,
                near_entry: s_near,
                bridge: None,
                far: FarSide::Active { id: oid, entry: s_far },
            });
        }
        self.ws.bufs.meets = meets;
    }

    /// Appends the segments of one candidate's wire to `out`: the
    /// bridge, unless it is a point, then both trace-backs.
    fn trace_candidate(&self, c: &Candidate, out: &mut Vec<Segment>) {
        out.extend(c.bridge.filter(|b| !b.is_point()));
        self.trace_into(c.near, c.near_entry, out);
        if let FarSide::Active { id, entry } = c.far {
            self.trace_into(id, entry, out);
        }
    }

    /// Builds the wire geometry of one candidate.
    fn build(&self, c: &Candidate) -> Vec<Segment> {
        let mut segments = Vec::new();
        self.trace_candidate(c, &mut segments);
        merge_collinear(segments)
    }

    /// Builds the wire for the best candidate
    /// (`RECONSTRUCT_SOLUTION` / `RECONSTRUCT_PATH`).
    ///
    /// Candidates of one terminating generation can still differ in
    /// total bends (the two fronts' generations mix), so the actual
    /// geometric bend count ranks first — the paper's primary
    /// objective — followed by crossovers and length (swapped under
    /// `-s`), then the branch-avoidance preference.
    fn reconstruct(&mut self) -> Connection {
        if tracing::enabled(tracing::Level::TRACE) {
            for c in &self.ws.candidates {
                tracing::trace!(
                    "candidate",
                    bends = c.bends,
                    crossings = c.crossings,
                    length = c.length,
                    near = c.near as u64,
                    entry = c.near_entry,
                    far = format!("{:?}", c.far),
                );
            }
        }
        let swap = self.swap_tiebreak;
        let best = self
            .ws
            .candidates
            .iter()
            .min_by_key(|c| {
                let (x, y) = if swap {
                    (c.length, u64::from(c.crossings))
                } else {
                    (u64::from(c.crossings), c.length)
                };
                (c.bends, x, y, c.branches as u32, c.near_entry)
            })
            .expect("reconstruct called with candidates")
            .clone();
        Connection {
            segments: self.build(&best),
            crossings: best.crossings,
        }
    }

    fn trace_into(&self, id: usize, entry: i32, out: &mut Vec<Segment>) {
        let mut cur = id;
        let mut coord = entry;
        while let Some(parent) = self.ws.arena[cur].parent {
            let a = &self.ws.arena[cur];
            let pt = self.ws.arena[parent].track;
            if coord != pt {
                out.push(Segment::on_axis(
                    a.axis(),
                    a.track,
                    Interval::new(coord.min(pt), coord.max(pt)),
                ));
            }
            coord = a.track;
            cur = parent;
        }
    }
}

/// Direction a border active expands in: perpendicular borders of an
/// up/down sweep expand left or right; of a left/right sweep, down or
/// up. `towards_low` selects the lower-coordinate side.
fn border_dir(sweep: Dir, towards_low: bool) -> Dir {
    match (sweep.axis(), towards_low) {
        (Axis::Vertical, true) => Dir::Left,
        (Axis::Vertical, false) => Dir::Right,
        (Axis::Horizontal, true) => Dir::Down,
        (Axis::Horizontal, false) => Dir::Up,
    }
}

/// Cuts each of a net's `runs` at every run end lying on it, so that
/// all bends *and branch nodes* of the net are segment ends in the
/// obstacle map. The sweep's endpoint-blocking rule then protects
/// T-junctions of multipoint nets from other nets sliding along them.
/// The runs are [`merge_collinear`]'s: maximal, none a point. The ends
/// lying on a run are found by binary search: O(S log S).
pub(crate) fn split_at_junctions(runs: &[Segment]) -> Vec<Segment> {
    // Every run end, as (y, x) for cutting horizontal runs and as
    // (x, y) for cutting vertical ones, sorted and distinct.
    let ends = |swap: bool| {
        let mut ends: Vec<(i32, i32)> = runs
            .iter()
            .flat_map(|s| <[Point; 2]>::from(s.endpoints()))
            .map(|p| if swap { (p.y, p.x) } else { (p.x, p.y) })
            .collect();
        ends.sort_unstable();
        ends.dedup();
        ends
    };
    let (rows, columns) = (ends(true), ends(false));
    let mut out = Vec::with_capacity(runs.len());
    for s in runs {
        let ends = if s.axis() == Axis::Horizontal { &rows } else { &columns };
        let (lo, hi) = ((s.track(), s.span().lo()), (s.track(), s.span().hi()));
        let on = &ends[ends.partition_point(|&e| e < lo)..ends.partition_point(|&e| e <= hi)];
        let piece = |w: &[(i32, i32)]| Interval::new(w[0].1, w[1].1);
        out.extend(on.windows(2).map(|w| Segment::on_axis(s.axis(), s.track(), piece(w))));
    }
    out
}

/// The bends of the wire made of `segments`, counted in place: the
/// non-point segments are coalesced into runs, and a bend is a
/// horizontal and a vertical run that meet at an end of both. This is
/// what `NetPath::from_segments(merge_collinear(..)).bends()` counts: a
/// zero-length piece is never a corner. Two runs of one axis share no
/// point, and two perpendicular runs meet at most once, so each bend is
/// counted once.
fn corners(segments: &mut Vec<Segment>) -> u32 {
    segments.retain(|s| !s.is_point());
    coalesce(segments);
    let (hs, vs) = segments.split_at(segments.partition_point(|s| s.axis() == Axis::Horizontal));
    let is_end = |span: Interval, v: i32| v == span.lo() || v == span.hi();
    let mut bends = 0;
    for h in hs {
        for v in vs {
            bends += u32::from(is_end(h.span(), v.track()) && is_end(v.span(), h.track()));
        }
    }
    bends
}

/// The maximal runs of the `segments` that are not points, each where
/// its earliest piece stood: O(S log S).
pub(crate) fn merge_collinear(segments: impl IntoIterator<Item = Segment>) -> Vec<Segment> {
    let pieces: Vec<Segment> = segments.into_iter().filter(|s| !s.is_point()).collect();
    let mut runs = pieces.clone();
    coalesce(&mut runs);
    // A piece lies on the last run of its line that starts at or before it.
    let start = |s: &Segment| (s.axis(), s.track(), s.span().lo());
    let mut placed = vec![false; runs.len()];
    let run_of = |s: &Segment| {
        let r = runs.partition_point(|r| start(r) <= start(s)) - 1;
        (!std::mem::replace(&mut placed[r], true)).then_some(runs[r])
    };
    pieces.iter().filter_map(run_of).collect()
}

/// The merge [`merge_collinear`] replaced: each piece joins the first
/// earlier result it shares a point with, so a piece bridging two
/// earlier results leaves them apart. Test oracle only.
#[cfg(test)]
pub(crate) fn merge_first_fit(segments: &[Segment]) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    'next: for &s in segments.iter().filter(|s| !s.is_point()) {
        for o in &mut out {
            // Touching at an end or overlapping merges; a gap does not.
            let (a, b) = (o.span(), s.span());
            let line = (o.axis(), o.track()) == (s.axis(), s.track());
            if line && a.lo() <= b.hi() && b.lo() <= a.hi() {
                *o = Segment::on_axis(o.axis(), o.track(), a.hull(b));
                continue 'next;
            }
        }
        out.push(s);
    }
    out
}

/// The split [`split_at_junctions`] replaced: each segment is cut at
/// every segment end found by scanning them all, O(S²). Test oracle
/// only.
#[cfg(test)]
pub(crate) fn split_scanning(segs: &[Segment]) -> Vec<Segment> {
    let endpoints: Vec<Point> =
        segs.iter().flat_map(|s| <[Point; 2]>::from(s.endpoints())).collect();
    let mut out = Vec::with_capacity(segs.len());
    for s in segs {
        let mut cuts: Vec<i32> = endpoints
            .iter()
            .filter(|p| s.contains(**p))
            .map(|p| match s.axis() {
                Axis::Horizontal => p.x,
                Axis::Vertical => p.y,
            })
            .collect();
        cuts.push(s.span().lo());
        cuts.push(s.span().hi());
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.len() <= 2 {
            out.push(*s);
            continue;
        }
        for w in cuts.windows(2) {
            out.push(Segment::on_axis(s.axis(), s.track(), Interval::new(w[0], w[1])));
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::BudgetBreach;

    fn nid() -> NetId {
        NetId::from_index(0)
    }

    /// An empty plane bounded by a border box.
    fn bounded(w: i32, h: i32) -> ObstacleMap {
        let mut m = ObstacleMap::new();
        m.add_rect(
            &netart_geom::Rect::new(Point::new(0, 0), w, h),
            ObstacleKind::Module,
        );
        m
    }

    fn route_two(map: &ObstacleMap, a: (Point, Dir), b: (Point, Dir)) -> Option<Connection> {
        let mut ws = Workspace::default();
        let mut s = Search::new(map, nid(), false, 32, &mut ws);
        s.seed(Front::A, a.0, a.1);
        s.seed(Front::B, b.0, b.1);
        s.run(&mut BudgetMeter::unlimited()).connected()
    }

    fn covers(conn: &Connection, p: Point) -> bool {
        conn.segments.iter().any(|s| s.contains(p))
    }

    #[test]
    fn straight_line_between_facing_points() {
        let map = bounded(20, 10);
        let conn = route_two(
            &map,
            (Point::new(2, 5), Dir::Right),
            (Point::new(15, 5), Dir::Left),
        )
        .expect("straight route");
        assert_eq!(conn.segments.len(), 1);
        assert_eq!(conn.segments[0], Segment::horizontal(5, 2, 15));
        assert_eq!(conn.crossings, 0);
    }

    #[test]
    fn l_route_between_perpendicular_points() {
        let map = bounded(20, 20);
        let conn = route_two(
            &map,
            (Point::new(5, 5), Dir::Right),
            (Point::new(12, 12), Dir::Down),
        )
        .expect("L route");
        assert!(covers(&conn, Point::new(5, 5)), "{:?}", conn.segments);
        assert!(covers(&conn, Point::new(12, 12)), "{:?}", conn.segments);
        // Minimum-bend path: a single corner.
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert_eq!(path.bends(), 1, "{:?}", conn.segments);
        assert!(path.connects(&[Point::new(5, 5), Point::new(12, 12)]));
    }

    #[test]
    fn routes_around_a_wall() {
        let mut map = bounded(30, 20);
        // A wall with a gap at the top.
        map.add(Segment::vertical(15, 0, 16), ObstacleKind::Module);
        let conn = route_two(
            &map,
            (Point::new(5, 5), Dir::Right),
            (Point::new(25, 5), Dir::Left),
        )
        .expect("detour");
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert!(path.connects(&[Point::new(5, 5), Point::new(25, 5)]));
        // Must climb above y = 16 to clear the wall.
        assert!(
            conn.segments.iter().any(|s| s.span().hi() >= 17 || s.track() >= 17),
            "{:?}",
            conn.segments
        );
        // Both terminals leave horizontally at y = 5, so the detour
        // needs an up-over-down excursion: 4 bends is the minimum.
        assert_eq!(path.bends(), 4, "minimal detour");
    }

    #[test]
    fn no_route_through_closed_box() {
        let mut map = bounded(30, 20);
        // Fully enclose the target point.
        map.add_rect(
            &netart_geom::Rect::new(Point::new(20, 5), 6, 6),
            ObstacleKind::Module,
        );
        let conn = route_two(
            &map,
            (Point::new(5, 8), Dir::Right),
            (Point::new(23, 8), Dir::Right),
        );
        assert!(conn.is_none());
    }

    #[test]
    fn crossing_a_net_is_allowed_and_counted() {
        let mut map = bounded(20, 10);
        // A foreign net crossing the straight path vertically.
        map.add(
            Segment::vertical(10, 1, 9),
            ObstacleKind::Net(NetId::from_index(7)),
        );
        let conn = route_two(
            &map,
            (Point::new(2, 5), Dir::Right),
            (Point::new(17, 5), Dir::Left),
        )
        .expect("crossing allowed");
        assert_eq!(conn.segments.len(), 1, "still straight: {:?}", conn.segments);
        assert_eq!(conn.crossings, 1);
    }

    #[test]
    fn net_endpoints_block() {
        let mut map = bounded(20, 10);
        // Foreign net whose endpoint (a bend) sits right on the path.
        map.add(
            Segment::vertical(10, 5, 9),
            ObstacleKind::Net(NetId::from_index(7)),
        );
        let conn = route_two(
            &map,
            (Point::new(2, 5), Dir::Right),
            (Point::new(17, 5), Dir::Left),
        )
        .expect("detour around the endpoint");
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert!(path.connects(&[Point::new(2, 5), Point::new(17, 5)]));
        assert!(path.bends() >= 2, "{:?}", conn.segments);
        // The wire never touches the blocked endpoint.
        assert!(!covers(&conn, Point::new(10, 5)), "{:?}", conn.segments);
    }

    #[test]
    fn claims_block_until_lifted() {
        let mut map = bounded(20, 10);
        map.add_point(Point::new(10, 5), ObstacleKind::Claim(NetId::from_index(3)));
        let conn = route_two(
            &map,
            (Point::new(2, 5), Dir::Right),
            (Point::new(17, 5), Dir::Left),
        )
        .expect("detour around claim");
        assert!(!covers(&conn, Point::new(10, 5)));
        map.remove_claims_of(NetId::from_index(3));
        let conn = route_two(
            &map,
            (Point::new(2, 5), Dir::Right),
            (Point::new(17, 5), Dir::Left),
        )
        .expect("straight after lifting");
        assert_eq!(conn.segments.len(), 1);
    }

    #[test]
    fn expand_net_joins_existing_segment() {
        let mut map = bounded(20, 20);
        map.add(Segment::horizontal(10, 5, 15), ObstacleKind::Net(nid()));
        let mut ws = Workspace::default();
        let mut s = Search::new(&map, nid(), false, 32, &mut ws);
        s.seed(Front::A, Point::new(10, 3), Dir::Up);
        let conn = s
            .run(&mut BudgetMeter::unlimited())
            .connected()
            .expect("join own net");
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert!(path.connects(&[Point::new(10, 3)]));
        // The join lands on the existing wire.
        assert!(
            conn.segments
                .iter()
                .any(|s| s.contains(Point::new(10, 10))
                    || Segment::horizontal(10, 5, 15).crossing(s).is_some()),
            "{:?}",
            conn.segments
        );
    }

    #[test]
    fn min_bend_path_preferred_over_shorter() {
        // A scenario where the geometrically shortest route needs more
        // bends: line expansion returns the bend-minimal one.
        let mut map = bounded(40, 30);
        // Comb obstacles forcing a zig-zag on the direct corridor.
        map.add(Segment::vertical(10, 0, 14), ObstacleKind::Module);
        map.add(Segment::vertical(20, 6, 30), ObstacleKind::Module);
        map.add(Segment::vertical(30, 0, 14), ObstacleKind::Module);
        let conn = route_two(
            &map,
            (Point::new(2, 10), Dir::Right),
            (Point::new(38, 10), Dir::Left),
        )
        .expect("route exists");
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert!(path.connects(&[Point::new(2, 10), Point::new(38, 10)]));
        // Every wall reaches a border, so the path must zig-zag: above
        // y=14 at x=10, below y=6 at x=20, above y=14 at x=30. Any such
        // rectilinear path starting and ending horizontally at y=10 has
        // at least 8 bends; line expansion must find exactly that.
        assert_eq!(path.bends(), 8, "{:?}", conn.segments);
    }

    #[test]
    fn tiny_node_budget_reports_over_budget() {
        let mut map = bounded(40, 30);
        map.add(Segment::vertical(10, 0, 14), ObstacleKind::Module);
        map.add(Segment::vertical(20, 6, 30), ObstacleKind::Module);
        map.add(Segment::vertical(30, 0, 14), ObstacleKind::Module);
        let mut ws = Workspace::default();
        let mut s = Search::new(&map, nid(), false, 32, &mut ws);
        s.seed(Front::A, Point::new(2, 10), Dir::Right);
        s.seed(Front::B, Point::new(38, 10), Dir::Left);
        let mut meter = BudgetMeter::start(crate::Budget::new().with_node_limit(1));
        match s.run(&mut meter) {
            SearchResult::OverBudget => {}
            other => panic!("expected over-budget, got {other:?}"),
        }
        assert_eq!(meter.breach(), Some(BudgetBreach::Nodes));
    }

    #[test]
    fn merge_collinear_compacts() {
        let merged = merge_collinear(vec![
            Segment::horizontal(0, 0, 3),
            Segment::horizontal(0, 3, 6),
            Segment::vertical(6, 0, 0), // zero-length: dropped
            Segment::vertical(6, 0, 4),
        ]);
        assert_eq!(merged.len(), 2);
        assert!(merged.contains(&Segment::horizontal(0, 0, 6)));
    }

    #[test]
    fn merge_collinear_joins_what_first_fit_leaves_apart() {
        // The last piece bridges the first two: first-fit joins it to
        // the first and leaves two touching runs.
        let h = |lo, hi| Segment::horizontal(0, lo, hi);
        let pieces = [h(0, 2), h(4, 6), h(2, 4)];
        assert_eq!(merge_first_fit(&pieces), [h(0, 4), h(4, 6)]);
        assert_eq!(merge_collinear(pieces.to_vec()), [h(0, 6)]);
    }

    #[test]
    fn merge_collinear_reaches_i32_max() {
        let top = |lo| Segment::horizontal(i32::MAX, lo, i32::MAX);
        let side = Segment::vertical(i32::MAX, 0, i32::MAX);
        let merged = merge_collinear(vec![top(0), side, top(5)]);
        assert_eq!(merged, [top(0), side]);
    }

    /// A coordinate near either end of `i32` or near zero, from a set
    /// small enough that pieces often touch, overlap and meet.
    fn extreme_coord() -> impl Strategy<Value = i32> {
        (prop::sample::select(vec![i32::MIN, -2, i32::MAX - 4]), 0i32..5).prop_map(|(c, d)| c + d)
    }

    /// A piece of wire on an extreme track with extreme ends, a point
    /// now and then.
    fn extreme_piece() -> impl Strategy<Value = Segment> {
        let ends = (extreme_coord(), extreme_coord());
        (any::<bool>(), extreme_coord(), ends).prop_map(|(horizontal, track, (a, b))| {
            let axis = if horizontal { Axis::Horizontal } else { Axis::Vertical };
            Segment::on_axis(axis, track, Interval::new(a.min(b), a.max(b)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Where first-fit leaves no two runs of one line touching, the
        /// sorting merge returns its runs in its order.
        #[test]
        fn merge_collinear_matches_a_maximal_first_fit(
            pieces in prop::collection::vec(extreme_piece(), 0..20),
        ) {
            let first_fit = merge_first_fit(&pieces);
            let mut runs = first_fit.clone();
            coalesce(&mut runs);
            if runs.len() == first_fit.len() {
                prop_assert_eq!(merge_collinear(pieces), first_fit);
            }
        }

        /// The binary-search split cuts merged runs exactly as the
        /// scanning split does, and where first-fit is maximal it leaves
        /// on every track the obstacles the scanning split of the
        /// first-fit merge left.
        #[test]
        fn split_at_junctions_matches_the_scanning_split(
            pieces in prop::collection::vec(extreme_piece(), 0..20),
        ) {
            let runs = merge_collinear(pieces.clone());
            let split = split_at_junctions(&runs);
            prop_assert_eq!(&split, &split_scanning(&runs));
            let first_fit = merge_first_fit(&pieces);
            if first_fit.len() == runs.len() {
                let (mut old, mut new) = (split_scanning(&first_fit), split);
                old.sort_unstable();
                new.sort_unstable();
                prop_assert_eq!(new, old);
            }
        }
    }

    /// A search's outcome and explored rect, with sweeps pruned to the
    /// live hull or (`full`) gathering every entry on each track.
    fn run_search(map: &ObstacleMap, seeds: &[(Front, Point, Dir)], full: bool) -> String {
        run_search_in(map, seeds, full, 4000, &mut Workspace::default())
    }

    /// [`run_search`] on the workspace `ws`, under a node limit.
    fn run_search_in(
        map: &ObstacleMap,
        seeds: &[(Front, Point, Dir)],
        full: bool,
        nodes: u64,
        ws: &mut Workspace,
    ) -> String {
        let mut s = Search::new(map, nid(), false, 12, ws);
        s.full_sweeps = full;
        for &(front, p, dir) in seeds {
            s.seed(front, p, dir);
        }
        let result = s.run(&mut BudgetMeter::start(crate::Budget::new().with_node_limit(nodes)));
        format!("{result:?} {:?}", s.explored_rect())
    }

    #[test]
    fn entries_outside_the_hull_change_nothing() {
        let mut map = bounded(30, 20);
        map.add(Segment::vertical(15, 0, 16), ObstacleKind::Module);
        map.add(Segment::vertical(8, 2, 18), ObstacleKind::Net(NetId::from_index(7)));
        let seeds = [
            (Front::A, Point::new(5, 5), Dir::Right),
            (Front::B, Point::new(25, 5), Dir::Left),
        ];
        let before = run_search(&map, &seeds, false);
        assert!(before.starts_with("Connected"), "{before}");
        // Blocking, crossing and own-net entries on every swept track,
        // all beyond the border, so outside every piece's hull.
        for t in 1..20 {
            map.add(Segment::horizontal(t, -9, -7), ObstacleKind::Module);
            map.add(Segment::horizontal(t, -5, -3), ObstacleKind::Net(NetId::from_index(7)));
            map.add(Segment::horizontal(t, 33, 35), ObstacleKind::Net(nid()));
        }
        for t in 1..30 {
            map.add(Segment::vertical(t, -9, -7), ObstacleKind::Claim(NetId::from_index(3)));
            map.add(Segment::vertical(t, -5, -3), ObstacleKind::Net(NetId::from_index(7)));
            map.add(Segment::vertical(t, 23, 25), ObstacleKind::Net(nid()));
        }
        assert_eq!(run_search(&map, &seeds, false), before);
        assert_eq!(run_search(&map, &seeds, true), before);
    }

    /// A plain ledger, the model of a coverage table's track.
    impl Ledger for Vec<Interval> {
        fn intervals(&self) -> &[Interval] {
            self
        }

        fn merge(&mut self, range: Range<usize>, merged: Interval) {
            self.splice(range, [merged]);
        }
    }

    /// The coverage subtraction that [`cover`] replaced, kept as its
    /// oracle: the leftover pieces of `span` in ascending order, after
    /// removing each ledger interval in turn.
    pub(crate) fn subtract_all(span: Interval, covered: &[Interval]) -> Vec<Interval> {
        let mut pieces = vec![span];
        for &c in covered {
            pieces = pieces
                .into_iter()
                .flat_map(|p| {
                    let (l, r) = p.subtract(c);
                    l.into_iter().chain(r)
                })
                .collect();
        }
        pieces
    }

    /// The border cutting that [`cut_border`] replaced, kept as its
    /// oracle: each crossing point subtracted from every piece in turn.
    fn sub_spans(span: Interval, cuts: &[i32]) -> Vec<Interval> {
        let mut sub_spans = vec![span];
        for &ct in cuts {
            sub_spans = sub_spans
                .into_iter()
                .flat_map(|sp| {
                    let (l, r) = sp.subtract(Interval::point(ct));
                    l.into_iter().chain(r)
                })
                .collect();
        }
        sub_spans
    }

    /// Intervals clustered near a few centres, including both ends of
    /// `i32`.
    fn interval_strategy() -> impl Strategy<Value = Interval> {
        let centres = [i32::MIN, -20, 0, i32::MAX - 31];
        (prop::sample::select(centres.to_vec()), 0i32..24, 0i32..8)
            .prop_map(|(c, lo, len)| Interval::new(c + lo, c + lo + len))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A coalesced ledger yields the same pieces, in the same order,
        /// as subtracting an append-only ledger, and covers the same
        /// points.
        #[test]
        fn cover_matches_subtract_all(spans in prop::collection::vec(interval_strategy(), 0..24)) {
            let mut ledger = Vec::new();
            let mut appended: Vec<Interval> = Vec::new();
            for &span in &spans {
                let mut pieces = Vec::new();
                cover(&mut ledger, span, &mut pieces);
                let want = subtract_all(span, &appended);
                appended.extend(want.iter().copied());
                prop_assert_eq!(&pieces, &want, "{:?} over {:?}", span, spans);
                prop_assert!(ledger.windows(2).all(|w| i64::from(w[0].hi()) + 1 < i64::from(w[1].lo())));
                for &probe in &spans {
                    for v in [probe.lo(), probe.hi()] {
                        prop_assert_eq!(
                            ledger.iter().any(|c| c.contains(v)),
                            appended.iter().any(|c| c.contains(v))
                        );
                    }
                }
            }
        }

        /// Cutting a border at sorted crossing points leaves the same
        /// pieces as subtracting the points one at a time.
        #[test]
        fn cut_border_matches_point_subtraction(
            span in interval_strategy(),
            mut cuts in prop::collection::vec((0u8..8, -22i32..28).prop_map(|(k, v)| match k {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => v,
            }), 0..8),
        ) {
            let want = sub_spans(span, &cuts);
            let mut got = Vec::new();
            cut_border(span, &mut cuts, &mut got);
            prop_assert_eq!(got, want);
        }
    }

    /// On a plane bounded at 2³⁰ × 2³⁰, a route between two facing
    /// points takes a handful of nodes and no time: no step may walk
    /// coordinates instead of occupied tracks.
    #[test]
    fn a_huge_plane_costs_no_more_than_a_small_one() {
        let side = 1 << 30;
        let map = bounded(side, side);
        let mut ws = Workspace::default();
        let mut s = Search::new(&map, nid(), false, 32, &mut ws);
        s.seed(Front::A, Point::new(2, side / 2), Dir::Right);
        s.seed(Front::B, Point::new(side - 2, side / 3), Dir::Left);
        let mut meter = BudgetMeter::start(crate::Budget::new().with_node_limit(64));
        let conn = s.run(&mut meter).connected().expect("open plane routes");
        assert!(meter.spent() <= 16, "{} nodes", meter.spent());
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert!(path.connects(&[Point::new(2, side / 2), Point::new(side - 2, side / 3)]));
        assert_eq!(path.bends(), 1, "{:?}", conn.segments);
    }

    /// On a plane spanning nearly all of `i32` across, sweeps longer
    /// than `i32::MAX` measure their progress and their wire exactly.
    #[test]
    fn sweeps_across_the_whole_i32_plane() {
        let mut map = ObstacleMap::new();
        let (west, east) = (i32::MIN + 1, i32::MAX - 1);
        let plane = netart_geom::Rect::from_corners(Point::new(west, -10), Point::new(east, 10));
        map.add_rect(&plane, ObstacleKind::Module);
        let (a, b) = (Point::new(-2_000_000_000, 0), Point::new(2_000_000_000, 5));
        let mut ws = Workspace::default();
        let mut s = Search::new(&map, nid(), false, 32, &mut ws);
        s.seed(Front::A, a, Dir::Up);
        s.seed(Front::B, b, Dir::Down);
        let conn = s.run(&mut BudgetMeter::unlimited()).connected().expect("open plane routes");
        let path = netart_diagram::NetPath::from_segments(conn.segments.clone());
        assert!(path.connects(&[a, b]), "{:?}", conn.segments);
        assert_eq!(path.bends(), 1, "{:?}", conn.segments);
        assert_eq!(path.length(), 4_000_000_005, "{:?}", conn.segments);
        assert_eq!(s.explored_rect(), Some((west + 1, -9, east - 1, 9)));
    }

    fn seed_strategy() -> impl Strategy<Value = (Point, Dir)> {
        (1i32..24, 1i32..16, prop::sample::select(Dir::ALL.to_vec()))
            .prop_map(|(x, y, d)| (Point::new(x, y), d))
    }

    /// A module edge, a foreign wire, a claim or a wire of the net
    /// itself, somewhere on the plane.
    fn obstacle_strategy() -> impl Strategy<Value = (Segment, ObstacleKind)> {
        (any::<bool>(), 1i32..24, 1i32..16, 0i32..9, 0u8..4).prop_map(|(h, x, y, len, kind)| {
            let seg = if h {
                Segment::horizontal(y, x, x + len)
            } else {
                Segment::vertical(x, y, y + len)
            };
            let kind = match kind {
                0 => ObstacleKind::Module,
                1 => ObstacleKind::Net(NetId::from_index(7)),
                2 => ObstacleKind::Claim(NetId::from_index(3)),
                _ => ObstacleKind::Net(nid()),
            };
            (seg, kind)
        })
    }

    /// Entries crowded onto two tracks of each axis, so that entries
    /// of one rank often overlap on a track: module edges, claims,
    /// wires of two foreign nets with their caps, wires of the net
    /// itself, and terminal points of the net and of a foreign one.
    fn crowded_obstacle_strategy() -> impl Strategy<Value = (Segment, ObstacleKind)> {
        let track = prop::sample::select(vec![5, 10]);
        (any::<bool>(), track, 1i32..24, 0i32..12, 0u8..9).prop_map(|(h, track, at, len, kind)| {
            let kind = match kind {
                0 => ObstacleKind::Module,
                1 | 2 => ObstacleKind::Net(NetId::from_index(7)),
                3 | 4 => ObstacleKind::Net(NetId::from_index(8)),
                5 => ObstacleKind::Claim(NetId::from_index(3)),
                6 => ObstacleKind::Net(nid()),
                7 => ObstacleKind::Terminal(nid()),
                _ => ObstacleKind::Terminal(NetId::from_index(7)),
            };
            let len = if matches!(kind, ObstacleKind::Terminal(_)) { 0 } else { len };
            let seg = if h {
                Segment::horizontal(track, at, at + len)
            } else {
                Segment::vertical(track, at.min(16), (at + len).min(17))
            };
            (seg, kind)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Pruning sweeps to the live hull finds the same connection and
        /// explores the same rect as gathering every entry, in both the
        /// two-front and the one-front mode.
        #[test]
        fn hull_pruned_sweeps_match_full_sweeps(
            obstacles in prop::collection::vec(obstacle_strategy(), 0..14),
            a in seed_strategy(),
            b in seed_strategy(),
            two_fronts in any::<bool>(),
        ) {
            let mut map = bounded(26, 18);
            for (seg, kind) in obstacles {
                map.add(seg, kind);
            }
            let mut seeds = vec![(Front::A, a.0, a.1)];
            if two_fronts {
                seeds.push((Front::B, b.0, b.1));
            }
            prop_assert_eq!(run_search(&map, &seeds, false), run_search(&map, &seeds, true));
        }

        /// A search finds the same connection, explores the same rect
        /// and expands as many nodes whatever order the map's tracks
        /// hold their entries in: each map is searched as built, then
        /// after each of four shuffles.
        #[test]
        fn searches_do_not_depend_on_the_order_of_a_track(
            obstacles in prop::collection::vec(crowded_obstacle_strategy(), 16..48),
            a in seed_strategy(),
            b in seed_strategy(),
            two_fronts in any::<bool>(),
            shuffle in any::<u64>(),
        ) {
            let mut map = bounded(26, 18);
            for (seg, kind) in obstacles {
                map.add(seg, kind);
            }
            let mut seeds = vec![(Front::A, a.0, a.1)];
            if two_fronts {
                seeds.push((Front::B, b.0, b.1));
            }
            let search = |map: &ObstacleMap| {
                let mut ws = Workspace::default();
                let mut s = Search::new(map, nid(), false, 12, &mut ws);
                for &(front, p, dir) in &seeds {
                    s.seed(front, p, dir);
                }
                let mut meter = BudgetMeter::start(crate::Budget::new().with_node_limit(4000));
                let result = s.run(&mut meter);
                format!("{result:?} {:?} {}", s.explored_rect(), meter.spent())
            };
            let want = search(&map);
            map.shuffle = Some(shuffle);
            for _ in 0..4 {
                crate::obstacles::tests::shuffle_tracks(&mut map);
                prop_assert_eq!(search(&map), want.clone());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A search on a workspace that earlier searches left behind,
        /// finished, cut short by the node limit or abandoned after
        /// seeding, finds the same connection and explores the same rect
        /// as a search on a fresh workspace.
        #[test]
        fn reused_workspaces_match_fresh_ones(
            obstacles in prop::collection::vec(obstacle_strategy(), 0..14),
            searches in prop::collection::vec(
                (seed_strategy(), seed_strategy(), any::<bool>(), 1u64..400, any::<bool>()),
                1..6,
            ),
        ) {
            let mut map = bounded(26, 18);
            for (seg, kind) in obstacles {
                map.add(seg, kind);
            }
            let mut shared = Workspace::default();
            for (a, b, two_fronts, nodes, abandon) in searches {
                let mut seeds = vec![(Front::A, a.0, a.1)];
                if two_fronts {
                    seeds.push((Front::B, b.0, b.1));
                }
                if abandon {
                    let mut s = Search::new(&map, nid(), false, 12, &mut shared);
                    s.seed(Front::A, b.0, b.1);
                }
                let fresh = run_search_in(&map, &seeds, false, nodes, &mut Workspace::default());
                prop_assert_eq!(run_search_in(&map, &seeds, false, nodes, &mut shared), fresh);
            }
        }
    }

    /// The next track beyond `from` in `dir` holding static obstacles
    /// or active segments of either front of `s`, by binary search: the
    /// stop by stop lookup that [`Stops`] replaced, kept as its oracle.
    fn next_track(s: &Search, dir: Dir, from: i32) -> Option<i32> {
        let axis = axis_idx(dir.segment_axis());
        let mut best = s.map.next_track(dir, from);
        for f in 0..2 {
            let lanes = &s.ws.index[f][axis];
            let cand = match dir {
                Dir::Up | Dir::Right => lanes.next_above(from),
                Dir::Down | Dir::Left => lanes.next_below(from),
            };
            best = match (best, cand) {
                (None, c) => c,
                (b, None) => b,
                (Some(b), Some(c)) => Some(match dir {
                    Dir::Up | Dir::Right => b.min(c),
                    Dir::Down | Dir::Left => b.max(c),
                }),
            };
        }
        best
    }

    /// Tracks clustered near both ends of `i32`, near zero and across
    /// chunk boundaries.
    fn extreme_track() -> impl Strategy<Value = i32> {
        let centres = [i32::MIN, -70, 0, 60, i32::MAX - 140];
        (prop::sample::select(centres.to_vec()), 0i32..140).prop_map(|(c, d)| c.saturating_add(d))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One walk each over the map's lane and both fronts' tables stops
        /// at the same tracks, and reads the same lists there, as the
        /// stop-by-stop binary searches it replaced, in every direction
        /// and while the own front's list on the swept track grows, as
        /// `trim` grows it.
        #[test]
        fn stop_walks_match_stop_by_stop_lookups(
            obstacles in prop::collection::vec((any::<bool>(), extreme_track(), extreme_track()), 0..24),
            actives in prop::collection::vec((0usize..2, any::<bool>(), extreme_track()), 0..24),
            from in extreme_track(),
            dir in prop::sample::select(Dir::ALL.to_vec()),
        ) {
            let mut map = ObstacleMap::new();
            for &(horizontal, track, at) in &obstacles {
                let axis = if horizontal { Axis::Horizontal } else { Axis::Vertical };
                let span = Interval::new(at, at.saturating_add(3));
                map.add(Segment::on_axis(axis, track, span), ObstacleKind::Module);
            }
            let mut ws = Workspace::default();
            let s = Search::new(&map, nid(), false, 12, &mut ws);
            for (id, &(front, horizontal, track)) in actives.iter().enumerate() {
                s.ws.index[front][usize::from(!horizontal)].push(track, id);
            }
            let axis = dir.segment_axis();
            let lanes = map.lanes(axis);
            let mut stops = Stops::new(lanes, s.ws.fronts(axis), dir, from);
            let mut at_track = from;
            loop {
                let want = next_track(&s, dir, at_track);
                let got = stops.next(lanes, s.ws.fronts(axis));
                prop_assert_eq!(got.map(|(track, _)| track), want);
                let Some((track, at)) = got else { break };
                prop_assert_eq!(at[0].map_or(&[][..], |stop| lanes.list(stop)), map.at(axis, track));
                for (f, stop) in [(0, at[1]), (1, at[2])] {
                    let table = &s.ws.index[f][axis_idx(axis)];
                    prop_assert_eq!(stop.map_or(&[][..], |stop| table.list(stop)), table.get(track));
                }
                if at[1].is_some() {
                    s.ws.index[0][axis_idx(axis)].push(track, usize::MAX);
                }
                at_track = track;
            }
        }
    }

    /// A chain of hops from a start point, each horizontal or vertical
    /// and up to three long: zero-length hops, doubling back and
    /// self-crossings included.
    fn chain_strategy() -> impl Strategy<Value = Vec<Segment>> {
        let hop = (any::<bool>(), -3i32..=3);
        ((-4i32..4, -4i32..4), prop::collection::vec(hop, 0..14)).prop_map(|((x, y), hops)| {
            let mut p = Point::new(x, y);
            hops.into_iter()
                .map(|(horizontal, d)| {
                    let q = if horizontal { Point::new(p.x + d, p.y) } else { Point::new(p.x, p.y + d) };
                    let hop = Segment::between(p, q).expect("axis-aligned hop");
                    p = q;
                    hop
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Counting a candidate's bends in place gives what the wire
        /// built from its segments reports, on chains and on two chains
        /// joined, as a bridge and two trace-backs are.
        #[test]
        fn corners_match_the_net_path_count(first in chain_strategy(), second in chain_strategy()) {
            for segments in [first.clone(), [first, second].concat()] {
                let merged = merge_collinear(segments.clone());
                let want = netart_diagram::NetPath::from_segments(merged).bends();
                let mut scratch = segments.clone();
                prop_assert_eq!(corners(&mut scratch), want, "{:?}", segments);
            }
        }
    }
}
