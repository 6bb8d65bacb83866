//! The EUREKA routing facade (§5.6.3 `ROUTING`, Appendix F).
//!
//! One routing run is one [`Run`] value: the diagram being routed, the
//! obstacle map and search workspace every search shares, and one
//! [`NetRouteStats`] record per net. `ROUTING`'s loop over the nets is
//! its first pass; the retry pass (§5.7) and the salvage cascade each
//! take the nets whose record is not yet routed, in the same order.

use netart_geom::{Axis, Dir, Point, Rect, Segment};
use netart_netlist::{NetId, Network, Pin};
use tracing::{debug, span, warn, Level};

use netart_diagram::{Diagram, GhostWire, NetPath};
use netart_fault::FaultKind;

use crate::budget::BudgetMeter;
use crate::expand::{merge_collinear, Front, Search, SearchResult, Workspace};
use crate::{lee, Budget, NetOrder, ObstacleKind, ObstacleMap, RouteConfig};

/// How many bend generations a search may open before it gives up: a
/// safety valve generous enough never to trigger on real diagrams.
const MAX_BENDS: u32 = 64;

/// Budget multiplier for the salvage cascade's escalated retry.
const ESCALATION_FACTOR: u32 = 4;

/// How many routed nets a rip-up pass may sacrifice for one failure.
const MAX_VICTIMS: usize = 3;

/// The cascade step that finally handled a failed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageStep {
    /// Ripping up intersecting lower-priority routes and retrying with
    /// an escalated budget routed it (the victims were rerouted too).
    RipUpRetry,
    /// The Lee maze router connected it — minimum length, no regard
    /// for the bend aesthetics of §3.2.
    LeeFallback,
    /// Unroutable within every fallback: emitted as an explicit ghost
    /// wire so the output still shows the connection.
    GhostWire,
}

impl SalvageStep {
    /// Stable lowercase name, used in reports and events.
    pub fn as_str(&self) -> &'static str {
        match self {
            SalvageStep::RipUpRetry => "rip_up_retry",
            SalvageStep::LeeFallback => "lee_fallback",
            SalvageStep::GhostWire => "ghost_wire",
        }
    }
}

/// Per-net routing effort, one entry per net the router attempted, in
/// net-id order. The raw material for the `nets` array of a run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRouteStats {
    /// The net.
    pub net: NetId,
    /// Whether the net ended up fully connected.
    pub routed: bool,
    /// `true` when a complete preroute made routing unnecessary.
    pub prerouted: bool,
    /// Search nodes expanded for this net across every pass it needed.
    pub nodes_expanded: u64,
    /// Whether any pass ended on a budget breach.
    pub over_budget: bool,
    /// Whether the claim-lift retry pass had to run for this net.
    pub retried: bool,
    /// The salvage step that handled it, when the cascade ran.
    pub salvage: Option<SalvageStep>,
    /// Routed nets ripped up on this net's behalf.
    pub ripup_victims: u32,
    /// Bounding box `(min_x, min_y, max_x, max_y)` of everything the
    /// net's searches activated across the first and retry passes —
    /// the spatial footprint of the effort, for the `netart profile`
    /// heat map. `None` for prerouted nets and nets the cascade alone
    /// touched. Deterministic for a given input; not serialized into
    /// run reports.
    pub search_bbox: Option<(i32, i32, i32, i32)>,
}

impl NetRouteStats {
    fn attempt(net: NetId) -> NetRouteStats {
        NetRouteStats {
            net,
            routed: false,
            prerouted: false,
            nodes_expanded: 0,
            over_budget: false,
            retried: false,
            salvage: None,
            ripup_victims: 0,
            search_bbox: None,
        }
    }
}

/// Union of two optional bounding boxes (`(min_x, min_y, max_x,
/// max_y)` each); `None` is the empty box.
pub fn union_bbox(
    a: Option<(i32, i32, i32, i32)>,
    b: Option<(i32, i32, i32, i32)>,
) -> Option<(i32, i32, i32, i32)> {
    match (a, b) {
        (Some((ax0, ay0, ax1, ay1)), Some((bx0, by0, bx1, by1))) => {
            Some((ax0.min(bx0), ay0.min(by0), ax1.max(bx1), ay1.max(by1)))
        }
        (a, None) => a,
        (None, b) => b,
    }
}

/// Outcome of a routing run.
#[derive(Debug, Clone, Default)]
pub struct RouteReport {
    /// Nets routed successfully (including those fixed by the retry
    /// pass or the salvage cascade).
    pub routed: Vec<NetId>,
    /// Nets the router could not complete; their routes stay empty and
    /// a designer (or another pass) may intervene, as in the paper's
    /// example 3. With salvage enabled these nets carry a ghost wire.
    pub failed: Vec<NetId>,
    /// Nets that needed the salvage cascade, in the order they were
    /// salvaged; how each one ended is its [`NetRouteStats`] record.
    pub salvaged: Vec<NetId>,
    /// Per-net effort counters, in net-id order.
    pub net_stats: Vec<NetRouteStats>,
}

/// The routing phase of the generator: the `eureka` program of
/// Appendix F.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct Eureka {
    config: RouteConfig,
    /// Test-only switch back to the whole-wire rescans, and in the map
    /// to the first-fit merge and the scanning split: the oracle of the
    /// per-connection bookkeeping in `route_net`.
    #[cfg(test)]
    old_bookkeeping: bool,
    /// Test-only seed of the shuffle that reorders every track of the
    /// map before each search (see `obstacles::tests::shuffle_tracks`).
    #[cfg(test)]
    shuffle: Option<u64>,
}

impl Eureka {
    /// A router with the given options.
    pub fn new(config: RouteConfig) -> Self {
        Eureka {
            config,
            #[cfg(test)]
            old_bookkeeping: false,
            #[cfg(test)]
            shuffle: None,
        }
    }

    /// The options in use.
    pub fn config(&self) -> &RouteConfig {
        &self.config
    }

    /// Starts a meter for `budget`, attaching the run's cancellation
    /// token (if any) so every per-net search honours it.
    fn meter(&self, budget: Budget) -> BudgetMeter {
        let meter = BudgetMeter::start(budget);
        match &self.config.cancel {
            Some(token) => meter.with_cancel(token.clone()),
            None => meter,
        }
    }

    /// Whether the run's cancellation token has been tripped.
    fn cancelled(&self) -> bool {
        self.config
            .cancel
            .as_ref()
            .is_some_and(crate::CancelToken::is_cancelled)
    }

    /// Routes every unrouted net of the diagram. Prerouted nets are
    /// respected as obstacles and extended where incomplete; the
    /// placement is never changed. Cyclic prerouted nets violate the
    /// Appendix F input contract and are dropped and rerouted from
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics when the placement is incomplete (run the placer first).
    pub fn route(&self, diagram: &mut Diagram) -> RouteReport {
        let mut run = Run::new(self, diagram);
        // Net selection order: definition order by default, §7's
        // smarter criteria on request.
        let mut todo: Vec<NetId> = run.network.nets().collect();
        let pins = |n: NetId| run.network.net(n).pins().len();
        match self.config.order {
            NetOrder::Definition => {}
            NetOrder::MostPinsFirst => todo.sort_by_key(|&n| (usize::MAX - pins(n), n)),
            NetOrder::FewestPinsFirst => todo.sort_by_key(|&n| (pins(n), n)),
        }
        run.first_pass(&todo);
        run.retry_pass(&todo);
        run.salvage_pass(&todo);
        let report = run.report();
        debug!(
            "routing done",
            routed = report.routed.len() as u64,
            failed = report.failed.len() as u64,
            salvaged = report.salvaged.len() as u64,
        );
        report
    }

    /// The routing-plane border rect (the paper's ±inf border, made
    /// finite by the configured margins).
    fn border_rect(&self, diagram: &Diagram, network: &Network) -> Rect {
        let bb = diagram
            .placement()
            .bounding_box(network)
            .unwrap_or_else(|| Rect::new(Point::ORIGIN, 4, 4));
        let [ml, mr, md, mu] = self.config.margins;
        Rect::from_corners(
            bb.lower_left() - Point::new(ml.max(1), md.max(1)),
            bb.upper_right() + Point::new(mr.max(1), mu.max(1)),
        )
    }

    /// Builds the obstacle configuration (`ADD_OBSTACLE_BOUNDINGS` plus
    /// prerouted nets) inside `border`; [`Run::new`] adds the claims.
    fn build_map(&self, diagram: &Diagram, network: &Network, border: &Rect) -> ObstacleMap {
        let placement = diagram.placement();
        let mut map = ObstacleMap::new();
        #[cfg(test)]
        {
            map.old_bookkeeping = self.old_bookkeeping;
            map.shuffle = self.shuffle;
        }

        map.add_rect(border, ObstacleKind::Module);

        for m in network.modules() {
            map.add_rect(&placement.module_rect(network, m), ObstacleKind::Module);
        }
        for st in network.system_terms() {
            let p = placement.system_term(st).expect("complete placement");
            // A terminal point blocks every net but its own.
            let kind = match network.system_term_net(st) {
                Some(n) => ObstacleKind::Terminal(n),
                None => ObstacleKind::Module,
            };
            map.add_point(p, kind);
        }
        for (n, path) in diagram.routes() {
            map.rewire_net(n, path.segments());
        }
        map
    }
}

/// A net's pin as its searches see it: the placed point and the side
/// it leaves its module by; `None` for a system terminal, which leaves
/// all four ways.
type PinExit = (Point, Option<Dir>);

/// The directions a pin leaves by: its side, or all four in
/// [`Dir::ALL`] order.
fn exits(side: &Option<Dir>) -> &[Dir] {
    match side {
        Some(dir) => std::slice::from_ref(dir),
        None => &Dir::ALL,
    }
}

/// What a fault fired at a routing step's site does to the step: an
/// `error` or a `garbage-output` skips it (`None`), a
/// `budget-exhaust` leaves it no nodes, and otherwise it runs under
/// `budget`.
fn fault_budget(fault: Option<FaultKind>, budget: Budget) -> Option<Budget> {
    match fault {
        Some(FaultKind::Error | FaultKind::GarbageOutput) => None,
        Some(FaultKind::BudgetExhaust) => Some(Budget::new().with_node_limit(0)),
        _ => Some(budget),
    }
}

/// One routing run: the diagram being routed, the obstacle map and
/// search workspace all of its searches share, and one record per net,
/// indexed by net id. The passes of `ROUTING` are its methods.
struct Run<'a> {
    router: &'a Eureka,
    diagram: &'a mut Diagram,
    network: Network,
    map: ObstacleMap,
    /// The routing-plane border, computed once per run.
    border: Rect,
    ws: Workspace,
    stats: Vec<NetRouteStats>,
    salvaged: Vec<NetId>,
    /// Fault injection (inert unless the `fault-injection` feature is
    /// on): the net the `route.net` site poisoned and how. The poison
    /// persists through the retry pass, so the fault must surface via
    /// the salvage cascade rather than vanish in a silent retry.
    injected: Option<(NetId, FaultKind)>,
}

impl<'a> Run<'a> {
    /// A run over `diagram`, with its cyclic preroutes dropped
    /// (Appendix F: "the nets may not contain a cycle") and its
    /// obstacle map built, claims included.
    fn new(router: &'a Eureka, diagram: &'a mut Diagram) -> Self {
        let network = diagram.network().clone();
        assert!(
            diagram.placement().is_complete(),
            "routing requires a complete placement"
        );
        for n in network.nets() {
            if diagram.route(n).is_some_and(NetPath::has_cycle) {
                diagram.clear_route(n);
            }
        }
        let border = router.border_rect(diagram, &network);
        let map = router.build_map(diagram, &network, &border);
        let mut run = Run {
            router,
            stats: network.nets().map(NetRouteStats::attempt).collect(),
            diagram,
            network,
            map,
            border,
            ws: Workspace::default(),
            salvaged: Vec::new(),
            injected: None,
        };
        let nets: Vec<NetId> = run.network.nets().collect();
        for n in nets {
            run.claim_terminals(n);
        }
        run
    }

    /// The one claim rule (§5.7), for the initial map and for a net
    /// whose first attempt failed: a net with no route claims the
    /// point in front of each module pin that lies strictly inside the
    /// border. A net with a preroute, even a partial one, claims
    /// nothing.
    fn claim_terminals(&mut self, net: NetId) {
        if !self.router.config.claimpoints || self.diagram.route(net).is_some() {
            return;
        }
        for (p, side) in self.pins(net) {
            if let Some(side) = side {
                let claim = p.step(side);
                if self.border.contains_strictly(claim) {
                    self.map.add_point(claim, ObstacleKind::Claim(net));
                }
            }
        }
    }

    /// The nets of `todo` whose record is not routed, in `todo`'s
    /// order: the worklist of the retry and salvage passes.
    fn unrouted(&self, todo: &[NetId]) -> Vec<NetId> {
        todo.iter().copied().filter(|n| !self.stats[n.index()].routed).collect()
    }

    /// The first pass: every net in `todo` order. A complete preroute
    /// is kept as it is; a cancelled run attempts no more nets.
    fn first_pass(&mut self, todo: &[NetId]) {
        for &n in todo {
            // The `route.net` site counts net visits and poisons the
            // first net it fires on.
            if let Some(kind) = netart_fault::fire(netart_fault::sites::ROUTE_NET) {
                self.injected.get_or_insert((n, kind));
            }
            let prerouted = self.diagram.route(n).is_some_and(|p| {
                let points: Vec<Point> = self.pins(n).iter().map(|&(p, _)| p).collect();
                p.connects(&points)
            });
            let record = &mut self.stats[n.index()];
            if prerouted {
                record.routed = true;
                record.prerouted = true;
                continue;
            }
            if self.router.cancelled() {
                // Drain: remaining nets are recorded as failed without
                // spending any more search effort.
                continue;
            }
            let net_span = span!(Level::DEBUG, "eureka.net", net = self.network.net(n).name());
            let _guard = net_span.enter();
            let ran = self.attempt(n);
            // The record holds this one attempt only.
            let record = self.stats[n.index()];
            // The attempt lifted the net's claims; a failed one claims
            // its terminals again, so the spots stay protected for the
            // rest of the pass (§5.7).
            if ran && !record.routed {
                self.claim_terminals(n);
            }
            debug!(
                "first pass",
                net = self.network.net(n).name(),
                routed = record.routed,
                nodes = record.nodes_expanded,
                over_budget = record.over_budget,
            );
        }
    }

    /// §5.7: lift every remaining claimpoint and retry the failures.
    /// Claims exist only during the first pass: this lift is the last.
    fn retry_pass(&mut self, todo: &[NetId]) {
        let failed = self.unrouted(todo);
        let retry = self.router.config.retry_failed;
        if !failed.is_empty() {
            self.map.remove_all_claims();
        }
        for n in failed {
            let net_span = span!(Level::DEBUG, "eureka.retry", net = self.network.net(n).name());
            let _guard = net_span.enter();
            let attempted = retry && !self.router.cancelled();
            if attempted {
                self.attempt(n);
            }
            self.stats[n.index()].retried = attempted;
        }
    }

    /// The salvage cascade: rip-up + escalated retry, then the Lee
    /// fallback, then a ghost wire. The retry pass lifted every claim.
    fn salvage_pass(&mut self, todo: &[NetId]) {
        let failed = self.unrouted(todo);
        if !self.router.config.salvage || failed.is_empty() || self.router.cancelled() {
            return;
        }
        for n in failed {
            if self.router.cancelled() {
                // Cancelled mid-cascade: the rest stay plain failures,
                // unsalvaged.
                continue;
            }
            let net_span = span!(Level::DEBUG, "eureka.salvage", net = self.network.net(n).name());
            let _guard = net_span.enter();
            let before = self.stats[n.index()].nodes_expanded;
            let step = self.salvage_net(n);
            let record = &mut self.stats[n.index()];
            record.salvage = Some(step);
            record.routed = step != SalvageStep::GhostWire;
            warn!(
                "net salvaged",
                net = self.network.net(n).name(),
                step = step.as_str(),
                over_budget = record.over_budget,
                nodes = record.nodes_expanded - before,
                victims = record.ripup_victims,
            );
            self.salvaged.push(n);
        }
    }

    /// The report, read off the records: routed and failed nets in
    /// net-id order.
    fn report(self) -> RouteReport {
        let nets = |routed: bool| {
            self.stats.iter().filter(|s| s.routed == routed).map(|s| s.net).collect()
        };
        RouteReport {
            routed: nets(true),
            failed: nets(false),
            salvaged: self.salvaged,
            net_stats: self.stats,
        }
    }

    /// The pin list of `net`, in the net's pin order.
    fn pins(&self, net: NetId) -> Vec<PinExit> {
        let (network, placement) = (&self.network, self.diagram.placement());
        let pin = |&pin: &Pin| match pin {
            Pin::Sub { module, term } => (
                placement.terminal_position(network, module, term),
                Some(placement.terminal_side(network, module, term)),
            ),
            Pin::System(st) => (placement.system_term(st).expect("complete placement"), None),
        };
        network.net(net).pins().iter().map(pin).collect()
    }

    /// One budgeted attempt at a net, shared by the first and retry
    /// passes, whose effort goes into the net's record. A fault
    /// injected into this net decodes as at every routing step, except
    /// that `garbage-output` lets the net route and then corrupts its
    /// wire, so the self-check in `route_net` has something to catch.
    /// Returns whether the attempt ran, that is, was not skipped.
    fn attempt(&mut self, net: NetId) -> bool {
        let sabotage = self.injected.and_then(|(victim, kind)| (victim == net).then_some(kind));
        let garbage = sabotage == Some(FaultKind::GarbageOutput);
        let budget = fault_budget(sabotage.filter(|_| !garbage), self.router.config.budget);
        let Some(budget) = budget else { return false };
        let mut meter = self.router.meter(budget);
        let mut explored = None;
        let routed = self.route_net(net, &mut meter, &mut explored, garbage);
        let record = &mut self.stats[net.index()];
        record.nodes_expanded += meter.spent();
        record.over_budget |= meter.breach().is_some();
        record.routed = routed;
        record.search_bbox = union_bbox(record.search_bbox, explored);
        true
    }

    /// Routes one net: initiate a point-to-point connection, then
    /// expand to the remaining terminals one at a time (§5.5.3). All
    /// of the net's searches share `meter`, so the budget bounds the
    /// net as a whole; `explored` grows by what each search activated.
    ///
    /// The routed wire must connect the net's pins before it enters
    /// the diagram, which guards the salvage cascade (and the emitted
    /// diagram) against any router defect that produces disconnected
    /// wires; a `garbage` wire loses its last segment first. A failed
    /// search and a failed check roll back alike: the net keeps its
    /// preroute. Its claims stay lifted.
    fn route_net(
        &mut self,
        net: NetId,
        meter: &mut BudgetMeter,
        explored: &mut Option<(i32, i32, i32, i32)>,
        garbage: bool,
    ) -> bool {
        let pins = self.pins(net);
        // Claims of this net are lifted for the search (§5.7).
        self.map.remove_claims_of(net);

        let mut wired: Vec<Segment> = self
            .diagram
            .route(net)
            .map(|p| p.segments().to_vec())
            .unwrap_or_default();
        let prerouted = wired.len();
        // Each unconnected pin's distance to the wire, lowered by what
        // each connection adds (0 exactly where the wire touches the
        // pin); `None` once the pin is connected.
        let mut dist = vec![Some(u64::MAX); pins.len()];
        // Pins already touched by prerouted geometry are done.
        self.reach(&pins, &mut dist, &wired, 0, true);

        let mut ok = true;
        if wired.is_empty() {
            // INIT_NET: closest pair first; when an initiation fails,
            // try another pair (§5.5.3).
            let mut initiated = false;
            for (i, j) in init_pairs(&pins) {
                let mut search = self.search(net);
                for &d in exits(&pins[i].1) {
                    search.seed(Front::A, pins[i].0, d);
                }
                for &d in exits(&pins[j].1) {
                    search.seed(Front::B, pins[j].0, d);
                }
                let result = search.run(meter);
                *explored = union_bbox(*explored, search.explored_rect());
                if let SearchResult::Connected(conn) = result {
                    wired.extend(conn.segments);
                    self.map.rewire_net(net, &wired);
                    // Only the pair counts as connected: a pin the first
                    // wire runs over is still searched from.
                    self.reach(&pins, &mut dist, &wired, 0, false);
                    (dist[i], dist[j]) = (None, None);
                    initiated = true;
                    break;
                }
            }
            ok = initiated;
        }

        // EXPAND_NET: nearest unconnected pin towards the partial net.
        while ok {
            let next = (0..pins.len()).filter_map(|i| Some((dist[i]?, i))).min().map(|(_, i)| i);
            #[cfg(test)]
            let next = if self.router.old_bookkeeping {
                let unconnected = (0..pins.len()).filter(|&i| dist[i].is_some());
                unconnected.min_by_key(|&i| dist_to_wires(pins[i].0, &wired))
            } else {
                next
            };
            let Some(i) = next else { break };
            let mut search = self.search(net);
            for &d in exits(&pins[i].1) {
                search.seed(Front::A, pins[i].0, d);
            }
            let result = search.run(meter);
            *explored = union_bbox(*explored, search.explored_rect());
            match result {
                SearchResult::Connected(conn) => {
                    let from = wired.len();
                    wired.extend(conn.segments);
                    self.map.rewire_net(net, &wired);
                    dist[i] = None;
                    // A new stretch may run over further pins.
                    self.reach(&pins, &mut dist, &wired, from, true);
                }
                SearchResult::Unreachable | SearchResult::OverBudget => ok = false,
            }
        }

        let routed = ok.then(|| {
            let mut segments = merge_collinear(wired.iter().copied());
            if garbage {
                segments.pop();
            }
            NetPath::from_segments(segments)
        });
        let connected = routed.filter(|path| {
            let points: Vec<Point> = pins.iter().map(|&(p, _)| p).collect();
            path.connects(&points)
        });
        if let Some(path) = connected {
            self.diagram.set_route(net, path);
            return true;
        }
        // All-or-nothing: a failed net leaves no partial wires (the
        // prerouted part, if any, stays).
        self.map.rewire_net(net, &wired[..prerouted]);
        false
    }

    /// A search for `net` over the run's map, in the run's workspace.
    fn search(&mut self, net: NetId) -> Search<'_> {
        #[cfg(test)]
        crate::obstacles::tests::shuffle_tracks(&mut self.map);
        let swap = self.router.config.swap_tiebreak;
        Search::new(&self.map, net, swap, MAX_BENDS, &mut self.ws)
    }

    /// Lowers each unconnected pin's distance to the net's wire by
    /// `wired[from..]`, the segments a connection added. With `mark`,
    /// every pin the wire now touches becomes connected.
    fn reach(
        &self,
        pins: &[PinExit],
        dist: &mut [Option<u64>],
        wired: &[Segment],
        from: usize,
        mark: bool,
    ) {
        for ((p, _), d) in pins.iter().zip(dist) {
            let Some(old) = *d else { continue };
            let lowered = old.min(dist_to_wires(*p, &wired[from..]));
            let touched = lowered == 0;
            #[cfg(test)]
            let touched = if self.router.old_bookkeeping {
                wired.iter().any(|s| s.contains(*p))
            } else {
                touched
            };
            *d = (!(mark && touched)).then_some(lowered);
        }
    }

    /// Routed nets whose wires pass near the failed net's pins, lowest
    /// priority (fewest pins, latest definition) first, capped at
    /// [`MAX_VICTIMS`].
    fn pick_victims(&self, net: NetId) -> Vec<NetId> {
        let pins = self.pins(net);
        let Some(&(first, _)) = pins.first() else {
            return Vec::new();
        };
        let mut lo = first;
        let mut hi = first;
        for &(p, _) in &pins {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let zone = Rect::from_corners(lo, hi).inflate(2);
        let in_zone = |s: &Segment| {
            let (a, b) = s.endpoints();
            let (ll, ur) = (zone.lower_left(), zone.upper_right());
            match s.axis() {
                Axis::Horizontal => {
                    a.y >= ll.y && a.y <= ur.y && b.x >= ll.x && a.x <= ur.x
                }
                Axis::Vertical => {
                    a.x >= ll.x && a.x <= ur.x && b.y >= ll.y && a.y <= ur.y
                }
            }
        };
        let mut victims: Vec<NetId> = self
            .diagram
            .routes()
            .filter(|&(v, path)| v != net && path.segments().iter().any(in_zone))
            .map(|(v, _)| v)
            .collect();
        victims.sort_by_key(|&v| (self.network.net(v).pins().len(), usize::MAX - v.index()));
        victims.truncate(MAX_VICTIMS);
        victims
    }

    /// The salvage cascade for one failed net. Tries rip-up plus an
    /// escalated-budget retry, then the Lee fallback, then emits a
    /// ghost wire. Rip-up is all-or-nothing: if the net or any victim
    /// cannot be rerouted, every route is restored before moving on.
    /// Returns the step that settled the net; the nodes the cascade
    /// expands (escalated retries, victim reroutes and the Lee fallback
    /// combined) and the victims it picks go on the net's record.
    fn salvage_net(&mut self, net: NetId) -> SalvageStep {
        let over_budget = self.stats[net.index()].over_budget;
        let escalated = self.router.config.budget.scaled(ESCALATION_FACTOR);
        let victims = self.pick_victims(net);
        self.stats[net.index()].ripup_victims = victims.len() as u32;
        // Fault sites for the two salvage stages (inert by default):
        // see `fault_budget`; a `panic` unwinds to the phase boundary
        // in the core generator.
        let ripup_budget = if !victims.is_empty() || over_budget {
            fault_budget(netart_fault::fire(netart_fault::sites::ROUTE_SALVAGE_RIPUP), escalated)
        } else {
            None
        };
        if let Some(budget) = ripup_budget {
            let net_before = self.diagram.route(net).cloned();
            let saved: Vec<(NetId, NetPath)> = victims
                .iter()
                .filter_map(|&v| self.diagram.clear_route(v).map(|p| (v, p)))
                .collect();
            for (v, _) in &saved {
                self.map.remove_net(*v);
            }
            let mut ok = true;
            for n in std::iter::once(net).chain(saved.iter().map(|(v, _)| *v)) {
                // A cancelled run must not keep rerouting victims;
                // failing here rolls everything back below.
                ok = n == net || !self.router.cancelled();
                if ok {
                    let mut meter = self.router.meter(budget);
                    ok = self.route_net(n, &mut meter, &mut None, false);
                    self.stats[net.index()].nodes_expanded += meter.spent();
                }
                if !ok {
                    break;
                }
            }
            if ok {
                return SalvageStep::RipUpRetry;
            }
            // Roll back: drop whatever the retry added, restore the
            // net's own prior (pre)route and every victim.
            let victims = saved.into_iter().map(|(v, path)| (v, Some(path)));
            for (n, before) in std::iter::once((net, net_before)).chain(victims) {
                self.map.rewire_net(n, before.as_ref().map_or(&[], NetPath::segments));
                match before {
                    Some(path) => self.diagram.set_route(n, path),
                    None => {
                        self.diagram.clear_route(n);
                    }
                }
            }
        }

        let lee_budget =
            fault_budget(netart_fault::fire(netart_fault::sites::ROUTE_SALVAGE_LEE), escalated);
        // The Lee stage is skipped outright on a cancelled run — the
        // net goes straight to its ghost wire so salvage ends within
        // one poll stride of the cancellation instead of starting
        // another escalated maze search.
        if let Some(budget) = lee_budget.filter(|_| !self.router.cancelled()) {
            let (ok, nodes) = self.lee_fallback(net, budget);
            self.stats[net.index()].nodes_expanded += nodes;
            if ok {
                return SalvageStep::LeeFallback;
            }
        }

        // Last resort: an explicit placeholder so the diagram still
        // shows the connection.
        let pins = self.pins(net);
        let lines = pins
            .split_first()
            .map(|(&(first, _), rest)| rest.iter().map(|&(p, _)| (first, p)).collect())
            .unwrap_or_default();
        self.diagram.set_ghost(net, GhostWire { lines });
        SalvageStep::GhostWire
    }

    /// Routes a failed net with the Lee maze router, pin pair by pin
    /// pair, under `budget`: each unconnected pin nearest to a
    /// connected one goes to its nearest connected pin. All-or-nothing
    /// like the main router. Returns success plus the nodes the maze
    /// searches expanded.
    fn lee_fallback(&mut self, net: NetId, budget: Budget) -> (bool, u64) {
        let pins = self.pins(net);
        if pins.len() < 2 {
            return (false, 0);
        }
        let bounds = self.border.inflate(-1);

        let mut wired: Vec<Segment> = self
            .diagram
            .route(net)
            .map(|p| p.segments().to_vec())
            .unwrap_or_default();
        let prerouted = wired.len();
        // `None` marks a connected pin: one the preroute touches, else
        // the first.
        let mut dist = vec![Some(u64::MAX); pins.len()];
        self.reach(&pins, &mut dist, &wired, 0, true);
        if dist.iter().all(Option::is_some) {
            dist[0] = None;
        }

        let mut meter = self.router.meter(budget);
        let mut ok = true;
        while ok {
            let apart = |i: usize, j: usize| pins[i].0.manhattan(pins[j].0);
            let nearest = |i: usize| {
                (0..pins.len()).filter(|&j| dist[j].is_none()).min_by_key(|&j| apart(i, j))
            };
            let next = (0..pins.len())
                .filter(|&i| dist[i].is_some())
                .min_by_key(|&i| nearest(i).map_or(u64::MAX, |j| apart(i, j)));
            let Some(i) = next else { break };
            let Some(j) = nearest(i) else {
                ok = false;
                break;
            };
            let (from, to) = (pins[i].0, pins[j].0);
            #[cfg(test)]
            crate::obstacles::tests::shuffle_tracks(&mut self.map);
            match lee::route_two_points_metered(&self.map, bounds, from, to, net, &mut meter) {
                Some(path) => {
                    let added = wired.len();
                    wired.extend(path.segments());
                    self.map.rewire_net(net, &wired);
                    dist[i] = None;
                    self.reach(&pins, &mut dist, &wired, added, true);
                }
                None => ok = false,
            }
        }

        if ok {
            let path = NetPath::from_segments(merge_collinear(wired));
            self.diagram.set_route(net, path);
        } else {
            self.map.rewire_net(net, &wired[..prerouted]);
        }
        (ok, meter.spent())
    }
}

/// The pin pairs INIT_NET tries, closest first and ties by index. The
/// closest pair is found by a scan; all k(k-1)/2 pairs are listed and
/// sorted only if it fails.
fn init_pairs(pins: &[PinExit]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let n = pins.len();
    let pairs = move || (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)));
    let key = move |&(i, j): &(usize, usize)| (pins[i].0.manhattan(pins[j].0), i, j);
    let first = pairs().min_by_key(key);
    let rest = std::iter::once(()).flat_map(move |()| {
        let mut rest: Vec<_> = pairs().filter(|&p| Some(p) != first).collect();
        rest.sort_unstable_by_key(key);
        rest
    });
    first.into_iter().chain(rest)
}

/// Manhattan distance from a point to the nearest wire segment.
fn dist_to_wires(p: Point, wires: &[Segment]) -> u64 {
    wires
        .iter()
        .map(|s| {
            let (a, b) = s.endpoints();
            let nearest = match s.axis() {
                netart_geom::Axis::Horizontal => Point::new(p.x.clamp(a.x, b.x), s.track()),
                netart_geom::Axis::Vertical => Point::new(s.track(), p.y.clamp(a.y, b.y)),
            };
            p.manhattan(nearest)
        })
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use netart_geom::{Interval, Rotation};
    use netart_place::{Pablo, PlaceConfig};
    use proptest::prelude::*;

    use super::*;
    use netart_netlist::{Library, ModuleId, NetworkBuilder, Template, TermType};

    fn buf_lib() -> (Library, netart_netlist::TemplateId) {
        let mut lib = Library::new();
        let t = lib
            .add_template(
                Template::new("buf", (4, 2))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("y", (4, 1), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        (lib, t)
    }

    /// Two buffers placed facing each other with one net between them.
    fn simple_diagram() -> (Diagram, NetId) {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        let network = b.finish().unwrap();
        let n = network.net_by_name("n").unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(10, 0), Rotation::R0);
        (Diagram::new(network, placement), n)
    }

    #[test]
    fn straight_net_routes_clean() {
        let (mut d, n) = simple_diagram();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty());
        assert_eq!(report.routed, vec![n]);
        assert!(report.net_stats[n.index()].routed && report.salvaged.is_empty());
        let path = d.route(n).unwrap();
        assert_eq!(path.bends(), 0, "{:?}", path.segments());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    /// Three buffers at (0, 0), (10, 0) and (10, 8), one net from the
    /// first buffer's output to both other inputs.
    fn three_buffers() -> (Diagram, NetId) {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let u2 = b.add_instance("u2", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect_pin("n", u2, "a").unwrap();
        let network = b.finish().unwrap();
        let n = network.net_by_name("n").unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(10, 0), Rotation::R0);
        placement.place_module(u2, Point::new(10, 8), Rotation::R0);
        (Diagram::new(network, placement), n)
    }

    #[test]
    fn multipoint_net_routes_as_tree() {
        let (mut d, n) = three_buffers();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        let path = d.route(n).unwrap();
        let pins = [Point::new(4, 1), Point::new(10, 1), Point::new(10, 9)];
        assert!(path.connects(&pins), "{:?}", path.segments());
        assert!(path.is_tree());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    /// Routing cost follows the wires' segments, not their length:
    /// three buffers 10⁹ apart route as fast as three side by side.
    #[test]
    fn buffers_far_apart_route_in_no_time() {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let u2 = b.add_instance("u2", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect_pin("m", u1, "y").unwrap();
        b.connect_pin("m", u2, "a").unwrap();
        let network = b.finish().unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        let far = 1_000_000_000;
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(far, 0), Rotation::R0);
        placement.place_module(u2, Point::new(2 * far, 0), Rotation::R0);
        let mut d = Diagram::new(network, placement);
        let start = std::time::Instant::now();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        // Measuring and checking the 2×10⁹ units of wire costs nothing
        // per unit either.
        let metrics = d.metrics();
        let check = d.check();
        let took = start.elapsed();
        assert!(report.failed.is_empty(), "{report:?}");
        assert_eq!(report.routed.len(), 2);
        assert!(metrics.total_length > far as u64, "{metrics:?}");
        assert!(check.is_ok(), "{check}");
        assert!(took < std::time::Duration::from_millis(250), "{took:?}");
    }

    /// Three chained buffers at x = -`far`, 0 and `far`.
    fn three_buffers_apart(far: i32) -> Diagram {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let u2 = b.add_instance("u2", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect_pin("m", u1, "y").unwrap();
        b.connect_pin("m", u2, "a").unwrap();
        let network = b.finish().unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(-far, 0), Rotation::R0);
        placement.place_module(u1, Point::new(0, 0), Rotation::R0);
        placement.place_module(u2, Point::new(far, 0), Rotation::R0);
        Diagram::new(network, placement)
    }

    /// A placement wider than `i32::MAX` routes, measures and checks
    /// as promptly: three buffers at x = -1.09×10⁹, 0 and 1.09×10⁹.
    #[test]
    fn a_placement_wider_than_i32_routes_in_no_time() {
        let far = 1_090_000_000;
        let mut d = three_buffers_apart(far);
        let start = std::time::Instant::now();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        let metrics = d.metrics();
        let check = d.check();
        let took = start.elapsed();
        assert!(report.failed.is_empty(), "{report:?}");
        assert_eq!(report.routed.len(), 2);
        assert_eq!(metrics.bounding_area, (2 * far as u64 + 4) * 2);
        assert_eq!(metrics.total_length, 2 * far as u64 - 8, "{metrics:?}");
        assert!(check.is_ok(), "{check}");
        assert!(took < std::time::Duration::from_millis(250), "{took:?}");
    }

    /// One net whose pins lie more than `u32::MAX` apart routes,
    /// measures and checks as promptly: three buffers on a diagonal at
    /// (-1.09×10⁹, -1.09×10⁹), (0, 0) and (1.09×10⁹, 1.09×10⁹), whose
    /// outer pins INIT_NET's pair order and EXPAND_NET's pin distances
    /// measure 4.36×10⁹ apart.
    #[test]
    fn a_net_spanning_more_than_u32_routes_in_no_time() {
        let far = 1_090_000_000;
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let u2 = b.add_instance("u2", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect_pin("n", u2, "a").unwrap();
        let network = b.finish().unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(-far, -far), Rotation::R0);
        placement.place_module(u1, Point::new(0, 0), Rotation::R0);
        placement.place_module(u2, Point::new(far, far), Rotation::R0);
        let mut d = Diagram::new(network, placement);
        let start = std::time::Instant::now();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        let metrics = d.metrics();
        let check = d.check();
        let took = start.elapsed();
        assert!(report.failed.is_empty(), "{report:?}");
        assert_eq!(report.routed.len(), 1);
        assert!(metrics.total_length > u64::from(u32::MAX), "{metrics:?}");
        assert!(check.is_ok(), "{check}");
        assert!(took < std::time::Duration::from_millis(250), "{took:?}");
    }

    /// The same routed plane renders as SVG: the picture is 2.18×10⁹
    /// tracks wide, so its pixel frame only fits in `i64`.
    #[test]
    fn a_placement_wider_than_i32_renders_as_svg() {
        let far = 1_090_000_000;
        let mut d = three_buffers_apart(far);
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert_eq!(report.routed.len(), 2, "{report:?}");
        let width = (2 * i64::from(far) + 4 + 6) * 12;
        for svg in [
            netart_diagram::svg::render(&d),
            netart_diagram::svg::render_with_structure(&d),
        ] {
            let head = format!(r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}""#);
            assert!(svg.starts_with(&head), "{svg}");
            assert_eq!(netart_diagram::svg::wire_segment_count(&svg), 2, "{svg}");
        }
    }

    /// Two chained buffers, the first fed by a system terminal.
    fn system_terminal_diagram() -> Diagram {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let st = b.add_system_terminal("in", TermType::In).unwrap();
        b.connect("nin", st).unwrap();
        b.connect_pin("nin", u0, "a").unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        let network = b.finish().unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(0, 0), Rotation::R0);
        placement.place_module(u1, Point::new(10, 0), Rotation::R0);
        placement.place_system_term(st, Point::new(-3, 1));
        Diagram::new(network, placement)
    }

    #[test]
    fn system_terminal_net() {
        let mut d = system_terminal_diagram();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        assert!(d.check().is_ok(), "{}", d.check());
    }

    /// Net `na` owns a system terminal at (2, 8) and net `nb` one at
    /// the transposed point (8, 2); net `nc` (returned) runs between
    /// system terminals along y = 2.
    fn transposed_twin_diagram() -> (Diagram, NetId) {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let mut st = |name: &str, net: &str| {
            let id = b.add_system_terminal(name, TermType::In).unwrap();
            b.connect(net, id).unwrap();
            id
        };
        let a0 = st("a0", "na");
        let a1 = st("a1", "na");
        let c0 = st("c0", "nc");
        let c1 = st("c1", "nc");
        let b0 = st("b0", "nb");
        b.connect_pin("nb", u0, "a").unwrap();
        let network = b.finish().unwrap();
        let nc = network.net_by_name("nc").unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(14, 8), Rotation::R0);
        for (id, p) in [(a0, (2, 8)), (a1, (2, 10)), (c0, (4, 2)), (c1, (12, 2)), (b0, (8, 2))] {
            placement.place_system_term(id, Point::new(p.0, p.1));
        }
        (Diagram::new(network, placement), nc)
    }

    #[test]
    fn lifting_a_system_terminal_keeps_its_transposed_twin() {
        // Routing `na` lifts only its own points, so `nc`, routed next
        // straight along y = 2, must still go around `nb`'s terminal
        // instead of wiring through it.
        let (mut d, nc) = transposed_twin_diagram();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        let path = d.route(nc).unwrap();
        assert!(!path.contains(Point::new(8, 2)), "{:?}", path.segments());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn pre_cancelled_run_fails_every_net_without_searching() {
        let (mut d, n) = simple_diagram();
        let token = crate::CancelToken::new();
        token.cancel();
        let report =
            Eureka::new(RouteConfig::default().with_cancel(token)).route(&mut d);
        assert_eq!(report.failed, vec![n]);
        assert!(report.routed.is_empty());
        assert!(report.salvaged.is_empty(), "no salvage after cancel");
        assert!(d.route(n).is_none());
        let spent: u64 = report.net_stats.iter().map(|s| s.nodes_expanded).sum();
        assert_eq!(spent, 0, "cancelled run must not expand nodes");
        assert!(report.net_stats.iter().all(|s| !s.retried), "{:?}", report.net_stats);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let (mut d, n) = simple_diagram();
        let report =
            Eureka::new(RouteConfig::default().with_cancel(crate::CancelToken::new()))
                .route(&mut d);
        assert!(report.failed.is_empty());
        assert_eq!(report.routed, vec![n]);
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn prerouted_net_is_kept_and_respected() {
        let (mut d, n) = simple_diagram();
        // Preroute the net by hand on a silly detour.
        let pre = NetPath::from_segments(vec![
            Segment::vertical(4, 1, 5),
            Segment::horizontal(5, 4, 10),
            Segment::vertical(10, 1, 5),
        ]);
        d.set_route(n, pre.clone());
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty());
        assert_eq!(d.route(n).unwrap().segments(), pre.segments(), "untouched");
    }

    /// [`three_buffers`] with only the u0-u1 stretch prerouted.
    fn partially_prerouted() -> (Diagram, NetId) {
        let (mut d, n) = three_buffers();
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 10)]));
        (d, n)
    }

    #[test]
    fn partial_preroute_is_extended() {
        let (mut d, n) = partially_prerouted();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        let path = d.route(n).unwrap();
        assert!(path.connects(&[Point::new(4, 1), Point::new(10, 1), Point::new(10, 9)]));
        // The prerouted stretch survives verbatim.
        assert!(path.segments().iter().any(|s| s.contains(Point::new(7, 1))));
    }

    /// A buffer pair with u1 between tall walls.
    fn walled_diagram() -> Diagram {
        let (lib, t) = buf_lib();
        let mut wall_lib = lib;
        let wall = wall_lib
            .add_template(Template::new("wall", (2, 40)).unwrap())
            .unwrap();
        let mut b = NetworkBuilder::new(wall_lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        // Walls boxing u1's input completely.
        let w: Vec<ModuleId> = (0..4)
            .map(|i| b.add_instance(format!("w{i}"), wall).unwrap())
            .collect();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        let network = b.finish().unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(0, 18), Rotation::R0);
        // u1 inside a closed court of walls.
        placement.place_module(u1, Point::new(20, 18), Rotation::R0);
        placement.place_module(w[0], Point::new(17, 0), Rotation::R0); // left wall
        placement.place_module(w[1], Point::new(26, 0), Rotation::R0); // right wall
        placement.place_module(w[2], Point::new(19, 40), Rotation::R90); // hmm: top
        placement.place_module(w[3], Point::new(17, 40), Rotation::R0);
        // Build a simple closed box manually instead: left, right walls
        // tall; connect top/bottom with rotated walls.
        Diagram::new(network, placement)
    }

    #[test]
    fn blocked_net_reports_failure_without_partial_wires() {
        let mut d = walled_diagram();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        // Depending on wall geometry the net may be routable; the key
        // contract here: a failed net has no partial wires.
        for &f in &report.failed {
            assert!(d.route(f).is_none());
        }
    }

    /// The dense two-column scenario of §5.7 figure 5.10.
    fn two_columns() -> Diagram {
        let mut lib = Library::new();
        let left = lib
            .add_template(
                Template::new("l", (4, 6))
                    .unwrap()
                    .with_terminal("a", (4, 1), TermType::Out)
                    .unwrap()
                    .with_terminal("c", (4, 3), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        let right = lib
            .add_template(
                Template::new("r", (4, 6))
                    .unwrap()
                    .with_terminal("b", (0, 5), TermType::In)
                    .unwrap()
                    .with_terminal("d", (0, 3), TermType::In)
                    .unwrap(),
            )
            .unwrap();
        let mut b = NetworkBuilder::new(lib);
        let m0 = b.add_instance("m0", left).unwrap();
        let m1 = b.add_instance("m1", right).unwrap();
        b.connect_pin("ab", m0, "a").unwrap();
        b.connect_pin("ab", m1, "b").unwrap();
        b.connect_pin("cd", m0, "c").unwrap();
        b.connect_pin("cd", m1, "d").unwrap();
        let network = b.finish().unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(m0, Point::new(0, 0), Rotation::R0);
        placement.place_module(m1, Point::new(7, 0), Rotation::R0);
        Diagram::new(network, placement)
    }

    #[test]
    fn claims_reduce_terminal_blocking() {
        // With claims, both nets route; without, net order can strand C.
        let mut d = two_columns();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        assert!(d.check().is_ok(), "{}", d.check());
    }

    /// [`simple_diagram`] with a looping preroute, violating Appendix F.
    fn cyclically_prerouted() -> (Diagram, NetId) {
        let (mut d, n) = simple_diagram();
        d.set_route(
            n,
            NetPath::from_segments(vec![
                Segment::horizontal(1, 4, 10),
                Segment::horizontal(4, 4, 10),
                Segment::vertical(4, 1, 4),
                Segment::vertical(10, 1, 4),
            ]),
        );
        (d, n)
    }

    #[test]
    fn cyclic_preroute_is_dropped_and_rerouted() {
        let (mut d, n) = cyclically_prerouted();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        let path = d.route(n).unwrap();
        assert!(!path.has_cycle(), "{:?}", path.segments());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn deterministic_routing() {
        let (mut d1, _) = simple_diagram();
        let (mut d2, n) = simple_diagram();
        Eureka::new(RouteConfig::default()).route(&mut d1);
        Eureka::new(RouteConfig::default()).route(&mut d2);
        assert_eq!(d1.route(n).unwrap().segments(), d2.route(n).unwrap().segments());
    }

    #[test]
    fn lee_fallback_routes_a_failed_net() {
        let (mut d, n) = simple_diagram();
        let router = Eureka::new(RouteConfig::default());
        let (ok, nodes) = Run::new(&router, &mut d).lee_fallback(n, crate::Budget::UNLIMITED);
        assert!(ok, "lee fallback must connect a plainly routable net");
        assert!(nodes > 0, "maze search must report expanded nodes");
        let path = d.route(n).unwrap();
        assert!(path.connects(&[Point::new(4, 1), Point::new(10, 1)]));
        assert!(path.is_tree());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn lee_fallback_under_tiny_budget_reports_failure_and_rolls_back() {
        let (mut d, n) = simple_diagram();
        let router = Eureka::new(RouteConfig::default());
        let mut run = Run::new(&router, &mut d);
        let before = run.map.len();
        let (ok, _) = run.lee_fallback(n, crate::Budget::new().with_node_limit(1));
        assert!(!ok);
        assert_eq!(run.map.len(), before, "map rolled back to preroute state");
        assert!(d.route(n).is_none(), "failed fallback leaves no route");
    }

    /// A buffer pair whose sink pin is enclosed: a blocker module butts
    /// flush against u1, so the pin at their shared edge has no free
    /// neighbour.
    fn enclosed_pin() -> (Diagram, NetId) {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let blocker = b.add_instance("blocker", t).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        let network = b.finish().unwrap();
        let n = network.net_by_name("n").unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        placement.place_module(u0, Point::new(0, 10), Rotation::R0);
        placement.place_module(u1, Point::new(20, 10), Rotation::R0);
        placement.place_module(blocker, Point::new(16, 10), Rotation::R0);
        (Diagram::new(network, placement), n)
    }

    #[test]
    fn salvage_emits_ghost_when_nothing_works() {
        // No router — escalated or Lee — can reach the enclosed pin.
        let (mut d, n) = enclosed_pin();
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert_eq!(report.failed, vec![n]);
        assert_eq!(report.salvaged, vec![n]);
        assert_eq!(report.net_stats[n.index()].salvage, Some(SalvageStep::GhostWire));
        let ghost = d.ghost(n).expect("ghost wire recorded");
        assert_eq!(ghost.lines, vec![(Point::new(4, 11), Point::new(20, 11))]);
        assert!(d.route(n).is_none(), "ghosted net must not carry wires");
    }

    /// Claims exist only during the first pass: the failed net claims
    /// its terminals again when its first attempt fails, but not when
    /// its retry fails, so no claim is left to block the salvage
    /// cascade's searches.
    #[test]
    fn no_claim_outlives_the_first_pass() {
        let (mut d, n) = enclosed_pin();
        let router = Eureka::new(RouteConfig::default());
        assert!(router.config().claimpoints);
        let mut run = Run::new(&router, &mut d);
        let claims = |run: &Run| run.map.clone().remove_all_claims();
        run.first_pass(&[n]);
        // Each pin's claim is a point on both axes.
        assert_eq!(claims(&run), 4, "both pins claimed again after the first pass");
        run.retry_pass(&[n]);
        let record = run.stats[n.index()];
        assert!(record.retried && !record.routed, "{record:?}");
        assert_eq!(claims(&run), 0, "a claim outlived the first pass");
    }

    /// A failed net with a partial preroute claims nothing after its
    /// first attempt, just as the initial map gave it no claims.
    #[test]
    fn a_prerouted_net_gains_no_claims_in_the_first_pass() {
        let (mut d, n) = enclosed_pin();
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(11, 4, 8)]));
        let router = Eureka::new(RouteConfig::default());
        assert!(router.config().claimpoints);
        let mut run = Run::new(&router, &mut d);
        let claims = |run: &Run| run.map.clone().remove_all_claims();
        assert_eq!(claims(&run), 0, "the initial map claims nothing for a prerouted net");
        run.first_pass(&[n]);
        assert!(!run.stats[n.index()].routed);
        assert_eq!(claims(&run), 0, "the failed attempt claimed the prerouted net's pins");
    }

    /// Net `good` routes straight through the corridor next to net
    /// `bad`'s pins, and `bad`'s sink pin is enclosed. Returns the
    /// diagram, `good` and `bad`.
    fn rip_up_diagram() -> (Diagram, NetId, NetId) {
        let (lib, t) = buf_lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", t).unwrap();
        let u1 = b.add_instance("u1", t).unwrap();
        let u2 = b.add_instance("u2", t).unwrap();
        let u3 = b.add_instance("u3", t).unwrap();
        let blocker = b.add_instance("blocker", t).unwrap();
        b.connect_pin("good", u0, "y").unwrap();
        b.connect_pin("good", u1, "a").unwrap();
        b.connect_pin("bad", u2, "y").unwrap();
        b.connect_pin("bad", u3, "a").unwrap();
        let network = b.finish().unwrap();
        let good = network.net_by_name("good").unwrap();
        let bad = network.net_by_name("bad").unwrap();
        let mut placement = netart_diagram::Placement::new(&network);
        // `good` spans (4,9)-(10,9), inside the rip-up zone around
        // `bad`'s pins at (4,11) and (20,11).
        placement.place_module(u0, Point::new(0, 8), Rotation::R0);
        placement.place_module(u1, Point::new(10, 8), Rotation::R0);
        placement.place_module(u2, Point::new(0, 10), Rotation::R0);
        placement.place_module(u3, Point::new(20, 10), Rotation::R0);
        placement.place_module(blocker, Point::new(16, 10), Rotation::R0);
        (Diagram::new(network, placement), good, bad)
    }

    #[test]
    fn rip_up_rollback_preserves_victim_routes() {
        // Salvage picks `good` as a rip-up victim; `bad` stays
        // unroutable, so the cascade must roll `good` back verbatim
        // before ghosting `bad`.
        let (mut d, good, bad) = rip_up_diagram();
        let router = Eureka::new(RouteConfig::default());
        assert_eq!(
            Run::new(&router, &mut d).pick_victims(bad),
            vec![],
            "nothing routed yet, no victims"
        );
        let report = router.route(&mut d);
        assert!(report.routed.contains(&good), "{report:?}");
        assert_eq!(report.failed, vec![bad]);
        let path = d.route(good).expect("victim restored after rollback");
        assert!(path.connects(&[Point::new(4, 9), Point::new(10, 9)]));
        assert!(d.ghost(bad).is_some());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    /// A routed net's wire cut back to its first `keep` segments, each
    /// longer one cut into two pieces that overlap by one unit, and the
    /// first piece repeated: a partial preroute with collinear overlaps
    /// and, where the net branches, T-junctions.
    fn partial_preroute(segments: &[Segment], keep: usize) -> Vec<Segment> {
        let mut pre = Vec::new();
        for s in &segments[..keep.clamp(1, segments.len())] {
            let (lo, hi) = (s.span().lo(), s.span().hi());
            if hi - lo >= 2 {
                let mid = lo + (hi - lo) / 2;
                pre.push(Segment::on_axis(s.axis(), s.track(), Interval::new(lo, mid + 1)));
                pre.push(Segment::on_axis(s.axis(), s.track(), Interval::new(mid, hi)));
            } else {
                pre.push(*s);
            }
        }
        pre.push(pre[0]);
        pre
    }

    /// Everything a routing run returns, as text. Each salvaged net
    /// prints as one cascade record: its step, budget state and
    /// victims, and the nodes the cascade alone spent on it, its count
    /// less the one in `pre_salvage` (the same run without the cascade,
    /// which runs last).
    fn outcome(d: &Diagram, report: &RouteReport, pre_salvage: &[NetRouteStats]) -> String {
        let salvaged: Vec<String> = report
            .salvaged
            .iter()
            .map(|&n| {
                let s = report.net_stats[n.index()];
                format!(
                    "SalvageRecord {{ net: {n:?}, step: {:?}, over_budget: {}, nodes_spent: {}, \
                     ripup_victims: {} }}",
                    s.salvage.expect("salvaged net has a step"),
                    s.over_budget,
                    s.nodes_expanded - pre_salvage[n.index()].nodes_expanded,
                    s.ripup_victims,
                )
            })
            .collect();
        format!(
            "{}{}{:?} {:?} [{}]\n{:?}",
            netart_diagram::escher::write_diagram("d", d),
            netart_diagram::svg::render(d),
            report.routed,
            report.failed,
            salvaged.join(", "),
            report.net_stats,
        )
    }

    /// Folds `text` into a 64-bit FNV-1a hash.
    fn fnv1a(hash: u64, text: &str) -> u64 {
        text.bytes().fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The diagrams of the golden grid: the hand-built diagrams above,
    /// a partial and a cyclic preroute, and seeded random networks.
    fn golden_diagrams() -> Vec<Diagram> {
        let mut diagrams = vec![
            simple_diagram().0,
            three_buffers().0,
            system_terminal_diagram(),
            transposed_twin_diagram().0,
            walled_diagram(),
            two_columns(),
            enclosed_pin().0,
            rip_up_diagram().0,
            partially_prerouted().0,
            cyclically_prerouted().0,
        ];
        for seed in 0..GOLDEN_SEEDS {
            let spec = netart_workloads::RandomSpec {
                modules: 14,
                nets: 16,
                max_fanout: 4,
                system_terminals: 2,
                seed,
            };
            let network = netart_workloads::random_network(&spec);
            let placement = Pablo::new(PlaceConfig::strings()).place(&network);
            diagrams.push(Diagram::new(network, placement));
        }
        diagrams
    }

    const GOLDEN_SEEDS: u64 = 8;

    /// Every routing outcome of a fixed grid of diagrams and options
    /// hashes to its golden digest, so the passes, the salvage cascade
    /// and the report change only where a digest is updated on
    /// purpose; and it does so with the map's tracks shuffled too. The
    /// grid reaches every salvage step, a rip-up roll-back and a net
    /// that only the retry pass routed.
    #[test]
    fn routing_outcomes_match_their_golden_digests() {
        let cancelled = crate::CancelToken::new();
        cancelled.cancel();
        let base = RouteConfig::default;
        let grid = [
            ("default", base(), 0xa046_8d26_caba_0189),
            ("most-pins-first", base().with_order(NetOrder::MostPinsFirst), 0x4527_7659_bcc9_fdc8),
            (
                "fewest-pins-first",
                base().with_order(NetOrder::FewestPinsFirst),
                0x7102_2644_1098_6386,
            ),
            ("no-claims", base().without_claimpoints(), 0xe881_8b11_0df6_6e01),
            ("no-retry", base().without_retry(), 0x981e_ce50_3a26_edd6),
            ("no-salvage", base().without_salvage(), 0x672e_f2fe_ba85_236d),
            ("margin-1", base().with_margin(1), 0x414f_06ee_a9be_df78),
            (
                "fixed-borders",
                base().with_fixed_left().with_fixed_right().with_fixed_down().with_fixed_up(),
                0xbbb9_082e_fde2_f490,
            ),
            (
                "small-budget",
                base().with_budget(crate::Budget::new().with_node_limit(1)),
                0x1e30_1aa1_4732_de85,
            ),
            ("pre-cancelled", base().with_cancel(cancelled), 0xef25_3bb2_2744_aed1),
        ];
        let mut steps = Vec::new();
        let (mut rolled_back, mut retried) = (false, false);
        // Each option set runs as it is, then with every track of the
        // map shuffled before each search: the outcome must not depend
        // on the order the map's edits left its lists in.
        let [mut digests, mut shuffled] = [Vec::new(), Vec::new()];
        for (name, config, _) in &grid {
            for (shuffle, digests) in [(None, &mut digests), (Some(0x5eed), &mut shuffled)] {
                let router = Eureka { shuffle, ..Eureka::new(config.clone()) };
                let bare = Eureka { shuffle, ..Eureka::new(config.clone().without_salvage()) };
                let mut digest = 0xcbf2_9ce4_8422_2325;
                for mut d in golden_diagrams() {
                    let pre_salvage = bare.route(&mut d.clone()).net_stats;
                    let report = router.route(&mut d);
                    for s in &report.net_stats {
                        if let Some(step) = s.salvage {
                            steps.push(step);
                            rolled_back |= s.ripup_victims > 0 && step != SalvageStep::RipUpRetry;
                        }
                    }
                    retried |= report
                        .net_stats
                        .iter()
                        .any(|s| s.retried && s.routed && s.salvage.is_none());
                    digest = fnv1a(digest, &outcome(&d, &report, &pre_salvage));
                }
                digests.push((*name, digest));
            }
        }
        let golden: Vec<(&str, u64)> = grid.iter().map(|&(name, _, d)| (name, d)).collect();
        assert_eq!(digests, golden);
        assert_eq!(shuffled, golden, "shuffled tracks");
        for step in [SalvageStep::RipUpRetry, SalvageStep::LeeFallback, SalvageStep::GhostWire] {
            assert!(steps.contains(&step), "no net ended in {step:?}");
        }
        assert!(rolled_back, "no rip-up was rolled back");
        assert!(retried, "no net was routed by the retry pass");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-connection bookkeeping (pin distances lowered by what
        /// a connection adds, the sorting merge, the binary-search split)
        /// routes exactly as the whole-wire rescans, the first-fit merge
        /// and the scanning split did: on random networks with wide
        /// nets and system terminals, partly prerouted, under node
        /// budgets tight enough to send nets through salvage.
        #[test]
        fn per_connection_bookkeeping_matches_whole_wire_rescans(
            (modules, nets, fanout) in (2usize..20, 1usize..12, 2usize..16),
            (terms, seed) in (0usize..3, 0u64..500),
            prerouted in any::<u64>(),
            keep in 1usize..6,
            node_limit in prop::sample::select(vec![None, Some(1u64), Some(40), Some(400)]),
            claims in any::<bool>(),
        ) {
            let spec = netart_workloads::RandomSpec {
                modules, nets, max_fanout: fanout, system_terminals: terms, seed,
            };
            let network = netart_workloads::random_network(&spec);
            let placement = Pablo::new(PlaceConfig::strings()).place(&network);
            let mut routed = Diagram::new(network.clone(), placement.clone());
            Eureka::new(RouteConfig::default()).route(&mut routed);
            let mut diagram = Diagram::new(network.clone(), placement);
            for n in network.nets() {
                let Some(path) = routed.route(n) else { continue };
                let pre = partial_preroute(path.segments(), keep);
                // Where first-fit leaves touching runs apart, the two
                // merges differ by design.
                let mut runs = pre.clone();
                netart_geom::coalesce(&mut runs);
                let maximal = crate::expand::merge_first_fit(&pre).len()
                    == runs.iter().filter(|r| !r.is_point()).count();
                if (prerouted >> (n.index() % 64)) & 1 == 1 && maximal {
                    diagram.set_route(n, NetPath::from_segments(pre));
                }
            }
            let mut config = RouteConfig { claimpoints: claims, ..RouteConfig::default() };
            if let Some(limit) = node_limit {
                config = config.with_budget(crate::Budget::new().with_node_limit(limit));
            }
            let runs = [false, true].map(|old_bookkeeping| {
                let bare = config.clone().without_salvage();
                let bare = Eureka { old_bookkeeping, ..Eureka::new(bare) };
                let pre_salvage = bare.route(&mut diagram.clone()).net_stats;
                let mut d = diagram.clone();
                let report = Eureka { old_bookkeeping, ..Eureka::new(config.clone()) }.route(&mut d);
                outcome(&d, &report, &pre_salvage)
            });
            prop_assert_eq!(&runs[0], &runs[1]);
        }

        /// INIT_NET tries the pin pairs in the order of the sorted list
        /// of all pairs it replaced: by distance, then by index.
        #[test]
        fn init_pairs_come_in_the_sorted_list_order(
            points in prop::collection::vec((0i32..6, 0i32..6), 0..9),
        ) {
            let pins: Vec<PinExit> =
                points.iter().map(|&(x, y)| (Point::new(x, y), None)).collect();
            let mut pairs = Vec::new();
            for i in 0..pins.len() {
                for j in (i + 1)..pins.len() {
                    pairs.push((i, j));
                }
            }
            pairs.sort_by_key(|&(i, j)| pins[i].0.manhattan(pins[j].0));
            prop_assert_eq!(init_pairs(&pins).collect::<Vec<_>>(), pairs);
        }
    }
}
