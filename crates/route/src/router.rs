//! The EUREKA routing facade (§5.6.3 `ROUTING`, Appendix F).

use std::collections::BTreeMap;

use netart_geom::{Axis, Dir, Point, Rect, Segment};
use netart_netlist::{NetId, Network, Pin};
use tracing::{debug, span, warn, Level};

use netart_diagram::{Diagram, GhostWire, NetPath};
use netart_fault::FaultKind;

use crate::budget::BudgetMeter;
use crate::expand::{merge_collinear, Front, Search, SearchResult, Workspace};
use crate::{lee, NetOrder, ObstacleKind, ObstacleMap, RouteConfig};

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

/// Record of one net that went through the salvage cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageRecord {
    /// The net that the main passes could not route.
    pub net: NetId,
    /// The step that finally handled it.
    pub step: SalvageStep,
    /// `true` when the original failure was a budget breach rather
    /// than an exhausted search.
    pub over_budget: bool,
    /// Search nodes the cascade itself expanded for this net (escalated
    /// retries, victim reroutes and the Lee fallback combined).
    pub nodes_spent: u64,
    /// Routed nets ripped up while trying to make room.
    pub ripup_victims: u32,
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

/// One budgeted attempt's outcome: `(routed, nodes expanded, over
/// budget, explored bbox)`.
type AttemptResult = (bool, u64, bool, Option<(i32, i32, i32, i32)>);

/// Union of two optional bounding boxes (`(min_x, min_y, max_x,
/// max_y)` each).
fn union_bbox(
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
    /// salvaged, and how each one ended.
    pub salvaged: Vec<SalvageRecord>,
    /// Per-net effort counters, in net-id order.
    pub net_stats: Vec<NetRouteStats>,
}

impl RouteReport {
    /// Fraction of attempted nets that were routed; `1.0` when nothing
    /// was attempted.
    pub fn completion(&self) -> f64 {
        let total = self.routed.len() + self.failed.len();
        if total == 0 {
            1.0
        } else {
            self.routed.len() as f64 / total as f64
        }
    }
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
}

impl Eureka {
    /// A router with the given options.
    pub fn new(config: RouteConfig) -> Self {
        Eureka {
            config,
            #[cfg(test)]
            old_bookkeeping: false,
        }
    }

    /// The options in use.
    pub fn config(&self) -> &RouteConfig {
        &self.config
    }

    /// Starts a meter for `budget`, attaching the run's cancellation
    /// token (if any) so every per-net search honours it.
    fn meter(&self, budget: crate::Budget) -> BudgetMeter {
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
        let network = diagram.network().clone();
        assert!(
            diagram.placement().is_complete(),
            "routing requires a complete placement"
        );

        // Appendix F: "the nets may not contain a cycle".
        for n in network.nets() {
            if diagram.route(n).is_some_and(NetPath::has_cycle) {
                diagram.clear_route(n);
            }
        }

        let mut map = self.build_map(diagram, &network);
        // One search workspace serves every search of the run.
        let mut ws = Workspace::default();

        // Net selection order: definition order by default, §7's
        // smarter criteria on request.
        let mut todo: Vec<NetId> = network.nets().collect();
        match self.config.order {
            NetOrder::Definition => {}
            NetOrder::MostPinsFirst => {
                todo.sort_by_key(|&n| (usize::MAX - network.net(n).pins().len(), n));
            }
            NetOrder::FewestPinsFirst => {
                todo.sort_by_key(|&n| (network.net(n).pins().len(), n));
            }
        }
        let mut report = RouteReport::default();
        let mut stats: BTreeMap<NetId, NetRouteStats> = BTreeMap::new();
        let mut failed_first_pass = Vec::new();
        // Fault injection (inert unless the `fault-injection` feature
        // is on): the `route.net` site counts net visits; once armed
        // it poisons exactly one net, and the poison persists through
        // the retry pass so the fault must surface via the salvage
        // cascade rather than vanish in a silent retry.
        let mut injected: Option<(NetId, FaultKind)> = None;
        for n in todo {
            if let Some(kind) = netart_fault::fire(netart_fault::sites::ROUTE_NET) {
                injected.get_or_insert((n, kind));
            }
            let entry = stats.entry(n).or_insert_with(|| NetRouteStats::attempt(n));
            let prerouted_complete = diagram.route(n).is_some_and(|p| {
                let pins: Vec<Point> = network
                    .net(n)
                    .pins()
                    .iter()
                    .map(|&pin| diagram.placement().pin_position(&network, pin))
                    .collect();
                p.connects(&pins)
            });
            if prerouted_complete {
                entry.routed = true;
                entry.prerouted = true;
                report.routed.push(n);
                continue;
            }
            if self.cancelled() {
                // Drain: remaining nets are recorded as failed without
                // spending any more search effort.
                failed_first_pass.push((n, false));
                continue;
            }
            let net_span = span!(Level::DEBUG, "eureka.net", net = network.net(n).name());
            let _guard = net_span.enter();
            let sabotage = injected.and_then(|(victim, kind)| (victim == n).then_some(kind));
            let (routed, nodes, over_budget, explored) =
                self.attempt_net(diagram, &network, &mut map, &mut ws, n, sabotage);
            entry.nodes_expanded += nodes;
            entry.over_budget |= over_budget;
            entry.routed = routed;
            entry.search_bbox = union_bbox(entry.search_bbox, explored);
            debug!(
                "first pass",
                net = network.net(n).name(),
                routed = routed,
                nodes = nodes,
                over_budget = over_budget,
            );
            if routed {
                report.routed.push(n);
            } else {
                failed_first_pass.push((n, over_budget));
            }
        }

        // §5.7: lift every remaining claimpoint and retry the failures.
        if self.config.retry_failed && !failed_first_pass.is_empty() {
            map.remove_all_claims();
        }
        let mut failures: Vec<(NetId, bool)> = Vec::new();
        for (n, over_budget) in failed_first_pass {
            let net_span = span!(Level::DEBUG, "eureka.retry", net = network.net(n).name());
            let _guard = net_span.enter();
            let sabotage = injected.and_then(|(victim, kind)| (victim == n).then_some(kind));
            let (routed, nodes, over, explored) = if self.config.retry_failed && !self.cancelled() {
                self.attempt_net(diagram, &network, &mut map, &mut ws, n, sabotage)
            } else {
                (false, 0, false, None)
            };
            let entry = stats.entry(n).or_insert_with(|| NetRouteStats::attempt(n));
            entry.nodes_expanded += nodes;
            entry.over_budget |= over;
            entry.retried = self.config.retry_failed;
            entry.routed = routed;
            entry.search_bbox = union_bbox(entry.search_bbox, explored);
            if routed {
                report.routed.push(n);
            } else {
                failures.push((n, over_budget || over));
            }
        }

        // The salvage cascade: rip-up + escalated retry, then the Lee
        // fallback, then a ghost wire. Claims are irrelevant this deep.
        if self.config.salvage && !failures.is_empty() && !self.cancelled() {
            map.remove_all_claims();
            let pending = std::mem::take(&mut failures);
            for (n, over_budget) in pending {
                if self.cancelled() {
                    // Cancelled mid-cascade: report the rest as plain
                    // failures, unsalvaged.
                    failures.push((n, over_budget));
                    continue;
                }
                let net_span = span!(Level::DEBUG, "eureka.salvage", net = network.net(n).name());
                let _guard = net_span.enter();
                let (step, nodes_spent, ripup_victims) =
                    self.salvage_net(diagram, &network, &mut map, &mut ws, n, over_budget);
                warn!(
                    "net salvaged",
                    net = network.net(n).name(),
                    step = step.as_str(),
                    over_budget = over_budget,
                    nodes = nodes_spent,
                    victims = ripup_victims,
                );
                report.salvaged.push(SalvageRecord {
                    net: n,
                    step,
                    over_budget,
                    nodes_spent,
                    ripup_victims,
                });
                let entry = stats.entry(n).or_insert_with(|| NetRouteStats::attempt(n));
                entry.nodes_expanded += nodes_spent;
                entry.salvage = Some(step);
                entry.ripup_victims = ripup_victims;
                match step {
                    SalvageStep::RipUpRetry | SalvageStep::LeeFallback => {
                        entry.routed = true;
                        report.routed.push(n);
                    }
                    SalvageStep::GhostWire => report.failed.push(n),
                }
            }
        }
        report.failed.extend(failures.into_iter().map(|(n, _)| n));
        report.routed.sort_unstable();
        report.failed.sort_unstable();
        report.net_stats = stats.into_values().collect();
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
    /// claims and prerouted nets).
    fn build_map(&self, diagram: &Diagram, network: &Network) -> ObstacleMap {
        let placement = diagram.placement();
        let mut map = ObstacleMap::new();
        #[cfg(test)]
        {
            map.old_bookkeeping = self.old_bookkeeping;
        }

        let border = self.border_rect(diagram, network);
        map.add_rect(&border, ObstacleKind::Module);

        for m in network.modules() {
            map.add_rect(&placement.module_rect(network, m), ObstacleKind::Module);
        }
        for st in network.system_terms() {
            let p = placement.system_term(st).expect("complete placement");
            map.add_point(p, ObstacleKind::Module);
        }
        for (n, path) in diagram.routes() {
            map.rewire_net(n, path.segments());
        }
        if self.config.claimpoints {
            for n in network.nets() {
                if diagram.route(n).is_some() {
                    continue;
                }
                for &pin in network.net(n).pins() {
                    if let Pin::Sub { module, term } = pin {
                        let pos = placement.terminal_position(network, module, term);
                        let side = placement.terminal_side(network, module, term);
                        let claim = pos.step(side);
                        if border.contains_strictly(claim) {
                            map.add_point(claim, ObstacleKind::Claim(n));
                        }
                    }
                }
            }
        }
        map
    }

    /// Routes one net: initiate a point-to-point connection, then
    /// expand to the remaining terminals one at a time (§5.5.3). All
    /// of the net's searches share `meter`, so the budget bounds the
    /// net as a whole.
    #[allow(clippy::too_many_arguments)]
    fn route_net(
        &self,
        diagram: &mut Diagram,
        network: &Network,
        map: &mut ObstacleMap,
        ws: &mut Workspace,
        net: NetId,
        meter: &mut BudgetMeter,
        explored: &mut Option<(i32, i32, i32, i32)>,
    ) -> bool {
        let placement = diagram.placement();
        let pins: Vec<(Point, Vec<Dir>)> = network
            .net(net)
            .pins()
            .iter()
            .map(|&pin| match pin {
                Pin::Sub { module, term } => (
                    placement.terminal_position(network, module, term),
                    vec![placement.terminal_side(network, module, term)],
                ),
                Pin::System(st) => (
                    placement.system_term(st).expect("complete placement"),
                    Dir::ALL.to_vec(),
                ),
            })
            .collect();

        // Claims of this net are lifted for the search (§5.7) and its
        // system terminal points stop blocking their own net.
        map.remove_claims_of(net);
        let st_points = Self::system_term_points(diagram, network, net);
        map.lift_terminals(&st_points);

        let mut wired: Vec<Segment> = diagram
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
                let mut search = Search::new(map, net, self.config.swap_tiebreak, MAX_BENDS, ws);
                for &d in &pins[i].1 {
                    search.seed(Front::A, pins[i].0, d);
                }
                for &d in &pins[j].1 {
                    search.seed(Front::B, pins[j].0, d);
                }
                let result = search.run(meter);
                *explored = union_bbox(*explored, search.explored_rect());
                if let SearchResult::Connected(conn) = result {
                    wired.extend(conn.segments);
                    map.rewire_net(net, &wired);
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
            let next = if self.old_bookkeeping {
                let unconnected = (0..pins.len()).filter(|&i| dist[i].is_some());
                unconnected.min_by_key(|&i| dist_to_wires(pins[i].0, &wired))
            } else {
                next
            };
            let Some(i) = next else { break };
            let mut search = Search::new(map, net, self.config.swap_tiebreak, MAX_BENDS, ws);
            for &d in &pins[i].1 {
                search.seed(Front::A, pins[i].0, d);
            }
            let result = search.run(meter);
            *explored = union_bbox(*explored, search.explored_rect());
            match result {
                SearchResult::Connected(conn) => {
                    let from = wired.len();
                    wired.extend(conn.segments);
                    map.rewire_net(net, &wired);
                    dist[i] = None;
                    // A new stretch may run over further pins.
                    self.reach(&pins, &mut dist, &wired, from, true);
                }
                SearchResult::Unreachable | SearchResult::OverBudget => ok = false,
            }
        }

        // Restore the system terminal point obstacles.
        map.restore_terminals(&st_points);

        if ok {
            diagram.set_route(net, NetPath::from_segments(merge_collinear(wired)));
            true
        } else {
            // All-or-nothing: a failed net leaves no partial wires (the
            // prerouted part, if any, stays).
            map.rewire_net(net, &wired[..prerouted]);
            // Re-claim the terminals so the spots stay protected until
            // the retry pass.
            if self.config.claimpoints {
                for (p, dirs) in &pins {
                    if dirs.len() == 1 {
                        map.add_point(p.step(dirs[0]), ObstacleKind::Claim(net));
                    }
                }
            }
            false
        }
    }

    /// Lowers each unconnected pin's distance to the net's wire by
    /// `wired[from..]`, the segments a connection added. With `mark`,
    /// every pin the wire now touches becomes connected.
    fn reach(
        &self,
        pins: &[(Point, Vec<Dir>)],
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
            let touched = if self.old_bookkeeping {
                wired.iter().any(|s| s.contains(*p))
            } else {
                touched
            };
            *d = (!(mark && touched)).then_some(lowered);
        }
    }

    /// One budgeted attempt at a net, shared by the first and retry
    /// passes. `sabotage` carries the injected fault for this net, if
    /// any: `BudgetExhaust` swaps in a zero-node budget, `Error` skips
    /// the attempt outright, `GarbageOutput` truncates the freshly
    /// routed path so the self-check below has something to catch.
    ///
    /// Every successful attempt is re-verified: the emitted geometry
    /// must actually connect the net's pins, otherwise the route is
    /// torn back out and the attempt reported as failed. This guards
    /// the salvage cascade (and the emitted diagram) against any
    /// router defect that produces disconnected wires.
    ///
    /// Returns `(routed, nodes expanded, over budget, explored bbox)`.
    fn attempt_net(
        &self,
        diagram: &mut Diagram,
        network: &Network,
        map: &mut ObstacleMap,
        ws: &mut Workspace,
        net: NetId,
        sabotage: Option<FaultKind>,
    ) -> AttemptResult {
        let budget = if sabotage == Some(FaultKind::BudgetExhaust) {
            crate::Budget::new().with_node_limit(0)
        } else {
            self.config.budget
        };
        let mut meter = self.meter(budget);
        let mut explored = None;
        let mut routed = sabotage != Some(FaultKind::Error)
            && self.route_net(diagram, network, map, ws, net, &mut meter, &mut explored);
        if routed {
            if sabotage == Some(FaultKind::GarbageOutput) {
                if let Some(path) = diagram.clear_route(net) {
                    let mut segments = path.segments().to_vec();
                    segments.pop();
                    diagram.set_route(net, NetPath::from_segments(segments));
                }
            }
            let pins = Self::pin_points(diagram, network, net);
            let connected = diagram.route(net).is_some_and(|p| p.connects(&pins));
            if !connected {
                map.remove_net(net);
                diagram.clear_route(net);
                routed = false;
            }
        }
        (routed, meter.spent(), meter.breach().is_some(), explored)
    }

    /// The placed positions of a net's pins.
    fn pin_points(diagram: &Diagram, network: &Network, net: NetId) -> Vec<Point> {
        let placement = diagram.placement();
        network
            .net(net)
            .pins()
            .iter()
            .map(|&pin| placement.pin_position(network, pin))
            .collect()
    }

    /// The placed positions of a net's system terminals.
    fn system_term_points(diagram: &Diagram, network: &Network, net: NetId) -> Vec<Point> {
        network
            .net(net)
            .pins()
            .iter()
            .filter_map(|&pin| match pin {
                Pin::System(st) => diagram.placement().system_term(st),
                Pin::Sub { .. } => None,
            })
            .collect()
    }

    /// Routed nets whose wires pass near the failed net's pins, lowest
    /// priority (fewest pins, latest definition) first, capped at
    /// [`MAX_VICTIMS`].
    fn pick_victims(&self, diagram: &Diagram, network: &Network, net: NetId) -> Vec<NetId> {
        let pins = Self::pin_points(diagram, network, net);
        let Some(&first) = pins.first() else {
            return Vec::new();
        };
        let mut lo = first;
        let mut hi = first;
        for p in &pins {
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
        let mut victims: Vec<NetId> = diagram
            .routes()
            .filter(|&(v, path)| v != net && path.segments().iter().any(in_zone))
            .map(|(v, _)| v)
            .collect();
        victims.sort_by_key(|&v| (network.net(v).pins().len(), usize::MAX - v.index()));
        victims.truncate(MAX_VICTIMS);
        victims
    }

    /// The salvage cascade for one failed net. Tries rip-up plus an
    /// escalated-budget retry, then the Lee fallback, then emits a
    /// ghost wire. Rip-up is all-or-nothing: if the net or any victim
    /// cannot be rerouted, every route is restored before moving on.
    ///
    /// Returns the step that handled the net, the search nodes the
    /// cascade expanded, and how many routed nets it ripped up.
    fn salvage_net(
        &self,
        diagram: &mut Diagram,
        network: &Network,
        map: &mut ObstacleMap,
        ws: &mut Workspace,
        net: NetId,
        over_budget: bool,
    ) -> (SalvageStep, u64, u32) {
        let escalated = self.config.budget.scaled(ESCALATION_FACTOR);
        let mut nodes_spent: u64 = 0;

        let victims = self.pick_victims(diagram, network, net);
        let ripup_victims = victims.len() as u32;
        // Fault sites for the two salvage stages (inert by default):
        // an injected `error`/`garbage-output` makes the stage come up
        // empty, `budget-exhaust` starves its escalated budget, and
        // `panic` unwinds to the phase boundary in the core generator.
        let ripup_inject = if !victims.is_empty() || over_budget {
            netart_fault::fire(netart_fault::sites::ROUTE_SALVAGE_RIPUP)
        } else {
            None
        };
        let skip_ripup =
            matches!(ripup_inject, Some(FaultKind::Error | FaultKind::GarbageOutput));
        let ripup_budget = if ripup_inject == Some(FaultKind::BudgetExhaust) {
            crate::Budget::new().with_node_limit(0)
        } else {
            escalated
        };
        if (!victims.is_empty() || over_budget) && !skip_ripup {
            let net_before = diagram.route(net).cloned();
            let saved: Vec<(NetId, NetPath)> = victims
                .iter()
                .filter_map(|&v| diagram.clear_route(v).map(|p| (v, p)))
                .collect();
            for (v, _) in &saved {
                map.remove_net(*v);
            }
            let mut ok = {
                let mut meter = self.meter(ripup_budget);
                let routed =
                    self.route_net(diagram, network, map, ws, net, &mut meter, &mut None);
                nodes_spent += meter.spent();
                routed
            };
            if ok {
                for (v, _) in &saved {
                    // A cancelled run must not keep rerouting victims;
                    // failing here rolls everything back below.
                    if self.cancelled() {
                        ok = false;
                        break;
                    }
                    let mut meter = self.meter(ripup_budget);
                    let routed =
                        self.route_net(diagram, network, map, ws, *v, &mut meter, &mut None);
                    nodes_spent += meter.spent();
                    if !routed {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return (SalvageStep::RipUpRetry, nodes_spent, ripup_victims);
            }
            // Roll back: drop whatever the retry added, restore every
            // victim and the net's own prior (pre)route.
            map.rewire_net(net, net_before.as_ref().map_or(&[], NetPath::segments));
            diagram.clear_route(net);
            if let Some(path) = net_before {
                diagram.set_route(net, path);
            }
            for (v, path) in saved {
                map.rewire_net(v, path.segments());
                diagram.set_route(v, path);
            }
        }

        let lee_inject = netart_fault::fire(netart_fault::sites::ROUTE_SALVAGE_LEE);
        let lee_budget = if lee_inject == Some(FaultKind::BudgetExhaust) {
            crate::Budget::new().with_node_limit(0)
        } else {
            escalated
        };
        // The Lee stage is skipped outright on a cancelled run — the
        // net goes straight to its ghost wire so salvage ends within
        // one poll stride of the cancellation instead of starting
        // another escalated maze search.
        let (lee_ok, lee_nodes) = if self.cancelled()
            || matches!(lee_inject, Some(FaultKind::Error | FaultKind::GarbageOutput))
        {
            (false, 0)
        } else {
            self.lee_fallback(diagram, network, map, net, lee_budget)
        };
        nodes_spent += lee_nodes;
        if lee_ok {
            return (SalvageStep::LeeFallback, nodes_spent, ripup_victims);
        }

        // Last resort: an explicit placeholder so the diagram still
        // shows the connection.
        let pins = Self::pin_points(diagram, network, net);
        let lines = pins
            .split_first()
            .map(|(&first, rest)| rest.iter().map(|&p| (first, p)).collect())
            .unwrap_or_default();
        diagram.set_ghost(net, GhostWire { lines });
        (SalvageStep::GhostWire, nodes_spent, ripup_victims)
    }

    /// Routes a failed net with the Lee maze router, pin pair by pin
    /// pair, under `budget`. All-or-nothing like the main router.
    /// Returns success plus the nodes the maze searches expanded.
    fn lee_fallback(
        &self,
        diagram: &mut Diagram,
        network: &Network,
        map: &mut ObstacleMap,
        net: NetId,
        budget: crate::Budget,
    ) -> (bool, u64) {
        let pins = Self::pin_points(diagram, network, net);
        if pins.len() < 2 {
            return (false, 0);
        }
        let bounds = self.border_rect(diagram, network).inflate(-1);

        // Like route_net: the net's own system-terminal point obstacles
        // must not block it.
        let st_points = Self::system_term_points(diagram, network, net);
        map.lift_terminals(&st_points);

        let prerouted: Vec<Segment> = diagram
            .route(net)
            .map(|p| p.segments().to_vec())
            .unwrap_or_default();
        let mut wired = prerouted.clone();
        let mut connected = vec![false; pins.len()];
        if wired.is_empty() {
            connected[0] = true;
        } else {
            for (i, p) in pins.iter().enumerate() {
                if wired.iter().any(|s| s.contains(*p)) {
                    connected[i] = true;
                }
            }
            if !connected.iter().any(|&c| c) {
                connected[0] = true;
            }
        }

        let mut meter = self.meter(budget);
        let mut ok = true;
        while ok {
            let next = (0..pins.len()).filter(|&i| !connected[i]).min_by_key(|&i| {
                (0..pins.len())
                    .filter(|&j| connected[j])
                    .map(|j| pins[i].manhattan(pins[j]))
                    .min()
                    .unwrap_or(u64::MAX)
            });
            let Some(i) = next else { break };
            let target = (0..pins.len())
                .filter(|&j| connected[j])
                .min_by_key(|&j| pins[i].manhattan(pins[j]));
            let Some(j) = target else {
                ok = false;
                break;
            };
            match lee::route_two_points_metered(map, bounds, pins[i], pins[j], net, &mut meter) {
                Some(path) => {
                    wired.extend(path.segments());
                    map.rewire_net(net, &wired);
                    connected[i] = true;
                    for (k, p) in pins.iter().enumerate() {
                        if !connected[k] && wired.iter().any(|s| s.contains(*p)) {
                            connected[k] = true;
                        }
                    }
                }
                None => ok = false,
            }
        }

        map.restore_terminals(&st_points);

        if ok {
            diagram.set_route(net, NetPath::from_segments(merge_collinear(wired)));
            (true, meter.spent())
        } else {
            map.rewire_net(net, &prerouted);
            (false, meter.spent())
        }
    }
}

/// The pin pairs INIT_NET tries, closest first and ties by index. The
/// closest pair is found by a scan; all k(k-1)/2 pairs are listed and
/// sorted only if it fails.
fn init_pairs(pins: &[(Point, Vec<Dir>)]) -> impl Iterator<Item = (usize, usize)> + '_ {
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
        assert_eq!(report.completion(), 1.0);
        let path = d.route(n).unwrap();
        assert_eq!(path.bends(), 0, "{:?}", path.segments());
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn multipoint_net_routes_as_tree() {
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
        let mut d = Diagram::new(network, placement);
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

    #[test]
    fn system_terminal_net() {
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
        let mut d = Diagram::new(network, placement);
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn lifting_a_system_terminal_keeps_its_transposed_twin() {
        // Net `na` owns a system terminal at (2, 8) and net `nb` one at
        // the transposed point (8, 2). Routing `na` lifts only its own
        // points, so `nc`, routed next straight along y = 2, must still
        // go around `nb`'s terminal instead of wiring through it.
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
        let mut d = Diagram::new(network, placement);
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

    #[test]
    fn partial_preroute_is_extended() {
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
        let mut d = Diagram::new(network, placement);
        // Preroute only the u0-u1 stretch.
        d.set_route(n, NetPath::from_segments(vec![Segment::horizontal(1, 4, 10)]));
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        let path = d.route(n).unwrap();
        assert!(path.connects(&[Point::new(4, 1), Point::new(10, 1), Point::new(10, 9)]));
        // The prerouted stretch survives verbatim.
        assert!(path.segments().iter().any(|s| s.contains(Point::new(7, 1))));
    }

    #[test]
    fn blocked_net_reports_failure_without_partial_wires() {
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
        let mut d = Diagram::new(network, placement);
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        // Depending on wall geometry the net may be routable; the key
        // contract here: a failed net has no partial wires.
        for &f in &report.failed {
            assert!(d.route(f).is_none());
        }
    }

    #[test]
    fn claims_reduce_terminal_blocking() {
        // Dense two-column scenario from §5.7 figure 5.10: with claims,
        // both nets route; without, net order can strand C.
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
        let mut d = Diagram::new(network, placement);
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert!(report.failed.is_empty(), "{report:?}");
        assert!(d.check().is_ok(), "{}", d.check());
    }

    #[test]
    fn cyclic_preroute_is_dropped_and_rerouted() {
        let (mut d, n) = simple_diagram();
        // A looping preroute violating Appendix F.
        d.set_route(
            n,
            NetPath::from_segments(vec![
                Segment::horizontal(1, 4, 10),
                Segment::horizontal(4, 4, 10),
                Segment::vertical(4, 1, 4),
                Segment::vertical(10, 1, 4),
            ]),
        );
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
        let network = d.network().clone();
        let mut map = router.build_map(&d, &network);
        let (ok, nodes) = router.lee_fallback(&mut d, &network, &mut map, n, crate::Budget::UNLIMITED);
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
        let network = d.network().clone();
        let mut map = router.build_map(&d, &network);
        let before = map.len();
        let (ok, _) = router.lee_fallback(
            &mut d,
            &network,
            &mut map,
            n,
            crate::Budget::new().with_node_limit(1),
        );
        assert!(!ok);
        assert!(d.route(n).is_none(), "failed fallback leaves no route");
        assert_eq!(map.len(), before, "map rolled back to preroute state");
    }

    #[test]
    fn salvage_emits_ghost_when_nothing_works() {
        // Enclose u1's input terminal completely: a blocker module butts
        // flush against u1, so the pin at their shared edge has no free
        // neighbour and no router — escalated or Lee — can reach it.
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
        let mut d = Diagram::new(network, placement);
        let report = Eureka::new(RouteConfig::default()).route(&mut d);
        assert_eq!(report.failed, vec![n]);
        assert_eq!(report.salvaged.len(), 1);
        assert_eq!(report.salvaged[0].step, SalvageStep::GhostWire);
        assert!(report.salvaged[0].net == n);
        let ghost = d.ghost(n).expect("ghost wire recorded");
        assert_eq!(ghost.lines, vec![(Point::new(4, 11), Point::new(20, 11))]);
        assert!(d.route(n).is_none(), "ghosted net must not carry wires");
    }

    #[test]
    fn rip_up_rollback_preserves_victim_routes() {
        // `good` routes straight through the corridor next to `bad`'s
        // pins, so salvage picks it as a rip-up victim; `bad` stays
        // unroutable (its sink pin is enclosed), so the cascade must
        // roll `good` back verbatim before ghosting `bad`.
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
        let mut d = Diagram::new(network.clone(), placement);
        let router = Eureka::new(RouteConfig::default());
        assert_eq!(
            router.pick_victims(&d, &network, bad),
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

    /// Everything a routing run returns, as text.
    fn outcome(d: &Diagram, report: &RouteReport) -> String {
        format!(
            "{}{}{:?} {:?} {:?}\n{:?}",
            netart_diagram::escher::write_diagram("d", d),
            netart_diagram::svg::render(d),
            report.routed,
            report.failed,
            report.salvaged,
            report.net_stats,
        )
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
                let mut d = diagram.clone();
                let report = Eureka { config: config.clone(), old_bookkeeping }.route(&mut d);
                outcome(&d, &report)
            });
            prop_assert_eq!(&runs[0], &runs[1]);
        }

        /// INIT_NET tries the pin pairs in the order of the sorted list
        /// of all pairs it replaced: by distance, then by index.
        #[test]
        fn init_pairs_come_in_the_sorted_list_order(
            points in prop::collection::vec((0i32..6, 0i32..6), 0..9),
        ) {
            let pins: Vec<(Point, Vec<Dir>)> =
                points.iter().map(|&(x, y)| (Point::new(x, y), vec![])).collect();
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
